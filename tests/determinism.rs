//! Cross-crate determinism: a study seed fully determines every artefact
//! — world, tokenizer, benchmark, trained weights and scores.

use astromlab::eval::Method;
use astromlab::model::Tier;
use astromlab::{Study, StudyConfig};

#[test]
fn same_seed_reproduces_scores_bitwise() {
    let run = |seed: u64| {
        let study = Study::prepare(StudyConfig::smoke(seed)).expect("prepare");
        let (native, _) = study.pretrain_native(Tier::S7b).expect("pretrain");
        let score = study.eval(&native, Method::TokenBase);
        (native.data, score)
    };
    let (w1, s1) = run(555);
    let (w2, s2) = run(555);
    assert_eq!(w1, w2, "weights must be bit-identical across runs");
    assert_eq!(s1, s2);
}

#[test]
fn different_seeds_give_different_worlds_and_weights() {
    let s1 = Study::prepare(StudyConfig::smoke(1)).expect("prepare");
    let s2 = Study::prepare(StudyConfig::smoke(2)).expect("prepare");
    // Worlds differ.
    let same_facts = s1
        .world
        .facts
        .iter()
        .zip(s2.world.facts.iter())
        .filter(|(a, b)| a.value == b.value)
        .count();
    assert!(same_facts < s1.world.facts.len());
    // Benchmarks differ.
    assert_ne!(
        s1.mcq.questions[0].question, s2.mcq.questions[0].question,
        "different seeds should give different benchmarks (very likely)"
    );
}

#[test]
fn tokenizer_is_deterministic_across_preparations() {
    let a = Study::prepare(StudyConfig::smoke(77)).expect("prepare");
    let b = Study::prepare(StudyConfig::smoke(77)).expect("prepare");
    assert_eq!(a.tokenizer.vocab_size(), b.tokenizer.vocab_size());
    let text = "The redshift of NGC-382 is 0.45.";
    assert_eq!(a.tokenizer.encode(text), b.tokenizer.encode(text));
}
