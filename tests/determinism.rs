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

/// One FNV-1a digest per `Study::prepare` output: the tokenizer's bytes,
/// the general stream, the three CPT streams and the SFT examples.
fn prepare_digests(config: StudyConfig) -> [u64; 6] {
    use astro_resilience::fnv64;
    let study = Study::prepare(config).expect("prepare");
    let tokens = |ids: &[u32]| fnv64(&ids.iter().flat_map(|t| t.to_le_bytes()).collect::<Vec<_>>());
    let mut sft = Vec::new();
    for ex in &study.sft_examples {
        sft.extend((ex.tokens.len() as u64).to_le_bytes());
        sft.extend(ex.tokens.iter().flat_map(|t| t.to_le_bytes()));
        sft.extend(ex.loss_mask.iter().map(|&m| u8::from(m)));
    }
    let [(_, abs), (_, aic), (_, summary)] = &study.cpt_streams[..] else {
        panic!("prepare packs three CPT streams")
    };
    [
        fnv64(&study.tokenizer.to_bytes()),
        tokens(&study.general_stream.tokens),
        tokens(&abs.tokens),
        tokens(&aic.tokens),
        tokens(&summary.tokens),
        fnv64(&sft),
    ]
}

#[test]
fn prepare_outputs_are_pinned_bit_for_bit() {
    // Digests recorded with the recount BPE trainer and per-document
    // `encode_with_bounds` packing: a faster set-up must train the same
    // merges and pack the same streams.
    let pinned = [
        (
            StudyConfig::micro(11),
            [
                0xd09f_3184_88d7_3a60,
                0xd841_bf62_a9f7_dedd,
                0x36eb_36d6_dd32_5788,
                0xf240_d967_38c9_e774,
                0xa4ff_a1e0_411a_9a1b,
                0xcbfd_c509_0a7f_5e4e,
            ],
        ),
        (
            StudyConfig::smoke(42),
            [
                0x122b_8f5b_0a4c_3012,
                0x6451_4ce5_dbab_cd3f,
                0x57ff_5d79_b409_b42f,
                0x9c51_c0d3_9056_63ca,
                0x6652_6318_a8bc_b470,
                0x10c6_b317_912c_6e1e,
            ],
        ),
    ];
    for (config, want) in pinned {
        let seed = config.seed;
        let got = prepare_digests(config);
        assert_eq!(got, want, "prepare digests at seed {seed}: {got:#018x?}");
    }
}
