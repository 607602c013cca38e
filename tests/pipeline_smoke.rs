//! End-to-end integration: one model line of the paper's pipeline —
//! world → tokenizer → benchmark → native pretrain → CPT → SFT → all
//! three evaluation methods — at smoke scale.

use astromlab::eval::Method;
use astromlab::model::Tier;
use astromlab::world::CorpusRecipe;
use astromlab::{Study, StudyConfig};

#[test]
fn one_model_line_end_to_end() {
    let study = Study::prepare(StudyConfig::smoke(101)).expect("prepare");

    // Pretrain the smallest native.
    let (native, pre_report) = study.pretrain_native(Tier::S7b).expect("pretrain");
    assert!(
        pre_report.tail_loss(2) < pre_report.losses[0].1,
        "pretraining must reduce loss: {:?}",
        pre_report.losses
    );

    // CPT on the AIC recipe.
    let (base, cpt_report) = study.cpt(&native, CorpusRecipe::Aic).expect("cpt");
    assert!(cpt_report.final_loss.is_finite());

    // SFT into an instruct model.
    let (instruct, sft_report) = study.sft(&base, "integration").expect("sft");
    assert!(sft_report.final_loss.is_finite());

    // All three methods produce valid scores.
    let tb = study.eval(&base, Method::TokenBase);
    let ti = study.eval(&instruct, Method::TokenInstruct);
    let fi = study.eval(&instruct, Method::FullInstruct);
    for (label, s) in [("token-base", &tb), ("token-instruct", &ti), ("full-instruct", &fi)] {
        assert_eq!(s.total(), study.config.n_eval_questions, "{label}");
        assert!(s.correct() <= s.total(), "{label}");
    }
    // The full-instruct stage accounting must cover every question.
    assert_eq!(fi.stages().iter().sum::<usize>(), fi.total());
}

#[test]
fn cpt_stays_stable_on_astro_text() {
    let study = Study::prepare(StudyConfig::smoke(102)).expect("prepare");
    let (native, _) = study.pretrain_native(Tier::S7b).expect("pretrain");

    // At smoke scale (15 steps, paper-relation CPT LR) the loss barely
    // moves; the invariant is stability, not reduction — the reduction is
    // asserted at realistic scale by astro-train's perplexity tests and
    // the recorded experiment runs.
    let (_, report) = study.cpt(&native, CorpusRecipe::Aic).expect("cpt");
    assert!(report.final_loss.is_finite());
    assert!(
        report.tail_loss(2) <= report.losses[0].1 * 1.15,
        "CPT loss blew up: {:?}",
        report.losses
    );
}

#[test]
fn all_three_recipes_produce_distinct_models() {
    let study = Study::prepare(StudyConfig::smoke(103)).expect("prepare");
    let (native, _) = study.pretrain_native(Tier::S7b).expect("pretrain");
    let (abstract_m, _) = study.cpt(&native, CorpusRecipe::Abstract).expect("cpt");
    let (aic_m, _) = study.cpt(&native, CorpusRecipe::Aic).expect("cpt");
    let (summary_m, _) = study.cpt(&native, CorpusRecipe::Summary).expect("cpt");
    assert_ne!(abstract_m.data, aic_m.data);
    assert_ne!(aic_m.data, summary_m.data);
    assert_ne!(abstract_m.data, native.data);
}
