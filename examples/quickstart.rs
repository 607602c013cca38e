//! Quickstart: the whole AstroMLab 2 pipeline in one sitting, at smoke
//! scale (≈ a minute on one CPU core).
//!
//! Generates the synthetic astronomy world and its MCQ benchmark, trains a
//! native base model, continually pretrains it on astro-ph-style AIC text,
//! and compares the two models with the base-model next-token method — the
//! paper's headline comparison, in miniature.
//!
//! Run with:
//! ```sh
//! cargo run --release --example quickstart
//! ```

use astromlab::model::Tier;
use astromlab::eval::Method;
use astromlab::world::CorpusRecipe;
use astromlab::{Study, StudyConfig};

fn main() {
    let config = StudyConfig::smoke(42);
    println!("Preparing synthetic world + benchmark (seed {}) ...", config.seed);
    let study = Study::prepare(config).expect("prepare");
    println!(
        "  world: {} articles, {} facts | benchmark: {} MCQs (+{} exemplars) | vocab: {}",
        study.world.articles.len(),
        study.world.facts.len(),
        study.mcq.len(),
        study.mcq.exemplars.len(),
        study.tokenizer.vocab_size()
    );

    println!("Pretraining the native 70B-class stand-in ...");
    let (native, report) = study.pretrain_native(Tier::S70b).expect("pretrain");
    println!(
        "  {} steps, {} tokens, loss {:.3} → {:.3}",
        report.steps,
        report.tokens_processed,
        report.losses.first().map(|&(_, l)| l).unwrap_or(f32::NAN),
        report.tail_loss(3)
    );

    println!("Continual pretraining on the AIC recipe ...");
    let (astro, cpt_report) = study.cpt(&native, CorpusRecipe::Aic).expect("cpt");
    println!(
        "  {} steps, loss {:.3} → {:.3}",
        cpt_report.steps,
        cpt_report.losses.first().map(|&(_, l)| l).unwrap_or(f32::NAN),
        cpt_report.tail_loss(3)
    );

    println!("Evaluating both models (base-model token method) ...");
    let native_score = study.eval(&native, Method::TokenBase);
    let astro_score = study.eval(&astro, Method::TokenBase);
    println!(
        "  native   : {:5.1}%  ({}/{})",
        native_score.percent(),
        native_score.correct(),
        native_score.total()
    );
    println!(
        "  AstroLLaMA-style CPT: {:5.1}%  ({}/{})",
        astro_score.percent(),
        astro_score.correct(),
        astro_score.total()
    );
    let delta = astro_score.percent() - native_score.percent();
    let value = astromlab::eval::value::value_ratio(delta);
    println!(
        "  Δ = {delta:+.1} points → implied cost-efficiency ratio ≈ {value:.2}x \
         (paper: +2.1 points ≈ 4x)"
    );
    println!("Done. For the full Table I run: cargo run --release -p astro-bench -- table1");
}
