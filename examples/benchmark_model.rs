//! Benchmark a saved checkpoint with the three AstroMLab methods.
//!
//! Loads a model (and tokenizer) written by `train_astrollama`, rebuilds
//! the benchmark deterministically from the same seed, and reports all
//! three scores plus the full-instruct extraction-stage breakdown — the
//! diagnostic the paper uses to attribute score loss to
//! instruction-following rather than knowledge.
//!
//! Usage:
//! ```sh
//! cargo run --release --example benchmark_model -- <ckpt> <tokenizer.bin> [n_questions]
//! ```
//! With no arguments, trains a smoke-scale model in place and benchmarks
//! it (so the example is always runnable).

use astromlab::eval::{
    evaluate_checked, EvalModel, InstructEvalConfig, Method, TokenEvalConfig,
};
use astromlab::model::{serial, Params, Tier};
use astromlab::tokenizer::Tokenizer;
use astromlab::prng::Rng;
use astromlab::{Study, StudyConfig};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let study = Study::prepare(StudyConfig::smoke(7)).expect("prepare");

    let (params, tokenizer): (Params, Tokenizer) = match (args.get(1), args.get(2)) {
        (Some(ckpt), Some(tok_path)) => {
            let params = serial::load_checkpoint(std::path::Path::new(ckpt))
                .unwrap_or_else(|e| panic!("load {ckpt}: {e}"));
            let blob = std::fs::read(tok_path).unwrap_or_else(|e| panic!("read {tok_path}: {e}"));
            let tokenizer = Tokenizer::from_bytes(&blob).expect("parse tokenizer");
            (params, tokenizer)
        }
        _ => {
            println!("(no checkpoint given — training a smoke-scale native model first)");
            let (p, _) = study.pretrain_native(Tier::S8b).expect("pretrain");
            (p, study.tokenizer.clone())
        }
    };
    let n_questions: usize = args
        .get(3)
        .and_then(|s| s.parse().ok())
        .unwrap_or(study.config.n_eval_questions);

    let model = EvalModel {
        params: &params,
        tokenizer: &tokenizer,
    };
    let mut rng = Rng::seed_from(1234);
    let questions = {
        let mut qrng = rng.substream("subset");
        study.mcq.subset(n_questions, &mut qrng)
    };
    println!(
        "benchmarking {} parameters on {} questions",
        params.len(),
        questions.len()
    );

    for method in Method::all() {
        let score = evaluate_checked(
            &model,
            &questions,
            &study.mcq.exemplars,
            method,
            &TokenEvalConfig::default(),
            &InstructEvalConfig::default(),
            &mut rng,
        )
        .unwrap_or_else(|failure| failure.degraded);
        print!("  {:<36} {:5.1}%  ({}/{})", method.label(), score.percent(), score.correct(), score.total());
        if method == Method::FullInstruct {
            let [json, pattern, interp, failed] = score.stages();
            print!("   answers via JSON {json} / pattern {pattern} / interpreter {interp} / failed {failed}");
        }
        println!();
    }
    println!("note: chance level is 25%.");
}
