//! Train one AstroLLaMA-style model end to end — CPT then SFT — and save
//! checkpoints, mirroring the paper's §III training recipe (cosine decay,
//! 0.03 warmup, bf16, the 1/3-astronomy SFT mixture) at CPU scale.
//!
//! Usage:
//! ```sh
//! cargo run --release --example train_astrollama -- [7b|8b|70b] [abstract|aic|summary] [out_dir]
//! ```
//! Defaults: `70b aic target/astrollama`.

use astromlab::eval::Method;
use astromlab::model::{serial, Tier};
use astromlab::world::CorpusRecipe;
use astromlab::{Study, StudyConfig};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let tier = match args.get(1).map(|s| s.as_str()) {
        Some("7b") => Tier::S7b,
        Some("8b") => Tier::S8b,
        None | Some("70b") => Tier::S70b,
        Some(other) => {
            eprintln!("unknown tier {other:?}; use 7b|8b|70b");
            std::process::exit(2);
        }
    };
    let recipe = match args.get(2).map(|s| s.as_str()) {
        Some("abstract") => CorpusRecipe::Abstract,
        None | Some("aic") => CorpusRecipe::Aic,
        Some("summary") => CorpusRecipe::Summary,
        Some(other) => {
            eprintln!("unknown recipe {other:?}; use abstract|aic|summary");
            std::process::exit(2);
        }
    };
    let out_dir = std::path::PathBuf::from(
        args.get(3).cloned().unwrap_or_else(|| "target/astrollama".to_string()),
    );
    std::fs::create_dir_all(&out_dir).expect("create output dir");

    println!("== AstroLLaMA trainer: tier {} recipe {} ==", tier.label(), recipe.label());
    let study = Study::prepare(StudyConfig::smoke(7)).expect("prepare");

    println!("[1/3] pretraining native base ({} params) ...", study.model_config(tier).param_count());
    let (native, _) = study.pretrain_native(tier).expect("pretrain");

    println!("[2/3] continual pretraining on {} corpus ({} tokens packed) ...",
        recipe.label(), study.cpt_stream(recipe).expect("prepared").len());
    let (base, cpt_report) = study.cpt(&native, recipe).expect("cpt");
    println!(
        "      CPT loss {:.3} → {:.3}",
        cpt_report.losses.first().map(|&(_, l)| l).unwrap_or(f32::NAN),
        cpt_report.tail_loss(3)
    );

    println!("[3/3] SFT on the paper's conversation mixture ({} examples) ...", study.sft_examples.len());
    let (instruct, sft_report) = study.sft(&base, "example").expect("sft");
    println!(
        "      SFT loss {:.3} → {:.3}",
        sft_report.losses.first().map(|&(_, l)| l).unwrap_or(f32::NAN),
        sft_report.tail_loss(3)
    );

    // Save both checkpoints + tokenizer.
    let base_path = out_dir.join("base.ckpt");
    let instruct_path = out_dir.join("instruct.ckpt");
    let tok_path = out_dir.join("tokenizer.bin");
    serial::save_checkpoint(&base, &base_path).expect("save base");
    serial::save_checkpoint(&instruct, &instruct_path).expect("save instruct");
    std::fs::write(&tok_path, study.tokenizer.to_bytes()).expect("save tokenizer");
    println!("saved: {} | {} | {}", base_path.display(), instruct_path.display(), tok_path.display());

    // Round-trip sanity + a quick benchmark comparison.
    let reloaded = serial::load_checkpoint(&base_path).expect("reload");
    assert_eq!(reloaded.data, base.data, "checkpoint round-trip mismatch");

    for (label, params, method) in [
        ("base / token-base", &base, Method::TokenBase),
        ("instruct / token-instruct", &instruct, Method::TokenInstruct),
        ("instruct / full-instruct", &instruct, Method::FullInstruct),
    ] {
        let s = study.eval(params, method);
        println!("  {label:<28} {:5.1}%  ({}/{})", s.percent(), s.correct(), s.total());
    }
}
