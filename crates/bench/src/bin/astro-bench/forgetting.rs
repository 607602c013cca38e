//! `forgetting` — E1b, catastrophic forgetting measured directly in loss
//! space.
//!
//! The paper's Table I differences are downstream of one mechanism: CPT
//! on astro-only text shifts the model toward the astro distribution and
//! away from the general distribution, with the damage depending on
//! capacity. This subcommand measures that mechanism directly — held-out
//! next-token loss on the general and astro (AIC) distributions before
//! and after CPT, per capacity tier — which is robust at CPU scale where
//! MCQ accuracies are noisy.
//!
//! Expected shape (mirroring S1–S3): astro loss drops for every tier;
//! the *general-loss rise* (forgetting) is largest for the smallest tier.
//!
//! ```sh
//! cargo run --release -p astro-bench -- forgetting [micro|smoke|fast|full] [seed]
//! ```
//!
//! The natives and their AIC models come from `table1`'s run directory,
//! `runs/<preset>-<seed>`, training only what it does not hold yet.

use crate::{instrumented_run, or_exit};
use astromlab::train::held_out_loss;
use astromlab::model::Tier;
use astromlab::world::CorpusRecipe;
use astromlab::zoo::Recipe;
use astromlab::Study;

/// Print the per-tier held-out losses before and after CPT.
pub fn main(args: &[String]) {
    let (config, run) = instrumented_run("forgetting_curves", "forgetting", args);
    let seq = config.seq;
    let study = Study::prepare(config).expect("prepare");
    let dir = run.run_dir();
    let mut zoo = or_exit(study.open_run(&dir), &dir);
    let astro_stream = study.cpt_stream(CorpusRecipe::Aic).expect("prepared");
    let windows = 40;

    println!("\n=== E1b: held-out loss before/after CPT (AIC recipe) ===\n");
    println!(
        "{:<12} {:>8} {:>14} {:>14} {:>14} {:>14} {:>12}",
        "tier", "params", "general pre", "general post", "astro pre", "astro post", "forgetting"
    );
    println!("{}", "-".repeat(94));
    let mut forgetting = Vec::new();
    for tier in [Tier::S7b, Tier::S8b, Tier::S70b] {
        let native = Recipe::native(tier);
        let cpt = native.clone().cpt(CorpusRecipe::Aic);
        let native = or_exit(zoo.weights(&native), &dir);
        let n_params = native.len();
        let (gen_pre, _) = held_out_loss(native, &study.general_stream, seq, windows);
        let (astro_pre, _) = held_out_loss(native, astro_stream, seq, windows);
        let cpt = or_exit(zoo.weights(&cpt), &dir);
        let (gen_post, _) = held_out_loss(cpt, &study.general_stream, seq, windows);
        let (astro_post, _) = held_out_loss(cpt, astro_stream, seq, windows);
        let forget = gen_post - gen_pre;
        forgetting.push(forget);
        println!(
            "{:<12} {:>8} {:>14.4} {:>14.4} {:>14.4} {:>14.4} {:>+12.4}",
            tier.label(),
            n_params,
            gen_pre,
            gen_post,
            astro_pre,
            astro_post,
            forget
        );
    }
    println!(
        "\nshape check (paper S1–S3 mechanism): general-loss rise should shrink as \
         capacity grows."
    );
    let ok = forgetting[0] >= forgetting[2];
    println!(
        "  7B-class forgetting {:+.4} vs 70B-class {:+.4} → {}",
        forgetting[0],
        forgetting[2],
        if ok { "shape holds" } else { "shape NOT reproduced at this preset" }
    );
    run.finish();
}
