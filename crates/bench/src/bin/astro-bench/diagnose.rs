//! `diagnose` — development diagnostic: track token-base MCQ accuracy
//! and held-out losses as a native model trains, to size the presets. Not
//! part of the paper's artefacts.
//!
//! ```sh
//! cargo run --release -p astro-bench -- diagnose [steps] [7b|8b|70b] [n_entities] [general_docs]
//! ```
//! Defaults: 800 steps of the 8B-class tier on the `fast` world with 120
//! entities and 4,000 general documents.

use crate::{arg_or, usage};
use astromlab::eval::Method;
use astromlab::model::Tier;
use astromlab::train::held_out_loss;
use astromlab::{Study, StudyConfig};
use astromlab::world::CorpusRecipe;

const USAGE: &str = "diagnose [steps] [7b|8b|70b] [n_entities] [general_docs]";

/// Train one native in 100-step chunks, logging accuracy and losses.
pub fn main(args: &[String]) {
    if args.len() > 4 {
        usage(USAGE);
    }
    let steps: u64 = arg_or(args, 0, 800, USAGE);
    let tier = match args.get(1).map_or("8b", String::as_str) {
        "7b" => Tier::S7b,
        "8b" => Tier::S8b,
        "70b" => Tier::S70b,
        _ => usage(USAGE),
    };
    let mut config = StudyConfig::fast(42);
    config.n_eval_questions = 120;
    config.world.n_entities = arg_or(args, 2, 120, USAGE);
    config.general_docs = arg_or(args, 3, 4000, USAGE);
    if config.validate().is_err() {
        usage(USAGE);
    }
    let study = Study::prepare(config).expect("prepare");
    astro_telemetry::info!(
        "world: {} facts | general stream: {} tokens | AIC stream: {} tokens | vocab {}",
        study.world.facts.len(),
        study.general_stream.len(),
        study.cpt_stream(CorpusRecipe::Aic).expect("prepared").len(),
        study.tokenizer.vocab_size()
    );

    // Train in chunks, evaluating between.
    let cfg_model = study.model_config(tier);
    let mut rng = astromlab::prng::Rng::seed_from(42).substream("diag-init");
    let mut params = astromlab::model::Params::init(cfg_model, &mut rng);
    astro_telemetry::info!("tier {:?}: {} params", tier, params.len());
    // Tokenizer diagnostics: do the letter variants exist?
    for piece in ["A", " A", " B", " C", " D", "Answer:", " Answer:"] {
        astro_telemetry::info!("  token_for_str({piece:?}) = {:?}", study.tokenizer.token_for_str(piece));
    }

    let chunk = 100u64;
    let mut done = 0u64;
    let t0 = std::time::Instant::now();
    while done < steps {
        let n = chunk.min(steps - done);
        let tc = astromlab::train::TrainerConfig {
            lr: study.config.native_lr,
            batch: study.config.batch,
            seq: study.config.seq,
            steps: n,
            log_every: 0,
            ..Default::default()
        };
        let report = astromlab::train::train_lm(
            &mut params,
            astromlab::train::BatchSource::Lm(&study.general_stream),
            &tc,
            &astromlab::prng::Rng::seed_from(1000 + done),
        )
        .expect("train");
        done += n;
        let score = study.eval(&params, Method::TokenBase);
        let (hl, _) = held_out_loss(&params, &study.general_stream, study.config.seq, 20);
        // Prediction histogram over the eval subset.
        let mut hist = [0usize; 4];
        for p in score.outcomes.iter().filter_map(|o| o.chosen) {
            hist[p] += 1;
        }
        astro_telemetry::info!(
            "step {done:>5}: train loss {:.3} | held-out {:.3} | token-base {:>5.1}% ({}/{}) | preds A{} B{} C{} D{} | {:.0}s",
            report.final_loss,
            hl,
            score.percent(),
            score.correct(),
            score.total(),
            hist[0], hist[1], hist[2], hist[3],
            t0.elapsed().as_secs_f64()
        );
    }

    // Fact-recall probe: completion accuracy on "The {rel} of {ent} is"
    // over consensus facts (does the model KNOW the facts, separate from
    // the MCQ format?).
    let consensus: Vec<&astromlab::world::Fact> = study
        .world
        .facts_of_tier(astromlab::world::FactTier::Consensus)
        .take(60)
        .collect();
    let mut recall_hits = 0usize;
    for fact in &consensus {
        let entity = study.world.entity_of(fact);
        let prompt_text = format!("The {} of {} is", fact.relation.phrase(), entity.name);
        let toks = study.tokenizer.encode_with_bounds(&prompt_text, false);
        let mut sess = astromlab::model::InferenceSession::new(params.cfg);
        let logits = sess.feed_prompt(&params, &toks);
        let next = astromlab::model::argmax(&logits) as u32;
        let value_first = study.tokenizer.encode(&format!(" {}", fact.value));
        if value_first.first() == Some(&next) {
            recall_hits += 1;
        }
    }
    astro_telemetry::info!(
        "fact recall (first token of value): {}/{} = {:.0}%",
        recall_hits,
        consensus.len(),
        100.0 * recall_hits as f64 / consensus.len() as f64
    );

    // In-context MCQ probe: the fact sentence is given right before the
    // question (the context-primer pattern). If the model can do THIS but
    // not the closed-book MCQ, option-matching works and knowledge recall
    // is the bottleneck; if it can't do this either, the induction circuit
    // itself hasn't formed.
    let questions = study.eval_questions();
    let mut ctx_hits = 0usize;
    let mut probe_rng = astromlab::prng::Rng::seed_from(9).substream("ctx-probe");
    for q in questions.iter().take(60) {
        let fact = &study.world.facts[q.fact];
        let context = study.world.render_fact(fact, &mut probe_rng);
        let block = astromlab::mcq::prompts::render_block(q, false);
        let text = format!("{context}\n{block}");
        let toks = study.tokenizer.encode_with_bounds(&text, false);
        let keep = toks.len().min(params.cfg.max_seq);
        let mut sess = astromlab::model::InferenceSession::new(params.cfg);
        let logits = sess.feed_prompt(&params, &toks[toks.len() - keep..]);
        let mut best = (f32::NEG_INFINITY, 0usize);
        for (i, opt) in q.options.iter().enumerate() {
            let head = opt.split(' ').next().unwrap_or(opt);
            for piece in [format!(" {head}"), head.to_string()] {
                if let Some(id) = study.tokenizer.token_for_str(&piece) {
                    let l = logits[id as usize];
                    if l > best.0 {
                        best = (l, i);
                    }
                }
            }
        }
        if best.1 == q.answer {
            ctx_hits += 1;
        }
    }
    astro_telemetry::info!(
        "in-context MCQ accuracy (fact shown): {}/60 = {:.0}%",
        ctx_hits,
        100.0 * ctx_hits as f64 / 60.0
    );

    // Top-10 tokens after one real prompt.
    let questions = study.eval_questions();
    let q = questions[0];
    let prompt = astromlab::mcq::prompts::token_method_prompt(q, &study.mcq.exemplars, 2);
    let tokens = study.tokenizer.encode_with_bounds(&prompt, false);
    astro_telemetry::info!("prompt tokens: {} (max_seq {})", tokens.len(), params.cfg.max_seq);
    let mut sess = astromlab::model::InferenceSession::new(params.cfg);
    let keep = tokens.len().min(params.cfg.max_seq);
    let logits = sess.feed_prompt(&params, &tokens[tokens.len()-keep..]);
    let mut idx: Vec<usize> = (0..logits.len()).collect();
    // `total_cmp`: a diverged run's NaN logits sort, not panic.
    idx.sort_by(|&a, &b| logits[b].total_cmp(&logits[a]));
    astro_telemetry::info!("correct answer: {} ({})", q.answer_letter(), q.options[q.answer]);
    for &i in idx.iter().take(10) {
        astro_telemetry::info!("  top token {:?} logit {:.2}", String::from_utf8_lossy(study.tokenizer.piece(i as u32)), logits[i]);
    }
}
