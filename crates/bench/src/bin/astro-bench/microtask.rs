//! `microtask` — development diagnostic: isolated option-matching
//! micro-task.
//!
//! Sequences are built directly in token space (no BPE, no filler):
//!
//! ```text
//! <fact-value> Q A: v? B: v? C: v? D: v? => <letter-of-matching-option>
//! ```
//!
//! If the training stack can learn THIS, the MCQ-matching circuit is
//! learnable and any flatness in the full study is a data-mixture /
//! budget issue; if it cannot, the model/trainer has a defect.
//!
//! ```sh
//! cargo run --release -p astro-bench -- microtask [steps] [layers] [d] [lr] [letteronly|copy0]
//! ```
//! Defaults: 600 steps, 2 layers, width 32, learning rate 3e-3, loss on
//! every position. `letteronly` puts the loss on the answer letter alone;
//! `copy0` swaps in the pure-attention copy probe below.

use crate::{arg_or, usage};
use astromlab::model::{ModelConfig, Params, TrainContext, WeightPrecision};
use astromlab::prng::Rng;

const USAGE: &str = "microtask [steps] [layers] [d] [lr] [letteronly|copy0]";

// Token ids (tiny fixed vocabulary, no tokenizer involved).
const VALUES: std::ops::Range<u32> = 10..18; // 8 distinct values
const LETTERS: [u32; 4] = [2, 3, 4, 5]; // A B C D
const Q: u32 = 6;
const ARROW: u32 = 7;
const COLON: u32 = 8;
const VOCAB: usize = 20;

/// Pure-attention probe: 16 tokens where the LAST position must repeat
/// the token at position 0 (one attention hop; FFN alone cannot solve it).
fn build_copy_example(rng: &mut Rng) -> (Vec<u32>, usize) {
    let v = VALUES.start + rng.below((VALUES.end - VALUES.start) as u64) as u32;
    let mut seq = vec![v];
    for _ in 1..15 {
        seq.push(LETTERS[rng.index(4)]);
    }
    seq.push(v); // target: copy of position 0
    (seq, (v - VALUES.start) as usize)
}

/// One example: 16 tokens ending with the correct letter.
fn build_example(rng: &mut Rng) -> (Vec<u32>, usize) {
    let n_vals = (VALUES.end - VALUES.start) as usize;
    let correct_slot = rng.index(4);
    let mut vals = rng.sample_indices(n_vals, 4);
    let fact = VALUES.start + vals[correct_slot] as u32;
    let mut seq = vec![fact, Q];
    for (slot, v) in vals.drain(..).enumerate() {
        seq.push(LETTERS[slot]);
        seq.push(COLON);
        seq.push(VALUES.start + v as u32);
    }
    seq.push(ARROW);
    seq.push(LETTERS[correct_slot]);
    (seq, correct_slot)
}

/// Train the micro-task model, printing loss and accuracy every 100 steps.
pub fn main(args: &[String]) {
    let mode = args.get(4).map_or("", String::as_str);
    if args.len() > 5 || !["", "letteronly", "copy0"].contains(&mode) {
        usage(USAGE);
    }
    let steps: usize = arg_or(args, 0, 600, USAGE);
    let layers: usize = arg_or(args, 1, 2, USAGE);
    let d: usize = arg_or(args, 2, 32, USAGE);
    let lr: f32 = arg_or(args, 3, 3e-3, USAGE);
    let cfg = ModelConfig {
        vocab_size: VOCAB,
        d_model: d,
        n_layers: layers,
        n_heads: 4.min(d / 8),
        d_ff: 2 * d,
        max_seq: 16,
        precision: WeightPrecision::F32,
    };
    if cfg.validate().is_err() {
        usage(USAGE);
    }
    astro_telemetry::info!("layers {layers} d {d} lr {lr}");
    let mut rng = Rng::seed_from(7);
    let mut params = Params::init(cfg, &mut rng);
    let b = 16usize;
    let t = 16usize;
    let mut ctx = TrainContext::new(cfg, b, t);
    let letter_only = mode == "letteronly" || mode == "copy0";
    let copy_mode = mode == "copy0";
    let mut opt = astromlab::train::AdamW::new(params.len());
    opt.weight_decay = 0.0;
    let mut grad = vec![0.0f32; params.len()];
    for step in 0..steps {
        let mut tokens = Vec::with_capacity(b * t);
        let mut targets = vec![0usize; b * t];
        let mut mask = vec![false; b * t];
        for row in 0..b {
            let (seq, _) = if copy_mode {
                build_copy_example(&mut rng)
            } else {
                build_example(&mut rng)
            };
            assert_eq!(seq.len(), 16);
            tokens.extend_from_slice(&seq);
            for i in 0..t - 1 {
                targets[row * t + i] = seq[i + 1] as usize;
                mask[row * t + i] = !letter_only || i == t - 2;
            }
        }
        grad.fill(0.0);
        let loss = ctx.loss_and_grad(&params, &tokens, &targets, &mask, &mut grad);
        opt.step(&mut params.data, &grad, lr);
        if step % 100 == 0 || step + 1 == steps {
            // Accuracy on fresh examples: predict the letter after ARROW.
            let mut eval_rng = Rng::seed_from(step as u64 + 99_999);
            let mut hits = 0;
            let n_eval = 100;
            for _ in 0..n_eval {
                if copy_mode {
                    let (seq, _) = build_copy_example(&mut eval_rng);
                    let mut sess = astromlab::model::InferenceSession::new(cfg);
                    let logits = sess.feed_prompt(&params, &seq[..seq.len() - 1]);
                    if astromlab::model::argmax(&logits) as u32 == seq[15] {
                        hits += 1;
                    }
                } else {
                    let (seq, correct_slot) = build_example(&mut eval_rng);
                    let mut sess = astromlab::model::InferenceSession::new(cfg);
                    let logits = sess.feed_prompt(&params, &seq[..seq.len() - 1]);
                    let mut best = (f32::NEG_INFINITY, 0usize);
                    for (slot, &letter) in LETTERS.iter().enumerate() {
                        if logits[letter as usize] > best.0 {
                            best = (logits[letter as usize], slot);
                        }
                    }
                    if best.1 == correct_slot {
                        hits += 1;
                    }
                }
            }
            println!("step {step:>5}: loss {loss:.4} | accuracy {}%", hits);
        }
    }
}
