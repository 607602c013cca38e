//! Differential tolerance suite: int8 inference vs the f32 golden path.
//!
//! The f32 path is bitwise-frozen; the int8 path is validated against it
//! per capacity tier with two complementary gates:
//!
//! * a **max-abs logit bound** over a long seeded decode — catches any
//!   quantization regression (bad scales, wrong epilogue, accumulator
//!   overflow) as a numeric drift;
//! * a **prediction-flip budget** — the fraction of steps where the int8
//!   argmax differs from the f32 argmax, which is what actually moves
//!   MCQ benchmark scores. Near-ties may legitimately flip under a
//!   ~1%-scale weight perturbation, so the budget is small but not zero.
//!
//! Bounds were set from measured deviations (see the printed stats under
//! `--nocapture`) with ~3× headroom; a genuine kernel bug (wrong scale,
//! saturated accumulator) overshoots them by orders of magnitude.

use astro_model::{InferenceSession, ModelConfig, Params, Tier, WeightPrecision};
use astro_prng::Rng;

struct Deviation {
    max_abs: f32,
    flips: usize,
    steps: usize,
}

/// Drive the same seeded token stream through both precisions and
/// measure logit deviation + argmax flips at every step.
fn measure(tier: Tier, seed: u64, steps: usize) -> Deviation {
    let vocab = 64usize;
    let cfg = ModelConfig::tier(tier, vocab);
    let p32 = Params::init(cfg, &mut Rng::seed_from(seed));
    let p8 = p32.clone().quantized();
    assert_eq!(p8.cfg.precision, WeightPrecision::Int8);
    let mut s32 = InferenceSession::new(cfg);
    let mut s8 = InferenceSession::new(p8.cfg);
    let mut rng = Rng::seed_from(seed ^ 0x5eed);
    let mut dev = Deviation { max_abs: 0.0, flips: 0, steps };
    for _ in 0..steps {
        let t = rng.index(vocab) as u32;
        let a = s32.feed(&p32, t).to_vec();
        let b = s8.feed(&p8, t).to_vec();
        let mut am = (0usize, f32::NEG_INFINITY);
        let mut bm = (0usize, f32::NEG_INFINITY);
        for i in 0..vocab {
            assert!(b[i].is_finite(), "int8 logit not finite at vocab {i}");
            dev.max_abs = dev.max_abs.max((a[i] - b[i]).abs());
            if a[i] > am.1 {
                am = (i, a[i]);
            }
            if b[i] > bm.1 {
                bm = (i, b[i]);
            }
        }
        if am.0 != bm.0 {
            dev.flips += 1;
        }
    }
    dev
}

/// Per-tier gates. Measured max-abs deviations on seeds 40–42 were
/// 0.0069 (S7b), 0.0097 (S8b), 0.0149 (S70b) with zero prediction
/// flips over 192 steps each; the asserted bounds carry ~3× headroom on
/// the deviation and allow a handful of near-tie flips.
fn check_tier(tier: Tier, max_abs_bound: f32, flip_budget: f64) {
    let mut worst_abs = 0.0f32;
    let mut flips = 0usize;
    let mut steps = 0usize;
    for seed in 40..43u64 {
        let d = measure(tier, seed, 64);
        worst_abs = worst_abs.max(d.max_abs);
        flips += d.flips;
        steps += d.steps;
    }
    let flip_rate = flips as f64 / steps as f64;
    println!(
        "{}: max_abs {worst_abs:.6} (bound {max_abs_bound}), flips {flips}/{steps} \
         = {flip_rate:.4} (budget {flip_budget})",
        tier.label()
    );
    assert!(
        worst_abs <= max_abs_bound,
        "{}: int8 logit deviation {worst_abs} exceeds bound {max_abs_bound}",
        tier.label()
    );
    assert!(
        flip_rate <= flip_budget,
        "{}: prediction flip rate {flip_rate} exceeds budget {flip_budget}",
        tier.label()
    );
}

#[test]
fn s7b_int8_within_tolerance() {
    check_tier(Tier::S7b, 0.021, 0.05);
}

#[test]
fn s8b_int8_within_tolerance() {
    check_tier(Tier::S8b, 0.03, 0.05);
}

#[test]
fn s70b_int8_within_tolerance() {
    check_tier(Tier::S70b, 0.045, 0.05);
}

#[test]
fn int8_chunked_verification_matches_int8_steps_bitwise() {
    // Chunk-split invariance at tier scale (not just tiny): a chunked
    // int8 call is bitwise-equal to sequential int8 steps.
    for tier in [Tier::S7b, Tier::S70b] {
        let cfg = ModelConfig::tier(tier, 64);
        let p = Params::init(cfg, &mut Rng::seed_from(50)).quantized();
        let mut seq = InferenceSession::new(p.cfg);
        let mut chk = InferenceSession::new(p.cfg);
        for &t in &[5u32, 9, 14] {
            seq.feed(&p, t);
            chk.feed(&p, t);
        }
        let chunk = [7u32, 21, 3, 44, 11, 60];
        let mut want = Vec::new();
        for &t in &chunk {
            want.extend_from_slice(seq.feed(&p, t));
        }
        let got = chk.try_feed_chunk(&p, &chunk).unwrap();
        assert_eq!(got, want, "{}: chunk/step divergence", tier.label());
    }
}

#[test]
fn quantized_weights_shrink_resident_bytes() {
    let cfg = ModelConfig::tier(Tier::S70b, 64);
    let p32 = Params::init(cfg, &mut Rng::seed_from(51));
    let f32_bytes = p32.weight_bytes();
    let p8 = p32.quantized();
    let q_bytes = p8.weight_bytes();
    assert!(
        (q_bytes as f64) < 0.3 * f32_bytes as f64,
        "int8 weights {q_bytes} not under 30% of f32 {f32_bytes}"
    );
}
