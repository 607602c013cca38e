//! The int8 forward pinned bit for bit: an FNV-1a digest of every int8
//! logit a seeded S7b / S8b / S70b model produces on a block-fed prompt,
//! one-row decodes and a stacked `try_feed_lanes` call, against values
//! recorded before the quantize epilogues and the q8 tile were vectorised.
//!
//! The int8 path has no f32 oracle to equal (`int8_differential` bounds
//! its distance from one), so a recorded digest is what shows that a
//! kernel change — another dispatch level, a vector rounder, a new
//! multiply-add instruction, the int8 panels of frozen weights — moved no
//! bit. Every level and both weight forms must land on the same digest:
//! the kernels agree with their portable loops exactly.

use astro_model::{InferenceSession, Lane, ModelConfig, Params, Tier, WeightPrecision};
use astro_prng::Rng;
use astro_resilience::fnv64;

const VOCAB: usize = 512;

/// The bytes of every logit row of the script below on `p`: a 40-token
/// prompt fed in row blocks (16 + 16 + 8), three one-row decodes, then
/// three forks at different positions advanced by 1, 2 and 5 tokens in
/// one stacked forward.
fn int8_logit_bytes(p: &Params) -> Vec<u8> {
    assert_eq!(p.cfg.precision, WeightPrecision::Int8);
    let mut bytes = Vec::new();
    let mut push = |logits: &[f32]| bytes.extend(logits.iter().flat_map(|v| v.to_bits().to_le_bytes()));
    let prompt: Vec<u32> = (0..40).map(|i| (i * 37 % VOCAB) as u32).collect();
    let mut sess = InferenceSession::new(p.cfg);
    push(sess.try_feed_prompt(p, &prompt).unwrap());
    let mut forks = Vec::new();
    for t in [5, 77, 311] {
        forks.push(sess.clone());
        push(sess.feed(p, t));
    }
    let tokens: [&[u32]; 3] = [&[400], &[9, 12], &[1, 2, 3, 500, 44]];
    let mut rows = vec![0.0; 8 * VOCAB];
    let mut lanes: Vec<Lane<'_>> =
        forks.iter_mut().zip(tokens).map(|(session, tokens)| Lane { session, tokens }).collect();
    InferenceSession::try_feed_lanes(p, &mut lanes, &mut rows).unwrap();
    push(&rows);
    bytes
}

#[test]
fn int8_logits_match_the_recorded_digests() {
    // The quantized weights as trained code leaves them (the row-major
    // int8 copy) and as an engine serves them (`Params::frozen`: the
    // int8 panels on an AVX-512 CPU) land on the same digests.
    let pinned = [
        (Tier::S7b, 0x21b3_993e_3037_a807u64),
        (Tier::S8b, 0x6d78_b673_6507_930d),
        (Tier::S70b, 0xe6de_c489_f5db_21af),
    ];
    for frozen in [false, true] {
        let got = pinned.map(|(tier, _)| {
            let p = Params::init(ModelConfig::tier(tier, VOCAB), &mut Rng::seed_from(29));
            let p = if frozen { p.quantized().frozen() } else { p.quantized() };
            (tier, fnv64(&int8_logit_bytes(&p)))
        });
        assert_eq!(got, pinned, "int8 logit digests, frozen {frozen}: {got:#018x?}");
    }
}
