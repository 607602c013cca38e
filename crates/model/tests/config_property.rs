//! Property test: `ModelConfig::validate` is the whole shape contract.
//!
//! Using the in-repo PRNG, generate random model/run configurations.
//! Whatever `validate` accepts must run a real loss through
//! `TrainContext` without tripping any runtime assert; a corrupted
//! variant of the same configuration (non-dividing head count, odd head
//! dim, any zero dimension) must come back `Err` — never a panic.

use astro_model::{ModelConfig, Params, TrainContext, WeightPrecision};
use astro_prng::Rng;

/// Draw a small random configuration. Dims are kept tiny so the accepted
/// cases can afford a real forward pass each.
fn random_config(rng: &mut Rng) -> (ModelConfig, usize, usize) {
    let n_heads = 1 + rng.index(3); // 1..=3
    let head_dim = 2 * (1 + rng.index(4)); // even: 2,4,6,8
    let d_model = n_heads * head_dim;
    let cfg = ModelConfig {
        vocab_size: 280 + rng.index(64),
        d_model,
        n_layers: 1 + rng.index(2),
        n_heads,
        d_ff: d_model + rng.index(2 * d_model + 1),
        max_seq: 16 + rng.index(17), // 16..=32
        precision: WeightPrecision::F32,
    };
    let batch = 1 + rng.index(2);
    let seq = 4 + rng.index(cfg.max_seq - 4); // 4..max_seq
    (cfg, batch, seq)
}

#[test]
fn accepted_configs_never_trip_runtime_asserts() {
    let mut rng = Rng::seed_from(0x5eed_a0d1);
    let mut accepted = 0;
    for _ in 0..25 {
        let (cfg, batch, seq) = random_config(&mut rng);
        if cfg.validate().is_err() {
            continue; // rejected: nothing to cross-check here
        }
        accepted += 1;
        // Any shape assert in astro_tensor/astro_model fails the test by
        // panicking.
        let mut init_rng = rng.substream("init");
        let params = Params::init(cfg, &mut init_rng);
        let mut ctx = TrainContext::new(cfg, batch, seq);
        let tokens: Vec<u32> =
            (0..batch * seq).map(|_| rng.index(cfg.vocab_size) as u32).collect();
        let targets: Vec<usize> = (0..batch * seq).map(|_| rng.index(cfg.vocab_size)).collect();
        let mask = vec![true; batch * seq];
        let loss = ctx.loss(&params, &tokens, &targets, &mask);
        assert!(loss.is_finite(), "accepted config produced non-finite loss: {cfg:?}");
    }
    assert!(accepted >= 10, "only {accepted}/25 random configs accepted; generator too strict");
}

#[test]
fn corrupted_configs_are_rejected() {
    // 40 rounds: each of the 8 kinds runs on five different random bases.
    let mut rng = Rng::seed_from(0xbad_c0de);
    for round in 0..40 {
        let (c, _, _) = random_config(&mut rng);
        assert_eq!(c.validate(), Ok(()), "generator drew an invalid base {c:?}");
        // d_model is a multiple of n_heads*2, so n_heads = d_model+1 never
        // divides it, and one head over an odd d_model has an odd head dim.
        let corruptions = [
            ("non-dividing heads", ModelConfig { n_heads: c.d_model + 1, ..c }),
            ("odd head_dim", ModelConfig { d_model: c.d_model + 1, n_heads: 1, ..c }),
            ("vocab_size 0", ModelConfig { vocab_size: 0, ..c }),
            ("d_model 0", ModelConfig { d_model: 0, ..c }),
            ("n_layers 0", ModelConfig { n_layers: 0, ..c }),
            ("n_heads 0", ModelConfig { n_heads: 0, ..c }),
            ("d_ff 0", ModelConfig { d_ff: 0, ..c }),
            ("max_seq 0", ModelConfig { max_seq: 0, ..c }),
        ];
        let (name, mutated) = corruptions[round % corruptions.len()];
        assert!(mutated.validate().is_err(), "{name} not rejected: {mutated:?}");
    }
}
