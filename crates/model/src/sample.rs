//! Sampling strategies for generation.
//!
//! The paper sets temperature 0 for the next-token benchmark (greedy) and
//! uses each model's default sampling settings for the full-instruct
//! method; we expose greedy, temperature, and top-k.

use astro_prng::Rng;

/// Sampling configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SamplerConfig {
    /// Softmax temperature; `0.0` means greedy argmax.
    pub temperature: f32,
    /// Keep only the `top_k` most likely tokens (0 = disabled).
    pub top_k: usize,
}

impl SamplerConfig {
    /// Greedy decoding (temperature 0), as the paper uses for the token
    /// method.
    pub fn greedy() -> Self {
        SamplerConfig {
            temperature: 0.0,
            top_k: 0,
        }
    }

    /// Standard creative sampling.
    pub fn standard() -> Self {
        SamplerConfig {
            temperature: 0.8,
            top_k: 40,
        }
    }
}

/// Index of the maximum logit (ties broken toward the lower index, which
/// keeps greedy decoding deterministic).
pub fn argmax(logits: &[f32]) -> usize {
    let mut best = 0;
    let mut best_v = f32::NEG_INFINITY;
    for (i, &v) in logits.iter().enumerate() {
        if v > best_v {
            best_v = v;
            best = i;
        }
    }
    best
}

/// Sample a token id from logits under the given configuration.
pub fn sample_logits(logits: &[f32], config: &SamplerConfig, rng: &mut Rng) -> usize {
    assert!(!logits.is_empty());
    if config.temperature <= 0.0 {
        return argmax(logits);
    }
    // Optionally restrict to top-k.
    let mut idx: Vec<usize> = (0..logits.len()).collect();
    if config.top_k > 0 && config.top_k < logits.len() {
        // `total_cmp` gives a total order even for NaN logits (they sort
        // last), so top-k selection cannot panic on a degenerate forward
        // pass.
        idx.sort_unstable_by(|&a, &b| logits[b].total_cmp(&logits[a]));
        idx.truncate(config.top_k);
    }
    // Stable softmax over the kept set.
    let max = idx.iter().map(|&i| logits[i]).fold(f32::NEG_INFINITY, f32::max);
    let weights: Vec<f64> = idx
        .iter()
        .map(|&i| (((logits[i] - max) / config.temperature) as f64).exp())
        .collect();
    idx[rng.weighted(&weights)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn argmax_finds_peak() {
        assert_eq!(argmax(&[0.1, 3.0, -1.0, 2.9]), 1);
    }

    #[test]
    fn argmax_tie_breaks_low() {
        assert_eq!(argmax(&[5.0, 5.0, 1.0]), 0);
    }

    #[test]
    fn greedy_ignores_rng() {
        let logits = [0.0, 10.0, 0.0];
        let mut r1 = Rng::seed_from(1);
        let mut r2 = Rng::seed_from(99);
        let cfg = SamplerConfig::greedy();
        assert_eq!(sample_logits(&logits, &cfg, &mut r1), 1);
        assert_eq!(sample_logits(&logits, &cfg, &mut r2), 1);
    }

    #[test]
    fn temperature_sampling_prefers_high_logits() {
        let logits = [0.0, 4.0, 0.0, 0.0];
        let cfg = SamplerConfig {
            temperature: 1.0,
            top_k: 0,
        };
        let mut rng = Rng::seed_from(2);
        let hits = (0..2000)
            .filter(|_| sample_logits(&logits, &cfg, &mut rng) == 1)
            .count();
        assert!(hits > 1500, "high-logit token sampled only {hits}/2000");
    }

    #[test]
    fn top_k_excludes_tail() {
        let logits = [1.0, 0.9, 0.8, -10.0];
        let cfg = SamplerConfig {
            temperature: 1.0,
            top_k: 2,
        };
        let mut rng = Rng::seed_from(3);
        for _ in 0..500 {
            let s = sample_logits(&logits, &cfg, &mut rng);
            assert!(s == 0 || s == 1, "sampled outside top-2: {s}");
        }
    }

    #[test]
    fn high_temperature_flattens() {
        let logits = [0.0, 1.0];
        let cfg = SamplerConfig {
            temperature: 100.0,
            top_k: 0,
        };
        let mut rng = Rng::seed_from(4);
        let zeros = (0..4000)
            .filter(|_| sample_logits(&logits, &cfg, &mut rng) == 0)
            .count();
        let frac = zeros as f64 / 4000.0;
        assert!((frac - 0.5).abs() < 0.05, "fraction {frac}");
    }
}
