//! The cost-efficiency value analysis (paper §VI).
//!
//! The paper, citing Ting et al. 2024: *"an improvement of about 3.5
//! points is equivalent to approximately a 10-fold increase in value when
//! extrapolating from the current score and price trade-off of some
//! proprietary models"*, and frames the 70B model's +2.1-point gain as
//! two-thirds of a Haiku→Sonnet or 4o-mini→4o step. This module encodes
//! that extrapolation and the flagship reference scores quoted in §VI.

/// Points of benchmark gain equivalent to a 10× value increase.
pub const POINTS_PER_DECADE: f64 = 3.5;

/// Flagship scores quoted in the paper (§VI) for context lines.
pub const FLAGSHIP_SCORES: [(&str, f64); 3] = [
    ("Gemini-1.5-Pro-001", 77.6),
    ("Claude-3.0-Sonnet", 76.7),
    ("GLM-4-0520", 75.1),
];

/// The paper's own headline numbers, used to cross-check the analysis.
pub const PAPER_70B_BASE_GAIN: f64 = 76.0 - 73.9;

/// Value multiplier implied by a score gain of `delta_points`
/// (`10^(Δ/3.5)`).
pub fn value_ratio(delta_points: f64) -> f64 {
    10f64.powf(delta_points / POINTS_PER_DECADE)
}

/// Summarise a measured gain in the paper's terms.
#[derive(Clone, Debug)]
pub struct ValueSummary {
    /// The score delta in points.
    pub delta_points: f64,
    /// The implied value multiplier.
    pub value_multiplier: f64,
    /// The paper's quoted 70B gain, for comparison.
    pub paper_gain: f64,
}

/// Build a [`ValueSummary`] from measured scores.
pub fn summarize_gain(cpt_score: f64, base_score: f64) -> ValueSummary {
    let delta = cpt_score - base_score;
    ValueSummary {
        delta_points: delta,
        value_multiplier: value_ratio(delta),
        paper_gain: PAPER_70B_BASE_GAIN,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn three_and_a_half_points_is_10x() {
        assert!((value_ratio(3.5) - 10.0).abs() < 1e-9);
        assert!((value_ratio(7.0) - 100.0).abs() < 1e-6);
        assert!((value_ratio(0.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn negative_gain_divides_value() {
        assert!(value_ratio(-3.5) - 0.1 < 1e-9);
        assert!(value_ratio(-3.5) > 0.0);
    }

    #[test]
    fn paper_gain_is_about_4x_value() {
        // +2.1 points → 10^(2.1/3.5) = 10^0.6 ≈ 3.98×
        let v = value_ratio(PAPER_70B_BASE_GAIN);
        assert!((v - 3.98).abs() < 0.05, "{v}");
    }

    #[test]
    fn flagship_scores_bracket_the_70b_model() {
        // 76.0 sits between GLM-4 (75.1) and Gemini-1.5-Pro (77.6).
        let best = FLAGSHIP_SCORES
            .iter()
            .map(|&(_, s)| s)
            .fold(f64::NEG_INFINITY, f64::max);
        let worst = FLAGSHIP_SCORES
            .iter()
            .map(|&(_, s)| s)
            .fold(f64::INFINITY, f64::min);
        assert!(worst < 76.0 && 76.0 < best);
    }

    #[test]
    fn summarize_gain_reports_delta() {
        let s = summarize_gain(76.0, 73.9);
        assert!((s.delta_points - 2.1).abs() < 1e-9);
        assert!(s.value_multiplier > 1.0);
    }
}
