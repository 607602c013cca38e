//! The arithmetic that can silently lie: medians, percentiles with a
//! sample-count guard, the quartile spread the acceptance rule uses, and
//! the seeded arrival schedule.

use astro_prng::Rng;

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Median of `values` (mean of the two middle values for even counts).
/// Panics on an empty slice: every caller has at least one repetition.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0 < p < 100) of `samples`.
///
/// With `strict`, refuses (`Err`) unless at least [`MIN_BEYOND`] samples
/// lie beyond the reported rank — a p95 over 60 samples is the third
/// largest value, not a percentile. Smoke runs pass `strict = false`
/// and get the nearest rank whatever the count.
pub fn percentile(samples: &[f64], p: f64, strict: bool) -> Result<f64, String> {
    assert!(p > 0.0 && p < 100.0, "percentile {p} outside (0, 100)");
    if samples.is_empty() {
        return Err(format!("p{p} of no samples"));
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize; // 1-based
    let rank = rank.clamp(1, v.len());
    let beyond = v.len() - rank;
    if strict && p > 50.0 && beyond < MIN_BEYOND {
        return Err(format!(
            "p{p} of {} samples has {beyond} beyond it, needs {MIN_BEYOND}: enlarge the run",
            v.len()
        ));
    }
    Ok(v[rank - 1])
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (exclusive method) gives them. Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let len = v.len();
    let m = len + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Run-to-run spread: inter-quartile distance as a share of the median
/// (with four or more runs), else the full range over the median, else 0.
pub fn spread(values: &[f64]) -> f64 {
    let med = median(values).abs();
    if med == 0.0 || values.len() < 2 {
        return 0.0;
    }
    if values.len() >= 4 {
        let (q1, q3) = quartiles(values);
        (q3 - q1) / med
    } else {
        let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        (hi - lo) / med
    }
}

/// Due times (seconds from the start of a repetition) of `n` Poisson
/// arrivals at `rate_per_s`, conditioned on exactly `n` of them falling
/// in the `n / rate_per_s` seconds the repetition offers load for — which
/// makes them `n` sorted uniform draws. A pure function of `(seed, rep)`;
/// the offered rate is exact, the gaps are the Poisson process's.
pub fn poisson_schedule(seed: u64, rep: u64, rate_per_s: f64, n: usize) -> Vec<f64> {
    let mut rng = Rng::seed_from(seed).substream_idx("arrivals", rep);
    let horizon_s = n as f64 / rate_per_s;
    let mut due: Vec<f64> = (0..n).map(|_| rng.f64() * horizon_s).collect();
    due.sort_by(f64::total_cmp);
    due
}

/// Latency of an open-loop request: from when it was **due**, not from
/// when the generator got round to sending it, so a stall is charged to
/// every request it delayed.
pub fn due_latency_ms(due_s: f64, done_s: f64) -> f64 {
    (done_s - due_s) * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_three_picks_the_middle_not_the_mean() {
        assert_eq!(median(&[10.0, 1000.0, 12.0]), 12.0);
        assert_eq!(median(&[3.0, 1.0]), 2.0);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn p95_is_refused_without_ten_samples_beyond() {
        let few: Vec<f64> = (0..199).map(f64::from).collect();
        let err = percentile(&few, 95.0, true).unwrap_err();
        assert!(err.contains("needs 10"), "{err}");
        let enough: Vec<f64> = (0..200).map(f64::from).collect();
        // rank ceil(0.95 * 200) = 190 -> value 189, ten samples beyond.
        assert_eq!(percentile(&enough, 95.0, true), Ok(189.0));
        // The median needs no tail.
        assert_eq!(percentile(&[1.0, 2.0, 3.0], 50.0, true), Ok(2.0));
        // Smoke runs take the nearest rank whatever the count.
        assert_eq!(percentile(&few[..20], 95.0, false), Ok(18.0));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 4, 8], n=4) == [1.25, 3.0, 7.0]
        assert_eq!(quartiles(&[8.0, 1.0, 4.0, 2.0]), (1.25, 7.0));
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn poisson_schedule_is_a_pure_function_of_seed_and_rep() {
        let a = poisson_schedule(42, 0, 16.0, 200);
        assert_eq!(a, poisson_schedule(42, 0, 16.0, 200));
        assert_ne!(a, poisson_schedule(43, 0, 16.0, 200));
        assert_ne!(a, poisson_schedule(42, 1, 16.0, 200));
        assert!(
            a.windows(2).all(|w| w[0] <= w[1]),
            "due times must not decrease"
        );
        // 200 arrivals at 16/s: all inside 12.5 s, the last one near the end.
        assert!((11.0..12.5).contains(&a[199]), "last due {}", a[199]);
        // Exponential-like gaps: about 1/e of them exceed the mean gap.
        let long = a.windows(2).filter(|w| w[1] - w[0] > 1.0 / 16.0).count();
        assert!(
            (50..100).contains(&long),
            "{long} of 199 gaps exceed the mean"
        );
    }

    #[test]
    fn latency_counts_from_the_due_time_under_an_injected_stall() {
        // Three requests due at 0.0, 0.1, 0.2 s. The generator stalls
        // until 0.5 s, then sends all three; each takes 50 ms to serve.
        let due = [0.0, 0.1, 0.2];
        let done = [0.55, 0.60, 0.65];
        let lat: Vec<f64> = due
            .iter()
            .zip(&done)
            .map(|(d, f)| due_latency_ms(*d, *f))
            .collect();
        // Send-time accounting would report ~50-150 ms; the stall must show.
        assert!((lat[0] - 550.0).abs() < 1e-9 && (lat[1] - 500.0).abs() < 1e-9);
        assert!((lat[2] - 450.0).abs() < 1e-9);
    }
}
