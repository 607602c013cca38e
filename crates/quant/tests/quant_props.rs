//! Property tests for the int8 quantization format.
//!
//! Seeded-trial properties over adversarial weight distributions:
//!
//! * **Round-trip bound** — per-channel symmetric quantization at 127
//!   levels reconstructs every element within half a quantization step,
//!   `|deq − w| ≤ scale/2` with `scale = max|row|/127` (the theoretical
//!   bound of round-to-nearest).
//! * **Idempotent re-quantization** — quantizing the dequantized matrix
//!   reproduces the identical int8 elements (the max-abs lane always
//!   maps to ±127, so the grid is a fixed point).
//! * **No NaN / no overflow** — zero rows, subnormal rows, huge
//!   magnitudes, heavy-tailed and non-finite inputs all quantize to
//!   finite scales and dequantize to finite values.

use astro_prng::Rng;
use astro_quant::QuantMatrix;

fn random_matrix(rng: &mut Rng, n: usize, spread: f64) -> Vec<f32> {
    (0..n)
        .map(|_| (rng.gauss() * spread) as f32)
        .collect()
}

/// Heavy-tailed (log-normal-signed) samples: most mass tiny, rare lanes
/// orders of magnitude larger — the worst realistic case for a
/// per-channel scale.
fn heavy_tailed(rng: &mut Rng, n: usize) -> Vec<f32> {
    (0..n)
        .map(|_| {
            let mag = (rng.gauss() * 3.0).exp();
            let sign = if rng.chance(0.5) { 1.0 } else { -1.0 };
            (sign * mag) as f32
        })
        .collect()
}

#[test]
fn round_trip_error_within_half_scale() {
    for seed in 0..20u64 {
        let mut rng = Rng::seed_from(seed);
        let rows = 3 + rng.index(6);
        let cols = 1 + rng.index(90);
        let w = if seed % 2 == 0 {
            random_matrix(&mut rng, rows * cols, 0.05)
        } else {
            heavy_tailed(&mut rng, rows * cols)
        };
        let qm = QuantMatrix::quantize(&w, rows, cols);
        let deq = qm.dequantize();
        for r in 0..rows {
            let scale = qm.scales()[r];
            assert!(scale.is_finite() && scale >= 0.0, "seed {seed} row {r}: scale {scale}");
            // Half a step, padded by a few ulps for the f32 multiply in
            // the reconstruction.
            let bound = scale * 0.5 * (1.0 + 1e-4) + f32::MIN_POSITIVE;
            for cidx in 0..cols {
                let err = (deq[r * cols + cidx] - w[r * cols + cidx]).abs();
                assert!(
                    err <= bound,
                    "seed {seed} row {r} col {cidx}: err {err} > bound {bound} (scale {scale})"
                );
            }
        }
    }
}

#[test]
fn scale_reconstruction_matches_theory() {
    // scale = max|row| / 127 exactly (one f32 divide), and the max-abs
    // lane quantizes to ±127 — never −128.
    let mut rng = Rng::seed_from(42);
    for _ in 0..10 {
        let rows = 2 + rng.index(5);
        let cols = 4 + rng.index(60);
        let w = heavy_tailed(&mut rng, rows * cols);
        let qm = QuantMatrix::quantize(&w, rows, cols);
        for r in 0..rows {
            let row = &w[r * cols..(r + 1) * cols];
            let amax = row.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
            assert_eq!(qm.scales()[r], amax / 127.0, "row {r}");
            let qrow = &qm.q()[r * cols..(r + 1) * cols];
            let qmax = qrow.iter().map(|&q| i32::from(q).abs()).max().unwrap();
            assert_eq!(qmax, 127, "row {r}: extreme lane must hit ±127");
            assert!(qrow.iter().all(|&q| q != i8::MIN), "row {r}: −128 must never appear");
        }
    }
}

#[test]
fn requantization_is_idempotent() {
    for seed in 100..112u64 {
        let mut rng = Rng::seed_from(seed);
        let (rows, cols) = (4 + rng.index(4), 8 + rng.index(40));
        let w = if seed % 2 == 0 {
            random_matrix(&mut rng, rows * cols, 1.0)
        } else {
            heavy_tailed(&mut rng, rows * cols)
        };
        let q1 = QuantMatrix::quantize(&w, rows, cols);
        let q2 = QuantMatrix::quantize(&q1.dequantize(), rows, cols);
        assert_eq!(q1.q(), q2.q(), "seed {seed}: int8 elements must be a fixed point");
        for (a, b) in q1.scales().iter().zip(q2.scales().iter()) {
            let rel = if *a == 0.0 { (a - b).abs() } else { (a - b).abs() / a.abs() };
            assert!(rel <= 1e-6, "seed {seed}: scale drift {a} vs {b}");
        }
    }
}

#[test]
fn adversarial_rows_stay_finite() {
    let cols = 8;
    let cases: Vec<(&str, Vec<f32>)> = vec![
        ("zeros", vec![0.0; cols]),
        ("subnormal", vec![1e-42; cols]),
        ("huge", vec![1e30, -1e30, 1e29, 0.0, -1e28, 1e30, -1e27, 5e29]),
        ("nan-lane", vec![f32::NAN, 1.0, -2.0, 0.5, 0.0, 1.5, -1.0, 2.0]),
        ("inf-lane", vec![f32::INFINITY, 1.0, -2.0, 0.5, 0.0, 1.5, -1.0, 2.0]),
        ("all-nan", vec![f32::NAN; cols]),
        ("mixed-tiny-huge", vec![1e-40, 1e38, -1e38, 1e-30, 0.0, -1e37, 2e-41, 3e37]),
    ];
    for (name, row) in &cases {
        let qm = QuantMatrix::quantize(row, 1, cols);
        let scale = qm.scales()[0];
        assert!(scale.is_finite(), "{name}: scale {scale} not finite");
        let deq = qm.dequantize();
        assert!(
            deq.iter().all(|v| v.is_finite()),
            "{name}: dequantized row contains non-finite values: {deq:?}"
        );
        // Dequantized magnitudes never exceed the row's (finite) range.
        assert!(
            deq.iter().all(|v| v.abs() <= 127.0 * scale),
            "{name}: overflow past 127·scale"
        );
    }
}

#[test]
fn quantized_matvec_error_is_bounded_by_scales() {
    // End-to-end: int8 matvec vs the f32 product of the *dequantized*
    // operands is exact (integer accumulation); vs the original f32
    // operands it is bounded by the sum of per-element round-off terms.
    let mut rng = Rng::seed_from(7);
    let (rows, cols) = (16, 64);
    let w = random_matrix(&mut rng, rows * cols, 0.05);
    let x = random_matrix(&mut rng, cols, 1.0);
    let qm = QuantMatrix::quantize(&w, rows, cols);
    let mut xq = vec![0i8; cols];
    let mut xs = [0.0f32];
    astro_tensor::qmatmul::quantize_rows_q8(&mut xq, &mut xs, &x, 1, cols);
    let mut y = vec![0.0f32; rows];
    qm.matmul_chunk(&mut y, &xq, &xs, 1);
    let x_amax = x.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
    for r in 0..rows {
        let exact: f32 = x
            .iter()
            .zip(w[r * cols..(r + 1) * cols].iter())
            .map(|(a, b)| a * b)
            .sum();
        // |Δ(a·b)| ≤ |a|·Δb + |b|·Δa + Δa·Δb per element, Δ = scale/2.
        let w_amax = w[r * cols..(r + 1) * cols]
            .iter()
            .fold(0.0f32, |m, &v| m.max(v.abs()));
        let dw = qm.scales()[r] * 0.5;
        let dx = xs[0] * 0.5;
        let bound = cols as f32 * (x_amax * dw + w_amax * dx + dw * dx) * 1.01 + 1e-6;
        assert!(
            (y[r] - exact).abs() <= bound,
            "row {r}: err {} > bound {bound}",
            (y[r] - exact).abs()
        );
    }
}
