//! Per-output-channel int8 weight containers.
//!
//! A [`QuantMatrix`] stores a row-major `[rows, cols]` weight matrix as
//! one `i8` per element plus one f32 scale per *row* (= per output
//! channel for the `y = x · Wᵀ` orientation every linear layer uses).
//! Quantization is symmetric: `scale = max|row| / 127`,
//! `q = round(w / scale)` clamped to ±127, so dequantization is the
//! single product `q · scale` and the accumulator never sees −128.
//!
//! [`QuantParams`] mirrors the shape of `astro_model::Params` — one
//! [`QuantLayer`] per transformer block plus the quantized tied LM head —
//! without depending on the model crate: the model layer constructs it
//! from its own layout and carries it alongside the f32 buffer. RMSNorm
//! gains and the embedding *lookup* stay f32 (they are vectors / row
//! gathers, not matmuls, and cost nothing to keep exact).

use astro_tensor::qmatmul::{dequantize_row_q8, matmul_q8_a_bt, quantize_rows_q8};

/// A row-major `[rows, cols]` matrix quantized to int8 with one scale
/// per row.
#[derive(Clone, Debug, PartialEq)]
pub struct QuantMatrix {
    rows: usize,
    cols: usize,
    q: Vec<i8>,
    scales: Vec<f32>,
}

impl QuantMatrix {
    /// Quantize a row-major f32 matrix. Rows whose max-abs is zero or
    /// non-finite collapse to a zero row with scale 0 (see
    /// `astro_tensor::qmatmul::quantize_row_q8`).
    pub fn quantize(w: &[f32], rows: usize, cols: usize) -> Self {
        assert_eq!(w.len(), rows * cols, "weight slice has wrong size");
        let mut q = vec![0i8; rows * cols];
        let mut scales = vec![0.0f32; rows];
        quantize_rows_q8(&mut q, &mut scales, w, rows, cols);
        QuantMatrix { rows, cols, q, scales }
    }

    /// Number of rows (output channels).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (input features).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The quantized elements, row-major.
    pub fn q(&self) -> &[i8] {
        &self.q
    }

    /// The per-row scales.
    pub fn scales(&self) -> &[f32] {
        &self.scales
    }

    /// Resident bytes of the quantized representation (elements +
    /// scales).
    pub fn bytes(&self) -> usize {
        self.q.len() + self.scales.len() * std::mem::size_of::<f32>()
    }

    /// Reconstruct the f32 matrix (`q · scale` per row) into `out`.
    pub fn dequantize_into(&self, out: &mut [f32]) {
        assert_eq!(out.len(), self.rows * self.cols, "out has wrong size");
        for r in 0..self.rows {
            dequantize_row_q8(
                &mut out[r * self.cols..(r + 1) * self.cols],
                &self.q[r * self.cols..(r + 1) * self.cols],
                self.scales[r],
            );
        }
    }

    /// Reconstruct the f32 matrix as a fresh vector.
    pub fn dequantize(&self) -> Vec<f32> {
        let mut out = vec![0.0f32; self.rows * self.cols];
        self.dequantize_into(&mut out);
        out
    }

    /// `c = a · Wᵀ` for `m` quantized activation rows: `aq` holds the int8
    /// rows with one scale each in `a_scales`, `c` gets `m × rows` f32.
    /// Exact-int8 inner products, dequantized once per output — integer
    /// accumulation is exact, so a row's result does not depend on which
    /// other rows share the call.
    pub fn matmul_chunk(&self, c: &mut [f32], aq: &[i8], a_scales: &[f32], m: usize) {
        matmul_q8_a_bt(c, aq, a_scales, &self.q, &self.scales, m, self.cols, self.rows);
    }
}

/// One transformer block's weight matrices in int8.
#[derive(Clone, Debug, PartialEq)]
pub struct QuantLayer {
    /// Query projection `[d, d]`.
    pub wq: QuantMatrix,
    /// Key projection `[d, d]`.
    pub wk: QuantMatrix,
    /// Value projection `[d, d]`.
    pub wv: QuantMatrix,
    /// Output projection `[d, d]`.
    pub wo: QuantMatrix,
    /// SwiGLU gate projection `[ff, d]`.
    pub w_gate: QuantMatrix,
    /// SwiGLU up projection `[ff, d]`.
    pub w_up: QuantMatrix,
    /// SwiGLU down projection `[d, ff]`.
    pub w_down: QuantMatrix,
}

impl QuantLayer {
    /// Resident bytes of all seven matrices.
    pub fn bytes(&self) -> usize {
        self.wq.bytes()
            + self.wk.bytes()
            + self.wv.bytes()
            + self.wo.bytes()
            + self.w_gate.bytes()
            + self.w_up.bytes()
            + self.w_down.bytes()
    }
}

/// A full model's matmul weights in int8: per-block layers plus the
/// quantized tied LM head (`[vocab, d]`, the embedding matrix reused as
/// the output projection).
#[derive(Clone, Debug, PartialEq)]
pub struct QuantParams {
    /// Per-block quantized weights, outermost first.
    pub layers: Vec<QuantLayer>,
    /// Quantized tied LM head `[vocab, d]`.
    pub lm_head: QuantMatrix,
}

impl QuantParams {
    /// Resident bytes of the whole quantized weight set.
    pub fn bytes(&self) -> usize {
        self.layers.iter().map(QuantLayer::bytes).sum::<usize>() + self.lm_head.bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lcg(seed: u64, n: usize) -> Vec<f32> {
        let mut s = seed | 1;
        (0..n)
            .map(|_| {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (((s >> 33) as u32) as f32 / u32::MAX as f32) * 2.0 - 1.0
            })
            .collect()
    }

    #[test]
    fn quantize_shapes_and_bytes() {
        let w = lcg(3, 6 * 4);
        let qm = QuantMatrix::quantize(&w, 6, 4);
        assert_eq!(qm.rows(), 6);
        assert_eq!(qm.cols(), 4);
        assert_eq!(qm.q().len(), 24);
        assert_eq!(qm.scales().len(), 6);
        assert_eq!(qm.bytes(), 24 + 6 * 4);
    }

    #[test]
    fn matvec_matches_dequantized_reference() {
        let (rows, cols) = (9, 33);
        let w = lcg(7, rows * cols);
        let qm = QuantMatrix::quantize(&w, rows, cols);
        let deq = qm.dequantize();
        let x = lcg(11, cols);
        let mut xq = vec![0i8; cols];
        let mut xs = [0.0f32];
        astro_tensor::qmatmul::quantize_rows_q8(&mut xq, &mut xs, &x, 1, cols);
        let mut y = vec![0.0f32; rows];
        qm.matmul_chunk(&mut y, &xq, &xs, 1);
        // Reference: dequantized weights against dequantized activation.
        let mut xdq = vec![0.0f32; cols];
        astro_tensor::qmatmul::dequantize_row_q8(&mut xdq, &xq, xs[0]);
        for r in 0..rows {
            let want: f32 = xdq
                .iter()
                .zip(deq[r * cols..(r + 1) * cols].iter())
                .map(|(a, b)| a * b)
                .sum();
            assert!((y[r] - want).abs() < 1e-3, "row {r}: {} vs {want}", y[r]);
        }
    }

    #[test]
    fn chunk_matches_matvec_bitwise() {
        let (rows, cols, m) = (5, 17, 3);
        let w = lcg(23, rows * cols);
        let qm = QuantMatrix::quantize(&w, rows, cols);
        let a = lcg(29, m * cols);
        let mut aq = vec![0i8; m * cols];
        let mut ascales = vec![0.0f32; m];
        astro_tensor::qmatmul::quantize_rows_q8(&mut aq, &mut ascales, &a, m, cols);
        let mut chunk = vec![0.0f32; m * rows];
        qm.matmul_chunk(&mut chunk, &aq, &ascales, m);
        for i in 0..m {
            let mut y = vec![0.0f32; rows];
            qm.matmul_chunk(&mut y, &aq[i * cols..(i + 1) * cols], &ascales[i..=i], 1);
            assert_eq!(&chunk[i * rows..(i + 1) * rows], &y[..], "row {i}");
        }
    }
}
