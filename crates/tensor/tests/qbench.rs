//! Micro-benchmark of the int8 kernels at S70b dimensions — per-token
//! matvec cost f32 vs q8, and how a multi-row call amortizes it (the
//! `beta` cost-per-position ratio) — and of `exp` and the attention
//! kernel, portable and dispatched. Ignored by default; run with:
//!
//! ```sh
//! cargo test --release -p astro-tensor --test qbench -- --ignored --nocapture
//! ```
//!
//! The recorded numbers are `bench/`'s `tensor.*` and
//! `model.decode_tokens_per_s.*` probes; this exists to localize a
//! kernel regression to a single matmul shape or kernel.

use astro_tensor::attention::{attend_rows_at, score_rows};
use astro_tensor::matmul::matmul_a_bt;
use astro_tensor::ops::exp_at;
use astro_tensor::qmatmul::{matmul_q8_a_bt, matvec_q8, quantize_rows_q8};
use astro_tensor::Simd;
use std::hint::black_box;
use std::time::Instant;

fn randv(n: usize, seed: u64) -> Vec<f32> {
    let mut s = seed | 1;
    (0..n)
        .map(|_| {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (((s >> 33) as u32) as f32 / u32::MAX as f32) * 2.0 - 1.0
        })
        .collect()
}

/// Seconds per call of `f`, the best of five timed batches of `iters`
/// calls after one warm-up batch.
fn best_of_five(iters: usize, mut f: impl FnMut()) -> f64 {
    (0..6)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..iters {
                f();
            }
            t0.elapsed().as_secs_f64() / iters as f64
        })
        .skip(1)
        .fold(f64::INFINITY, f64::min)
}

#[test]
#[ignore]
fn exp_and_attend_rows() {
    // `exp` over a softmax-like row: scores minus their maximum, spread
    // over [-20, 0], as attention's and log-sum-exp's are.
    let row: Vec<f32> = randv(512, 77).iter().map(|v| (v - 1.0) * 10.0).collect();
    let mut levels = vec![("portable", Simd::Portable)];
    if astro_tensor::simd() > Simd::Portable {
        levels.push(("dispatched", astro_tensor::simd()));
    }
    for (name, level) in &levels {
        let mut x = row.clone();
        let per_call = best_of_five(2000, || {
            x.copy_from_slice(&row);
            exp_at(*level, black_box(&mut x));
        });
        println!("exp {name} ({level:?}): {:.2} ns/element", per_call * 1e9 / row.len() as f64);
    }
    // The host libm's scalar call, which every `exp` used to be.
    let mut x = row.clone();
    let per_call = best_of_five(2000, || {
        for (v, &r) in black_box(&mut x).iter_mut().zip(&row) {
            *v = r.exp();
        }
    });
    println!("exp libm f32::exp: {:.2} ns/element", per_call * 1e9 / row.len() as f64);
    // One call of the attention kernel: `m` rows at positions 120.. (the
    // op_budget prompt block starts there), all four heads, at the S7b and
    // S70b head widths — a decode row, a readout lane and a prefill block.
    let p0 = 120;
    for hd in [16usize, 36] {
        let width = 4 * hd;
        for m in [1usize, 2, 16] {
            let n = p0 + m;
            let (k, v, q) = (randv(n * width, 5), randv(n * width, 6), randv(m * width, 7));
            // Each row sees its own prefix: Σ (p0 + i + 1) keys per head.
            let keys: usize = (1..=m).map(|i| p0 + i).sum::<usize>() * 4;
            for (name, level) in &levels {
                let mut out = vec![0.0f32; m * width];
                let mut scores = vec![0.0f32; score_rows(m) * n];
                let per_call = best_of_five(500, || {
                    let q = black_box(&q);
                    attend_rows_at(*level, &mut out, &mut scores, q, &k, &v, width, hd, p0);
                });
                println!(
                    "attend_rows head_dim {hd} m {m} p0 {p0} {name} ({level:?}): \
                     {:.2} ns per (row, head, key)",
                    per_call * 1e9 / keys as f64
                );
            }
        }
    }
}

#[test]
#[ignore]
fn q8_vs_f32_matvec() {
    // S70b-ish: one layer's worth of matvecs d=144, ff=392, plus lm head.
    // Simulate total weight footprint of the full model by cycling 5
    // layers of weights + an embed matrix so cache behavior is realistic.
    let d = 144usize;
    let ff = 392usize;
    let vocab = 512usize;
    let layers = 5usize;
    struct Lw {
        wq: Vec<f32>,
        wg: Vec<f32>,
        wd: Vec<f32>,
    }
    let lw: Vec<Lw> = (0..layers)
        .map(|l| Lw {
            wq: randv(4 * d * d, 7 + l as u64),
            wg: randv(2 * ff * d, 17 + l as u64),
            wd: randv(d * ff, 27 + l as u64),
        })
        .collect();
    let embed = randv(vocab * d, 99);
    let total_w: usize = lw.iter().map(|l| l.wq.len() + l.wg.len() + l.wd.len()).sum::<usize>() + embed.len();
    println!("weights: {} f32 = {:.1} MB f32 / {:.1} MB i8", total_w, total_w as f64 * 4e-6, total_w as f64 * 1e-6);
    println!("kernels: {:?}", astro_tensor::simd());

    // Quantize all.
    struct Lq {
        q: Vec<i8>,
        s: Vec<f32>,
        g: Vec<i8>,
        gs: Vec<f32>,
        dn: Vec<i8>,
        ds: Vec<f32>,
    }
    let lq: Vec<Lq> = lw
        .iter()
        .map(|l| {
            let mut q = vec![0i8; l.wq.len()];
            let mut s = vec![0.0; 4 * d];
            quantize_rows_q8(&mut q, &mut s, &l.wq, 4 * d, d);
            let mut g = vec![0i8; l.wg.len()];
            let mut gs = vec![0.0; 2 * ff];
            quantize_rows_q8(&mut g, &mut gs, &l.wg, 2 * ff, d);
            let mut dn = vec![0i8; l.wd.len()];
            let mut ds = vec![0.0; d];
            quantize_rows_q8(&mut dn, &mut ds, &l.wd, d, ff);
            Lq { q, s, g, gs, dn, ds }
        })
        .collect();
    let mut eq = vec![0i8; vocab * d];
    let mut es = vec![0.0; vocab];
    quantize_rows_q8(&mut eq, &mut es, &embed, vocab, d);

    let x = randv(d, 1234);
    let xf = randv(ff, 4321);
    let mut xq = vec![0i8; d];
    let mut sx = vec![0.0f32];
    quantize_rows_q8(&mut xq, &mut sx, &x, 1, d);
    let mut xfq = vec![0i8; ff];
    let mut sxf = vec![0.0f32];
    quantize_rows_q8(&mut xfq, &mut sxf, &xf, 1, ff);

    let mut y4 = vec![0.0f32; 4 * d];
    let mut y2f = vec![0.0f32; 2 * ff];
    let mut yd = vec![0.0f32; d];
    let mut yv = vec![0.0f32; vocab];

    let iters = 2000;
    // f32 "token": per layer wq(4d×d) + gate/up(2ff×d) + down(d×ff), + lm head.
    let t0 = Instant::now();
    for _ in 0..iters {
        for l in &lw {
            matmul_a_bt(&mut y4, &x, &l.wq, 1, d, 4 * d);
            matmul_a_bt(&mut y2f, &x, &l.wg, 1, d, 2 * ff);
            matmul_a_bt(&mut yd, &xf, &l.wd, 1, ff, d);
        }
        matmul_a_bt(&mut yv, &x, &embed, 1, d, vocab);
    }
    let f32_tok = t0.elapsed().as_secs_f64() / iters as f64;

    let t0 = Instant::now();
    for _ in 0..iters {
        for l in &lq {
            matvec_q8(&mut y4, &xq, sx[0], &l.q, &l.s, d, 4 * d);
            matvec_q8(&mut y2f, &xq, sx[0], &l.g, &l.gs, d, 2 * ff);
            matvec_q8(&mut yd, &xfq, sxf[0], &l.dn, &l.ds, ff, d);
        }
        matvec_q8(&mut yv, &xq, sx[0], &eq, &es, d, vocab);
    }
    let q8_tok = t0.elapsed().as_secs_f64() / iters as f64;
    println!(
        "f32 token: {:.1} us   q8 token: {:.1} us   speedup {:.2}x",
        f32_tok * 1e6,
        q8_tok * 1e6,
        f32_tok / q8_tok
    );

    // Chunked q8: m rows at once — per-token cost beta.
    for m in [2usize, 4, 8] {
        let a = randv(m * d, 555);
        let af = randv(m * ff, 666);
        let mut aq = vec![0i8; m * d];
        let mut asx = vec![0.0; m];
        quantize_rows_q8(&mut aq, &mut asx, &a, m, d);
        let mut afq = vec![0i8; m * ff];
        let mut afs = vec![0.0; m];
        quantize_rows_q8(&mut afq, &mut afs, &af, m, ff);
        let mut c4 = vec![0.0f32; m * 4 * d];
        let mut c2f = vec![0.0f32; m * 2 * ff];
        let mut cd = vec![0.0f32; m * d];
        let mut cv = vec![0.0f32; m * vocab];
        let t0 = Instant::now();
        for _ in 0..iters {
            for l in &lq {
                matmul_q8_a_bt(&mut c4, &aq, &asx, &l.q, &l.s, m, d, 4 * d);
                matmul_q8_a_bt(&mut c2f, &aq, &asx, &l.g, &l.gs, m, d, 2 * ff);
                matmul_q8_a_bt(&mut cd, &afq, &afs, &l.dn, &l.ds, m, ff, d);
            }
            matmul_q8_a_bt(&mut cv, &aq, &asx, &eq, &es, m, d, vocab);
        }
        let per_tok = t0.elapsed().as_secs_f64() / iters as f64 / m as f64;
        println!("q8 chunk m={m}: {:.1} us/token  beta={:.2}", per_tok * 1e6, per_tok / q8_tok);
    }

    // f32 chunk for reference.
    for m in [4usize] {
        let a = randv(m * d, 555);
        let af = randv(m * ff, 666);
        let mut c4 = vec![0.0f32; m * 4 * d];
        let mut c2f = vec![0.0f32; m * 2 * ff];
        let mut cd = vec![0.0f32; m * d];
        let mut cv = vec![0.0f32; m * vocab];
        let t0 = Instant::now();
        for _ in 0..iters {
            for l in &lw {
                matmul_a_bt(&mut c4, &a, &l.wq, m, d, 4 * d);
                matmul_a_bt(&mut c2f, &a, &l.wg, m, d, 2 * ff);
                matmul_a_bt(&mut cd, &af, &l.wd, m, ff, d);
            }
            matmul_a_bt(&mut cv, &a, &embed, m, d, vocab);
        }
        let per_tok = t0.elapsed().as_secs_f64() / iters as f64 / m as f64;
        println!("f32 chunk m={m}: {:.1} us/token  beta={:.2}", per_tok * 1e6, per_tok / f32_tok);
    }
}
