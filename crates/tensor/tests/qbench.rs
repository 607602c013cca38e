//! Micro-benchmark of the int8 kernels at S70b dimensions — per-token
//! matvec cost f32 vs q8, and how a multi-row call amortizes it (the
//! `beta` cost-per-position ratio) — of the f32 panel kernel against
//! `matmul_a_bt` at the S7b / S70b linear shapes, of the int8 panel
//! kernel at those shapes on every level (`Portable`, `Avx2`, `Avx2Vnni`,
//! `Avx512`), and of `exp` and the attention kernel at each level with an
//! arm of its own (`Portable`, `Avx2`, `Avx512`); levels are timed in
//! alternating batches and each given as a ratio to `Avx2`. Ignored by
//! default; run with:
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
use astro_tensor::qmatmul::quantize_rows_q8;
use astro_tensor::{Panels, Q8Panels, Simd};
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

/// The levels of `levels` that this CPU runs.
fn host(levels: &[Simd]) -> Vec<Simd> {
    levels.iter().copied().filter(|&level| level <= astro_tensor::simd()).collect()
}

/// The levels with `exp` and attention arms of their own that this CPU
/// runs.
fn arms() -> Vec<Simd> {
    host(&[Simd::Portable, Simd::Avx2, Simd::Avx512])
}

/// `rows × cols` int8 values quantized from `randv`, one scale per row.
fn q8(rows: usize, cols: usize, seed: u64) -> (Vec<i8>, Vec<f32>) {
    let (mut q, mut scales) = (vec![0i8; rows * cols], vec![0.0f32; rows]);
    quantize_rows_q8(&mut q, &mut scales, &randv(rows * cols, seed), rows, cols);
    (q, scales)
}

/// The f32 weight `w` (`n × k`) quantized per row and packed in panels.
fn pack_q8(w: &[f32], n: usize, k: usize) -> Q8Panels {
    let (mut q, mut scales) = (vec![0i8; n * k], vec![0.0f32; n]);
    quantize_rows_q8(&mut q, &mut scales, w, n, k);
    Q8Panels::pack(&q, &scales, n, k)
}

/// An `n × k` int8 weight from `randv`, in panels.
fn q8_panels(n: usize, k: usize, seed: u64) -> Q8Panels {
    pack_q8(&randv(n * k, seed), n, k)
}

/// Per level of `levels`: the median seconds per call of `f(level)`, and
/// the median over rounds of its speed relative to `Avx2` (the `Avx2`
/// batch's time over its own in the same round; `None` on a CPU without
/// AVX2). Each of `ROUNDS` rounds times one batch of `iters` calls per
/// level in turn, after one untimed round, so a change of the machine's
/// speed between rounds cancels out of the ratio.
fn alternating(levels: &[Simd], iters: usize, mut f: impl FnMut(Simd)) -> Vec<(f64, Option<f64>)> {
    const ROUNDS: usize = 15;
    let mut secs = vec![Vec::with_capacity(ROUNDS); levels.len()];
    for round in 0..=ROUNDS {
        for (level, secs) in levels.iter().zip(&mut secs) {
            let t0 = Instant::now();
            for _ in 0..iters {
                f(*level);
            }
            if round > 0 {
                secs.push(t0.elapsed().as_secs_f64() / iters as f64);
            }
        }
    }
    let median = |mut x: Vec<f64>| {
        x.sort_by(f64::total_cmp);
        x[x.len() / 2]
    };
    let avx2 = levels.iter().position(|&level| level == Simd::Avx2);
    secs.iter()
        .map(|own| {
            let ratio = avx2.map(|a| median(secs[a].iter().zip(own).map(|(a, o)| a / o).collect()));
            (median(own.clone()), ratio)
        })
        .collect()
}

/// `level`'s time per unit, and its speed relative to `Avx2` when known.
fn report(what: &str, level: Simd, per_unit: f64, unit: &str, ratio: Option<f64>) {
    let ratio = ratio.map_or(String::new(), |r| format!("   {r:.2}x Avx2"));
    println!("{what} {level:?}: {per_unit:.2} {unit}{ratio}");
}

#[test]
#[ignore]
fn exp_and_attend_rows() {
    let levels = arms();
    println!("kernels: {:?}, timing {levels:?}", astro_tensor::simd());
    // `exp` over a softmax-like row: scores minus their maximum, spread
    // over [-20, 0], as attention's and log-sum-exp's are.
    let row: Vec<f32> = randv(512, 77).iter().map(|v| (v - 1.0) * 10.0).collect();
    let mut x = row.clone();
    let times = alternating(&levels, 2000, |level| {
        x.copy_from_slice(&row);
        exp_at(level, black_box(&mut x));
    });
    for (&level, (secs, ratio)) in levels.iter().zip(times) {
        let per_element = secs * 1e9 / row.len() as f64;
        report("exp", level, per_element, "ns/element", ratio);
    }
    // The host libm's scalar call, which every `exp` used to be.
    let per_call = best_of_five(2000, || {
        for (v, &r) in black_box(&mut x).iter_mut().zip(&row) {
            *v = r.exp();
        }
    });
    println!("exp libm f32::exp: {:.2} ns/element", per_call * 1e9 / row.len() as f64);
    // One call of the attention kernel: `m` rows at positions 120.. (the
    // op_budget prompt block starts there), all four heads, at the S7b and
    // S70b head widths — a decode row, a readout lane, one band and a
    // prefill block.
    let p0 = 120;
    for hd in [16usize, 36] {
        let width = 4 * hd;
        for m in [1usize, 2, 4, 16] {
            let n = p0 + m;
            let (k, v, q) = (randv(n * width, 5), randv(n * width, 6), randv(m * width, 7));
            // Each row sees its own prefix: Σ (p0 + i + 1) keys per head.
            let keys: usize = (1..=m).map(|i| p0 + i).sum::<usize>() * 4;
            let mut out = vec![0.0f32; m * width];
            let mut scores = vec![0.0f32; score_rows(m) * n];
            let times = alternating(&levels, 4000 / m, |level| {
                let q = black_box(&q);
                attend_rows_at(level, &mut out, &mut scores, q, &k, &v, width, hd, p0);
            });
            for (&level, (secs, ratio)) in levels.iter().zip(times) {
                let what = format!("attend_rows head_dim {hd} m {m:2} p0 {p0}");
                let per_key = secs * 1e9 / keys as f64;
                report(&what, level, per_key, "ns per (row, head, key)", ratio);
            }
        }
    }
}

#[test]
#[ignore]
fn panels_vs_a_bt() {
    // Every f32 linear of S7b (d 64, ff 176) and S70b (d 144, ff 392) as
    // `(n, k)` — Q/K/V/Wo, gate/up, down, the 512-token head — at a decode
    // row, a stacked readout and a prefill block, weights cache-resident.
    println!("kernels: {:?}", astro_tensor::simd());
    for (d, ff) in [(64usize, 176usize), (144, 392)] {
        for (n, k) in [(d, d), (ff, d), (d, ff), (512, d)] {
            let b = randv(n * k, 11);
            let panels = Panels::pack(&b, n, k);
            for m in [1usize, 4, 8, 16] {
                let a = randv(m * k, 12);
                let mut out = vec![0.0f32; m * n];
                let iters = 50_000_000 / (m * n * k);
                let a_bt =
                    best_of_five(iters, || matmul_a_bt(&mut out, black_box(&a), &b, m, k, n));
                let pan = best_of_five(iters, || panels.a_bt_acc(&mut out, black_box(&a), m));
                let gmac = |secs: f64| (m * n * k) as f64 / secs * 1e-9;
                println!(
                    "n {n:3} k {k:3} m {m:2}: matmul_a_bt {:5.1} GMAC/s   panels {:5.1} GMAC/s   {:.2}x",
                    gmac(a_bt),
                    gmac(pan),
                    a_bt / pan
                );
            }
        }
    }
}

#[test]
#[ignore]
fn q8_panels_at_each_level() {
    // The int8 linears of S7b and S70b as `(n, k)`, as `panels_vs_a_bt`
    // takes them, on every level's `Q8Panels` tile, in GMAC/s: `m` rows
    // against cache-resident weights, and `m 1 cold` — one row against
    // each of more than 2 MB of distinct weights in turn, which a decode
    // step's weights are — where a warm one-row timing would mislead.
    let levels = host(&[Simd::Portable, Simd::Avx2, Simd::Avx2Vnni, Simd::Avx512]);
    println!("kernels: {:?}, timing {levels:?}", astro_tensor::simd());
    let line = |what: String, macs: usize, times: Vec<(f64, Option<f64>)>| {
        let cells: String = levels
            .iter()
            .zip(times)
            .map(|(level, (secs, ratio))| {
                let ratio = ratio.map_or(String::new(), |r| format!(" ({r:.2}x)"));
                format!("   {level:?} {:6.1}{ratio}", macs as f64 / secs * 1e-9)
            })
            .collect();
        println!("{what}:{cells}");
    };
    for (d, ff) in [(64usize, 176usize), (144, 392)] {
        for (n, k) in [(d, d), (ff, d), (d, ff), (512, d)] {
            let panels = q8_panels(n, k, 11);
            for m in [1usize, 4, 8, 16] {
                let (aq, asc) = q8(m, k, 12);
                let mut out = vec![0.0f32; m * n];
                let times = alternating(&levels, 20_000_000 / (m * n * k), |level| {
                    panels.a_bt_at(level, &mut out, black_box(&aq), &asc, m)
                });
                line(format!("n {n:3} k {k:3} m {m:2}     "), m * n * k, times);
            }
            let cold: Vec<Q8Panels> =
                (0..(4 << 20) / (n * k) + 1).map(|c| q8_panels(n, k, 100 + c as u64)).collect();
            let (aq, asc) = q8(1, k, 12);
            let mut out = vec![0.0f32; n];
            let mut next = cold.iter().cycle();
            let times = alternating(&levels, cold.len(), |level| {
                let panels = next.next().unwrap();
                panels.a_bt_at(level, &mut out, black_box(&aq), &asc, 1)
            });
            line(format!("n {n:3} k {k:3} m  1 cold"), n * k, times);
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

    // Quantize and pack all.
    let lq: Vec<[Q8Panels; 3]> = lw
        .iter()
        .map(|l| [pack_q8(&l.wq, 4 * d, d), pack_q8(&l.wg, 2 * ff, d), pack_q8(&l.wd, d, ff)])
        .collect();
    let eq = pack_q8(&embed, vocab, d);

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
        for [wq, wg, wd] in &lq {
            wq.a_bt(&mut y4, &xq, &sx, 1);
            wg.a_bt(&mut y2f, &xq, &sx, 1);
            wd.a_bt(&mut yd, &xfq, &sxf, 1);
        }
        eq.a_bt(&mut yv, &xq, &sx, 1);
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
            for [wq, wg, wd] in &lq {
                wq.a_bt(&mut c4, &aq, &asx, m);
                wg.a_bt(&mut c2f, &aq, &asx, m);
                wd.a_bt(&mut cd, &afq, &afs, m);
            }
            eq.a_bt(&mut cv, &aq, &asx, m);
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
