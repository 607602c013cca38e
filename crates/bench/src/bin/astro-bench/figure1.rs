//! `figure1` — render **Figure 1** from already-measured scores, without
//! training (`table1` prints the figure of the run it just made; this
//! feeds a recorded run's scores through the same renderer).
//!
//! ```sh
//! cargo run --release -p astro-bench -- figure1 [s1 s2 s3 ... s24]
//! ```
//! Scores are given row-major in Table I order (8 models × [full
//! instruct, token instruct, token base]); use `-` for absent cells.
//! With no arguments, renders the paper's published scores.

use crate::usage;
use astromlab::eval::report::{figure1_csv, render_figure1};
use astromlab::study::build_rows;
use astromlab::ModelId;

const USAGE: &str =
    "figure1 [24 scores: 8 models x (full instruct, token instruct, token base), - if absent]";

/// Print the chart and its CSV for the given (or the paper's) scores.
pub fn main(args: &[String]) {
    let models = ModelId::all();
    let scores: Vec<(ModelId, [Option<f64>; 3])> = if args.is_empty() {
        astro_telemetry::info!("(no scores given — rendering the paper's published scores)");
        models.iter().map(|&id| (id, id.paper_scores())).collect()
    } else if args.len() == 3 * models.len() {
        let cell = |raw: &String| match raw.as_str() {
            "-" => None,
            s => s.parse().ok().filter(|v: &f64| v.is_finite()).or_else(|| usage(USAGE)),
        };
        models
            .iter()
            .zip(args.chunks(3))
            .map(|(&id, c)| (id, [cell(&c[0]), cell(&c[1]), cell(&c[2])]))
            .collect()
    } else {
        usage(USAGE)
    };
    let rows = build_rows(&scores);
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for (_, cells) in &scores {
        for s in cells.iter().flatten() {
            lo = lo.min(*s);
            hi = hi.max(*s);
        }
    }
    let pad = ((hi - lo) * 0.1).max(2.0);
    println!("{}", render_figure1(&rows, (lo - pad).max(0.0), (hi + pad).min(100.0)));
    println!("{}", figure1_csv(&rows));
}
