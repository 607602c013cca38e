//! Report emitters: Table I and Figure 1.
//!
//! `astro-bench table1` feeds a run's measured scores, and the paper's
//! published ones, through these renderers to regenerate the paper's
//! artefacts: the table with its ↑ / ↓ / ⇒ arrows against each series'
//! native baseline, and the figure as an ASCII chart (three symbols per
//! model, horizontal baseline markers). The scores themselves are the run
//! ledger's per-question outcomes, not a rendering of them.

use crate::score::Method;

/// Arrow comparing an AstroLLaMA score to its native baseline
/// (paper Table I).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Arrow {
    /// Better than baseline.
    Up,
    /// Worse than baseline.
    Down,
    /// Similar to baseline.
    Same,
}

impl Arrow {
    /// Classify a score against its baseline with a `tol`-point band.
    pub fn classify(score: f64, baseline: f64, tol: f64) -> Arrow {
        if score > baseline + tol {
            Arrow::Up
        } else if score < baseline - tol {
            Arrow::Down
        } else {
            Arrow::Same
        }
    }

    /// The glyph used in the table.
    pub fn glyph(self) -> &'static str {
        match self {
            Arrow::Up => "↑",
            Arrow::Down => "↓",
            Arrow::Same => "⇒",
        }
    }
}

/// One row of Table I.
#[derive(Clone, Debug)]
pub struct ModelRow {
    /// Model name, e.g. `AstroLLaMA-2-70B-AIC (sim)`.
    pub name: String,
    /// Series header this row belongs under, e.g. `LLaMA-2 Series (70B)`.
    pub series: String,
    /// Scores in percent: `[full instruct, token instruct, token base]`.
    /// `None` renders as `-` (the paper has no instruct scores for
    /// AstroLLaMA-2-7B-Abstract).
    pub scores: [Option<f64>; 3],
    /// Index of this row's native baseline within the row list, if this is
    /// a CPT model to be arrowed.
    pub baseline: Option<usize>,
    /// Source column (Meta / AstroMLab / uTBD).
    pub source: String,
}

/// Points within which a score counts as "similar" (⇒).
pub const ARROW_TOLERANCE: f64 = 1.0;

/// Render Table I as fixed-width text.
pub fn render_table1(rows: &[ModelRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<34} {:>16} {:>26} {:>22} {:>10}\n",
        "Model", "Full Instruct(%)", "Token (Instruct Model)(%)", "Token (Base Model)(%)", "Source"
    ));
    out.push_str(&"-".repeat(114));
    out.push('\n');
    let mut current_series = String::new();
    for row in rows {
        if row.series != current_series {
            current_series = row.series.clone();
            out.push_str(&format!("{current_series}\n"));
        }
        let cell = |i: usize| -> String {
            match row.scores[i] {
                None => "-".to_string(),
                Some(s) => {
                    let arrow = row
                        .baseline
                        .and_then(|b| rows[b].scores[i].map(|base| (s, base)))
                        .map(|(s, base)| Arrow::classify(s, base, ARROW_TOLERANCE).glyph())
                        .unwrap_or("");
                    format!("{s:.1} {arrow}").trim_end().to_string()
                }
            }
        };
        out.push_str(&format!(
            "  {:<32} {:>16} {:>26} {:>22} {:>10}\n",
            row.name,
            cell(0),
            cell(1),
            cell(2),
            row.source
        ));
    }
    out
}

/// Symbols used for the three methods in the ASCII figure.
fn method_symbol(m: Method) -> char {
    match m {
        Method::FullInstruct => 'o',
        Method::TokenInstruct => '+',
        Method::TokenBase => '*',
    }
}

/// Render Figure 1: per-model score columns with the three method symbols
/// on a shared percentage axis, plus horizontal baseline lines.
pub fn render_figure1(rows: &[ModelRow], lo: f64, hi: f64) -> String {
    assert!(hi > lo, "figure range must be non-empty");
    let height = 24usize;
    let col_w = 8usize;
    let mut grid = vec![vec![' '; rows.len() * col_w + 8]; height + 1];
    let y_of = |score: f64| -> usize {
        let t = ((score - lo) / (hi - lo)).clamp(0.0, 1.0);
        height - (t * height as f64).round() as usize
    };
    // Baseline horizontal dashes across the figure (full-instruct score of
    // each baseline row, as in the paper).
    for row in rows {
        if row.baseline.is_none() {
            if let Some(s) = row.scores[0] {
                let y = y_of(s);
                for x in 8..grid[0].len() {
                    if grid[y][x] == ' ' {
                        grid[y][x] = '-';
                    }
                }
            }
        }
    }
    // Score symbols.
    for (i, row) in rows.iter().enumerate() {
        let x0 = 8 + i * col_w + col_w / 2;
        for (mi, m) in Method::all().iter().enumerate() {
            if let Some(s) = row.scores[mi] {
                let y = y_of(s);
                let x = x0 + mi; // jitter methods side by side
                if x < grid[y].len() {
                    grid[y][x] = method_symbol(*m);
                }
            }
        }
    }
    // Axis labels.
    let mut out = String::new();
    for (y, line) in grid.iter().enumerate() {
        let val = hi - (hi - lo) * y as f64 / height as f64;
        let label = if y % 4 == 0 {
            format!("{val:>6.1}|")
        } else {
            format!("{:>6}|", "")
        };
        out.push_str(&label);
        out.push_str(&line.iter().collect::<String>());
        out.push('\n');
    }
    out.push_str(&format!("{:>7}", ""));
    for row in rows {
        let short: String = row.name.chars().take(col_w - 1).collect();
        out.push_str(&format!("{short:<col_w$}"));
    }
    out.push('\n');
    out.push_str("legend: o full-instruct   + token(instruct)   * token(base)   -- native full-instruct baseline\n");
    out
}

/// A padded `(lo, hi)` figure range covering every present score.
pub fn score_range(rows: &[ModelRow]) -> (f64, f64) {
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for r in rows {
        for s in r.scores.iter().flatten() {
            lo = lo.min(*s);
            hi = hi.max(*s);
        }
    }
    if !lo.is_finite() || !hi.is_finite() {
        return (0.0, 100.0);
    }
    let pad = ((hi - lo) * 0.1).max(2.0);
    ((lo - pad).max(0.0), (hi + pad).min(100.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows() -> Vec<ModelRow> {
        vec![
            ModelRow {
                name: "LLaMA-2-70B (sim)".to_string(),
                series: "LLaMA-2 Series (70B)".to_string(),
                scores: [Some(70.7), Some(71.4), Some(73.9)],
                baseline: None,
                source: "Meta".to_string(),
            },
            ModelRow {
                name: "AstroLLaMA-2-70B-AIC (sim)".to_string(),
                series: "AstroLLaMA-2 Series (70B)".to_string(),
                scores: [Some(64.7), Some(75.4), Some(76.0)],
                baseline: Some(0),
                source: "AstroMLab".to_string(),
            },
            ModelRow {
                name: "AstroLLaMA-2-7B-Abstract (sim)".to_string(),
                series: "AstroLLaMA-2 Series (7B)".to_string(),
                scores: [None, None, Some(43.5)],
                baseline: Some(0),
                source: "uTBD".to_string(),
            },
        ]
    }

    #[test]
    fn arrows_classify_with_tolerance() {
        assert_eq!(Arrow::classify(76.0, 73.9, 1.0), Arrow::Up);
        assert_eq!(Arrow::classify(64.7, 70.7, 1.0), Arrow::Down);
        assert_eq!(Arrow::classify(72.0, 71.9, 1.0), Arrow::Same);
    }

    #[test]
    fn table_contains_arrows_and_dashes() {
        let t = render_table1(&rows());
        assert!(t.contains("76.0 ↑"), "{t}");
        assert!(t.contains("64.7 ↓"), "{t}");
        assert!(t.contains(" -"), "missing dash for absent score:\n{t}");
        assert!(t.contains("LLaMA-2 Series (70B)"));
    }

    #[test]
    fn baseline_rows_have_no_arrows() {
        let t = render_table1(&rows());
        let baseline_line = t
            .lines()
            .find(|l| l.contains("LLaMA-2-70B (sim)"))
            .unwrap();
        assert!(!baseline_line.contains('↑') && !baseline_line.contains('↓'));
    }

    #[test]
    fn figure_renders_symbols_and_baseline() {
        let f = render_figure1(&rows(), 40.0, 80.0);
        assert!(f.contains('o') && f.contains('+') && f.contains('*'), "{f}");
        assert!(f.contains('-'), "baseline line missing");
        assert!(f.contains("legend"));
    }

    #[test]
    fn score_range_pads_present_scores_and_handles_empty() {
        let (lo, hi) = score_range(&rows());
        assert!(lo < 43.5 && hi > 76.0, "({lo}, {hi})");
        assert_eq!(score_range(&[]), (0.0, 100.0));
    }

    #[test]
    #[should_panic]
    fn empty_figure_range_panics() {
        render_figure1(&rows(), 50.0, 50.0);
    }
}
