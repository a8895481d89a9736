//! Terminal line plots for learning curves.
//!
//! The paper's figures are line charts; `--plot` renders an ASCII
//! approximation directly in the terminal so the curve *shapes* (who
//! dominates, where crossovers fall) are visible without leaving the
//! shell. One glyph per strategy; later series overwrite earlier ones on
//! collisions.

use histal_core::driver::RunResult;

/// Glyphs assigned to series in order.
const GLYPHS: [char; 8] = ['*', 'o', '+', 'x', '#', '@', '%', '&'];

/// Render a family of curves into a `height`-row ASCII chart (plus axis
/// labels and a legend). Returns the rendered string.
pub(crate) fn render_curves(results: &[RunResult], width: usize, height: usize) -> String {
    let width = width.max(16);
    let height = height.max(4);
    let points: Vec<(&str, &[histal_core::driver::CurvePoint])> = results
        .iter()
        .filter(|r| !r.curve.is_empty())
        .map(|r| (r.strategy_name.as_str(), r.curve.as_slice()))
        .collect();
    if points.is_empty() {
        return String::from("(no curves)\n");
    }
    let x_min = points
        .iter()
        .flat_map(|(_, c)| c.iter())
        .map(|p| p.n_labeled)
        .min()
        .unwrap() as f64;
    let x_max = points
        .iter()
        .flat_map(|(_, c)| c.iter())
        .map(|p| p.n_labeled)
        .max()
        .unwrap() as f64;
    let y_min = points
        .iter()
        .flat_map(|(_, c)| c.iter())
        .map(|p| p.metric)
        .fold(f64::INFINITY, f64::min);
    let y_max = points
        .iter()
        .flat_map(|(_, c)| c.iter())
        .map(|p| p.metric)
        .fold(f64::NEG_INFINITY, f64::max);
    let x_span = (x_max - x_min).max(1.0);
    let y_span = (y_max - y_min).max(1e-9);

    let mut grid = vec![vec![' '; width]; height];
    for (si, (_, curve)) in points.iter().enumerate() {
        let glyph = GLYPHS[si % GLYPHS.len()];
        // Draw with linear interpolation between consecutive points so the
        // lines read as lines, not dots.
        for w in curve.windows(2) {
            let (a, b) = (&w[0], &w[1]);
            let steps = width.max(2);
            for s in 0..=steps {
                let t = s as f64 / steps as f64;
                let x = a.n_labeled as f64 + t * (b.n_labeled as f64 - a.n_labeled as f64);
                let y = a.metric + t * (b.metric - a.metric);
                let col = (((x - x_min) / x_span) * (width - 1) as f64).round() as usize;
                let row = (((y_max - y) / y_span) * (height - 1) as f64).round() as usize;
                grid[row.min(height - 1)][col.min(width - 1)] = glyph;
            }
        }
        if curve.len() == 1 {
            let p = &curve[0];
            let col =
                (((p.n_labeled as f64 - x_min) / x_span) * (width - 1) as f64).round() as usize;
            let row = (((y_max - p.metric) / y_span) * (height - 1) as f64).round() as usize;
            grid[row.min(height - 1)][col.min(width - 1)] = glyph;
        }
    }

    let mut out = String::new();
    for (i, row) in grid.iter().enumerate() {
        let label = if i == 0 {
            format!("{y_max:6.3} ")
        } else if i == height - 1 {
            format!("{y_min:6.3} ")
        } else {
            "       ".to_string()
        };
        out.push_str(&label);
        out.push('|');
        out.extend(row.iter());
        out.push('\n');
    }
    out.push_str("       +");
    out.push_str(&"-".repeat(width));
    out.push('\n');
    out.push_str(&format!(
        "        {:<10}{:>width$}\n",
        x_min as usize,
        x_max as usize,
        width = width.saturating_sub(10)
    ));
    for (si, (name, _)) in points.iter().enumerate() {
        out.push_str(&format!("        {} {}\n", GLYPHS[si % GLYPHS.len()], name));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use histal_core::driver::CurvePoint;

    fn run(name: &str, points: &[(usize, f64)]) -> RunResult {
        RunResult {
            strategy_name: name.into(),
            curve: points
                .iter()
                .map(|&(n, m)| CurvePoint {
                    n_labeled: n,
                    metric: m,
                })
                .collect(),
            rounds: vec![],
            history: vec![],
        }
    }

    #[test]
    fn renders_legend_and_axes() {
        let out = render_curves(
            &[
                run("a", &[(10, 0.5), (20, 0.7)]),
                run("b", &[(10, 0.4), (20, 0.6)]),
            ],
            40,
            10,
        );
        assert!(out.contains("* a"));
        assert!(out.contains("o b"));
        assert!(out.contains("0.700"));
        assert!(out.contains("0.400"));
        assert!(out.contains('|'));
    }

    #[test]
    fn empty_input_is_graceful() {
        assert_eq!(render_curves(&[], 40, 10), "(no curves)\n");
        let empty_curve = run("x", &[]);
        assert_eq!(render_curves(&[empty_curve], 40, 10), "(no curves)\n");
    }

    #[test]
    fn single_point_curve_renders() {
        let out = render_curves(&[run("solo", &[(100, 0.5)])], 30, 6);
        assert!(out.contains('*'));
    }

    #[test]
    fn rising_curve_puts_glyphs_top_right() {
        let out = render_curves(&[run("up", &[(0, 0.0), (100, 1.0)])], 20, 5);
        let lines: Vec<&str> = out.lines().collect();
        // Top row should have its glyph to the right of the bottom row's.
        let top_pos = lines[0].rfind('*').unwrap();
        let bottom_pos = lines[4].find('*').unwrap();
        assert!(top_pos > bottom_pos, "{out}");
    }

    #[test]
    fn dimensions_clamped() {
        let out = render_curves(&[run("a", &[(0, 0.1), (10, 0.2)])], 1, 1);
        assert!(out.lines().count() >= 6);
    }
}
