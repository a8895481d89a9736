//! Plain-text and JSON reporting for the experiment harness.

use std::io::Write;

use histal_core::driver::RunResult;
use serde::Serialize;

/// Print a markdown-style table.
pub(crate) fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n### {title}\n");
    print!("{}", format_table(header, rows));
}

/// Print a family of learning curves as one table: rows are labeled-set
/// sizes, columns are strategies.
pub(crate) fn print_curves(title: &str, results: &[RunResult]) {
    if results.is_empty() {
        return;
    }
    let mut header: Vec<&str> = vec!["#labeled"];
    for r in results {
        header.push(&r.strategy_name);
    }
    let n_points = results.iter().map(|r| r.curve.len()).min().unwrap_or(0);
    let mut rows = Vec::with_capacity(n_points);
    for i in 0..n_points {
        let mut row = vec![results[0].curve[i].n_labeled.to_string()];
        for r in results {
            row.push(format!("{:.4}", r.curve[i].metric));
        }
        rows.push(row);
    }
    print_table(title, &header, &rows);
    if std::env::var_os("HISTAL_PLOT").is_some() {
        println!(
            "
{}",
            crate::plot::render_curves(results, 72, 18)
        );
    }
}

/// Render a markdown-style table to a string (testable core of
/// [`print_table`]).
pub(crate) fn format_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let widths: Vec<usize> = header
        .iter()
        .enumerate()
        .map(|(i, h)| {
            rows.iter()
                .map(|r| r.get(i).map_or(0, String::len))
                .chain(std::iter::once(h.len()))
                .max()
                .unwrap_or(0)
        })
        .collect();
    let mut out = String::new();
    let line = |cells: &[String], out: &mut String| {
        out.push('|');
        for (c, w) in cells.iter().zip(&widths) {
            out.push_str(&format!(" {:<w$} |", c, w = w));
        }
        out.push('\n');
    };
    let header_cells: Vec<String> = header.iter().map(|s| s.to_string()).collect();
    line(&header_cells, &mut out);
    out.push('|');
    for w in &widths {
        out.push_str(&"-".repeat(w + 2));
        out.push('|');
    }
    out.push('\n');
    for r in rows {
        line(r, &mut out);
    }
    out
}

/// Serialize any experiment payload to `results/<name>.json` for
/// downstream plotting. Failures are reported but non-fatal (the printed
/// tables are the primary artifact).
pub(crate) fn write_json<T: Serialize>(name: &str, payload: &T) {
    let dir = std::path::Path::new("results");
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("warn: cannot create results dir: {e}");
        return;
    }
    let path = dir.join(format!("{name}.json"));
    match std::fs::File::create(&path) {
        Ok(mut f) => {
            let body = serde_json::to_string_pretty(payload).expect("serializable payload");
            if let Err(e) = f.write_all(body.as_bytes()) {
                eprintln!("warn: cannot write {}: {e}", path.display());
            } else {
                println!("(wrote {})", path.display());
            }
        }
        Err(e) => eprintln!("warn: cannot create {}: {e}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use histal_core::driver::CurvePoint;

    #[test]
    fn format_table_aligns_columns() {
        let rows = vec![
            vec!["a".to_string(), "1234".to_string()],
            vec!["long-name".to_string(), "5".to_string()],
        ];
        let out = format_table(&["name", "value"], &rows);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 4);
        // All lines have equal width.
        assert!(lines.iter().all(|l| l.len() == lines[0].len()));
        assert!(lines[0].contains("name") && lines[0].contains("value"));
        assert!(lines[2].contains("1234"));
    }

    #[test]
    fn format_table_empty_rows() {
        let out = format_table(&["x"], &[]);
        assert_eq!(out.lines().count(), 2);
    }

    #[test]
    fn print_curves_smoke() {
        let r = RunResult {
            strategy_name: "s".into(),
            curve: vec![CurvePoint {
                n_labeled: 10,
                metric: 0.5,
            }],
            rounds: vec![],
            history: vec![],
        };
        // Must not panic for single- and zero-result inputs.
        print_curves("t", &[r]);
        print_curves("t", &[]);
    }
}
