//! Table and series printing.
//!
//! Each bench target prints the same *shape* of output as the paper's
//! tables and figures: fixed-width tables for Tables I–IV, CSV series
//! (one row per x value, one column per line in the figure) for
//! Figs. 3–6. Series can additionally be dumped as JSON for plotting.

use std::fmt::Write as _;
use std::time::Duration;

use hom_obs::json::Writer;

/// Format a duration in seconds with four decimals (the paper's unit).
pub fn fmt_duration(d: Duration) -> String {
    format!("{:.4}", d.as_secs_f64())
}

/// Format an error rate with seven decimals (the paper's Table II).
pub fn fmt_err(e: f64) -> String {
    format!("{e:.7}")
}

/// Render a fixed-width table. Column widths adapt to the content; the
/// first column is left-aligned, the rest right-aligned (numbers).
pub fn render_table(title: &str, headers: &[&str], rows: &[Vec<String>]) -> String {
    let n_cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), n_cols, "row width mismatch in table {title:?}");
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }

    let mut out = String::new();
    let _ = writeln!(out, "== {title} ==");
    let fmt_row = |cells: &[String]| -> String {
        let mut line = String::new();
        for (i, (cell, &w)) in cells.iter().zip(&widths).enumerate() {
            if i == 0 {
                let _ = write!(line, "{cell:<w$}");
            } else {
                let _ = write!(line, "  {cell:>w$}");
            }
        }
        line
    };
    let header_cells: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    let _ = writeln!(out, "{}", fmt_row(&header_cells));
    let rule_len = widths.iter().sum::<usize>() + 2 * (n_cols - 1);
    let _ = writeln!(out, "{}", "-".repeat(rule_len));
    for row in rows {
        let _ = writeln!(out, "{}", fmt_row(row));
    }
    out
}

/// Print a table to stdout.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    print!("{}", render_table(title, headers, rows));
}

/// Render a figure's data as CSV: an `x` column plus one column per
/// series.
pub fn render_series(title: &str, x_label: &str, xs: &[f64], columns: &[(&str, &[f64])]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== {title} ==");
    let mut header = x_label.to_string();
    for (name, ys) in columns {
        assert_eq!(
            ys.len(),
            xs.len(),
            "series {name:?} length mismatch in {title:?}"
        );
        header.push(',');
        header.push_str(name);
    }
    let _ = writeln!(out, "{header}");
    for (i, x) in xs.iter().enumerate() {
        let _ = write!(out, "{x}");
        for (_, ys) in columns {
            let _ = write!(out, ",{:.6}", ys[i]);
        }
        out.push('\n');
    }
    out
}

/// Print a figure's data to stdout.
pub fn print_series(title: &str, x_label: &str, xs: &[f64], columns: &[(&str, &[f64])]) {
    print!("{}", render_series(title, x_label, xs, columns));
}

/// Dump a value as pretty JSON next to the bench output, when
/// `HOM_JSON_DIR` is set: `write` writes it with a two-space pretty
/// [`Writer`] into `$HOM_JSON_DIR/<name>.json`. Silently skips on I/O
/// errors (benches must not fail because an output directory is
/// read-only).
pub fn maybe_dump_json(name: &str, write: impl FnOnce(&mut Writer<'_, true>)) {
    let Ok(dir) = std::env::var("HOM_JSON_DIR") else {
        return;
    };
    let mut json = String::new();
    write(&mut Writer::pretty(&mut json));
    let _ = std::fs::create_dir_all(&dir);
    let _ = std::fs::write(
        std::path::Path::new(&dir).join(format!("{name}.json")),
        json,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let out = render_table(
            "Comparison in Error Rates",
            &["Data Stream", "High-order", "RePro"],
            &[
                vec!["Stagger".into(), "0.0020035".into(), "0.0275480".into()],
                vec!["Hyperplane".into(), "0.02".into(), "0.18".into()],
            ],
        );
        assert!(out.contains("== Comparison in Error Rates =="));
        assert!(out.contains("Stagger"));
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 5);
        // all data lines have the same width
        assert_eq!(lines[3].len(), lines[1].len());
    }

    #[test]
    fn series_renders_csv() {
        let out = render_series(
            "Fig 3",
            "inv_rate",
            &[200.0, 400.0],
            &[("Highorder", &[0.01, 0.02][..]), ("WCE", &[0.1, 0.2][..])],
        );
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines[1], "inv_rate,Highorder,WCE");
        assert!(lines[2].starts_with("200,0.010000,0.100000"));
    }

    #[test]
    fn duration_and_error_formats() {
        assert_eq!(fmt_duration(Duration::from_millis(2146)), "2.1460");
        assert_eq!(fmt_err(0.0020035), "0.0020035");
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn series_rejects_ragged_columns() {
        render_series("x", "x", &[1.0], &[("a", &[1.0, 2.0][..])]);
    }
}
