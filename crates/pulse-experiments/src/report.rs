//! Plain-text reporting: aligned tables and ASCII series, so every
//! experiment prints the same rows/series the paper's tables and figures
//! show, without a plotting dependency.

use std::fmt::Write as _;

/// A titled, column-aligned table.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Self {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header width).
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
        self
    }

    /// Render as machine-readable CSV (header row + data rows; cells with
    /// commas are quoted).
    pub fn to_csv(&self) -> String {
        let quote = |c: &str| {
            if c.contains(',') || c.contains('"') {
                format!("\"{}\"", c.replace('"', "\"\""))
            } else {
                c.to_string()
            }
        };
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{}",
            self.headers
                .iter()
                .map(|h| quote(h))
                .collect::<Vec<_>>()
                .join(",")
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{}",
                row.iter().map(|c| quote(c)).collect::<Vec<_>>().join(",")
            );
        }
        out
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let line = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:<w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let _ = writeln!(out, "{}", line(&self.headers, &widths));
        let _ = writeln!(
            out,
            "{}",
            widths
                .iter()
                .map(|w| "-".repeat(*w))
                .collect::<Vec<_>>()
                .join("  ")
        );
        for row in &self.rows {
            let _ = writeln!(out, "{}", line(row, &widths));
        }
        out
    }
}

/// The prefix of every report line whose content depends on the wall
/// clock, so `grep -v '^~'` keeps exactly the deterministic part of a
/// report — the part `results/quick.txt` pins.
pub const WALL_CLOCK_MARK: &str = "~";

/// Prefix every line of `text` with [`WALL_CLOCK_MARK`].
pub fn wall_clock(text: &str) -> String {
    text.lines()
        .map(|l| format!("{WALL_CLOCK_MARK} {l}\n"))
        .collect()
}

/// Format a float with `d` decimals.
pub fn fmt(x: f64, d: usize) -> String {
    format!("{x:.d$}")
}

/// Format a signed percentage with 1 decimal.
pub fn pct(x: f64) -> String {
    format!("{x:+.1}%")
}

/// Render a numeric series as an ASCII bar chart (one line per point),
/// downsampled to at most `max_points` by block averaging — the textual
/// stand-in for the paper's line plots.
// The bar length is rounded from [0, 50].
#[allow(clippy::cast_possible_truncation)]
pub fn ascii_series(title: &str, xs: &[f64], max_points: usize) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "-- {title} --");
    if xs.is_empty() {
        let _ = writeln!(out, "(empty series)");
        return out;
    }
    let block = xs.len().div_ceil(max_points.max(1));
    let points: Vec<(usize, f64)> = xs
        .chunks(block)
        .enumerate()
        .map(|(i, c)| (i * block, c.iter().sum::<f64>() / c.len() as f64))
        .collect();
    let hi = points
        .iter()
        .map(|&(_, v)| v)
        .fold(f64::NEG_INFINITY, f64::max);
    let lo = points.iter().map(|&(_, v)| v).fold(f64::INFINITY, f64::min);
    let span = (hi - lo).max(1e-12);
    for (t, v) in points {
        let bar = ((v - lo) / span * 50.0).round() as usize;
        let _ = writeln!(out, "{t:>7}  {v:>12.2}  {}", "#".repeat(bar));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("Demo", &["name", "value"]);
        t.row(vec!["a".into(), "1".into()]);
        t.row(vec!["long-name".into(), "2.5".into()]);
        let s = t.render();
        assert!(s.contains("== Demo =="));
        assert!(s.contains("long-name"));
        let lines: Vec<&str> = s.lines().collect();
        // header, separator, two rows, plus the title line
        assert_eq!(lines.len(), 5);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn ragged_row_rejected() {
        Table::new("x", &["a", "b"]).row(vec!["only-one".into()]);
    }

    #[test]
    fn csv_export_quotes_commas() {
        let mut t = Table::new("x", &["name", "note"]);
        t.row(vec!["a".into(), "plain".into()]);
        t.row(vec!["b".into(), "has, comma".into()]);
        t.row(vec!["c".into(), "has \"quote\"".into()]);
        let csv = t.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "name,note");
        assert_eq!(lines[2], "b,\"has, comma\"");
        assert_eq!(lines[3], "c,\"has \"\"quote\"\"\"");
    }

    #[test]
    fn series_downsamples() {
        let xs: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        let s = ascii_series("ramp", &xs, 10);
        // Ten data lines plus the title.
        assert_eq!(s.lines().count(), 11);
        assert!(s.contains("ramp"));
    }

    #[test]
    fn empty_series_handled() {
        let s = ascii_series("none", &[], 10);
        assert!(s.contains("(empty series)"));
    }

    #[test]
    fn formatters() {
        assert_eq!(fmt(12.3456, 2), "12.35");
        assert_eq!(pct(39.52), "+39.5%");
        assert_eq!(pct(-0.61), "-0.6%");
    }

    #[test]
    fn constant_series_does_not_divide_by_zero() {
        let s = ascii_series("flat", &[5.0; 100], 5);
        assert!(s.lines().count() >= 5);
    }
}
