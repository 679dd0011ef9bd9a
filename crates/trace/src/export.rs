//! Tabular export of figure/table data.
//!
//! Every experiment in the bench harness renders its rows through
//! [`Table`], which knows how to pretty-print for the terminal and to emit
//! CSV for external plotting.

use std::fmt::Write as _;
use std::io;
use std::path::Path;

/// A simple rectangular table.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Table {
    /// Table title (figure/table id and caption).
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows of cells; rows may be ragged but usually match `headers`.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table with the given title and headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Table {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| (*s).to_owned()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row of already-formatted cells.
    pub fn push_row(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
    }

    /// Appends a row of displayable values.
    pub fn row(&mut self, cells: &[&dyn std::fmt::Display]) {
        self.rows
            .push(cells.iter().map(|c| c.to_string()).collect());
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders an aligned text table.
    pub fn to_text(&self) -> String {
        let cols = self
            .headers
            .len()
            .max(self.rows.iter().map(Vec::len).max().unwrap_or(0));
        let mut widths = vec![0usize; cols];
        for (i, h) in self.headers.iter().enumerate() {
            widths[i] = widths[i].max(h.len());
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:width$}", c, width = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        if !self.headers.is_empty() {
            let _ = writeln!(out, "{}", fmt_row(&self.headers, &widths));
            let _ = writeln!(
                out,
                "{}",
                "-".repeat(widths.iter().sum::<usize>() + 2 * (cols.saturating_sub(1)))
            );
        }
        for row in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(row, &widths));
        }
        out
    }

    /// Renders RFC-4180-ish CSV (quotes cells containing commas, quotes or
    /// newlines).
    fn to_csv(&self) -> String {
        fn esc(cell: &str) -> String {
            if cell.contains([',', '"', '\n']) {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_owned()
            }
        }
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{}",
            self.headers
                .iter()
                .map(|h| esc(h))
                .collect::<Vec<_>>()
                .join(",")
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{}",
                row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(",")
            );
        }
        out
    }

    /// Writes the CSV rendering to `path`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from writing the file.
    pub fn save_csv(&self, path: &Path) -> io::Result<()> {
        std::fs::write(path, self.to_csv())
    }
}

/// Formats a float with 4 significant decimals — the workhorse cell
/// formatter used by the experiment harness.
pub fn fnum(x: f64) -> String {
    if x == 0.0 {
        "0".to_owned()
    } else if x.abs() >= 100.0 {
        format!("{x:.1}")
    } else if x.abs() >= 1.0 {
        format!("{x:.3}")
    } else {
        format!("{x:.5}")
    }
}

/// Formats a ratio as a percentage with two decimals ("27.26%").
pub fn fpct(x: f64) -> String {
    format!("{:.2}%", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new("Fig X", &["flow", "rate"]);
        t.push_row(vec!["1".into(), "0.5".into()]);
        t.row(&[&2, &0.25]);
        t
    }

    #[test]
    fn text_render_contains_everything() {
        let s = sample().to_text();
        assert!(s.contains("Fig X"));
        assert!(s.contains("flow"));
        assert!(s.contains("0.25"));
        assert_eq!(sample().len(), 2);
        assert!(!sample().is_empty());
    }

    #[test]
    fn csv_escapes_special_cells() {
        let mut t = Table::new("t", &["a", "b"]);
        t.push_row(vec!["x,y".into(), "say \"hi\"".into()]);
        let csv = t.to_csv();
        assert!(csv.contains("\"x,y\""));
        assert!(csv.contains("\"say \"\"hi\"\"\""));
    }

    #[test]
    fn csv_round_shape() {
        let csv = sample().to_csv();
        let lines: Vec<&str> = csv.trim().lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], "flow,rate");
    }

    #[test]
    fn save_csv_writes_file() {
        let dir = std::env::temp_dir().join("hsm_trace_export_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.csv");
        sample().save_csv(&path).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.starts_with("flow,rate"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn number_formatting() {
        assert_eq!(fnum(0.0), "0");
        assert_eq!(fnum(0.12345678), "0.12346");
        assert_eq!(fnum(3.456_789), "3.457");
        assert_eq!(fnum(1234.5), "1234.5");
        assert_eq!(fpct(0.2726), "27.26%");
    }
}
