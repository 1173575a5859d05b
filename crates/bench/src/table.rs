//! Minimal aligned-table printing and CSV output for the repro harness.
//!
//! A numeric cell keeps its `f64`: the text table prints it rounded, the
//! CSV exactly (Rust's shortest round-trip form), so the CSVs under
//! `crates/bench/golden/` pin every bit of every figure.

use std::fmt;
use std::io::Write;
use std::path::Path;

/// One table cell: text, or a number with the decimals it prints with.
#[derive(Debug, Clone)]
pub enum Cell {
    /// Text, printed and written as is.
    Text(String),
    /// A number: rounded to this many decimals in the text table, exact in
    /// the CSV.
    Num(f64, usize),
}

impl Cell {
    /// The number exactly as computed; `None` for text.
    pub fn value(&self) -> Option<f64> {
        match self {
            Cell::Num(x, _) => Some(*x),
            Cell::Text(_) => None,
        }
    }

    /// The CSV form.
    fn exact(&self) -> String {
        match self {
            Cell::Num(x, _) => format!("{x:?}"),
            Cell::Text(s) => s.clone(),
        }
    }
}

/// The text-table form.
impl fmt::Display for Cell {
    fn fmt(&self, out: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Cell::Num(x, digits) => write!(out, "{x:.*}", *digits),
            Cell::Text(s) => out.write_str(s),
        }
    }
}

impl From<String> for Cell {
    fn from(s: String) -> Self {
        Cell::Text(s)
    }
}

impl From<&str> for Cell {
    fn from(s: &str) -> Self {
        Cell::Text(s.to_string())
    }
}

/// A simple table: header plus rows of cells.
#[derive(Debug, Clone, Default)]
pub struct Table {
    /// Table title (figure/table id + caption).
    pub title: String,
    /// Column headers.
    pub header: Vec<String>,
    /// Data rows.
    pub rows: Vec<Vec<Cell>>,
}

impl Table {
    /// New table with a title and header.
    pub fn new(title: &str, header: &[&str]) -> Self {
        Table {
            title: title.to_string(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row.
    pub fn row(&mut self, cells: Vec<Cell>) {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Render as an aligned text table, numbers rounded.
    pub fn render(&self) -> String {
        let cells = self
            .rows
            .iter()
            .map(|row| row.iter().map(Cell::to_string).collect());
        let rows: Vec<Vec<String>> = std::iter::once(self.header.clone()).chain(cells).collect();
        let mut widths = vec![0; self.header.len()];
        for row in &rows {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.len());
            }
        }
        let mut out = format!("== {} ==\n", self.title);
        for (n, row) in rows.iter().enumerate() {
            let padded: Vec<String> = row
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect();
            out += &(padded.join("  ") + "\n");
            if n == 0 {
                out += &("-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)) + "\n");
            }
        }
        out
    }

    /// Write as CSV to `dir/<name>.csv`, numbers exact.
    pub fn write_csv(&self, dir: &Path, name: &str) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let mut f =
            std::io::BufWriter::new(std::fs::File::create(dir.join(format!("{name}.csv")))?);
        writeln!(f, "{}", self.header.join(","))?;
        for row in &self.rows {
            let cells: Vec<String> = row.iter().map(Cell::exact).collect();
            writeln!(f, "{}", cells.join(","))?;
        }
        f.flush()
    }
}

/// A number printed with `digits` decimals.
pub fn f(x: f64, digits: usize) -> Cell {
    Cell::Num(x, digits)
}

/// A number printed as an integer count.
pub fn i(x: f64) -> Cell {
    Cell::Num(x, 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new("T", &["a", "long_header"]);
        t.row(vec!["1".into(), "2".into()]);
        t.row(vec!["100".into(), "x".into()]);
        let s = t.render();
        assert!(s.contains("== T =="));
        let lines: Vec<&str> = s.lines().collect();
        // all data lines same width
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_checked() {
        let mut t = Table::new("T", &["a", "b"]);
        t.row(vec!["1".into()]);
    }

    #[test]
    fn csv_roundtrip() {
        let dir = std::env::temp_dir().join(format!("drim_bench_test_{}", std::process::id()));
        let mut t = Table::new("T", &["a", "b"]);
        t.row(vec!["1".into(), f(1.0 / 3.0, 2)]);
        t.write_csv(&dir, "t").unwrap();
        let s = std::fs::read_to_string(dir.join("t.csv")).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(s, "a,b\n1,0.3333333333333333\n");
        assert!(t.render().ends_with("1  0.33\n"), "{}", t.render());
    }

    #[test]
    fn float_formatting() {
        assert_eq!(f(1.23456, 2).to_string(), "1.23");
        assert_eq!(i(1234.6).to_string(), "1235");
        assert_eq!(f(1.23456, 2).value(), Some(1.23456));
    }
}
