//! CSV and Markdown emission (implemented in-tree; the offline dependency
//! set has no serde format crate).

use std::fmt::Write as _;

/// A CSV builder with RFC-4180 quoting.
#[derive(Debug, Clone)]
pub struct Csv {
    columns: usize,
    out: String,
}

impl Csv {
    /// Starts a CSV with a header row.
    pub fn new(headers: &[&str]) -> Csv {
        assert!(!headers.is_empty(), "CSV needs at least one column");
        let mut csv = Csv {
            columns: headers.len(),
            out: String::new(),
        };
        csv.raw_row(headers.iter().map(|h| (*h).to_string()));
        csv
    }

    /// Appends a row of display-able cells.
    ///
    /// # Panics
    /// If the arity differs from the header.
    pub fn row<I, T>(&mut self, cells: I)
    where
        I: IntoIterator<Item = T>,
        T: std::fmt::Display,
    {
        self.raw_row(cells.into_iter().map(|c| c.to_string()));
    }

    fn raw_row<I: IntoIterator<Item = String>>(&mut self, cells: I) {
        let cells: Vec<String> = cells.into_iter().collect();
        assert_eq!(cells.len(), self.columns, "row arity mismatch");
        for (i, cell) in cells.iter().enumerate() {
            if i > 0 {
                self.out.push(',');
            }
            escape_into(&mut self.out, cell);
        }
        self.out.push('\n');
    }

    /// The finished CSV text.
    pub fn finish(self) -> String {
        self.out
    }
}

/// Appends one CSV cell to `out` with RFC-4180 quoting: a cell holding
/// `,`, `"` or `\n` is wrapped in quotes with its quotes doubled; any
/// other cell is copied as is. [`Csv`] and the sweep's CSV sink both
/// write cells through this, so their quoting cannot drift apart.
pub fn escape_into(out: &mut String, cell: &str) {
    if cell.contains([',', '"', '\n']) {
        out.push('"');
        for c in cell.chars() {
            if c == '"' {
                out.push('"');
            }
            out.push(c);
        }
        out.push('"');
    } else {
        out.push_str(cell);
    }
}

/// A Markdown pipe-table builder.
#[derive(Debug, Clone)]
pub struct MarkdownTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl MarkdownTable {
    /// Starts a table with headers.
    pub fn new(headers: &[&str]) -> MarkdownTable {
        assert!(!headers.is_empty());
        MarkdownTable {
            headers: headers.iter().map(|h| (*h).to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    /// If the arity differs from the header.
    pub fn row<I, T>(&mut self, cells: I)
    where
        I: IntoIterator<Item = T>,
        T: std::fmt::Display,
    {
        let row: Vec<String> = cells.into_iter().map(|c| c.to_string()).collect();
        assert_eq!(row.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(row);
    }

    /// Renders the aligned table.
    pub fn finish(self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let padded: Vec<String> = cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:<w$}"))
                .collect();
            format!("| {} |", padded.join(" | "))
        };
        let _ = writeln!(out, "{}", fmt_row(&self.headers, &widths));
        let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        let _ = writeln!(out, "|-{}-|", sep.join("-|-"));
        for row in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(row, &widths));
        }
        let _ = cols;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_basics() {
        let mut c = Csv::new(&["a", "b"]);
        c.row(["1", "2"]);
        c.row(["x,y", "q\"r"]);
        let s = c.finish();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines[0], "a,b");
        assert_eq!(lines[1], "1,2");
        assert_eq!(lines[2], "\"x,y\",\"q\"\"r\"");
    }

    #[test]
    fn escape_into_appends_and_quotes_only_when_needed() {
        let mut out = String::from("x|");
        for cell in ["plain", "a,b", "say \"hi\"", "two\nlines", "cr\ronly", ""] {
            escape_into(&mut out, cell);
            out.push('|');
        }
        assert_eq!(
            out,
            "x|plain|\"a,b\"|\"say \"\"hi\"\"\"|\"two\nlines\"|cr\ronly||"
        );
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn csv_rejects_wrong_arity() {
        let mut c = Csv::new(&["a", "b"]);
        c.row(["only one"]);
    }

    #[test]
    fn markdown_alignment() {
        let mut t = MarkdownTable::new(&["name", "v"]);
        t.row(["long-name", "1"]);
        t.row(["x", "22"]);
        let s = t.finish();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("| name"));
        assert!(lines[1].starts_with("|-"));
        // All rows equal width.
        assert_eq!(lines[0].len(), lines[2].len());
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    fn markdown_numeric_rows() {
        let mut t = MarkdownTable::new(&["k", "v"]);
        t.row([format!("{}", 1), format!("{:.2}", 2.5)]);
        assert!(t.finish().contains("2.50"));
    }
}
