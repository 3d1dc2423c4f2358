//! Minimal fixed-width table rendering for experiment output.

use std::fmt;

/// A titled table with a header row and string cells.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
    notes: Vec<String>,
}

impl Table {
    /// Creates a table with a title and column headers.
    #[must_use]
    pub fn new(title: &str, header: &[&str]) -> Self {
        Table {
            title: title.to_string(),
            header: header.iter().map(ToString::to_string).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Appends a row (padded or truncated to the header width).
    pub fn row<S: ToString>(&mut self, cells: &[S]) -> &mut Self {
        let mut row: Vec<String> = cells.iter().map(ToString::to_string).collect();
        row.resize(self.header.len(), String::new());
        self.rows.push(row);
        self
    }

    /// Appends a free-text note rendered under the table.
    pub fn note(&mut self, text: &str) -> &mut Self {
        self.notes.push(text.to_string());
        self
    }

    /// Number of data rows.
    #[cfg(test)]
    pub(crate) fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Cell accessor for tests: `(row, column)`.
    #[must_use]
    pub fn cell(&self, row: usize, col: usize) -> Option<&str> {
        self.rows
            .get(row)
            .and_then(|r| r.get(col))
            .map(String::as_str)
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        writeln!(f, "## {}", self.title)?;
        let render = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            write!(f, "|")?;
            for (i, cell) in cells.iter().enumerate() {
                let pad = widths[i].saturating_sub(cell.chars().count());
                write!(f, " {}{} |", cell, " ".repeat(pad))?;
            }
            writeln!(f)
        };
        render(f, &self.header)?;
        write!(f, "|")?;
        for w in &widths {
            write!(f, "{}|", "-".repeat(w + 2))?;
        }
        writeln!(f)?;
        for row in &self.rows {
            render(f, row)?;
        }
        for note in &self.notes {
            writeln!(f, "  note: {note}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_markdown_like_output() {
        let mut t = Table::new("demo", &["x", "y"]);
        t.row(&["1", "long-cell"]);
        t.row(&["22", "b"]);
        t.note("a note");
        let s = t.to_string();
        assert!(s.contains("## demo"));
        assert!(s.contains("| x  | y         |"));
        assert!(s.contains("| 22 | b         |"));
        assert!(s.contains("note: a note"));
    }

    #[test]
    fn rows_are_padded_to_header_width() {
        let mut t = Table::new("pad", &["a", "b", "c"]);
        t.row(&["1"]);
        assert_eq!(t.cell(0, 2), Some(""));
        assert_eq!(t.num_rows(), 1);
        assert_eq!(t.cell(9, 0), None);
    }
}
