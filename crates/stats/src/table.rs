//! ASCII table rendering for experiment reports.

use std::fmt;

/// Column alignment within a [`Table`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Align {
    /// Left-aligned (default; used for names).
    #[default]
    Left,
    /// Right-aligned (used for numbers).
    Right,
}

/// A simple ASCII table builder.
///
/// The figure renderers (`dgl figures`) and the benchmark binaries
/// use this to print paper-style rows.
///
/// # Examples
///
/// ```
/// use dgl_stats::{Align, Table};
///
/// let mut t = Table::new(vec!["bench".into(), "ipc".into()]);
/// t.align(1, Align::Right);
/// t.row(vec!["mcf_like".into(), "0.52".into()]);
/// let s = t.to_string();
/// assert!(s.contains("mcf_like"));
/// assert!(s.contains("0.52"));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Table {
    headers: Vec<String>,
    aligns: Vec<Align>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(headers: Vec<String>) -> Self {
        let aligns = vec![Align::Left; headers.len()];
        Self {
            headers,
            aligns,
            rows: Vec::new(),
        }
    }

    /// Sets the alignment of column `col`.
    ///
    /// # Panics
    ///
    /// Panics if `col` is out of range.
    pub fn align(&mut self, col: usize, align: Align) -> &mut Self {
        self.aligns[col] = align;
        self
    }

    /// Appends a row. Shorter rows are padded with empty cells; longer
    /// rows are truncated to the header width.
    pub fn row(&mut self, mut cells: Vec<String>) -> &mut Self {
        cells.resize(self.headers.len(), String::new());
        self.rows.push(cells);
        self
    }

    /// Convenience: appends a row of a name followed by formatted floats.
    pub fn row_f64(&mut self, name: &str, values: &[f64], precision: usize) -> &mut Self {
        let mut cells = Vec::with_capacity(values.len() + 1);
        cells.push(name.to_owned());
        for v in values {
            cells.push(format!("{v:.precision$}"));
        }
        self.row(cells)
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    fn widths(&self) -> Vec<usize> {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        widths
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let widths = self.widths();
        let write_row = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            let mut first = true;
            for (i, cell) in cells.iter().enumerate() {
                if !first {
                    write!(f, "  ")?;
                }
                first = false;
                let w = widths[i];
                match self.aligns[i] {
                    Align::Left => write!(f, "{cell:<w$}")?,
                    Align::Right => write!(f, "{cell:>w$}")?,
                }
            }
            writeln!(f)
        };
        write_row(f, &self.headers)?;
        let total: usize = widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1);
        writeln!(f, "{}", "-".repeat(total))?;
        for row in &self.rows {
            write_row(f, row)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_headers_and_rows() {
        let mut t = Table::new(vec!["a".into(), "b".into()]);
        t.row(vec!["x".into(), "1".into()]);
        let s = t.to_string();
        assert!(s.starts_with("a  b\n"));
        assert!(s.contains("x  1"));
    }

    #[test]
    fn pads_short_rows() {
        let mut t = Table::new(vec!["a".into(), "b".into(), "c".into()]);
        t.row(vec!["only".into()]);
        assert_eq!(t.rows[0].len(), 3);
    }

    #[test]
    fn right_alignment() {
        let mut t = Table::new(vec!["name".into(), "val".into()]);
        t.align(1, Align::Right);
        t.row(vec!["x".into(), "7".into()]);
        let s = t.to_string();
        // "name" pads to 4, two-space separator, "7" right-aligned to 3.
        assert!(s.contains("x       7"), "table was: {s}");
    }

    #[test]
    fn row_f64_formats() {
        let mut t = Table::new(vec!["n".into(), "v".into()]);
        t.row_f64("w", &[0.8876], 3);
        assert!(t.to_string().contains("0.888"));
    }

    #[test]
    fn len_and_empty() {
        let mut t = Table::new(vec!["h".into()]);
        assert!(t.is_empty());
        t.row(vec!["r".into()]);
        assert_eq!(t.len(), 1);
    }
}
