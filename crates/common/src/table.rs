//! Fixed-width ASCII tables for experiment output.
//!
//! The `experiments` binary in `mv-bench` prints one table per experiment;
//! keeping the renderer here lets integration tests assert on table
//! structure without depending on the bench crate.

/// A simple column-aligned table builder.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table with a title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row; panics if the arity differs from the header count
    /// (a mis-shapen experiment table is a bug, not a runtime condition).
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row arity {} != header arity {}",
            cells.len(),
            self.headers.len()
        );
        self.rows.push(cells.to_vec());
        self
    }

    /// The table title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// The column headers, in order.
    pub fn headers(&self) -> &[String] {
        &self.headers
    }

    /// The data rows, in insertion order.
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// Number of data rows so far.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render to a `String` (also available via `Display`).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    /// Render into a caller-owned buffer. Unlike [`Self::render`], a
    /// reused buffer makes per-tick pretty-printing allocation-free in
    /// steady state: cells are written straight into `out` (no
    /// intermediate per-row strings), and the only scratch is a
    /// stack-allocated column-width array for tables up to
    /// `STACK_COLS` (24) columns wide.
    pub fn render_into(&self, out: &mut String) {
        let _ = self.render_to(out);
    }

    /// Column count renderable without a heap-allocated width scratch —
    /// comfortably above the widest experiment table.
    pub(crate) const STACK_COLS: usize = 24;

    fn render_to<W: std::fmt::Write>(&self, out: &mut W) -> std::fmt::Result {
        let cols = self.headers.len();
        let mut stack = [0usize; Self::STACK_COLS];
        let mut heap = Vec::new();
        let widths: &mut [usize] = if cols <= Self::STACK_COLS {
            // lint:allow(panic-path): cols <= STACK_COLS holds on this branch; the slice cannot overrun the stack scratch
            &mut stack[..cols]
        } else {
            heap.resize(cols, 0);
            &mut heap
        };
        for (w, h) in widths.iter_mut().zip(&self.headers) {
            *w = h.len();
        }
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let total: usize = widths.iter().sum::<usize>() + 3 * widths.len() + 1;
        let rule = total.max(self.title.len());
        let write_rule = |out: &mut W| -> std::fmt::Result {
            for _ in 0..rule {
                out.write_char('-')?;
            }
            out.write_char('\n')
        };
        let write_row = |out: &mut W, cells: &[String], widths: &[usize]| -> std::fmt::Result {
            out.write_char('|')?;
            for (cell, w) in cells.iter().zip(widths) {
                write!(out, " {cell:>w$} |", w = *w)?;
            }
            out.write_char('\n')
        };
        writeln!(out, "{}", self.title)?;
        write_rule(out)?;
        write_row(out, &self.headers, widths)?;
        write_rule(out)?;
        for row in &self.rows {
            write_row(out, row, widths)?;
        }
        Ok(())
    }
}

impl std::fmt::Display for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.render_to(f)
    }
}

/// Format a float with 2 decimals (the experiment tables' house style).
pub fn f2(v: f64) -> String {
    format!("{v:.2}")
}

/// Format a float with 3 decimals.
pub fn f3(v: f64) -> String {
    format!("{v:.3}")
}

/// Format an integer-valued count.
pub fn n(v: u64) -> String {
    v.to_string()
}

/// Format a ratio as a `x`-suffixed speedup (e.g. `3.42x`).
pub fn speedup(v: f64) -> String {
    format!("{v:.2}x")
}

/// Format a fraction as a percentage with one decimal.
pub fn pct(v: f64) -> String {
    format!("{:.1}%", v * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new("demo", &["name", "value"]);
        t.row(&["a".into(), "1".into()]);
        t.row(&["long-name".into(), "12345".into()]);
        let s = t.render();
        assert!(s.contains("demo"));
        assert!(s.contains("long-name"));
        // Every data line has the same length as the header line.
        let lines: Vec<&str> = s.lines().filter(|l| l.starts_with('|')).collect();
        assert_eq!(lines.len(), 3);
        assert!(lines.iter().all(|l| l.len() == lines[0].len()));
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn arity_mismatch_panics() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(&["only-one".into()]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(f2(1.2345), "1.23");
        assert_eq!(f3(1.2345), "1.234"); // round-half-even is fine either way
        assert_eq!(n(42), "42");
        assert_eq!(speedup(3.4167), "3.42x");
        assert_eq!(pct(0.1234), "12.3%");
    }

    #[test]
    fn render_into_reuse_is_allocation_free_in_steady_state() {
        let mut t = Table::new("profile", &["stage", "mean_us", "note"]);
        t.row(&["ingest".into(), "12.50".into(), "3.42x".into()]);
        t.row(&["fanout".into(), "3.25".into(), "-".into()]);
        let mut out = String::new();
        t.render_into(&mut out);
        let cap = out.capacity();
        for _ in 0..500 {
            out.clear();
            t.render_into(&mut out);
        }
        assert_eq!(out.capacity(), cap, "reused render buffer must not regrow");
        assert_eq!(out, t.render());
        assert_eq!(out, t.to_string());
    }

    #[test]
    fn len_and_empty() {
        let mut t = Table::new("x", &["c"]);
        assert!(t.is_empty());
        t.row(&["v".into()]);
        assert_eq!(t.len(), 1);
    }
}
