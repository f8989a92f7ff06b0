//! Experiment table emission.
//!
//! The `repro` harness prints every reproduced table/figure as rows; this
//! module renders them as aligned markdown (what `repro` prints) and CSV
//! (for plotting).

/// A simple column-oriented table.
#[derive(Debug, Clone, Default)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with a title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header arity).
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells.to_vec());
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render as aligned markdown.
    pub fn to_markdown(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = format!("### {}\n\n", self.title);
        let line = |cells: &[String], widths: &[usize]| {
            let mut s = String::from("|");
            for (c, w) in cells.iter().zip(widths) {
                s.push_str(&format!(" {:<w$} |", c, w = w));
            }
            s.push('\n');
            s
        };
        out.push_str(&line(&self.headers, &widths));
        let mut sep = String::from("|");
        for w in &widths {
            sep.push_str(&format!("{:-<w$}|", "", w = w + 2));
        }
        sep.push('\n');
        out.push_str(&sep);
        for row in &self.rows {
            out.push_str(&line(row, &widths));
        }
        out
    }

    /// Render as CSV (headers + rows).
    pub fn to_csv(&self) -> String {
        let esc = |s: &String| {
            if s.contains(',') || s.contains('"') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.clone()
            }
        };
        let mut out = self.headers.iter().map(esc).collect::<Vec<_>>().join(",");
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(esc).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }
}

/// Format a rate in engineering units (e.g., `452.5M`, `1.07B`).
pub fn fmt_rate(v: f64) -> String {
    if v >= 1e9 {
        format!("{:.2}B", v / 1e9)
    } else if v >= 1e6 {
        format!("{:.1}M", v / 1e6)
    } else if v >= 1e3 {
        format!("{:.1}K", v / 1e3)
    } else {
        format!("{v:.1}")
    }
}

/// Format a probability/fraction as a percentage.
pub fn fmt_pct(v: f64) -> String {
    format!("{:.1}%", v * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markdown_renders_aligned() {
        let mut t = Table::new("Demo", &["name", "rate"]);
        t.row(&["kw".into(), "110M".into()]);
        t.row(&["append".into(), "1.07B".into()]);
        let md = t.to_markdown();
        assert!(md.contains("### Demo"));
        assert!(md.contains("| kw"));
        assert!(md.lines().count() >= 5);
    }

    #[test]
    fn csv_escapes_commas() {
        let mut t = Table::new("x", &["a"]);
        t.row(&["hello, world".into()]);
        assert!(t.to_csv().contains("\"hello, world\""));
    }

    #[test]
    #[should_panic]
    fn arity_mismatch_panics() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(&["only-one".into()]);
    }

    #[test]
    fn rate_formatting() {
        assert_eq!(fmt_rate(1.07e9), "1.07B");
        assert_eq!(fmt_rate(452.5e6), "452.5M");
        assert_eq!(fmt_rate(950e3), "950.0K");
        assert_eq!(fmt_rate(42.0), "42.0");
    }

    #[test]
    fn pct_formatting() {
        assert_eq!(fmt_pct(0.033), "3.3%");
    }
}
