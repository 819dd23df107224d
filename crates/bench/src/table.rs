//! Minimal aligned-table printer for experiment output.

/// A simple markdown-ish table builder.
#[derive(Debug, Default)]
pub(crate) struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table with column headers.
    pub(crate) fn new(header: &[&str]) -> Table {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row.
    pub(crate) fn row(&mut self, cells: Vec<String>) -> &mut Self {
        self.rows.push(cells);
        self
    }

    /// Render with aligned columns.
    pub(crate) fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate().take(cols) {
                if c.len() > widths[i] {
                    widths[i] = c.len();
                }
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::from("|");
            for (i, w) in widths.iter().enumerate() {
                let cell = cells.get(i).map(String::as_str).unwrap_or("");
                line.push_str(&format!(" {cell:<w$} |"));
            }
            line
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        let mut sep = String::from("|");
        for w in &widths {
            sep.push_str(&format!("{}|", "-".repeat(w + 2)));
        }
        out.push_str(&sep);
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new(&["name", "value"]);
        t.row(vec!["a".into(), "1".into()]);
        t.row(vec!["long-name".into(), "22".into()]);
        let s = t.render();
        assert!(s.contains("| name      | value |"));
        assert!(s.contains("| long-name | 22    |"));
        assert_eq!(s.lines().count(), 4);
    }
}
