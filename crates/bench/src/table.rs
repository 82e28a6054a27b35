//! Minimal tabular report type shared by all experiments.

/// A rendered experiment table.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// Experiment title (e.g. `"Table VI — deployment cost and latency"`).
    title: String,
    /// Column headers.
    headers: Vec<String>,
    /// Row cells (already formatted).
    pub(crate) rows: Vec<Vec<String>>,
    /// Free-form notes (paper-vs-measured commentary).
    notes: Vec<String>,
    /// A plain-text figure rendered after the table (Fig. 3's Gantt).
    pub(crate) figure: Option<String>,
}

impl Table {
    /// Creates an empty table.
    pub(crate) fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
            figure: None,
        }
    }

    /// Appends a row.
    pub(crate) fn push_row(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
    }

    /// Appends a note.
    pub(crate) fn push_note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }

    /// Renders as aligned plain text.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                if i < widths.len() {
                    widths[i] = widths[i].max(c.len());
                } else {
                    widths.push(c.len());
                }
            }
        }
        let line = |cells: &[String]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| {
                    format!(
                        "{:<width$}",
                        c,
                        width = widths.get(i).copied().unwrap_or(c.len()) + 2
                    )
                })
                .collect::<String>()
                .trim_end()
                .to_string()
        };
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        out.push_str(&line(&self.headers));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().map(|w| w + 2).sum::<usize>().min(120)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&line(row));
            out.push('\n');
        }
        for n in &self.notes {
            out.push_str(&format!("note: {n}\n"));
        }
        if let Some(figure) = &self.figure {
            out.push_str(&format!("\n{figure}"));
        }
        out
    }

    /// Renders as a GitHub-flavored markdown table.
    pub fn render_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("### {}\n\n", self.title));
        out.push_str(&format!("| {} |\n", self.headers.join(" | ")));
        out.push_str(&format!(
            "|{}|\n",
            self.headers
                .iter()
                .map(|_| "---")
                .collect::<Vec<_>>()
                .join("|")
        ));
        for row in &self.rows {
            out.push_str(&format!("| {} |\n", row.join(" | ")));
        }
        for n in &self.notes {
            out.push_str(&format!("\n> {n}\n"));
        }
        if let Some(figure) = &self.figure {
            out.push_str(&format!("\n```text\n{figure}```\n"));
        }
        out
    }
}

/// Formats seconds with 2 decimals, or "–" for `None` (the paper's dash
/// for infeasible cells).
pub(crate) fn fmt_secs(v: Option<f64>) -> String {
    match v {
        Some(v) => format!("{v:.2}"),
        None => "–".to_string(),
    }
}

/// Formats a parameter count in millions (`"124M"`) or billions.
pub(crate) fn fmt_params(params: u64) -> String {
    if params >= 1_000_000_000 {
        format!("{:.1}B", params as f64 / 1.0e9)
    } else if params >= 1_000_000 {
        format!("{}M", params / 1_000_000)
    } else if params >= 1_000 {
        format!("{}K", params / 1_000)
    } else {
        format!("{params}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_and_includes_notes() {
        let mut t = Table::new("Demo", &["a", "bbbb"]);
        t.push_row(vec!["xxxxx".into(), "1".into()]);
        t.push_note("hello");
        let s = t.render();
        assert!(s.contains("== Demo =="));
        assert!(s.contains("xxxxx"));
        assert!(s.contains("note: hello"));
        let md = t.render_markdown();
        assert!(md.contains("| a | bbbb |"));
        t.figure = Some("gantt\n".into());
        assert!(t.render().ends_with("note: hello\n\ngantt\n"));
        let md = t.render_markdown();
        assert!(md.ends_with("> hello\n\n```text\ngantt\n```\n"));
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_secs(Some(2.484)), "2.48");
        assert_eq!(fmt_secs(None), "–");
        assert_eq!(fmt_params(124_000_000), "124M");
        assert_eq!(fmt_params(1_017_000_000), "1.0B");
        assert_eq!(fmt_params(52_000), "52K");
        assert_eq!(fmt_params(17), "17");
    }
}
