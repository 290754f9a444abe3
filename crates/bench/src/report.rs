//! Markdown/JSON experiment reporting.

use std::io::Write;
use std::path::Path;

/// A simple named-rows table rendered as GitHub Markdown.
#[derive(Debug, Clone, Default)]
pub struct Table {
    /// Table heading.
    pub title: String,
    /// Column names (first column is the row label).
    pub columns: Vec<String>,
    rows: Vec<(String, Vec<String>)>,
}

impl Table {
    /// New table with a title and column names (excluding the label
    /// column).
    pub fn new(title: impl Into<String>, columns: &[&str]) -> Self {
        Table {
            title: title.into(),
            columns: columns.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn row(&mut self, label: impl Into<String>, cells: Vec<String>) {
        self.rows.push((label.into(), cells));
    }

    /// Appends a visual separator row.
    pub fn separator(&mut self) {
        self.rows
            .push(("—".into(), vec![String::new(); self.columns.len()]));
    }

    /// Renders GitHub-flavoured Markdown.
    pub fn markdown(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        writeln!(out, "### {}\n", self.title).expect("write");
        writeln!(out, "| query | {} |", self.columns.join(" | ")).expect("write");
        writeln!(
            out,
            "|---|{}|",
            self.columns.iter().map(|_| "---:").collect::<Vec<_>>().join("|")
        )
        .expect("write");
        for (label, cells) in &self.rows {
            writeln!(out, "| {label} | {} |", cells.join(" | ")).expect("write");
        }
        out
    }

    /// Rows as `(label, cells)` pairs (for JSON emission).
    pub fn rows(&self) -> &[(String, Vec<String>)] {
        &self.rows
    }
}

/// Milliseconds formatter: ≥10 ms as integers (like the paper's
/// tables), below that with enough digits to stay informative.
pub fn fmt_ms(ms: f64) -> String {
    if ms >= 10.0 {
        format!("{ms:.0}")
    } else if ms >= 0.1 {
        format!("{ms:.2}")
    } else {
        format!("{ms:.3}")
    }
}

/// The commit the bench ran on, or `unavailable` outside a git checkout.
pub fn git_sha() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unavailable".to_string())
}

/// Writes `<out>/<name>.md` and `<out>/<name>.json`, then prints the
/// Markdown to stdout.
pub fn write_outputs(out_dir: &Path, name: &str, tables: &[Table], json: serde_json::Value) {
    std::fs::create_dir_all(out_dir).expect("create output dir");
    let md: String = tables
        .iter()
        .map(Table::markdown)
        .collect::<Vec<_>>()
        .join("\n");
    print!("{md}");
    let mut f = std::fs::File::create(out_dir.join(format!("{name}.md"))).expect("create md");
    f.write_all(md.as_bytes()).expect("write md");
    let mut f = std::fs::File::create(out_dir.join(format!("{name}.json"))).expect("create json");
    f.write_all(serde_json::to_string_pretty(&json).expect("serialize").as_bytes())
        .expect("write json");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markdown_shape() {
        let mut t = Table::new("Demo", &["A", "B"]);
        t.row("q1", vec!["1".into(), "2".into()]);
        let md = t.markdown();
        assert!(md.contains("### Demo"));
        assert!(md.contains("| query | A | B |"));
        assert!(md.contains("| q1 | 1 | 2 |"));
    }

    #[test]
    fn ms_formatting() {
        assert_eq!(fmt_ms(1234.5), "1234"); // {:.0} rounds half-to-even
        assert_eq!(fmt_ms(1.234), "1.23");
        assert_eq!(fmt_ms(0.0123), "0.012");
    }
}
