//! Plain-text tables, CSV, `BENCH_*.json` records, and the artifacts and
//! reports every `repro` experiment returns.

use std::fmt::Write as _;
use std::path::Path;

/// A fixed-width text table.
pub struct TextTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Start a table with the given column headers.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        TextTable {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header arity).
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) -> &mut Self {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
        self
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for c in 0..cols {
                widths[c] = widths[c].max(row[c].len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| {
            let mut line = String::new();
            for (c, cell) in cells.iter().enumerate() {
                let _ = write!(line, "| {:<w$} ", cell, w = widths[c]);
            }
            line.push('|');
            line
        };
        let header = fmt_row(&self.headers, &widths);
        let sep: String = header
            .chars()
            .map(|ch| if ch == '|' { '+' } else { '-' })
            .collect();
        out.push_str(&sep);
        out.push('\n');
        out.push_str(&header);
        out.push('\n');
        out.push_str(&sep);
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out.push_str(&sep);
        out.push('\n');
        out
    }

    /// Render as CSV.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let esc = |s: &str| s.replace(',', ";");
        out.push_str(
            &self
                .headers
                .iter()
                .map(|h| esc(h))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }
}

/// Format milliseconds with sensible precision.
pub fn ms(v: f64) -> String {
    if v >= 100.0 {
        format!("{v:.1}")
    } else if v >= 1.0 {
        format!("{v:.3}")
    } else {
        format!("{v:.6}")
    }
}

/// Format a ratio/speedup.
pub fn x(v: f64) -> String {
    format!("{v:.3}")
}

/// Format a percentage.
pub fn pct(v: f64) -> String {
    format!("{:.2}%", v * 100.0)
}

/// A rendered experiment: the text it prints and the files it leaves
/// under `results/`.
pub struct Artifact {
    /// Base name of `results/<name>.txt` and `results/<name>.csv`.
    pub name: &'static str,
    /// Rendered text.
    pub text: String,
    /// CSV rows, when the artifact has a table form.
    pub csv: Option<String>,
    /// Further `(file name, contents)` pairs under `results/`: the
    /// `BENCH_*.json` records, Chrome traces, `.gvtrace` dumps and
    /// counterexample schedules.
    pub files: Vec<(String, String)>,
}

impl Artifact {
    /// An artifact with no files beyond its text and CSV.
    pub fn new(name: &'static str, text: String, csv: Option<String>) -> Self {
        Artifact {
            name,
            text,
            csv,
            files: Vec::new(),
        }
    }

    /// `self` with one more file under `results/`.
    pub fn with_file(mut self, file: impl Into<String>, contents: String) -> Self {
        self.files.push((file.into(), contents));
        self
    }

    /// Write every file under `results/` (best effort: one warning names
    /// whatever could not be written).
    pub fn save(&self) {
        let dir = Path::new("results");
        let own = [("txt", Some(&self.text)), ("csv", self.csv.as_ref())]
            .into_iter()
            .filter_map(|(ext, c)| c.map(|c| (format!("{}.{ext}", self.name), c)));
        let failed: Vec<String> = own
            .chain(self.files.iter().map(|(f, c)| (f.clone(), c)))
            .filter(|(f, c)| {
                std::fs::create_dir_all(dir)
                    .and_then(|()| std::fs::write(dir.join(f), c))
                    .is_err()
            })
            .map(|(f, _)| f)
            .collect();
        if !failed.is_empty() {
            eprintln!("warning: cannot write {} under results/", failed.join(", "));
        }
    }
}

/// What one `repro` experiment produced: its standard output, the
/// artifacts it saves, and its exit code.
#[derive(Default)]
pub struct Report {
    /// Printed verbatim.
    pub stdout: String,
    /// Saved under `results/` after printing.
    pub artifacts: Vec<Artifact>,
    /// 0 on success, 1 when a checker or gate failed, 2 on unusable input.
    pub code: u8,
}

impl From<Artifact> for Report {
    fn from(a: Artifact) -> Self {
        Report {
            stdout: format!("{}\n", a.text),
            artifacts: vec![a],
            code: 0,
        }
    }
}

impl Report {
    /// Report `a`; fail (exit 1) when an analyzed trace of the `what`
    /// sweep had diagnostics.
    pub fn gated(a: Artifact, clean: bool, what: &str) -> Self {
        if !clean {
            eprintln!("gv-analyze diagnostics found in {what} traces — failing");
        }
        Report {
            code: u8::from(!clean),
            ..a.into()
        }
    }

    /// Print the output, save every artifact, and return the exit code.
    pub fn emit(&self) -> std::process::ExitCode {
        print!("{}", self.stdout);
        for a in &self.artifacts {
            a.save();
        }
        self.code.into()
    }
}

/// Render a `BENCH_*.json` record: `"bench"`, the `head` fields, the
/// `key` array with one pre-rendered JSON object per line, then the
/// `tail` fields. Field values are pre-rendered JSON, so each caller
/// keeps its own precisions.
pub fn bench_record(
    bench: &str,
    head: &[(&str, String)],
    key: &str,
    rows: &[String],
    tail: &[(&str, String)],
) -> String {
    let mut out = format!("{{\n  \"bench\": \"{bench}\",\n");
    for (k, v) in head {
        let _ = writeln!(out, "  \"{k}\": {v},");
    }
    let _ = writeln!(out, "  \"{key}\": [");
    for (i, row) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let _ = writeln!(out, "    {row}{comma}");
    }
    out.push_str("  ]");
    for (k, v) in tail {
        let _ = write!(out, ",\n  \"{k}\": {v}");
    }
    out.push_str("\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = TextTable::new(vec!["name", "value"]);
        t.row(vec!["alpha", "1"]).row(vec!["b", "12345"]);
        let s = t.render();
        assert!(s.contains("| alpha | 1     |"));
        assert!(s.contains("| b     | 12345 |"));
        assert!(s.starts_with("+"));
    }

    #[test]
    fn csv_escapes_commas() {
        let mut t = TextTable::new(vec!["a,b"]);
        t.row(vec!["x,y"]);
        let csv = t.to_csv();
        assert_eq!(csv, "a;b\nx;y\n");
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn row_arity_checked() {
        TextTable::new(vec!["a", "b"]).row(vec!["only-one"]);
    }

    #[test]
    fn bench_record_frames_rows_and_fields() {
        let rows = ["{\"a\": 1}".to_string(), "{\"a\": 2}".to_string()];
        let j = bench_record("b", &[("n", "8".into())], "points", &rows, &[]);
        assert_eq!(
            j,
            "{\n  \"bench\": \"b\",\n  \"n\": 8,\n  \"points\": [\n    {\"a\": 1},\n    {\"a\": 2}\n  ]\n}\n"
        );
        let j = bench_record("b", &[], "points", &rows[..1], &[("best", "0.5".into())]);
        assert!(j.ends_with("    {\"a\": 1}\n  ],\n  \"best\": 0.5\n}\n"));
    }

    #[test]
    fn formatters() {
        assert_eq!(ms(1519.386), "1519.4");
        assert_eq!(ms(8.9), "8.900");
        assert_eq!(ms(0.038), "0.038000");
        assert_eq!(x(2.3), "2.300");
        assert_eq!(pct(0.183), "18.30%");
    }
}
