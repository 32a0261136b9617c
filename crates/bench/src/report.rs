//! Table formatting for the figure binaries.
//!
//! Every figure prints an aligned text table with a `paper` column holding
//! the reference value from the publication (where the text reports one),
//! so a run is directly comparable — EXPERIMENTS.md archives the output.

/// An aligned text table.
#[derive(Clone, Debug)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    #[must_use]
    pub fn new(title: &str, headers: &[&str]) -> Self {
        Self {
            title: title.to_string(),
            headers: headers.iter().map(|s| (*s).to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (padded/truncated to the header count).
    pub fn row(&mut self, cells: &[String]) {
        let mut row: Vec<String> = cells.to_vec();
        row.resize(self.headers.len(), String::new());
        self.rows.push(row);
    }

    /// Renders to a string with aligned columns.
    #[must_use]
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for c in 0..cols {
                widths[c] = widths[c].max(row[c].len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "\n== {} ==", self.title);
        let line = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:<w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let _ = writeln!(out, "{}", line(&self.headers, &widths));
        let _ = writeln!(
            out,
            "{}",
            "-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1))
        );
        for row in &self.rows {
            let _ = writeln!(out, "{}", line(row, &widths));
        }
        out
    }

    /// Prints to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Formats a rate as a percentage with adaptive precision ("1.73%",
/// "0.036%", "3.5e-6").
#[must_use]
pub fn pct(x: f64) -> String {
    if x == 0.0 {
        "0".into()
    } else if x >= 0.0001 {
        format!("{:.4}%", x * 100.0)
    } else {
        format!("{x:.2e}")
    }
}

/// Formats a nanosecond figure.
#[must_use]
pub fn ns(x: f64) -> String {
    if x >= 10_000.0 {
        format!("{:.0}ns", x)
    } else {
        format!("{x:.1}ns")
    }
}

/// Formats a byte count (powers of 1024).
#[must_use]
pub fn bytes(n: usize) -> String {
    habf_util::stats::human_bytes(n)
}

/// Where a bench artifact was measured: the commit (with `-dirty` when
/// tracked files differ from it), `nproc` and the rustc version, so
/// figures from different code or machines are never read as one.
#[must_use]
pub(crate) fn provenance() -> [(&'static str, String); 3] {
    fn command_line(cmd: &str, args: &[&str]) -> Option<String> {
        let out = std::process::Command::new(cmd).args(args).output().ok()?;
        out.status
            .success()
            .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
    }
    let commit = command_line("git", &["rev-parse", "HEAD"]).map_or_else(
        || "unknown".to_string(),
        |sha| {
            let dirty = command_line("git", &["status", "--porcelain", "--untracked-files=no"])
                .is_some_and(|s| !s.is_empty());
            if dirty {
                format!("{sha}-dirty")
            } else {
                sha
            }
        },
    );
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let rustc = command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into());
    [
        ("commit", commit),
        ("nproc", nproc.to_string()),
        ("rustc", rustc),
    ]
}

/// [`provenance`] as JSON members, each followed by a comma, for a
/// summary writer to splice in after its `"suite"` member.
pub(crate) fn provenance_json() -> String {
    provenance()
        .iter()
        .map(|(key, value)| format!("\"{key}\":\"{value}\","))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("demo", &["name", "value"]);
        t.row(&["alpha".into(), "1".into()]);
        t.row(&["b".into(), "12345".into()]);
        let s = t.render();
        assert!(s.contains("== demo =="));
        assert!(s.contains("alpha"));
        // All data lines have the same alignment width for column 1.
        let lines: Vec<&str> = s.lines().filter(|l| l.contains("  ")).collect();
        assert!(lines.len() >= 3);
    }

    #[test]
    fn row_padding() {
        let mut t = Table::new("p", &["a", "b", "c"]);
        t.row(&["x".into()]);
        assert!(t.render().contains('x'));
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.0173), "1.7300%");
        assert_eq!(pct(0.0), "0");
        assert!(pct(3.5e-6).contains("e-"));
    }

    #[test]
    fn ns_formats() {
        assert_eq!(ns(68.0), "68.0ns");
        assert_eq!(ns(36430.0), "36430ns");
    }
}
