//! Result tables: markdown to stdout, CSV + JSON to `results/`.

use serde::Serialize;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// A simple rectangular result table.
#[derive(Clone, Debug, Serialize)]
pub struct Table {
    /// Experiment identifier ("fig3", "fig8", …).
    pub name: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// Rows of formatted cells (numbers pre-formatted by the experiment;
    /// raw values go to the JSON sidecar via [`Table::raw`]).
    pub rows: Vec<Vec<String>>,
    /// Machine-readable row payloads, one JSON value per row.
    pub raw: Vec<serde_json::Value>,
}

impl Table {
    /// Start an empty table.
    pub fn new(name: &str, columns: &[&str]) -> Self {
        Table {
            name: name.to_string(),
            columns: columns.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            raw: Vec::new(),
        }
    }

    /// Append a row; `raw` is the machine-readable twin of the formatted
    /// cells.
    ///
    /// # Panics
    /// Panics if the cell count does not match the header.
    pub fn push<T: Serialize>(&mut self, cells: Vec<String>, raw: &T) {
        assert_eq!(cells.len(), self.columns.len(), "row width mismatch");
        self.rows.push(cells);
        self.raw
            .push(serde_json::to_value(raw).expect("row serialization"));
    }

    /// Render as a GitHub-flavored markdown table.
    pub fn to_markdown(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "| {} |", self.columns.join(" | "));
        let _ = writeln!(
            s,
            "|{}|",
            self.columns
                .iter()
                .map(|_| "---")
                .collect::<Vec<_>>()
                .join("|")
        );
        for row in &self.rows {
            let _ = writeln!(s, "| {} |", row.join(" | "));
        }
        s
    }

    /// Render as CSV.
    pub fn to_csv(&self) -> String {
        let esc = |cell: &str| {
            if cell.contains([',', '"', '\n']) {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_string()
            }
        };
        let mut s = String::new();
        let _ = writeln!(
            s,
            "{}",
            self.columns
                .iter()
                .map(|c| esc(c))
                .collect::<Vec<_>>()
                .join(",")
        );
        for row in &self.rows {
            let _ = writeln!(
                s,
                "{}",
                row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(",")
            );
        }
        s
    }

    /// Write `results/<name>.csv` and `results/<name>.json`, and return
    /// the CSV path. The JSON sidecar carries the raw row values plus the
    /// run manifest so EXPERIMENTS.md entries are regenerable.
    pub fn save(&self, results_dir: &Path) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(results_dir)?;
        let csv_path = results_dir.join(format!("{}.csv", self.name));
        std::fs::write(&csv_path, self.to_csv())?;
        let json_path = results_dir.join(format!("{}.json", self.name));
        let doc = serde_json::json!({
            "experiment": self.name,
            "columns": self.columns,
            "rows": self.raw,
        });
        std::fs::write(&json_path, serde_json::to_string_pretty(&doc).unwrap())?;
        Ok(csv_path)
    }

    /// Print the markdown rendering, save the table and print where it
    /// went. A failed save is returned, so a run that saved nothing fails.
    pub fn emit(&self, results_dir: &Path) -> std::io::Result<()> {
        println!("\n## {}\n", self.name);
        print!("{}", self.to_markdown());
        let p = self.save(results_dir)?;
        println!("\nsaved: {} (+ .json)", p.display());
        Ok(())
    }
}

/// The default results directory: `$GR_RESULTS_DIR` or `./results`.
pub fn results_dir() -> PathBuf {
    std::env::var_os("GR_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("results"))
}

/// Format an error value the way the paper's log-scale figures read
/// (`3.2e-15`), with NaN/∞ made explicit.
pub fn fmt_err(e: f64) -> String {
    if e.is_nan() {
        "NaN".into()
    } else if e.is_infinite() {
        "inf".into()
    } else {
        format!("{e:.2e}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Serialize)]
    struct Row {
        n: usize,
        err: f64,
    }

    fn sample() -> Table {
        let mut t = Table::new("test_table", &["n", "err"]);
        t.push(vec!["8".into(), fmt_err(1e-15)], &Row { n: 8, err: 1e-15 });
        t.push(
            vec!["64".into(), fmt_err(2e-13)],
            &Row { n: 64, err: 2e-13 },
        );
        t
    }

    #[test]
    fn markdown_shape() {
        let md = sample().to_markdown();
        assert!(md.starts_with("| n | err |"));
        assert!(md.contains("| 8 | 1.00e-15 |"));
        assert_eq!(md.lines().count(), 4);
    }

    #[test]
    fn csv_roundtrip_and_escaping() {
        let mut t = Table::new("x", &["a", "b"]);
        t.push(vec!["1,2".into(), "q\"q".into()], &serde_json::json!({}));
        let csv = t.to_csv();
        assert!(csv.contains("\"1,2\""));
        assert!(csv.contains("\"q\"\"q\""));
    }

    #[test]
    fn save_writes_both_files() {
        let dir = std::env::temp_dir().join(format!("gr_test_{}", std::process::id()));
        let p = sample().save(&dir).unwrap();
        assert!(p.exists());
        assert!(dir.join("test_table.json").exists());
        let json: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(dir.join("test_table.json")).unwrap())
                .unwrap();
        assert_eq!(json["rows"][1]["n"], 64);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn emit_into_a_file_fails() {
        let file = std::env::temp_dir().join(format!("gr_test_file_{}", std::process::id()));
        std::fs::write(&file, "not a directory").unwrap();
        let r = sample().emit(&file.join("results"));
        std::fs::remove_file(&file).ok();
        assert!(r.is_err(), "saving under a regular file must fail");
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn width_checked() {
        let mut t = Table::new("x", &["a", "b"]);
        t.push(vec!["1".into()], &serde_json::json!({}));
    }

    #[test]
    fn err_formatting() {
        assert_eq!(fmt_err(f64::NAN), "NaN");
        assert_eq!(fmt_err(f64::INFINITY), "inf");
        assert_eq!(fmt_err(3.21e-15), "3.21e-15");
    }
}
