//! Result tables: markdown to stdout, CSV + JSON to `results/`.
//!
//! A table declares each column once, as a `(header, JSON key)` pair, and
//! takes each row once, as typed [`Cell`]s. The markdown/CSV text and the
//! JSON value of a cell both come from that one cell, so the two files
//! cannot disagree.

use serde_json::Value;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// One typed table cell: how it prints in markdown/CSV and what it
/// stores in the JSON row.
#[derive(Clone, Debug, PartialEq)]
pub enum Cell {
    /// An error magnitude, printed the way the paper's log-scale figures
    /// read (`3.21e-15`, or `NaN`/`inf`). Non-finite values are `null` in
    /// JSON.
    Err(f64),
    /// A count or size.
    Int(u64),
    /// A yes/no outcome.
    Bool(bool),
    /// A label.
    Text(String),
    /// A float printed in full (`0.005`).
    Float(f64),
    /// A float printed with this many decimals; the JSON keeps it in full.
    Fixed(f64, usize),
}

impl Cell {
    /// The markdown/CSV rendering.
    fn text(&self) -> String {
        match self {
            Cell::Err(e) if e.is_nan() => "NaN".into(),
            Cell::Err(e) if e.is_infinite() => "inf".into(),
            Cell::Err(e) => format!("{e:.2e}"),
            Cell::Int(i) => i.to_string(),
            Cell::Bool(b) => b.to_string(),
            Cell::Text(s) => s.clone(),
            Cell::Float(x) => x.to_string(),
            Cell::Fixed(x, decimals) => format!("{x:.decimals$}"),
        }
    }

    /// The JSON value.
    fn json(&self) -> Value {
        match self {
            Cell::Err(x) | Cell::Float(x) | Cell::Fixed(x, _) => Value::Float(*x),
            Cell::Int(i) => Value::UInt(*i),
            Cell::Bool(b) => Value::Bool(*b),
            Cell::Text(s) => Value::String(s.clone()),
        }
    }
}

/// A rectangular result table.
#[derive(Clone, Debug)]
pub struct Table {
    /// Experiment identifier ("fig3_pf_accuracy", "fig8_dmgs_qr", …).
    pub name: String,
    /// `(header, JSON key)` per column; an empty header marks a column
    /// kept in the JSON rows only.
    columns: Vec<(&'static str, &'static str)>,
    /// One cell per column in every row.
    rows: Vec<Vec<Cell>>,
}

impl Table {
    /// A table with these `(header, JSON key)` columns and rows. A column
    /// whose header is `""` is written to the JSON rows only.
    ///
    /// # Panics
    /// Panics if a row's cell count does not match the columns.
    pub fn new(name: &str, columns: &[(&'static str, &'static str)], rows: Vec<Vec<Cell>>) -> Self {
        for row in &rows {
            assert_eq!(row.len(), columns.len(), "row width mismatch");
        }
        Table {
            name: name.to_string(),
            columns: columns.to_vec(),
            rows,
        }
    }

    /// The headers of the shown (not JSON-only) columns.
    fn headers(&self) -> Vec<&'static str> {
        self.columns
            .iter()
            .map(|c| c.0)
            .filter(|h| !h.is_empty())
            .collect()
    }

    /// Each row's text, shown columns only.
    fn text_rows(&self) -> impl Iterator<Item = Vec<String>> + '_ {
        self.rows.iter().map(|row| {
            let cells = self.columns.iter().zip(row);
            cells
                .filter(|(c, _)| !c.0.is_empty())
                .map(|(_, cell)| cell.text())
                .collect()
        })
    }

    /// One JSON object per row, keyed by the columns' JSON keys in
    /// column order.
    pub(crate) fn json_rows(&self) -> Vec<Value> {
        self.rows
            .iter()
            .map(|row| {
                let pairs = self.columns.iter().zip(row);
                Value::Object(
                    pairs
                        .map(|(c, cell)| (c.1.to_string(), cell.json()))
                        .collect(),
                )
            })
            .collect()
    }

    /// Render as a GitHub-flavored markdown table.
    pub fn to_markdown(&self) -> String {
        let headers = self.headers();
        let mut s = String::new();
        let _ = writeln!(s, "| {} |", headers.join(" | "));
        let _ = writeln!(s, "|{}|", vec!["---"; headers.len()].join("|"));
        for row in self.text_rows() {
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
        let headers: Vec<String> = self.headers().into_iter().map(esc).collect();
        let mut s = String::new();
        let _ = writeln!(s, "{}", headers.join(","));
        for row in self.text_rows() {
            let cells: Vec<String> = row.iter().map(|c| esc(c)).collect();
            let _ = writeln!(s, "{}", cells.join(","));
        }
        s
    }

    /// Write `results/<name>.csv` and `results/<name>.json`, and return
    /// the CSV path. The JSON file carries the shown headers and every
    /// row, JSON-only columns included.
    pub fn save(&self, results_dir: &Path) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(results_dir)?;
        let csv_path = results_dir.join(format!("{}.csv", self.name));
        std::fs::write(&csv_path, self.to_csv())?;
        let json_path = results_dir.join(format!("{}.json", self.name));
        let doc = serde_json::json!({
            "experiment": self.name,
            "columns": self.headers(),
            "rows": self.json_rows(),
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

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let rows = vec![
            vec![Cell::Int(8), Cell::Err(1e-15), Cell::Bool(true)],
            vec![Cell::Int(64), Cell::Err(2e-13), Cell::Bool(false)],
        ];
        Table::new(
            "test_table",
            &[("n", "n"), ("err", "err"), ("", "hidden")],
            rows,
        )
    }

    #[test]
    fn markdown_shape() {
        let md = sample().to_markdown();
        assert!(md.starts_with("| n | err |\n|---|---|\n"));
        assert!(md.contains("| 8 | 1.00e-15 |"));
        assert_eq!(md.lines().count(), 4);
    }

    #[test]
    fn csv_roundtrip_and_escaping() {
        let row = vec![Cell::Text("1,2".into()), Cell::Text("q\"q".into())];
        let csv = Table::new("x", &[("a", "a"), ("b", "b")], vec![row]).to_csv();
        assert!(csv.contains("\"1,2\""));
        assert!(csv.contains("\"q\"\"q\""));
    }

    #[test]
    fn save_writes_both_files() {
        let dir = std::env::temp_dir().join(format!("gr_test_{}", std::process::id()));
        let p = sample().save(&dir).unwrap();
        assert_eq!(
            std::fs::read_to_string(&p).unwrap(),
            "n,err\n8,1.00e-15\n64,2.00e-13\n"
        );
        let json: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(dir.join("test_table.json")).unwrap())
                .unwrap();
        assert_eq!(json["columns"], serde_json::json!(["n", "err"]));
        assert_eq!(json["rows"][1]["n"], 64);
        assert_eq!(json["rows"][1]["err"], 2e-13);
        assert_eq!(json["rows"][1]["hidden"], false);
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
        Table::new("x", &[("a", "a"), ("b", "b")], vec![vec![Cell::Int(1)]]);
    }

    #[test]
    fn cell_text_and_json() {
        let cases = [
            (Cell::Err(f64::NAN), "NaN", Value::Null),
            (Cell::Err(f64::INFINITY), "inf", Value::Null),
            (Cell::Err(3.21e-15), "3.21e-15", Value::Float(3.21e-15)),
            (Cell::Float(0.005), "0.005", Value::Float(0.005)),
            (Cell::Float(0.0), "0", Value::Float(0.0)),
            (Cell::Fixed(16.5333, 3), "16.533", Value::Float(16.5333)),
            (Cell::Fixed(21766.4, 0), "21766", Value::Float(21766.4)),
            (Cell::Int(48_000), "48000", Value::UInt(48_000)),
            (Cell::Bool(true), "true", Value::Bool(true)),
            (Cell::Text("PCF".into()), "PCF", Value::String("PCF".into())),
        ];
        for (cell, text, json) in cases {
            assert_eq!(cell.text(), text, "{cell:?}");
            let rendered = serde_json::to_string(&cell.json()).unwrap();
            assert_eq!(rendered, serde_json::to_string(&json).unwrap(), "{cell:?}");
        }
    }
}
