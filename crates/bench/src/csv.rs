//! Minimal CSV writer used by the figure binaries (no external
//! serialization crates needed).

use std::fs::{self, File};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// Writes simple CSV files under a results directory and mirrors every
/// row to stdout so figure binaries are self-describing.
#[derive(Debug)]
pub struct CsvWriter {
    path: PathBuf,
    file: File,
}

impl CsvWriter {
    /// Create `<name>.csv` in [`results_dir`], writing the given header
    /// row.
    pub fn create(name: &str, header: &[&str]) -> io::Result<Self> {
        Self::create_in(&results_dir(), name, header)
    }

    /// Create `<dir>/<name>.csv`, writing the given header row. The
    /// explicit-directory form exists so tests can write to a temp dir
    /// without mutating `QPRAC_RESULTS_DIR` (process environment is
    /// shared across `cargo test` threads).
    pub fn create_in(dir: &Path, name: &str, header: &[&str]) -> io::Result<Self> {
        fs::create_dir_all(dir)?;
        let path = dir.join(format!("{name}.csv"));
        let mut file = File::create(&path)?;
        writeln!(file, "{}", header.join(","))?;
        Ok(CsvWriter { path, file })
    }

    /// Append one row (values are `Display`-formatted by the caller).
    pub fn row(&mut self, values: &[String]) -> io::Result<()> {
        writeln!(self.file, "{}", values.join(","))
    }

    /// The file path being written.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// The directory every figure CSV and `metrics_cluster.txt` is written
/// to: `QPRAC_RESULTS_DIR`, or `results` (relative to the working
/// directory) when it is unset, empty or `0` — the convention of every
/// other `QPRAC_*` knob ([`sim::env_opt`]).
pub fn results_dir() -> PathBuf {
    results_dir_value(std::env::var("QPRAC_RESULTS_DIR").ok())
}

/// The value half of [`results_dir`], unit-testable without mutating
/// process environment.
fn results_dir_value(value: Option<String>) -> PathBuf {
    PathBuf::from(
        value
            .and_then(sim::config::opt_value)
            .unwrap_or_else(|| "results".into()),
    )
}

/// Format a float with fixed precision for CSV/console output.
pub fn f(v: f64) -> String {
    format!("{v:.4}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_header_and_rows() {
        // `create_in` keeps the test off `QPRAC_RESULTS_DIR`: mutating
        // process env here raced against any concurrently running test
        // (or figure-binary smoke child) reading it.
        let dir = std::env::temp_dir().join(format!("qprac-csv-test-{}", std::process::id()));
        let mut w = CsvWriter::create_in(&dir, "unit", &["a", "b"]).unwrap();
        w.row(&["1".into(), "2".into()]).unwrap();
        assert_eq!(w.path(), dir.join("unit.csv"));
        drop(w);
        let text = std::fs::read_to_string(dir.join("unit.csv")).unwrap();
        assert_eq!(text, "a,b\n1,2\n");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_or_zero_results_dir_means_the_default() {
        assert_eq!(results_dir_value(None), PathBuf::from("results"));
        assert_eq!(
            results_dir_value(Some(String::new())),
            PathBuf::from("results")
        );
        assert_eq!(
            results_dir_value(Some("0".into())),
            PathBuf::from("results")
        );
        assert_eq!(
            results_dir_value(Some("out/r".into())),
            PathBuf::from("out/r")
        );
    }

    #[test]
    fn float_formatting_is_stable() {
        assert_eq!(f(0.123456), "0.1235");
        assert_eq!(f(1.0), "1.0000");
    }
}
