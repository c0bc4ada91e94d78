//! Aligned-table reporting plus JSON persistence for the figure harness.
//!
//! Each figure emits two artefacts under `target/bench-results/`:
//!
//! * `<id>.json` — the full table (columns, rows, notes), for archival;
//! * `BENCH_<id>.json` — a compact machine-readable metrics record per
//!   measured configuration: throughput, p50/p99 latency (from the
//!   log-bucketed histogram), peak memory, and chattiness.
//!
//! A report also names its deterministic cells — those that are pure
//! functions of (code, seed) — and renders them as lines of the figure
//! golden ([`Report::golden`]); the `all` runner writes every report's
//! lines to `figures.txt`.

use lmerge_engine::RunMetrics;
use lmerge_obs::json::Json;
use std::fmt::{Display, Write as _};
use std::path::PathBuf;

/// The headline numbers of one measured configuration.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct MetricsRecord {
    /// Throughput in events per second (virtual or wall-clock, per figure).
    pub throughput_eps: f64,
    /// Median output latency in µs (0 when the figure measures none).
    pub p50_latency_us: u64,
    /// 99th-percentile output latency in µs.
    pub p99_latency_us: u64,
    /// Peak operator memory estimate in bytes.
    pub peak_memory_bytes: u64,
    /// Adjust elements emitted — the paper's chattiness measure.
    pub chattiness_adjusts: u64,
}

impl MetricsRecord {
    /// Extract the record from a virtual-time executor run.
    pub fn from_run(m: &RunMetrics) -> MetricsRecord {
        MetricsRecord {
            throughput_eps: m.throughput_eps(),
            p50_latency_us: m.latency_quantile_us(0.50),
            p99_latency_us: m.latency_quantile_us(0.99),
            peak_memory_bytes: m.peak_memory as u64,
            chattiness_adjusts: m.merge.adjusts_out,
        }
    }

    /// Extract the record from a wall-clock harness run. Wall-clock drives
    /// measure operator cost, not per-element emission latency, so the
    /// latency quantiles are 0.
    pub fn from_wallclock(r: &crate::harness::WallClockRun) -> MetricsRecord {
        MetricsRecord {
            throughput_eps: r.throughput_eps(),
            p50_latency_us: 0,
            p99_latency_us: 0,
            peak_memory_bytes: r.peak_memory as u64,
            chattiness_adjusts: r.stats.adjusts_out,
        }
    }

    fn to_json(self) -> Json {
        Json::object()
            .with("throughput_eps", self.throughput_eps)
            .with("p50_latency_us", self.p50_latency_us)
            .with("p99_latency_us", self.p99_latency_us)
            .with("peak_memory_bytes", self.peak_memory_bytes)
            .with("chattiness_adjusts", self.chattiness_adjusts)
    }
}

/// A simple column-aligned report: one per figure.
#[derive(Debug)]
pub struct Report {
    /// Experiment id, e.g. `"fig2"`.
    pub id: String,
    /// One-line description of what the figure shows.
    pub title: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// Rows of cells (already formatted).
    pub rows: Vec<Vec<String>>,
    /// Free-form observations appended after the table.
    pub notes: Vec<String>,
    /// Labelled metrics records serialized to `BENCH_<id>.json`.
    pub metrics: Vec<(String, MetricsRecord)>,
    /// Per column: whether its cells are pure functions of (code, seed).
    pub pinned: Vec<bool>,
    /// Deterministic values a cell rounds or the table does not show, as
    /// `(row, column, value)`.
    pub exact: Vec<(String, String, String)>,
}

impl Report {
    /// Start a report.
    pub fn new(id: &str, title: &str, columns: &[&str]) -> Report {
        Report {
            id: id.to_string(),
            title: title.to_string(),
            columns: columns.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
            metrics: Vec::new(),
            pinned: vec![false; columns.len()],
            exact: Vec::new(),
        }
    }

    /// Name the columns whose cells are pure functions of (code, seed):
    /// every row's cell in them enters the golden.
    pub fn pin_columns(mut self, columns: &[&str]) -> Report {
        for name in columns {
            let i = self
                .columns
                .iter()
                .position(|c| c == name)
                .unwrap_or_else(|| panic!("{}: no column {name}", self.id));
            self.pinned[i] = true;
        }
        self
    }

    /// Pin a deterministic value that a cell shows rounded, or that the
    /// table does not show.
    pub fn pin(&mut self, row: impl Display, column: &str, value: impl Display) {
        self.exact
            .push((row.to_string(), column.to_string(), value.to_string()));
    }

    /// Append a row (must match the column count).
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.columns.len(), "row/column mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Append a note shown below the table.
    pub fn note(&mut self, text: impl Into<String>) {
        self.notes.push(text.into());
    }

    /// Record the headline metrics of one measured configuration.
    pub fn metric(&mut self, label: impl Into<String>, record: MetricsRecord) {
        self.metrics.push((label.into(), record));
    }

    /// Render as an aligned text table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut s = String::new();
        let _ = writeln!(s, "== {}: {} ==", self.id, self.title);
        let line = |cells: &[String], widths: &[usize]| {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let _ = writeln!(s, "{}", line(&self.columns, &widths));
        let _ = writeln!(
            s,
            "{}",
            "-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1))
        );
        for row in &self.rows {
            let _ = writeln!(s, "{}", line(row, &widths));
        }
        for n in &self.notes {
            let _ = writeln!(s, "note: {n}");
        }
        s
    }

    /// The full table as a JSON document.
    pub fn table_json(&self) -> Json {
        let strings =
            |v: &[String]| Json::Array(v.iter().map(|s| Json::from(s.as_str())).collect());
        Json::object()
            .with("id", self.id.as_str())
            .with("title", self.title.as_str())
            .with("columns", strings(&self.columns))
            .with(
                "rows",
                Json::Array(self.rows.iter().map(|r| strings(r)).collect()),
            )
            .with("notes", strings(&self.notes))
    }

    /// The metrics records as a JSON document (`BENCH_<id>.json` content).
    pub fn metrics_json(&self) -> Json {
        Json::object().with("id", self.id.as_str()).with(
            "metrics",
            Json::Array(
                self.metrics
                    .iter()
                    .map(|(label, m)| m.to_json().with("label", label.as_str()))
                    .collect(),
            ),
        )
    }

    /// The report's lines of the figure golden, one per deterministic
    /// value, each `<id> <row> <column> <value>`: the cells of the pinned
    /// columns (the row named by its first cell), the exact values, and
    /// every record's peak memory and chattiness. Wall-clock cells never
    /// enter it.
    pub fn golden(&self) -> String {
        let id = &self.id;
        let mut s = String::new();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                if self.pinned[i] {
                    let _ = writeln!(s, "{id} {} {} {cell}", row[0], self.columns[i]);
                }
            }
        }
        for (row, column, value) in &self.exact {
            let _ = writeln!(s, "{id} {row} {column} {value}");
        }
        for (label, m) in &self.metrics {
            let (bytes, adjusts) = (m.peak_memory_bytes, m.chattiness_adjusts);
            let _ = writeln!(s, "{id} {label} peak_memory_bytes {bytes}");
            let _ = writeln!(s, "{id} {label} chattiness_adjusts {adjusts}");
        }
        s
    }

    /// Print to stdout and persist JSON under [`results_dir`]: the table
    /// as `<id>.json` and, when metrics were recorded, the compact record
    /// as `BENCH_<id>.json`.
    pub fn emit(&self) {
        println!("{}", self.render());
        let dir = results_dir();
        if std::fs::create_dir_all(&dir).is_ok() {
            let _ = std::fs::write(
                dir.join(format!("{}.json", self.id)),
                self.table_json().render_pretty(),
            );
            if !self.metrics.is_empty() {
                let _ = std::fs::write(
                    dir.join(format!("BENCH_{}.json", self.id)),
                    self.metrics_json().render_pretty(),
                );
            }
        }
    }
}

/// `target/bench-results/` of the workspace (or of `CARGO_TARGET_DIR`).
/// Anchored on the target dir: `cargo bench` runs with the package dir as
/// cwd, `cargo run` with the caller's cwd — a relative path would scatter
/// artefacts between the two.
pub fn results_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target"))
        .join("bench-results")
}

/// Format a byte count humanely.
pub fn fmt_bytes(b: usize) -> String {
    if b >= 1 << 20 {
        format!("{:.1}MiB", b as f64 / (1 << 20) as f64)
    } else if b >= 1 << 10 {
        format!("{:.1}KiB", b as f64 / (1 << 10) as f64)
    } else {
        format!("{b}B")
    }
}

/// Format an events-per-second rate.
pub fn fmt_eps(eps: f64) -> String {
    if eps >= 1_000_000.0 {
        format!("{:.2}M/s", eps / 1_000_000.0)
    } else if eps >= 1_000.0 {
        format!("{:.1}K/s", eps / 1_000.0)
    } else {
        format!("{eps:.0}/s")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmerge_obs::json;

    #[test]
    fn render_alignment() {
        let mut r = Report::new("figX", "demo", &["a", "bbbb"]);
        r.row(&["1".into(), "2".into()]);
        r.row(&["333".into(), "4".into()]);
        r.note("hello");
        let s = r.render();
        assert!(s.contains("figX"));
        assert!(s.contains("note: hello"));
        assert!(s.lines().count() >= 5);
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn row_mismatch_panics() {
        let mut r = Report::new("x", "y", &["a"]);
        r.row(&["1".into(), "2".into()]);
    }

    #[test]
    fn formatters() {
        assert_eq!(fmt_bytes(512), "512B");
        assert_eq!(fmt_bytes(2048), "2.0KiB");
        assert_eq!(fmt_bytes(3 << 20), "3.0MiB");
        assert_eq!(fmt_eps(500.0), "500/s");
        assert_eq!(fmt_eps(1500.0), "1.5K/s");
        assert_eq!(fmt_eps(2_500_000.0), "2.50M/s");
    }

    #[test]
    fn table_json_roundtrips() {
        let mut r = Report::new("figX", "demo", &["a"]);
        r.row(&["1".into()]);
        r.note("n");
        let v = json::parse(&r.table_json().render_pretty()).expect("valid JSON");
        assert_eq!(v.get("id").and_then(Json::as_str), Some("figX"));
        assert_eq!(v.get("rows").and_then(Json::as_array).unwrap().len(), 1);
    }

    #[test]
    fn metrics_json_carries_the_headline_numbers() {
        let mut r = Report::new("fig9", "demo", &["a"]);
        r.metric(
            "LMR3+",
            MetricsRecord {
                throughput_eps: 1_000.5,
                p50_latency_us: 40,
                p99_latency_us: 900,
                peak_memory_bytes: 1 << 20,
                chattiness_adjusts: 7,
            },
        );
        let v = json::parse(&r.metrics_json().render_pretty()).expect("valid JSON");
        let m = &v.get("metrics").and_then(Json::as_array).unwrap()[0];
        assert_eq!(m.get("label").and_then(Json::as_str), Some("LMR3+"));
        assert_eq!(m.get("p99_latency_us"), Some(&Json::Int(900)));
        assert_eq!(m.get("peak_memory_bytes"), Some(&Json::Int(1 << 20)));
    }

    #[test]
    fn golden_holds_pinned_columns_exact_values_and_records() {
        let mut r = Report::new("figX", "demo", &["inputs", "mem", "eps"]).pin_columns(&["mem"]);
        r.row(&["2".into(), "1.0KiB".into(), "5.1M/s".into()]);
        r.pin("2", "mem bytes", 1034);
        r.metric(
            "LMR3+@2in",
            MetricsRecord {
                throughput_eps: 5.1e6,
                peak_memory_bytes: 1034,
                chattiness_adjusts: 7,
                ..Default::default()
            },
        );
        assert_eq!(
            r.golden(),
            "figX 2 mem 1.0KiB\n\
             figX 2 mem bytes 1034\n\
             figX LMR3+@2in peak_memory_bytes 1034\n\
             figX LMR3+@2in chattiness_adjusts 7\n"
        );
    }

    #[test]
    #[should_panic(expected = "no column")]
    fn pinning_an_unknown_column_panics() {
        let _ = Report::new("x", "y", &["a"]).pin_columns(&["b"]);
    }

    #[test]
    fn from_run_reads_the_histogram() {
        let mut run = RunMetrics::default();
        for v in 1..=100u64 {
            run.latency.record(v);
        }
        run.peak_memory = 4096;
        run.merge.adjusts_out = 3;
        let rec = MetricsRecord::from_run(&run);
        assert_eq!(rec.p50_latency_us, 50);
        // 99 sits in a 4-wide bucket: the histogram reports its lower bound.
        assert_eq!(rec.p99_latency_us, 96);
        assert_eq!(rec.peak_memory_bytes, 4096);
        assert_eq!(rec.chattiness_adjusts, 3);
    }
}
