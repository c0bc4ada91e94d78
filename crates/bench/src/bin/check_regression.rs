//! Perf-regression gate: regenerate the headline benchmark records and
//! diff them against the committed baselines in `bench-results/`.
//!
//! Usage: `cargo run --release -p lmerge-bench --bin check_regression`
//!
//! The checked figures (fig2, net_loopback, obs_overhead,
//! checkpoint_overhead and sub_scaling) are regenerated
//! **in-process at default scale** — the same scale the committed
//! baselines were produced at — so the comparison is apples-to-apples
//! even when the surrounding CI job runs other benches in quick mode.
//!
//! What is compared, per labelled configuration:
//!
//! * `peak_memory_bytes` and `chattiness_adjusts` — deterministic
//!   fields, allowed ±20% drift (tightening the tolerance is cheap once
//!   a few CI runs establish the committed numbers are reproducible);
//! * `throughput_eps` — only under `LMERGE_CHECK_THROUGHPUT=1`, because
//!   wall-clock throughput on shared CI runners is noisy;
//! * the telemetry-overhead bar — the committed `BENCH_obs_overhead.json`
//!   must show instrumented throughput at least 0.95x the uninstrumented
//!   drive (checked on the committed file, which is timing-free at check
//!   time);
//! * the checkpoint-overhead bar — the committed
//!   `BENCH_checkpoint_overhead.json` must show checkpointed throughput
//!   at least 0.90x the bare drive (same committed-file discipline);
//! * the subscriber fan-out bar — the committed `BENCH_sub_scaling.json`
//!   must show per-CPU delivery throughput at N=256 of at least
//!   `eps(N=16) / 1.15`: amortized per-subscriber CPU stays within 15%
//!   when the fan-out widens 16x (same committed-file discipline).
//!
//! Exit status is non-zero on any violation, so the bench-smoke CI job
//! fails loudly instead of letting perf rot ride along.

use lmerge_bench::report::{MetricsRecord, Report};
use lmerge_obs::json::{self, Json};
use std::path::PathBuf;

const TOLERANCE: f64 = 0.20;

fn baseline_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../bench-results")
}

/// Parse a committed `BENCH_<id>.json` into labelled records.
fn load_baseline(id: &str) -> Result<Vec<(String, MetricsRecord)>, String> {
    let path = baseline_dir().join(format!("BENCH_{id}.json"));
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let metrics = doc
        .get("metrics")
        .and_then(Json::as_array)
        .ok_or_else(|| format!("{}: no metrics array", path.display()))?;
    let mut out = Vec::new();
    for m in metrics {
        let label = m
            .get("label")
            .and_then(Json::as_str)
            .ok_or("metric without label")?
            .to_string();
        let num = |k: &str| m.get(k).and_then(Json::as_f64).unwrap_or(0.0);
        out.push((
            label,
            MetricsRecord {
                throughput_eps: num("throughput_eps"),
                p50_latency_us: num("p50_latency_us") as u64,
                p99_latency_us: num("p99_latency_us") as u64,
                peak_memory_bytes: num("peak_memory_bytes") as u64,
                chattiness_adjusts: num("chattiness_adjusts") as u64,
            },
        ));
    }
    Ok(out)
}

/// `fresh` vs `base` within the tolerance band (both-zero passes).
fn within(base: f64, fresh: f64, tol: f64) -> bool {
    if base == 0.0 {
        return fresh == 0.0;
    }
    ((fresh - base) / base).abs() <= tol
}

struct Gate {
    violations: Vec<String>,
    checked: usize,
}

impl Gate {
    fn check(&mut self, id: &str, label: &str, field: &str, base: f64, fresh: f64, tol: f64) {
        self.checked += 1;
        if !within(base, fresh, tol) {
            self.violations.push(format!(
                "{id} / {label} / {field}: baseline {base:.1}, fresh {fresh:.1} \
                 ({:+.1}% > ±{:.0}%)",
                (fresh - base) / base * 100.0,
                tol * 100.0
            ));
        }
    }

    fn diff(&mut self, id: &str, fresh: &Report) -> Result<(), String> {
        let base = load_baseline(id)?;
        let check_throughput = std::env::var("LMERGE_CHECK_THROUGHPUT").as_deref() == Ok("1");
        for (label, b) in &base {
            let Some((_, f)) = fresh.metrics.iter().find(|(l, _)| l == label) else {
                self.violations.push(format!(
                    "{id}: baseline label {label} missing from fresh run"
                ));
                continue;
            };
            self.check(
                id,
                label,
                "peak_memory_bytes",
                b.peak_memory_bytes as f64,
                f.peak_memory_bytes as f64,
                TOLERANCE,
            );
            self.check(
                id,
                label,
                "chattiness_adjusts",
                b.chattiness_adjusts as f64,
                f.chattiness_adjusts as f64,
                TOLERANCE,
            );
            if check_throughput {
                self.check(
                    id,
                    label,
                    "throughput_eps",
                    b.throughput_eps,
                    f.throughput_eps,
                    TOLERANCE,
                );
            }
        }
        Ok(())
    }
}

/// The committed telemetry-overhead record must clear the acceptance bar:
/// instrumented throughput at least 0.95x the uninstrumented drive.
fn check_overhead_bar(gate: &mut Gate) -> Result<(), String> {
    let base = load_baseline("obs_overhead")?;
    let eps = |label: &str| {
        base.iter()
            .find(|(l, _)| l == label)
            .map(|(_, m)| m.throughput_eps)
            .ok_or_else(|| format!("BENCH_obs_overhead.json: no {label} record"))
    };
    let bare = eps("uninstrumented")?;
    let live = eps("instrumented")?;
    gate.checked += 1;
    let ratio = if bare > 0.0 { live / bare } else { 0.0 };
    if ratio < 0.95 {
        gate.violations.push(format!(
            "obs_overhead: committed instrumented/uninstrumented ratio {ratio:.3} \
             below the 0.95 bar"
        ));
    } else {
        println!("obs_overhead: committed telemetry ratio {ratio:.3} (bar: 0.95)");
    }
    Ok(())
}

/// The committed checkpoint-overhead record must clear the acceptance
/// bar: checkpointed throughput at least 0.90x the bare drive.
fn check_checkpoint_bar(gate: &mut Gate) -> Result<(), String> {
    let base = load_baseline("checkpoint_overhead")?;
    let eps = |label: &str| {
        base.iter()
            .find(|(l, _)| l == label)
            .map(|(_, m)| m.throughput_eps)
            .ok_or_else(|| format!("BENCH_checkpoint_overhead.json: no {label} record"))
    };
    let bare = eps("bare")?;
    let ck = eps("checkpointed")?;
    gate.checked += 1;
    let ratio = if bare > 0.0 { ck / bare } else { 0.0 };
    if ratio < 0.90 {
        gate.violations.push(format!(
            "checkpoint_overhead: committed checkpointed/bare ratio {ratio:.3} \
             below the 0.90 bar"
        ));
    } else {
        println!("checkpoint_overhead: committed durability ratio {ratio:.3} (bar: 0.90)");
    }
    Ok(())
}

/// The committed subscriber fan-out record must clear the acceptance
/// bar: per-CPU delivery throughput at N=256 subscribers at least
/// `1/1.15` of the N=16 point — i.e. amortized per-subscriber CPU grows
/// at most 15% across a 16x fan-out widening.
fn check_sub_scaling_bar(gate: &mut Gate) -> Result<(), String> {
    let base = load_baseline("sub_scaling")?;
    let eps = |label: &str| {
        base.iter()
            .find(|(l, _)| l == label)
            .map(|(_, m)| m.throughput_eps)
            .ok_or_else(|| format!("BENCH_sub_scaling.json: no {label} record"))
    };
    let n16 = eps("sub@N16")?;
    let n256 = eps("sub@N256")?;
    gate.checked += 1;
    let ratio = if n16 > 0.0 { n256 / n16 } else { 0.0 };
    if ratio < 1.0 / 1.15 {
        gate.violations.push(format!(
            "sub_scaling: committed N256/N16 per-CPU delivery ratio {ratio:.3} \
             below the 1/1.15 bar (per-subscriber CPU grew more than 15%)"
        ));
    } else {
        println!(
            "sub_scaling: committed N256/N16 delivery ratio {ratio:.3} (bar: {:.3})",
            1.0 / 1.15
        );
    }
    Ok(())
}

fn main() {
    println!("regenerating checked figures at default scale...");
    let fig2 = lmerge_bench::figs::fig2::report();
    let net = lmerge_bench::figs::net_loopback::report();
    let obs = lmerge_bench::figs::obs_overhead::report();
    let ck = lmerge_bench::figs::checkpoint_overhead::report();
    let sub = lmerge_bench::figs::sub_scaling::report();

    let mut gate = Gate {
        violations: Vec::new(),
        checked: 0,
    };
    let mut errors = Vec::new();
    for (id, fresh) in [
        ("fig2", &fig2),
        ("net_loopback", &net),
        ("obs_overhead", &obs),
        ("checkpoint_overhead", &ck),
        ("sub_scaling", &sub),
    ] {
        if let Err(e) = gate.diff(id, fresh) {
            errors.push(e);
        }
    }
    if let Err(e) = check_overhead_bar(&mut gate) {
        errors.push(e);
    }
    if let Err(e) = check_checkpoint_bar(&mut gate) {
        errors.push(e);
    }
    if let Err(e) = check_sub_scaling_bar(&mut gate) {
        errors.push(e);
    }

    for e in &errors {
        eprintln!("error: {e}");
    }
    for v in &gate.violations {
        eprintln!("REGRESSION: {v}");
    }
    if errors.is_empty() && gate.violations.is_empty() {
        println!(
            "ok: {} comparisons within ±{:.0}% of the committed baselines",
            gate.checked,
            TOLERANCE * 100.0
        );
    } else {
        eprintln!(
            "{} violation(s), {} error(s) across {} comparisons",
            gate.violations.len(),
            errors.len(),
            gate.checked
        );
        std::process::exit(1);
    }
}
