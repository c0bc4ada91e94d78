//! Checkpoint overhead: throughput of the LMR3+ hot path with and without
//! periodic durable checkpointing.
//!
//! Not a paper figure — it prices the durability layer. The checkpointed
//! drive does real persistence: every [`CK_EVERY`] elements it exports
//! the full merge state, wraps it in a [`RunImage`], and saves it through
//! a [`CheckpointStore`] — so the measured cost includes state export,
//! snapshot/delta encoding, checksumming, and the atomic file write.
//!
//! The workload is the steady-state pipeline shape: ordered streams with
//! short-lived events and frequent punctuation, so the live window (and
//! with it every snapshot) stays bounded the way a healthy production
//! merge's does. Checkpoint cost is proportional to live state — fig2's
//! deliberately huge 30-second live window measures memory, not overhead.
//! The acceptance bar — checkpointed throughput at least 0.90x the bare
//! drive — is checked on the committed `BENCH_checkpoint_overhead.json`
//! by `tests/committed_bars.rs`, so the check itself is timing-free.

use crate::report::{fmt_eps, MetricsRecord};
use crate::{scale_events, Report};
use lmerge_core::{LMergeR3, LogicalMerge};
use lmerge_durable::CheckpointStore;
use lmerge_engine::{EgressImage, ExecutorImage, RunImage};
use lmerge_gen::{assign_times, generate, GenConfig};
use lmerge_temporal::{Element, StreamId, Time, VTime, Value};
use std::path::PathBuf;
use std::time::Instant;

/// Inputs feeding the measured operator (fig2's middle point).
pub const INPUTS: usize = 4;

/// Elements between checkpoints in the durable drive — a few cuts per
/// second at hot-path rates, which is already far more aggressive than a
/// production seconds-scale cadence. At the default 60k-events scale this
/// lands 6 cuts per trial: snapshot, a full delta chain, and the forced
/// mid-run re-snapshot — every branch of the store's cadence.
const CK_EVERY: u64 = 40_960;

/// Sweep result.
pub struct CheckpointOverhead {
    /// Elements in the global feed.
    pub elements: u64,
    /// Best-of-trials throughput of the bare drive.
    pub bare_eps: f64,
    /// Best-of-trials throughput with periodic durable checkpoints.
    pub checkpointed_eps: f64,
    /// `checkpointed / bare` — 1.0 means free.
    pub ratio: f64,
    /// Checkpoints written per trial (snapshots + deltas).
    pub cuts: u64,
    /// Headline record per drive, for `BENCH_checkpoint_overhead.json`.
    pub metrics: Vec<(String, MetricsRecord)>,
}

/// The steady-state workload: ordered, insert-only, short event lifetimes
/// and frequent stables, so the live window stays a few dozen entries.
fn steady_workload(events: usize) -> GenConfig {
    GenConfig {
        num_events: events,
        disorder: 0.0,
        disorder_window_ms: 0,
        stable_freq: 0.05,
        event_duration_ms: 60,
        max_gap_ms: 20,
        min_gap_ms: 1,
        finalize: true,
        ..Default::default()
    }
}

/// The global arrival-ordered feed: `INPUTS` identical ordered copies of
/// one logical stream, flattened to arrival order (as in fig2).
fn build_feed(events: usize) -> Vec<(StreamId, Element<Value>)> {
    let reference = generate(&steady_workload(events));
    let mut all: Vec<(u64, u32, Element<Value>)> = Vec::new();
    for i in 0..INPUTS {
        for (at, e) in assign_times(&reference.elements, 50_000.0) {
            all.push((at.as_micros() + i as u64 * 2_000, i as u32, e));
        }
    }
    all.sort_by_key(|(at, i, _)| (*at, *i));
    all.into_iter().map(|(_, i, e)| (StreamId(i), e)).collect()
}

/// One timed pass over the feed; returns `(seconds, memory, adjusts)`.
/// `observe` sees the element index and the live operator after each push
/// — the checkpointed drive exports and persists from there.
fn drive(
    feed: &[(StreamId, Element<Value>)],
    mut observe: impl FnMut(u64, &mut LMergeR3<Value>),
) -> (f64, usize, u64) {
    let mut lm = LMergeR3::new(INPUTS);
    let mut out = Vec::with_capacity(256);
    let start = Instant::now();
    for (n, (input, e)) in feed.iter().enumerate() {
        out.clear();
        lm.push(*input, e, &mut out);
        std::hint::black_box(out.len());
        observe(n as u64, &mut lm);
    }
    let elapsed = start.elapsed().as_secs_f64();
    (elapsed, lm.memory_bytes(), lm.stats().adjusts_out)
}

/// A consistent cut for the store: the bench drive has no executor, so the
/// scheduling half of the image is the trivial "delivered n batches" state.
fn cut(n: u64, lm: &mut LMergeR3<Value>) -> RunImage<Value> {
    RunImage {
        merge: lm.export_state().expect("R3 exports state"),
        exec: ExecutorImage {
            lmerge_ready: VTime(0),
            delivered: n,
            seq: n,
            last_feedback: Time::MIN,
            input_stable_hw: vec![Time::MIN; INPUTS],
            output_stable_hw: Time::MIN,
            pulls: Vec::new(),
            staged: Vec::new(),
        },
        cursors: Vec::new(),
        egress: EgressImage::default(),
    }
}

fn ck_dir(trial: usize) -> PathBuf {
    std::env::temp_dir().join(format!("lmerge-bench-ck-{}-{trial}", std::process::id()))
}

/// Run the comparison: best-of-`trials` each way.
pub fn run(events: usize, trials: usize) -> CheckpointOverhead {
    let feed = build_feed(events);
    let elements = feed.len() as u64;

    let mut bare_s = f64::INFINITY;
    let mut bare_mem = 0usize;
    let mut bare_adj = 0u64;
    for _ in 0..trials {
        let (s, mem, adj) = drive(&feed, |_, _| {});
        bare_s = bare_s.min(s);
        bare_mem = mem;
        bare_adj = adj;
    }

    let mut ck_s = f64::INFINITY;
    let mut ck_mem = 0usize;
    let mut ck_adj = 0u64;
    let mut cuts = 0u64;
    for trial in 0..trials {
        // A fresh directory per trial keeps every trial's work identical:
        // one snapshot, then the store's default snapshot/delta cadence.
        let dir = ck_dir(trial);
        let _ = std::fs::remove_dir_all(&dir);
        let mut store = CheckpointStore::<Value>::create(&dir).expect("checkpoint dir");
        let (s, mem, adj) = drive(&feed, |n, lm| {
            if n % CK_EVERY == CK_EVERY - 1 {
                store.save(&cut(n, lm)).expect("checkpoint persists");
            }
        });
        ck_s = ck_s.min(s);
        ck_mem = mem;
        ck_adj = adj;
        cuts = store.next_seq();
        // The last trial's chain must actually restore.
        let (seq, image) = CheckpointStore::<Value>::load_latest(&dir).expect("restorable chain");
        assert_eq!(seq, cuts - 1);
        assert_eq!(image.exec.delivered, cuts * CK_EVERY - 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
    assert_eq!(
        (bare_mem, bare_adj),
        (ck_mem, ck_adj),
        "checkpointing must not change what the operator computes"
    );
    assert!(cuts >= 2, "cadence produced a snapshot + delta chain");

    let bare_eps = elements as f64 / bare_s;
    let checkpointed_eps = elements as f64 / ck_s;
    let record = |eps: f64| MetricsRecord {
        throughput_eps: eps,
        p50_latency_us: 0,
        p99_latency_us: 0,
        peak_memory_bytes: bare_mem as u64,
        chattiness_adjusts: bare_adj,
    };
    CheckpointOverhead {
        elements,
        bare_eps,
        checkpointed_eps,
        ratio: checkpointed_eps / bare_eps,
        cuts,
        metrics: vec![
            ("bare".to_string(), record(bare_eps)),
            ("checkpointed".to_string(), record(checkpointed_eps)),
        ],
    }
}

/// Build the printable report.
pub fn report() -> Report {
    let events = scale_events(60_000);
    let result = run(events, 5);
    let mut report = Report::new(
        "checkpoint_overhead",
        "Hot-path throughput with vs without durable checkpoints (LMR3+, steady workload)",
        &["drive", "thruput", "ratio"],
    );
    report.row(&[
        "bare".to_string(),
        fmt_eps(result.bare_eps),
        "1.00x".to_string(),
    ]);
    report.row(&[
        "checkpointed".to_string(),
        fmt_eps(result.checkpointed_eps),
        format!("{:.2}x", result.ratio),
    ]);
    report.note(format!(
        "{} elements; {} checkpoints per trial (full state export + \
         snapshot/delta encode + checksummed atomic write every {CK_EVERY} \
         elements)",
        result.elements, result.cuts
    ));
    report.note("bar: committed checkpointed/bare >= 0.90 (tests/committed_bars.rs)");
    for (label, m) in &result.metrics {
        report.metric(label.clone(), *m);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkpointing_is_cheap_and_neutral() {
        let r = run(30_000, 2);
        assert_eq!(r.metrics.len(), 2);
        // Deterministic fields identical across the two drives (asserted
        // inside run()); throughputs both positive; the cadence actually
        // wrote a chain.
        assert!(r.bare_eps > 0.0 && r.checkpointed_eps > 0.0);
        assert!(r.cuts >= 2, "only {} cuts", r.cuts);
        // The 0.90 bar proper is checked at full scale on the committed
        // record (tests/committed_bars.rs); at test scale on a noisy runner
        // just require the ratio to be sane.
        assert!(r.ratio > 0.4, "ratio {:.2} collapsed", r.ratio);
    }
}
