//! Loopback ingest throughput: divergent replicas streamed over real TCP
//! into the virtual-time executor, against the in-process baseline.
//!
//! Not a paper figure — it measures the lmerge-net subsystem that makes
//! the paper's "physically independent" inputs literal. Each replica is
//! framed (insert/adjust/stable + per-frame word-folded FNV-1a checksum),
//! shipped through a loopback socket with credit backpressure, and read
//! and decoded by the merge thread itself.
//! Virtual arrival times travel inside the frames, so the executor
//! consumes exactly the timed sequence the in-process run does: the
//! merged output — and therefore the deterministic gate fields (peak
//! memory, chattiness) — must be identical; only wall clock may differ.
//!
//! Expected shape: loopback wall clock within a small factor of the
//! in-process drive (framing + checksum + syscalls per element), scaling
//! with the number of concurrent sessions rather than collapsing.

use crate::report::{fmt_bytes, fmt_eps, MetricsRecord};
use crate::{scale_events, Report, VariantKind};
use lmerge_engine::{MergeRun, Query, RunConfig, RunMetrics, TimedElement};
use lmerge_gen::{assign_times, diverge, generate, DivergenceConfig, GenConfig};
use lmerge_net::client::{replay_until_clean, ReplayConfig};
use lmerge_net::server::{IngestConfig, IngestServer};
use lmerge_net::wire::{self, Frame};
use lmerge_temporal::Value;
use std::thread;
use std::time::Instant;

/// One measured configuration.
pub struct NetPoint {
    /// Row label (also the metrics label).
    pub label: String,
    /// Concurrent TCP sessions (0 for the in-process baseline).
    pub sessions: usize,
    /// Timed elements consumed by the merge across all inputs.
    pub elements: u64,
    /// Bytes the data frames occupy on the wire (0 in-process).
    pub wire_bytes: u64,
    /// End-to-end wall clock: clients spawned → run drained.
    pub wall_s: f64,
    /// `elements / wall_s`.
    pub throughput_eps: f64,
    /// Full executor metrics for the record.
    pub metrics: RunMetrics,
}

/// Sweep result.
pub struct NetLoopback {
    /// Baseline first, then the loopback points.
    pub points: Vec<NetPoint>,
    /// Headline record per point, for `BENCH_net_loopback.json`.
    pub metrics: Vec<(String, MetricsRecord)>,
}

/// The divergent-replica workload shared by every point: one logical
/// stream, `n` physically different presentations of it, timed at 50k
/// elements/s each.
fn replica_feeds(events: usize, n: usize) -> Vec<Vec<TimedElement<Value>>> {
    let cfg = GenConfig {
        num_events: events,
        disorder: 0.10,
        stable_freq: 0.02,
        payload_len: 32,
        ..Default::default()
    };
    let reference = generate(&cfg);
    let div = DivergenceConfig::default();
    (0..n as u64)
        .map(|i| {
            assign_times(&diverge(&reference.elements, &div, i), 50_000.0)
                .into_iter()
                .map(|(at, e)| TimedElement::new(at, e))
                .collect()
        })
        .collect()
}

/// Exact on-wire size of a feed's data frames (deterministic: framing is
/// content-addressed, not timing-dependent).
fn wire_bytes_of(feeds: &[Vec<TimedElement<Value>>]) -> u64 {
    feeds
        .iter()
        .flatten()
        .enumerate()
        .map(|(i, te)| {
            wire::encode(&Frame::Data {
                seq: i as u64,
                at: te.at,
                element: te.element.clone(),
            })
            .len() as u64
        })
        .sum()
}

/// Drive the feeds through the executor in-process (the baseline).
fn run_in_process(feeds: Vec<Vec<TimedElement<Value>>>) -> (f64, RunMetrics) {
    let n = feeds.len();
    let queries: Vec<Query<Value>> = feeds.into_iter().map(Query::passthrough).collect();
    let start = Instant::now();
    let metrics = MergeRun::new(queries, VariantKind::R3Plus.build(n), RunConfig::default()).run();
    (start.elapsed().as_secs_f64(), metrics)
}

/// Drive the feeds through the executor over loopback TCP: one replayer
/// thread per input, the merge consuming live `NetSource`s.
fn run_loopback(feeds: Vec<Vec<TimedElement<Value>>>) -> (f64, RunMetrics) {
    let n = feeds.len();
    let mut server =
        IngestServer::bind("127.0.0.1:0", IngestConfig::new(n)).expect("bind ingest server");
    let addr = server.local_addr().to_string();
    let start = Instant::now();
    let clients: Vec<_> = feeds
        .into_iter()
        .enumerate()
        .map(|(i, feed)| {
            let addr = addr.clone();
            thread::spawn(move || {
                replay_until_clean(&addr, &feed, &ReplayConfig::new(i as u32), 5)
                    .expect("loopback replay")
            })
        })
        .collect();
    let queries: Vec<Query<Value>> = server
        .sources()
        .into_iter()
        .map(|src| Query::from_source(Box::new(src), Vec::new()))
        .collect();
    let metrics = MergeRun::new(queries, VariantKind::R3Plus.build(n), RunConfig::default()).run();
    server.serve_until(|| clients.iter().all(|c| c.is_finished()));
    for c in clients {
        c.join().expect("replayer thread");
    }
    let wall = start.elapsed().as_secs_f64();
    server.shutdown();
    (wall, metrics)
}

/// Run the sweep: in-process baseline, then loopback at 1 and `inputs`
/// sessions.
pub fn run(events: usize, inputs: usize) -> NetLoopback {
    let mut points = Vec::new();
    let mut records = Vec::new();
    let mut push = |label: String,
                    sessions: usize,
                    elements: u64,
                    wire_bytes: u64,
                    wall_s: f64,
                    metrics: RunMetrics| {
        let throughput_eps = if wall_s > 0.0 {
            elements as f64 / wall_s
        } else {
            0.0
        };
        let mut record = MetricsRecord::from_run(&metrics);
        // The headline throughput of *this* figure is wall-clock over the
        // socket path, not the executor's virtual-time rate.
        record.throughput_eps = throughput_eps;
        records.push((label.clone(), record));
        points.push(NetPoint {
            label,
            sessions,
            elements,
            wire_bytes,
            wall_s,
            throughput_eps,
            metrics,
        });
    };

    let feeds = replica_feeds(events, inputs);
    let elements: u64 = feeds.iter().map(|f| f.len() as u64).sum();
    let wire = wire_bytes_of(&feeds);
    let (wall, metrics) = run_in_process(feeds.clone());
    let baseline_inserts = metrics.merge.inserts_out;
    push(format!("inproc@{inputs}"), 0, elements, 0, wall, metrics);

    let single = replica_feeds(events, 1);
    let single_elements = single[0].len() as u64;
    let single_wire = wire_bytes_of(&single);
    let (wall, metrics) = run_loopback(single);
    push(
        "loopback@1".to_string(),
        1,
        single_elements,
        single_wire,
        wall,
        metrics,
    );

    let (wall, metrics) = run_loopback(feeds);
    assert_eq!(
        metrics.merge.inserts_out, baseline_inserts,
        "the socket path must not change the merged output"
    );
    push(
        format!("loopback@{inputs}"),
        inputs,
        elements,
        wire,
        wall,
        metrics,
    );

    NetLoopback {
        points,
        metrics: records,
    }
}

/// Build the printable report.
pub fn report() -> Report {
    let events = scale_events(20_000);
    const INPUTS: usize = 3;
    let result = run(events, INPUTS);
    let mut report = Report::new(
        "net_loopback",
        "Loopback TCP ingest vs in-process delivery (LMR3+, divergent replicas)",
        &[
            "config", "sessions", "elements", "wire", "wall", "thruput", "adjusts",
        ],
    );
    for p in &result.points {
        report.row(&[
            p.label.clone(),
            p.sessions.to_string(),
            p.elements.to_string(),
            fmt_bytes(p.wire_bytes as usize),
            format!("{:.1}ms", p.wall_s * 1e3),
            fmt_eps(p.throughput_eps),
            p.metrics.merge.adjusts_out.to_string(),
        ]);
    }
    report.note(format!(
        "{events} events/stream x {INPUTS} replicas; framed insert/adjust/stable with \
         per-frame word-folded FNV-1a checksums, credits 32 at a time"
    ));
    report.note(
        "thruput = elements / wall clock of the full path (replayer threads, \
         loopback sockets, decode, merge); peak memory and chattiness \
         are delivery-path-invariant and gated by check_regression",
    );
    for (label, m) in &result.metrics {
        report.metric(label.clone(), *m);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loopback_path_reproduces_the_baseline_output() {
        let r = run(2_000, 3);
        assert_eq!(r.points.len(), 3);
        let base = &r.points[0];
        let net = &r.points[2];
        // run() asserts inserts match; the gate fields must match too.
        assert_eq!(
            base.metrics.merge.adjusts_out, net.metrics.merge.adjusts_out,
            "chattiness is delivery-path-invariant"
        );
        assert_eq!(
            base.metrics.peak_memory, net.metrics.peak_memory,
            "peak memory is delivery-path-invariant"
        );
        assert!(net.wire_bytes > 0 && net.throughput_eps > 0.0);
        // Framing overhead is bounded: headers + checksums, not bloat.
        assert!(
            net.wire_bytes < 200 * net.elements,
            "{} bytes for {} elements",
            net.wire_bytes,
            net.elements
        );
    }
}
