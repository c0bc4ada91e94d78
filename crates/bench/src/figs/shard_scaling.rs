//! Shard scaling: throughput of the hash-partitioned LMerge as the shard
//! count `K` grows (1, 2, 4, 8) on the Figure-2-style ordered workload.
//!
//! Not a paper figure — it measures how the merge's state partitions by key
//! (`ShardedLMerge`). The headline metric is **critical-path throughput**:
//! elements divided by `max(router pass, slowest shard drive)`, which is
//! what a threaded stage would reach on a machine with at least `K + 1`
//! cores. The per-shard drives are measured *in isolation* (sequentially,
//! against pre-partitioned subsequences built off the clock) so the number
//! does not depend on how many cores the measuring machine has, and each
//! `K`'s drives must emit exactly the `K = 1` drive's inserts. The
//! repository runs shards inline in its one executor; this is a computed
//! bound, not a threaded run.
//!
//! Expected shape: near-linear speedup until the router's hash pass
//! becomes the critical path, with a small per-shard penalty from stable
//! punctuation being broadcast (every shard processes every `stable`).

use crate::figs::fig2::ordered_workload;
use crate::report::{fmt_bytes, fmt_eps, MetricsRecord};
use crate::{scale_events, Report};
use lmerge_core::{queue_bytes, shard_of, LMergeR3, LogicalMerge};
use lmerge_gen::timing::add_lag;
use lmerge_gen::{assign_times, generate};
use lmerge_temporal::{Element, StreamId, Value};
use std::time::Instant;

/// Shards fed by the fig-2 workload at each measured point.
pub const INPUTS: usize = 4;

/// One measured shard count.
#[derive(Clone, Copy, Debug)]
pub struct ShardPoint {
    /// Shard count `K`.
    pub k: usize,
    /// Elements in the global feed.
    pub elements: u64,
    /// Seconds for the router's hash pass over the feed (0 at `K = 1`).
    pub router_s: f64,
    /// Seconds inside the slowest shard's isolated drive.
    pub max_shard_s: f64,
    /// `max(router_s, max_shard_s)` — the critical path.
    pub critical_s: f64,
    /// Elements per second down the critical path.
    pub throughput_eps: f64,
    /// `throughput_eps` relative to the `K = 1` point.
    pub speedup: f64,
    /// Sum of final shard memories plus ring-queue overhead.
    pub memory: usize,
    /// Adjust elements emitted across all shards.
    pub adjusts_out: u64,
}

/// Sweep result.
pub struct ShardScaling {
    /// One row per shard count, in sweep order.
    pub points: Vec<ShardPoint>,
    /// Headline record per point, for `BENCH_shard_scaling.json`.
    pub metrics: Vec<(String, MetricsRecord)>,
}

const QUEUE_CAPACITY: usize = 1024;

/// The global arrival-ordered feed: `INPUTS` identical ordered copies of
/// one logical stream, each lagging 2 ms more than the last (as in fig2).
fn build_feed(events: usize) -> Vec<(StreamId, Element<Value>)> {
    let reference = generate(&ordered_workload(events));
    let mut all: Vec<(u64, u32, Element<Value>)> = Vec::new();
    for i in 0..INPUTS {
        let mut t = assign_times(&reference.elements, 50_000.0);
        add_lag(&mut t, i as u64 * 2_000);
        for (at, e) in t {
            all.push((at.as_micros(), i as u32, e));
        }
    }
    all.sort_by_key(|(at, i, _)| (*at, *i));
    all.into_iter().map(|(_, i, e)| (StreamId(i), e)).collect()
}

/// Partition the feed into per-shard subsequences (data by key hash,
/// punctuation broadcast), preserving relative order — exactly what the
/// router does, done off the clock.
fn partition(
    feed: &[(StreamId, Element<Value>)],
    k: usize,
) -> Vec<Vec<(StreamId, Element<Value>)>> {
    let mut subs: Vec<Vec<(StreamId, Element<Value>)>> = vec![Vec::new(); k];
    for (input, e) in feed {
        match e.key() {
            Some((vs, payload)) => subs[shard_of(vs, payload, k)].push((*input, e.clone())),
            None => {
                for sub in subs.iter_mut() {
                    sub.push((*input, e.clone()));
                }
            }
        }
    }
    subs
}

/// Drive one shard's subsequence through a fresh LMR3+, timed.
fn drive_shard(sub: &[(StreamId, Element<Value>)]) -> (f64, usize, u64, u64) {
    let mut lm = LMergeR3::new(INPUTS);
    let mut out = Vec::with_capacity(256);
    let start = Instant::now();
    for (input, e) in sub {
        out.clear();
        lm.push(*input, e, &mut out);
    }
    let elapsed = start.elapsed().as_secs_f64();
    let stats = lm.stats();
    (
        elapsed,
        lm.memory_bytes(),
        stats.adjusts_out,
        stats.inserts_out,
    )
}

/// Run the sweep over the given shard counts (first entry is the baseline).
pub fn run(events: usize, ks: &[usize]) -> ShardScaling {
    let feed = build_feed(events);
    let elements = feed.len() as u64;

    let mut points = Vec::new();
    let mut metrics = Vec::new();
    let mut baseline_eps = 0.0;
    let mut baseline_inserts = 0u64;

    for &k in ks {
        let subs = partition(&feed, k);

        // The router's cost: one hash per data element. At K = 1 the
        // wrapper bypasses routing entirely, so charge nothing.
        let router_s = if k <= 1 {
            0.0
        } else {
            let start = Instant::now();
            let mut acc = 0usize;
            for (_, e) in &feed {
                if let Some((vs, payload)) = e.key() {
                    acc += shard_of(vs, payload, k);
                }
            }
            std::hint::black_box(acc);
            start.elapsed().as_secs_f64()
        };

        let mut max_shard_s: f64 = 0.0;
        let mut memory = queue_bytes::<Value>(k, QUEUE_CAPACITY);
        let mut adjusts_out = 0u64;
        let mut inserts_out = 0u64;
        for sub in &subs {
            let (s, mem, adj, ins) = drive_shard(sub);
            max_shard_s = max_shard_s.max(s);
            memory += mem;
            adjusts_out += adj;
            inserts_out += ins;
        }
        if k == ks[0] {
            baseline_inserts = inserts_out;
        } else {
            assert_eq!(
                inserts_out, baseline_inserts,
                "sharding must not change the merged output"
            );
        }

        let critical_s = router_s.max(max_shard_s);
        let throughput_eps = if critical_s > 0.0 {
            elements as f64 / critical_s
        } else {
            0.0
        };
        if k == ks[0] {
            baseline_eps = throughput_eps;
        }
        let speedup = if baseline_eps > 0.0 {
            throughput_eps / baseline_eps
        } else {
            1.0
        };

        points.push(ShardPoint {
            k,
            elements,
            router_s,
            max_shard_s,
            critical_s,
            throughput_eps,
            speedup,
            memory,
            adjusts_out,
        });
        metrics.push((
            format!("LMR3+@K{k}"),
            MetricsRecord {
                throughput_eps,
                p50_latency_us: 0,
                p99_latency_us: 0,
                peak_memory_bytes: memory as u64,
                chattiness_adjusts: adjusts_out,
            },
        ));
    }

    ShardScaling { points, metrics }
}

/// Build the printable report.
pub fn report() -> Report {
    let events = scale_events(20_000);
    let result = run(events, &[1, 2, 4, 8]);
    let mut report = Report::new(
        "shard_scaling",
        "Critical-path throughput vs shard count K (LMR3+, fig2 workload)",
        &[
            "K",
            "router",
            "max-shard",
            "critical",
            "thruput",
            "speedup",
            "memory",
        ],
    );
    for p in &result.points {
        report.row(&[
            p.k.to_string(),
            format!("{:.1}ms", p.router_s * 1e3),
            format!("{:.1}ms", p.max_shard_s * 1e3),
            format!("{:.1}ms", p.critical_s * 1e3),
            fmt_eps(p.throughput_eps),
            format!("{:.2}x", p.speedup),
            fmt_bytes(p.memory),
        ]);
    }
    report.note(format!(
        "{events} events/stream x {INPUTS} inputs; data hash-partitioned by (Vs, payload), stables broadcast"
    ));
    report.note(
        "thruput = elements / max(router pass, slowest isolated shard drive) — \
         the critical path a threaded stage would reach on >=K+1 cores",
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
    fn scaling_shape_holds() {
        let r = run(4_000, &[1, 2, 4]);
        assert_eq!(r.points.len(), 3);
        let k1 = &r.points[0];
        let k4 = &r.points[2];
        assert_eq!(k1.speedup, 1.0);
        // Partitioned shards each hold a fraction of the state.
        assert!(k4.max_shard_s < k1.max_shard_s);
        // The acceptance bar proper (>= 2.5x at K=4) is asserted by
        // check_regression at full scale; at test scale just require
        // meaningful scaling beyond noise.
        assert!(
            k4.speedup > 1.5,
            "K=4 speedup {:.2} not above 1.5",
            k4.speedup
        );
        // Queue overhead is charged per shard.
        assert!(k4.memory > queue_bytes::<Value>(4, QUEUE_CAPACITY));
    }

    #[test]
    fn partition_broadcasts_stables_and_splits_data() {
        let feed = build_feed(500);
        let subs = partition(&feed, 4);
        let stables = feed.iter().filter(|(_, e)| e.is_stable()).count();
        let data = feed.len() - stables;
        for sub in &subs {
            assert_eq!(
                sub.iter().filter(|(_, e)| e.is_stable()).count(),
                stables,
                "every shard sees every stable"
            );
        }
        let split_data: usize = subs
            .iter()
            .map(|s| s.iter().filter(|(_, e)| !e.is_stable()).count())
            .sum();
        assert_eq!(split_data, data, "each data element lands on one shard");
    }
}
