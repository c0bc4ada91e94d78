//! Subscriber fan-out scaling: amortized per-subscriber CPU as the
//! subscriber count grows from 1 to 1024 over loopback TCP.
//!
//! Not a paper figure — it measures the lmerge-sub subsystem's central
//! claim: because each frame of the merged output is wire-encoded **once**
//! and fanned out as ranged writes from shared refcounted chunks, the
//! marginal cost of one more subscriber is a socket write, not another
//! encoding pass. If that holds, total delivery throughput (frames
//! delivered across all subscribers per CPU-second, `eps` below) grows
//! roughly linearly with N — equivalently, amortized per-subscriber CPU
//! stays flat. The acceptance bar gated by `check_regression` is the
//! ISSUE's: per-subscriber CPU at N=256 within 1.15x of N=16, i.e.
//! `eps(sub@N256) >= eps(sub@N16) / 1.15`.
//!
//! CPU is process CPU time (utime+stime from `/proc/self/stat`), not
//! wall clock: the sweep runs producer, server sessions, and all N
//! in-process subscriber clients on whatever cores exist, and CPU time
//! is what the shared-encoding design actually economizes.

use crate::report::{fmt_eps, MetricsRecord};
use crate::{scale_events, Report, VariantKind};
use lmerge_engine::{MergeRun, Query, RunConfig, RunMetrics, TimedElement};
use lmerge_gen::{assign_times, generate, GenConfig};
use lmerge_obs::NullSink;
use lmerge_sub::{subscribe, EpochBuffer, OutputHook, SubConfig, SubPolicy, SubServer};
use lmerge_temporal::Value;
use std::sync::Arc;
use std::thread;
use std::time::Instant;

/// One measured subscriber count.
pub struct SubPoint {
    /// Row label (also the metrics label), e.g. `sub@N256`.
    pub label: String,
    /// Concurrent loopback subscribers.
    pub subscribers: usize,
    /// Frames each subscriber received (identical across subscribers).
    pub frames_per_sub: u64,
    /// Frames delivered across all subscribers in one run of the point
    /// (`subscribers × frames_per_sub`).
    pub delivered: u64,
    /// Process CPU seconds consumed by the point's whole repeat group.
    pub cpu_s: f64,
    /// Wall clock of the repeat group (informational; CPU is the metric).
    pub wall_s: f64,
    /// Frames delivered over the repeat group per CPU-second it took.
    /// Flat per-subscriber CPU shows up as eps growing with N.
    pub eps: f64,
    /// Producer-side executor metrics (deterministic gate fields).
    pub metrics: RunMetrics,
}

/// Sweep result.
pub struct SubScaling {
    pub points: Vec<SubPoint>,
    /// Headline record per point, for `BENCH_sub_scaling.json`.
    pub metrics: Vec<(String, MetricsRecord)>,
}

/// Process CPU time in clock ticks: utime + stime from `/proc/self/stat`
/// (fields 14 and 15; the comm field may contain spaces, so split after
/// the closing paren).
fn cpu_ticks() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let after_comm = stat.rsplit_once(')').map(|(_, t)| t).unwrap_or("");
    let fields: Vec<&str> = after_comm.split_whitespace().collect();
    let utime: u64 = fields.get(11).and_then(|s| s.parse().ok()).unwrap_or(0);
    let stime: u64 = fields.get(12).and_then(|s| s.parse().ok()).unwrap_or(0);
    utime + stime
}

/// Linux USER_HZ. The bar is a ratio of CPU times, so only the report's
/// human-readable seconds depend on this being the (near-universal) 100.
const TICKS_PER_SEC: f64 = 100.0;

/// The single timed feed every point replays: one logical stream with
/// stable punctuation every ~50 events, so the broadcast buffer seals
/// realistic epoch sizes.
fn feed(events: usize) -> Vec<TimedElement<Value>> {
    let cfg = GenConfig {
        num_events: events,
        disorder: 0.05,
        stable_freq: 0.02,
        payload_len: 32,
        ..Default::default()
    };
    let reference = generate(&cfg);
    assign_times(&reference.elements, 50_000.0)
        .into_iter()
        .map(|(at, e)| TimedElement::new(at, e))
        .collect()
}

/// Run one point: fan the merged output of `feed` out to `n` loopback
/// subscribers, measuring process CPU across produce + deliver + drain.
pub fn run_point(feed: &[TimedElement<Value>], n: usize) -> SubPoint {
    // Unbounded retention: the N subscribers connect while the producer
    // is already publishing, and each must still see sequence 0 — the
    // fast subscribers' acks must not compact epochs out from under the
    // ones whose handshake lands a beat later.
    let policy = SubPolicy {
        retain_min_epochs: u64::MAX,
        ..SubPolicy::default()
    };
    let buf = Arc::new(EpochBuffer::new(policy));
    let mut server =
        SubServer::bind("127.0.0.1:0", Arc::clone(&buf), SubConfig::new()).expect("bind");
    let addr = server.local_addr().to_string();

    let ticks0 = cpu_ticks();
    let start = Instant::now();
    let clients: Vec<_> = (0..n)
        .map(|i| {
            let addr = addr.clone();
            // Small stacks: at N=1024 the default 2 MiB/thread is pure
            // address-space noise for a socket-drain loop.
            thread::Builder::new()
                .stack_size(128 * 1024)
                .spawn(move || {
                    // A window wide enough to never stall mid-stream:
                    // the figure measures fan-out CPU, not backpressure
                    // wakeup scheduling (tiny-credit correctness is
                    // covered by the sub crate's tests).
                    let config = lmerge_sub::SubscribeConfig::new(i as u64).with_credits(4096);
                    let outcome = subscribe(&addr, &config).expect("subscriber");
                    assert!(
                        outcome.clean && outcome.finished,
                        "unclean subscriber {i}: received={} finished={} clean={} \
                         demotions={} resumed_from={}",
                        outcome.received,
                        outcome.finished,
                        outcome.clean,
                        outcome.demotions,
                        outcome.resumed_from
                    );
                    outcome.received
                })
                .expect("spawn subscriber")
        })
        .collect();

    let queries = vec![Query::passthrough(feed.to_vec())];
    let mut output = OutputHook::new().broadcast(buf);
    let metrics = MergeRun::new(queries, VariantKind::R3Plus.build(1), RunConfig::default())
        .run_with_hooks(&mut NullSink, &mut output);
    output.finish().expect("no file, no I/O error");

    let received: Vec<u64> = clients
        .into_iter()
        .map(|c| c.join().expect("join"))
        .collect();
    let wall_s = start.elapsed().as_secs_f64();
    let cpu_s = (cpu_ticks() - ticks0) as f64 / TICKS_PER_SEC;
    server.shutdown();

    let frames_per_sub = received[0];
    assert!(
        received.iter().all(|&r| r == frames_per_sub),
        "subscribers disagree on the stream length"
    );
    let delivered: u64 = received.iter().sum();
    SubPoint {
        label: format!("sub@N{n}"),
        subscribers: n,
        frames_per_sub,
        delivered,
        cpu_s,
        wall_s,
        // Guard against tick-granularity zero on tiny points.
        eps: delivered as f64 / cpu_s.max(1.0 / TICKS_PER_SEC),
        metrics,
    }
}

/// Run the sweep over `counts` subscribers with `events` source events.
///
/// Each point runs several times — small points repeat until they cover
/// ~256 subscriber-streams so their CPU numbers accumulate enough clock
/// ticks to rise above USER_HZ quantization, and every point runs at
/// least thrice — and reports its **best** (lowest-CPU) repeat: the
/// intrinsic fan-out cost, with scheduler noise from a shared host
/// filtered out rather than averaged in.
pub fn run(events: usize, counts: &[usize]) -> SubScaling {
    let feed = feed(events);
    let mut points = Vec::new();
    let mut records = Vec::new();
    for &n in counts {
        // One group covers ~256 subscriber-streams (so its CPU time is
        // many clock ticks); three groups, keep the cheapest.
        let group = (256 / n).max(1);
        // `delivered` and `frames_per_sub` stay those of one run (every run
        // of a point delivers the same stream); CPU and wall clock are the
        // group's totals, and `eps` is the group's frames over its CPU.
        let measure_group = || {
            let mut p = run_point(&feed, n);
            for _ in 1..group {
                let next = run_point(&feed, n);
                assert_eq!(next.delivered, p.delivered, "runs of one point differ");
                p.cpu_s += next.cpu_s;
                p.wall_s += next.wall_s;
            }
            p.eps = (group as u64 * p.delivered) as f64 / p.cpu_s.max(1.0 / TICKS_PER_SEC);
            p
        };
        let mut best = measure_group();
        for _ in 1..3 {
            let next = measure_group();
            if next.eps > best.eps {
                best = next;
            }
        }
        let mut record = MetricsRecord::from_run(&best.metrics);
        // The headline number of *this* figure is fan-out throughput per
        // CPU-second, not the producer's virtual-time rate.
        record.throughput_eps = best.eps;
        records.push((best.label.clone(), record));
        points.push(best);
    }
    SubScaling {
        points,
        metrics: records,
    }
}

/// Build the printable report.
pub fn report() -> Report {
    let events = scale_events(1_500);
    let result = run(events, &[1, 16, 256, 1024]);
    let mut report = Report::new(
        "sub_scaling",
        "Subscriber fan-out scaling: shared epoch encoding over loopback TCP",
        &[
            "config",
            "subs",
            "frames/sub",
            "delivered",
            "cpu",
            "wall",
            "eps/cpu-s",
        ],
    );
    for p in &result.points {
        report.row(&[
            p.label.clone(),
            p.subscribers.to_string(),
            p.frames_per_sub.to_string(),
            p.delivered.to_string(),
            format!("{:.2}s", p.cpu_s),
            format!("{:.2}s", p.wall_s),
            fmt_eps(p.eps),
        ]);
    }
    report.note(format!(
        "{events} source events, stable every ~50 (epoch granularity); each point \
         re-fans the same merged stream out to N in-process loopback subscribers \
         (credits 4096, 128 KiB client stacks); frames/sub and delivered are one \
         run's, cpu and wall the totals of the point's max(1, 256/N) back-to-back runs"
    ));
    report.note(
        "eps = frames delivered across all subscribers per process-CPU-second; \
         shared per-epoch encoding makes it grow ~linearly with N (flat amortized \
         per-subscriber CPU). check_regression enforces the committed \
         eps(sub@N256) >= eps(sub@N16)/1.15 bar",
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
    fn fan_out_delivers_everything_to_every_subscriber() {
        let r = run(600, &[1, 4]);
        assert_eq!(r.points.len(), 2);
        let (one, four) = (&r.points[0], &r.points[1]);
        assert_eq!(
            one.frames_per_sub, four.frames_per_sub,
            "the stream does not depend on the subscriber count"
        );
        assert!(one.frames_per_sub > 0, "the sweep is vacuous");
        assert_eq!(four.delivered, 4 * four.frames_per_sub);
        // The producer-side gate fields are fan-out-invariant.
        assert_eq!(
            one.metrics.merge.adjusts_out,
            four.metrics.merge.adjusts_out
        );
        assert_eq!(one.metrics.peak_memory, four.metrics.peak_memory);
    }
}
