//! The traced run: one repetition with the server's `--metrics` endpoint
//! on, then the same frames replayed in this process through each layer's
//! public functions under spans — the per-layer ledger.
//!
//! Everything here is measured from outside: by timing calls into `pub`
//! items of the repo's crates, by reading `/proc/<pid>`, and by scraping
//! the endpoint the server already has. Nothing inside the measured
//! program is instrumented, so the stage costs cannot sum to the server's
//! CPU time; what is left over is reported as `ledger.unexplained_share`.

use crate::oracle;
use crate::run::{self, Env, Expect, Rep};
use crate::spans::Spans;
use crate::stats;
use crate::sut;
use crate::workload::{Drive, Workload};
use crate::{Outcome, Reported};
use lmerge::core::in2t::In2t;
use lmerge::core::SweepAction;
use lmerge::durable::CheckpointStore;
use lmerge::engine::{MergeRun, Query, RunConfig, TimedElement};
use lmerge::net::wire::{self, Frame};
use lmerge::obs::{
    ElementKind, EngineMetrics, MeteredSink, MetricsRegistry, TraceEvent, TraceSink, Tracer,
};
use lmerge::sub::{EpochBuffer, SubPolicy};
use lmerge::temporal::{Element, StreamId, Time, VTime, Value};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::hint::black_box;
use std::time::Instant;

/// A micro-measurement keeps looping until it has run this long, so that
/// one timer read per pass is noise, not signal.
const MIN_TIMED_NS: u128 = 20_000_000;

/// Nanoseconds per call of `f`, which performs `per_pass` operations.
fn ns_per_op(per_pass: usize, mut f: impl FnMut()) -> f64 {
    if per_pass == 0 {
        return 0.0;
    }
    let start = Instant::now();
    let mut passes = 0u32;
    while passes == 0 || start.elapsed().as_nanos() < MIN_TIMED_NS {
        f();
        passes += 1;
    }
    start.elapsed().as_nanos() as f64 / (passes as f64 * per_pass as f64)
}

/// What the replay measured, by catalogue name.
type Ledger = HashMap<&'static str, f64>;

/// Distinct payloads of the workload, as the index would see them.
fn sample_values(feeds: &[Vec<TimedElement<Value>>], limit: usize) -> Vec<(Time, Value)> {
    feeds[0]
        .iter()
        .filter_map(|te| match &te.element {
            Element::Insert(ev) => Some((ev.vs, ev.payload.clone())),
            _ => None,
        })
        .take(limit)
        .collect()
}

fn temporal(ledger: &mut Ledger, keys: &[(Time, Value)]) {
    ledger.insert(
        "temporal.value_clone_ns",
        ns_per_op(keys.len(), || {
            for (_, v) in keys {
                black_box(v.clone());
            }
        }),
    );
    // An index hit ends in one comparison against an equal key, which
    // walks the whole body: the cost that grows with the payload.
    let twins: Vec<Value> = keys
        .iter()
        .map(|(_, v)| Value {
            key: v.key,
            body: v.body.to_vec().into(),
        })
        .collect();
    ledger.insert(
        "temporal.value_cmp_ns",
        ns_per_op(keys.len(), || {
            for ((_, v), twin) in keys.iter().zip(&twins) {
                black_box(v.cmp(twin));
            }
        }),
    );
    ledger.insert(
        "temporal.value_hash_ns",
        ns_per_op(keys.len(), || {
            for (_, v) in keys {
                let mut h = DefaultHasher::new();
                v.hash(&mut h);
                black_box(h.finish());
            }
        }),
    );
}

fn net(ledger: &mut Ledger, feed: &[TimedElement<Value>]) {
    let frames: Vec<Frame> = feed
        .iter()
        .enumerate()
        .map(|(i, te)| Frame::Data {
            seq: i as u64,
            at: te.at,
            element: te.element.clone(),
        })
        .collect();
    let mut bytes = Vec::new();
    ledger.insert(
        "net.encode_ns_per_frame",
        ns_per_op(frames.len(), || {
            bytes.clear();
            for f in &frames {
                wire::encode_into(f, &mut bytes);
            }
        }),
    );
    ledger.insert(
        "net.decode_ns_per_frame",
        ns_per_op(frames.len(), || {
            let mut pos = 0;
            while pos < bytes.len() {
                let (frame, used) = wire::decode(&bytes[pos..]).expect("own encoding decodes");
                black_box(frame);
                pos += used;
            }
        }),
    );
}

fn engine_ring(ledger: &mut Ledger) {
    let (mut tx, mut rx) = lmerge::engine::spsc::ring::<u64>(256);
    ledger.insert(
        "engine.spsc_ns_per_op",
        ns_per_op(1024, || {
            for i in 0..1024u64 {
                let _ = tx.push(black_box(i));
                black_box(rx.pop());
            }
        }),
    );
}

/// Total nanoseconds the merge itself is busy for the whole run, plus the
/// per-kind split — the same deliveries, in the executor's order, pushed
/// straight into a fresh merge.
struct CoreBusy {
    push_batch_total_ns: f64,
}

fn core(
    ledger: &mut Ledger,
    feeds: &[Vec<TimedElement<Value>>],
    order: &[u32],
    keys: &[(Time, Value)],
) -> CoreBusy {
    // What two back-to-back clock reads cost, to take out of per-call times.
    let clock_ns = ns_per_op(1024, || {
        for _ in 0..1024 {
            black_box(Instant::now());
        }
    });
    let mut by_kind = [(0u128, 0u64); 3];
    let mut merge = oracle::build_merge(feeds.len());
    let mut cursors = vec![0usize; feeds.len()];
    let mut out = Vec::new();
    for &input in order {
        let element = &feeds[input as usize][cursors[input as usize]].element;
        cursors[input as usize] += 1;
        let kind = match element {
            Element::Insert(_) => 0,
            Element::Adjust { .. } => 1,
            Element::Stable(_) => 2,
        };
        out.clear();
        let t = Instant::now();
        merge.push(StreamId(input), element, &mut out);
        by_kind[kind].0 += t.elapsed().as_nanos();
        by_kind[kind].1 += 1;
    }
    for (name, (ns, calls)) in ["core.insert_ns", "core.adjust_ns", "core.stable_ns"]
        .into_iter()
        .zip(by_kind)
    {
        let per_call = if calls == 0 {
            0.0
        } else {
            ns as f64 / calls as f64
        };
        ledger.insert(name, (per_call - clock_ns).max(0.0));
    }

    let mut merge = oracle::build_merge(feeds.len());
    let mut cursors = vec![0usize; feeds.len()];
    let t = Instant::now();
    for &input in order {
        let element = &feeds[input as usize][cursors[input as usize]].element;
        cursors[input as usize] += 1;
        out.clear();
        merge.push_batch(StreamId(input), std::slice::from_ref(element), &mut out);
    }
    let push_batch_total_ns = t.elapsed().as_nanos() as f64;
    ledger.insert(
        "core.push_batch_ns_per_elem",
        push_batch_total_ns / order.len().max(1) as f64,
    );

    // The index on its own, at the size the live set reaches.
    let mut index: In2t<Value> = In2t::new();
    let t = Instant::now();
    for (vs, v) in keys {
        index.add_node(*vs, v.clone());
    }
    let add_ns = t.elapsed().as_nanos() as f64 / keys.len().max(1) as f64;
    let get_ns = ns_per_op(keys.len(), || {
        for (vs, v) in keys {
            black_box(index.get(*vs, v));
        }
    });
    // One probe and, on a miss, one insertion per arriving insert.
    ledger.insert("core.in2t_probe_ns", (get_ns + add_ns) / 2.0);
    let nodes = index.len();
    ledger.insert(
        "core.sweep_ns_per_node",
        ns_per_op(nodes, || {
            index.sweep_half_frozen(Time::INFINITY, |_, _, node| {
                black_box(node);
                SweepAction::Keep
            })
        }),
    );
    CoreBusy {
        push_batch_total_ns,
    }
}

/// `MergeRun::run` wall clock for the plain library call (vector sources,
/// no hooks, no tracing).
fn plain_merge_run_ns(feeds: &[Vec<TimedElement<Value>>]) -> f64 {
    let queries: Vec<Query<Value>> = feeds.iter().cloned().map(Query::passthrough).collect();
    let run = MergeRun::new(
        queries,
        oracle::build_merge(feeds.len()),
        RunConfig::default(),
    );
    let t = Instant::now();
    black_box(run.run());
    t.elapsed().as_nanos() as f64
}

fn sub(ledger: &mut Ledger, output: &[(VTime, Element<Value>)], out_bytes: usize) -> f64 {
    let buf = EpochBuffer::new(SubPolicy::default());
    let t = Instant::now();
    for (at, e) in output {
        buf.publish(*at, std::slice::from_ref(e));
    }
    buf.finish();
    let total_ns = t.elapsed().as_nanos() as f64;
    let frames = output.len().max(1) as f64;
    let (_, _, sealed, _) = buf.stats();
    ledger.insert("sub.publish_ns_per_frame", total_ns / frames);
    ledger.insert("sub.frames_per_epoch", frames / sealed.max(1) as f64);
    ledger.insert("sub.bytes_per_frame", out_bytes as f64 / frames);
    total_ns
}

fn obs(ledger: &mut Ledger) -> f64 {
    let registry = MetricsRegistry::new();
    let mut sink = MeteredSink::new(Tracer::new(), EngineMetrics::new(&registry));
    let per_event = ns_per_op(2048, || {
        for i in 0..1024u64 {
            sink.record(TraceEvent::BatchDelivered {
                at: VTime(i),
                input: (i & 1) as u32,
                elements: 1,
                data: 1,
            });
            sink.record(TraceEvent::ElementEmitted {
                at: VTime(i),
                kind: ElementKind::Insert,
                vs: Time(i as i64),
            });
        }
    });
    ledger.insert("obs.record_ns_per_event", per_event);
    per_event
}

/// Measure the durable layer against the directory the server left:
/// recovery of its chain, then one snapshot and one delta of the
/// recovered image into a scratch store. Returns CPU ns per checkpoint byte.
fn durable(ledger: &mut Ledger, rep: &Rep, env: &Env<'_>) -> f64 {
    let Some(dir) = &rep.ckpt_dir else { return 0.0 };
    let t = Instant::now();
    let recovered = CheckpointStore::<Value>::recover(dir);
    ledger.insert("durable.recover_ms", t.elapsed().as_secs_f64() * 1e3);
    let mut cpu_ns_per_byte = 0.0;
    if let Ok(recovery) = recovered {
        let scratch = env
            .out_dir
            .join(format!("ckpt-replay-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&scratch);
        if let Ok(mut store) = CheckpointStore::<Value>::create(&scratch) {
            // Wall clock for the reported costs (they include the fsyncs a
            // checkpoint waits for); CPU time for the ledger, which
            // explains CPU.
            let cpu0 = sut::thread_cpu_ns().unwrap_or(0);
            let t = Instant::now();
            let first = store.save(&recovery.image);
            let snapshot_ns = t.elapsed().as_nanos() as f64;
            let t = Instant::now();
            let second = store.save(&recovery.image);
            let delta_ns = t.elapsed().as_nanos() as f64;
            let cpu_ns = sut::thread_cpu_ns().unwrap_or(0).saturating_sub(cpu0);
            if first.is_ok() && second.is_ok() {
                ledger.insert("durable.snapshot_ms", snapshot_ns / 1e6);
                ledger.insert("durable.delta_us", delta_ns / 1e3);
                cpu_ns_per_byte = cpu_ns as f64 / sut::dir_bytes(&scratch).max(1) as f64;
            }
        }
        let _ = std::fs::remove_dir_all(&scratch);
    }
    ledger.insert(
        "durable.bytes_per_ckpt",
        rep.ckpt_bytes as f64 / rep.ckpts.max(1) as f64,
    );
    ledger.insert(
        "durable.ckpt_bytes_per_elem",
        rep.ckpt_bytes as f64 / rep.elements.max(1) as f64,
    );
    ledger.insert("durable.ckpts", rep.ckpts as f64);
    cpu_ns_per_byte
}

fn scraped_sum(rep: &Rep, name: &str) -> f64 {
    rep.scraped.get(name).map_or(0.0, |s| s.sum)
}

/// The traced run of one workload: every per-layer metric, by name.
pub fn traced(w: &'static Workload, seed: u64, env: &Env<'_>, spans: &mut Spans) -> Outcome {
    spans.set_workload(w.name);
    let root = spans.enter("traced-run");
    let mut outcome = Outcome::new(w.name);
    let mut ledger: Ledger = HashMap::new();

    // The expectation first: a traced repetition needs to know how many
    // frames the subscriber will get before it may look at the server.
    let feeds = w.feeds(seed, env.shrink);
    let mut expect = Some(spans.span("oracle.reference", || Expect::of(&feeds)));

    // A discarded warm-up, then one untraced and one traced repetition;
    // the difference between those two is what the tracing (scrape
    // endpoint, held Byes) costs.
    let mut reps: Vec<Rep> = Vec::new();
    for (name, traced_rep) in [
        ("warm-up", false),
        ("repetition.untraced", false),
        ("repetition.traced", true),
    ] {
        let span = spans.enter(name);
        let rep = run::verified_rep(w, seed, env, &mut expect, traced_rep, spans);
        spans.exit(span);
        if let (Some(rep), true) = (outcome.absorb(rep), name != "warm-up") {
            reps.push(rep);
        }
    }
    let expect = expect.expect("computed before the repetitions");
    let (Some(untraced), Some(rep)) = (reps.first(), reps.get(1)) else {
        spans.exit(root);
        return outcome;
    };

    // The replay: the same elements through each layer's public functions.
    let keys = sample_values(&feeds, 10_000);
    spans.span("replay.temporal", || temporal(&mut ledger, &keys));
    spans.span("replay.net", || net(&mut ledger, &feeds[0]));
    spans.span("replay.engine.spsc", || engine_ring(&mut ledger));
    let core_busy = spans.span("replay.core", || {
        core(&mut ledger, &feeds, &expect.reference.order, &keys)
    });
    let run_ns = spans.span("replay.engine.merge_run", || plain_merge_run_ns(&feeds));
    let elements = rep.elements.max(1) as f64;
    ledger.insert(
        "engine.exec_ns_per_elem",
        ((run_ns - core_busy.push_batch_total_ns) / elements).max(0.0),
    );
    ledger.insert(
        "engine.elems_per_batch",
        elements / expect.reference.order.len().max(1) as f64,
    );
    let publish_total_ns = spans.span("replay.sub", || {
        sub(
            &mut ledger,
            &expect.reference.output,
            expect.reference.bytes.len(),
        )
    });
    let obs_ns_per_event = spans.span("replay.obs", || obs(&mut ledger));
    let durable_ns_per_byte = spans.span("replay.durable", || durable(&mut ledger, rep, env));
    if let Some(dir) = &rep.ckpt_dir {
        let _ = std::fs::remove_dir_all(dir);
    }

    // Counts and the repetition's own observations.
    let wire = !matches!(w.drive, Drive::Embed);
    ledger.insert("gen.feed_build_s", rep.feed_build_s);
    ledger.insert("gen.encode_prep_s", rep.encode_prep_s);
    ledger.insert(
        "net.wire_bytes_per_elem",
        rep.wire_bytes_in as f64 / elements,
    );
    ledger.insert("net.frames_per_elem", if wire { 1.0 } else { 0.0 });
    ledger.insert("net.handshake_ms", rep.handshake_ms);
    ledger.insert(
        "net.ring_full_stalls",
        scraped_sum(rep, "lmerge_net_ring_full_stalls_total"),
    );
    ledger.insert(
        "net.credits_granted",
        scraped_sum(rep, "lmerge_net_credits_granted_total"),
    );
    ledger.insert(
        "net.queue_depth_max",
        rep.scraped
            .get("lmerge_net_queue_depth")
            .map_or(0.0, |s| s.max),
    );
    ledger.insert(
        "sub.credit_stalls",
        scraped_sum(rep, "lmerge_sub_credit_stalls_total"),
    );
    let inserts_out = rep.latency_ms.len().max(1) as f64;
    ledger.insert("engine.fast_path_share", rep.fast_path as f64 / inserts_out);
    ledger.insert(
        "engine.blocked_on_slowest_share",
        1.0 - rep.fast_path as f64 / inserts_out,
    );
    ledger.insert("core.state_peak_bytes", rep.state_peak_bytes as f64);
    ledger.insert(
        "core.dup_absorbed_share",
        1.0 - rep.inserts_out as f64 / rep.inserts_in.max(1) as f64,
    );
    ledger.insert(
        "sub.epoch_hold_ms_p50",
        stats::quantile(&rep.epoch_hold_ms, 0.5),
    );
    // Wire: what the scrape endpoint and the held Byes cost. Embedded:
    // what the harness's own per-element stamps cost, against the plain
    // `MergeRun::run` of the same feeds.
    let untraced_eps = if wire {
        untraced.throughput_eps()
    } else {
        elements * 1e9 / run_ns
    };
    ledger.insert(
        "trace.overhead_share",
        1.0 - rep.throughput_eps() / untraced_eps,
    );
    ledger.insert("sut.cpu_user_s", rep.cpu_user_s);
    ledger.insert("sut.cpu_sys_s", rep.cpu_sys_s);
    ledger.insert("sut.vol_ctx_per_kelem", rep.ctxt.0 as f64 * 1e3 / elements);
    ledger.insert(
        "sut.invol_ctx_per_kelem",
        rep.ctxt.1 as f64 * 1e3 / elements,
    );
    ledger.insert("sut.threads_peak", rep.threads_peak as f64);
    ledger.insert("loadgen.late_p99_ms", stats::quantile(&rep.late_ms, 0.99));
    ledger.insert("loadgen.cpu_s", rep.loadgen_cpu_s);
    ledger.insert("loadgen.latency_p95_ms", rep.latency_quantile(0.95));
    ledger.insert("loadgen.latency_p99_ms", rep.latency_quantile(0.99));
    ledger.insert("loadgen.latency_samples", rep.latency_ms.len() as f64);

    // The ledger: what the stage costs, times their counts, explain of the
    // CPU the system actually used.
    let frames_in = if wire { elements } else { 0.0 };
    let stage_ns = [
        (
            "net",
            frames_in
                * ledger
                    .get("net.decode_ns_per_frame")
                    .copied()
                    .unwrap_or(0.0),
        ),
        (
            "engine",
            frames_in * ledger.get("engine.spsc_ns_per_op").copied().unwrap_or(0.0)
                + (run_ns - core_busy.push_batch_total_ns).max(0.0),
        ),
        ("core", core_busy.push_batch_total_ns),
        // The server traces every run: a delivery, a queue sample and one
        // event per emitted element. The library call traces nothing.
        (
            "obs",
            if wire {
                (2.0 * elements + rep.out_frames as f64) * obs_ns_per_event
            } else {
                0.0
            },
        ),
        ("sub", if wire { publish_total_ns } else { 0.0 }),
        ("durable", rep.ckpt_bytes as f64 * durable_ns_per_byte),
        // Socket reads and writes, wake-ups, file I/O: no public function
        // to replay, but the kernel keeps the count. (The durable replay
        // includes its own write calls, so on a checkpointing workload
        // these two rows overlap by that much.)
        ("kernel", rep.cpu_sys_s * 1e9),
    ];
    let cpu_ns = (rep.cpu_user_s + rep.cpu_sys_s) * 1e9;
    let explained: f64 = stage_ns.iter().map(|(_, ns)| ns).sum();
    // The kernel's CPU clocks tick every 10 ms: a `--quick` repetition can
    // finish inside one tick and read as no CPU at all.
    let share = |ns: f64| if cpu_ns > 0.0 { ns / cpu_ns } else { 0.0 };
    let unexplained = if cpu_ns > 0.0 {
        1.0 - share(explained)
    } else {
        0.0
    };
    ledger.insert("ledger.unexplained_share", unexplained);
    let mut rows: Vec<String> = stage_ns
        .iter()
        .map(|(layer, ns)| format!("{layer} {:.1}%", 100.0 * share(*ns)))
        .collect();
    rows.push(format!("unexplained {:.1}%", 100.0 * unexplained));
    outcome.notes.insert(
        0,
        format!(
            "ledger (share of {:.3} s system CPU): {}",
            cpu_ns / 1e9,
            rows.join(", ")
        ),
    );
    outcome.notes.insert(
        1,
        format!(
            "untraced {:.0} el/s, traced {:.0} el/s; {} threads at peak; {} latency samples",
            untraced_eps,
            rep.throughput_eps(),
            rep.threads_peak,
            rep.latency_ms.len()
        ),
    );

    debug_assert!(
        ledger
            .keys()
            .all(|k| crate::PER_LAYER.iter().any(|m| m.name == *k)),
        "a measured name is missing from the catalogue"
    );
    for m in &crate::PER_LAYER {
        outcome.values.push(Reported {
            name: m.name,
            unit: m.unit,
            value: ledger.get(m.name).copied().unwrap_or(0.0),
            spread: None,
        });
    }
    spans.exit(root);
    outcome
}
