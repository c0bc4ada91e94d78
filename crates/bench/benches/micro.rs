//! Micro-benchmarks: per-element operator costs.
//!
//! These complement the figure harness (which measures end-to-end shapes)
//! with per-element numbers: insert cost per LMerge variant, adjust-heavy
//! revision cost, stable-processing cost, the stable sweep over a large
//! live window (settled, all of it due, and in steady state with ~1% due,
//! with and without late adjusts to 1% of the older nodes),
//! the index's own sweep and memory estimate, its probes and inserts (in
//! order and in bit-reversed order), the O(1) batched discard of
//! lagging inputs, reconstitution overhead, and the shared stream reader
//! (`wire::FrameReader`: ns and `read` calls per frame). A plain timing harness
//! (best-of-N over a few repeats) keeps the workspace free of external
//! benchmark frameworks; run with `cargo bench -p lmerge-bench`.
//!
//! Results are printed progressively and also persisted as
//! `target/bench-results/BENCH_micro.json` (one record per case, with
//! `throughput_eps = 1e9 / ns-per-element`). `LMERGE_BENCH_QUICK=1`
//! shrinks sizes and repeats for CI smoke runs.

use lmerge_bench::report::MetricsRecord;
use lmerge_bench::{variants, Report, VariantKind};
use lmerge_gen::{generate, GenConfig};
use lmerge_net::wire::{self, Frame, FrameReader};
use lmerge_temporal::reconstitute::Reconstituter;
use lmerge_temporal::{Element, StreamId, VTime, Value};
use std::hint::black_box;
use std::time::Instant;

/// Whether the CI smoke mode is on.
fn quick_mode() -> bool {
    std::env::var("LMERGE_BENCH_QUICK").is_ok_and(|v| v != "0")
}

/// Pick the full or the smoke-sized parameter.
fn sized(full: usize, quick: usize) -> usize {
    if quick_mode() {
        quick
    } else {
        full
    }
}

fn repeats() -> usize {
    if quick_mode() {
        2
    } else {
        5
    }
}

/// Record one case: progressive line, table row, and JSON metric.
fn record(report: &mut Report, label: &str, ns: f64) {
    println!("{label:<44} {ns:>9.1} ns/element");
    report.row(&[label.to_string(), format!("{ns:.1}")]);
    report.metric(
        label,
        MetricsRecord {
            throughput_eps: if ns > 0.0 { 1e9 / ns } else { 0.0 },
            ..Default::default()
        },
    );
}

/// Run `f` a few times and return the best per-element cost in ns.
fn time_per_element(elements: usize, mut f: impl FnMut() -> u64) -> f64 {
    let mut best = f64::INFINITY;
    let mut sink = 0u64;
    for _ in 0..repeats() {
        let start = Instant::now();
        sink = sink.wrapping_add(f());
        let ns = start.elapsed().as_nanos() as f64 / elements as f64;
        best = best.min(ns);
    }
    black_box(sink);
    best
}

fn bench_inserts(report: &mut Report) {
    let cfg = GenConfig {
        num_events: sized(10_000, 2_000),
        disorder: 0.0,
        disorder_window_ms: 0,
        stable_freq: 0.01,
        event_duration_ms: 1_000,
        max_gap_ms: 20,
        payload_len: 100,
        ..Default::default()
    };
    let stream = generate(&cfg).elements;

    println!("\n== merge_10k_ordered_elements ==");
    for v in variants() {
        let ns = time_per_element(stream.len(), || {
            let mut lm = v.build(2);
            let mut out = Vec::new();
            for e in &stream {
                lm.push(StreamId(0), black_box(e), &mut out);
                out.clear();
            }
            lm.stats().inserts_out
        });
        record(report, &format!("ordered/{}", v.label()), ns);
    }
}

fn bench_adjust_heavy(report: &mut Report) {
    // Insert + two adjusts per event: the revision-heavy R3/R4 regime.
    let mut elems: Vec<Element<Value>> = Vec::new();
    for i in 0..sized(5_000, 1_000) as i64 {
        let p = Value::synthetic((i % 400) as i32, 100);
        elems.push(Element::insert(p.clone(), i, i + 100));
        elems.push(Element::adjust(p.clone(), i, i + 100, i + 50));
        elems.push(Element::adjust(p, i, i + 50, i + 75));
        if i % 100 == 99 {
            elems.push(Element::stable(i - 100));
        }
    }
    println!("\n== merge_adjust_heavy ==");
    for v in [VariantKind::R3Plus, VariantKind::R3Minus, VariantKind::R4] {
        let ns = time_per_element(elems.len(), || {
            let mut lm = v.build(1);
            let mut out = Vec::new();
            for e in &elems {
                lm.push(StreamId(0), black_box(e), &mut out);
                out.clear();
            }
            lm.stats().adjusts_out
        });
        record(report, &format!("adjust_heavy/{}", v.label()), ns);
    }
}

fn bench_stable_processing(report: &mut Report) {
    // Cost of one stable() over a populated in2t index.
    println!("\n== r3_stable_over_live_index ==");
    for w in [sized(1_000, 500), sized(10_000, 2_000)] {
        let ns = time_per_element(w, || {
            let mut lm = VariantKind::R3Plus.build(1);
            let mut out = Vec::new();
            for i in 0..w as i64 {
                lm.push(
                    StreamId(0),
                    &Element::insert(Value::bare(i as i32), i, i + 5),
                    &mut out,
                );
                out.clear();
            }
            lm.push(StreamId(0), &Element::stable(2 * w as i64), &mut out);
            out.len() as u64
        });
        record(report, &format!("stable/w={w}"), ns);
    }
}

fn bench_stable_sweep(report: &mut Report) {
    // High StableFreq over a large live window whose end times lie far
    // beyond the stables; reported cost is ns per live node per stable.
    // `stable_sweep/*` has one input: the first stable visits every node
    // and settles its tier, the rest step over them (the key's committed
    // baselines stay comparable across the change that introduced the
    // skip). `stable_sweep/all_due/*` is the sweep at its honest limit: a
    // second, far-lagging replica has delivered nothing, no tier is settled
    // while an attached input lacks its nodes, and every stable visits all
    // `nodes` kept nodes.
    let nodes = sized(10_000, 1_000);
    let stables = sized(200, 20);
    println!("\n== stable_sweep_{nodes}_live_nodes ==");
    for (inputs, case) in [(1, "stable_sweep"), (2, "stable_sweep/all_due")] {
        for v in [VariantKind::R3Plus, VariantKind::R4] {
            let mut best = f64::INFINITY;
            for _ in 0..repeats() {
                let mut lm = v.build(inputs);
                let mut out = Vec::new();
                for i in 0..nodes as i64 {
                    lm.push(
                        StreamId(0),
                        &Element::insert(Value::bare(i as i32), i, i + 100_000_000),
                        &mut out,
                    );
                    out.clear();
                }
                let start = Instant::now();
                for k in 0..stables as i64 {
                    lm.push(
                        StreamId(0),
                        &Element::stable(nodes as i64 + 1 + k),
                        &mut out,
                    );
                    out.clear();
                }
                let ns = start.elapsed().as_nanos() as f64 / (stables * nodes) as f64;
                best = best.min(ns);
            }
            record(report, &format!("{case}/{}", v.label()), best);
        }
    }
}

fn bench_stable_sweep_settled(report: &mut Report) {
    // The sweep in steady state (the paper's defaults: ~10 K active events,
    // StableFreq 1%): one node per time unit living `nodes` units, a stable
    // every `step` units. Each stable owes something to the `step` nodes
    // that just ended and the `step` that arrived since the last one (~1%
    // each); the rest of the live set sits in settled tiers. In
    // `stable_sweep/touched/*` a late adjust also reaches `step` older
    // nodes, scattered over the window, between stables: each unsettles
    // its tier. Only the stables are timed; reported cost is ns per *live*
    // node per stable, the same denominator as the cases above.
    let nodes = sized(10_000, 1_000) as i64;
    let step = nodes / 100;
    let stables = sized(200, 20) as i64;
    let payload = |i: i64| Value::bare(i as i32);
    println!("\n== stable_sweep_settled_{nodes}_live_nodes ==");
    for (case, touched) in [("settled", false), ("touched", true)] {
        for v in [VariantKind::R3Plus, VariantKind::R4] {
            let mut best = f64::INFINITY;
            for _ in 0..repeats() {
                let mut lm = v.build(1);
                let mut out = Vec::new();
                // Each node's current end time, by `Vs`.
                let mut ends: Vec<i64> = (0..nodes + stables * step).map(|i| i + nodes).collect();
                let insert = |i: i64| Element::insert(payload(i), i, i + nodes);
                for i in 0..nodes {
                    lm.push(StreamId(0), &insert(i), &mut out);
                }
                let mut busy = std::time::Duration::ZERO;
                for k in 0..stables {
                    let now = nodes + k * step;
                    for i in now..now + step {
                        lm.push(StreamId(0), &insert(i), &mut out);
                    }
                    for j in 0..step * i64::from(touched) {
                        // Spread over the nodes no stable below `now + step`
                        // retires.
                        let i = now - 1 - (j * 7_919 + k * 104_729) % (nodes - step);
                        let ve = &mut ends[i as usize];
                        let adjust = Element::adjust(payload(i), i, *ve, *ve + 1);
                        lm.push(StreamId(0), &adjust, &mut out);
                        *ve += 1;
                    }
                    out.clear();
                    let start = Instant::now();
                    lm.push(StreamId(0), &Element::stable(now + step), &mut out);
                    busy += start.elapsed();
                }
                let ns = busy.as_nanos() as f64 / (stables * nodes) as f64;
                best = best.min(ns);
            }
            record(report, &format!("stable_sweep/{case}/{}", v.label()), best);
        }
    }
}

fn bench_index(report: &mut Report) {
    // The index on its own: the in-place sweep with a visitor that makes no
    // promise (`Keep`), so every node is visited every round — ns per
    // visited node — and the O(1) memory estimate of an LMR3+ merge holding
    // the same nodes, which the executor samples every 256 batches — ns per
    // call.
    use lmerge_core::in2t::In2t;
    use lmerge_core::{LMergeR3, LogicalMerge, SweepAction};
    use lmerge_temporal::Time;
    let nodes = sized(10_000, 1_000);
    let rounds = sized(100, 10);
    let t = Time(nodes as i64 + 1);
    let build = || {
        let mut ix: In2t<Value> = In2t::new();
        let mut lm: LMergeR3<Value> = LMergeR3::new(1);
        let mut out = Vec::new();
        for i in 0..nodes as i64 {
            let (v, ve) = (Value::synthetic(i as i32, 100), i + 100_000_000);
            ix.add_node(Time(i), v.clone())
                .set_input(StreamId(0), Time(ve));
            lm.push(StreamId(0), &Element::insert(v, i, ve), &mut out);
        }
        (ix, lm)
    };
    println!("\n== in2t ({nodes} nodes) ==");
    let mut best_sweep = f64::INFINITY;
    let mut best_mem = f64::INFINITY;
    for _ in 0..repeats() {
        let (mut ix, lm) = build();
        let start = Instant::now();
        for _ in 0..rounds {
            ix.sweep_half_frozen(t, |_, _, node| {
                black_box(node);
                SweepAction::Keep
            });
        }
        let ns = start.elapsed().as_nanos() as f64 / (rounds * nodes) as f64;
        best_sweep = best_sweep.min(ns);

        let calls = rounds * 1_000;
        let start = Instant::now();
        for _ in 0..calls {
            black_box(black_box(&lm).memory_bytes());
        }
        let ns = start.elapsed().as_nanos() as f64 / calls as f64;
        best_mem = best_mem.min(ns);
    }
    record(report, "sweep_api/in_place", best_sweep);
    record(report, "in2t/memory_bytes", best_mem);
}

fn bench_index_ops(report: &mut Report) {
    // The `Vs` index alone, one payload per `Vs` (the paper's generator's
    // shape): a probe that hits, an insert of a fresh `Vs` in order (the
    // append a replica's traffic mostly is), and an insert in bit-reversed
    // order over 50 000 keys, the adversarial order for a sorted sequence.
    use lmerge_core::in2t::In2t;
    use lmerge_temporal::Time;
    let n = sized(10_000, 2_000);
    let keys: Vec<(Time, Value)> = (0..n as i64)
        .map(|i| (Time(i), Value::bare(i as i32)))
        .collect();
    let build = |keys: &[(Time, Value)]| {
        let mut ix: In2t<Value> = In2t::new();
        for (vs, v) in keys {
            ix.add_node(*vs, v.clone());
        }
        ix
    };
    println!("\n== index ({n} tiers; bit-reversed 50 000) ==");
    // Probe in a scattered order, so that consecutive probes share no path.
    let ix = build(&keys);
    let probes: Vec<&(Time, Value)> = (0..n).map(|i| &keys[i * 7_919 % n]).collect();
    let ns = time_per_element(n, || {
        probes
            .iter()
            .filter(|(vs, v)| black_box(&ix).get(*vs, v).is_some())
            .count() as u64
    });
    record(report, "index/probe_hit", ns);
    let ns = time_per_element(n, || build(black_box(&keys)).len() as u64);
    record(report, "index/insert_fresh", ns);
    let bits = 16;
    let reversed: Vec<(Time, Value)> = (0..1u32 << bits)
        .map(|i| i.reverse_bits() >> (32 - bits))
        .filter(|&k| k < 50_000)
        .map(|k| (Time(i64::from(k)), Value::bare(k as i32)))
        .collect();
    let ns = time_per_element(reversed.len(), || build(black_box(&reversed)).len() as u64);
    record(report, "index/insert_bit_reversed_50k", ns);
}

fn bench_batch_discard(report: &mut Report) {
    // The catching-up replica: input 1 replays an already-frozen prefix in
    // batches. `push_batch` discards each batch in O(1) from the per-batch
    // `Vs` range; the per-element path walks every element.
    let batch_len = sized(1_000, 200);
    let batches = sized(100, 10);
    let batch: Vec<Element<Value>> = (0..batch_len as i64)
        .map(|i| Element::insert(Value::bare(i as i32), i, i + 5))
        .collect();
    println!("\n== lagging_input_discard ({batches}x{batch_len}) ==");
    for v in [VariantKind::R3Plus, VariantKind::R4] {
        for (mode, batched) in [("batched", true), ("per_element", false)] {
            let mut best = f64::INFINITY;
            for _ in 0..repeats() {
                let mut lm = v.build(2);
                let mut out = Vec::new();
                // Freeze far past the batch's Vs range; the index empties.
                lm.push(StreamId(0), &Element::stable(1_000_000), &mut out);
                out.clear();
                let start = Instant::now();
                for _ in 0..batches {
                    if batched {
                        lm.push_batch(StreamId(1), black_box(&batch), &mut out);
                    } else {
                        for e in &batch {
                            lm.push(StreamId(1), black_box(e), &mut out);
                        }
                    }
                    out.clear();
                }
                let ns = start.elapsed().as_nanos() as f64 / (batches * batch_len) as f64;
                best = best.min(ns);
            }
            record(report, &format!("discard/{}/{mode}", v.label()), best);
        }
    }
}

fn bench_reconstitution(report: &mut Report) {
    let cfg = GenConfig {
        num_events: sized(10_000, 2_000),
        payload_len: 100,
        event_duration_ms: 1_000,
        ..Default::default()
    };
    let stream = generate(&cfg).elements;
    println!("\n== reconstitute_10k ==");
    let ns = time_per_element(stream.len(), || {
        let mut r: Reconstituter<Value> = Reconstituter::new();
        for e in &stream {
            r.apply(black_box(e)).unwrap();
        }
        r.tdb().len() as u64
    });
    record(report, "reconstitute/tdb", ns);
}

/// An in-memory stream that gives each `read` all the caller's buffer
/// takes — a socket the sender keeps full — and counts the calls.
struct CountingRead<'a> {
    data: &'a [u8],
    reads: u64,
}

impl std::io::Read for CountingRead<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.reads += 1;
        self.data.read(buf)
    }
}

fn bench_frame_reader(report: &mut Report) {
    // The one reader every socket goes through, on the two payload sizes
    // the end-to-end benchmark uses. The `read` count is what a real socket
    // turns into system calls: per refill, not per frame.
    let frames = sized(200_000, 20_000);
    println!("\n== wire_frame_reader ({frames} frames) ==");
    for payload_len in [32usize, 1000] {
        let mut bytes = Vec::new();
        for seq in 0..frames as u64 {
            let frame = Frame::Data {
                seq,
                at: VTime(seq),
                element: Element::insert(Value::synthetic(seq as i32, payload_len), 0, 9),
            };
            wire::encode_into(&frame, &mut bytes);
        }
        let mut reads = 0;
        let ns = time_per_element(frames, || {
            let mut reader = FrameReader::new(CountingRead {
                data: black_box(&bytes),
                reads: 0,
            });
            let mut seqs = 0u64;
            while let Some(Frame::Data { seq, .. }) = reader.next_frame().expect("own encoding") {
                seqs = seqs.wrapping_add(seq);
            }
            reads = reader.get_ref().reads;
            seqs
        });
        let label = format!("wire/frame_reader/{payload_len}B");
        record(report, &label, ns);
        let per_frame = reads as f64 / frames as f64;
        println!("{label:<44} {per_frame:>9.4} reads/frame");
        report.row(&[format!("{label} (reads/frame)"), format!("{per_frame:.4}")]);
    }
}

fn main() {
    let mut report = Report::new(
        "micro",
        "Per-element operator costs (best-of-N, ns/element)",
        &["case", "ns/element"],
    );
    bench_inserts(&mut report);
    bench_adjust_heavy(&mut report);
    bench_stable_processing(&mut report);
    bench_stable_sweep(&mut report);
    bench_stable_sweep_settled(&mut report);
    bench_index(&mut report);
    bench_index_ops(&mut report);
    bench_batch_discard(&mut report);
    bench_reconstitution(&mut report);
    bench_frame_reader(&mut report);
    println!();
    report.note(if quick_mode() {
        "quick mode (LMERGE_BENCH_QUICK): reduced sizes and repeats"
    } else {
        "full mode"
    });
    report.emit();
}
