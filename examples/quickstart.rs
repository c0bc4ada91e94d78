//! Quickstart: merge two physically different presentations of one logical
//! stream and watch LMerge keep the output compatible with both — then
//! re-run the same merge under the engine with tracing on, print the
//! observability summary, and write a Chrome trace-event timeline.
//!
//! Run with: `cargo run --example quickstart`

use lmerge::core::{LMergeR3, LogicalMerge};
use lmerge::engine::{MergeRun, NoHooks, Query, RunConfig, TimedElement};
use lmerge::obs::Tracer;
use lmerge::temporal::reconstitute::tdb_of;
use lmerge::temporal::{Element, StreamId, Time, VTime};

fn main() {
    // The two physical streams of the paper's Table I, in the StreamInsight
    // element model. They differ in order, provisional end times, and
    // punctuation — but describe the same temporal database:
    //   A valid over [6, 12), B valid over [8, 10).
    let phy1: Vec<Element<&str>> = vec![
        Element::insert("B", 8, Time::INFINITY),
        Element::insert("A", 6, 12),
        Element::adjust("B", 8, Time::INFINITY, Time(10)),
        Element::stable(11),
        Element::stable(Time::INFINITY),
    ];
    let phy2: Vec<Element<&str>> = vec![
        Element::insert("A", 6, 7),
        Element::insert("B", 8, 15),
        Element::adjust("A", 6, 7, 12),
        Element::adjust("B", 8, 15, 10),
        Element::stable(Time::INFINITY),
    ];

    let mut lmerge: LMergeR3<&str> = LMergeR3::new(2);
    let mut output = Vec::new();

    // Interleave the two inputs, as a network would.
    let (mut i1, mut i2) = (phy1.iter(), phy2.iter());
    loop {
        match (i1.next(), i2.next()) {
            (None, None) => break,
            (a, b) => {
                for (input, e) in [(0u32, a), (1u32, b)] {
                    if let Some(e) = e {
                        let before = output.len();
                        lmerge.push(StreamId(input), e, &mut output);
                        for out in &output[before..] {
                            println!("in{input}: {e:?}  →  out: {out:?}");
                        }
                        if output.len() == before {
                            println!("in{input}: {e:?}  →  (absorbed)");
                        }
                    }
                }
            }
        }
    }

    let tdb = tdb_of(&output).expect("LMerge output is always well formed");
    println!("\nmerged logical content: {tdb:?}");
    println!(
        "elements in: {}, elements out: {} (no duplicates, no losses)",
        phy1.len() + phy2.len(),
        output.len()
    );
    assert_eq!(tdb.count(&"A", Time(6), Time(12)), 1);
    assert_eq!(tdb.count(&"B", Time(8), Time(10)), 1);

    // Part two: the same merge under the virtual-time engine, traced. Each
    // input element arrives 1 ms after the previous one on its stream.
    let timed = |elems: &[Element<&'static str>], offset_us: u64| {
        elems
            .iter()
            .enumerate()
            .map(|(k, e)| TimedElement::new(VTime(offset_us + 1_000 * k as u64), e.clone()))
            .collect::<Vec<_>>()
    };
    let queries = vec![
        Query::passthrough(timed(&phy1, 0)),
        Query::passthrough(timed(&phy2, 500)),
    ];
    let mut tracer = Tracer::new();
    let metrics = MergeRun::new(
        queries,
        Box::new(LMergeR3::<&str>::new(2)),
        RunConfig::default(),
    )
    .run_with_hooks(&mut tracer, &mut NoHooks);

    println!("\n— traced run —");
    print!("{}", tracer.summary());
    println!(
        "throughput: {:.0} el/s (virtual), p99 latency: {} µs",
        metrics.throughput_eps(),
        metrics.latency_quantile_us(0.99)
    );

    // A Chrome trace-event timeline: open in about://tracing or Perfetto.
    let path = std::env::temp_dir().join("lmerge_quickstart_trace.json");
    if std::fs::write(&path, tracer.to_chrome_trace()).is_ok() {
        println!("chrome trace written to {}", path.display());
    }
}
