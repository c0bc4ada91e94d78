//! Query jumpstart (paper Section II-4): a restarted query would take ages
//! to rebuild state from the live stream alone — long-lived events that
//! started before the restart are simply gone. Seeding through LMerge with
//! a checkpoint stream (state from disk or from a running copy) makes the
//! query whole immediately.
//!
//! Run with: `cargo run --example query_jumpstart`

use lmerge::core::{LMergeR3, LogicalMerge};
use lmerge::gen::{generate, GenConfig};
use lmerge::temporal::reconstitute::tdb_of;
use lmerge::temporal::{Element, StreamId, Tdb, Time, Value};

fn main() {
    // A long-running source with long-lived events (think OS processes
    // that have been running for days).
    let cfg = GenConfig {
        num_events: 5_000,
        disorder: 0.0,
        disorder_window_ms: 0,
        stable_freq: 0.01,
        event_duration_ms: 5_000, // long lifetimes relative to the gap
        max_gap_ms: 20,
        min_gap_ms: 1, // distinct timestamps give a crisp restart boundary
        payload_len: 16,
        ..Default::default()
    };
    let reference = generate(&cfg);

    // The query instance dies 70% of the way in.
    let split = reference.elements.len() * 7 / 10;
    let (history, live) = reference.elements.split_at(split);
    let restart_time = history
        .iter()
        .filter_map(|e| e.key().map(|(vs, _)| vs))
        .max()
        .unwrap_or(Time::ZERO);
    // The checkpoint is complete for everything before the live stream's
    // first event: promising stability up to there protects the seeded
    // events from the missing-element rule once the checkpoint detaches.
    let live_start = live
        .iter()
        .filter_map(|e| e.key().map(|(vs, _)| vs))
        .min()
        .unwrap_or(restart_time);

    // What the world looked like at the restart: every event still alive.
    let history_tdb = tdb_of(history).expect("history well formed");
    let checkpoint_events: Vec<(Value, Time, Time)> = history_tdb
        .iter()
        .filter(|(_, ve, _)| *ve >= restart_time)
        .map(|((vs, p), ve, _)| (p.clone(), *vs, ve))
        .collect();
    println!(
        "query restarts at t={restart_time}: {} events still alive in lost state",
        checkpoint_events.len()
    );

    // Cold restart: only the live stream.
    let cold: Tdb<Value> = {
        let mut lm: LMergeR3<Value> = LMergeR3::new(1);
        let mut out = Vec::new();
        for e in live {
            lm.push(StreamId(0), e, &mut out);
        }
        tdb_of(&out).unwrap()
    };

    // Jumpstart: LMerge over (checkpoint stream, live stream). The
    // checkpoint replays the surviving state as inserts, then promises it
    // is complete up to the restart time.
    let jumpstarted: Tdb<Value> = {
        let mut lm: LMergeR3<Value> = LMergeR3::new(2);
        let mut out = Vec::new();
        for (p, vs, ve) in &checkpoint_events {
            lm.push(StreamId(0), &Element::insert(p.clone(), *vs, *ve), &mut out);
        }
        lm.push(StreamId(0), &Element::stable(live_start), &mut out);
        // The checkpoint source is finite: detach it and run on live data.
        lm.detach(StreamId(0));
        for e in live {
            lm.push(StreamId(1), e, &mut out);
        }
        tdb_of(&out).unwrap()
    };

    // Ground truth: everything relevant after the restart.
    let expected: Tdb<Value> = reference
        .tdb()
        .iter()
        .filter(|(_, ve, _)| *ve >= restart_time)
        .flat_map(|((vs, p), ve, c)| {
            std::iter::repeat_with(move || lmerge::temporal::Event::new(p.clone(), *vs, ve)).take(c)
        })
        .collect();

    println!(
        "cold restart recovers {} events; jumpstarted recovers {} (expected {})",
        cold.len(),
        jumpstarted.len(),
        expected.len()
    );
    assert_eq!(jumpstarted, expected, "jumpstart must be complete");
    assert!(
        cold.len() < expected.len(),
        "cold restart must actually be missing state for this demo"
    );
    println!(
        "jumpstart recovered {} long-lived events a cold restart lost",
        expected.len() - cold.len()
    );
}
