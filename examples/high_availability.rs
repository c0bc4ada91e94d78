//! High availability (paper Section II-1): run three replicas of a query,
//! kill two of them mid-stream, attach a fresh replacement — the merged
//! output never misses a beat.
//!
//! Run with: `cargo run --example high_availability`

use lmerge::core::{LMergeR3, LogicalMerge};
use lmerge::gen::{diverge, generate, DivergenceConfig, GenConfig};
use lmerge::temporal::consistency::all_equivalent;
use lmerge::temporal::reconstitute::tdb_of;
use lmerge::temporal::{StreamId, Time};

fn main() {
    // One logical stream, three physically divergent replicas.
    let cfg = GenConfig::small(3_000, 7);
    let reference = generate(&cfg);
    let div = DivergenceConfig::default();
    let replicas: Vec<_> = (0..4)
        .map(|i| diverge(&reference.elements, &div, i))
        .collect();

    let mut lmerge = LMergeR3::new(3);
    let mut output = Vec::new();
    let mut cursors = [0usize; 4];
    let mut spare_attached: Option<StreamId> = None;

    // Round-robin the three replicas; fail replica 0 after 30% and replica 1
    // after 60%; attach the spare (replica 3) when the first failure hits.
    let fail_at_0 = replicas[0].len() * 3 / 10;
    let fail_at_1 = replicas[1].len() * 6 / 10;
    let mut step = 0usize;
    loop {
        let mut progressed = false;
        for r in 0..4usize {
            let id = match r {
                3 => match spare_attached {
                    Some(id) => id,
                    None => continue, // not attached yet
                },
                _ => StreamId(r as u32),
            };
            if r == 0 && cursors[0] == fail_at_0 {
                println!("!! replica 0 fails at element {step}");
                lmerge.detach(StreamId(0));
                // Spin up a replacement: it replays from the beginning, so
                // it joins with full coverage (Time::MIN).
                let sid = lmerge.attach(Time::MIN);
                println!("++ spare replica attached as input {}", sid.0);
                spare_attached = Some(sid);
                cursors[0] = usize::MAX; // never serve again
                continue;
            }
            if r == 1 && cursors[1] == fail_at_1 {
                println!("!! replica 1 fails at element {step}");
                lmerge.detach(StreamId(1));
                cursors[1] = usize::MAX;
                continue;
            }
            if cursors[r] == usize::MAX || cursors[r] >= replicas[r].len() {
                continue;
            }
            lmerge.push(id, &replicas[r][cursors[r]], &mut output);
            cursors[r] += 1;
            step += 1;
            progressed = true;
        }
        if !progressed {
            break;
        }
    }

    let merged = tdb_of(&output).expect("output well formed");
    println!(
        "\nsurvived 2 failures: merged TDB has {} events (reference has {})",
        merged.len(),
        reference.tdb().len()
    );
    assert!(all_equivalent(&[&merged, &reference.tdb()]));
    println!("merged output ≡ reference stream — no losses, no duplicates");
    let stats = lmerge.stats();
    println!(
        "stats: {} inserts in → {} out, {} duplicates absorbed",
        stats.inserts_in, stats.inserts_out, stats.dropped
    );
}
