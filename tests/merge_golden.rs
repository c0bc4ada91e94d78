//! Golden behaviour digests: what every merge variant emits, counts,
//! traces and checkpoints on a fixed set of seeded feeds, pinned as FNV-64
//! digests in `tests/golden/merge_digests.txt`.
//!
//! Every other differential suite compares two operators of the *same*
//! build; this one compares the build against a committed record, so a
//! refactor of the operators' shared code has to reproduce the old
//! behaviour byte for byte. Each cell records four digests:
//!
//! * `out`   — the emitted elements, in order;
//! * `stats` — final `stats()`, `input_counters()` and `max_stable()`;
//! * `image` — the LMCK snapshot envelope of `export_state()` (format
//!   version and kind tag included, so old checkpoints keep restoring);
//! * `trace` — the JSONL trace of a `MergeRun` over the same feeds with
//!   memory sampling off.
//!
//! Feeds: R0–R2 on ordered copies; R3+ under six policies, R3− and R4 on
//! generated divergent copies and on garbage. Each
//! operator is driven element by element and in seeded `push_batch` runs,
//! and traced with one-element and four-element executor batches.
//!
//! On an intended behaviour change the failure message prints the new
//! file; replace the golden with it.

use lmerge::chaos::{restricted_feeds, timed, ChaosConfig, Chunker};
use lmerge::core::hash::Fnv1a;
use lmerge::core::{
    InsertPolicy, LMergeR0, LMergeR1, LMergeR2, LMergeR3, LMergeR3Naive, LMergeR4, LogicalMerge,
    MergePolicy, StablePolicy,
};
use lmerge::durable::{
    envelope, get_merge_image, open_envelope, put_merge_image, Cursor, FileKind,
};
use lmerge::engine::{MergeRun, NoHooks, Operator, Query, RunConfig, TimedElement};
use lmerge::gen::{diverge, generate, DivergenceConfig, GenConfig};
use lmerge::obs::export::to_jsonl;
use lmerge::obs::Tracer;
use lmerge::temporal::{Element, StreamId, Value};
use rand::prelude::*;
use std::fmt::Write as _;
use std::rc::Rc;

type Feeds = Vec<Vec<Element<Value>>>;
type Build = Rc<dyn Fn() -> Box<dyn LogicalMerge<Value>>>;

const N_INPUTS: usize = 3;

fn digest(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.update(bytes);
    h.value()
}

/// Divergent copies of one generated stream (duplicates only for R4).
fn divergent(seed: u64, duplicate_prob: f64) -> Feeds {
    let gc = GenConfig {
        duplicate_prob,
        ..GenConfig::small(150, seed).with_stable_freq(0.06)
    };
    let r = generate(&gc);
    let dcfg = DivergenceConfig {
        seed: seed.wrapping_mul(0x9E37_79B9).wrapping_add(1),
        ..DivergenceConfig::default()
    };
    (0..N_INPUTS)
        .map(|c| diverge(&r.elements, &dcfg, c as u64))
        .collect()
}

/// Contract-free feeds over a tiny domain around a drifting clock:
/// collisions, stale or unmatched adjusts, regressing punctuation and
/// inputs that disagree on everything are common.
fn garbage(seed: u64) -> Feeds {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..N_INPUTS)
        .map(|_| {
            let mut now = 0i64;
            let mut live: Vec<(i32, i64, i64)> = Vec::new();
            (0..rng.random_range(60usize..120))
                .map(|_| {
                    now += rng.random_range(0i64..3);
                    let key = rng.random_range(0i32..4);
                    let vs = now + rng.random_range(-4i64..12);
                    let ve = vs + rng.random_range(1i64..15);
                    match rng.random_range(0u32..8) {
                        0..=3 => {
                            live.push((key, vs, ve));
                            Element::insert(Value::synthetic(key, 8), vs, ve)
                        }
                        4 | 5 if !live.is_empty() => {
                            // Revise (or cancel) something this input sent.
                            let i = rng.random_range(0..live.len());
                            let (k, vs, old) = live[i];
                            let new = if rng.random_bool(0.2) {
                                vs
                            } else {
                                ve.max(vs + 1)
                            };
                            live[i].2 = new;
                            Element::adjust(Value::synthetic(k, 8), vs, old, new)
                        }
                        4 | 5 => Element::adjust(Value::synthetic(key, 8), vs, ve, ve + 3),
                        _ => Element::stable(now - rng.random_range(0i64..6)),
                    }
                })
                .collect()
        })
        .collect()
}

/// Ordered insert-only copies for the restricted variants.
fn ordered(seed: u64) -> Feeds {
    let cfg = ChaosConfig {
        events: 150,
        ..ChaosConfig::small(seed)
    };
    restricted_feeds(&cfg)
        .1
        .into_iter()
        .map(|f| f.into_iter().map(|te| te.element).collect())
        .collect()
}

/// One seeded global interleaving of the copies: `(input, element)`.
fn interleave(feeds: &Feeds, seed: u64) -> Vec<(u32, Element<Value>)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut next = vec![0usize; feeds.len()];
    let mut order = Vec::new();
    loop {
        let live: Vec<usize> = (0..feeds.len())
            .filter(|&i| next[i] < feeds[i].len())
            .collect();
        if live.is_empty() {
            return order;
        }
        let i = live[rng.random_range(0..live.len())];
        // Runs of up to six from one input, so batches have something to
        // group.
        for _ in 0..rng.random_range(1usize..7) {
            if next[i] < feeds[i].len() {
                order.push((i as u32, feeds[i][next[i]].clone()));
                next[i] += 1;
            }
        }
    }
}

/// The four digests of driving `order` into a fresh operator, per element
/// or in seeded `push_batch` runs of consecutive same-input elements.
fn drive(build: &Build, order: &[(u32, Element<Value>)], batched: bool, seed: u64) -> String {
    let mut lm = build();
    let mut out = Vec::new();
    if batched {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut i = 0;
        while i < order.len() {
            let s = order[i].0;
            let mut j = i;
            let take = rng.random_range(1usize..6);
            let mut run = Vec::new();
            while j < order.len() && order[j].0 == s && run.len() < take {
                run.push(order[j].1.clone());
                j += 1;
            }
            lm.push_batch(StreamId(s), &run, &mut out);
            i = j;
        }
    } else {
        for (s, e) in order {
            lm.push(StreamId(*s), e, &mut out);
        }
    }
    let emitted: String = out.iter().map(|e| format!("{e:?}\n")).collect();
    let stats = format!(
        "{:?} {:?} {:?}",
        lm.stats(),
        lm.input_counters(),
        lm.max_stable()
    );
    let image = lm.export_state().expect("every variant exports");
    let mut body = Vec::new();
    put_merge_image(&mut body, &image);
    let file = envelope(FileKind::Snapshot, &body);

    // The encoded snapshot restores into a fresh operator that exports
    // the same bytes again.
    let (kind, payload) = open_envelope(&file).expect("own envelope opens");
    assert_eq!(kind, FileKind::Snapshot);
    let decoded = get_merge_image::<Value>(&mut Cursor::new(payload)).expect("own image decodes");
    let mut restored = build();
    assert!(restored.restore_state(decoded), "image restores");
    let mut again = Vec::new();
    put_merge_image(&mut again, &restored.export_state().expect("exports"));
    assert_eq!(again, body, "restore → export is byte-identical");

    format!(
        "out={:016x} stats={:016x} image={:016x}",
        digest(emitted.as_bytes()),
        digest(stats.as_bytes()),
        digest(&file)
    )
}

/// Digest of the JSONL trace of a `MergeRun` over the copies, with the
/// executor delivering batches of up to `chunk` data elements.
fn trace(build: &Build, feeds: &Feeds, chunk: usize) -> String {
    let queries = feeds
        .iter()
        .enumerate()
        .map(|(c, f)| {
            let timed: Vec<TimedElement<Value>> = timed(c, f.clone());
            let chain: Vec<Box<dyn Operator<Value>>> = vec![Box::new(Chunker::new(chunk))];
            Query::new(timed, chain)
        })
        .collect();
    let config = RunConfig {
        mem_sample_every: 0,
        ..RunConfig::default()
    };
    let mut tracer = Tracer::new();
    MergeRun::new(queries, build(), config).run_with_hooks(&mut tracer, &mut NoHooks);
    format!("{:016x}", digest(to_jsonl(tracer.events()).as_bytes()))
}

fn build(f: impl Fn() -> Box<dyn LogicalMerge<Value>> + 'static) -> Build {
    Rc::new(f)
}

fn r3(policy: MergePolicy) -> Build {
    build(move || Box::new(LMergeR3::with_policy(N_INPUTS, policy)))
}

/// Every `(cell name, operator, feeds)` the golden file pins.
fn cells() -> Vec<(String, Build, Feeds)> {
    let restricted = [
        ("r0", build(|| Box::new(LMergeR0::new(N_INPUTS)))),
        ("r1", build(|| Box::new(LMergeR1::new(N_INPUTS)))),
        ("r2", build(|| Box::new(LMergeR2::new(N_INPUTS)))),
    ];
    let insert = |insert| MergePolicy {
        insert,
        ..MergePolicy::default()
    };
    // (name, operator, duplicate probability of its divergent feeds)
    let general = [
        ("r3", r3(MergePolicy::default()), 0.0),
        ("r3_eager", r3(MergePolicy::eager()), 0.0),
        ("r3_wait_half_frozen", r3(MergePolicy::conservative()), 0.0),
        ("r3_quorum2", r3(insert(InsertPolicy::Quorum(2))), 0.0),
        (
            "r3_follow_leader",
            r3(insert(InsertPolicy::FollowLeader)),
            0.0,
        ),
        (
            "r3_lag5",
            r3(MergePolicy {
                stable: StablePolicy::Lag(5),
                ..MergePolicy::default()
            }),
            0.0,
        ),
        (
            "r3_naive",
            build(|| Box::new(LMergeR3Naive::new(N_INPUTS))),
            0.0,
        ),
        ("r4", build(|| Box::new(LMergeR4::new(N_INPUTS))), 0.1),
    ];
    let mut cells = Vec::new();
    for (name, mk) in restricted {
        for seed in [11u64, 12] {
            cells.push((format!("{name}/ordered{seed}"), mk.clone(), ordered(seed)));
        }
    }
    for (name, mk, dup) in general {
        for seed in [21u64, 22] {
            let feeds = divergent(seed, dup);
            cells.push((format!("{name}/divergent{seed}"), mk.clone(), feeds));
        }
        for seed in [31u64, 32] {
            cells.push((format!("{name}/garbage{seed}"), mk.clone(), garbage(seed)));
        }
    }
    cells
}

fn render() -> String {
    let mut s = String::new();
    for (name, build, feeds) in cells() {
        let order = interleave(&feeds, 0x601D);
        let _ = writeln!(s, "{name} push {}", drive(&build, &order, false, 0));
        let _ = writeln!(s, "{name} batch {}", drive(&build, &order, true, 0xBA7C));
        for chunk in [1, 4] {
            let _ = writeln!(s, "{name} trace{chunk} {}", trace(&build, &feeds, chunk));
        }
    }
    s
}

#[test]
fn merge_behaviour_matches_the_golden_digests() {
    let rendered = render();
    let golden = include_str!("golden/merge_digests.txt");
    let drifted: Vec<String> = rendered
        .lines()
        .zip(golden.lines())
        .filter(|(r, g)| r != g)
        .map(|(r, g)| format!("  golden {g}\n  now    {r}"))
        .collect();
    assert!(
        drifted.is_empty() && rendered.lines().count() == golden.lines().count(),
        "merge behaviour drifted from tests/golden/merge_digests.txt:\n{}\n\
         if intentional, replace the golden with:\n{rendered}",
        drifted.join("\n")
    );
}
