//! Settled-tier skipping is invisible: a merge whose `stable` sweeps skip
//! the tiers earlier sweeps settled must be indistinguishable — output
//! element for element, statistics, stable point, reported memory — from
//! one that walks every half-frozen node at every punctuation.
//!
//! The exhaustive twin needs no second sweep path. `restore_state` rebuilds
//! the index node by node, and every rebuilt tier starts with no promise,
//! so a merge that round-trips `export_state` → `restore_state` immediately
//! before each `stable` sweeps exhaustively through the public API alone.
//! Merge A runs the script as is, merge B with that round trip, and the two
//! are compared after every step.
//!
//! What makes a skipped tier dangerous is anything that changes what a
//! sweep would do *there* without the sweep having run: a late adjust or a
//! disagreeing duplicate insert into the tier (`get_mut`), an attach (the
//! joiner lacks every node, so the first stable it drives retires them),
//! an eager adjust rewriting the output's end time. The scripts below
//! contain all of them, under every insert policy, and the test fails when
//! `get_mut` or `attach` stops resetting, or when a visitor promises
//! `KeepUntil` for a node some attached input has not delivered. (The other
//! two resetting sites cannot lower a settled bound through the operators:
//! a node is only ever added at `Vs ≥ MaxStable`, where no sweep has been,
//! and a detach removes end times, which can only raise the minimum. They
//! reset because every `&mut` hand-out does; the index's unit tests pin
//! them.)
//!
//! Failing knob vectors shrink through `properties::shrink` before the
//! panic, so the report names a minimal reproduction.

use lmerge::core::{InsertPolicy, LMergeR3, LMergeR4, LogicalMerge, MergePolicy};
use lmerge::gen::timing::add_lag;
use lmerge::gen::{assign_times, diverge, generate, DivergenceConfig, GenConfig};
use lmerge::properties::shrink::{describe, minimize, Knob};
use lmerge::temporal::{Element, Event, Payload, StreamId, Time, Value};
use rand::prelude::*;

const INPUTS: usize = 3;
/// Arrival rate of every generated replica, elements per virtual second.
const RATE_EPS: f64 = 50_000.0;

/// One step of a script.
#[derive(Clone, Debug)]
enum Op<P: Payload> {
    Push(u32, Element<P>),
    Detach(u32),
    /// Attach one more input, correct from the given time on.
    Attach(Time),
}

/// A merge under test, with the memory a walk over its live nodes finds
/// where the variant keeps such an oracle (LMR4: its counts replace the
/// walk).
trait Merge<P: Payload>: LogicalMerge<P> {
    fn walked(&self) -> Option<usize> {
        None
    }
}

impl<P: Payload> Merge<P> for LMergeR3<P> {}

impl<P: Payload> Merge<P> for LMergeR4<P> {
    fn walked(&self) -> Option<usize> {
        Some(self.memory_bytes_walked())
    }
}

type Factory<'a, P> = &'a dyn Fn() -> Box<dyn Merge<P>>;

/// Everything the two merges must agree on after a step.
fn observed<P: Payload>(lm: &dyn Merge<P>) -> String {
    format!(
        "stats {:?}, max_stable {:?}, memory {}",
        lm.stats(),
        lm.max_stable(),
        lm.memory_bytes()
    )
}

/// Run `script` on a skipping merge and on its exhaustive twin; describe
/// the first step after which they differ.
fn diverges<P: Payload>(mk: Factory<P>, script: &[Op<P>]) -> Option<String> {
    let (mut a, mut b) = (mk(), mk());
    let (mut out_a, mut out_b) = (Vec::new(), Vec::new());
    // Outputs agree up to here; compare only what each step appended.
    let mut agreed = 0;
    for (step, op) in script.iter().enumerate() {
        match op {
            Op::Push(s, e) => {
                if matches!(e, Element::Stable(_)) {
                    let image = b.export_state().expect("R3/R4 export");
                    assert!(b.restore_state(image), "own image restores");
                }
                a.push(StreamId(*s), e, &mut out_a);
                b.push(StreamId(*s), e, &mut out_b);
            }
            Op::Detach(s) => {
                a.detach(StreamId(*s));
                b.detach(StreamId(*s));
            }
            Op::Attach(t) => assert_eq!(a.attach(*t), b.attach(*t)),
        }
        if out_a[agreed..] != out_b[agreed..] {
            let at = agreed
                + out_a[agreed..]
                    .iter()
                    .zip(&out_b[agreed..])
                    .position(|(x, y)| x != y)
                    .unwrap_or(out_a.len().min(out_b.len()) - agreed);
            return Some(format!(
                "step {step} ({op:?}): output differs at element {at}: skipping {:?}, exhaustive {:?}",
                out_a.get(at),
                out_b.get(at)
            ));
        }
        agreed = out_a.len();
        let (oa, ob) = (observed(a.as_ref()), observed(b.as_ref()));
        if oa != ob {
            return Some(format!(
                "step {step} ({op:?}): skipping [{oa}], exhaustive [{ob}]"
            ));
        }
        // The exhaustive twin's counts are rebuilt from its image at every
        // stable and agree with the skipping merge's; the walk checks the
        // skipping merge's counts at every step in between too.
        if let Some(walked) = a.walked().filter(|&w| w != a.memory_bytes()) {
            return Some(format!(
                "step {step} ({op:?}): counted memory {}, a walk finds {walked}",
                a.memory_bytes()
            ));
        }
    }
    None
}

fn r3<P: Payload>(policy: MergePolicy) -> impl Fn() -> Box<dyn Merge<P>> {
    move || Box::new(LMergeR3::with_policy(INPUTS, policy))
}

fn insert_policy(insert: InsertPolicy) -> MergePolicy {
    MergePolicy {
        insert,
        ..MergePolicy::default()
    }
}

/// Shrink and panic if `mk` distinguishes the two merges on `knobs`.
fn check<P: Payload>(
    name: &str,
    mk: Factory<P>,
    knobs: Vec<Knob>,
    script_of: &dyn Fn(&[Knob]) -> Vec<Op<P>>,
) {
    let fails = |k: &[Knob]| diverges(mk, &script_of(k)).is_some();
    if fails(&knobs) {
        let (min, probes) = minimize(knobs, fails);
        let why = diverges(mk, &script_of(&min)).unwrap_or_default();
        panic!(
            "{name}: settled-tier skipping is observable — {why}; minimal \
             reproduction after {probes} probes: {}",
            describe(&min)
        );
    }
}

// ---------------------------------------------------------------------
// Generated physically-divergent replicas with a detach and a join
// ---------------------------------------------------------------------

/// Script from `[events, disorder%, revision%, lag, seed]`: three
/// divergent replicas (replica `i` trailing by `i × lag` elements),
/// replica 2 detached a third of the way in, and a fourth replica attached
/// half way in that keeps every stable and does not lag — so once it is
/// trusted it is the one driving punctuation, over nodes it never
/// delivered. Odd seeds attach it as "saw everything" (`Time::MIN`, active
/// at once), even seeds as correct from the application time it starts at.
fn replica_script(k: &[Knob]) -> Vec<Op<Value>> {
    let (events, disorder, revision, lag, seed) = (
        k[0].value as usize,
        k[1].value as f64 / 100.0,
        k[2].value as f64 / 100.0,
        k[3].value,
        k[4].value,
    );
    // Lifetimes of ~100 mean gaps, a stable every ~10 elements, replicas a
    // few elements apart: a node is on record from every input long before
    // it ends, and most of the punctuations it lives through owe it nothing.
    let reference = generate(&GenConfig {
        num_events: events,
        disorder,
        disorder_window_ms: 40_000,
        stable_freq: 0.1,
        event_duration_ms: 1_000_000,
        payload_len: 16,
        seed,
        ..GenConfig::default()
    });
    let div = DivergenceConfig {
        revision_prob: revision,
        seed,
        ..DivergenceConfig::default()
    };
    let mut all: Vec<(u64, u32, Element<Value>)> = Vec::new();
    for i in 0..INPUTS {
        let copy = diverge(&reference.elements, &div, i as u64);
        let mut timed = assign_times(&copy, RATE_EPS);
        add_lag(&mut timed, i as u64 * lag * (1_000_000.0 / RATE_EPS) as u64);
        all.extend(
            timed
                .into_iter()
                .map(|(at, e)| (at.as_micros(), i as u32, e)),
        );
    }
    let joiner_div = DivergenceConfig {
        stable_keep_prob: 1.0,
        ..div
    };
    let copy = diverge(&reference.elements, &joiner_div, INPUTS as u64);
    let timed = assign_times(&copy, RATE_EPS);
    let joiner: Vec<_> = timed[timed.len() / 2..].to_vec();
    let join_time = if seed % 2 == 1 {
        Time::MIN
    } else {
        joiner
            .iter()
            .find_map(|(_, e)| match e {
                Element::Insert(ev) => Some(ev.vs),
                _ => None,
            })
            .unwrap_or(Time::MIN)
    };
    all.extend(
        joiner
            .into_iter()
            .map(|(at, e)| (at.as_micros(), INPUTS as u32, e)),
    );
    all.sort_by_key(|(at, i, _)| (*at, *i));

    let detach_at = all.len() / 3;
    let mut script = Vec::with_capacity(all.len() + 2);
    let mut attached = false;
    for (n, (_, i, e)) in all.into_iter().enumerate() {
        if n == detach_at {
            script.push(Op::Detach(2));
        }
        if !attached && i == INPUTS as u32 {
            script.push(Op::Attach(join_time));
            attached = true;
        }
        script.push(Op::Push(i, e));
    }
    script
}

#[test]
fn skipping_is_unobservable_on_divergent_replicas_with_detach_and_join() {
    let r3_default = r3(MergePolicy::default());
    let r3_eager = r3(MergePolicy::eager());
    let r3_wait = r3(insert_policy(InsertPolicy::WaitHalfFrozen));
    let r3_quorum = r3(insert_policy(InsertPolicy::Quorum(2)));
    let r3_leader = r3(insert_policy(InsertPolicy::FollowLeader));
    let r4 = || Box::new(LMergeR4::new(INPUTS)) as Box<dyn Merge<Value>>;
    let mks: [(&str, Factory<Value>); 6] = [
        ("LMR3+", &r3_default),
        ("LMR3+ eager adjusts", &r3_eager),
        ("LMR3+ WaitHalfFrozen", &r3_wait),
        ("LMR3+ Quorum(2)", &r3_quorum),
        ("LMR3+ FollowLeader", &r3_leader),
        ("LMR4", &r4),
    ];
    for seed in 0..6u64 {
        let knobs = vec![
            Knob::new("events", 300, 1),
            Knob::new("disorder_pct", 25, 0),
            Knob::new("revision_pct", 30, 0),
            Knob::new("lag_elements", 3, 0),
            Knob::new("seed", seed, 0),
        ];
        for (name, mk) in mks {
            check(name, mk, knobs.clone(), &replica_script);
        }
    }
}

// ---------------------------------------------------------------------
// A large settled window: the sweep seeks, or walks when it must
// ---------------------------------------------------------------------

/// Script from `[live, stables, silent, seed]`: every event lives `live`
/// time units and one starts per unit, so about `live` tiers are live; a
/// stable every `live / 100` units, between stables as many new events and
/// as many late adjusts to older ones (about 1 % churn each). An adjust
/// moves the end time to just past the next few stables, below the bound
/// its tier was settled with, so a sweep that missed the touched tier
/// would retire or correct the node late. Inputs 0 and 1 deliver every
/// event (each adjust reaches each of them with probability 0.7, so they
/// sometimes disagree); input 2 delivers the same unless `silent` is 1,
/// when it stays attached and sends nothing. Input 0 drives the stables.
///
/// With input 2 delivering, a stable owes a visit only to the tiers whose
/// events just ended and the ones adjusted since the last stable, a few
/// percent of the window: the index seeks them. With input 2 silent, no
/// node is on record from every input, every tier stays due and the index
/// walks. (`tier::tests::a_steady_state_with_little_churn_seeks_and_an_all_due_one_walks`
/// pins the path each shape takes.)
fn steady_script(k: &[Knob]) -> Vec<Op<Value>> {
    let (live, stables, silent) = (k[0].value as i64, k[1].value as i64, k[2].value == 1);
    let mut rng = StdRng::seed_from_u64(0x57EA_D1E5 ^ k[3].value);
    let step = (live / 100).max(1);
    let senders: Vec<u32> = if silent { vec![0, 1] } else { vec![0, 1, 2] };
    let mut events: Vec<(Value, Time, Vec<Time>)> = Vec::new();
    let mut script = Vec::new();
    let start = |script: &mut Vec<Op<Value>>, events: &mut Vec<(Value, Time, Vec<Time>)>| {
        let vs = events.len() as i64;
        let payload = Value::synthetic((vs % 400) as i32, 16);
        for &s in &senders {
            script.push(Op::Push(s, Element::insert(payload.clone(), vs, vs + live)));
        }
        events.push((payload, Time(vs), vec![Time(vs + live); 3]));
    };
    for _ in 0..live {
        start(&mut script, &mut events);
    }
    for k in 0..stables {
        let now = live + k * step;
        for _ in 0..step {
            start(&mut script, &mut events);
            let old = rng.random_range((now - live + step).max(0)..now) as usize;
            let (payload, vs, ves) = &mut events[old];
            let ve = Time(now + rng.random_range(1..3 * step));
            for &s in &senders {
                if rng.random_bool(0.7) {
                    let vold = std::mem::replace(&mut ves[s as usize], ve);
                    script.push(Op::Push(s, Element::adjust(payload.clone(), *vs, vold, ve)));
                }
            }
        }
        for &s in &senders {
            script.push(Op::Push(s, Element::stable(now)));
        }
    }
    script
}

/// Check LMR3+ (lazy and eager adjusts) and LMR4 on a 2 000-tier window;
/// `silent` is the knob's value and its floor.
fn check_steady(silent: u64, seed: u64) {
    let r3_default = r3(MergePolicy::default());
    let r3_eager = r3(MergePolicy::eager());
    let r4 = || Box::new(LMergeR4::new(INPUTS)) as Box<dyn Merge<Value>>;
    let mks: [(&str, Factory<Value>); 3] = [
        ("LMR3+", &r3_default),
        ("LMR3+ eager adjusts", &r3_eager),
        ("LMR4", &r4),
    ];
    for (name, mk) in mks {
        let knobs = vec![
            Knob::new("live", 2_000, 1),
            Knob::new("stables", 40, 0),
            Knob::new("silent", silent, silent),
            Knob::new("seed", seed, 0),
        ];
        check(name, mk, knobs, &steady_script);
    }
}

#[test]
fn skipping_is_unobservable_in_a_settled_window_that_seeks() {
    check_steady(0, 1);
}

#[test]
fn skipping_is_unobservable_in_a_window_one_silent_replica_keeps_due() {
    check_steady(1, 2);
}

// ---------------------------------------------------------------------
// Garbage over a tiny domain: every malformed corner, with control
// ---------------------------------------------------------------------

type S = &'static str;

/// Script from `[steps, seed]`: arbitrary inserts, adjusts and stables over
/// three payloads and 24 time points from whichever inputs exist, with an
/// occasional detach or attach. Most inserts are echoed by every input, so
/// that tiers do settle — and are then hit by whatever comes next: late
/// adjusts below the settled bound, echoes that disagree, stables from an
/// input that just joined. Nothing about the feed is well formed; the two
/// merges must still agree.
fn garbage_script(k: &[Knob]) -> Vec<Op<S>> {
    let mut rng = StdRng::seed_from_u64(0x5E77_1ED0 ^ k[1].value);
    let mut inputs = INPUTS as u32;
    let t = |rng: &mut StdRng| rng.random_range(0i64..24);
    let mut script = Vec::new();
    while script.len() < k[0].value as usize {
        let payload = ["a", "b", "c"][rng.random_range(0usize..3)];
        let s = rng.random_range(0..inputs);
        match rng.random_range(0u32..40) {
            0 => script.push(Op::Detach(s)),
            1 => {
                inputs += 1;
                script.push(Op::Attach(if rng.random_bool(0.5) {
                    Time::MIN
                } else {
                    Time(t(&mut rng))
                }));
            }
            2..=17 => {
                let (vs, life) = (t(&mut rng), t(&mut rng) + 1);
                if rng.random_bool(0.7) {
                    for echo in 0..inputs {
                        // One echo in ten disagrees about the end time, and
                        // one in twenty claims it is −∞ (the index's "not
                        // emitted" marker: such an element must be dropped).
                        let ve = if rng.random_bool(0.05) {
                            Time::MIN
                        } else {
                            Time(vs + life + i64::from(rng.random_bool(0.1)))
                        };
                        // (By hand: the constructor asserts `Vs < Ve`.)
                        let event = Event {
                            vs: Time(vs),
                            ve,
                            payload,
                        };
                        script.push(Op::Push(echo, Element::Insert(event)));
                    }
                } else {
                    script.push(Op::Push(s, Element::insert(payload, vs, vs + life)));
                }
            }
            18..=29 => {
                let vs = t(&mut rng);
                let (vold, ve) = (vs + t(&mut rng), vs + t(&mut rng));
                let ve = if rng.random_bool(0.05) {
                    Time::MIN
                } else {
                    Time(ve)
                };
                script.push(Op::Push(s, Element::adjust(payload, vs, vold, ve)));
            }
            _ => script.push(Op::Push(s, Element::stable(t(&mut rng)))),
        }
    }
    script
}

#[test]
fn skipping_is_unobservable_under_garbage_and_control() {
    let r3_default = r3(MergePolicy::default());
    let r3_eager = r3(MergePolicy::eager());
    let r3_quorum = r3(insert_policy(InsertPolicy::Quorum(2)));
    let r4 = || Box::new(LMergeR4::new(INPUTS)) as Box<dyn Merge<S>>;
    let mks: [(&str, Factory<S>); 4] = [
        ("LMR3+", &r3_default),
        ("LMR3+ eager", &r3_eager),
        ("LMR3+ Quorum(2)", &r3_quorum),
        ("LMR4", &r4),
    ];
    for seed in 0..120u64 {
        let knobs = vec![Knob::new("steps", 160, 1), Knob::new("seed", seed, 0)];
        for (name, mk) in mks {
            check(name, mk, knobs.clone(), &garbage_script);
        }
    }
}
