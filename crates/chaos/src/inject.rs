//! The chaos injector: a [`RunHooks`] implementation that replays a
//! [`FaultPlan`] against a run and simultaneously checks conformance.
//!
//! The injector does two jobs at once:
//!
//! 1. **Inject** — at each virtual-time boundary it fires the plan's due
//!    control faults (crash, rejoin, stall) and applies the plan's window
//!    faults to batches in flight (drop on overflow, duplicate, reorder,
//!    swallow punctuation).
//! 2. **Check** — it reconstitutes every input's *actually delivered*
//!    prefix and the merge's emitted output, and runs the temporal crate's
//!    compatibility oracle whenever the output's stable point advances.
//!    A crashed replica's view stays frozen at its crash point.
//!
//! Everything is driven by the plan's seed, so a run is a pure function of
//! `(plan, feeds, variant)` — replaying it yields a byte-identical trace.

use crate::plan::{Fault, FaultPlan};
use lmerge_core::{LogicalMerge, MergeStateImage};
use lmerge_engine::hooks::{ControlAction, FaultAction, RunHooks};
use lmerge_engine::TimedElement;
use lmerge_properties::RLevel;
use lmerge_temporal::compat::{check_r3, check_r4, StreamView};
use lmerge_temporal::{Element, Reconstituter, StreamId, Time, VTime, Value};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::collections::BTreeMap;

/// A pending crash-rejoin: the replacement replica's feed, waiting for its
/// trigger time.
struct Rejoin {
    crash_input: u32,
    rejoin_at: VTime,
    feed: Vec<TimedElement<Value>>,
    fired: bool,
}

/// Fault-plan replay + differential conformance checking for one run.
pub struct ChaosInjector {
    level: RLevel,
    faults: Vec<Fault>,
    /// One-shot control faults already fired (parallel to `faults`).
    fired: Vec<bool>,
    rejoins: Vec<Rejoin>,
    rng: StdRng,
    /// Inputs detached by a crash — excluded from the oracle.
    crashed: Vec<bool>,
    /// Inputs whose punctuation is swallowed (freeze / overflow poisoning).
    frozen: Vec<bool>,
    /// Inputs that have lost data to an overflow: their delivered stream is
    /// knowingly ill-formed (adjusts may name lost inserts), so their view
    /// is tracked best-effort instead of strictly.
    lossy: Vec<bool>,
    /// Reconstituted view of what each input actually delivered.
    in_recs: Vec<Reconstituter<Value>>,
    /// Reconstituted view of the merged output.
    out_rec: Reconstituter<Value>,
    last_checked: Time,
    checks: usize,
    violations: Vec<String>,
    /// How many times each mechanical fault label was applied.
    applied: BTreeMap<&'static str, u32>,
    /// Builds a fresh merge of the run's variant for [`Fault::CrashMerge`]
    /// (the image is restored into it). Installed by the harness, which
    /// knows the variant and policy; without one the fault is inert.
    rebuild_merge: Option<MergeRebuilder>,
}

/// Factory restoring a crashed operator: given its exported image (already
/// round-tripped through the durable codec), return a fresh restored merge
/// of the run's variant.
pub type MergeRebuilder =
    Box<dyn Fn(MergeStateImage<Value>) -> Box<dyn LogicalMerge<Value>> + Send>;

impl ChaosInjector {
    /// An injector replaying `plan` (pre-degraded for `level`) over a run
    /// whose initial inputs are fed by `feeds`. The feeds are retained so a
    /// crash-rejoin can re-deliver the victim's full stream on a new input.
    pub fn new(level: RLevel, plan: &FaultPlan, feeds: &[Vec<TimedElement<Value>>]) -> Self {
        let faults = plan.effective(level);
        let n = feeds.len();
        let rejoins = faults
            .iter()
            .filter_map(|f| match *f {
                Fault::CrashRejoin {
                    input, rejoin_at, ..
                } => Some(Rejoin {
                    crash_input: input,
                    rejoin_at,
                    feed: feeds.get(input as usize).cloned().unwrap_or_default(),
                    fired: false,
                }),
                _ => None,
            })
            .collect();
        let fired = vec![false; faults.len()];
        ChaosInjector {
            level,
            faults,
            fired,
            rejoins,
            rng: StdRng::seed_from_u64(plan.seed ^ 0x9E37_79B9_7F4A_7C15),
            crashed: vec![false; n],
            frozen: vec![false; n],
            lossy: vec![false; n],
            in_recs: (0..n).map(|_| Reconstituter::new()).collect(),
            out_rec: Reconstituter::new(),
            last_checked: Time::MIN,
            checks: 0,
            violations: Vec::new(),
            applied: BTreeMap::new(),
            rebuild_merge: None,
        }
    }

    /// Install the factory [`Fault::CrashMerge`] rebuilds the merge with:
    /// given the crashed operator's exported image (already round-tripped
    /// through the durable codec), return a fresh restored operator.
    #[must_use]
    pub fn with_merge_rebuilder(mut self, rebuild: MergeRebuilder) -> Self {
        self.rebuild_merge = Some(rebuild);
        self
    }

    /// A pure conformance checker: an injector with an empty (clean) fault
    /// plan, so it injects nothing and only reconstitutes views + runs the
    /// compatibility oracle. This is how runs whose faults happen *outside*
    /// the executor — e.g. lmerge-net's chaos proxy cutting real TCP
    /// connections — borrow the same oracle: the network layer supplies the
    /// disruption, this hook supplies the judgement.
    pub fn oracle(level: RLevel, feeds: &[Vec<TimedElement<Value>>]) -> Self {
        ChaosInjector::new(level, &FaultPlan::clean(0), feeds)
    }

    fn ensure(&mut self, i: usize) {
        while self.in_recs.len() <= i {
            self.in_recs.push(Reconstituter::new());
            self.crashed.push(false);
            self.frozen.push(false);
            self.lossy.push(false);
        }
    }

    fn note(&mut self, label: &'static str) {
        *self.applied.entry(label).or_insert(0) += 1;
    }

    /// Violations found so far (empty on a conformant run).
    pub fn violations(&self) -> &[String] {
        &self.violations
    }

    /// How many oracle checks ran.
    pub fn checks(&self) -> usize {
        self.checks
    }

    /// `(label, times applied)` for every mechanical fault that fired.
    pub fn applied(&self) -> &BTreeMap<&'static str, u32> {
        &self.applied
    }

    /// The reconstituted output view: `(TDB via accessor, stable point)`.
    pub fn output(&self) -> &Reconstituter<Value> {
        &self.out_rec
    }

    /// The reconstituted per-input delivered views.
    pub fn inputs(&self) -> &[Reconstituter<Value>] {
        &self.in_recs
    }

    /// Run the compatibility oracle on the current prefixes: the output
    /// view must be compatible with every input's *delivered* view. A
    /// crashed replica's view stays frozen at its crash point — it is
    /// still a valid consistent prefix, and it may even hold the maximum
    /// stable point the output followed before the crash, so excluding it
    /// would wrongly flag the output as running ahead of its inputs.
    pub fn check_now(&mut self) {
        self.checks += 1;
        let views: Vec<StreamView<'_, Value>> = self
            .in_recs
            .iter()
            .map(|r| StreamView::new(r.tdb(), r.stable()))
            .collect();
        let output = StreamView::new(self.out_rec.tdb(), self.out_rec.stable());
        // R3 and the naive baseline satisfy the full C1–C3 contract; the
        // insert-only cases and the multiset case are checked against the
        // leading-input condition (Section III-D's final form).
        let result = if self.level == RLevel::R3 {
            check_r3(&views, &output)
        } else {
            check_r4(&views, &output)
        };
        if let Err(v) = result {
            self.violations.push(format!(
                "oracle violation at output stable {}: {v:?}",
                self.out_rec.stable()
            ));
        }
    }

    /// Key-preserving deterministic reorder: segments between punctuation
    /// are shuffled by assigning each `(Vs, Payload)` key a random rank in
    /// encounter order, then stable-sorting — same-key elements (an insert
    /// and its adjust chain) keep their relative order.
    fn reorder(&mut self, elements: &[Element<Value>]) -> Vec<Element<Value>> {
        let mut out = Vec::with_capacity(elements.len());
        let mut seg: Vec<Element<Value>> = Vec::new();
        for e in elements {
            if e.is_stable() {
                self.shuffle_segment(&mut seg, &mut out);
                out.push(e.clone());
            } else {
                seg.push(e.clone());
            }
        }
        self.shuffle_segment(&mut seg, &mut out);
        out
    }

    fn shuffle_segment(&mut self, seg: &mut Vec<Element<Value>>, out: &mut Vec<Element<Value>>) {
        if seg.len() < 2 {
            out.append(seg);
            return;
        }
        let mut ranks: BTreeMap<(Time, Value), u64> = BTreeMap::new();
        let mut keyed: Vec<(u64, usize, Element<Value>)> = Vec::with_capacity(seg.len());
        for (i, e) in seg.drain(..).enumerate() {
            let rank = match e.key() {
                Some((vs, p)) => *ranks
                    .entry((vs, p.clone()))
                    .or_insert_with(|| self.rng.next_u64()),
                None => self.rng.next_u64(),
            };
            keyed.push((rank, i, e));
        }
        keyed.sort_by_key(|&(rank, i, _)| (rank, i));
        out.extend(keyed.into_iter().map(|(_, _, e)| e));
    }
}

impl RunHooks<Value> for ChaosInjector {
    fn enabled(&self) -> bool {
        true
    }

    fn on_deliver(
        &mut self,
        input: u32,
        at: VTime,
        elements: &[Element<Value>],
    ) -> FaultAction<Value> {
        let i = input as usize;
        self.ensure(i);

        // Window faults due for this input at this boundary.
        let mut overflow = false;
        let mut duplicate = false;
        let mut reorder = false;
        for f in &self.faults {
            match *f {
                Fault::Overflow {
                    input: v,
                    from,
                    until,
                } if v == input => {
                    if at >= from {
                        // Data was (or is being) lost: poison punctuation
                        // and downgrade the view tracking to best-effort.
                        self.frozen[i] = true;
                        self.lossy[i] = true;
                    }
                    if at >= from && at < until {
                        overflow = true;
                    }
                }
                Fault::FreezeStable { input: v, from } if v == input && at >= from => {
                    self.frozen[i] = true;
                }
                Fault::DuplicateBatches {
                    input: v,
                    from,
                    until,
                } if v == input && at >= from && at < until => {
                    duplicate = true;
                }
                Fault::ReorderBatches {
                    input: v,
                    from,
                    until,
                } if v == input && at >= from && at < until => {
                    reorder = true;
                }
                _ => {}
            }
        }

        if overflow {
            self.note("overflow");
            return FaultAction::Drop;
        }

        // The canonical content: what the replica logically presents. The
        // swallowed-punctuation and reorder transforms change it; a
        // duplicated delivery does not.
        let mut canonical: Vec<Element<Value>> = elements.to_vec();
        let mut mutated = false;
        if self.frozen[i] && canonical.iter().any(Element::is_stable) {
            canonical.retain(|e| !e.is_stable());
            mutated = true;
            self.note("freeze_stable");
        }
        if reorder {
            let reordered = self.reorder(&canonical);
            if reordered != canonical {
                mutated = true;
            }
            canonical = reordered;
            self.note("reorder_batches");
        }

        // Track the delivered prefix for the oracle. A lossy (overflowed)
        // input's stream is knowingly ill-formed — adjusts may name inserts
        // the overflow swallowed — so it is tracked best-effort: whatever
        // applies, applies; the rest is the very data loss being simulated.
        if self.lossy[i] {
            for e in &canonical {
                let _ = self.in_recs[i].apply(e);
            }
        } else if let Err(e) = self.in_recs[i].apply_all(&canonical) {
            self.violations
                .push(format!("input {input} delivered ill-formed stream: {e}"));
        }

        if duplicate {
            self.note("duplicate_batches");
            let mut doubled = canonical.clone();
            doubled.extend(canonical.iter().cloned());
            return FaultAction::Replace(doubled);
        }
        if mutated {
            return FaultAction::Replace(canonical);
        }
        FaultAction::Deliver
    }

    fn on_consumed(
        &mut self,
        _input: u32,
        _at: VTime,
        _delivered: &[Element<Value>],
        emitted: &[Element<Value>],
    ) {
        // The merged output must itself be a well-formed physical stream.
        if let Err(e) = self.out_rec.apply_all(emitted) {
            self.violations
                .push(format!("merge emitted ill-formed output: {e}"));
            return;
        }
        if self.out_rec.stable() > self.last_checked {
            self.last_checked = self.out_rec.stable();
            self.check_now();
        }
    }

    fn control(&mut self, at: VTime, actions: &mut Vec<ControlAction<Value>>) {
        for k in 0..self.faults.len() {
            if self.fired[k] {
                continue;
            }
            match self.faults[k] {
                Fault::Crash { input, at: t } | Fault::CrashRejoin { input, at: t, .. }
                    if at >= t =>
                {
                    self.fired[k] = true;
                    self.ensure(input as usize);
                    self.crashed[input as usize] = true;
                    self.note("crash");
                    actions.push(ControlAction::Detach(StreamId(input)));
                }
                Fault::StallInput {
                    input,
                    at: t,
                    until,
                } if at >= t => {
                    self.fired[k] = true;
                    self.note("stall");
                    actions.push(ControlAction::Stall { input, until });
                }
                Fault::CrashMerge { at: t } if at >= t => {
                    self.fired[k] = true;
                    if let Some(rebuild) = self.rebuild_merge.take() {
                        self.note("crash_merge");
                        actions.push(ControlAction::CrashMerge {
                            rebuild: Box::new(move |img| {
                                // Round-trip the image through the durable
                                // codec before restoring: firing the fault
                                // proves the on-disk encoding is lossless
                                // at an arbitrary mid-run cut.
                                let mut buf = Vec::new();
                                lmerge_durable::put_merge_image(&mut buf, &img);
                                let mut cur = lmerge_durable::Cursor::new(&buf);
                                let decoded = lmerge_durable::get_merge_image::<Value>(&mut cur)
                                    .expect("durable codec decodes its own encoding");
                                assert_eq!(decoded, img, "durable codec must be lossless");
                                rebuild(decoded)
                            }),
                        });
                    }
                }
                _ => {}
            }
        }
        for r in &mut self.rejoins {
            let crash_done = self
                .crashed
                .get(r.crash_input as usize)
                .copied()
                .unwrap_or(false);
            if !r.fired && crash_done && at >= r.rejoin_at {
                r.fired = true;
                actions.push(ControlAction::Attach {
                    // The replacement joins at the output's current stable
                    // point: everything it replays below it is a stale
                    // prefix the merge must absorb idempotently.
                    join_time: self.out_rec.stable(),
                    source: std::mem::take(&mut r.feed),
                });
            }
        }
        if actions
            .iter()
            .any(|a| matches!(a, ControlAction::Attach { .. }))
        {
            self.note("rejoin");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn elem(k: i32, vs: i64, ve: i64) -> Element<Value> {
        Element::insert(Value::bare(k), vs, ve)
    }

    #[test]
    fn reorder_preserves_per_key_chains_and_is_seeded() {
        let plan = FaultPlan::clean(7);
        let mut inj = ChaosInjector::new(RLevel::R3, &plan, &[Vec::new()]);
        let batch = vec![
            elem(1, 10, 20),
            Element::adjust(Value::bare(1), Time(10), Time(20), Time(25)),
            elem(2, 11, 21),
            elem(3, 12, 22),
            Element::Stable(Time(5)),
            elem(4, 13, 23),
            elem(5, 14, 24),
        ];
        let a = inj.reorder(&batch);
        // Same multiset of elements, stables in place.
        assert_eq!(a.len(), batch.len());
        assert!(a[4].is_stable(), "punctuation does not move");
        let pos_insert = a.iter().position(|e| *e == batch[0]).unwrap();
        let pos_adjust = a.iter().position(|e| *e == batch[1]).unwrap();
        assert!(pos_insert < pos_adjust, "adjust stays after its insert");
        // Seeded: a fresh injector with the same seed reorders identically.
        let mut inj2 = ChaosInjector::new(RLevel::R3, &plan, &[Vec::new()]);
        assert_eq!(inj2.reorder(&batch), a);
    }

    #[test]
    fn oracle_flags_an_incompatible_output() {
        let plan = FaultPlan::clean(3);
        let mut inj = ChaosInjector::new(RLevel::R3, &plan, &[Vec::new()]);
        // The input freezes ⟨k=1, [10, 20)⟩; the output invents a different
        // event and claims the same stability.
        inj.on_deliver(0, VTime(1), &[elem(1, 10, 20), Element::Stable(Time(50))]);
        inj.on_consumed(
            0,
            VTime(2),
            &[],
            &[elem(9, 10, 20), Element::Stable(Time(50))],
        );
        assert!(
            !inj.violations().is_empty(),
            "fabricated output must be flagged"
        );
    }

    #[test]
    fn conformant_prefix_passes() {
        let plan = FaultPlan::clean(3);
        let mut inj = ChaosInjector::new(RLevel::R3, &plan, &[Vec::new()]);
        let batch = vec![elem(1, 10, 20), Element::Stable(Time(15))];
        inj.on_deliver(0, VTime(1), &batch);
        inj.on_consumed(0, VTime(2), &batch, &batch);
        assert!(inj.violations().is_empty(), "{:?}", inj.violations());
        assert!(inj.checks() >= 1, "stable advance triggered the oracle");
    }
}
