//! Run hooks: the executor's fault-injection and inspection boundary.
//!
//! A [`RunHooks`] implementation sees every batch at the moment of delivery
//! and may rewrite the run — drop the batch, substitute its contents, delay
//! it, or (via [`ControlAction`]s drained at each virtual-time boundary)
//! detach, attach, or stall a whole input. The chaos harness
//! (`lmerge-chaos`) builds on this to replay seeded fault plans; tests use
//! it to observe exactly what the merge consumed and emitted.
//!
//! Like tracing, the hook path is statically erasable: the default
//! [`NoHooks`] reports `enabled() == false` and the executor's
//! monomorphized run loop skips every hook call.
//!
//! [`RunHooks::on_consumed`] is also the executor's one output path: a
//! `Vec<Element<P>>` is a hook that collects the merged stream, and a pair
//! `(A, B)` of hooks is a hook, so an output sink and a fault injector
//! compose without either wrapping the other.

use crate::operator::TimedElement;
use lmerge_temporal::{Element, Payload, StreamId, Time, VTime};

/// What to do with a batch that is about to be delivered to LMerge.
#[derive(Debug)]
pub enum FaultAction<P> {
    /// Deliver the batch unchanged (the default).
    Deliver,
    /// Discard the batch; the query's subsequent batches still flow.
    Drop,
    /// Deliver these elements instead of the batch's own.
    Replace(Vec<Element<P>>),
    /// Re-stage the batch to deliver no earlier than this virtual time.
    /// A target at or before the scheduled time delivers unchanged.
    Delay(VTime),
}

/// A structural change to the run, applied at a virtual-time boundary.
pub enum ControlAction<P> {
    /// Forcibly detach an input: the merge drops its state and every
    /// batch still queued or yet to be produced by that query is lost.
    Detach(StreamId),
    /// Attach a fresh input mid-run. The executor wraps `source` in a
    /// passthrough query; the merge sees it join at `join_time`.
    Attach {
        /// The join point handed to [`lmerge_core::LogicalMerge::attach`].
        join_time: Time,
        /// The timed feed of the joining replica.
        source: Vec<TimedElement<P>>,
    },
    /// Freeze an input's deliveries until the given virtual time.
    Stall {
        /// The stalled input (query index).
        input: u32,
        /// Deliveries resume at this virtual time.
        until: VTime,
    },
    /// Kill the whole merge operator and rebuild it from its exported
    /// durable state image — the in-process shape of a crash-and-restore.
    /// The queries and the executor's delivery heap survive (they model
    /// the world outside the crashed operator); only the merge's state
    /// makes the round trip through the image.
    CrashMerge {
        /// Build the replacement operator from the crashed one's image.
        /// The chaos harness routes this through the durable codec so the
        /// image also survives an encode/decode round trip.
        rebuild: Box<
            dyn FnOnce(lmerge_core::MergeStateImage<P>) -> Box<dyn lmerge_core::LogicalMerge<P>>
                + Send,
        >,
    },
}

impl<P: std::fmt::Debug> std::fmt::Debug for ControlAction<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ControlAction::Detach(id) => f.debug_tuple("Detach").field(id).finish(),
            ControlAction::Attach { join_time, source } => f
                .debug_struct("Attach")
                .field("join_time", join_time)
                .field("source", source)
                .finish(),
            ControlAction::Stall { input, until } => f
                .debug_struct("Stall")
                .field("input", input)
                .field("until", until)
                .finish(),
            ControlAction::CrashMerge { .. } => f.write_str("CrashMerge"),
        }
    }
}

/// Observer/mutator interface threaded through the executor's run loop.
///
/// All methods have no-op defaults, so an implementation only overrides
/// what it needs. `enabled()` gates the whole path: when it returns
/// `false` the executor never calls the other methods.
pub trait RunHooks<P: Payload> {
    /// Whether the executor should consult this hook at all.
    fn enabled(&self) -> bool {
        false
    }

    /// A batch for `input` is about to be delivered at virtual time `at`.
    fn on_deliver(&mut self, input: u32, at: VTime, elements: &[Element<P>]) -> FaultAction<P> {
        let _ = (input, at, elements);
        FaultAction::Deliver
    }

    /// The merge consumed `delivered` from `input` and produced `emitted`;
    /// `at` is the virtual time the consumption finished.
    fn on_consumed(
        &mut self,
        input: u32,
        at: VTime,
        delivered: &[Element<P>],
        emitted: &[Element<P>],
    ) {
        let _ = (input, at, delivered, emitted);
    }

    /// Collect structural actions to apply at virtual time `at`, before the
    /// next batch is considered. Push actions into `actions`.
    fn control(&mut self, at: VTime, actions: &mut Vec<ControlAction<P>>) {
        let _ = (at, actions);
    }
}

/// The statically disabled hook: the executor's default.
pub struct NoHooks;

impl<P: Payload> RunHooks<P> for NoHooks {}

/// The collecting hook: the merged output, in emission order.
impl<P: Payload> RunHooks<P> for Vec<Element<P>> {
    fn enabled(&self) -> bool {
        true
    }

    fn on_consumed(
        &mut self,
        _input: u32,
        _at: VTime,
        _delivered: &[Element<P>],
        emitted: &[Element<P>],
    ) {
        self.extend_from_slice(emitted);
    }
}

/// Two hooks run as one, `A` first.
///
/// The pair is enabled when either member is, and a disabled member is
/// never called. At delivery, the first enabled member that does not
/// answer [`FaultAction::Deliver`] decides the batch (`B` is then not
/// asked). Both members see every [`on_consumed`](RunHooks::on_consumed),
/// and their control actions are appended `A`'s first. Nest pairs for
/// more than two.
impl<P: Payload, A: RunHooks<P>, B: RunHooks<P>> RunHooks<P> for (A, B) {
    fn enabled(&self) -> bool {
        self.0.enabled() || self.1.enabled()
    }

    fn on_deliver(&mut self, input: u32, at: VTime, elements: &[Element<P>]) -> FaultAction<P> {
        if self.0.enabled() {
            match self.0.on_deliver(input, at, elements) {
                FaultAction::Deliver => {}
                decided => return decided,
            }
        }
        if self.1.enabled() {
            self.1.on_deliver(input, at, elements)
        } else {
            FaultAction::Deliver
        }
    }

    fn on_consumed(
        &mut self,
        input: u32,
        at: VTime,
        delivered: &[Element<P>],
        emitted: &[Element<P>],
    ) {
        if self.0.enabled() {
            self.0.on_consumed(input, at, delivered, emitted);
        }
        if self.1.enabled() {
            self.1.on_consumed(input, at, delivered, emitted);
        }
    }

    fn control(&mut self, at: VTime, actions: &mut Vec<ControlAction<P>>) {
        if self.0.enabled() {
            self.0.control(at, actions);
        }
        if self.1.enabled() {
            self.1.control(at, actions);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_hooks_is_disabled_and_inert() {
        let mut h = NoHooks;
        assert!(!RunHooks::<&str>::enabled(&h));
        let a = h.on_deliver(0, VTime(5), &[Element::insert("a", 1, 2)]);
        assert!(matches!(a, FaultAction::Deliver));
        let mut actions: Vec<ControlAction<&str>> = Vec::new();
        h.control(VTime(5), &mut actions);
        assert!(actions.is_empty());
    }

    type E = Element<&'static str>;

    /// A scripted hook that logs every call it receives.
    struct Script {
        on: bool,
        verdict: fn() -> FaultAction<&'static str>,
        stall: u32,
        log: Vec<&'static str>,
    }

    impl Script {
        fn new(verdict: fn() -> FaultAction<&'static str>, stall: u32) -> Script {
            Script {
                on: true,
                verdict,
                stall,
                log: Vec::new(),
            }
        }

        fn off() -> Script {
            Script {
                on: false,
                ..Script::new(|| FaultAction::Drop, 9)
            }
        }
    }

    impl RunHooks<&'static str> for Script {
        fn enabled(&self) -> bool {
            self.on
        }
        fn on_deliver(&mut self, _: u32, _: VTime, _: &[E]) -> FaultAction<&'static str> {
            self.log.push("deliver");
            (self.verdict)()
        }
        fn on_consumed(&mut self, _: u32, _: VTime, _: &[E], _: &[E]) {
            self.log.push("consumed");
        }
        fn control(&mut self, at: VTime, actions: &mut Vec<ControlAction<&'static str>>) {
            self.log.push("control");
            actions.push(ControlAction::Stall {
                input: self.stall,
                until: at,
            });
        }
    }

    fn verdict_name(a: &FaultAction<&'static str>) -> String {
        match a {
            FaultAction::Deliver => "deliver".into(),
            FaultAction::Drop => "drop".into(),
            FaultAction::Replace(e) => format!("replace{}", e.len()),
            FaultAction::Delay(t) => format!("delay{}", t.0),
        }
    }

    #[test]
    fn the_first_member_that_does_not_deliver_decides() {
        let batch = [E::insert("a", 1, 2)];
        let verdicts: [fn() -> FaultAction<&'static str>; 4] = [
            || FaultAction::Deliver,
            || FaultAction::Drop,
            || FaultAction::Replace(vec![E::insert("b", 1, 2), E::insert("c", 1, 2)]),
            || FaultAction::Delay(VTime(40)),
        ];
        let names = ["deliver", "drop", "replace2", "delay40"];
        for (i, a) in verdicts.iter().enumerate() {
            for (j, b) in verdicts.iter().enumerate() {
                let mut pair = (Script::new(*a, 0), Script::new(*b, 1));
                let got = verdict_name(&pair.on_deliver(0, VTime(5), &batch));
                let want = if i != 0 { names[i] } else { names[j] };
                assert_eq!(got, want, "A answers {}, B answers {}", names[i], names[j]);
                // B is asked only when A delivered.
                assert_eq!(pair.1.log.len(), usize::from(i == 0));
            }
        }
    }

    #[test]
    fn control_actions_of_both_members_append_in_order() {
        let mut pair = (
            Script::new(|| FaultAction::Deliver, 3),
            Script::new(|| FaultAction::Deliver, 7),
        );
        let mut actions = vec![ControlAction::Detach(StreamId(1))];
        pair.control(VTime(9), &mut actions);
        let order: Vec<u32> = actions
            .iter()
            .map(|a| match a {
                ControlAction::Detach(id) => 100 + id.0,
                ControlAction::Stall { input, .. } => *input,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, [101, 3, 7], "the caller's, then A's, then B's");
        pair.on_consumed(0, VTime(9), &[], &[]);
        assert_eq!(pair.0.log, ["control", "consumed"]);
        assert_eq!(pair.1.log, ["control", "consumed"]);
    }

    #[test]
    fn a_disabled_member_is_never_called() {
        let batch = [E::insert("a", 1, 2)];
        for mut pair in [
            (Script::off(), Script::new(|| FaultAction::Deliver, 1)),
            (Script::new(|| FaultAction::Deliver, 1), Script::off()),
        ] {
            assert!(RunHooks::enabled(&pair));
            let mut actions = Vec::new();
            pair.control(VTime(1), &mut actions);
            assert_eq!(actions.len(), 1, "only the enabled member stalls");
            let verdict = pair.on_deliver(0, VTime(1), &batch);
            assert!(matches!(verdict, FaultAction::Deliver), "off member's Drop");
            pair.on_consumed(0, VTime(2), &batch, &batch);
            let silent = if pair.0.on { &pair.1 } else { &pair.0 };
            assert!(silent.log.is_empty(), "disabled member called");
        }
        let off = (Script::off(), NoHooks);
        assert!(!RunHooks::enabled(&off), "two disabled members stay off");
    }

    /// `(Vec, NoHooks)` walks the path of the wrapper-based collector it
    /// replaced (`net::NetHooks::collector()`): the digests below were
    /// recorded with that collector on this feed, so metrics, trace and
    /// output are pinned to it.
    #[test]
    fn a_collecting_pair_matches_the_recorded_collector_run() {
        use crate::{MergeRun, Query, RunConfig, TimedElement};
        use lmerge_core::hash::fnv1a;
        use lmerge_core::{LMergeR3, MergePolicy};
        use lmerge_obs::Tracer;
        use lmerge_temporal::Value;

        let feed = |lag: u64| {
            let e = |at: u64, el: Element<Value>| TimedElement::new(VTime(at + lag), el);
            vec![
                e(0, Element::insert(Value::bare(1), 1, 5)),
                e(10, Element::insert(Value::bare(2), 2, 9)),
                e(15, Element::adjust(Value::bare(2), 2, 9, 7)),
                e(20, Element::stable(Time(3))),
                e(30, Element::insert(Value::bare(3), 4, 8)),
                e(40, Element::stable(Time::INFINITY)),
            ]
        };
        let mut tracer = Tracer::new();
        let mut hooks = (Vec::new(), NoHooks);
        let metrics = MergeRun::new(
            vec![Query::passthrough(feed(0)), Query::passthrough(feed(7))],
            Box::new(LMergeR3::with_policy(2, MergePolicy::paper_default())),
            RunConfig {
                feedback: true,
                mem_sample_every: 2,
            },
        )
        .run_with_hooks(&mut tracer, &mut hooks);
        let out = hooks.0;
        assert_eq!(out.len(), 6);
        let digest = |s: String| format!("{:016x}", fnv1a(s.as_bytes()));
        // The metrics and trace digests moved twice since they were
        // recorded, each time in the memory samples only (in the metrics
        // and as `memory_sampled` trace events) and the peak: the tier
        // map's due queue grew `size_of::<LMergeR3>()` by 80 B; then the
        // memory model came to charge what the contents allocate and not
        // the merge's own struct (samples 672, 832, 864, 864, 1056, 480 →
        // 240, 384, 384, 384, 528, 96; peak 1056 → 528).
        assert_eq!(digest(format!("{metrics:?}")), "e9b1e6335f4076ef");
        assert_eq!(digest(tracer.to_jsonl()), "7032f4c7ccbb8b24");
        assert_eq!(digest(format!("{out:?}")), "e2670641ce53fbcf");
    }
}
