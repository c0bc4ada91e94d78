//! The typed trace-event vocabulary of the observability layer.
//!
//! Every event is stamped with the virtual time ([`VTime`]) at which the
//! executor observed it, so a trace replays the run exactly — lag, bursts,
//! and congestion included — independent of the wall clock of the machine
//! that produced it. Events are small `Copy` values so the ring buffer can
//! hold hundreds of thousands of them without allocation.

use lmerge_temporal::{Time, VTime};

/// The kind of a physical stream element, without its payload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ElementKind {
    /// `insert(⟨p, Vs, Ve⟩)`.
    Insert,
    /// `adjust(p, Vs, Vold, Ve)` — the chattiness-relevant kind.
    Adjust,
    /// `stable(Vc)` punctuation.
    Stable,
}

impl ElementKind {
    /// Lower-case label used by the exporters.
    pub fn label(self) -> &'static str {
        match self {
            ElementKind::Insert => "insert",
            ElementKind::Adjust => "adjust",
            ElementKind::Stable => "stable",
        }
    }
}

/// The mechanical action an injected fault took at the executor boundary.
///
/// This is deliberately the *mechanism*, not the scenario: a chaos plan's
/// "crash with rejoin" shows up in the trace as a `Detach` followed later by
/// an `Attach`, so traces stay truthful about what actually happened to the
/// run regardless of which higher-level fault produced it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// A staged batch was discarded before delivery.
    DropBatch,
    /// A staged batch was delivered with substituted contents.
    ReplaceBatch,
    /// A staged batch was re-queued for a later virtual time.
    DelayBatch,
    /// An input was forcibly detached from the merge.
    Detach,
    /// An input was (re)attached to the merge mid-run.
    Attach,
    /// An input's delivery was frozen until a later virtual time.
    Stall,
    /// The merge operator was killed and rebuilt from a durable state image
    /// mid-run (the whole merge, so `input` is `u32::MAX` in the trace).
    CrashMerge,
}

impl FaultKind {
    /// Lower-case label used by the exporters.
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::DropBatch => "drop_batch",
            FaultKind::ReplaceBatch => "replace_batch",
            FaultKind::DelayBatch => "delay_batch",
            FaultKind::Detach => "detach",
            FaultKind::Attach => "attach",
            FaultKind::Stall => "stall",
            FaultKind::CrashMerge => "crash_merge",
        }
    }
}

/// An input's health as reported by the merge operator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HealthTag {
    /// Attached and trusted for both data and punctuation.
    Active,
    /// Attached but still before its join point.
    Joining,
    /// Demoted by a robustness policy: data merged, punctuation ignored.
    Quarantined,
    /// Detached; all elements ignored.
    Left,
}

impl HealthTag {
    /// Lower-case label used by the exporters.
    pub fn label(self) -> &'static str {
        match self {
            HealthTag::Active => "active",
            HealthTag::Joining => "joining",
            HealthTag::Quarantined => "quarantined",
            HealthTag::Left => "left",
        }
    }
}

/// Whose stable point advanced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StableScope {
    /// The merged output's stable point (`MaxStable`).
    Output,
    /// The latest punctuation announced by one input replica.
    Input(u32),
}

/// One observation recorded during an executor run.
///
/// The variants mirror the paper's evaluation questions: what was delivered
/// when ([`BatchDelivered`](TraceEvent::BatchDelivered)), what the merge
/// emitted ([`ElementEmitted`](TraceEvent::ElementEmitted)), how far each
/// replica's punctuation ran ahead of or behind the output
/// ([`StablePointAdvanced`](TraceEvent::StablePointAdvanced)), and when
/// Section V-D feedback fast-forwarded the stragglers
/// ([`FeedbackPropagated`](TraceEvent::FeedbackPropagated)).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// A query handed one batch to LMerge.
    BatchDelivered {
        /// Virtual delivery time.
        at: VTime,
        /// The delivering input (query index).
        input: u32,
        /// Total elements in the batch (data + punctuation).
        elements: u32,
        /// Data elements (inserts + adjusts) in the batch.
        data: u32,
    },
    /// LMerge emitted one output element.
    ElementEmitted {
        /// Virtual emission time.
        at: VTime,
        /// What kind of element left the merge.
        kind: ElementKind,
        /// The element's `Vs` (for `stable`, the punctuation time).
        vs: Time,
    },
    /// A stable point moved forward.
    StablePointAdvanced {
        /// Virtual time of the advance.
        at: VTime,
        /// Output stable point or a specific input's.
        scope: StableScope,
        /// The new stable point.
        stable: Time,
    },
    /// The executor carried LMerge's feedback point back to the queries.
    FeedbackPropagated {
        /// Virtual time of the propagation.
        at: VTime,
        /// The feedback point (Section V-D): work before it is skippable.
        point: Time,
    },
    /// Periodic sample of how many batches are staged awaiting delivery.
    QueueDepthSampled {
        /// Virtual sample time.
        at: VTime,
        /// Batches staged in the executor's delivery heap.
        staged: u32,
    },
    /// Periodic sample of operator + query state size.
    MemorySampled {
        /// Virtual sample time.
        at: VTime,
        /// Estimated bytes held by LMerge and the query operators.
        bytes: u64,
    },
    /// An input ran out of elements.
    InputDrained {
        /// Virtual time the executor noticed.
        at: VTime,
        /// The drained input.
        input: u32,
    },
    /// The run ended (output complete or all inputs drained).
    RunCompleted {
        /// Virtual end time.
        at: VTime,
    },
    /// A fault-injection hook altered the run at this point.
    FaultInjected {
        /// Virtual time of the injection.
        at: VTime,
        /// The affected input.
        input: u32,
        /// The mechanical action taken.
        kind: FaultKind,
    },
    /// The merge's view of an input's health changed.
    InputHealthChanged {
        /// Virtual time the executor observed the transition.
        at: VTime,
        /// The input whose health changed.
        input: u32,
        /// The new health.
        health: HealthTag,
    },
    /// The durability layer captured a consistent image of the run.
    ///
    /// `seq` is the checkpoint sequence number (monotone per run); a
    /// restored run's first checkpoint continues the killed run's numbering
    /// so concatenated traces stay monotone.
    CheckpointTaken {
        /// Virtual time of the stable advance that triggered the capture.
        at: VTime,
        /// Checkpoint sequence number.
        seq: u64,
        /// Live state entries captured in the merge image.
        entries: u64,
        /// Whether the image was persisted as a delta against the previous
        /// checkpoint (`true`) or a full snapshot (`false`).
        delta: bool,
    },
}

impl TraceEvent {
    /// The virtual timestamp of the event.
    pub fn at(&self) -> VTime {
        match *self {
            TraceEvent::BatchDelivered { at, .. }
            | TraceEvent::ElementEmitted { at, .. }
            | TraceEvent::StablePointAdvanced { at, .. }
            | TraceEvent::FeedbackPropagated { at, .. }
            | TraceEvent::QueueDepthSampled { at, .. }
            | TraceEvent::MemorySampled { at, .. }
            | TraceEvent::InputDrained { at, .. }
            | TraceEvent::RunCompleted { at }
            | TraceEvent::FaultInjected { at, .. }
            | TraceEvent::InputHealthChanged { at, .. }
            | TraceEvent::CheckpointTaken { at, .. } => at,
        }
    }

    /// Snake-case event name used by the exporters.
    pub fn name(&self) -> &'static str {
        match self {
            TraceEvent::BatchDelivered { .. } => "batch_delivered",
            TraceEvent::ElementEmitted { .. } => "element_emitted",
            TraceEvent::StablePointAdvanced { .. } => "stable_point_advanced",
            TraceEvent::FeedbackPropagated { .. } => "feedback_propagated",
            TraceEvent::QueueDepthSampled { .. } => "queue_depth_sampled",
            TraceEvent::MemorySampled { .. } => "memory_sampled",
            TraceEvent::InputDrained { .. } => "input_drained",
            TraceEvent::RunCompleted { .. } => "run_completed",
            TraceEvent::FaultInjected { .. } => "fault_injected",
            TraceEvent::InputHealthChanged { .. } => "input_health_changed",
            TraceEvent::CheckpointTaken { .. } => "checkpoint_taken",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timestamps_and_names() {
        let e = TraceEvent::BatchDelivered {
            at: VTime(42),
            input: 1,
            elements: 3,
            data: 2,
        };
        assert_eq!(e.at(), VTime(42));
        assert_eq!(e.name(), "batch_delivered");
        let s = TraceEvent::RunCompleted { at: VTime(7) };
        assert_eq!(s.at(), VTime(7));
        assert_eq!(s.name(), "run_completed");
    }

    #[test]
    fn kind_labels() {
        assert_eq!(ElementKind::Insert.label(), "insert");
        assert_eq!(ElementKind::Adjust.label(), "adjust");
        assert_eq!(ElementKind::Stable.label(), "stable");
    }

    #[test]
    fn fault_and_health_events() {
        let f = TraceEvent::FaultInjected {
            at: VTime(3),
            input: 2,
            kind: FaultKind::DropBatch,
        };
        assert_eq!(f.at(), VTime(3));
        assert_eq!(f.name(), "fault_injected");
        let h = TraceEvent::InputHealthChanged {
            at: VTime(4),
            input: 1,
            health: HealthTag::Quarantined,
        };
        assert_eq!(h.at(), VTime(4));
        assert_eq!(h.name(), "input_health_changed");
        assert_eq!(FaultKind::Detach.label(), "detach");
        assert_eq!(FaultKind::Stall.label(), "stall");
        assert_eq!(HealthTag::Left.label(), "left");
        assert_eq!(HealthTag::Active.label(), "active");
    }

    #[test]
    fn durability_events() {
        let t = TraceEvent::CheckpointTaken {
            at: VTime(50),
            seq: 3,
            entries: 120,
            delta: true,
        };
        assert_eq!(t.at(), VTime(50));
        assert_eq!(t.name(), "checkpoint_taken");
        assert_eq!(FaultKind::CrashMerge.label(), "crash_merge");
    }
}
