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

/// The SLO condition an alert rule watches (see `alert::AlertRule`).
///
/// Each kind names the live signal it thresholds, not the remedy — the
/// same `WatermarkLag` alert covers a slow input and a dead network
/// session; the per-input series say which.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AlertKind {
    /// The output stable point has not advanced for too many wall-clock ms.
    WatermarkLag,
    /// The worst input's stable point trails the output beyond the bound
    /// (application-time units).
    StragglerGap,
    /// Too many session resumes per evaluation window — a flapping client
    /// or network.
    ResumeRate,
    /// The bounded trace ring evicted events; the exported trace is no
    /// longer complete.
    RingDrop,
    /// A checkpoint failed to persist; the run continues uncheckpointed.
    CheckpointFailed,
}

impl AlertKind {
    /// Snake-case label used by the exporters and the metrics plane.
    pub fn label(self) -> &'static str {
        match self {
            AlertKind::WatermarkLag => "watermark_lag",
            AlertKind::StragglerGap => "straggler_gap",
            AlertKind::ResumeRate => "resume_rate",
            AlertKind::RingDrop => "ring_drop",
            AlertKind::CheckpointFailed => "checkpoint_failed",
        }
    }
}

/// How loudly an alert rule fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Operator should know eventually.
    Info,
    /// Operator should look soon.
    Warn,
    /// Operator should look now.
    Critical,
}

impl Severity {
    /// Lower-case label used by the exporters.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warn => "warn",
            Severity::Critical => "critical",
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
    /// A network ingest session opened (handshake accepted): one remote
    /// replica is now feeding this input over a socket.
    SessionOpened {
        /// Virtual time of the handshake (the session's resume point for a
        /// rejoin, `VTime::ZERO` for a first connection).
        at: VTime,
        /// The input the session feeds.
        input: u32,
        /// The first frame sequence number the server expects — 0 for a
        /// fresh session, the resume point for a rejoin.
        resume_seq: u64,
    },
    /// A network ingest session ended (clean `bye` or connection loss).
    SessionClosed {
        /// Virtual time of the last element the session delivered.
        at: VTime,
        /// The input the session fed.
        input: u32,
        /// Whether the client said `bye` (vs. a reset/mid-frame drop).
        clean: bool,
    },
    /// The ingest server granted frame credits back to a client
    /// (credit-based backpressure: credits track ring free space).
    CreditGranted {
        /// Virtual time of the latest element popped before the grant.
        at: VTime,
        /// The input whose client received the credits.
        input: u32,
        /// Number of frame credits granted.
        credits: u32,
    },
    /// Periodic sample of one net ingest session's SPSC ring depth
    /// (occupancy = `depth / capacity`; what the credit grants key off).
    NetQueueSampled {
        /// Virtual sample time.
        at: VTime,
        /// The input whose ingest ring was sampled.
        input: u32,
        /// Decoded frames in flight between socket reader and merge.
        depth: u32,
        /// The ring's capacity in slots.
        capacity: u32,
    },
    /// An SLO alert rule crossed its threshold.
    ///
    /// Unlike every other variant, alerts originate on the *wall-clock*
    /// plane: `at` carries milliseconds of monotonic process time (as
    /// micro-granular `VTime`), not virtual time — an alert is about the
    /// operator's now, not the run's replayable history.
    AlertFired {
        /// Wall-clock ms since metrics start, carried as `VTime` micros.
        at: VTime,
        /// Which SLO condition fired.
        kind: AlertKind,
        /// How loudly.
        severity: Severity,
        /// The observed value that crossed the threshold.
        value: i64,
        /// The configured threshold.
        threshold: i64,
    },
    /// A previously fired alert dropped back under its threshold.
    AlertResolved {
        /// Wall-clock ms since metrics start, carried as `VTime` micros.
        at: VTime,
        /// Which SLO condition resolved.
        kind: AlertKind,
        /// The observed value at resolution.
        value: i64,
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
    /// A run was rebuilt from a durable checkpoint instead of starting
    /// empty.
    CheckpointRestored {
        /// Virtual time the restored executor resumes at.
        at: VTime,
        /// Sequence number of the checkpoint the run was rebuilt from.
        seq: u64,
        /// Live state entries restored into the merge.
        entries: u64,
    },
    /// An egress subscription session opened (subscribe accepted): one
    /// remote consumer is now tailing the merged output.
    SubSessionOpened {
        /// The resume sequence carried as a virtual timestamp (subscriber
        /// sessions live on the output-seq axis, not input virtual time).
        at: VTime,
        /// The subscriber's stable identity.
        subscriber: u64,
        /// First output sequence the session will actually send — the
        /// client's `resume_from`, possibly clamped up to the compaction
        /// horizon.
        resume_seq: u64,
    },
    /// An egress subscription session ended (clean `bye` or loss).
    SubSessionClosed {
        /// The last output sequence sent, as a virtual timestamp.
        at: VTime,
        /// The subscriber's stable identity.
        subscriber: u64,
        /// Whether the close was a clean `bye` handshake.
        clean: bool,
    },
    /// One sealed output epoch was delivered to one subscriber (after
    /// filtering; the shared segment is written once and fanned out).
    SubEpochDelivered {
        /// The epoch's base output sequence, as a virtual timestamp.
        at: VTime,
        /// The receiving subscriber.
        subscriber: u64,
        /// The epoch index in the broadcast buffer.
        epoch: u64,
        /// Frames actually sent after the session's filter.
        frames: u32,
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
            | TraceEvent::SessionOpened { at, .. }
            | TraceEvent::SessionClosed { at, .. }
            | TraceEvent::CreditGranted { at, .. }
            | TraceEvent::NetQueueSampled { at, .. }
            | TraceEvent::AlertFired { at, .. }
            | TraceEvent::AlertResolved { at, .. }
            | TraceEvent::CheckpointTaken { at, .. }
            | TraceEvent::CheckpointRestored { at, .. }
            | TraceEvent::SubSessionOpened { at, .. }
            | TraceEvent::SubSessionClosed { at, .. }
            | TraceEvent::SubEpochDelivered { at, .. } => at,
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
            TraceEvent::SessionOpened { .. } => "session_opened",
            TraceEvent::SessionClosed { .. } => "session_closed",
            TraceEvent::CreditGranted { .. } => "credit_granted",
            TraceEvent::NetQueueSampled { .. } => "net_queue_sampled",
            TraceEvent::AlertFired { .. } => "alert_fired",
            TraceEvent::AlertResolved { .. } => "alert_resolved",
            TraceEvent::CheckpointTaken { .. } => "checkpoint_taken",
            TraceEvent::CheckpointRestored { .. } => "checkpoint_restored",
            TraceEvent::SubSessionOpened { .. } => "sub_session_opened",
            TraceEvent::SubSessionClosed { .. } => "sub_session_closed",
            TraceEvent::SubEpochDelivered { .. } => "sub_epoch_delivered",
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
    fn alert_events() {
        let f = TraceEvent::AlertFired {
            at: VTime(30),
            kind: AlertKind::WatermarkLag,
            severity: Severity::Warn,
            value: 1200,
            threshold: 1000,
        };
        assert_eq!(f.at(), VTime(30));
        assert_eq!(f.name(), "alert_fired");
        let r = TraceEvent::AlertResolved {
            at: VTime(31),
            kind: AlertKind::WatermarkLag,
            value: 10,
        };
        assert_eq!(r.at(), VTime(31));
        assert_eq!(r.name(), "alert_resolved");
        assert_eq!(AlertKind::StragglerGap.label(), "straggler_gap");
        assert_eq!(AlertKind::ResumeRate.label(), "resume_rate");
        assert_eq!(AlertKind::RingDrop.label(), "ring_drop");
        assert_eq!(Severity::Critical.label(), "critical");
        assert!(Severity::Info < Severity::Warn);
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
        let r = TraceEvent::CheckpointRestored {
            at: VTime(51),
            seq: 3,
            entries: 120,
        };
        assert_eq!(r.at(), VTime(51));
        assert_eq!(r.name(), "checkpoint_restored");
        assert_eq!(FaultKind::CrashMerge.label(), "crash_merge");
    }

    #[test]
    fn net_session_events() {
        let o = TraceEvent::SessionOpened {
            at: VTime(5),
            input: 2,
            resume_seq: 17,
        };
        assert_eq!(o.at(), VTime(5));
        assert_eq!(o.name(), "session_opened");
        let c = TraceEvent::SessionClosed {
            at: VTime(9),
            input: 2,
            clean: false,
        };
        assert_eq!(c.at(), VTime(9));
        assert_eq!(c.name(), "session_closed");
        let g = TraceEvent::CreditGranted {
            at: VTime(11),
            input: 0,
            credits: 32,
        };
        assert_eq!(g.at(), VTime(11));
        assert_eq!(g.name(), "credit_granted");
        let q = TraceEvent::NetQueueSampled {
            at: VTime(12),
            input: 0,
            depth: 7,
            capacity: 64,
        };
        assert_eq!(q.at(), VTime(12));
        assert_eq!(q.name(), "net_queue_sampled");
    }
}
