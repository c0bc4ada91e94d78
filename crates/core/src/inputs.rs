//! Input-stream registry: joining and leaving streams (Section V-B).
//!
//! A stream that attaches at runtime provides a timestamp `t` from which it
//! guarantees a correct TDB (every event with `Ve ≥ t`). Until the merge's
//! stable point reaches `t`, the newcomer's *data* is usable (duplicates are
//! suppressed by the algorithms anyway) but its `stable` punctuation must be
//! ignored — following it could freeze output the newcomer never saw. Once
//! `MaxStable ≥ t` the stream is marked joined and "LMerge can tolerate the
//! simultaneous failure or removal of all the other streams".
//!
//! A leaving stream is marked as such and excluded from all future
//! consideration; the algorithms purge its per-stream state.

use lmerge_temporal::{StreamId, Time};

/// Lifecycle state of one attached input.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InputState {
    /// Attached and fully trusted.
    Active,
    /// Attached but only correct from the given timestamp onward.
    Joining(Time),
    /// Demoted by a robustness policy: its data still merges (duplicates
    /// are absorbed anyway) but its punctuation is ignored until it catches
    /// back up to the output's stable point.
    Quarantined,
    /// Detached; its elements are ignored.
    Left,
}

impl From<InputState> for crate::api::InputHealth {
    fn from(s: InputState) -> crate::api::InputHealth {
        match s {
            InputState::Active => crate::api::InputHealth::Active,
            InputState::Joining(_) => crate::api::InputHealth::Joining,
            InputState::Quarantined => crate::api::InputHealth::Quarantined,
            InputState::Left => crate::api::InputHealth::Left,
        }
    }
}

/// Lifetime transition counters of one registry — the raw material for the
/// telemetry plane's quarantine/demotion series. Counters only ever grow;
/// they survive restores and re-quarantines.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HealthTransitions {
    /// Active → Quarantined transitions (robustness-policy demotions).
    pub quarantines: u64,
    /// Quarantined → Active transitions (stragglers that caught back up).
    pub restores: u64,
    /// Transitions into Left (detaches of a live stream).
    pub departures: u64,
}

/// Registry of LMerge input streams.
#[derive(Clone, Debug, Default)]
pub struct Inputs {
    states: Vec<InputState>,
    transitions: HealthTransitions,
}

impl Inputs {
    /// A registry with `n` initially active streams (ids `0..n`).
    pub fn new(n: usize) -> Inputs {
        Inputs {
            states: vec![InputState::Active; n],
            transitions: HealthTransitions::default(),
        }
    }

    /// Attach a new stream that is correct from `join_time` onward.
    /// Returns the new stream's id.
    pub fn attach(&mut self, join_time: Time) -> StreamId {
        let id = StreamId(self.states.len() as u32);
        // A join time at or before -∞ means the stream saw everything.
        if join_time == Time::MIN {
            self.states.push(InputState::Active);
        } else {
            self.states.push(InputState::Joining(join_time));
        }
        id
    }

    /// Mark a stream as left. Idempotent; unknown ids are ignored.
    pub fn detach(&mut self, id: StreamId) {
        if let Some(s) = self.states.get_mut(id.0 as usize) {
            if *s != InputState::Left {
                self.transitions.departures += 1;
            }
            *s = InputState::Left;
        }
    }

    /// Promote joining streams whose join time is now covered.
    pub fn on_stable_advance(&mut self, max_stable: Time) {
        for s in &mut self.states {
            if let InputState::Joining(t) = s {
                if max_stable >= *t {
                    *s = InputState::Active;
                }
            }
        }
    }

    /// Quarantine an active stream: keep merging its data but stop letting
    /// its punctuation drive output progress. Only `Active` streams can be
    /// quarantined (a joining stream's punctuation is already gated);
    /// returns whether the transition happened.
    pub fn quarantine(&mut self, id: StreamId) -> bool {
        match self.states.get_mut(id.0 as usize) {
            Some(s) if *s == InputState::Active => {
                *s = InputState::Quarantined;
                self.transitions.quarantines += 1;
                true
            }
            _ => false,
        }
    }

    /// Restore a quarantined stream to active (it caught back up). Returns
    /// whether the transition happened.
    pub fn restore(&mut self, id: StreamId) -> bool {
        match self.states.get_mut(id.0 as usize) {
            Some(s) if *s == InputState::Quarantined => {
                *s = InputState::Active;
                self.transitions.restores += 1;
                true
            }
            _ => false,
        }
    }

    /// Lifetime health-transition counts (quarantines, restores,
    /// departures) — monotone, unaffected by later state changes.
    pub fn transitions(&self) -> HealthTransitions {
        self.transitions
    }

    /// State of a stream (unknown ids read as `Left`).
    pub fn state(&self, id: StreamId) -> InputState {
        self.states
            .get(id.0 as usize)
            .copied()
            .unwrap_or(InputState::Left)
    }

    /// Whether the stream's data elements should be processed.
    pub fn accepts_data(&self, id: StreamId) -> bool {
        !matches!(self.state(id), InputState::Left)
    }

    /// Whether the stream's `stable` punctuation may drive output progress.
    pub fn accepts_stable(&self, id: StreamId) -> bool {
        matches!(self.state(id), InputState::Active)
    }

    /// Total ids ever allocated (including left streams).
    pub fn allocated(&self) -> usize {
        self.states.len()
    }

    /// Number of currently attached (active or joining) streams.
    pub fn live(&self) -> usize {
        self.states
            .iter()
            .filter(|s| !matches!(s, InputState::Left))
            .count()
    }

    /// Iterate ids of currently attached streams.
    pub fn live_ids(&self) -> impl Iterator<Item = StreamId> + '_ {
        self.states
            .iter()
            .enumerate()
            .filter_map(|(i, s)| (!matches!(s, InputState::Left)).then_some(StreamId(i as u32)))
    }

    /// Approximate memory footprint of the registry itself — by length,
    /// not capacity, so a restored registry reports what its source did.
    pub fn memory_bytes(&self) -> usize {
        self.states.len() * std::mem::size_of::<InputState>()
    }

    /// Every stream's state in id order (checkpointing).
    pub fn export_states(&self) -> Vec<InputState> {
        self.states.clone()
    }

    /// Replace the registry wholesale from a checkpoint image: states in id
    /// order plus the lifetime transition counters. The restore path, not a
    /// lifecycle transition — nothing is counted.
    pub fn restore_registry(&mut self, states: &[InputState], transitions: HealthTransitions) {
        self.states = states.to_vec();
        self.transitions = transitions;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_streams_are_active() {
        let inputs = Inputs::new(3);
        assert_eq!(inputs.live(), 3);
        assert!(inputs.accepts_data(StreamId(0)));
        assert!(inputs.accepts_stable(StreamId(2)));
        assert!(!inputs.accepts_data(StreamId(7)), "unknown id is Left");
    }

    #[test]
    fn joining_stream_gates_stable_until_covered() {
        let mut inputs = Inputs::new(1);
        let id = inputs.attach(Time(100));
        assert!(inputs.accepts_data(id), "data usable immediately");
        assert!(!inputs.accepts_stable(id), "punctuation gated");
        inputs.on_stable_advance(Time(99));
        assert!(!inputs.accepts_stable(id));
        inputs.on_stable_advance(Time(100));
        assert!(inputs.accepts_stable(id), "joined at MaxStable >= t");
    }

    #[test]
    fn attach_from_beginning_is_immediately_active() {
        let mut inputs = Inputs::new(0);
        let id = inputs.attach(Time::MIN);
        assert!(inputs.accepts_stable(id));
    }

    #[test]
    fn detach_excludes_stream() {
        let mut inputs = Inputs::new(2);
        inputs.detach(StreamId(0));
        assert!(!inputs.accepts_data(StreamId(0)));
        assert!(!inputs.accepts_stable(StreamId(0)));
        assert_eq!(inputs.live(), 1);
        assert_eq!(inputs.live_ids().collect::<Vec<_>>(), vec![StreamId(1)]);
        // Idempotent, and allocated ids are never reused.
        inputs.detach(StreamId(0));
        assert_eq!(inputs.allocated(), 2);
    }

    #[test]
    fn detached_stream_stays_left_after_stable_advance() {
        let mut inputs = Inputs::new(1);
        let id = inputs.attach(Time(10));
        inputs.detach(id);
        inputs.on_stable_advance(Time(50));
        assert_eq!(inputs.state(id), InputState::Left);
    }

    #[test]
    fn quarantine_gates_stable_but_not_data() {
        let mut inputs = Inputs::new(2);
        assert!(inputs.quarantine(StreamId(1)));
        assert_eq!(inputs.state(StreamId(1)), InputState::Quarantined);
        assert!(inputs.accepts_data(StreamId(1)), "data still merges");
        assert!(!inputs.accepts_stable(StreamId(1)), "punctuation ignored");
        assert_eq!(inputs.live(), 2, "quarantined streams stay attached");
        assert!(inputs.restore(StreamId(1)));
        assert!(inputs.accepts_stable(StreamId(1)));
    }

    #[test]
    fn transition_counters_track_lifecycle() {
        let mut inputs = Inputs::new(3);
        assert_eq!(inputs.transitions(), HealthTransitions::default());
        inputs.quarantine(StreamId(0));
        inputs.quarantine(StreamId(1));
        inputs.restore(StreamId(0));
        inputs.quarantine(StreamId(0)); // re-quarantine counts again
        inputs.detach(StreamId(2));
        inputs.detach(StreamId(2)); // idempotent detach counts once
        let t = inputs.transitions();
        assert_eq!(t.quarantines, 3);
        assert_eq!(t.restores, 1);
        assert_eq!(t.departures, 1);
        // Failed transitions don't count.
        inputs.quarantine(StreamId(2));
        inputs.restore(StreamId(1));
        inputs.restore(StreamId(1));
        assert_eq!(inputs.transitions().quarantines, 3);
        assert_eq!(inputs.transitions().restores, 2);
    }

    #[test]
    fn quarantine_and_restore_only_transition_valid_states() {
        let mut inputs = Inputs::new(1);
        let joining = inputs.attach(Time(100));
        assert!(!inputs.quarantine(joining), "joining is already gated");
        assert!(!inputs.restore(StreamId(0)), "active needs no restore");
        inputs.detach(StreamId(0));
        assert!(!inputs.quarantine(StreamId(0)), "left streams stay left");
        assert!(!inputs.quarantine(StreamId(9)), "unknown ids are ignored");
    }
}
