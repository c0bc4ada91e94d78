//! Per-input lag gauges: who is holding the merge back, and when did
//! feedback fast-forward them.
//!
//! The paper's Figures 5, 8–10 all hinge on the same diagnostic: each
//! physically divergent replica announces its own `stable` punctuation, the
//! merged output advances at the pace of whichever replica is *leading*,
//! and a lagging replica either catches up on its own or is fast-forwarded
//! by the Section V-D feedback signal. The gauges reduce a run's event
//! trace to exactly that story, per input.

use crate::event::{StableScope, TraceEvent};
use lmerge_temporal::{Time, VTime};

/// Application-time distance from `behind` up to `ahead` (0 when not behind).
///
/// `Time::MIN` (never announced) reads as infinitely behind, saturating at
/// `i64::MAX`; an input at or past the reference reads as 0.
fn lag_between(ahead: Time, behind: Time) -> i64 {
    if behind >= ahead {
        0
    } else {
        ahead.0.saturating_sub(behind.0)
    }
}

/// Running diagnostics for one input replica.
#[derive(Clone, Copy, Debug)]
pub struct InputLag {
    /// The input's latest announced stable point (`Time::MIN` if none yet).
    pub stable: Time,
    /// Virtual time of the latest stable advance.
    pub stable_at: VTime,
    /// Data elements delivered by this input.
    pub delivered: u64,
    /// Batches delivered by this input.
    pub batches: u64,
    /// Largest `output_stable − input_stable` gap observed (app-time units).
    pub max_behind: i64,
    /// Feedback propagations that jumped past this input's stable point.
    pub fast_forwards: u64,
    /// Virtual time of the latest such fast-forward.
    pub last_fast_forward: Option<VTime>,
    /// First virtual time the input caught back up after being behind.
    pub caught_up_at: Option<VTime>,
}

impl Default for InputLag {
    fn default() -> InputLag {
        InputLag {
            stable: Time::MIN,
            stable_at: VTime::ZERO,
            delivered: 0,
            batches: 0,
            max_behind: 0,
            fast_forwards: 0,
            last_fast_forward: None,
            caught_up_at: None,
        }
    }
}

/// Gauges tracking every input's stable point against the output's.
#[derive(Clone, Debug, Default)]
pub struct LagGauges {
    inputs: Vec<InputLag>,
    output_stable: Time,
    output_stable_at: VTime,
    has_output: bool,
}

impl LagGauges {
    /// Gauges for `n` inputs (more are added on demand as events mention
    /// higher input ids).
    pub fn new(n: usize) -> LagGauges {
        LagGauges {
            inputs: vec![InputLag::default(); n],
            ..Default::default()
        }
    }

    fn input_mut(&mut self, i: u32) -> &mut InputLag {
        let i = i as usize;
        if i >= self.inputs.len() {
            self.inputs.resize(i + 1, InputLag::default());
        }
        &mut self.inputs[i]
    }

    /// Update the gauges from one trace event. Unrelated events are ignored,
    /// so a [`LagGauges`] can consume a full trace stream unfiltered.
    pub fn on_event(&mut self, event: &TraceEvent) {
        match *event {
            TraceEvent::BatchDelivered { input, data, .. } => {
                let il = self.input_mut(input);
                il.delivered += data as u64;
                il.batches += 1;
            }
            TraceEvent::StablePointAdvanced { at, scope, stable } => match scope {
                StableScope::Output => {
                    self.output_stable = self.output_stable.max(stable);
                    self.output_stable_at = at;
                    self.has_output = true;
                    let out = self.output_stable;
                    for il in &mut self.inputs {
                        // An input that has never announced reads as
                        // infinitely behind live (`behind()`), but that
                        // startup state is not a meaningful historical max.
                        if il.stable != Time::MIN {
                            il.max_behind = il.max_behind.max(lag_between(out, il.stable));
                        }
                    }
                }
                StableScope::Input(i) => {
                    let out = self.output_stable;
                    let was_behind = {
                        let il = self.input_mut(i);
                        lag_between(out, il.stable) > 0
                    };
                    let il = self.input_mut(i);
                    il.stable = il.stable.max(stable);
                    il.stable_at = at;
                    il.max_behind = il.max_behind.max(lag_between(out, il.stable));
                    if was_behind && lag_between(out, il.stable) == 0 && il.caught_up_at.is_none() {
                        il.caught_up_at = Some(at);
                    }
                }
            },
            TraceEvent::FeedbackPropagated { at, point } => {
                for il in &mut self.inputs {
                    if il.stable < point {
                        il.fast_forwards += 1;
                        il.last_fast_forward = Some(at);
                    }
                }
            }
            _ => {}
        }
    }

    /// Per-input gauges, indexed by input id.
    pub fn inputs(&self) -> &[InputLag] {
        &self.inputs
    }

    /// The output stable point the gauges have seen.
    pub fn output_stable(&self) -> Time {
        self.output_stable
    }

    /// Virtual time of the latest output stable advance.
    pub fn output_stable_at(&self) -> VTime {
        self.output_stable_at
    }

    /// How far input `i` currently trails the output stable point
    /// (0 when level or ahead; `None` for an unknown input).
    pub fn behind(&self, i: usize) -> Option<i64> {
        let il = self.inputs.get(i)?;
        if !self.has_output {
            return Some(0);
        }
        Some(lag_between(self.output_stable, il.stable))
    }

    /// The input currently farthest behind the output stable point, with its
    /// lag — the replica holding the merge back. `None` when no input lags.
    pub fn straggler(&self) -> Option<(usize, i64)> {
        (0..self.inputs.len())
            .filter_map(|i| self.behind(i).map(|b| (i, b)))
            .filter(|&(_, b)| b > 0)
            .max_by_key(|&(i, b)| (b, std::cmp::Reverse(i)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::StableScope::{Input, Output};

    fn adv(g: &mut LagGauges, at: u64, scope: StableScope, stable: i64) {
        g.on_event(&TraceEvent::StablePointAdvanced {
            at: VTime(at),
            scope,
            stable: Time(stable),
        });
    }

    #[test]
    fn tracks_behind_and_straggler() {
        let mut g = LagGauges::new(2);
        adv(&mut g, 10, Input(0), 100);
        adv(&mut g, 10, Output, 100);
        adv(&mut g, 20, Input(1), 40);
        assert_eq!(g.behind(0), Some(0));
        assert_eq!(g.behind(1), Some(60));
        assert_eq!(g.straggler(), Some((1, 60)));
        assert_eq!(g.inputs()[1].max_behind, 60);
    }

    #[test]
    fn never_announced_reads_as_infinitely_behind() {
        let mut g = LagGauges::new(2);
        adv(&mut g, 5, Output, 50);
        assert_eq!(g.behind(0), Some(i64::MAX), "saturates");
        assert_eq!(g.behind(2), None, "unknown input");
    }

    #[test]
    fn no_output_progress_means_no_lag() {
        let mut g = LagGauges::new(1);
        adv(&mut g, 5, Input(0), 10);
        assert_eq!(g.behind(0), Some(0));
        assert_eq!(g.straggler(), None);
    }

    #[test]
    fn catch_up_moment_is_recorded() {
        let mut g = LagGauges::new(2);
        adv(&mut g, 10, Input(0), 100);
        adv(&mut g, 10, Output, 100);
        adv(&mut g, 20, Input(1), 40); // behind by 60
        adv(&mut g, 30, Input(1), 100); // caught up
        assert_eq!(g.inputs()[1].caught_up_at, Some(VTime(30)));
        assert_eq!(g.behind(1), Some(0));
        assert_eq!(g.inputs()[1].max_behind, 60, "history preserved");
    }

    #[test]
    fn feedback_fast_forward_counts_laggards_only() {
        let mut g = LagGauges::new(2);
        adv(&mut g, 10, Input(0), 100);
        adv(&mut g, 12, Input(1), 30);
        g.on_event(&TraceEvent::FeedbackPropagated {
            at: VTime(15),
            point: Time(80),
        });
        assert_eq!(g.inputs()[0].fast_forwards, 0, "already past the point");
        assert_eq!(g.inputs()[1].fast_forwards, 1);
        assert_eq!(g.inputs()[1].last_fast_forward, Some(VTime(15)));
    }

    #[test]
    fn delivered_counts_accumulate() {
        let mut g = LagGauges::new(1);
        for k in 0..3 {
            g.on_event(&TraceEvent::BatchDelivered {
                at: VTime(k),
                input: 0,
                elements: 5,
                data: 4,
            });
        }
        assert_eq!(g.inputs()[0].delivered, 12);
        assert_eq!(g.inputs()[0].batches, 3);
    }

    #[test]
    fn inputs_grow_on_demand() {
        let mut g = LagGauges::new(1);
        adv(&mut g, 1, Input(3), 5);
        assert_eq!(g.inputs().len(), 4);
        assert_eq!(g.inputs()[3].stable, Time(5));
    }
}
