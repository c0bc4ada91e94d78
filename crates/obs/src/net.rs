//! Per-input gauges for network ingestion (the lmerge-net subsystem).
//!
//! When inputs arrive over sockets rather than in-process queues, three
//! session-level diagnostics join the usual lag story, and [`NetGauges`]
//! folds them out of the trace stream:
//!
//! * **Session churn** — each [`TraceEvent::SessionOpened`] /
//!   [`TraceEvent::SessionClosed`] pair is one connection lifetime; a
//!   reconnecting replica shows up as `sessions > 1` with the later opens
//!   carrying a non-zero resume sequence (the rejoin/catch-up story of
//!   Section V-B over a real socket).
//! * **Credit flow** — each [`TraceEvent::CreditGranted`] is backpressure
//!   in action: the server returning ring slots to the client. A starved
//!   total here means the merge (not the network) is the bottleneck.
//! * **Ring pressure** — [`TraceEvent::NetQueueSampled`] samples the
//!   per-connection ingest ring; occupancy near 1.0
//!   means the socket reader outruns the merge and credits are about to
//!   throttle the sender.

use crate::event::TraceEvent;

/// Running network-session diagnostics for one input.
#[derive(Clone, Copy, Debug, Default)]
pub struct NetLag {
    /// Sessions opened for this input (reconnects increment this).
    pub sessions: u64,
    /// Sessions that ended with a clean `bye`.
    pub clean_closes: u64,
    /// Sessions that ended in a reset / mid-frame drop.
    pub lost_closes: u64,
    /// The resume sequence of the most recent session open (0 = fresh).
    pub last_resume_seq: u64,
    /// Total frame credits granted back to the client.
    pub credits_granted: u64,
    /// Number of credit grants (batching granularity diagnostic).
    pub credit_grants: u64,
    /// Latest sampled ingest-ring depth (decoded frames in flight).
    pub depth: u32,
    /// High-water ingest-ring depth across all samples.
    pub max_depth: u32,
    /// The ingest ring's capacity in slots (from the latest sample).
    pub capacity: u32,
    /// Number of ring samples folded in.
    pub samples: u64,
    /// Sum of sampled depths (for mean occupancy).
    depth_sum: u64,
}

impl NetLag {
    /// Latest ring occupancy in `[0, 1]` (0 before any sample).
    pub fn occupancy(&self) -> f64 {
        if self.capacity == 0 {
            0.0
        } else {
            self.depth as f64 / self.capacity as f64
        }
    }

    /// Mean ring occupancy over all samples.
    pub fn mean_occupancy(&self) -> f64 {
        if self.capacity == 0 || self.samples == 0 {
            0.0
        } else {
            self.depth_sum as f64 / (self.samples as f64 * self.capacity as f64)
        }
    }

    /// Whether a session is currently believed open (opens exceed closes).
    pub fn connected(&self) -> bool {
        self.sessions > self.clean_closes + self.lost_closes
    }
}

/// Gauges tracking every networked input's session, credit, and ring state.
#[derive(Clone, Debug, Default)]
pub struct NetGauges {
    inputs: Vec<NetLag>,
}

impl NetGauges {
    /// Gauges for `n` inputs (more are added on demand as events mention
    /// higher input ids).
    pub fn new(n: usize) -> NetGauges {
        NetGauges {
            inputs: vec![NetLag::default(); n],
        }
    }

    fn input_mut(&mut self, i: u32) -> &mut NetLag {
        let i = i as usize;
        if i >= self.inputs.len() {
            self.inputs.resize(i + 1, NetLag::default());
        }
        &mut self.inputs[i]
    }

    /// Update the gauges from one trace event. Unrelated events are
    /// ignored, so [`NetGauges`] can consume a full stream unfiltered.
    pub fn on_event(&mut self, event: &TraceEvent) {
        match *event {
            TraceEvent::SessionOpened {
                input, resume_seq, ..
            } => {
                let nl = self.input_mut(input);
                nl.sessions += 1;
                nl.last_resume_seq = resume_seq;
            }
            TraceEvent::SessionClosed { input, clean, .. } => {
                let nl = self.input_mut(input);
                if clean {
                    nl.clean_closes += 1;
                } else {
                    nl.lost_closes += 1;
                }
            }
            TraceEvent::CreditGranted { input, credits, .. } => {
                let nl = self.input_mut(input);
                nl.credits_granted += credits as u64;
                nl.credit_grants += 1;
            }
            TraceEvent::NetQueueSampled {
                input,
                depth,
                capacity,
                ..
            } => {
                let nl = self.input_mut(input);
                nl.depth = depth;
                nl.max_depth = nl.max_depth.max(depth);
                nl.capacity = capacity;
                nl.samples += 1;
                nl.depth_sum += depth as u64;
            }
            _ => {}
        }
    }

    /// Per-input gauges, indexed by input id.
    pub fn inputs(&self) -> &[NetLag] {
        &self.inputs
    }

    /// Total reconnects across all inputs (sessions beyond each input's
    /// first) — the headline "how rough was the network" number.
    pub fn reconnects(&self) -> u64 {
        self.inputs
            .iter()
            .map(|n| n.sessions.saturating_sub(1))
            .sum()
    }

    /// The input with the highest mean ring occupancy — the connection
    /// most often throttled by backpressure. `None` before any sample.
    pub fn hottest(&self) -> Option<(usize, f64)> {
        (0..self.inputs.len())
            .filter(|&i| self.inputs[i].samples > 0)
            .map(|i| (i, self.inputs[i].mean_occupancy()))
            .max_by(|a, b| a.1.total_cmp(&b.1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmerge_temporal::VTime;

    #[test]
    fn sessions_and_reconnects() {
        let mut g = NetGauges::new(2);
        g.on_event(&TraceEvent::SessionOpened {
            at: VTime(0),
            input: 0,
            resume_seq: 0,
        });
        g.on_event(&TraceEvent::SessionClosed {
            at: VTime(5),
            input: 0,
            clean: false,
        });
        g.on_event(&TraceEvent::SessionOpened {
            at: VTime(6),
            input: 0,
            resume_seq: 42,
        });
        assert_eq!(g.inputs()[0].sessions, 2);
        assert_eq!(g.inputs()[0].lost_closes, 1);
        assert_eq!(g.inputs()[0].last_resume_seq, 42, "rejoin resumed mid-feed");
        assert!(g.inputs()[0].connected());
        assert_eq!(g.reconnects(), 1);
        assert_eq!(g.inputs()[1].sessions, 0, "untouched input stays zero");
    }

    #[test]
    fn credits_accumulate() {
        let mut g = NetGauges::default();
        for _ in 0..3 {
            g.on_event(&TraceEvent::CreditGranted {
                at: VTime(1),
                input: 1,
                credits: 16,
            });
        }
        assert_eq!(g.inputs()[1].credits_granted, 48);
        assert_eq!(g.inputs()[1].credit_grants, 3);
    }

    #[test]
    fn ring_occupancy_tracks_depth_and_mean() {
        let mut g = NetGauges::new(1);
        for depth in [8, 32, 16] {
            g.on_event(&TraceEvent::NetQueueSampled {
                at: VTime(0),
                input: 0,
                depth,
                capacity: 64,
            });
        }
        assert_eq!(g.inputs()[0].depth, 16);
        assert_eq!(g.inputs()[0].max_depth, 32);
        assert_eq!(g.inputs()[0].occupancy(), 0.25);
        assert!((g.inputs()[0].mean_occupancy() - (56.0 / 192.0)).abs() < 1e-9);
        assert_eq!(g.hottest(), Some((0, 56.0 / 192.0)));
    }

    #[test]
    fn unrelated_events_are_ignored() {
        let mut g = NetGauges::default();
        g.on_event(&TraceEvent::RunCompleted { at: VTime(9) });
        assert!(g.inputs().is_empty());
        assert_eq!(g.reconnects(), 0);
        assert_eq!(g.hottest(), None);
    }
}
