//! The workload catalogue (frozen parameters) and feed preparation.
//!
//! Every workload is one logical stream from `gen::generate`, presented as
//! physically divergent replicas by `gen::diverge`, stamped with virtual
//! arrival times by `gen::assign_times`, and — for the wire workloads —
//! pre-encoded into `Data` frames so the measured loop only moves bytes.

use lmerge::engine::TimedElement;
use lmerge::gen::{assign_times, diverge, generate, DivergenceConfig, GenConfig};
use lmerge::net::wire::{self, Frame};
use lmerge::temporal::{Element, Time, Value};

/// How a workload drives the system under test.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Drive {
    /// Closed loop over the wire: each replica sends as fast as the
    /// server's credits allow.
    Closed,
    /// Open loop over the wire: frame `i` of a replica is due at its
    /// virtual arrival stamp (`rate_eps` elements per second per replica),
    /// replica 1 a further `lag_ms` later. The schedule never slows when
    /// the server does.
    Open { rate_eps: f64, lag_ms: u64 },
    /// The library path: `MergeRun` in this process, no sockets.
    Embed,
}

/// One workload's frozen parameters.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub drive: Drive,
    pub replicas: usize,
    /// Inserts in the reference stream of one repetition.
    pub events: usize,
    pub payload_len: usize,
    pub stable_freq: f64,
    /// Punctuation cadence: when not 0, only the first `stable` after every
    /// this many inserts is kept, in every replica, so epochs are
    /// near-regular (what a query that advances time once per window emits)
    /// and not geometric.
    pub stable_every: usize,
    pub disorder: f64,
    /// Event lifetime in application ms; with the generator's 10 s mean gap
    /// the live set (and so the merge state) is about `lifetime / 10_000`
    /// events.
    pub event_duration_ms: i64,
    /// Run the server with `--checkpoint-to`.
    pub checkpoint: bool,
}

/// The paper's event lifetime ("around 10K elements are active at any
/// point in time"), `GenConfig`'s default.
const PAPER_LIFETIME_MS: i64 = 100_000_000;

/// The lifetime of the 32 B wire workloads: a live set of ≈500 events.
/// Every `stable` makes LMR3+ sweep its whole live set, so with the
/// paper's 10 000 live events and a stable every ≈70 elements the sweep
/// alone was 60% of the server's CPU and these workloads measured the
/// core, not the wire. They exist to measure per-frame cost; the paper's
/// live set is `embed_r3_1k`'s business.
const SMALL_LIFETIME_MS: i64 = PAPER_LIFETIME_MS / 20;

/// Credits the one subscriber grants the fan-out server.
pub const SUBSCRIBER_CREDITS: u32 = 4096;

/// Nominal virtual rate stamped on closed-loop and embedded feeds (the
/// merge orders deliveries by these stamps; wall-clock pacing ignores
/// them there).
const NOMINAL_RATE_EPS: f64 = 50_000.0;

/// The rate steps of the open-loop workloads, in elements per second per
/// replica. Chosen once on the reference box as ≈60% and ≈15% of the rate
/// `wire_flatout_32b` sustained there, then frozen as absolute numbers: a
/// later, faster server must show lower latency at the *same* offered
/// load, not hide behind a rescaled one.
pub const PACED_RATE_EPS: f64 = 60_000.0;
pub const LOW_RATE_EPS: f64 = 19_000.0;
/// `wire_ckpt_1k`'s rate: at ≈20 µs of server CPU per element the server's
/// core is about half busy, so that a slow disk shows as latency, not as a
/// backlog that never drains.
pub const CKPT_RATE_EPS: f64 = 12_000.0;

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "wire_flatout_32b",
        why: "closed loop, 2 divergent replicas, 32 B payloads: per-frame cost (wire codec, sessions, ring, fan-out) rules; core does little, durable nothing",
        drive: Drive::Closed,
        replicas: 2,
        events: 180_000,
        payload_len: 32,
        stable_freq: 0.02,
        stable_every: 0,
        disorder: 0.10,
        event_duration_ms: SMALL_LIFETIME_MS,
        checkpoint: false,
    },
    Workload {
        name: "wire_paced_32b",
        why: "open loop at a fixed ~60% of the flat-out rate, same feed: latency timed from when a frame was due, so batching or lingering that lifts throughput shows its cost here",
        drive: Drive::Open {
            rate_eps: PACED_RATE_EPS,
            lag_ms: 0,
        },
        replicas: 2,
        events: 60_000,
        payload_len: 32,
        stable_freq: 0.02,
        stable_every: 0,
        disorder: 0.10,
        event_duration_ms: SMALL_LIFETIME_MS,
        checkpoint: false,
    },
    Workload {
        name: "wire_lag_32b",
        why: "open loop at a fixed low rate with replica 1 scheduled 50 ms behind replica 0: the executor decides whether output follows the fastest input or waits for the slowest",
        drive: Drive::Open {
            rate_eps: LOW_RATE_EPS,
            lag_ms: 50,
        },
        replicas: 2,
        events: 22_000,
        payload_len: 32,
        stable_freq: 0.02,
        stable_every: 0,
        disorder: 0.10,
        event_duration_ms: SMALL_LIFETIME_MS,
        checkpoint: false,
    },
    Workload {
        name: "embed_r3_1k",
        why: "library path, single-threaded, no sockets: MergeRun over 3 replicas with the paper's 1000 B payloads and 20% disorder; core index and payload clone/compare rule, net/sub/durable do nothing",
        drive: Drive::Embed,
        replicas: 3,
        events: 40_000,
        payload_len: 1000,
        stable_freq: 0.01,
        stable_every: 0,
        disorder: 0.20,
        event_duration_ms: PAPER_LIFETIME_MS,
        checkpoint: false,
    },
    Workload {
        name: "wire_ckpt_1k",
        why: "open loop at a fixed rate, 1000 B payloads, a checkpoint at every output stable advance: durable and per-byte wire cost rule; against wire_paced_32b it separates per-byte from per-frame cost",
        // Open, not closed: a closed loop runs at whatever the disk under
        // the checkpoint directory allows, and on a shared host that is the
        // neighbours' business (throughput, and with it every latency, moved
        // by a third between runs of the same code). Below saturation a slow
        // fsync is absorbed by idle time; what the checkpoints cost shows in
        // `cpu_us_per_elem` and in the latency tail instead.
        drive: Drive::Open {
            rate_eps: CKPT_RATE_EPS,
            lag_ms: 0,
        },
        replicas: 2,
        events: 25_000,
        payload_len: 1000,
        // A stable about every 220 events, on a regular cadence: ≈115
        // epochs (and checkpoints) in a repetition. Output only leaves the
        // server when an epoch seals, so at this rate latency is mostly the
        // wait for punctuation; with the generator's Bernoulli placement its
        // p90 was the length of the few longest epochs a seed happened to
        // draw (±20% between seeds over ≈500 epochs).
        stable_freq: 0.05,
        stable_every: 200,
        disorder: 0.10,
        // ≈1 000 live events, ≈1.5 MB of merge state. Every checkpoint walks
        // the whole state (a delta too), so with the paper's 10 000 live
        // events checkpoints this frequent would be most of the server's
        // CPU; the paper's live set is `embed_r3_1k`'s business.
        event_duration_ms: PAPER_LIFETIME_MS / 10,
        checkpoint: true,
    },
];

/// Look a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// The virtual (and, for open loops, wall-clock) rate of replica 0.
    pub fn rate_eps(&self) -> f64 {
        match self.drive {
            Drive::Open { rate_eps, .. } => rate_eps,
            Drive::Closed | Drive::Embed => NOMINAL_RATE_EPS,
        }
    }

    /// Build the replicas' timed feeds for `seed` at `1/shrink` size.
    ///
    /// Every replica spans the same virtual duration (a longer replica
    /// runs proportionally faster), so all of them reach their final
    /// `stable(∞)` together: the run ends with no unconsumed tail sitting
    /// in a ring, and the close handshakes are not part of what is timed.
    pub fn feeds(&self, seed: u64, shrink: usize) -> Vec<Vec<TimedElement<Value>>> {
        let cfg = GenConfig {
            num_events: (self.events / shrink.max(1)).max(200),
            disorder: self.disorder,
            stable_freq: self.stable_freq,
            payload_len: self.payload_len,
            event_duration_ms: self.event_duration_ms,
            seed,
            ..Default::default()
        };
        let mut reference = generate(&cfg).elements;
        if self.stable_every > 0 {
            thin_stables(&mut reference, self.stable_every);
        }
        let div = DivergenceConfig {
            seed: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(7),
            // A regular cadence is regular in every replica: one that skipped
            // a stable would double that epoch (the replicas still diverge
            // physically, through their revision paths).
            stable_keep_prob: if self.stable_every > 0 {
                1.0
            } else {
                DivergenceConfig::default().stable_keep_prob
            },
            ..Default::default()
        };
        let copies: Vec<_> = (0..self.replicas as u64)
            .map(|i| diverge(&reference, &div, i))
            .collect();
        let base_len = copies[0].len() as f64;
        copies
            .iter()
            .map(|copy| {
                let rate = self.rate_eps() * copy.len() as f64 / base_len;
                assign_times(copy, rate)
                    .into_iter()
                    .map(|(at, e)| TimedElement::new(at, e))
                    .collect()
            })
            .collect()
    }
}

/// Keep only the first `stable` after every `every` inserts (and the
/// closing `stable(∞)`). Dropping punctuation never invalidates a stream.
fn thin_stables(elements: &mut Vec<Element<Value>>, every: usize) {
    let mut inserts = 0;
    elements.retain(|e| match e {
        Element::Stable(t) if *t != Time::INFINITY => {
            let keep = inserts >= every;
            if keep {
                inserts = 0;
            }
            keep
        }
        Element::Insert(_) => {
            inserts += 1;
            true
        }
        _ => true,
    });
}

/// One replica's feed as the bytes that will cross the socket: every
/// `Data` frame back to back, then the closing `Bye`.
pub struct EncodedFeed {
    pub bytes: Vec<u8>,
    /// `ends[i]` is one past the last byte of data frame `i`.
    pub ends: Vec<usize>,
}

impl EncodedFeed {
    /// Number of data frames (the `Bye` is not one).
    pub fn frames(&self) -> usize {
        self.ends.len()
    }

    /// Bytes of all data frames (excluding the `Bye`).
    pub fn data_bytes(&self) -> usize {
        self.ends.last().copied().unwrap_or(0)
    }
}

/// Pre-encode a feed: frame `i` carries `seq = i`, the element's virtual
/// stamp, and the element.
pub fn encode_feed(feed: &[TimedElement<Value>]) -> EncodedFeed {
    let mut bytes = Vec::new();
    let mut ends = Vec::with_capacity(feed.len());
    for (i, te) in feed.iter().enumerate() {
        wire::encode_into(
            &Frame::Data {
                seq: i as u64,
                at: te.at,
                element: te.element.clone(),
            },
            &mut bytes,
        );
        ends.push(bytes.len());
    }
    wire::encode_into(&Frame::Bye, &mut bytes);
    EncodedFeed { bytes, ends }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_names_are_unique_and_findable() {
        for (i, w) in WORKLOADS.iter().enumerate() {
            assert_eq!(find(w.name).unwrap().name, w.name);
            assert!(WORKLOADS[..i].iter().all(|o| o.name != w.name));
            assert!(
                w.why.len() <= 200,
                "{}: why is {} chars",
                w.name,
                w.why.len()
            );
        }
        assert!(find("nope").is_none());
    }

    #[test]
    fn feeds_are_seeded_divergent_and_end_together() {
        let w = find("wire_flatout_32b").unwrap();
        let a = w.feeds(3, 100);
        let b = w.feeds(3, 100);
        let c = w.feeds(4, 100);
        assert_eq!(a.len(), 2);
        let elems = |f: &Vec<TimedElement<Value>>| -> Vec<_> {
            f.iter().map(|te| (te.at, te.element.clone())).collect()
        };
        assert_eq!(elems(&a[0]), elems(&b[0]), "same seed, same feed");
        assert_ne!(elems(&a[0]), elems(&c[0]), "another seed, another feed");
        assert_ne!(elems(&a[0]), elems(&a[1]), "replicas diverge physically");
        for f in &a {
            assert_eq!(
                f.last().unwrap().element,
                Element::Stable(Time::INFINITY),
                "complete streams"
            );
        }
        // Equal virtual spans: the final stamps differ by at most one gap.
        let end0 = a[0].last().unwrap().at.0 as i64;
        let end1 = a[1].last().unwrap().at.0 as i64;
        assert!((end0 - end1).abs() <= 25, "{end0} vs {end1}");
    }

    #[test]
    fn thinned_punctuation_keeps_a_regular_cadence_and_the_final_stable() {
        let w = find("wire_ckpt_1k").unwrap();
        assert!(w.stable_every > 0);
        let feed = &w.feeds(2, 5)[0];
        assert_eq!(
            feed.last().unwrap().element,
            Element::Stable(Time::INFINITY)
        );
        // Between consecutive stables of a replica: at least the cadence
        // (a replica may also have dropped one, never added one).
        let mut inserts = 0;
        let mut gaps = Vec::new();
        for te in feed {
            match &te.element {
                Element::Insert(_) => inserts += 1,
                Element::Stable(_) => gaps.push(std::mem::take(&mut inserts)),
                _ => {}
            }
        }
        gaps.pop(); // the tail before stable(∞) is as long as it is
        assert!(gaps.len() > 5, "{gaps:?}");
        assert!(gaps.iter().all(|&g| g >= w.stable_every), "{gaps:?}");
        let mut sorted = gaps.clone();
        sorted.sort_unstable();
        assert!(
            sorted[sorted.len() / 2] < w.stable_every * 3 / 2,
            "most epochs are one cadence long: {gaps:?}"
        );
    }

    #[test]
    fn encoded_feed_decodes_back_frame_by_frame() {
        let w = find("wire_lag_32b").unwrap();
        let feed = &w.feeds(1, 50)[0];
        let enc = encode_feed(feed);
        assert_eq!(enc.frames(), feed.len());
        let mut pos = 0;
        for (i, te) in feed.iter().enumerate() {
            let (frame, used) = wire::decode(&enc.bytes[pos..]).unwrap();
            pos += used;
            assert_eq!(pos, enc.ends[i]);
            assert_eq!(
                frame,
                Frame::Data {
                    seq: i as u64,
                    at: te.at,
                    element: te.element.clone()
                }
            );
        }
        assert_eq!(enc.data_bytes(), pos);
        let (bye, used) = wire::decode(&enc.bytes[pos..]).unwrap();
        assert_eq!(bye, Frame::Bye);
        assert_eq!(pos + used, enc.bytes.len());
    }
}
