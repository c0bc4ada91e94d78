//! The differential conformance harness: one fault plan, every algorithm.
//!
//! [`run_case`] replays the same seeded [`FaultPlan`] against each variant
//! of the LMerge spectrum (R0–R4 plus the naive LMR3− baseline). Each
//! variant merges a level-appropriate set of physically divergent copies
//! of one logical stream; the [`ChaosInjector`] applies the plan and
//! checks the compatibility oracle as the run unfolds. Because input 0 is
//! never faulted, every run completes, and because everything — feed
//! derivation, fault triggers, shuffles, virtual time — derives from the
//! case seed, re-running a case yields a byte-identical trace.

use crate::inject::ChaosInjector;
use crate::plan::{Fault, FaultPlan};
use lmerge_core::{new_for_level, LMergeR3Naive, LogicalMerge, MergePolicy, RobustnessPolicy};
use lmerge_engine::{MergeRun, Operator, Query, RunConfig, TimedElement};
use lmerge_gen::{diverge, generate, DivergenceConfig, GenConfig};
use lmerge_obs::{export, Tracer};
use lmerge_properties::RLevel;
use lmerge_temporal::{Element, Time, VTime, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Buffer data elements into chunks so executor batches carry several
/// elements — which gives the duplicate/reorder faults something to chew
/// on. Punctuation flushes the buffer (a stable may not overtake the data
/// it freezes), as does reaching the chunk size.
pub struct Chunker<P> {
    n: usize,
    buf: Vec<Element<P>>,
}

impl<P> Chunker<P> {
    /// A chunker emitting groups of up to `n` data elements.
    pub fn new(n: usize) -> Chunker<P> {
        Chunker {
            n: n.max(1),
            buf: Vec::new(),
        }
    }
}

impl<P: lmerge_temporal::Payload> Operator<P> for Chunker<P> {
    fn on_element(&mut self, element: &Element<P>, out: &mut Vec<Element<P>>) {
        if element.is_stable() {
            out.append(&mut self.buf);
            out.push(element.clone());
        } else {
            self.buf.push(element.clone());
            if self.buf.len() >= self.n {
                out.append(&mut self.buf);
            }
        }
    }

    fn memory_bytes(&self) -> usize {
        self.buf.capacity() * std::mem::size_of::<Element<P>>()
    }

    fn name(&self) -> &'static str {
        "chunk"
    }
}

/// The algorithm variants the differential harness drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Variant {
    /// R0: insert-only, strictly increasing `Vs`.
    R0,
    /// R1: insert-only, non-decreasing, deterministic ties.
    R1,
    /// R2: insert-only, non-decreasing, `(Vs, Payload)` key.
    R2,
    /// R3: the indexed general algorithm.
    R3,
    /// The paper's LMR3− baseline (per-input indexes).
    R3Naive,
    /// R4: the fully general multiset algorithm.
    R4,
}

/// Every variant, in spectrum order.
pub const ALL_VARIANTS: [Variant; 6] = [
    Variant::R0,
    Variant::R1,
    Variant::R2,
    Variant::R3,
    Variant::R3Naive,
    Variant::R4,
];

impl Variant {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Variant::R0 => "r0",
            Variant::R1 => "r1",
            Variant::R2 => "r2",
            Variant::R3 => "r3",
            Variant::R3Naive => "r3_naive",
            Variant::R4 => "r4",
        }
    }

    /// The restriction level governing feeds, fault degradation, and the
    /// oracle flavour. The naive baseline implements the R3 contract.
    pub fn level(&self) -> RLevel {
        match self {
            Variant::R0 => RLevel::R0,
            Variant::R1 => RLevel::R1,
            Variant::R2 => RLevel::R2,
            Variant::R3 | Variant::R3Naive => RLevel::R3,
            Variant::R4 => RLevel::R4,
        }
    }

    /// Construct the merge operator for `n` inputs with the given
    /// robustness policy (applied where the variant supports it).
    pub fn build(&self, n: usize, robustness: RobustnessPolicy) -> Box<dyn LogicalMerge<Value>> {
        match self {
            Variant::R3Naive => Box::new(LMergeR3Naive::new(n)),
            v => new_for_level(
                v.level(),
                n,
                MergePolicy {
                    robustness,
                    ..MergePolicy::paper_default()
                },
            ),
        }
    }
}

/// One chaos case: a seed and the workload shape it drives.
#[derive(Clone, Copy, Debug)]
pub struct ChaosConfig {
    /// Master seed: feeds, plan, and shuffles all derive from it.
    pub seed: u64,
    /// Events in the reference stream.
    pub events: usize,
    /// Number of input replicas (input 0 is never faulted).
    pub n_inputs: usize,
    /// Data elements per delivered batch.
    pub chunk: usize,
    /// Robustness policy for the variants that support one.
    pub robustness: RobustnessPolicy,
}

impl ChaosConfig {
    /// A small default case for `seed`: 3 replicas, 120 events, chunked
    /// batches, and the quarantine/entry-bound guards switched on.
    pub fn small(seed: u64) -> ChaosConfig {
        ChaosConfig {
            seed,
            events: 120,
            n_inputs: 3,
            chunk: 4,
            robustness: RobustnessPolicy::guarded(600, 1 << 20),
        }
    }

    /// Virtual-time horizon within which fault triggers are drawn.
    pub fn horizon(&self) -> VTime {
        VTime(self.events as u64 * 40)
    }
}

/// What one variant's run produced under the plan.
#[derive(Debug)]
pub struct CaseOutcome {
    /// The variant that ran.
    pub variant: Variant,
    /// Oracle/well-formedness violations (empty on a conformant run).
    pub violations: Vec<String>,
    /// `(fault label, times applied)` for the faults that actually fired.
    pub applied: Vec<(String, u32)>,
    /// Whether the merged output reached `stable(∞)`.
    pub completed: bool,
    /// The output's final stable point.
    pub output_stable: Time,
    /// Whether the output TDB reconstituted to the reference TDB.
    pub tdb_matches: bool,
    /// How many oracle checks ran.
    pub checks: usize,
    /// The run's full JSONL event trace (determinism witness).
    pub trace: String,
}

impl CaseOutcome {
    /// Whether the run was fully conformant.
    pub fn ok(&self) -> bool {
        self.violations.is_empty() && self.completed && self.tdb_matches
    }
}

/// Assign virtual arrival times: copy `c`'s element `j` arrives at
/// `j·40 + c·13` µs — replicas pace together but stay slightly skewed, so
/// delivery interleaves across inputs like the paper's lag experiments.
pub fn timed(copy: usize, elements: Vec<Element<Value>>) -> Vec<TimedElement<Value>> {
    elements
        .into_iter()
        .enumerate()
        .map(|(j, e)| TimedElement::new(VTime(j as u64 * 40 + copy as u64 * 13), e))
        .collect()
}

/// The general workload (R3/R4/naive): divergent copies — reordered
/// windows, provisional-insert revision paths, thinned punctuation.
pub fn general_feeds(
    cfg: &ChaosConfig,
) -> (lmerge_temporal::Tdb<Value>, Vec<Vec<TimedElement<Value>>>) {
    // Denser punctuation than the unit-test default: every stable advance
    // is an oracle checkpoint, and the laggard faults need announced
    // stables to freeze.
    let r = generate(&GenConfig::small(cfg.events, cfg.seed).with_stable_freq(0.06));
    let dcfg = DivergenceConfig {
        seed: cfg.seed.wrapping_mul(0x9E37_79B9).wrapping_add(1),
        ..DivergenceConfig::default()
    };
    let feeds = (0..cfg.n_inputs)
        .map(|c| timed(c, diverge(&r.elements, &dcfg, c as u64)))
        .collect();
    (r.tdb, feeds)
}

/// The restricted workload (R0–R2): insert-only, strictly increasing `Vs`,
/// identical data order on every copy; copies differ only in which
/// non-final punctuation they keep.
pub fn restricted_feeds(
    cfg: &ChaosConfig,
) -> (lmerge_temporal::Tdb<Value>, Vec<Vec<TimedElement<Value>>>) {
    let gc = GenConfig {
        min_gap_ms: 1,
        disorder: 0.0,
        ..GenConfig::small(cfg.events, cfg.seed).with_stable_freq(0.06)
    };
    let r = generate(&gc);
    let mut feeds = Vec::with_capacity(cfg.n_inputs);
    for c in 0..cfg.n_inputs {
        let mut rng = StdRng::seed_from_u64(cfg.seed.wrapping_add(1000 + c as u64));
        let copy: Vec<Element<Value>> = r
            .elements
            .iter()
            .filter(|e| match e {
                Element::Stable(t) if *t != Time::INFINITY => rng.random_bool(0.7),
                _ => true,
            })
            .cloned()
            .collect();
        feeds.push(timed(c, copy));
    }
    (r.tdb, feeds)
}

/// Replay `plan` against one variant. The feeds and the injector derive
/// entirely from `cfg` and `plan`, so the returned trace is a pure
/// function of them.
pub fn run_variant(variant: Variant, cfg: &ChaosConfig, plan: &FaultPlan) -> CaseOutcome {
    let level = variant.level();
    let (reference_tdb, feeds) = if level >= RLevel::R3 {
        general_feeds(cfg)
    } else {
        restricted_feeds(cfg)
    };

    let mut injector = ChaosInjector::new(level, plan, &feeds);
    if plan
        .faults
        .iter()
        .any(|f| matches!(f, Fault::CrashMerge { .. }))
    {
        let (v, n, robustness) = (variant, cfg.n_inputs, cfg.robustness);
        injector = injector.with_merge_rebuilder(Box::new(move |img| {
            let mut fresh = v.build(n, robustness);
            assert!(
                fresh.restore_state(img),
                "restore into a fresh {} merge",
                v.name()
            );
            fresh
        }));
    }
    let queries: Vec<Query<Value>> = feeds
        .into_iter()
        .map(|f| {
            let chain: Vec<Box<dyn Operator<Value>>> = vec![Box::new(Chunker::new(cfg.chunk))];
            Query::new(f, chain)
        })
        .collect();
    let merge = variant.build(cfg.n_inputs, cfg.robustness);
    let mut tracer = Tracer::new();
    let metrics = MergeRun::new(queries, merge, RunConfig::default())
        .run_with_hooks(&mut tracer, &mut injector);

    // Final oracle pass over the completed prefixes.
    injector.check_now();
    let completed = metrics.output_complete_at.is_some();
    let output_stable = injector.output().stable();
    let tdb_matches = injector.output().tdb() == &reference_tdb;
    CaseOutcome {
        variant,
        violations: injector.violations().to_vec(),
        applied: injector
            .applied()
            .iter()
            .map(|(k, v)| (k.to_string(), *v))
            .collect(),
        completed,
        output_stable,
        tdb_matches,
        checks: injector.checks(),
        trace: export::to_jsonl(tracer.events()),
    }
}

/// Replay the case's random plan against every variant of the spectrum.
pub fn run_case(cfg: &ChaosConfig) -> Vec<CaseOutcome> {
    let plan = FaultPlan::random(cfg.seed, cfg.n_inputs, cfg.horizon());
    ALL_VARIANTS
        .iter()
        .map(|v| run_variant(*v, cfg, &plan))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::Fault;

    #[test]
    fn chunker_batches_data_and_flushes_on_stable() {
        let mut c: Chunker<&str> = Chunker::new(3);
        let mut out = Vec::new();
        c.on_element(&Element::insert("a", 1, 5), &mut out);
        c.on_element(&Element::insert("b", 2, 6), &mut out);
        assert!(out.is_empty(), "buffered below the chunk size");
        c.on_element(&Element::stable(4), &mut out);
        assert_eq!(out.len(), 3, "stable flushes the buffer first");
        assert!(out[2].is_stable());
    }

    #[test]
    fn clean_plan_runs_are_conformant_for_every_variant() {
        let cfg = ChaosConfig {
            events: 60,
            ..ChaosConfig::small(11)
        };
        let plan = FaultPlan::clean(11);
        for v in ALL_VARIANTS {
            let o = run_variant(v, &cfg, &plan);
            assert!(
                o.ok(),
                "{} clean run failed: violations={:?} completed={} tdb={}",
                v.name(),
                o.violations,
                o.completed,
                o.tdb_matches
            );
            assert!(o.checks > 0, "{} oracle never ran", v.name());
        }
    }

    #[test]
    fn crash_plan_stays_conformant_and_fires() {
        let cfg = ChaosConfig {
            events: 60,
            ..ChaosConfig::small(12)
        };
        let plan = FaultPlan {
            seed: 12,
            faults: vec![Fault::Crash {
                input: 1,
                at: VTime(300),
            }],
        };
        for v in ALL_VARIANTS {
            let o = run_variant(v, &cfg, &plan);
            assert!(o.ok(), "{} crash run failed: {:?}", v.name(), o.violations);
            assert!(
                o.applied.iter().any(|(k, _)| k == "crash"),
                "{} crash never fired",
                v.name()
            );
        }
    }
}
