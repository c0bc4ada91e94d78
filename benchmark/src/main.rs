//! `lmerge-benchmark`: the repo's end-to-end benchmark.
//!
//! The harness is the load generator and the oracle; the system under test
//! on the wire workloads is the real `lmerge-ingest` binary, spawned fresh
//! for every repetition on ephemeral loopback ports. See `README.md` next
//! to this package for the workloads, the metrics and how they interact.

mod layers;
mod loadgen;
mod metrics;
mod oracle;
mod run;
mod spans;
mod stats;
mod sut;
mod workload;

use metrics::{END_TO_END, PER_LAYER, RUN_SECONDS};
use run::{Env, Rep};
use spans::{json_string, Spans};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::{Workload, WORKLOADS};

/// Repetitions measured per run at the least, whatever `--seconds` says.
const MIN_REPS: usize = 3;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    quick: bool,
    selfcheck: bool,
    sut: Option<PathBuf>,
    out: PathBuf,
    print_benchmark_json: bool,
}

const USAGE: &str = "usage: lmerge-benchmark [--workload NAME] [--seed N] [--seconds S] \
[--trace 0|1 | --traced] [--quick] [--selfcheck] [--sut PATH] [--out DIR] [--print-benchmark-json]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS as f64,
        traced: false,
        quick: false,
        selfcheck: false,
        sut: None,
        out: PathBuf::from("benchmark/out"),
        print_benchmark_json: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.traced = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: expected 0 or 1, got {other:?}")),
                }
            }
            "--traced" => args.traced = true,
            "--quick" => args.quick = true,
            "--selfcheck" => args.selfcheck = true,
            "--sut" => args.sut = Some(PathBuf::from(value("--sut")?)),
            "--out" => args.out = PathBuf::from(value("--out")?),
            "--print-benchmark-json" => args.print_benchmark_json = true,
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown flag {other:?}\n{USAGE}")),
        }
    }
    if let Some(name) = &args.workload {
        if workload::find(name).is_none() {
            let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            return Err(format!(
                "unknown workload {name:?}; known: {}",
                known.join(", ")
            ));
        }
    }
    Ok(args)
}

/// One reported number.
#[derive(Clone, Debug)]
pub struct Reported {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Spread over repetitions, when the value is a median of several.
    pub spread: Option<stats::Summary>,
}

/// What one workload run produced.
struct Outcome {
    workload: &'static str,
    values: Vec<Reported>,
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Outcome {
    fn new(workload: &'static str) -> Outcome {
        Outcome {
            workload,
            values: Vec::new(),
            attempted: 0,
            failed: 0,
            notes: Vec::new(),
        }
    }

    fn correct(&self) -> bool {
        self.failed == 0
    }

    /// Count a repetition's operations and failures; hand the repetition
    /// back if it ran at all. One that did not (spawn failed, hung past
    /// its deadline) fails as a whole.
    fn absorb(&mut self, rep: Result<Rep, String>) -> Option<Rep> {
        match rep {
            Ok(rep) => {
                self.attempted += rep.elements as u64;
                self.failed += rep.failed;
                self.notes.extend(rep.notes.iter().cloned());
                Some(rep)
            }
            Err(e) => {
                self.attempted += 1;
                self.failed += 1;
                self.notes.push(e);
                None
            }
        }
    }
}

/// The per-repetition value of each end-to-end metric.
fn end_to_end_of(rep: &Rep) -> [f64; END_TO_END.len()] {
    [
        rep.setup_s,
        rep.throughput_eps(),
        rep.latency_quantile(0.50),
        rep.latency_quantile(0.90),
        rep.cpu_us_per_elem(),
        run::mib(rep.peak_rss_kib as f64 * 1024.0),
        run::mib(rep.state_mean_bytes),
        rep.out_frames as f64 / rep.replica0_elements as f64,
    ]
}

/// The seed of repetition `k` of a run (SplitMix64 over `seed + k`).
///
/// Every repetition streams its own feed. How long an epoch lasts, how much
/// state is live and how many outputs an input causes are properties of the
/// feed, and a handful of repetitions of the *same* feed report that feed's
/// accidents however often they are repeated; over several feeds they
/// average out, so two runs with different `--seed`s agree.
fn rep_seed(seed: u64, k: u64) -> u64 {
    let mut z = seed
        .wrapping_add(k.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The untraced run: repeat the workload for `seconds`, each repetition on
/// the next feed of the seed's sequence, first repetition discarded as
/// warm-up. Latency quantiles are read off the samples of all repetitions
/// together; every other end-to-end metric is the median of the
/// repetitions' values.
fn measure(
    w: &'static Workload,
    seed: u64,
    seconds: f64,
    env: &Env<'_>,
    spans: &mut Spans,
) -> Outcome {
    spans.set_workload(w.name);
    let mut outcome = Outcome::new(w.name);
    let mut reps: Vec<Rep> = Vec::new();
    let budget = Duration::from_secs_f64(seconds);
    let started = Instant::now();
    let mut warm = false;
    let mut broken = 0;
    let mut k = 0;
    while broken < 3 && (!warm || reps.len() < MIN_REPS || started.elapsed() < budget) {
        let span = spans.enter(if warm { "repetition" } else { "warm-up" });
        let rep = run::verified_rep(w, rep_seed(seed, k), env, &mut None, false, spans);
        spans.exit(span);
        k += 1;
        match outcome.absorb(rep) {
            Some(rep) => {
                eprintln!(
                    "{} {}: {:.0} el/s, latency p50 {:.4} ms p90 {:.4} ms, {:.3} us/elem, setup {:.3} s",
                    w.name,
                    if warm { "repetition" } else { "warm-up" },
                    rep.throughput_eps(),
                    rep.latency_quantile(0.50),
                    rep.latency_quantile(0.90),
                    rep.cpu_us_per_elem(),
                    rep.setup_s
                );
                if warm {
                    reps.push(rep);
                }
            }
            None => broken += 1,
        }
        warm = true;
    }
    if reps.is_empty() {
        return outcome;
    }
    let mut pooled_ms: Vec<f64> = reps
        .iter()
        .flat_map(|r| r.latency_ms.iter().copied())
        .collect();
    stats::sort(&mut pooled_ms);
    let per_rep: Vec<_> = reps.iter().map(end_to_end_of).collect();
    for (i, m) in END_TO_END.iter().enumerate() {
        let sample: Vec<f64> = per_rep.iter().map(|r| r[i]).collect();
        let summary = stats::summarize(&sample);
        let value = match m.name {
            "latency_p50_ms" if !pooled_ms.is_empty() => stats::quantile_sorted(&pooled_ms, 0.50),
            "latency_p90_ms" if !pooled_ms.is_empty() => stats::quantile_sorted(&pooled_ms, 0.90),
            _ => summary.median,
        };
        outcome.values.push(Reported {
            name: m.name,
            unit: m.unit,
            value,
            spread: Some(summary),
        });
    }
    if w.checkpoint {
        outcome.notes.insert(
            0,
            format!(
                "checkpoints went to {} on the checkout's disk, not tmpfs: the figures include its fsyncs",
                env.out_dir.display()
            ),
        );
    }
    outcome.notes.insert(
        0,
        format!(
            "{} repetitions after 1 warm-up, each on its own feed of about {} elements; {} latency samples in all",
            reps.len(),
            reps[0].elements,
            pooled_ms.len()
        ),
    );
    outcome
}

fn print_outcome(o: &Outcome) {
    for v in &o.values {
        match v.spread {
            Some(s) => println!(
                "{} {} {:.6} {}  (per repetition: q1 {:.6}, q3 {:.6}, n {}, spread {:.1}%)",
                o.workload,
                v.name,
                v.value,
                v.unit,
                s.q1,
                s.q3,
                s.n,
                s.spread * 100.0
            ),
            None => println!("{} {} {:.6} {}", o.workload, v.name, v.value, v.unit),
        }
    }
    println!(
        "{} attempted {} failed {} correct {}",
        o.workload,
        o.attempted,
        o.failed,
        o.correct()
    );
    for n in o.notes.iter().take(12) {
        println!("{} note: {n}", o.workload);
    }
    if o.notes.len() > 12 {
        println!("{} note: … {} more", o.workload, o.notes.len() - 12);
    }
}

/// The result object: the last line of stdout.
fn result_json(outcomes: &[Outcome]) -> String {
    let single = outcomes.len() == 1;
    let mut metrics = Vec::new();
    for o in outcomes {
        for v in &o.values {
            let key = if single {
                v.name.to_string()
            } else {
                format!("{}:{}", o.workload, v.name)
            };
            metrics.push(format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(&key),
                json_number(v.value),
                json_string(v.unit)
            ));
        }
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcomes.iter().all(Outcome::correct),
        outcomes.iter().map(|o| o.attempted).sum::<u64>().max(1),
        outcomes.iter().map(|o| o.failed).sum::<u64>(),
        metrics.join(", ")
    )
}

/// JSON has no NaN or infinity; a number that is not finite is a bug
/// upstream, reported as 0 rather than as an unparsable line.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// `--selfcheck`: two untraced sets on the same build must agree within
/// every metric's own bound.
fn selfcheck(first: &[Outcome], second: &[Outcome]) -> bool {
    let mut ok = true;
    for (a, b) in first.iter().zip(second) {
        for ((va, vb), m) in a.values.iter().zip(&b.values).zip(&END_TO_END) {
            let worse = m.better.worsening(va.value, vb.value).abs();
            let verdict = if worse <= m.bound {
                "ok"
            } else {
                "EXCEEDS BOUND"
            };
            println!(
                "selfcheck {} {} {:.6} vs {:.6} {} differ {:.2}% bound {:.0}% {verdict}",
                a.workload,
                m.name,
                va.value,
                vb.value,
                m.unit,
                worse * 100.0,
                m.bound * 100.0
            );
            ok &= worse <= m.bound;
        }
        ok &= a.correct() && b.correct();
    }
    ok
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    if args.print_benchmark_json {
        print!("{}", metrics::benchmark_json());
        return ExitCode::SUCCESS;
    }
    let sut_binary = match args.sut.clone().map_or_else(sut::default_binary, Ok) {
        Ok(p) => p,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("create {}: {e}", args.out.display());
        return ExitCode::from(2);
    }
    // Counted before this process confines itself to one of them.
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let pinning = sut::pin_self();
    let env = Env {
        sut_binary: &sut_binary,
        out_dir: &args.out,
        shrink: if args.quick { 20 } else { 1 },
        sut_cpus: pinning.as_ref().map(|p| p.sut_cpus.as_str()),
    };
    // --quick: one short repetition after the warm-up, for smoke use.
    let seconds = if args.quick { 0.0 } else { args.seconds };
    let selected: Vec<&'static Workload> = WORKLOADS
        .iter()
        .filter(|w| args.workload.as_deref().is_none_or(|n| n == w.name))
        .collect();
    println!(
        "# lmerge-benchmark seed {} nproc {nproc} sut {}{}",
        args.seed,
        sut_binary.display(),
        if args.quick {
            " (quick: 1/20 size)"
        } else {
            ""
        }
    );
    match &pinning {
        Some(p) => println!(
            "# pinned: generator on cpu {}, server on cpu {}",
            p.harness_cpu, p.sut_cpus
        ),
        None => println!("# unpinned: one cpu, or no taskset; generator and server share cores"),
    }

    let mut spans = Spans::new();
    let mut outcomes = Vec::new();
    let mut ok = true;
    if args.traced {
        for w in &selected {
            let o = layers::traced(w, args.seed, &env, &mut spans);
            print_outcome(&o);
            outcomes.push(o);
        }
        let trace_path = args.out.join("trace.json");
        if let Err(e) = std::fs::write(&trace_path, spans.to_chrome_trace()) {
            eprintln!("write {}: {e}", trace_path.display());
            ok = false;
        }
    } else {
        for w in &selected {
            let o = measure(w, args.seed, seconds, &env, &mut spans);
            print_outcome(&o);
            outcomes.push(o);
        }
        if args.selfcheck {
            let again: Vec<Outcome> = selected
                .iter()
                .map(|w| measure(w, args.seed, seconds, &env, &mut spans))
                .collect();
            ok &= selfcheck(&outcomes, &again);
        }
    }
    ok &= outcomes.iter().all(Outcome::correct);

    let json = result_json(&outcomes);
    let name = args.workload.as_deref().unwrap_or("all");
    let kind = if args.traced { "traced" } else { "untraced" };
    let json_path = args.out.join(format!("{name}.{kind}.json"));
    if let Err(e) = std::fs::write(&json_path, format!("{json}\n")) {
        eprintln!("write {}: {e}", json_path.display());
        ok = false;
    }
    println!("{json}");
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(workload: &'static str, failed: u64) -> Outcome {
        Outcome {
            workload,
            values: vec![Reported {
                name: "setup_s",
                unit: "s",
                value: 0.5,
                spread: None,
            }],
            attempted: 10,
            failed,
            notes: Vec::new(),
        }
    }

    #[test]
    fn result_object_has_the_contract_keys() {
        let one = result_json(&[outcome("w", 0)]);
        assert_eq!(
            one,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        // Several workloads: keys are qualified, failures add up.
        let two = result_json(&[outcome("a", 0), outcome("b", 2)]);
        assert!(two.starts_with("{\"correct\": false, \"attempted\": 20, \"failed\": 2,"));
        assert!(two.contains("\"a:setup_s\"") && two.contains("\"b:setup_s\""));
        // Nothing attempted still reports at least 1, as the contract asks.
        assert!(result_json(&[]).contains("\"attempted\": 1,"));
    }

    #[test]
    fn repetition_seeds_are_a_function_of_the_run_seed_and_all_differ() {
        let a: Vec<u64> = (0..32).map(|k| rep_seed(7, k)).collect();
        let b: Vec<u64> = (0..32).map(|k| rep_seed(7, k)).collect();
        assert_eq!(a, b, "same --seed, same feeds");
        let mut all: Vec<u64> = (0..32)
            .flat_map(|k| [rep_seed(7, k), rep_seed(8, k)])
            .collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 64, "neighbouring seeds share no repetition");
    }

    #[test]
    fn non_finite_numbers_never_reach_the_json() {
        assert_eq!(json_number(1.25), "1.25");
        assert_eq!(json_number(f64::NAN), "0");
        assert_eq!(json_number(f64::INFINITY), "0");
    }

    #[test]
    fn selfcheck_compares_against_each_metrics_own_bound() {
        let full = |setup: f64| Outcome {
            workload: "w",
            values: END_TO_END
                .iter()
                .map(|m| Reported {
                    name: m.name,
                    unit: m.unit,
                    value: if m.name == "setup_s" { setup } else { 1.0 },
                    spread: None,
                })
                .collect(),
            attempted: 1,
            failed: 0,
            notes: Vec::new(),
        };
        assert!(
            selfcheck(&[full(1.0)], &[full(1.2)]),
            "20% is inside setup_s' 25%"
        );
        assert!(!selfcheck(&[full(1.0)], &[full(1.3)]), "30% is not");
        assert!(
            !selfcheck(&[full(1.4)], &[full(1.0)]),
            "in either direction"
        );
    }
}
