//! `lmerge-top`: a live terminal dashboard over the metrics endpoint.
//!
//! ```text
//! lmerge-top --addr 127.0.0.1:9901 --interval-ms 1000
//! ```
//!
//! Scrapes `lmerge-ingest --metrics` (or any [`lmerge_obs::MetricsServer`])
//! each interval and redraws: watermark progress and real-time lag, active
//! SLO alerts, and per-input session/frame/byte/queue state (rows come from
//! the net series, or from the engine's `lmerge_elements_delivered_total`
//! when a registry has no sockets). `--once` prints a single frame without
//! clearing the screen — the mode CI smoke tests use.

use lmerge_obs::{parse_prometheus, scrape, ScrapedSample};
use std::process::ExitCode;
use std::thread;
use std::time::Duration;

struct Args {
    addr: String,
    interval_ms: u64,
    iterations: u64,
    clear: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: "127.0.0.1:9901".to_string(),
        interval_ms: 1000,
        iterations: 0, // 0 = until the endpoint goes away
        clear: true,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--addr" => args.addr = value("--addr")?,
            "--interval-ms" => {
                args.interval_ms = value("--interval-ms")?
                    .parse()
                    .map_err(|e| format!("--interval-ms: {e}"))?
            }
            "--iterations" => {
                args.iterations = value("--iterations")?
                    .parse()
                    .map_err(|e| format!("--iterations: {e}"))?
            }
            "--once" => {
                args.iterations = 1;
                args.clear = false;
            }
            "--no-clear" => args.clear = false,
            "--help" | "-h" => {
                return Err("usage: lmerge-top [--addr HOST:PORT] [--interval-ms N] \
                     [--iterations N] [--once] [--no-clear]"
                    .to_string())
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(args)
}

/// Largest value of a label-free (or single-series) metric.
fn max_of(samples: &[ScrapedSample], name: &str) -> Option<f64> {
    samples
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.value)
        .fold(None, |acc, v| Some(acc.map_or(v, |a: f64| a.max(v))))
}

/// Value of `name` for a given label pair, if present.
fn labeled(samples: &[ScrapedSample], name: &str, key: &str, val: &str) -> Option<f64> {
    samples
        .iter()
        .find(|s| s.name == name && s.label(key) == Some(val))
        .map(|s| s.value)
}

/// Sorted distinct values of `key` across every series of `name`.
fn label_values(samples: &[ScrapedSample], name: &str, key: &str) -> Vec<String> {
    let mut vals: Vec<String> = samples
        .iter()
        .filter(|s| s.name == name)
        .filter_map(|s| s.label(key).map(str::to_string))
        .collect();
    vals.sort_by_key(|v| v.parse::<u64>().unwrap_or(u64::MAX));
    vals.dedup();
    vals
}

fn fmt_count(v: f64) -> String {
    if v >= 1e9 {
        format!("{:.1}G", v / 1e9)
    } else if v >= 1e6 {
        format!("{:.1}M", v / 1e6)
    } else if v >= 1e3 {
        format!("{:.1}k", v / 1e3)
    } else {
        format!("{v:.0}")
    }
}

/// Render one dashboard frame from a parsed scrape. Pure — unit-testable
/// without a socket.
fn render(samples: &[ScrapedSample]) -> String {
    let mut out = String::new();
    let uptime_s = max_of(samples, "lmerge_uptime_ms").unwrap_or(0.0) / 1000.0;
    let stable = max_of(samples, "lmerge_output_stable");
    let lag_ms = max_of(samples, "lmerge_watermark_lag_ms");
    out.push_str(&format!(
        "lmerge-top  up {uptime_s:.1}s  watermark {}  lag {}\n",
        stable.map_or("-".to_string(), fmt_count),
        lag_ms.map_or("-".to_string(), |v| format!("{v:.0}ms")),
    ));
    let emitted: f64 = samples
        .iter()
        .filter(|s| s.name == "lmerge_elements_emitted_total")
        .map(|s| s.value)
        .sum();
    let resumes: f64 = samples
        .iter()
        .filter(|s| s.name == "lmerge_net_resumes_total")
        .map(|s| s.value)
        .sum();
    out.push_str(&format!(
        "emitted {}  resumes {}\n",
        fmt_count(emitted),
        fmt_count(resumes),
    ));

    // Active SLO alerts, loudest first.
    let mut alerts: Vec<&ScrapedSample> = samples
        .iter()
        .filter(|s| s.name == "lmerge_alert_active" && s.value > 0.0)
        .collect();
    alerts.sort_by_key(|s| s.label("rule").unwrap_or("").to_string());
    out.push('\n');
    if alerts.is_empty() {
        out.push_str("alerts: none\n");
    } else {
        out.push_str("ALERTS:\n");
        for a in alerts {
            out.push_str(&format!(
                "  [{}] {}\n",
                a.label("severity").unwrap_or("?"),
                a.label("rule").unwrap_or("?"),
            ));
        }
    }

    // Per-input net/ingest state.
    let input_ids = {
        let mut ids = label_values(samples, "lmerge_net_frames_total", "input");
        if ids.is_empty() {
            ids = label_values(samples, "lmerge_elements_delivered_total", "input");
        }
        ids
    };
    if !input_ids.is_empty() {
        out.push_str("\ninput  frames   bytes  seq      sess  behind\n");
        for id in &input_ids {
            let g = |name: &str| labeled(samples, name, "input", id);
            out.push_str(&format!(
                "{:>5}  {:>6}  {:>6}  {:>7}  {:>4}  {:>6}\n",
                id,
                g("lmerge_net_frames_total").map_or("-".to_string(), fmt_count),
                g("lmerge_net_bytes_total").map_or("-".to_string(), fmt_count),
                g("lmerge_net_next_seq").map_or("-".to_string(), fmt_count),
                g("lmerge_net_sessions_opened_total").map_or("-".to_string(), fmt_count),
                g("lmerge_input_behind").map_or("-".to_string(), fmt_count),
            ));
        }
    }
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let mut frame = 0u64;
    loop {
        let body = match scrape(&args.addr as &str) {
            Ok(b) => b,
            Err(e) => {
                if frame == 0 {
                    eprintln!("scrape {}: {e}", args.addr);
                    return ExitCode::FAILURE;
                }
                // Endpoint went away mid-watch: the run finished.
                println!("endpoint {} closed ({e}); exiting", args.addr);
                return ExitCode::SUCCESS;
            }
        };
        let samples = parse_prometheus(&body);
        if args.clear {
            print!("\x1b[2J\x1b[H");
        }
        print!("{}", render(&samples));
        frame += 1;
        if args.iterations != 0 && frame >= args.iterations {
            return ExitCode::SUCCESS;
        }
        thread::sleep(Duration::from_millis(args.interval_ms));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmerge_obs::{EngineMetrics, MetricsRegistry, TraceEvent};
    use lmerge_temporal::VTime;

    #[test]
    fn renders_inputs_and_alerts_from_a_scrape() {
        let registry = MetricsRegistry::new();
        registry
            .counter("lmerge_net_frames_total", "h", &[("input", "0")])
            .add(1500);
        registry
            .counter("lmerge_net_bytes_total", "h", &[("input", "0")])
            .add(2_000_000);
        registry
            .gauge(
                "lmerge_alert_active",
                "h",
                &[("rule", "straggler_gap"), ("severity", "warn")],
            )
            .set(1);
        let samples = parse_prometheus(&registry.render());
        let frame = render(&samples);
        assert!(frame.contains("1.5k"), "frame count rendered: {frame}");
        assert!(frame.contains("2.0M"), "byte count rendered: {frame}");
        assert!(frame.contains("[warn] straggler_gap"), "{frame}");
    }

    #[test]
    fn an_in_process_registry_lists_its_inputs() {
        // No net series: the rows come from the engine's per-input series.
        let registry = MetricsRegistry::new();
        let mut engine = EngineMetrics::new(&registry);
        for input in 0..2 {
            engine.on_event(&TraceEvent::BatchDelivered {
                at: VTime(1),
                input,
                elements: 3,
                data: 2,
            });
        }
        let frame = render(&parse_prometheus(&registry.render()));
        assert!(frame.contains("\ninput  frames"), "{frame}");
        for id in ["0", "1"] {
            assert!(
                frame
                    .lines()
                    .any(|l| l.trim_start().starts_with(&format!("{id} "))),
                "no row for input {id}: {frame}"
            );
        }
    }

    #[test]
    fn empty_scrape_renders_quietly() {
        let frame = render(&[]);
        assert!(frame.contains("alerts: none"));
        assert!(frame.contains("watermark -"));
    }
}
