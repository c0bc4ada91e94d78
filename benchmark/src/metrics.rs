//! The metric catalogue: every name the benchmark reports, its unit, which
//! direction is better and — for end-to-end metrics — the bound by which it
//! may worsen. `BENCHMARK.json` at the repo root is rendered from this
//! table (`--print-benchmark-json`); a unit test keeps the two identical.

use crate::spans::json_string;
use crate::workload::WORKLOADS;

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// By what share of `base` is `value` worse (negative: better)?
    pub fn worsening(self, base: f64, value: f64) -> f64 {
        if base == 0.0 {
            return 0.0;
        }
        match self {
            Better::Lower => (value - base) / base.abs(),
            Better::Higher => (base - value) / base.abs(),
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 20;

use Better::{Higher, Lower};

/// What a user of the system sees. Every workload reports every one.
pub const END_TO_END: [EndToEnd; 8] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "throughput_eps",
        unit: "1/s",
        better: Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_p50_ms",
        unit: "ms",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_p90_ms",
        unit: "ms",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_us_per_elem",
        unit: "us",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Lower,
        bound: 0.20,
    },
    EndToEnd {
        name: "state_mean_mb",
        unit: "MiB",
        better: Lower,
        bound: 0.05,
    },
    EndToEnd {
        name: "out_per_in",
        unit: "ratio",
        better: Lower,
        bound: 0.02,
    },
];

macro_rules! per_layer {
    ($(($name:literal, $unit:literal, $better:ident)),* $(,)?) => {
        [$(PerLayer { name: $name, unit: $unit, better: $better }),*]
    };
}

/// Single-layer numbers from the traced run. No bounds: they explain an
/// end-to-end change, they do not gate one.
pub const PER_LAYER: [PerLayer; 50] = per_layer![
    ("gen.feed_build_s", "s", Lower),
    ("gen.encode_prep_s", "s", Lower),
    ("temporal.value_clone_ns", "ns", Lower),
    ("temporal.value_cmp_ns", "ns", Lower),
    ("temporal.value_hash_ns", "ns", Lower),
    ("net.encode_ns_per_frame", "ns", Lower),
    ("net.decode_ns_per_frame", "ns", Lower),
    ("net.wire_bytes_per_elem", "B", Lower),
    ("net.frames_per_elem", "ratio", Lower),
    ("net.handshake_ms", "ms", Lower),
    ("net.ring_full_stalls", "count", Lower),
    ("net.credits_granted", "count", Lower),
    ("net.queue_depth_max", "count", Lower),
    ("engine.spsc_ns_per_op", "ns", Lower),
    ("engine.exec_ns_per_elem", "ns", Lower),
    ("engine.elems_per_batch", "ratio", Higher),
    ("engine.blocked_on_slowest_share", "ratio", Lower),
    ("engine.fast_path_share", "ratio", Higher),
    ("core.insert_ns", "ns", Lower),
    ("core.adjust_ns", "ns", Lower),
    ("core.stable_ns", "ns", Lower),
    ("core.push_batch_ns_per_elem", "ns", Lower),
    ("core.in2t_probe_ns", "ns", Lower),
    ("core.sweep_ns_per_node", "ns", Lower),
    ("core.state_peak_bytes", "B", Lower),
    ("core.dup_absorbed_share", "ratio", Higher),
    ("sub.publish_ns_per_frame", "ns", Lower),
    ("sub.frames_per_epoch", "ratio", Higher),
    ("sub.bytes_per_frame", "B", Lower),
    ("sub.epoch_hold_ms_p50", "ms", Lower),
    ("sub.credit_stalls", "count", Lower),
    ("durable.snapshot_ms", "ms", Lower),
    ("durable.delta_us", "us", Lower),
    ("durable.bytes_per_ckpt", "B", Lower),
    ("durable.ckpt_bytes_per_elem", "B", Lower),
    ("durable.recover_ms", "ms", Lower),
    ("durable.ckpts", "count", Lower),
    ("obs.record_ns_per_event", "ns", Lower),
    ("trace.overhead_share", "ratio", Lower),
    ("sut.cpu_user_s", "s", Lower),
    ("sut.cpu_sys_s", "s", Lower),
    ("sut.vol_ctx_per_kelem", "1/k", Lower),
    ("sut.invol_ctx_per_kelem", "1/k", Lower),
    ("sut.threads_peak", "count", Lower),
    ("loadgen.late_p99_ms", "ms", Lower),
    ("loadgen.cpu_s", "s", Lower),
    ("loadgen.latency_p95_ms", "ms", Lower),
    ("loadgen.latency_p99_ms", "ms", Lower),
    ("loadgen.latency_samples", "count", Higher),
    ("ledger.unexplained_share", "ratio", Lower),
];

/// Render `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let list = |items: Vec<String>| items.join(",\n");
    let workloads = list(
        WORKLOADS
            .iter()
            .map(|w| {
                format!(
                    "    {{\"name\": {}, \"why\": {}}}",
                    json_string(w.name),
                    json_string(w.why)
                )
            })
            .collect(),
    );
    let end_to_end = list(
        END_TO_END
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                    json_string(m.name),
                    json_string(m.unit),
                    json_string(m.better.as_str()),
                    m.bound
                )
            })
            .collect(),
    );
    let per_layer = list(
        PER_LAYER
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                    json_string(m.name),
                    json_string(m.unit),
                    json_string(m.better.as_str())
                )
            })
            .collect(),
    );
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{workloads}\n  ],\n  \
         \"end_to_end\": [\n{end_to_end}\n  ],\n  \"per_layer\": [\n{per_layer}\n  ]\n}}\n"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn catalogue_obeys_the_contract_limits() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.name));
        names.extend(WORKLOADS.iter().map(|w| w.name));
        for (i, n) in names.iter().enumerate() {
            assert!(valid_name(n), "bad name {n:?}");
            assert!(!names[..i].contains(n), "name {n:?} used twice");
        }
        for m in &END_TO_END {
            assert!(valid_unit(m.unit), "bad unit {:?}", m.unit);
            assert!(
                m.bound > 0.0 && m.bound <= 0.25,
                "{}: bound {}",
                m.name,
                m.bound
            );
        }
        for m in &PER_LAYER {
            assert!(valid_unit(m.unit), "bad unit {:?}", m.unit);
        }
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn checked_in_benchmark_json_is_the_rendered_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate with: benchmark/run.sh --print-benchmark-json > BENCHMARK.json"
        );
        assert!(on_disk.len() <= 64 * 1024);
    }

    #[test]
    fn worsening_is_signed_by_direction() {
        assert!((Lower.worsening(10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((Lower.worsening(10.0, 9.0) + 0.1).abs() < 1e-12);
        assert!((Higher.worsening(10.0, 9.0) - 0.1).abs() < 1e-12);
        assert!((Higher.worsening(10.0, 12.0) + 0.2).abs() < 1e-12);
        assert_eq!(Lower.worsening(0.0, 5.0), 0.0);
    }
}
