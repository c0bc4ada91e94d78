//! The acceptance bars of the committed wall-clock records in
//! `bench-results/`. They read the committed files only, so they hold a
//! record to its bar when it is re-measured and committed; a fresh run's
//! ratios are host noise at test scale.

use lmerge_obs::json::{self, Json};

/// `throughput_eps` of the record labelled `label` in the committed
/// `BENCH_<id>.json`.
fn committed_eps(id: &str, label: &str) -> f64 {
    let path = format!(
        "{}/../../bench-results/BENCH_{id}.json",
        env!("CARGO_MANIFEST_DIR")
    );
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let doc = json::parse(&text).unwrap_or_else(|e| panic!("{path}: {e}"));
    doc.get("metrics")
        .and_then(Json::as_array)
        .and_then(|ms| {
            ms.iter()
                .find(|m| m.get("label").and_then(Json::as_str) == Some(label))
        })
        .and_then(|m| m.get("throughput_eps"))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("{path}: no throughput_eps for {label}"))
}

#[test]
fn committed_records_clear_their_bars() {
    for (id, num, den, bar) in [
        // Live telemetry costs at most 5% of the hot path.
        ("obs_overhead", "instrumented", "uninstrumented", 0.95),
        // Durable checkpoints cost at most 10%.
        ("checkpoint_overhead", "checkpointed", "bare", 0.90),
        // Per-subscriber CPU grows at most 15% across a 16x wider fan-out.
        ("sub_scaling", "sub@N256", "sub@N16", 1.0 / 1.15),
    ] {
        let ratio = committed_eps(id, num) / committed_eps(id, den);
        assert!(
            ratio >= bar,
            "{id}: committed {num}/{den} ratio {ratio:.3} below the {bar:.3} bar"
        );
    }
}
