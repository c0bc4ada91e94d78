//! Table IV: empirical check of the runtime/space complexity claims.
//!
//! The paper states per-element costs — R0/R1/R2 constant (R1/R2 `O(s)` in
//! the number of inputs), R3 `O(lg w)` in the live keys, R4 additionally
//! `O(lg d)` in duplicates — and spaces `O(1)`, `O(s)`, `O(g·p)`,
//! `O(w(p+s))`, `O(w(p+s·d))`. We measure insert cost and memory across a
//! geometric sweep of each driving parameter and report the growth ratio:
//! near 1× per step for constant/logarithmic costs, near the step factor
//! for linear ones.

use crate::{Report, VariantKind};
use lmerge_temporal::{Element, StreamId, Value};
use std::time::Instant;

/// Mean nanoseconds per insert at a given live-index size `w` for R3+.
fn r3_insert_cost_at(w: usize) -> f64 {
    let mut lm = VariantKind::R3Plus.build(1);
    let mut out = Vec::new();
    // Pre-populate w live nodes (never frozen).
    for i in 0..w as i64 {
        lm.push(
            StreamId(0),
            &Element::insert(Value::bare(i as i32), i, i + 1_000_000_000),
            &mut out,
        );
    }
    // Measure further inserts.
    let probes = 20_000;
    let start = Instant::now();
    for i in 0..probes {
        lm.push(
            StreamId(0),
            &Element::insert(
                Value::bare(-(i as i32) - 1),
                w as i64 + i,
                w as i64 + i + 1_000_000_000,
            ),
            &mut out,
        );
        out.clear();
    }
    start.elapsed().as_nanos() as f64 / probes as f64
}

/// Mean nanoseconds per insert for R4 with `d` duplicate `Ve`s per key.
fn r4_insert_cost_at(d: usize) -> f64 {
    let mut lm = VariantKind::R4.build(1);
    let mut out = Vec::new();
    // One hot key with d distinct Ve values.
    for i in 0..d as i64 {
        lm.push(
            StreamId(0),
            &Element::insert(Value::bare(7), 10, 1_000_000 + i),
            &mut out,
        );
        out.clear();
    }
    let probes = 20_000;
    let start = Instant::now();
    for i in 0..probes as i64 {
        lm.push(
            StreamId(0),
            &Element::insert(Value::bare(7), 10, 2_000_000 + (i % d.max(1) as i64)),
            &mut out,
        );
        out.clear();
    }
    start.elapsed().as_nanos() as f64 / probes as f64
}

/// Memory of R3+ at `w` live nodes (space `O(w(p+s))`).
fn r3_memory_at(w: usize) -> usize {
    let mut lm = VariantKind::R3Plus.build(1);
    let mut out = Vec::new();
    for i in 0..w as i64 {
        lm.push(
            StreamId(0),
            &Element::insert(Value::synthetic(i as i32, 64), i, i + 1_000_000_000),
            &mut out,
        );
        out.clear();
    }
    lm.memory_bytes()
}

/// Mean nanoseconds per insert for R1 with `s` inputs (runtime `O(s)`).
fn r1_insert_cost_at(s: usize) -> f64 {
    let mut lm = VariantKind::R1.build(s);
    let mut out = Vec::new();
    let probes = 50_000;
    let start = Instant::now();
    for i in 0..probes as i64 {
        lm.push(
            StreamId((i % s as i64) as u32),
            &Element::insert(Value::bare(1), i / s as i64, i / s as i64 + 10),
            &mut out,
        );
        out.clear();
    }
    start.elapsed().as_nanos() as f64 / probes as f64
}

/// Build the printable report.
pub fn report() -> Report {
    let mut report = Report::new(
        "table4",
        "Empirical complexity check (growth per 10x parameter step)",
        &["quantity", "at 1x", "at 10x", "at 100x", "claimed"],
    );

    let r3c: Vec<f64> = [1_000, 10_000, 100_000]
        .iter()
        .map(|w| r3_insert_cost_at(*w))
        .collect();
    report.row(&[
        "R3+ insert ns vs w".into(),
        format!("{:.0}", r3c[0]),
        format!("{:.0}", r3c[1]),
        format!("{:.0}", r3c[2]),
        "O(lg w)".into(),
    ]);

    let r4c: Vec<f64> = [1, 10, 100].iter().map(|d| r4_insert_cost_at(*d)).collect();
    report.row(&[
        "R4 insert ns vs d".into(),
        format!("{:.0}", r4c[0]),
        format!("{:.0}", r4c[1]),
        format!("{:.0}", r4c[2]),
        "O(lg w + lg d)".into(),
    ]);

    let r3m: Vec<usize> = [1_000, 10_000, 100_000]
        .iter()
        .map(|w| r3_memory_at(*w))
        .collect();
    report.row(&[
        "R3+ bytes vs w".into(),
        crate::report::fmt_bytes(r3m[0]),
        crate::report::fmt_bytes(r3m[1]),
        crate::report::fmt_bytes(r3m[2]),
        "O(w(p+s))".into(),
    ]);
    for (column, bytes) in ["at 1x", "at 10x", "at 100x"].iter().zip(&r3m) {
        report.pin("R3+ bytes vs w", column, bytes);
    }

    let r1c: Vec<f64> = [2, 20, 200].iter().map(|s| r1_insert_cost_at(*s)).collect();
    report.row(&[
        "R1 insert ns vs s".into(),
        format!("{:.0}", r1c[0]),
        format!("{:.0}", r1c[1]),
        format!("{:.0}", r1c[2]),
        "O(s)".into(),
    ]);

    report.note("logarithmic rows should grow far slower than 10x per step; linear rows ~10x");
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn r3_insert_is_sublinear_in_w() {
        let at_1k = r3_insert_cost_at(1_000);
        let at_100k = r3_insert_cost_at(100_000);
        // 100x more live keys must cost far less than 100x per insert
        // (generous bound: 10x covers cache effects on top of lg w).
        assert!(
            at_100k < 10.0 * at_1k.max(1.0),
            "R3 insert not logarithmic: {at_1k}ns → {at_100k}ns"
        );
    }

    #[test]
    fn r3_memory_is_linear_in_w() {
        let m1 = r3_memory_at(1_000);
        let m10 = r3_memory_at(10_000);
        let ratio = m10 as f64 / m1 as f64;
        assert!(
            (6.0..14.0).contains(&ratio),
            "expected ~10x, got {ratio:.1}x"
        );
    }
}
