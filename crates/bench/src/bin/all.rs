//! Regenerates every table and figure of the paper's evaluation, then the
//! beyond-paper reports, in order, and writes every deterministic cell to
//! `target/bench-results/figures.txt` (compare it with
//! `tests/golden/figures.txt`).

use lmerge_bench::figs::*;
use lmerge_bench::report::{results_dir, Report};
use lmerge_bench::scale_override;

fn main() {
    let reports: [fn() -> Report; 15] = [
        fig2::report,
        fig3::report,
        fig4::report,
        fig5::report,
        fig6::report,
        fig7::report,
        fig8::report,
        fig9::report,
        fig10::report,
        table4::report,
        ablation::report,
        net_loopback::report,
        obs_overhead::report,
        checkpoint_overhead::report,
        sub_scaling::report,
    ];
    let scale = scale_override().map_or("default".to_string(), |n| n.to_string());
    let mut golden = format!("# deterministic figure cells at LMERGE_BENCH_EVENTS={scale}\n");
    for report in reports {
        let report = report();
        report.emit();
        golden.push_str(&report.golden());
    }
    let path = results_dir().join("figures.txt");
    std::fs::write(&path, golden)
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
    println!("wrote {}", path.display());
}
