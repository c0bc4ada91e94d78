//! Regenerates every table and figure of the paper's evaluation in order.

fn main() {
    lmerge_bench::figs::fig2::report().emit();
    lmerge_bench::figs::fig3::report().emit();
    lmerge_bench::figs::fig4::report().emit();
    lmerge_bench::figs::fig5::report().emit();
    lmerge_bench::figs::fig6::report().emit();
    lmerge_bench::figs::fig7::report().emit();
    lmerge_bench::figs::fig8::report().emit();
    lmerge_bench::figs::fig9::report().emit();
    lmerge_bench::figs::fig10::report().emit();
    lmerge_bench::figs::table4::report().emit();
    lmerge_bench::figs::ablation::report().emit();
    lmerge_bench::figs::checkpoint_overhead::report().emit();
    lmerge_bench::figs::sub_scaling::report().emit();
}
