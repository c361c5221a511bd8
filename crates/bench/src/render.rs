//! Plain-text rendering of experiment results (what the `reproduce` binary prints).

use crate::experiments::{
    FigurePanel, GeneralizationRow, GpuCompatRow, NetworkRow, ReductionRow, Table4Row,
};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Render a timing figure (one panel per system/device).
pub(crate) fn render_panels(title: &str, panels: &[FigurePanel]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== {title} ==");
    for panel in panels {
        let _ = writeln!(out, "\n-- {} --", panel.title);
        for bar in &panel.bars {
            let _ = writeln!(
                out,
                "  {:<28} {:>10.3} s   (I/O {:>6.2} s){}",
                bar.label,
                bar.compute_seconds,
                bar.io_seconds,
                if bar.used_gpu { "   [GPU]" } else { "" }
            );
        }
    }
    out
}

/// Render Table 4.
pub(crate) fn render_table4(rows: &[Table4Row]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== Table 4: LLM-assisted specialization discovery (mini-GROMACS) =="
    );
    let _ = writeln!(
        out,
        "{:<28} {:>9} {:>9} {:>8} {:>8}  {:>5} {:>5} {:>5}  {:>5} {:>5} {:>5}  {:>5} {:>5} {:>5}",
        "Model",
        "Tok In",
        "Tok Out",
        "Time(s)",
        "Cost($)",
        "F1mn",
        "F1md",
        "F1mx",
        "Pmn",
        "Pmd",
        "Pmx",
        "Rmn",
        "Rmd",
        "Rmx"
    );
    for row in rows {
        let _ = writeln!(
            out,
            "{:<28} {:>9.0} {:>9.0} {:>8.2} {:>8.3}  {:>5.3} {:>5.3} {:>5.3}  {:>5.3} {:>5.3} {:>5.3}  {:>5.3} {:>5.3} {:>5.3}",
            row.model,
            row.tokens_in,
            row.tokens_out,
            row.time_seconds,
            row.cost_usd,
            row.f1.min,
            row.f1.median,
            row.f1.max,
            row.precision.min,
            row.precision.median,
            row.precision.max,
            row.recall.min,
            row.recall.median,
            row.recall.max,
        );
    }
    out
}

/// Render the generalization rows.
pub(crate) fn render_generalization(rows: &[GeneralizationRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== Section 6.2: llama.cpp generalization (no in-context examples) =="
    );
    let _ = writeln!(
        out,
        "{:<28} {:>18} {:>22}",
        "Model", "F1 raw (mn/md/mx)", "F1 normalized (mn/md/mx)"
    );
    for row in rows {
        let _ = writeln!(
            out,
            "{:<28} {:>5.2}/{:>4.2}/{:>4.2}   {:>9.2}/{:>4.2}/{:>4.2}",
            row.model,
            row.f1_raw.min,
            row.f1_raw.median,
            row.f1_raw.max,
            row.f1_normalized.min,
            row.f1_normalized.median,
            row.f1_normalized.max
        );
    }
    out
}

/// Render the TU-reduction rows (Section 6.4).
pub(crate) fn render_reduction(rows: &[ReductionRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== Section 6.4: configurability and system dependency =="
    );
    let _ = writeln!(
        out,
        "{:<34} {:>7} {:>8} {:>8} {:>10} {:>10} {:>10}",
        "Sweep", "Configs", "TUs", "IRs", "Reduction", "no-vec", "no-omp"
    );
    for row in rows {
        let _ = writeln!(
            out,
            "{:<34} {:>7} {:>8} {:>8} {:>9.1}% {:>10} {:>10}",
            row.sweep,
            row.configurations,
            row.total_translation_units,
            row.ir_files_built,
            row.reduction_percent,
            row.without_vectorization_delay,
            row.without_openmp_detection
        );
    }
    out
}

/// Render the Section 6.5 network rows.
pub(crate) fn render_network(rows: &[NetworkRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== Section 6.5: intra-node bandwidth on a GH200 node =="
    );
    let _ = writeln!(
        out,
        "{:<34} {:>10} {:>12} {:>12}",
        "Configuration", "Peak GB/s", "1 MiB GB/s", "1 GiB GB/s"
    );
    for row in rows {
        let _ = writeln!(
            out,
            "{:<34} {:>10.1} {:>12.1} {:>12.1}",
            row.configuration,
            row.peak_bandwidth_gbs,
            row.bandwidth_1mib_gbs,
            row.bandwidth_1gib_gbs
        );
    }
    out
}

/// Render the GPU compatibility matrix.
pub(crate) fn render_gpu_compat(rows: &[GpuCompatRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== Figure 9: CUDA compatibility of the XaaS device-code bundle =="
    );
    for row in rows {
        let _ = writeln!(
            out,
            "  {:<48} {:<24} {}",
            row.bundle, row.device, row.outcome
        );
    }
    out
}

/// Render the per-system intersection summary.
pub(crate) fn render_intersection(summary: &BTreeMap<String, Vec<String>>) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== Figure 4(c): specialization points ∩ system features (mini-GROMACS) =="
    );
    for (system, lines) in summary {
        let _ = writeln!(out, "\n-- {system} --");
        for line in lines {
            let _ = writeln!(out, "  {line}");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments;

    #[test]
    fn renders_are_non_empty_and_contain_headers() {
        let net = render_network(&experiments::network());
        assert!(net.contains("intra-node bandwidth"));
        assert!(net.contains("LinkX"));
        let compat = render_gpu_compat(&experiments::gpu_compatibility());
        assert!(compat.contains("jit-from-ptx"));
        let gen = render_generalization(&experiments::table4_generalization(2));
        assert!(gen.contains("normalized"));
    }

    #[test]
    fn figure_rendering_lists_all_bars() {
        let panels = experiments::figure2();
        let text = render_panels("Figure 2", &panels);
        assert!(text.contains("AVX_512"));
        assert!(text.contains("ARM"));
    }
}
