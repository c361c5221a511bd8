//! The `reproduce` command line: regenerate every table and figure of the paper's
//! evaluation. The binary of the same name only calls [`main`].
//!
//! ```text
//! reproduce all                 # everything below
//! reproduce fig2                # Figure 2: vectorization impact
//! reproduce table1              # Table 1: application catalogue
//! reproduce table2              # Table 2: portability levels
//! reproduce table3              # Table 3: libfabric provider features
//! reproduce table4              # Table 4: LLM specialization discovery
//! reproduce table4-generalization
//! reproduce fig10               # GROMACS portability
//! reproduce fig11               # llama.cpp portability
//! reproduce fig12-cpu           # IR containers, CPU sweep
//! reproduce fig12-gpu           # IR containers, GPU
//! reproduce tu-reduction        # Section 6.4 statistics + ablations
//! reproduce fleet               # fleet specialization: cold vs shared-cache (JSON)
//! reproduce restart             # warm restart over the disk tier, intact then damaged; exits nonzero unless both replay byte-identically (JSON)
//! reproduce analyze             # plan-only report on the driver graphs; exits nonzero on any construction defect (JSON)
//! reproduce network             # Section 6.5 bandwidth
//! reproduce gpu-compat          # Figure 9 compatibility rules
//! reproduce intersection        # Figure 4(c) feature intersection
//! reproduce hypotheses          # Hypotheses 1 and 2
//! ```

use crate::{analysis, experiments, render};
use xaas::prelude::*;

fn print_table1() {
    println!("== Table 1: specialization points of representative HPC applications ==");
    for entry in xaas_specs::table1() {
        println!(
            "  {:<22} {:<18} GPU: {:<38} Parallelism: {:<18} Vectorization: {}",
            entry.name,
            entry.domain,
            if entry.gpu_acceleration.is_empty() {
                "-".to_string()
            } else {
                entry.gpu_acceleration.join(", ")
            },
            entry.parallelism.join(", "),
            entry.vectorization
        );
    }
}

fn print_table2() {
    println!("== Table 2: levels of code portability ==");
    for entry in table2() {
        println!(
            "  {:<12?} {:<24} {:<42} {}",
            entry.level, entry.technology, entry.description, entry.approach
        );
    }
}

fn print_table3() {
    println!("== Table 3: libfabric 2.0 provider capabilities ==");
    let matrix = xaas_hpcsim::capability_matrix();
    let providers: Vec<_> = matrix.keys().copied().collect();
    print!("  {:<22}", "Feature");
    for provider in &providers {
        print!("{:>10}", provider.as_str());
    }
    println!();
    for feature in xaas_hpcsim::Feature::all() {
        print!("  {:<22}", feature.label());
        for provider in &providers {
            print!("{:>10}", matrix[provider][feature].symbol());
        }
        println!();
    }
}

fn print_hypotheses() {
    println!("== Hypotheses 1 and 2 (Section 4.2) ==");
    for row in experiments::tu_reduction() {
        println!(
            "  H1 [{}]: T' = {} < sum Ti = {}  (reduction {:.1}%)",
            row.sweep, row.ir_files_built, row.total_translation_units, row.reduction_percent
        );
    }
    for (name, project) in [
        ("mini-gromacs", xaas_apps::gromacs::project()),
        ("mini-lulesh", xaas_apps::lulesh::project()),
        ("mini-llamacpp", xaas_apps::llamacpp::project()),
    ] {
        let report = hypothesis2(&project);
        println!(
            "  H2 [{name}]: |S_I| = {}, |S_D| = {}, independent fraction {:.2} -> holds: {}",
            report.system_independent,
            report.system_dependent,
            report.independent_fraction,
            report.holds
        );
    }
}

fn print_figure12_cpu() {
    let (panels, from_ir, from_source) = experiments::figure12_cpu();
    print!(
        "{}",
        render::render_panels("Figure 12 (top): IR containers on CPU", &panels)
    );
    // Section 4.3.1's "much faster than a complete compilation", as work done.
    let count = |trace: &ActionTrace, kind| trace.by_kind().get(&kind).copied().unwrap_or(0);
    println!(
        "Deployment work (Section 4.3.1, AVX_512): IR container {} sd-compile + {} machine-lower; source container {} sd-compile (one per TU)",
        count(&from_ir, ActionKind::SdCompile),
        count(&from_ir, ActionKind::MachineLower),
        count(&from_source, ActionKind::SdCompile),
    );
}

fn run(section: &str) {
    match section {
        "fig2" => print!(
            "{}",
            render::render_panels("Figure 2: vectorization impact", &experiments::figure2())
        ),
        "table1" => print_table1(),
        "table2" => print_table2(),
        "table3" => print_table3(),
        "table4" => print!("{}", render::render_table4(&experiments::table4(10))),
        "table4-generalization" => {
            print!(
                "{}",
                render::render_generalization(&experiments::table4_generalization(10))
            )
        }
        "fig10" => print!(
            "{}",
            render::render_panels(
                "Figure 10: GROMACS performance portability",
                &experiments::figure10()
            )
        ),
        "fig11" => print!(
            "{}",
            render::render_panels(
                "Figure 11: llama.cpp performance portability",
                &experiments::figure11()
            )
        ),
        "fig12-cpu" => print_figure12_cpu(),
        "fig12-gpu" => print!(
            "{}",
            render::render_panels(
                "Figure 12 (bottom): IR containers on GPU",
                &experiments::figure12_gpu()
            )
        ),
        "tu-reduction" => print!("{}", render::render_reduction(&experiments::tu_reduction())),
        "fleet" => {
            // Banner on stderr so stdout stays machine-readable JSON (`reproduce fleet | jq .`).
            eprintln!("== Fleet specialization: 4 systems from one IR container ==");
            let experiment = experiments::fleet_specialization();
            println!(
                "{}",
                serde_json::to_string_pretty(&experiment).expect("fleet experiment serialises")
            );
        }
        "restart" => {
            // Banner on stderr so stdout stays machine-readable JSON (`reproduce restart | jq .`).
            eprintln!("== Warm restart: GROMACS fleet replayed from the disk tier ==");
            let experiment = experiments::warm_restart();
            println!(
                "{}",
                serde_json::to_string_pretty(&experiment).expect("restart experiment serialises")
            );
            if !experiment.holds() {
                eprintln!("the warm restart recomputed or diverged; see the fields above");
                std::process::exit(1);
            }
        }
        "analyze" => {
            // Banner on stderr so stdout stays machine-readable JSON (`reproduce analyze | jq .`).
            eprintln!("== Static analysis: GROMACS/LULESH build, deploy, and fleet graphs ==");
            let section = analysis::analyze_driver_graphs();
            println!(
                "{}",
                serde_json::to_string_pretty(&section).expect("analyze section serialises")
            );
            if !section.clean {
                eprintln!(
                    "{} construction defect(s) in the driver graphs",
                    section.total_denies
                );
                std::process::exit(1);
            }
        }
        "network" => print!("{}", render::render_network(&experiments::network())),
        "gpu-compat" => print!(
            "{}",
            render::render_gpu_compat(&experiments::gpu_compatibility())
        ),
        "intersection" => print!(
            "{}",
            render::render_intersection(&experiments::intersection_summary())
        ),
        "hypotheses" => print_hypotheses(),
        other => {
            eprintln!("unknown section `{other}`; see --help");
            std::process::exit(2);
        }
    }
}

/// Run the `reproduce` command line: print the sections its arguments name.
pub fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let sections = [
        "table1",
        "table2",
        "table3",
        "fig2",
        "table4",
        "table4-generalization",
        "fig10",
        "fig11",
        "fig12-cpu",
        "fig12-gpu",
        "tu-reduction",
        "fleet",
        "restart",
        "analyze",
        "network",
        "gpu-compat",
        "intersection",
        "hypotheses",
    ];
    match args.first().map(String::as_str) {
        None | Some("--help") | Some("-h") => {
            println!("usage: reproduce <section>|all");
            println!("sections: {}", sections.join(", "));
        }
        Some("all") => {
            for section in sections {
                run(section);
                println!();
            }
        }
        Some(section) => run(section),
    }
}
