//! The toolchain identity is checked, not trusted.
//!
//! Every key the pipeline derives pins [`TOOLCHAIN_ID`], so a cache (and a disk
//! root, which outlives the binary that filled it) can only serve artifacts of
//! the toolchain that built them if a codegen change also changes the id. This
//! test makes that a rule: it fingerprints what the toolchain produces — the
//! bitcode of every IR unit of the GROMACS, LULESH and llama.cpp sweeps below and
//! each unit's `lower_to_machine` bytes for the four fleet SIMD targets — and
//! pins one fingerprint per id. A change to the front end, the IR passes, the
//! bitcode or the lowering fails it until the change adds a new
//! `(TOOLCHAIN_ID, fingerprint)` pair with a new id.

use std::collections::BTreeSet;
use xaas::prelude::*;
use xaas_apps::{gromacs, llamacpp, lulesh};
use xaas_buildsys::ProjectSpec;
use xaas_container::Digest;
use xaas_hpcsim::{IsaFamily, SimdLevel};
use xaas_xir::{bitcode, lower_to_machine, IrModule, MachineModule};

/// Every toolchain id with the fingerprint of what it produced. Append a pair
/// when codegen changes; never edit or reuse an id.
const FINGERPRINTS: &[(&str, &str)] = &[(
    "xirc-19/xir.v1",
    "sha256:2a05be5615f7bc2ad16a1c5c222183aa162b60730a0829993c3bc548911f3590",
)];

/// The fleet's SIMD levels: the 4-value GROMACS `GMX_SIMD` sweep.
const TARGETS: [SimdLevel; 4] = [
    SimdLevel::Sse41,
    SimdLevel::Avx2_256,
    SimdLevel::Avx512,
    SimdLevel::NeonAsimd,
];

/// Each application with the sweep its units are built over.
fn sweeps() -> [(ProjectSpec, IrPipelineConfig); 3] {
    let sweep = |project: ProjectSpec, options: &[&str]| {
        let config = IrPipelineConfig::sweep_options(&project, options);
        (project, config)
    };
    let (gromacs, simd) = sweep(gromacs::project(), &["GMX_SIMD"]);
    let simd = simd.with_values(
        "GMX_SIMD",
        &["SSE4.1", "AVX2_256", "AVX_512", "ARM_NEON_ASIMD"],
    );
    [
        (gromacs, simd),
        sweep(lulesh::project(), &["WITH_MPI", "WITH_OPENMP"]),
        sweep(llamacpp::project(), &["GGML_QUANT_DEFAULT", "GGML_OPENMP"]),
    ]
}

/// SHA-256 over, for each sweep in order and each of its IR units in id order,
/// the unit's bitcode, then its machine module's bytes for each target.
fn fingerprint() -> Digest {
    let orch = Orchestrator::builder().workers(1).build();
    let targets = TARGETS.map(target_isa_for);
    let mut bytes: Vec<u8> = Vec::new();
    for (project, config) in sweeps() {
        let build = IrBuildRequest::new(&project, &config)
            .submit(&orch)
            .expect("the sweep builds");
        assert!(!build.units.is_empty(), "{} builds IR units", project.name);
        for unit in build.units.values() {
            bytes.extend_from_slice(&unit.bitcode);
            let module = unit.module().expect("the unit's bitcode decodes");
            for target in &targets {
                let machine = lower_to_machine(module, target);
                bytes.extend(serde_json::to_vec(&machine).expect("machine module serialises"));
            }
        }
    }
    Digest::of_bytes(&bytes)
}

#[test]
fn every_toolchain_id_pins_the_fingerprint_of_its_codegen() {
    let ids: BTreeSet<&str> = FINGERPRINTS.iter().map(|&(id, _)| id).collect();
    assert_eq!(ids.len(), FINGERPRINTS.len(), "toolchain ids are distinct");
    let fingerprint = fingerprint();
    let pinned = FINGERPRINTS.iter().find(|&&(id, _)| id == TOOLCHAIN_ID);
    assert_eq!(
        pinned.map(|&(_, pin)| pin),
        Some(fingerprint.as_str()),
        "the toolchain's output changed under {TOOLCHAIN_ID}: give the changed toolchain \
         a new TOOLCHAIN_ID and append (new id, {:?}) to FINGERPRINTS",
        fingerprint.as_str()
    );
}

/// The codec round-trips what the toolchain produces: every unit of the sweeps
/// decodes to a module that encodes back to its bitcode byte for byte, and each
/// unit's machine module on every SIMD level reads back from its bytes, through
/// the text and through the `Value` tree, as itself and writes the same bytes.
#[test]
fn every_unit_and_machine_module_round_trips_through_its_bytes() {
    let orch = Orchestrator::builder().workers(1).build();
    let mut levels: Vec<SimdLevel> = [IsaFamily::X86_64, IsaFamily::Aarch64]
        .iter()
        .flat_map(|family| SimdLevel::levels_for(*family).iter().copied())
        .collect();
    levels.sort();
    levels.dedup();
    assert_eq!(levels.len(), 9);
    for (project, config) in sweeps() {
        let build = IrBuildRequest::new(&project, &config)
            .submit(&orch)
            .expect("the sweep builds");
        for unit in build.units.values() {
            let module = bitcode::decode(&unit.bitcode).expect("the unit's bitcode decodes");
            assert_eq!(bitcode::encode(&module), &unit.bitcode[..]);
            assert_eq!(bitcode::decode(&bitcode::encode(&module)).unwrap(), module);
            let tree = serde_json::to_value(&module);
            assert_eq!(serde_json::from_value::<IrModule>(&tree).unwrap(), module);
            for level in &levels {
                let machine = lower_to_machine(&module, &target_isa_for(*level));
                let bytes = serde_json::to_vec(&machine).unwrap();
                let read: MachineModule = serde_json::from_slice(&bytes).unwrap();
                assert_eq!(read, machine);
                assert_eq!(serde_json::to_vec(&read).unwrap(), bytes);
                let tree = serde_json::to_value(&machine);
                assert_eq!(
                    serde_json::from_value::<MachineModule>(&tree).unwrap(),
                    machine
                );
            }
        }
    }
}
