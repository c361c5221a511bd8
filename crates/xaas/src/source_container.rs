//! XaaS source containers (Section 4.1).
//!
//! A source container ships the application source tree, its build instructions, and the
//! toolchain, annotated with the application's specialization points. Deployment happens
//! on the target system: system discovery, feature intersection, specialization
//! selection, and a full build of the selected configuration, producing a *new*,
//! system-specific image (Figure 6).

use crate::engine::plan::{DeployCommit, SdCompile};
use crate::engine::{
    Action, ActionGraph, ActionId, ActionInputs, ActionKind, ActionTrace, PreprocessPlanner,
};
use crate::error::PipelineError;
use crate::resolve::{resolve, Policy, Resolved};
use crate::targets::{derive_build_profile, target_isa_for};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::OnceLock;
use xaas_buildsys::{
    configure, CompileCommand, ConfiguredBuild, OptionAssignment, ProjectSpec, SourceSpec,
    TargetSpec,
};
use xaas_container::{
    annotation_keys, Architecture, BuildKey, DeploymentFormat, Derivation, Image, ImageStore,
    Layer, Platform,
};
use xaas_hpcsim::{BuildProfile, SystemModel};
use xaas_specs::from_project;
use xaas_xir::{CompileFlags, MachineModule, TargetIsa};

/// Paths used inside source containers.
pub mod paths {
    /// Root of the application source tree.
    pub(crate) const SOURCE_ROOT: &str = "/xaas/src";
    /// The build script.
    pub const BUILD_SCRIPT: &str = "/xaas/src/XMakeLists.txt";
    /// Directory with project headers.
    pub(crate) const INCLUDE_ROOT: &str = "/xaas/src/include";
    /// The toolchain compiler binary.
    pub(crate) const COMPILER: &str = "/usr/bin/xirc";
    /// The build directory: where a source deployment builds, and where every
    /// configuration of an IR build is configured.
    pub(crate) const BUILD_ROOT: &str = "/xaas/build";
    /// Installed binaries.
    pub(crate) const INSTALL_ROOT: &str = "/opt/app";
}

/// Build a source container image for `project` targeting `architecture` and commit it.
///
/// One image per toolchain and architecture is enough (Section 4.1): no build steps run
/// here, so there is no combinatorial explosion.
pub fn build_source_container(
    project: &ProjectSpec,
    architecture: Architecture,
    store: &ImageStore,
    reference: &str,
) -> Image {
    let mut image = Image::new(reference, Platform::linux(architecture));
    image.set_deployment_format(DeploymentFormat::Source);

    let mut toolchain = Layer::new("ADD xirc toolchain and MPICH-ABI headers");
    toolchain.add_executable(paths::COMPILER, b"xirc-driver".to_vec());
    toolchain.add_text("/opt/mpich/lib/libmpi.so", "mpich 4.2 (ABI: mpich)");
    toolchain.add_text(
        "/etc/xaas/toolchain.json",
        r#"{"compiler":"xirc","ir":"xir.v1"}"#,
    );
    image.push_layer(toolchain);

    image.push_layer(source_tree_layer(
        project,
        format!("COPY {} source tree", project.name),
    ));

    let spec_points = from_project(project);
    image.annotate(
        annotation_keys::SPECIALIZATION_POINTS,
        spec_points.to_json_string(),
    );
    image.annotate(annotation_keys::TITLE, project.name.clone());
    store.commit(&image);
    image
}

/// The layer holding `project`'s source tree, noted `note`: the build script, the
/// sources, then the headers. Source and IR containers both ship it. A layer keeps
/// its entries in path order, so the sources are listed by path whatever order
/// the project declares them in.
pub(crate) fn source_tree_layer(project: &ProjectSpec, note: impl Into<String>) -> Layer {
    let mut layer = Layer::new(note);
    layer.add_text(paths::BUILD_SCRIPT, project.build_script.clone());
    for SourceSpec { path, content, .. } in &project.sources {
        layer.add_text(format!("{}/{path}", paths::SOURCE_ROOT), content.clone());
    }
    for (name, content) in &project.headers {
        layer.add_text(format!("{}/{}", paths::INCLUDE_ROOT, name), content.clone());
    }
    layer
}

/// The result of deploying a source container to a system.
#[derive(Debug, Clone)]
pub struct SourceDeployment {
    /// The system-specialized image (a new image, distinct from the registry image).
    pub image: Image,
    /// The reference under which the deployed image was committed.
    pub reference: String,
    /// The specialization values that were selected.
    pub assignment: OptionAssignment,
    /// Number of translation units compiled during deployment.
    pub compiled_units: usize,
    /// The performance profile of the deployed build (for the execution model).
    pub build_profile: BuildProfile,
    /// Human-readable notes (fallbacks, substitutions, base-image switches).
    pub notes: Vec<String>,
    /// The full, deterministic action trace of the deployment. Its
    /// [`summary`](ActionTrace::summary) counts the compile actions executed vs
    /// served from the action cache.
    pub trace: ActionTrace,
}

/// One `sd-compile` of a source deployment: its source, the index of its flags
/// among the plan's classified argument lists, and every compile command (by
/// index into the plan's configured build) sharing its [`SdCompile`] record's
/// identity (two targets can compile the same file with the same flags), which
/// its object file serves.
struct SourceUnit<'p> {
    source: &'p SourceSpec,
    list: usize,
    commands: Vec<usize>,
}

/// The Link of a source deployment: the build layer — each unit's object file
/// under every compile command it serves and the linked executables — output as
/// its sealed archive. Its key reads each unit's object by content digest, not
/// by key, so a warm deployment's Link is a hit. Its `run` first decodes every
/// object as a [`MachineModule`] (an undecodable one is a
/// [`PipelineError::Cache`] naming its source): only validated bytes are linked,
/// so a hit proves its objects were validated when the layer was built.
struct SourceDeployLink<'a> {
    /// The selected configuration's label, which the layer's note names.
    label: &'a str,
    /// One unit per dependency, in order: its object is that dependency's output.
    units: &'a [SourceUnit<'a>],
    /// The configured build's commands, which place each unit's objects.
    commands: &'a [CompileCommand<'a>],
    /// The project's targets, linked by name.
    targets: &'a [TargetSpec],
    system: &'a str,
    /// The deployment target's name, which the executables name.
    target: &'a str,
}

impl SourceDeployLink<'_> {
    /// Where each compile command of `unit` puts its object file, configured
    /// under `paths::BUILD_ROOT`: `<root>/<target>/<file>.o`.
    fn objects<'a>(&'a self, unit: &'a SourceUnit) -> impl ExactSizeIterator<Item = &'a str> {
        let commands = self.commands;
        unit.commands
            .iter()
            .map(|&command| commands[command].output.as_str())
    }
}

impl Action for SourceDeployLink<'_> {
    const KIND: ActionKind = ActionKind::Link;
    const KEY_READS_DEPS: bool = true;
    const READS_DEP_DIGESTS: bool = true;
    type Error = PipelineError;

    fn derive(&self, deps: Option<&ActionInputs>, record: Derivation) -> Derivation {
        let Self {
            label,
            units,
            // Read for each unit's object paths, keyed below.
            commands: _,
            targets,
            system,
            target,
        } = self;
        let record = record
            .str(label)
            .strs(targets.iter().map(|spec| spec.name.as_str()))
            .str(system)
            .str(target)
            .u64(units.len() as u64);
        units
            .iter()
            .enumerate()
            .fold(record, |record, (index, unit)| {
                let record = record.strs(self.objects(unit));
                match deps {
                    Some(deps) => record.str(deps.dep_digest(index).as_str()),
                    None => record,
                }
            })
    }

    fn run(self, deps: &ActionInputs) -> Result<Vec<u8>, PipelineError> {
        // The cached bytes *are* the canonical object serialisation; decode only
        // to validate them before linking.
        for (index, unit) in self.units.iter().enumerate() {
            serde_json::from_slice::<MachineModule>(deps.dep(index)).map_err(|e| {
                let file = &unit.source.path;
                PipelineError::Cache(format!("machine module for {file}: {e}"))
            })?;
        }
        let mut layer = Layer::new(format!("RUN xmake build ({})", self.label));
        for (index, unit) in self.units.iter().enumerate() {
            for object in self.objects(unit) {
                layer.add_file(object, deps.dep_blob(index).clone());
            }
        }
        for TargetSpec { name, .. } in self.targets {
            layer.add_executable(
                format!("{}/bin/{name}", paths::INSTALL_ROOT),
                format!("linked for {} ({})", self.system, self.target).into_bytes(),
            );
        }
        Ok(layer.to_archive())
    }
}

/// The plan phase of one source deployment (Figure 6's discovery → intersection →
/// selection → configure): everything validated and owned, but no graph built yet.
/// [`plan_source_deploy`], [`graft_source_deploy`] and [`finish_source_deploy`] are
/// the three phases of an IR deployment ([`crate::deploy`]), driven by
/// [`SourceDeployRequest`](crate::orchestrator::SourceDeployRequest). The commit
/// node leaves the committed image in `committed`.
pub(crate) struct SourceDeployPlan<'a> {
    project: &'a ProjectSpec,
    source_image: &'a Image,
    system: &'a SystemModel,
    resolved: Resolved,
    /// The selection's label.
    label: String,
    build_profile: BuildProfile,
    target: TargetIsa,
    /// The configured build's compile commands.
    commands: Vec<CompileCommand<'a>>,
    /// Each distinct argument list of the commands, classified once.
    flags: Vec<CompileFlags>,
    units: Vec<SourceUnit<'a>>,
    reference: String,
    committed: OnceLock<Image>,
}

/// Select and configure one source deployment, serially (both are cheap and
/// inherently sequential), and plan one [`SourceUnit`] per distinct `sd-compile`
/// of the configured build.
pub(crate) fn plan_source_deploy<'a>(
    project: &'a ProjectSpec,
    source_image: &'a Image,
    system: &'a SystemModel,
    preferences: &OptionAssignment,
) -> Result<SourceDeployPlan<'a>, PipelineError> {
    // 1.–2. Discovery, intersection and selection.
    let mut resolved = resolve(project, system, preferences, None, Policy::BestAvailable)?;

    // 3. Configure against the dependencies the system (plus the container layers) offers.
    let mut available: BTreeSet<String> = BTreeSet::new();
    available.extend([
        "mpich".to_string(),
        "fftw".to_string(),
        "openblas".to_string(),
        "opencl".to_string(),
    ]);
    for module in &system.modules {
        let name = module.name.to_ascii_lowercase();
        if name.contains("mkl") || name.contains("oneapi") {
            available.insert("mkl".into());
            available.insert("oneapi".into());
        }
        if name.contains("cuda") {
            available.insert("cuda".into());
        }
        if name.contains("rocm") {
            available.insert("rocm".into());
        }
    }
    let ConfiguredBuild { compile_db, .. } = configure(
        project,
        &resolved.selection,
        paths::BUILD_ROOT,
        Some(&available),
    )?;
    let mut flags: Vec<CompileFlags> = Vec::new();
    let list_of = compile_db.classify_lists(|command| flags.push(command.flags()));
    let commands = compile_db.commands;

    // 4. The on-target build compiles every enabled translation unit for the
    //    resolved SIMD level.
    let threads = system.cpu.total_cores().min(36);
    let mut build_profile = derive_build_profile(
        format!("XaaS Source ({})", system.name),
        project,
        &resolved.selection,
        system,
        threads,
    )
    .with_container_overhead(1.01);
    build_profile.simd = resolved.target;
    let target = target_isa_for(resolved.target);
    if let Some(base) = &system.recommended_base_image {
        resolved.notes.push(format!(
            "switching base image to operator-recommended {base}"
        ));
    }

    let mut units: Vec<SourceUnit> = Vec::new();
    let mut unit_by_identity: BTreeMap<BuildKey, usize> = BTreeMap::new();
    for (index, (command, list)) in commands.iter().zip(list_of).enumerate() {
        let source = command.source;
        let record = SdCompile {
            path: &source.path,
            flags: &flags[list],
            target: &target,
        };
        let identity = record.identity();
        let unit = *unit_by_identity.entry(identity).or_insert_with(|| {
            units.push(SourceUnit {
                source,
                list,
                commands: Vec::new(),
            });
            units.len() - 1
        });
        units[unit].commands.push(index);
    }

    Ok(SourceDeployPlan {
        project,
        source_image,
        system,
        reference: resolved.reference(project, system),
        label: resolved.selection.label(),
        resolved,
        build_profile,
        target,
        commands,
        flags,
        units,
        committed: OnceLock::new(),
    })
}

/// Graft one planned source deployment onto `graph` as a self-contained subgraph
/// — the full on-target build of Figure 6 as a DAG, in **one** submission:
///
/// 1. **preprocess** (parallel): one deduplicated action per (file, observed definitions);
/// 2. **sd-compile** (parallel, cache-routed): an [`SdCompile`] record per unit,
///    so repeat deployments — including deployments of *other*
///    configurations whose flags do not change a unit — reuse the artifact;
/// 3. **link + commit**: a [`SourceDeployLink`] record, keyed on its objects'
///    content digests, validates the objects and outputs the build layer's
///    archive (a warm deployment's Link is a hit), and the commit derives the
///    system-specialized image from the source image, adopts that archive as its
///    last layer and commits it.
pub(crate) fn graft_source_deploy<'env>(
    plan: &'env SourceDeployPlan<'env>,
    graph: &mut ActionGraph<'env, PipelineError>,
    store: &'env ImageStore,
) {
    // Preprocess nodes first, in unit order: all preprocess records precede the
    // compile records.
    let target = &plan.target;
    let mut preprocess = PreprocessPlanner::new(&plan.project.headers);
    let preprocess_actions: Vec<ActionId> = plan
        .units
        .iter()
        .map(|unit| {
            let SourceSpec { path, content, .. } = unit.source;
            preprocess.action_for(graph, path, content, &plan.flags[unit.list])
        })
        .collect();
    // The plan holds one unit per identity, so no compile aliases another.
    let compile_actions: Vec<ActionId> = plan
        .units
        .iter()
        .zip(&preprocess_actions)
        .map(|(unit, &preprocess)| {
            let path = unit.source.path.as_str();
            let record = SdCompile {
                path,
                flags: &plan.flags[unit.list],
                target,
            };
            graph.add_action(path, record, &[preprocess])
        })
        .collect();

    let reference = plan.reference.as_str();
    let link = SourceDeployLink {
        label: &plan.label,
        units: &plan.units,
        commands: &plan.commands,
        targets: &plan.project.targets,
        system: &plan.system.name,
        target: &plan.target.name,
    };
    let link = graph.add_action(format!("{reference} image"), link, &compile_actions);
    let recommended = plan.system.recommended_base_image.as_ref();
    let base_reference = recommended.unwrap_or(&plan.source_image.reference);
    let commit = DeployCommit {
        base: plan.source_image,
        reference,
        system: plan.system,
        label: &plan.label,
        annotation: ("dev.xaas.base-image", base_reference),
        store,
        committed: &plan.committed,
    };
    graph.add_action(format!("{reference} commit"), commit, &[link]);
}

/// The finish phase: consume the plan after its subgraph ran, returning the
/// [`SourceDeployment`] carrying the run's `trace`.
pub(crate) fn finish_source_deploy(
    plan: SourceDeployPlan<'_>,
    trace: ActionTrace,
) -> SourceDeployment {
    SourceDeployment {
        image: plan.committed.into_inner().expect("the commit action ran"),
        reference: plan.reference,
        assignment: plan.resolved.selection,
        compiled_units: plan.commands.len(),
        build_profile: plan.build_profile,
        notes: plan.resolved.notes,
        trace,
    }
}

/// The container platform architecture of a system.
pub fn architecture_of(system: &SystemModel) -> Architecture {
    match system.cpu.family {
        xaas_hpcsim::IsaFamily::Aarch64 => Architecture::Arm64,
        _ => Architecture::Amd64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::graph::derive_key;
    use crate::engine::ActionInputs;
    use crate::orchestrator::{Orchestrator, SourceDeployRequest};
    use xaas_apps::gromacs;
    use xaas_container::ActionCache;

    /// Old free-function shape, routed through the orchestrator (uncached).
    fn deploy_source(
        project: &ProjectSpec,
        source_image: &Image,
        system: &SystemModel,
        preferences: &OptionAssignment,
        store: &ImageStore,
    ) -> Result<SourceDeployment, PipelineError> {
        let mut request = SourceDeployRequest::new(project, source_image, system);
        for (option, value) in preferences.iter() {
            request = request.prefer(option, value);
        }
        request.submit(&Orchestrator::uncached(store))
    }

    fn setup() -> (ProjectSpec, ImageStore, Image) {
        let project = gromacs::project();
        let store = ImageStore::new();
        let image = build_source_container(
            &project,
            Architecture::Amd64,
            &store,
            "spcl/mini-gromacs:src-x86",
        );
        (project, store, image)
    }

    #[test]
    fn source_container_carries_sources_toolchain_and_annotations() {
        let (project, store, image) = setup();
        assert_eq!(image.deployment_format(), DeploymentFormat::Source);
        let root = image.rootfs();
        assert!(root.get(paths::COMPILER).is_some());
        assert!(root
            .read_text(paths::BUILD_SCRIPT)
            .unwrap()
            .contains("mini-gromacs"));
        assert!(root
            .get(&format!("{}/src/mdrun/nonbonded.ck", paths::SOURCE_ROOT))
            .is_some());
        let annotation = &image.annotations[annotation_keys::SPECIALIZATION_POINTS];
        assert!(annotation.contains("gpu_backends"));
        assert!(store.load("spcl/mini-gromacs:src-x86").is_ok());
        assert_eq!(project.source_count(), 13);
    }

    #[test]
    fn deployment_on_ault23_selects_cuda_avx512_and_mkl() {
        let (project, store, image) = setup();
        let system = SystemModel::ault23();
        let deployment =
            deploy_source(&project, &image, &system, &OptionAssignment::new(), &store).unwrap();
        assert_eq!(deployment.assignment.get("GMX_GPU"), Some("CUDA"));
        assert_eq!(deployment.assignment.get("GMX_SIMD"), Some("AVX_512"));
        assert_eq!(deployment.assignment.get("GMX_FFT_LIBRARY"), Some("mkl"));
        assert!(deployment.compiled_units > 8);
        assert!(deployment.build_profile.gpu_backend.is_some());
        // The deployed image is a new, system-specific image in the store.
        assert!(store.load(&deployment.reference).is_ok());
        assert_ne!(deployment.image.reference, image.reference);
        assert_eq!(
            deployment.image.annotations[annotation_keys::TARGET_SYSTEM],
            "Ault23"
        );
    }

    #[test]
    fn deployment_on_clariden_is_arm_with_neon() {
        let (project, store, image) = setup();
        let system = SystemModel::clariden();
        let deployment =
            deploy_source(&project, &image, &system, &OptionAssignment::new(), &store).unwrap();
        assert_eq!(
            deployment.assignment.get("GMX_SIMD"),
            Some("ARM_NEON_ASIMD")
        );
        assert_eq!(deployment.image.platform.architecture, Architecture::Arm64);
        assert_eq!(deployment.assignment.get("GMX_GPU"), Some("CUDA"));
    }

    #[test]
    fn aurora_switches_base_image_and_disables_real_mpi() {
        let (project, store, image) = setup();
        let system = SystemModel::aurora();
        let deployment =
            deploy_source(&project, &image, &system, &OptionAssignment::new(), &store).unwrap();
        assert!(
            deployment.notes.iter().any(|n| n.contains("oneapi")),
            "{:?}",
            deployment.notes
        );
        assert!(deployment.notes.iter().any(|n| n.contains("thread-MPI")));
        assert_eq!(deployment.assignment.get("GMX_MPI"), Some("OFF"));
        assert_eq!(deployment.assignment.get("GMX_GPU"), Some("SYCL"));
    }

    #[test]
    fn a_system_without_an_mpi_module_names_the_missing_module() {
        let (project, store, image) = setup();
        let system = SystemModel::ault01_04();
        let deployment =
            deploy_source(&project, &image, &system, &OptionAssignment::new(), &store).unwrap();
        assert_eq!(deployment.assignment.get("GMX_MPI"), Some("OFF"));
        // Sarus runs MPI; what Ault01-04 lacks is the module.
        assert!(
            deployment
                .notes
                .iter()
                .any(|n| n == "no MPI module on Ault01-04; using thread-MPI"),
            "{:?}",
            deployment.notes
        );
        assert!(
            deployment.notes.iter().all(|n| !n.contains("Sarus")),
            "{:?}",
            deployment.notes
        );
    }

    #[test]
    fn user_preferences_override_the_policy_but_are_validated() {
        let (project, store, image) = setup();
        let system = SystemModel::ault23();
        let preference = OptionAssignment::new().with("GMX_FFT_LIBRARY", "fftw3");
        let deployment = deploy_source(&project, &image, &system, &preference, &store).unwrap();
        assert_eq!(deployment.assignment.get("GMX_FFT_LIBRARY"), Some("fftw3"));

        let bad = OptionAssignment::new().with("GMX_SIMD", "AVX_9000");
        let error = deploy_source(&project, &image, &system, &bad, &store).unwrap_err();
        assert!(matches!(error, PipelineError::UnsupportedPreference { .. }));
    }

    /// Two deployments that differ in one option commit under two references,
    /// each naming its own image: a reference spells out every option.
    #[test]
    fn deployments_differing_in_one_option_keep_their_own_references() {
        let (project, store, image) = setup();
        let system = SystemModel::ault23();
        let deployments: Vec<SourceDeployment> = ["AVX_512", "AVX2_256"]
            .into_iter()
            .map(|simd| {
                let preferences = OptionAssignment::new().with("GMX_SIMD", simd);
                deploy_source(&project, &image, &system, &preferences, &store).unwrap()
            })
            .collect();
        assert_ne!(deployments[0].reference, deployments[1].reference);
        for deployment in &deployments {
            let committed = store.load(&deployment.reference).unwrap();
            assert_eq!(
                committed.annotations[annotation_keys::SELECTED_CONFIGURATION],
                deployment.assignment.label()
            );
        }
    }

    /// Link's validation decode: an undecodable `sd-compile` entry (action-cache
    /// corruption) fails the deployment naming the file, before anything is committed.
    #[test]
    fn a_poisoned_sd_compile_entry_is_a_cache_error_and_commits_nothing() {
        let (project, store, image) = setup();
        let system = SystemModel::ault23();
        let cache = xaas_container::ActionCache::new(store.clone());
        let plan = plan_source_deploy(&project, &image, &system, &OptionAssignment::new()).unwrap();
        let unit = &plan.units[1];
        let (source, flags) = (unit.source, &plan.flags[unit.list]);
        let mut preprocessed =
            xaas_xir::preprocess_unit(&source.path, &source.content, flags, &project.headers)
                .unwrap()
                .content_digest()
                .into_bytes();
        preprocessed.push(1);
        let record = SdCompile {
            path: &source.path,
            flags,
            target: &plan.target,
        };
        let deps = ActionInputs::new(vec![preprocessed.into()]);
        cache.insert(&derive_key(&record, Some(&deps)), b"not json".to_vec());

        let request = SourceDeployRequest::new(&project, &image, &system);
        match request.submit(&Orchestrator::with_cache(&cache)) {
            Err(PipelineError::Cache(detail)) => {
                assert!(detail.contains(&source.path), "{detail}")
            }
            other => panic!("expected PipelineError::Cache, got {other:?}"),
        }
        assert_eq!(store.references().len(), 1, "only the source image");
    }

    /// A named change to one field of [`LinkFields`].
    type Change = (&'static str, fn(&mut LinkFields<'_>));

    /// Everything a [`SourceDeployLink`] keys, owned, so a test can change one
    /// field: taken from the GROMACS/Ault23 plan, with made-up object bytes.
    #[derive(Clone)]
    struct LinkFields<'p> {
        label: String,
        commands: Vec<CompileCommand<'p>>,
        targets: Vec<TargetSpec>,
        system: String,
        target: String,
        outputs: Vec<Vec<u8>>,
    }

    impl LinkFields<'_> {
        fn key(&self, units: &[SourceUnit]) -> BuildKey {
            let record = SourceDeployLink {
                label: &self.label,
                units,
                commands: &self.commands,
                targets: &self.targets,
                system: &self.system,
                target: &self.target,
            };
            let outputs = self.outputs.iter().map(|o| o.clone().into()).collect();
            derive_key(&record, Some(&ActionInputs::new(outputs)))
        }
    }

    fn link_fields<'p>(plan: &SourceDeployPlan<'p>) -> LinkFields<'p> {
        LinkFields {
            label: plan.label.clone(),
            commands: plan.commands.clone(),
            targets: plan.project.targets.clone(),
            system: plan.system.name.clone(),
            target: plan.target.name.clone(),
            outputs: (0..plan.units.len())
                .map(|unit| format!("object {unit}").into_bytes())
                .collect(),
        }
    }

    /// Populated disk tiers outlive the binary: the Link key may not drift.
    #[test]
    fn source_deploy_link_key_is_pinned() {
        let (project, _, image) = setup();
        let system = SystemModel::ault23();
        let plan = plan_source_deploy(&project, &image, &system, &OptionAssignment::new()).unwrap();
        assert_eq!(
            link_fields(&plan).key(&plan.units).digest().as_str(),
            "sha256:bf5290ccbff7970809f33fb5666b92741db00d95bad879fc5c038c8900a9364e"
        );
    }

    /// Everything the build layer is made of moves the Link key — the label (its
    /// note), the system and target (the executables), a target name, an object
    /// path and one object's bytes — and nothing but bytes: objects with the same
    /// bytes from elsewhere give the same key (the early cutoff).
    #[test]
    fn source_deploy_link_key_reads_every_input_of_the_layer() {
        let (project, _, image) = setup();
        let system = SystemModel::ault23();
        let plan = plan_source_deploy(&project, &image, &system, &OptionAssignment::new()).unwrap();
        let base = link_fields(&plan);
        let key = |fields: &LinkFields| fields.key(&plan.units);
        let changes: [Change; 6] = [
            ("label", |f| f.label.push_str(",X=1")),
            ("system", |f| f.system = "Clariden".into()),
            ("target", |f| f.target = "x86_64-avx2_256".into()),
            ("a target name", |f| f.targets[0].name.push('2')),
            ("an object path", |f| {
                f.commands[0].output.push_str(".moved")
            }),
            ("one object's bytes", |f| f.outputs[1].push(b'!')),
        ];
        for (what, change) in changes {
            let mut changed = base.clone();
            change(&mut changed);
            assert_ne!(key(&changed), key(&base), "{what} moves the key");
        }
        // The source path only names an undecodable object in an error.
        let first = plan.units[0].source;
        let elsewhere = SourceSpec {
            path: format!("{}.elsewhere", first.path),
            ..first.clone()
        };
        let renamed: Vec<SourceUnit> = (plan.units.iter())
            .map(|unit| SourceUnit {
                source: if std::ptr::eq(unit.source, first) {
                    &elsewhere
                } else {
                    unit.source
                },
                list: unit.list,
                commands: unit.commands.clone(),
            })
            .collect();
        assert_eq!(base.key(&renamed), key(&base));
        let copied = LinkFields {
            outputs: base.outputs.iter().map(|o| o.to_vec()).collect(),
            ..base.clone()
        };
        assert_eq!(key(&copied), key(&base), "the same bytes, the same key");
    }

    /// A cache entry under the Link key that is no layer archive fails the
    /// deployment with a typed cache error naming the image, and tags nothing.
    #[test]
    fn a_poisoned_link_entry_is_a_cache_error_and_commits_nothing() {
        let (project, store, image) = setup();
        let system = SystemModel::ault23();
        let request = || SourceDeployRequest::new(&project, &image, &system);
        // Learn the Link's key from a deployment over another store.
        let elsewhere = Orchestrator::with_cache(&ActionCache::new(ImageStore::new()));
        let cold = request().submit(&elsewhere).unwrap();
        let link = cold
            .trace
            .records
            .iter()
            .find(|r| r.kind == ActionKind::Link);
        let hex = link.unwrap().key_digest.as_deref().unwrap();
        let key = BuildKey::parse(&format!("sha256:{hex}")).unwrap();

        let cache = ActionCache::new(store.clone());
        cache.insert(&key, b"not an archive".to_vec());
        match request().submit(&Orchestrator::with_cache(&cache)) {
            Err(PipelineError::Cache(detail)) => {
                assert!(detail.contains(&cold.reference), "{detail}")
            }
            other => panic!("expected PipelineError::Cache, got {other:?}"),
        }
        assert_eq!(store.references().len(), 1, "only the source image");
    }

    #[test]
    fn cpu_only_system_deploys_without_gpu() {
        let (project, store, image) = setup();
        let system = SystemModel::ault01_04();
        let deployment =
            deploy_source(&project, &image, &system, &OptionAssignment::new(), &store).unwrap();
        assert_eq!(deployment.assignment.get("GMX_GPU"), Some("OFF"));
        assert!(deployment.build_profile.gpu_backend.is_none());
        assert!(deployment.notes.iter().any(|n| n.contains("CPU-only")));
    }
}
