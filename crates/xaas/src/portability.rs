//! The portability-layer taxonomy of Table 2: at which point of the toolchain each
//! existing approach applies, and what it requires from the system.

/// The stage of the build pipeline at which a portability approach operates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum PortabilityLevel {
    /// Full from-source build on the destination system.
    Building,
    /// Runtime replacement of dynamic dependencies (OCI hooks).
    Linking,
    /// Lowering an intermediate representation to the final binary on the target.
    Lowering,
    /// Runtime emulation / translation of incompatible interfaces.
    Emulation,
}

/// One row of Table 2.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PortabilityEntry {
    /// Level at which the technology operates.
    pub level: PortabilityLevel,
    /// Technology name.
    pub technology: &'static str,
    /// Short description.
    pub description: &'static str,
    /// Portability approach.
    pub approach: &'static str,
    /// How dependencies are integrated.
    pub dependency_integration: &'static str,
}

/// The Table 2 catalogue, including the XaaS rows this paper adds.
pub fn table2() -> Vec<PortabilityEntry> {
    vec![
        PortabilityEntry {
            level: PortabilityLevel::Building,
            technology: "Spack / EasyBuild",
            description: "From-source package manager",
            approach: "Parameterized package compilation",
            dependency_integration: "Automatic, dependency resolver",
        },
        PortabilityEntry {
            level: PortabilityLevel::Linking,
            technology: "Sarus / Apptainer",
            description: "HPC container runtime",
            approach: "Runtime binding, OCI hooks",
            dependency_integration: "Manual, CLI option, and host bind",
        },
        PortabilityEntry {
            level: PortabilityLevel::Lowering,
            technology: "Linux Popcorn",
            description: "Multi-ISA binary system",
            approach: "Heterogeneous-OS containers",
            dependency_integration: "No direct integration",
        },
        PortabilityEntry {
            level: PortabilityLevel::Lowering,
            technology: "H-Containers",
            description: "ISA-agnostic container with IRs",
            approach: "Container + recompilation",
            dependency_integration: "No direct integration",
        },
        PortabilityEntry {
            level: PortabilityLevel::Lowering,
            technology: "NVIDIA PTX",
            description: "Runtime JIT compilation",
            approach: "Virtual GPU architecture",
            dependency_integration: "No direct integration",
        },
        PortabilityEntry {
            level: PortabilityLevel::Emulation,
            technology: "Wi4MPI / mpixlate",
            description: "MPI compatibility layer",
            approach: "Runtime emulation of MPI ABIs",
            dependency_integration: "No direct integration",
        },
        PortabilityEntry {
            level: PortabilityLevel::Building,
            technology: "XaaS source containers",
            description: "Source + toolchain image, built at deployment",
            approach: "Deployment-time specialization",
            dependency_integration: "Dependency layers + system modules",
        },
        PortabilityEntry {
            level: PortabilityLevel::Lowering,
            technology: "XaaS IR containers",
            description: "Deduplicated IR image, lowered at deployment",
            approach: "Deployment-time vectorization and lowering",
            dependency_integration: "Dependency layers per specialization",
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_covers_all_four_levels() {
        let entries = table2();
        for level in [
            PortabilityLevel::Building,
            PortabilityLevel::Linking,
            PortabilityLevel::Lowering,
            PortabilityLevel::Emulation,
        ] {
            assert!(
                entries.iter().any(|e| e.level == level),
                "{level:?} missing"
            );
        }
    }

    #[test]
    fn xaas_rows_are_present_at_building_and_lowering() {
        let entries = table2();
        let xaas: Vec<_> = entries
            .iter()
            .filter(|e| e.technology.starts_with("XaaS"))
            .collect();
        assert_eq!(xaas.len(), 2);
        assert!(xaas.iter().any(|e| e.level == PortabilityLevel::Building));
        assert!(xaas.iter().any(|e| e.level == PortabilityLevel::Lowering));
    }
}
