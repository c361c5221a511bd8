//! CPU models: ISA families, SIMD levels, microarchitecture labels, and feature flags.
//!
//! The SIMD levels mirror the GROMACS `-DGMX_SIMD=` choices used throughout the paper
//! (Figure 2, Figure 12). Each level carries its vector width (single-precision lanes)
//! and an efficiency factor used by the performance model; the factors are calibrated so
//! that the *relative* speedups between levels track the measurements reported in the
//! paper (e.g. None → SSE2 ≈ 5×, SSE2 → AVX-512 ≈ 1.6× for the MD kernel class).

use serde::Serialize;
use std::fmt;

/// Top-level instruction-set architecture family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub enum IsaFamily {
    /// 64-bit x86 (Intel / AMD).
    X86_64,
    /// 64-bit ARM (Neoverse, Grace, A64FX).
    Aarch64,
    /// IBM POWER (kept for the Table 1 catalogue; no system model uses it).
    Ppc64le,
}

impl IsaFamily {
    /// Parse a name as [`IsaFamily::as_str`] spells it.
    pub fn parse(name: &str) -> Option<Self> {
        [Self::X86_64, Self::Aarch64, Self::Ppc64le]
            .into_iter()
            .find(|family| family.as_str() == name)
    }

    /// Lower-case name as used in system specifications.
    pub fn as_str(&self) -> &'static str {
        match self {
            IsaFamily::X86_64 => "x86_64",
            IsaFamily::Aarch64 => "aarch64",
            IsaFamily::Ppc64le => "ppc64le",
        }
    }
}

impl fmt::Display for IsaFamily {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// SIMD instruction-set level, named after the GROMACS configuration values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub enum SimdLevel {
    /// Plain C reference kernels, no SIMD specialization.
    None,
    /// SSE2: 128-bit, baseline x86-64.
    Sse2,
    /// SSE4.1: 128-bit with richer integer/blend operations.
    Sse41,
    /// AVX2 with 128-bit kernels (AMD Zen 1 style) — FMA available.
    Avx2_128,
    /// AVX 256-bit.
    Avx256,
    /// AVX2 256-bit with FMA.
    Avx2_256,
    /// AVX-512 (512-bit).
    Avx512,
    /// ARM NEON / Advanced SIMD (128-bit).
    NeonAsimd,
    /// ARM Scalable Vector Extension (128-bit implementation on Grace).
    Sve,
}

impl SimdLevel {
    /// All levels applicable to an ISA family, in increasing capability order.
    pub fn levels_for(family: IsaFamily) -> &'static [SimdLevel] {
        match family {
            IsaFamily::X86_64 => &[
                SimdLevel::None,
                SimdLevel::Sse2,
                SimdLevel::Sse41,
                SimdLevel::Avx2_128,
                SimdLevel::Avx256,
                SimdLevel::Avx2_256,
                SimdLevel::Avx512,
            ],
            IsaFamily::Aarch64 => &[SimdLevel::None, SimdLevel::Sve, SimdLevel::NeonAsimd],
            IsaFamily::Ppc64le => &[SimdLevel::None],
        }
    }

    /// The ISA family this level belongs to (`None` is family-agnostic, reported as x86).
    pub fn family(&self) -> IsaFamily {
        match self {
            SimdLevel::NeonAsimd | SimdLevel::Sve => IsaFamily::Aarch64,
            _ => IsaFamily::X86_64,
        }
    }

    /// Single-precision lane count of the vector unit at this level.
    pub fn width_sp(&self) -> u32 {
        match self {
            SimdLevel::None => 1,
            SimdLevel::Sse2 | SimdLevel::Sse41 => 4,
            SimdLevel::Avx2_128 => 4,
            SimdLevel::Avx256 | SimdLevel::Avx2_256 => 8,
            SimdLevel::Avx512 => 16,
            SimdLevel::NeonAsimd => 4,
            SimdLevel::Sve => 4,
        }
    }

    /// Efficiency factor of the vector unit (captures FMA availability, port pressure,
    /// frequency licensing for wide vectors, and SVE predication overhead). Multiplied by
    /// [`SimdLevel::width_sp`] to obtain the effective speedup of vectorised code regions.
    pub(crate) fn efficiency(&self) -> f64 {
        match self {
            SimdLevel::None => 1.0,
            SimdLevel::Sse2 => 0.85,
            SimdLevel::Sse41 => 0.86,
            SimdLevel::Avx2_128 => 1.05, // FMA at 128-bit: more work per lane.
            SimdLevel::Avx256 => 0.75,
            SimdLevel::Avx2_256 => 0.82,
            SimdLevel::Avx512 => 0.55, // width-16 at reduced frequency / port limits.
            SimdLevel::NeonAsimd => 0.85,
            SimdLevel::Sve => 0.72, // 128-bit SVE with predication overhead on Grace.
        }
    }

    /// Effective speedup of perfectly vectorisable code at this level.
    pub(crate) fn effective_speedup(&self) -> f64 {
        f64::from(self.width_sp()) * self.efficiency()
    }

    /// GROMACS-style configuration value for this level (`-DGMX_SIMD=<value>`).
    pub fn gmx_name(&self) -> &'static str {
        match self {
            SimdLevel::None => "None",
            SimdLevel::Sse2 => "SSE2",
            SimdLevel::Sse41 => "SSE4.1",
            SimdLevel::Avx2_128 => "AVX2_128",
            SimdLevel::Avx256 => "AVX_256",
            SimdLevel::Avx2_256 => "AVX2_256",
            SimdLevel::Avx512 => "AVX_512",
            SimdLevel::NeonAsimd => "ARM_NEON_ASIMD",
            SimdLevel::Sve => "ARM_SVE",
        }
    }

    /// The CPU feature flags (as discovery spells them) a CPU must expose to run
    /// code built for this level: the one table of SIMD capability.
    pub fn required_flags(&self) -> &'static [&'static str] {
        match self {
            SimdLevel::None => &[],
            SimdLevel::Sse2 => &["sse2"],
            SimdLevel::Sse41 => &["sse4_1"],
            SimdLevel::Avx2_128 => &["avx2", "fma"],
            SimdLevel::Avx256 => &["avx"],
            SimdLevel::Avx2_256 => &["avx2"],
            SimdLevel::Avx512 => &["avx512f"],
            SimdLevel::NeonAsimd => &["asimd"],
            SimdLevel::Sve => &["sve"],
        }
    }

    /// Parse a GROMACS-style name (tolerates case and `-`/`_` differences).
    pub fn parse(text: &str) -> Option<Self> {
        let norm: String = text
            .trim()
            .chars()
            .map(|c| if c == '-' { '_' } else { c })
            .map(|c| c.to_ascii_uppercase())
            .collect();
        match norm.trim_start_matches("ARM_") {
            "NONE" => Some(SimdLevel::None),
            "SSE2" => Some(SimdLevel::Sse2),
            "SSE4.1" | "SSE4_1" | "SSE41" => Some(SimdLevel::Sse41),
            "AVX2_128" => Some(SimdLevel::Avx2_128),
            "AVX_256" | "AVX256" => Some(SimdLevel::Avx256),
            "AVX2_256" => Some(SimdLevel::Avx2_256),
            "AVX_512" | "AVX512" | "AVX_512F" => Some(SimdLevel::Avx512),
            "NEON_ASIMD" | "NEON" | "ASIMD" => Some(SimdLevel::NeonAsimd),
            "SVE" => Some(SimdLevel::Sve),
            _ => None,
        }
    }
}

impl fmt::Display for SimdLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.gmx_name())
    }
}

/// A CPU model: microarchitecture, core counts, supported SIMD levels and baseline
/// scalar throughput used by the performance model.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CpuModel {
    /// Marketing name, e.g. "Intel Xeon Gold 6130".
    pub name: String,
    /// archspec-like microarchitecture label, e.g. `skylake_avx512`, `zen2`, `neoverse_v2`.
    pub microarchitecture: String,
    /// ISA family.
    pub family: IsaFamily,
    /// Physical cores per socket.
    pub cores_per_socket: u32,
    /// Sockets per node.
    pub sockets: u32,
    /// Nominal clock in GHz.
    pub clock_ghz: f64,
    /// Relative scalar throughput per core (1.0 = Skylake-era reference core).
    pub scalar_throughput: f64,
    /// Feature flag strings exposed by system discovery (`avx512f`, `sve`, …).
    pub feature_flags: Vec<String>,
}

impl CpuModel {
    /// Total cores in the node.
    pub fn total_cores(&self) -> u32 {
        self.cores_per_socket * self.sockets
    }

    /// Whether the CPU can execute code built for `level`: a level of its family
    /// whose every [required flag](SimdLevel::required_flags) it exposes.
    pub fn supports(&self, level: SimdLevel) -> bool {
        SimdLevel::levels_for(self.family).contains(&level)
            && level.required_flags().iter().all(|flag| {
                self.feature_flags
                    .iter()
                    .any(|f| f.eq_ignore_ascii_case(flag))
            })
    }

    /// The best (highest) supported SIMD level: the last of its family's levels
    /// it supports.
    pub fn best_simd(&self) -> SimdLevel {
        SimdLevel::levels_for(self.family)
            .iter()
            .copied()
            .rfind(|&level| self.supports(level))
            .unwrap_or(SimdLevel::None)
    }

    /// Thread scaling factor: parallel efficiency for `threads` over the node.
    /// Uses a simple saturating model with a 4% per-doubling overhead and no gain past
    /// the physical core count.
    pub(crate) fn thread_scaling(&self, threads: u32) -> f64 {
        let usable = threads.clamp(1, self.total_cores());
        let doublings = (f64::from(usable)).log2();
        f64::from(usable) * (1.0 - 0.04 * doublings).max(0.5)
    }

    /// Intel Xeon Gold 6130 (Skylake, Ault23 / Ault01-04 host CPU in the paper).
    pub(crate) fn intel_xeon_gold_6130() -> Self {
        Self {
            name: "Intel Xeon Gold 6130".into(),
            microarchitecture: "skylake_avx512".into(),
            family: IsaFamily::X86_64,
            cores_per_socket: 16,
            sockets: 2,
            clock_ghz: 2.1,
            scalar_throughput: 1.0,
            feature_flags: vec![
                "sse2".into(),
                "sse4_1".into(),
                "avx".into(),
                "avx2".into(),
                "avx512f".into(),
                "fma".into(),
            ],
        }
    }

    /// Intel Xeon Gold 6154 (Skylake, Ault01-04).
    pub(crate) fn intel_xeon_gold_6154() -> Self {
        Self {
            name: "Intel Xeon Gold 6154".into(),
            microarchitecture: "skylake_avx512".into(),
            cores_per_socket: 18,
            ..Self::intel_xeon_gold_6130()
        }
    }

    /// AMD EPYC 7742 (Rome / zen2, Ault25). No AVX-512.
    pub(crate) fn amd_epyc_7742() -> Self {
        Self {
            name: "AMD EPYC 7742".into(),
            microarchitecture: "zen2".into(),
            family: IsaFamily::X86_64,
            cores_per_socket: 64,
            sockets: 2,
            clock_ghz: 2.25,
            scalar_throughput: 1.05,
            feature_flags: vec![
                "sse2".into(),
                "sse4_1".into(),
                "avx".into(),
                "avx2".into(),
                "fma".into(),
            ],
        }
    }

    /// NVIDIA Grace (GH200 CPU side, Clariden).
    pub(crate) fn nvidia_grace() -> Self {
        Self {
            name: "NVIDIA Grace (GH200)".into(),
            microarchitecture: "neoverse_v2".into(),
            family: IsaFamily::Aarch64,
            cores_per_socket: 72,
            sockets: 1,
            clock_ghz: 3.1,
            scalar_throughput: 1.35,
            feature_flags: vec!["asimd".into(), "neon".into(), "sve".into()],
        }
    }

    /// Intel Xeon CPU Max 9470 (Sapphire Rapids + HBM, Aurora).
    pub(crate) fn intel_xeon_max() -> Self {
        Self {
            name: "Intel Xeon CPU Max 9470".into(),
            microarchitecture: "sapphirerapids".into(),
            family: IsaFamily::X86_64,
            cores_per_socket: 52,
            sockets: 2,
            clock_ghz: 2.0,
            scalar_throughput: 1.25,
            feature_flags: vec![
                "sse2".into(),
                "sse4_1".into(),
                "avx".into(),
                "avx2".into(),
                "avx512f".into(),
                "amx".into(),
                "fma".into(),
            ],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simd_levels_for_x86_are_ordered_by_capability() {
        let levels = SimdLevel::levels_for(IsaFamily::X86_64);
        assert_eq!(levels.first(), Some(&SimdLevel::None));
        assert_eq!(levels.last(), Some(&SimdLevel::Avx512));
        // Effective speedups must be monotonically non-decreasing from SSE2 upward,
        // except AVX2_128 which trades width for FMA (kept between SSE and AVX_256).
        assert!(SimdLevel::Avx512.effective_speedup() > SimdLevel::Avx2_256.effective_speedup());
        assert!(SimdLevel::Avx2_256.effective_speedup() > SimdLevel::Sse2.effective_speedup());
    }

    #[test]
    fn simd_parse_accepts_gromacs_names() {
        assert_eq!(SimdLevel::parse("AVX_512"), Some(SimdLevel::Avx512));
        assert_eq!(SimdLevel::parse("avx-512"), Some(SimdLevel::Avx512));
        assert_eq!(SimdLevel::parse("SSE4.1"), Some(SimdLevel::Sse41));
        assert_eq!(
            SimdLevel::parse("ARM_NEON_ASIMD"),
            Some(SimdLevel::NeonAsimd)
        );
        assert_eq!(SimdLevel::parse("ARM_SVE"), Some(SimdLevel::Sve));
        assert_eq!(SimdLevel::parse("None"), Some(SimdLevel::None));
        assert_eq!(SimdLevel::parse("MMX"), None);
    }

    #[test]
    fn parse_roundtrips_gmx_names() {
        for family in [IsaFamily::X86_64, IsaFamily::Aarch64] {
            for &level in SimdLevel::levels_for(family) {
                assert_eq!(SimdLevel::parse(level.gmx_name()), Some(level), "{level}");
            }
        }
    }

    #[test]
    fn xeon_6130_supports_up_to_avx512() {
        let cpu = CpuModel::intel_xeon_gold_6130();
        assert!(cpu.supports(SimdLevel::Sse2));
        assert!(cpu.supports(SimdLevel::Avx512));
        assert!(!cpu.supports(SimdLevel::NeonAsimd));
        assert_eq!(cpu.total_cores(), 32);
        assert_eq!(cpu.best_simd(), SimdLevel::Avx512);
    }

    #[test]
    fn epyc_7742_lacks_avx512() {
        let cpu = CpuModel::amd_epyc_7742();
        assert!(cpu.supports(SimdLevel::Avx2_256));
        assert!(!cpu.supports(SimdLevel::Avx512));
        assert_eq!(cpu.best_simd(), SimdLevel::Avx2_256);
    }

    #[test]
    fn grace_supports_arm_levels_only() {
        let cpu = CpuModel::nvidia_grace();
        assert!(cpu.supports(SimdLevel::NeonAsimd));
        assert!(cpu.supports(SimdLevel::Sve));
        assert!(!cpu.supports(SimdLevel::Avx2_256));
        assert!(cpu.supports(SimdLevel::None));
    }

    /// Support is read off the feature flags: a Skylake without `avx512f`
    /// tops out at AVX2, and one without `fma` loses only the FMA level.
    #[test]
    fn support_follows_the_required_flags() {
        let without = |flag: &str| {
            let mut cpu = CpuModel::intel_xeon_gold_6130();
            cpu.feature_flags.retain(|f| f != flag);
            cpu
        };
        let no_avx512 = without("avx512f");
        assert!(!no_avx512.supports(SimdLevel::Avx512));
        assert_eq!(no_avx512.best_simd(), SimdLevel::Avx2_256);
        let no_fma = without("fma");
        assert!(!no_fma.supports(SimdLevel::Avx2_128));
        assert!(no_fma.supports(SimdLevel::Avx2_256));
        assert_eq!(no_fma.best_simd(), SimdLevel::Avx512);
    }

    #[test]
    fn thread_scaling_is_monotonic_and_saturates() {
        let cpu = CpuModel::intel_xeon_gold_6130();
        let s1 = cpu.thread_scaling(1);
        let s16 = cpu.thread_scaling(16);
        let s32 = cpu.thread_scaling(32);
        let s64 = cpu.thread_scaling(64);
        assert!(s1 <= s16 && s16 <= s32);
        assert_eq!(s32, s64, "scaling saturates at the physical core count");
        assert!((s1 - 1.0).abs() < 1e-9);
        assert!(
            s16 > 10.0 && s16 < 16.0,
            "16 threads give between 10x and 16x: {s16}"
        );
    }

    #[test]
    fn simd_efficiency_declines_with_width_on_x86_wide_vectors() {
        assert!(SimdLevel::Avx512.efficiency() < SimdLevel::Avx2_256.efficiency());
        assert!(SimdLevel::Avx2_256.efficiency() < SimdLevel::Sse2.efficiency().max(0.86));
    }
}
