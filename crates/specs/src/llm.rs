//! Simulated LLM-assisted specialization discovery.
//!
//! The paper (Section 3.2, Table 4) sends build-system files to commercial LLMs and
//! scores the extracted specialization points against a curated ground truth. Those APIs
//! are not available offline, so this module substitutes *simulated models*: each model
//! has a token/latency/cost profile and an error profile (missed options, hallucinated
//! options, category confusion, hyphen/underscore and `-D` format drift, and occasional
//! "subset-only" answers) seeded from the failure modes the paper reports per model.
//! Runs are deterministic given (model, run index), so Table 4 is exactly reproducible.

use crate::model::{SpecCategory, SpecEntry, SpecializationDocument};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Error characteristics of a simulated model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErrorProfile {
    /// Probability of dropping a ground-truth entry (false negative).
    pub miss_rate: f64,
    /// Expected hallucinated entries as a fraction of the truth size (false positives).
    pub hallucination_rate: f64,
    /// Probability of emitting a correct entry with drifted formatting (hyphen vs
    /// underscore, missing `-D`, case changes) — recoverable by normalisation.
    pub format_drift_rate: f64,
    /// Probability of assigning a correct entry to the wrong category (e.g. FFT library
    /// listed under linear algebra).
    pub category_confusion_rate: f64,
    /// Probability that a run returns only a subset of the options (the Claude 3.5 /
    /// GPT-4o failure mode), dropping an extra fraction of entries.
    pub subset_failure_rate: f64,
}

/// Performance/cost characteristics of a simulated model.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulatedLlm {
    /// Model identifier as reported in Table 4.
    pub name: String,
    /// Tokens-per-word factor of the model's tokenizer (providers tokenise differently).
    pub tokenizer_factor: f64,
    /// Mean output tokens per run.
    pub output_tokens_mean: f64,
    /// Standard deviation of output tokens.
    pub output_tokens_std: f64,
    /// Mean end-to-end latency in seconds.
    pub latency_mean_s: f64,
    /// Latency standard deviation in seconds.
    pub latency_std_s: f64,
    /// USD per million input tokens.
    pub usd_per_mtok_in: f64,
    /// USD per million output tokens.
    pub usd_per_mtok_out: f64,
    /// Error profile with in-context examples provided.
    pub errors: ErrorProfile,
}

impl SimulatedLlm {
    /// The seven models evaluated in Table 4, with profiles calibrated to the reported
    /// F1/precision/recall bands, token counts, latencies, and costs.
    pub fn catalog() -> Vec<SimulatedLlm> {
        vec![
            SimulatedLlm {
                name: "gemini-flash-1.5-exp".into(),
                tokenizer_factor: 1.167,
                output_tokens_mean: 2333.0,
                output_tokens_std: 148.0,
                latency_mean_s: 16.4,
                latency_std_s: 1.0,
                usd_per_mtok_in: 0.075,
                usd_per_mtok_out: 0.30,
                errors: ErrorProfile {
                    miss_rate: 0.09,
                    hallucination_rate: 0.10,
                    format_drift_rate: 0.05,
                    category_confusion_rate: 0.03,
                    subset_failure_rate: 0.0,
                },
            },
            SimulatedLlm {
                name: "gemini-flash-2-exp".into(),
                tokenizer_factor: 1.167,
                output_tokens_mean: 2611.0,
                output_tokens_std: 189.0,
                latency_mean_s: 11.96,
                latency_std_s: 0.86,
                usd_per_mtok_in: 0.10,
                usd_per_mtok_out: 0.40,
                errors: ErrorProfile {
                    miss_rate: 0.02,
                    hallucination_rate: 0.02,
                    format_drift_rate: 0.02,
                    category_confusion_rate: 0.01,
                    subset_failure_rate: 0.05,
                },
            },
            SimulatedLlm {
                name: "claude-3-5-haiku-20241022".into(),
                tokenizer_factor: 1.318,
                output_tokens_mean: 1569.0,
                output_tokens_std: 174.0,
                latency_mean_s: 20.1,
                latency_std_s: 2.0,
                usd_per_mtok_in: 0.80,
                usd_per_mtok_out: 4.0,
                errors: ErrorProfile {
                    miss_rate: 0.44,
                    hallucination_rate: 0.09,
                    format_drift_rate: 0.04,
                    category_confusion_rate: 0.03,
                    subset_failure_rate: 0.1,
                },
            },
            SimulatedLlm {
                name: "claude-3-5-sonnet-20241022".into(),
                tokenizer_factor: 1.318,
                output_tokens_mean: 1529.0,
                output_tokens_std: 39.0,
                latency_mean_s: 126.2,
                latency_std_s: 60.0,
                usd_per_mtok_in: 3.0,
                usd_per_mtok_out: 15.0,
                errors: ErrorProfile {
                    miss_rate: 0.45,
                    hallucination_rate: 0.08,
                    format_drift_rate: 0.03,
                    category_confusion_rate: 0.02,
                    subset_failure_rate: 0.02,
                },
            },
            SimulatedLlm {
                name: "claude-3-7-sonnet-20250219".into(),
                tokenizer_factor: 1.318,
                output_tokens_mean: 3123.0,
                output_tokens_std: 155.0,
                latency_mean_s: 50.3,
                latency_std_s: 21.7,
                usd_per_mtok_in: 3.0,
                usd_per_mtok_out: 15.0,
                errors: ErrorProfile {
                    miss_rate: 0.09,
                    hallucination_rate: 0.11,
                    format_drift_rate: 0.04,
                    category_confusion_rate: 0.02,
                    subset_failure_rate: 0.0,
                },
            },
            SimulatedLlm {
                name: "o3-mini-2025-01-31".into(),
                tokenizer_factor: 1.0,
                output_tokens_mean: 8004.0,
                output_tokens_std: 1161.0,
                latency_mean_s: 108.4,
                latency_std_s: 40.0,
                usd_per_mtok_in: 1.1,
                usd_per_mtok_out: 4.4,
                errors: ErrorProfile {
                    miss_rate: 0.06,
                    hallucination_rate: 0.08,
                    format_drift_rate: 0.03,
                    category_confusion_rate: 0.02,
                    subset_failure_rate: 0.2,
                },
            },
            SimulatedLlm {
                name: "gpt-4o-2024-08-06".into(),
                tokenizer_factor: 1.0,
                output_tokens_mean: 1540.0,
                output_tokens_std: 146.0,
                latency_mean_s: 26.1,
                latency_std_s: 7.0,
                usd_per_mtok_in: 2.5,
                usd_per_mtok_out: 10.0,
                errors: ErrorProfile {
                    miss_rate: 0.25,
                    hallucination_rate: 0.10,
                    format_drift_rate: 0.06,
                    category_confusion_rate: 0.05,
                    subset_failure_rate: 0.3,
                },
            },
        ]
    }

    /// Find a model by name.
    pub fn by_name(name: &str) -> Option<SimulatedLlm> {
        Self::catalog().into_iter().find(|m| m.name == name)
    }
}

/// Configuration of a discovery run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnalysisConfig {
    /// Whether in-context examples are included in the prompt (Section 6.2: without them,
    /// extraction quality drops — the llama.cpp generalization experiment).
    pub in_context_examples: bool,
}

impl Default for AnalysisConfig {
    fn default() -> Self {
        Self {
            in_context_examples: true,
        }
    }
}

/// The result of one simulated discovery run.
#[derive(Debug, Clone, PartialEq)]
pub struct LlmRunResult {
    /// Model name.
    pub model: String,
    /// The extracted document (with injected errors).
    pub document: SpecializationDocument,
    /// Input tokens consumed.
    pub tokens_in: u64,
    /// Output tokens produced.
    pub tokens_out: u64,
    /// End-to-end latency in seconds.
    pub latency_seconds: f64,
    /// Estimated cost in USD.
    pub cost_usd: f64,
}

/// Run a simulated discovery: degrade the ground truth according to the model's error
/// profile. Deterministic for a given (model, run) pair.
pub fn analyze(
    model: &SimulatedLlm,
    build_script_text: &str,
    ground_truth: &SpecializationDocument,
    config: &AnalysisConfig,
    run: u64,
) -> LlmRunResult {
    let seed = model
        .name
        .bytes()
        .fold(0u64, |acc, b| {
            acc.wrapping_mul(131).wrapping_add(u64::from(b))
        })
        .wrapping_add(run.wrapping_mul(0x9e3779b97f4a7c15));
    let mut rng = StdRng::seed_from_u64(seed);

    // Without in-context examples, the model misses more and drifts more (Section 6.2).
    let mut errors = model.errors;
    if !config.in_context_examples {
        errors.miss_rate = (errors.miss_rate + 0.18).min(0.9);
        errors.format_drift_rate = (errors.format_drift_rate + 0.22).min(0.9);
        errors.category_confusion_rate = (errors.category_confusion_rate + 0.08).min(0.9);
    }

    let subset_failure = rng.random::<f64>() < errors.subset_failure_rate;
    let extra_drop = if subset_failure { 0.4 } else { 0.0 };

    let mut document = SpecializationDocument::new(ground_truth.application.clone());
    document.gpu_build = ground_truth.gpu_build;
    document.gpu_build_flag = ground_truth.gpu_build_flag.clone();
    document.build_system = ground_truth.build_system.clone();

    for entry in &ground_truth.entries {
        if rng.random::<f64>() < errors.miss_rate + extra_drop {
            continue; // missed
        }
        let mut produced = entry.clone();
        if rng.random::<f64>() < errors.category_confusion_rate {
            produced.category = confuse_category(produced.category);
        }
        if rng.random::<f64>() < errors.format_drift_rate {
            produced.name = drift_format(&produced.name, &mut rng);
        }
        document.push(produced);
    }

    // Hallucinations: plausible-but-wrong entries.
    let hallucinations = (ground_truth.len() as f64 * errors.hallucination_rate).round() as usize;
    for index in 0..hallucinations {
        let (category, name) =
            HALLUCINATION_POOL[(rng.random::<u64>() as usize + index) % HALLUCINATION_POOL.len()];
        if ground_truth.find(category, name).is_none() {
            document.push(SpecEntry::new(category, name));
        }
    }

    let script_tokens = build_script_text.split_whitespace().count() as f64;
    let prompt_overhead = if config.in_context_examples {
        1800.0
    } else {
        600.0
    };
    let tokens_in = ((script_tokens + prompt_overhead) * model.tokenizer_factor).round() as u64;
    let tokens_out = (model.output_tokens_mean
        + (rng.random::<f64>() - 0.5) * 2.0 * model.output_tokens_std)
        .max(100.0) as u64;
    let latency_seconds =
        (model.latency_mean_s + (rng.random::<f64>() - 0.5) * 2.0 * model.latency_std_s).max(1.0);
    let cost_usd = tokens_in as f64 / 1e6 * model.usd_per_mtok_in
        + tokens_out as f64 / 1e6 * model.usd_per_mtok_out;

    LlmRunResult {
        model: model.name.clone(),
        document,
        tokens_in,
        tokens_out,
        latency_seconds,
        cost_usd,
    }
}

/// Plausible hallucinations drawn from the HPC ecosystem.
const HALLUCINATION_POOL: &[(SpecCategory, &str)] = &[
    (SpecCategory::GpuBackend, "Metal"),
    (SpecCategory::GpuBackend, "OpenACC"),
    (SpecCategory::Vectorization, "AVX10"),
    (SpecCategory::Vectorization, "VSX"),
    (SpecCategory::Fft, "clFFT"),
    (SpecCategory::Fft, "PocketFFT"),
    (SpecCategory::LinearAlgebra, "ATLAS"),
    (SpecCategory::LinearAlgebra, "BLIS"),
    (SpecCategory::Parallelism, "TBB"),
    (SpecCategory::Parallelism, "HPX"),
    (SpecCategory::OtherLibrary, "HDF5"),
    (SpecCategory::Compiler, "nvc++"),
];

fn confuse_category(category: SpecCategory) -> SpecCategory {
    // The confusion the paper observed most: FFT vs linear algebra; others drift to "other".
    match category {
        SpecCategory::Fft => SpecCategory::LinearAlgebra,
        SpecCategory::LinearAlgebra => SpecCategory::Fft,
        SpecCategory::Vectorization => SpecCategory::Optimization,
        other => other,
    }
}

fn drift_format(name: &str, rng: &mut StdRng) -> String {
    match rng.random::<u64>() % 3 {
        0 => name.replace('_', "-"),
        1 => name.to_ascii_lowercase(),
        _ => format!("-D{name}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::score;
    use crate::model::SpecEntry;

    fn gromacs_like_truth() -> SpecializationDocument {
        let mut doc = SpecializationDocument::new("mini-gromacs");
        doc.gpu_build = true;
        for backend in ["CUDA", "SYCL", "HIP", "OpenCL"] {
            doc.push(SpecEntry::new(SpecCategory::GpuBackend, backend));
        }
        for simd in [
            "None",
            "SSE2",
            "SSE4.1",
            "AVX2_128",
            "AVX_256",
            "AVX2_256",
            "AVX_512",
            "ARM_NEON_ASIMD",
        ] {
            doc.push(SpecEntry::new(SpecCategory::Vectorization, simd));
        }
        for fft in ["fftw3", "mkl", "fftpack", "cuFFT"] {
            doc.push(SpecEntry::new(SpecCategory::Fft, fft));
        }
        for blas in ["mkl", "openblas"] {
            doc.push(SpecEntry::new(SpecCategory::LinearAlgebra, blas));
        }
        for parallel in ["MPI", "OpenMP", "thread-MPI"] {
            doc.push(SpecEntry::new(SpecCategory::Parallelism, parallel));
        }
        doc
    }

    #[test]
    fn runs_are_deterministic_per_model_and_run() {
        let model = SimulatedLlm::by_name("gpt-4o-2024-08-06").unwrap();
        let truth = gromacs_like_truth();
        let a = analyze(&model, "script text", &truth, &AnalysisConfig::default(), 3);
        let b = analyze(&model, "script text", &truth, &AnalysisConfig::default(), 3);
        assert_eq!(a, b);
        let c = analyze(&model, "script text", &truth, &AnalysisConfig::default(), 4);
        assert_ne!(a.document, c.document);
    }

    #[test]
    fn model_quality_ordering_matches_table_4() {
        let truth = gromacs_like_truth();
        let config = AnalysisConfig::default();
        let median_f1 = |name: &str| {
            let model = SimulatedLlm::by_name(name).unwrap();
            let mut scores: Vec<f64> = (0..10)
                .map(|run| {
                    let result = analyze(&model, "script", &truth, &config, run);
                    score(&result.document, &truth, true).f1()
                })
                .collect();
            scores.sort_by(|a, b| a.partial_cmp(b).unwrap());
            scores[scores.len() / 2]
        };
        let gemini2 = median_f1("gemini-flash-2-exp");
        let haiku = median_f1("claude-3-5-haiku-20241022");
        let sonnet37 = median_f1("claude-3-7-sonnet-20250219");
        assert!(
            gemini2 > 0.9,
            "gemini flash 2 median F1 high, got {gemini2}"
        );
        assert!(
            haiku < 0.8,
            "claude 3.5 haiku misses many options, got {haiku}"
        );
        assert!(sonnet37 > haiku, "sonnet 3.7 improves over haiku");
        assert!(gemini2 >= sonnet37 - 0.05, "gemini flash 2 among the best");
    }

    #[test]
    fn costs_latencies_and_tokens_are_positive_and_model_specific() {
        let truth = gromacs_like_truth();
        let config = AnalysisConfig::default();
        let gemini = SimulatedLlm::by_name("gemini-flash-1.5-exp").unwrap();
        let sonnet = SimulatedLlm::by_name("claude-3-5-sonnet-20241022").unwrap();
        let g = analyze(&gemini, "a b c", &truth, &config, 0);
        let s = analyze(&sonnet, "a b c", &truth, &config, 0);
        assert!(
            g.cost_usd < s.cost_usd,
            "gemini flash is cheaper than sonnet"
        );
        assert!(
            g.tokens_in < s.tokens_in,
            "anthropic tokenizer yields more tokens"
        );
        assert!(g.latency_seconds > 0.0 && s.latency_seconds > 0.0);
        assert!(g.tokens_out > 0 && s.tokens_out > 0);
    }

    #[test]
    fn dropping_in_context_examples_hurts_quality() {
        let truth = gromacs_like_truth();
        let model = SimulatedLlm::by_name("claude-3-7-sonnet-20250219").unwrap();
        let average = |config: &AnalysisConfig| {
            (0..10)
                .map(|run| {
                    let result = analyze(&model, "script", &truth, config, run);
                    score(&result.document, &truth, true).f1()
                })
                .sum::<f64>()
                / 10.0
        };
        let with_examples = average(&AnalysisConfig {
            in_context_examples: true,
        });
        let without = average(&AnalysisConfig {
            in_context_examples: false,
        });
        assert!(
            without < with_examples,
            "without examples: {without} vs {with_examples}"
        );
    }

    #[test]
    fn normalization_recovers_part_of_the_loss_without_examples() {
        // The Section 6.2 generalization result: normalisation improves F1.
        let truth = gromacs_like_truth();
        let model = SimulatedLlm::by_name("gpt-4o-2024-08-06").unwrap();
        let config = AnalysisConfig {
            in_context_examples: false,
        };
        let mut raw_sum = 0.0;
        let mut normalized_sum = 0.0;
        for run in 0..10 {
            let result = analyze(&model, "script", &truth, &config, run);
            raw_sum += score(&result.document, &truth, false).f1();
            normalized_sum += score(&result.document, &truth, true).f1();
        }
        assert!(
            normalized_sum > raw_sum,
            "normalisation should help: {normalized_sum} vs {raw_sum}"
        );
    }

    #[test]
    fn catalog_contains_the_seven_table_4_models() {
        let catalog = SimulatedLlm::catalog();
        assert_eq!(catalog.len(), 7);
        assert!(SimulatedLlm::by_name("o3-mini-2025-01-31").is_some());
        assert!(SimulatedLlm::by_name("not-a-model").is_none());
    }
}
