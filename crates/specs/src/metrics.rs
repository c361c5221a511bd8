//! Scoring of discovered specialization points against ground truth.
//!
//! Reproduces the evaluation protocol of Section 6.2: facts are matched per category on
//! normalised names, true/false positives and negatives are counted, and precision,
//! recall, and F1 are reported. The `normalize` switch reproduces the paper's
//! "Normalization improves performance" observation — minor discrepancies (inconsistent
//! hyphen/underscore, missing `-D` prefix, case) stop counting as errors.

use crate::model::{SpecCategory, SpecializationDocument};

/// Classification counts and derived metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Metrics {
    /// True positives.
    pub true_positives: usize,
    /// False positives (predicted but not in the ground truth).
    pub false_positives: usize,
    /// False negatives (in the ground truth but missed).
    pub false_negatives: usize,
}

impl Metrics {
    /// Precision = TP / (TP + FP).
    pub fn precision(&self) -> f64 {
        let denom = self.true_positives + self.false_positives;
        if denom == 0 {
            0.0
        } else {
            self.true_positives as f64 / denom as f64
        }
    }

    /// Recall = TP / (TP + FN).
    pub fn recall(&self) -> f64 {
        let denom = self.true_positives + self.false_negatives;
        if denom == 0 {
            0.0
        } else {
            self.true_positives as f64 / denom as f64
        }
    }

    /// F1 = harmonic mean of precision and recall.
    pub fn f1(&self) -> f64 {
        let p = self.precision();
        let r = self.recall();
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }

    /// Merge counts from another metrics value.
    pub fn merge(&mut self, other: &Metrics) {
        self.true_positives += other.true_positives;
        self.false_positives += other.false_positives;
        self.false_negatives += other.false_negatives;
    }
}

/// Normalise a fact name: lowercase, unify separators, strip flag prefixes and values.
pub fn normalize_name(name: &str) -> String {
    let mut text = name.trim().to_ascii_lowercase();
    if let Some(stripped) = text.strip_prefix("-d") {
        text = stripped.to_string();
    }
    text.chars()
        .map(|c| {
            if c == '-' || c == ' ' || c == '.' {
                '_'
            } else {
                c
            }
        })
        .collect()
}

/// Score a predicted document against the ground truth.
///
/// A predicted entry is a true positive when the truth contains an entry of the same
/// category whose (optionally normalised) name matches. With `normalize == false`, names
/// must match exactly (case-sensitive), which is how format drift turns into errors.
pub fn score(
    predicted: &SpecializationDocument,
    truth: &SpecializationDocument,
    normalize: bool,
) -> Metrics {
    let mut metrics = Metrics::default();
    let key = |category: SpecCategory, name: &str| -> (SpecCategory, String) {
        if normalize {
            (category, normalize_name(name))
        } else {
            (category, name.to_string())
        }
    };
    let truth_keys: Vec<(SpecCategory, String)> = truth
        .entries
        .iter()
        .map(|e| key(e.category, &e.name))
        .collect();
    let predicted_keys: Vec<(SpecCategory, String)> = predicted
        .entries
        .iter()
        .map(|e| key(e.category, &e.name))
        .collect();

    let mut matched_truth = vec![false; truth_keys.len()];
    for predicted_key in &predicted_keys {
        match truth_keys
            .iter()
            .enumerate()
            .position(|(i, k)| !matched_truth[i] && k == predicted_key)
        {
            Some(index) => {
                matched_truth[index] = true;
                metrics.true_positives += 1;
            }
            None => metrics.false_positives += 1,
        }
    }
    metrics.false_negatives = matched_truth.iter().filter(|m| !**m).count();
    metrics
}

/// Aggregate of repeated runs: min / median / max of a metric, as reported in Table 4.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MinMedMax {
    /// Minimum.
    pub min: f64,
    /// Median.
    pub median: f64,
    /// Maximum.
    pub max: f64,
}

/// Compute min/median/max of a sample.
pub fn min_med_max(values: &[f64]) -> MinMedMax {
    if values.is_empty() {
        return MinMedMax::default();
    }
    let mut sorted: Vec<f64> = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("metrics are finite"));
    let median = if sorted.len() % 2 == 1 {
        sorted[sorted.len() / 2]
    } else {
        (sorted[sorted.len() / 2 - 1] + sorted[sorted.len() / 2]) / 2.0
    };
    MinMedMax {
        min: sorted[0],
        median,
        max: *sorted.last().expect("non-empty"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::SpecEntry;

    fn truth() -> SpecializationDocument {
        let mut doc = SpecializationDocument::new("app");
        doc.push(SpecEntry::new(SpecCategory::GpuBackend, "CUDA"));
        doc.push(SpecEntry::new(SpecCategory::GpuBackend, "SYCL"));
        doc.push(SpecEntry::new(SpecCategory::Vectorization, "AVX_512"));
        doc.push(SpecEntry::new(SpecCategory::Fft, "fftw3"));
        doc
    }

    #[test]
    fn perfect_prediction_scores_one() {
        let metrics = score(&truth(), &truth(), false);
        assert_eq!(metrics.false_positives, 0);
        assert_eq!(metrics.false_negatives, 0);
        assert!((metrics.f1() - 1.0).abs() < 1e-12);
        assert!((metrics.precision() - 1.0).abs() < 1e-12);
        assert!((metrics.recall() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn missing_and_extra_entries_reduce_scores() {
        let mut predicted = SpecializationDocument::new("app");
        predicted.push(SpecEntry::new(SpecCategory::GpuBackend, "CUDA"));
        predicted.push(SpecEntry::new(SpecCategory::GpuBackend, "HIP")); // hallucinated
        let metrics = score(&predicted, &truth(), false);
        assert_eq!(metrics.true_positives, 1);
        assert_eq!(metrics.false_positives, 1);
        assert_eq!(metrics.false_negatives, 3);
        assert!(metrics.precision() < 0.6);
        assert!(metrics.recall() < 0.3);
    }

    #[test]
    fn category_confusion_is_an_error_even_with_same_name() {
        let mut predicted = SpecializationDocument::new("app");
        // fftw3 classified as linear algebra: the "mixing FFT and linear algebra" failure.
        predicted.push(SpecEntry::new(SpecCategory::LinearAlgebra, "fftw3"));
        let metrics = score(&predicted, &truth(), true);
        assert_eq!(metrics.true_positives, 0);
        assert_eq!(metrics.false_positives, 1);
    }

    #[test]
    fn normalization_recovers_format_drift() {
        let mut predicted = SpecializationDocument::new("app");
        predicted.push(SpecEntry::new(SpecCategory::Vectorization, "avx-512"));
        predicted.push(SpecEntry::new(SpecCategory::GpuBackend, "cuda"));
        let strict = score(&predicted, &truth(), false);
        assert_eq!(strict.true_positives, 0);
        let normalized = score(&predicted, &truth(), true);
        assert_eq!(normalized.true_positives, 2);
        assert!(normalized.f1() > strict.f1());
    }

    #[test]
    fn normalize_name_rules() {
        assert_eq!(normalize_name("AVX-512"), "avx_512");
        assert_eq!(normalize_name("-DGMX_SIMD"), "gmx_simd");
        assert_eq!(normalize_name("SSE4.1"), "sse4_1");
        assert_eq!(normalize_name(" cuda "), "cuda");
    }

    #[test]
    fn min_med_max_summary() {
        let summary = min_med_max(&[0.9, 0.5, 0.7]);
        assert_eq!(summary.min, 0.5);
        assert_eq!(summary.median, 0.7);
        assert_eq!(summary.max, 0.9);
        let even = min_med_max(&[0.2, 0.4, 0.6, 0.8]);
        assert!((even.median - 0.5).abs() < 1e-12);
        assert_eq!(min_med_max(&[]), MinMedMax::default());
    }

    #[test]
    fn duplicate_predictions_count_as_false_positives() {
        let mut predicted = SpecializationDocument::new("app");
        predicted.push(SpecEntry::new(SpecCategory::GpuBackend, "CUDA"));
        predicted.push(SpecEntry::new(SpecCategory::GpuBackend, "CUDA"));
        let metrics = score(&predicted, &truth(), false);
        assert_eq!(metrics.true_positives, 1);
        assert_eq!(metrics.false_positives, 1);
    }

    #[test]
    fn metrics_merge_accumulates() {
        let mut a = Metrics {
            true_positives: 1,
            false_positives: 2,
            false_negatives: 3,
        };
        a.merge(&Metrics {
            true_positives: 4,
            false_positives: 1,
            false_negatives: 0,
        });
        assert_eq!(a.true_positives, 5);
        assert_eq!(a.false_positives, 3);
        assert_eq!(a.false_negatives, 3);
    }
}
