//! A synthetic Iris-like dataset.
//!
//! The paper trains on the UCI Iris dataset (4 features, 3 classes, 50
//! records per class, 4.45 kB on disk), replicated up to 1 MB for the Fig 8
//! sweep. The original file is not redistributable here, so we generate a
//! statistically similar stand-in: three Gaussian-ish clusters in the same
//! feature ranges (sepal/petal length/width in centimetres), 50 records per
//! class, deterministic.

/// One labelled sample.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// The four features.
    pub features: Vec<f64>,
    /// Class index (0, 1, 2).
    pub class: usize,
}

impl Sample {
    /// One-hot encoding of the class (3 outputs).
    #[must_use]
    pub fn one_hot(&self) -> Vec<f64> {
        let mut v = vec![0.0; 3];
        v[self.class] = 1.0;
        v
    }
}

/// Per-class feature means, modelled on the real Iris statistics
/// (setosa / versicolor / virginica).
const CLASS_MEANS: [[f64; 4]; 3] = [
    [5.0, 3.4, 1.5, 0.25],
    [5.9, 2.8, 4.3, 1.3],
    [6.6, 3.0, 5.6, 2.0],
];

const CLASS_SPREAD: [[f64; 4]; 3] = [
    [0.35, 0.38, 0.17, 0.10],
    [0.51, 0.31, 0.47, 0.20],
    [0.63, 0.32, 0.55, 0.27],
];

/// Generates the canonical 150-sample dataset (50 per class).
#[must_use]
pub fn dataset() -> Vec<Sample> {
    dataset_with(50)
}

/// Generates `per_class` samples per class, deterministically.
#[must_use]
pub fn dataset_with(per_class: usize) -> Vec<Sample> {
    let mut out = Vec::with_capacity(per_class * 3);
    let mut state = 0x1234_5678_9ABC_DEF0u64;
    let mut next_unit = move || {
        // xorshift64* mapped to [-1, 1], sum of two for a triangular-ish
        // distribution (cheap Gaussian approximation).
        let mut step = || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            let r = state.wrapping_mul(0x2545_F491_4F6C_DD1D);
            (r >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
        };
        (step() + step()) / 2.0
    };
    for class in 0..3 {
        for _ in 0..per_class {
            let features = (0..4)
                .map(|f| {
                    let v = CLASS_MEANS[class][f] + CLASS_SPREAD[class][f] * next_unit();
                    (v.max(0.05) * 100.0).round() / 100.0
                })
                .collect();
            out.push(Sample { features, class });
        }
    }
    out
}

/// Serializes the dataset as CSV (the on-disk format the paper's benchmark
/// reads and replicates to hit its 100 kB–1 MB breakpoints).
#[must_use]
fn to_csv(samples: &[Sample]) -> String {
    let mut out = String::new();
    for s in samples {
        out.push_str(&format!(
            "{:.2},{:.2},{:.2},{:.2},{}\n",
            s.features[0], s.features[1], s.features[2], s.features[3], s.class
        ));
    }
    out
}

/// Parses the CSV format back into samples.
#[must_use]
pub fn from_csv(csv: &str) -> Vec<Sample> {
    csv.lines()
        .filter(|l| !l.trim().is_empty())
        .filter_map(|line| {
            let parts: Vec<&str> = line.split(',').collect();
            if parts.len() != 5 {
                return None;
            }
            let features: Vec<f64> = parts[..4]
                .iter()
                .filter_map(|p| p.trim().parse().ok())
                .collect();
            let class: usize = parts[4].trim().parse().ok()?;
            if features.len() != 4 || class > 2 {
                return None;
            }
            Some(Sample { features, class })
        })
        .collect()
}

/// Replicates the base dataset until its CSV form reaches `target_bytes`
/// (the paper's 100 kB … 1 MB sweep points).
#[must_use]
pub fn replicated_csv(target_bytes: usize) -> String {
    let base = to_csv(&dataset());
    let mut out = String::with_capacity(target_bytes + base.len());
    while out.len() < target_bytes {
        out.push_str(&base);
    }
    out.truncate(out.rfind('\n').map_or(out.len(), |i| i + 1));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_dataset_shape() {
        let d = dataset();
        assert_eq!(d.len(), 150);
        assert_eq!(d.iter().filter(|s| s.class == 0).count(), 50);
        assert_eq!(d.iter().filter(|s| s.class == 2).count(), 50);
        for s in &d {
            assert_eq!(s.features.len(), 4);
            assert!(s.features.iter().all(|f| *f > 0.0 && *f < 10.0));
        }
    }

    #[test]
    fn csv_roundtrip() {
        let d = dataset();
        let parsed = from_csv(&to_csv(&d));
        assert_eq!(parsed.len(), d.len());
        assert_eq!(parsed[0].class, d[0].class);
    }

    #[test]
    fn deterministic() {
        assert_eq!(to_csv(&dataset()), to_csv(&dataset()));
    }

    #[test]
    fn classes_are_separable_in_feature_space() {
        // Class 0 (setosa-like) has much smaller petal length than class 2.
        let d = dataset();
        let mean = |class: usize, f: usize| {
            let vals: Vec<f64> = d
                .iter()
                .filter(|s| s.class == class)
                .map(|s| s.features[f])
                .collect();
            vals.iter().sum::<f64>() / vals.len() as f64
        };
        assert!(mean(0, 2) + 1.0 < mean(2, 2));
    }

    #[test]
    fn replication_reaches_target_sizes() {
        for target in [100_000, 500_000, 1_000_000] {
            let csv = replicated_csv(target);
            assert!(csv.len() >= target);
            assert!(csv.len() < target + 5000);
            assert!(csv.ends_with('\n'));
            // Still parseable.
            let parsed = from_csv(&csv);
            assert!(parsed.len() >= 150);
        }
    }

    #[test]
    fn base_csv_size_close_to_paper() {
        // Paper: 4.45 kB for 150 records.
        let len = to_csv(&dataset()).len();
        assert!((3000..6000).contains(&len), "csv is {len} bytes");
    }
}
