//! Order statistics used by every report: medians, quartiles, percentiles
//! and the "highest percentile that still has ten samples beyond it" rule.

/// Sorted copy of `values` (NaNs are not expected; they sort last).
#[must_use]
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values`; 0.0 when empty.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First quartile, median and third quartile, computed the way Python's
/// `statistics.quantiles(values, n=4)` does (exclusive method), so spreads
/// printed here can be compared with spreads computed by other tooling.
/// Fewer than two values yield the single value three times.
#[must_use]
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x, x);
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Distance between the quartiles as a share of the median.
#[must_use]
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// Nearest-rank percentile `p` (0..=100) of an ascending slice; 0.0 when
/// empty.
#[must_use]
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest of the usual tail percentiles that still has at least ten
/// samples beyond it among `n` samples, or `None` when even p50 does not.
#[must_use]
pub fn top_percentile(n: usize) -> Option<f64> {
    [99.9, 99.0, 95.0, 90.0, 75.0, 50.0]
        .into_iter()
        // Scaled by 100 and eased by a hair: 100 - 99.9 is not exactly 0.1.
        .find(|p| (n as f64) * (100.0 - p) >= 1000.0 - 1e-6)
}

/// Median, quartiles, sample count and the top reportable percentile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// `(p, value)` of the highest percentile with ten samples beyond it.
    pub top: Option<(f64, f64)>,
}

/// Summarises `values`.
#[must_use]
pub fn summarize(values: &[f64]) -> Summary {
    let v = sorted(values);
    let (q1, q2, q3) = quartiles(&v);
    Summary {
        n: v.len(),
        median: q2,
        q1,
        q3,
        top: top_percentile(v.len()).map(|p| (p, percentile(&v, p))),
    }
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "median {:.4} (q1 {:.4}, q3 {:.4}, n={})",
            self.median, self.q1, self.q3, self.n
        )?;
        if let Some((p, v)) = self.top {
            write!(f, " p{p} {v:.4}")?;
        }
        Ok(())
    }
}

/// The fast tail: the nearest-rank 5th percentile of `values` (their
/// minimum below twenty samples). This is the estimator behind every
/// reported time. The hosts this benchmark runs on are shared and their
/// speed is bimodal: while a neighbour is busy, memory-bound code takes
/// ~1.5x longer for tenths of a second to minutes, and the share of a run
/// spent that way varies from run to run. Disturbance only ever adds time,
/// so the fast tail of a sample set is what the undisturbed system does.
/// Measured on such a host over six windows of ten seconds, from calm to
/// heavily disturbed, a kernel's median ranged over 51 %, its 25th
/// percentile over 17 %, its 10th over 6 %, its 5th over 4.5 %.
#[must_use]
pub fn fast(values: &[f64]) -> f64 {
    percentile(&sorted(values), 5.0)
}

/// Geometric mean of positive values; 0.0 when empty.
#[must_use]
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}
