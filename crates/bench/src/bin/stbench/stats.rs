//! Order statistics over repetition samples, and the per-metric summary
//! (value, min, max, spread, sample count, noisy flag) the result files
//! carry.

use serde::Value;

/// A repetition spread above this share of the median marks the metric
/// `noisy` in the result file instead of silently reporting a median.
pub(crate) const NOISY_SPREAD: f64 = 0.10;

/// Exact nearest-rank percentile: the smallest sample such that at least
/// `p` percent of the samples are ≤ it (`rank = ⌈p/100 · n⌉`, 1-indexed),
/// the rule `st_load::Histogram` uses. 0 on an empty slice.
pub(crate) fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median: mean of the two middle samples for an even count.
/// 0 on an empty slice.
pub(crate) fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// One reported metric: the value plus how steady the samples behind it
/// were.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct Summary {
    pub(crate) value: f64,
    pub(crate) unit: &'static str,
    pub(crate) min: f64,
    pub(crate) max: f64,
    /// Samples behind `value` (repetitions for a median, pooled rounds
    /// for a percentile, 1 for a count read once).
    pub(crate) n: usize,
}

impl Summary {
    /// A metric whose value is the median of per-repetition samples.
    pub(crate) fn median_of(unit: &'static str, samples: &[f64]) -> Summary {
        Summary::of(unit, median(samples), samples)
    }

    /// A metric whose value is the `p`-th percentile of pooled samples.
    pub(crate) fn percentile_of(unit: &'static str, samples: &[f64], p: f64) -> Summary {
        Summary::of(unit, percentile(samples, p), samples)
    }

    /// A metric measured once (a count, a deterministic figure).
    pub(crate) fn once(unit: &'static str, value: f64) -> Summary {
        Summary::of(unit, value, &[value])
    }

    fn of(unit: &'static str, value: f64, samples: &[f64]) -> Summary {
        Summary {
            value,
            unit,
            min: samples.iter().copied().fold(f64::INFINITY, f64::min),
            max: samples.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            n: samples.len(),
        }
    }

    /// `(max − min) / |value|`; 0 when the value is 0.
    pub(crate) fn spread(&self) -> f64 {
        if self.value == 0.0 || self.n == 0 {
            0.0
        } else {
            (self.max - self.min) / self.value.abs()
        }
    }

    /// The detailed JSON form written to result files. `noisy` is only
    /// meaningful for medians over repetitions, where samples estimate
    /// one quantity; pooled percentiles spread by construction.
    pub(crate) fn to_value(&self, over_reps: bool) -> Value {
        let mut entries = vec![
            ("value".to_string(), Value::F64(self.value)),
            ("unit".to_string(), Value::Str(self.unit.to_string())),
            ("min".to_string(), Value::F64(self.min)),
            ("max".to_string(), Value::F64(self.max)),
            ("n".to_string(), Value::U64(self.n as u64)),
        ];
        if over_reps {
            entries.push(("spread".to_string(), Value::F64(self.spread())));
            entries.push((
                "noisy".to_string(),
                Value::Bool(self.spread() > NOISY_SPREAD),
            ));
        }
        Value::Map(entries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 95.0), 95.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        // Rank rounds up: p95 of 10 samples is the 10th.
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&ten, 95.0), 10.0);
        assert_eq!(percentile(&ten, 90.0), 9.0);
        // Unsorted input, singleton, empty.
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), 2.0);
        assert_eq!(percentile(&[7.0], 95.0), 7.0);
        assert_eq!(percentile(&[], 95.0), 0.0);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[9.0]), 9.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn summary_flags_a_wide_spread_as_noisy() {
        let steady = Summary::median_of("ms", &[100.0, 101.0, 99.0]);
        assert_eq!(
            (steady.value, steady.min, steady.max, steady.n),
            (100.0, 99.0, 101.0, 3)
        );
        assert!((steady.spread() - 0.02).abs() < 1e-12);
        assert_eq!(
            steady.to_value(true).get("noisy"),
            Some(&Value::Bool(false))
        );
        let noisy = Summary::median_of("ms", &[100.0, 120.0, 99.0]);
        assert_eq!(noisy.to_value(true).get("noisy"), Some(&Value::Bool(true)));
        assert_eq!(noisy.to_value(false).get("noisy"), None);
        assert_eq!(Summary::once("count", 0.0).spread(), 0.0);
    }
}
