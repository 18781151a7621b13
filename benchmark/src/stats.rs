//! Order statistics for repeated timings.

/// One metric's samples: the value reported for it, and the order statistics
/// that say how far to trust it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// What the metric reads: the median, unless built by [`Summary::fastest_of`].
    pub value: f64,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// A value measured once (an exact counter): no spread.
    pub fn single(value: f64) -> Summary {
        Summary {
            value,
            median: value,
            q1: value,
            q3: value,
            n: 1,
        }
    }

    /// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
    /// (the "exclusive" method), so a spread computed here reads the same as
    /// one computed from the printed values.
    ///
    /// # Panics
    /// Panics on an empty sample.
    pub fn of(samples: &[f64]) -> Summary {
        assert!(!samples.is_empty(), "summary of no samples");
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let len = sorted.len();
        if len == 1 {
            return Summary::single(sorted[0]);
        }
        let quantile = |i: usize| {
            let m = len + 1;
            let j = (i * m / 4).clamp(1, len - 1);
            let delta = (i * m) as f64 - (j * 4) as f64;
            (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
        };
        let median = quantile(2);
        Summary {
            value: median,
            median,
            q1: quantile(1),
            q3: quantile(3),
            n: len,
        }
    }

    /// Like [`Summary::of`], but the metric reads the *fastest* sample. On a
    /// shared machine interference only ever adds time, and it comes in
    /// stretches of minutes that shift every repetition of a run: over 24
    /// back-to-back `serve_mem` runs in such a stretch the per-run median
    /// ranged 1.12-1.52 s (IQR/median 12.6 %), the per-run minimum
    /// 1.08-1.40 s (8.9 %). The quartiles still describe all samples.
    pub fn fastest_of(samples: &[f64]) -> Summary {
        Summary {
            value: samples.iter().copied().fold(f64::INFINITY, f64::min),
            ..Summary::of(samples)
        }
    }

    /// Interquartile range as a share of the median (0 for a single value).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).median
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn odd_n_matches_python_exclusive_quantiles() {
        // statistics.quantiles([1,2,3,4,5], n=4) == [1.5, 3.0, 4.5]
        let s = Summary::of(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (1.5, 3.0, 4.5, 5));
        assert_eq!(s.value, 3.0);
        let fastest = Summary::fastest_of(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!((fastest.value, fastest.median, fastest.q1), (1.0, 3.0, 1.5));
    }

    #[test]
    fn even_n_matches_python_exclusive_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6], n=4) == [1.75, 3.5, 5.25]
        let s = Summary::of(&[6.0, 5.0, 4.0, 3.0, 2.0, 1.0]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (1.75, 3.5, 5.25, 6));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        let s = Summary::of(&[10.0, 20.0]);
        assert_eq!((s.q1, s.median, s.q3), (7.5, 15.0, 22.5));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(s.spread(), 1.0);
        assert_eq!(Summary::single(7.0).spread(), 0.0);
    }
}
