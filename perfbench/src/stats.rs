//! Summary statistics and failure accounting for the benchmark's
//! measurements.

use cq_nn::NnError;

/// Samples a tail percentile must leave beyond it before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Median of `xs` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice: every caller measures at least one sample.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// The highest percentile of a sample that still has [`MIN_BEYOND`]
/// samples ranked above it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, in `(0, 100)`.
    pub pct: f64,
    /// The sample at that percentile.
    pub value: f64,
    /// Sample count.
    pub n: usize,
}

/// Picks the tail percentile of `xs`: the sample of rank `n - MIN_BEYOND`
/// (1-based) after sorting, i.e. percentile `100 (n - MIN_BEYOND) / n`.
/// Returns `None` when fewer than `MIN_BEYOND + 1` samples exist, since no
/// sample would then have enough beyond it.
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let n = xs.len();
    if n <= MIN_BEYOND {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = n - MIN_BEYOND;
    Some(Tail {
        pct: 100.0 * rank as f64 / n as f64,
        value: v[rank - 1],
        n,
    })
}

/// Operations attempted and failed over one run.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
}

impl Tally {
    /// Counts one operation.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Adds another tally's counts to this one.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Failed over attempted; 0 when nothing was attempted.
    pub fn fail_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// The loss of a training step that succeeded: `None` when the step
/// returned an error, was skipped as exploded (`Ok(None)`), or produced a
/// non-finite loss.
pub fn step_loss(r: &Result<Option<(f32, f32)>, NnError>) -> Option<f32> {
    match r {
        Ok(Some((loss, _))) if loss.is_finite() => Some(*loss),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_leaves_min_beyond_samples_above_it() {
        let xs: Vec<f64> = (1..=40).map(f64::from).collect();
        let t = tail(&xs).expect("40 samples suffice");
        assert_eq!(t.n, 40);
        assert_eq!(t.value, 30.0);
        assert_eq!(t.pct, 75.0);
        assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), MIN_BEYOND);
    }

    #[test]
    fn tail_refuses_too_small_samples() {
        let xs: Vec<f64> = (0..MIN_BEYOND).map(|i| i as f64).collect();
        assert_eq!(tail(&xs), None);
        assert_eq!(tail(&[]), None);
        let just = [xs, vec![99.0]].concat();
        let t = tail(&just).expect("MIN_BEYOND + 1 samples suffice");
        assert_eq!(t.value, 0.0);
    }

    #[test]
    fn tail_is_order_independent() {
        let xs = [
            5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0, 10.0, 11.0, 12.0,
        ];
        let t = tail(&xs).expect("12 samples");
        assert_eq!(t.value, 2.0);
        assert!((t.pct - 100.0 * 2.0 / 12.0).abs() < 1e-12);
    }

    #[test]
    fn fail_rate_counts_skipped_and_non_finite_steps() {
        let outcomes: [Result<Option<(f32, f32)>, NnError>; 5] = [
            Ok(Some((5.0, 1.0))),
            Ok(None),
            Ok(Some((f32::NAN, 1.0))),
            Ok(Some((f32::INFINITY, 1.0))),
            Err(NnError::Param("boom".into())),
        ];
        let mut tally = Tally::default();
        for r in &outcomes {
            tally.record(step_loss(r).is_some());
        }
        assert_eq!(
            tally,
            Tally {
                attempted: 5,
                failed: 4
            }
        );
        assert_eq!(tally.fail_rate(), 0.8);
        assert_eq!(Tally::default().fail_rate(), 0.0);
    }
}
