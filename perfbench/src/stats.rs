//! The shared measurement helper: every timing the benchmark reports goes
//! through [`Samples`], which keeps the warm-up count next to the timed
//! repeats and summarises them with nearest-rank percentiles.
//!
//! The median and quartiles are always reported. A tail percentile is
//! reported only when at least [`MIN_BEYOND`] samples lie beyond it; with
//! fewer, one slow sample would decide it, so [`Samples::percentile`]
//! refuses.

use std::fmt;

/// Samples that must lie beyond a tail percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Tail percentiles tried, highest first, for [`Summary::tail`].
const TAILS: [u32; 4] = [99, 95, 90, 75];

/// A percentile the sample is too small to support.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TooFewSamples {
    pub p: u32,
    pub n: usize,
    pub needed: usize,
}

impl fmt::Display for TooFewSamples {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "p{} needs {} samples ({MIN_BEYOND} beyond it), have {}",
            self.p, self.needed, self.n
        )
    }
}

/// 1-based nearest rank of percentile `p` (in percent) among `n` sorted
/// samples: the smallest rank whose share of the sample is at least `p`%.
fn rank(n: usize, p: u32) -> usize {
    (p as usize * n).div_ceil(100).max(1)
}

/// Smallest sample count with [`MIN_BEYOND`] samples beyond percentile `p`.
#[must_use]
pub fn min_samples(p: u32) -> usize {
    assert!(p < 100, "no sample lies beyond p{p}");
    (1..)
        .find(|&n| n - rank(n, p) >= MIN_BEYOND)
        .expect("p < 100 is reachable")
}

/// Timed repeats of one quantity, plus how many untimed warm-up runs
/// preceded them.
#[derive(Clone, Debug, Default)]
pub struct Samples {
    warmup: usize,
    values: Vec<f64>,
}

/// Summary of a [`Samples`] set.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    pub warmup: usize,
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    /// The highest of p99, p95, p90 and p75 with [`MIN_BEYOND`] samples
    /// beyond it, as `(p, value)`; `None` when even p75 is refused.
    pub tail: Option<(u32, f64)>,
    pub max: f64,
}

impl Samples {
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Count one untimed warm-up run.
    pub fn warmup(&mut self) {
        self.warmup += 1;
    }

    pub fn push(&mut self, v: f64) {
        self.values.push(v);
    }

    #[must_use]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    #[must_use]
    pub fn sum(&self) -> f64 {
        self.values.iter().sum()
    }

    fn sorted(&self) -> Vec<f64> {
        let mut v = self.values.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    /// Nearest-rank percentile `p`, refused when fewer than
    /// [`MIN_BEYOND`] samples lie beyond it.
    pub fn percentile(&self, p: u32) -> Result<f64, TooFewSamples> {
        let n = self.values.len();
        let r = rank(n, p);
        if n < r + MIN_BEYOND {
            return Err(TooFewSamples {
                p,
                n,
                needed: min_samples(p),
            });
        }
        Ok(self.sorted()[r - 1])
    }

    /// Median, quartiles, tail and max; `None` for an empty set.
    #[must_use]
    pub fn summary(&self) -> Option<Summary> {
        let v = self.sorted();
        let n = v.len();
        let at = |p: u32| v[rank(n, p) - 1];
        let max = *v.last()?;
        Some(Summary {
            warmup: self.warmup,
            n,
            median: at(50),
            q1: at(25),
            q3: at(75),
            tail: TAILS
                .iter()
                .find_map(|&p| self.percentile(p).ok().map(|x| (p, x))),
            max,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_to(n: usize) -> Samples {
        let mut s = Samples::new();
        // Pushed in reverse so the helper has to sort.
        for x in (1..=n).rev() {
            s.push(x as f64);
        }
        s
    }

    #[test]
    fn nearest_rank_on_one_to_hundred() {
        let s = one_to(100);
        assert_eq!(s.percentile(50), Ok(50.0));
        assert_eq!(s.percentile(90), Ok(90.0));
        assert!(s.percentile(95).is_err(), "only 5 samples beyond p95");
        let sum = s.summary().expect("non-empty");
        assert_eq!(
            (sum.q1, sum.median, sum.q3, sum.max),
            (25.0, 50.0, 75.0, 100.0)
        );
        assert_eq!(sum.tail, Some((90, 90.0)));
        assert_eq!(sum.n, 100);
    }

    #[test]
    fn refuses_tail_with_fewer_than_ten_beyond() {
        let s = one_to(99);
        let err = s.percentile(90).expect_err("rank 90 of 99 has 9 beyond");
        assert_eq!(err.needed, 100);
        assert_eq!(one_to(100).percentile(90), Ok(90.0));
        assert_eq!(one_to(19).percentile(50).ok(), None);
        assert_eq!(one_to(20).percentile(50), Ok(10.0));
    }

    #[test]
    fn min_samples_match_the_refusal_rule() {
        assert_eq!(min_samples(50), 20);
        assert_eq!(min_samples(90), 100);
        assert_eq!(min_samples(95), 200);
        assert_eq!(min_samples(99), 1000);
        for p in [50, 75, 90, 95, 99] {
            let n = min_samples(p);
            assert!(one_to(n).percentile(p).is_ok(), "p{p} at n={n}");
            assert!(one_to(n - 1).percentile(p).is_err(), "p{p} at n={}", n - 1);
        }
    }

    #[test]
    fn small_sets_report_median_but_no_tail() {
        let mut s = Samples::new();
        s.warmup();
        for x in [3.0, 1.0, 2.0] {
            s.push(x);
        }
        let sum = s.summary().expect("non-empty");
        assert_eq!(sum.median, 2.0);
        assert_eq!(sum.max, 3.0);
        assert_eq!(sum.warmup, 1);
        assert_eq!(sum.tail, None);
        assert_eq!(Samples::new().summary(), None);
    }
}
