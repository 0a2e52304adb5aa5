//! Sample statistics under the benchmark's reporting rules, plus the
//! operation tally that every workload keeps.

use std::collections::BTreeMap;

/// A tail percentile is reported only when at least this many samples
/// lie beyond it; otherwise the sample cannot support it.
pub const MIN_BEYOND: usize = 10;

/// The `p`-th percentile (nearest rank) of `samples`, or `None` when
/// fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let n = samples.len();
    if n == 0 {
        return None;
    }
    let rank = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n);
    if n - rank < MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// The median of `samples` (mean of the middle pair for an even count);
/// `None` when empty. Used for small per-run series such as set-ups and
/// whole decompositions, where the percentile rule does not apply.
pub fn median(samples: &[f64]) -> Option<f64> {
    let n = samples.len();
    if n == 0 {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    })
}

/// Mean of `samples`; `None` when empty.
pub fn mean(samples: &[f64]) -> Option<f64> {
    (!samples.is_empty()).then(|| samples.iter().sum::<f64>() / samples.len() as f64)
}

/// `num / den`, or `None` when the base is zero.
pub fn ratio(num: f64, den: f64) -> Option<f64> {
    (den != 0.0).then(|| num / den)
}

/// For each batch `(epoch, submitted_ns)`, the delay until the first
/// reader answer at that epoch or later. `answers` are `(answered_ns,
/// epoch)` in the order one reader produced them. Batches no answer
/// reached are left out.
pub fn freshness_ns(batches: &[(u64, u64)], answers: &[(u64, u64)]) -> Vec<u64> {
    // Highest epoch seen so far, per answer: monotone even if a reader
    // ever went backwards, so a binary search finds the first answer
    // that had reached a given epoch.
    let mut reached = Vec::with_capacity(answers.len());
    let mut high = 0u64;
    for &(_, e) in answers {
        high = high.max(e);
        reached.push(high);
    }
    batches
        .iter()
        .filter_map(|&(epoch, submitted)| {
            let i = reached.partition_point(|&r| r < epoch);
            answers
                .get(i)
                .map(|&(answered, _)| answered.saturating_sub(submitted))
        })
        .collect()
}

/// Operations attempted, and those that failed: an error from the
/// program, or an answer that did not match the reference.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that returned an error.
    pub errors: u64,
    /// Operations that returned a wrong answer.
    pub wrong: u64,
}

impl Tally {
    /// Counts one operation, wrong unless `correct`.
    pub fn check(&mut self, correct: bool) {
        self.attempted += 1;
        if !correct {
            self.wrong += 1;
        }
    }

    /// Counts one operation that returned an error.
    pub fn error(&mut self) {
        self.attempted += 1;
        self.errors += 1;
    }

    /// Failed operations: errors plus wrong answers.
    pub fn failed(&self) -> u64 {
        self.errors + self.wrong
    }

    /// Failed operations as a share of those attempted (0 when none
    /// were attempted).
    pub fn failure_share(&self) -> f64 {
        ratio(self.failed() as f64, self.attempted as f64).unwrap_or(0.0)
    }

    /// Adds another tally's counts to this one.
    pub fn merge(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.errors += other.errors;
        self.wrong += other.wrong;
    }
}

/// Named sample series, filled while a run goes and summarised after.
#[derive(Debug, Default)]
pub struct Series(BTreeMap<&'static str, Vec<f64>>);

impl Series {
    /// Appends one sample to the series `name`.
    pub fn push(&mut self, name: &'static str, v: f64) {
        self.0.entry(name).or_default().push(v);
    }

    /// The samples of `name` (empty when none were taken).
    pub fn get(&self, name: &str) -> &[f64] {
        self.0.get(name).map_or(&[], Vec::as_slice)
    }

    /// Appends every series of `other`.
    pub fn absorb(&mut self, other: Series) {
        for (name, v) in other.0 {
            self.0.entry(name).or_default().extend(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_tail_percentile_needs_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(percentile(&xs, 90.0), None, "99 samples leave 9 beyond p90");
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 90.0), Some(90.0));
        let xs: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(percentile(&xs, 99.0), None);
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&xs, 99.0), Some(990.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut xs: Vec<f64> = (1..=40).map(f64::from).collect();
        xs.reverse();
        assert_eq!(percentile(&xs, 50.0), Some(20.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn freshness_is_the_first_answer_at_that_epoch_or_later() {
        // Batches publish epochs 1..=3; the reader skips epoch 2.
        let batches = [(1, 100), (2, 200), (3, 300)];
        let answers = [(50, 0), (150, 0), (180, 1), (260, 1), (420, 3)];
        assert_eq!(freshness_ns(&batches, &answers), vec![80, 220, 120]);
    }

    #[test]
    fn freshness_leaves_out_batches_no_reader_saw() {
        let batches = [(1, 10), (2, 20)];
        let answers = [(15, 0), (30, 1)];
        assert_eq!(freshness_ns(&batches, &answers), vec![20]);
        assert!(freshness_ns(&batches, &[]).is_empty());
    }

    #[test]
    fn failures_count_errors_and_wrong_answers_against_attempts() {
        let mut t = Tally::default();
        for ok in [true, true, false, true] {
            t.check(ok);
        }
        t.error();
        assert_eq!(t.attempted, 5);
        assert_eq!(t.failed(), 2);
        assert!((t.failure_share() - 0.4).abs() < 1e-12);
        let mut sum = Tally::default();
        sum.merge(&t);
        sum.merge(&t);
        assert_eq!((sum.attempted, sum.errors, sum.wrong), (10, 2, 2));
        assert_eq!(Tally::default().failure_share(), 0.0);
    }
}
