//! Order statistics and the digest the benchmark reports.

/// A percentile is reported only when at least this many samples lie
/// beyond it; below that it is one or two outliers, not a tail.
pub const MIN_BEYOND: usize = 10;

/// The `p`-th percentile (0 < p < 1) of `sorted` by nearest rank, or
/// `None` when fewer than [`MIN_BEYOND`] samples lie above it.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "samples must be sorted");
    rank(sorted.len(), p).map(|r| sorted[r - 1])
}

/// The 1-based nearest rank of the `p`-th percentile of `n` samples,
/// when at least [`MIN_BEYOND`] samples lie above it.
fn rank(n: usize, p: f64) -> Option<usize> {
    assert!(p > 0.0 && p < 1.0, "percentile {p} outside (0, 1)");
    let rank = ((p * n as f64).ceil() as usize).max(1);
    (rank <= n && n - rank >= MIN_BEYOND).then_some(rank)
}

/// Most windows [`windowed_percentile`] splits a run into.
pub const MAX_WINDOWS: usize = 10;

/// The `p`-th percentile of latencies given in the order they were
/// taken, as the median over consecutive windows of the run (as many as
/// hold [`min_samples`] each, at most [`MAX_WINDOWS`]). One slow spell
/// of a shared host then moves one window's tail, not the run's.
/// Returns the value and the number of windows, or `None` when the run
/// is too short for one window.
pub fn windowed_percentile(in_order: &[f64], p: f64) -> Option<(f64, usize)> {
    let windows = (in_order.len() / min_samples(p)).min(MAX_WINDOWS);
    if windows == 0 {
        return None;
    }
    let per = in_order.len() / windows;
    let tails: Vec<f64> = (0..windows)
        .map(|w| {
            let end = if w + 1 == windows { in_order.len() } else { (w + 1) * per };
            percentile(&sorted(in_order[w * per..end].to_vec()), p).expect("window is large enough")
        })
        .collect();
    Some((median(&tails), windows))
}

/// Smallest sample count for which [`percentile`] reports `p`.
pub fn min_samples(p: f64) -> usize {
    (1..).find(|&n| rank(n, p).is_some()).expect("some count suffices")
}

/// The median of `values` (mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Sorts latency samples in place and returns them for [`percentile`].
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// FNV-1a, used for the output digest and the source-tree digest.
pub struct Fnv(u64);

impl Fnv {
    /// A fresh hasher.
    pub fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    /// Folds `data` in.
    pub fn bytes(&mut self, data: &[u8]) {
        for &b in data {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds in the bit patterns of `values`.
    pub fn f64s(&mut self, values: &[f64]) {
        for v in values {
            self.bytes(&v.to_bits().to_le_bytes());
        }
    }

    /// The 64-bit digest.
    pub fn finish(&self) -> u64 {
        self.0
    }

    /// The digest folded to 48 bits, so a JSON number holds it exactly.
    pub fn finish48(&self) -> f64 {
        ((self.0 >> 48) ^ (self.0 & 0xffff_ffff_ffff)) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_uses_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(50.0));
        assert_eq!(percentile(&v, 0.9), Some(90.0));
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=99).map(f64::from).collect();
        // p90 of 99 samples is rank 90 with only 9 samples above it.
        assert_eq!(percentile(&v, 0.9), None);
        assert_eq!(min_samples(0.9), 100);
        assert_eq!(min_samples(0.5), 20);
        assert_eq!(min_samples(0.99), 1000);
        assert!(percentile(&(0..19).map(f64::from).collect::<Vec<_>>(), 0.5).is_none());
    }

    #[test]
    fn windowed_percentile_is_the_median_of_window_tails() {
        // Three windows of 100; the middle one is slow throughout.
        let mut v: Vec<f64> = (0..100).map(f64::from).collect();
        v.extend((0..100).map(|i| 1000.0 + f64::from(i)));
        v.extend((0..100).map(f64::from));
        assert_eq!(windowed_percentile(&v, 0.9), Some((89.0, 3)));
        assert_eq!(windowed_percentile(&v[..99], 0.9), None);
        let long = vec![1.0; 100 * (MAX_WINDOWS + 5)];
        assert_eq!(windowed_percentile(&long, 0.9), Some((1.0, MAX_WINDOWS)));
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn digest_is_exact_in_a_json_number() {
        let mut h = Fnv::new();
        h.f64s(&[1.0, 2.5]);
        let d = h.finish48();
        assert!(d < (1u64 << 53) as f64 && d.fract() == 0.0);
    }
}
