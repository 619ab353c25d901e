//! Summary statistics over timing samples, and the seeded generator that
//! makes every workload's inputs from `--seed`.

/// Median of `xs` (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First, second and third quartile by the same rule as Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method), so
/// spreads printed here match the ones computed from the JSON results.
///
/// # Panics
///
/// Panics with fewer than two samples.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    assert!(xs.len() >= 2, "quartiles need at least two samples");
    let s = sorted(xs);
    let ld = s.len();
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
    }
    out
}

/// Geometric mean of strictly positive samples.
///
/// # Panics
///
/// Panics on an empty slice or a sample that is not positive.
pub fn geomean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "geomean of no samples");
    assert!(
        xs.iter().all(|&x| x > 0.0),
        "geomean needs positive samples"
    );
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// The highest percentile of the ladder 75/90/95/99/99.9 that still has
/// at least ten samples beyond it, or `None` below forty samples, where
/// no percentile would describe a tail.
pub fn tail_percentile(n: usize) -> Option<f64> {
    if n < 40 {
        return None;
    }
    // In tenths of a percent, so the rule is exact integer arithmetic.
    [999u64, 990, 950, 900, 750]
        .into_iter()
        .find(|p| n as u64 * (1000 - p) >= 10 * 1000)
        .map(|p| p as f64 / 10.0)
}

/// The nearest-rank value at percentile `p` of `xs`.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of no samples");
    let s = sorted(xs);
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// SplitMix64: a small, fixed pseudo-random generator, so a seed names
/// the same inputs on every platform and toolchain.
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: the
        // exclusive method extrapolates past the extremes.
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
        // statistics.quantiles([5, 1, 3, 2, 4], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 3.0, 2.0, 4.0]), [1.5, 3.0, 4.5]);
    }

    #[test]
    fn geomean_of_powers() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        assert!((geomean(&[2.0, 8.0, 4.0]) - 4.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn geomean_rejects_zero() {
        geomean(&[0.0, 1.0]);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(39), None);
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(99), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(9999), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        for n in [40, 77, 100, 512, 1000, 20_000] {
            let p = tail_percentile(n).unwrap();
            assert!(n as f64 * (100.0 - p) / 100.0 >= 10.0 - 1e-9, "n={n} p={p}");
        }
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 90.0), 90.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
    }

    #[test]
    fn rng_is_deterministic_and_shuffles_everything() {
        let mut a = Rng::new(7);
        let mut b = Rng::new(7);
        assert_eq!(a.next_u64(), b.next_u64());
        let mut xs: Vec<u32> = (0..50).collect();
        Rng::new(3).shuffle(&mut xs);
        let mut back = xs.clone();
        back.sort_unstable();
        assert_eq!(back, (0..50).collect::<Vec<_>>());
        assert_ne!(xs, back);
    }
}
