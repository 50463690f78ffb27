//! Small numeric helpers: the seeded generator, order statistics, the
//! result digest and the process memory readers.

/// SplitMix64: every input the benchmark generates comes from one of
/// these, seeded from `--seed`, so a seed fixes the inputs exactly.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// `len` input probabilities `k/16` with `k` uniform in `7..=9`:
    /// near 1/2, so a seed changes every input without swinging the
    /// estimator's accuracy or the test length far from run to run.
    pub fn grid_probs(&mut self, len: usize) -> Vec<f64> {
        (0..len)
            .map(|_| (7 + self.below(3)) as f64 / 16.0)
            .collect()
    }

    /// `k` distinct indices from `0..n`, ascending (all of them when
    /// `k >= n`).
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        if k >= n {
            return (0..n).collect();
        }
        let mut picked = std::collections::BTreeSet::new();
        while picked.len() < k {
            picked.insert(self.below(n as u64) as usize);
        }
        picked.into_iter().collect()
    }
}

/// Median (mean of the middle two for even counts); 0 for no samples.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Mean; 0 for no samples.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// A tail latency: the sample at `percent`, out of `samples`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub value: f64,
    pub percent: f64,
    pub samples: usize,
}

/// The nearest-rank p99, or, with too few samples for that, the highest
/// percentile that still has [`TAIL_BEYOND`] samples above it. `None`
/// when there are not enough samples for any such percentile.
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let n = xs.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let p99 = (99 * n).div_ceil(100) - 1;
    let i = p99.min(n - 1 - TAIL_BEYOND);
    Some(Tail {
        value: v[i],
        percent: 100.0 * (i + 1) as f64 / n as f64,
        samples: n,
    })
}

/// FNV-1a over the bit patterns of `values`, continuing from `state`
/// (start from [`DIGEST_INIT`]). Equal digests mean `to_bits`-equal
/// inputs, up to hash collisions.
pub fn digest(state: u64, values: impl IntoIterator<Item = f64>) -> u64 {
    let mut h = state;
    for v in values {
        for b in v.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

pub const DIGEST_INIT: u64 = 0xcbf2_9ce4_8422_2325;

/// A `/proc/self/status` field in MiB (`VmRSS`, `VmHWM`); 0 when the
/// file is unavailable.
pub fn status_mib(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(tail(&xs), None);
        let xs: Vec<f64> = (1..=11).map(f64::from).collect();
        let t = tail(&xs).unwrap();
        assert_eq!((t.value, t.samples), (1.0, 11));
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&xs).unwrap();
        assert_eq!((t.value, t.percent), (90.0, 90.0));
        assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), 10);
    }

    #[test]
    fn tail_is_p99_with_enough_samples() {
        let xs: Vec<f64> = (1..=5000).rev().map(f64::from).collect();
        let t = tail(&xs).unwrap();
        assert_eq!((t.value, t.percent, t.samples), (4950.0, 99.0, 5000));
        assert!(xs.iter().filter(|&&x| x > t.value).count() >= TAIL_BEYOND);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn digest_sees_one_ulp() {
        let a = digest(DIGEST_INIT, [0.25, 0.5]);
        let b = digest(DIGEST_INIT, [0.25, f64::from_bits(0.5f64.to_bits() + 1)]);
        assert_ne!(a, b);
        assert_eq!(a, digest(DIGEST_INIT, [0.25, 0.5]));
    }

    #[test]
    fn grid_probs_repeat_for_a_seed() {
        let a = Rng::new(7).grid_probs(64);
        assert_eq!(a, Rng::new(7).grid_probs(64));
        assert_ne!(a, Rng::new(8).grid_probs(64));
        assert!(a.iter().all(|&p| [7.0, 8.0, 9.0].contains(&(p * 16.0))));
    }
}
