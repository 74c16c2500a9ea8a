//! Order statistics for timings: medians, nearest-rank percentiles with
//! the ten-samples-beyond rule, and a stable 64-bit fingerprint.

/// Median of `xs` (mean of the two middle values for an even count);
/// `None` when empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// Nearest-rank percentile of *sorted* samples: the smallest sample with
/// at least a `q` share of all samples at or below it.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() || !(0.0..=1.0).contains(&q) {
        return None;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).max(1);
    Some(sorted[rank - 1])
}

/// Samples strictly above the nearest rank of `q`.
pub fn beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).max(1).min(n)
}

/// [`percentile`], reported only when at least ten samples lie beyond it
/// (a p99 needs 1000 samples): a tail read off fewer points is noise.
pub fn tail_percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if beyond(sorted.len(), q) < 10 {
        return None;
    }
    percentile(sorted, q)
}

/// Sort a sample vector in place for [`percentile`].
pub fn sorted(mut xs: Vec<f64>) -> Vec<f64> {
    xs.sort_by(f64::total_cmp);
    xs
}

/// FNV-1a over `bytes`: a fingerprint that is the same on every run and
/// platform, unlike the standard library's seeded hasher.
pub fn fingerprint(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// SplitMix64 step: derives independent sub-seeds from one `--seed`.
pub fn mix_seed(seed: u64, k: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(k.wrapping_add(1).wrapping_mul(0xbf58_476d_1ce4_e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn nearest_rank_percentiles_on_known_vectors() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(50.0));
        assert_eq!(percentile(&v, 0.99), Some(99.0));
        assert_eq!(percentile(&v, 1.0), Some(100.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 0.011), Some(2.0));
        let w = [15.0, 20.0, 35.0, 40.0, 50.0];
        assert_eq!(percentile(&w, 0.05), Some(15.0));
        assert_eq!(percentile(&w, 0.30), Some(20.0));
        assert_eq!(percentile(&w, 0.40), Some(20.0));
        assert_eq!(percentile(&w, 0.50), Some(35.0));
        assert_eq!(percentile(&w, 1.0), Some(50.0));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&w, 1.5), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(tail_percentile(&v, 0.99), Some(990.0));
        assert_eq!(tail_percentile(&v[..999], 0.99), None);
        assert_eq!(tail_percentile(&v[..20], 0.5), Some(10.0));
        assert_eq!(tail_percentile(&v[..19], 0.5), None);
        assert_eq!(beyond(0, 0.5), 0);
    }

    #[test]
    fn fingerprints_and_sub_seeds_are_stable() {
        assert_eq!(fingerprint(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fingerprint(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(mix_seed(1, 0), mix_seed(1, 1));
        assert_ne!(mix_seed(1, 0), mix_seed(2, 0));
        assert_eq!(mix_seed(7, 3), mix_seed(7, 3));
    }
}
