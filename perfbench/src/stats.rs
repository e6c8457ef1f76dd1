//! Percentiles under one reporting rule, shared by every workload.
//!
//! A percentile is reported only when at least [`MIN_BEYOND`] samples lie
//! beyond it: a p99 needs 1000 samples, a p90 needs 100. Anything less
//! and the "tail" is a handful of samples, which moves from run to run
//! with nothing in the program changing.

use dataspread_obs::HistogramSnapshot;

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Tail percentiles tried from the highest down; [`tail`] reports the
/// first one the sample count supports.
pub const TAILS: [f64; 3] = [99.9, 99.0, 90.0];

/// Nearest-rank index (0-based) of percentile `p` in `n` sorted samples.
fn rank(n: usize, p: f64) -> usize {
    // The epsilon keeps float error (99.9 / 100 * 10_000 = 9990.000…02)
    // from pushing an exact rank up by one.
    let k = (p / 100.0 * n as f64 - 1e-9).ceil() as usize;
    k.clamp(1, n) - 1
}

/// Percentile `p` (nearest rank) of ascending `sorted`, or `None` when
/// fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let i = rank(sorted.len(), p);
    (sorted.len() - 1 - i >= MIN_BEYOND).then(|| sorted[i])
}

/// Median (nearest rank) of ascending `sorted`; `None` when empty. The
/// median is always reported: half the samples lie beyond it.
pub fn median(sorted: &[f64]) -> Option<f64> {
    (!sorted.is_empty()).then(|| sorted[rank(sorted.len(), 50.0)])
}

/// The highest of [`TAILS`] that `n` samples support.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAILS
        .iter()
        .copied()
        .find(|&p| n > 0 && n - 1 - rank(n, p) >= MIN_BEYOND)
}

/// The highest of [`TAILS`] that [`percentile`] reports, as `(p, value)`.
#[cfg(test)]
pub fn tail(sorted: &[f64]) -> Option<(f64, f64)> {
    let p = tail_percentile(sorted.len())?;
    Some((p, sorted[rank(sorted.len(), p)]))
}

/// Share of samples [`trimmed_mean`] drops from each end.
pub const TRIM: f64 = 0.1;

/// The mean of ascending `sorted` after dropping [`TRIM`] of the samples
/// (rounded down) from each end; `None` when empty.
///
/// The gated latencies use it rather than the median. The shared host
/// these runs come from switches between a fast and a slow CPU state
/// (about 40% apart) every few seconds, so a run's samples are a mix of
/// two clusters. A median jumps from one cluster to the other as the mix
/// passes one half; a mean moves in proportion to the mix. Trimming
/// keeps the rare stall (an fsync behind a journal commit) from
/// carrying the mean.
pub fn trimmed_mean(sorted: &[f64]) -> Option<f64> {
    let cut = (sorted.len() as f64 * TRIM) as usize;
    let kept = &sorted[cut..sorted.len() - cut];
    (!kept.is_empty()).then(|| kept.iter().sum::<f64>() / kept.len() as f64)
}

/// Median of an unsorted list (sorts a copy).
pub fn median_of(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    median(&v)
}

/// Bucket-wise `after - before` of two snapshots of one registry
/// histogram: the samples recorded between them.
pub fn hist_delta(
    after: Option<&HistogramSnapshot>,
    before: Option<&HistogramSnapshot>,
) -> Vec<u64> {
    let Some(after) = after else {
        return Vec::new();
    };
    after
        .buckets
        .iter()
        .enumerate()
        .map(|(i, &a)| a - before.and_then(|b| b.buckets.get(i)).copied().unwrap_or(0))
        .collect()
}

/// Quantile `q` of log2-bucketed counts (bucket `i` holds values in
/// `[2^(i-1), 2^i - 1]`), interpolated linearly inside the bucket that
/// holds the rank — the registry's own `quantile` reports the bucket's
/// upper bound, which reads the same on every run. `None` when empty.
pub fn bucket_quantile(buckets: &[u64], q: f64) -> Option<f64> {
    let n: u64 = buckets.iter().sum();
    if n == 0 {
        return None;
    }
    let target = q.clamp(0.0, 1.0) * n as f64;
    let mut below = 0u64;
    for (i, &c) in buckets.iter().enumerate() {
        if c > 0 && (below + c) as f64 >= target {
            if i == 0 {
                return Some(0.0);
            }
            let lo = (1u128 << (i - 1)) as f64;
            let hi = ((1u128 << i) - 1) as f64;
            let frac = ((target - below as f64) / c as f64).clamp(0.0, 1.0);
            return Some(lo + (hi - lo) * frac);
        }
        below += c;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert_eq!(percentile(&ramp(1000), 99.0), Some(990.0));
        assert_eq!(percentile(&ramp(999), 99.0), None);
    }

    #[test]
    fn p90_needs_a_hundred_samples() {
        assert_eq!(percentile(&ramp(100), 90.0), Some(90.0));
        assert_eq!(percentile(&ramp(99), 90.0), None);
    }

    #[test]
    fn six_hundred_samples_carry_no_p99() {
        // Six samples beyond: a p99 from this many is noise.
        assert_eq!(percentile(&ramp(600), 99.0), None);
        assert_eq!(tail(&ramp(600)), Some((90.0, 540.0)));
    }

    #[test]
    fn tail_picks_the_highest_supported_percentile() {
        assert_eq!(tail(&ramp(10_000)), Some((99.9, 9990.0)));
        assert_eq!(tail(&ramp(1500)), Some((99.0, 1485.0)));
        assert_eq!(tail(&ramp(50)), None);
    }

    #[test]
    fn tail_percentile_follows_the_sample_count() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(99), None);
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }

    #[test]
    fn median_is_nearest_rank() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[7.0]), Some(7.0));
        assert_eq!(median(&ramp(4)), Some(2.0));
        assert_eq!(median_of(&[3.0, 1.0, 2.0]), Some(2.0));
    }

    #[test]
    fn trimmed_mean_drops_a_tenth_from_each_end() {
        assert_eq!(trimmed_mean(&[]), None);
        // Fewer than ten samples: nothing is dropped.
        assert_eq!(trimmed_mean(&[1.0, 2.0, 6.0]), Some(3.0));
        // Ten samples: the lowest and the highest go.
        let mut v = ramp(9);
        v.push(1000.0);
        assert_eq!(trimmed_mean(&v), Some(5.5));
        // Nineteen samples still drop only one from each end.
        let mut v = ramp(18);
        v.push(1000.0);
        assert_eq!(trimmed_mean(&v), Some(10.0));
    }

    #[test]
    fn trimmed_mean_follows_the_mix_of_two_clusters() {
        // A median flips between 1 and 2 as the mix passes one half; the
        // trimmed mean moves with the mix.
        let mix = |slow: usize| {
            let mut v = vec![1.0; 100 - slow];
            v.extend(vec![2.0; slow]);
            trimmed_mean(&v).unwrap()
        };
        assert_eq!(mix(0), 1.0);
        assert_eq!(mix(50), 1.5);
        assert!(mix(45) < mix(55));
        assert!(mix(55) - mix(45) < 0.15);
    }

    #[test]
    fn bucket_quantile_interpolates_inside_the_bucket() {
        // 4 samples in bucket 3 ([4, 7]).
        let mut b = vec![0u64; 8];
        b[3] = 4;
        assert_eq!(bucket_quantile(&b, 0.5), Some(5.5));
        assert_eq!(bucket_quantile(&b, 1.0), Some(7.0));
        assert_eq!(bucket_quantile(&[0, 0], 0.5), None);
        b[0] = 4;
        assert_eq!(bucket_quantile(&b, 0.25), Some(0.0));
    }

    #[test]
    fn hist_delta_subtracts_bucketwise() {
        let before = HistogramSnapshot {
            buckets: vec![1, 2, 3],
            sum: 0,
            max: 0,
        };
        let after = HistogramSnapshot {
            buckets: vec![1, 5, 4],
            sum: 0,
            max: 0,
        };
        assert_eq!(hist_delta(Some(&after), Some(&before)), vec![0, 3, 1]);
        assert_eq!(hist_delta(Some(&after), None), vec![1, 5, 4]);
        assert!(hist_delta(None, Some(&before)).is_empty());
    }
}
