//! Order statistics for latency samples.
//!
//! Percentiles use the nearest-rank rule. A percentile is only reported
//! when at least [`MIN_TAIL`] samples lie beyond it: with fewer, the
//! value is one or two unlucky samples, not a property of the system.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_TAIL: usize = 10;

/// Nearest-rank percentile `q` (in `0..1`) of `sorted` (ascending).
///
/// Refuses with an error when fewer than [`MIN_TAIL`] samples lie beyond
/// the chosen rank, e.g. p99 needs at least 1 000 samples.
pub fn percentile(sorted: &[f64], q: f64) -> Result<f64, String> {
    let n = sorted.len();
    if n == 0 || !(0.0..1.0).contains(&q) {
        return Err(format!("p{} of {n} samples is undefined", q * 100.0));
    }
    // Nearest rank (1-based): the smallest rank with at least q·n samples
    // at or below it. The small epsilon keeps 0.99 × 1000 at rank 990
    // despite binary rounding.
    let rank = ((q * n as f64) - 1e-9).ceil().max(1.0) as usize;
    let beyond = n - rank;
    if beyond < MIN_TAIL {
        return Err(format!(
            "p{} of {n} samples has only {beyond} beyond it (need {MIN_TAIL})",
            q * 100.0
        ));
    }
    Ok(sorted[rank - 1])
}

/// The median, over groups of `samples`, of each group's nearest-rank
/// percentile `q`. Group `i` runs from `starts[i]` to the next start (the
/// last one to the end; no starts make one group). Each group must
/// support `q` by itself, so one disturbed group moves one value of the
/// median, not the result.
pub fn median_of_groups(samples: &[f64], starts: &[usize], q: f64) -> Result<f64, String> {
    let mut bounds: Vec<usize> = if starts.is_empty() {
        vec![0]
    } else {
        starts.to_vec()
    };
    bounds.push(samples.len());
    let mut per_group = Vec::with_capacity(bounds.len() - 1);
    for (i, pair) in bounds.windows(2).enumerate() {
        let group = sorted(&samples[pair[0]..pair[1]]);
        per_group.push(percentile(&group, q).map_err(|e| format!("group {i}: {e}"))?);
    }
    Ok(median(&per_group))
}

/// Cuts a series of `len` samples into consecutive slices of at least
/// `slice` samples each (as many as fit), never across a boundary in
/// `starts`: samples before the first boundary form a part of their own,
/// as does each stretch from one boundary to the next. A non-empty part
/// shorter than `slice` is one slice; empty parts give none. Returns the
/// slices' starts, for [`median_of_groups`].
pub fn slice_starts(starts: &[usize], len: usize, slice: usize) -> Vec<usize> {
    let mut bounds = vec![0];
    bounds.extend(starts.iter().copied().filter(|&s| s <= len));
    bounds.push(len);
    let mut out = Vec::new();
    for pair in bounds.windows(2) {
        let n = pair[1].saturating_sub(pair[0]);
        if n == 0 {
            continue;
        }
        let k = (n / slice.max(1)).max(1);
        out.extend((0..k).map(|i| pair[0] + i * n / k));
    }
    out
}

/// The highest of a fixed ladder of percentiles that `n` samples
/// support, as a label such as `"p99.9"`.
pub fn highest_supported(n: usize) -> &'static str {
    const LADDER: [(f64, &str); 5] = [
        (0.9999, "p99.99"),
        (0.999, "p99.9"),
        (0.99, "p99"),
        (0.9, "p90"),
        (0.5, "p50"),
    ];
    let probe: Vec<f64> = (0..n).map(|i| i as f64).collect();
    LADDER
        .iter()
        .find(|(q, _)| percentile(&probe, *q).is_ok())
        .map_or("none", |(_, label)| label)
}

/// Sorts a copy of `values` ascending (NaN-free input).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median with the two middle values averaged for even counts (the
/// convention of Python's `statistics.median`). `0.0` for no values.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Arithmetic mean; `0.0` for no values.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        assert_eq!(percentile(&ramp(1000), 0.99), Ok(990.0));
        assert!(percentile(&ramp(999), 0.99).is_err());
        assert!(percentile(&ramp(100), 0.99).is_err());
    }

    #[test]
    fn p50_and_p90_follow_nearest_rank() {
        assert_eq!(percentile(&ramp(100), 0.9), Ok(90.0));
        assert_eq!(percentile(&ramp(101), 0.5), Ok(51.0));
        assert!(percentile(&ramp(19), 0.5).is_err());
        assert!(percentile(&ramp(0), 0.5).is_err());
    }

    #[test]
    fn ladder_picks_the_highest_supported_percentile() {
        assert_eq!(highest_supported(5), "none");
        assert_eq!(highest_supported(100), "p90");
        assert_eq!(highest_supported(1_000), "p99");
        assert_eq!(highest_supported(10_000), "p99.9");
    }

    #[test]
    fn median_of_groups_takes_each_groups_percentile() {
        // Three groups of 1 000; a stall lifts the second one's tail past
        // its p99, and past the pooled p99 too.
        let mut samples: Vec<f64> = (0..3_000).map(|i| (i % 1_000) as f64).collect();
        for s in &mut samples[1_960..2_000] {
            *s = 1e6;
        }
        let starts = [0, 1_000, 2_000];
        assert_eq!(median_of_groups(&samples, &starts, 0.99), Ok(989.0));
        assert_eq!(percentile(&sorted(&samples), 0.99), Ok(1e6));
        // No starts: one group, the plain percentile.
        assert_eq!(median_of_groups(&ramp(1_500), &[], 0.99), Ok(1_485.0));
        // A group too small for the percentile refuses the whole.
        assert!(median_of_groups(&ramp(2_500), &[0, 1_600], 0.99).is_err());
    }

    #[test]
    fn slices_fill_each_part_and_skip_empty_ones() {
        // Samples before the first boundary are a part; parts of 2 500
        // and 1 500 samples give two slices and one; the empty part none.
        assert_eq!(
            slice_starts(&[300, 2_800, 2_800], 4_300, 1_000),
            vec![0, 300, 1_550, 2_800]
        );
        assert_eq!(slice_starts(&[0], 3_000, 1_000), vec![0, 1_000, 2_000]);
        // A huge slice keeps one group per non-empty part.
        assert_eq!(slice_starts(&[0, 0, 10], 20, usize::MAX), vec![0, 10]);
        assert!(slice_starts(&[], 0, 1_000).is_empty());
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }
}
