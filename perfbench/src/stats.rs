//! Order statistics and the accounting arithmetic the benchmark reports.

/// Samples that must lie beyond a reported percentile. A percentile
/// with fewer is noise from a handful of requests, so it is refused.
pub const MIN_BEYOND: usize = 10;

/// The median of `values` (mean of the middle pair for even counts);
/// `None` for no values.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    Some(if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    })
}

/// The nearest-rank `q`-quantile of `values` (0 < q < 1); `None` for
/// no values.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    assert!(q > 0.0 && q < 1.0, "quantile {q} outside (0, 1)");
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(sorted.len(), q) - 1])
}

/// 1-based nearest rank: the smallest rank covering a share `q` of `n`.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).max(1)
}

/// The rate a run reports for repeated identical work: the mean of its
/// fastest quarter of passes (rates at or above the upper quartile).
/// Interference from other tenants of the host only ever slows a pass,
/// in phases lasting seconds, so the fast end of the passes tracks the
/// pipeline's own cost; the median moves with whichever phases a run
/// happened to land in. Averaging the quarter, not taking one order
/// statistic, keeps one lucky pass from setting the figure.
pub fn steady_rate(rates: &[f64]) -> Option<f64> {
    let cut = quantile(rates, 0.75)?;
    let fast: Vec<f64> = rates.iter().copied().filter(|&r| r >= cut).collect();
    Some(fast.iter().sum::<f64>() / fast.len() as f64)
}

/// The time a run reports for a repeated set-up: the fastest of its
/// repetitions, for the reason [`steady_rate`] gives.
pub fn steady_time(times: &[f64]) -> Option<f64> {
    times.iter().copied().min_by(f64::total_cmp)
}

/// Latency samples in log-linear buckets: exact below 256 ns, then 128
/// buckets per octave (under 0.8% relative width), so memory stays fixed
/// however many requests a run makes.
#[derive(Debug, Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
}

const EXACT: u64 = 256;
const SUB_BITS: u32 = 7;
const BUCKETS: usize = EXACT as usize + (64 - 8) * (1 << SUB_BITS);

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: vec![0; BUCKETS],
            total: 0,
        }
    }
}

impl Histogram {
    fn index(ns: u64) -> usize {
        if ns < EXACT {
            return ns as usize;
        }
        let octave = 63 - ns.leading_zeros(); // >= 8
        let top = ns >> (octave - SUB_BITS); // in [128, 256)
        EXACT as usize + ((octave - 8) << SUB_BITS) as usize + (top as usize - (1 << SUB_BITS))
    }

    /// The smallest value bucket `index` holds.
    fn lower_bound(index: usize) -> u64 {
        if index < EXACT as usize {
            return index as u64;
        }
        let i = index - EXACT as usize;
        let octave = (i >> SUB_BITS) as u32 + 8;
        let top = (i & ((1 << SUB_BITS) - 1)) as u64 + (1 << SUB_BITS);
        top << (octave - SUB_BITS)
    }

    pub fn record(&mut self, ns: u64) {
        self.counts[Histogram::index(ns)] += 1;
        self.total += 1;
    }

    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    pub fn len(&self) -> u64 {
        self.total
    }

    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// The nearest-rank `q`-quantile in nanoseconds (the lower bound of
    /// its bucket), or `None` when fewer than [`MIN_BEYOND`] samples lie
    /// above its rank.
    pub fn percentile(&self, q: f64) -> Option<u64> {
        assert!(q > 0.0 && q < 1.0, "quantile {q} outside (0, 1)");
        let n = self.total as usize;
        let rank = rank(n, q);
        if n < rank + MIN_BEYOND {
            return None;
        }
        let mut seen = 0u64;
        for (index, &count) in self.counts.iter().enumerate() {
            seen += count;
            if seen >= rank as u64 {
                return Some(Histogram::lower_bound(index));
            }
        }
        unreachable!("rank {rank} is within the {n} samples")
    }
}

/// The part of `total` that none of `parts` accounts for. It is
/// negative when the parts, timed separately, cost more than the whole.
pub fn unattributed(total: f64, parts: &[f64]) -> f64 {
    total - parts.iter().sum::<f64>()
}

/// `part / whole`, or 0 when there is no whole to share.
pub fn share(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_its_rank() {
        // p95 of n samples has n - ceil(0.95 n) beyond it: 200 is the
        // smallest n with ten.
        let mut h = Histogram::default();
        for v in 1..=199 {
            h.record(v);
        }
        assert_eq!(h.percentile(0.95), None);
        h.record(200);
        assert_eq!(h.percentile(0.95), Some(190));
        // p50 needs twenty.
        let mut h = Histogram::default();
        (1..=19).for_each(|v| h.record(v));
        assert_eq!(h.percentile(0.5), None);
        h.record(20);
        assert_eq!(h.percentile(0.5), Some(10));
    }

    #[test]
    fn histogram_percentiles_are_within_a_bucket_of_exact() {
        let values: Vec<u64> = (0..5000u64).map(|i| 300 + i * i * 37 % 1_000_003).collect();
        let mut h = Histogram::default();
        values.iter().for_each(|&v| h.record(v));
        let exact: Vec<f64> = values.iter().map(|&v| v as f64).collect();
        for q in [0.5, 0.9, 0.95, 0.99] {
            let want = quantile(&exact, q).unwrap();
            let got = h.percentile(q).unwrap() as f64;
            assert!(
                got <= want && want < got * (1.0 + 1.0 / 128.0) + 1.0,
                "q {q}: {got} vs {want}"
            );
        }
        for v in [0, 255, 256, 257, 1 << 20, u64::MAX / 3] {
            let i = Histogram::index(v);
            assert!(
                Histogram::lower_bound(i) <= v && v < Histogram::lower_bound(i + 1),
                "{v}"
            );
        }
    }

    #[test]
    fn steady_estimates_take_the_fast_end() {
        let rates: Vec<f64> = (1..=20).map(f64::from).collect();
        // The upper quartile is 15: the mean of 15..=20.
        assert_eq!(steady_rate(&rates), Some(17.5));
        assert_eq!(steady_rate(&[3.0]), Some(3.0));
        assert_eq!(steady_time(&[0.5, 0.3, 0.9]), Some(0.3));
        assert_eq!(steady_rate(&[]), None);
        assert_eq!(quantile(&[4.0, 1.0, 3.0, 2.0], 0.5), Some(2.0));
    }

    #[test]
    fn unattributed_is_what_the_parts_leave() {
        assert_eq!(unattributed(10.0, &[2.0, 3.0, 1.5]), 3.5);
        assert_eq!(unattributed(4.0, &[]), 4.0);
        assert!(unattributed(1.0, &[0.75, 0.5]) < 0.0);
        assert_eq!(share(1.0, 4.0), 0.25);
        assert_eq!(share(1.0, 0.0), 0.0);
    }
}
