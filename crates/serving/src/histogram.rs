//! A bounded, lock-free latency histogram.
//!
//! [`LatencyHistogram`] is log-linear (HDR-style): values below 2⁸ ns get
//! a bucket each, and each higher power-of-two range splits into 2⁷ equal
//! buckets, so no bucket is wider than 2⁻⁷ of its lower edge. [`BUCKETS`]
//! counters (58 KiB) cover all of `u64` nanoseconds and never grow. Count,
//! sum and max are exact. Every field is an atomic, so threads record
//! through a shared `&LatencyHistogram` without a lock; all accesses are
//! `Relaxed`, since the fields are statistics that publish no other data.

use crate::protocol::LatencySummary;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Duration;

/// Each power-of-two range above the exact ones splits into `2^7` buckets.
const PRECISION_BITS: u32 = 7;

/// `2^(P+1)` exact buckets, then `2^P` for each of the `63 - P` higher octaves.
const BUCKETS: usize = (64 - PRECISION_BITS as usize + 1) << PRECISION_BITS;

/// A latency histogram of fixed size that threads share by reference.
pub(crate) struct LatencyHistogram {
    count: AtomicU64,
    /// Sum of recorded nanoseconds (wraps after ~584 years of latency).
    sum_ns: AtomicU64,
    max_ns: AtomicU64,
    buckets: Box<[AtomicU64]>,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
        }
    }
}

/// The bucket holding `ns`.
fn bucket_of(ns: u64) -> usize {
    let shift = (63 - (ns | 1).leading_zeros()).saturating_sub(PRECISION_BITS);
    ((shift as usize) << PRECISION_BITS) + (ns >> shift) as usize
}

/// The largest value bucket `i` holds.
fn upper_edge(i: usize) -> u64 {
    let shift = (i >> PRECISION_BITS).saturating_sub(1);
    let lower = ((i - (shift << PRECISION_BITS)) as u64) << shift;
    lower + ((1u64 << shift) - 1)
}

impl LatencyHistogram {
    /// Records one latency, in whole nanoseconds (saturating at `u64::MAX`).
    pub(crate) fn record(&self, latency: Duration) {
        let ns = u64::try_from(latency.as_nanos()).unwrap_or(u64::MAX);
        self.buckets[bucket_of(ns)].fetch_add(1, Relaxed);
        self.sum_ns.fetch_add(ns, Relaxed);
        self.max_ns.fetch_max(ns, Relaxed);
        self.count.fetch_add(1, Relaxed);
    }

    /// Mean recorded latency in milliseconds; `None` before the first.
    pub(crate) fn mean_ms(&self) -> Option<f64> {
        let n = self.count.load(Relaxed);
        (n > 0).then(|| self.sum_ns.load(Relaxed) as f64 / 1e6 / n as f64)
    }

    /// Nearest-rank `q`-quantile in nanoseconds (0 when empty): the upper
    /// edge of the bucket holding the `⌈q · n⌉`-th smallest sample, clamped
    /// to the max. It is never below the exact nearest-rank value and at
    /// most 2⁻⁷ of it above. O([`BUCKETS`]), whatever the count.
    fn quantile_ns(&self, q: f64) -> u64 {
        let max = self.max_ns.load(Relaxed);
        // Ranks come from the buckets themselves, so a record racing this
        // read cannot push the rank past the buckets' total.
        let n: u64 = self.buckets.iter().map(|b| b.load(Relaxed)).sum();
        let rank = ((q * n as f64).ceil() as u64).clamp(1, n.max(1));
        let mut seen = 0;
        let bucket = self.buckets.iter().position(|b| {
            seen += b.load(Relaxed);
            seen >= rank
        });
        bucket.map_or(max, |i| upper_edge(i).min(max))
    }

    /// Count, median, 99th percentile and max, in milliseconds.
    pub(crate) fn summary(&self) -> LatencySummary {
        let ms = |ns: u64| ns as f64 / 1e6;
        LatencySummary {
            count: self.count.load(Relaxed),
            p50_ms: ms(self.quantile_ns(0.50)),
            p99_ms: ms(self.quantile_ns(0.99)),
            max_ms: ms(self.max_ns.load(Relaxed)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The reference rule: nearest-rank percentile of an ascending slice,
    /// the smallest value with at least `q · n` values at or below it.
    fn percentile(sorted: &[u64], q: f64) -> u64 {
        let rank = (q * sorted.len() as f64).ceil() as usize;
        sorted[rank.clamp(1, sorted.len()) - 1]
    }

    #[test]
    fn reference_percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&v, 0.50), 50);
        assert_eq!(percentile(&v, 0.90), 90);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&[1, 2, 3], 0.5), 2);
        assert_eq!(percentile(&[7], 0.99), 7);
    }

    #[test]
    fn buckets_tile_the_whole_range_in_order() {
        assert!(BUCKETS * std::mem::size_of::<AtomicU64>() <= 64 * 1024);
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
        assert_eq!(upper_edge(BUCKETS - 1), u64::MAX);
        for i in 0..BUCKETS - 1 {
            // each bucket starts one past the previous one's upper edge
            assert_eq!(bucket_of(upper_edge(i)), i);
            assert_eq!(bucket_of(upper_edge(i) + 1), i + 1);
        }
    }

    #[test]
    fn an_empty_histogram_summarises_to_zero() {
        let h = LatencyHistogram::default();
        assert_eq!(h.mean_ms(), None);
        assert_eq!(
            h.summary(),
            LatencySummary {
                count: 0,
                p50_ms: 0.0,
                p99_ms: 0.0,
                max_ms: 0.0,
            }
        );
    }

    /// A latency in nanoseconds from each regime the daemon can see:
    /// zero, under a microsecond, ordinary, and over a minute.
    fn sample() -> impl Strategy<Value = u64> {
        (0u8..4, any::<u64>()).prop_map(|(regime, r)| match regime {
            0 => 0,
            1 => r % 1_000,
            2 => 1_000 + r % 10_000_000_000,
            _ => 60_000_000_001 + r % 100_000_000_000_000,
        })
    }

    /// Samples, half the time with heavy duplicates: a few distinct
    /// values, each repeated.
    fn samples() -> impl Strategy<Value = Vec<u64>> {
        let draw = (
            any::<bool>(),
            prop::collection::vec(sample(), 1..400),
            1usize..300,
        );
        draw.prop_map(|(duplicated, vals, reps)| {
            if !duplicated {
                return vals;
            }
            vals.iter()
                .take(3)
                .flat_map(|&v| std::iter::repeat_n(v, reps))
                .collect()
        })
    }

    proptest! {
        #[test]
        fn percentiles_are_within_the_precision_of_nearest_rank(samples in samples()) {
            let h = LatencyHistogram::default();
            let size = h.buckets.len();
            for &ns in &samples {
                h.record(Duration::from_nanos(ns));
            }
            prop_assert_eq!(h.buckets.len(), size, "the record never grows");
            let mut sorted = samples.clone();
            sorted.sort_unstable();
            let max = *sorted.last().unwrap();
            prop_assert_eq!(h.count.load(Relaxed), samples.len() as u64);
            prop_assert_eq!(h.sum_ns.load(Relaxed), samples.iter().sum::<u64>());
            prop_assert_eq!(h.max_ns.load(Relaxed), max);
            for q in [0.5, 0.99] {
                let exact = percentile(&sorted, q);
                let got = h.quantile_ns(q);
                prop_assert!(exact <= got, "q {}: {} below exact {}", q, got, exact);
                prop_assert!(
                    got as f64 <= exact as f64 * (1.0 + 1.0 / 128.0) + 1.0,
                    "q {}: {} beyond the precision of exact {}", q, got, exact
                );
                prop_assert!(got <= max);
            }
            let s = h.summary();
            prop_assert_eq!(s.count, samples.len() as u64);
            prop_assert!(s.p50_ms <= s.p99_ms && s.p99_ms <= s.max_ms);
        }
    }

    #[test]
    fn threads_record_through_a_shared_reference() {
        let h = LatencyHistogram::default();
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let h = &h;
                s.spawn(move || {
                    for i in 0..1_000 {
                        h.record(Duration::from_micros(t * 1_000 + i));
                    }
                });
            }
        });
        assert_eq!(h.count.load(Relaxed), 4_000);
        assert_eq!(h.max_ns.load(Relaxed), 3_999_000);
        let total: u64 = h.buckets.iter().map(|b| b.load(Relaxed)).sum();
        assert_eq!(total, 4_000);
    }
}
