//! Exact statistics over raw samples: nearest-rank quantiles, the quartile
//! rule the benchmark driver uses, median-of-windows, and interval-union
//! self time. Nothing here estimates: a percentile the sample cannot
//! support is reported as insufficient, never extrapolated.

/// Samples that must lie beyond a tail percentile before it is reported
/// (choosing-metrics §1).
pub const TAIL_MIN_BEYOND: usize = 10;

/// Sorts a copy ascending. Panics on NaN, which no timing can produce.
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples must not be NaN"));
    v
}

/// Nearest-rank quantile of an ascending slice: the smallest sample such
/// that at least `q` of the data is ≤ it. `None` for an empty slice.
pub fn nearest_rank(sorted: &[f64], q: f64) -> Option<f64> {
    assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank_of(q, sorted.len()) - 1])
}

/// 1-based nearest rank of quantile `q` among `n ≥ 1` samples. The small
/// slack keeps products such as `0.99 × 1000` from rounding up a rank.
fn rank_of(q: f64, n: usize) -> usize {
    ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Median as the mean of the two middle samples for an even count (the
/// definition Python's `statistics.median` uses). `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    let v = sorted(samples);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// A tail percentile, or the reason it cannot be stated.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Tail {
    Value(f64),
    /// Fewer than [`TAIL_MIN_BEYOND`] samples lie beyond the percentile.
    Insufficient {
        have: usize,
        need: usize,
    },
}

/// Nearest-rank `q` quantile, reported only when at least
/// [`TAIL_MIN_BEYOND`] samples lie strictly beyond its rank.
pub fn tail(samples: &[f64], q: f64) -> Tail {
    let v = sorted(samples);
    let n = v.len();
    let need = (TAIL_MIN_BEYOND as f64 / (1.0 - q) - 1e-9).ceil() as usize;
    if n == 0 || n - rank_of(q, n) < TAIL_MIN_BEYOND {
        return Tail::Insufficient { have: n, need };
    }
    Tail::Value(v[rank_of(q, n) - 1])
}

/// Median, quartiles and count of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Summary {
    /// Inter-quartile range as a share of the median — the spread the
    /// driver holds against a metric's bound.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            return 0.0;
        }
        (self.q3 - self.q1) / self.median.abs()
    }
}

/// Median and quartiles as Python's `statistics.quantiles(v, n=4)` gives
/// them (the "exclusive" method), so spreads computed here equal the
/// driver's. One sample yields q1 = q3 = median; `None` when empty.
pub fn summarize(samples: &[f64]) -> Option<Summary> {
    let v = sorted(samples);
    let m = v.len();
    if m == 0 {
        return None;
    }
    let med = median(&v)?;
    if m == 1 {
        return Some(Summary {
            n: 1,
            median: med,
            q1: med,
            q3: med,
        });
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some(Summary {
        n: m,
        median: med,
        q1: cut(1),
        q3: cut(3),
    })
}

/// The `q` quantile of each window by [`tail`]'s rule, then the median
/// across windows. One window too small for `q` makes the whole figure
/// insufficient, as does having no window at all.
pub fn median_of_windows(windows: &[Vec<f64>], q: f64) -> Tail {
    let mut per_window = Vec::with_capacity(windows.len());
    for w in windows {
        match tail(w, q) {
            Tail::Value(v) => per_window.push(v),
            insufficient => return insufficient,
        }
    }
    match median(&per_window) {
        Some(m) => Tail::Value(m),
        None => Tail::Insufficient { have: 0, need: 1 },
    }
}

/// Total length covered by a set of half-open intervals, overlaps counted
/// once.
pub fn union_len(intervals: &[(u64, u64)]) -> u64 {
    let mut v: Vec<(u64, u64)> = intervals.iter().copied().filter(|(s, e)| e > s).collect();
    v.sort_unstable();
    let mut total = 0;
    let mut cursor = 0u64;
    for (s, e) in v {
        let s = s.max(cursor);
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// A span's self time: its duration minus the part of it its children
/// cover. Children are clipped to the span, and overlapping children
/// (parallel work) are not subtracted twice.
pub fn self_time(span: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (s, e) = span;
    let clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(cs, ce)| (cs.max(s), ce.min(e)))
        .collect();
    (e - s).saturating_sub(union_len(&clipped))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_known_answers() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 0.5), Some(5.0));
        assert_eq!(nearest_rank(&v, 0.9), Some(9.0));
        assert_eq!(nearest_rank(&v, 0.91), Some(10.0));
        assert_eq!(nearest_rank(&v, 0.0), Some(1.0));
        assert_eq!(nearest_rank(&v, 1.0), Some(10.0));
        assert_eq!(nearest_rank(&[], 0.5), None);
        // Always an observed sample, never an interpolation.
        assert_eq!(nearest_rank(&[1.0, 100.0], 0.5), Some(1.0));
    }

    #[test]
    fn median_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let few: Vec<f64> = (0..999).map(f64::from).collect();
        assert_eq!(
            tail(&few, 0.99),
            Tail::Insufficient {
                have: 999,
                need: 1000
            }
        );
        let enough: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&enough, 0.99), Tail::Value(990.0));
        assert_eq!(
            tail(&[], 0.99),
            Tail::Insufficient {
                have: 0,
                need: 1000
            }
        );
        // The median of 20 samples has ten beyond it; of 19 it does not.
        let v20: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&v20, 0.5), Tail::Value(10.0));
        assert_eq!(
            tail(&v20[..19], 0.5),
            Tail::Insufficient { have: 19, need: 20 }
        );
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert!((s.spread() - 1.0).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let s = summarize(&[16.0, 1.0, 4.0, 2.0, 8.0]).unwrap();
        assert_eq!((s.n, s.q1, s.median, s.q3), (5, 1.5, 4.0, 12.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = summarize(&[1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
        let one = summarize(&[7.0]).unwrap();
        assert_eq!((one.q1, one.median, one.q3), (7.0, 7.0, 7.0));
        assert!(summarize(&[]).is_none());
    }

    #[test]
    fn windows_take_the_median_of_per_window_quantiles() {
        let window = |offset: f64| {
            (1..=40)
                .map(|i| offset + f64::from(i))
                .collect::<Vec<f64>>()
        };
        let windows = vec![window(0.0), window(100.0), window(10.0)];
        // Per-window medians are 20, 120 and 30.
        assert_eq!(median_of_windows(&windows, 0.5), Tail::Value(30.0));
        // A 40-sample window cannot state a p99, so neither can the run.
        assert_eq!(
            median_of_windows(&windows, 0.99),
            Tail::Insufficient {
                have: 40,
                need: 1000
            }
        );
        assert!(matches!(
            median_of_windows(&[], 0.5),
            Tail::Insufficient { .. }
        ));
    }

    #[test]
    fn union_counts_overlap_once() {
        assert_eq!(union_len(&[]), 0);
        assert_eq!(union_len(&[(0, 10), (5, 15)]), 15);
        assert_eq!(union_len(&[(0, 10), (2, 3), (20, 25)]), 15);
        assert_eq!(union_len(&[(5, 5), (7, 6)]), 0);
    }

    #[test]
    fn self_time_with_nested_and_overlapping_children() {
        // Sequential children.
        assert_eq!(self_time((0, 100), &[(10, 30), (40, 60)]), 60);
        // Overlapping children (two threads) are subtracted once.
        assert_eq!(self_time((0, 100), &[(10, 50), (30, 70)]), 40);
        // A grandchild inside a child changes nothing for the parent.
        assert_eq!(self_time((0, 100), &[(10, 50), (20, 30)]), 60);
        // Children reaching outside the span are clipped to it.
        assert_eq!(self_time((10, 20), &[(0, 12), (18, 40)]), 6);
        // Fully covered.
        assert_eq!(self_time((0, 10), &[(0, 10)]), 0);
    }
}
