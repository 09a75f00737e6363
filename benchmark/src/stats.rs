//! The arithmetic the reported numbers rest on: exact percentiles,
//! quartiles, the unavailability-gap scan, span self-time and the
//! determinism digest. Everything here is pure and unit-tested.

/// Index of the nearest-rank `q`-quantile (0 < q ≤ 1) in a sorted slice of
/// `n` samples: the smallest index with at least `q·n` samples at or
/// below it.
pub fn rank_index(n: usize, q: f64) -> usize {
    debug_assert!(n > 0 && q > 0.0 && q <= 1.0);
    ((q * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// How many samples lie strictly beyond the picked `q`-quantile. A
/// percentile is only reported as resolved with at least ten.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - 1 - rank_index(n, q)
    }
}

/// Exact nearest-rank quantile of an ascending slice; `None` when empty.
pub fn quantile_sorted(sorted: &[u64], q: f64) -> Option<u64> {
    if sorted.is_empty() {
        None
    } else {
        Some(sorted[rank_index(sorted.len(), q)])
    }
}

/// Sorts `values` and returns the exact `q`-quantile.
pub fn quantile(values: &mut [u64], q: f64) -> Option<u64> {
    values.sort_unstable();
    quantile_sorted(values, q)
}

/// Five-number summary of the host-clock reps of one metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the exclusive method, which extrapolates for two samples), so the
/// spread printed here is the spread the acceptance check computes. With
/// one sample all five numbers coincide.
pub fn spread(values: &[f64]) -> Option<Spread> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |i: usize| -> f64 {
        if n == 1 {
            return v[0];
        }
        // Python: j = i*(n+1) // 4 clamped to [1, n-1], delta = i*(n+1) - 4j,
        // result = (data[j-1]*(4-delta) + data[j]*delta) / 4.
        let m = i * (n + 1);
        let j = (m / 4).clamp(1, n - 1);
        let delta = m as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some(Spread {
        n,
        min: v[0],
        q1: at(1),
        median: at(2),
        q3: at(3),
    })
}

/// Median of the values (`0.0` when empty).
pub fn median(values: &[f64]) -> f64 {
    spread(values).map_or(0.0, |s| s.median)
}

/// Gaps of `[start, end]` between successive entries of the ascending
/// `completions` that fall inside it, both edges included.
fn gaps(start: u64, end: u64, completions: &[u64]) -> Vec<u64> {
    let mut prev = start;
    let mut out = Vec::new();
    for &t in completions.iter().filter(|t| (start..=end).contains(*t)) {
        out.push(t - prev);
        prev = t;
    }
    out.push(end.saturating_sub(prev));
    out
}

/// Mean gap length over the worst `tail` share of the instants in
/// `[start, end]`, each instant weighted equally: how long a user arriving
/// at one of the worst moments finds that nothing has succeeded between
/// the completion before and the one after. `tail → 0` is the longest gap.
///
/// An outage longer than `tail` of the window is reported in full (every
/// one of the worst instants lies inside it). In steady state the value
/// averages the few dozen longest gaps instead of picking the single
/// longest, which is an extreme-value statistic that swings by tens of
/// percent from seed to seed; and being a mean of microsecond counts it is
/// not pinned to the clock's resolution.
pub fn worst_gap_mean(start: u64, end: u64, completions: &[u64], tail: f64) -> f64 {
    let mut g = gaps(start, end, completions);
    g.sort_unstable_by(|a, b| b.cmp(a));
    let total: u64 = g.iter().sum();
    let budget = tail * total as f64;
    if budget <= 0.0 {
        return g.first().copied().unwrap_or(0) as f64;
    }
    let mut left = budget;
    let mut weighted = 0.0;
    for len in g {
        let take = (len as f64).min(left);
        weighted += take * len as f64;
        left -= take;
        if left <= 0.0 {
            break;
        }
    }
    weighted / budget
}

/// Self time of a span: its duration minus the part of its interval that
/// its children cover. Overlapping children count once; children are
/// clipped to the parent.
pub fn self_time(start: u64, end: u64, children: &mut [(u64, u64)]) -> u64 {
    children.sort_unstable();
    let mut covered = 0;
    let mut cursor = start;
    for &(cs, ce) in children.iter() {
        let cs = cs.max(cursor);
        let ce = ce.min(end);
        if ce > cs {
            covered += ce - cs;
            cursor = ce;
        }
    }
    (end - start).saturating_sub(covered)
}

/// FNV-1a digest over named exact values. Two reps of one seed must give
/// the same digest; two commits with the same digest simulated the same
/// thing.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds one named value in (by bit pattern, so `-0.0 != 0.0`).
    pub fn add(&mut self, name: &str, value: f64) {
        self.bytes(name.as_bytes());
        self.bytes(&[0xff]);
        self.bytes(&value.to_bits().to_le_bytes());
    }

    /// The digest as 16 hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_exact_samples() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile_sorted(&v, 0.5), Some(50));
        assert_eq!(quantile_sorted(&v, 0.99), Some(99));
        assert_eq!(quantile_sorted(&v, 1.0), Some(100));
        assert_eq!(quantile_sorted(&[7], 0.99), Some(7));
        assert_eq!(quantile_sorted(&[], 0.5), None);
        let mut unsorted = vec![5, 1, 9, 3];
        assert_eq!(quantile(&mut unsorted, 0.5), Some(3));
    }

    #[test]
    fn p99_needs_a_thousand_samples_for_ten_beyond() {
        assert_eq!(samples_beyond(100, 0.99), 1);
        assert_eq!(samples_beyond(999, 0.99), 9);
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert_eq!(samples_beyond(1100, 0.99), 11);
        assert_eq!(samples_beyond(0, 0.99), 0);
        // The sample at the rank is not "beyond" itself.
        assert_eq!(samples_beyond(10, 0.5), 5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = spread(&v).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = spread(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.min, s.q1, s.median, s.q3), (1.0, 1.0, 2.0, 3.0));
        let one = spread(&[4.0]).unwrap();
        assert_eq!((one.q1, one.median, one.q3, one.n), (4.0, 4.0, 4.0, 1));
        assert!(spread(&[]).is_none());
    }

    #[test]
    fn gap_scan_includes_both_edges_and_ignores_outsiders() {
        let longest = |s, e, c: &[u64]| worst_gap_mean(s, e, c, 0.0);
        assert_eq!(longest(100, 200, &[]), 100.0);
        assert_eq!(longest(100, 200, &[110, 120, 190]), 70.0);
        assert_eq!(longest(100, 200, &[150, 160]), 50.0);
        assert_eq!(longest(100, 200, &[101, 102, 103]), 97.0);
        // Completions outside the window neither open nor close a gap.
        assert_eq!(longest(100, 200, &[50, 150, 250]), 50.0);
    }

    #[test]
    fn worst_gap_mean_weights_gaps_by_the_instants_they_cover() {
        // Window of 1000: ninety gaps of 10 (900 in all) and one of 100.
        let mut c: Vec<u64> = (1..=90).map(|i| i * 10).collect();
        c.push(1000);
        // The worst 5 % and the worst 10 % of instants all sit in the outage.
        assert_eq!(worst_gap_mean(0, 1000, &c, 0.05), 100.0);
        assert_eq!(worst_gap_mean(0, 1000, &c, 0.10), 100.0);
        // The worst 20 %: half in the outage, half in gaps of 10.
        assert_eq!(worst_gap_mean(0, 1000, &c, 0.20), 55.0);
        // Everything: each gap weighted by its own length.
        assert_eq!(
            worst_gap_mean(0, 1000, &c, 1.0),
            (100.0 * 100.0 + 900.0 * 10.0) / 1000.0
        );
        // Not pinned to whole microseconds.
        assert_eq!(
            worst_gap_mean(0, 30, &[10, 17], 0.5),
            (13.0 * 13.0 + 2.0 * 10.0) / 15.0
        );
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        // Parent [0,100]; children [10,40] and [30,60] overlap on [30,40].
        assert_eq!(self_time(0, 100, &mut [(30, 60), (10, 40)]), 50);
        // A child sticking out past the parent is clipped.
        assert_eq!(self_time(0, 100, &mut [(90, 150)]), 90);
        // A nested child adds nothing to its sibling's cover.
        assert_eq!(self_time(0, 100, &mut [(10, 60), (20, 30)]), 50);
        assert_eq!(self_time(0, 100, &mut []), 100);
        // Full cover leaves no self time.
        assert_eq!(self_time(5, 10, &mut [(0, 20)]), 0);
    }

    #[test]
    fn digest_is_stable_and_order_sensitive() {
        let mut a = Digest::default();
        a.add("x", 1.0);
        a.add("y", 2.0);
        let mut b = Digest::default();
        b.add("x", 1.0);
        b.add("y", 2.0);
        assert_eq!(a.hex(), b.hex());
        // Pinned: the digest must not change between builds or platforms.
        assert_eq!(a.hex(), "eac480a4bcf7f7c1");
        let mut c = Digest::default();
        c.add("y", 2.0);
        c.add("x", 1.0);
        assert_ne!(a.hex(), c.hex());
        let mut d = Digest::default();
        d.add("x", 1.0);
        d.add("y", 2.000_000_000_000_000_4);
        assert_ne!(a.hex(), d.hex());
    }
}
