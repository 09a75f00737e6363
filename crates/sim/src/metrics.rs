//! Experiment metrics: counters, gauges, log-scale histograms, and raw
//! sample series.
//!
//! Per-event distributions (latencies, queue waits) go into a [`Hist`]:
//! bounded memory however long the run. A raw series keeps one [`Sample`]
//! per observation for as long as the `Sim` lives, so it is for what a
//! figure plots over time (throughput timelines, per-client grant
//! timelines) — record one only where something reads it back.
//!
//! A counter is bumped for every message the scheduler sends, so a counter
//! is a slot (DESIGN §32). The process numbers each counter name once, in
//! one registry, and each [`counter!`] call site caches its name's number:
//! after the first bump, a bump indexes a vector. [`Metrics::incr`] takes a
//! name built at run time and finds its slot with one hash probe. Gauges,
//! series and histograms are rarer and stay keyed by name ([`IdMap`]).
//! Slot numbers follow the process's first-use order, not the run's, so
//! every reader that lists metrics sorts them by name.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

use crate::{IdMap, SimTime};

/// The [`CounterName`] of a literal name, held in a `static` at the call
/// site, so the name is resolved to its slot once per site:
///
/// ```
/// use mala_sim::{counter, Metrics};
///
/// let mut m = Metrics::new();
/// m.bump(counter!("osd.ops"), 1);
/// assert_eq!(m.counter("osd.ops"), 1);
/// ```
#[macro_export]
macro_rules! counter {
    ($name:literal) => {{
        static NAME: $crate::metrics::CounterName = $crate::metrics::CounterName::new($name);
        &NAME
    }};
}

/// Marks a [`CounterName`] whose slot has not been looked up yet.
const UNRESOLVED: u32 = u32::MAX;

/// A counter's name and, once it has been used, its slot. Build one with
/// [`counter!`].
#[derive(Debug)]
pub struct CounterName {
    name: &'static str,
    slot: AtomicU32,
}

impl CounterName {
    /// A name whose slot is looked up on its first bump.
    pub const fn new(name: &'static str) -> CounterName {
        CounterName {
            name,
            slot: AtomicU32::new(UNRESOLVED),
        }
    }

    /// The Acquire load pairs with `resolve`'s Release store: a thread that
    /// sees a slot also sees the registry entry that numbered it.
    #[inline]
    fn slot(&self) -> usize {
        match self.slot.load(Ordering::Acquire) {
            UNRESOLVED => self.resolve(),
            slot => slot as usize,
        }
    }

    #[cold]
    fn resolve(&self) -> usize {
        let (_, slot) = intern(self.name, || self.name);
        self.slot.store(slot, Ordering::Release);
        slot as usize
    }
}

/// The process's counter names, numbered in the order they were first used.
#[derive(Default)]
struct Registry {
    slots: IdMap<&'static str, u32>,
    names: Vec<&'static str>,
}

fn registry() -> MutexGuard<'static, Registry> {
    static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
    REGISTRY
        .get_or_init(Mutex::default)
        .lock()
        .expect("a thread panicked while it held the counter registry")
}

/// `name`'s slot, numbering it if the process has not seen it. `keep`
/// gives the registry a name of its own; it runs once per name.
fn intern(name: &str, keep: impl FnOnce() -> &'static str) -> (&'static str, u32) {
    let mut registry = registry();
    if let Some((&kept, &slot)) = registry.slots.get_key_value(name) {
        return (kept, slot);
    }
    let kept = keep();
    let slot = u32::try_from(registry.names.len())
        .ok()
        .filter(|&slot| slot != UNRESOLVED)
        .expect("more than u32::MAX - 1 counter names");
    registry.names.push(kept);
    registry.slots.insert(kept, slot);
    (kept, slot)
}

/// A single timestamped observation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Virtual time at which the observation was made.
    pub at: SimTime,
    /// The observed value (unit depends on the series).
    pub value: f64,
}

/// Metric sink shared by all actors in a simulation.
#[derive(Default, Clone)]
pub struct Metrics {
    /// Counter values by slot; `None` if this sink never bumped it.
    counts: Vec<Option<u64>>,
    /// Slots of the names [`Metrics::incr`] has been given.
    by_name: IdMap<&'static str, u32>,
    gauges: IdMap<Box<str>, f64>,
    series: IdMap<Box<str>, Vec<Sample>>,
    hists: IdMap<Box<str>, Hist>,
}

impl Metrics {
    /// Creates an empty sink.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Adds `delta` to the counter `name`, a [`counter!`]: the way to bump
    /// a counter whose name is a literal.
    #[inline]
    pub fn bump(&mut self, name: &CounterName, delta: u64) {
        self.add(name.slot(), delta);
    }

    /// Adds `delta` to the named counter, for a name built at run time:
    /// one hash probe once this sink has seen the name.
    pub fn incr(&mut self, name: &str, delta: u64) {
        let slot = match self.by_name.get(name) {
            Some(&slot) => slot,
            None => self.learn(name),
        };
        self.add(slot as usize, delta);
    }

    /// The first `incr` of `name` on this sink. A name the process has not
    /// seen is kept by leaking one copy, once per process: the program
    /// builds a few dozen.
    #[cold]
    fn learn(&mut self, name: &str) -> u32 {
        let (kept, slot) = intern(name, || Box::leak(name.into()));
        self.by_name.insert(kept, slot);
        slot
    }

    #[inline]
    fn add(&mut self, slot: usize, delta: u64) {
        match self.counts.get_mut(slot) {
            Some(count) => *count = Some(count.unwrap_or(0) + delta),
            None => self.grow(slot, delta),
        }
    }

    #[cold]
    fn grow(&mut self, slot: usize, delta: u64) {
        self.counts.resize(slot + 1, None);
        self.counts[slot] = Some(delta);
    }

    /// Reads a counter, zero if never written. Reading never numbers a
    /// name.
    pub fn counter(&self, name: &str) -> u64 {
        let slot = match self.by_name.get(name) {
            Some(&slot) => Some(slot),
            None => registry().slots.get(name).copied(),
        };
        slot.and_then(|slot| *self.counts.get(slot as usize)?)
            .unwrap_or(0)
    }

    /// Sets the named gauge to `value`.
    pub fn set_gauge(&mut self, name: &str, value: f64) {
        upsert(&mut self.gauges, name, |g| *g = value);
    }

    /// Reads a gauge, `None` if never set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Appends a timestamped sample to the named series.
    pub fn observe(&mut self, name: &str, at: SimTime, value: f64) {
        upsert(&mut self.series, name, |s| s.push(Sample { at, value }));
    }

    /// Returns the samples recorded under `name` (empty slice if none).
    pub fn series(&self, name: &str) -> &[Sample] {
        self.series.get(name).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Iterates over all counter `(name, value)` pairs, in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        let registry = registry();
        let mut entries: Vec<(&str, u64)> = self
            .counts
            .iter()
            .enumerate()
            .filter_map(|(slot, count)| Some((registry.names[slot], (*count)?)))
            .collect();
        entries.sort_unstable_by_key(|(name, _)| *name);
        entries.into_iter()
    }

    /// Folds `value` into the named log-scale histogram.
    pub fn observe_hist(&mut self, name: &str, value: f64) {
        upsert(&mut self.hists, name, |h| h.observe(value));
    }

    /// Merges another histogram into the named one (e.g. when aggregating
    /// per-phase histograms into a run total).
    pub fn merge_hist(&mut self, name: &str, other: &Hist) {
        upsert(&mut self.hists, name, |h| h.merge(other));
    }

    /// Reads the named histogram, `None` if never observed.
    pub fn hist(&self, name: &str) -> Option<&Hist> {
        self.hists.get(name)
    }

    /// Iterates over all `(name, histogram)` pairs, in name order.
    pub fn hists(&self) -> impl Iterator<Item = (&str, &Hist)> {
        by_name(&self.hists)
    }

    /// Drops every recorded metric. Used between experiment phases.
    pub fn clear(&mut self) {
        self.counts.clear();
        self.gauges.clear();
        self.series.clear();
        self.hists.clear();
    }
}

/// Every metric by name: slot order is the process's, not the run's.
impl fmt::Debug for Metrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Metrics")
            .field("counters", &self.counters().collect::<BTreeMap<_, _>>())
            .field("gauges", &by_name(&self.gauges).collect::<BTreeMap<_, _>>())
            .field("series", &by_name(&self.series).collect::<BTreeMap<_, _>>())
            .field("hists", &self.hists().collect::<BTreeMap<_, _>>())
            .finish()
    }
}

/// Applies `f` to the value under `name`, default-created on first use.
/// Names repeat on every event, so a hit looks up by `&str`; only the
/// first use of a name builds the owned key.
fn upsert<V: Default>(map: &mut IdMap<Box<str>, V>, name: &str, f: impl FnOnce(&mut V)) {
    match map.get_mut(name) {
        Some(v) => f(v),
        None => f(map.entry(name.into()).or_default()),
    }
}

/// `map`'s entries sorted by name: a hash map's order is fixed, not sorted.
fn by_name<V>(map: &IdMap<Box<str>, V>) -> impl Iterator<Item = (&str, &V)> {
    let mut entries: Vec<(&str, &V)> = map.iter().map(|(k, v)| (&**k, v)).collect();
    entries.sort_unstable_by_key(|(k, _)| *k);
    entries.into_iter()
}

/// Sub-buckets per power of two; 4 bounds the relative quantile error at
/// about 9% (half a bucket width of 2^(1/4)).
const HIST_SUB: u32 = 4;
/// Bucket count covering values from 1 up to 2^64.
const HIST_BUCKETS: usize = 64 * HIST_SUB as usize;

/// A mergeable log-scale histogram with bounded memory.
///
/// Bucket `i` covers `[2^(i/4), 2^((i+1)/4))`; values at or below 1 land in
/// bucket 0. Quantiles are read back as the geometric midpoint of the
/// holding bucket (clamped to the observed min/max), so they are exact to
/// within one bucket width regardless of sample count — unlike the raw
/// series, memory does not grow with observations and two histograms merge
/// by bucket-wise addition.
#[derive(Debug, Clone)]
pub struct Hist {
    buckets: Vec<u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for Hist {
    fn default() -> Hist {
        Hist {
            buckets: vec![0; HIST_BUCKETS],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }
}

impl Hist {
    /// Creates an empty histogram.
    pub fn new() -> Hist {
        Hist::default()
    }

    /// Builds a histogram from a slice of values in one shot.
    pub fn from_values(values: &[f64]) -> Hist {
        let mut h = Hist::new();
        for &v in values {
            h.observe(v);
        }
        h
    }

    fn bucket_index(value: f64) -> usize {
        if value <= 1.0 {
            return 0;
        }
        let idx = (value.log2() * f64::from(HIST_SUB)).floor() as usize;
        idx.min(HIST_BUCKETS - 1)
    }

    /// Folds one observation in. Non-finite values (NaN, ±inf) are ignored;
    /// negative values land in the lowest bucket.
    pub fn observe(&mut self, value: f64) {
        if !value.is_finite() {
            return;
        }
        self.buckets[Self::bucket_index(value)] += 1;
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Adds all of `other`'s observations to `self`.
    pub fn merge(&mut self, other: &Hist) {
        for (b, o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += o;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether nothing has been observed.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Arithmetic mean, `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }

    /// Smallest observed value, `None` when empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observed value, `None` when empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) by nearest rank over the buckets,
    /// `None` when empty. The answer is the geometric midpoint of the
    /// holding bucket, clamped into `[min, max]`.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        if q <= 0.0 {
            return Some(self.min);
        }
        if q >= 1.0 {
            return Some(self.max);
        }
        let rank = (q * (self.count - 1) as f64).round() as u64;
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if n > 0 && seen > rank {
                let lo = 2f64.powf(i as f64 / f64::from(HIST_SUB));
                let hi = 2f64.powf((i + 1) as f64 / f64::from(HIST_SUB));
                let mid = if i == 0 { lo } else { (lo * hi).sqrt() };
                return Some(mid.clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }
}

/// Summary statistics over the values of a sample slice.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean of the values.
    pub mean: f64,
    /// Minimum value.
    pub min: f64,
    /// Maximum value.
    pub max: f64,
    /// Population standard deviation.
    pub stddev: f64,
}

/// Computes summary statistics over `samples`, `None` when empty.
pub fn summarize(samples: &[Sample]) -> Option<Summary> {
    if samples.is_empty() {
        return None;
    }
    let n = samples.len() as f64;
    let mean = samples.iter().map(|s| s.value).sum::<f64>() / n;
    let var = samples
        .iter()
        .map(|s| (s.value - mean).powi(2))
        .sum::<f64>()
        / n;
    let min = samples
        .iter()
        .map(|s| s.value)
        .fold(f64::INFINITY, f64::min);
    let max = samples
        .iter()
        .map(|s| s.value)
        .fold(f64::NEG_INFINITY, f64::max);
    Some(Summary {
        count: samples.len(),
        mean,
        min,
        max,
        stddev: var.sqrt(),
    })
}

/// Returns the `q`-quantile (0 ≤ q ≤ 1) of the sample values by
/// nearest-rank on the sorted values, `None` when empty.
pub fn quantile(samples: &[Sample], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut values: Vec<f64> = samples.iter().map(|s| s.value).collect();
    values.sort_by(f64::total_cmp);
    let rank = ((q.clamp(0.0, 1.0)) * (values.len() - 1) as f64).round() as usize;
    Some(values[rank])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(at: u64, v: f64) -> Sample {
        Sample {
            at: SimTime(at),
            value: v,
        }
    }

    #[test]
    fn counters_accumulate() {
        let mut m = Metrics::new();
        m.bump(counter!("ops"), 2);
        m.bump(counter!("ops"), 3);
        assert_eq!(m.counter("ops"), 5);
        assert_eq!(m.counter("missing"), 0);
    }

    fn slot_of(name: &str) -> Option<u32> {
        registry().slots.get(name).copied()
    }

    #[test]
    fn a_name_is_one_counter_however_it_is_bumped() {
        let mut m = Metrics::new();
        m.bump(counter!("metrics.test.one_counter"), 1);
        m.bump(counter!("metrics.test.one_counter"), 10);
        m.incr("metrics.test.one_counter", 100);
        m.incr(&format!("metrics.test.{}", "one_counter"), 1000);
        assert_eq!(m.counter("metrics.test.one_counter"), 1111);
        let listed: Vec<_> = m.counters().collect();
        assert_eq!(listed, [("metrics.test.one_counter", 1111)]);
    }

    #[test]
    fn counters_list_in_name_order_whatever_the_slot_order() {
        let mut m = Metrics::new();
        m.bump(counter!("metrics.test.order_z"), 3);
        m.incr("metrics.test.order_m", 2);
        m.bump(counter!("metrics.test.order_a"), 0);
        let (z, a) = (
            slot_of("metrics.test.order_z"),
            slot_of("metrics.test.order_a"),
        );
        assert!(z < a, "the names were numbered in bump order");
        let listed: Vec<_> = m.counters().collect();
        assert_eq!(
            listed,
            [
                ("metrics.test.order_a", 0),
                ("metrics.test.order_m", 2),
                ("metrics.test.order_z", 3)
            ]
        );
        let debug = format!("{m:?}");
        let at = |name: &str| debug.find(name).unwrap();
        assert!(at("order_a") < at("order_m") && at("order_m") < at("order_z"));
    }

    #[test]
    fn reading_a_name_numbers_nothing() {
        let mut m = Metrics::new();
        m.bump(counter!("metrics.test.read_known"), 1);
        assert_eq!(m.counter("metrics.test.never"), 0);
        assert_eq!(slot_of("metrics.test.never"), None);
        assert_eq!(Metrics::new().counter("metrics.test.read_known"), 0);
        assert_eq!(m.counters().count(), 1);
    }

    #[test]
    fn two_sinks_are_independent_across_threads() {
        fn bump(m: &mut Metrics, delta: u64) {
            m.bump(counter!("metrics.test.across_threads"), delta);
        }
        let mut here = Metrics::new();
        // The name is first resolved on the other thread.
        let there = std::thread::spawn(|| {
            let mut there = Metrics::new();
            bump(&mut there, 5);
            there.incr("metrics.test.by_name_across_threads", 7);
            there
        })
        .join()
        .unwrap();
        bump(&mut here, 2);
        assert_eq!(here.counter("metrics.test.across_threads"), 2);
        assert_eq!(there.counter("metrics.test.across_threads"), 5);
        assert_eq!(here.counter("metrics.test.by_name_across_threads"), 0);
        assert_eq!(there.counter("metrics.test.by_name_across_threads"), 7);
        here.incr("metrics.test.by_name_across_threads", 1);
        assert_eq!(here.counter("metrics.test.by_name_across_threads"), 1);
        assert_eq!(there.counter("metrics.test.by_name_across_threads"), 7);
    }

    #[test]
    fn a_bump_after_clear_counts_from_zero() {
        let mut m = Metrics::new();
        m.bump(counter!("metrics.test.cleared"), 4);
        m.incr("metrics.test.cleared_by_name", 4);
        m.clear();
        assert_eq!(m.counters().count(), 0);
        m.bump(counter!("metrics.test.cleared"), 1);
        m.incr("metrics.test.cleared_by_name", 2);
        assert_eq!(m.counter("metrics.test.cleared"), 1);
        assert_eq!(m.counter("metrics.test.cleared_by_name"), 2);
    }

    #[test]
    fn counters_and_hists_read_back_in_name_order() {
        let mut m = Metrics::new();
        let names = [
            "zlog.appends",
            "osd.ops",
            "sim.messages_sent",
            "mds.exports",
            "a",
        ];
        for (i, name) in names.iter().enumerate() {
            m.incr(name, i as u64 + 1);
            m.observe_hist(name, 1.0);
        }
        let mut sorted = names;
        sorted.sort_unstable();
        let counted: Vec<&str> = m.counters().map(|(name, _)| name).collect();
        assert_eq!(counted, sorted);
        let hists: Vec<&str> = m.hists().map(|(name, _)| name).collect();
        assert_eq!(hists, sorted);
        assert_eq!(
            m.counters().find(|(name, _)| *name == "osd.ops"),
            Some(("osd.ops", 2))
        );
    }

    #[test]
    fn gauges_overwrite() {
        let mut m = Metrics::new();
        m.set_gauge("load", 1.0);
        m.set_gauge("load", 2.5);
        assert_eq!(m.gauge("load"), Some(2.5));
        assert_eq!(m.gauge("missing"), None);
    }

    #[test]
    fn series_accumulate_in_order() {
        let mut m = Metrics::new();
        m.observe("lat", SimTime(1), 10.0);
        m.observe("lat", SimTime(2), 20.0);
        assert_eq!(m.series("lat").len(), 2);
        assert_eq!(m.series("lat")[1].value, 20.0);
        assert_eq!(m.series("nope"), &[]);
    }

    #[test]
    fn summary_statistics() {
        let samples = vec![s(0, 1.0), s(1, 2.0), s(2, 3.0), s(3, 4.0)];
        let sum = summarize(&samples).unwrap();
        assert_eq!(sum.count, 4);
        assert_eq!(sum.mean, 2.5);
        assert_eq!(sum.min, 1.0);
        assert_eq!(sum.max, 4.0);
        assert!((sum.stddev - 1.118).abs() < 1e-3);
        assert!(summarize(&[]).is_none());
    }

    #[test]
    fn quantiles() {
        let samples: Vec<Sample> = (0..101).map(|i| s(i, i as f64)).collect();
        assert_eq!(quantile(&samples, 0.0), Some(0.0));
        assert_eq!(quantile(&samples, 0.5), Some(50.0));
        assert_eq!(quantile(&samples, 0.99), Some(99.0));
        assert_eq!(quantile(&samples, 1.0), Some(100.0));
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn clear_resets() {
        let mut m = Metrics::new();
        m.bump(counter!("a"), 1);
        m.observe("b", SimTime(0), 1.0);
        m.observe_hist("c", 5.0);
        m.clear();
        assert_eq!(m.counter("a"), 0);
        assert!(m.series("b").is_empty());
        assert!(m.hist("c").is_none());
    }

    #[test]
    fn quantile_ignores_nan_ordering_panics() {
        let samples = vec![s(0, 3.0), s(1, f64::NAN), s(2, 1.0)];
        // Must not panic; NaN sorts last under total_cmp.
        assert_eq!(quantile(&samples, 0.0), Some(1.0));
    }

    #[test]
    fn hist_quantiles_are_bucket_accurate() {
        let mut h = Hist::new();
        for i in 1..=1000u64 {
            h.observe(i as f64);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.min(), Some(1.0));
        assert_eq!(h.max(), Some(1000.0));
        let p50 = h.quantile(0.5).unwrap();
        let p99 = h.quantile(0.99).unwrap();
        // Log-scale buckets guarantee ~9% relative accuracy.
        assert!((450.0..560.0).contains(&p50), "p50 = {p50}");
        assert!((890.0..1000.1).contains(&p99), "p99 = {p99}");
        assert_eq!(h.quantile(0.0), Some(1.0));
        assert_eq!(h.quantile(1.0), Some(1000.0));
    }

    #[test]
    fn hist_merge_equals_union() {
        let a = Hist::from_values(&[1.0, 10.0, 100.0]);
        let b = Hist::from_values(&[5.0, 50.0, 500.0]);
        let mut merged = a.clone();
        merged.merge(&b);
        let direct = Hist::from_values(&[1.0, 10.0, 100.0, 5.0, 50.0, 500.0]);
        assert_eq!(merged.count(), direct.count());
        assert_eq!(merged.sum(), direct.sum());
        assert_eq!(merged.quantile(0.5), direct.quantile(0.5));
        assert_eq!(merged.min(), direct.min());
        assert_eq!(merged.max(), direct.max());
    }

    #[test]
    fn hist_skips_non_finite_and_clamps_negatives() {
        let mut h = Hist::new();
        h.observe(f64::NAN);
        h.observe(f64::INFINITY);
        assert!(h.is_empty());
        h.observe(-5.0);
        h.observe(0.5);
        assert_eq!(h.count(), 2);
        assert_eq!(h.quantile(0.0), Some(-5.0));
        // Both land in the lowest bucket; the midpoint clamps to max.
        assert_eq!(h.quantile(0.5), Some(0.5));
    }

    #[test]
    fn metrics_hist_roundtrip() {
        let mut m = Metrics::new();
        for v in [10.0, 20.0, 30.0] {
            m.observe_hist("lat", v);
        }
        let other = Hist::from_values(&[40.0]);
        m.merge_hist("lat", &other);
        let h = m.hist("lat").unwrap();
        assert_eq!(h.count(), 4);
        assert_eq!(h.max(), Some(40.0));
        assert_eq!(m.hists().count(), 1);
    }
}
