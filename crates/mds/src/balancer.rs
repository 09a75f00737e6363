//! The Load Balancing interface: pluggable migration policies over the
//! MDS cluster's metrics and migration mechanisms (paper §4.3.3).
//!
//! The MDS server owns the *mechanisms* — measuring load, exporting
//! inodes, proxying or redirecting clients — and delegates the *policy* to
//! a [`Balancer`]. Three policies ship here:
//!
//! * [`NoBalancer`] — everything stays where it was created (the "No
//!   Balancing" baseline of Fig. 9).
//! * [`CephFsBalancer`] — a reconstruction of CephFS's hard-coded
//!   balancer with its three load metrics (CPU, workload, hybrid). All
//!   three share one decision structure, which is why Fig. 10(a) shows
//!   them performing identically; the CPU metric is noisy, which is why
//!   its variance is high.
//! * Mantle's scripted balancer lives in the `mala-mantle` crate and
//!   implements this same trait.

use crate::types::{FileType, Ino, ServeStyle};
use mala_sim::SimTime;

/// One rank's load sample, as exchanged in MDS heartbeats.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadSample {
    /// The rank.
    pub rank: u32,
    /// Client requests per second over the last balancing tick.
    pub req_rate: f64,
    /// Synthetic CPU utilisation proxy (noisy, as in real clusters).
    pub cpu: f64,
    /// Residual cache-coherence load from recent imports (decays over the
    /// settle window; the quantity Mantle's conservative `when()` watches).
    pub coherence: f64,
}

impl LoadSample {
    /// The all-in load figure (what `mds[i]["load"]` exposes to Mantle).
    pub fn total(&self) -> f64 {
        self.req_rate + self.coherence
    }
}

/// Everything a policy may consult when deciding.
#[derive(Debug, Clone)]
pub struct BalanceView {
    /// The deciding rank.
    pub whoami: u32,
    /// Virtual time of the tick.
    pub now: SimTime,
    /// Latest load samples for every up rank (including `whoami`).
    pub loads: Vec<LoadSample>,
    /// Inodes this rank is authoritative for: `(ino, req_rate, ftype)`,
    /// hottest first.
    pub my_inodes: Vec<(Ino, f64, FileType)>,
}

impl BalanceView {
    /// The deciding rank's own sample, if the view carries one. A view
    /// assembled mid-failover can lack it; policies must treat that as
    /// "don't balance this tick", not a crash.
    pub fn me(&self) -> Option<&LoadSample> {
        self.loads.iter().find(|l| l.rank == self.whoami)
    }
}

/// A migration decision: ship `ino` to `target`, serving it as `style`
/// afterwards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Export {
    /// Inode to migrate.
    pub ino: Ino,
    /// Destination rank.
    pub target: u32,
    /// Post-migration serving style.
    pub style: ServeStyle,
}

/// A metadata load-balancing policy.
pub trait Balancer: 'static {
    /// Human-readable policy name (appears in logs and metrics).
    fn name(&self) -> &str;

    /// Called once per balancing tick on each rank; returns the exports
    /// this rank wants to perform.
    fn decide(&mut self, view: &BalanceView) -> Vec<Export>;

    /// Installs new policy code (programmable balancers only).
    ///
    /// # Errors
    ///
    /// Non-programmable balancers reject installation.
    fn install_policy(&mut self, _source: &str, _version: u64) -> Result<(), String> {
        Err("balancer is not programmable".to_string())
    }

    /// Whether the server should watch the Mantle policy map and fetch
    /// policy objects for this balancer.
    fn wants_policy(&self) -> bool {
        false
    }

    /// Drains log lines for the central (monitor) log.
    fn take_log(&mut self) -> Vec<String> {
        Vec::new()
    }
}

/// Never migrates anything.
#[derive(Debug, Default)]
pub struct NoBalancer;

impl Balancer for NoBalancer {
    fn name(&self) -> &str {
        "none"
    }
    fn decide(&mut self, _view: &BalanceView) -> Vec<Export> {
        Vec::new()
    }
}

/// CephFS's built-in load metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CephFsMode {
    /// Balance on CPU utilisation (dynamic and unpredictable).
    Cpu,
    /// Balance on request rate.
    Workload,
    /// Balance on a mix of the two.
    Hybrid,
}

/// Reconstruction of the hard-coded CephFS balancer (pre-Mantle).
///
/// Decision structure (identical across modes): when this rank's load
/// exceeds the cluster average by `threshold`, export the hottest inodes
/// to the least-loaded rank until half the excess has been shed. Exports
/// use [`ServeStyle::Direct`]; the stock balancer has no notion of proxy
/// serving.
#[derive(Debug)]
pub struct CephFsBalancer {
    mode: CephFsMode,
    /// Relative overload required before acting (default 0.2 = 20%; a
    /// tighter threshold sits inside the steady-state noise band and makes
    /// the balancer ping-pong inodes between ranks forever).
    pub threshold: f64,
    /// Recently-targeted rank and remaining cooldown ticks. Load samples
    /// are a tick stale, so a rank that just received an import still
    /// *looks* idle; without the cooldown the balancer dog-piles it.
    recent_target: Option<(u32, u8)>,
    log: Vec<String>,
}

impl CephFsBalancer {
    /// Creates the balancer in the given metric mode.
    pub fn new(mode: CephFsMode) -> CephFsBalancer {
        CephFsBalancer {
            mode,
            threshold: 0.2,
            recent_target: None,
            log: Vec::new(),
        }
    }

    fn metric(&self, sample: &LoadSample) -> f64 {
        match self.mode {
            CephFsMode::Cpu => sample.cpu,
            CephFsMode::Workload => sample.req_rate,
            CephFsMode::Hybrid => 0.5 * sample.cpu + 0.5 * sample.req_rate,
        }
    }
}

impl Balancer for CephFsBalancer {
    fn name(&self) -> &str {
        match self.mode {
            CephFsMode::Cpu => "cephfs-cpu",
            CephFsMode::Workload => "cephfs-workload",
            CephFsMode::Hybrid => "cephfs-hybrid",
        }
    }

    fn decide(&mut self, view: &BalanceView) -> Vec<Export> {
        // Tick the target cooldown.
        if let Some((_, ticks)) = self.recent_target.as_mut() {
            *ticks = ticks.saturating_sub(1);
            if *ticks == 0 {
                self.recent_target = None;
            }
        }
        if view.loads.len() < 2 {
            return Vec::new();
        }
        let Some(me) = view.me() else {
            return Vec::new();
        };
        let my = self.metric(me);
        let avg = view.loads.iter().map(|l| self.metric(l)).sum::<f64>() / view.loads.len() as f64;
        if !my.is_finite() || !avg.is_finite() || avg <= 0.0 || my <= avg * (1.0 + self.threshold) {
            return Vec::new();
        }
        // Shed half the excess to the least-loaded rank (the stock
        // balancer's migration unit). The excess is in metric units; map
        // it onto inode request rates as a fraction of my total.
        let total_rate: f64 = view.my_inodes.iter().map(|(_, r, _)| r).sum();
        let mut to_shed = total_rate * ((my - avg) / 2.0) / my;
        let cooling = self.recent_target.map(|(r, _)| r);
        let target = view
            .loads
            .iter()
            .filter(|l| l.rank != view.whoami && Some(l.rank) != cooling)
            .filter(|l| self.metric(l).is_finite())
            .min_by(|a, b| self.metric(a).total_cmp(&self.metric(b)))
            .map(|l| l.rank);
        let Some(target) = target else {
            return Vec::new();
        };
        let mut exports = Vec::new();
        for (ino, rate, _ftype) in &view.my_inodes {
            if *rate <= 0.0 {
                continue;
            }
            // Migration granularity: only ship an inode when most of its
            // load is actually wanted elsewhere, otherwise the balancer
            // overshoots and oscillates.
            if to_shed < rate * 0.45 {
                break;
            }
            exports.push(Export {
                ino: *ino,
                target,
                style: ServeStyle::Direct,
            });
            to_shed -= rate;
        }
        if !exports.is_empty() {
            self.recent_target = Some((target, 2));
        }
        if !exports.is_empty() {
            self.log.push(format!(
                "cephfs balancer ({}): load {my:.1} > avg {avg:.1}, exporting {} inodes to mds.{target}",
                self.name(),
                exports.len()
            ));
        }
        exports
    }

    fn take_log(&mut self) -> Vec<String> {
        std::mem::take(&mut self.log)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(rank: u32, req: f64, cpu: f64) -> LoadSample {
        LoadSample {
            rank,
            req_rate: req,
            cpu,
            coherence: 0.0,
        }
    }

    fn view(whoami: u32, loads: Vec<LoadSample>, inodes: Vec<(Ino, f64)>) -> BalanceView {
        BalanceView {
            whoami,
            now: SimTime::ZERO,
            loads,
            my_inodes: inodes
                .into_iter()
                .map(|(ino, r)| (ino, r, FileType::Sequencer))
                .collect(),
        }
    }

    #[test]
    fn no_balancer_never_exports() {
        let v = view(
            0,
            vec![sample(0, 1000.0, 90.0), sample(1, 0.0, 0.0)],
            vec![(2, 1000.0)],
        );
        assert!(NoBalancer.decide(&v).is_empty());
    }

    #[test]
    fn balanced_cluster_stays_put() {
        let mut b = CephFsBalancer::new(CephFsMode::Workload);
        let v = view(
            0,
            vec![sample(0, 100.0, 50.0), sample(1, 100.0, 50.0)],
            vec![(2, 100.0)],
        );
        assert!(b.decide(&v).is_empty());
    }

    #[test]
    fn overloaded_rank_sheds_half_excess_to_least_loaded() {
        let mut b = CephFsBalancer::new(CephFsMode::Workload);
        let v = view(
            0,
            vec![
                sample(0, 300.0, 0.0),
                sample(1, 0.0, 0.0),
                sample(2, 60.0, 0.0),
            ],
            vec![(10, 100.0), (11, 100.0), (12, 100.0)],
        );
        // avg = 120, excess = 180, shed 90 → one hot inode (100 ≥ 90).
        let exports = b.decide(&v);
        assert_eq!(exports.len(), 1);
        assert_eq!(exports[0].target, 1, "least-loaded rank");
        assert_eq!(exports[0].style, ServeStyle::Direct);
        assert!(!b.take_log().is_empty());
        assert!(b.take_log().is_empty(), "log drained");
    }

    #[test]
    fn underloaded_rank_does_nothing() {
        let mut b = CephFsBalancer::new(CephFsMode::Workload);
        let v = view(1, vec![sample(0, 300.0, 0.0), sample(1, 0.0, 0.0)], vec![]);
        assert!(b.decide(&v).is_empty());
    }

    #[test]
    fn cpu_mode_uses_cpu_metric() {
        let mut b = CephFsBalancer::new(CephFsMode::Cpu);
        // Request rates equal; CPU skewed. Several small inodes so the
        // shed fraction maps onto at least one of them.
        let v = view(
            0,
            vec![sample(0, 100.0, 90.0), sample(1, 100.0, 10.0)],
            vec![(5, 34.0), (6, 33.0), (7, 33.0)],
        );
        let exports = b.decide(&v);
        assert_eq!(exports.len(), 1, "cpu mode must act on cpu skew");
        let mut w = CephFsBalancer::new(CephFsMode::Workload);
        assert!(w.decide(&v).is_empty(), "workload mode sees no skew");
    }

    #[test]
    fn single_rank_cluster_never_exports() {
        let mut b = CephFsBalancer::new(CephFsMode::Hybrid);
        let v = view(0, vec![sample(0, 1000.0, 100.0)], vec![(2, 1000.0)]);
        assert!(b.decide(&v).is_empty());
    }

    #[test]
    fn default_balancer_is_not_programmable() {
        let mut b = CephFsBalancer::new(CephFsMode::Hybrid);
        assert!(!b.wants_policy());
        assert!(b.install_policy("x", 1).is_err());
    }

    #[test]
    fn threshold_boundary_is_strict() {
        let mut b = CephFsBalancer::new(CephFsMode::Workload);
        // avg = 100; the trigger is load > avg * 1.2 = 120, strictly.
        let at = view(
            0,
            vec![sample(0, 120.0, 0.0), sample(1, 80.0, 0.0)],
            vec![(2, 120.0)],
        );
        assert!(b.decide(&at).is_empty(), "exactly at threshold must hold");
        // Many small inodes so the ~10 req/s shed maps onto at least one.
        let above = view(
            0,
            vec![sample(0, 121.0, 0.0), sample(1, 79.0, 0.0)],
            (0..11).map(|i| (2 + i, 11.0)).collect(),
        );
        assert!(!b.decide(&above).is_empty(), "just above must act");
    }

    #[test]
    fn migration_granularity_skips_cold_inodes() {
        let mut b = CephFsBalancer::new(CephFsMode::Workload);
        // avg = 150, excess = 150, shed 75 in metric units → 75 req/s.
        // Every inode is cold (20 req/s): shipping any of them moves less
        // than 45% of its own load toward the goal... rather, the rule is
        // the inverse: each candidate is shipped only while the remaining
        // shed amount covers 45% of its rate, so 20-req/s inodes ship
        // until ~75 req/s moved, never the whole list.
        let inodes: Vec<(Ino, f64)> = (0..15).map(|i| (10 + i, 20.0)).collect();
        let v = view(0, vec![sample(0, 300.0, 0.0), sample(1, 0.0, 0.0)], inodes);
        let exports = b.decide(&v);
        assert!(!exports.is_empty());
        assert!(
            exports.len() <= 4,
            "shed target is ~75 req/s, not the whole rank: {} exports",
            exports.len()
        );
    }

    #[test]
    fn zero_rate_inodes_are_never_exported() {
        let mut b = CephFsBalancer::new(CephFsMode::Workload);
        let v = view(
            0,
            vec![sample(0, 300.0, 0.0), sample(1, 0.0, 0.0)],
            vec![(10, 0.0), (11, 0.0), (12, 100.0), (13, 100.0), (14, 100.0)],
        );
        let exports = b.decide(&v);
        assert_eq!(exports.len(), 1, "only the first hot inode moves");
        assert_eq!(
            exports[0].ino, 12,
            "zero-rate inodes ahead of it are skipped"
        );
    }

    #[test]
    fn cooldown_spreads_consecutive_exports_across_targets() {
        let mut b = CephFsBalancer::new(CephFsMode::Workload);
        // Rank 1 is idle, rank 2 nearly idle. Load samples are a tick
        // stale, so after exporting to rank 1 the balancer must avoid it
        // while the cooldown runs even though it still *looks* idle.
        let v = view(
            0,
            vec![
                sample(0, 600.0, 0.0),
                sample(1, 0.0, 0.0),
                sample(2, 30.0, 0.0),
            ],
            vec![(10, 300.0), (11, 300.0)],
        );
        let first = b.decide(&v);
        assert!(!first.is_empty());
        assert_eq!(first[0].target, 1, "least-loaded rank first");
        let second = b.decide(&v);
        assert!(!second.is_empty());
        assert_eq!(
            second[0].target, 2,
            "cooling rank 1 must be skipped on the next tick"
        );
        // Burn the (refreshed) cooldown on calm ticks, then rank 1 is
        // eligible again.
        let calm = view(
            0,
            vec![
                sample(0, 100.0, 0.0),
                sample(1, 100.0, 0.0),
                sample(2, 100.0, 0.0),
            ],
            vec![(10, 100.0)],
        );
        assert!(b.decide(&calm).is_empty());
        assert!(b.decide(&calm).is_empty());
        let resumed = b.decide(&v);
        assert!(!resumed.is_empty());
        assert_eq!(resumed[0].target, 1, "cooldown must expire");
    }

    #[test]
    fn nan_load_rates_do_not_panic_and_are_ignored() {
        let mut b = CephFsBalancer::new(CephFsMode::Workload);
        // A NaN sample among the candidates must neither crash the
        // min_by nor be chosen as the export target.
        let v = view(
            0,
            vec![
                sample(0, 300.0, 0.0),
                sample(1, f64::NAN, f64::NAN),
                sample(2, 10.0, 0.0),
            ],
            vec![(10, 150.0), (11, 150.0)],
        );
        let exports = b.decide(&v);
        for e in &exports {
            assert_ne!(e.target, 1, "NaN-rate rank must never be a target");
        }
        // My own sample being NaN disables balancing rather than panicking.
        let mut b = CephFsBalancer::new(CephFsMode::Workload);
        let v = view(
            0,
            vec![sample(0, f64::NAN, 0.0), sample(1, 10.0, 0.0)],
            vec![(10, 100.0)],
        );
        assert!(b.decide(&v).is_empty());
    }

    #[test]
    fn missing_own_sample_yields_no_exports() {
        let mut b = CephFsBalancer::new(CephFsMode::Hybrid);
        let v = view(
            7,
            vec![sample(0, 300.0, 0.0), sample(1, 0.0, 0.0)],
            vec![(10, 100.0)],
        );
        assert!(v.me().is_none());
        assert!(b.decide(&v).is_empty());
    }

    #[test]
    fn coherence_counts_toward_total_load() {
        let s = LoadSample {
            rank: 0,
            req_rate: 100.0,
            cpu: 0.0,
            coherence: 40.0,
        };
        assert!((s.total() - 140.0).abs() < f64::EPSILON);
    }
}
