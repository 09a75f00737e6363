//! Mantle: the programmable metadata load balancer (paper §5.1),
//! re-implemented on Malacology's interfaces.
//!
//! Administrators inject Cephalo code that decides *when*, *where*, and
//! *how much* metadata load to migrate; the MDS supplies the mechanisms
//! (metrics, migration, proxy/direct serving). Compared to the original
//! hard-coded implementation, the Malacology version gains exactly what
//! the paper lists:
//!
//! * **Versioning** (§5.1.1) — the active policy version is the epoch of
//!   the monitor's `mantle` service-metadata map; every MDS converges on
//!   the same policy.
//! * **Durability** (§5.1.2) — the map stores only a *pointer* (an object
//!   name); the policy source itself lives in a RADOS object, fetched
//!   with a timeout of half the balancing tick.
//! * **Central logging** (§5.1.3) — policy `print`/`log` output and
//!   install errors go to the monitor cluster log, not per-node files.
//!
//! # Policy API
//!
//! A policy script sees these globals on each balancing tick:
//!
//! * `whoami` — this rank's 1-based index into `mds`.
//! * `mds` — array of per-rank tables `{rank, load, cpu, coherence}`
//!   ordered by rank (so `mds[whoami]` is this rank).
//! * `total`, `avg` — cluster load sum and mean.
//! * `state` — a table preserved across ticks (for backoff counters; the
//!   paper's "save state" facility).
//!
//! Callbacks:
//!
//! * `when()` → truthy if this rank should migrate now (required).
//! * `balance()` — fills the global `targets` table:
//!   `targets[i] = <load to ship to mds[i]>` (required).
//! * Optional globals set by `balance()`: `mode = "proxy"|"client"`
//!   (serving style, default client) and `only_type = "sequencer"` to
//!   restrict inode selection (the type-aware policies of §5.2.1).
//!
//! ```text
//! -- the paper's migration-unit example (§6.2.2):
//! targets[whoami + 1] = mds[whoami]["load"] / 2
//! ```
// Serving paths must degrade, not abort: a stray panic site is a lint
// error outside tests.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod policies;

use mala_dsl::{Engine, Script, Table, Value, Vm};
use mala_mds::balancer::{BalanceView, Balancer, Export};
use mala_mds::{FileType, ServeStyle};

pub use policies::*;

/// The key in the `mantle` service-metadata map holding the policy
/// object's name (the "version pointer").
pub const MANTLE_POLICY_KEY: &str = "balancer";

/// The Mantle balancer: evaluates an installed Cephalo policy each tick,
/// on engine `E` — the bytecode VM wherever the type is written without a
/// parameter, which is every production path. Only a test names another
/// engine, to hold the VM to the reference tree-walker.
pub struct MantleBalancer<E = Vm> {
    engine: Option<E>,
    version: u64,
    log: Vec<String>,
}

impl MantleBalancer {
    /// A balancer with no policy yet (it waits for the `mantle` map).
    pub fn new() -> MantleBalancer {
        MantleBalancer::for_engine()
    }

    /// A balancer with a policy compiled in at construction time (tests /
    /// static setups); map-driven installs override it.
    ///
    /// # Panics
    ///
    /// Panics if the bootstrap policy does not compile — a harness bug.
    pub fn with_policy(source: &str) -> MantleBalancer {
        let mut b = MantleBalancer::new();
        if let Err(e) = b.install(source, 0) {
            panic!("bootstrap policy must compile: {e}");
        }
        b
    }
}

impl<E: Engine> MantleBalancer<E> {
    /// A balancer with no policy yet whose policies will run on `E`.
    pub fn for_engine() -> Self {
        MantleBalancer {
            engine: None,
            version: 0,
            log: Vec::new(),
        }
    }

    /// The installed policy version.
    pub fn version(&self) -> u64 {
        self.version
    }

    fn install(&mut self, source: &str, version: u64) -> Result<(), String> {
        let script = Script::compile(source).map_err(|e| e.to_string())?;
        let mut engine = E::new();
        engine.load(&script).map_err(|e| e.to_string())?;
        if !engine.has_function("when") || !engine.has_function("balance") {
            return Err("policy must define when() and balance()".to_string());
        }
        // Persistent state table surviving across ticks (but not across
        // policy versions, as in Mantle).
        engine.set_global("state", Value::table());
        self.engine = Some(engine);
        self.version = version;
        self.log.push(format!("mantle: policy v{version} loaded"));
        Ok(())
    }

    fn build_globals(engine: &mut E, view: &BalanceView) {
        let mut mds = Table::new();
        let mut total = 0.0;
        for sample in &view.loads {
            let mut row = Table::new();
            row.set_str("rank", Value::from(f64::from(sample.rank)));
            row.set_str("load", Value::from(sample.total()));
            row.set_str("cpu", Value::from(sample.cpu));
            row.set_str("coherence", Value::from(sample.coherence));
            mds.push(Value::from_table(row));
            total += sample.total();
        }
        let whoami = view
            .loads
            .iter()
            .position(|l| l.rank == view.whoami)
            .map(|i| i + 1)
            .unwrap_or(1);
        let n = view.loads.len().max(1) as f64;
        engine.set_global("mds", Value::from_table(mds));
        engine.set_global("whoami", Value::from(whoami as f64));
        engine.set_global("total", Value::from(total));
        engine.set_global("avg", Value::from(total / n));
        engine.set_global("targets", Value::table());
        engine.set_global("mode", Value::Nil);
        engine.set_global("only_type", Value::Nil);
    }

    /// Maps the policy's `targets` load amounts onto concrete inodes.
    fn exports_from_targets(
        &mut self,
        view: &BalanceView,
        targets: &Table,
        style: ServeStyle,
        only_type: Option<FileType>,
    ) -> Vec<Export> {
        // Selection pool: my inodes, hottest first (already sorted).
        let mut pool: Vec<(u64, f64)> = view
            .my_inodes
            .iter()
            .filter(|(_, _, ftype)| only_type.as_ref().map(|t| t == ftype).unwrap_or(true))
            .map(|(ino, rate, _)| (*ino, *rate))
            .collect();
        let mut exports = Vec::new();
        for (key, amount) in targets.iter() {
            let mala_dsl::value::Key::Int(idx) = key else {
                continue;
            };
            let Some(amount) = amount.as_num() else {
                continue;
            };
            if amount <= 0.0 {
                continue;
            }
            // `targets` indexes the mds array (1-based).
            let Some(sample) = view.loads.get((idx - 1).max(0) as usize) else {
                continue;
            };
            let target_rank = sample.rank;
            if target_rank == view.whoami {
                continue;
            }
            let mut remaining = amount;
            while remaining > 0.0 && !pool.is_empty() {
                let (ino, rate) = pool.remove(0);
                exports.push(Export {
                    ino,
                    target: target_rank,
                    style,
                });
                remaining -= rate.max(1.0);
            }
        }
        if !exports.is_empty() {
            self.log.push(format!(
                "mantle v{}: exporting {} inodes ({:?})",
                self.version,
                exports.len(),
                style
            ));
        }
        exports
    }
}

impl Default for MantleBalancer {
    fn default() -> Self {
        MantleBalancer::new()
    }
}

impl<E: Engine> Balancer for MantleBalancer<E> {
    fn name(&self) -> &str {
        "mantle"
    }

    fn decide(&mut self, view: &BalanceView) -> Vec<Export> {
        let Some(mut engine) = self.engine.take() else {
            return Vec::new();
        };
        Self::build_globals(&mut engine, view);
        let exports = (|| {
            let go = engine
                .call("when", &[], &mut ())
                .map_err(|e| format!("when(): {e}"))?;
            if !go.truthy() {
                return Ok(Vec::new());
            }
            engine
                .call("balance", &[], &mut ())
                .map_err(|e| format!("balance(): {e}"))?;
            let style = match engine.global("mode").as_str() {
                Some("proxy") => ServeStyle::Proxy,
                _ => ServeStyle::Direct,
            };
            let only_type = match engine.global("only_type").as_str() {
                Some("sequencer") => Some(FileType::Sequencer),
                Some("dir") => Some(FileType::Dir),
                Some("regular") => Some(FileType::Regular),
                _ => None,
            };
            let targets = engine.global("targets");
            let exports = match targets.as_table() {
                Some(t) => {
                    let t = t.borrow().clone();
                    self.exports_from_targets(view, &t, style, only_type)
                }
                None => Vec::new(),
            };
            Ok::<_, String>(exports)
        })();
        // Policy print()/log() output feeds the central log.
        for line in engine.take_output() {
            self.log.push(format!("mantle v{}: {line}", self.version));
        }
        self.engine = Some(engine);
        match exports {
            Ok(exports) => exports,
            Err(e) => {
                self.log
                    .push(format!("mantle v{}: ERROR {e}", self.version));
                Vec::new()
            }
        }
    }

    fn install_policy(&mut self, source: &str, version: u64) -> Result<(), String> {
        if version <= self.version && self.engine.is_some() {
            return Ok(()); // stale or duplicate install
        }
        match self.install(source, version) {
            Ok(()) => Ok(()),
            Err(e) => {
                self.log
                    .push(format!("mantle: policy v{version} rejected: {e}"));
                Err(e)
            }
        }
    }

    fn wants_policy(&self) -> bool {
        true
    }

    fn take_log(&mut self) -> Vec<String> {
        std::mem::take(&mut self.log)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mala_mds::balancer::LoadSample;
    use mala_sim::SimTime;

    fn view(whoami: u32, loads: Vec<(u32, f64, f64)>, inodes: Vec<(u64, f64)>) -> BalanceView {
        BalanceView {
            whoami,
            now: SimTime::ZERO,
            loads: loads
                .into_iter()
                .map(|(rank, req, coh)| LoadSample {
                    rank,
                    req_rate: req,
                    cpu: req / 100.0,
                    coherence: coh,
                })
                .collect(),
            my_inodes: inodes
                .into_iter()
                .map(|(ino, rate)| (ino, rate, FileType::Sequencer))
                .collect(),
        }
    }

    #[test]
    fn no_policy_means_no_action() {
        let mut b = MantleBalancer::new();
        assert!(b
            .decide(&view(
                0,
                vec![(0, 100.0, 0.0), (1, 0.0, 0.0)],
                vec![(5, 100.0)]
            ))
            .is_empty());
        assert!(b.wants_policy());
    }

    #[test]
    fn paper_migration_unit_snippet_moves_half() {
        // The verbatim policy fragment from §6.2.2.
        let mut b = MantleBalancer::with_policy(
            r#"
            function when()
                return mds[whoami]["load"] > avg * 1.1
            end
            function balance()
                targets[whoami + 1] = mds[whoami]["load"] / 2
            end
            "#,
        );
        let v = view(
            0,
            vec![(0, 300.0, 0.0), (1, 0.0, 0.0)],
            vec![(10, 150.0), (11, 150.0)],
        );
        let exports = b.decide(&v);
        // Half of 300 = 150 → the hottest inode (150) suffices.
        assert_eq!(exports.len(), 1);
        assert_eq!(exports[0].target, 1);
        assert_eq!(exports[0].style, ServeStyle::Direct);
    }

    #[test]
    fn proxy_mode_and_type_filter_respected() {
        let mut b = MantleBalancer::with_policy(
            r#"
            function when() return true end
            function balance()
                mode = "proxy"
                only_type = "sequencer"
                targets[2] = total
            end
            "#,
        );
        let mut v = view(
            0,
            vec![(0, 200.0, 0.0), (1, 0.0, 0.0)],
            vec![(10, 100.0), (11, 100.0)],
        );
        // Add a non-sequencer inode that must not be selected.
        v.my_inodes.push((99, 500.0, FileType::Regular));
        let exports = b.decide(&v);
        assert_eq!(exports.len(), 2);
        assert!(exports.iter().all(|e| e.style == ServeStyle::Proxy));
        assert!(exports.iter().all(|e| e.ino != 99));
    }

    #[test]
    fn when_false_suppresses_migration() {
        let mut b = MantleBalancer::with_policy(
            r#"
            function when() return false end
            function balance() targets[2] = 100 end
            "#,
        );
        assert!(b
            .decide(&view(
                0,
                vec![(0, 500.0, 0.0), (1, 0.0, 0.0)],
                vec![(5, 500.0)]
            ))
            .is_empty());
    }

    #[test]
    fn state_persists_across_ticks_for_backoff() {
        // Countdown policy: acts only every third tick (§6.2.3 backoff).
        let mut b = MantleBalancer::with_policy(
            r#"
            function when()
                if state.count == nil then state.count = 0 end
                state.count = state.count + 1
                return state.count % 3 == 0
            end
            function balance()
                targets[2] = mds[whoami]["load"]
            end
            "#,
        );
        let v = view(0, vec![(0, 100.0, 0.0), (1, 0.0, 0.0)], vec![(5, 100.0)]);
        assert!(b.decide(&v).is_empty());
        assert!(b.decide(&v).is_empty());
        assert_eq!(b.decide(&v).len(), 1);
        assert!(b.decide(&v).is_empty());
    }

    #[test]
    fn policy_errors_are_logged_not_fatal() {
        let mut b = MantleBalancer::with_policy(
            r#"
            function when() return nil + 1 end
            function balance() end
            "#,
        );
        let v = view(0, vec![(0, 100.0, 0.0), (1, 0.0, 0.0)], vec![(5, 100.0)]);
        assert!(b.decide(&v).is_empty());
        let log = b.take_log();
        assert!(log.iter().any(|l| l.contains("ERROR")), "{log:?}");
    }

    #[test]
    fn version_gating_rejects_stale_installs() {
        let mut b = MantleBalancer::new();
        b.install_policy("function when() return false end function balance() end", 5)
            .unwrap();
        assert_eq!(b.version(), 5);
        // Stale version ignored (Ok, but not installed).
        b.install_policy("function when() return true end function balance() end", 3)
            .unwrap();
        assert_eq!(b.version(), 5);
        // Missing callbacks rejected.
        assert!(b.install_policy("x = 1", 9).is_err());
        assert_eq!(b.version(), 5);
    }

    #[test]
    fn policy_print_goes_to_central_log() {
        let mut b = MantleBalancer::with_policy(
            r#"
            function when()
                print("deciding on rank", whoami)
                return false
            end
            function balance() end
            "#,
        );
        let v = view(0, vec![(0, 1.0, 0.0), (1, 0.0, 0.0)], vec![]);
        b.decide(&v);
        let log = b.take_log();
        assert!(
            log.iter().any(|l| l.contains("deciding on rank")),
            "{log:?}"
        );
    }

    /// A balancer whose type names no engine evaluates on the VM: the
    /// constructors production code calls exist on that type alone.
    #[test]
    fn default_engine_is_bytecode_vm() {
        let _: MantleBalancer<Vm> = MantleBalancer::new();
        let _: MantleBalancer<Vm> = MantleBalancer::default();
        let _: MantleBalancer<Vm> =
            MantleBalancer::with_policy("function when() return false end function balance() end");
    }

    #[test]
    fn both_engines_reach_the_same_decision() {
        // The paper's migration-unit policy, plus state and print, run on
        // the tree-walker and the VM: identical exports and log output.
        let policy = r#"
            function when()
                if state.tick == nil then state.tick = 0 end
                state.tick = state.tick + 1
                print("tick", state.tick)
                return mds[whoami]["load"] > avg * 1.1
            end
            function balance()
                mode = "proxy"
                targets[whoami + 1] = mds[whoami]["load"] / 2
            end
        "#;
        let v = view(
            0,
            vec![(0, 300.0, 0.0), (1, 0.0, 0.0)],
            vec![(10, 150.0), (11, 150.0)],
        );
        let mut tree = MantleBalancer::<mala_dsl::Interp>::for_engine();
        let mut vmb = MantleBalancer::<Vm>::for_engine();
        tree.install_policy(policy, 1).unwrap();
        vmb.install_policy(policy, 1).unwrap();
        for _ in 0..3 {
            let et = tree.decide(&v);
            let ev = vmb.decide(&v);
            assert_eq!(et, ev);
            assert!(!et.is_empty());
            assert!(et.iter().all(|e| e.style == ServeStyle::Proxy));
            assert_eq!(tree.take_log(), vmb.take_log());
        }
    }

    #[test]
    fn coherence_visible_to_policy() {
        let mut b = MantleBalancer::with_policy(
            r#"
            function when()
                -- Conservative: wait for the target to settle.
                return mds[2]["coherence"] < 10
            end
            function balance()
                targets[2] = mds[whoami]["load"]
            end
            "#,
        );
        let busy = view(0, vec![(0, 100.0, 0.0), (1, 0.0, 50.0)], vec![(5, 100.0)]);
        assert!(b.decide(&busy).is_empty(), "must wait for settle");
        let settled = view(0, vec![(0, 100.0, 0.0), (1, 0.0, 1.0)], vec![(5, 100.0)]);
        assert_eq!(b.decide(&settled).len(), 1);
    }
}
