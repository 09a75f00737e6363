//! Cephalo engine comparison: bytecode VM versus tree-walking interpreter.
//!
//! Policy evaluation is a hot path — Mantle runs `when()`/`balance()` on
//! every balancing tick on every MDS, and scripted object classes execute
//! on every request that touches them. This experiment measures both
//! engines on the two real workloads:
//!
//! * **`mantle_balance`** — the paper-style load-shedding policy: reads
//!   the per-rank metrics table, loops over the ranks, fills `targets`.
//!   Each eval is one `when()` + one `balance()` call, exactly what
//!   `MantleBalancer::decide` issues.
//! * **`class_guard`** — a representative scripted-object-class method:
//!   an epoch guard that parses its input, compares against persistent
//!   state, and updates it (the ESTALE pattern the ZLog sequencer uses).
//!
//! Per-eval latency is timed individually so the table can report p50/p99
//! alongside throughput. The JSON body is `results/BENCH_dsl_vm.json`; both
//! clocks here are the host's, so the numbers differ from run to run.

use std::time::Instant;

use mala_dsl::{Engine, Interp, Script, Table, Value, Vm};

use crate::report::{self, Json};
use crate::{ensure, Experiment, Scale};

/// The Mantle balancer policy used for the `mantle_balance` workload.
pub const BALANCER_POLICY: &str = r#"
    function when()
        return mds[whoami]["load"] > avg * 1.1
    end
    function balance()
        local my = mds[whoami]["load"]
        local n = #mds
        local t = {}
        for i = 1, n do
            if i ~= whoami then
                t[i] = (my - avg) / (n - 1)
            else
                t[i] = 0
            end
        end
        targets = t
        return 0
    end
"#;

/// The scripted-class epoch guard used for the `class_guard` workload.
pub const GUARD_CLASS: &str = r#"
    __readonly = {"get_epoch"}
    state = {epoch = 0}
    function get_epoch(input)
        return fmt(state.epoch)
    end
    function guard(input)
        local e = tonumber(input)
        if e == nil then error("EINVAL: bad epoch") end
        if e < state.epoch then error("ESTALE: epoch too old") end
        state.epoch = e
        return "ok"
    end
"#;

/// Experiment configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Timed evaluations per engine per workload.
    pub iters: u32,
    /// Untimed warmup evaluations.
    pub warmup: u32,
    /// Simulated MDS ranks in the metrics table.
    pub ranks: u32,
}

/// One engine × workload measurement.
#[derive(Debug, Clone)]
pub struct EngineRun {
    /// Engine label (`tree` or `vm`).
    pub engine: String,
    /// Workload label (`mantle_balance` or `class_guard`).
    pub workload: String,
    /// Completed evaluations per wall-clock second.
    pub evals_per_sec: f64,
    /// Median per-eval latency, microseconds.
    pub p50_us: f64,
    /// 99th-percentile per-eval latency, microseconds.
    pub p99_us: f64,
}

/// Full comparison results.
#[derive(Debug, Clone)]
pub struct Data {
    /// Four rows: {tree, vm} × {mantle_balance, class_guard}.
    pub runs: Vec<EngineRun>,
    /// VM evals/sec over tree-walker evals/sec, balancer workload.
    pub speedup_mantle: f64,
    /// VM evals/sec over tree-walker evals/sec, guard workload.
    pub speedup_guard: f64,
}

/// Installs the per-tick globals the balancer policy reads.
fn set_balancer_globals(engine: &mut impl Engine, ranks: u32) {
    let mut mds = Table::new();
    let mut total = 0.0;
    for r in 0..ranks {
        let mut row = Table::new();
        let load = 100.0 + f64::from(r) * 17.0;
        row.set_str("rank", Value::from(f64::from(r)));
        row.set_str("load", Value::from(load));
        row.set_str("cpu", Value::from(load / 100.0));
        row.set_str("coherence", Value::from(0.0));
        mds.push(Value::from_table(row));
        total += load;
    }
    engine.set_global("mds", Value::from_table(mds));
    engine.set_global("whoami", Value::from(f64::from(ranks)));
    engine.set_global("total", Value::from(total));
    engine.set_global("avg", Value::from(total / f64::from(ranks)));
    engine.set_global("targets", Value::table());
}

/// Times `iters` runs of `eval`, returning per-eval samples (µs).
fn sample<F: FnMut()>(iters: u32, warmup: u32, mut eval: F) -> Vec<f64> {
    for _ in 0..warmup {
        eval();
    }
    let mut samples = Vec::with_capacity(iters as usize);
    for _ in 0..iters {
        let t0 = Instant::now();
        eval();
        samples.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    samples
}

fn summarize(engine: &str, workload: &str, mut samples: Vec<f64>) -> EngineRun {
    samples.sort_by(f64::total_cmp);
    let total_us: f64 = samples.iter().sum();
    let p50 = samples[samples.len() / 2];
    let p99 = samples[((samples.len() as f64 * 0.99) as usize).min(samples.len() - 1)];
    EngineRun {
        engine: engine.to_string(),
        workload: workload.to_string(),
        evals_per_sec: samples.len() as f64 / (total_us / 1e6),
        p50_us: p50,
        p99_us: p99,
    }
}

/// Unwraps a script result; a failure is a bug in the fixed bench scripts.
fn ok<T, E: std::fmt::Debug>(what: &str, result: Result<T, E>) -> T {
    result.unwrap_or_else(|e| panic!("{what}: {e:?}"))
}

impl Config {
    /// The `mantle_balance` row of engine `E`, labelled `label`.
    fn mantle_balance<E: Engine>(&self, label: &str, policy: &Script) -> EngineRun {
        let mut engine = E::new();
        ok("balancer loads", engine.load(policy));
        set_balancer_globals(&mut engine, self.ranks);
        let samples = sample(self.iters, self.warmup, || {
            let go = ok("when() runs", engine.call("when", &[], &mut ()));
            assert!(go.truthy(), "benchmark policy must decide to act");
            ok("balance() runs", engine.call("balance", &[], &mut ()));
        });
        summarize(label, "mantle_balance", samples)
    }

    /// The `class_guard` row of engine `E`, labelled `label`.
    fn class_guard<E: Engine>(&self, label: &str, class: &Script) -> EngineRun {
        let mut engine = E::new();
        ok("guard loads", engine.load(class));
        let arg = [Value::str("7")];
        let samples = sample(self.iters, self.warmup, || {
            let out = ok("guard() runs", engine.call("guard", &arg, &mut ()));
            debug_assert_eq!(out.as_str(), Some("ok"));
        });
        summarize(label, "class_guard", samples)
    }
}

impl Experiment for Config {
    type Data = Data;

    fn at(scale: Scale) -> Self {
        match scale {
            Scale::Paper => Config {
                iters: 20_000,
                warmup: 500,
                ranks: 8,
            },
            Scale::Quick => Config {
                iters: 200,
                warmup: 20,
                ranks: 4,
            },
        }
    }

    /// Runs the comparison.
    fn run(&self) -> Data {
        let balancer = ok("balancer policy compiles", Script::compile(BALANCER_POLICY));
        let guard = ok("guard class compiles", Script::compile(GUARD_CLASS));
        // Rows alternate tree-walker, VM.
        let runs = vec![
            self.mantle_balance::<Interp>("tree", &balancer),
            self.mantle_balance::<Vm>("vm", &balancer),
            self.class_guard::<Interp>("tree", &guard),
            self.class_guard::<Vm>("vm", &guard),
        ];
        Data {
            speedup_mantle: runs[1].evals_per_sec / runs[0].evals_per_sec,
            speedup_guard: runs[3].evals_per_sec / runs[2].evals_per_sec,
            runs,
        }
    }

    /// The comparison as an aligned table.
    fn render(&self, data: &Data) -> String {
        let rows: Vec<Vec<String>> = data
            .runs
            .iter()
            .map(|r| {
                vec![
                    r.workload.clone(),
                    r.engine.clone(),
                    format!("{:.0}", r.evals_per_sec),
                    format!("{:.2}", r.p50_us),
                    format!("{:.2}", r.p99_us),
                ]
            })
            .collect();
        let mut out = format!(
            "Cephalo engines: {} evals each ({} ranks), per-eval timing\n\n",
            self.iters, self.ranks
        );
        out.push_str(&report::table(
            &["workload", "engine", "evals/s", "p50_us", "p99_us"],
            &rows,
        ));
        out.push_str(&format!(
            "\nVM speedup: {:.2}x (mantle_balance), {:.2}x (class_guard)\n",
            data.speedup_mantle, data.speedup_guard
        ));
        out
    }

    fn json(&self, data: &Data) -> Option<Json> {
        Some(Json::obj([
            ("bench", Json::from("dsl_vm")),
            (
                "runs",
                Json::arr(&data.runs, |r| {
                    Json::obj([
                        ("workload", Json::from(r.workload.as_str())),
                        ("engine", Json::from(r.engine.as_str())),
                        ("evals_per_sec", Json::Fixed(r.evals_per_sec, 0)),
                        ("p50_us", Json::Fixed(r.p50_us, 3)),
                        ("p99_us", Json::Fixed(r.p99_us, 3)),
                    ])
                }),
            ),
            ("speedup_mantle", Json::Fixed(data.speedup_mantle, 2)),
            ("speedup_guard", Json::Fixed(data.speedup_guard, 2)),
        ]))
    }

    /// Host-timed, so only sanity is checked: all four rows measured
    /// something.
    fn assert_shape(&self, data: &Data) -> Result<(), String> {
        ensure!(data.runs.len() == 4, "{} rows", data.runs.len());
        for r in &data.runs {
            ensure!(r.evals_per_sec > 0.0 && r.p99_us >= r.p50_us, "{r:?}");
        }
        ensure!(
            data.speedup_mantle.is_finite() && data.speedup_guard.is_finite(),
            "speedups {} / {}",
            data.speedup_mantle,
            data.speedup_guard
        );
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_engines_produce_the_same_targets_table() {
        // The bench is only meaningful if the engines agree on the work.
        fn targets<E: Engine>() -> String {
            let script = Script::compile(BALANCER_POLICY).unwrap();
            let mut engine = E::new();
            engine.load(&script).unwrap();
            set_balancer_globals(&mut engine, 4);
            engine.call("when", &[], &mut ()).unwrap();
            engine.call("balance", &[], &mut ()).unwrap();
            engine.global("targets").display()
        }
        let results = [targets::<Interp>(), targets::<Vm>()];
        assert_eq!(results[0], results[1]);
        assert!(results[0].contains(", 0}"), "{}", results[0]);
    }
}
