//! Experiment harness: one module per table/figure in the paper's
//! evaluation (§6), plus the ablations called out in `DESIGN.md`, behind
//! one table ([`EXPERIMENTS`]) and one binary (`mala-bench`).
//!
//! Each experiment is a `Config` implementing [`Experiment`]: it names its
//! two scales, runs, renders the rows/series the paper reports, optionally
//! builds the JSON body of a `results/BENCH_*.json`, and checks its own
//! shape (who wins, what grows, what stays flat).
//!
//! There are exactly two scales. [`Scale::Paper`] holds the parameters the
//! committed `results/` files were produced with (the paper's, where the
//! paper states them); only a paper-scale `mala-bench` run writes
//! `results/`. [`Scale::Quick`] is the smallest configuration that still
//! shows the shape: it is what `cargo test`, `cargo bench` and
//! `mala-bench --quick` run, and it prints and checks but never writes.
//! `EXPERIMENTS.md` records paper-vs-measured values.

#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod openloop;
pub mod report;
pub mod workload;

pub mod exp {
    //! The per-figure experiment modules.
    pub mod backoff;
    pub mod dsl_vm;
    pub mod elastic;
    pub mod fig10;
    pub mod fig12;
    pub mod fig2;
    pub mod fig5;
    pub mod fig6;
    pub mod fig8;
    pub mod fig9;
    pub mod linearize;
    pub mod nemesis;
    pub mod scaleout;
    pub mod tables;
    pub mod trace;
    pub mod zlog_pipeline;
    pub mod zlog_read;
}

use report::Json;

/// The two configurations every experiment has.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The parameters behind the committed `results/` files.
    Paper,
    /// Seconds, not minutes: the smallest run that still shows the shape.
    Quick,
}

/// What an experiment module provides; implemented by its `Config`.
pub trait Experiment: Sized {
    /// The numbers a run produces.
    type Data;
    /// The configuration at `scale`.
    fn at(scale: Scale) -> Self;
    /// Produces the numbers.
    fn run(&self) -> Self::Data;
    /// Renders the rows/series the paper reports.
    fn render(&self, data: &Self::Data) -> String;
    /// The body of the experiment's `results/BENCH_*.json`, if it has one.
    fn json(&self, _data: &Self::Data) -> Option<Json> {
        None
    }
    /// Checks the shape the experiment exists to show; the error names the
    /// first expectation that does not hold.
    fn assert_shape(&self, data: &Self::Data) -> Result<(), String>;
}

/// Returns `Err(format!(..))` from an `assert_shape` unless `cond` holds.
#[macro_export]
macro_rules! ensure {
    ($cond:expr, $($msg:tt)+) => {
        let holds: bool = $cond;
        if !holds {
            return Err(format!($($msg)+));
        }
    };
}

/// One run of one experiment, with the types erased.
pub struct Report {
    /// The rendering.
    pub text: String,
    /// The JSON body, for experiments that own a `BENCH_*.json`.
    pub json: Option<Json>,
    /// The outcome of `assert_shape`.
    pub shape: Result<(), String>,
}

fn report<E: Experiment>(scale: Scale) -> Report {
    let config = E::at(scale);
    let data = config.run();
    Report {
        text: config.render(&data),
        json: config.json(&data),
        shape: config.assert_shape(&data),
    }
}

/// One row of the experiment table.
pub struct Entry {
    /// The `mala-bench <name>` argument.
    pub name: &'static str,
    /// The file under `results/` that holds the rendering, if any.
    pub text_file: Option<&'static str>,
    /// The file under `results/` that holds the JSON body, if any.
    pub json_file: Option<&'static str>,
    /// Configures, runs, renders and checks at the given scale.
    pub run: fn(Scale) -> Report,
}

impl Entry {
    /// The files under `results/` this entry owns.
    pub fn files(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.text_file.iter().chain(&self.json_file).copied()
    }
}

const fn entry<E: Experiment>(
    name: &'static str,
    text_file: Option<&'static str>,
    json_file: Option<&'static str>,
) -> Entry {
    Entry {
        name,
        text_file,
        json_file,
        run: report::<E>,
    }
}

use exp::*;

/// Every experiment, in the order `mala-bench all` runs them.
pub static EXPERIMENTS: [Entry; 20] = [
    entry::<tables::Table1>("table1", Some("table1.txt"), None),
    entry::<tables::Table2>("table2", Some("table2.txt"), None),
    entry::<fig2::Config>("fig2", Some("fig2.txt"), None),
    entry::<fig5::Config>("fig5", Some("fig5.txt"), None),
    entry::<fig6::Config>("fig6", Some("fig6.txt"), None),
    entry::<fig6::Fig7>("fig7", Some("fig7.txt"), None),
    entry::<fig8::Config>("fig8", Some("fig8.txt"), None),
    entry::<fig9::Config>("fig9", Some("fig9.txt"), None),
    entry::<fig10::Config>("fig10", Some("fig10.txt"), None),
    entry::<fig12::Config>("fig12", Some("fig12.txt"), None),
    entry::<backoff::Config>("backoff", Some("backoff.txt"), None),
    entry::<zlog_pipeline::Config>("zlog_pipeline", None, Some("BENCH_zlog_append.json")),
    entry::<trace::Config>("trace", None, Some("BENCH_trace.json")),
    entry::<elastic::Config>("elastic", None, Some("BENCH_elastic.json")),
    entry::<zlog_read::Config>("zlog_read", None, Some("BENCH_zlog_read.json")),
    entry::<scaleout::Config>("scaleout", None, Some("BENCH_scaleout.json")),
    entry::<dsl_vm::Config>("dsl_vm", None, Some("BENCH_dsl_vm.json")),
    entry::<linearize::Config>("linearize", None, Some("BENCH_linearize.json")),
    entry::<nemesis::Config>("nemesis", None, None),
    entry::<nemesis::FailoverConfig>("sequencer-failover", None, None),
];

/// The entry named `name`.
pub fn find(name: &str) -> Option<&'static Entry> {
    EXPERIMENTS.iter().find(|e| e.name == name)
}

#[cfg(test)]
#[path = "../tests/quick_digests/mod.rs"]
mod quick_digests;

#[cfg(test)]
mod tests {
    use std::collections::{BTreeMap, BTreeSet};

    use super::*;
    use crate::quick_digests::{self, digest};

    #[test]
    fn names_are_unique_and_results_files_have_exactly_one_owner() {
        let names: BTreeSet<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        assert_eq!(names.len(), EXPERIMENTS.len(), "duplicate experiment name");
        let owned: Vec<&str> = EXPERIMENTS.iter().flat_map(Entry::files).collect();
        let distinct: BTreeSet<&str> = owned.iter().copied().collect();
        assert_eq!(distinct.len(), owned.len(), "a file has two owners");
        let results = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");
        let on_disk: BTreeSet<String> = std::fs::read_dir(results)
            .expect("results/ exists")
            .map(|f| f.unwrap().file_name().into_string().unwrap())
            .collect();
        let owned: BTreeSet<String> = owned.into_iter().map(String::from).collect();
        assert_eq!(on_disk, owned, "results/ and the table disagree");
    }

    /// Every entry passes its own shape check at quick scale, and each
    /// simulated one replays its committed quick run (`tests/quick_digests`):
    /// an entry that times the host (`dsl_vm`, `linearize`: a JSON body that
    /// does not say `time_base: simulated`) has no digest. One thread per
    /// entry: the runs are independent simulations.
    #[test]
    fn every_entry_holds_its_shape_and_simulated_ones_replay() {
        let runs: Vec<Option<(String, String)>> = std::thread::scope(|scope| {
            let threads: Vec<_> = EXPERIMENTS
                .iter()
                .map(|e| scope.spawn(move || check_entry(e)))
                .collect();
            threads.into_iter().map(|t| t.join().unwrap()).collect()
        });
        let fresh: BTreeMap<&str, (String, String)> = EXPERIMENTS
            .iter()
            .zip(runs)
            .filter_map(|(e, run)| Some((e.name, run?)))
            .collect();
        if std::env::var_os("BLESS_QUICK").is_some() {
            let mut file = String::from(
                "# name, FNV-1a of the quick rendering, of the quick JSON body (- for none)\n",
            );
            for (name, (text, json)) in &fresh {
                file.push_str(&format!("{name} {text} {json}\n"));
            }
            std::fs::write(quick_digests::PATH, file).unwrap();
            return;
        }
        let committed = quick_digests::committed();
        assert_eq!(
            committed.keys().map(String::as_str).collect::<Vec<_>>(),
            fresh.keys().copied().collect::<Vec<_>>(),
            "{}: one line per simulated entry (BLESS_QUICK=1 rewrites it)",
            quick_digests::PATH
        );
        for (name, run) in &fresh {
            assert_eq!(
                Some(run),
                committed.get(*name),
                "{name}: its quick run is not the committed one; if the change means to move it, \
                 rerun with BLESS_QUICK=1 and read the diff of {}",
                quick_digests::PATH
            );
        }
    }

    /// Runs `e` at quick scale and checks its shape; for a simulated entry,
    /// the digests of its rendering and its JSON body (`-` without one).
    fn check_entry(e: &Entry) -> Option<(String, String)> {
        let run = (e.run)(Scale::Quick);
        run.shape
            .unwrap_or_else(|err| panic!("{}: {err}\n{}", e.name, run.text));
        assert!(!run.text.is_empty(), "{} rendered nothing", e.name);
        assert_eq!(
            run.json.is_some(),
            e.json_file.is_some(),
            "{}: a JSON body needs a file, and the other way round",
            e.name
        );
        let host_timed = run
            .json
            .as_ref()
            .is_some_and(|json| json.get("time_base") != Some(&Json::from("simulated")));
        if host_timed {
            assert!(
                matches!(e.name, "dsl_vm" | "linearize"),
                "{}: a simulated entry's JSON says `time_base: simulated`",
                e.name
            );
            return None;
        }
        let json = run
            .json
            .map_or_else(|| "-".to_string(), |json| digest(&json.to_string()));
        Some((digest(&run.text), json))
    }
}
