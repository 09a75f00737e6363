//! Folding reps into reported values, the determinism gate, and output:
//! the printed table, `results.json`, `trace_<workload>.json` and the
//! driver's one-line result.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use crate::harness::{Kind, Rep, Values, END_TO_END, PER_LAYER};
use crate::stats::{self, Spread};
use crate::workloads::Workload;

/// All reps of one workload and what is reported from them.
pub struct WorkloadResult {
    pub name: &'static str,
    /// Timed reps (tracing off): the only source of end-to-end numbers.
    pub reps: Vec<Rep>,
    /// Traced reps: the source of span and host-share layer numbers.
    pub traced: Vec<Rep>,
    /// End-to-end metric → spread over the timed reps.
    pub e2e: BTreeMap<&'static str, Spread>,
    /// Per-layer metric → value (0 where the workload has none).
    pub layers: Values,
    /// Digest of every exact value; equal on all reps or the run fails.
    pub digest: String,
    /// Failed correctness and determinism gates.
    pub failures: Vec<String>,
    /// See [`Workload::rep_tolerance`].
    rep_tolerance: f64,
}

impl WorkloadResult {
    pub fn new(workload: &Workload) -> WorkloadResult {
        WorkloadResult {
            name: workload.name,
            rep_tolerance: workload.rep_tolerance,
            reps: Vec::new(),
            traced: Vec::new(),
            e2e: BTreeMap::new(),
            layers: Values::new(),
            digest: String::new(),
            failures: Vec::new(),
        }
    }

    /// Computes the reported values and checks the determinism gate.
    /// `probes` are the direct-call layer numbers shared by all workloads.
    pub fn finish(&mut self, probes: &Values) {
        for (name, ..) in END_TO_END {
            let values: Vec<f64> = self.reps.iter().map(|r| r.e2e[name]).collect();
            if let Some(s) = stats::spread(&values) {
                self.e2e.insert(name, s);
            }
        }

        let all = || self.reps.iter().chain(self.traced.iter());
        for (name, _, _, kind) in PER_LAYER {
            // The median over the reps that measured it: traced reps for
            // span statistics, every rep otherwise. For exact kinds all
            // reps agree (the gate below), so the median is that value.
            let reps: Vec<&Rep> = match kind {
                Kind::S => self.traced.iter().collect(),
                Kind::C | Kind::H => all().collect(),
            };
            let v: Vec<f64> = reps
                .iter()
                .filter_map(|r| r.layers.get(name))
                .copied()
                .collect();
            let value = if v.is_empty() {
                probes.get(name).copied().unwrap_or(0.0)
            } else {
                stats::median(&v)
            };
            self.layers.insert(name, value);
        }
        if let (Some(traced), Some(plain)) = (
            stats::spread(
                &self
                    .traced
                    .iter()
                    .map(|r| r.host.seconds())
                    .collect::<Vec<_>>(),
            ),
            stats::spread(
                &self
                    .reps
                    .iter()
                    .map(|r| r.host.seconds())
                    .collect::<Vec<_>>(),
            ),
        ) {
            self.layers.insert(
                "sim.trace_overhead_share",
                (traced.median - plain.median) / plain.median,
            );
        }

        for rep in all() {
            for f in &rep.gate_failures {
                if !self.failures.contains(f) {
                    self.failures.push(f.clone());
                }
            }
        }
        let reps: Vec<&Rep> = all().collect();
        let traced: Vec<&Rep> = self.traced.iter().collect();
        self.digest = reps.first().map_or(String::new(), |r| r.digest(Kind::C));
        if let Some(first) = traced.first() {
            self.digest = format!("{}-{}", self.digest, first.digest(Kind::S));
        }
        for (kind, reps) in [(Kind::C, reps), (Kind::S, traced)] {
            let Some((first, rest)) = reps.split_first() else {
                continue;
            };
            let expected = first.exact_values(kind);
            // Bit-identical, or — where the tree cannot replay exactly — the
            // end-to-end values within the tolerance (layer counters are
            // small integers there: one retry more is a large share).
            let tolerance = self.rep_tolerance;
            let differing: Vec<String> = rest
                .iter()
                .flat_map(|r| r.exact_values(kind))
                .zip(expected.iter().cycle())
                .filter(|((name, got), (_, want))| {
                    if tolerance == 0.0 {
                        got.to_bits() != want.to_bits()
                    } else {
                        !name.contains('.') && (got - want).abs() > tolerance * want.abs()
                    }
                })
                .map(|((name, got), (_, want))| format!("{name}: {want} vs {got}"))
                .collect();
            if !differing.is_empty() {
                self.failures.push(format!(
                    "not deterministic: reps of one seed differ in {}",
                    differing.join("; ")
                ));
            }
        }
    }

    /// Primary operations of one rep and how many of them failed; every rep
    /// of a seed attempts the same ones, so this does not depend on how
    /// many reps the time budget allowed.
    fn counts(&self) -> (u64, u64) {
        let rep = self.reps.first().or(self.traced.first());
        rep.map_or((0, 0), |r| (r.attempted, r.failed))
    }
}

/// Prints every metric of one workload by name with its unit.
pub fn print_workload(r: &WorkloadResult, traced: bool) {
    let first = r.reps.first();
    println!(
        "\n== {} — {} timed reps, {} traced; {} primary ops/rep, {} failed, {} latency samples; digest {}",
        r.name,
        r.reps.len(),
        r.traced.len(),
        first.map_or(0, |x| x.attempted),
        first.map_or(0, |x| x.failed),
        first.map_or(0, |x| x.latency_n),
        r.digest
    );
    println!(
        "{:<24} {:>14} {:<6} {:>12} {:>12} {:>12}  bound",
        "end-to-end", "median", "unit", "min", "q1", "q3"
    );
    for (name, unit, better, bound) in END_TO_END {
        if let Some(s) = r.e2e.get(name) {
            println!(
                "{:<24} {:>14.6} {:<6} {:>12.6} {:>12.6} {:>12.6}  {} is better, may worsen {:.0}%",
                name,
                s.median,
                unit,
                s.min,
                s.q1,
                s.q3,
                better,
                bound * 100.0
            );
        }
    }
    // What the clocks read in the measured sections, before scaling: a wall
    // clock well above the CPU clock means the host took the core away, a
    // speed away from 1 that it ran slower or faster than the reference.
    let clock = |f: fn(&Rep) -> f64| stats::median(&r.reps.iter().map(f).collect::<Vec<_>>());
    println!(
        "host clock, window + drain, median of reps: wall {:.3} s, thread cpu {:.3} s, speed {:.3} of the reference host",
        clock(|x| x.host.wall_s),
        clock(|x| x.host.cpu_s),
        clock(|x| x.host.speed())
    );
    if traced {
        println!("{:<32} {:>16} {:<6} source", "per-layer", "value", "unit");
        for (name, unit, _, kind) in PER_LAYER {
            let source = match kind {
                Kind::C => "counter (exact)",
                Kind::S => "span (exact)",
                Kind::H => "host clock (median)",
            };
            println!(
                "{:<32} {:>16.4} {:<6} {}",
                name, r.layers[name], unit, source
            );
        }
    }
    if r.rep_tolerance > 0.0 {
        println!(
            "not replayable on this tree: reps agree within {:.0}%, the digest is the first rep's, layer values are medians",
            r.rep_tolerance * 100.0
        );
    }
    if r.failures.is_empty() {
        println!("gates: all passed");
    }
    for f in &r.failures {
        println!("GATE FAILED: {f}");
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite number with all its digits; JSON has no NaN or infinity.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The single line the driver reads: end-to-end metrics of the timed reps,
/// or the per-layer metrics when tracing.
pub fn driver_line(r: &WorkloadResult, traced: bool) -> String {
    let values: Vec<(&str, &str, f64)> = if traced {
        PER_LAYER
            .iter()
            .map(|(name, unit, ..)| (*name, *unit, r.layers[name]))
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|(name, unit, ..)| (*name, *unit, r.e2e.get(name).map_or(0.0, |s| s.median)))
            .collect()
    };
    let metrics: Vec<String> = values
        .iter()
        .map(|(name, unit, v)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(*v),
                json_str(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.failures.is_empty(),
        r.counts().0.max(1),
        r.counts().1,
        metrics.join(", ")
    )
}

/// Writes `results.json`: every metric with its unit, and for end-to-end
/// metrics the spread over the timed reps.
pub fn write_results(
    dir: &Path,
    seed: u64,
    quick: bool,
    results: &[WorkloadResult],
) -> Result<(), String> {
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"seed\": {seed},");
    let _ = writeln!(out, "  \"comparable\": {},", !quick);
    let _ = writeln!(
        out,
        "  \"model\": \"unvalidated: no reference measurement in the repository, no error figure\","
    );
    let _ = writeln!(out, "  \"workloads\": {{");
    for (i, r) in results.iter().enumerate() {
        let _ = writeln!(out, "    {}: {{", json_str(r.name));
        let _ = writeln!(out, "      \"correct\": {},", r.failures.is_empty());
        let failures: Vec<String> = r.failures.iter().map(|f| json_str(f)).collect();
        let _ = writeln!(out, "      \"failures\": [{}],", failures.join(", "));
        let _ = writeln!(out, "      \"digest\": {},", json_str(&r.digest));
        let _ = writeln!(out, "      \"replayable\": {},", r.rep_tolerance == 0.0);
        let first = r.reps.first();
        let _ = writeln!(
            out,
            "      \"attempted_per_rep\": {},",
            first.map_or(0, |x| x.attempted)
        );
        let _ = writeln!(
            out,
            "      \"failed_per_rep\": {},",
            first.map_or(0, |x| x.failed)
        );
        let _ = writeln!(
            out,
            "      \"latency_samples\": {},",
            first.map_or(0, |x| x.latency_n)
        );
        let _ = writeln!(out, "      \"end_to_end\": {{");
        let rows: Vec<String> = END_TO_END
            .iter()
            .filter_map(|(name, unit, ..)| r.e2e.get(name).map(|s| (name, unit, s)))
            .map(|(name, unit, s)| {
                let reps: Vec<String> = r.reps.iter().map(|rep| json_num(rep.e2e[name])).collect();
                format!(
                    "        {}: {{\"median\": {}, \"unit\": {}, \"min\": {}, \"q1\": {}, \"q3\": {}, \"n\": {}, \"reps\": [{}]}}",
                    json_str(name), json_num(s.median), json_str(unit),
                    json_num(s.min), json_num(s.q1), json_num(s.q3), s.n, reps.join(", ")
                )
            })
            .collect();
        let _ = writeln!(out, "{}", rows.join(",\n"));
        let _ = writeln!(out, "      }},");
        let clock = |f: fn(&Rep) -> f64| -> String {
            let v: Vec<String> = r.reps.iter().map(|rep| json_num(f(rep))).collect();
            v.join(", ")
        };
        let _ = writeln!(
            out,
            "      \"host_clock\": {{\"wall_s\": [{}], \"cpu_s\": [{}], \"speed\": [{}]}},",
            clock(|x| x.host.wall_s),
            clock(|x| x.host.cpu_s),
            clock(|x| x.host.speed())
        );
        let _ = writeln!(out, "      \"per_layer\": {{");
        let rows: Vec<String> = PER_LAYER
            .iter()
            .filter(|_| !r.traced.is_empty())
            .map(|(name, unit, ..)| {
                format!(
                    "        {}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(name),
                    json_num(r.layers[name]),
                    json_str(unit)
                )
            })
            .collect();
        let _ = writeln!(out, "{}", rows.join(",\n"));
        let _ = writeln!(out, "      }}");
        let _ = writeln!(
            out,
            "    }}{}",
            if i + 1 == results.len() { "" } else { "," }
        );
    }
    let _ = writeln!(out, "  }}");
    let _ = writeln!(out, "}}");
    let path = dir.join("results.json");
    std::fs::write(&path, out).map_err(|e| format!("{}: {e}", path.display()))
}

/// Writes the traced rep's spans: a name table, then one row per span
/// `[id, name index, node, start µs, end µs (-1 = open), parent id (-1 = root), trace id]`.
pub fn write_trace(dir: &Path, workload: &str, rep: &Rep) -> Result<(), String> {
    let mut names: Vec<&str> = Vec::new();
    let mut index: BTreeMap<&str, usize> = BTreeMap::new();
    let mut rows = String::new();
    for (i, s) in rep.spans.iter().enumerate() {
        let n = *index.entry(s.name.as_str()).or_insert_with(|| {
            names.push(s.name.as_str());
            names.len() - 1
        });
        let _ = write!(
            rows,
            "{}[{},{},{},{},{},{},{}]",
            if i == 0 { "" } else { ",\n" },
            s.id.0,
            n,
            s.node.0,
            s.start.as_micros(),
            s.end.map_or(-1, |e| e.as_micros() as i64),
            s.parent.map_or(-1, |p| p.0 as i64),
            s.trace.0
        );
    }
    let names: Vec<String> = names.iter().map(|n| json_str(n)).collect();
    let out = format!(
        "{{\"workload\": {}, \"clock\": \"simulated microseconds\", \
         \"columns\": [\"id\", \"name\", \"node\", \"start\", \"end\", \"parent\", \"trace\"], \
         \"spans_opened_in_window\": {}, \"spans_written\": {}, \
         \"names\": [{}], \"spans\": [\n{}\n]}}\n",
        json_str(workload),
        rep.spans_in_window,
        rep.spans.len(),
        names.join(", "),
        rows
    );
    let path = dir.join(format!("trace_{workload}.json"));
    std::fs::write(&path, out).map_err(|e| format!("{}: {e}", path.display()))
}

/// How long one driver run measures (`run_seconds` of BENCHMARK.json).
pub const RUN_SECONDS: u32 = 20;

/// The contents of the repository's `BENCHMARK.json`, generated from the
/// tables the program measures by, so the two cannot drift apart (a unit
/// test compares them).
pub fn benchmark_json() -> String {
    let workloads: Vec<String> = crate::workloads::WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                json_str(w.name),
                json_str(w.why)
            )
        })
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|(name, unit, better, bound)| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                json_str(name),
                json_str(unit),
                json_str(better),
                json_num(*bound)
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|(name, unit, better, _)| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                json_str(name),
                json_str(unit),
                json_str(better)
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_in_the_repository_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate with: benchmark/run.sh --describe > BENCHMARK.json"
        );
    }

    #[test]
    fn metric_names_are_unique_and_within_the_contract_limits() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
        names.extend(PER_LAYER.iter().map(|m| m.0));
        names.extend(crate::workloads::WORKLOADS.iter().map(|w| w.name));
        let total = names.len();
        for n in &names {
            assert!(
                n.len() <= 64
                    && n.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
        }
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        assert!(END_TO_END.iter().all(|m| m.3 > 0.0 && m.3 <= 0.25));
        assert!(END_TO_END.contains(&("setup_s", "s", "lower", 0.25)));
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(crate::workloads::WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_num(f64::NAN), "0");
        assert_eq!(json_num(1.25), "1.25");
    }
}
