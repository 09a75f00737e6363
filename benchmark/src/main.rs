//! Two-clock benchmark of the simulated Malacology stack.
//!
//! `sim_*` metrics are on the simulated clock and exact for a seed; `host_*`
//! and `setup_s` are medians over reps of the thread's CPU clock scaled to a
//! reference host speed (`hostclock`). See README.md.

mod alloc;
mod cluster;
mod gen;
mod harness;
mod hostclock;
mod probes;
mod report;
mod stats;
mod timed;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use harness::RepOpts;
use report::WorkloadResult;
use workloads::Workload;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

const USAGE: &str = "usage: mala-benchmark [--workload W] [--seed N] [--reps K | --seconds S] \
                     [--trace 0|1 | --traced] [--quick] [--out DIR] | --describe";

struct Args {
    workload: Option<String>,
    seed: u64,
    reps: usize,
    seconds: Option<f64>,
    traced: bool,
    /// `--trace` was given: print the driver's one-line JSON result.
    driver: bool,
    quick: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 2017,
        reps: 5,
        seconds: None,
        traced: false,
        driver: false,
        quick: false,
        out: PathBuf::from("benchmark/out"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let w = value("a workload name")?;
                if !workloads::WORKLOADS.iter().any(|x| x.name == w) {
                    return Err(format!("unknown workload {w:?}"));
                }
                args.workload = Some(w);
            }
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--reps" => {
                args.reps = value("a count")?
                    .parse()
                    .map_err(|e| format!("--reps: {e}"))?;
                if args.reps == 0 {
                    return Err("--reps must be at least 1".into());
                }
            }
            "--seconds" => {
                let s: f64 = value("a duration")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.driver = true;
                args.traced = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                };
            }
            "--traced" => args.traced = true,
            "--quick" => args.quick = true,
            "--describe" => {
                print!("{}", report::benchmark_json());
                std::process::exit(0);
            }
            "--out" => args.out = PathBuf::from(value("a directory")?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.driver && args.workload.is_none() {
        return Err("--trace needs --workload".into());
    }
    Ok(args)
}

/// Runs the reps of every selected workload, round-robin so that slow
/// drifts of the host hit all workloads alike.
fn run_all(args: &Args, chosen: &[&'static Workload]) -> Result<Vec<WorkloadResult>, String> {
    let started = Instant::now();
    let mut results: Vec<WorkloadResult> = chosen.iter().map(|w| WorkloadResult::new(w)).collect();
    let reps = if args.quick { 1 } else { args.reps };
    // With a time budget: at least three timed reps (one when tracing, where
    // only the per-layer numbers are wanted), then as many as fit.
    let floor = match (args.seconds, args.traced) {
        (None, _) => reps,
        (Some(_), false) => 3,
        (Some(_), true) => 1,
    };
    let mut longest_round = 0.0f64;
    for round in 0.. {
        let elapsed = started.elapsed().as_secs_f64();
        let more = match args.seconds {
            None => round < reps,
            Some(budget) => round < floor || elapsed + longest_round <= budget,
        };
        if !more {
            break;
        }
        for r in results.iter_mut() {
            let untraced = RepOpts {
                traced: false,
                quick: args.quick,
            };
            r.reps.push(workloads::run(r.name, args.seed, untraced)?);
            // Under a budget the traced reps alternate with the timed ones;
            // without one a single traced rep follows all timed reps.
            if args.traced && (args.seconds.is_some() || round + 1 == reps) {
                let traced = RepOpts {
                    traced: true,
                    quick: args.quick,
                };
                let mut rep = workloads::run(r.name, args.seed, traced)?;
                if !r.traced.is_empty() {
                    // Only the first traced rep's spans go to the trace file.
                    rep.spans = Vec::new();
                }
                r.traced.push(rep);
            }
        }
        longest_round = longest_round.max(started.elapsed().as_secs_f64() - elapsed);
    }
    Ok(results)
}

fn real_main() -> Result<bool, String> {
    let args = parse_args().map_err(|e| format!("{e}\n{USAGE}"))?;
    let chosen: Vec<&'static Workload> = workloads::WORKLOADS
        .iter()
        .filter(|x| args.workload.as_deref().is_none_or(|w| w == x.name))
        .collect();

    println!(
        "# Malacology two-clock benchmark — seed {}{}",
        args.seed,
        if args.quick {
            " — QUICK: NOT COMPARABLE"
        } else {
            ""
        }
    );
    println!("# sim_* = simulated clock, exact for a seed; setup_s/host_s_per_sim_s = this thread's CPU clock, scaled to the");
    println!("# reference host speed by a calibration kernel run between slices of the section; median of reps.");
    println!("# The model is unvalidated: simulated numbers are a function of MdsCostModel, OsdConfig::service_time");
    println!("# and NetConfig; the repository holds no reference measurement, so no error figure is given.");

    let mut results = run_all(&args, &chosen)?;
    let probe_values = if args.traced {
        probes::run()?
    } else {
        Default::default()
    };
    let mut ok = true;
    for r in results.iter_mut() {
        r.finish(&probe_values);
        report::print_workload(r, args.traced);
        ok &= r.failures.is_empty();
    }
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    report::write_results(&args.out, args.seed, args.quick, &results)?;
    for r in &results {
        if let Some(rep) = r.traced.first() {
            report::write_trace(&args.out, r.name, rep)?;
        }
    }
    if !ok {
        for r in &results {
            for f in &r.failures {
                eprintln!("FAILED {}: {f}", r.name);
            }
        }
    }
    if args.driver {
        // The driver reads the last line; print it even when a gate failed
        // (`correct: false`) so the failure is visible there too.
        println!("{}", report::driver_line(&results[0], args.traced));
    }
    Ok(ok)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
