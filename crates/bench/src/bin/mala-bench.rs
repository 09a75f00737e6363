//! `mala-bench <name>|all [--quick]` runs experiments from the table in
//! `mala_bench::EXPERIMENTS`; `mala-bench --list` names them.
//!
//! A paper-scale run (the default) writes the files the experiment owns
//! under `results/` in the current directory; `--quick` prints and checks
//! but never writes. Either way the exit code is 1 if a shape check fails.

#![warn(clippy::unwrap_used, clippy::expect_used)]

use std::path::Path;
use std::process::ExitCode;

use mala_bench::{find, Entry, Scale, EXPERIMENTS};

const USAGE: &str = "usage: mala-bench <name>|all [--quick]\n       mala-bench --list";

fn write(file: &str, contents: &str) -> Result<(), String> {
    let path = Path::new("results").join(file);
    std::fs::create_dir_all("results")
        .and_then(|()| std::fs::write(&path, contents))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Runs `entry`, prints its rendering, and at paper scale writes its files.
/// Stdout carries exactly what the per-figure binaries used to print: the
/// rendering, plus a `wrote` line for a JSON body.
fn run(entry: &Entry, scale: Scale) -> Result<(), String> {
    let report = (entry.run)(scale);
    print!("{}", report.text);
    report
        .shape
        .map_err(|e| format!("{}: shape check failed: {e}", entry.name))?;
    if scale == Scale::Quick {
        return Ok(());
    }
    if let Some(file) = entry.text_file {
        write(file, &report.text)?;
    }
    if let (Some(file), Some(json)) = (entry.json_file, &report.json) {
        write(file, &json.to_string())?;
        println!("\nwrote results/{file}");
    }
    Ok(())
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let scale = match args.iter().position(|a| a == "--quick") {
        Some(i) => {
            args.remove(i);
            Scale::Quick
        }
        None => Scale::Paper,
    };
    let [name] = args.as_slice() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let selected: Vec<&Entry> = match name.as_str() {
        "--list" => {
            for e in &EXPERIMENTS {
                println!("{:<19} {}", e.name, e.files().collect::<Vec<_>>().join(" "));
            }
            return ExitCode::SUCCESS;
        }
        "all" => EXPERIMENTS.iter().collect(),
        name => match find(name) {
            Some(entry) => vec![entry],
            None => {
                eprintln!("unknown experiment {name:?}; see mala-bench --list\n{USAGE}");
                return ExitCode::from(2);
            }
        },
    };
    let mut failed = false;
    for entry in &selected {
        if selected.len() > 1 {
            println!("==> {}", entry.name);
        }
        if let Err(e) = run(entry, scale) {
            eprintln!("{e}");
            failed = true;
        }
    }
    ExitCode::from(u8::from(failed))
}
