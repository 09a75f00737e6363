//! The `mala-bench` binary end to end: what it prints, what it writes, and
//! how it fails.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use mala_bench::EXPERIMENTS;

/// A fresh, empty directory named after the test.
fn fresh_dir(test: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(test);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs `mala-bench args` with `dir` as the current directory.
fn mala_bench(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mala-bench"))
        .args(args)
        .current_dir(dir)
        .output()
        .unwrap()
}

fn stdout(out: &Output) -> String {
    String::from_utf8(out.stdout.clone()).unwrap()
}

#[test]
fn list_names_every_entry() {
    let out = mala_bench(&fresh_dir("list"), &["--list"]);
    assert!(out.status.success());
    let listed: Vec<String> = stdout(&out)
        .lines()
        .map(|l| l.split_whitespace().next().unwrap().to_string())
        .collect();
    let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
    assert_eq!(listed, names);
}

#[test]
fn bad_usage_is_exit_code_2() {
    let dir = fresh_dir("usage");
    for args in [&[][..], &["fig99"], &["fig5", "fig6"], &["fig5", "--json"]] {
        let out = mala_bench(&dir, args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("usage: mala-bench"), "{args:?}: {err}");
    }
}

#[test]
fn quick_prints_and_checks_but_never_writes() {
    let dir = fresh_dir("quick");
    let out = mala_bench(&dir, &["trace", "--quick"]);
    assert!(out.status.success());
    assert!(stdout(&out).starts_with("Traced pipelined appends: 48 appends"));
    assert!(!dir.join("results").exists(), "--quick wrote results/");
}

/// Every experiment at quick scale passes its shape check, so tier-1 runs
/// each of the paper's claims, and writes nothing.
#[test]
fn all_quick_checks_every_experiment_and_never_writes() {
    let dir = fresh_dir("all_quick");
    let out = mala_bench(&dir, &["all", "--quick"]);
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{err}");
    assert!(!dir.join("results").exists(), "--quick wrote results/");
}

/// A paper-scale run writes the files its entry owns, and for these cheap,
/// replayable entries the committed `results/` files are exactly what a
/// fresh run writes: a behaviour change that forgets to regenerate them
/// fails here.
#[test]
fn paper_scale_writes_the_committed_results() {
    let committed = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let dir = fresh_dir("paper");
    for name in [
        "table1",
        "fig2",
        "fig5",
        "trace",
        "zlog_pipeline",
        "zlog_read",
    ] {
        let entry = mala_bench::find(name).unwrap();
        let out = mala_bench(&dir, &[name]);
        assert!(out.status.success(), "{name}: {out:?}");
        let printed = stdout(&out);
        if let Some(file) = entry.text_file {
            let written = std::fs::read_to_string(dir.join("results").join(file)).unwrap();
            assert_eq!(written, printed, "{name}: file and stdout differ");
        }
        if let Some(file) = entry.json_file {
            assert!(printed.ends_with(&format!("\nwrote results/{file}\n")));
        }
        for file in entry.files() {
            let fresh = std::fs::read_to_string(dir.join("results").join(file)).unwrap();
            let kept = std::fs::read_to_string(committed.join(file)).unwrap();
            assert_eq!(
                fresh, kept,
                "results/{file} is stale: rerun mala-bench {name}"
            );
        }
    }
}

#[test]
fn unwritable_results_is_a_message_and_exit_code_1() {
    let dir = fresh_dir("unwritable");
    std::fs::write(dir.join("results"), "a file where the directory should be").unwrap();
    let out = mala_bench(&dir, &["table1"]);
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("cannot write results/table1.txt"), "{err}");
    assert!(!err.contains("panicked"), "{err}");
}
