//! Smoke tests for the `paper` binary: valid flags must never panic.

use std::process::Command;

/// `--dataset` restricted to one scale-free graph leaves the mesh/road
/// summary bucket empty; the report prints `n/a` there instead of taking
/// the geomean of nothing.
#[test]
fn fig7_single_scale_free_dataset_reports_empty_mesh_bucket() {
    let out_dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("paper_cli_fig7");
    let out = Command::new(env!("CARGO_BIN_EXE_paper"))
        .args(["fig7", "--dataset", "soc-orkut", "--shrink", "10", "--out"])
        .arg(&out_dir)
        .output()
        .expect("spawn paper");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "paper fig7 failed: {}\n{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        stdout.contains("mesh/road datasets:  This Work vs Ligra-like geomean n/a"),
        "empty mesh bucket must print n/a:\n{stdout}"
    );
    assert!(
        !stdout.contains("scale-free datasets: This Work vs Ligra-like geomean n/a"),
        "the scale-free bucket holds soc-orkut:\n{stdout}"
    );
}

/// Run `paper <study> --shrink 10 --sources 2` into a fresh directory and
/// assert a clean exit; returns the output directory.
fn run_small(study: &str) -> std::path::PathBuf {
    let out_dir =
        std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("paper_cli_{study}"));
    let _ = std::fs::remove_dir_all(&out_dir);
    let out = Command::new(env!("CARGO_BIN_EXE_paper"))
        .args([study, "--shrink", "10", "--sources", "2", "--out"])
        .arg(&out_dir)
        .output()
        .expect("spawn paper");
    assert!(
        out.status.success(),
        "paper {study} failed: {}\n{}",
        String::from_utf8_lossy(&out.stderr),
        String::from_utf8_lossy(&out.stdout)
    );
    out_dir
}

/// Table 2's ladder runs the key-value sort merge (its structure-only-off
/// row) and the structure-only merges.
#[test]
fn table2_small_run_exits_cleanly() {
    run_small("table2");
}

/// The batched study drives the push driver's `(source, chunk)` SPA grid.
#[test]
fn batched_small_run_writes_its_artifact() {
    let dir = run_small("batched");
    assert!(dir.join("BENCH_batched.json").is_file());
}

/// The shards study drives the push driver's column-stripe merge.
#[test]
fn shards_small_run_writes_its_artifact() {
    let dir = run_small("shards");
    assert!(dir.join("BENCH_shards.json").is_file());
}
