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
