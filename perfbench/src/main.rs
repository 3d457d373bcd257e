//! One command for the end-to-end and per-layer numbers of the push-pull
//! GraphBLAS workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <kron-bfs|rgg-bfs|serve-burst> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` runs the untraced pass and reports the end-to-end metrics;
//! `--trace 1` runs the traced pass and reports the per-layer metrics.
//! Each run is one process on one workload, so `peak_rss_mb` is that
//! workload's own high-water mark. Every metric is printed by name with
//! its unit and sample count, then the last line of standard output is
//! the JSON result `{"correct", "attempted", "failed", "metrics"}`. The
//! full report (environment, sample summaries, spans of the traced pass)
//! is written to `perfbench/out/`.

mod inputs;
mod json;
mod oracle;
mod replay;
mod spans;
mod stats;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use json::Json;
use workload::{Metric, Outcome, Workload, GRAPH_SEED, NAMES};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == name)
            .ok_or(format!("missing {name}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{name} needs a value"))
    };
    let name = flag("--workload")?;
    let workload = workload::workload(name).ok_or(format!(
        "unknown workload `{name}`; known: {}",
        NAMES.join(", ")
    ))?;
    let seed = flag("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: u64 = flag("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let trace = match flag("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// The commit the benchmark was built from, read from `.git` beside the
/// benchmark's directory; `unknown` outside a git checkout.
fn git_revision(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(r) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(id) = std::fs::read_to_string(git.join(r)) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(r))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

fn metric_json(m: &Metric) -> Json {
    let mut pairs = vec![
        ("value", Json::Num(m.value)),
        ("unit", Json::str(m.unit)),
        ("n", Json::Int(m.n as u64)),
    ];
    if let Some(s) = &m.summary {
        pairs.extend([
            ("warmup", Json::Int(s.warmup as u64)),
            ("median", Json::Num(s.median)),
            ("q1", Json::Num(s.q1)),
            ("q3", Json::Num(s.q3)),
            (
                "tail",
                s.tail.map_or(Json::Null, |(p, v)| {
                    Json::obj([("p", Json::Int(u64::from(p))), ("value", Json::Num(v))])
                }),
            ),
            ("max", Json::Num(s.max)),
        ]);
    }
    Json::obj(pairs)
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let lanes = graphblas_primitives::pool::num_threads();
    if lanes > nproc {
        return Err(format!(
            "{lanes} pool lanes on {nproc} processors; set PUSH_PULL_THREADS to at most {nproc}"
        ));
    }
    let w = args.workload;
    let outcome: Outcome = if args.trace {
        workload::per_layer(&w, args.seed, args.seconds)
    } else {
        workload::end_to_end(&w, args.seed, args.seconds)
    }
    .map_err(|e| format!("{}: {e}", w.name))?;

    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = manifest.parent().unwrap_or(manifest);
    let env = Json::obj([
        ("workload", Json::str(w.name)),
        ("dataset", Json::str(w.dataset)),
        ("shrink", Json::Int(u64::from(w.shrink))),
        ("graph_seed", Json::Int(GRAPH_SEED)),
        ("seed", Json::Int(args.seed)),
        ("seconds", Json::Int(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        ("nproc", Json::Int(nproc as u64)),
        ("lanes", Json::Int(lanes as u64)),
        ("vertices", Json::Int(outcome.vertices as u64)),
        ("edges", Json::Int(outcome.edges as u64)),
        ("git_revision", Json::str(git_revision(root))),
    ]);
    let error_rate = outcome.failed as f64 / outcome.attempted.max(1) as f64;

    println!("env {env}");
    for m in &outcome.metrics {
        println!("{:<30} {:>16.6} {:<6} n={}", m.name, m.value, m.unit, m.n);
    }
    println!(
        "{:<30} {:>16.6} {:<6} n={}",
        "error_rate", error_rate, "ratio", outcome.attempted
    );

    let report = Json::obj([
        ("env", env),
        ("attempted", Json::Int(outcome.attempted)),
        ("failed", Json::Int(outcome.failed)),
        ("error_rate", Json::Num(error_rate)),
        (
            "metrics",
            Json::obj(outcome.metrics.iter().map(|m| (m.name, metric_json(m)))),
        ),
        (
            "spans",
            outcome
                .spans
                .as_ref()
                .map_or(Json::Null, spans::Recorder::to_json),
        ),
    ]);
    let dir: PathBuf = manifest.join("out");
    let file = dir.join(format!(
        "{}-seed{}-trace{}.json",
        w.name,
        args.seed,
        u8::from(args.trace)
    ));
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&file, format!("{report}\n")))
        .map_err(|e| format!("writing {}: {e}", file.display()))?;
    println!("report {}", file.display());

    let result = Json::obj([
        ("correct", Json::Bool(outcome.failed == 0)),
        ("attempted", Json::Int(outcome.attempted)),
        ("failed", Json::Int(outcome.failed)),
        (
            "metrics",
            Json::obj(outcome.metrics.iter().map(|m| {
                (
                    m.name,
                    Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]),
                )
            })),
        ),
    ]);
    println!("{result}");
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
