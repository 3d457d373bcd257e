//! The workloads, their set-up, the untraced end-to-end pass and the
//! traced per-layer pass.

use std::hint::black_box;
use std::time::{Duration, Instant};

use graphblas_algo::bfs::{bfs_with_opts, BfsOpts};
use graphblas_baselines::ligra_like::LigraLike;
use graphblas_baselines::{edges_traversed, BfsEngine};
use graphblas_gen::suite::dataset;
use graphblas_gen::with_uniform_weights;
use graphblas_matrix::{Graph, StorageFormat};
use graphblas_primitives::AccessCounters;
use graphblas_service::{
    execute_batch, run_trace, AdmissionConfig, ExecOpts, Query, QueryKind, QueryMix, Request,
    ServiceConfig, ServiceGraphs,
};

use crate::inputs::{sources, Arrivals, BurstShape, Rng};
use crate::oracle::Oracle;
use crate::replay;
use crate::spans::Recorder;
use crate::stats::{min_samples, Samples, Summary, TooFewSamples};

/// Seed of the generated graphs. The graph is the dataset and stays
/// fixed; the workload seed chooses the sources and arrivals run on it.
pub const GRAPH_SEED: u64 = 42;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Sources the traced pass replays (the first of the workload's sources).
const TRACED_SOURCES: usize = 32;
/// Untimed BFS runs before the timed loop.
const WARMUP_BFS: usize = 4;
/// Virtual-clock resolution of the service trace (1 µs per tick).
const TICK_NS: u64 = 1_000;
/// The span each burst arrives within (1 ms).
const BURST_TICKS: u64 = 1_000;
/// Bursts per replayed trace segment of the end-to-end pass.
const SEGMENT_BURSTS: usize = 4;
/// A run stops adding samples after this long even if a percentile
/// still lacks them (the percentile is then refused and the run fails),
/// so every run ends well inside its time limit.
const HARD_CAP: Duration = Duration::from_secs(120);

/// One benchmark workload.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub dataset: &'static str,
    pub shrink: u32,
    /// Seeded BFS sources per run. BFS time depends on the source (on
    /// kron, per-source medians run from 1.2 to 7.8 ms; on rgg they follow
    /// its eccentricity), so the tail percentiles need many sources to
    /// agree between seeds: with 64, rgg's bfs_p90_ms spread 23%.
    pub sources: usize,
    /// Open-loop service traffic (`run_trace`) instead of a closed loop
    /// of solo `bfs_with_opts` calls.
    pub serve: bool,
    /// Query mix and offered load of the service trace. For the BFS
    /// workloads the traced pass replays BFS-only bursts of this shape to
    /// measure the service layers on the same graph.
    pub mix: QueryMix,
    /// Requests per burst: the mix, a whole number of times.
    pub burst: u64,
    /// Mean gap between burst starts, in ticks.
    pub burst_gap_ticks: u64,
}

impl Workload {
    fn shape(&self) -> BurstShape {
        BurstShape {
            burst: self.burst,
            burst_ticks: BURST_TICKS,
            gap_ticks: self.burst_gap_ticks,
            mix: self.mix,
        }
    }
}

const BFS_ONLY: QueryMix = QueryMix {
    bfs: 1,
    parents: 0,
    sssp: 0,
    pagerank: 0,
    bc: 0,
};

/// Workload names, in `BENCHMARK.json` order.
pub const NAMES: [&str; 3] = ["kron-bfs", "rgg-bfs", "serve-burst"];

/// Look a workload up by name.
///
/// The burst gaps put each trace's offered load near a quarter of its
/// sequential capacity, from solo `execute_batch` times measured on a
/// 2-core x86-64 host: on kron (shrink 6) BFS 2.5 ms, parent BFS 4 ms,
/// SSSP 138 ms, PageRank 270 ms and two-source BC 30 ms, so one burst of
/// the default mix (16 requests) needs 750 ms; a burst of 8 BFS needs
/// 20 ms on kron and 420 ms on rgg (shrink 7, 53 ms a BFS). The gaps are
/// four times that. They are constants, not calibrated at run time, so
/// a slower program sees the same offered load and shows it as latency.
#[must_use]
pub fn workload(name: &str) -> Option<Workload> {
    let w = match name {
        // The paper's headline graph class: Kronecker, 32,768 vertices,
        // 2.1 M edges, about 6 levels. The middle levels run pull, so
        // nearly all time is in the pull and bit kernels; the planner runs
        // about 6 times per BFS and the bitmap build is small.
        "kron-bfs" => Workload {
            name: "kron-bfs",
            dataset: "kron",
            shrink: 6,
            sources: 1024,
            serve: false,
            mix: BFS_ONLY,
            burst: 8,
            burst_gap_ticks: 80_000,
        },
        // The opposite balance: a random geometric mesh, 131,250
        // vertices, 2.1 M edges, about 170-200 levels of tiny frontiers.
        // Per-level planning and BFS bookkeeping take a large share of
        // each BFS, and the tiled bitmap build (about 2 GB) dominates
        // set-up and memory.
        "rgg-bfs" => Workload {
            name: "rgg-bfs",
            dataset: "rgg",
            shrink: 7,
            sources: 256,
            serve: false,
            mix: BFS_ONLY,
            burst: 8,
            burst_gap_ticks: 1_700_000,
        },
        // The only workload through admission, coalescing and the batch
        // kernels (`mxv_batch` via `algorithms::entries`): open-loop
        // bursts of the default query mix on kron-bfs's graph, admitted
        // under the live service's defaults (1 ms window, cap 16). A burst
        // is one whole mix, 16 requests: with bursts of 8, PageRank lands
        // in about 40% of them, the median request sits on the boundary
        // between bursts with and without it, and serve_p50_ms spread 26%
        // between seeds.
        "serve-burst" => Workload {
            name: "serve-burst",
            dataset: "kron",
            shrink: 6,
            sources: TRACED_SOURCES,
            serve: true,
            mix: QueryMix::default(),
            burst: 16,
            burst_gap_ticks: 3_000_000,
        },
        _ => return None,
    };
    Some(w)
}

/// The live service's admission defaults, on the trace's virtual clock.
fn admission() -> AdmissionConfig {
    let live = ServiceConfig::default();
    AdmissionConfig {
        window_ticks: u64::try_from(live.window.as_nanos()).expect("window fits u64") / TICK_NS,
        max_batch: live.max_batch,
    }
}

/// One reported number, with the samples behind it.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Samples the value was computed from.
    pub n: usize,
    pub summary: Option<Summary>,
}

impl Metric {
    fn scalar(name: &'static str, unit: &'static str, value: f64, n: usize) -> Self {
        Self {
            name,
            unit,
            value,
            n,
            summary: None,
        }
    }

    /// Percentile `p` of `s`; refused with too few samples beyond it.
    fn percentile(
        name: &'static str,
        unit: &'static str,
        s: &Samples,
        p: u32,
    ) -> Result<Self, TooFewSamples> {
        Ok(Self {
            name,
            unit,
            value: s.percentile(p)?,
            n: s.len(),
            summary: s.summary(),
        })
    }

    fn median(name: &'static str, unit: &'static str, s: &Samples) -> Self {
        let summary = s.summary();
        Self {
            name,
            unit,
            value: summary.as_ref().map_or(0.0, |x| x.median),
            n: s.len(),
            summary,
        }
    }
}

/// What one run measured.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Vertices and edges of the workload's graph.
    pub vertices: usize,
    pub edges: usize,
    pub spans: Option<Recorder>,
}

impl Outcome {
    fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// Time `f`, inside a span when a recorder is given.
fn span<T>(
    rec: &mut Option<&mut Recorder>,
    name: &'static str,
    parent: Option<usize>,
    f: impl FnOnce() -> T,
) -> (T, f64) {
    let id = rec.as_deref_mut().map(|r| r.begin(name, parent, 0));
    let t = Instant::now();
    let out = f();
    let secs = t.elapsed().as_secs_f64();
    if let (Some(r), Some(id)) = (rec.as_deref_mut(), id) {
        r.end(id);
    }
    (out, secs)
}

/// Fill every lazy cache of `g` (tiled bitmap and its plan, DCSR, shard
/// plan, row occupancy) on both orientations, so no conversion lands in a
/// timed call. Returns the bitmap and DCSR build seconds.
fn first_contact<V: Copy + Send + Sync + PartialEq>(
    g: &Graph<V>,
    rec: &mut Option<&mut Recorder>,
    parent: Option<usize>,
) -> (f64, f64) {
    let (mut bitmap_s, mut dcsr_s) = (0.0, 0.0);
    for t in [false, true] {
        bitmap_s += span(rec, "matrix.bitmap", parent, || {
            let _ = g.bitmap_plan(t);
            let _ = g.store(t, StorageFormat::Bitmap);
        })
        .1;
        dcsr_s += span(rec, "matrix.dcsr", parent, || {
            let _ = g.store(t, StorageFormat::Dcsr);
        })
        .1;
        span(rec, "matrix.shard_plan", parent, || {
            let _ = g.shard_plan(t);
            let _ = g.nonempty_rows(t);
        });
    }
    (bitmap_s, dcsr_s)
}

/// The workload's graphs after set-up.
struct Graphs {
    g: Graph<bool>,
    weighted: Option<Graph<f32>>,
}

#[derive(Default)]
struct SetupSamples {
    total: Samples,
    gen: Samples,
    bitmap: Samples,
    dcsr: Samples,
}

/// Generate the graph and make first contact, [`SETUP_REPEATS`] times;
/// keeps the last set-up. The serve workload also builds the weighted
/// view SSSP runs on.
fn setup(w: &Workload, mut rec: Option<&mut Recorder>) -> (Graphs, SetupSamples) {
    let mut samples = SetupSamples::default();
    let mut kept: Option<Graphs> = None;
    for _ in 0..SETUP_REPEATS {
        // Free the previous set-up first: the rgg bitmap alone is ~2 GB.
        drop(kept.take());
        let root = rec.as_deref_mut().map(|r| r.begin("setup", None, 0));
        let t = Instant::now();
        let (d, gen_s) = span(&mut rec, "gen.dataset", root, || {
            dataset(w.dataset, w.shrink, GRAPH_SEED).expect("workload names a suite dataset")
        });
        let g = d.graph;
        let (bitmap_s, dcsr_s) = first_contact(&g, &mut rec, root);
        let weighted = w.serve.then(|| {
            let wg = with_uniform_weights(&g, GRAPH_SEED ^ 0x5e);
            first_contact(&wg, &mut rec, root);
            wg
        });
        samples.total.push(t.elapsed().as_secs_f64());
        if let (Some(r), Some(root)) = (rec.as_deref_mut(), root) {
            r.end(root);
        }
        samples.gen.push(gen_s);
        samples.bitmap.push(bitmap_s);
        samples.dcsr.push(dcsr_s);
        kept = Some(Graphs { g, weighted });
    }
    (kept.expect("SETUP_REPEATS > 0"), samples)
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// The untraced pass: every end-to-end metric, through the public entry
/// points only (`bfs_with_opts`, `run_trace`).
pub fn end_to_end(w: &Workload, seed: u64, seconds: u64) -> Result<Outcome, TooFewSamples> {
    let (graphs, setup_samples) = setup(w, None);
    let g = &graphs.g;
    let mut out = Outcome {
        vertices: g.n_vertices(),
        edges: g.n_edges(),
        ..Outcome::default()
    };
    let budget = Duration::from_secs(seconds);

    // bfs_* and mteps measure BFS; serve_* measure request latency from
    // due arrival to completion. In the closed BFS loop a request is due
    // when the previous one completes, so serve_* is the per-BFS wall
    // time; in the open loop bfs_* is the latency of the BFS requests
    // and mteps counts the edges BFS and parent-BFS requests traversed
    // per second of execution.
    let (bfs_ms, serve_ms, mteps) = if w.serve {
        let weighted = graphs.weighted.as_ref().expect("serve set-up builds it");
        let sg = ServiceGraphs::new(g.clone(), weighted.clone());
        let opts = ExecOpts::default();
        let adm = admission();
        let mut oracle = Oracle::new(&sg.boolean, Some(&sg.weighted), opts.pagerank);
        let mut arrivals = Arrivals::new(g, w.shape(), Rng::stream(seed, "arrivals"));
        let (mut bfs_ms, mut serve_ms) = (Samples::new(), Samples::new());
        let (mut edges, mut exec_s) = (0u64, 0.0f64);
        let start = Instant::now();
        let mut warm = true;
        while warm
            || start.elapsed() < budget
            || serve_ms.len() < min_samples(95)
            || bfs_ms.len() < min_samples(90)
        {
            if start.elapsed() > HARD_CAP {
                break;
            }
            let seg = arrivals.segment(SEGMENT_BURSTS);
            let t = Instant::now();
            let run = black_box(run_trace(&sg, &opts, &seg, &adm, TICK_NS, None));
            let secs = t.elapsed().as_secs_f64();
            for ((req, resp), &lat) in seg.iter().zip(&run.responses).zip(&run.latencies_ns) {
                out.check(oracle.check_response(req, resp));
                if warm {
                    serve_ms.warmup();
                    continue;
                }
                let lat = lat as f64 / 1e6;
                serve_ms.push(lat);
                if matches!(req.query, Query::Bfs { .. }) {
                    bfs_ms.push(lat);
                }
                edges += oracle.traversed_edges(resp);
            }
            if !warm {
                exec_s += secs;
            }
            warm = false;
        }
        (bfs_ms, serve_ms, edges as f64 / (exec_s * 1e6))
    } else {
        let opts = BfsOpts::default();
        let srcs = sources(g, w.sources, &mut Rng::stream(seed, "sources"));
        let mut oracle = Oracle::new(g, None, ExecOpts::default().pagerank);
        for &s in &srcs {
            oracle.prepare(s);
        }
        let mut edges: Vec<Option<u64>> = vec![None; srcs.len()];
        let mut times = Samples::new();
        for &s in srcs.iter().take(WARMUP_BFS) {
            let r = bfs_with_opts(g, s, &opts, None);
            out.check(oracle.check_depths(s, &r.depths));
            times.warmup();
        }
        let mut traversed = 0u64;
        let start = Instant::now();
        let mut i = 0usize;
        while i < srcs.len() || start.elapsed() < budget || times.len() < min_samples(95) {
            if start.elapsed() > HARD_CAP {
                break;
            }
            let k = i % srcs.len();
            let t = Instant::now();
            let r = black_box(bfs_with_opts(g, srcs[k], &opts, None));
            times.push(t.elapsed().as_secs_f64() * 1e3);
            let ok = oracle.check_depths(srcs[k], &r.depths);
            out.check(ok);
            if ok {
                traversed += *edges[k].get_or_insert_with(|| edges_traversed(g, &r.depths) as u64);
            }
            i += 1;
        }
        let mteps = traversed as f64 / (times.sum() * 1e3);
        (times.clone(), times, mteps)
    };

    out.metrics = vec![
        Metric::median("setup_s", "s", &setup_samples.total),
        Metric::percentile("bfs_p50_ms", "ms", &bfs_ms, 50)?,
        Metric::percentile("bfs_p90_ms", "ms", &bfs_ms, 90)?,
        Metric::scalar("mteps", "MTEPS", mteps, bfs_ms.len()),
        Metric::percentile("serve_p50_ms", "ms", &serve_ms, 50)?,
        Metric::percentile("serve_p95_ms", "ms", &serve_ms, 95)?,
        Metric::scalar("peak_rss_mb", "MB", peak_rss_mb(), 1),
    ];
    Ok(out)
}

/// Per-BFS sums over the traced replays.
#[derive(Default)]
struct BfsLayers {
    bfs: u64,
    levels: u64,
    pull_levels: u64,
    bitmap_levels: u64,
    format_switches: u64,
    plan_ns: u64,
    bfs_ns: u64,
    kernel_ns: [u64; 2],
    accesses: [u64; 2],
    matrix: u64,
    vector: u64,
    mask: u64,
    sort: u64,
    bit_word_ops: u64,
}

/// The traced pass: every per-layer metric, from spans the benchmark
/// opens around each call into a layer.
pub fn per_layer(w: &Workload, seed: u64, seconds: u64) -> Result<Outcome, TooFewSamples> {
    let mut rec = Recorder::new();
    let (graphs, setup_samples) = setup(w, Some(&mut rec));
    let g = &graphs.g;
    let mut out = Outcome {
        vertices: g.n_vertices(),
        edges: g.n_edges(),
        ..Outcome::default()
    };
    // The BFS workloads' set-up has no weighted view; the one built here
    // serves only the solo SSSP timing, so its caches stay lazy (a tiled
    // bitmap of rgg's weighted view would double the run's memory).
    let weighted = graphs
        .weighted
        .clone()
        .unwrap_or_else(|| with_uniform_weights(g, GRAPH_SEED ^ 0x5e));
    let sg = ServiceGraphs::new(g.clone(), weighted);
    let eopts = ExecOpts::default();
    let mut oracle = Oracle::new(&sg.boolean, Some(&sg.weighted), eopts.pagerank);
    let budget = seconds as f64;
    let start = Instant::now();
    let mut traced_ns = 0u64;
    let mut untraced_ns = 0u64;

    // core.plan, core.kernel, algorithms.bfs: whole passes over the
    // sources, each source run untraced through bfs_with_opts and then
    // replayed traced; the replay must match depths and counters.
    let opts = BfsOpts::default();
    let mut srcs = sources(g, w.sources, &mut Rng::stream(seed, "sources"));
    srcs.truncate(TRACED_SOURCES);
    let mut layers = BfsLayers::default();
    let mut op = 0u64;
    loop {
        for &s in &srcs {
            let c_ref = AccessCounters::new();
            let t = Instant::now();
            let reference = black_box(bfs_with_opts(g, s, &opts, Some(&c_ref)));
            untraced_ns += u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
            let c_rep = AccessCounters::new();
            let traced = replay::bfs(g, s, &opts, &c_rep, &mut rec, op);
            op += 1;
            let Ok(traced) = traced else {
                out.check(false);
                continue;
            };
            traced_ns += traced.total_ns;
            let snap = c_rep.snapshot();
            out.check(
                traced.depths == reference.depths
                    && snap == c_ref.snapshot()
                    && oracle.check_depths(s, &reference.depths),
            );
            let l = &mut layers;
            l.bfs += 1;
            l.bfs_ns += traced.total_ns;
            l.format_switches += snap.format_switches;
            l.matrix += snap.matrix;
            l.vector += snap.vector;
            l.mask += snap.mask;
            l.sort += snap.sort;
            l.bit_word_ops += snap.bit_word_ops;
            for lv in &traced.levels {
                let pull = usize::from(lv.direction == graphblas_core::Direction::Pull);
                l.levels += 1;
                l.pull_levels += pull as u64;
                l.bitmap_levels += u64::from(lv.format == StorageFormat::Bitmap);
                l.plan_ns += lv.plan_ns;
                l.kernel_ns[pull] += lv.kernel_ns;
                l.accesses[pull] += lv.charged.total();
            }
        }
        if start.elapsed().as_secs_f64() >= 0.3 * budget {
            break;
        }
    }

    // baselines: the Ligra-like engine on the same sources.
    let ligra = LigraLike::default();
    let mut ligra_ms = Samples::new();
    let phase = Instant::now();
    'ligra: loop {
        for &s in &srcs {
            let t = Instant::now();
            let depths = black_box(ligra.bfs(g, s));
            ligra_ms.push(t.elapsed().as_secs_f64() * 1e3);
            out.check(oracle.check_depths(s, &depths));
            if ligra_ms.len() >= min_samples(50) && phase.elapsed().as_secs_f64() >= 0.1 * budget {
                break 'ligra;
            }
        }
    }

    // service.admission and service.executor: one trace of at least
    // min_samples(95) requests, run untraced through run_trace and then
    // replayed traced; the replay must admit the same batches.
    let adm = admission();
    let bursts = min_samples(95).div_ceil(w.burst as usize);
    let trace = Arrivals::new(g, w.shape(), Rng::stream(seed, "arrivals")).segment(bursts);
    let t = Instant::now();
    let reference = black_box(run_trace(&sg, &eopts, &trace, &adm, TICK_NS, None));
    untraced_ns += u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
    let t = Instant::now();
    let served = replay::serve(&sg, &eopts, &trace, &adm, TICK_NS, &mut rec);
    traced_ns += u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
    out.check(served.batches == reference.batches);
    for (req, resp) in trace.iter().zip(&served.responses) {
        out.check(oracle.check_response(req, resp));
    }
    let mut queue_wait = Samples::new();
    for &ns in &served.queue_wait_ns {
        queue_wait.push(ms(ns));
    }
    let mut batch_exec = Samples::new();
    for &ns in &served.exec_ns {
        batch_exec.push(ms(ns));
    }
    let coalesced = served.responses.iter().filter(|r| r.group_size > 1).count();

    // Solo time of each query kind through the service's executor: at
    // least one run each, up to three within a second.
    let mut solo_queries = Arrivals::new(g, w.shape(), Rng::stream(seed, "solo"));
    let mut solo = Vec::new();
    for kind in [
        QueryKind::Bfs,
        QueryKind::Parents,
        QueryKind::Sssp,
        QueryKind::PageRank,
        QueryKind::Bc,
    ] {
        let mut s = Samples::new();
        let phase = Instant::now();
        while s.len() < 1 || (s.len() < 3 && phase.elapsed() < Duration::from_secs(1)) {
            let req = Request::new(0, solo_queries.query(kind));
            let t = Instant::now();
            let resp = black_box(execute_batch(&sg, &eopts, std::slice::from_ref(&req), None));
            s.push(t.elapsed().as_secs_f64() * 1e3);
            out.check(resp.len() == 1 && oracle.check_response(&req, &resp[0]));
        }
        solo.push(s);
    }

    let l = &layers;
    let per_bfs = |x: u64| x as f64 / l.bfs.max(1) as f64;
    let ns_per = |ns: u64, acc: u64| {
        if acc == 0 {
            0.0
        } else {
            ns as f64 / acc as f64
        }
    };
    let self_ns = l.bfs_ns - l.plan_ns - l.kernel_ns[0] - l.kernel_ns[1];
    let csr_bytes = |c: &graphblas_matrix::Csr<bool>| {
        (size_of_val(c.row_ptr()) + size_of_val(c.col_ind()) + size_of_val(c.values())) as f64
    };
    let csr_total = csr_bytes(g.csr())
        + if g.is_symmetric() {
            0.0
        } else {
            csr_bytes(g.csr_t())
        };
    let n_req = served.responses.len();
    out.metrics = vec![
        Metric::median("gen.graph_s", "s", &setup_samples.gen),
        Metric::median("matrix.bitmap_build_s", "s", &setup_samples.bitmap),
        Metric::median("matrix.dcsr_build_s", "s", &setup_samples.dcsr),
        Metric::scalar(
            "matrix.bitmap_bytes",
            "bytes",
            g.bitmap_plan(true).bytes() as f64,
            1,
        ),
        Metric::scalar("matrix.csr_bytes", "bytes", csr_total, 1),
        Metric::scalar(
            "plan.ns_per_level",
            "ns",
            ns_per(l.plan_ns, l.levels),
            l.levels as usize,
        ),
        Metric::scalar("plan.levels", "count", per_bfs(l.levels), l.bfs as usize),
        Metric::scalar(
            "plan.pull_levels",
            "count",
            per_bfs(l.pull_levels),
            l.bfs as usize,
        ),
        Metric::scalar(
            "plan.bitmap_levels",
            "count",
            per_bfs(l.bitmap_levels),
            l.bfs as usize,
        ),
        Metric::scalar(
            "plan.format_switches",
            "count",
            per_bfs(l.format_switches),
            l.bfs as usize,
        ),
        Metric::scalar(
            "kernel.push_ms",
            "ms",
            per_bfs(l.kernel_ns[0]) / 1e6,
            l.bfs as usize,
        ),
        Metric::scalar(
            "kernel.pull_ms",
            "ms",
            per_bfs(l.kernel_ns[1]) / 1e6,
            l.bfs as usize,
        ),
        Metric::scalar(
            "kernel.push_ns_per_access",
            "ns",
            ns_per(l.kernel_ns[0], l.accesses[0]),
            l.bfs as usize,
        ),
        Metric::scalar(
            "kernel.pull_ns_per_access",
            "ns",
            ns_per(l.kernel_ns[1], l.accesses[1]),
            l.bfs as usize,
        ),
        Metric::scalar(
            "kernel.matrix_accesses",
            "count",
            per_bfs(l.matrix),
            l.bfs as usize,
        ),
        Metric::scalar(
            "kernel.vector_accesses",
            "count",
            per_bfs(l.vector),
            l.bfs as usize,
        ),
        Metric::scalar(
            "kernel.mask_accesses",
            "count",
            per_bfs(l.mask),
            l.bfs as usize,
        ),
        Metric::scalar(
            "kernel.sort_accesses",
            "count",
            per_bfs(l.sort),
            l.bfs as usize,
        ),
        Metric::scalar(
            "kernel.bit_word_ops",
            "count",
            per_bfs(l.bit_word_ops),
            l.bfs as usize,
        ),
        Metric::scalar("bfs.self_ms", "ms", per_bfs(self_ns) / 1e6, l.bfs as usize),
        Metric::scalar(
            "admission.batches",
            "count",
            served.batches.len() as f64,
            n_req,
        ),
        Metric::scalar(
            "admission.mean_batch",
            "count",
            n_req as f64 / served.batches.len().max(1) as f64,
            served.batches.len(),
        ),
        Metric::scalar(
            "admission.coalescing_rate",
            "ratio",
            coalesced as f64 / n_req.max(1) as f64,
            n_req,
        ),
        Metric::percentile("executor.queue_wait_p50_ms", "ms", &queue_wait, 50)?,
        Metric::percentile("executor.queue_wait_p95_ms", "ms", &queue_wait, 95)?,
        Metric::median("executor.batch_exec_p50_ms", "ms", &batch_exec),
        Metric::scalar(
            "executor.busy_frac",
            "ratio",
            served.exec_ns.iter().sum::<u64>() as f64 / served.total_ns.max(1) as f64,
            served.exec_ns.len(),
        ),
        Metric::median("executor.solo_bfs_ms", "ms", &solo[0]),
        Metric::median("executor.solo_parents_ms", "ms", &solo[1]),
        Metric::median("executor.solo_sssp_ms", "ms", &solo[2]),
        Metric::median("executor.solo_pagerank_ms", "ms", &solo[3]),
        Metric::median("executor.solo_bc_ms", "ms", &solo[4]),
        Metric::percentile("baselines.ligra_p50_ms", "ms", &ligra_ms, 50)?,
        Metric::scalar(
            "trace.overhead_frac",
            "ratio",
            traced_ns as f64 / untraced_ns.max(1) as f64,
            l.bfs as usize + 1,
        ),
    ];
    out.spans = Some(rec);
    Ok(out)
}
