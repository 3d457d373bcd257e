//! Traced replays: the same program the untraced pass runs, driven
//! through the layers' public functions so the benchmark can put a span
//! around each call.
//!
//! * [`bfs`] replays `bfs_with_opts`'s level loop under
//!   `BfsOpts::default()` with `DirectionPolicy`, `FormatPolicy`, `Mask`
//!   and `FusedMxv`. The caller checks that it reproduces
//!   `bfs_with_opts`'s depths and full counter snapshot bit for bit.
//! * [`serve`] replays `run_trace` with `plan_admission`, `admit_tick`
//!   and `execute_batch` on the same virtual clock. The caller checks that
//!   it reproduces `run_trace`'s batch composition.

use std::time::Instant;

use graphblas_algo::bfs::{BfsOpts, UNREACHED};
use graphblas_core::ops::BoolStructure;
use graphblas_core::{
    Descriptor, Direction, DirectionPolicy, FusedMxv, GrbResult, Mask, StorageFormat, Vector,
};
use graphblas_matrix::{Graph, VertexId};
use graphblas_primitives::{AccessCounters, BitVec, CounterSnapshot};
use graphblas_service::admission::admit_tick;
use graphblas_service::{
    execute_batch, plan_admission, AdmissionConfig, ExecOpts, Request, Response, ServiceGraphs,
};

use crate::spans::{Clock, Recorder};

/// One level of a traced BFS.
#[derive(Clone, Copy, Debug)]
pub struct Level {
    pub direction: Direction,
    pub format: StorageFormat,
    /// Wall ns in `DirectionPolicy::update` + `FormatPolicy::update_with_frontier`.
    pub plan_ns: u64,
    /// Wall ns in the fused `mxv · apply · assign_into` call.
    pub kernel_ns: u64,
    /// Charges the kernel call added to the counters.
    pub charged: CounterSnapshot,
}

/// A traced BFS: its depths, levels and whole wall time.
pub struct TracedBfs {
    pub depths: Vec<i32>,
    pub levels: Vec<Level>,
    pub total_ns: u64,
}

/// Whether `opts` is the configuration [`bfs`] replays: the default
/// fused, masked, operand-reusing, structure-only BFS under the
/// hysteresis direction rule. The replay refuses any other.
#[must_use]
pub fn replays(opts: &BfsOpts) -> bool {
    opts.change_of_direction
        && opts.masking
        && opts.operand_reuse
        && opts.structure_only
        && opts.fused
        && opts.force.is_none()
        && !opts.cost_model
        && !opts.record_trace
}

/// Replay `bfs_with_opts(g, source, opts, Some(counters))` level by level,
/// recording spans `algorithms.bfs` ⊃ {`core.plan`, `core.kernel`}.
pub fn bfs(
    g: &Graph<bool>,
    source: VertexId,
    opts: &BfsOpts,
    counters: &AccessCounters,
    rec: &mut Recorder,
    op: u64,
) -> GrbResult<TracedBfs> {
    assert!(replays(opts), "the replay covers the default BFS only");
    let counters = Some(counters);
    let whole = rec.begin("algorithms.bfs", None, op);
    let n = g.n_vertices();
    let mut depths = vec![UNREACHED; n];
    depths[source as usize] = 0;
    let mut visited = BitVec::new(n);
    visited.set(source as usize);
    let mut visited_vec: Vector<bool> = Vector::new_dense(n, false);
    visited_vec
        .as_dense_mut()
        .expect("dense by construction")
        .set(source as usize, true);
    let mut unvisited: Vec<VertexId> = (0..n as VertexId).filter(|&i| i != source).collect();
    let mut unvisited_stale = false;
    let mut f: Vector<bool> = Vector::singleton(n, false, source, true);
    let mut frontier_nnz = 1usize;
    let mut policy = DirectionPolicy::hysteresis(opts.switch_threshold);
    let mut fpol = opts.format;
    let base_desc = Descriptor::new()
        .transpose(true)
        .early_exit(opts.early_exit)
        .structure_only(opts.structure_only)
        .switch_threshold(opts.switch_threshold)
        .bit_kernels(opts.bit_kernels)
        .shard_policy(opts.shards);
    let mut levels = Vec::new();

    for depth in 1i32.. {
        let plan = rec.begin("core.plan", Some(whole), op);
        let dir = policy.update(frontier_nnz, n);
        let fmt = fpol.update_with_frontier(g, true, dir, Some(frontier_nnz), counters);
        let plan_ns = rec.end(plan);
        let desc = base_desc.force(dir).force_format(fmt);

        // Operand reuse: a pull level reads the dense visited vector, so
        // only push needs the frontier in sparse form.
        if dir == Direction::Push {
            f.make_sparse();
        }
        if dir == Direction::Pull && unvisited_stale {
            unvisited.retain(|&v| !visited.get(v as usize));
        }
        let mask = if dir == Direction::Pull {
            Mask::complement(&visited).with_active_list(&unvisited)
        } else {
            Mask::complement(&visited)
        };
        let input = if dir == Direction::Pull {
            &visited_vec
        } else {
            &f
        };

        let before = counters.map(AccessCounters::snapshot).unwrap_or_default();
        let kernel = rec.begin("core.kernel", Some(whole), op);
        let out = FusedMxv::new(BoolStructure, g, input)
            .descriptor(desc)
            .counters(counters)
            .mask(&mask)
            .apply(move |_reached: bool| depth)
            .assign_into(&mut depths, |_, d| Some(d));
        let kernel_ns = rec.end(kernel);
        let out = out?;
        let charged = counters
            .map(AccessCounters::snapshot)
            .unwrap_or_default()
            .delta_since(&before);
        levels.push(Level {
            direction: dir,
            format: fmt,
            plan_ns,
            kernel_ns,
            charged,
        });

        let vd = visited_vec.as_dense_mut().expect("dense by construction");
        for &i in &out.touched {
            visited.set(i as usize);
            vd.set(i as usize, true);
        }
        let count = out.touched.len();
        unvisited_stale = count > 0;
        if count == 0 {
            break;
        }
        f = Vector::from_sparse(n, false, out.touched, vec![true; count]);
        frontier_nnz = count;
    }
    let total_ns = rec.end(whole);
    Ok(TracedBfs {
        depths,
        levels,
        total_ns,
    })
}

/// A traced service replay on the virtual clock.
pub struct TracedServe {
    pub responses: Vec<Response>,
    /// Request ids per admitted batch, as `TraceOutcome::batches`.
    pub batches: Vec<Vec<u64>>,
    /// Per request, in trace order: due arrival → batch start, ns.
    pub queue_wait_ns: Vec<u64>,
    /// Per batch: `execute_batch` wall ns.
    pub exec_ns: Vec<u64>,
    /// Virtual makespan, ns.
    pub total_ns: u64,
}

/// Replay `run_trace(graphs, opts, trace, adm, tick_ns, None)` with one
/// span per admission plan, executed batch and request.
pub fn serve(
    graphs: &ServiceGraphs,
    opts: &ExecOpts,
    trace: &[Request],
    adm: &AdmissionConfig,
    tick_ns: u64,
    rec: &mut Recorder,
) -> TracedServe {
    let arrivals: Vec<u64> = trace.iter().map(|r| r.arrival_tick).collect();
    let span = rec.begin("service.admission", None, 0);
    let plan = plan_admission(&arrivals, adm);
    rec.end(span);

    let mut out = TracedServe {
        responses: Vec::with_capacity(trace.len()),
        batches: Vec::with_capacity(plan.len()),
        queue_wait_ns: Vec::with_capacity(trace.len()),
        exec_ns: Vec::with_capacity(plan.len()),
        total_ns: 0,
    };
    let mut now = 0u64;
    for (b, idxs) in plan.iter().enumerate() {
        let batch: Vec<Request> = idxs.iter().map(|&i| trace[i].clone()).collect();
        out.batches.push(batch.iter().map(|r| r.id).collect());
        let start = now.max(admit_tick(&arrivals, idxs, adm) * tick_ns);
        let t = Instant::now();
        let rs = execute_batch(graphs, opts, &batch, None);
        let exec = u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
        now = start + exec;
        out.exec_ns.push(exec);
        let bspan = rec.record(
            "service.execute_batch",
            Clock::Virtual,
            start,
            now,
            None,
            b as u64,
        );
        for &i in idxs {
            let due = arrivals[i] * tick_ns;
            rec.record(
                "service.request",
                Clock::Virtual,
                due,
                now,
                Some(bspan),
                trace[i].id,
            );
            out.queue_wait_ns.push(start - due);
        }
        out.responses.extend(rs);
    }
    out.total_ns = now;
    out
}
