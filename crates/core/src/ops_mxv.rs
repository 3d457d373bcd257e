//! The four matvec kernels of Table 1 and the push-pull dispatcher.
//!
//! | kernel            | paper name                | cost (Table 1)                  |
//! |-------------------|---------------------------|---------------------------------|
//! | [`row_mxv`]       | row-based, no mask        | `O(dM)`                         |
//! | [`row_masked_mxv`]| row-based, mask (Alg. 2)  | `O(d·nnz(m))`                   |
//! | [`col_mxv`]       | column-based, no mask     | `O(d·nnz(f)·log nnz(f))`        |
//! | [`col_masked_mxv`]| column-based, mask (Alg.3)| `O(d·nnz(f)·log nnz(f))`        |
//!
//! [`mxv`] is the public entry point (GrB_mxv): it resolves the operand
//! orientation from the descriptor's transpose flag, picks row vs. column
//! by the input vector's storage (or a forced direction), and applies the
//! mask inside the kernel (row) or as a post-filter (column) — exactly the
//! asymmetry Figure 4 illustrates: masking accelerates the row kernel but
//! merely filters the column kernel's output.
//!
//! The kernels here are thin wrappers: every row-based matvec runs the one
//! pull driver (`pull.rs`), every column-based one the one push driver
//! (`push.rs`), single-source calls as the `k = 1` batch.

use crate::descriptor::{Descriptor, Direction, DirectionChoice};
use crate::error::{GrbError, GrbResult};
use crate::mask::Mask;
use crate::ops::{Monoid, Scalar, Semiring};
use crate::pull::{pull_dense, Reduce};
use crate::push::{push, push_face, Merge, PushSource};
use crate::vector::{DenseVector, SparseVector, Vector};
use graphblas_matrix::{Graph, RowAccess, StoreRef};
use graphblas_primitives::counters::AccessCounters;

/// Row grain for parallel row-kernel loops (shared with the batched row
/// kernel so single-source and batched chunking agree).
pub(crate) const ROW_GRAIN: usize = 512;

// ---------------------------------------------------------------------------
// Row-based (pull) kernels
// ---------------------------------------------------------------------------

/// Row-based matvec without a mask: `w(i) = ⊕_j op(i,j) ⊗ v(j)` for every
/// row. Touches every stored entry regardless of input sparsity — the
/// `O(dM)` row of Table 1. A hypersparse store scans only its non-empty
/// rows (the DCSR win) with identical counter totals.
pub fn row_mxv<A, X, Y, S, M>(
    s: S,
    op: &M,
    v: &DenseVector<X>,
    counters: Option<&AccessCounters>,
) -> DenseVector<Y>
where
    A: Scalar,
    X: Scalar,
    Y: Scalar,
    S: Semiring<A, X, Y>,
    M: RowAccess<A>,
{
    pull_one(s, op, v, None, SCALAR, counters)
}

/// Row-based **masked** matvec — Algorithm 2. Only rows the mask allows are
/// computed (the listed rows when the mask carries an active list, the
/// §3.2 amortized path); with `early_exit`, a row's reduction stops at the
/// monoid's annihilator (the short-circuit OR of line 8). `O(d·nnz(m))`.
pub fn row_masked_mxv<A, X, Y, S, M>(
    s: S,
    op: &M,
    v: &DenseVector<X>,
    mask: &Mask<'_>,
    early_exit: bool,
    counters: Option<&AccessCounters>,
) -> DenseVector<Y>
where
    A: Scalar,
    X: Scalar,
    Y: Scalar,
    S: Semiring<A, X, Y>,
    M: RowAccess<A>,
{
    let how = Reduce {
        early_exit,
        ..SCALAR
    };
    pull_one(s, op, v, Some(mask), how, counters)
}

/// The descriptor-less scalar reduction of the public row kernels.
const SCALAR: Reduce<'static> = Reduce {
    desc: None,
    early_exit: false,
    first_hit: false,
};

/// A single-source dense pull: the `k = 1` batch of [`pull_dense`].
fn pull_one<A, X, Y, S, M>(
    s: S,
    op: &M,
    v: &DenseVector<X>,
    mask: Option<&Mask<'_>>,
    how: Reduce<'_>,
    counters: Option<&AccessCounters>,
) -> DenseVector<Y>
where
    A: Scalar,
    X: Scalar,
    Y: Scalar,
    S: Semiring<A, X, Y>,
    M: RowAccess<A>,
{
    let masks = mask.map(std::slice::from_ref);
    let mut out = pull_dense(s, op, &[v], masks, how, counters, None);
    out.pop().expect("one output per source")
}

// ---------------------------------------------------------------------------
// Column-based (push) kernels
// ---------------------------------------------------------------------------

/// Column-based matvec without a mask: gathers the operand columns selected
/// by the sparse input's nonzeros and resolves collisions under the
/// descriptor's [`MergeStrategy`](crate::MergeStrategy) (radix sort + segmented reduce,
/// Algorithm 3, or per-chunk SPAs). `O(d·nnz(f)·log nnz(f))`.
///
/// `op_t` must be the *transpose* of the logical operand: its rows are the
/// operand's columns, which is how CSC access is realized (§3).
pub fn col_mxv<A, X, Y, S, M>(
    s: S,
    op_t: &M,
    v: &SparseVector<X>,
    desc: &Descriptor,
    counters: Option<&AccessCounters>,
) -> SparseVector<Y>
where
    A: Scalar,
    X: Scalar,
    Y: Scalar,
    S: Semiring<A, X, Y>,
    M: RowAccess<A>,
{
    push_one(s, op_t, v, None, desc, counters)
}

/// Column-based **masked** matvec — Algorithm 3 with the final mask filter
/// (lines 17–24). The mask does *not* reduce work here (Fig. 4d): the full
/// expansion, sort, and reduction happen first; the mask only gates which
/// entries reach the output.
pub fn col_masked_mxv<A, X, Y, S, M>(
    s: S,
    op_t: &M,
    v: &SparseVector<X>,
    mask: &Mask<'_>,
    desc: &Descriptor,
    counters: Option<&AccessCounters>,
) -> SparseVector<Y>
where
    A: Scalar,
    X: Scalar,
    Y: Scalar,
    S: Semiring<A, X, Y>,
    M: RowAccess<A>,
{
    push_one(s, op_t, v, Some(mask), desc, counters)
}

/// A single-source push: the `k = 1` call of the push driver.
fn push_one<A, X, Y, S, M>(
    s: S,
    op_t: &M,
    v: &SparseVector<X>,
    mask: Option<&Mask<'_>>,
    desc: &Descriptor,
    counters: Option<&AccessCounters>,
) -> SparseVector<Y>
where
    A: Scalar,
    X: Scalar,
    Y: Scalar,
    S: Semiring<A, X, Y>,
    M: RowAccess<A>,
{
    let src = [PushSource { v, mask, counters }];
    let merge = Merge::choose(s, op_t, desc, None);
    let (ids, vals) = push(s, op_t, &src, merge)
        .pop()
        .expect("one output per source");
    SparseVector::from_sorted(ids, vals)
}

// ---------------------------------------------------------------------------
// Dispatch (GrB_mxv)
// ---------------------------------------------------------------------------

/// The direction a given call would take under the descriptor's policy.
#[must_use]
pub fn resolve_direction<X: Scalar>(v: &Vector<X>, desc: &Descriptor) -> Direction {
    match desc.direction {
        DirectionChoice::Force(d) => d,
        DirectionChoice::Auto => {
            if v.is_sparse() {
                Direction::Push
            } else {
                Direction::Pull
            }
        }
    }
}

/// How a [`DirectionPolicy`] reacts to the per-iteration activity ratio.
#[derive(Clone, Copy, Debug, PartialEq)]
enum PolicyMode {
    /// §6.3 hysteresis: switch push→pull while activity is rising above the
    /// threshold, pull→push while falling below it (`α = β`, as the paper).
    Hysteresis { threshold: f64 },
    /// §5.6 two-phase: switch push→pull once the threshold is crossed and
    /// stay there (SSSP's delta-set rule).
    TwoPhase { threshold: f64 },
    /// Memoryless: pull iff the ratio exceeds the threshold this iteration
    /// (Beamer's rule as used by Ligra, `|frontier ∪ its edges| > |E|/20`).
    Memoryless { threshold: f64 },
    /// Never switch.
    Fixed,
    /// Measured work comparison: `pushwork = c_push · nnz(frontier rows)`
    /// vs `pullwork = c_pull · d · |unvisited|`, the per-iteration rule of
    /// the paper's comparator engines, with the per-format constants of
    /// [`crate::plan::CostConstants`]. Fed through
    /// [`DirectionPolicy::update_measured`]; the ratio-only
    /// [`DirectionPolicy::update`] keeps the current direction (like
    /// [`PolicyMode::Fixed`]) because it lacks the measured inputs.
    CostModel {
        constants: crate::plan::CostConstants,
    },
}

/// The measured per-iteration inputs of the `PolicyMode::CostModel`
/// rule: what the traversal actually knows about the next step's work.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostModelInputs {
    /// Σ out-degree over the frontier's explicit vertices — exactly the
    /// edges a push step would expand (`nnz(A(:, f))`).
    pub frontier_edges: usize,
    /// Vertices not yet finished — the rows a masked pull step would scan.
    pub unvisited: usize,
    /// Average degree `d` of the operand, so `pullwork ≈ d · unvisited`.
    pub avg_degree: f64,
}

/// The workspace's one stateful push/pull switching rule (§6.3 and its
/// variants).
///
/// [`resolve_direction`] is the *storage→direction* rule `mxv` dispatches
/// on; `DirectionPolicy` is the *activity→direction* heuristic that decides
/// which storage/kernel an iterative algorithm should steer toward next.
/// Every direction-optimized loop in the workspace — BFS and parent BFS,
/// SSSP's two-phase switch, connected components, and the Ligra-like /
/// Gunrock-like comparator engines — feeds its per-iteration activity count
/// through one of these instead of hand-rolling the comparison, so the
/// Table 2 "change of direction" ablation toggles exactly one rule.
///
/// `update` takes the iteration's *activity* (frontier nnz, delta-set size,
/// frontier-edge count — whatever the traversal's work measure is) and the
/// *capacity* it is measured against (|V| or |E|), and returns the
/// direction to use this iteration.
#[derive(Clone, Debug)]
pub struct DirectionPolicy {
    mode: PolicyMode,
    dir: Direction,
    last_activity: usize,
}

impl DirectionPolicy {
    /// §6.3 hysteresis starting from push (BFS-style traversals).
    #[must_use]
    pub fn hysteresis(threshold: f64) -> Self {
        Self::hysteresis_from(Direction::Push, threshold)
    }

    /// §6.3 hysteresis from an explicit starting direction (label
    /// propagation starts dense, hence pull).
    #[must_use]
    pub fn hysteresis_from(start: Direction, threshold: f64) -> Self {
        DirectionPolicy {
            mode: PolicyMode::Hysteresis { threshold },
            dir: start,
            last_activity: 0,
        }
    }

    /// §5.6 two-phase rule: push until the activity ratio first exceeds the
    /// threshold, pull forever after.
    #[must_use]
    pub fn two_phase(threshold: f64) -> Self {
        DirectionPolicy {
            mode: PolicyMode::TwoPhase { threshold },
            dir: Direction::Push,
            last_activity: 0,
        }
    }

    /// Memoryless threshold rule: pull exactly when `activity / capacity`
    /// exceeds the threshold (Beamer/Ligra's `> |E|/20` with
    /// `threshold = 1/20`).
    #[must_use]
    pub fn memoryless(threshold: f64) -> Self {
        DirectionPolicy {
            mode: PolicyMode::Memoryless { threshold },
            dir: Direction::Push,
            last_activity: 0,
        }
    }

    /// Pinned direction (the "change of direction off" ablation arm).
    #[must_use]
    pub fn fixed(dir: Direction) -> Self {
        DirectionPolicy {
            mode: PolicyMode::Fixed,
            dir,
            last_activity: 0,
        }
    }

    /// Measured cost-model rule, starting from push (frontiers start
    /// small). Drive it with [`DirectionPolicy::update_measured`].
    #[must_use]
    pub fn cost_model(constants: crate::plan::CostConstants) -> Self {
        DirectionPolicy {
            mode: PolicyMode::CostModel { constants },
            dir: Direction::Push,
            last_activity: 0,
        }
    }

    /// Feed this iteration's activity measure; returns the direction to use.
    pub fn update(&mut self, activity: usize, capacity: usize) -> Direction {
        let r = activity as f64 / capacity.max(1) as f64;
        match self.mode {
            PolicyMode::Hysteresis { threshold } => {
                let rising = activity >= self.last_activity;
                match self.dir {
                    Direction::Push if rising && r > threshold => self.dir = Direction::Pull,
                    Direction::Pull if !rising && r < threshold => self.dir = Direction::Push,
                    _ => {}
                }
            }
            PolicyMode::TwoPhase { threshold } => {
                if self.dir == Direction::Push && r > threshold {
                    self.dir = Direction::Pull;
                }
            }
            PolicyMode::Memoryless { threshold } => {
                self.dir = if r > threshold {
                    Direction::Pull
                } else {
                    Direction::Push
                };
            }
            PolicyMode::Fixed => {}
            // The ratio alone cannot price push against pull; hold the
            // direction until measured inputs arrive via update_measured.
            PolicyMode::CostModel { .. } => {}
        }
        self.last_activity = activity;
        self.dir
    }

    /// Feed measured work estimates. Under `PolicyMode::CostModel` this
    /// prices both faces directly — `pushwork = c_push · frontier_edges`
    /// against `pullwork = c_pull · d · unvisited` — and picks the cheaper
    /// one. Every other mode ignores the measurements and delegates to
    /// [`DirectionPolicy::update`], so loops can call this unconditionally.
    pub fn update_measured(
        &mut self,
        activity: usize,
        capacity: usize,
        inputs: CostModelInputs,
    ) -> Direction {
        if let PolicyMode::CostModel { constants } = self.mode {
            // Chaos hook: inflating the push-edge cost lets the fault
            // harness force direction flips without touching the graph.
            #[cfg(feature = "fault-injection")]
            let push_edge = constants.push_edge * graphblas_primitives::fault::cost_inflation();
            #[cfg(not(feature = "fault-injection"))]
            let push_edge = constants.push_edge;
            let pushwork = push_edge * inputs.frontier_edges as f64;
            let pullwork = constants.pull_edge * inputs.avg_degree * inputs.unvisited as f64;
            self.dir = if pushwork < pullwork {
                Direction::Push
            } else {
                Direction::Pull
            };
            self.last_activity = activity;
            self.dir
        } else {
            self.update(activity, capacity)
        }
    }

    /// The direction the last `update` settled on.
    #[must_use]
    pub fn current(&self) -> Direction {
        self.dir
    }
}

/// GrB_mxv: `w = op(A) · v` under a semiring, with optional mask.
///
/// Both push and pull compute the same expression; which kernel runs is an
/// implementation decision (§4.4, §6.3):
///
/// * **Push** (sparse `v`): column kernel over the operand's transpose.
/// * **Pull** (dense `v`): row kernel; masked when a mask is supplied.
///
/// The output's storage matches the kernel (push → sparse, pull → dense),
/// so a DOBFS loop alternating directions naturally hands each iteration
/// the representation the next one wants.
///
/// ```
/// use graphblas_core::{mxv, BoolOrAnd, Descriptor, Vector};
/// use graphblas_matrix::{Coo, Graph};
///
/// // 0 → 1 → 2: one BFS step from {0} over Aᵀ lands on {1}.
/// let mut coo = Coo::new(3, 3);
/// coo.push(0, 1, true);
/// coo.push(1, 2, true);
/// let g = Graph::from_coo(&coo);
/// let f = Vector::singleton(3, false, 0, true);
/// let desc = Descriptor::new().transpose(true);
///
/// let next: Vector<bool> = mxv(None, BoolOrAnd, &g, &f, &desc, None).unwrap();
/// assert_eq!(next.iter_explicit().collect::<Vec<_>>(), vec![(1, true)]);
/// ```
pub fn mxv<A, X, Y, S>(
    mask: Option<&Mask<'_>>,
    s: S,
    graph: &Graph<A>,
    v: &Vector<X>,
    desc: &Descriptor,
    counters: Option<&AccessCounters>,
) -> GrbResult<Vector<Y>>
where
    A: Scalar,
    X: Scalar,
    Y: Scalar,
    S: Semiring<A, X, Y>,
{
    // Operand orientation: `operand` is what row-based iterates rows of;
    // its transpose is what column-based iterates rows of. Dims are
    // validated on the baseline CSR; the kernel's store is served in the
    // planned format below.
    let operand = if desc.transpose {
        graph.csr_t()
    } else {
        graph.csr()
    };
    if operand.n_cols() != v.dim() {
        return Err(GrbError::DimensionMismatch {
            context: "mxv input vector",
            expected: operand.n_cols(),
            actual: v.dim(),
        });
    }
    if let Some(m) = mask {
        if m.dim() != operand.n_rows() {
            return Err(GrbError::DimensionMismatch {
                context: "mxv mask",
                expected: operand.n_rows(),
                actual: m.dim(),
            });
        }
    }

    // Pre-flight stop poll: a limit tripped by an earlier operation in the
    // same guarded run aborts before any planning or conversion work.
    crate::exec::check_stop(counters)?;

    let identity = s.add_monoid().identity();
    // The execution plan: direction by the §6.3 storage rule (or force),
    // storage format by the planner's shape rule (or force). The face's
    // operand is then served in that format from the graph's cache, and
    // the same generic kernel runs whichever backend comes out — formats
    // change wall clock, never results or counters.
    let plan = crate::plan::resolve_plan(graph, v, desc);
    crate::plan::note_bitmap_degrade(desc, plan.format, counters);
    if let Some(c) = counters {
        match plan.direction {
            Direction::Push => c.add_push_step(),
            Direction::Pull => c.add_pull_step(),
        }
    }
    match plan.direction {
        Direction::Push => {
            let src = [PushSource { v, mask, counters }];
            let (ids, vals) = push_face(s, graph, &src, desc, plan.format, plan.shard, counters)
                .pop()
                .expect("one output per source");
            // Post-kernel poll: a checkpoint bail inside the kernel left an
            // identity-shaped partial result that must not escape.
            crate::exec::check_stop(counters)?;
            Ok(Vector::from_sparse(operand.n_rows(), identity, ids, vals))
        }
        Direction::Pull => {
            let dense_input;
            let dv = match v.as_dense() {
                Some(dv) => dv,
                None => {
                    dense_input = v.to_dense();
                    &dense_input
                }
            };
            let out =
                match crate::exec::store_budgeted(graph, desc.transpose, plan.format, counters) {
                    StoreRef::Csr(m) => pull_face(s, m, dv, mask, desc, counters),
                    StoreRef::Bitmap(m) => pull_face(s, m, dv, mask, desc, counters),
                    StoreRef::Dcsr(m) => pull_face(s, m, dv, mask, desc, counters),
                };
            // Post-kernel poll: see the push arm.
            crate::exec::check_stop(counters)?;
            Ok(Vector::Dense(out))
        }
    }
}

/// The pull face for one concrete store: the dense sink of the one pull
/// driver ([`crate::pull`]), which picks the bit-parallel reducer when the
/// planned store has a word surface and the call qualifies (see
/// `bitops::bit_pull_ctx`) — values and the projected counters are the
/// scalar kernel's bit for bit either way.
fn pull_face<A, X, Y, S, M>(
    s: S,
    op: &M,
    dv: &DenseVector<X>,
    mask: Option<&Mask<'_>>,
    desc: &Descriptor,
    counters: Option<&AccessCounters>,
) -> DenseVector<Y>
where
    A: Scalar,
    X: Scalar,
    Y: Scalar,
    S: Semiring<A, X, Y>,
    M: RowAccess<A>,
{
    let how = Reduce {
        desc: Some(desc),
        early_exit: desc.early_exit,
        first_hit: false,
    };
    pull_one(s, op, dv, mask, how, counters)
}

/// GrB_mxv with an accumulator: `w = w accum (op(A) · v)` — the `+=` form
/// of the C API. New products merge into the existing output under
/// `accum`; entries untouched by the product keep their old values.
///
/// Used by accumulating algorithms (dependency sums in betweenness,
/// batched scores) where replacing the output vector would lose state.
// The arity mirrors the GraphBLAS C signature (output, mask, accum, op,
// A, u, desc) plus the instrumentation handle; collapsing it would only
// move the argument count into an options struct at every call site.
#[allow(clippy::too_many_arguments)]
pub fn mxv_accum<A, X, Y, S, F>(
    w: &mut Vector<Y>,
    mask: Option<&Mask<'_>>,
    accum: F,
    s: S,
    graph: &Graph<A>,
    v: &Vector<X>,
    desc: &Descriptor,
    counters: Option<&AccessCounters>,
) -> GrbResult<()>
where
    A: Scalar,
    X: Scalar,
    Y: Scalar,
    S: Semiring<A, X, Y>,
    F: Fn(Y, Y) -> Y,
{
    let t: Vector<Y> = mxv(mask, s, graph, v, desc, counters)?;
    if w.dim() != t.dim() {
        return Err(GrbError::DimensionMismatch {
            context: "mxv_accum output",
            expected: t.dim(),
            actual: w.dim(),
        });
    }
    // Merge: entries explicit in t combine with w's current value.
    let fill = w.fill();
    let mut merged = w.to_dense();
    for (i, y) in t.iter_explicit() {
        let old = merged.get(i as usize);
        let new = if old == fill { y } else { accum(old, y) };
        merged.set(i as usize, new);
    }
    *w = Vector::Dense(merged);
    Ok(())
}

/// GrB_vxm: `w = v · op(A)`, the row-vector form. Equivalent to `mxv` with
/// the transpose flag flipped; provided for API fidelity with the C spec.
pub fn vxm<A, X, Y, S>(
    mask: Option<&Mask<'_>>,
    s: S,
    v: &Vector<X>,
    graph: &Graph<A>,
    desc: &Descriptor,
    counters: Option<&AccessCounters>,
) -> GrbResult<Vector<Y>>
where
    A: Scalar,
    X: Scalar,
    Y: Scalar,
    S: Semiring<A, X, Y>,
{
    let flipped = Descriptor {
        transpose: !desc.transpose,
        ..*desc
    };
    mxv(mask, s, graph, v, &flipped, counters)
}

/// Bytes of a buffer of `n` elements of `T` — the caller-thread
/// allocation charge the kernels assess before materializing outputs and
/// expansion buffers.
#[inline]
pub(crate) fn output_bytes<T>(n: usize) -> u64 {
    (n as u64) * (std::mem::size_of::<T>() as u64)
}

pub(crate) struct SendPtr<T>(pub(crate) *mut T);
unsafe impl<T> Send for SendPtr<T> {}
unsafe impl<T> Sync for SendPtr<T> {}
impl<T> SendPtr<T> {
    #[inline]
    pub(crate) fn get(&self) -> *mut T {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::descriptor::MergeStrategy;
    use crate::ops::{BoolOrAnd, BoolStructure, MinPlus, PlusTimes};
    use graphblas_matrix::{Coo, ShardGrid};
    use graphblas_primitives::BitVec;

    /// The 8-vertex example of Figure 3: frontier {B, C, D}, visited
    /// {A, B, C, D}; push/pull must both discover exactly {E, F}.
    ///
    /// Vertices: A=0, B=1, C=2, D=3, E=4, F=5, G=6, H=7.
    /// Edges (directed, child lists): B->A, B->E, C->F, D->A, D->F,
    /// E->G(reverse discovered later)… we keep it minimal: the asserted
    /// behaviour is discovery of {E=4, F=5} and exclusion of A=0.
    fn fig3_graph() -> Graph<bool> {
        let mut coo = Coo::new(8, 8);
        for &(u, c) in &[(1u32, 0u32), (1, 4), (2, 5), (3, 0), (3, 5), (6, 7)] {
            coo.push(u, c, true);
        }
        Graph::from_coo(&coo)
    }

    fn frontier_bcd() -> Vector<bool> {
        Vector::from_sparse(8, false, vec![1, 2, 3], vec![true; 3])
    }

    fn visited_abcd() -> BitVec {
        let mut b = BitVec::new(8);
        for i in 0..4 {
            b.set(i);
        }
        b
    }

    fn desc_bfs() -> Descriptor {
        // BFS multiplies by Aᵀ: children of the frontier.
        Descriptor::new().transpose(true)
    }

    #[test]
    fn push_discovers_children_with_mask() {
        let g = fig3_graph();
        let f = frontier_bcd();
        let visited = visited_abcd();
        let mask = Mask::complement(&visited);
        let desc = desc_bfs().force(Direction::Push);
        let out: Vector<bool> = mxv(Some(&mask), BoolOrAnd, &g, &f, &desc, None).expect("mxv");
        let found: Vec<u32> = out.iter_explicit().map(|(i, _)| i).collect();
        assert_eq!(found, vec![4, 5], "push finds E and F, filters A");
        assert!(out.is_sparse(), "push output stays sparse");
    }

    #[test]
    fn pull_matches_push() {
        let g = fig3_graph();
        let mut f = frontier_bcd();
        f.make_dense();
        let visited = visited_abcd();
        let mask = Mask::complement(&visited);
        let desc = desc_bfs().force(Direction::Pull);
        let out: Vector<bool> = mxv(Some(&mask), BoolOrAnd, &g, &f, &desc, None).expect("mxv");
        let found: Vec<u32> = out.iter_explicit().map(|(i, _)| i).collect();
        assert_eq!(found, vec![4, 5], "pull finds the same frontier");
        assert!(!out.is_sparse(), "pull output is dense");
    }

    #[test]
    fn auto_direction_follows_storage() {
        let g = fig3_graph();
        let desc = desc_bfs();
        let sparse_f = frontier_bcd();
        assert_eq!(resolve_direction(&sparse_f, &desc), Direction::Push);
        let mut dense_f = frontier_bcd();
        dense_f.make_dense();
        assert_eq!(resolve_direction(&dense_f, &desc), Direction::Pull);
        // And both give identical explicit sets through the full dispatcher.
        let visited = visited_abcd();
        let mask = Mask::complement(&visited);
        let a: Vector<bool> = mxv(Some(&mask), BoolOrAnd, &g, &sparse_f, &desc, None).unwrap();
        let b: Vector<bool> = mxv(Some(&mask), BoolOrAnd, &g, &dense_f, &desc, None).unwrap();
        let ea: Vec<_> = a.iter_explicit().collect();
        let eb: Vec<_> = b.iter_explicit().collect();
        assert_eq!(ea, eb);
    }

    #[test]
    fn unmasked_push_includes_already_visited() {
        let g = fig3_graph();
        let f = frontier_bcd();
        let desc = desc_bfs().force(Direction::Push);
        let out: Vector<bool> = mxv(None, BoolOrAnd, &g, &f, &desc, None).expect("mxv");
        let found: Vec<u32> = out.iter_explicit().map(|(i, _)| i).collect();
        assert_eq!(found, vec![0, 4, 5], "without the mask, A re-appears");
    }

    #[test]
    fn structure_only_path_matches_generic() {
        let g = fig3_graph();
        let f = frontier_bcd();
        let visited = visited_abcd();
        let mask = Mask::complement(&visited);
        let generic: Vector<bool> = mxv(
            Some(&mask),
            BoolOrAnd,
            &g,
            &f,
            &desc_bfs().force(Direction::Push).structure_only(false),
            None,
        )
        .unwrap();
        let structural: Vector<bool> = mxv(
            Some(&mask),
            BoolStructure,
            &g,
            &f,
            &desc_bfs().force(Direction::Push).structure_only(true),
            None,
        )
        .unwrap();
        let a: Vec<_> = generic.iter_explicit().collect();
        let b: Vec<_> = structural.iter_explicit().collect();
        assert_eq!(a, b);
    }

    #[test]
    fn spa_merge_matches_sort_based() {
        let g = fig3_graph();
        let f = frontier_bcd();
        let visited = visited_abcd();
        let mask = Mask::complement(&visited);
        let run = |strategy: MergeStrategy, masked: bool| -> Vec<(u32, bool)> {
            let out: Vector<bool> = mxv(
                masked.then_some(&mask),
                BoolOrAnd,
                &g,
                &f,
                &desc_bfs().force(Direction::Push).merge_strategy(strategy),
                None,
            )
            .unwrap();
            out.iter_explicit().collect()
        };
        for masked in [false, true] {
            assert_eq!(
                run(MergeStrategy::SpaMerge, masked),
                run(MergeStrategy::SortBased, masked),
                "masked = {masked}"
            );
        }
    }

    #[test]
    fn spa_merge_matches_sort_based_on_weighted_min_plus() {
        // Collisions under a non-trivial ⊕ (min): 0 and 1 both reach 2.
        let mut coo = Coo::new(3, 3);
        coo.push(0, 1, 2.0f64);
        coo.push(0, 2, 5.0);
        coo.push(1, 2, 1.0);
        let g = Graph::from_coo(&coo);
        let d = Vector::from_sparse(3, f64::INFINITY, vec![0, 1], vec![0.0, 2.0]);
        let desc = Descriptor::new().transpose(true).force(Direction::Push);
        let run = |strategy: MergeStrategy| -> Vec<(u32, f64)> {
            let out: Vector<f64> =
                mxv(None, MinPlus, &g, &d, &desc.merge_strategy(strategy), None).unwrap();
            out.iter_explicit().collect()
        };
        assert_eq!(run(MergeStrategy::SpaMerge), run(MergeStrategy::SortBased));
    }

    #[test]
    fn spa_merge_single_heavy_segment() {
        // One hub whose expansion exceeds the per-chunk grain: the balanced
        // boundaries collapse to a single chunk (no empty trailing chunk)
        // and the result still matches the sort-based path.
        let n = 20_000;
        let mut coo = Coo::new(n, n);
        for c in 1..n as u32 {
            coo.push(0, c, true);
        }
        let g = Graph::from_coo(&coo);
        let f = Vector::singleton(n, false, 0, true);
        let run = |strategy: MergeStrategy| -> usize {
            let out: Vector<bool> = mxv(
                None,
                BoolOrAnd,
                &g,
                &f,
                &desc_bfs().force(Direction::Push).merge_strategy(strategy),
                None,
            )
            .unwrap();
            out.nnz()
        };
        assert_eq!(run(MergeStrategy::SpaMerge), run(MergeStrategy::SortBased));
    }

    #[test]
    fn spa_merge_empty_frontier() {
        let g = fig3_graph();
        let f = Vector::new_sparse(8, false);
        let out: Vector<bool> = mxv(
            None,
            BoolOrAnd,
            &g,
            &f,
            &desc_bfs()
                .force(Direction::Push)
                .merge_strategy(MergeStrategy::SpaMerge),
            None,
        )
        .unwrap();
        assert_eq!(out.nnz(), 0);
    }

    #[test]
    fn min_plus_single_step_relaxation() {
        // Weighted digraph: 0 -2.0-> 1, 0 -5.0-> 2, 1 -1.0-> 2.
        let mut coo = Coo::new(3, 3);
        coo.push(0, 1, 2.0f64);
        coo.push(0, 2, 5.0);
        coo.push(1, 2, 1.0);
        let g = Graph::from_coo(&coo);
        // Distance vector after init: d(0)=0.
        let d = Vector::singleton(3, f64::INFINITY, 0, 0.0);
        // One relaxation step: d' = Aᵀ d (min-plus) gives 1: 2.0, 2: 5.0.
        let desc = Descriptor::new().transpose(true);
        let out: Vector<f64> = mxv(None, MinPlus, &g, &d, &desc, None).unwrap();
        assert_eq!(out.get(1), 2.0);
        assert_eq!(out.get(2), 5.0);
        assert_eq!(out.get(0), f64::INFINITY, "no in-edges to 0");
    }

    #[test]
    fn plus_times_row_kernel_is_standard_spmv() {
        // [[1,2],[0,3]] * [10, 100] = [210, 300]
        let mut coo = Coo::new(2, 2);
        coo.push(0, 0, 1.0f64);
        coo.push(0, 1, 2.0);
        coo.push(1, 1, 3.0);
        let g = Graph::from_coo(&coo);
        let x = Vector::Dense(DenseVector::from_values(vec![10.0, 100.0], 0.0));
        let out: Vector<f64> = mxv(None, PlusTimes, &g, &x, &Descriptor::new(), None).unwrap();
        assert_eq!(out.get(0), 210.0);
        assert_eq!(out.get(1), 300.0);
    }

    #[test]
    fn early_exit_does_not_change_results() {
        let g = fig3_graph();
        let mut f = frontier_bcd();
        f.make_dense();
        let visited = visited_abcd();
        let mask = Mask::complement(&visited);
        let with: Vector<bool> = mxv(
            Some(&mask),
            BoolOrAnd,
            &g,
            &f,
            &desc_bfs().force(Direction::Pull).early_exit(true),
            None,
        )
        .unwrap();
        let without: Vector<bool> = mxv(
            Some(&mask),
            BoolOrAnd,
            &g,
            &f,
            &desc_bfs().force(Direction::Pull).early_exit(false),
            None,
        )
        .unwrap();
        let a: Vec<_> = with.iter_explicit().collect();
        let b: Vec<_> = without.iter_explicit().collect();
        assert_eq!(a, b);
    }

    #[test]
    fn early_exit_reduces_matrix_accesses() {
        // Row with many parents, all in the frontier: early exit stops at 1.
        let n = 100;
        let mut coo = Coo::new(n, n);
        for p in 0..n - 1 {
            coo.push(p as u32, (n - 1) as u32, true); // everyone -> last
        }
        let g = Graph::from_coo(&coo);
        let mut f = Vector::from_sparse(n, false, (0..(n - 1) as u32).collect(), vec![true; n - 1]);
        f.make_dense();
        let visited = {
            let mut b = BitVec::new(n);
            for i in 0..n - 1 {
                b.set(i);
            }
            b
        };
        let mask = Mask::complement(&visited);
        let count = |ee: bool| {
            let c = AccessCounters::new();
            let _: Vector<bool> = mxv(
                Some(&mask),
                BoolOrAnd,
                &g,
                &f,
                &desc_bfs().force(Direction::Pull).early_exit(ee),
                Some(&c),
            )
            .unwrap();
            c.snapshot().matrix
        };
        let with = count(true);
        let without = count(false);
        assert_eq!(with, 1, "first parent found immediately");
        assert_eq!(without, (n - 1) as u64, "no early exit scans all parents");
    }

    #[test]
    fn mask_active_list_reduces_mask_accesses() {
        let g = fig3_graph();
        let mut f = frontier_bcd();
        f.make_dense();
        let visited = visited_abcd();
        let unvisited: Vec<u32> = vec![4, 5, 6, 7];
        let with_list = {
            let c = AccessCounters::new();
            let mask = Mask::complement(&visited).with_active_list(&unvisited);
            let _: Vector<bool> = mxv(
                Some(&mask),
                BoolOrAnd,
                &g,
                &f,
                &desc_bfs().force(Direction::Pull),
                Some(&c),
            )
            .unwrap();
            c.snapshot().mask
        };
        let without_list = {
            let c = AccessCounters::new();
            let mask = Mask::complement(&visited);
            let _: Vector<bool> = mxv(
                Some(&mask),
                BoolOrAnd,
                &g,
                &f,
                &desc_bfs().force(Direction::Pull),
                Some(&c),
            )
            .unwrap();
            c.snapshot().mask
        };
        assert_eq!(with_list, 4);
        assert_eq!(without_list, 8);
    }

    #[test]
    fn dimension_mismatch_is_reported() {
        let g = fig3_graph();
        let short = Vector::new_sparse(5, false);
        let r: GrbResult<Vector<bool>> = mxv(None, BoolOrAnd, &g, &short, &Descriptor::new(), None);
        assert!(matches!(r, Err(GrbError::DimensionMismatch { .. })));
        let bad_bits = BitVec::new(3);
        let bad_mask = Mask::new(&bad_bits);
        let f = frontier_bcd();
        let r: GrbResult<Vector<bool>> =
            mxv(Some(&bad_mask), BoolOrAnd, &g, &f, &Descriptor::new(), None);
        assert!(matches!(r, Err(GrbError::DimensionMismatch { .. })));
    }

    #[test]
    fn vxm_equals_mxv_on_transpose() {
        let g = fig3_graph();
        let f = frontier_bcd();
        // vxm(f, A) = mxv(Aᵀ, f).
        let a: Vector<bool> = vxm(None, BoolOrAnd, &f, &g, &Descriptor::new(), None).unwrap();
        let b: Vector<bool> = mxv(
            None,
            BoolOrAnd,
            &g,
            &f,
            &Descriptor::new().transpose(true),
            None,
        )
        .unwrap();
        let ea: Vec<_> = a.iter_explicit().collect();
        let eb: Vec<_> = b.iter_explicit().collect();
        assert_eq!(ea, eb);
    }

    #[test]
    fn empty_frontier_yields_empty_output() {
        let g = fig3_graph();
        let f = Vector::new_sparse(8, false);
        let out: Vector<bool> = mxv(
            None,
            BoolOrAnd,
            &g,
            &f,
            &desc_bfs().force(Direction::Push),
            None,
        )
        .unwrap();
        assert_eq!(out.nnz(), 0);
    }

    #[test]
    fn accum_merges_instead_of_replacing() {
        // Weighted counts: accumulate in-neighbor contributions into an
        // existing tally (min-plus style on plus-times data).
        let mut coo = Coo::new(3, 3);
        coo.push(0, 1, 1.0f64);
        coo.push(0, 2, 1.0);
        let g = Graph::from_coo(&coo);
        // Existing state: w = [10, 20, 0-as-fill].
        let mut w = Vector::from_sparse(3, 0.0f64, vec![0, 1], vec![10.0, 20.0]);
        let x = Vector::singleton(3, 0.0f64, 0, 5.0);
        // Aᵀx over plus-times: t(1) = 5, t(2) = 5.
        mxv_accum(
            &mut w,
            None,
            |a, b| a + b,
            PlusTimes,
            &g,
            &x,
            &Descriptor::new().transpose(true),
            None,
        )
        .unwrap();
        assert_eq!(w.get(0), 10.0, "untouched entries keep state");
        assert_eq!(w.get(1), 25.0, "accumulated");
        assert_eq!(w.get(2), 5.0, "fill slots adopt the product");
    }

    #[test]
    fn accum_dimension_mismatch_reported() {
        let g = fig3_graph();
        let mut w: Vector<bool> = Vector::new_sparse(5, false);
        let f = frontier_bcd();
        let r = mxv_accum(
            &mut w,
            None,
            |a, b| a || b,
            BoolOrAnd,
            &g,
            &f,
            &desc_bfs(),
            None,
        );
        assert!(matches!(r, Err(GrbError::DimensionMismatch { .. })));
    }

    #[test]
    fn hysteresis_policy_switches_both_ways() {
        let mut p = DirectionPolicy::hysteresis(0.01);
        // Small rising frontier below threshold: stay push.
        assert_eq!(p.update(1, 1000), Direction::Push);
        assert_eq!(p.update(5, 1000), Direction::Push);
        // Rising above threshold: switch to pull.
        assert_eq!(p.update(100, 1000), Direction::Pull);
        // Still large: stay pull even while falling.
        assert_eq!(p.update(90, 1000), Direction::Pull);
        // Falling below threshold: back to push.
        assert_eq!(p.update(5, 1000), Direction::Push);
        // Small but *rising* below threshold: hysteresis keeps push.
        assert_eq!(p.update(8, 1000), Direction::Push);
        assert_eq!(p.current(), Direction::Push);
    }

    #[test]
    fn two_phase_policy_never_returns() {
        let mut p = DirectionPolicy::two_phase(0.01);
        assert_eq!(p.update(1, 1000), Direction::Push);
        assert_eq!(p.update(100, 1000), Direction::Pull);
        // Tiny delta set again — two-phase stays pull (§5.6).
        assert_eq!(p.update(1, 1000), Direction::Pull);
    }

    #[test]
    fn memoryless_policy_follows_ratio_exactly() {
        let mut p = DirectionPolicy::memoryless(1.0 / 20.0);
        assert_eq!(p.update(1, 1000), Direction::Push);
        assert_eq!(p.update(51, 1000), Direction::Pull);
        assert_eq!(p.update(50, 1000), Direction::Push, "boundary is strict >");
    }

    #[test]
    fn fixed_policy_ignores_activity() {
        let mut p = DirectionPolicy::fixed(Direction::Pull);
        assert_eq!(p.update(0, 10), Direction::Pull);
        assert_eq!(p.update(10, 10), Direction::Pull);
    }

    #[test]
    fn hysteresis_from_pull_handles_dense_start() {
        // CC starts with a dense (all-active) delta: first update must not
        // bounce to push even though the ratio is high.
        let mut p = DirectionPolicy::hysteresis_from(Direction::Pull, 0.01);
        assert_eq!(p.update(1000, 1000), Direction::Pull);
        // Delta collapses: falling below threshold switches to push.
        assert_eq!(p.update(3, 1000), Direction::Push);
    }

    /// Seeded LCG graph on `n` vertices, ~`deg` out-edges each, f64
    /// weights — irregular enough that stripe boundaries cut through rows.
    fn lcg_graph(n: u32, deg: u32, seed: u64) -> Graph<f64> {
        let mut state = seed | 1;
        let mut step = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let mut coo = Coo::new(n as usize, n as usize);
        for u in 0..n {
            for _ in 0..deg {
                let v = (step() % u64::from(n)) as u32;
                let w = (step() % 7) as f64 + 0.5;
                coo.push(u, v, w);
            }
        }
        coo.dedup(|a, b| a + b);
        Graph::from_coo(&coo)
    }

    fn lcg_frontier(n: u32, nnz: usize, seed: u64) -> Vector<f64> {
        let mut state = seed | 1;
        let mut step = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let mut ids: Vec<u32> = (0..n).collect();
        for i in (1..ids.len()).rev() {
            ids.swap(i, (step() % (i as u64 + 1)) as usize);
        }
        ids.truncate(nnz);
        ids.sort_unstable();
        let vals = ids.iter().map(|_| (step() % 5) as f64 + 1.0).collect();
        Vector::from_sparse(n as usize, 0.0, ids, vals)
    }

    /// The scrub for counter-identity assertions: shard telemetry describes
    /// the merge topology (which sharding deliberately changes), everything
    /// else — accesses, steps, sort, alloc — must match bit for bit.
    fn scrub_telemetry(
        s: graphblas_primitives::counters::CounterSnapshot,
    ) -> graphblas_primitives::counters::CounterSnapshot {
        let mut s = s;
        s.shard_merges = 0;
        s.cross_shard_writes = 0;
        s
    }

    #[test]
    fn sharded_push_matches_unsharded_oracle() {
        // f64 ⊕ is order-sensitive: bit-identical sums prove the stripe
        // decomposition preserves the oracle's per-destination ⊕ order,
        // not merely the set of outputs. n = 65 keeps stripe widths
        // non-divisible; the 1×1 grid exercises the degenerate stripe.
        let g = lcg_graph(65, 6, 0xC0FFEE);
        let f = lcg_frontier(65, 17, 42);
        let base = Descriptor::new()
            .force(Direction::Push)
            .merge_strategy(MergeStrategy::SpaMerge);
        let oracle_c = AccessCounters::new();
        let oracle: Vector<f64> = mxv(None, PlusTimes, &g, &f, &base, Some(&oracle_c)).unwrap();
        for (rs, cs) in [(1u32, 1u32), (2, 4), (4, 4), (1, 16)] {
            let c = AccessCounters::new();
            let desc = base.shard_grid(ShardGrid::new(rs, cs));
            let out: Vector<f64> = mxv(None, PlusTimes, &g, &f, &desc, Some(&c)).unwrap();
            assert_eq!(
                out.iter_explicit().collect::<Vec<_>>(),
                oracle.iter_explicit().collect::<Vec<_>>(),
                "values must be bit-identical at grid {rs}x{cs}"
            );
            assert_eq!(
                scrub_telemetry(c.snapshot()),
                scrub_telemetry(oracle_c.snapshot()),
                "counters must be bit-identical at grid {rs}x{cs}"
            );
        }
    }

    #[test]
    fn sharded_push_populates_telemetry_outside_total() {
        let g = lcg_graph(64, 5, 7);
        let f = lcg_frontier(64, 20, 9);
        let c = AccessCounters::new();
        let desc = Descriptor::new()
            .force(Direction::Push)
            .merge_strategy(MergeStrategy::SpaMerge)
            .shard_grid(ShardGrid::new(1, 4));
        let _: Vector<f64> = mxv(None, PlusTimes, &g, &f, &desc, Some(&c)).unwrap();
        let s = c.snapshot();
        assert!(s.shard_merges > 0, "stripe merges must be recorded");
        assert!(
            s.cross_shard_writes > 0,
            "an LCG frontier writes outside its own stripe"
        );
        assert_eq!(
            s.total(),
            s.accesses_only().total(),
            "telemetry never counts as an access"
        );
        // The unsharded oracle records no shard telemetry at all.
        let c0 = AccessCounters::new();
        let desc0 = Descriptor::new()
            .force(Direction::Push)
            .merge_strategy(MergeStrategy::SpaMerge);
        let _: Vector<f64> = mxv(None, PlusTimes, &g, &f, &desc0, Some(&c0)).unwrap();
        assert_eq!(c0.snapshot().shard_merges, 0);
        assert_eq!(c0.snapshot().cross_shard_writes, 0);
    }

    #[test]
    fn sharded_push_handles_empty_stripes() {
        // Every push destination (the A-row of each edge) lands below 16 in
        // a 64-wide output: with a 1×4 grid, stripes 1..4 harvest nothing
        // and must contribute nothing.
        let mut coo = Coo::new(64, 64);
        let mut state = 0xBADCAB1Eu64;
        for u in 0..64u32 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            coo.push((state >> 33) as u32 % 16, u, 1.0f64);
        }
        let g = Graph::from_coo(&coo);
        let f = lcg_frontier(64, 13, 3);
        let base = Descriptor::new()
            .force(Direction::Push)
            .merge_strategy(MergeStrategy::SpaMerge);
        let oracle: Vector<f64> = mxv(None, PlusTimes, &g, &f, &base, None).unwrap();
        let c = AccessCounters::new();
        let out: Vector<f64> = mxv(
            None,
            PlusTimes,
            &g,
            &f,
            &base.shard_grid(ShardGrid::new(1, 4)),
            Some(&c),
        )
        .unwrap();
        assert_eq!(
            out.iter_explicit().collect::<Vec<_>>(),
            oracle.iter_explicit().collect::<Vec<_>>()
        );
        assert_eq!(
            c.snapshot().shard_merges,
            1,
            "only the populated stripe merges"
        );
    }
}
