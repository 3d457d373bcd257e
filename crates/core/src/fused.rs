//! Fused masked-mxv pipelines: `mxv · apply · assign` as one kernel pass.
//!
//! Every traversal in this workspace follows the same per-iteration shape —
//! a masked [`mxv`](crate::mxv), an elementwise `apply` on the surviving
//! entries, and a `GrB_assign` that folds them into long-lived algorithm
//! state (depths, parents, labels, distances, ranks). Composed from the
//! separate GraphBLAS operations, every iteration materializes at least one
//! intermediate [`Vector`]: the pull face allocates and fills a dense
//! `O(M)` buffer just so the caller can re-scan it for explicit entries,
//! and the push face builds a sparse vector the caller immediately tears
//! back apart. GraphBLAST (Yang, Buluç & Owens 2019) identifies exactly
//! this *kernel fusion* as the co-equal optimization next to masking, and
//! lazy-evaluation GraphBLAS layers (e.g. nonblocking-mode Julia
//! GraphBLAS) expose it by deferring execution until the whole chain is
//! known.
//!
//! [`FusedMxv`] is that lazy layer, scaled to this workspace: a builder
//! that records the matvec operands, the mask, the unary `apply`, and the
//! `assign` destination, then compiles the chain into a **single pass over
//! the chosen kernel face** when the terminal
//! [`assign_into`](FusedPipeline::assign_into) runs:
//!
//! * **Pull** (row kernel): the one pull driver runs with an apply +
//!   assign sink — each row chunk reduces its rows, applies the unary op,
//!   and writes survivors straight into the caller's state slice, so the
//!   dense intermediate never exists. With
//!   [`first_hit_exit`](FusedMxv::first_hit_exit), a row's neighbor scan
//!   additionally stops at the *first* explicit input hit — parent-BFS's
//!   per-row early exit, a win the unfused path cannot express because
//!   `min`'s annihilator (vertex id 0) almost never occurs.
//! * **Push** (column kernel): the one push driver runs exactly as for
//!   [`mxv`](crate::mxv) (same [`MergeStrategy`](crate::MergeStrategy),
//!   same counters), and apply + assign consume its sorted `(ids, vals)`
//!   parts directly — the sparse output vector is never built.
//!
//! Direction resolution, [`DirectionPolicy`](crate::DirectionPolicy)
//! interplay, and the [`AccessCounters`] contract are unchanged: a fused
//! call charges **exactly** the accesses its unfused composition would
//! (same kernels, same bookkeeping), records its push/pull decision the
//! same way, and additionally tallies the intermediate writes it skipped
//! in the `fused_saved_writes` counter — so
//! `snapshot().accesses_only()` of a fused run equals the unfused run's
//! bit-for-bit, which `tests/fused_pipelines.rs` pins at 1, 2, and 8
//! lanes.

use crate::descriptor::{Descriptor, Direction};
use crate::error::{GrbError, GrbResult};
use crate::mask::Mask;
use crate::ops::{Monoid, Scalar, Semiring};
use crate::ops_mxv::SendPtr;
use crate::pull::{pull, PullSink, PullSource, Reduce};
use crate::push::{push_face, PushSource};
use crate::vector::Vector;
use graphblas_matrix::{Graph, StoreRef, VertexId};
use graphblas_primitives::counters::AccessCounters;
use std::marker::PhantomData;

/// Result of a fused pipeline execution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FusedOutput {
    /// Indices whose state slot the `assign` stage wrote, ascending — for a
    /// traversal, the next frontier.
    pub touched: Vec<VertexId>,
}

/// Lazy builder for a fused `mxv · apply · assign` chain.
///
/// Nothing executes until the terminal
/// [`assign_into`](FusedPipeline::assign_into); until then the builder just
/// records operands, so constructing one is free and the kernel face (push
/// or pull) is resolved at execution time by the same
/// [`resolve_direction`](crate::resolve_direction) rule as
/// [`mxv`](crate::mxv) — the paper's Optimization 1 composes with fusion
/// unchanged.
///
/// ```
/// use graphblas_core::{BoolOrAnd, Descriptor, FusedMxv, Mask, Vector};
/// use graphblas_matrix::{Coo, Graph};
/// use graphblas_primitives::BitVec;
///
/// // 0 → 1 → 2; one fused BFS step from {0} writes depth 1 at vertex 1
/// // without materializing the frontier-product vector.
/// let mut coo = Coo::new(3, 3);
/// coo.push(0, 1, true);
/// coo.push(1, 2, true);
/// let g = Graph::from_coo(&coo);
/// let f = Vector::singleton(3, false, 0, true);
/// let mut visited = BitVec::new(3);
/// visited.set(0);
/// let mask = Mask::complement(&visited);
///
/// let mut depth = vec![-1i32; 3];
/// depth[0] = 0;
/// let out = FusedMxv::new(BoolOrAnd, &g, &f)
///     .mask(&mask)
///     .descriptor(Descriptor::new().transpose(true))
///     .apply(|_reached: bool| 1i32)
///     .assign_into(&mut depth, |_old, d| Some(d))
///     .unwrap();
/// assert_eq!(out.touched, vec![1]);
/// assert_eq!(depth, vec![0, 1, -1]);
/// ```
#[derive(Clone, Copy)]
pub struct FusedMxv<'a, A: Scalar, X: Scalar, S> {
    s: S,
    graph: &'a Graph<A>,
    input: &'a Vector<X>,
    mask: Option<&'a Mask<'a>>,
    desc: Descriptor,
    counters: Option<&'a AccessCounters>,
    first_hit_exit: bool,
    keep_identity: bool,
    collect_touched: bool,
}

impl<'a, A: Scalar, X: Scalar, S> FusedMxv<'a, A, X, S> {
    /// Start a pipeline computing `op(graph) · input` under semiring `s`
    /// (orientation and direction come from the [`Descriptor`], exactly as
    /// in [`mxv`](crate::mxv)).
    #[must_use]
    pub fn new(s: S, graph: &'a Graph<A>, input: &'a Vector<X>) -> Self {
        Self {
            s,
            graph,
            input,
            mask: None,
            desc: Descriptor::new(),
            counters: None,
            first_hit_exit: false,
            keep_identity: false,
            collect_touched: true,
        }
    }

    /// Attach an output mask (with the same kernel-face asymmetry as
    /// [`mxv`](crate::mxv): it prunes pull rows, and only filters push
    /// output).
    #[must_use]
    pub fn mask(mut self, m: &'a Mask<'a>) -> Self {
        self.mask = Some(m);
        self
    }

    /// Set the operation descriptor (transpose, direction policy,
    /// early-exit, merge strategy, …).
    #[must_use]
    pub fn descriptor(mut self, d: Descriptor) -> Self {
        self.desc = d;
        self
    }

    /// Attach access counters. The fused execution charges exactly what the
    /// unfused `mxv` would, plus `fused_saved_writes`.
    #[must_use]
    pub fn counters(mut self, c: Option<&'a AccessCounters>) -> Self {
        self.counters = c;
        self
    }

    /// Stop each pull row's neighbor scan at the **first** explicit input
    /// hit, using that single product as the row's reduction.
    ///
    /// Correctness contract (the caller's obligation): the first hit must
    /// equal the full ⊕-reduction of the row. That holds whenever products
    /// are non-decreasing in neighbor-scan order under a `min` monoid — in
    /// particular for parent BFS, where the frontier carries each vertex's
    /// *own id* as its value and neighbor lists are ascending, so the first
    /// explicit parent *is* the minimum one. Ignored by the push face
    /// (its expansion already touches only frontier columns).
    #[must_use]
    pub fn first_hit_exit(mut self, on: bool) -> Self {
        self.first_hit_exit = on;
        self
    }

    /// Run `apply`/`assign` for **every** mask-allowed pull row, including
    /// rows whose reduction is the ⊕ identity (implicit zeros).
    ///
    /// This mirrors how a dense-output consumer like PageRank reads its
    /// unfused intermediate: `contrib.get(i)` over the active set returns
    /// the fill for zero-inflow rows, and the update still runs. Push
    /// output has no implicit slots, so the flag only affects pull steps.
    #[must_use]
    pub fn keep_identity(mut self, on: bool) -> Self {
        self.keep_identity = on;
        self
    }

    /// Whether to collect the assigned indices into
    /// [`FusedOutput::touched`] (default `true`).
    ///
    /// Turn this off when the assigned set is known a priori — e.g. a
    /// [`keep_identity`](FusedMxv::keep_identity) consumer that assigns
    /// every allowed row — so the pipeline skips building an index list
    /// the caller would discard. With it off, `touched` comes back empty.
    #[must_use]
    pub fn collect_touched(mut self, on: bool) -> Self {
        self.collect_touched = on;
        self
    }

    /// Add the elementwise stage: every surviving matvec output entry is
    /// mapped through `f` before the `assign`. Use the identity closure
    /// when the algorithm consumes raw products (CC and SSSP do).
    #[must_use]
    pub fn apply<Y, Z, F>(self, f: F) -> FusedPipeline<'a, A, X, Y, Z, S, F>
    where
        Y: Scalar,
        Z: Scalar,
        F: Fn(Y) -> Z,
    {
        FusedPipeline {
            base: self,
            apply: f,
            _types: PhantomData,
        }
    }
}

/// A [`FusedMxv`] with its `apply` stage attached; run it with
/// [`assign_into`](FusedPipeline::assign_into).
pub struct FusedPipeline<'a, A: Scalar, X: Scalar, Y, Z, S, F> {
    base: FusedMxv<'a, A, X, S>,
    apply: F,
    _types: PhantomData<fn(Y) -> Z>,
}

impl<A, X, Y, Z, S, F> FusedPipeline<'_, A, X, Y, Z, S, F>
where
    A: Scalar,
    X: Scalar,
    Y: Scalar,
    Z: Scalar,
    S: Semiring<A, X, Y>,
    F: Fn(Y) -> Z + Sync + Send,
{
    /// Execute the chain, assigning into `state` (one slot per output
    /// vertex): for each surviving entry `(i, y)` of the masked matvec,
    /// `update(state[i], apply(y))` decides the write — `Some(z)` stores
    /// `z` and records `i` in [`FusedOutput::touched`], `None` leaves the
    /// slot alone. `update` is the fused `GrB_assign`(-with-accumulator):
    /// always-write for BFS, write-if-smaller for CC/SSSP relaxations.
    ///
    /// Runs the push or pull kernel face per
    /// [`resolve_direction`](crate::resolve_direction); pull chunks write
    /// `state` directly in parallel (rows are disjoint across chunks), push
    /// assigns from the merged harvest — neither face materializes an
    /// intermediate [`Vector`].
    ///
    /// An attached mask's active list must honor the
    /// [`Mask::with_active_list`] contract (strictly ascending, hence
    /// unique, and in range — asserted by the pull driver, which panics
    /// otherwise): the pull face partitions the list across workers and
    /// writes each listed row's state slot without synchronization.
    pub fn assign_into<U>(self, state: &mut [Z], update: U) -> GrbResult<FusedOutput>
    where
        U: Fn(Z, Z) -> Option<Z> + Sync + Send,
    {
        let FusedPipeline { base, apply, .. } = self;
        // Dims are validated on the baseline CSR; the executed face's
        // store is served in the planned format below.
        let operand = if base.desc.transpose {
            base.graph.csr_t()
        } else {
            base.graph.csr()
        };
        if operand.n_cols() != base.input.dim() {
            return Err(GrbError::DimensionMismatch {
                context: "fused mxv input vector",
                expected: operand.n_cols(),
                actual: base.input.dim(),
            });
        }
        if let Some(m) = base.mask {
            if m.dim() != operand.n_rows() {
                return Err(GrbError::DimensionMismatch {
                    context: "fused mxv mask",
                    expected: operand.n_rows(),
                    actual: m.dim(),
                });
            }
        }
        if state.len() != operand.n_rows() {
            return Err(GrbError::DimensionMismatch {
                context: "fused assign state",
                expected: operand.n_rows(),
                actual: state.len(),
            });
        }

        // Pre-flight stop poll, as in `mxv`.
        crate::exec::check_stop(base.counters)?;

        // Same planner as `mxv`: direction by the §6.3 storage rule,
        // storage format by the shape rule (or the descriptor's forces).
        let plan = crate::plan::resolve_plan(base.graph, base.input, &base.desc);
        crate::plan::note_bitmap_degrade(&base.desc, plan.format, base.counters);
        if let Some(c) = base.counters {
            match plan.direction {
                Direction::Push => c.add_push_step(),
                Direction::Pull => c.add_pull_step(),
            }
        }
        match plan.direction {
            Direction::Push => {
                let src = [PushSource {
                    v: base.input,
                    mask: base.mask,
                    counters: base.counters,
                }];
                let (ids, vals) = push_face(
                    base.s,
                    base.graph,
                    &src,
                    &base.desc,
                    plan.format,
                    plan.shard,
                    base.counters,
                )
                .pop()
                .expect("one output per source");
                // Post-kernel poll: a checkpoint bail upstream leaves
                // partial parts, which must not reach the caller's state.
                crate::exec::check_stop(base.counters)?;
                if let Some(c) = base.counters {
                    // The unfused composition would write each filtered
                    // entry into a sparse output vector the caller
                    // immediately re-reads.
                    c.add_fused_saved_writes(ids.len() as u64);
                }
                let mut touched =
                    Vec::with_capacity(if base.collect_touched { ids.len() } else { 0 });
                for (&i, &y) in ids.iter().zip(&vals) {
                    if let Some(next) = update(state[i as usize], apply(y)) {
                        state[i as usize] = next;
                        if base.collect_touched {
                            touched.push(i);
                        }
                    }
                }
                Ok(FusedOutput { touched })
            }
            Direction::Pull => {
                let dense_input;
                let dv = match base.input.as_dense() {
                    Some(dv) => dv,
                    None => {
                        dense_input = base.input.to_dense();
                        &dense_input
                    }
                };
                let sink = AssignSink {
                    state: SendPtr(state.as_mut_ptr()),
                    apply: &apply,
                    update: &update,
                    identity: base.s.add_monoid().identity(),
                    keep_identity: base.keep_identity,
                    collect_touched: base.collect_touched,
                };
                let src = [PullSource {
                    v: dv,
                    mask: base.mask,
                    counters: base.counters,
                }];
                // Early exit applies to masked pulls only (the driver's
                // rule); first-hit exit is the caller's stronger opt-in.
                let how = Reduce {
                    desc: Some(&base.desc),
                    early_exit: base.desc.early_exit,
                    first_hit: base.first_hit_exit,
                };
                if let Some(c) = base.counters {
                    // The unfused composition materializes (and
                    // identity-fills) a dense n-slot output buffer every
                    // pull step; fusion skips all of it.
                    c.add_fused_saved_writes(state.len() as u64);
                }
                let parts = match crate::exec::store_budgeted(
                    base.graph,
                    base.desc.transpose,
                    plan.format,
                    base.counters,
                ) {
                    StoreRef::Csr(m) => pull(base.s, m, &src, how, &sink),
                    StoreRef::Bitmap(m) => pull(base.s, m, &src, how, &sink),
                    StoreRef::Dcsr(m) => pull(base.s, m, &src, how, &sink),
                };
                // Post-kernel poll: see the push arm.
                crate::exec::check_stop(base.counters)?;
                let touched = parts.concat();
                debug_assert!(touched.windows(2).all(|w| w[0] < w[1]), "touched sorted");
                Ok(FusedOutput { touched })
            }
        }
    }
}

/// Pull-face sink: each reduced row is applied and assigned straight into
/// the caller's state slice — the `O(M)` dense intermediate of the unfused
/// row kernel is never allocated. Identity rows are skipped unless the
/// consumer keeps them; each chunk collects the rows it assigned, and the
/// driver returns the chunks in row order, so `touched` comes back sorted
/// and identical at any lane count.
struct AssignSink<'f, Y, Z, F, U> {
    state: SendPtr<Z>,
    apply: &'f F,
    update: &'f U,
    identity: Y,
    keep_identity: bool,
    collect_touched: bool,
}

impl<Y, Z, F, U> PullSink<Y> for AssignSink<'_, Y, Z, F, U>
where
    Y: Scalar,
    Z: Scalar,
    F: Fn(Y) -> Z + Sync,
    U: Fn(Z, Z) -> Option<Z> + Sync,
{
    type Part = Vec<VertexId>;

    fn keeps_identity(&self) -> bool {
        self.keep_identity
    }

    unsafe fn put(&self, _j: usize, i: usize, y: Y, touched: &mut Vec<VertexId>) {
        if self.keep_identity || y != self.identity {
            let z = (self.apply)(y);
            // SAFETY: the driver puts each row at most once and in bounds,
            // so reads/writes of state[i] are disjoint across workers.
            let slot = unsafe { self.state.get().add(i) };
            if let Some(next) = (self.update)(unsafe { *slot }, z) {
                unsafe { *slot = next };
                if self.collect_touched {
                    touched.push(i as VertexId);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::descriptor::MergeStrategy;
    use crate::ops::{BoolOrAnd, MinSecond};
    use crate::{mxv, Mask};
    use graphblas_matrix::Coo;
    use graphblas_primitives::BitVec;

    /// Figure 3's shape: frontier {1,2,3}, visited {0,1,2,3}, children to
    /// discover {4,5}.
    fn fig3_graph() -> Graph<bool> {
        let mut coo = Coo::new(8, 8);
        for &(u, c) in &[(1u32, 0u32), (1, 4), (2, 5), (3, 0), (3, 5), (6, 7)] {
            coo.push(u, c, true);
        }
        Graph::from_coo(&coo)
    }

    fn setup() -> (Vector<bool>, BitVec) {
        let f = Vector::from_sparse(8, false, vec![1, 2, 3], vec![true; 3]);
        let mut visited = BitVec::new(8);
        for i in 0..4 {
            visited.set(i);
        }
        (f, visited)
    }

    fn bfs_desc() -> Descriptor {
        Descriptor::new().transpose(true)
    }

    /// The unfused composition a fused call must match: mxv, then apply +
    /// assign as plain loops over the explicit output entries.
    fn unfused_step(
        g: &Graph<bool>,
        f: &Vector<bool>,
        mask: &Mask<'_>,
        desc: &Descriptor,
        depth: &mut [i32],
        counters: Option<&AccessCounters>,
    ) -> Vec<u32> {
        let w: Vector<bool> = mxv(Some(mask), BoolOrAnd, g, f, desc, counters).unwrap();
        let mut touched = Vec::new();
        for (i, _) in w.iter_explicit() {
            depth[i as usize] = 1;
            touched.push(i);
        }
        touched
    }

    #[test]
    fn fused_matches_unfused_both_faces() {
        let g = fig3_graph();
        let (mut f, visited) = setup();
        for dir in [Direction::Push, Direction::Pull] {
            if dir == Direction::Pull {
                f.make_dense();
            }
            let mask = Mask::complement(&visited);
            let desc = bfs_desc().force(dir);

            let mut d_unfused = vec![-1i32; 8];
            let cu = AccessCounters::new();
            let expect = unfused_step(&g, &f, &mask, &desc, &mut d_unfused, Some(&cu));

            let mut d_fused = vec![-1i32; 8];
            let cf = AccessCounters::new();
            let got = FusedMxv::new(BoolOrAnd, &g, &f)
                .mask(&mask)
                .descriptor(desc)
                .counters(Some(&cf))
                .apply(|_: bool| 1i32)
                .assign_into(&mut d_fused, |_, z| Some(z))
                .unwrap();

            assert_eq!(got.touched, expect, "{dir:?} touched set");
            assert_eq!(d_fused, d_unfused, "{dir:?} state");
            assert_eq!(
                cf.snapshot().accesses_only(),
                cu.snapshot().accesses_only(),
                "{dir:?} counters"
            );
            assert!(cf.snapshot().fused_saved_writes > 0, "{dir:?} saved writes");
            assert_eq!(cu.snapshot().fused_saved_writes, 0);
        }
    }

    #[test]
    fn fused_push_honors_merge_strategy() {
        let g = fig3_graph();
        let (f, visited) = setup();
        let mask = Mask::complement(&visited);
        let run = |strategy: MergeStrategy| {
            let mut d = vec![-1i32; 8];
            let out = FusedMxv::new(BoolOrAnd, &g, &f)
                .mask(&mask)
                .descriptor(bfs_desc().force(Direction::Push).merge_strategy(strategy))
                .apply(|_: bool| 1i32)
                .assign_into(&mut d, |_, z| Some(z))
                .unwrap();
            (out.touched, d)
        };
        let reference = run(MergeStrategy::SortBased);
        assert_eq!(run(MergeStrategy::SpaMerge), reference);
    }

    #[test]
    fn update_rule_rejections_stay_out_of_touched() {
        // No mask; the update rule itself filters already-visited slots —
        // the fused form of the Table 2 "masking off" post-filter.
        let g = fig3_graph();
        let (f, _) = setup();
        let mut d = vec![-1i32; 8];
        d[0] = 0; // 0 is "visited": raw mxv re-discovers it, update rejects.
        let out = FusedMxv::new(BoolOrAnd, &g, &f)
            .descriptor(bfs_desc().force(Direction::Push))
            .apply(|_: bool| 1i32)
            .assign_into(&mut d, |old, z| (old == -1).then_some(z))
            .unwrap();
        assert_eq!(out.touched, vec![4, 5], "0 rejected by the update rule");
        assert_eq!(d[0], 0, "rejected slot untouched");
    }

    #[test]
    fn first_hit_exit_matches_full_reduction_for_min_parent() {
        // Star into vertex 0: every frontier vertex is a candidate parent;
        // the first explicit hit in ascending scan order IS the min parent.
        let n = 64;
        let mut coo = Coo::new(n, n);
        for p in 1..n as u32 {
            coo.push(p, 0, true);
        }
        let g = Graph::from_coo(&coo);
        let ids: Vec<u32> = (3..n as u32).collect();
        let mut f = Vector::from_sparse(n, u32::MAX, ids.clone(), ids);
        f.make_dense();
        let visited = BitVec::new(n);
        let mask = Mask::complement(&visited);
        let run = |first_hit: bool| {
            let c = AccessCounters::new();
            let mut parent = vec![u32::MAX; n];
            let out = FusedMxv::new(MinSecond, &g, &f)
                .mask(&mask)
                .descriptor(bfs_desc().force(Direction::Pull))
                .counters(Some(&c))
                .first_hit_exit(first_hit)
                .apply(|p: u32| p)
                .assign_into(&mut parent, |_, p| Some(p))
                .unwrap();
            (out.touched, parent, c.snapshot().matrix)
        };
        let (t_full, p_full, m_full) = run(false);
        let (t_hit, p_hit, m_hit) = run(true);
        assert_eq!(t_hit, t_full);
        assert_eq!(p_hit, p_full);
        assert_eq!(p_hit[0], 3, "minimum-id parent");
        assert!(
            m_hit < m_full,
            "first-hit exit must cut matrix traffic: {m_hit} vs {m_full}"
        );
    }

    #[test]
    fn keep_identity_assigns_implicit_zero_rows() {
        let g = fig3_graph();
        let mut f = Vector::from_sparse(8, false, vec![1], vec![true]);
        f.make_dense();
        // Unmasked pull with keep_identity: every row is assigned, even
        // rows with no frontier parent (reduction = identity = false).
        let mut hits = vec![-1i32; 8];
        let out = FusedMxv::new(BoolOrAnd, &g, &f)
            .descriptor(bfs_desc().force(Direction::Pull))
            .keep_identity(true)
            .apply(|reached: bool| i32::from(reached))
            .assign_into(&mut hits, |_, z| Some(z))
            .unwrap();
        assert_eq!(out.touched.len(), 8, "every row assigned");
        assert_eq!(hits[0], 1, "child of 1");
        assert_eq!(hits[2], 0, "no frontier parent, identity still applied");
    }

    #[test]
    fn dimension_mismatches_reported() {
        let g = fig3_graph();
        let (f, visited) = setup();
        let mut full_state = [0i32; 8];
        let mut short_state = [0i32; 5];

        let short = Vector::<bool>::new_sparse(5, false);
        let r = FusedMxv::new(BoolOrAnd, &g, &short)
            .apply(|_: bool| 0i32)
            .assign_into(&mut full_state, |_, z| Some(z));
        assert!(matches!(r, Err(GrbError::DimensionMismatch { .. })));

        let bad_bits = BitVec::new(3);
        let bad_mask = Mask::new(&bad_bits);
        let r = FusedMxv::new(BoolOrAnd, &g, &f)
            .mask(&bad_mask)
            .apply(|_: bool| 0i32)
            .assign_into(&mut full_state, |_, z| Some(z));
        assert!(matches!(r, Err(GrbError::DimensionMismatch { .. })));

        let mask = Mask::complement(&visited);
        let r = FusedMxv::new(BoolOrAnd, &g, &f)
            .mask(&mask)
            .apply(|_: bool| 0i32)
            .assign_into(&mut short_state, |_, z| Some(z));
        assert!(matches!(r, Err(GrbError::DimensionMismatch { .. })));
    }

    #[test]
    fn collect_touched_off_still_assigns() {
        let g = fig3_graph();
        let (mut f, visited) = setup();
        f.make_dense();
        let mask = Mask::complement(&visited);
        let mut d = vec![-1i32; 8];
        let out = FusedMxv::new(BoolOrAnd, &g, &f)
            .mask(&mask)
            .descriptor(bfs_desc().force(Direction::Pull))
            .collect_touched(false)
            .apply(|_: bool| 1i32)
            .assign_into(&mut d, |_, z| Some(z))
            .unwrap();
        assert!(out.touched.is_empty(), "index list skipped on request");
        assert_eq!(d[4], 1, "state still assigned");
        assert_eq!(d[5], 1);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn duplicate_active_list_is_rejected_in_release_too() {
        // The unsynchronized output and caller-state writes rely on list
        // uniqueness; a duplicated row must be refused, not raced on, by
        // every pull sink.
        let g = fig3_graph();
        let (mut f, visited) = setup();
        f.make_dense();
        let dup = [4u32, 4];
        let mask = Mask::complement(&visited).with_active_list(&dup);
        let desc = bfs_desc().force(Direction::Pull);
        let refused = |run: &dyn Fn()| {
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(run))
                .expect_err("a malformed active list must panic");
            let msg = err
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| err.downcast_ref::<String>().cloned())
                .unwrap_or_default();
            assert!(msg.contains("strictly ascending"), "panic message: {msg}");
        };
        // An id past the output dimension is refused the same way.
        let past_end = [4u32, 8];
        let wide = Mask::complement(&visited).with_active_list(&past_end);
        for m in [&mask, &wide] {
            refused(&|| {
                let _: Vector<bool> = mxv(Some(m), BoolOrAnd, &g, &f, &desc, None).unwrap();
            });
            refused(&|| {
                let batch = crate::MultiVector::from_rows(vec![f.clone()]);
                let _: crate::MultiVector<bool> = crate::mxv_batch(
                    Some(std::slice::from_ref(m)),
                    BoolOrAnd,
                    &g,
                    &batch,
                    &desc,
                    None,
                    None,
                )
                .unwrap();
            });
        }
        let mut d = vec![-1i32; 8];
        let _ = FusedMxv::new(BoolOrAnd, &g, &f)
            .mask(&mask)
            .descriptor(bfs_desc().force(Direction::Pull))
            .apply(|_: bool| 1i32)
            .assign_into(&mut d, |_, z| Some(z));
    }

    #[test]
    fn empty_frontier_is_a_no_op() {
        let g = fig3_graph();
        let f = Vector::<bool>::new_sparse(8, false);
        let c = AccessCounters::new();
        let mut d = vec![-1i32; 8];
        let out = FusedMxv::new(BoolOrAnd, &g, &f)
            .descriptor(bfs_desc().force(Direction::Push))
            .counters(Some(&c))
            .apply(|_: bool| 1i32)
            .assign_into(&mut d, |_, z| Some(z))
            .unwrap();
        assert!(out.touched.is_empty());
        assert!(d.iter().all(|&x| x == -1));
        assert_eq!(c.snapshot().matrix, 0);
    }
}
