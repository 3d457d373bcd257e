//! The one push driver: every column-based (push) matvec — unfused
//! [`mxv`](crate::mxv), the fused pipeline's push face, every push row of
//! [`mxv_batch`](crate::mxv_batch), and the public column kernels — runs
//! as a list of **sources** × one **merge**. This is Algorithm 3: expand
//! the frontier's columns, resolve collisions, and only then filter by the
//! mask (Fig. 4d — a mask never reduces push work).
//!
//! * **Source** — a sparse frontier, an optional output mask, and the
//!   counters its charges land on (its own set in an attributed batch, the
//!   shared set otherwise). Per source the driver polls the entry
//!   checkpoint, charges the frontier read (`vector += nnz`), merges, then
//!   filters ([`filter_col_output`]).
//! * **Merge** — how colliding products resolve, chosen once per call by
//!   [`Merge::choose`]: key-value radix sort + segmented reduce; the
//!   structure-only claim pass; word-wise OR over a bitmap store's row
//!   words; per-chunk SPAs + deterministic k-way merge; or the SPA merge
//!   blocked into column stripes of a [`ShardPlan`].
//! * **Grid** — the SPA and bit merges cut every source's frontier into
//!   expansion-balanced chunks ([`spa_chunk_ranges`], bounds from sizes
//!   only) and drain all `(source, chunk)` items from one flat list, so a
//!   single source is the `k = 1` grid. The two differ only in the
//!   per-chunk accumulator (a private [`Spa`] or a word buffer) and the
//!   per-source fold (k-way merge in chunk order, or word OR). The claim
//!   and sort merges run source by source on the calling thread; the
//!   sharded merge runs sources in order, each parallel across stripes.
//!
//! Every merge charges the counters its scalar reference charges, so
//! values and access counts are identical across merges that agree on a
//! call, and across lane counts (chunk layouts never depend on lanes).

use crate::descriptor::{Descriptor, MergeStrategy};
use crate::mask::Mask;
use crate::ops::{Monoid, Scalar, Semiring};
use crate::ops_mxv::{output_bytes, SendPtr};
use crate::vector::{SparseVector, Vector};
use graphblas_matrix::{Graph, RowAccess, ShardGrid, ShardPlan, StorageFormat, StoreRef};
use graphblas_primitives::counters::AccessCounters;
use graphblas_primitives::{gather, merge, pool, scan, segreduce, sort, Spa};
use rayon::prelude::*;
use std::ops::Range;
use std::sync::Arc;

/// Expanded products each grid chunk should own.
const SPA_GRAIN: usize = 8192;

/// Ceiling on grid chunks per source — each SPA chunk holds an `O(M)`
/// accumulator.
const MAX_SPAS: usize = 16;

/// One source of a push: its frontier (`V` is a [`Vector`] at the
/// dispatcher's face, a [`SparseVector`] inside the driver), optional
/// output mask, and the counters its charges land on.
pub(crate) struct PushSource<'a, V> {
    pub(crate) v: &'a V,
    pub(crate) mask: Option<&'a Mask<'a>>,
    pub(crate) counters: Option<&'a AccessCounters>,
}

/// One source's output: ascending ids and their values.
pub(crate) type Parts<Y> = (Vec<u32>, Vec<Y>);

/// How colliding products resolve.
#[derive(Clone, Copy)]
pub(crate) enum Merge<'p, Y> {
    /// Algorithm 3: expand (key, product) pairs, radix sort, reduce.
    Sort,
    /// Structure-only: every product is the hint, so a claim bitmap
    /// dedups the keys (charged as the key-only sort).
    Claim(Y),
    /// Structure-only over a store with row words: OR each frontier row's
    /// word span (charged as the key-only sort).
    Bit(Y),
    /// Per-chunk SPAs, folded by the k-way merge in chunk order.
    Spa,
    /// The SPA merge with collisions resolved inside column stripes.
    Sharded(&'p ShardPlan),
}

impl<'p, Y: Scalar> Merge<'p, Y> {
    /// The merge a call runs. [`MergeStrategy::SortBased`] takes the bit
    /// arm when the descriptor allows bit kernels under `structure_only`,
    /// the store has row words and the semiring a product hint; the claim
    /// arm under `structure_only` plus a hint; the key-value sort
    /// otherwise. [`MergeStrategy::SpaMerge`] is sharded when the plan
    /// carries a grid.
    pub(crate) fn choose<A, X, S, M>(
        s: S,
        op_t: &M,
        desc: &Descriptor,
        shard: Option<&'p ShardPlan>,
    ) -> Self
    where
        A: Scalar,
        X: Scalar,
        S: Semiring<A, X, Y>,
        M: RowAccess<A>,
    {
        match desc.merge_strategy {
            MergeStrategy::SortBased => match desc.structure_only.then(|| s.product_hint()) {
                Some(Some(h)) if desc.bit_kernels && op_t.has_row_words() => Merge::Bit(h),
                Some(Some(h)) => Merge::Claim(h),
                _ => Merge::Sort,
            },
            MergeStrategy::SpaMerge => shard.map_or(Merge::Spa, Merge::Sharded),
        }
    }
}

/// The push face of every dispatcher: convert each input to sparse, serve
/// the transpose-of-operand in the planned `format` (conversion metered on
/// the shared `counters`), resolve the shard plan, choose the merge, and
/// push all inputs as one call's sources.
pub(crate) fn push_face<A, X, Y, S>(
    s: S,
    graph: &Graph<A>,
    inputs: &[PushSource<'_, Vector<X>>],
    desc: &Descriptor,
    format: StorageFormat,
    shard: Option<ShardGrid>,
    counters: Option<&AccessCounters>,
) -> Vec<Parts<Y>>
where
    A: Scalar,
    X: Scalar,
    Y: Scalar,
    S: Semiring<A, X, Y>,
{
    let owned: Vec<Option<SparseVector<X>>> = inputs
        .iter()
        .map(|i| i.v.as_sparse().is_none().then(|| i.v.to_sparse()))
        .collect();
    let sources: Vec<PushSource<'_, SparseVector<X>>> = inputs
        .iter()
        .zip(&owned)
        .map(|(i, o)| PushSource {
            v: o.as_ref()
                .or(i.v.as_sparse())
                .expect("sparse by construction"),
            mask: i.mask,
            counters: i.counters,
        })
        .collect();
    // The column kernel iterates rows of the transpose-of-operand; that
    // side is what the shard grid partitions.
    let side = !desc.transpose;
    let plan = shard.map(|grid| shard_plan_for(graph, side, grid));
    let shard = plan.as_deref();
    match crate::exec::store_budgeted(graph, side, format, counters) {
        StoreRef::Csr(m) => push(s, m, &sources, Merge::choose(s, m, desc, shard)),
        StoreRef::Bitmap(m) => push(s, m, &sources, Merge::choose(s, m, desc, shard)),
        StoreRef::Dcsr(m) => push(s, m, &sources, Merge::choose(s, m, desc, shard)),
    }
}

/// The [`ShardPlan`] a resolved grid executes with: the graph's cached
/// default-budget plan when the grids agree (the `Auto` path, one Arc
/// clone), an ad-hoc plan over the baseline CSR otherwise (`Fixed` grids).
/// Stripe boundaries depend only on the operand shape and the grid, so a
/// plan built from the CSR is valid for whatever store format runs.
fn shard_plan_for<A: Scalar>(graph: &Graph<A>, side: bool, grid: ShardGrid) -> Arc<ShardPlan> {
    let cached = graph.shard_plan(side);
    if cached.grid() == grid {
        return Arc::clone(cached);
    }
    let store = if side { graph.csr_t() } else { graph.csr() };
    Arc::new(ShardPlan::with_grid(store, grid))
}

/// Run one push: per source, the entry checkpoint and frontier read, the
/// merge, and the mask filter. Returns each source's sorted parts in
/// source order; a source whose counters stopped comes back empty.
pub(crate) fn push<A, X, Y, S, M>(
    s: S,
    op_t: &M,
    sources: &[PushSource<'_, SparseVector<X>>],
    merge: Merge<'_, Y>,
) -> Vec<Parts<Y>>
where
    A: Scalar,
    X: Scalar,
    Y: Scalar,
    S: Semiring<A, X, Y>,
    M: RowAccess<A>,
{
    let live: Vec<bool> = sources
        .iter()
        .map(|src| {
            if let Some(m) = src.mask {
                assert_eq!(m.dim(), op_t.n_rows(), "mask must cover output dim");
            }
            // Entry checkpoint: the source's pre-expansion boundary.
            let live = crate::exec::live(src.counters);
            if let (true, Some(c)) = (live, src.counters) {
                c.add_vector(src.v.nnz() as u64);
            }
            live
        })
        .collect();
    let identity = s.add_monoid().identity();
    let finish = |src: &PushSource<'_, SparseVector<X>>, (mut ids, mut vals): Parts<Y>| {
        filter_col_output(&mut ids, &mut vals, src.mask, identity, src.counters);
        (ids, vals)
    };
    match merge {
        Merge::Spa => grid(
            op_t,
            sources,
            &live,
            |c, total| {
                // One matrix access per product; one SPA scatter per
                // product plus the harvest.
                c.add_matrix(total as u64);
                c.add_vector(2 * total as u64);
            },
            |v, segs, _| spa_harvest(s, op_t, v, segs),
            |src, parts| finish(src, spa_merge_parts(s.add_monoid(), parts, src.counters)),
        ),
        Merge::Bit(hint) => {
            let wpr = op_t.n_cols().div_ceil(64);
            grid(
                op_t,
                sources,
                &live,
                |c, total| {
                    // The claim merge's charges: the modeled expansion and
                    // key-only radix sort. The words the bit merge really
                    // touches show up in `bit_word_ops` only.
                    c.add_matrix(total as u64);
                    c.add_sort(total as u64 * sort::passes_for(max_key(op_t)) as u64);
                },
                |v, segs, c| or_rows(op_t, &v.ids()[segs], wpr, c),
                |src, parts| finish(src, bit_fold(parts, wpr, hint, src.counters)),
            )
        }
        Merge::Sort | Merge::Claim(_) | Merge::Sharded(_) => sources
            .iter()
            .zip(&live)
            .map(|(src, &live)| {
                if !live {
                    return (Vec::new(), Vec::new());
                }
                let (v, c) = (src.v, src.counters);
                let parts = match merge {
                    Merge::Claim(hint) => claim_merge(op_t, v, hint, c),
                    Merge::Sharded(plan) => sharded_merge(s, op_t, v, plan, c),
                    _ => sort_merge(s, op_t, v, c),
                };
                finish(src, parts)
            })
            .collect(),
    }
}

/// Mask filter (lines 17–24 of Algorithm 3) and identity drop, in place.
/// Entries whose reduced value equals the ⊕ identity are implicit zeros
/// and are not materialized.
fn filter_col_output<Y: Scalar>(
    ids: &mut Vec<u32>,
    vals: &mut Vec<Y>,
    mask: Option<&Mask<'_>>,
    identity: Y,
    counters: Option<&AccessCounters>,
) {
    if let (Some(c), Some(_)) = (counters, mask) {
        c.add_mask(ids.len() as u64);
    }
    let mut write = 0usize;
    for read in 0..ids.len() {
        let keep = vals[read] != identity && mask.is_none_or(|m| m.allows(ids[read] as usize));
        if keep {
            ids[write] = ids[read];
            vals[write] = vals[read];
            write += 1;
        }
    }
    ids.truncate(write);
    vals.truncate(write);
}

/// The `(source, chunk)` grid of the SPA and bit merges: per live source,
/// the expansion offsets, the bulk `charge` of its `total` products, and
/// its [`spa_chunk_ranges`]; then every chunk harvested from one flat list
/// (each behind its own checkpoint); then each source's parts folded in
/// chunk order.
fn grid<A, X, Y, M, P>(
    op_t: &M,
    sources: &[PushSource<'_, SparseVector<X>>],
    live: &[bool],
    charge: impl Fn(&AccessCounters, usize),
    harvest: impl Fn(&SparseVector<X>, Range<usize>, Option<&AccessCounters>) -> P + Sync,
    fold: impl Fn(&PushSource<'_, SparseVector<X>>, &[P]) -> Parts<Y> + Sync,
) -> Vec<Parts<Y>>
where
    A: Scalar,
    X: Scalar,
    Y: Scalar,
    M: RowAccess<A>,
    P: Send + Sync + Default,
{
    let mut items: Vec<(usize, Range<usize>)> = Vec::new();
    let mut starts = vec![0usize];
    for (j, src) in sources.iter().enumerate() {
        if live[j] {
            let (offsets, total) = expansion_offsets(op_t, src.v);
            if let Some(c) = src.counters {
                charge(c, total);
            }
            items.extend(
                spa_chunk_ranges(&offsets, total)
                    .into_iter()
                    .map(|r| (j, r)),
            );
        }
        starts.push(items.len());
    }
    let parts: Vec<P> = items
        .into_par_iter()
        .map(|(j, segs)| {
            let src = &sources[j];
            // Per-chunk checkpoint before the chunk's accumulator exists.
            if !crate::exec::live(src.counters) {
                return P::default();
            }
            harvest(src.v, segs, src.counters)
        })
        .collect();
    (0..sources.len())
        .into_par_iter()
        .map(|j| {
            if !live[j] {
                return (Vec::new(), Vec::new());
            }
            fold(&sources[j], &parts[starts[j]..starts[j + 1]])
        })
        .collect()
}

/// Scatter offsets over the frontier's selected rows (CSR-style, trailing
/// total) and the expanded product count.
fn expansion_offsets<A, X, M>(op_t: &M, v: &SparseVector<X>) -> (Vec<usize>, usize)
where
    A: Scalar,
    X: Scalar,
    M: RowAccess<A>,
{
    let lengths: Vec<usize> = v.ids().iter().map(|&k| op_t.degree(k as usize)).collect();
    let offsets = scan::exclusive_scan_offsets(&lengths);
    let total = *offsets.last().expect("non-empty offsets");
    (offsets, total)
}

/// Expansion-balanced chunk boundaries over frontier segments: each chunk
/// owns ≈ [`SPA_GRAIN`] expanded products, at most [`MAX_SPAS`] chunks. An
/// empty frontier has no chunks.
fn spa_chunk_ranges(offsets: &[usize], total: usize) -> Vec<Range<usize>> {
    let pieces = (total / SPA_GRAIN).clamp(1, MAX_SPAS);
    let n_seg = offsets.len() - 1;
    let mut bounds = vec![0usize];
    for j in 1..pieces {
        let target = total * j / pieces;
        let idx = offsets.partition_point(|&o| o < target).min(n_seg);
        if idx > *bounds.last().expect("non-empty bounds") {
            bounds.push(idx);
        }
    }
    // Guard against a duplicate trailing bound: an empty (n_seg, n_seg)
    // chunk would still allocate and drain a full O(M) SPA for zero work.
    if *bounds.last().expect("non-empty bounds") != n_seg {
        bounds.push(n_seg);
    }
    bounds.windows(2).map(|w| w[0]..w[1]).collect()
}

/// The SPA accumulator: scatter frontier segments `segs` into a private
/// [`Spa`] in frontier order and harvest the sorted (row, value) pairs.
fn spa_harvest<A, X, Y, S, M>(
    s: S,
    op_t: &M,
    v: &SparseVector<X>,
    segs: Range<usize>,
) -> Vec<(u32, Y)>
where
    A: Scalar,
    X: Scalar,
    Y: Scalar,
    S: Semiring<A, X, Y>,
    M: RowAccess<A>,
{
    let add = s.add_monoid();
    let mut spa = Spa::new(op_t.n_rows(), add.identity());
    for seg in segs {
        let (src, x) = (v.ids()[seg] as usize, v.vals()[seg]);
        let avals = op_t.row_values(src);
        for (idx, &j) in op_t.row(src).iter().enumerate() {
            spa.accumulate(j, s.mult(avals[idx], x), |a, b| add.op(a, b));
        }
    }
    spa.drain_sorted_pairs()
}

/// The SPA fold: combine one source's chunk harvests by the deterministic
/// k-way merge in chunk order — its tie-breaking by list order groups the
/// ⊕ operands exactly as a left-to-right walk of each chunk — charging the
/// merge's sort traffic.
fn spa_merge_parts<Y, M>(
    add: M,
    parts: &[Vec<(u32, Y)>],
    counters: Option<&AccessCounters>,
) -> Parts<Y>
where
    Y: Scalar,
    M: Monoid<Y>,
{
    if let Some(c) = counters {
        let merged_in: usize = parts.iter().map(Vec::len).sum();
        c.add_sort((merged_in as f64 * (parts.len().max(2) as f64).log2()) as u64);
    }
    let refs: Vec<&[(u32, Y)]> = parts.iter().map(Vec::as_slice).collect();
    merge::multiway_merge_reduce(&refs, |a, b| add.op(a, b))
        .into_iter()
        .unzip()
}

/// The bit accumulator: OR each frontier row's word span into a fresh
/// `wpr`-word buffer, charging the words touched. A row without a word
/// surface (gating and store state disagree) scatters its columns bit by
/// bit instead — the scalar-equivalent fallback, no panic.
fn or_rows<A, M>(op_t: &M, ids: &[u32], wpr: usize, counters: Option<&AccessCounters>) -> Vec<u64>
where
    A: Scalar,
    M: RowAccess<A>,
{
    let mut buf = vec![0u64; wpr];
    let mut word_ops = 0u64;
    for &id in ids {
        let cols = op_t.row(id as usize);
        let (Some(&first), Some(&last)) = (cols.first(), cols.last()) else {
            continue;
        };
        let (w0, w1) = (first as usize / 64, last as usize / 64);
        match op_t.row_word_span(id as usize) {
            Some((start, rw)) => {
                // The row's stored columns all fall inside its tile window,
                // so `w0..=w1 ⊆ start..start + rw.len()`.
                for (slot, &r) in buf[w0..=w1].iter_mut().zip(&rw[w0 - start..]) {
                    *slot |= r;
                }
                word_ops += (w1 - w0 + 1) as u64;
            }
            None => {
                for &j in cols {
                    buf[j as usize / 64] |= 1u64 << (j % 64);
                }
            }
        }
    }
    if let Some(c) = counters {
        c.add_bit_word_ops(word_ops);
    }
    buf
}

/// The bit fold: OR one source's word buffers in chunk order and read off
/// the set bits, every value the product hint.
fn bit_fold<Y: Scalar>(
    parts: &[Vec<u64>],
    wpr: usize,
    hint: Y,
    counters: Option<&AccessCounters>,
) -> Parts<Y> {
    let mut union = vec![0u64; wpr];
    for part in parts {
        for (u, &p) in union.iter_mut().zip(part) {
            *u |= p;
        }
    }
    if let Some(c) = counters {
        // Word-wise chunk fold plus the output-extraction scan.
        c.add_bit_word_ops((parts.len() as u64 + 1) * wpr as u64);
    }
    let mut ids = Vec::new();
    for (g, &w) in union.iter().enumerate() {
        let mut bits = w;
        while bits != 0 {
            ids.push((g * 64 + bits.trailing_zeros() as usize) as u32);
            bits &= bits - 1;
        }
    }
    let vals = vec![hint; ids.len()];
    (ids, vals)
}

/// Largest output row id, the radix sort's key bound.
fn max_key<A: Scalar, M: RowAccess<A>>(op_t: &M) -> u32 {
    op_t.n_rows().max(1) as u32 - 1
}

/// The claim merge: walk each frontier row, test-and-set every column in a
/// scratch bitmap, and keep a column only the first time it is claimed;
/// then sort the unique keys. Yields exactly what expand → sort → dedup
/// does, without materializing or sorting the duplicates, and charges what
/// the key-only sort would (§5.5). Serial: a parallel `fetch_or` claim
/// measured slower.
fn claim_merge<A, X, Y, M>(
    op_t: &M,
    v: &SparseVector<X>,
    hint: Y,
    counters: Option<&AccessCounters>,
) -> Parts<Y>
where
    A: Scalar,
    X: Scalar,
    Y: Scalar,
    M: RowAccess<A>,
{
    let total: usize = v.ids().iter().map(|&k| op_t.degree(k as usize)).sum();
    if let Some(c) = counters {
        c.add_matrix(total as u64);
    }
    // Caller-thread charge for Algorithm 3's bare-key expansion buffer:
    // the modeled traffic, metered even though the claim pass never
    // materializes it.
    if !crate::exec::charge_alloc(counters, output_bytes::<u32>(total)) {
        return (Vec::new(), Vec::new());
    }
    if let Some(c) = counters {
        c.add_sort(total as u64 * sort::passes_for(max_key(op_t)) as u64);
    }
    let mut claimed = vec![0u64; op_t.n_cols().div_ceil(64)];
    let mut keys = Vec::new();
    for &src in v.ids() {
        for &j in op_t.row(src as usize) {
            let (word, bit) = (&mut claimed[j as usize / 64], 1u64 << (j % 64));
            if *word & bit == 0 {
                *word |= bit;
                keys.push(j);
            }
        }
    }
    keys.sort_unstable();
    let vals = vec![hint; keys.len()];
    (keys, vals)
}

/// The sort merge (Algorithm 3): expand the selected rows into a flat
/// (row id, product) pair list, radix sort it by key, and reduce runs of
/// equal keys. The key-value sort moves twice the data of a key-only sort
/// — the factor `structure_only` removes.
fn sort_merge<A, X, Y, S, M>(
    s: S,
    op_t: &M,
    v: &SparseVector<X>,
    counters: Option<&AccessCounters>,
) -> Parts<Y>
where
    A: Scalar,
    X: Scalar,
    Y: Scalar,
    S: Semiring<A, X, Y>,
    M: RowAccess<A>,
{
    let add = s.add_monoid();
    let (offsets, total) = expansion_offsets(op_t, v);
    if let Some(c) = counters {
        c.add_matrix(total as u64);
    }
    // Caller-thread charge for both expansion buffers (keys + products).
    let bytes = output_bytes::<u32>(total) + output_bytes::<Y>(total);
    if !crate::exec::charge_alloc(counters, bytes) {
        return (Vec::new(), Vec::new());
    }
    let mut keys = vec![0u32; total];
    let mut prods: Vec<Y> = vec![add.identity(); total];
    let kp = SendPtr(keys.as_mut_ptr());
    let pp = SendPtr(prods.as_mut_ptr());
    let (ids, xs) = (v.ids(), v.vals());
    gather::interval_gather(&offsets, pool::DEFAULT_GRAIN, |seg, within, pos| {
        let src = ids[seg] as usize;
        let j = op_t.row(src)[within];
        let a = op_t.row_values(src)[within];
        // SAFETY: positions partition 0..total; writes are disjoint.
        unsafe {
            *kp.get().add(pos) = j;
            *pp.get().add(pos) = s.mult(a, xs[seg]);
        }
    });
    let max_key = max_key(op_t);
    if let Some(c) = counters {
        c.add_sort(2 * total as u64 * sort::passes_for(max_key) as u64);
    }
    sort::sort_pairs(&mut keys, &mut prods, max_key);
    segreduce::segmented_reduce_by_key(&keys, &prods, |a, b| add.op(a, b))
}

/// The sharded merge: the SPA merge over the **same** expansion-balanced
/// chunks, but with collisions resolved inside *column stripes*. Each
/// stripe owns one windowed [`Spa`] slab sized to the stripe width (the
/// cache block); every chunk scatters only the products whose destination
/// falls inside the stripe (two binary searches per sorted row find the
/// sub-slice), and the chunk harvests merge *within the stripe* in chunk
/// order. The output is the concatenation of the stripes, globally sorted
/// because stripe ranges ascend.
///
/// Bit-exact with the SPA merge in values and access counters: an output
/// row lives in exactly one stripe and its chunk partials carry the same
/// products in the same order; matrix/vector traffic is charged in bulk
/// from the same expansion total, and the merge's sort traffic **once
/// globally** from the total merged-in length and the chunk count
/// (charging per stripe would break bit-identity through `f64`
/// truncation).
///
/// One indivisible task per stripe ([`pool::par_map_shards`]): the worker
/// that takes a stripe owns every write into its slab, so results
/// recombine in stripe order at any lane count. Stripe-local merges and
/// the products that crossed stripes are tallied in the `shard_merges` /
/// `cross_shard_writes` telemetry counters.
fn sharded_merge<A, X, Y, S, M>(
    s: S,
    op_t: &M,
    v: &SparseVector<X>,
    plan: &ShardPlan,
    counters: Option<&AccessCounters>,
) -> Parts<Y>
where
    A: Scalar,
    X: Scalar,
    Y: Scalar,
    S: Semiring<A, X, Y>,
    M: RowAccess<A>,
{
    if v.nnz() == 0 {
        return (Vec::new(), Vec::new());
    }
    let (offsets, total) = expansion_offsets(op_t, v);
    if let Some(c) = counters {
        c.add_matrix(total as u64);
        c.add_vector(2 * total as u64);
    }
    let chunks = spa_chunk_ranges(&offsets, total);
    let (ids, xs) = (v.ids(), v.vals());
    let add = s.add_monoid();
    // Per stripe: its merged (id, value) run, merged-in length, and
    // products that crossed into it.
    type StripeOut<Y> = (Vec<(u32, Y)>, u64, u64);
    let stripes: Vec<StripeOut<Y>> = pool::par_map_shards(plan.n_col_stripes(), |st| {
        // Per-stripe checkpoint before the slab is built.
        let window = plan.col_range(st);
        if !crate::exec::live(counters) || window.is_empty() {
            return (Vec::new(), 0, 0);
        }
        let (lo, hi) = (window.start as u32, window.end as u32);
        let mut spa = Spa::windowed(window, add.identity());
        let mut cross = 0u64;
        let mut parts: Vec<Vec<(u32, Y)>> = Vec::with_capacity(chunks.len());
        for segs in &chunks {
            for seg in segs.clone() {
                let src = ids[seg] as usize;
                let cols = op_t.row(src);
                let p0 = cols.partition_point(|&j| j < lo);
                let p1 = p0 + cols[p0..].partition_point(|&j| j < hi);
                if p0 == p1 {
                    continue;
                }
                if plan.col_stripe_of(src) != st {
                    cross += (p1 - p0) as u64;
                }
                let avals = op_t.row_values(src);
                for idx in p0..p1 {
                    spa.accumulate(cols[idx], s.mult(avals[idx], xs[seg]), |a, b| add.op(a, b));
                }
            }
            parts.push(spa.drain_sorted_pairs());
        }
        let merged_in: u64 = parts.iter().map(|p| p.len() as u64).sum();
        let refs: Vec<&[(u32, Y)]> = parts.iter().map(Vec::as_slice).collect();
        let merged = merge::multiway_merge_reduce(&refs, |a, b| add.op(a, b));
        (merged, merged_in, cross)
    });
    if let Some(c) = counters {
        let merged_in: u64 = stripes.iter().map(|(_, m, _)| m).sum();
        c.add_sort((merged_in as f64 * (chunks.len().max(2) as f64).log2()) as u64);
        c.add_shard_merges(stripes.iter().filter(|(_, m, _)| *m > 0).count() as u64);
        c.add_cross_shard_writes(stripes.iter().map(|(_, _, x)| x).sum());
    }
    stripes
        .into_iter()
        .flat_map(|(merged, _, _)| merged)
        .unzip()
}
