//! The one pull driver: every row-based (pull) matvec — unfused
//! [`mxv`](crate::mxv), the fused pipeline's pull face, and every pull row
//! of [`mxv_batch`](crate::mxv_batch) — runs as a row **extent** × a
//! per-row **reducer** × an output **sink** over one flat
//! `(source, row-chunk)` grid.
//!
//! * **Extent** — the rows a source computes, resolved once per source by
//!   one rule for every sink, with its bulk charges: an attached active
//!   list (`mask += len`); else, under a mask (`mask += n`), the live
//!   64-row groups of a [`UnvisitedIndex`] when a bit reducer runs and all
//!   rows filtered by [`Mask::allows`] otherwise; else, unmasked, the
//!   store's non-empty rows when it tracks them and the sink drops
//!   identity rows (`vector += n − len`, the skipped rows' `examined + 1`
//!   touch), all rows otherwise.
//! * **Reducer** — chosen once per source: the scalar [`reduce_row`], the
//!   word-wise `bit_reduce_row`, or the first-hit pair
//!   ([`reduce_row_first_hit`] / `bit_reduce_row_first_hit`). The per-row
//!   [`exec::live`](crate::exec) checkpoint sits here, in front of every
//!   reducer, so a tripped limit stops any pull within one row's work.
//! * **Sink** — where a reduced row goes: the dense output buffers of the
//!   unfused and batched pulls ([`DenseSink`]), or the fused apply +
//!   assign into caller state.
//!
//! The grid is [`pool::grid_chunks`]`(lens, ROW_GRAIN)`; for one source it
//! is exactly `index_chunks(len, ROW_GRAIN)`, so single-source is the
//! `k = 1` batch. Chunk bounds derive from extent sizes only, so values,
//! counters and per-chunk sink output are identical at every lane count.

use crate::bitops::{BitPull, FrontierWords, UnvisitedIndex};
use crate::descriptor::Descriptor;
use crate::mask::Mask;
use crate::ops::{Monoid, Scalar, Semiring};
use crate::ops_mxv::{output_bytes, SendPtr, ROW_GRAIN};
use crate::vector::DenseVector;
use graphblas_matrix::RowAccess;
use graphblas_primitives::counters::AccessCounters;
use graphblas_primitives::pool;
use rayon::prelude::*;
use std::ops::Range;

/// One source of a pull: its dense input, optional output mask, and the
/// counters its row-scoped charges land on (its own set in an attributed
/// batch, the shared set otherwise).
pub(crate) struct PullSource<'a, X> {
    pub(crate) v: &'a DenseVector<X>,
    pub(crate) mask: Option<&'a Mask<'a>>,
    pub(crate) counters: Option<&'a AccessCounters>,
}

/// How rows reduce, shared by every source of one pull.
#[derive(Clone, Copy)]
pub(crate) struct Reduce<'d> {
    /// The dispatcher's descriptor, which gates the bit reducers; `None`
    /// (the descriptor-less public kernels) keeps every row scalar.
    pub(crate) desc: Option<&'d Descriptor>,
    /// Stop a masked row at the ⊕ annihilator (Algorithm 2, line 8).
    /// Unmasked sources ignore it, as the dispatchers always have.
    pub(crate) early_exit: bool,
    /// Stop every row at its first explicit input hit — the
    /// [`FusedMxv::first_hit_exit`](crate::FusedMxv::first_hit_exit)
    /// contract.
    pub(crate) first_hit: bool,
}

/// Where reduced rows go.
pub(crate) trait PullSink<Y>: Sync {
    /// What one grid chunk hands back; the driver returns them in grid
    /// order.
    type Part: Send + Default;

    /// Whether rows that reduce to the ⊕ identity must reach the sink (a
    /// `keep_identity` consumer), which rules out the non-empty-row skip.
    fn keeps_identity(&self) -> bool;

    /// Store row `i` of source `j`.
    ///
    /// # Safety
    ///
    /// Each `(j, i)` is put at most once per pull and `i` is below the
    /// output dimension, so concurrent puts never touch the same slot.
    unsafe fn put(&self, j: usize, i: usize, y: Y, part: &mut Self::Part);
}

/// The dense-output sink of unfused and batched pulls: one identity-filled
/// `n`-slot buffer per source, written in place.
pub(crate) struct DenseSink<Y> {
    outs: Vec<Vec<Y>>,
    ptrs: Vec<SendPtr<Y>>,
}

impl<Y: Scalar> DenseSink<Y> {
    /// Charge and allocate `k` output buffers of `n` slots: one
    /// caller-thread charge for all of them, or one per source when the
    /// batch is attributed (a denied source then trips only its own
    /// counters, and its rows bail at the per-row checkpoint). `None` when
    /// the shared charge is denied.
    pub(crate) fn new(
        k: usize,
        n: usize,
        identity: Y,
        counters: Option<&AccessCounters>,
        row_counters: Option<&[&AccessCounters]>,
    ) -> Option<Self> {
        match row_counters {
            None => {
                if !crate::exec::charge_alloc(counters, output_bytes::<Y>(k * n)) {
                    return None;
                }
            }
            Some(rc) => {
                for c in rc {
                    let _ = c.try_charge_alloc(output_bytes::<Y>(n));
                }
            }
        }
        let mut outs: Vec<Vec<Y>> = (0..k).map(|_| vec![identity; n]).collect();
        let ptrs = outs.iter_mut().map(|o| SendPtr(o.as_mut_ptr())).collect();
        Some(Self { outs, ptrs })
    }

    pub(crate) fn into_vectors(self, identity: Y) -> Vec<DenseVector<Y>> {
        self.outs
            .into_iter()
            .map(|vals| DenseVector::from_values(vals, identity))
            .collect()
    }
}

impl<Y: Scalar> PullSink<Y> for DenseSink<Y> {
    type Part = ();

    fn keeps_identity(&self) -> bool {
        // Buffers start identity-filled, so skipped rows are already right.
        false
    }

    unsafe fn put(&self, j: usize, i: usize, y: Y, _part: &mut ()) {
        // SAFETY: the caller guarantees `(j, i)` is unique and in bounds;
        // each source owns a distinct buffer.
        unsafe { *self.ptrs[j].get().add(i) = y };
    }
}

/// The pull of [`DenseSink`]: the unfused and batched row kernels. One
/// dense output per input, each charged and computed exactly as a
/// single-source pull of that input (`row_counters`, one per source,
/// attributes each source's charges to its own counters).
pub(crate) fn pull_dense<A, X, Y, S, M>(
    s: S,
    op: &M,
    vs: &[&DenseVector<X>],
    masks: Option<&[Mask<'_>]>,
    how: Reduce<'_>,
    counters: Option<&AccessCounters>,
    row_counters: Option<&[&AccessCounters]>,
) -> Vec<DenseVector<Y>>
where
    A: Scalar,
    X: Scalar,
    Y: Scalar,
    S: Semiring<A, X, Y>,
    M: RowAccess<A>,
{
    if let Some(ms) = masks {
        assert_eq!(ms.len(), vs.len(), "one mask per batch row");
    }
    if let Some(rc) = row_counters {
        assert_eq!(rc.len(), vs.len(), "one counter set per batch row");
    }
    let identity = s.add_monoid().identity();
    let Some(sink) = DenseSink::new(vs.len(), op.n_rows(), identity, counters, row_counters) else {
        return vs
            .iter()
            .map(|_| DenseVector::from_values(Vec::new(), identity))
            .collect();
    };
    let sources: Vec<PullSource<'_, X>> = vs
        .iter()
        .enumerate()
        .map(|(j, &v)| PullSource {
            v,
            mask: masks.map(|ms| &ms[j]),
            counters: row_counters.map_or(counters, |rc| Some(rc[j])),
        })
        .collect();
    pull(s, op, &sources, how, &sink);
    sink.into_vectors(identity)
}

/// Run one pull: resolve each source's extent and reducer, then sweep the
/// `(source, row-chunk)` grid into `sink`. Returns each chunk's
/// [`PullSink::Part`] in grid order.
pub(crate) fn pull<A, X, Y, S, M, K>(
    s: S,
    op: &M,
    sources: &[PullSource<'_, X>],
    how: Reduce<'_>,
    sink: &K,
) -> Vec<K::Part>
where
    A: Scalar,
    X: Scalar,
    Y: Scalar,
    S: Semiring<A, X, Y>,
    M: RowAccess<A>,
    K: PullSink<Y>,
{
    let n = op.n_rows();
    let identity = s.add_monoid().identity();
    let plans: Vec<(Extent<'_>, Reducer<Y>)> = sources
        .iter()
        .map(|src| {
            assert_eq!(
                op.n_cols(),
                src.v.dim(),
                "operand columns must match input dim"
            );
            let reducer = Reducer::choose(s, op, src, how);
            let extent = Extent::resolve(op, src, reducer.is_bit(), sink.keeps_identity());
            (extent, reducer)
        })
        .collect();
    let lens: Vec<usize> = plans.iter().map(|(e, _)| e.len(n)).collect();
    pool::grid_chunks(&lens, ROW_GRAIN)
        .into_par_iter()
        .map(|(j, range)| {
            let PullSource { v, mask, counters } = sources[j];
            let (extent, reducer) = &plans[j];
            let early_exit = how.early_exit && mask.is_some();
            let mut part = K::Part::default();
            // SAFETY: an extent names each row at most once (active lists
            // are asserted strictly ascending and in range, the other
            // extents are ascending by construction) and grid chunks
            // partition it, so every `(j, i)` is put at most once.
            let mut put = |i: usize, y: Y| unsafe { sink.put(j, i, y, &mut part) };
            match reducer {
                Reducer::Scalar => sweep(extent, range, counters, &mut put, |i| {
                    reduce_row(s, op, v, i, identity, early_exit, counters)
                }),
                Reducer::Bit(ctx) => sweep(extent, range, counters, &mut put, |i| {
                    crate::bitops::bit_reduce_row(op, ctx, i, identity, early_exit, counters)
                }),
                Reducer::FirstHit => sweep(extent, range, counters, &mut put, |i| {
                    reduce_row_first_hit(s, op, v, i, identity, counters)
                }),
                Reducer::BitFirstHit(words) => sweep(extent, range, counters, &mut put, |i| {
                    crate::bitops::bit_reduce_row_first_hit(s, op, words, v, i, identity, counters)
                }),
            }
            part
        })
        .collect()
}

/// Feed one grid chunk of `extent` through `reduce` into `put`, polling
/// the checkpoint before every row: a tripped limit leaves the rest of the
/// chunk unreduced (the dispatchers turn the sticky trip into an error).
#[inline]
fn sweep<Y>(
    extent: &Extent<'_>,
    range: Range<usize>,
    counters: Option<&AccessCounters>,
    put: &mut impl FnMut(usize, Y),
    reduce: impl Fn(usize) -> Y,
) {
    let mut row = |i: usize| {
        if crate::exec::live(counters) {
            put(i, reduce(i));
        }
    };
    match extent {
        Extent::All => range.for_each(row),
        Extent::Rows(rows) => rows[range].iter().for_each(|&i| row(i as usize)),
        Extent::Allowed(m) => range.filter(|&i| m.allows(i)).for_each(row),
        Extent::Groups(idx, groups) => {
            // The range is in row units (64 per group); rounding both ends
            // up hands every group to exactly one chunk.
            for &g in &groups[range.start.div_ceil(64)..range.end.div_ceil(64)] {
                let mut bits = idx.allowed_word(g);
                while bits != 0 {
                    let b = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    row(g * 64 + b);
                }
            }
        }
    }
}

/// The rows one source computes.
enum Extent<'a> {
    /// Every row `0..n`.
    All,
    /// An explicit ascending row list: the mask's active list, or the
    /// store's non-empty rows.
    Rows(&'a [u32]),
    /// Every row the mask allows, tested row by row.
    Allowed(&'a Mask<'a>),
    /// The allowed rows of the live 64-row groups of an unvisited index.
    Groups(UnvisitedIndex<'a>, Vec<usize>),
}

impl<'a> Extent<'a> {
    /// Resolve a source's extent and charge its bulk traffic.
    fn resolve<A, X, M>(op: &'a M, src: &PullSource<'a, X>, bit: bool, keeps_identity: bool) -> Self
    where
        A: Scalar,
        M: RowAccess<A>,
    {
        let n = op.n_rows();
        let charge = src.counters;
        match src.mask {
            Some(m) => {
                assert_eq!(m.dim(), n, "mask must cover output dim");
                if let Some(list) = m.active_list() {
                    // The `with_active_list` contract is what makes the
                    // unsynchronized per-row sink writes race-free and in
                    // bounds. Checked in release too: the list arrives
                    // through safe public API and a violation is UB; the
                    // O(len) scan is noise next to the row reductions.
                    assert!(
                        list.windows(2).all(|w| w[0] < w[1])
                            && list.last().is_none_or(|&i| (i as usize) < n),
                        "mask active list must be strictly ascending (unique) and in range"
                    );
                    debug_assert!(
                        list.iter().all(|&i| m.allows(i as usize)),
                        "active list disagrees with mask"
                    );
                    if let Some(c) = charge {
                        c.add_mask(list.len() as u64);
                    }
                    return Extent::Rows(list);
                }
                if let Some(c) = charge {
                    c.add_mask(n as u64);
                }
                if bit {
                    // Skipping fully-disallowed groups is counter-neutral:
                    // the bulk charge above already covers the mask reads,
                    // and disallowed rows do no per-row work either way.
                    let idx = UnvisitedIndex::build(m, charge);
                    let groups = idx.live_groups();
                    Extent::Groups(idx, groups)
                } else {
                    Extent::Allowed(m)
                }
            }
            None => match op.nonempty_rows() {
                Some(rows) if !keeps_identity => {
                    // Hypersparse store: empty rows reduce to the identity
                    // the sink already holds; their per-row bookkeeping
                    // (`examined + 1` = 1 vector touch) is charged in bulk,
                    // so totals equal the full-scan CSR run bit for bit.
                    if let Some(c) = charge {
                        c.add_vector((n - rows.len()) as u64);
                    }
                    Extent::Rows(rows)
                }
                _ => Extent::All,
            },
        }
    }

    /// Grid length, in rows (a group counts as 64, so every extent keeps
    /// the same row grain).
    fn len(&self, n: usize) -> usize {
        match self {
            Extent::All | Extent::Allowed(_) => n,
            Extent::Rows(rows) => rows.len(),
            Extent::Groups(_, groups) => groups.len() * 64,
        }
    }
}

/// The per-row reduction one source runs.
enum Reducer<Y> {
    Scalar,
    Bit(BitPull<Y>),
    FirstHit,
    BitFirstHit(FrontierWords),
}

impl<Y: Scalar> Reducer<Y> {
    /// Pick the reducer, packing the source's input words (charged to its
    /// `bit_word_ops`) when a bit reducer qualifies. The first-hit bit
    /// reducer is fully generic — the CSR rank of the first AND hit indexes
    /// the stored values — so it needs only a word-surfaced store; the
    /// plain bit reducer needs the hint-qualified context.
    fn choose<A, X, S, M>(s: S, op: &M, src: &PullSource<'_, X>, how: Reduce<'_>) -> Self
    where
        A: Scalar,
        X: Scalar,
        S: Semiring<A, X, Y>,
        M: RowAccess<A>,
    {
        if how.first_hit {
            if how.desc.is_some_and(|d| d.bit_kernels) && op.has_row_words() {
                Reducer::BitFirstHit(crate::bitops::pack_frontier(src.v, src.counters))
            } else {
                Reducer::FirstHit
            }
        } else {
            match how
                .desc
                .and_then(|d| crate::bitops::bit_pull_ctx(s, op, src.v, d, src.counters))
            {
                Some(ctx) => Reducer::Bit(ctx),
                None => Reducer::Scalar,
            }
        }
    }

    fn is_bit(&self) -> bool {
        matches!(self, Reducer::Bit(_) | Reducer::BitFirstHit(_))
    }
}

/// Reduce one operand row against a dense input vector — the scalar
/// reducer. `examined` neighbors cost one matrix access each, plus
/// `examined + 1` vector touches (the input reads and the output write).
#[inline]
pub(crate) fn reduce_row<A, X, Y, S, M>(
    s: S,
    op: &M,
    v: &DenseVector<X>,
    i: usize,
    identity: Y,
    early_exit: bool,
    counters: Option<&AccessCounters>,
) -> Y
where
    A: Scalar,
    X: Scalar,
    Y: Scalar,
    S: Semiring<A, X, Y>,
    M: RowAccess<A>,
{
    let add = s.add_monoid();
    let annihilator = add.annihilator();
    let cols = op.row(i);
    let avals = op.row_values(i);
    let mut acc = identity;
    let mut examined = 0u64;
    for (idx, &j) in cols.iter().enumerate() {
        examined += 1;
        if v.is_explicit(j as usize) {
            acc = add.op(acc, s.mult(avals[idx], v.get(j as usize)));
            if early_exit && annihilator == Some(acc) {
                break;
            }
        }
    }
    if let Some(c) = counters {
        c.add_matrix(examined);
        c.add_vector(examined + 1);
    }
    acc
}

/// Reduce one row stopping at the first explicit input hit (the
/// [`FusedMxv::first_hit_exit`](crate::FusedMxv::first_hit_exit)
/// contract). Counter bookkeeping matches [`reduce_row`]: one matrix
/// access per examined neighbor.
#[inline]
fn reduce_row_first_hit<A, X, Y, S, M>(
    s: S,
    op: &M,
    v: &DenseVector<X>,
    i: usize,
    identity: Y,
    counters: Option<&AccessCounters>,
) -> Y
where
    A: Scalar,
    X: Scalar,
    Y: Scalar,
    S: Semiring<A, X, Y>,
    M: RowAccess<A>,
{
    let add = s.add_monoid();
    let cols = op.row(i);
    let avals = op.row_values(i);
    let mut acc = identity;
    let mut examined = 0u64;
    for (idx, &j) in cols.iter().enumerate() {
        examined += 1;
        if v.is_explicit(j as usize) {
            acc = add.op(acc, s.mult(avals[idx], v.get(j as usize)));
            break;
        }
    }
    if let Some(c) = counters {
        c.add_matrix(examined);
        c.add_vector(examined + 1);
    }
    acc
}
