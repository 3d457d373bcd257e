//! The fused-pipeline equivalence contract: every algorithm rewritten on
//! `FusedMxv` must produce **bit-identical results and access counters**
//! (modulo `fused_saved_writes`, which only the fused run records) against
//! its unfused separate-operation composition — on arbitrary graphs, under
//! every direction regime, and at 1, 2, and 8 worker lanes.

use proptest::prelude::*;
use push_pull::algo::bfs::{bfs_with_opts, BfsOpts};
use push_pull::algo::bfs_parents::{bfs_parents_with_opts, ParentBfsOpts};
use push_pull::algo::cc::{connected_components_with_opts, CcOpts};
use push_pull::algo::pagerank::{pagerank_with_counters, PageRankOpts};
use push_pull::algo::sssp::{sssp_with_counters, SsspOpts};
use push_pull::core::ops::{BoolStructure, PlusSecond};
use push_pull::core::{
    mxv, mxv_batch, mxv_batch_attributed, Descriptor, Direction, FusedMxv, Mask, MergeStrategy,
    Monoid, MultiVector, Scalar, Semiring, ShardGrid, ShardPolicy, Vector,
};
use push_pull::gen::rmat::{rmat, RmatParams};
use push_pull::gen::suite::dataset;
use push_pull::gen::with_uniform_weights;
use push_pull::matrix::{Coo, Graph, StorageFormat};
use push_pull::primitives::counters::{AccessCounters, CounterSnapshot};
use push_pull::primitives::BitVec;

const LANES: [usize; 3] = [1, 2, 8];

fn arb_undirected(n: usize, max_edges: usize) -> impl Strategy<Value = Graph<bool>> {
    (
        2..n,
        prop::collection::vec((0usize..n, 0usize..n), 0..max_edges),
    )
        .prop_map(move |(dim, edges)| {
            let mut coo = Coo::new(dim, dim);
            for (u, v) in edges {
                if u < dim && v < dim {
                    coo.push(u as u32, v as u32, true);
                }
            }
            coo.clean_undirected();
            Graph::from_coo(&coo)
        })
}

fn arb_directed(n: usize, max_edges: usize) -> impl Strategy<Value = Graph<bool>> {
    (
        2..n,
        prop::collection::vec((0usize..n, 0usize..n), 0..max_edges),
    )
        .prop_map(move |(dim, edges)| {
            let mut coo = Coo::new(dim, dim);
            for (u, v) in edges {
                if u < dim && v < dim && u != v {
                    coo.push(u as u32, v as u32, true);
                }
            }
            coo.dedup(|a, _| a);
            Graph::from_coo(&coo)
        })
}

/// Snapshot projection fused and unfused runs must agree on.
fn accesses(c: &AccessCounters) -> CounterSnapshot {
    c.snapshot().accesses_only()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn bfs_fused_equals_unfused(
        g in arb_directed(60, 400),
        source_raw in 0usize..60,
        bits in 0u32..32,
        forced in prop::sample::select(vec![None, Some(Direction::Push), Some(Direction::Pull)]),
    ) {
        let source = (source_raw % g.n_vertices()) as u32;
        let base = BfsOpts {
            change_of_direction: bits & 1 != 0,
            masking: bits & 2 != 0,
            early_exit: bits & 4 != 0,
            operand_reuse: bits & 8 != 0,
            structure_only: bits & 16 != 0,
            force: forced,
            ..BfsOpts::default()
        };
        let cu = AccessCounters::new();
        let unfused = bfs_with_opts(&g, source, &base.fused(false), Some(&cu));
        let cf = AccessCounters::new();
        let fused = bfs_with_opts(&g, source, &base.fused(true), Some(&cf));
        prop_assert_eq!(&fused.depths, &unfused.depths, "depths, bits {:05b}", bits);
        prop_assert_eq!(fused.levels, unfused.levels);
        prop_assert_eq!(accesses(&cf), accesses(&cu), "counters, bits {:05b}", bits);
        prop_assert_eq!(cu.snapshot().fused_saved_writes, 0);
        // An isolated source's single empty push level legitimately saves
        // nothing; any actual discovery must save intermediate writes.
        if fused.reached() > 1 {
            prop_assert!(cf.snapshot().fused_saved_writes > 0);
        }
    }

    #[test]
    fn parent_bfs_fused_equals_unfused(
        g in arb_undirected(60, 300),
        source_raw in 0usize..60,
        threshold in prop::sample::select(vec![0.0, 0.01, 0.2, 2.0]),
    ) {
        let source = (source_raw % g.n_vertices()) as u32;
        let cu = AccessCounters::new();
        let unfused_opts = ParentBfsOpts { switch_threshold: threshold, fused: false, first_hit_exit: false, ..ParentBfsOpts::default() };
        let unfused = bfs_parents_with_opts(&g, source, &unfused_opts, Some(&cu));
        // Semantics-preserving fusion: identical counters.
        let cf = AccessCounters::new();
        let fused_opts = ParentBfsOpts { fused: true, first_hit_exit: false, ..unfused_opts };
        let fused = bfs_parents_with_opts(&g, source, &fused_opts, Some(&cf));
        prop_assert_eq!(&fused.parent, &unfused.parent);
        prop_assert_eq!(fused.levels, unfused.levels);
        prop_assert_eq!(accesses(&cf), accesses(&cu));
        // First-hit early exit: identical tree, never more matrix traffic.
        let ch = AccessCounters::new();
        let hit_opts = ParentBfsOpts { first_hit_exit: true, ..fused_opts };
        let hit = bfs_parents_with_opts(&g, source, &hit_opts, Some(&ch));
        prop_assert_eq!(&hit.parent, &unfused.parent, "first-hit changed the tree");
        prop_assert!(ch.snapshot().matrix <= cf.snapshot().matrix);
    }

    #[test]
    fn cc_fused_equals_unfused(
        g in arb_undirected(80, 300),
        threshold in prop::sample::select(vec![0.0, 0.01, 0.5]),
    ) {
        let cu = AccessCounters::new();
        let unfused = connected_components_with_opts(
            &g, &CcOpts { switch_threshold: threshold, fused: false, ..CcOpts::default() }, Some(&cu));
        let cf = AccessCounters::new();
        let fused = connected_components_with_opts(
            &g, &CcOpts { switch_threshold: threshold, fused: true, ..CcOpts::default() }, Some(&cf));
        prop_assert_eq!(&fused.labels, &unfused.labels);
        prop_assert_eq!(fused.rounds, unfused.rounds);
        prop_assert_eq!(accesses(&cf), accesses(&cu));
    }

    #[test]
    fn sssp_fused_equals_unfused(
        g in arb_undirected(60, 300),
        source_raw in 0usize..60,
        seed in 0u64..32,
    ) {
        let gw = with_uniform_weights(&g, seed);
        let source = (source_raw % gw.n_vertices()) as u32;
        let cu = AccessCounters::new();
        let unfused = sssp_with_counters(
            &gw, source, &SsspOpts { fused: false, ..SsspOpts::default() }, Some(&cu));
        let cf = AccessCounters::new();
        let fused = sssp_with_counters(&gw, source, &SsspOpts::default(), Some(&cf));
        // f32 distances must match bit-for-bit, not approximately.
        prop_assert_eq!(
            unfused.dist.iter().map(|d| d.to_bits()).collect::<Vec<_>>(),
            fused.dist.iter().map(|d| d.to_bits()).collect::<Vec<_>>()
        );
        prop_assert_eq!(fused.rounds, unfused.rounds);
        prop_assert_eq!(fused.pull_rounds, unfused.pull_rounds);
        prop_assert_eq!(accesses(&cf), accesses(&cu));
    }

    #[test]
    fn pagerank_fused_equals_unfused(
        g in arb_directed(60, 400),
        adaptive in prop::sample::select(vec![false, true]),
    ) {
        let cu = AccessCounters::new();
        let unfused = pagerank_with_counters(
            &g, &PageRankOpts { fused: false, ..PageRankOpts::default() }, adaptive, Some(&cu));
        let cf = AccessCounters::new();
        let fused = pagerank_with_counters(&g, &PageRankOpts::default(), adaptive, Some(&cf));
        // f64 ranks must match bit-for-bit: same reduction order, same
        // apply arithmetic, same L1 accumulation grouping.
        prop_assert_eq!(
            unfused.ranks.iter().map(|r| r.to_bits()).collect::<Vec<_>>(),
            fused.ranks.iter().map(|r| r.to_bits()).collect::<Vec<_>>()
        );
        prop_assert_eq!(fused.iters, unfused.iters);
        prop_assert_eq!(fused.row_updates, unfused.row_updates);
        prop_assert_eq!(accesses(&cf), accesses(&cu));
    }
}

/// How a [`pull_sinks_agree`] case masks its pull.
#[derive(Clone, Copy, Debug)]
enum MaskMode {
    /// Complement of the visited set with the unvisited ids attached.
    ActiveList,
    /// Complement of the visited set, no list.
    Complement,
    /// No mask at all.
    Unmasked,
}

/// Everything one sink observes of a pull: the per-row values it
/// produced or assigned, the rows it assigned, and its counters.
type SinkRun = (Vec<i32>, Vec<u32>, CounterSnapshot);

/// One masked BFS-style pull step through all three sinks of the pull
/// driver: unfused `mxv` + apply/assign loop, `FusedMxv`, and `mxv_batch`
/// at k = 1 (shared counters) and k = 3 (the source repeated, attributed
/// per row). Returns the unfused run and asserts the others against it.
fn pull_through_every_sink(
    g: &Graph<bool>,
    f: &Vector<bool>,
    visited: &BitVec,
    unvisited: &[u32],
    mode: MaskMode,
    keep_identity: bool,
    desc: &Descriptor,
) -> SinkRun {
    let n = g.n_vertices();
    let mask = match mode {
        MaskMode::ActiveList => Some(Mask::complement(visited).with_active_list(unvisited)),
        MaskMode::Complement => Some(Mask::complement(visited)),
        MaskMode::Unmasked => None,
    };
    let label = format!("{mode:?} keep_identity={keep_identity} {:?}", desc.format);
    // Unfused: dense product, then apply + assign over explicit entries
    // (or over every allowed row for a keep-identity consumer).
    let unfused = {
        let c = AccessCounters::new();
        let w: Vector<bool> = mxv(mask.as_ref(), BoolStructure, g, f, desc, Some(&c)).unwrap();
        let mut state = vec![-1i32; n];
        let mut touched = Vec::new();
        for (i, slot) in state.iter_mut().enumerate() {
            let y = w.get(i as u32);
            if (keep_identity && mask.is_none_or(|m| m.allows(i))) || y {
                *slot = i32::from(y);
                touched.push(i as u32);
            }
        }
        (state, touched, c.snapshot())
    };
    let fused = {
        let c = AccessCounters::new();
        let mut state = vec![-1i32; n];
        let mut pipe = FusedMxv::new(BoolStructure, g, f)
            .descriptor(*desc)
            .counters(Some(&c))
            .keep_identity(keep_identity);
        if let Some(m) = mask.as_ref() {
            pipe = pipe.mask(m);
        }
        let out = pipe
            .apply(i32::from)
            .assign_into(&mut state, |_, z| Some(z))
            .unwrap();
        let mut snap = c.snapshot();
        assert_eq!(snap.fused_saved_writes, n as u64, "{label}: saved writes");
        snap.fused_saved_writes = 0;
        (state, out.touched, snap)
    };
    assert_eq!(fused, unfused, "fused sink ≠ unfused sink ({label})");
    // The batch sink's explicit entries are the unfused product's.
    let explicit = |v: &Vector<bool>| v.iter_explicit().map(|(i, _)| i).collect::<Vec<_>>();
    let expect = {
        let w: Vector<bool> = mxv(mask.as_ref(), BoolStructure, g, f, desc, None).unwrap();
        explicit(&w)
    };
    let c = AccessCounters::new();
    let masks1: Option<Vec<Mask<'_>>> = mask.map(|m| vec![m]);
    let one = MultiVector::from_rows(vec![f.clone()]);
    let out: MultiVector<bool> = mxv_batch(
        masks1.as_deref(),
        BoolStructure,
        g,
        &one,
        desc,
        None,
        Some(&c),
    )
    .unwrap();
    assert_eq!(explicit(out.row(0)), expect, "k=1 batch values ({label})");
    assert_eq!(c.snapshot(), unfused.2, "k=1 batch counters ({label})");
    let rows: Vec<AccessCounters> = (0..3).map(|_| AccessCounters::new()).collect();
    let row_refs: Vec<&AccessCounters> = rows.iter().collect();
    let masks3: Option<Vec<Mask<'_>>> = mask.map(|m| vec![m; 3]);
    let three = MultiVector::from_rows(vec![f.clone(), f.clone(), f.clone()]);
    let out: MultiVector<bool> = mxv_batch_attributed(
        masks3.as_deref(),
        BoolStructure,
        g,
        &three,
        desc,
        None,
        None,
        Some(&row_refs),
    )
    .unwrap();
    for (r, rc) in rows.iter().enumerate() {
        assert_eq!(explicit(out.row(r)), expect, "k=3 row {r} values ({label})");
        assert_eq!(rc.snapshot(), unfused.2, "k=3 row {r} counters ({label})");
    }
    unfused
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// One pull, three sinks: unfused `mxv`, `FusedMxv` and `mxv_batch`
    /// (k = 1 and k = 3) agree on values, assigned rows and the full
    /// counter snapshot — `bit_word_ops` included, `fused_saved_writes`
    /// aside — under every extent (active list, complement mask without a
    /// list, no mask, keep-identity) on CSR, Bitmap and hypersparse DCSR
    /// stores, at 1 and 4 lanes.
    #[test]
    fn pull_sinks_agree(
        g in arb_directed(150, 300),
        f_ids in prop::collection::vec(0usize..150, 0..40),
        visited_ids in prop::collection::vec(0usize..150, 0..150),
        early_exit in any::<bool>(),
    ) {
        let n = g.n_vertices();
        let mut visited = BitVec::new(n);
        for &i in f_ids.iter().filter(|&&i| i < n) {
            visited.set(i);
        }
        let ids: Vec<u32> = (0..n as u32).filter(|&i| visited.get(i as usize)).collect();
        let mut f = Vector::from_sparse(n, false, ids.clone(), vec![true; ids.len()]);
        f.make_dense();
        for &i in visited_ids.iter().filter(|&&i| i < n) {
            visited.set(i);
        }
        let unvisited: Vec<u32> = (0..n as u32).filter(|&i| !visited.get(i as usize)).collect();
        for format in [StorageFormat::Csr, StorageFormat::Bitmap, StorageFormat::Dcsr] {
            let desc = Descriptor::new()
                .transpose(true)
                .force(Direction::Pull)
                .force_format(format)
                .early_exit(early_exit);
            for mode in [MaskMode::ActiveList, MaskMode::Complement, MaskMode::Unmasked] {
                for keep_identity in [false, true] {
                    let runs = [1, 4].map(|lanes| {
                        rayon::with_num_threads(lanes, || {
                            pull_through_every_sink(
                                &g, &f, &visited, &unvisited, mode, keep_identity, &desc,
                            )
                        })
                    });
                    prop_assert_eq!(&runs[0], &runs[1], "{:?} {:?} at 1 vs 4 lanes", format, mode);
                }
            }
        }
    }
}

/// Everything one push observes: the entries it produced or assigned (as
/// value bits) and its counters.
type PushRun = (Vec<(u32, u64)>, CounterSnapshot);

/// One push step through every sink of the push driver: unfused `mxv`,
/// `FusedMxv`, and — under `SpaMerge`, the merge the batch always runs —
/// `mxv_batch` at k = 1 (shared counters) and `mxv_batch_attributed` at
/// k = 3 (the source repeated, one counter set per row). Returns the
/// unfused run and asserts the others against it.
fn push_through_every_sink<S, X, Y>(
    s: S,
    g: &Graph<bool>,
    f: &Vector<X>,
    mask: Option<&Mask<'_>>,
    desc: &Descriptor,
    bits: fn(Y) -> u64,
) -> PushRun
where
    X: Scalar,
    Y: Scalar,
    S: Semiring<bool, X, Y>,
{
    let label = format!(
        "{:?} {:?} {:?} structure_only={} masked={}",
        desc.merge_strategy,
        desc.format,
        desc.shards,
        desc.structure_only,
        mask.is_some()
    );
    let entries = |v: &Vector<Y>| v.iter_explicit().map(|(i, y)| (i, bits(y))).collect();
    let unfused: PushRun = {
        let c = AccessCounters::new();
        let w: Vector<Y> = mxv(mask, s, g, f, desc, Some(&c)).unwrap();
        (entries(&w), c.snapshot())
    };
    let fused: PushRun = {
        let c = AccessCounters::new();
        let mut state = vec![s.add_monoid().identity(); g.n_vertices()];
        let mut pipe = FusedMxv::new(s, g, f).descriptor(*desc).counters(Some(&c));
        if let Some(m) = mask {
            pipe = pipe.mask(m);
        }
        let out = pipe
            .apply(|y: Y| y)
            .assign_into(&mut state, |_, z| Some(z))
            .unwrap();
        let mut snap = c.snapshot();
        let assigned = out.touched.len() as u64;
        assert_eq!(snap.fused_saved_writes, assigned, "{label}: saved writes");
        snap.fused_saved_writes = 0;
        let got = out.touched.iter().map(|&i| (i, bits(state[i as usize])));
        (got.collect(), snap)
    };
    assert_eq!(fused, unfused, "fused sink ≠ unfused sink ({label})");
    if desc.merge_strategy != MergeStrategy::SpaMerge {
        return unfused;
    }
    let c = AccessCounters::new();
    let masks1: Option<Vec<Mask<'_>>> = mask.map(|m| vec![*m]);
    let one = MultiVector::from_rows(vec![f.clone()]);
    let out: MultiVector<Y> =
        mxv_batch(masks1.as_deref(), s, g, &one, desc, None, Some(&c)).unwrap();
    assert_eq!(entries(out.row(0)), unfused.0, "k=1 batch values ({label})");
    assert_eq!(c.snapshot(), unfused.1, "k=1 batch counters ({label})");
    let rows: Vec<AccessCounters> = (0..3).map(|_| AccessCounters::new()).collect();
    let row_refs: Vec<&AccessCounters> = rows.iter().collect();
    let masks3: Option<Vec<Mask<'_>>> = mask.map(|m| vec![*m; 3]);
    let three = MultiVector::from_rows(vec![f.clone(), f.clone(), f.clone()]);
    let out: MultiVector<Y> = mxv_batch_attributed(
        masks3.as_deref(),
        s,
        g,
        &three,
        desc,
        None,
        None,
        Some(&row_refs),
    )
    .unwrap();
    for (r, rc) in rows.iter().enumerate() {
        assert_eq!(
            entries(out.row(r)),
            unfused.0,
            "k=3 row {r} values ({label})"
        );
        assert_eq!(rc.snapshot(), unfused.1, "k=3 row {r} counters ({label})");
    }
    unfused
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// One push, every sink: unfused `mxv`, `FusedMxv`, `mxv_batch` (k = 1)
    /// and `mxv_batch_attributed` (k = 3) agree on values and the full
    /// counter snapshot — `bit_word_ops`, `shard_merges` and
    /// `cross_shard_writes` included, `fused_saved_writes` aside — for
    /// masked and unmasked `SpaMerge` pushes on CSR, Bitmap and DCSR,
    /// unsharded and over a fixed 1×4 grid; and unfused ≡ fused under
    /// `SortBased` with `structure_only` on and off (the bit, claim and
    /// sort merges). Identical at 1 and 4 lanes.
    #[test]
    fn push_sinks_agree(
        g in arb_directed(150, 300),
        f_ids in prop::collection::vec(0usize..150, 0..40),
        visited_ids in prop::collection::vec(0usize..150, 0..150),
        weights in prop::collection::vec(1u32..9, 150..151),
    ) {
        let n = g.n_vertices();
        let mut visited = BitVec::new(n);
        for &i in f_ids.iter().filter(|&&i| i < n) {
            visited.set(i);
        }
        let ids: Vec<u32> = (0..n as u32).filter(|&i| visited.get(i as usize)).collect();
        let f = Vector::from_sparse(n, false, ids.clone(), vec![true; ids.len()]);
        // Inexact f64 values, so any change in ⊕ grouping changes the bits.
        let xs: Vec<f64> = ids.iter().map(|&i| 1.0 / f64::from(weights[i as usize])).collect();
        let fw = Vector::from_sparse(n, 0.0, ids.clone(), xs);
        for &i in visited_ids.iter().filter(|&&i| i < n) {
            visited.set(i);
        }
        let complement = Mask::complement(&visited);
        let base = Descriptor::new().transpose(true).force(Direction::Push);
        let runs = [1, 4].map(|lanes| {
            rayon::with_num_threads(lanes, || {
                let mut out = Vec::new();
                for format in [StorageFormat::Csr, StorageFormat::Bitmap, StorageFormat::Dcsr] {
                    for mask in [None, Some(&complement)] {
                        for shards in [ShardPolicy::Off, ShardPolicy::Fixed(ShardGrid::new(1, 4))] {
                            let desc = base
                                .force_format(format)
                                .merge_strategy(MergeStrategy::SpaMerge)
                                .shard_policy(shards);
                            out.push(push_through_every_sink(PlusSecond, &g, &fw, mask, &desc, f64::to_bits));
                            out.push(push_through_every_sink(BoolStructure, &g, &f, mask, &desc, u64::from));
                        }
                        for structure_only in [true, false] {
                            let desc = base
                                .force_format(format)
                                .merge_strategy(MergeStrategy::SortBased)
                                .structure_only(structure_only);
                            out.push(push_through_every_sink(PlusSecond, &g, &fw, mask, &desc, f64::to_bits));
                            out.push(push_through_every_sink(BoolStructure, &g, &f, mask, &desc, u64::from));
                        }
                    }
                }
                out
            })
        });
        prop_assert_eq!(&runs[0], &runs[1], "1 vs 4 lanes");
    }
}

/// A forced bitmap that degrades to CSR (every 64-row tile spans the full
/// column range, so the tiled bitmap would exceed its bit budget) is
/// charged to `bitmap_degrades` by fused and unfused calls alike, on both
/// faces.
#[test]
fn fused_and_unfused_charge_bitmap_degrades_alike() {
    let n = 1usize << 19;
    let mut coo = Coo::new(n, n);
    for t in (0..n).step_by(64) {
        for end in [0, n - 1] {
            if t != end {
                coo.push(t as u32, end as u32, true);
                coo.push(end as u32, t as u32, true);
            }
        }
    }
    coo.dedup(|a, _| a);
    let g = Graph::from_coo(&coo);
    let mut dense = Vector::singleton(n, false, 0, true);
    dense.make_dense();
    for (f, dir) in [
        (Vector::singleton(n, false, 0, true), Direction::Push),
        (dense, Direction::Pull),
    ] {
        let desc = Descriptor::new()
            .transpose(true)
            .force(dir)
            .force_format(StorageFormat::Bitmap);
        let cu = AccessCounters::new();
        let w: Vector<bool> = mxv(None, BoolStructure, &g, &f, &desc, Some(&cu)).unwrap();
        assert_eq!(
            cu.snapshot().bitmap_degrades,
            1,
            "{dir:?}: bitmap must degrade"
        );
        let cf = AccessCounters::new();
        let mut state = vec![false; n];
        let out = FusedMxv::new(BoolStructure, &g, &f)
            .descriptor(desc)
            .counters(Some(&cf))
            .apply(|y: bool| y)
            .assign_into(&mut state, |_, z| Some(z))
            .unwrap();
        let mut fused = cf.snapshot();
        fused.fused_saved_writes = 0;
        assert_eq!(fused, cu.snapshot(), "{dir:?}: fused counters");
        let explicit: Vec<u32> = w.iter_explicit().map(|(i, _)| i).collect();
        let assigned: Vec<u32> = out
            .touched
            .into_iter()
            .filter(|&i| state[i as usize])
            .collect();
        assert_eq!(assigned, explicit, "{dir:?}: values");
    }
}

/// The acceptance pin: fused BFS and parent BFS against their unfused
/// compositions at 1, 2, and 8 lanes — values and counters — on a
/// scale-free graph large enough to cross the push→pull switch.
#[test]
fn bfs_and_parents_fused_identical_at_1_2_8_lanes() {
    let g = rmat(12, 16, RmatParams::default(), 11);
    let unfused_bfs = rayon::with_num_threads(1, || {
        let c = AccessCounters::new();
        let r = bfs_with_opts(&g, 0, &BfsOpts::default().fused(false), Some(&c));
        (r.depths, accesses(&c))
    });
    let unfused_parents = rayon::with_num_threads(1, || {
        let c = AccessCounters::new();
        let opts = ParentBfsOpts {
            fused: false,
            first_hit_exit: false,
            ..ParentBfsOpts::default()
        };
        let r = bfs_parents_with_opts(&g, 0, &opts, Some(&c));
        (r.parent, accesses(&c))
    });
    for lanes in LANES {
        let fused_bfs = rayon::with_num_threads(lanes, || {
            let c = AccessCounters::new();
            let r = bfs_with_opts(&g, 0, &BfsOpts::default(), Some(&c));
            (r.depths, accesses(&c), c.snapshot().fused_saved_writes)
        });
        assert_eq!(fused_bfs.0, unfused_bfs.0, "BFS depths at {lanes} lanes");
        assert_eq!(fused_bfs.1, unfused_bfs.1, "BFS counters at {lanes} lanes");
        assert!(fused_bfs.2 > 0, "BFS saved writes at {lanes} lanes");

        let fused_parents = rayon::with_num_threads(lanes, || {
            let c = AccessCounters::new();
            let opts = ParentBfsOpts {
                first_hit_exit: false,
                ..ParentBfsOpts::default()
            };
            let r = bfs_parents_with_opts(&g, 0, &opts, Some(&c));
            (r.parent, accesses(&c), c.snapshot().fused_saved_writes)
        });
        assert_eq!(
            fused_parents.0, unfused_parents.0,
            "parents at {lanes} lanes"
        );
        assert_eq!(
            fused_parents.1, unfused_parents.1,
            "parent counters at {lanes} lanes"
        );
        assert!(fused_parents.2 > 0, "parent saved writes at {lanes} lanes");

        // The production configuration (first-hit exit on) still yields
        // the identical tree at every lane count, with no more traffic.
        let hit = rayon::with_num_threads(lanes, || {
            let c = AccessCounters::new();
            let r = bfs_parents_with_opts(&g, 0, &ParentBfsOpts::default(), Some(&c));
            (r.parent, c.snapshot().matrix)
        });
        assert_eq!(hit.0, unfused_parents.0, "first-hit tree at {lanes} lanes");
        assert!(hit.1 <= unfused_parents.1.matrix);
    }
}

/// Fused runs on the paper's Table 1 experiment graphs (generated Table 3
/// stand-ins) must actually save intermediate writes.
#[test]
fn fused_saves_writes_on_table1_graphs() {
    for name in ["kron", "roadnet"] {
        let d = dataset(name, 10, 7).expect("known dataset");
        let c = AccessCounters::new();
        let r = bfs_with_opts(&d.graph, 0, &BfsOpts::default(), Some(&c));
        assert!(r.reached() > 1, "{name}: traversal must reach something");
        let saved = c.snapshot().fused_saved_writes;
        assert!(saved > 0, "{name}: fused_saved_writes = {saved}");
    }
}

/// Fused and unfused runs agree on the sssp/cc/pagerank trio at every lane
/// count too (single spot-graph; the proptests cover shape diversity).
#[test]
fn relaxation_algorithms_fused_identical_at_1_2_8_lanes() {
    let g = rmat(10, 16, RmatParams::default(), 3);
    let gw = with_uniform_weights(&g, 5);
    let reference = rayon::with_num_threads(1, || {
        let cc = connected_components_with_opts(
            &g,
            &CcOpts {
                fused: false,
                ..CcOpts::default()
            },
            None,
        );
        let ss = sssp_with_counters(
            &gw,
            0,
            &SsspOpts {
                fused: false,
                ..SsspOpts::default()
            },
            None,
        );
        let pr = pagerank_with_counters(
            &g,
            &PageRankOpts {
                fused: false,
                ..PageRankOpts::default()
            },
            true,
            None,
        );
        (
            cc.labels,
            ss.dist.iter().map(|d| d.to_bits()).collect::<Vec<_>>(),
            pr.ranks.iter().map(|r| r.to_bits()).collect::<Vec<_>>(),
        )
    });
    for lanes in LANES {
        let got = rayon::with_num_threads(lanes, || {
            let cc = connected_components_with_opts(&g, &CcOpts::default(), None);
            let ss = sssp_with_counters(&gw, 0, &SsspOpts::default(), None);
            let pr = pagerank_with_counters(&g, &PageRankOpts::default(), true, None);
            (
                cc.labels,
                ss.dist.iter().map(|d| d.to_bits()).collect::<Vec<_>>(),
                pr.ranks.iter().map(|r| r.to_bits()).collect::<Vec<_>>(),
            )
        });
        assert_eq!(got, reference, "diverged at {lanes} lanes");
    }
}
