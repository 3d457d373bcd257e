//! Service coalescing contract: a request that executed inside a
//! coalesced batch must be indistinguishable from the same request
//! dispatched alone — identical values AND identical per-request counter
//! snapshot — for arbitrary query mixes over random graphs, at 1, 2, and
//! 8 lanes. The batch is an execution detail, never an observable.

use proptest::prelude::*;
use push_pull::core::descriptor::ShardPolicy;
use push_pull::core::{GrbError, ShardGrid};
use push_pull::gen::erdos::erdos_renyi;
use push_pull::gen::powerlaw::{chung_lu, PowerLawParams};
use push_pull::gen::with_uniform_weights;
use push_pull::primitives::counters::CounterSnapshot;
use push_pull::service::{execute_batch, ExecOpts, Query, Request, ServiceGraphs};

const LANES: [usize; 3] = [1, 2, 8];
const N: usize = 512;

fn service_graphs(family: u8, seed: u64) -> ServiceGraphs {
    let g = match family {
        0 => erdos_renyi(N, N * 4, seed),
        _ => chung_lu(N, 6, PowerLawParams::default(), seed),
    };
    let w = with_uniform_weights(&g, seed ^ 0x77);
    ServiceGraphs::new(g, w)
}

fn query_strategy() -> impl Strategy<Value = Query> {
    // Weighted kind roll (BFS-heavy like the load generator's default
    // mix), folded into one tuple strategy — the vendored proptest shim
    // has no `prop_oneof`.
    let nv = N as u32;
    (0u32..12, 0..nv, 0..nv).prop_map(|(roll, a, b)| match roll {
        0..=3 => Query::Bfs { source: a },
        4..=6 => Query::Parents { source: a },
        7..=9 => Query::Sssp { source: a },
        10 => Query::PageRank,
        _ => Query::Bc {
            sources: vec![a, b],
        },
    })
}

/// Coalesced batch vs per-request solo dispatch on the same graphs:
/// values and counter snapshots must agree request by request.
fn assert_batch_matches_solo(gs: &ServiceGraphs, opts: &ExecOpts, batch: &[Request]) {
    let coalesced = execute_batch(gs, opts, batch, None);
    for (i, req) in batch.iter().enumerate() {
        let solo = execute_batch(gs, opts, &[Request::new(req.id, req.query.clone())], None)
            .pop()
            .expect("one request, one response");
        assert_eq!(
            coalesced[i].result,
            solo.result,
            "request {i} ({:?}) diverged in a group of {}",
            req.query.kind(),
            coalesced[i].group_size
        );
        assert_eq!(
            coalesced[i].counters,
            solo.counters,
            "request {i} ({:?}) counter attribution diverged in a group of {}",
            req.query.kind(),
            coalesced[i].group_size
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Arbitrary mixes, arbitrary graph families, every lane count: the
    /// coalesced response is bit-identical to the solo response.
    #[test]
    fn coalesced_requests_are_bit_identical_to_solo_runs(
        family in 0u8..2,
        seed in 0u64..1_000,
        queries in proptest::collection::vec(query_strategy(), 2..9),
        lane_idx in 0usize..3,
    ) {
        let gs = service_graphs(family, seed);
        let opts = ExecOpts::default();
        let batch: Vec<Request> = queries
            .into_iter()
            .enumerate()
            .map(|(i, q)| Request::new(i as u64, q))
            .collect();
        rayon::with_num_threads(LANES[lane_idx], || {
            assert_batch_matches_solo(&gs, &opts, &batch);
        });
    }
}

/// A fixed heavily-coalescing batch (three of each coalescible kind plus
/// both solo kinds), swept across all lane counts in one test: solo
/// equivalence holds at each lane, and the whole response set — values,
/// counters, scheduling metadata — is identical across lanes.
#[test]
fn fixed_mixed_batch_equivalent_and_lane_invariant() {
    let gs = service_graphs(1, 42);
    let opts = ExecOpts::default();
    let queries = vec![
        Query::Bfs { source: 0 },
        Query::Bfs { source: 101 },
        Query::Bfs { source: 333 },
        Query::Parents { source: 7 },
        Query::Parents { source: 200 },
        Query::Parents { source: 451 },
        Query::Sssp { source: 3 },
        Query::Sssp { source: 77 },
        Query::Sssp { source: 509 },
        Query::PageRank,
        Query::Bc {
            sources: vec![5, 80],
        },
    ];
    let batch: Vec<Request> = queries
        .into_iter()
        .enumerate()
        .map(|(i, q)| Request::new(i as u64, q))
        .collect();

    let mut per_lane = Vec::new();
    for lanes in LANES {
        let responses = rayon::with_num_threads(lanes, || {
            assert_batch_matches_solo(&gs, &opts, &batch);
            execute_batch(&gs, &opts, &batch, None)
        });
        for r in &responses {
            let expect = match batch[r.id as usize].query.kind() {
                k if k.coalescible() => 3,
                _ => 1,
            };
            assert_eq!(r.group_size, expect, "request {} group size", r.id);
            assert_eq!(r.batch_size, batch.len());
            assert!(!r.retried_solo);
        }
        per_lane.push(
            responses
                .into_iter()
                .map(|r| (r.id, r.result, r.counters, r.group_size))
                .collect::<Vec<_>>(),
        );
    }
    for (lanes, got) in LANES.iter().zip(&per_lane) {
        assert_eq!(got, &per_lane[0], "diverged at {lanes} lanes");
    }
}

/// Sharded execution is an execution detail the service never leaks: a
/// coalesced batch running under a shard policy must return values and
/// per-request bills bit-identical to solo *unsharded* dispatch. `Auto`
/// is the production knob (it engages only above the working-set budget);
/// the `Fixed` grid forces stripes on regardless of size, so the contract
/// is exercised with sharding genuinely live.
#[test]
fn sharded_coalesced_batch_matches_unsharded_solo() {
    let gs = service_graphs(0, 7);
    let plain = ExecOpts::default();
    let queries = vec![
        Query::Bfs { source: 1 },
        Query::Bfs { source: 250 },
        Query::Parents { source: 9 },
        Query::Parents { source: 400 },
        Query::Sssp { source: 12 },
        Query::Sssp { source: 300 },
    ];
    let batch: Vec<Request> = queries
        .into_iter()
        .enumerate()
        .map(|(i, q)| Request::new(i as u64, q))
        .collect();

    for policy in [ShardPolicy::Auto, ShardPolicy::Fixed(ShardGrid::new(2, 4))] {
        let mut sharded = ExecOpts::default();
        sharded.bfs.shards = policy;
        sharded.parents.shards = policy;
        sharded.sssp.shards = policy;
        for lanes in LANES {
            rayon::with_num_threads(lanes, || {
                let coalesced = execute_batch(&gs, &sharded, &batch, None);
                for (i, req) in batch.iter().enumerate() {
                    let solo = execute_batch(
                        &gs,
                        &plain,
                        &[Request::new(req.id, req.query.clone())],
                        None,
                    )
                    .pop()
                    .expect("one request, one response");
                    assert_eq!(
                        coalesced[i].result, solo.result,
                        "sharded batch ({policy:?}, {lanes} lanes) diverged on request {i}"
                    );
                    // Shard telemetry (merge topology) is the one thing
                    // sharding is allowed to change; every billed access
                    // must match the unsharded bill exactly.
                    let mut got = coalesced[i].counters;
                    got.shard_merges = 0;
                    got.cross_shard_writes = 0;
                    let mut want = solo.counters;
                    want.shard_merges = 0;
                    want.cross_shard_writes = 0;
                    assert_eq!(
                        got, want,
                        "sharded batch ({policy:?}, {lanes} lanes) billed request {i} differently"
                    );
                }
            });
        }
    }
}

/// A request naming a vertex outside the graph is answered with a typed
/// `IndexOutOfBounds` and never runs: every sibling's values and bill are
/// those of the same batch without the bad requests.
#[test]
fn out_of_range_requests_get_typed_errors_and_leave_siblings_unchanged() {
    let gs = service_graphs(1, 42);
    let opts = ExecOpts::default();
    let nv = N as u32;
    let valid = [
        Query::Bfs { source: 0 },
        Query::Bfs { source: 101 },
        Query::Parents { source: 7 },
        Query::Parents { source: 451 },
        Query::Sssp { source: 3 },
        Query::Sssp { source: 509 },
        Query::PageRank,
        Query::Bc {
            sources: vec![5, 80],
        },
    ];
    let bad = [
        (Query::Bfs { source: nv }, nv),
        (Query::Parents { source: nv + 9 }, nv + 9),
        (Query::Sssp { source: u32::MAX }, u32::MAX),
        (
            Query::Bc {
                sources: vec![5, nv + 1, nv],
            },
            nv + 1,
        ),
    ];
    let clean: Vec<Request> = valid
        .iter()
        .enumerate()
        .map(|(i, q)| Request::new(i as u64, q.clone()))
        .collect();
    // Interleave: each bad request lands between two valid ones.
    let mut mixed = Vec::new();
    for (i, q) in valid.iter().enumerate() {
        mixed.push(Request::new(i as u64, q.clone()));
        if let Some((b, _)) = bad.get(i / 2).filter(|_| i % 2 == 0) {
            mixed.push(Request::new(100 + i as u64, b.clone()));
        }
    }
    assert_eq!(mixed.len(), valid.len() + bad.len());

    let want = execute_batch(&gs, &opts, &clean, None);
    let got = execute_batch(&gs, &opts, &mixed, None);
    let mut bad_seen = 0;
    for r in &got {
        if r.id >= 100 {
            let (_, index) = &bad[bad_seen];
            bad_seen += 1;
            assert_eq!(
                r.result,
                Err(GrbError::IndexOutOfBounds {
                    index: *index as usize,
                    dim: N
                }),
                "request {}",
                r.id
            );
            assert_eq!(r.counters, CounterSnapshot::default());
        } else {
            let w = &want[r.id as usize];
            assert_eq!(r.result, w.result, "request {} values", r.id);
            assert_eq!(r.counters, w.counters, "request {} counters", r.id);
            assert_eq!(r.group_size, w.group_size, "request {} group", r.id);
        }
    }
    assert_eq!(bad_seen, bad.len());
}
