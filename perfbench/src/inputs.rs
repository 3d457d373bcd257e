//! Workload inputs, generated here from the workload seed and handed to
//! the program: BFS sources and bursty open-loop request arrivals. The
//! program never sees the seed, only what it produces.

use graphblas_matrix::{Graph, VertexId};
use graphblas_service::{Query, QueryKind, QueryMix, Request};

/// SplitMix64: a small seeded generator, so inputs do not depend on any
/// random-number crate the program itself uses.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream per purpose, so adding draws to one input
    /// never shifts another.
    #[must_use]
    pub fn stream(seed: u64, purpose: &str) -> Self {
        let salt = purpose.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3)
        });
        Self(seed ^ salt)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "empty range");
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `lo..=hi`.
    pub fn between(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo + 1)
    }
}

/// `count` sources among the non-isolated vertices (an isolated source
/// ends after one level and measures nothing), one drawn uniformly from
/// each of `count` equal ranges of vertex ids. R-MAT ids follow degree,
/// so stratifying keeps the share of hub and leaf sources the same from
/// seed to seed. A range whose 64 draws all hit isolated vertices falls
/// back to a draw from the whole graph.
///
/// # Panics
/// If the graph has no edges.
#[must_use]
pub fn sources(g: &Graph<bool>, count: usize, rng: &mut Rng) -> Vec<VertexId> {
    let n = g.n_vertices() as u64;
    assert!(g.n_edges() > 0, "graph has no non-isolated vertices");
    let connected = |v: &u64| g.csr().degree(*v as usize) > 0;
    let count = count as u64;
    (0..count)
        .map(|i| {
            let lo = i * n / count;
            let hi = ((i + 1) * n / count).max(lo + 1);
            let v = (0..64)
                .map(|_| rng.between(lo, hi - 1))
                .find(connected)
                .unwrap_or_else(|| loop {
                    let v = rng.below(n);
                    if connected(&v) {
                        break v;
                    }
                });
            v as VertexId
        })
        .collect()
}

/// The open-loop arrival process: bursts of `burst` requests that arrive
/// within `burst_ticks` of each other, one burst every `gap_ticks` on
/// average. Every burst carries the query mix exactly (`burst` is a
/// multiple of the mix's total weight), in shuffled order: with kinds
/// drawn independently, whether a burst holds the one slow PageRank of
/// the mix decides its latency, and the share of such bursts would differ
/// from run to run.
#[derive(Clone, Copy, Debug)]
pub struct BurstShape {
    pub burst: u64,
    pub burst_ticks: u64,
    pub gap_ticks: u64,
    pub mix: QueryMix,
}

/// Draws request segments from one seeded stream: the same seed yields
/// the same sequence of segments, whatever the machine's speed.
pub struct Arrivals<'g> {
    g: &'g Graph<bool>,
    shape: BurstShape,
    deck: Vec<QueryKind>,
    rng: Rng,
    next_id: u64,
}

impl<'g> Arrivals<'g> {
    /// # Panics
    /// If `shape.burst` is not a positive multiple of the mix's total.
    #[must_use]
    pub fn new(g: &'g Graph<bool>, shape: BurstShape, rng: Rng) -> Self {
        let m = shape.mix;
        let one: Vec<QueryKind> = [
            (m.bfs, QueryKind::Bfs),
            (m.parents, QueryKind::Parents),
            (m.sssp, QueryKind::Sssp),
            (m.pagerank, QueryKind::PageRank),
            (m.bc, QueryKind::Bc),
        ]
        .iter()
        .flat_map(|&(w, k)| std::iter::repeat_n(k, w as usize))
        .collect();
        assert!(
            !one.is_empty() && shape.burst > 0 && shape.burst.is_multiple_of(one.len() as u64),
            "burst must hold the mix a whole number of times"
        );
        let deck = one.repeat((shape.burst / one.len() as u64) as usize);
        Self {
            g,
            shape,
            deck,
            rng,
            next_id: 0,
        }
    }

    fn source(&mut self) -> VertexId {
        sources(self.g, 1, &mut self.rng)[0]
    }

    /// A query of `kind` on sources drawn from this stream.
    pub fn query(&mut self, kind: QueryKind) -> Query {
        match kind {
            QueryKind::Bfs => Query::Bfs {
                source: self.source(),
            },
            QueryKind::Parents => Query::Parents {
                source: self.source(),
            },
            QueryKind::Sssp => Query::Sssp {
                source: self.source(),
            },
            QueryKind::PageRank => Query::PageRank,
            QueryKind::Bc => Query::Bc {
                sources: vec![self.source(), self.source()],
            },
        }
    }

    /// The next segment of `bursts` bursts, in arrival order, with ticks
    /// counted from the segment's start. Request ids keep counting across
    /// segments.
    pub fn segment(&mut self, bursts: usize) -> Vec<Request> {
        let s = self.shape;
        let mut out = Vec::new();
        let mut start = 0u64;
        for b in 0..bursts {
            if b > 0 {
                start += self.rng.between(s.gap_ticks / 2, s.gap_ticks * 3 / 2);
            }
            // Fisher-Yates over the deck, then one arrival per card.
            let mut deck = self.deck.clone();
            for i in (1..deck.len()).rev() {
                deck.swap(i, self.rng.below(i as u64 + 1) as usize);
            }
            let mut offsets: Vec<u64> = deck
                .iter()
                .map(|_| self.rng.below(s.burst_ticks + 1))
                .collect();
            offsets.sort_unstable();
            for (kind, off) in deck.into_iter().zip(offsets) {
                let q = self.query(kind);
                out.push(Request::new(self.next_id, q).at_tick(start + off));
                self.next_id += 1;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphblas_matrix::Coo;

    fn star_plus_isolated() -> Graph<bool> {
        // Vertices 0..4 form a star around 0; 5..9 are isolated.
        let mut coo = Coo::new(10, 10);
        for v in 1..5 {
            coo.push(0, v, true);
        }
        coo.clean_undirected();
        Graph::from_coo(&coo)
    }

    #[test]
    fn same_seed_same_inputs() {
        let g = star_plus_isolated();
        let a = sources(&g, 50, &mut Rng::stream(7, "sources"));
        let b = sources(&g, 50, &mut Rng::stream(7, "sources"));
        let c = sources(&g, 50, &mut Rng::stream(8, "sources"));
        assert_eq!(a, b);
        assert_ne!(a, c, "the seed must matter");
        assert!(
            a.iter().all(|&v| v < 5),
            "isolated vertices are never sources"
        );
    }

    #[test]
    fn sources_cover_the_id_range() {
        // A path over all 1000 vertices: every range has edges, so each
        // of 10 sources lands in its own tenth of the ids.
        let mut coo = Coo::new(1000, 1000);
        for v in 1..1000 {
            coo.push(v - 1, v, true);
        }
        coo.clean_undirected();
        let g = Graph::from_coo(&coo);
        let s = sources(&g, 10, &mut Rng::stream(5, "sources"));
        for (i, &v) in s.iter().enumerate() {
            assert_eq!(v as usize / 100, i, "source {v} outside range {i}");
        }
    }

    #[test]
    fn bursts_are_sorted_and_tight() {
        let g = star_plus_isolated();
        let shape = BurstShape {
            burst: 16,
            burst_ticks: 1_000,
            gap_ticks: 100_000,
            mix: QueryMix::default(),
        };
        let mut arr = Arrivals::new(&g, shape, Rng::stream(3, "arrivals"));
        let seg = arr.segment(20);
        assert!(seg
            .windows(2)
            .all(|w| w[0].arrival_tick <= w[1].arrival_tick));
        assert!(seg.windows(2).all(|w| w[1].id == w[0].id + 1));
        let n = seg.len();
        assert_eq!(n, 20 * 16);
        // Bursts are ≥ gap/2 apart and ≤ burst_ticks wide, so any gap
        // above burst_ticks starts a new burst: exactly 19 of them.
        let starts = seg
            .windows(2)
            .filter(|w| w[1].arrival_tick - w[0].arrival_tick > 1_000)
            .count();
        assert_eq!(starts, 19);
        let next = arr.segment(1);
        assert_eq!(next[0].id, n as u64, "ids continue across segments");
        let again = Arrivals::new(&g, shape, Rng::stream(3, "arrivals")).segment(20);
        assert!(seg
            .iter()
            .zip(&again)
            .all(|(a, b)| a.query == b.query && a.arrival_tick == b.arrival_tick));
    }

    #[test]
    fn mix_weights_select_kinds() {
        let g = star_plus_isolated();
        let only_bfs = QueryMix {
            bfs: 1,
            parents: 0,
            sssp: 0,
            pagerank: 0,
            bc: 0,
        };
        let shape = BurstShape {
            burst: 8,
            burst_ticks: 10,
            gap_ticks: 100,
            mix: only_bfs,
        };
        let seg = Arrivals::new(&g, shape, Rng::stream(1, "a")).segment(10);
        assert!(seg.iter().all(|r| matches!(r.query, Query::Bfs { .. })));
        let shape = BurstShape {
            burst: 16,
            mix: QueryMix::default(),
            ..shape
        };
        let seg = Arrivals::new(&g, shape, Rng::stream(1, "a")).segment(3);
        // Every burst carries the default mix 8:3:3:1:1 exactly.
        for burst in seg.chunks(16) {
            let count = |kind: &str| {
                burst
                    .iter()
                    .filter(|r| format!("{:?}", r.query).starts_with(kind))
                    .count()
            };
            let counts = ["Bfs", "Parents", "Sssp", "PageRank", "Bc"].map(count);
            assert_eq!(counts, [8, 3, 3, 1, 1]);
        }
    }
}
