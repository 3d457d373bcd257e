//! Correctness checks behind `failed` and the error rate. Every output
//! the benchmark times is compared, outside the timed region, with an
//! independent reference; a mismatch or a typed abort is a failed
//! operation.

use std::collections::HashMap;

use graphblas_algo::bc::brandes_oracle;
use graphblas_algo::bfs_parents::{verify_parents, NO_PARENT};
use graphblas_algo::pagerank::{pagerank, PageRankOpts};
use graphblas_algo::sssp::dijkstra_oracle;
use graphblas_baselines::edges_traversed;
use graphblas_baselines::textbook::bfs_serial;
use graphblas_matrix::{Graph, VertexId};
use graphblas_service::{Query, QueryOutput, Request, Response};

/// SSSP distances are f32 sums whose order differs between the
/// algebraic kernels and Dijkstra: accept a relative error of 1e-5.
pub const SSSP_REL_TOL: f32 = 1e-5;
/// Betweenness sums f64 path-count ratios in a different order than
/// Brandes's serial sweep: accept a relative error of 1e-9.
pub const BC_REL_TOL: f64 = 1e-9;

fn close_f32(a: f32, b: f32) -> bool {
    if a.is_infinite() || b.is_infinite() {
        return a == b;
    }
    (a - b).abs() <= SSSP_REL_TOL * b.abs().max(1.0)
}

fn close_f64(a: f64, b: f64) -> bool {
    (a - b).abs() <= BC_REL_TOL * b.abs().max(1.0)
}

/// Edges a parent BFS examined: the degrees of the vertices it reached,
/// counted as `graphblas_baselines::edges_traversed` counts depths.
fn parent_edges(g: &Graph<bool>, parent: &[u32]) -> u64 {
    parent
        .iter()
        .enumerate()
        .filter(|&(_, &p)| p != NO_PARENT)
        .map(|(v, _)| g.csr().degree(v) as u64)
        .sum()
}

/// A 128-bit fingerprint of a depth vector: two independent polynomial
/// hashes. The oracle keeps fingerprints rather than depth vectors, so
/// its cache (one entry per source) stays out of `peak_rss_mb`.
fn fingerprint(depths: &[i32]) -> u128 {
    let (mut a, mut b) = (0x243f_6a88_85a3_08d3u64, 0x1319_8a2e_0370_7344u64);
    for &d in depths {
        let x = u64::from(d as u32);
        a = (a ^ x).wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(29);
        b = (b ^ x).wrapping_mul(0xc2b2_ae3d_27d4_eb4f).rotate_left(31);
    }
    (u128::from(a) << 64) | u128::from(b)
}

/// Reference results, computed once per input and cached.
pub struct Oracle<'a> {
    g: &'a Graph<bool>,
    weighted: Option<&'a Graph<f32>>,
    pagerank_opts: PageRankOpts,
    bfs: HashMap<VertexId, u128>,
    pagerank: Option<(Vec<f64>, usize)>,
}

impl<'a> Oracle<'a> {
    #[must_use]
    pub fn new(
        g: &'a Graph<bool>,
        weighted: Option<&'a Graph<f32>>,
        pagerank_opts: PageRankOpts,
    ) -> Self {
        Self {
            g,
            weighted,
            pagerank_opts,
            bfs: HashMap::new(),
            pagerank: None,
        }
    }

    /// Run the serial textbook BFS from `s` now, so that checking a
    /// timed result later costs only a fingerprint.
    pub fn prepare(&mut self, s: VertexId) -> u128 {
        let g = self.g;
        *self
            .bfs
            .entry(s)
            .or_insert_with(|| fingerprint(&bfs_serial(g, s)))
    }

    /// Whether `got` equals the serial textbook BFS depths from `s`.
    pub fn check_depths(&mut self, s: VertexId, got: &[i32]) -> bool {
        self.prepare(s) == fingerprint(got)
    }

    /// Check one service response against the reference for its query.
    pub fn check_response(&mut self, req: &Request, resp: &Response) -> bool {
        if resp.id != req.id {
            return false;
        }
        let Ok(out) = &resp.result else {
            return false;
        };
        match (&req.query, out) {
            (Query::Bfs { source }, QueryOutput::Bfs(r)) => self.check_depths(*source, &r.depths),
            (Query::Parents { source }, QueryOutput::Parents(r)) => {
                verify_parents(self.g, *source, &r.parent)
            }
            (Query::Sssp { source }, QueryOutput::Sssp(r)) => {
                let Some(w) = self.weighted else {
                    return false;
                };
                let expect = dijkstra_oracle(w, *source);
                expect.len() == r.dist.len()
                    && r.dist.iter().zip(&expect).all(|(&a, &b)| close_f32(a, b))
            }
            (Query::PageRank, QueryOutput::PageRank { ranks, iters }) => {
                let (g, opts) = (self.g, &self.pagerank_opts);
                let (want, want_iters) = self.pagerank.get_or_insert_with(|| {
                    let r = pagerank(g, opts);
                    (r.ranks, r.iters)
                });
                ranks == want && iters == want_iters
            }
            (Query::Bc { sources }, QueryOutput::Bc(bc)) => {
                let expect = brandes_oracle(self.g, sources);
                expect.len() == bc.len() && bc.iter().zip(&expect).all(|(&a, &b)| close_f64(a, b))
            }
            _ => false,
        }
    }

    /// Edges examined by a traversal response (BFS and parent BFS); 0 for
    /// other kinds and for failed requests. Call after the response
    /// passed [`Oracle::check_response`].
    #[must_use]
    pub fn traversed_edges(&self, resp: &Response) -> u64 {
        match &resp.result {
            Ok(QueryOutput::Bfs(r)) => edges_traversed(self.g, &r.depths) as u64,
            Ok(QueryOutput::Parents(r)) => parent_edges(self.g, &r.parent),
            _ => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_separates_close_vectors() {
        let a = vec![0, 1, 2, -1, 3];
        let mut b = a.clone();
        assert_eq!(fingerprint(&a), fingerprint(&b));
        b[3] = 4;
        assert_ne!(fingerprint(&a), fingerprint(&b));
        assert_ne!(fingerprint(&[1, 0]), fingerprint(&[0, 1]), "order matters");
        assert_ne!(fingerprint(&[0]), fingerprint(&[0, 0]), "length matters");
    }
}
