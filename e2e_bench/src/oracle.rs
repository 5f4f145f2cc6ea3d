//! The exact-kNN oracle behind `top1_agree`: a brute-force scan over a
//! copy of the store's rows, voted with the program's own
//! `rank_search`. It runs outside every timed interval.

use tlsfp::core::knn::ScoredPrediction;
use tlsfp::index::{Metric, Neighbor, SearchResult};

use crate::adapter;
use crate::spans::Tracer;

/// The oracle's verdict on one query.
#[derive(Debug, Clone, PartialEq)]
pub struct OracleDecision {
    pub scored: ScoredPrediction,
    /// An exact distance tie decides the outcome: either at the k-th
    /// neighbour boundary, or between the two best-ranked labels
    /// (equal votes and equal best distance). Tie-break rules may then
    /// legitimately differ between the oracle and the store.
    pub tie: bool,
}

/// A frozen copy of a store's rows.
#[derive(Debug, Clone)]
pub struct ExactKnn {
    pub dim: usize,
    pub rows: Vec<f32>,
    pub labels: Vec<usize>,
}

impl ExactKnn {
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Brute-forces the `k` nearest rows under the Euclidean metric,
    /// ordered by `(distance, row index)`, and votes.
    pub fn decide(&self, query: &[f32], k: usize) -> OracleDecision {
        let mut all: Vec<Neighbor> = self
            .rows
            .chunks_exact(self.dim)
            .zip(&self.labels)
            .enumerate()
            .map(|(i, (row, &label))| Neighbor {
                id: i as u64,
                label,
                dist: Metric::Euclidean.eval(query, row),
            })
            .collect();
        all.sort_by(|a, b| a.dist.total_cmp(&b.dist).then(a.id.cmp(&b.id)));
        let k = k.max(1).min(all.len());
        let boundary_tie = all.len() > k && all[k - 1].dist == all[k].dist;
        all.truncate(k);
        let nearest = all.first().map_or(f32::INFINITY, |n| n.dist);
        let rank_tie = top_two_tied(&all);
        let scored = adapter::vote(
            &Tracer::new(false),
            SearchResult {
                neighbors: all,
                nearest,
                distance_evals: self.len() as u64,
            },
        );
        OracleDecision {
            scored,
            tie: boundary_tie || rank_tie,
        }
    }
}

/// Whether the two labels `rank_search` would rank first and second
/// have equal votes and an equal best distance.
fn top_two_tied(neighbors: &[Neighbor]) -> bool {
    let mut tally: Vec<(usize, usize, f32)> = Vec::new();
    for n in neighbors {
        match tally.iter_mut().find(|(l, _, _)| *l == n.label) {
            Some((_, v, d)) => {
                *v += 1;
                *d = d.min(n.dist);
            }
            None => tally.push((n.label, 1, n.dist)),
        }
    }
    tally.sort_by(|a, b| b.1.cmp(&a.1).then(a.2.total_cmp(&b.2)));
    tally.len() > 1 && tally[0].1 == tally[1].1 && tally[0].2 == tally[1].2
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlsfp::index::sharded::ShardedStore;
    use tlsfp::index::{IndexConfig, Rows};

    use crate::spans::Tracer;

    /// 1-d store: class 0 at {0, 1}, class 1 at {1, 5}, class 2 at {9}.
    /// Rows 1 and 2 (classes 0 and 1) coincide, so some queries tie.
    fn store(shards: usize) -> (ShardedStore, ExactKnn) {
        let data = [0.0f32, 1.0, 1.0, 5.0, 9.0];
        let labels = [0usize, 0, 1, 1, 2];
        let store = ShardedStore::build(
            &IndexConfig::Flat,
            Metric::Euclidean,
            Rows::new(1, &data),
            &labels,
            3,
            shards,
        );
        let (rows, labels) = store.concat_rows();
        (
            store,
            ExactKnn {
                dim: 1,
                rows,
                labels,
            },
        )
    }

    #[test]
    fn oracle_matches_rank_search_without_ties() {
        let off = &Tracer::new(false);
        for shards in [1, 2, 3] {
            let (store, oracle) = store(shards);
            for (q, k) in [([0.2f32], 3), ([4.0], 1), ([8.0], 2), ([5.5], 2)] {
                let program = adapter::vote(off, adapter::search_one(off, &store, &q, k, 1));
                let exact = oracle.decide(&q, k);
                assert!(!exact.tie, "q={q:?} k={k}");
                assert_eq!(exact.scored.prediction.top(), program.prediction.top());
                assert_eq!(exact.scored.score.to_bits(), program.score.to_bits());
            }
        }
    }

    #[test]
    fn oracle_flags_exact_ties() {
        let (_, oracle) = store(1);
        // Rows 1 (class 0) and 2 (class 1) are both at distance 0 from
        // 1.0: with k = 1 the boundary is tied.
        let d = oracle.decide(&[1.0], 1);
        assert!(d.tie);
        // k = 2 keeps both: one vote each at equal best distance, a
        // rank tie between classes 0 and 1.
        let d = oracle.decide(&[1.0], 2);
        assert!(d.tie);
        assert_eq!(d.scored.prediction.votes, vec![1, 1]);
        // k = 3 adds row 0 (class 0, distance 1): class 0 wins outright
        // and the oracle agrees with the store.
        let d = oracle.decide(&[1.0], 3);
        assert!(!d.tie);
        assert_eq!(d.scored.prediction.top(), Some(0));
        let (store, _) = store(2);
        let off = &Tracer::new(false);
        let program = adapter::vote(off, adapter::search_one(off, &store, &[1.0], 3, 1));
        assert_eq!(program.prediction.top(), Some(0));
    }
}
