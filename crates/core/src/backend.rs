//! The engine a serving layer owns: one [`Koios`] per shard, `p ≥ 1`.
//!
//! Koios runs the same filter–verify pipeline on one index or on `p`
//! partitions that share `θlb` (paper §VI, Fig. 7a). [`EngineBackend`] is
//! that one shape: the repository is sharded pseudo-randomly into `p`
//! inverted indexes, each searched by its own [`Koios`] on the process-wide
//! [`ShardExecutor`](crate::ShardExecutor), and the partial top-k lists are
//! merged with the No-EM filter (Lemma 7) applied over the merged pool (see
//! [`crate::partitioned`]). A one-shard backend therefore does exactly the
//! work of a `Koios` over the full index and returns the same hits, score
//! forms included.
//!
//! Everything result-affecting lives in the shared [`KoiosConfig`], so
//! results — and therefore result-cache keys — do not depend on `p`.

use crate::config::KoiosConfig;
use crate::engine::Koios;
use crate::overlap::semantic_overlap;
use koios_common::fingerprint::partition_of;
use koios_common::{SetId, TokenId};
use koios_embed::repository::Repository;
use koios_embed::sim::ElementSimilarity;
use koios_index::inverted::InvertedIndex;
use std::sync::Arc;

/// An owned search engine over `p ≥ 1` shard indexes merged under a shared
/// monotone `θlb`.
#[derive(Clone)]
pub struct EngineBackend {
    pub(crate) repo: Arc<Repository>,
    pub(crate) sim: Arc<dyn ElementSimilarity>,
    pub(crate) cfg: KoiosConfig,
    seed: u64,
    /// One engine per shard, built once at construction and reused by
    /// every request. They carry the backend's config with the relative
    /// `time_budget` cleared: shards receive the query's absolute deadline
    /// instead, so the budget is never applied twice.
    pub(crate) shards: Vec<Arc<Koios>>,
}

impl EngineBackend {
    /// Shards `repo` into `partitions` pieces with the workspace shard
    /// function ([`partition_of`] under `seed`) and builds one inverted
    /// index per shard. Live ingest and snapshot delta replay route sets
    /// with the same function, so they agree with build-time sharding.
    ///
    /// # Panics
    ///
    /// Panics if `partitions == 0`.
    pub fn new(
        repo: Arc<Repository>,
        sim: Arc<dyn ElementSimilarity>,
        cfg: KoiosConfig,
        partitions: usize,
        seed: u64,
    ) -> Self {
        let indexes = shard_indexes(&repo, partitions, seed);
        Self::from_indexes(repo, sim, cfg, indexes, seed)
    }

    /// Wires up a backend over **pre-built** shard indexes, in shard order
    /// — the snapshot warm-start and live-mutation path (no set assignment
    /// or index build runs here). `seed` records the shard-assignment seed
    /// the indexes were built with.
    ///
    /// # Panics
    ///
    /// Panics if `indexes` is empty.
    pub fn from_indexes(
        repo: Arc<Repository>,
        sim: Arc<dyn ElementSimilarity>,
        cfg: KoiosConfig,
        indexes: Vec<Arc<InvertedIndex>>,
        seed: u64,
    ) -> Self {
        assert!(!indexes.is_empty(), "need at least one partition index");
        let shards = build_shards(&repo, &sim, &cfg, indexes);
        EngineBackend {
            repo,
            sim,
            cfg,
            seed,
            shards,
        }
    }

    /// The engine configuration (shared by every shard search).
    pub fn config(&self) -> &KoiosConfig {
        &self.cfg
    }

    /// A sibling backend over the same repository, similarity and shard
    /// indexes with a different configuration. No index is rebuilt — the
    /// shard engines are re-wired from the shared indexes, a handful of
    /// `Arc` bumps per shard — so per-request `k`/`α` overrides stay cheap.
    pub fn with_config(&self, cfg: KoiosConfig) -> Self {
        let indexes = self.indexes().cloned().collect();
        let shards = build_shards(&self.repo, &self.sim, &cfg, indexes);
        EngineBackend {
            cfg,
            shards,
            ..self.clone()
        }
    }

    /// The repository behind the engine.
    pub fn repository(&self) -> &Arc<Repository> {
        &self.repo
    }

    /// Number of shards (`p ≥ 1`).
    pub fn num_partitions(&self) -> usize {
        self.shards.len()
    }

    /// The per-shard inverted indexes, in shard order (what a snapshot
    /// serializes).
    pub fn indexes(&self) -> impl ExactSizeIterator<Item = &Arc<InvertedIndex>> {
        self.shards.iter().map(|s| s.index())
    }

    /// The shard-assignment seed this backend was built with.
    pub fn partition_seed(&self) -> u64 {
        self.seed
    }

    /// The exact semantic overlap of `query` with one set (verification
    /// without any filtering; used by oracles and result auditing).
    pub fn exact_overlap(&self, query: &[TokenId], set: SetId) -> f64 {
        let mut q = query.to_vec();
        q.sort_unstable();
        q.dedup();
        semantic_overlap(&self.repo, self.sim.as_ref(), self.cfg.alpha, &q, set)
    }
}

/// Builds one inverted index per shard over the live sets of `repo`,
/// routed by [`partition_of`] under `seed`.
///
/// # Panics
///
/// Panics if `partitions == 0`.
pub(crate) fn shard_indexes(
    repo: &Repository,
    partitions: usize,
    seed: u64,
) -> Vec<Arc<InvertedIndex>> {
    assert!(partitions > 0, "need at least one partition");
    let mut shards: Vec<Vec<SetId>> = vec![Vec::new(); partitions];
    for (id, _) in repo.live_sets() {
        shards[partition_of(seed, id, partitions)].push(id);
    }
    shards
        .into_iter()
        .map(|sets| Arc::new(InvertedIndex::build_subset(repo, sets)))
        .collect()
}

fn build_shards(
    repo: &Arc<Repository>,
    sim: &Arc<dyn ElementSimilarity>,
    cfg: &KoiosConfig,
    indexes: Vec<Arc<InvertedIndex>>,
) -> Vec<Arc<Koios>> {
    let mut shard_cfg = cfg.clone();
    shard_cfg.time_budget = None;
    indexes
        .into_iter()
        .map(|index| {
            Arc::new(Koios::with_index(
                Arc::clone(repo),
                Arc::clone(sim),
                index,
                shard_cfg.clone(),
            ))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use koios_embed::repository::RepositoryBuilder;
    use koios_embed::sim::EqualitySimilarity;

    fn repo() -> Arc<Repository> {
        let mut b = RepositoryBuilder::new();
        b.add_set("s0", ["a", "b", "c", "d"]);
        b.add_set("s1", ["a", "b", "c", "x"]);
        b.add_set("s2", ["a", "b", "y", "z"]);
        b.add_set("s3", ["a", "m", "n", "o"]);
        Arc::new(b.build())
    }

    #[test]
    fn variants_agree_on_scores() {
        // Shard counts are the only variants left; with exact scores
        // forced, one and two shards agree score for score.
        let repo = repo();
        let q = repo.intern_query(["a", "b", "c"]);
        let mut cfg = KoiosConfig::new(3, 0.9);
        cfg.no_em_filter = false;
        let one = EngineBackend::new(
            Arc::clone(&repo),
            Arc::new(EqualitySimilarity),
            cfg.clone(),
            1,
            7,
        );
        let two = EngineBackend::new(Arc::clone(&repo), Arc::new(EqualitySimilarity), cfg, 2, 7);
        assert_eq!(one.num_partitions(), 1);
        assert_eq!(two.num_partitions(), 2);
        let s = one.search(&q);
        let p = two.search(&q);
        assert_eq!(s.hits.len(), p.hits.len());
        for (a, b) in s.hits.iter().zip(&p.hits) {
            assert_eq!(a.score.exact(), b.score.exact());
        }
        assert!((one.exact_overlap(&q, SetId(0)) - two.exact_overlap(&q, SetId(0))).abs() < 1e-9);
    }

    #[test]
    fn with_config_is_variant_preserving_and_cheap() {
        let repo = repo();
        let q = repo.intern_query(["a", "b", "c"]);
        let parted = EngineBackend::new(
            Arc::clone(&repo),
            Arc::new(EqualitySimilarity),
            KoiosConfig::new(3, 0.9),
            2,
            7,
        );
        let narrowed = parted.with_config(KoiosConfig::new(1, 0.9));
        assert_eq!(narrowed.num_partitions(), 2);
        assert_eq!(narrowed.partition_seed(), 7);
        assert!(narrowed
            .indexes()
            .zip(parted.indexes())
            .all(|(a, b)| Arc::ptr_eq(a, b)));
        assert_eq!(narrowed.config().k, 1);
        assert_eq!(narrowed.search(&q).hits.len(), 1);
    }
}
