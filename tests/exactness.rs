//! End-to-end exactness: Koios must return a valid top-k result (Def. 2)
//! for every configuration, compared against a brute-force oracle that runs
//! the Hungarian algorithm on *every* repository set.
//!
//! Ties make the result set ambiguous (Def. 2 allows arbitrary tie-breaks),
//! so validity is checked as: (1) the result has `min(k, #candidates)`
//! hits; (2) every returned set's true overlap is ≥ the oracle's k-th best
//! score (up to float tolerance); (3) reported exact scores match the
//! oracle; (4) reported intervals contain the oracle score.

use koios::prelude::*;
use koios_core::overlap::semantic_overlap;
use koios_datagen::corpus::{Corpus, CorpusSpec};
use std::sync::Arc;

const EPS: f64 = 1e-9;

fn oracle_scores(
    repo: &Repository,
    sim: &dyn ElementSimilarity,
    alpha: f64,
    query: &[koios_common::TokenId],
) -> Vec<(f64, SetId)> {
    let mut scored: Vec<(f64, SetId)> = repo
        .iter_sets()
        .map(|(id, _)| (semantic_overlap(repo, sim, alpha, query, id), id))
        .filter(|(s, _)| *s > 0.0)
        .collect();
    scored.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap().then_with(|| a.1.cmp(&b.1)));
    scored
}

fn check_result(
    repo: &Repository,
    sim: &dyn ElementSimilarity,
    alpha: f64,
    k: usize,
    query: &[koios_common::TokenId],
    result: &koios_core::SearchResult,
    label: &str,
) {
    let oracle = oracle_scores(repo, sim, alpha, query);
    let expected_len = k.min(oracle.len());
    assert_eq!(
        result.hits.len(),
        expected_len,
        "{label}: expected {expected_len} hits, got {}",
        result.hits.len()
    );
    if expected_len == 0 {
        return;
    }
    let theta_k = oracle[expected_len - 1].0;
    for hit in &result.hits {
        let truth = semantic_overlap(repo, sim, alpha, query, hit.set);
        assert!(
            truth >= theta_k - EPS,
            "{label}: returned set {:?} with SO {truth} below θk {theta_k}",
            hit.set
        );
        match hit.score {
            ScoreBound::Exact(s) => assert!(
                (s - truth).abs() < EPS,
                "{label}: exact score {s} != oracle {truth} for {:?}",
                hit.set
            ),
            ScoreBound::Range { lb, ub } => assert!(
                lb <= truth + EPS && truth <= ub + EPS,
                "{label}: oracle {truth} outside [{lb}, {ub}] for {:?}",
                hit.set
            ),
        }
    }
    // No duplicate sets.
    let mut ids = result.set_ids();
    ids.sort();
    ids.dedup();
    assert_eq!(ids.len(), result.hits.len(), "{label}: duplicate hits");
}

/// A seeded corpus with cosine similarity over its embeddings.
fn generate(seed: u64) -> (Arc<Repository>, Arc<dyn ElementSimilarity>) {
    let mut s = CorpusSpec::small(seed);
    s.num_sets = 150;
    s.vocab_size = 600;
    s.clusters = 80;
    let corpus = Corpus::generate(s);
    let sim = Arc::new(CosineSimilarity::new(Arc::new(corpus.embeddings)));
    (Arc::new(corpus.repository), sim)
}

/// Searches `query` on `p ∈ {1, 2, 7}` shards: every answer must pass the
/// oracle check, and one shard must return exactly the hits of the
/// single engine — score forms included — after exactly its matchings.
fn check_shard_counts(
    repo: &Arc<Repository>,
    sim: &Arc<dyn ElementSimilarity>,
    cfg: &KoiosConfig,
    query: &[koios_common::TokenId],
    single: &koios_core::SearchResult,
    label: &str,
) {
    for parts in [1usize, 2, 7] {
        let backend = EngineBackend::new(Arc::clone(repo), Arc::clone(sim), cfg.clone(), parts, 5);
        let res = backend.search(query);
        if parts == 1 {
            assert_eq!(res.hits, single.hits, "{label}: p = 1 differs");
            assert_eq!(res.stats.em_full, single.stats.em_full, "{label}");
            assert_eq!(res.stats.no_em, single.stats.no_em, "{label}");
        }
        check_result(
            repo,
            sim.as_ref(),
            cfg.alpha,
            cfg.k,
            query,
            &res,
            &format!("{label} p={parts}"),
        );
    }
}

#[test]
fn koios_matches_oracle_cosine_many_seeds() {
    for seed in 0..6 {
        let (repo, sim) = generate(seed);
        for k in [1, 3, 10] {
            let engine = Koios::new(Arc::clone(&repo), sim.clone(), KoiosConfig::new(k, 0.8));
            for probe in [0u32, 7, 42] {
                let query = repo.set(SetId(probe)).to_vec();
                let res = engine.search(&query);
                check_result(
                    &repo,
                    sim.as_ref(),
                    0.8,
                    k,
                    &query,
                    &res,
                    &format!("cosine seed={seed} k={k} q={probe}"),
                );
                check_shard_counts(
                    &repo,
                    &sim,
                    engine.config(),
                    &query,
                    &res,
                    &format!("cosine seed={seed} k={k} q={probe}"),
                );
            }
        }
    }
}

#[test]
fn koios_matches_oracle_across_alphas() {
    let (repo, sim) = generate(99);
    for alpha in [0.5, 0.7, 0.9, 1.0] {
        let engine = Koios::new(Arc::clone(&repo), sim.clone(), KoiosConfig::new(5, alpha));
        let query = repo.set(SetId(3)).to_vec();
        let res = engine.search(&query);
        check_result(
            &repo,
            sim.as_ref(),
            alpha,
            5,
            &query,
            &res,
            &format!("alpha={alpha}"),
        );
    }
}

#[test]
fn koios_matches_oracle_qgram_similarity() {
    // Plug a purely syntactic, non-metric similarity into the same engine
    // (the generality claim of §IV).
    let (repo, _) = generate(7);
    let sim: Arc<dyn ElementSimilarity> = Arc::new(QGramJaccard::new(&repo, 3));
    let engine = Koios::new(Arc::clone(&repo), sim.clone(), KoiosConfig::new(4, 0.6));
    for probe in [1u32, 20] {
        let query = repo.set(SetId(probe)).to_vec();
        let res = engine.search(&query);
        check_result(
            &repo,
            sim.as_ref(),
            0.6,
            4,
            &query,
            &res,
            &format!("qgram q={probe}"),
        );
        check_shard_counts(
            &repo,
            &sim,
            engine.config(),
            &query,
            &res,
            &format!("qgram q={probe}"),
        );
    }
}

#[test]
fn exact_scores_when_no_em_disabled() {
    let (repo, sim) = generate(13);
    let mut cfg = KoiosConfig::new(8, 0.8);
    cfg.no_em_filter = false;
    let engine = Koios::new(Arc::clone(&repo), sim.clone(), cfg);
    let query = repo.set(SetId(11)).to_vec();
    let res = engine.search(&query);
    let oracle = oracle_scores(&repo, sim.as_ref(), 0.8, &query);
    assert!(res.hits.iter().all(|h| h.score.exact().is_some()));
    // Exact mode: the score sequence must equal the oracle's top-k exactly.
    for (hit, &(os, _)) in res.hits.iter().zip(oracle.iter()) {
        assert!((hit.score.exact().unwrap() - os).abs() < EPS);
    }
    check_result(&repo, sim.as_ref(), 0.8, 8, &query, &res, "no-em-off");
}

#[test]
fn queries_not_drawn_from_the_corpus() {
    // Mixed-topic probe queries assembled from arbitrary vocabulary tokens.
    let (repo, sim) = generate(21);
    let engine = Koios::new(Arc::clone(&repo), sim.clone(), KoiosConfig::new(3, 0.8));
    let query: Vec<koios_common::TokenId> =
        (0..40).map(|i| koios_common::TokenId(i * 13)).collect();
    let res = engine.search(&query);
    check_result(&repo, sim.as_ref(), 0.8, 3, &query, &res, "probe-query");
}
