//! EXPLAIN-mode acceptance tests: the encoded funnel report must take its
//! counts from `SearchStats` at one shard and many, and turning the funnel
//! on must never change a single hit — explain is pure observation, not a
//! search mode.

use koios::common::Json;
use koios::prelude::*;
use koios_datagen::corpus::{Corpus, CorpusSpec};
use std::sync::Arc;

fn corpus(seed: u64) -> (Arc<Repository>, Arc<dyn ElementSimilarity>) {
    let mut s = CorpusSpec::small(seed);
    s.num_sets = 150;
    s.vocab_size = 600;
    s.clusters = 70;
    let c = Corpus::generate(s);
    let sim = Arc::new(CosineSimilarity::new(Arc::new(c.embeddings)));
    (Arc::new(c.repository), sim)
}

/// The encoded report lists every key in wire order, takes each count it
/// shares with `SearchStats` from `SearchStats`, and conserves candidates
/// and posting entries across its stages.
fn assert_reconciled(result: &SearchResult, label: &str) {
    let stats = &result.stats;
    let f = stats
        .funnel
        .as_deref()
        .unwrap_or_else(|| panic!("{label}: explain mode must attach a funnel"));
    // Every key of the report in wire order, with the count it must
    // encode (`None`: evidence only EXPLAIN collects).
    let expected: [(&str, Option<usize>); 22] = [
        ("stream_tuples", Some(stats.stream_tuples)),
        ("postings_probed", Some(stats.stream_tuples)),
        ("posting_entries_scanned", None),
        ("posting_lengths", None),
        ("tombstone_skips", None),
        ("candidates_discovered", Some(stats.candidates)),
        ("ub_filter_pruned", Some(stats.ub_filter_pruned)),
        ("iub_pruned", Some(stats.iub_pruned)),
        ("theta_raises", None),
        ("bucket_moves", Some(stats.bucket_moves)),
        ("entered_postprocess", Some(stats.to_postprocess)),
        ("postprocess_ub_pruned", Some(stats.postprocess_ub_pruned)),
        ("no_em_certified", Some(stats.no_em)),
        ("em_early_terminated", Some(stats.em_early_terminated)),
        ("em_verified", Some(stats.em_full)),
        ("merge_verifications", None),
        ("matrix_cells", None),
        ("support_cells", None),
        ("returned", Some(result.hits.len())),
        ("knn_cache_hits", Some(stats.knn_cache.hits)),
        ("knn_cache_misses", Some(stats.knn_cache.misses)),
        ("shards", None),
    ];
    let Json::Obj(fields) = f.to_json(stats) else {
        panic!("{label}: the report is a JSON object");
    };
    assert_eq!(fields.len(), expected.len(), "{label}: report keys");
    for ((key, value), (want_key, want)) in fields.iter().zip(expected) {
        assert_eq!(key, want_key, "{label}: report key order");
        if let Some(want) = want {
            assert_eq!(value.as_u64(), Some(want as u64), "{label}: {key}");
        }
    }

    // Conservation: every discovered candidate is pruned at refinement,
    // pruned at postprocess admission, or enters postprocess.
    assert_eq!(
        stats.candidates,
        stats.ub_filter_pruned + stats.iub_pruned + stats.to_postprocess,
        "{label}: refinement stage must conserve candidates"
    );
    // Posting-length evidence: one posting list probed per stream tuple.
    assert_eq!(
        f.posting_lengths.len(),
        stats.stream_tuples,
        "{label}: one posting length per stream tuple"
    );
    assert_eq!(
        f.posting_lengths.iter().sum::<usize>(),
        f.posting_entries_scanned,
        "{label}: posting lengths account for every scanned entry"
    );
    assert!(
        f.tombstone_skips <= f.posting_entries_scanned,
        "{label}: tombstone skips are a subset of scanned entries"
    );
}

#[test]
fn funnel_reconciles_with_stats_on_single_engine() {
    let (repo, sim) = corpus(1200);
    for (no_em, early) in [(true, true), (true, false), (false, false)] {
        let mut cfg = KoiosConfig::new(5, 0.8).with_explain(true);
        cfg.no_em_filter = no_em;
        cfg.em_early_termination = early;
        let engine = Koios::new(Arc::clone(&repo), sim.clone(), cfg);
        for q in 0..8u32 {
            let query = repo.set(SetId(q * 7)).to_vec();
            let res = engine.search(&query);
            assert_reconciled(&res, &format!("single no_em={no_em} early={early} q={q}"));
        }
    }
}

/// The report keeps its keys and their order with and without fan-out:
/// no shard rows at p = 1, one row per shard beyond.
#[test]
fn funnel_reconciles_with_stats_on_partitioned_engine() {
    let (repo, sim) = corpus(1201);
    for parts in [1usize, 2, 3, 5, 9] {
        let cfg = KoiosConfig::new(5, 0.8).with_explain(true);
        let engine = EngineBackend::new(Arc::clone(&repo), sim.clone(), cfg, parts, 0xBEEF);
        for q in 0..6u32 {
            let query = repo.set(SetId(q * 11)).to_vec();
            let res = engine.search(&query);
            let label = format!("partitioned parts={parts} q={q}");
            assert_reconciled(&res, &label);

            let stats = &res.stats;
            let f = stats.funnel.as_deref().unwrap();
            if parts == 1 {
                assert!(f.shards.is_empty(), "{label}: one shard has no sub-funnel");
                continue;
            }
            assert_eq!(f.shards.len(), parts, "{label}: one sub-funnel per shard");
            // The per-shard sub-funnels must sum back to the merged totals
            // for the counters that accumulate shard-locally.
            assert_eq!(
                f.shards.iter().map(|s| s.stream_tuples).sum::<usize>(),
                stats.stream_tuples,
                "{label}: shard stream_tuples"
            );
            assert_eq!(
                f.shards.iter().map(|s| s.candidates).sum::<usize>(),
                stats.candidates,
                "{label}: shard candidates"
            );
            assert_eq!(
                f.shards
                    .iter()
                    .map(|s| s.entered_postprocess)
                    .sum::<usize>(),
                stats.to_postprocess,
                "{label}: shard entered_postprocess"
            );
            // The merge's verifications are the exact matchings run on top
            // of the shards' own.
            assert_eq!(
                f.shards.iter().map(|s| s.em_verified).sum::<usize>() + f.merge_verifications,
                stats.em_full,
                "{label}: shard em_verified"
            );
        }
    }
}

/// Explain is observation only: with identical configs differing in
/// nothing but the `explain` flag, the hit lists are equal hit-for-hit
/// (same sets, bit-identical scores) at one shard and at four.
#[test]
fn explain_mode_never_changes_hits() {
    let (repo, sim) = corpus(1202);
    let cfg = KoiosConfig::new(6, 0.8);
    for parts in [1usize, 4] {
        let plain = EngineBackend::new(Arc::clone(&repo), sim.clone(), cfg.clone(), parts, 7);
        let explain = plain.with_config(cfg.clone().with_explain(true));
        for q in 0..10u32 {
            let query = repo.set(SetId(q * 13)).to_vec();
            let a = plain.search(&query);
            let b = explain.search(&query);
            assert_eq!(a.hits, b.hits, "parts={parts} q={q}");
            assert!(a.stats.funnel.is_none(), "explain off attaches no funnel");
            assert!(b.stats.funnel.is_some());
        }
    }
}

/// The service folds a request-level `explain` into the effective config
/// additively: explain requests get a funnel, plain requests do not, and
/// both see the same hits — under an 8-thread hammer mixing the two.
#[test]
fn explain_requests_under_concurrency() {
    let (repo, sim) = corpus(1203);
    let service = Arc::new(SearchService::new_partitioned(
        Arc::clone(&repo),
        sim,
        KoiosConfig::new(5, 0.8),
        4,
        21,
        ServiceConfig::new().with_workers(4).with_cache_capacity(64),
    ));

    let queries: Vec<Vec<TokenId>> = (0..8).map(|i| repo.set(SetId(i * 9)).to_vec()).collect();
    let expected: Vec<Vec<Hit>> = queries
        .iter()
        .map(|q| {
            service
                .search(SearchRequest::new(q.clone()).bypassing_cache())
                .result
                .hits
        })
        .collect();

    std::thread::scope(|sc| {
        for t in 0..8usize {
            let service = &service;
            let queries = &queries;
            let expected = &expected;
            sc.spawn(move || {
                let explain = t % 2 == 0;
                for round in 0..4 {
                    for (q, want) in queries.iter().zip(expected) {
                        let req = SearchRequest::new(q.clone())
                            .with_explain(explain)
                            .bypassing_cache();
                        let resp = service.search(req);
                        assert_eq!(
                            &resp.result.hits, want,
                            "thread {t} round {round}: hits must not depend on explain"
                        );
                        if explain {
                            assert_reconciled(&resp.result, &format!("hammer t={t} r={round}"));
                        } else {
                            assert!(resp.result.stats.funnel.is_none(), "thread {t}");
                        }
                    }
                }
            });
        }
    });

    // Cached answers carry no funnel even for explain requests: the cache
    // stores hits, and explain never forks the cache key.
    let req = SearchRequest::new(queries[0].clone()).with_explain(true);
    let miss = service.search(req.clone());
    assert!(miss.result.stats.funnel.is_some());
    let hit = service.search(req);
    assert_eq!(hit.cache, CacheOutcome::Hit);
    assert!(hit.result.stats.funnel.is_none());
    assert_eq!(hit.result.hits, miss.result.hits);
}
