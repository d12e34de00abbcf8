//! Operational behaviour: time budgets produce flagged partial results
//! (the paper's 2500 s query timeouts), and the memory report covers every
//! search structure of §VIII-D.

use koios::prelude::*;
use koios_datagen::corpus::{Corpus, CorpusSpec};
use std::sync::Arc;
use std::time::Duration;

fn corpus() -> (Arc<Repository>, Arc<dyn ElementSimilarity>) {
    let mut s = CorpusSpec::small(3001);
    s.num_sets = 300;
    s.vocab_size = 800;
    let c = Corpus::generate(s);
    let sim = Arc::new(CosineSimilarity::new(Arc::new(c.embeddings)));
    (Arc::new(c.repository), sim)
}

#[test]
fn zero_budget_times_out_gracefully() {
    let (repo, sim) = corpus();
    let cfg = KoiosConfig::new(5, 0.8).with_time_budget(Duration::from_nanos(1));
    let engine = Koios::new(Arc::clone(&repo), sim, cfg);
    let query = repo.set(SetId(0)).to_vec();
    let res = engine.search(&query);
    assert!(res.stats.timed_out, "nanosecond budget must time out");
    // Partial results are still structurally sound (no duplicates, sorted).
    let mut ids = res.set_ids();
    let n = ids.len();
    ids.sort();
    ids.dedup();
    assert_eq!(ids.len(), n);
}

#[test]
fn generous_budget_never_times_out() {
    let (repo, sim) = corpus();
    let cfg = KoiosConfig::new(5, 0.8).with_time_budget(Duration::from_secs(300));
    let engine = Koios::new(Arc::clone(&repo), sim, cfg);
    let query = repo.set(SetId(1)).to_vec();
    let res = engine.search(&query);
    assert!(!res.stats.timed_out);
    assert_eq!(res.hits.len(), 5);
}

#[test]
fn memory_report_covers_both_phases() {
    let (repo, sim) = corpus();
    let engine = Koios::new(Arc::clone(&repo), sim, KoiosConfig::new(5, 0.8));
    let query = repo.set(SetId(2)).to_vec();
    let res = engine.search(&query);
    let names: Vec<&str> = res.stats.memory.iter().map(|(n, _)| n).collect();
    for expected in [
        "token stream",
        "candidate states",
        "ub buckets",
        "top-k lb list",
        "postprocess states",
        "ub priority queue",
        "top-k ub list",
        "inverted index",
    ] {
        assert!(names.contains(&expected), "missing structure: {expected}");
    }
    assert!(res.stats.memory.total() > 0);
    // The rendered report mentions a total line.
    assert!(format!("{}", res.stats.memory).contains("total"));
}

#[test]
fn stats_are_internally_consistent() {
    let (repo, sim) = corpus();
    let engine = Koios::new(Arc::clone(&repo), sim, KoiosConfig::new(5, 0.8));
    let query = repo.set(SetId(3)).to_vec();
    let s = engine.search(&query).stats;
    // Every candidate is pruned, survives to post-processing, or was a
    // discovery-time tombstone.
    assert_eq!(
        s.candidates,
        s.ub_filter_pruned + s.iub_pruned + s.to_postprocess,
        "candidate accounting must balance"
    );
    // Post-processing dispositions cannot exceed the sets that entered.
    assert!(
        s.no_em + s.em_early_terminated + s.em_full + s.postprocess_ub_pruned
            <= s.to_postprocess + s.em_full /* re-verification never happens */
    );
    assert!(s.response_time() >= s.refine_time);
}
