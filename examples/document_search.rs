//! Document search over a generated DBLP-like corpus: top-k semantically
//! similar documents (papers as word sets), comparing Koios against the
//! exhaustive baseline and showing the filter statistics of §VIII.
//!
//! ```text
//! cargo run --release --example document_search
//! ```

use koios::prelude::*;
use koios_baselines::baseline_search;
use koios_datagen::profiles;
use std::sync::Arc;
use std::time::Instant;

fn main() {
    // A small DBLP-like corpus: ~400 "papers", Zipfian vocabulary, topic
    // clusters acting as research areas.
    let profile = profiles::dblp(0.1);
    let corpus = profile.generate();
    // The "query document" is a corpus document; rank 1 must be itself.
    let benchmark = profile.benchmark(&corpus, 7);
    let stats = corpus.repository.stats();
    println!(
        "corpus: {} documents, avg {:.0} words, {} distinct words, {:.0}% embedding coverage",
        stats.num_sets,
        stats.avg_size,
        stats.unique_elems,
        corpus.embeddings.coverage() * 100.0
    );

    let sim: Arc<dyn ElementSimilarity> =
        Arc::new(CosineSimilarity::new(Arc::new(corpus.embeddings)));
    let repo = Arc::new(corpus.repository);
    let engine = Koios::new(
        Arc::clone(&repo),
        Arc::clone(&sim),
        KoiosConfig::new(5, 0.8),
    );

    let query = &benchmark.queries[0];
    println!(
        "\nquery: document '{}' ({} words)",
        repo.set_name(query.source),
        query.tokens.len()
    );

    let t0 = Instant::now();
    let result = engine.search(&query.tokens);
    let koios_time = t0.elapsed();
    println!("\nKoios top-5 (semantic overlap, α = 0.8):");
    for (rank, hit) in result.hits.iter().enumerate() {
        println!(
            "  #{:<2} {:<12} SO in [{:.2}, {:.2}]",
            rank + 1,
            repo.set_name(hit.set),
            hit.score.lb(),
            hit.score.ub()
        );
    }
    assert_eq!(result.hits[0].set, query.source, "self must rank first");

    let s = &result.stats;
    println!("\nfilter pipeline (paper Fig. 2):");
    println!("  stream tuples        {:>8}", s.stream_tuples);
    println!("  candidate sets       {:>8}", s.candidates);
    println!(
        "  pruned in refinement {:>8}  ({:.1}%)",
        s.ub_filter_pruned + s.iub_pruned,
        s.refinement_prune_ratio() * 100.0
    );
    println!("  to post-processing   {:>8}", s.to_postprocess);
    println!("  No-EM certified      {:>8}", s.no_em);
    println!("  EM early-terminated  {:>8}", s.em_early_terminated);
    println!("  full exact matchings {:>8}", s.em_full);
    println!("  memory               {:>8.1} MiB", s.memory.total_mib());

    // The exhaustive baseline verifies every candidate.
    let t0 = Instant::now();
    let base = baseline_search(&repo, Arc::clone(&sim), &query.tokens, 5, 0.8, 4, None);
    let base_time = t0.elapsed();
    println!(
        "\nbaseline: {} exact matchings, {:.1}x slower ({:.3}s vs {:.3}s), same top-5: {}",
        base.stats.em_full,
        base_time.as_secs_f64() / koios_time.as_secs_f64().max(1e-9),
        base_time.as_secs_f64(),
        koios_time.as_secs_f64(),
        base.set_ids() == result.set_ids()
    );
}
