//! Quickstart: the paper's running example (Fig. 1) end to end.
//!
//! Builds the query `Q` and candidates `C1`, `C2` from the paper's
//! introduction, gives the tokens synthetic embeddings whose synonym
//! structure mirrors the figure (BigApple ≈ NewYorkCity, Charleston ≈ SC,
//! ...), and compares vanilla, fuzzy (q-gram), greedy, and semantic
//! rankings — reproducing the punchline: only exact semantic overlap ranks
//! `C2` first.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use koios::prelude::*;
use koios_baselines::{greedy_topk, vanilla_topk};
use koios_core::overlap::semantic_overlap;
use koios_index::inverted::InvertedIndex;
use std::sync::Arc;

fn main() {
    // The collection L = {C1, C2} from Fig. 1.
    let mut builder = RepositoryBuilder::new();
    let c1 = builder.add_set(
        "C1",
        [
            "LA",
            "Blain",
            "Appleton",
            "MtPleasant",
            "Lexington",
            "WestCoast",
        ],
    );
    let c2 = builder.add_set(
        "C2",
        [
            "LA",
            "Sacramento",
            "Southern",
            "Blain",
            "SC",
            "Minnesota",
            "NewYorkCity",
        ],
    );
    let mut repo = builder.build();

    // Q = {LA, Seattle, Columbia, Blaine, BigApple, Charleston}.
    let query = repo.intern_query_mut([
        "LA",
        "Seattle",
        "Columbia",
        "Blaine",
        "BigApple",
        "Charleston",
    ]);

    // Synthetic embeddings standing in for FastText: synonym groups are the
    // semantic relations Fig. 1 draws as dashed edges.
    let embeddings = SyntheticEmbeddings::builder()
        .dimensions(48)
        .seed(3)
        .synonym_noise(0.15)
        .synonyms(
            &mut repo,
            &[
                &["Blaine", "Blain"],
                &["BigApple", "NewYorkCity"],
                &["Charleston", "SC", "Columbia"],
                &["Seattle", "WestCoast", "Sacramento"],
                &["MtPleasant", "Lexington"],
            ],
        )
        .build(&repo);
    let cosine: Arc<dyn ElementSimilarity> = Arc::new(CosineSimilarity::new(Arc::new(embeddings)));
    let alpha = 0.7;
    let index = InvertedIndex::build(&repo);

    println!("Query: {{LA, Seattle, Columbia, Blaine, BigApple, Charleston}}\n");

    // (1) Vanilla overlap: both candidates tie at 1 (only LA matches).
    println!("vanilla overlap:");
    for (set, count) in vanilla_topk(&repo, &index, &query, 2) {
        println!("  {} -> {}", repo.set_name(set), count);
    }

    // (2) Fuzzy overlap (q-gram Jaccard as the element similarity): catches
    // Blaine/Blain but not the synonyms.
    let qgram = QGramJaccard::new(&repo, 3);
    println!("\nfuzzy overlap (Jaccard on 3-grams, α = 0.5):");
    for set in [c1, c2] {
        let so = semantic_overlap(&repo, &qgram, 0.5, &query, set);
        println!("  {} -> {:.2}", repo.set_name(set), so);
    }

    // (3) Greedy matching over the semantic similarities: suboptimal.
    println!("\ngreedy semantic matching (α = {alpha}):");
    for (set, score) in greedy_topk(&repo, &index, cosine.as_ref(), &query, 2, alpha) {
        println!("  {} -> {score:.2}", repo.set_name(set));
    }

    // (4) Exact semantic overlap with Koios.
    let repo = Arc::new(repo);
    let engine = Koios::new(
        Arc::clone(&repo),
        Arc::clone(&cosine),
        KoiosConfig::new(2, alpha),
    );
    let result = engine.search(&query);
    println!("\nKoios exact semantic overlap (α = {alpha}):");
    for hit in &result.hits {
        println!(
            "  {} -> {:.2}  (lb {:.2}, ub {:.2})",
            repo.set_name(hit.set),
            hit.score.ub(),
            hit.score.lb(),
            hit.score.ub()
        );
    }
    assert_eq!(
        result.hits[0].set, c2,
        "semantic overlap must rank C2 first"
    );
    println!(
        "\ntop-1 = {} — the semantically richer set wins, as in the paper.",
        repo.set_name(result.hits[0].set)
    );
    println!(
        "stats: {} candidates, {} stream tuples, {} exact matchings",
        result.stats.candidates, result.stats.stream_tuples, result.stats.em_full
    );
}
