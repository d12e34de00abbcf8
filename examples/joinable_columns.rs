//! Joinable-dataset discovery — the data-lake scenario the paper's
//! introduction motivates (semantic join search, §I).
//!
//! A synthetic data lake holds table columns as sets. The query column uses
//! one naming standard ("NYC", "LA", ...); some lake columns use another
//! ("New York City", "Los Angeles", ...). Vanilla overlap search cannot see
//! the correspondence; Koios ranks the semantically joinable columns on top
//! and — via the matching it computes — also yields the cell-value mapping
//! a join would use (the SEMA-JOIN use case without the web-table corpus).
//!
//! ```text
//! cargo run --release --example joinable_columns
//! ```

use koios::prelude::*;
use koios_baselines::vanilla_topk;
use koios_core::overlap::{semantic_overlap, similarity_matrix};
use koios_index::inverted::InvertedIndex;
use koios_matching::solve_max_matching;
use std::sync::Arc;

/// City synonym table: (canonical short form, long form).
const CITIES: [(&str, &str); 8] = [
    ("NYC", "New York City"),
    ("LA", "Los Angeles"),
    ("SF", "San Francisco"),
    ("CHI", "Chicago"),
    ("PHL", "Philadelphia"),
    ("HOU", "Houston"),
    ("PHX", "Phoenix"),
    ("SEA", "Seattle"),
];

fn main() {
    let mut builder = RepositoryBuilder::new();

    // The data lake: columns from different "agencies".
    // Column A: long-form city names (semantically joinable with the query).
    let col_a = builder.add_set("cities_longform", CITIES.iter().map(|c| c.1));
    // Column B: half short forms, half unrelated values.
    let col_b = builder.add_set(
        "cities_mixed",
        ["NYC", "LA", "SF", "CHI", "n/a", "unknown", "tbd", "-"],
    );
    // Column C: unrelated product codes that happen to share "LA".
    let col_c = builder.add_set(
        "products",
        [
            "LA", "SKU-1", "SKU-2", "SKU-3", "SKU-4", "SKU-5", "SKU-6", "SKU-7",
        ],
    );
    // Column D: other US places, semantically related but not synonyms.
    let col_d = builder.add_set(
        "states",
        ["California", "Texas", "Illinois", "Arizona", "Washington"],
    );
    let mut repo = builder.build();

    // Query column: canonical short forms.
    let query = repo.intern_query_mut(CITIES.iter().map(|c| c.0));

    // Embeddings: each (short, long) pair forms a synonym cluster.
    let groups: Vec<Vec<&str>> = CITIES.iter().map(|c| vec![c.0, c.1]).collect();
    let group_refs: Vec<&[&str]> = groups.iter().map(|g| g.as_slice()).collect();
    let embeddings = SyntheticEmbeddings::builder()
        .dimensions(48)
        .seed(11)
        .synonym_noise(0.12)
        .synonyms(&mut repo, &group_refs)
        .build(&repo);
    let sim: Arc<dyn ElementSimilarity> = Arc::new(CosineSimilarity::new(Arc::new(embeddings)));
    let alpha = 0.7;

    // Vanilla join search: ranks by exact value overlap only.
    let index = InvertedIndex::build(&repo);
    println!("vanilla joinability ranking (exact value overlap):");
    for (set, count) in vanilla_topk(&repo, &index, &query, 4) {
        println!("  {:<18} overlap {}", repo.set_name(set), count);
    }

    // Semantic join search with Koios.
    let repo = Arc::new(repo);
    let engine = Koios::new(
        Arc::clone(&repo),
        Arc::clone(&sim),
        KoiosConfig::new(4, alpha),
    );
    let result = engine.search(&query);
    println!("\nsemantic joinability ranking (Koios, α = {alpha}):");
    for hit in &result.hits {
        println!(
            "  {:<18} SO in [{:.2}, {:.2}]",
            repo.set_name(hit.set),
            hit.score.lb(),
            hit.score.ub()
        );
    }
    assert_eq!(result.hits[0].set, col_a, "long-form column must win");
    let _ = (col_b, col_c, col_d);

    // The matching itself = the cell-value join mapping.
    let m = similarity_matrix(sim.as_ref(), alpha, &query, repo.set(col_a));
    let matching = solve_max_matching(&m, None).exact().expect("exact run");
    println!(
        "\njoin mapping for {} (SO = {:.2}):",
        repo.set_name(col_a),
        semantic_overlap(&repo, sim.as_ref(), alpha, &query, col_a)
    );
    let col_tokens = repo.set(col_a);
    for (qi, cj) in matching.pairs {
        println!(
            "  {:<4} <-> {}",
            repo.token_str(query[qi as usize]),
            repo.token_str(col_tokens[cj as usize])
        );
    }
}
