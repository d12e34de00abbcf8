//! Warm start: save a query-ready engine once, restart without a rebuild.
//!
//! Generates a small synthetic corpus, builds a sharded engine, snapshots
//! it with `koios-store`, then plays the restart: a "new process" restores
//! the engine and a whole `SearchService` from the file alone — no corpus
//! regeneration, no index build — and answers byte-identically to the
//! engine that wrote the snapshot.
//!
//! ```text
//! cargo run --release --example warm_start
//! ```

use koios::prelude::*;
use koios::store::SnapshotMeta;
use koios_datagen::corpus::{Corpus, CorpusSpec};
use std::sync::Arc;
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ----- Cold process: generate, build, snapshot. --------------------
    let t0 = Instant::now();
    let corpus = Corpus::generate(CorpusSpec::small(7));
    let repo = Arc::new(corpus.repository);
    let emb = Arc::new(corpus.embeddings);
    let sim: Arc<dyn ElementSimilarity> = Arc::new(CosineSimilarity::new(Arc::clone(&emb)));
    let cold = EngineBackend::new(Arc::clone(&repo), sim, KoiosConfig::new(5, 0.8), 4, 7);
    let cold_build = t0.elapsed();

    let path = std::env::temp_dir().join("koios-warm-start.ksnap");
    let t0 = Instant::now();
    let meta = cold.write_snapshot(&path, Some(&emb))?;
    println!(
        "cold build {:.1?}; snapshot written: {} ({} bytes, {} sections, layout {})",
        cold_build,
        path.display(),
        meta.total_bytes,
        meta.sections.len(),
        meta.layout.describe()
    );
    println!("snapshot write took {:.1?}", t0.elapsed());

    // ----- Inspect without loading (what an operator's tooling does). --
    let peek = SnapshotMeta::read(&path)?;
    println!(
        "meta-only read: format v{}, {} sets, {} tokens, embeddings: {}",
        peek.format_version, peek.num_sets, peek.vocab_size, peek.has_embeddings
    );

    // ----- "Restarted" process: warm-start engine + service. -----------
    let t0 = Instant::now();
    let (warm, _) = EngineBackend::from_snapshot(&path, KoiosConfig::new(5, 0.8))?;
    println!(
        "warm start took {:.1?} ({} partitions restored, no rebuild)",
        t0.elapsed(),
        warm.num_partitions()
    );

    let query = repo.set(SetId(12)).to_vec();
    let a = cold.search(&query);
    let b = warm.search(&query);
    assert_eq!(a.hits, b.hits, "warm hits must be byte-identical");
    println!("cold ≡ warm over {} hits:", a.hits.len());
    for hit in &a.hits {
        println!(
            "  {} -> lb {:.2}, ub {:.2}",
            warm.repository().set_name(hit.set),
            hit.score.lb(),
            hit.score.ub()
        );
    }

    // A whole serving stack from the same file, provenance included.
    let service =
        SearchService::from_snapshot(&path, KoiosConfig::new(5, 0.8), ServiceConfig::new())?;
    let resp = service.search(SearchRequest::new(query));
    assert_eq!(resp.result.hits, a.hits);
    let info = service.stats().snapshot.expect("warm-started");
    println!(
        "service warm-started from {} ({} bytes) in {:.1?}",
        info.path, info.bytes, info.load_time
    );
    Ok(())
}
