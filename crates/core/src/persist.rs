//! Engine persistence: snapshot write-out and warm-start restore.
//!
//! `koios-store` owns the binary format (sections, checksums, typed
//! errors); this module threads it through the engine layer so one call
//! saves or restores a query-ready backend:
//!
//! * [`EngineBackend::write_snapshot`] serializes the repository, optional
//!   token vectors and every shard's inverted index under the partitioned
//!   [`SnapshotLayout`] (one shard included).
//! * [`EngineBackend::from_snapshot`] restores a backend — no rebuild, no
//!   re-partitioning: shard indexes come back bit-exactly, so a
//!   warm-started engine returns byte-identical hits. Files written with
//!   the older single layout restore as one shard. The default
//!   constructor rebuilds a [`CosineSimilarity`] over the snapshotted
//!   vectors; [`EngineBackend::from_snapshot_with`] accepts any
//!   similarity factory (equality, q-gram Jaccard, …).

use crate::backend::EngineBackend;
use crate::config::KoiosConfig;
use koios_embed::repository::Repository;
use koios_embed::sim::{CosineSimilarity, ElementSimilarity};
use koios_embed::vectors::Embeddings;
use koios_store::snapshot::{
    read_snapshot, write_snapshot, SectionKind, SnapshotLayout, SnapshotMeta, SnapshotState,
    SnapshotView, StoreError,
};
use std::path::Path;
use std::sync::Arc;

impl EngineBackend {
    /// Serializes this backend's query-ready state — repository, every
    /// shard's inverted index, and optionally the token vectors behind an
    /// embedding-based similarity — to `path` (conventionally `*.ksnap`).
    /// Pass the embeddings whenever the engine searches under
    /// [`CosineSimilarity`]; without them a restore must supply its own
    /// similarity via [`EngineBackend::from_snapshot_with`].
    pub fn write_snapshot(
        &self,
        path: impl AsRef<Path>,
        embeddings: Option<&Embeddings>,
    ) -> Result<SnapshotMeta, StoreError> {
        let view = SnapshotView {
            repository: &self.repo,
            embeddings,
            layout: SnapshotLayout::Partitioned {
                partitions: self.num_partitions() as u32,
                seed: self.partition_seed(),
            },
            indexes: self.indexes().map(|i| i.as_ref()).collect(),
            minhash: None,
        };
        write_snapshot(path.as_ref(), &view)
    }

    /// Restores a backend from a snapshot, searching under a
    /// [`CosineSimilarity`] rebuilt over the snapshotted token vectors
    /// (bit-identical to the saved ones, so scores are too). Fails with
    /// [`StoreError::MissingSection`] when the snapshot carries no
    /// embeddings — use [`Self::from_snapshot_with`] for engines over
    /// other similarities.
    pub fn from_snapshot(
        path: impl AsRef<Path>,
        cfg: KoiosConfig,
    ) -> Result<(EngineBackend, SnapshotMeta), StoreError> {
        let state = read_snapshot(path.as_ref())?;
        Self::from_state(state, cfg, |_, emb| match emb {
            Some(emb) => Ok(Arc::new(CosineSimilarity::new(emb)) as Arc<dyn ElementSimilarity>),
            None => Err(StoreError::MissingSection(SectionKind::Embeddings)),
        })
    }

    /// Restores a backend from a snapshot with a caller-chosen similarity:
    /// `make_sim` receives the restored repository and token vectors (if
    /// any) and returns the `Arc<dyn ElementSimilarity>` the engine will
    /// search under. The similarity must match the one the snapshot was
    /// built for if warm results are to equal cold results.
    pub fn from_snapshot_with<F>(
        path: impl AsRef<Path>,
        cfg: KoiosConfig,
        make_sim: F,
    ) -> Result<(EngineBackend, SnapshotMeta), StoreError>
    where
        F: FnOnce(&Repository, Option<Arc<Embeddings>>) -> Arc<dyn ElementSimilarity>,
    {
        let state = read_snapshot(path.as_ref())?;
        Self::from_state(state, cfg, |repo, emb| Ok(make_sim(repo, emb)))
    }

    /// Wires a backend from already-restored snapshot state, one shard per
    /// restored index. Exposed so callers that inspected or transformed a
    /// [`SnapshotState`] can finish construction without a second file
    /// read. The similarity factory is fallible so callers can refuse
    /// snapshots missing what their similarity needs (e.g. no embeddings
    /// section) before any engine is built.
    pub fn from_state<F>(
        state: SnapshotState,
        cfg: KoiosConfig,
        make_sim: F,
    ) -> Result<(EngineBackend, SnapshotMeta), StoreError>
    where
        F: FnOnce(
            &Repository,
            Option<Arc<Embeddings>>,
        ) -> Result<Arc<dyn ElementSimilarity>, StoreError>,
    {
        let SnapshotState {
            meta,
            repository,
            embeddings,
            indexes,
            ..
        } = state;
        let repo = Arc::new(repository);
        let sim = make_sim(&repo, embeddings.map(Arc::new))?;
        let indexes = indexes.into_iter().map(Arc::new).collect();
        let backend = EngineBackend::from_indexes(repo, sim, cfg, indexes, meta.layout.seed());
        Ok((backend, meta))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Koios;
    use koios_embed::repository::RepositoryBuilder;
    use koios_embed::sim::{EqualitySimilarity, QGramJaccard};
    use koios_embed::synthetic::SyntheticEmbeddings;

    fn repo_and_embeddings() -> (Arc<Repository>, Arc<Embeddings>) {
        let mut b = RepositoryBuilder::new();
        b.add_set("c1", ["LA", "Blain", "Appleton", "MtPleasant"]);
        b.add_set("c2", ["LA", "Sacramento", "Blain", "SC"]);
        b.add_set("c3", ["Zebra", "Yak", "Gnu", "Appleton"]);
        b.add_set("c4", ["LA", "SC", "Yak"]);
        let repo = Arc::new(b.build());
        let emb = SyntheticEmbeddings::builder()
            .dimensions(16)
            .seed(9)
            .build(&repo);
        (repo, Arc::new(emb))
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("koios-core-persist");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn single_backend_roundtrips_byte_identical() {
        let (repo, emb) = repo_and_embeddings();
        let sim: Arc<dyn ElementSimilarity> = Arc::new(CosineSimilarity::new(Arc::clone(&emb)));
        let cold = EngineBackend::new(Arc::clone(&repo), sim, KoiosConfig::new(3, 0.5), 1, 0);
        let path = tmp("single.ksnap");
        let meta = cold.write_snapshot(&path, Some(&emb)).unwrap();
        assert_eq!(
            meta.layout,
            SnapshotLayout::Partitioned {
                partitions: 1,
                seed: 0
            }
        );

        let (warm, rmeta) = EngineBackend::from_snapshot(&path, KoiosConfig::new(3, 0.5)).unwrap();
        assert_eq!(rmeta, meta);
        assert_eq!(warm.num_partitions(), 1);
        let q = repo.intern_query(["LA", "Blain", "SC"]);
        assert_eq!(warm.search(&q).hits, cold.search(&q).hits);
    }

    #[test]
    fn partitioned_backend_roundtrips_byte_identical() {
        let (repo, emb) = repo_and_embeddings();
        let sim: Arc<dyn ElementSimilarity> = Arc::new(CosineSimilarity::new(Arc::clone(&emb)));
        let cold = EngineBackend::new(Arc::clone(&repo), sim, KoiosConfig::new(2, 0.5), 3, 41);
        let path = tmp("parted.ksnap");
        let meta = cold.write_snapshot(&path, Some(&emb)).unwrap();
        assert_eq!(
            meta.layout,
            SnapshotLayout::Partitioned {
                partitions: 3,
                seed: 41
            }
        );

        let (warm, _) = EngineBackend::from_snapshot(&path, KoiosConfig::new(2, 0.5)).unwrap();
        assert_eq!(warm.num_partitions(), 3);
        assert_eq!(warm.partition_seed(), 41);
        let q = repo.intern_query(["LA", "Blain", "SC"]);
        assert_eq!(warm.search(&q).hits, cold.search(&q).hits);
    }

    #[test]
    fn single_layout_files_restore_as_one_shard() {
        // Files written with the single layout (one repository-wide index)
        // load as p = 1 and answer exactly like a `Koios` over the full
        // index — interval hits included — under cosine and q-gram
        // similarity alike.
        let (repo, emb) = repo_and_embeddings();
        let cosine: Arc<dyn ElementSimilarity> = Arc::new(CosineSimilarity::new(Arc::clone(&emb)));
        let qgram: Arc<dyn ElementSimilarity> = Arc::new(QGramJaccard::new(&repo, 3));
        for (name, sim, alpha) in [("cosine", cosine, 0.5), ("qgram", qgram, 0.3)] {
            let cfg = KoiosConfig::new(2, alpha);
            let direct = Koios::new(Arc::clone(&repo), Arc::clone(&sim), cfg.clone());
            let path = tmp(&format!("single-layout-{name}.ksnap"));
            let meta = write_snapshot(
                &path,
                &SnapshotView {
                    repository: &repo,
                    embeddings: Some(&emb),
                    layout: SnapshotLayout::Single,
                    indexes: vec![direct.index().as_ref()],
                    minhash: None,
                },
            )
            .unwrap();
            assert_eq!(meta.layout, SnapshotLayout::Single);
            let (warm, _) =
                EngineBackend::from_snapshot_with(&path, cfg, |_, _| Arc::clone(&sim)).unwrap();
            assert_eq!(warm.num_partitions(), 1);
            for q in [["LA", "Blain", "SC"], ["Yak", "Gnu", "Zebra"]] {
                let q = repo.intern_query(q);
                assert_eq!(warm.search(&q).hits, direct.search(&q).hits, "{name}");
            }
        }
    }

    #[test]
    fn snapshot_without_embeddings_needs_a_similarity_factory() {
        let (repo, _) = repo_and_embeddings();
        let cold = EngineBackend::new(
            Arc::clone(&repo),
            Arc::new(EqualitySimilarity),
            KoiosConfig::new(2, 0.9),
            1,
            0,
        );
        let path = tmp("no-emb.ksnap");
        cold.write_snapshot(&path, None).unwrap();

        let err = EngineBackend::from_snapshot(&path, KoiosConfig::new(2, 0.9))
            .err()
            .expect("embedding-less snapshot must not restore a cosine engine");
        assert!(
            matches!(err, StoreError::MissingSection(SectionKind::Embeddings)),
            "{err}"
        );

        let (warm, meta) =
            EngineBackend::from_snapshot_with(&path, KoiosConfig::new(2, 0.9), |_, emb| {
                assert!(emb.is_none());
                Arc::new(EqualitySimilarity)
            })
            .unwrap();
        assert!(!meta.has_embeddings);
        let q = repo.intern_query(["LA", "Blain", "SC"]);
        assert_eq!(warm.search(&q).hits, cold.search(&q).hits);
    }
}
