//! Snapshot persistence: robustness and warm ≡ cold equivalence.
//!
//! The warm-start contract has two halves. Correctness: an engine restored
//! from a snapshot must return **byte-identical** hits to the engine that
//! wrote it, for every `k`/`α` served on top of the same state, at any
//! shard count. Robustness: no corrupt input — truncation, flipped bits,
//! alien magic, future versions — may panic the loader; every failure is
//! a typed `StoreError`.

use koios::prelude::*;
use koios::store::snapshot::{SnapshotMeta, StoreError};
use koios_datagen::corpus::{Corpus, CorpusSpec};
use std::path::PathBuf;
use std::sync::Arc;

fn corpus(seed: u64) -> Corpus {
    let mut s = CorpusSpec::small(seed);
    s.num_sets = 150;
    s.vocab_size = 600;
    s.clusters = 80;
    Corpus::generate(s)
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("koios-store-integration");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// Builds a cosine one-shard + four-shard backend over one corpus and
/// writes a snapshot of each; returns (repo, embeddings, single, parted,
/// paths).
fn setup(
    seed: u64,
    single_name: &str,
    parted_name: &str,
) -> (
    Arc<Repository>,
    Arc<koios::embed::vectors::Embeddings>,
    EngineBackend,
    EngineBackend,
    PathBuf,
    PathBuf,
) {
    let c = corpus(seed);
    let repo = Arc::new(c.repository);
    let emb = Arc::new(c.embeddings);
    let sim: Arc<dyn ElementSimilarity> = Arc::new(CosineSimilarity::new(Arc::clone(&emb)));
    let cfg = KoiosConfig::new(5, 0.8);
    let single = EngineBackend::new(Arc::clone(&repo), Arc::clone(&sim), cfg.clone(), 1, 0);
    let parted = EngineBackend::new(Arc::clone(&repo), sim, cfg, 4, 99);
    let spath = tmp(single_name);
    let ppath = tmp(parted_name);
    single.write_snapshot(&spath, Some(&emb)).unwrap();
    parted.write_snapshot(&ppath, Some(&emb)).unwrap();
    (repo, emb, single, parted, spath, ppath)
}

#[test]
fn warm_equals_cold_across_k_and_alpha() {
    let (repo, _, single, parted, spath, ppath) = setup(41, "eq-single.ksnap", "eq-parted.ksnap");
    let (warm_single, _) = EngineBackend::from_snapshot(&spath, KoiosConfig::new(5, 0.8)).unwrap();
    let (warm_parted, _) = EngineBackend::from_snapshot(&ppath, KoiosConfig::new(5, 0.8)).unwrap();
    assert_eq!(warm_parted.num_partitions(), 4);

    // Seeded queries: real set contents plus a cross-set mixture.
    let mut queries: Vec<Vec<TokenId>> = (0..6).map(|i| repo.set(SetId(i * 17)).to_vec()).collect();
    let mixed: Vec<TokenId> = repo
        .set(SetId(3))
        .iter()
        .chain(repo.set(SetId(77)))
        .copied()
        .collect();
    queries.push(
        repo.intern_query(
            mixed
                .iter()
                .map(|&t| repo.token_str(t).to_string())
                .collect::<Vec<_>>(),
        ),
    );

    for k in [1usize, 3, 8] {
        for alpha in [0.6, 0.8, 0.95] {
            let cfg = KoiosConfig::new(k, alpha);
            for q in &queries {
                let cold = single.with_config(cfg.clone()).search(q);
                let warm = warm_single.with_config(cfg.clone()).search(q);
                assert_eq!(warm.hits, cold.hits, "single k={k} α={alpha}");
                let cold_p = parted.with_config(cfg.clone()).search(q);
                let warm_p = warm_parted.with_config(cfg.clone()).search(q);
                assert_eq!(warm_p.hits, cold_p.hits, "parted k={k} α={alpha}");
            }
        }
    }
}

#[test]
fn snapshots_restore_their_own_shard_count() {
    // A snapshot carries its sharding: a four-shard file never comes back
    // as one shard (each shard index covers only a subset of the sets),
    // and a one-shard file never comes back split.
    let (_, _, _, _, spath, ppath) = setup(42, "shards-single.ksnap", "shards-parted.ksnap");
    let (parted, meta) = EngineBackend::from_snapshot(&ppath, KoiosConfig::new(3, 0.8)).unwrap();
    assert_eq!(meta.layout.describe(), "partitioned(4)");
    assert_eq!(parted.num_partitions(), 4);
    assert_eq!(parted.partition_seed(), 99);
    let (single, meta) = EngineBackend::from_snapshot(&spath, KoiosConfig::new(3, 0.8)).unwrap();
    assert_eq!(meta.layout.describe(), "partitioned(1)");
    assert_eq!(single.num_partitions(), 1);
}

#[test]
fn truncated_files_fail_with_typed_errors() {
    let (_, _, _, _, spath, _) = setup(43, "trunc-single.ksnap", "trunc-parted.ksnap");
    let bytes = std::fs::read(&spath).unwrap();
    // Cut points across every structural region: empty file, mid-magic,
    // mid-header, mid-table, mid-payload, one byte short.
    let cuts = [0usize, 4, 12, 16, 40, bytes.len() / 2, bytes.len() - 1];
    for &cut in &cuts {
        let path = tmp("truncated.ksnap");
        std::fs::write(&path, &bytes[..cut]).unwrap();
        let err = match koios::store::read_snapshot(&path) {
            Err(e) => e,
            Ok(_) => panic!("cut at {cut} must not parse"),
        };
        assert!(
            matches!(
                err,
                StoreError::Truncated { .. }
                    | StoreError::BadMagic
                    | StoreError::Io(_)
                    | StoreError::Malformed(_)
            ),
            "cut {cut}: unexpected error {err}"
        );
        assert!(
            SnapshotMeta::read(&path).is_err(),
            "meta read must also fail at cut {cut}"
        );
    }
}

#[test]
fn every_single_bit_flip_is_caught_without_panicking() {
    // A small snapshot so exhaustive byte-flipping stays fast.
    let mut b = RepositoryBuilder::new();
    b.add_set("s0", ["LA", "Blain", "SC"]);
    b.add_set("s1", ["LA", "Appleton"]);
    let repo = Arc::new(b.build());
    let engine = EngineBackend::new(
        Arc::clone(&repo),
        Arc::new(EqualitySimilarity),
        KoiosConfig::new(1, 0.9),
        1,
        0,
    );
    let path = tmp("flip.ksnap");
    engine.write_snapshot(&path, None).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    // Payload region starts after header + table; every payload bit is
    // covered by a section CRC.
    let meta = SnapshotMeta::read(&path).unwrap();
    let payload_start = meta.sections.iter().map(|s| s.offset).min().unwrap() as usize;

    let mut payload_flips = 0;
    let mut payload_caught = 0;
    for pos in 0..bytes.len() {
        let mut flipped = bytes.clone();
        flipped[pos] ^= 0x80;
        let fpath = tmp("flipped.ksnap");
        std::fs::write(&fpath, &flipped).unwrap();
        // Never a panic; header/table damage may surface as any typed
        // error, payload damage must be a checksum mismatch.
        let result = koios::store::read_snapshot(&fpath);
        if pos >= payload_start {
            payload_flips += 1;
            match result {
                Err(StoreError::ChecksumMismatch { .. }) => payload_caught += 1,
                Err(_) => payload_caught += 1, // e.g. damaged meta decoded first
                Ok(_) => panic!("payload flip at byte {pos} went undetected"),
            }
        } else {
            assert!(result.is_err(), "header/table flip at {pos} undetected");
        }
    }
    assert!(payload_flips > 0 && payload_caught == payload_flips);
}

#[test]
fn flipped_checksum_byte_is_a_checksum_mismatch() {
    let (_, _, _, _, spath, _) = setup(44, "crc-single.ksnap", "crc-parted.ksnap");
    let meta = SnapshotMeta::read(&spath).unwrap();
    let bytes = std::fs::read(&spath).unwrap();
    // Flip one byte in the middle of each section's payload.
    for section in &meta.sections {
        let mut damaged = bytes.clone();
        let pos = (section.offset + section.len / 2) as usize;
        damaged[pos] ^= 0xFF;
        let path = tmp("crc-damaged.ksnap");
        std::fs::write(&path, &damaged).unwrap();
        match koios::store::read_snapshot(&path) {
            Err(StoreError::ChecksumMismatch { kind }) => {
                assert_eq!(kind, section.kind, "wrong section blamed")
            }
            Err(other) => panic!("{:?} flip: wrong error {other}", section.kind),
            Ok(_) => panic!("{:?} flip went undetected", section.kind),
        }
    }
}

#[test]
fn wrong_magic_and_future_version_are_rejected() {
    let (_, _, _, _, spath, _) = setup(45, "hdr-single.ksnap", "hdr-parted.ksnap");
    let bytes = std::fs::read(&spath).unwrap();

    let mut alien = bytes.clone();
    alien[..8].copy_from_slice(b"NOTKOIOS");
    let path = tmp("alien.ksnap");
    std::fs::write(&path, &alien).unwrap();
    assert!(matches!(
        koios::store::read_snapshot(&path),
        Err(StoreError::BadMagic)
    ));
    assert!(matches!(
        SnapshotMeta::read(&path),
        Err(StoreError::BadMagic)
    ));

    let mut future = bytes.clone();
    future[8..12].copy_from_slice(&99u32.to_le_bytes());
    std::fs::write(&path, &future).unwrap();
    assert!(matches!(
        koios::store::read_snapshot(&path),
        Err(StoreError::UnsupportedVersion(99))
    ));

    // Arbitrary garbage of plausible length.
    let garbage: Vec<u8> = (0..4096u32)
        .map(|i| (i.wrapping_mul(2654435761) >> 13) as u8)
        .collect();
    std::fs::write(&path, &garbage).unwrap();
    assert!(koios::store::read_snapshot(&path).is_err());
}

#[test]
fn service_warm_start_round_trips_over_snapshot() {
    use koios::service::{SearchRequest, SearchService, ServiceConfig};
    let (repo, _, _, _, _, ppath) = setup(46, "svc-single.ksnap", "svc-parted.ksnap");
    let warm = SearchService::from_snapshot(
        &ppath,
        KoiosConfig::new(4, 0.8),
        ServiceConfig::new().with_workers(2),
    )
    .unwrap();
    assert_eq!(warm.partitions(), 4);
    let info = warm.stats().snapshot.expect("provenance recorded");
    assert_eq!(info.num_sets, repo.num_sets());
    assert!(info.bytes > 0);

    // Service answers equal direct backend answers on the restored state.
    let q = repo.set(SetId(10)).to_vec();
    let direct = warm.backend().search(&q);
    let served = warm.search(SearchRequest::new(q));
    assert_eq!(served.result.hits, direct.hits);
}
