//! Service-level observability.

use crate::cache::CacheCounters;
use koios_core::SearchStats;
use koios_index::knn_cache::KnnCacheSnapshot;
use std::time::{Duration, SystemTime};

/// Provenance of a backend restored from a `koios-store` snapshot
/// ([`crate::SearchService::from_snapshot`]): which file, how big, and how
/// long the warm start took — what an operator checks to confirm a restart
/// really skipped the rebuild.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotInfo {
    /// The snapshot file the backend was restored from.
    pub path: String,
    /// The snapshot's format version.
    pub format_version: u32,
    /// Total snapshot size in bytes.
    pub bytes: u64,
    /// Shards restored (1 for a single-layout snapshot).
    pub partitions: usize,
    /// Sets in the restored repository.
    pub num_sets: usize,
    /// Vocabulary size of the restored repository.
    pub vocab_size: usize,
    /// Length of the snapshot's delta chain (0 for a plain base — see
    /// `koios_store::append_delta`). Each delta was replayed onto the base
    /// during the load.
    pub deltas: usize,
    /// Highest epoch recorded in the delta chain (0 for a plain base); the
    /// restored engine resumes its epoch count from here.
    pub latest_epoch: u64,
    /// Wall time of read + restore (file to query-ready backend).
    pub load_time: Duration,
}

/// Aggregated counters for a [`crate::SearchService`] since construction
/// (or the last [`crate::SearchService::reset_stats`]).
///
/// `engine` folds every executed search's [`SearchStats`] together with
/// [`SearchStats::merge_sequential`], so its timings are *cumulative engine
/// time* (across all workers), not wall-clock time, and its memory report
/// is the per-label *peak* across searches (each search's footprint is a
/// transient snapshot, so peaks are meaningful where sums would read like
/// a leak).
#[derive(Debug, Clone)]
pub struct ServiceStats {
    /// Requests received (including cache hits and rejections).
    pub queries: u64,
    /// Batches submitted.
    pub batches: u64,
    /// Requests answered from the result cache (the cache's own hit
    /// counter, [`CacheCounters::hits`] of `cache`).
    pub cache_hits: u64,
    /// Requests that had to run a search.
    pub searched: u64,
    /// Requests refused without running a search: their deadline had
    /// already expired at admission, or their parameter overrides were
    /// invalid. Deadline expiries are *also* counted in `timed_out`.
    pub rejected: u64,
    /// Requests that observed a deadline expiry — rejected at admission
    /// (also in `rejected`) or expired mid-search (partial results, not
    /// cached). Always agrees with the number of responses whose
    /// `result.stats.timed_out` is set, so callers and operators see the
    /// same count.
    pub timed_out: u64,
    /// Number of index partitions the backend searches (1 for a single
    /// engine; see [`koios_core::EngineBackend`]).
    pub partitions: usize,
    /// Result-cache behaviour (hits/misses/evictions/invalidations).
    pub cache: CacheCounters,
    /// Shared token-level kNN cache state and behaviour (`None` when the
    /// service runs with `token_cache_bytes == 0`). Element-level hit
    /// counts also appear per search in `engine.knn_cache`; this snapshot
    /// adds the global view: bytes held, entries, evictions, generation.
    pub token_cache: Option<KnnCacheSnapshot>,
    /// Provenance of the snapshot the backend was warm-started from
    /// (`None` when the service was built from live structures). Updated
    /// by [`crate::SearchService::reload`].
    pub snapshot: Option<SnapshotInfo>,
    /// Epoch of the currently served backend: 0 at construction, +1 per
    /// applied [`crate::SearchService::ingest`] batch, strictly increasing
    /// across [`crate::SearchService::reload`]. Every search response's
    /// `stats.epoch` reports the epoch of the backend that served it.
    pub engine_epoch: u64,
    /// Sets appended by live ingestion since construction.
    pub sets_added: u64,
    /// Sets tombstoned by live ingestion since construction.
    pub sets_removed: u64,
    /// Folded per-search engine instrumentation.
    pub engine: SearchStats,
    /// Seconds since the service was constructed (monotone clock; not
    /// reset by [`crate::SearchService::reset_stats`], since the service
    /// did not restart).
    pub uptime_secs: f64,
    /// Wall-clock instant of service construction, for correlating
    /// restarts across machines (`UNIX_EPOCH` on a default snapshot).
    pub start_time: SystemTime,
}

impl Default for ServiceStats {
    fn default() -> Self {
        ServiceStats {
            queries: 0,
            batches: 0,
            cache_hits: 0,
            searched: 0,
            rejected: 0,
            timed_out: 0,
            partitions: 0,
            cache: CacheCounters::default(),
            token_cache: None,
            snapshot: None,
            engine_epoch: 0,
            sets_added: 0,
            sets_removed: 0,
            engine: SearchStats::default(),
            uptime_secs: 0.0,
            start_time: SystemTime::UNIX_EPOCH,
        }
    }
}

impl ServiceStats {
    /// Fraction of non-bypassing requests answered from the result cache.
    pub fn cache_hit_rate(&self) -> f64 {
        self.cache.hit_rate()
    }

    /// Fraction of per-element kNN probes answered from the token cache
    /// (0 when the token cache is disabled or was never probed).
    pub fn token_cache_hit_rate(&self) -> f64 {
        self.token_cache
            .map(|tc| tc.counters.hit_rate())
            .unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_zero() {
        let s = ServiceStats::default();
        assert_eq!(s.queries, 0);
        assert_eq!(s.cache_hit_rate(), 0.0);
        assert_eq!(s.engine.em_full, 0);
        assert_eq!(s.uptime_secs, 0.0);
        assert_eq!(s.start_time, SystemTime::UNIX_EPOCH);
    }
}
