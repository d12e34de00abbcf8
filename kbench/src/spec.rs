//! What the benchmark measures: workloads, fixed settings and metric names.
//!
//! `BENCHMARK.json` at the repository root lists the same workloads and
//! metrics; a test checks that the two agree.

/// Top-k size and similarity threshold of every workload (the paper's
/// defaults, as in the experiment harness).
pub const K: usize = 10;
pub const ALPHA: f64 = 0.8;

/// The seed a run uses when none is given, and the hold-out seed a claimed
/// gain must also hold on.
pub const DEFAULT_SEED: u64 = 1;
pub const HOLDOUT_SEED: u64 = 7919;

/// Service worker threads (the shipping setting on a 2-core machine).
pub const WORKERS: usize = 2;

/// Service set-ups timed per run: at least `SETUP_MIN_REPEATS` and until
/// `SETUP_MIN_SECONDS` have been spent, at most `SETUP_MAX_REPEATS`.
/// `setup_s` is their median.
pub const SETUP_MIN_REPEATS: usize = 5;
pub const SETUP_MAX_REPEATS: usize = 100;
pub const SETUP_MIN_SECONDS: f64 = 1.5;

/// `twitter-serve-mixed`: the fixed open-loop arrival rate (searches and
/// ingests, per second): a sixth of the 2-connection closed-loop capacity
/// of the first benchmarked commit (`kbench capacity`: about 60 ops/s).
/// Nearer half the capacity, queueing amplified the host's speed drift
/// beyond any bound the benchmark could keep (see `kbench/README.md`).
pub const SERVE_RATE_PER_S: f64 = 10.0;
/// `twitter-serve-mixed`: a search meets the SLO when it is answered
/// correctly within this many milliseconds of its due time.
pub const SERVE_SLO_MS: f64 = 50.0;
/// `twitter-serve-mixed`: every this-many-th operation is an ingest batch.
pub const SERVE_INGEST_EVERY: usize = 100;
/// `twitter-serve-mixed`: distinct queries the Zipf draws pick from, and
/// the Zipf exponent.
pub const SERVE_POOL: usize = 256;
pub const SERVE_ZIPF: f64 = 1.0;
/// Index partitions of the served engine.
pub const SERVE_PARTITIONS: usize = 2;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    OpendataVerify,
    TwitterServeMixed,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::OpendataVerify, Workload::TwitterServeMixed];

    pub fn name(self) -> &'static str {
        match self {
            Workload::OpendataVerify => "opendata-verify",
            Workload::TwitterServeMixed => "twitter-serve-mixed",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The percentile `latency_tail_ms` reports: p90, the highest of p99 and
/// p90 with at least ten searches beyond it in a run (`opendata-verify`
/// timed 126 to 210 searches in 40 seconds).
pub const TAIL: f64 = 0.90;

/// A metric's name and unit.
pub type MetricSpec = (&'static str, &'static str);

/// End-to-end metrics: printed by every untraced run, all non-zero.
pub const END_TO_END: &[MetricSpec] = &[
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("qps", "1/s"),
    ("setup_s", "s"),
    ("rss_peak_mb", "MiB"),
];

/// End-to-end figures that do not apply to every workload (or read 0 when
/// all is well), so the untraced JSON line cannot carry them: they are
/// printed by name in the report, and carried as per-layer metrics.
pub const REPORTED_ONLY: &[MetricSpec] = &[
    ("slo_attainment", "ratio"),
    ("ingest_p50_ms", "ms"),
    ("error_rate", "ratio"),
];

/// Per-layer metrics: printed by every traced run. A metric that does not
/// apply to a workload reads 0 and the report says why.
pub const PER_LAYER: &[MetricSpec] = &[
    ("embed.fill_matrix_ns_per_cell", "ns"),
    ("embed.scores_above_ns_per_token", "ns"),
    ("matching.solve_ms_per_call", "ms"),
    ("matching.solve_ns_per_support_cell", "ns"),
    ("index.knn_cache_hit_rate", "ratio"),
    ("index.stream_tuples_per_query", "count"),
    ("index.posting_entries_per_query", "count"),
    ("core.refine_ms", "ms"),
    ("core.postprocess_ms", "ms"),
    ("core.verify_ms", "ms"),
    ("core.merge_ms", "ms"),
    ("core.executor_ms", "ms"),
    ("core.unattributed_ms", "ms"),
    ("core.candidates_per_query", "count"),
    ("core.em_per_hit", "count"),
    ("core.no_em_share", "ratio"),
    ("core.matrix_cells_per_hit", "count"),
    ("core.support_cells_per_hit", "count"),
    ("core.shard_skew", "ratio"),
    ("service.queue_ms", "ms"),
    ("service.queue_tail_ms", "ms"),
    ("service.result_cache_hit_rate", "ratio"),
    ("service.ingest_ms", "ms"),
    ("net.overhead_ms", "ms"),
    ("net.parse_us", "us"),
    ("net.serialize_us", "us"),
    ("store.snapshot_load_ms", "ms"),
    ("store.snapshot_bytes", "bytes"),
    ("bench.lag_ms", "ms"),
    ("bench.trace_overhead", "ms"),
    ("slo_attainment", "ratio"),
    ("ingest_p50_ms", "ms"),
    ("error_rate", "ratio"),
];

/// The unit of a known metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(REPORTED_ONLY)
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}
