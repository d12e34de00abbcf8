//! Per-layer figures. Each is measured from outside the program: at the
//! public call into the layer, or from the `SearchStats` / `FunnelCounts`
//! a reply carries.

use crate::report::Report;
use crate::spec::ALPHA;
use crate::trace::Recorder;
use koios_common::{Json, SetId, TokenId};
use koios_core::{overlap, SearchResult, SearchStats};
use koios_embed::repository::Repository;
use koios_embed::sim::ElementSimilarity;
use koios_net::{wire, HttpRequest, HttpResponse};
use koios_service::ServiceResponse;
use std::hint::black_box;
use std::time::{Duration, Instant};

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Trace ids of replayed layer calls start here, above any window
/// operation's id.
pub const REPLAY_TRACE_BASE: u64 = 1 << 32;

/// Work counts of the engine funnel, over a fixed set of searches that ran
/// with EXPLAIN on. Each count repeats exactly at one seed on a
/// single-engine (p = 1) workload.
pub fn funnel_figures(report: &mut Report, results: &[SearchResult]) {
    let n = results.len();
    let (mut cand, mut tuples, mut postings) = (0usize, 0usize, 0usize);
    let (mut hits, mut em, mut no_em, mut decided) = (0usize, 0usize, 0usize, 0usize);
    let (mut matrix, mut support) = (0u64, 0u64);
    for r in results {
        let s = &r.stats;
        let f = s
            .funnel
            .as_deref()
            .expect("funnel searches run with explain");
        cand += s.candidates;
        tuples += f.stream_tuples;
        postings += f.posting_entries_scanned;
        hits += r.hits.len();
        em += s.em_full;
        no_em += s.no_em;
        decided += s.no_em + s.em_early_terminated + s.em_full;
        matrix += f.matrix_cells;
        support += f.support_cells;
    }
    let per_query = |x: f64| if n == 0 { 0.0 } else { x / n as f64 };
    let per_hit = |x: f64| if hits == 0 { 0.0 } else { x / hits as f64 };
    report.set_n("core.candidates_per_query", per_query(cand as f64), n);
    report.set_n("index.stream_tuples_per_query", per_query(tuples as f64), n);
    report.set_n(
        "index.posting_entries_per_query",
        per_query(postings as f64),
        n,
    );
    report.set_n("core.em_per_hit", per_hit(em as f64), hits);
    report.set_n(
        "core.no_em_share",
        if decided == 0 {
            0.0
        } else {
            no_em as f64 / decided as f64
        },
        decided,
    );
    report.set_n("core.matrix_cells_per_hit", per_hit(matrix as f64), hits);
    report.set_n("core.support_cells_per_hit", per_hit(support as f64), hits);
}

/// One search's engine stage times against the wall time of the call
/// (minus any service queue wait).
pub struct StageSample {
    pub wall: Duration,
    pub queue: Duration,
    pub stats: SearchStats,
}

/// Mean stage times per search, the unattributed remainder, shard skew
/// and the token-kNN cache hit rate.
pub fn stage_figures(report: &mut Report, samples: &[StageSample]) {
    let n = samples.len();
    let mean = |f: &dyn Fn(&StageSample) -> f64| {
        if n == 0 {
            0.0
        } else {
            samples.iter().map(f).sum::<f64>() / n as f64
        }
    };
    report.set_n("core.refine_ms", mean(&|s| ms(s.stats.refine_time)), n);
    report.set_n(
        "core.postprocess_ms",
        mean(&|s| ms(s.stats.postprocess_time)),
        n,
    );
    report.set_n("core.verify_ms", mean(&|s| ms(s.stats.verify_time)), n);
    report.set_n("core.merge_ms", mean(&|s| ms(s.stats.merge_time)), n);
    report.set_n("core.executor_ms", mean(&|s| ms(s.stats.executor_time)), n);
    report.set_n(
        "core.unattributed_ms",
        mean(&|s| {
            let st = &s.stats;
            ms(s.wall.saturating_sub(s.queue))
                - ms(st.refine_time + st.postprocess_time + st.merge_time)
        }),
        n,
    );
    let skews: Vec<f64> = samples
        .iter()
        .filter(|s| !s.stats.shard_times.is_empty())
        .map(|s| {
            let t: Vec<f64> = s.stats.shard_times.iter().map(|d| ms(*d)).collect();
            let mean = t.iter().sum::<f64>() / t.len() as f64;
            let max = t.iter().cloned().fold(0.0, f64::max);
            if mean > 0.0 {
                max / mean
            } else {
                1.0
            }
        })
        .collect();
    if skews.is_empty() {
        report.absent("core.shard_skew", "p = 1: a single engine has no shards");
    } else {
        report.set_n("core.shard_skew", crate::stats::mean(&skews), skews.len());
    }
    let (hits, misses) = samples.iter().fold((0, 0), |(h, m), s| {
        (h + s.stats.knn_cache.hits, m + s.stats.knn_cache.misses)
    });
    report.set_n(
        "index.knn_cache_hit_rate",
        if hits + misses == 0 {
            0.0
        } else {
            hits as f64 / (hits + misses) as f64
        },
        hits + misses,
    );
}

/// Kernel replays: `overlap::similarity_matrix` and
/// `overlap::semantic_overlap_bounded_with_effort` on (query, returned
/// hit) pairs, and `ElementSimilarity::scores_above` over the vocabulary
/// for query tokens. The solve time of a pair is the bounded-overlap call
/// minus the fill of the same pair.
pub fn kernel_figures(
    report: &mut Report,
    rec: &mut Recorder,
    repo: &Repository,
    sim: &dyn ElementSimilarity,
    pairs: &[(&[TokenId], SetId)],
    tokens: &[TokenId],
) {
    let mut trace = REPLAY_TRACE_BASE;
    let (mut fill, mut solve) = (Duration::ZERO, Duration::ZERO);
    let (mut cells, mut support) = (0u64, 0u64);
    for &(q, set) in pairs {
        trace += 1;
        let t0 = Instant::now();
        let m = black_box(overlap::similarity_matrix(sim, ALPHA, q, repo.set(set)));
        let f = t0.elapsed();
        cells += (m.rows() * m.cols()) as u64;
        drop(m);
        let t1 = Instant::now();
        let (outcome, effort) = black_box(overlap::semantic_overlap_bounded_with_effort(
            repo, sim, ALPHA, q, set, None,
        ));
        let whole = t1.elapsed();
        black_box(outcome);
        fill += f;
        solve += whole.saturating_sub(f);
        support += effort.support_cells;
        let root = rec.span(trace, None, "replay.verify_pair", t0, t1 + whole - t0);
        rec.span(trace, Some(root), "embed.fill_matrix", t0, f);
        rec.span(trace, Some(root), "matching.bounded_overlap", t1, whole);
    }
    report.set_n(
        "embed.fill_matrix_ns_per_cell",
        if cells == 0 {
            0.0
        } else {
            fill.as_nanos() as f64 / cells as f64
        },
        pairs.len(),
    );
    report.set_n(
        "matching.solve_ms_per_call",
        if pairs.is_empty() {
            0.0
        } else {
            ms(solve) / pairs.len() as f64
        },
        pairs.len(),
    );
    report.set_n(
        "matching.solve_ns_per_support_cell",
        if support == 0 {
            0.0
        } else {
            solve.as_nanos() as f64 / support as f64
        },
        pairs.len(),
    );
    let mut out = Vec::new();
    let mut scan = Duration::ZERO;
    for &t in tokens {
        trace += 1;
        out.clear();
        let t0 = Instant::now();
        sim.scores_above(t, repo.vocab_size(), ALPHA, &mut out);
        let d = t0.elapsed();
        black_box(&out);
        scan += d;
        rec.span(trace, None, "embed.scores_above", t0, d);
    }
    report.set_n(
        "embed.scores_above_ns_per_token",
        if tokens.is_empty() {
            0.0
        } else {
            scan.as_nanos() as f64 / tokens.len() as f64
        },
        tokens.len(),
    );
}

/// The raw bytes of a `POST /search` request carrying `body`.
pub fn search_request_bytes(body: &Json) -> Vec<u8> {
    let body = body.encode();
    format!(
        "POST /search HTTP/1.1\r\nhost: bench\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n{}",
        body.len(),
        body
    )
    .into_bytes()
}

/// Wire replays on recorded requests and replies: parse is
/// `HttpRequest::read_from` + `Json::parse` + `wire::parse_search_request`;
/// serialize is `wire::response_to_json` + encode +
/// `HttpResponse::write_to`.
pub fn net_figures(
    report: &mut Report,
    rec: &mut Recorder,
    repo: &Repository,
    requests: &[Vec<u8>],
    replies: &[ServiceResponse],
) {
    let mut trace = REPLAY_TRACE_BASE + (1 << 24);
    let mut parse = Duration::ZERO;
    for raw in requests {
        trace += 1;
        let t0 = Instant::now();
        let req = HttpRequest::read_from(&mut &raw[..])
            .expect("recorded request parses")
            .expect("recorded request is complete");
        let body = Json::parse(std::str::from_utf8(&req.body).expect("utf-8 body"))
            .expect("recorded body is JSON");
        let parsed = wire::parse_search_request(&body, repo).expect("recorded body is valid");
        let d = t0.elapsed();
        black_box(parsed);
        parse += d;
        rec.span(trace, None, "net.parse", t0, d);
    }
    let mut serialize = Duration::ZERO;
    let mut buf = Vec::new();
    for resp in replies {
        trace += 1;
        buf.clear();
        let t0 = Instant::now();
        let json = wire::response_to_json(resp, repo);
        HttpResponse::json(200, &json)
            .write_to(&mut buf, true)
            .expect("writing to memory cannot fail");
        let d = t0.elapsed();
        black_box(&buf);
        serialize += d;
        rec.span(trace, None, "net.serialize", t0, d);
    }
    let us = |d: Duration, n: usize| {
        if n == 0 {
            0.0
        } else {
            d.as_secs_f64() * 1e6 / n as f64
        }
    };
    report.set_n("net.parse_us", us(parse, requests.len()), requests.len());
    report.set_n(
        "net.serialize_us",
        us(serialize, replies.len()),
        replies.len(),
    );
}
