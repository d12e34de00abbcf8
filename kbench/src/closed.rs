//! The in-process closed-loop workload, `opendata-verify`. One client
//! calls `SearchService::search` and sends the next query only after the
//! reply, cycling a fixed set of distinct queries in whole passes.

use crate::hits::{self, HitRow};
use crate::inputs::{self, Seeds};
use crate::layers::{self, StageSample};
use crate::report::Report;
use crate::run;
use crate::spec::{self, ALPHA, K};
use crate::stats::{self, median, quantile};
use crate::trace::Recorder;
use koios_common::{SetId, TokenId};
use koios_core::{audit_result, AuditOutcome, EngineBackend, KoiosConfig, SearchResult};
use koios_embed::repository::Repository;
use koios_embed::sim::{CosineSimilarity, ElementSimilarity};
use koios_service::{CacheOutcome, SearchRequest, SearchService, ServiceConfig, ServiceResponse};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Queries the brute-force audit checks per run.
const AUDITS: usize = 2;
/// Caps on the kernel replays of a traced run.
const KERNEL_PAIRS: usize = 64;
const KERNEL_CELLS: u64 = 16_000_000;
const KERNEL_TOKENS: usize = 256;

pub fn engine_config() -> KoiosConfig {
    KoiosConfig::new(K, ALPHA)
}

pub fn service_config() -> ServiceConfig {
    ServiceConfig::new().with_workers(spec::WORKERS)
}

/// The served backend with EXPLAIN on (same engine, same token cache):
/// the reference path.
pub fn explain_backend(service: &SearchService) -> EngineBackend {
    let b = service.backend();
    b.with_config(b.config().clone().with_explain(true))
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

struct Op {
    query: usize,
    sent: Instant,
    latency: Duration,
    resp: ServiceResponse,
}

/// Runs `queries[idx]` through `backend` on two threads; results come
/// back in `idx` order.
pub fn search_parallel(
    backend: &EngineBackend,
    queries: &[Vec<TokenId>],
    idx: &[usize],
) -> Vec<SearchResult> {
    let mut out: Vec<Option<SearchResult>> = vec![None; idx.len()];
    let (even, odd): (Vec<_>, Vec<_>) = out.iter_mut().enumerate().partition(|(i, _)| i % 2 == 0);
    std::thread::scope(|s| {
        for half in [even, odd] {
            s.spawn(move || {
                for (i, slot) in half {
                    *slot = Some(backend.search(&queries[idx[i]]));
                }
            });
        }
    });
    out.into_iter()
        .map(|r| r.expect("every slot searched"))
        .collect()
}

/// Brute-force audits a seeded sample of the cheapest `candidates`.
pub fn audit(
    report: &mut Report,
    repo: &Repository,
    sim: &dyn ElementSimilarity,
    queries: &[Vec<TokenId>],
    results: &[(usize, &SearchResult)],
    seed: u64,
) {
    let own: Vec<Vec<TokenId>> = results.iter().map(|(q, _)| queries[*q].clone()).collect();
    for i in inputs::cheap_sample(&own, AUDITS, seed) {
        let (q, result) = results[i];
        let verdict = audit_result(repo, sim, ALPHA, K, &queries[q], result);
        report.check(verdict == AuditOutcome::Valid, || {
            format!("audit of query {q}: {verdict:?}")
        });
    }
}

/// (query, returned hit) pairs for the kernel replays, in seeded order,
/// capped by count and by matrix cells.
pub fn kernel_pairs<'a>(
    repo: &Repository,
    queries: &'a [Vec<TokenId>],
    refs: &[(usize, &[HitRow])],
    seed: u64,
) -> Vec<(&'a [TokenId], SetId)> {
    let all: Vec<(usize, u32)> = refs
        .iter()
        .flat_map(|(q, hits)| hits.iter().map(move |h| (*q, h.set)))
        .collect();
    let mut cells = 0u64;
    let mut out = Vec::new();
    for i in inputs::sample(all.len(), all.len(), seed) {
        let (q, set) = all[i];
        let c = (queries[q].len() * repo.set(SetId(set)).len()) as u64;
        if out.len() >= KERNEL_PAIRS || (cells + c > KERNEL_CELLS && !out.is_empty()) {
            break;
        }
        cells += c;
        out.push((queries[q].as_slice(), SetId(set)));
    }
    out
}

/// Distinct query tokens for the `scores_above` replay.
pub fn kernel_tokens<'a>(queries: impl Iterator<Item = &'a Vec<TokenId>>) -> Vec<TokenId> {
    let mut seen = std::collections::HashSet::new();
    let mut out = Vec::new();
    for q in queries {
        for &t in q {
            if out.len() < KERNEL_TOKENS && seen.insert(t) {
                out.push(t);
            }
        }
    }
    out
}

pub fn run(seed: u64, seconds: f64, report: &mut Report, rec: &mut Recorder) {
    let seeds = Seeds::new(seed);
    let corpus = inputs::opendata_corpus();
    let queries = inputs::opendata_queries(&corpus, seeds);
    let repo = Arc::new(corpus.repository);
    let sim: Arc<dyn ElementSimilarity> =
        Arc::new(CosineSimilarity::new(Arc::new(corpus.embeddings)));

    // Set-up: generated corpus in memory → service ready (cold index
    // build). Repeated after the window; the median is `setup_s`.
    let setup = || {
        let t0 = Instant::now();
        let s = SearchService::new(
            Arc::clone(&repo),
            Arc::clone(&sim),
            engine_config(),
            service_config(),
        );
        (s, t0.elapsed().as_secs_f64())
    };
    let (service, first_setup) = setup();

    // Untimed warm-up through the service: one pass over the query set.
    for q in &queries {
        service.search(SearchRequest::new(q.clone()).bypassing_cache());
    }

    // The timed window runs whole passes over the query set (it ends with
    // the first pass that completes after `seconds`), so every run times
    // the same multiset of queries whatever order the seed gave them, and
    // a slow host shortens the window by whole passes without changing
    // its mix. Every search bypasses the result cache.
    let window = Duration::from_secs_f64(seconds);
    let mut ops: Vec<Op> = Vec::new();
    let start = Instant::now();
    while start.elapsed() < window || !ops.len().is_multiple_of(queries.len()) {
        let query = ops.len() % queries.len();
        let req = SearchRequest::new(queries[query].clone()).bypassing_cache();
        let sent = Instant::now();
        let resp = service.search(req);
        let latency = sent.elapsed();
        if rec.enabled() {
            record_search_spans(rec, ops.len() as u64, sent, latency, &resp);
        }
        ops.push(Op {
            query,
            sent,
            latency,
            resp,
        });
    }
    let elapsed = start.elapsed();
    report.set("rss_peak_mb", stats::peak_rss_mib().unwrap_or(0.0));
    let setups = run::setup_times(first_setup, || setup().1);
    report.set_n(
        "setup_s",
        median(&setups).expect("set-ups ran"),
        setups.len(),
    );

    // References, after the window and on other threads than the
    // service's, for every query of the set; the funnel counts come from
    // the same searches.
    let explain = explain_backend(&service);
    let need: Vec<usize> = (0..queries.len()).collect();
    let mut refs: Vec<Option<SearchResult>> = vec![None; queries.len()];
    for (i, r) in need.iter().zip(search_parallel(&explain, &queries, &need)) {
        refs[*i] = Some(r);
    }
    let ref_hits: Vec<Option<Vec<HitRow>>> = refs
        .iter()
        .map(|r| r.as_ref().map(hits::from_result))
        .collect();
    for op in &ops {
        let want = ref_hits[op.query].as_ref().expect("reference computed");
        let got = hits::from_result(&op.resp.result);
        let ok = !op.resp.rejected && !op.resp.result.stats.timed_out && hits::same(&got, want);
        report.check(ok, || {
            format!(
                "query {} sent at {:?}: reply differs from reference",
                op.query,
                op.sent - start
            )
        });
    }
    let funnel: Vec<(usize, &SearchResult)> = need
        .iter()
        .map(|&i| (i, refs[i].as_ref().expect("funnel reference computed")))
        .collect();
    audit(report, &repo, sim.as_ref(), &queries, &funnel, seeds.checks);

    // End-to-end metrics over every search of the window.
    let lat: Vec<f64> = ops.iter().map(|o| ms(o.latency)).collect();
    let p = spec::TAIL;
    report.set_n("latency_p50_ms", median(&lat).unwrap_or(0.0), lat.len());
    report.set_n(
        "latency_tail_ms",
        quantile(&lat, p).unwrap_or(0.0),
        lat.len(),
    );
    report
        .lines
        .push(format!("latency_tail_ms is p{:.1} over the run", p * 100.0));
    report.set_n("qps", ops.len() as f64 / elapsed.as_secs_f64(), ops.len());
    report.absent("slo_attainment", "closed loop: no latency limit is set");
    report.absent("ingest_p50_ms", "no ingest in this workload");

    if !rec.enabled() {
        return;
    }
    // Per-layer metrics.
    let samples: Vec<StageSample> = ops
        .iter()
        .map(|o| StageSample {
            wall: o.latency,
            queue: o.resp.queue_time,
            stats: o.resp.result.stats.clone(),
        })
        .collect();
    layers::stage_figures(report, &samples);
    let results: Vec<SearchResult> = funnel.iter().map(|(_, r)| (*r).clone()).collect();
    layers::funnel_figures(report, &results);
    let queue: Vec<f64> = ops.iter().map(|o| ms(o.resp.queue_time)).collect();
    report.set_n(
        "service.queue_ms",
        median(&queue).unwrap_or(0.0),
        queue.len(),
    );
    report.set_n(
        "service.queue_tail_ms",
        quantile(&queue, p).unwrap_or(0.0),
        queue.len(),
    );
    let cache_hits = ops
        .iter()
        .filter(|o| o.resp.cache == CacheOutcome::Hit)
        .count();
    report.set_n(
        "service.result_cache_hit_rate",
        cache_hits as f64 / ops.len().max(1) as f64,
        ops.len(),
    );
    let hit_refs: Vec<(usize, &[HitRow])> = need
        .iter()
        .map(|&i| (i, ref_hits[i].as_deref().expect("reference computed")))
        .collect();
    let pairs = kernel_pairs(&repo, &queries, &hit_refs, seeds.checks);
    let tokens = kernel_tokens(need.iter().map(|&i| &queries[i]));
    layers::kernel_figures(report, rec, &repo, sim.as_ref(), &pairs, &tokens);
    report.set_n(
        "bench.trace_overhead",
        ms(rec.cost()) / ops.len().max(1) as f64,
        ops.len(),
    );
    for (name, why) in [
        ("service.ingest_ms", "no ingest in this workload"),
        ("net.overhead_ms", "in-process: the net layer is unused"),
        ("net.parse_us", "in-process: the net layer is unused"),
        ("net.serialize_us", "in-process: the net layer is unused"),
        (
            "store.snapshot_load_ms",
            "cold index build: no snapshot is loaded",
        ),
        (
            "store.snapshot_bytes",
            "cold index build: no snapshot is loaded",
        ),
        ("bench.lag_ms", "closed loop: nothing is sent late"),
    ] {
        report.absent(name, why);
    }
}

/// One search's span tree: the call, then the service queue wait and the
/// engine stages the reply's `SearchStats` timed, laid end to end.
fn record_search_spans(
    rec: &mut Recorder,
    trace: u64,
    sent: Instant,
    latency: Duration,
    resp: &ServiceResponse,
) {
    let st = &resp.result.stats;
    let root = rec.span(trace, None, "op.search", sent, latency);
    let mut at = sent;
    rec.span(trace, Some(root), "service.queue", at, resp.queue_time);
    at += resp.queue_time;
    rec.span(trace, Some(root), "core.refine", at, st.refine_time);
    at += st.refine_time;
    let post = rec.span(
        trace,
        Some(root),
        "core.postprocess",
        at,
        st.postprocess_time,
    );
    rec.span(
        trace,
        Some(post),
        "core.verify",
        at,
        st.verify_time.min(st.postprocess_time),
    );
    at += st.postprocess_time;
    rec.span(trace, Some(root), "core.merge", at, st.merge_time);
}
