//! Regeneration of every table and figure in the paper's evaluation (§VIII).
//!
//! Each `table*` / `fig*` function runs the corresponding experiment on the
//! scaled synthetic profiles and renders the same rows/series the paper
//! reports. Absolute numbers differ from the paper (laptop vs 64-core +
//! 4-GPU testbed, scaled corpora); the *shapes* — who wins, pruning ratios,
//! trends across query cardinality and parameters — are the reproduction
//! target (see `EXPERIMENTS.md` for a recorded run and the comparison).

use crate::setup::{cap_queries, setup_profile_cached, ProfileRun};
use crate::table::{fmt_secs, pct, TextTable};
use koios_baselines::silkmoth::{SilkMoth, SilkMothVariant};
use koios_baselines::vanilla_topk;
use koios_common::{Json, SetId, TokenId};
use koios_core::{EngineBackend, Koios, KoiosConfig, SearchResult, UbMode};
use koios_datagen::profiles;
use koios_embed::sim::{ElementSimilarity, QGramJaccard};
use koios_index::inverted::InvertedIndex;
use koios_index::knn_cache::TokenKnnCache;
use koios_service::{SearchRequest, SearchService, ServiceConfig};
use std::sync::Arc;
use std::time::Duration;

/// Harness-wide knobs (the paper's defaults are α = 0.8, k = 10,
/// partitions = 10, 2500 s timeout).
#[derive(Debug, Clone)]
pub struct HarnessConfig {
    /// Corpus scale multiplier (1.0 = the laptop-scale profile defaults).
    pub scale: f64,
    /// Result size `k`.
    pub k: usize,
    /// Element similarity threshold `α`.
    pub alpha: f64,
    /// Partitions for the response-time experiments.
    pub partitions: usize,
    /// Queries per cardinality interval (time control).
    pub queries_per_interval: usize,
    /// Per-query timeout (the paper uses 2500 s at testbed scale).
    pub timeout: Duration,
    /// Benchmark sampling seed.
    pub seed: u64,
}

impl Default for HarnessConfig {
    fn default() -> Self {
        HarnessConfig {
            scale: 0.1,
            k: 10,
            alpha: 0.8,
            partitions: 10,
            queries_per_interval: 2,
            timeout: Duration::from_secs(10),
            seed: 42,
        }
    }
}

impl HarnessConfig {
    fn koios_config(&self) -> KoiosConfig {
        let mut c = KoiosConfig::new(self.k, self.alpha);
        c.time_budget = Some(self.timeout);
        c
    }

    /// The shared corpus-builder: every experiment asking for the same
    /// profile reuses one generated corpus ([`setup_profile_cached`]); only
    /// the query cap is applied per experiment.
    fn profile_run(&self, profile: koios_datagen::profiles::DatasetProfile) -> ProfileRun {
        let mut run = setup_profile_cached(profile, self.seed);
        cap_queries(&mut run.benchmark, self.queries_per_interval);
        run
    }
}

/// One query's outcome annotated with its benchmark interval.
struct Outcome {
    interval: usize,
    result: SearchResult,
}

/// Runs every benchmark query on a `partitions`-shard engine.
fn run_engine(run: &ProfileRun, cfg: KoiosConfig, partitions: usize, seed: u64) -> Vec<Outcome> {
    let engine = EngineBackend::new(
        Arc::clone(&run.repo),
        Arc::clone(&run.sim),
        cfg,
        partitions.max(1),
        seed,
    );
    run.benchmark
        .queries
        .iter()
        .map(|q| Outcome {
            interval: q.interval,
            result: engine.search(&q.tokens),
        })
        .collect()
}

fn run_partitioned(run: &ProfileRun, hc: &HarnessConfig) -> Vec<Outcome> {
    run_engine(run, hc.koios_config(), hc.partitions, hc.seed)
}

fn run_baseline(run: &ProfileRun, hc: &HarnessConfig, plus: bool) -> Vec<Outcome> {
    let mut cfg = if plus {
        KoiosConfig::new(hc.k, hc.alpha).baseline_plus()
    } else {
        KoiosConfig::new(hc.k, hc.alpha).baseline()
    };
    cfg.time_budget = Some(hc.timeout);
    cfg = cfg.with_parallel_em(hc.partitions.max(1));
    run_engine(run, cfg, 1, 0)
}

fn avg(xs: impl Iterator<Item = f64>) -> f64 {
    let v: Vec<f64> = xs.collect();
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// p50/p99 summary of one service-side histogram as a JSON object
/// (`null` when the histogram never recorded, so artifact consumers can
/// tell "unused path" from "0 ms").
fn histogram_json(h: &koios_telemetry::Histogram) -> Json {
    let snap = h.snapshot();
    if snap.count() == 0 {
        return Json::Null;
    }
    Json::obj([
        ("count", Json::num(snap.count() as f64)),
        ("p50_ms", Json::num(snap.p50_ns() / 1e6)),
        ("p99_ms", Json::num(snap.p99_ns() / 1e6)),
    ])
}

/// The serving-stack telemetry scrape that rides along in the JSON
/// artifacts: per-stage engine latency plus the queue/search split the
/// service measures itself ([`koios_service::ServiceMetrics`]).
fn telemetry_json(m: &koios_service::ServiceMetrics) -> Json {
    Json::obj([
        ("stage_refine", histogram_json(&m.stage_refine)),
        ("stage_postprocess", histogram_json(&m.stage_postprocess)),
        ("stage_verify", histogram_json(&m.stage_verify)),
        ("stage_merge", histogram_json(&m.stage_merge)),
        ("queue_wait", histogram_json(&m.queue_wait)),
        ("request_queue", histogram_json(&m.request_queue)),
        ("request_search", histogram_json(&m.request_search)),
    ])
}

/// The tail-sampler summary that rides along in `BENCH_serving.json`:
/// lifetime retention counters plus the slowest retained trace's per-stage
/// breakdown, so the artifact explains its own p99 without a live server.
fn traces_json(service: &SearchService) -> Json {
    let Some(ts) = service.trace_stats() else {
        return Json::Null;
    };
    let sampled_pct = if ts.completed > 0 {
        100.0 * ts.retained as f64 / ts.completed as f64
    } else {
        0.0
    };
    let slowest = match service.slowest_trace() {
        None => Json::Null,
        Some(t) => {
            // Longest span per stage name (partitioned stage spans overlap,
            // so per-stage maxima, not sums).
            let stage_ms = |name: &str| {
                let ns = t
                    .spans
                    .iter()
                    .filter(|s| s.name == name)
                    .map(|s| s.duration_ns)
                    .max()
                    .unwrap_or(0);
                Json::num(ns as f64 / 1e6)
            };
            Json::obj([
                (
                    "trace_id",
                    Json::str(koios_common::fingerprint::hex(t.trace_id)),
                ),
                ("duration_ms", Json::num(t.duration_ns as f64 / 1e6)),
                ("spans", Json::num(t.spans.len() as f64)),
                ("depth", Json::num(t.depth() as f64)),
                ("reason", Json::str(t.reason.as_str())),
                (
                    "stages",
                    Json::obj([
                        ("queue_ms", stage_ms("queue")),
                        ("executor_ms", stage_ms("executor")),
                        ("refine_ms", stage_ms("refine")),
                        ("verify_ms", stage_ms("verify")),
                        ("merge_ms", stage_ms("merge")),
                        ("serialize_ms", stage_ms("serialize")),
                    ]),
                ),
            ])
        }
    };
    Json::obj([
        ("completed", Json::num(ts.completed as f64)),
        ("retained", Json::num(ts.retained as f64)),
        ("sampled", Json::num(ts.sampled as f64)),
        ("sampled_pct", Json::num(sampled_pct)),
        ("stored", Json::num(ts.stored as f64)),
        ("slowest", slowest),
    ])
}

/// Table I: characteristics of the (generated) datasets.
pub fn table1(hc: &HarnessConfig) -> String {
    let mut t = TextTable::new(vec![
        "dataset",
        "#Sets",
        "MaxSize",
        "AvgSize",
        "#UniqElems",
        "coverage",
        "gen time",
    ]);
    for profile in profiles::DatasetProfile::all(hc.scale) {
        let name = profile.spec.name.clone();
        let run = setup_profile_cached(profile, hc.seed);
        let st = run.corpus.repository.stats();
        t.row(vec![
            name,
            st.num_sets.to_string(),
            st.max_size.to_string(),
            format!("{:.1}", st.avg_size),
            st.unique_elems.to_string(),
            pct(run.corpus.embeddings.coverage()),
            fmt_secs(run.generation_time.as_secs_f64()),
        ]);
    }
    format!(
        "Table I — dataset characteristics (scale {}):\n{}",
        hc.scale,
        t.render()
    )
}

/// Table II: average percentage of sets pruned by each filter.
pub fn table2(hc: &HarnessConfig) -> String {
    let mut t = TextTable::new(vec![
        "dataset",
        "iUB-Filter",
        "EM-Early-Terminated",
        "No-EM",
    ]);
    for profile in profiles::DatasetProfile::all(hc.scale) {
        let name = profile.spec.name.clone();
        let run = hc.profile_run(profile);
        let outcomes = run_partitioned(&run, hc);
        let refine = avg(outcomes
            .iter()
            .map(|o| o.result.stats.refinement_prune_ratio()));
        let em_early = avg(outcomes.iter().map(|o| {
            let s = &o.result.stats;
            if s.to_postprocess == 0 {
                0.0
            } else {
                s.em_early_terminated as f64 / s.to_postprocess as f64
            }
        }));
        let no_em = avg(outcomes.iter().map(|o| {
            let s = &o.result.stats;
            if s.to_postprocess == 0 {
                0.0
            } else {
                s.no_em as f64 / s.to_postprocess as f64
            }
        }));
        t.row(vec![name, pct(refine), pct(em_early), pct(no_em)]);
    }
    format!(
        "Table II — avg % of sets pruned by filter (refinement % of candidates;\npost-processing % of surviving sets). Paper: iUB 53–91%, EM-early 0–5%, No-EM 1.4–55%.\n{}",
        t.render()
    )
}

/// Table III: average response time and memory, Koios vs Baseline.
pub fn table3(hc: &HarnessConfig) -> String {
    let mut t = TextTable::new(vec![
        "dataset",
        "K refine",
        "K postproc",
        "K response",
        "K mem(MB)",
        "B response",
        "B mem(MB)",
        "B timeouts",
        "speedup",
    ]);
    for profile in profiles::DatasetProfile::all(hc.scale) {
        let name = profile.spec.name.clone();
        let run = hc.profile_run(profile);
        let koios = run_partitioned(&run, hc);
        let base = run_baseline(&run, hc, false);
        let k_ref = avg(koios
            .iter()
            .map(|o| o.result.stats.refine_time.as_secs_f64()));
        let k_post = avg(koios
            .iter()
            .map(|o| o.result.stats.postprocess_time.as_secs_f64()));
        let k_resp = avg(koios
            .iter()
            .map(|o| o.result.stats.response_time().as_secs_f64()));
        let k_mem = avg(koios.iter().map(|o| o.result.stats.memory.total_mib()));
        let b_resp = avg(base
            .iter()
            .map(|o| o.result.stats.response_time().as_secs_f64()));
        let b_mem = avg(base.iter().map(|o| o.result.stats.memory.total_mib()));
        let b_to = base.iter().filter(|o| o.result.stats.timed_out).count();
        t.row(vec![
            name,
            fmt_secs(k_ref),
            fmt_secs(k_post),
            fmt_secs(k_resp),
            format!("{k_mem:.1}"),
            fmt_secs(b_resp),
            format!("{b_mem:.1}"),
            format!("{b_to}/{}", base.len()),
            format!("{:.1}x", b_resp / k_resp.max(1e-9)),
        ]);
    }
    format!(
        "Table III — avg response time & memory, Koios (K, {} partitions) vs Baseline (B).\nBaseline timeouts ({}s budget) floor its reported time, as in the paper.\n{}",
        hc.partitions,
        hc.timeout.as_secs(),
        t.render()
    )
}

fn prune_table(hc: &HarnessConfig, profile: koios_datagen::profiles::DatasetProfile) -> TextTable {
    let intervals = profile.intervals.clone();
    let run = hc.profile_run(profile);
    let outcomes = run_partitioned(&run, hc);
    let mut t = TextTable::new(vec![
        "query card.",
        "Candidates",
        "iUB-Filtered",
        "No-EM",
        "EM-Early-Term",
        "EM",
    ]);
    for (idx, (lo, hi)) in intervals.iter().enumerate() {
        let of_interval: Vec<&Outcome> = outcomes.iter().filter(|o| o.interval == idx).collect();
        if of_interval.is_empty() {
            continue;
        }
        let f = |g: fn(&koios_core::SearchStats) -> usize| {
            avg(of_interval.iter().map(|o| g(&o.result.stats) as f64))
        };
        t.row(vec![
            format!("{lo}-{hi}"),
            format!("{:.0}", f(|s| s.candidates)),
            format!("{:.0}", f(|s| s.ub_filter_pruned + s.iub_pruned)),
            format!("{:.0}", f(|s| s.no_em)),
            format!("{:.0}", f(|s| s.em_early_terminated)),
            format!("{:.0}", f(|s| s.em_full)),
        ]);
    }
    t
}

/// Table IV: OpenData — number of sets pruned by each filter per interval.
pub fn table4(hc: &HarnessConfig) -> String {
    format!(
        "Table IV — OpenData-like: avg #sets pruned by filter per query-cardinality interval.\n{}",
        prune_table(hc, profiles::opendata(hc.scale)).render()
    )
}

/// Table V: WDC — number of sets pruned by each filter per interval.
pub fn table5(hc: &HarnessConfig) -> String {
    format!(
        "Table V — WDC-like: avg #sets pruned by filter per query-cardinality interval.\n{}",
        prune_table(hc, profiles::wdc(hc.scale)).render()
    )
}

fn interval_figure(
    hc: &HarnessConfig,
    profile: koios_datagen::profiles::DatasetProfile,
    label: &str,
) -> String {
    let intervals = profile.intervals.clone();
    let run = hc.profile_run(profile);
    let koios = run_partitioned(&run, hc);
    let base = run_baseline(&run, hc, false);
    let mut t = TextTable::new(vec![
        "query card.",
        "K time",
        "K refine%",
        "K postproc%",
        "K mem(MB)",
        "B time",
        "B mem(MB)",
        "K t/o",
        "B t/o",
    ]);
    for (idx, (lo, hi)) in intervals.iter().enumerate() {
        let ko: Vec<&Outcome> = koios.iter().filter(|o| o.interval == idx).collect();
        let bo: Vec<&Outcome> = base.iter().filter(|o| o.interval == idx).collect();
        if ko.is_empty() {
            continue;
        }
        let k_time = avg(ko
            .iter()
            .map(|o| o.result.stats.response_time().as_secs_f64()));
        let k_ref = avg(ko.iter().map(|o| {
            let s = &o.result.stats;
            s.refine_time.as_secs_f64() / s.response_time().as_secs_f64().max(1e-12)
        }));
        let k_mem = avg(ko.iter().map(|o| o.result.stats.memory.total_mib()));
        let b_time = avg(bo
            .iter()
            .map(|o| o.result.stats.response_time().as_secs_f64()));
        let b_mem = avg(bo.iter().map(|o| o.result.stats.memory.total_mib()));
        let k_to = ko.iter().filter(|o| o.result.stats.timed_out).count();
        let b_to = bo.iter().filter(|o| o.result.stats.timed_out).count();
        t.row(vec![
            format!("{lo}-{hi}"),
            fmt_secs(k_time),
            pct(k_ref),
            pct(1.0 - k_ref),
            format!("{k_mem:.1}"),
            fmt_secs(b_time),
            format!("{b_mem:.1}"),
            k_to.to_string(),
            b_to.to_string(),
        ]);
    }
    format!(
        "{label} — response time, phase breakdown and memory vs query cardinality\n(K = Koios with {} partitions, B = Baseline):\n{}",
        hc.partitions,
        t.render()
    )
}

/// Fig. 5: OpenData panels (a)–(d).
pub fn fig5(hc: &HarnessConfig) -> String {
    interval_figure(hc, profiles::opendata(hc.scale), "Fig. 5 — OpenData-like")
}

/// Fig. 6: WDC panels (a)–(d).
pub fn fig6(hc: &HarnessConfig) -> String {
    interval_figure(hc, profiles::wdc(hc.scale), "Fig. 6 — WDC-like")
}

/// Fig. 7: parameter analysis on OpenData (partitions, α, k, memory vs α).
pub fn fig7(hc: &HarnessConfig) -> String {
    let mut out = String::new();
    let profile = profiles::opendata(hc.scale);
    let run = hc.profile_run(profile);

    // (a) partitions sweep.
    let mut t = TextTable::new(vec!["partitions", "time", "refine%", "postproc%"]);
    for parts in [1usize, 2, 5, 10, 20] {
        let mut sub = hc.clone();
        sub.partitions = parts;
        let outcomes = run_partitioned(&run, &sub);
        let time = avg(outcomes
            .iter()
            .map(|o| o.result.stats.response_time().as_secs_f64()));
        let refine = avg(outcomes.iter().map(|o| {
            let s = &o.result.stats;
            s.refine_time.as_secs_f64() / s.response_time().as_secs_f64().max(1e-12)
        }));
        t.row(vec![
            parts.to_string(),
            fmt_secs(time),
            pct(refine),
            pct(1.0 - refine),
        ]);
    }
    out.push_str(&format!(
        "Fig. 7a — time vs #partitions (k={}, α={}):\n{}\n\n",
        hc.k,
        hc.alpha,
        t.render()
    ));

    // (b) + (d): α sweep (time and memory).
    let mut t = TextTable::new(vec!["alpha", "time", "refine%", "mem(MB)"]);
    for alpha in [0.5, 0.6, 0.7, 0.8, 0.9] {
        let mut cfg = KoiosConfig::new(hc.k, alpha);
        cfg.time_budget = Some(hc.timeout);
        let outcomes = run_engine(&run, cfg, 1, 0);
        let time = avg(outcomes
            .iter()
            .map(|o| o.result.stats.response_time().as_secs_f64()));
        let refine = avg(outcomes.iter().map(|o| {
            let s = &o.result.stats;
            s.refine_time.as_secs_f64() / s.response_time().as_secs_f64().max(1e-12)
        }));
        let mem = avg(outcomes.iter().map(|o| o.result.stats.memory.total_mib()));
        t.row(vec![
            format!("{alpha}"),
            fmt_secs(time),
            pct(refine),
            format!("{mem:.1}"),
        ]);
    }
    out.push_str(&format!(
        "Fig. 7b/7d — time & memory vs element similarity threshold α (k={}, 1 partition):\n{}\n\n",
        hc.k,
        t.render()
    ));

    // (c) k sweep.
    let mut t = TextTable::new(vec!["k", "time", "refine%", "postproc sets"]);
    for k in [1usize, 5, 10, 25, 50] {
        let mut sub = hc.clone();
        sub.k = k;
        let outcomes = run_partitioned(&run, &sub);
        let time = avg(outcomes
            .iter()
            .map(|o| o.result.stats.response_time().as_secs_f64()));
        let refine = avg(outcomes.iter().map(|o| {
            let s = &o.result.stats;
            s.refine_time.as_secs_f64() / s.response_time().as_secs_f64().max(1e-12)
        }));
        let post = avg(outcomes
            .iter()
            .map(|o| o.result.stats.to_postprocess as f64));
        t.row(vec![
            k.to_string(),
            fmt_secs(time),
            pct(refine),
            format!("{post:.0}"),
        ]);
    }
    out.push_str(&format!(
        "Fig. 7c — time vs result size k (α={}, {} partitions):\n{}",
        hc.alpha,
        hc.partitions,
        t.render()
    ));
    out
}

/// Fig. 8: quality of semantic vs vanilla top-k on OpenData.
pub fn fig8(hc: &HarnessConfig) -> String {
    let profile = profiles::opendata(hc.scale);
    let intervals = profile.intervals.clone();
    let run = hc.profile_run(profile);
    let repo = &run.repo;
    let index = InvertedIndex::build(repo);
    let engine = Koios::new(Arc::clone(repo), Arc::clone(&run.sim), hc.koios_config());

    let mut t = TextTable::new(vec![
        "query card.",
        "kth vanilla (van list)",
        "kth vanilla (sem list)",
        "kth semantic (sem list)",
        "kth semantic (van list)",
        "|intersection|/k",
    ]);
    for (idx, (lo, hi)) in intervals.iter().enumerate() {
        let queries: Vec<_> = run.benchmark.interval_queries(idx).collect();
        if queries.is_empty() {
            continue;
        }
        let mut van_van = Vec::new();
        let mut sem_van = Vec::new();
        let mut sem_sem = Vec::new();
        let mut van_sem = Vec::new();
        let mut inter = Vec::new();
        for q in queries {
            let sem = engine.search(&q.tokens);
            let van = vanilla_topk(repo, &index, &q.tokens, hc.k);
            if sem.hits.is_empty() || van.is_empty() {
                continue;
            }
            let sem_ids: Vec<SetId> = sem.set_ids();
            let van_ids: Vec<SetId> = van.iter().map(|v| v.0).collect();
            // k-th (= last) entries of each list, measured both ways.
            van_van.push(van.last().unwrap().1 as f64);
            sem_van.push(repo.vanilla_overlap(&q.tokens, *sem_ids.last().unwrap()) as f64);
            sem_sem.push(sem.hits.last().unwrap().score.lb());
            van_sem.push(engine.exact_overlap(&q.tokens, *van_ids.last().unwrap()));
            let common = sem_ids.iter().filter(|id| van_ids.contains(id)).count();
            inter.push(common as f64 / sem_ids.len().max(1) as f64);
        }
        t.row(vec![
            format!("{lo}-{hi}"),
            format!("{:.1}", avg(van_van.into_iter())),
            format!("{:.1}", avg(sem_van.into_iter())),
            format!("{:.2}", avg(sem_sem.into_iter())),
            format!("{:.2}", avg(van_sem.into_iter())),
            pct(avg(inter.into_iter())),
        ]);
    }
    format!(
        "Fig. 8 — semantic vs vanilla top-k quality (k = {}). The semantic list's k-th\nset has lower vanilla overlap but higher semantic overlap; the intersection\nshows how many vanilla results semantic search shares (paper: ~50% at the\nsmallest interval).\n{}",
        hc.k,
        t.render()
    )
}

/// §VIII-B: Koios vs SilkMoth-syntactic vs SilkMoth-semantic on q-gram
/// Jaccard element similarity.
pub fn silkmoth(hc: &HarnessConfig) -> String {
    // Smaller corpus: SilkMoth-semantic is deliberately slow.
    let mut profile = profiles::opendata((hc.scale * 0.5).max(0.01));
    profile.queries_per_interval = 2;
    let run = hc.profile_run(profile);
    let repo = &run.repo;
    let sim: Arc<dyn ElementSimilarity> = Arc::new(QGramJaccard::new(repo, 3));
    let alpha = hc.alpha;

    // Koios first — also yields each query's θ*k; the paper feeds SilkMoth
    // the *minimum* θ*k over the benchmark (an advantage for SilkMoth).
    let mut cfg = KoiosConfig::new(hc.k, alpha);
    cfg.no_em_filter = false;
    cfg.time_budget = Some(hc.timeout);
    let engine = Koios::new(Arc::clone(repo), Arc::clone(&sim), cfg);
    let mut koios_time = Vec::new();
    let mut theta_min = f64::INFINITY;
    let mut results = Vec::new();
    for q in &run.benchmark.queries {
        let res = engine.search(&q.tokens);
        koios_time.push(res.stats.response_time().as_secs_f64());
        if let Some(h) = res.hits.last() {
            theta_min = theta_min.min(h.score.lb());
        }
        results.push(res);
    }
    if !theta_min.is_finite() {
        theta_min = 0.0;
    }

    let mut t = TextTable::new(vec!["engine", "avg time", "avg candidates", "avg verified"]);
    t.row(vec![
        "koios".to_string(),
        fmt_secs(avg(koios_time.iter().copied())),
        format!(
            "{:.0}",
            avg(results.iter().map(|r| r.stats.candidates as f64))
        ),
        format!("{:.0}", avg(results.iter().map(|r| r.stats.em_full as f64))),
    ]);
    for variant in [SilkMothVariant::Syntactic, SilkMothVariant::Semantic] {
        let sm = SilkMoth::new(repo, variant, 3, alpha);
        let mut times = Vec::new();
        let mut cands = Vec::new();
        let mut ver = Vec::new();
        for q in &run.benchmark.queries {
            let t0 = std::time::Instant::now();
            let (_, stats) = sm.search_topk(&q.tokens, hc.k, theta_min);
            times.push(t0.elapsed().as_secs_f64());
            cands.push(stats.candidate_sets as f64);
            ver.push(stats.verified as f64);
        }
        t.row(vec![
            format!("silkmoth-{variant:?}").to_lowercase(),
            fmt_secs(avg(times.into_iter())),
            format!("{:.0}", avg(cands.into_iter())),
            format!("{:.0}", avg(ver.into_iter())),
        ]);
    }
    format!(
        "§VIII-B — Koios vs SilkMoth on q-gram Jaccard (α = {alpha}, θ*k = {theta_min:.2} fed\nto SilkMoth as in the paper; paper shape: Koios < syntactic < semantic):\n{}",
        t.render()
    )
}

/// Token-level kNN cache experiment (ROADMAP "smarter caching"): cold vs
/// warm searches on an overlapping-query workload.
///
/// The workload takes every benchmark query and adds two sibling queries
/// sharing all but one element (head/tail dropped), the overlap pattern a
/// serving workload exhibits (users refining a query, dashboards with
/// shared dimensions). Three engine passes run over it:
///
/// * `no-cache` — the reference engine, fresh vocabulary scans per query;
/// * `cold` — a [`TokenKnnCache`]-backed engine with an empty cache (this
///   pass both measures fill overhead and populates the cache);
/// * `warm` — the same engine again, now served from the shared lists.
///
/// All three passes must return identical hits (printed as
/// `identical: true`); the refine-time column shows the kNN/refinement
/// work the warm pass avoids.
pub fn token_cache(hc: &HarnessConfig) -> String {
    let profile = profiles::opendata(hc.scale);
    let run = hc.profile_run(profile);
    let repo = &run.repo;

    let mut workload: Vec<Vec<TokenId>> = Vec::new();
    for q in &run.benchmark.queries {
        workload.push(q.tokens.clone());
        if q.tokens.len() > 2 {
            workload.push(q.tokens[1..].to_vec());
            workload.push(q.tokens[..q.tokens.len() - 1].to_vec());
        }
    }

    let plain = Koios::new(Arc::clone(repo), Arc::clone(&run.sim), hc.koios_config());
    let cache = Arc::new(TokenKnnCache::new(256 << 20));
    let caching = plain.with_config(hc.koios_config().with_token_cache(Arc::clone(&cache)));

    let run_pass = |engine: &Koios| -> (Vec<SearchResult>, f64, f64) {
        let results: Vec<SearchResult> = workload.iter().map(|q| engine.search(q)).collect();
        let refine = avg(results.iter().map(|r| r.stats.refine_time.as_secs_f64()));
        let resp = avg(results
            .iter()
            .map(|r| r.stats.response_time().as_secs_f64()));
        (results, refine, resp)
    };

    let (ref_results, ref_refine, ref_resp) = run_pass(&plain);
    let (cold_results, cold_refine, cold_resp) = run_pass(&caching);
    let (warm_results, warm_refine, warm_resp) = run_pass(&caching);

    let identical = ref_results
        .iter()
        .zip(&cold_results)
        .zip(&warm_results)
        .all(|((a, b), c)| a.hits == b.hits && c.hits == a.hits);

    let mut t = TextTable::new(vec![
        "pass",
        "avg refine",
        "avg response",
        "kNN hits",
        "kNN misses",
        "hit rate",
        "bytes served(MB)",
    ]);
    let pass_row =
        |t: &mut TextTable, label: &str, results: &[SearchResult], refine: f64, resp: f64| {
            let hits: usize = results.iter().map(|r| r.stats.knn_cache.hits).sum();
            let misses: usize = results.iter().map(|r| r.stats.knn_cache.misses).sum();
            let served: usize = results.iter().map(|r| r.stats.knn_cache.bytes_served).sum();
            let total = (hits + misses).max(1);
            t.row(vec![
                label.to_string(),
                fmt_secs(refine),
                fmt_secs(resp),
                hits.to_string(),
                misses.to_string(),
                pct(hits as f64 / total as f64),
                format!("{:.1}", served as f64 / (1 << 20) as f64),
            ]);
        };
    pass_row(&mut t, "no-cache", &ref_results, ref_refine, ref_resp);
    pass_row(
        &mut t,
        "cold (fills)",
        &cold_results,
        cold_refine,
        cold_resp,
    );
    pass_row(&mut t, "warm", &warm_results, warm_refine, warm_resp);

    let snap = cache.snapshot();
    format!(
        "Token cache — cold vs warm on an overlapping workload ({} queries incl.\n\
         head/tail-dropped siblings, k={}, α={}). identical: {identical}.\n\
         warm refine speedup vs no-cache: {:.1}x; cache: {} lists, {:.1} MB held.\n{}",
        workload.len(),
        hc.k,
        hc.alpha,
        ref_refine / warm_refine.max(1e-9),
        snap.entries,
        snap.bytes as f64 / (1 << 20) as f64,
        t.render()
    )
}

/// Shard-aware serving scaling experiment (ROADMAP "shard-aware service
/// routing"; the serving-layer view of Fig. 7a): a [`SearchService`] over a
/// partitioned backend, swept across shards × workers.
///
/// Every combination pushes the same benchmark workload (result cache
/// bypassed so each request really searches) through the service and
/// reports wall time, throughput, mean engine response time and timeouts.
/// The `1 shard × 1 worker` cell is the reference; every other cell must
/// return identical hit scores (`identical: true` in the output — sharding
/// under a shared `θlb` is exact, §VI). The sweep runs with the No-EM
/// filter off, so every cell reports exact scores: with it on, one shard
/// reports the single engine's No-EM intervals where more shards resolve
/// them. Separately, one shard must return the hits of a `Koios` over the
/// full index, score forms included, under the default configuration
/// (`identical_full: true`). Besides the
/// rendered table, the rows are written to `BENCH_partitioned.json` in the
/// working directory so CI can track scaling trends across commits; each
/// row embeds a `telemetry` scrape of that cell's service registry
/// (per-stage + queue-wait p50/p99).
pub fn partitioned(hc: &HarnessConfig) -> String {
    partitioned_with_output(hc, std::path::Path::new("BENCH_partitioned.json"))
}

/// [`partitioned`] with an explicit JSON artifact path (tests write to a
/// temp location instead of the working directory).
pub fn partitioned_with_output(hc: &HarnessConfig, json_path: &std::path::Path) -> String {
    let profile = profiles::opendata(hc.scale);
    let run = hc.profile_run(profile);
    let repo = Arc::clone(&run.repo);

    // One shard against the direct engine, hit for hit (No-EM on).
    let direct = Koios::new(Arc::clone(&repo), Arc::clone(&run.sim), hc.koios_config());
    let one_shard = EngineBackend::new(
        Arc::clone(&repo),
        Arc::clone(&run.sim),
        hc.koios_config(),
        1,
        hc.seed,
    );
    let identical_full = run
        .benchmark
        .queries
        .iter()
        .all(|q| one_shard.search(&q.tokens).hits == direct.search(&q.tokens).hits);

    let mut sweep_cfg = hc.koios_config();
    sweep_cfg.no_em_filter = false;
    let requests: Vec<SearchRequest> = run
        .benchmark
        .queries
        .iter()
        .map(|q| {
            SearchRequest::new(q.tokens.clone())
                .with_time_budget(hc.timeout)
                .bypassing_cache()
        })
        .collect();

    // 4 shards is the cell the scaling gate reads (4 shards × 4 workers
    // vs 1 worker), so it is always swept alongside the configured count.
    let mut shard_counts = vec![1usize, 2, 4, hc.partitions.max(1)];
    shard_counts.sort_unstable();
    shard_counts.dedup();
    let worker_counts = [1usize, 2, 4];

    let mut t = TextTable::new(vec![
        "shards",
        "workers",
        "wall",
        "qps",
        "scaling eff",
        "avg response",
        "timeouts",
        "knn hit rate",
    ]);
    let mut reference: Vec<Vec<f64>> = Vec::new();
    let mut identical = true;
    let mut json_rows: Vec<Json> = Vec::new();
    // Best observed 4-worker/1-worker speedup across shard counts, for the
    // CI scaling gate.
    let mut best_speedup = 0.0f64;
    for &shards in &shard_counts {
        // The 1-worker cell of this shard count anchors its scaling
        // efficiency column (worker_counts starts at 1).
        let mut qps_one_worker = 0.0f64;
        for workers in worker_counts {
            let service = SearchService::new_partitioned(
                Arc::clone(&repo),
                Arc::clone(&run.sim),
                sweep_cfg.clone(),
                shards,
                hc.seed,
                ServiceConfig::new()
                    .with_workers(workers)
                    .with_cache_capacity(0),
            );
            let t0 = std::time::Instant::now();
            let responses = service.search_batch(&requests);
            let wall = t0.elapsed().as_secs_f64();

            let scores: Vec<Vec<f64>> = responses
                .iter()
                .map(|r| r.result.hits.iter().map(|h| h.score.ub()).collect())
                .collect();
            if reference.is_empty() {
                reference = scores;
            } else {
                identical &= reference.len() == scores.len()
                    && reference.iter().zip(&scores).all(|(a, b)| {
                        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| (x - y).abs() < 1e-9)
                    });
            }

            let timeouts = responses
                .iter()
                .filter(|r| r.result.stats.timed_out)
                .count();
            let avg_resp = avg(responses
                .iter()
                .map(|r| r.result.stats.response_time().as_secs_f64()));
            let qps = requests.len() as f64 / wall.max(1e-9);
            if workers == 1 {
                qps_one_worker = qps;
            }
            // qps at W workers ÷ (W × qps at 1 worker, same shard count):
            // 1.0 = perfect linear scaling, 1/W = no scaling at all.
            let scaling_efficiency = qps / (workers as f64 * qps_one_worker.max(1e-9));
            if workers == *worker_counts.last().expect("non-empty sweep") {
                best_speedup = best_speedup.max(qps / qps_one_worker.max(1e-9));
            }
            let st = service.stats();
            let knn_rate = st.token_cache_hit_rate();
            t.row(vec![
                shards.to_string(),
                workers.to_string(),
                fmt_secs(wall),
                format!("{qps:.1}"),
                format!("{scaling_efficiency:.2}"),
                fmt_secs(avg_resp),
                format!("{timeouts}/{}", requests.len()),
                pct(knn_rate),
            ]);
            json_rows.push(Json::obj([
                ("shards", Json::num(shards as f64)),
                ("workers", Json::num(workers as f64)),
                ("wall_secs", Json::num(wall)),
                ("qps", Json::num(qps)),
                ("scaling_efficiency", Json::num(scaling_efficiency)),
                ("avg_response_secs", Json::num(avg_resp)),
                ("timeouts", Json::num(timeouts as f64)),
                ("knn_hit_rate", Json::num(knn_rate)),
                // Each cell is its own service, so the scrape is per-cell:
                // stage p50/p99 + queue-wait straight from the registry.
                ("telemetry", telemetry_json(service.metrics())),
            ]));
        }
    }

    // The artifact goes through the shared encoder (one JSON
    // implementation in the workspace; non-finite values become `null`
    // instead of invalid JSON). CI greps for `"identical":true` and
    // `"identical_full":true`.
    // CI scaling gate: lenient — the best 4-worker cell must beat its
    // 1-worker anchor by ≥ 1.2×. A single-core machine cannot demonstrate
    // parallel speedup at all, so it auto-passes (the multi-core CI runner
    // carries the real gate).
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let scaling_ok = cores < 2 || best_speedup >= 1.2;

    let json = Json::obj([
        ("experiment", Json::str("partitioned")),
        ("scale", Json::num(hc.scale)),
        ("k", Json::num(hc.k as f64)),
        ("alpha", Json::num(hc.alpha)),
        ("queries", Json::num(requests.len() as f64)),
        ("identical", Json::Bool(identical)),
        ("identical_full", Json::Bool(identical_full)),
        ("cores", Json::num(cores as f64)),
        ("best_worker_speedup", Json::num(best_speedup)),
        ("scaling_ok", Json::Bool(scaling_ok)),
        ("rows", Json::Arr(json_rows)),
    ])
    .encode()
        + "\n";
    let json_note = match std::fs::write(json_path, &json) {
        Ok(()) => format!("rows written to {}", json_path.display()),
        Err(e) => format!("could not write {}: {e}", json_path.display()),
    };

    format!(
        "Partitioned serving — shards × workers over {} queries (k={}, α={},\n\
         result cache bypassed, No-EM off; all cells identical to the 1-shard reference: {identical};\n\
         1 shard identical to the direct engine with No-EM on: {identical_full};\n\
         best 4-worker speedup {best_speedup:.2}× on {cores} core(s), scaling_ok={scaling_ok}).\n\
         {json_note}.\n{}",
        requests.len(),
        hc.k,
        hc.alpha,
        t.render()
    )
}

/// Network serving experiment (ROADMAP "async / network front-end"): an
/// in-process [`KoiosServer`](koios_net::KoiosServer) driven by N
/// concurrent HTTP clients.
///
/// The service (partitioned backend, persistent worker pool, result cache
/// bypassed so every request really searches) is bound to an ephemeral
/// loopback port; client-count sweeps push the benchmark workload through
/// `POST /search` and measure end-to-end latency — HTTP framing, JSON,
/// queueing *and* engine time. Every wire response is checked against the
/// in-process reference scores (`identical: true`), and the rows are
/// written to `BENCH_serving.json` (throughput + p50/p99 latency) so CI can
/// track the serving path across commits. The artifact also carries a
/// `telemetry` scrape of the service's own registry — per-stage and
/// queue-wait p50/p99 — so wire latency can be attributed to queueing vs
/// engine stages, and queries slower than 1% of the timeout land in a
/// `BENCH_serving.slow.jsonl` slow-query log next to it.
pub fn serving(hc: &HarnessConfig) -> String {
    serving_with_output(hc, std::path::Path::new("BENCH_serving.json"))
}

/// [`serving`] with an explicit JSON artifact path (tests write to a temp
/// location instead of the working directory).
pub fn serving_with_output(hc: &HarnessConfig, json_path: &std::path::Path) -> String {
    use koios_net::{client::KoiosClient, server::KoiosServer};

    let profile = profiles::opendata(hc.scale);
    let run = hc.profile_run(profile);
    let repo = Arc::clone(&run.repo);

    // Slow-query log artifact next to the JSON rows (BENCH_serving.json →
    // BENCH_serving.slow.jsonl), truncated per run so CI uploads only this
    // run's offenders. Threshold: 1% of the per-query timeout.
    let slow_path = json_path.with_extension("slow.jsonl");
    let _ = std::fs::remove_file(&slow_path);
    let mut service_cfg = ServiceConfig::new().with_workers(4).with_cache_capacity(0);
    let slow_note = match koios_service::SlowQueryLog::to_file(hc.timeout / 100, &slow_path) {
        Ok(log) => {
            service_cfg = service_cfg.with_slow_query_log(log);
            format!(
                "slow queries (>{:?}) in {}",
                hc.timeout / 100,
                slow_path.display()
            )
        }
        Err(e) => format!("slow-query log disabled ({}: {e})", slow_path.display()),
    };

    let service = Arc::new(SearchService::new_partitioned(
        Arc::clone(&repo),
        Arc::clone(&run.sim),
        hc.koios_config(),
        hc.partitions.max(1),
        hc.seed,
        service_cfg,
    ));

    let queries: Vec<Vec<TokenId>> = run
        .benchmark
        .queries
        .iter()
        .map(|q| q.tokens.clone())
        .collect();
    // In-process reference scores for the identity check.
    let reference: Vec<Vec<f64>> = queries
        .iter()
        .map(|q| {
            service
                .search(SearchRequest::new(q.clone()).bypassing_cache())
                .result
                .hits
                .iter()
                .map(|h| h.score.ub())
                .collect()
        })
        .collect();
    let bodies: Vec<Json> = queries
        .iter()
        .map(|q| {
            Json::obj([
                ("tokens", Json::arr(q.iter().map(|t| Json::num(t.0 as f64)))),
                ("bypass_cache", Json::Bool(true)),
                ("time_budget_ms", Json::num(hc.timeout.as_millis() as f64)),
            ])
        })
        .collect();

    let server = match KoiosServer::bind(Arc::clone(&service), "127.0.0.1:0") {
        Ok(s) => s,
        Err(e) => return format!("Serving — could not bind a loopback port: {e}"),
    };
    let addr = server.addr();

    let percentile = |sorted: &[f64], p: f64| -> f64 {
        if sorted.is_empty() {
            return 0.0;
        }
        let idx = (p * (sorted.len() - 1) as f64).round() as usize;
        sorted[idx.min(sorted.len() - 1)]
    };

    let mut t = TextTable::new(vec![
        "clients",
        "requests",
        "wall",
        "qps",
        "scaling eff",
        "p50 latency",
        "p99 latency",
    ]);
    let mut identical = true;
    let mut json_rows: Vec<Json> = Vec::new();
    // The 1-client sweep anchors the per-row scaling efficiency.
    let mut qps_one_client = 0.0f64;
    for clients in [1usize, 2, 4] {
        let t0 = std::time::Instant::now();
        let per_thread: Vec<(Vec<f64>, bool)> = std::thread::scope(|sc| {
            let handles: Vec<_> = (0..clients)
                .map(|_| {
                    let bodies = &bodies;
                    let reference = &reference;
                    sc.spawn(move || {
                        let mut client = KoiosClient::new(addr);
                        let mut latencies = Vec::with_capacity(bodies.len());
                        let mut ok = true;
                        for (body, want) in bodies.iter().zip(reference) {
                            let r0 = std::time::Instant::now();
                            let reply = client.search(body);
                            latencies.push(r0.elapsed().as_secs_f64() * 1e3);
                            let mut got: Option<Vec<f64>> = None;
                            if let Ok((200, j)) = reply {
                                if let Some(hits) = j.get("hits").and_then(Json::as_array) {
                                    let scores: Vec<f64> = hits
                                        .iter()
                                        .filter_map(|h| h.get("ub").and_then(Json::as_f64))
                                        .collect();
                                    if scores.len() == hits.len() {
                                        got = Some(scores);
                                    }
                                }
                            }
                            ok &= matches!(
                                &got,
                                Some(got) if got.len() == want.len()
                                    && got.iter().zip(want).all(|(a, b)| (a - b).abs() < 1e-9)
                            );
                        }
                        (latencies, ok)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let wall = t0.elapsed().as_secs_f64();

        let mut latencies: Vec<f64> = Vec::new();
        for (lat, ok) in per_thread {
            identical &= ok;
            latencies.extend(lat);
        }
        latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
        let requests = latencies.len();
        let qps = requests as f64 / wall.max(1e-9);
        if clients == 1 {
            qps_one_client = qps;
        }
        // qps at C clients ÷ (C × qps at 1 client) — same definition as
        // the partitioned sweep's per-worker column.
        let scaling_efficiency = qps / (clients as f64 * qps_one_client.max(1e-9));
        let p50 = percentile(&latencies, 0.50);
        let p99 = percentile(&latencies, 0.99);
        t.row(vec![
            clients.to_string(),
            requests.to_string(),
            fmt_secs(wall),
            format!("{qps:.1}"),
            format!("{scaling_efficiency:.2}"),
            format!("{p50:.2}ms"),
            format!("{p99:.2}ms"),
        ]);
        json_rows.push(Json::obj([
            ("clients", Json::num(clients as f64)),
            ("requests", Json::num(requests as f64)),
            ("wall_secs", Json::num(wall)),
            ("qps", Json::num(qps)),
            ("scaling_efficiency", Json::num(scaling_efficiency)),
            ("p50_ms", Json::num(p50)),
            ("p99_ms", Json::num(p99)),
        ]));
    }

    // One service served every sweep, so its registry now holds the whole
    // run: split end-to-end latency into queue vs search and report the
    // per-stage engine breakdown alongside the wire-level percentiles.
    let m = service.metrics();
    let split_line = {
        let fmt = |h: &koios_telemetry::Histogram, label: &str| {
            let s = h.snapshot();
            if s.count() == 0 {
                format!("{label} —")
            } else {
                format!(
                    "{label} p50 {:.2}ms / p99 {:.2}ms",
                    s.p50_ns() / 1e6,
                    s.p99_ns() / 1e6
                )
            }
        };
        format!(
            "service-side split: {}; {}; {}; {}",
            fmt(&m.request_queue, "queue"),
            fmt(&m.queue_wait, "pool wait"),
            fmt(&m.request_search, "search"),
            fmt(&m.stage_refine, "refine stage"),
        )
    };

    // Shared encoder, same as `partitioned` — CI greps `"identical":true`.
    let json = Json::obj([
        ("experiment", Json::str("serving")),
        ("scale", Json::num(hc.scale)),
        ("k", Json::num(hc.k as f64)),
        ("alpha", Json::num(hc.alpha)),
        ("partitions", Json::num(hc.partitions.max(1) as f64)),
        ("queries", Json::num(queries.len() as f64)),
        ("identical", Json::Bool(identical)),
        ("telemetry", telemetry_json(m)),
        ("traces", traces_json(&service)),
        ("slow_query_log", Json::str(slow_path.display().to_string())),
        ("rows", Json::Arr(json_rows)),
    ])
    .encode()
        + "\n";
    let json_note = match std::fs::write(json_path, &json) {
        Ok(()) => format!("rows written to {}", json_path.display()),
        Err(e) => format!("could not write {}: {e}", json_path.display()),
    };

    format!(
        "Serving over HTTP — clients × {} queries against an in-process koios-net\n\
         server ({} partitions, 4 workers, result cache bypassed; all wire scores\n\
         identical to in-process search: {identical}).\n{split_line}.\n{json_note};\n{slow_note}.\n{}",
        queries.len(),
        hc.partitions.max(1),
        t.render()
    )
}

/// Tracing overhead A/B: the same partitioned service with and without
/// the request tracer, interleaved best-of rounds.
///
/// Both services share one corpus and config; the only difference is
/// [`ServiceConfig::without_tracing`]. Each round times a full pass of the
/// benchmark queries on each service, alternating which side goes first so
/// thermal/cache drift cancels; best-of rounds is compared. The gate
/// (`overhead_ok`) passes when the traced best is within 2% of the
/// untraced best *or* within the untraced side's own round-to-round noise
/// — a machine whose baseline jitters by 5% cannot certify a 2% bar, and
/// the artifact records both numbers so CI can tell which clause held.
/// Results are also cross-checked for byte-identical hits (`identical`).
pub fn trace_overhead(hc: &HarnessConfig) -> String {
    trace_overhead_with_output(hc, std::path::Path::new("BENCH_trace_overhead.json"))
}

/// [`trace_overhead`] with an explicit JSON artifact path.
pub fn trace_overhead_with_output(hc: &HarnessConfig, json_path: &std::path::Path) -> String {
    let profile = profiles::opendata(hc.scale);
    let run = hc.profile_run(profile);
    let repo = Arc::clone(&run.repo);
    let build = |tracing: bool| {
        let mut cfg = ServiceConfig::new().with_workers(4).with_cache_capacity(0);
        if !tracing {
            cfg = cfg.without_tracing();
        }
        SearchService::new_partitioned(
            Arc::clone(&repo),
            Arc::clone(&run.sim),
            hc.koios_config(),
            hc.partitions.max(1),
            hc.seed,
            cfg,
        )
    };
    let traced = build(true);
    let untraced = build(false);

    let queries: Vec<Vec<TokenId>> = run
        .benchmark
        .queries
        .iter()
        .map(|q| q.tokens.clone())
        .collect();

    // Divergence check once up front: tracing must not change results.
    let identical = queries.iter().all(|q| {
        let a = traced.search(SearchRequest::new(q.clone()).bypassing_cache());
        let b = untraced.search(SearchRequest::new(q.clone()).bypassing_cache());
        a.result.hits == b.result.hits
    });

    let pass = |svc: &SearchService| {
        let t0 = std::time::Instant::now();
        for q in &queries {
            let _ = svc.search(SearchRequest::new(q.clone()).bypassing_cache());
        }
        t0.elapsed().as_secs_f64()
    };

    const ROUNDS: usize = 5;
    let mut traced_walls = Vec::with_capacity(ROUNDS);
    let mut untraced_walls = Vec::with_capacity(ROUNDS);
    for round in 0..ROUNDS {
        // Alternate which side runs first within the pair.
        if round % 2 == 0 {
            untraced_walls.push(pass(&untraced));
            traced_walls.push(pass(&traced));
        } else {
            traced_walls.push(pass(&traced));
            untraced_walls.push(pass(&untraced));
        }
    }
    let best = |w: &[f64]| w.iter().cloned().fold(f64::INFINITY, f64::min);
    let worst = |w: &[f64]| w.iter().cloned().fold(0.0f64, f64::max);
    let best_untraced = best(&untraced_walls);
    let best_traced = best(&traced_walls);
    let overhead_pct = 100.0 * (best_traced / best_untraced.max(1e-12) - 1.0);
    let noise_pct = 100.0 * (worst(&untraced_walls) / best_untraced.max(1e-12) - 1.0);
    let overhead_ok = overhead_pct <= 2.0 || overhead_pct <= noise_pct;
    let qps = |wall: f64| queries.len() as f64 / wall.max(1e-12);

    let trace_stats = traces_json(&traced);
    let json = Json::obj([
        ("experiment", Json::str("trace_overhead")),
        ("scale", Json::num(hc.scale)),
        ("k", Json::num(hc.k as f64)),
        ("alpha", Json::num(hc.alpha)),
        ("partitions", Json::num(hc.partitions.max(1) as f64)),
        ("queries", Json::num(queries.len() as f64)),
        ("rounds", Json::num(ROUNDS as f64)),
        ("identical", Json::Bool(identical)),
        ("untraced_best_qps", Json::num(qps(best_untraced))),
        ("traced_best_qps", Json::num(qps(best_traced))),
        ("overhead_pct", Json::num(overhead_pct)),
        ("baseline_noise_pct", Json::num(noise_pct)),
        ("overhead_ok", Json::Bool(overhead_ok)),
        ("traces", trace_stats),
    ])
    .encode()
        + "\n";
    let json_note = match std::fs::write(json_path, &json) {
        Ok(()) => format!("rows written to {}", json_path.display()),
        Err(e) => format!("could not write {}: {e}", json_path.display()),
    };

    format!(
        "Tracing overhead A/B — {} queries × {ROUNDS} interleaved rounds on a {}-shard\n\
         service (identical hits: {identical}).\n\
         untraced best {:.1} qps, traced best {:.1} qps, overhead {overhead_pct:+.2}%\n\
         (baseline round-to-round noise {noise_pct:.2}%), overhead_ok={overhead_ok}.\n\
         {json_note}.",
        queries.len(),
        hc.partitions.max(1),
        qps(best_untraced),
        qps(best_traced),
    )
}

/// Profiler + EXPLAIN overhead A/B/C: the same partitioned service with
/// the cooperative wall-clock profiler on (1 ms sampler), with EXPLAIN
/// funnel accounting per request, and with both off, interleaved best-of
/// rounds.
///
/// Three service legs share one corpus and config (tracing off everywhere
/// so the measured deltas isolate this PR's two opt-in costs):
/// `baseline` has no profiler, `profiled` runs the default 1 ms sampler,
/// and `explain` (also profiler-free) sends every request with
/// `explain: true`. The gate (`overhead_ok`) passes when **both** the
/// profiled and the explain best are within 2% of the baseline best *or*
/// within the baseline's own round-to-round noise — same two-clause rule
/// as [`trace_overhead`], recorded per leg so CI can tell which clause
/// held. Hits are cross-checked for exact equality across all three legs
/// (`identical`), and the artifact records the sampler's tick count plus
/// whether it produced non-empty collapsed stacks.
pub fn profile_overhead(hc: &HarnessConfig) -> String {
    profile_overhead_with_output(hc, std::path::Path::new("BENCH_profile.json"))
}

/// [`profile_overhead`] with an explicit JSON artifact path.
pub fn profile_overhead_with_output(hc: &HarnessConfig, json_path: &std::path::Path) -> String {
    let profile = profiles::opendata(hc.scale);
    let run = hc.profile_run(profile);
    let repo = Arc::clone(&run.repo);
    let build = |profiler: bool| {
        let mut cfg = ServiceConfig::new()
            .with_workers(4)
            .with_cache_capacity(0)
            .without_tracing();
        if !profiler {
            cfg = cfg.without_profiler();
        }
        SearchService::new_partitioned(
            Arc::clone(&repo),
            Arc::clone(&run.sim),
            hc.koios_config(),
            hc.partitions.max(1),
            hc.seed,
            cfg,
        )
    };
    let baseline = build(false);
    let profiled = build(true);
    let explain = build(false);

    let queries: Vec<Vec<TokenId>> = run
        .benchmark
        .queries
        .iter()
        .map(|q| q.tokens.clone())
        .collect();

    // Divergence check once up front: neither the sampler nor funnel
    // accounting may change a single hit.
    let identical = queries.iter().all(|q| {
        let a = baseline.search(SearchRequest::new(q.clone()).bypassing_cache());
        let b = profiled.search(SearchRequest::new(q.clone()).bypassing_cache());
        let c = explain.search(
            SearchRequest::new(q.clone())
                .with_explain(true)
                .bypassing_cache(),
        );
        a.result.hits == b.result.hits && a.result.hits == c.result.hits
    });

    let pass = |svc: &SearchService, with_explain: bool| {
        let t0 = std::time::Instant::now();
        for q in &queries {
            let mut req = SearchRequest::new(q.clone()).bypassing_cache();
            if with_explain {
                req = req.with_explain(true);
            }
            let _ = svc.search(req);
        }
        t0.elapsed().as_secs_f64()
    };

    const ROUNDS: usize = 5;
    let mut baseline_walls = Vec::with_capacity(ROUNDS);
    let mut profiled_walls = Vec::with_capacity(ROUNDS);
    let mut explain_walls = Vec::with_capacity(ROUNDS);
    for round in 0..ROUNDS {
        // Rotate which leg runs first so thermal/cache drift cancels.
        match round % 3 {
            0 => {
                baseline_walls.push(pass(&baseline, false));
                profiled_walls.push(pass(&profiled, false));
                explain_walls.push(pass(&explain, true));
            }
            1 => {
                profiled_walls.push(pass(&profiled, false));
                explain_walls.push(pass(&explain, true));
                baseline_walls.push(pass(&baseline, false));
            }
            _ => {
                explain_walls.push(pass(&explain, true));
                baseline_walls.push(pass(&baseline, false));
                profiled_walls.push(pass(&profiled, false));
            }
        }
    }
    let best = |w: &[f64]| w.iter().cloned().fold(f64::INFINITY, f64::min);
    let worst = |w: &[f64]| w.iter().cloned().fold(0.0f64, f64::max);
    let best_baseline = best(&baseline_walls);
    let best_profiled = best(&profiled_walls);
    let best_explain = best(&explain_walls);
    let pct = |wall: f64| 100.0 * (wall / best_baseline.max(1e-12) - 1.0);
    let profiler_overhead_pct = pct(best_profiled);
    let explain_overhead_pct = pct(best_explain);
    let noise_pct = 100.0 * (worst(&baseline_walls) / best_baseline.max(1e-12) - 1.0);
    let leg_ok = |overhead: f64| overhead <= 2.0 || overhead <= noise_pct;
    let overhead_ok = leg_ok(profiler_overhead_pct) && leg_ok(explain_overhead_pct);
    let qps = |wall: f64| queries.len() as f64 / wall.max(1e-12);

    // The sampler must have actually been working while it was measured.
    let (ticks, has_stacks) = profiled
        .profiler()
        .map(|p| (p.ticks(), !p.collapsed_stacks().is_empty()))
        .unwrap_or((0, false));

    let json = Json::obj([
        ("experiment", Json::str("profile_overhead")),
        ("scale", Json::num(hc.scale)),
        ("k", Json::num(hc.k as f64)),
        ("alpha", Json::num(hc.alpha)),
        ("partitions", Json::num(hc.partitions.max(1) as f64)),
        ("queries", Json::num(queries.len() as f64)),
        ("rounds", Json::num(ROUNDS as f64)),
        ("identical", Json::Bool(identical)),
        ("baseline_best_qps", Json::num(qps(best_baseline))),
        ("profiled_best_qps", Json::num(qps(best_profiled))),
        ("explain_best_qps", Json::num(qps(best_explain))),
        ("profiler_overhead_pct", Json::num(profiler_overhead_pct)),
        ("explain_overhead_pct", Json::num(explain_overhead_pct)),
        ("baseline_noise_pct", Json::num(noise_pct)),
        ("profiler_ticks", Json::num(ticks as f64)),
        ("collapsed_stacks_nonempty", Json::Bool(has_stacks)),
        ("overhead_ok", Json::Bool(overhead_ok)),
    ])
    .encode()
        + "\n";
    let json_note = match std::fs::write(json_path, &json) {
        Ok(()) => format!("rows written to {}", json_path.display()),
        Err(e) => format!("could not write {}: {e}", json_path.display()),
    };

    format!(
        "Profiler/EXPLAIN overhead A/B/C — {} queries × {ROUNDS} rotated rounds on a\n\
         {}-shard service (identical hits: {identical}; sampler ticks {ticks}).\n\
         baseline best {:.1} qps, profiled best {:.1} qps ({profiler_overhead_pct:+.2}%),\n\
         explain best {:.1} qps ({explain_overhead_pct:+.2}%); baseline noise {noise_pct:.2}%,\n\
         overhead_ok={overhead_ok}.\n\
         {json_note}.",
        queries.len(),
        hc.partitions.max(1),
        qps(best_baseline),
        qps(best_profiled),
        qps(best_explain),
    )
}

/// Snapshot persistence experiment (ROADMAP "production-scale serving"):
/// cold build vs warm start from a `koios-store` snapshot.
///
/// The cold side regenerates the corpus from scratch (deliberately
/// bypassing the shared corpus cache) and builds a one-shard and a sharded
/// engine; the warm side writes one snapshot per backend, then
/// restores each with `EngineBackend::from_snapshot` (best of three loads).
/// Every benchmark query must return **byte-identical** hits on the
/// restored engine (`identical: true` — snapshots store vectors and
/// indexes bit-exactly, so this is equality, not tolerance). The rows land
/// in `BENCH_store.json`; CI greps `"identical":true` and
/// `"speedup_ok":true` (load ≥ 5× faster than cold build on both
/// backends).
pub fn snapshot(hc: &HarnessConfig) -> String {
    snapshot_with_output(hc, std::path::Path::new("BENCH_store.json"))
}

/// [`snapshot`] with an explicit JSON artifact path (tests write to a temp
/// location instead of the working directory).
pub fn snapshot_with_output(hc: &HarnessConfig, json_path: &std::path::Path) -> String {
    // Cold build, measured from scratch: corpus + embedding generation
    // (what `setup_profile` times as `generation_time`) plus engine/index
    // construction per backend.
    let mut run = crate::setup::setup_profile(profiles::opendata(hc.scale), hc.seed);
    cap_queries(&mut run.benchmark, hc.queries_per_interval);
    let gen_secs = run.generation_time.as_secs_f64();

    // Per-process work dir: concurrent harness/test runs (e.g. CI jobs on
    // one runner) must not race on each other's snapshot files.
    let dir = std::env::temp_dir().join(format!("koios-bench-snapshot-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        return format!("Snapshot — could not create {}: {e}", dir.display());
    }
    let emb = &run.corpus.embeddings;
    let queries: Vec<&Vec<TokenId>> = run.benchmark.queries.iter().map(|q| &q.tokens).collect();

    let mut t = TextTable::new(vec![
        "backend",
        "cold build",
        "write",
        "size(MB)",
        "load",
        "speedup",
        "identical",
    ]);
    let mut json_rows: Vec<Json> = Vec::new();
    let mut identical = true;
    let mut speedup_ok = true;
    for (label, partitions, file) in [
        ("single", 1, "single.ksnap"),
        ("partitioned", hc.partitions.max(1), "parted.ksnap"),
    ] {
        let t0 = std::time::Instant::now();
        let cold = EngineBackend::new(
            Arc::clone(&run.repo),
            Arc::clone(&run.sim),
            hc.koios_config(),
            partitions,
            hc.seed,
        );
        let build_secs = t0.elapsed().as_secs_f64();
        let path = dir.join(file);
        let t0 = std::time::Instant::now();
        let meta = match cold.write_snapshot(&path, Some(emb)) {
            Ok(m) => m,
            Err(e) => return format!("Snapshot — writing {} failed: {e}", path.display()),
        };
        let write_secs = t0.elapsed().as_secs_f64();

        // Best of three loads: at small scales a single load is only a few
        // ms, so damp filesystem jitter.
        let mut load_secs = f64::INFINITY;
        let mut warm = None;
        for _ in 0..3 {
            let t0 = std::time::Instant::now();
            match EngineBackend::from_snapshot(&path, hc.koios_config()) {
                Ok((backend, _)) => {
                    load_secs = load_secs.min(t0.elapsed().as_secs_f64());
                    warm = Some(backend);
                }
                Err(e) => return format!("Snapshot — loading {} failed: {e}", path.display()),
            }
        }
        let warm = warm.expect("three loads ran");
        assert_eq!(warm.num_partitions(), cold.num_partitions());

        let backend_identical = queries
            .iter()
            .all(|q| warm.search(q).hits == cold.search(q).hits);
        identical &= backend_identical;
        let cold_build = gen_secs + build_secs;
        let speedup = cold_build / load_secs.max(1e-9);
        speedup_ok &= speedup >= 5.0;

        t.row(vec![
            label.to_string(),
            fmt_secs(cold_build),
            fmt_secs(write_secs),
            format!("{:.1}", meta.total_bytes as f64 / (1 << 20) as f64),
            fmt_secs(load_secs),
            format!("{speedup:.1}x"),
            backend_identical.to_string(),
        ]);
        json_rows.push(Json::obj([
            ("backend", Json::str(label)),
            ("partitions", Json::num(cold.num_partitions() as f64)),
            ("cold_build_secs", Json::num(cold_build)),
            ("write_secs", Json::num(write_secs)),
            ("snapshot_bytes", Json::num(meta.total_bytes as f64)),
            ("load_secs", Json::num(load_secs)),
            ("speedup", Json::num(speedup)),
            ("identical", Json::Bool(backend_identical)),
        ]));
    }

    // `SnapshotMeta::read` inspects without loading payloads — surface it
    // so the experiment also exercises the cheap-introspection path.
    let meta_line = match koios_store::SnapshotMeta::read(&dir.join("parted.ksnap")) {
        Ok(m) => format!(
            "meta-only read: v{}, {}, {} sections, {} sets / {} tokens",
            m.format_version,
            m.layout.describe(),
            m.sections.len(),
            m.num_sets,
            m.vocab_size
        ),
        Err(e) => format!("meta-only read failed: {e}"),
    };

    // Shared encoder, same as `partitioned`/`serving` — CI greps
    // `"identical":true` and `"speedup_ok":true`.
    let json = Json::obj([
        ("experiment", Json::str("snapshot")),
        ("scale", Json::num(hc.scale)),
        ("k", Json::num(hc.k as f64)),
        ("alpha", Json::num(hc.alpha)),
        ("queries", Json::num(queries.len() as f64)),
        ("generation_secs", Json::num(gen_secs)),
        ("identical", Json::Bool(identical)),
        ("speedup_ok", Json::Bool(speedup_ok)),
        ("rows", Json::Arr(json_rows)),
    ])
    .encode()
        + "\n";
    let json_note = match std::fs::write(json_path, &json) {
        Ok(()) => format!("rows written to {}", json_path.display()),
        Err(e) => format!("could not write {}: {e}", json_path.display()),
    };

    format!(
        "Snapshot warm start — cold build (corpus generation + index build) vs\n\
         `koios-store` load, verified over {} queries (k={}, α={}; reloaded hits\n\
         byte-identical on both backends: {identical}; load ≥5x faster: {speedup_ok}).\n\
         {meta_line}.\n{json_note}.\n{}",
        queries.len(),
        hc.k,
        hc.alpha,
        t.render()
    )
}

/// Live mutation under load: a writer streams `CorpusOp` batches into a
/// mutable service while reader threads query it continuously. Measures
/// ingest throughput and the query rate sustained during the churn, and
/// verifies the two hard guarantees of the mutability layer: **zero
/// dropped requests** across every backend swap, and a final state
/// **byte-identical** to a cold engine that replays the same script in
/// one sitting. A snapshot → delta-append → warm-restore leg checks that
/// persistence reproduces the same answers. CI greps `"identical":true`
/// and `"zero_drops":true` in `BENCH_live.json`.
pub fn live(hc: &HarnessConfig) -> String {
    live_with_output(hc, std::path::Path::new("BENCH_live.json"))
}

/// [`live`] with an explicit JSON artifact path (tests write to a temp
/// location instead of the working directory).
pub fn live_with_output(hc: &HarnessConfig, json_path: &std::path::Path) -> String {
    use koios_core::{cosine_factory, MutableEngine};
    use koios_embed::ops::CorpusOp;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

    let profile = profiles::opendata(hc.scale);
    let run = hc.profile_run(profile);
    let repo = Arc::clone(&run.repo);
    let emb = Arc::new(run.corpus.embeddings.clone());
    let queries: Vec<Vec<TokenId>> = run
        .benchmark
        .queries
        .iter()
        .map(|q| q.tokens.clone())
        .collect();

    // A deterministic op script over the profile's own vocabulary: ~2/3
    // inserts, 1/3 removes of sets that are provably live at that point.
    let total_ops = 1200usize;
    let base = repo.num_sets() as u32;
    let mut ops = Vec::with_capacity(total_ops);
    let mut live_ids: Vec<u32> = (0..base).collect();
    let mut next_id = base;
    let vocab = repo.vocab_size();
    let mut i = 0usize;
    while ops.len() < total_ops {
        let len = 3 + (i * 7) % 8;
        let tokens: Vec<String> = (0..len)
            .map(|j| {
                repo.token_str(TokenId(((i * 131 + j * 31) % vocab) as u32))
                    .to_string()
            })
            .collect();
        ops.push(CorpusOp::insert(&format!("bench-live-{i}"), tokens));
        live_ids.push(next_id);
        next_id += 1;
        if i % 3 == 2 {
            let victim = live_ids.swap_remove((i * 13) % live_ids.len());
            ops.push(CorpusOp::remove(SetId(victim)));
        }
        i += 1;
    }
    let inserts = ops.iter().filter(|o| o.is_insert()).count();

    let readers = 4usize;
    let batch_size = 20usize;
    let mut t = TextTable::new(vec![
        "backend",
        "ops",
        "batches",
        "ingest ops/s",
        "queries during churn",
        "dropped",
        "identical",
    ]);
    let mut json_rows: Vec<Json> = Vec::new();
    let mut identical = true;
    let mut zero_drops = true;
    for (label, partitions) in [("single", 1usize), ("partitioned", hc.partitions.max(1))] {
        let cfg = hc
            .koios_config()
            .with_token_cache(Arc::new(TokenKnnCache::new(16 << 20)));
        let build = |cfg: KoiosConfig| {
            MutableEngine::partitioned(
                Arc::clone(&repo),
                Some(Arc::clone(&emb)),
                cfg,
                partitions,
                hc.seed,
                cosine_factory(),
            )
        };
        let engine = match build(cfg.clone()) {
            Ok(e) => e,
            Err(e) => return format!("Live — building {label} engine failed: {e}"),
        };
        let service = SearchService::from_mutable(
            engine,
            ServiceConfig::new()
                .with_workers(readers)
                .with_cache_capacity(256),
        );

        // Churn phase: readers hammer, the writer streams batches.
        let answered = AtomicU64::new(0);
        let dropped = AtomicU64::new(0);
        let done = AtomicBool::new(false);
        let mut ingest_secs = 0.0;
        let mut batches = 0usize;
        std::thread::scope(|sc| {
            for r in 0..readers {
                let service = &service;
                let queries = &queries;
                let answered = &answered;
                let dropped = &dropped;
                let done = &done;
                sc.spawn(move || {
                    let mut qi = r;
                    while !done.load(Ordering::Relaxed) {
                        let q = queries[qi % queries.len()].clone();
                        let resp = service.search(SearchRequest::new(q));
                        if resp.rejected {
                            dropped.fetch_add(1, Ordering::Relaxed);
                        } else {
                            answered.fetch_add(1, Ordering::Relaxed);
                        }
                        qi += 1;
                    }
                });
            }
            let t0 = std::time::Instant::now();
            for batch in ops.chunks(batch_size) {
                if let Err(e) = service.ingest(batch) {
                    done.store(true, Ordering::Relaxed);
                    panic!("live ingest rejected a valid batch: {e}");
                }
                batches += 1;
            }
            ingest_secs = t0.elapsed().as_secs_f64();
            done.store(true, Ordering::Relaxed);
        });

        // Cold replay of the same script, then byte-identical probes over
        // the benchmark queries against the served state.
        let mut cold = match build(cfg) {
            Ok(e) => e,
            Err(e) => return format!("Live — rebuilding {label} engine failed: {e}"),
        };
        if let Err(e) = cold.apply(&ops) {
            return format!("Live — cold replay on {label} failed: {e}");
        }
        let cold_backend = cold.backend();
        let live_backend = service.backend();
        let mut backend_identical =
            live_backend.repository().num_sets() == cold.repository().num_sets();
        backend_identical &= queries
            .iter()
            .all(|q| live_backend.search(q).hits == cold_backend.search(q).hits);

        // Persistence leg: base write, one delta batch, warm restore.
        let dir = std::env::temp_dir().join(format!("koios-bench-live-{}", std::process::id()));
        if let Err(e) = std::fs::create_dir_all(&dir) {
            return format!("Live — could not create {}: {e}", dir.display());
        }
        let path = dir.join(format!("{label}.ksnap"));
        let _ = std::fs::remove_file(&path);
        let delta_batch = [CorpusOp::insert(
            "bench-live-delta",
            ["bench", "delta", "probe"],
        )];
        let roundtrip = service
            .snapshot_to(&path)
            .and_then(|_| service.ingest(&delta_batch).map(|_| ()))
            .and_then(|()| service.snapshot_to(&path));
        match roundtrip {
            Ok(meta) => {
                backend_identical &= meta.deltas.len() == 1;
                match SearchService::from_snapshot(
                    &path,
                    hc.koios_config(),
                    ServiceConfig::new().with_workers(1),
                ) {
                    Ok(warm) => {
                        let warm_backend = warm.backend();
                        backend_identical &= queries.iter().all(|q| {
                            warm_backend.search(q).hits == service.backend().search(q).hits
                        });
                    }
                    Err(e) => return format!("Live — warm restore of {label} failed: {e}"),
                }
            }
            Err(e) => return format!("Live — delta snapshot of {label} failed: {e}"),
        }

        identical &= backend_identical;
        let drops = dropped.load(Ordering::Relaxed);
        zero_drops &= drops == 0;
        let st = service.stats();
        let ops_per_sec = ops.len() as f64 / ingest_secs.max(1e-9);
        t.row(vec![
            label.to_string(),
            ops.len().to_string(),
            batches.to_string(),
            format!("{ops_per_sec:.0}"),
            answered.load(Ordering::Relaxed).to_string(),
            drops.to_string(),
            backend_identical.to_string(),
        ]);
        json_rows.push(Json::obj([
            ("backend", Json::str(label)),
            ("partitions", Json::num(partitions as f64)),
            ("ops", Json::num(ops.len() as f64)),
            ("inserts", Json::num(inserts as f64)),
            ("removes", Json::num((ops.len() - inserts) as f64)),
            ("batches", Json::num(batches as f64)),
            ("ingest_secs", Json::num(ingest_secs)),
            ("ops_per_sec", Json::num(ops_per_sec)),
            (
                "queries_during_churn",
                Json::num(answered.load(Ordering::Relaxed) as f64),
            ),
            ("dropped", Json::num(drops as f64)),
            ("final_epoch", Json::num(st.engine_epoch as f64)),
            ("sets_added", Json::num(st.sets_added as f64)),
            ("sets_removed", Json::num(st.sets_removed as f64)),
            ("identical", Json::Bool(backend_identical)),
        ]));
    }

    let json = Json::obj([
        ("experiment", Json::str("live")),
        ("scale", Json::num(hc.scale)),
        ("k", Json::num(hc.k as f64)),
        ("alpha", Json::num(hc.alpha)),
        ("queries", Json::num(queries.len() as f64)),
        ("total_ops", Json::num(ops.len() as f64)),
        ("identical", Json::Bool(identical)),
        ("zero_drops", Json::Bool(zero_drops)),
        ("rows", Json::Arr(json_rows)),
    ])
    .encode()
        + "\n";
    let json_note = match std::fs::write(json_path, &json) {
        Ok(()) => format!("rows written to {}", json_path.display()),
        Err(e) => format!("could not write {}: {e}", json_path.display()),
    };

    format!(
        "Live mutation under load — {} ops streamed through a mutable service\n\
         while {readers} reader threads query (k={}, α={}). Mutated state\n\
         byte-identical to a cold replay on both backends: {identical};\n\
         zero dropped requests: {zero_drops}; delta snapshot round-trip verified.\n\
         {json_note}.\n{}",
        ops.len(),
        hc.k,
        hc.alpha,
        t.render()
    )
}

/// DESIGN §2 ablation: sound row-max iUB vs the paper's greedy iUB.
pub fn ablation(hc: &HarnessConfig) -> String {
    let profile = profiles::opendata(hc.scale);
    let run = hc.profile_run(profile);
    let mut t = TextTable::new(vec![
        "ub mode",
        "avg time",
        "refine pruned%",
        "postproc sets",
        "bucket moves",
    ]);
    let mut score_sets: Vec<Vec<f64>> = Vec::new();
    for (label, mode, iub) in [
        ("sound-rowmax", UbMode::SoundRowMax, true),
        ("paper-greedy", UbMode::PaperGreedy, true),
        ("iub-off", UbMode::SoundRowMax, false),
    ] {
        let mut cfg = KoiosConfig::new(hc.k, hc.alpha).with_ub_mode(mode);
        cfg.iub_filter = iub;
        cfg.no_em_filter = false; // exact scores for the agreement check
        cfg.time_budget = Some(hc.timeout);
        let outcomes = run_engine(&run, cfg, 1, 0);
        let time = avg(outcomes
            .iter()
            .map(|o| o.result.stats.response_time().as_secs_f64()));
        let pruned = avg(outcomes
            .iter()
            .map(|o| o.result.stats.refinement_prune_ratio()));
        let post = avg(outcomes
            .iter()
            .map(|o| o.result.stats.to_postprocess as f64));
        let moves = avg(outcomes.iter().map(|o| o.result.stats.bucket_moves as f64));
        t.row(vec![
            label.to_string(),
            fmt_secs(time),
            pct(pruned),
            format!("{post:.0}"),
            format!("{moves:.0}"),
        ]);
        score_sets.push(
            outcomes
                .iter()
                .flat_map(|o| o.result.hits.iter().map(|h| h.score.ub()))
                .collect(),
        );
    }
    let agree = score_sets.iter().skip(1).all(|s| {
        s.len() == score_sets[0].len()
            && s.iter()
                .zip(&score_sets[0])
                .all(|(a, b)| (a - b).abs() < 1e-6)
    });
    format!(
        "Ablation (DESIGN §2) — upper-bound rules on OpenData-like (k={}, α={}).\nAll modes returned identical top-k scores: {}.\n{}",
        hc.k,
        hc.alpha,
        agree,
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> HarnessConfig {
        HarnessConfig {
            scale: 0.01,
            k: 3,
            alpha: 0.8,
            partitions: 2,
            queries_per_interval: 1,
            timeout: Duration::from_secs(10),
            seed: 1,
        }
    }

    #[test]
    fn table1_renders_four_rows() {
        let out = table1(&tiny());
        assert!(out.contains("dblp"));
        assert!(out.contains("wdc"));
        assert_eq!(out.lines().count(), 7); // title + header + sep + 4 rows
    }

    #[test]
    fn table2_and_3_render() {
        let hc = tiny();
        let t2 = table2(&hc);
        assert!(t2.contains("iUB-Filter"));
        let t3 = table3(&hc);
        assert!(t3.contains("speedup"));
    }

    #[test]
    fn interval_tables_render() {
        let hc = tiny();
        assert!(table4(&hc).contains("Candidates"));
        assert!(fig8(&hc).contains("intersection"));
    }

    #[test]
    fn token_cache_identical_and_renders() {
        let out = token_cache(&tiny());
        assert!(out.contains("identical: true"), "{out}");
        assert!(out.contains("warm"));
        assert!(out.contains("hit rate"));
    }

    #[test]
    fn partitioned_serving_is_identical_and_renders() {
        let dir = std::env::temp_dir().join("koios-bench-partitioned-test");
        std::fs::create_dir_all(&dir).unwrap();
        let json_path = dir.join("BENCH_partitioned.json");
        let out = partitioned_with_output(&tiny(), &json_path);
        assert!(
            out.contains("identical to the 1-shard reference: true"),
            "{out}"
        );
        assert!(
            out.contains("identical to the direct engine with No-EM on: true"),
            "{out}"
        );
        assert!(out.contains("qps"));
        let json = std::fs::read_to_string(&json_path).unwrap();
        assert!(json.contains("\"experiment\":\"partitioned\""));
        assert!(json.contains("\"identical\":true"));
        assert!(json.contains("\"identical_full\":true"));
        // Every cell scraped its service registry into the artifact.
        assert!(json.contains("\"telemetry\""));
        assert!(json.contains("\"stage_refine\""));
        assert!(json.contains("\"queue_wait\""));
    }

    #[test]
    fn serving_over_http_is_identical_and_renders() {
        let dir = std::env::temp_dir().join("koios-bench-serving-test");
        std::fs::create_dir_all(&dir).unwrap();
        let json_path = dir.join("BENCH_serving.json");
        let out = serving_with_output(&tiny(), &json_path);
        assert!(
            out.contains("identical to in-process search: true"),
            "{out}"
        );
        assert!(out.contains("p50 latency"));
        let json = std::fs::read_to_string(&json_path).unwrap();
        assert!(json.contains("\"experiment\":\"serving\""));
        assert!(json.contains("\"identical\":true"));
        assert!(json.contains("\"p99_ms\""));
        // Telemetry scrape + slow-query log ride along in the artifact.
        assert!(json.contains("\"telemetry\""));
        assert!(json.contains("\"stage_refine\""));
        assert!(json.contains("\"queue_wait\""));
        assert!(json.contains("\"slow_query_log\""));
        assert!(json_path.with_extension("slow.jsonl").exists());
        assert!(out.contains("service-side split"), "{out}");
        // The tail-sampler summary rides along too.
        assert!(json.contains("\"traces\""));
        assert!(json.contains("\"sampled_pct\""));
    }

    #[test]
    fn trace_overhead_ab_is_identical_and_renders() {
        let dir = std::env::temp_dir().join("koios-bench-trace-overhead-test");
        std::fs::create_dir_all(&dir).unwrap();
        let json_path = dir.join("BENCH_trace_overhead.json");
        let out = trace_overhead_with_output(&tiny(), &json_path);
        assert!(out.contains("identical hits: true"), "{out}");
        assert!(out.contains("overhead_ok="), "{out}");
        let json = std::fs::read_to_string(&json_path).unwrap();
        assert!(json.contains("\"experiment\":\"trace_overhead\""));
        assert!(json.contains("\"identical\":true"));
        assert!(json.contains("\"overhead_pct\""));
        assert!(json.contains("\"baseline_noise_pct\""));
        assert!(json.contains("\"overhead_ok\""));
        // The 2%-or-noise gate itself is asserted by the CI smoke run at a
        // larger scale; a unit-test corpus is too small for stable ratios.
    }

    #[test]
    fn snapshot_roundtrip_is_identical_and_renders() {
        let dir = std::env::temp_dir().join("koios-bench-snapshot-test");
        std::fs::create_dir_all(&dir).unwrap();
        let json_path = dir.join("BENCH_store.json");
        let out = snapshot_with_output(&tiny(), &json_path);
        assert!(
            out.contains("byte-identical on both backends: true"),
            "{out}"
        );
        assert!(out.contains("meta-only read: v2"), "{out}");
        let json = std::fs::read_to_string(&json_path).unwrap();
        assert!(json.contains("\"experiment\":\"snapshot\""));
        assert!(json.contains("\"identical\":true"));
        assert!(json.contains("\"backend\":\"partitioned\""));
        // The 5x speedup bar is asserted by the CI smoke gate at a larger
        // scale, not here: a unit-test corpus is too small for stable
        // wall-clock ratios.
    }

    #[test]
    fn live_mutation_is_identical_and_renders() {
        let dir = std::env::temp_dir().join("koios-bench-live-test");
        std::fs::create_dir_all(&dir).unwrap();
        let json_path = dir.join("BENCH_live.json");
        let out = live_with_output(&tiny(), &json_path);
        assert!(
            out.contains("byte-identical to a cold replay on both backends: true"),
            "{out}"
        );
        assert!(out.contains("zero dropped requests: true"), "{out}");
        let json = std::fs::read_to_string(&json_path).unwrap();
        assert!(json.contains("\"experiment\":\"live\""));
        assert!(json.contains("\"identical\":true"));
        assert!(json.contains("\"zero_drops\":true"));
        assert!(json.contains("\"backend\":\"partitioned\""));
    }

    #[test]
    fn silkmoth_and_ablation_render() {
        let hc = tiny();
        let s = silkmoth(&hc);
        assert!(s.contains("silkmoth-syntactic"));
        let a = ablation(&hc);
        assert!(a.contains("sound-rowmax"));
        assert!(a.contains("identical top-k scores: true"), "{a}");
    }
}
