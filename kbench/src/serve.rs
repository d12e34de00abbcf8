//! `twitter-serve-mixed`: an open loop over HTTP against an in-process
//! `KoiosServer` that warm-starts a p = 2 `MutableEngine` from a snapshot.
//! Searches are Zipf draws over a pool of distinct queries; every
//! hundredth operation is a `POST /ingest` batch.

use crate::closed::{self, engine_config, service_config};
use crate::hits::{self, HitRow};
use crate::inputs::{self, OpKind, ScheduledOp, Seeds};
use crate::layers::{self, StageSample};
use crate::report::Report;
use crate::run;
use crate::spec;
use crate::stats::{self, median, quantile};
use crate::trace::Recorder;
use koios_common::{Json, TokenId};
use koios_core::{cosine_factory, EngineBackend, MutableEngine, SearchResult};
use koios_embed::ops::CorpusOp;
use koios_embed::repository::Repository;
use koios_embed::sim::{CosineSimilarity, ElementSimilarity};
use koios_embed::vectors::Embeddings;
use koios_net::{KoiosClient, KoiosServer};
use koios_service::{SearchRequest, SearchService};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Sender threads, one keep-alive connection each.
const CONNECTIONS: usize = 2;
/// Pool queries compared against a cold rebuild of the final corpus.
const REBUILD_CHECKS: usize = 16;
/// Pool queries replayed in-process for stage times and funnel counts.
const STAGE_REPLAYS: usize = 32;
/// Requests and replies replayed through the wire code.
const WIRE_REPLAYS: usize = 64;

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// One completed operation of the window.
struct OpRecord {
    op: usize,
    due: Instant,
    sent: Instant,
    done: Instant,
    /// HTTP status and decoded body, or the transport error.
    reply: Result<(u16, Json), String>,
}

/// Everything the window needs, shared by the sender threads.
struct Load<'a> {
    addr: std::net::SocketAddr,
    schedule: &'a [ScheduledOp],
    search_bodies: &'a [Json],
    ingest_bodies: &'a [Json],
    /// Open loop: wait for each operation's due time. Closed loop
    /// (capacity probe): send as soon as a connection is free, until the
    /// window ends.
    paced: bool,
    window: Duration,
}

/// Drives the schedule over `CONNECTIONS` keep-alive connections. Each
/// sender takes the next operation, waits until it is due (open loop),
/// sends it and records the reply.
fn drive(load: &Load) -> (Instant, Vec<OpRecord>) {
    let next = AtomicUsize::new(0);
    let start = Instant::now() + Duration::from_millis(20);
    let mut all: Vec<OpRecord> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|_| {
                let next = &next;
                s.spawn(move || {
                    let mut client = KoiosClient::new(load.addr);
                    // Open the connection before the window.
                    let _ = client.healthz();
                    let mut out = Vec::new();
                    loop {
                        let op = next.fetch_add(1, Ordering::Relaxed);
                        let Some(sched) = load.schedule.get(op) else {
                            break;
                        };
                        let due = if load.paced {
                            start + sched.due
                        } else {
                            Instant::now().max(start)
                        };
                        if !load.paced && due >= start + load.window {
                            break;
                        }
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        let sent = Instant::now();
                        let reply = match sched.kind {
                            OpKind::Search(q) => client.search(&load.search_bodies[q]),
                            OpKind::Ingest(b) => client.ingest(&load.ingest_bodies[b]),
                        };
                        let done = Instant::now();
                        out.push(OpRecord {
                            op,
                            due,
                            sent,
                            done,
                            reply: reply.map_err(|e| e.to_string()),
                        });
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("sender thread panicked"))
            .collect()
    });
    all.sort_by_key(|r| r.op);
    (start, all)
}

fn search_body(q: &[TokenId]) -> Json {
    Json::obj([("tokens", Json::arr(q.iter().map(|t| Json::num(t.0 as f64))))])
}

fn ingest_body(ops: &[CorpusOp]) -> Json {
    Json::obj([(
        "ops",
        Json::arr(ops.iter().map(|op| match op {
            CorpusOp::Insert { name, tokens, .. } => Json::obj([
                ("op", Json::str("insert")),
                ("name", Json::str(name.as_str())),
                (
                    "tokens",
                    Json::arr(tokens.iter().map(|t| Json::str(t.as_str()))),
                ),
            ]),
            CorpusOp::Remove { set } => Json::obj([
                ("op", Json::str("remove")),
                ("set", Json::num(set.0 as f64)),
            ]),
        })),
    )])
}

/// The generated inputs and the served system, ready for the window.
struct Prepared {
    seeds: Seeds,
    repo0: Arc<Repository>,
    emb: Arc<Embeddings>,
    sim0: Arc<dyn ElementSimilarity>,
    pool: Vec<Vec<TokenId>>,
    snapshot: PathBuf,
    service: Arc<SearchService>,
    /// Set-up and snapshot load time of the served service.
    setup: f64,
    load: f64,
    snapshot_bytes: u64,
}

/// Warm-starts a service from the snapshot; returns it with its set-up
/// time, load time and snapshot size.
fn warm_start(snapshot: &Path) -> (SearchService, f64, f64, u64) {
    let t0 = Instant::now();
    let s = SearchService::from_snapshot(snapshot, engine_config(), service_config())
        .expect("warm-start from the snapshot");
    let setup = t0.elapsed().as_secs_f64();
    let info = s.snapshot_info().expect("snapshot provenance");
    (s, setup, ms(info.load_time), info.bytes)
}

/// Generates the corpus, writes the snapshot (untimed), then warm-starts
/// the service from it.
fn prepare(seed: u64, out: &Path) -> Prepared {
    let seeds = Seeds::new(seed);
    let corpus = inputs::twitter_corpus(seeds);
    let mut pool = inputs::twitter_queries(&corpus, seeds);
    pool.truncate(spec::SERVE_POOL);
    let repo0 = Arc::new(corpus.repository);
    let emb = Arc::new(corpus.embeddings);
    let sim0: Arc<dyn ElementSimilarity> = Arc::new(CosineSimilarity::new(Arc::clone(&emb)));
    let dir = out.join("work");
    std::fs::create_dir_all(&dir).expect("create the work directory");
    let snapshot = dir.join(format!("serve-s{seed}.ksnap"));
    let _ = std::fs::remove_file(&snapshot);
    MutableEngine::partitioned(
        Arc::clone(&repo0),
        Some(Arc::clone(&emb)),
        engine_config(),
        spec::SERVE_PARTITIONS,
        seeds.shards,
        cosine_factory(),
    )
    .expect("cosine factory over embeddings")
    .write_snapshot(&snapshot)
    .expect("write the snapshot");
    let (service, setup, load, snapshot_bytes) = warm_start(&snapshot);
    Prepared {
        seeds,
        repo0,
        emb,
        sim0,
        pool,
        snapshot,
        service: Arc::new(service),
        setup,
        load,
        snapshot_bytes,
    }
}

/// The epochs a search may have been answered at: it saw every ingest
/// that completed before it was sent, and none sent after it completed.
fn epoch_range(search: &OpRecord, ingests: &[&OpRecord], base: u64) -> (u64, u64) {
    let lo = ingests.iter().filter(|i| i.done < search.sent).count() as u64;
    let hi = ingests.iter().filter(|i| i.sent < search.done).count() as u64;
    (base + lo, base + hi)
}

pub fn run(seed: u64, seconds: f64, report: &mut Report, rec: &mut Recorder, out: &Path) {
    let p = prepare(seed, out);
    let base = p.service.engine_epoch();
    let mut server =
        KoiosServer::bind(Arc::clone(&p.service), "127.0.0.1:0").expect("bind a local port");

    let schedule = inputs::open_loop_schedule(
        spec::SERVE_RATE_PER_S,
        seconds,
        spec::SERVE_POOL,
        spec::SERVE_ZIPF,
        spec::SERVE_INGEST_EVERY,
        p.seeds.schedule,
    );
    let batches =
        inputs::ingest_script(&p.repo0, inputs::ingest_batches(&schedule), p.seeds.ingest);
    let search_bodies: Vec<Json> = p.pool.iter().map(|q| search_body(q)).collect();
    let ingest_bodies: Vec<Json> = batches.iter().map(|b| ingest_body(b)).collect();
    let (start, records) = drive(&Load {
        addr: server.addr(),
        schedule: &schedule,
        search_bodies: &search_bodies,
        ingest_bodies: &ingest_bodies,
        paced: true,
        window: Duration::from_secs_f64(seconds),
    });
    report.set("rss_peak_mb", stats::peak_rss_mib().unwrap_or(0.0));
    let mut loads = vec![p.load];
    let setups = run::setup_times(p.setup, || {
        let (_, setup, load, _) = warm_start(&p.snapshot);
        loads.push(load);
        setup
    });
    report.set_n(
        "setup_s",
        median(&setups).expect("set-ups ran"),
        setups.len(),
    );

    // Ingests: each must answer 200 with the next epoch in order.
    let mut ingests: Vec<&OpRecord> = Vec::new();
    let mut ingest_lat = Vec::new();
    for r in &records {
        let OpKind::Ingest(b) = schedule[r.op].kind else {
            continue;
        };
        let epoch = match &r.reply {
            Ok((200, body)) => body.get("epoch").and_then(Json::as_u64),
            _ => None,
        };
        let want = base + b as u64 + 1;
        report.check(epoch == Some(want), || {
            format!("ingest batch {b}: wanted epoch {want}, reply {:?}", r.reply)
        });
        ingests.push(r);
        ingest_lat.push(ms(r.done - r.due));
    }

    // Searches: decode, find the epochs each may have seen.
    struct Search<'a> {
        rec: &'a OpRecord,
        query: usize,
        hits: Option<Vec<HitRow>>,
        epochs: (u64, u64),
    }
    let searches: Vec<Search> = records
        .iter()
        .filter_map(|r| match schedule[r.op].kind {
            OpKind::Search(q) => Some(Search {
                rec: r,
                query: q,
                hits: match &r.reply {
                    Ok((200, body))
                        if body.get("rejected").and_then(Json::as_bool) == Some(false)
                            && body.get("timed_out").and_then(Json::as_bool) == Some(false) =>
                    {
                        hits::from_reply(body)
                    }
                    _ => None,
                },
                epochs: epoch_range(r, &ingests, base),
            }),
            OpKind::Ingest(_) => None,
        })
        .collect();

    // References: replay the ingest script on a second engine restored
    // from the same snapshot, searching every (query, epoch) pair a reply
    // may have been answered at, plus the rebuild and audit samples.
    let final_epoch = base + ingests.len() as u64;
    let mut need: BTreeMap<u64, BTreeSet<usize>> = BTreeMap::new();
    for s in &searches {
        for e in s.epochs.0..=s.epochs.1 {
            need.entry(e).or_default().insert(s.query);
        }
    }
    let rebuild_sample = inputs::sample(p.pool.len(), REBUILD_CHECKS, p.seeds.checks);
    need.entry(final_epoch)
        .or_default()
        .extend(rebuild_sample.iter().copied());
    let audit_sample = inputs::cheap_sample(&p.pool, 2, p.seeds.checks);
    need.entry(base)
        .or_default()
        .extend(audit_sample.iter().copied());
    let (mut replay, _) =
        MutableEngine::from_snapshot(&p.snapshot, engine_config()).expect("restore the snapshot");
    let mut refs: BTreeMap<(usize, u64), SearchResult> = BTreeMap::new();
    for e in base..=final_epoch {
        if e > base {
            replay
                .apply(&batches[(e - base - 1) as usize])
                .expect("the ingest script applies");
        }
        let Some(qs) = need.get(&e) else { continue };
        let idx: Vec<usize> = qs.iter().copied().collect();
        let backend = replay.backend();
        for (q, r) in idx
            .iter()
            .zip(closed::search_parallel(&backend, &p.pool, &idx))
        {
            refs.insert((*q, e), r);
        }
    }
    let ref_hits: BTreeMap<(usize, u64), Vec<HitRow>> = refs
        .iter()
        .map(|(k, r)| (*k, hits::from_result(r)))
        .collect();

    let mut correct = Vec::with_capacity(searches.len());
    for s in &searches {
        let ok = match &s.hits {
            Some(got) => {
                (s.epochs.0..=s.epochs.1).any(|e| hits::same(got, &ref_hits[&(s.query, e)]))
            }
            None => false,
        };
        correct.push(ok);
        report.check(ok, || {
            format!(
                "search op {} (query {}, epochs {:?}): reply {}",
                s.rec.op,
                s.query,
                s.epochs,
                match &s.rec.reply {
                    Ok((status, _)) if s.hits.is_some() => format!("{status}, hits differ"),
                    Ok((status, body)) => format!("{status} {}", body.encode()),
                    Err(e) => e.clone(),
                }
            )
        });
    }

    // A cold rebuild of the final corpus (same layout, indexes built from
    // scratch) must agree with the replay.
    let rebuilt = MutableEngine::partitioned(
        p.service.repository(),
        Some(Arc::clone(&p.emb)),
        engine_config(),
        spec::SERVE_PARTITIONS,
        p.seeds.shards,
        cosine_factory(),
    )
    .expect("cosine factory over embeddings")
    .backend();
    for &q in &rebuild_sample {
        let got = hits::from_result(&rebuilt.search(&p.pool[q]));
        report.check(hits::same(&got, &ref_hits[&(q, final_epoch)]), || {
            format!("query {q}: cold rebuild of the final corpus differs from the service")
        });
    }
    drop(rebuilt);
    let audited: Vec<(usize, &SearchResult)> = audit_sample
        .iter()
        .map(|&q| (q, &refs[&(q, base)]))
        .collect();
    closed::audit(
        report,
        &p.repo0,
        p.sim0.as_ref(),
        &p.pool,
        &audited,
        p.seeds.checks,
    );

    // End-to-end metrics: latency from the due time.
    let lat: Vec<f64> = searches
        .iter()
        .map(|s| ms(s.rec.done - s.rec.due))
        .collect();
    let tail = spec::TAIL;
    report.set_n("latency_p50_ms", median(&lat).unwrap_or(0.0), lat.len());
    report.set_n(
        "latency_tail_ms",
        quantile(&lat, tail).unwrap_or(0.0),
        lat.len(),
    );
    report.lines.push(format!(
        "latency_tail_ms is p{:.1} over the run",
        tail * 100.0
    ));
    let last = searches.iter().map(|s| s.rec.done).max().unwrap_or(start);
    report.set_n(
        "qps",
        searches.len() as f64 / (last - start).as_secs_f64().max(1e-9),
        searches.len(),
    );
    let met = lat
        .iter()
        .zip(&correct)
        .filter(|(l, ok)| **ok && **l <= spec::SERVE_SLO_MS)
        .count();
    report.set_n(
        "slo_attainment",
        met as f64 / lat.len().max(1) as f64,
        lat.len(),
    );
    report.lines.push(format!(
        "slo_attainment: answered correctly within {} ms of the due time; open loop at {} ops/s",
        spec::SERVE_SLO_MS,
        spec::SERVE_RATE_PER_S
    ));
    report.set_n(
        "ingest_p50_ms",
        median(&ingest_lat).unwrap_or(0.0),
        ingest_lat.len(),
    );

    if rec.enabled() {
        report.set_n(
            "store.snapshot_load_ms",
            median(&loads).unwrap_or(0.0),
            loads.len(),
        );
        traced_figures(report, rec, &p, &records, &schedule, &batches, tail);
    }
    server.shutdown();
    let _ = std::fs::remove_file(&p.snapshot);
}

/// Per-layer figures of a traced run.
#[allow(clippy::too_many_arguments)]
fn traced_figures(
    report: &mut Report,
    rec: &mut Recorder,
    p: &Prepared,
    records: &[OpRecord],
    schedule: &[ScheduledOp],
    batches: &[Vec<CorpusOp>],
    tail: f64,
) {
    let field = |body: &Json, key: &str| body.get(key).and_then(Json::as_f64).unwrap_or(0.0);
    let (mut queue, mut overhead, mut lag) = (Vec::new(), Vec::new(), Vec::new());
    let (mut cache_hits, mut searches) = (0usize, 0usize);
    let (mut knn_hits, mut knn_misses) = (0.0, 0.0);
    for r in records {
        lag.push(ms(r.sent.saturating_duration_since(r.due)));
        let search = matches!(schedule[r.op].kind, OpKind::Search(_));
        let root = rec.span(
            r.op as u64,
            None,
            if search { "op.search" } else { "op.ingest" },
            r.due,
            r.done - r.due,
        );
        rec.span(
            r.op as u64,
            Some(root),
            "bench.lag",
            r.due,
            r.sent.saturating_duration_since(r.due),
        );
        let client = rec.span(
            r.op as u64,
            Some(root),
            "net.client",
            r.sent,
            r.done - r.sent,
        );
        let Ok((200, body)) = &r.reply else { continue };
        if !search {
            continue;
        }
        searches += 1;
        let (q, s) = (field(body, "queue_ms"), field(body, "response_ms"));
        let q_d = Duration::from_secs_f64(q / 1e3);
        rec.span(r.op as u64, Some(client), "service.queue", r.sent, q_d);
        rec.span(
            r.op as u64,
            Some(client),
            "core.search",
            r.sent + q_d,
            Duration::from_secs_f64(s / 1e3),
        );
        queue.push(q);
        overhead.push(ms(r.done - r.sent) - q - s);
        cache_hits += (body.get("cache").and_then(Json::as_str) == Some("hit")) as usize;
        if let Some(st) = body.get("stats") {
            knn_hits += field(st, "knn_cache_hits");
            knn_misses += field(st, "knn_cache_misses");
        }
    }
    report.set_n(
        "bench.trace_overhead",
        ms(rec.cost()) / records.len().max(1) as f64,
        records.len(),
    );
    report.set_n(
        "bench.lag_ms",
        quantile(&lag, tail).unwrap_or(0.0),
        lag.len(),
    );
    report.set_n(
        "service.queue_ms",
        median(&queue).unwrap_or(0.0),
        queue.len(),
    );
    report.set_n(
        "service.queue_tail_ms",
        quantile(&queue, tail).unwrap_or(0.0),
        queue.len(),
    );
    report.set_n(
        "net.overhead_ms",
        median(&overhead).unwrap_or(0.0),
        overhead.len(),
    );
    report.set_n(
        "service.result_cache_hit_rate",
        cache_hits as f64 / searches.max(1) as f64,
        searches,
    );

    // Engine stages and funnel: the served p = 2 backend, in process,
    // with EXPLAIN on.
    let explain: EngineBackend = closed::explain_backend(&p.service);
    let sample = inputs::sample(p.pool.len(), STAGE_REPLAYS, p.seeds.checks ^ 1);
    let mut stage = Vec::new();
    let mut results = Vec::new();
    for &q in &sample {
        let t0 = Instant::now();
        let r = explain.search(&p.pool[q]);
        stage.push(StageSample {
            wall: t0.elapsed(),
            queue: Duration::ZERO,
            stats: r.stats.clone(),
        });
        results.push(r);
    }
    layers::stage_figures(report, &stage);
    layers::funnel_figures(report, &results);
    // The window's token-cache hit rate, from the replies.
    report.set_n(
        "index.knn_cache_hit_rate",
        if knn_hits + knn_misses > 0.0 {
            knn_hits / (knn_hits + knn_misses)
        } else {
            0.0
        },
        (knn_hits + knn_misses) as usize,
    );

    // Kernels on (query, hit) pairs of the replayed searches.
    let base_refs: Vec<(usize, Vec<HitRow>)> = sample
        .iter()
        .zip(&results)
        .map(|(&q, r)| (q, hits::from_result(r)))
        .collect();
    let hit_refs: Vec<(usize, &[HitRow])> =
        base_refs.iter().map(|(q, h)| (*q, h.as_slice())).collect();
    let final_repo = p.service.repository();
    let pairs = closed::kernel_pairs(&final_repo, &p.pool, &hit_refs, p.seeds.checks);
    let tokens = closed::kernel_tokens(sample.iter().map(|&q| &p.pool[q]));
    layers::kernel_figures(report, rec, &final_repo, p.sim0.as_ref(), &pairs, &tokens);

    // Wire: the recorded request bodies, and replies of the same queries.
    let wire: Vec<usize> = (0..p.pool.len().min(WIRE_REPLAYS)).collect();
    let raw: Vec<Vec<u8>> = wire
        .iter()
        .map(|&q| layers::search_request_bytes(&search_body(&p.pool[q])))
        .collect();
    let replies: Vec<_> = wire
        .iter()
        .map(|&q| p.service.search(SearchRequest::new(p.pool[q].clone())))
        .collect();
    layers::net_figures(report, rec, &final_repo, &raw, &replies);

    // Service write path: the ingest script replayed on a fresh service.
    report.set("store.snapshot_bytes", p.snapshot_bytes as f64);
    let fresh = SearchService::from_snapshot(&p.snapshot, engine_config(), service_config())
        .expect("warm-start from the snapshot");
    let mut ingest = Vec::new();
    for (b, ops) in batches.iter().enumerate() {
        let t0 = Instant::now();
        let outcome = fresh.ingest(ops);
        let d = t0.elapsed();
        report.check(outcome.is_ok(), || {
            format!("in-process ingest of batch {b}: {outcome:?}")
        });
        rec.span(
            layers::REPLAY_TRACE_BASE + (2 << 24) + b as u64,
            None,
            "service.ingest",
            t0,
            d,
        );
        ingest.push(ms(d));
    }
    report.set_n(
        "service.ingest_ms",
        median(&ingest).unwrap_or(0.0),
        ingest.len(),
    );
}

/// `kbench capacity`: the `twitter-serve-mixed` mix as a closed loop over
/// the same two connections, reporting operations completed per second.
/// The open-loop rate is fixed at a sixth of this on the first
/// benchmarked commit.
pub fn capacity(seed: u64, seconds: f64) -> ExitCode {
    let out = Path::new(crate::run::OUT_DIR);
    let p = prepare(seed, out);
    let mut server =
        KoiosServer::bind(Arc::clone(&p.service), "127.0.0.1:0").expect("bind a local port");
    // Enough operations for the window at any plausible rate; the loop
    // stops at the deadline below.
    let schedule = inputs::open_loop_schedule(
        1000.0,
        seconds,
        spec::SERVE_POOL,
        spec::SERVE_ZIPF,
        spec::SERVE_INGEST_EVERY,
        p.seeds.schedule,
    );
    let batches =
        inputs::ingest_script(&p.repo0, inputs::ingest_batches(&schedule), p.seeds.ingest);
    let search_bodies: Vec<Json> = p.pool.iter().map(|q| search_body(q)).collect();
    let ingest_bodies: Vec<Json> = batches.iter().map(|b| ingest_body(b)).collect();
    let (start, records) = drive(&Load {
        addr: server.addr(),
        schedule: &schedule,
        search_bodies: &search_bodies,
        ingest_bodies: &ingest_bodies,
        paced: false,
        window: Duration::from_secs_f64(seconds),
    });
    let window = Duration::from_secs_f64(seconds);
    let done = records.iter().filter(|r| r.done - start <= window).count();
    let ok = records.iter().all(|r| matches!(r.reply, Ok((200, _))));
    println!(
        "capacity: {:.2} ops/s over {} connections ({} ops in {seconds} s, all 200: {ok})",
        done as f64 / seconds,
        CONNECTIONS,
        done
    );
    server.shutdown();
    let _ = std::fs::remove_file(&p.snapshot);
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
