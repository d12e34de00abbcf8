//! Sharded search and the merge (paper §VI end, Fig. 7a).
//!
//! Each shard of an [`EngineBackend`] runs a full Koios top-k search on the
//! process-wide [`ShardExecutor`], and all shards share the global monotone
//! `θlb` ([`SharedTheta`]) — a lower bound proven by any shard prunes
//! candidates in every other. The merge then applies the No-EM filter
//! (Lemma 7) over the merged pool of `≤ k·p` partial hits: an
//! interval-scored hit keeps its interval when the pool holds at most `k`
//! hits, or when its lower bound reaches the k-th largest upper bound in
//! the pool. At `p = 1` the pool is the shard's own top-k, so the merge
//! verifies nothing and the hits are those of a lone [`Koios`]. Across
//! `p > 1` shards an interval depends on how the shards' `θlb` raises
//! interleaved, so the merge verifies intervals exactly, lazily in
//! descending upper-bound order, to keep answers deterministic.
//!
//! [`Koios`]: crate::Koios

use crate::backend::EngineBackend;
use crate::engine::{effective_deadline, SearchCtx};
use crate::executor::ShardExecutor;
use crate::overlap::semantic_overlap_bounded_with_effort;
use crate::result::{Hit, ScoreBound, SearchResult};
use crate::stats::{SearchStats, ShardFunnel};
use crate::theta::SharedTheta;
use koios_common::{profile, TokenId};
use std::sync::Arc;
use std::time::{Duration, Instant};

impl EngineBackend {
    /// Runs the query on every shard and merges the results.
    ///
    /// The configuration's relative [`KoiosConfig::time_budget`](crate::KoiosConfig::time_budget)
    /// (when set) starts counting here and bounds shards *and* merge; see
    /// [`Self::search_with_deadline`] for the absolute-deadline variant
    /// serving layers use.
    pub fn search(&self, query: &[TokenId]) -> SearchResult {
        self.search_with_deadline(query, None)
    }

    /// Runs the query on every shard, bounded by an *absolute* deadline,
    /// and merges the results deadline-safely.
    ///
    /// The deadline (combined with the configuration's relative
    /// `time_budget` — the earlier limit wins) is threaded through every
    /// shard search **and** the merge phase, so a request whose budget
    /// expires mid-merge stops doing exact-verification work immediately
    /// instead of burning unbounded time after timing out. Hits left
    /// unverified by an expiry keep their interval scores
    /// ([`ScoreBound::Range`]) and the result reports
    /// `stats.timed_out = true`.
    pub fn search_with_deadline(
        &self,
        query: &[TokenId],
        deadline: Option<Instant>,
    ) -> SearchResult {
        let deadline = effective_deadline(deadline, self.cfg.time_budget);
        // Shard tasks run on the process-wide executor: no per-request
        // thread spawn, total search threads stay bounded by core count
        // across all in-flight requests, and the first task runs inline on
        // the caller, so one shard pays no thread hop. Per-shard wall time
        // is measured inside the task (the straggler breakdown the service
        // surfaces per partition).
        let executor_start = Instant::now();
        let theta = Arc::new(SharedTheta::new());
        let query: Arc<[TokenId]> = Arc::from(query);
        let tasks: Vec<_> = self
            .shards
            .iter()
            .enumerate()
            .map(|(shard, engine)| {
                let engine = Arc::clone(engine);
                let theta = Arc::clone(&theta);
                let query = Arc::clone(&query);
                move || {
                    let _stage = profile::enter_shard(profile::Stage::Shard, shard);
                    let shard_start = Instant::now();
                    let ctx = SearchCtx {
                        theta: &theta,
                        deadline,
                    };
                    let result = engine.search_with(&query, &ctx);
                    (result, shard_start.elapsed())
                }
            })
            .collect();
        let partials: Vec<(SearchResult, Duration)> = ShardExecutor::global().run(tasks);
        // Submission → last partial back: shard queue wait + shard search
        // (the `executor` span of a request trace).
        let executor_time = executor_start.elapsed();

        let mut q = query.to_vec();
        q.sort_unstable();
        q.dedup();

        let mut stats = SearchStats::default();
        let mut pool: Vec<Hit> = Vec::new();
        let mut shard_times = Vec::with_capacity(partials.len());
        // EXPLAIN mode: summarize each shard's counters as a sub-funnel row
        // before the parallel merge folds the per-shard totals together.
        let mut shard_rows: Vec<ShardFunnel> = Vec::new();
        for (shard, (partial, shard_time)) in partials.into_iter().enumerate() {
            if partial.stats.funnel.is_some() {
                shard_rows.push(ShardFunnel::new(shard, &partial.stats, partial.hits.len()));
            }
            stats.merge_parallel(&partial.stats);
            shard_times.push(shard_time);
            pool.extend(partial.hits);
        }
        let merge_start = Instant::now();
        let merge_stage = profile::enter(profile::Stage::Merge);
        let hits = self.merge_partials(&q, pool, deadline, &mut stats);
        drop(merge_stage);
        // The fan-out figures describe fan-out: one shard has none (its
        // merge only re-sorts its own hits), so they stay zero and empty,
        // as for a lone `Koios` search.
        if self.shards.len() > 1 {
            if let Some(f) = stats.funnel_mut() {
                f.shards = shard_rows;
            }
            // Assigned (not merged): each entry is one shard of *this*
            // search.
            stats.shard_times = shard_times;
            stats.executor_time = executor_time;
            stats.merge_time = merge_start.elapsed();
        }
        if let Some(f) = stats.funnel_mut() {
            f.returned = hits.len();
        }
        SearchResult { hits, stats }
    }

    /// Merges the `≤ k·p` partial hits into the global top-k.
    ///
    /// Shards are disjoint, so every set appears at most once. On one
    /// shard, an interval-scored hit (certified by the No-EM filter inside
    /// the shard) keeps its interval when Lemma 7 also holds over the
    /// merged pool: the pool holds at most `k` hits, or the hit's lower
    /// bound reaches the k-th largest upper bound in the pool — the test
    /// post-processing applies inside a shard. Every other interval is
    /// verified exactly, lazily in descending upper-bound order, and
    /// verification stops once the k-th best lower bound beats every
    /// remaining upper bound. Before each verification the deadline is
    /// checked; on expiry the remaining hits keep their intervals and
    /// `timed_out` is set.
    pub(crate) fn merge_partials(
        &self,
        q: &[TokenId],
        mut pool: Vec<Hit>,
        deadline: Option<Instant>,
        stats: &mut SearchStats,
    ) -> Vec<Hit> {
        // Descending UB, ties by set id — both the verification schedule
        // and the final report order. A hit's score can only be at or
        // below its UB, so once k lower bounds strictly beat `pool[i].ub()`
        // the suffix from `i` is out.
        fn rank(a: &Hit, b: &Hit) -> std::cmp::Ordering {
            b.score
                .ub()
                .partial_cmp(&a.score.ub())
                .expect("scores are never NaN")
                .then_with(|| a.set.cmp(&b.set))
        }
        pool.sort_by(rank);

        let k = self.cfg.k;
        // Lemma 7's θub over the merged pool: every set outside the pool
        // scores at most its shard's k-th upper bound, hence at most this,
        // and a pool of at most k hits is the top-k outright. The test
        // needs intervals that do not depend on thread scheduling. One
        // shard fixes its intervals under its own θlb; across p > 1 shards
        // they depend on how the shards' θlb raises interleave, so there
        // the merge resolves them to exact scores and the answer stays
        // deterministic.
        let theta_ub = if self.shards.len() > 1 {
            f64::INFINITY
        } else if pool.len() <= k {
            f64::NEG_INFINITY
        } else {
            pool[k - 1].score.ub()
        };
        // The k best lower bounds so far, ascending (element 0 is the bar
        // an unverified hit must clear).
        let mut best: Vec<f64> = Vec::with_capacity(k + 1);
        let mut resolved: Vec<Hit> = Vec::new();
        let mut merged: Vec<Hit> = Vec::new();
        for (i, hit) in pool.iter().enumerate() {
            if best.len() == k && best[0] > hit.score.ub() {
                // Top-k certain: every remaining UB sits strictly under the
                // k-th best lower bound. Exact UB ties are still verified —
                // a tied hit with a smaller set id must win the final
                // tie-break exactly as it would in an exhaustive merge.
                break;
            }
            let score = match hit.score {
                ScoreBound::Exact(s) => ScoreBound::Exact(s),
                ScoreBound::Range { lb, .. } if lb >= theta_ub => hit.score,
                ScoreBound::Range { .. } => {
                    if deadline.is_some_and(|d| Instant::now() >= d) {
                        // Budget exhausted: no further exact matchings.
                        // Surface the suffix as intervals.
                        stats.timed_out = true;
                        merged.extend_from_slice(&pool[i..]);
                        break;
                    }
                    stats.em_full += 1; // merge-time verification
                    let verify_start = Instant::now();
                    let (outcome, effort) = semantic_overlap_bounded_with_effort(
                        &self.repo,
                        self.sim.as_ref(),
                        self.cfg.alpha,
                        q,
                        hit.set,
                        None,
                    );
                    stats.verify_time += verify_start.elapsed();
                    if let Some(f) = stats.funnel_mut() {
                        f.merge_verifications += 1;
                        f.matrix_cells += effort.matrix_cells;
                        f.support_cells += effort.support_cells;
                    }
                    ScoreBound::Exact(outcome.score())
                }
            };
            resolved.push(Hit {
                set: hit.set,
                score,
            });
            let bar = score.lb();
            let at = best.partition_point(|&b| b < bar);
            best.insert(at, bar);
            if best.len() > k {
                best.remove(0);
            }
        }
        merged.append(&mut resolved);
        merged.sort_by(rank);
        merged.truncate(k);
        merged
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::KoiosConfig;
    use crate::engine::Koios;
    use koios_common::SetId;
    use koios_embed::repository::{Repository, RepositoryBuilder};
    use koios_embed::sim::EqualitySimilarity;

    fn repo() -> Arc<Repository> {
        let mut b = RepositoryBuilder::new();
        for i in 0..40 {
            // Sets with progressively less overlap with {t0, t1, t2, t3}.
            let keep = 4 - (i % 4);
            let mut elems: Vec<String> = (0..keep).map(|j| format!("t{j}")).collect();
            for j in keep..4 {
                elems.push(format!("filler{i}-{j}"));
            }
            b.add_set(&format!("s{i}"), elems);
        }
        Arc::new(b.build())
    }

    fn backend(
        r: &Arc<Repository>,
        cfg: KoiosConfig,
        partitions: usize,
        seed: u64,
    ) -> EngineBackend {
        EngineBackend::new(
            Arc::clone(r),
            Arc::new(EqualitySimilarity),
            cfg,
            partitions,
            seed,
        )
    }

    /// Exact scores everywhere: the No-EM filter is off.
    fn exact_cfg(k: usize) -> KoiosConfig {
        let mut cfg = KoiosConfig::new(k, 0.9);
        cfg.no_em_filter = false;
        cfg
    }

    #[test]
    fn partition_assignment_is_deterministic_and_total() {
        let r = repo();
        let p1 = backend(&r, KoiosConfig::new(3, 0.9), 4, 7);
        let p2 = backend(&r, KoiosConfig::new(3, 0.9), 4, 7);
        assert_eq!(p1.num_partitions(), 4);
        let total: usize = p1.indexes().map(|i| i.total_postings()).sum();
        let total2: usize = p2.indexes().map(|i| i.total_postings()).sum();
        assert_eq!(total, total2);
        assert_eq!(total, 40 * 4);
    }

    #[test]
    fn partitioned_matches_single_engine_scores() {
        let r = repo();
        let q = r.intern_query(["t0", "t1", "t2", "t3"]);
        let single = Koios::new(Arc::clone(&r), Arc::new(EqualitySimilarity), exact_cfg(5));
        let sres = single.search(&q);
        for parts in [1, 2, 3, 8] {
            let pres = backend(&r, exact_cfg(5), parts, 42).search(&q);
            assert_eq!(pres.hits.len(), sres.hits.len());
            // Scores (not necessarily ids — ties) must agree.
            let s_scores: Vec<f64> = sres.hits.iter().map(|h| h.score.exact().unwrap()).collect();
            let p_scores: Vec<f64> = pres.hits.iter().map(|h| h.score.exact().unwrap()).collect();
            for (a, b) in s_scores.iter().zip(&p_scores) {
                assert!(
                    (a - b).abs() < 1e-9,
                    "parts={parts}: {s_scores:?} vs {p_scores:?}"
                );
            }
        }
    }

    #[test]
    fn zero_budget_performs_no_merge_verification() {
        // Regression: merge-time exact verification used to run unbounded
        // `semantic_overlap` calls with no deadline, so an expired request
        // kept burning time after timing out.
        let r = repo();
        let q = r.intern_query(["t0", "t1", "t2", "t3"]);
        let part = backend(
            &r,
            KoiosConfig::new(4, 0.9).with_time_budget(std::time::Duration::ZERO),
            3,
            1,
        );
        let res = part.search(&q);
        assert!(res.stats.timed_out, "expired budget must be reported");
        assert_eq!(res.stats.em_full, 0, "no exact matchings after expiry");
    }

    fn range(set: u32, lb: f64, ub: f64) -> Hit {
        Hit {
            set: SetId(set),
            score: ScoreBound::Range { lb, ub },
        }
    }

    fn exact(set: u32, score: f64) -> Hit {
        Hit {
            set: SetId(set),
            score: ScoreBound::Exact(score),
        }
    }

    #[test]
    fn merge_stops_verifying_once_top_k_is_certain() {
        let r = repo();
        let part = backend(&r, KoiosConfig::new(2, 0.9), 2, 1);
        let q = r.intern_query(["t0", "t1"]);
        let pool = vec![
            exact(0, 2.0),
            exact(1, 1.9),
            // Both UBs sit under the 2nd-best exact score: unreachable.
            range(2, 0.5, 1.5),
            range(3, 0.5, 1.2),
        ];
        let mut stats = SearchStats::default();
        let hits = part.merge_partials(&q, pool, None, &mut stats);
        assert_eq!(stats.em_full, 0, "unreachable hits must not be verified");
        assert_eq!(hits.len(), 2);
        assert!(hits.iter().all(|h| h.score.exact().is_some()));
        assert!(!stats.timed_out);
    }

    #[test]
    fn merge_certifies_an_interval_above_the_pool_kth_ub() {
        // Lemma 7 over the merged pool: set 2's lower bound reaches the
        // 2nd largest upper bound (3.0), so it is a top-2 member whatever
        // its exact score, and no matching runs.
        let r = repo();
        let q = r.intern_query(["t0", "t1", "t2", "t3"]);
        let pool = vec![range(2, 3.0, 4.0), exact(0, 3.0), range(3, 0.5, 2.0)];
        let one = backend(&r, KoiosConfig::new(2, 0.9), 1, 1);
        let mut stats = SearchStats::default();
        let hits = one.merge_partials(&q, pool.clone(), None, &mut stats);
        assert_eq!(stats.em_full, 0);
        assert_eq!(hits, vec![range(2, 3.0, 4.0), exact(0, 3.0)]);

        // Across shards the intervals are resolved exactly, which keeps
        // the answer deterministic: set 2 overlaps the query by 2, and set
        // 3's ub then ties the 2nd best score, so it is verified too.
        let two = backend(&r, KoiosConfig::new(2, 0.9), 2, 1);
        let mut stats = SearchStats::default();
        let hits = two.merge_partials(&q, pool, None, &mut stats);
        assert_eq!(stats.em_full, 2);
        assert_eq!(hits, vec![exact(0, 3.0), exact(2, 2.0)]);
    }

    #[test]
    fn merge_of_a_pool_of_at_most_k_hits_runs_no_matching() {
        let r = repo();
        let part = backend(&r, KoiosConfig::new(3, 0.9), 1, 1);
        let q = r.intern_query(["t0", "t1", "t2", "t3"]);
        let pool = vec![exact(0, 2.0), range(3, 0.5, 3.5), range(2, 1.0, 4.0)];
        let mut stats = SearchStats::default();
        let hits = part.merge_partials(&q, pool, None, &mut stats);
        assert_eq!(stats.em_full, 0);
        assert_eq!(
            hits,
            vec![range(2, 1.0, 4.0), range(3, 0.5, 3.5), exact(0, 2.0)]
        );
    }

    #[test]
    fn merge_verifies_an_interval_tied_with_the_kth_bound() {
        // Sets 0, 4 and 8 all overlap the query by 4. Set 8's interval is
        // not certified (its lb sits under the pool's 2nd ub) and its ub
        // ties the 2nd best score, so it is verified; the exact tie then
        // goes to the smaller ids.
        let r = repo();
        let part = backend(&r, KoiosConfig::new(2, 0.9), 1, 1);
        let q = r.intern_query(["t0", "t1", "t2", "t3"]);
        let pool = vec![range(8, 1.0, 4.0), exact(4, 4.0), exact(0, 4.0)];
        let mut stats = SearchStats::default();
        let hits = part.merge_partials(&q, pool, None, &mut stats);
        assert_eq!(stats.em_full, 1, "the tied interval must be verified");
        assert_eq!(hits, vec![exact(0, 4.0), exact(4, 4.0)]);
    }

    #[test]
    fn merge_verifies_ub_ties_for_deterministic_tie_break() {
        // Regression for the early-termination bound: a Range hit whose UB
        // exactly ties the k-th best exact score must still be verified —
        // if its exact score ties too, the smaller set id wins the final
        // tie-break, exactly as in an exhaustive merge. Sets 1 and 9 both
        // have exact overlap 3 with the query; set 9 hides behind a loose
        // UB of 5 and resolves first.
        let r = repo();
        let part = backend(&r, KoiosConfig::new(1, 0.9), 2, 1);
        let q = r.intern_query(["t0", "t1", "t2", "t3"]);
        let pool = vec![range(9, 1.0, 5.0), range(1, 1.0, 3.0)];
        let mut stats = SearchStats::default();
        let hits = part.merge_partials(&q, pool, None, &mut stats);
        assert_eq!(stats.em_full, 2, "the tied-UB hit must be verified");
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].set, SetId(1), "smaller id wins the exact tie");
        assert_eq!(hits[0].score.exact(), Some(3.0));
    }

    #[test]
    fn merge_with_expired_deadline_keeps_ranges_and_flags_timeout() {
        let r = repo();
        let part = backend(&r, KoiosConfig::new(2, 0.9), 2, 1);
        let q = r.intern_query(["t0", "t1"]);
        // Range hits whose UBs beat every exact score: the merge *wants* to
        // verify them, but the deadline has already passed.
        let pool = vec![range(2, 1.0, 4.0), range(3, 1.0, 3.5), exact(0, 2.0)];
        let expired = Instant::now() - std::time::Duration::from_millis(1);
        let mut stats = SearchStats::default();
        let hits = part.merge_partials(&q, pool, Some(expired), &mut stats);
        assert!(stats.timed_out, "expiry mid-merge must be reported");
        assert_eq!(stats.em_full, 0, "no verification may run after expiry");
        // Partial answer: unverified hits survive with their intervals.
        assert_eq!(hits.len(), 2);
        assert!(hits.iter().all(|h| h.score.exact().is_none()));
    }

    #[test]
    fn search_reports_per_shard_and_merge_times() {
        let r = repo();
        let q = r.intern_query(["t0", "t1", "t2", "t3"]);
        let res = backend(&r, KoiosConfig::new(3, 0.9), 3, 1).search(&q);
        assert_eq!(res.stats.shard_times.len(), 3, "one timing per shard");
        assert!(res.stats.shard_times.iter().all(|&t| t > Duration::ZERO));
        // Each shard's wall time bounds the parallel-max phase timings.
        let slowest = *res.stats.shard_times.iter().max().unwrap();
        assert!(res.stats.refine_time <= slowest);
        // The merge ran (its wall clock was measured, however small).
        assert!(res.stats.merge_time > Duration::ZERO);
    }

    #[test]
    fn shard_engines_are_shared_and_moved_across_threads() {
        // Shard engines are built once and shared by every search and
        // every clone; a backend is `'static` and searches from any thread
        // with the same results.
        let r = repo();
        let q = r.intern_query(["t0", "t1", "t2", "t3"]);
        let part = backend(&r, KoiosConfig::new(5, 0.9), 3, 42);
        let expect = part.search(&q);
        let clone = part.clone();
        assert!(clone
            .shards
            .iter()
            .zip(&part.shards)
            .all(|(a, b)| Arc::ptr_eq(a, b)));
        let qc = q.clone();
        let got = std::thread::spawn(move || clone.search(&qc))
            .join()
            .unwrap();
        assert_eq!(got.hits, expect.hits);
        assert_eq!(got.stats.shard_times.len(), 3);

        // Config siblings share the shard indexes.
        let narrowed = part.with_config(KoiosConfig::new(1, 0.9));
        assert_eq!(narrowed.search(&q).hits.len(), 1);
    }

    #[test]
    fn merged_hits_are_exact_and_sorted() {
        let r = repo();
        let q = r.intern_query(["t0", "t1", "t2", "t3"]);
        let res = backend(&r, exact_cfg(6), 3, 1).search(&q);
        assert!(res.hits.iter().all(|h| h.score.exact().is_some()));
        for w in res.hits.windows(2) {
            assert!(w[0].score.ub() >= w[1].score.ub());
        }
    }
}
