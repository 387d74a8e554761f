//! BSSR — the bulk SkySR algorithm (§5, Algorithm 1) with its four
//! optimisation techniques.
//!
//! BSSR finds all skyline sequenced routes in a single branch-and-bound
//! search: a priority queue `Q_b` of partial routes is repeatedly expanded
//! by the modified Dijkstra algorithm (`mdijkstra`), which discovers the
//! next semantically matching PoIs; completed routes maintain the minimal
//! set `S` whose members define the pruning thresholds (Definition 5.4).
//! Correctness rests on Lemmas 5.1–5.5: a route whose length score reaches
//! the threshold for its (minimum-possible) semantic score can never
//! contribute to the final skyline.
//!
//! The optimisations, each independently toggleable via [`BssrConfig`] for
//! the §7.3 ablations:
//! 1. **NNinit** ([`nninit`]) seeds `S` before the search;
//! 2. the **arranged priority queue** ([`queue`]) dequeues large/cheap
//!    routes first;
//! 3. **possible minimum distances** ([`bounds`]) tighten the lower bound;
//! 4. **on-the-fly caching** ([`cache`]) re-uses modified-Dijkstra results.

pub mod bounds;
pub mod cache;
mod mdijkstra;
pub mod nninit;
pub mod queue;
pub mod repair;
pub mod warm;

use std::time::Instant;

use skysr_graph::DijkstraWorkspace;

pub use bounds::LowerBoundMode;
pub use queue::QueuePolicy;
pub use repair::{RepairOutcome, RepairResult, RepairStats};

use crate::bssr::cache::SearchCache;
use crate::bssr::mdijkstra::{mdijkstra_step, Scratch, StepEnv};
use crate::bssr::queue::RouteQueue;
use crate::context::QueryContext;
use crate::dominance::SkylineSet;
use crate::error::QueryError;
use crate::prepared::PreparedQuery;
use crate::query::SkySrQuery;
use crate::route::{PartialRoute, SkylineRoute};
use crate::stats::{EngineProfile, QueryStats};

/// Which optimisations are active.
///
/// `Hash` because the configuration is part of `skysr-service`'s result
/// cache key: runs under different configurations must not share entries.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct BssrConfig {
    /// Optimisation 1: NNinit initial search (§5.3.1).
    pub use_init_search: bool,
    /// Optimisation 2: route-queue arrangement (§5.3.2).
    pub queue_policy: QueuePolicy,
    /// Optimisation 3: minimum-distance lower bounds (§5.3.3).
    pub lower_bound: LowerBoundMode,
    /// Optimisation 4: on-the-fly caching (§5.3.4).
    pub use_cache: bool,
}

impl Default for BssrConfig {
    fn default() -> BssrConfig {
        BssrConfig {
            use_init_search: true,
            queue_policy: QueuePolicy::Proposed,
            lower_bound: LowerBoundMode::Full,
            use_cache: true,
        }
    }
}

impl BssrConfig {
    /// "BSSR w/o Opt" from Figure 3: the plain branch-and-bound search
    /// with a conventional distance-based queue and no other optimisation.
    pub fn unoptimized() -> BssrConfig {
        BssrConfig {
            use_init_search: false,
            queue_policy: QueuePolicy::DistanceBased,
            lower_bound: LowerBoundMode::Off,
            use_cache: false,
        }
    }
}

/// Warm-start seed material for one run (see [`warm`]).
///
/// All variants preserve exactness: seeds are validated against the target
/// query, rescored under its own positions, and only ever *tighten* the
/// pruning thresholds. Unusable routes are skipped, so foreign material
/// degrades to a cold run.
#[derive(Clone, Copy, Debug, Default)]
pub enum WarmSeeds<'a> {
    /// Cold run.
    #[default]
    None,
    /// A (k−1)-position prefix skyline, or any same-start full-length
    /// skyline (ancestor-category reuse) — routes are completed/validated
    /// by [`warm::seed_prefix_routes`].
    PrefixOrFull(&'a [SkylineRoute]),
    /// A skyline of the ⟨c₂, …, c_k⟩ suffix from the same start, prepended
    /// one leg by [`warm::seed_suffix_routes`].
    Suffix(&'a [SkylineRoute]),
}

/// Receiver for provisional Pareto points during an observed run (anytime
/// streaming). Called once per distinct route, in the order the search
/// proves them; the route is a skyline member at call time, so it is
/// dominated-or-equal by the final exact skyline.
pub type ProgressSink<'s> = &'s mut dyn FnMut(&SkylineRoute);

/// How many queue pops pass between deadline polls during a run with
/// [`Bssr::set_deadline`] armed. See the poll site in
/// [`Bssr::run_prepared_observed`] for the rationale.
pub const DEADLINE_CHECK_EVERY: u32 = 16;

/// Tracks which skyline members an observed run has already reported, so
/// each provisional point reaches the sink exactly once even though the
/// skyline is re-diffed after every step.
#[derive(Default)]
struct Emitter {
    seen_version: u64,
    emitted: Vec<SkylineRoute>,
}

impl Emitter {
    fn flush(&mut self, skyline: &SkylineSet, sink: &mut dyn FnMut(&SkylineRoute)) {
        if skyline.version() == self.seen_version {
            return;
        }
        self.seen_version = skyline.version();
        for route in skyline.routes() {
            if !self.emitted.iter().any(|e| e == route) {
                sink(route);
                self.emitted.push(route.clone());
            }
        }
    }
}

/// Result of one BSSR run.
#[derive(Clone, Debug)]
pub struct BssrResult {
    /// The skyline sequenced routes, sorted by ascending length.
    pub routes: Vec<SkylineRoute>,
    /// Instrumentation for the ablation experiments.
    pub stats: QueryStats,
    /// The run's deadline (see [`Bssr::set_deadline`]) expired before the
    /// search drained its queue: `routes` is the mutually non-dominated
    /// partial skyline proven so far — every member a genuine valid route
    /// dominated-or-equal by the exact skyline — but the set may be
    /// incomplete. Always `false` for runs without a deadline.
    pub truncated: bool,
}

/// Reusable engine state (Dijkstra workspace + modified-Dijkstra buffers)
/// detached from any graph borrow.
///
/// A long-lived worker serving a *dynamic* graph re-pins a fresh snapshot
/// whenever a weight epoch publishes, which means rebuilding its [`Bssr`]
/// (the engine borrows the pinned graph). The workspaces are tens of
/// megabytes on city-scale graphs and already paged in; recycling them
/// through [`Bssr::with_scratch`] / [`Bssr::into_scratch`] makes the
/// rebuild allocation-free.
pub struct BssrScratch {
    ws: DijkstraWorkspace,
    scratch: Scratch,
    profile: EngineProfile,
}

impl BssrScratch {
    /// Scratch sized for graphs with up to `n` vertices (grown on demand if
    /// a larger graph shows up).
    pub fn new(n: usize) -> BssrScratch {
        BssrScratch {
            ws: DijkstraWorkspace::new(n),
            scratch: Scratch::new(n),
            profile: EngineProfile::default(),
        }
    }

    /// Cumulative engine-work profile over every query this scratch has
    /// served — across all the engines that recycled it. The telemetry
    /// layer's "how much raw graph work has this worker done" gauge.
    pub fn profile(&self) -> EngineProfile {
        self.profile
    }
}

impl std::fmt::Debug for BssrScratch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BssrScratch").field("profile", &self.profile).finish_non_exhaustive()
    }
}

/// The BSSR query engine. Holds reusable scratch space, so construct once
/// and run many queries.
pub struct Bssr<'g> {
    ctx: QueryContext<'g>,
    cfg: BssrConfig,
    ws: DijkstraWorkspace,
    scratch: Scratch,
    profile: EngineProfile,
    deadline: Option<Instant>,
}

impl<'g> Bssr<'g> {
    /// Engine with the default (fully optimised) configuration.
    pub fn new(ctx: &QueryContext<'g>) -> Bssr<'g> {
        Bssr::with_config(ctx, BssrConfig::default())
    }

    /// Engine with an explicit configuration (ablations).
    pub fn with_config(ctx: &QueryContext<'g>, cfg: BssrConfig) -> Bssr<'g> {
        let n = ctx.graph.num_vertices();
        Bssr::with_scratch(ctx, cfg, BssrScratch::new(n))
    }

    /// Engine recycling previously allocated scratch (see [`BssrScratch`]).
    pub fn with_scratch(ctx: &QueryContext<'g>, cfg: BssrConfig, scratch: BssrScratch) -> Bssr<'g> {
        let n = ctx.graph.num_vertices();
        let BssrScratch { mut ws, scratch: mut sc, profile } = scratch;
        ws.ensure(n);
        sc.ensure(n);
        Bssr { ctx: *ctx, cfg, ws, scratch: sc, profile, deadline: None }
    }

    /// Releases the engine's scratch for reuse by a successor engine.
    pub fn into_scratch(self) -> BssrScratch {
        BssrScratch { ws: self.ws, scratch: self.scratch, profile: self.profile }
    }

    /// Active configuration.
    pub fn config(&self) -> &BssrConfig {
        &self.cfg
    }

    /// Sets (or clears) the anytime cutoff for subsequent runs.
    ///
    /// With a deadline armed, a run that reaches it mid-search stops
    /// expanding, returns the partial skyline proven so far, and marks the
    /// result [`BssrResult::truncated`] — degraded mode instead of a
    /// timeout. Exactness is unaffected when the search finishes first;
    /// the deadline is re-checked every [`DEADLINE_CHECK_EVERY`] queue
    /// pops, so the overshoot is a bounded handful of expansions. The
    /// setting persists across runs until changed.
    pub fn set_deadline(&mut self, deadline: Option<Instant>) {
        self.deadline = deadline;
    }

    /// Cumulative engine-work profile (carried through the recycled
    /// scratch; see [`BssrScratch::profile`]).
    pub fn profile(&self) -> EngineProfile {
        self.profile
    }

    /// Folds one run's stats into the cumulative profile.
    pub(crate) fn absorb_profile(&mut self, stats: &QueryStats) {
        self.profile.absorb(&stats.profile());
    }

    /// Validates and runs `query`.
    pub fn run(&mut self, query: &SkySrQuery) -> Result<BssrResult, QueryError> {
        let pq = PreparedQuery::prepare(&self.ctx, query)?;
        Ok(self.run_prepared(&pq))
    }

    /// Runs a pre-compiled query (lets callers reuse the preparation across
    /// engines, e.g. when comparing configurations).
    pub fn run_prepared(&mut self, pq: &PreparedQuery) -> BssrResult {
        self.run_prepared_observed(pq, WarmSeeds::None, None)
    }

    /// The full engine: a pre-compiled query, optionally warm-started from
    /// `seeds` and optionally streaming provisional points to `sink`.
    ///
    /// **Warm starts** (semantic cache reuse; see [`warm`]): the result is
    /// score-equivalent to a cold run — seeds only tighten the pruning
    /// thresholds, exactly as NNinit does. Seed routes that do not fit the
    /// query are ignored, so foreign or empty material degrades to a cold
    /// run.
    ///
    /// **Anytime streaming**: `sink` receives each provisional Pareto
    /// point the moment the search proves it. Every emitted route is a
    /// genuine valid sequenced route that was a skyline member when
    /// emitted, so it is dominated-or-equal by some member of the final
    /// exact skyline; each distinct route is emitted at most once (warm
    /// seeds that survive domination included). The sink is flushed at
    /// every point the skyline can grow — after NNinit, after warm
    /// seeding, and after every multi-criteria Dijkstra step — by diffing
    /// the skyline against the routes already emitted (cheap: skylines are
    /// small and [`SkylineSet::version`] gates the diff to actual
    /// insertions).
    pub fn run_prepared_observed(
        &mut self,
        pq: &PreparedQuery,
        seeds: WarmSeeds<'_>,
        mut sink: Option<ProgressSink<'_>>,
    ) -> BssrResult {
        let t0 = Instant::now();
        let mut stats = QueryStats::default();
        let k = pq.len();

        // A position nothing can match ⇒ no sequenced route exists.
        if pq.unmatchable_position().is_some() {
            stats.total_time = t0.elapsed();
            return BssrResult { routes: Vec::new(), stats, truncated: false };
        }

        let ctx = self.ctx;
        let mut skyline = SkylineSet::new();
        let mut emitter = Emitter::default();

        if self.cfg.use_init_search {
            nninit::nninit(&ctx, pq, &mut self.ws, &mut skyline, &mut stats);
        }
        if let Some(sink) = sink.as_deref_mut() {
            emitter.flush(&skyline, sink);
        }

        // Warm start: seed completions of a cached skyline *before* the
        // minimum-distance bounds are computed, so the tightened threshold
        // also shrinks the bound-computation search radius.
        match seeds {
            WarmSeeds::None => {}
            WarmSeeds::PrefixOrFull(routes) => {
                warm::seed_prefix_routes(&ctx, pq, routes, &mut self.ws, &mut skyline, &mut stats);
            }
            WarmSeeds::Suffix(routes) => {
                warm::seed_suffix_routes(&ctx, pq, routes, &mut self.ws, &mut skyline, &mut stats);
            }
        }
        if let Some(sink) = sink.as_deref_mut() {
            emitter.flush(&skyline, sink);
        }

        let bounds = if self.cfg.lower_bound == LowerBoundMode::Off {
            bounds::MinDistBounds::disabled(k)
        } else {
            bounds::MinDistBounds::compute(
                &ctx,
                pq,
                skyline.threshold_zero(),
                self.cfg.lower_bound,
                &mut self.ws,
                &mut stats,
            )
        };

        // Lemma 5.5 is sound for a position iff no other position can match
        // PoIs from the same category trees (see mdijkstra docs).
        let mut lemma55 = vec![true; k];
        for (i, flag) in lemma55.iter_mut().enumerate() {
            for j in 0..k {
                if i != j && pq.positions[i].trees.iter().any(|t| pq.positions[j].trees.contains(t))
                {
                    *flag = false;
                }
            }
        }

        // σ-suffix: the best similarity product positions i..k can still
        // contribute. `1 − sim_acc(R) × sigma_suffix[|R|]` is then the
        // *achievable* minimum semantic of any completion of R — tighter
        // than the paper's `s(R)` whenever a remaining position has no
        // perfect match (best_sim < 1), and every threshold probe below
        // uses it (sound by the Lemma 5.3 argument: no completion can
        // score below the achievable minimum).
        let mut sigma_suffix = vec![1.0f64; k + 1];
        for i in (0..k).rev() {
            sigma_suffix[i] = pq.positions[i].best_sim() * sigma_suffix[i + 1];
        }

        let env = StepEnv {
            ctx: &ctx,
            pq,
            bounds: &bounds,
            lemma55: &lemma55,
            sigma_suffix: &sigma_suffix,
            use_cache: self.cfg.use_cache,
        };
        let mut cache = SearchCache::new();
        let mut queue = RouteQueue::new(self.cfg.queue_policy);

        // Algorithm 1, line 4: search position 1 matches from the start.
        mdijkstra_step(
            &env,
            &mut self.scratch,
            &mut cache,
            &PartialRoute::empty(),
            pq.start,
            &mut queue,
            &mut skyline,
            &mut stats,
            true,
        );
        if let Some(sink) = sink.as_deref_mut() {
            emitter.flush(&skyline, sink);
        }

        // Algorithm 1, lines 5–9. The deadline is polled every
        // `DEADLINE_CHECK_EVERY` pops: `Instant::now` per iteration would
        // be measurable on hit-dominated workloads, and a handful of
        // overshot expansions cannot hurt correctness — the skyline only
        // tightens.
        let mut truncated = false;
        // Start one shy of the period so the very first pop polls: an
        // already-expired deadline must truncate before any expansion.
        let mut pops_since_check = DEADLINE_CHECK_EVERY - 1;
        while let Some(rd) = queue.pop() {
            if let Some(deadline) = self.deadline {
                pops_since_check += 1;
                if pops_since_check >= DEADLINE_CHECK_EVERY {
                    pops_since_check = 0;
                    if Instant::now() >= deadline {
                        truncated = true;
                        break;
                    }
                }
            }
            // Re-check against the (possibly improved) threshold before
            // spending a search on a stale route.
            if rd.length() >= skyline.threshold(env.min_semantic(&rd)) {
                stats.threshold_prunes += 1;
                continue;
            }
            let source = rd.last_poi().expect("queued routes contain at least one PoI");
            mdijkstra_step(
                &env,
                &mut self.scratch,
                &mut cache,
                &rd,
                source,
                &mut queue,
                &mut skyline,
                &mut stats,
                false,
            );
            if let Some(sink) = sink.as_deref_mut() {
                emitter.flush(&skyline, sink);
            }
        }

        stats.total_time = t0.elapsed();
        self.profile.absorb(&stats.profile());
        BssrResult { routes: skyline.into_routes(), stats, truncated }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper_example::PaperExample;
    use skysr_graph::{Cost, VertexId};

    fn expect_paper_skyline(routes: &[SkylineRoute]) {
        assert_eq!(routes.len(), 2, "got {routes:?}");
        // Sorted by length: ⟨p6, p9, p8⟩ (11, 0.5) then ⟨p10, p12, p13⟩ (13, 0).
        assert_eq!(routes[0].pois, vec![VertexId(6), VertexId(9), VertexId(8)]);
        assert_eq!(routes[0].length, Cost::new(11.0));
        assert_eq!(routes[0].semantic, 0.5);
        assert_eq!(routes[1].pois, vec![VertexId(10), VertexId(12), VertexId(13)]);
        assert_eq!(routes[1].length, Cost::new(13.0));
        assert_eq!(routes[1].semantic, 0.0);
    }

    #[test]
    fn default_config_reproduces_table_4_final_state() {
        let ex = PaperExample::new();
        let ctx = ex.context();
        let mut bssr = Bssr::new(&ctx);
        let result = bssr.run(&ex.query()).unwrap();
        expect_paper_skyline(&result.routes);
    }

    #[test]
    fn every_ablation_returns_the_same_skyline() {
        let ex = PaperExample::new();
        let ctx = ex.context();
        let configs = [
            BssrConfig::default(),
            BssrConfig::unoptimized(),
            BssrConfig { use_init_search: false, ..BssrConfig::default() },
            BssrConfig { queue_policy: QueuePolicy::DistanceBased, ..BssrConfig::default() },
            BssrConfig { lower_bound: LowerBoundMode::Off, ..BssrConfig::default() },
            BssrConfig { lower_bound: LowerBoundMode::Semantic, ..BssrConfig::default() },
            BssrConfig { use_cache: false, ..BssrConfig::default() },
        ];
        for cfg in configs {
            let mut bssr = Bssr::with_config(&ctx, cfg);
            let result = bssr.run(&ex.query()).unwrap();
            expect_paper_skyline(&result.routes);
        }
    }

    #[test]
    fn observed_run_streams_each_provisional_point_once_dominated_by_final() {
        let ex = PaperExample::new();
        let ctx = ex.context();
        let mut bssr = Bssr::new(&ctx);
        let mut provisional: Vec<SkylineRoute> = Vec::new();
        let pq = PreparedQuery::prepare(&ctx, &ex.query()).unwrap();
        let result = bssr.run_prepared_observed(
            &pq,
            WarmSeeds::None,
            Some(&mut |r| provisional.push(r.clone())),
        );
        expect_paper_skyline(&result.routes);
        assert!(!provisional.is_empty(), "the search proves points before completion");
        for (i, p) in provisional.iter().enumerate() {
            assert!(!provisional[..i].contains(p), "route streamed twice: {p:?}");
            assert!(
                result
                    .routes
                    .iter()
                    .any(|f| f.length.get() <= p.length.get() && f.semantic <= p.semantic),
                "provisional point not dominated-or-equal by the final skyline: {p:?}"
            );
        }
        // The final members themselves were all streamed on the way.
        for f in &result.routes {
            assert!(provisional.contains(f), "final member never streamed: {f:?}");
        }
        // Observing changes nothing about the answer.
        let unobserved = bssr.run(&ex.query()).unwrap();
        assert_eq!(unobserved.routes, result.routes);
    }

    #[test]
    fn expired_deadline_truncates_to_a_valid_partial_skyline() {
        use std::time::Duration;
        let ex = PaperExample::new();
        let ctx = ex.context();
        // Unoptimized config: no NNinit and no pruning bounds, so the queue
        // is guaranteed non-empty when the deadline is polled.
        let mut bssr = Bssr::with_config(&ctx, BssrConfig::unoptimized());
        let exact = bssr.run(&ex.query()).unwrap();
        assert!(!exact.truncated);

        bssr.set_deadline(Some(Instant::now() - Duration::from_millis(1)));
        let partial = bssr.run(&ex.query()).unwrap();
        assert!(partial.truncated, "expired deadline must truncate the run");
        // Every partial member is a genuine route dominated-or-equal by the
        // exact skyline, and the partial is itself mutually non-dominated.
        for p in &partial.routes {
            assert!(
                exact
                    .routes
                    .iter()
                    .any(|f| f.length.get() <= p.length.get() && f.semantic <= p.semantic),
                "partial route not dominated-or-equal by exact skyline: {p:?}"
            );
            assert!(
                !partial.routes.iter().any(|q| q != p
                    && q.length.get() <= p.length.get()
                    && q.semantic <= p.semantic
                    && (q.length.get() < p.length.get() || q.semantic < p.semantic)),
                "partial skyline contains a dominated member: {p:?}"
            );
        }

        // A generous deadline changes nothing, and clearing it disarms.
        bssr.set_deadline(Some(Instant::now() + Duration::from_secs(60)));
        let relaxed = bssr.run(&ex.query()).unwrap();
        assert!(!relaxed.truncated);
        assert_eq!(relaxed.routes, exact.routes);
        bssr.set_deadline(None);
        let cleared = bssr.run(&ex.query()).unwrap();
        assert!(!cleared.truncated);
        assert_eq!(cleared.routes, exact.routes);
    }

    #[test]
    fn stats_reflect_optimisations() {
        let ex = PaperExample::new();
        let ctx = ex.context();
        let with = Bssr::new(&ctx).run(&ex.query()).unwrap().stats;
        let without =
            Bssr::with_config(&ctx, BssrConfig::unoptimized()).run(&ex.query()).unwrap().stats;
        // The initial search must shrink the first step's search space.
        assert!(with.first_mdijkstra_weight_sum <= without.first_mdijkstra_weight_sum);
        assert_eq!(with.init_routes, 2);
        assert_eq!(without.init_routes, 0);
        // The optimised run prunes routes the plain run must enqueue.
        assert!(with.routes_enqueued <= without.routes_enqueued);
    }

    #[test]
    fn scratch_profile_accumulates_across_recycled_engines() {
        let ex = PaperExample::new();
        let ctx = ex.context();
        let mut engine = Bssr::with_scratch(&ctx, BssrConfig::default(), BssrScratch::new(16));
        let r1 = engine.run(&ex.query()).unwrap();
        let after_one = engine.profile();
        assert_eq!(after_one, r1.stats.profile(), "first run seeds the tally");
        assert!(after_one.settled > 0 && after_one.heap_pushes > 0);
        // Recycle the scratch into a fresh engine: the tally must carry
        // over and keep growing.
        let scratch = engine.into_scratch();
        assert_eq!(scratch.profile(), after_one);
        let mut engine = Bssr::with_scratch(&ctx, BssrConfig::default(), scratch);
        engine.run(&ex.query()).unwrap();
        let after_two = engine.profile();
        assert!(after_two.settled >= after_one.settled * 2);
        assert_eq!(after_two.mdijkstra_runs, after_one.mdijkstra_runs * 2);
    }

    #[test]
    fn single_position_query() {
        let ex = PaperExample::new();
        let ctx = ex.context();
        let gift = ex.forest.by_name("Gift Shop").unwrap();
        let mut bssr = Bssr::new(&ctx);
        let result = bssr.run(&SkySrQuery::new(ex.vq, [gift])).unwrap();
        // Nearest gift shop: p8 via p1/p6–p9 (7 + 3 + 1.5 = 11.5 or
        // 7.5 + 2 + 1.5 = 11). Nearest hobby (sem 0.5): p7 at 12 — longer
        // AND semantically worse → dominated. Skyline = the perfect route.
        assert_eq!(result.routes.len(), 1);
        assert_eq!(result.routes[0].pois, vec![VertexId(8)]);
        assert_eq!(result.routes[0].length, Cost::new(11.0));
        assert_eq!(result.routes[0].semantic, 0.0);
    }

    #[test]
    fn unmatchable_query_returns_empty() {
        let ex = PaperExample::new();
        let ctx = ex.context();
        // Food tree has no PoIs for a query on a fresh forest category? Use
        // a sequence with an A&E position twice: matchable. Instead craft a
        // forest category with no PoIs: "Shop & Service" root itself has
        // PoIs (gift/hobby), so use a new forest-less approach: query a
        // category whose tree has PoIs but an impossible requirement.
        use skysr_category::Requirement;
        let gift = ex.forest.by_name("Gift Shop").unwrap();
        let hobby = ex.forest.by_name("Hobby Shop").unwrap();
        let shop = ex.forest.by_name("Shop & Service").unwrap();
        // Require Shop tree but exclude the whole Shop subtree → matches
        // nothing.
        let req = Requirement::category(gift).but_not(shop);
        let q = SkySrQuery::with_positions(
            ex.vq,
            [crate::query::PositionSpec::Requirement(req), hobby.into()],
        );
        let mut bssr = Bssr::new(&ctx);
        let result = bssr.run(&q).unwrap();
        assert!(result.routes.is_empty());
    }

    #[test]
    fn same_tree_positions_remain_exact() {
        // Both positions draw from the Shop tree: Lemma 5.5 is disabled for
        // them and the result must still be the exact skyline. Query:
        // ⟨Gift, Hobby⟩ from vq.
        let ex = PaperExample::new();
        let ctx = ex.context();
        let gift = ex.forest.by_name("Gift Shop").unwrap();
        let hobby = ex.forest.by_name("Hobby Shop").unwrap();
        let q = SkySrQuery::new(ex.vq, [gift, hobby]);
        let mut bssr = Bssr::new(&ctx);
        let fast = bssr.run(&q).unwrap();
        let slow = Bssr::with_config(&ctx, BssrConfig::unoptimized()).run(&q).unwrap();
        assert_eq!(fast.routes, slow.routes);
        // All returned routes have distinct PoIs.
        for r in &fast.routes {
            let mut pois = r.pois.clone();
            pois.sort_unstable();
            pois.dedup();
            assert_eq!(pois.len(), r.pois.len());
        }
        assert!(!fast.routes.is_empty());
    }

    #[test]
    fn start_on_a_matching_poi() {
        // Start the query on p2 (an Asian restaurant) asking for
        // ⟨Asian, A&E⟩: p2 itself must be usable at distance 0.
        let ex = PaperExample::new();
        let ctx = ex.context();
        let asian = ex.forest.by_name("Asian Restaurant").unwrap();
        let arts = ex.forest.by_name("Arts & Entertainment").unwrap();
        let mut bssr = Bssr::new(&ctx);
        let result = bssr.run(&SkySrQuery::new(ex.p(2), [asian, arts])).unwrap();
        assert!(result.routes.iter().any(|r| r.pois[0] == ex.p(2) && r.length == Cost::new(4.0)));
    }

    /// Prepares `query` and runs it warm-started from `seeds`.
    fn run_seeded(bssr: &mut Bssr<'_>, query: &SkySrQuery, seeds: WarmSeeds<'_>) -> BssrResult {
        let pq = PreparedQuery::prepare(&bssr.ctx, query).unwrap();
        bssr.run_prepared_observed(&pq, seeds, None)
    }

    #[test]
    fn warm_start_from_prefix_skyline_matches_cold_run() {
        use crate::route::equivalent_skylines;
        let ex = PaperExample::new();
        let ctx = ex.context();
        let full = ex.query();
        let mut bssr = Bssr::new(&ctx);
        // Every proper prefix ⟨c1..cj⟩ warm-starts the (j+1)-position
        // query. A given prefix may contribute nothing (NNinit can already
        // dominate all its completions — warm_seed_routes counts only
        // *inserted* seeds), but across the chain at least one must.
        let mut any_seeded = false;
        for j in 1..full.len() {
            let prefix_q = SkySrQuery::with_positions(full.start, full.sequence[..j].to_vec());
            let next_q = SkySrQuery::with_positions(full.start, full.sequence[..=j].to_vec());
            let prefix = bssr.run(&prefix_q).unwrap().routes;
            let cold = bssr.run(&next_q).unwrap();
            let warm = run_seeded(&mut bssr, &next_q, WarmSeeds::PrefixOrFull(&prefix));
            assert!(
                equivalent_skylines(&warm.routes, &cold.routes),
                "prefix len {j}: warm {:?} vs cold {:?}",
                warm.routes,
                cold.routes
            );
            any_seeded |= warm.stats.warm_seed_routes > 0;
            // The seeds can only tighten thresholds: never more enqueued
            // work than the cold run.
            assert!(warm.stats.routes_enqueued <= cold.stats.routes_enqueued);
        }
        assert!(any_seeded, "some prefix must seed surviving routes");
    }

    #[test]
    fn suffix_warm_start_matches_cold_run() {
        use crate::route::equivalent_skylines;
        let ex = PaperExample::new();
        let ctx = ex.context();
        let full = ex.query();
        let mut bssr = Bssr::new(&ctx);
        let suffix_q = SkySrQuery::with_positions(full.start, full.sequence[1..].to_vec());
        let suffix = bssr.run(&suffix_q).unwrap().routes;
        let cold = bssr.run(&full).unwrap();
        let warm = run_seeded(&mut bssr, &full, WarmSeeds::Suffix(&suffix));
        assert!(
            equivalent_skylines(&warm.routes, &cold.routes),
            "suffix warm {:?} vs cold {:?}",
            warm.routes,
            cold.routes
        );
        assert!(warm.stats.routes_enqueued <= cold.stats.routes_enqueued);
        // A foreign suffix (wrong positions entirely) degrades to cold.
        let gift = ex.forest.by_name("Gift Shop").unwrap();
        let foreign = bssr.run(&SkySrQuery::new(ex.vq, [gift])).unwrap().routes;
        let degraded = run_seeded(&mut bssr, &full, WarmSeeds::Suffix(&foreign));
        assert!(equivalent_skylines(&degraded.routes, &cold.routes));
    }

    #[test]
    fn warm_start_with_foreign_prefix_stays_exact() {
        use crate::route::equivalent_skylines;
        let ex = PaperExample::new();
        let ctx = ex.context();
        // A prefix skyline computed for a *different* first position (Gift
        // instead of Hobby) from the same start: its semantic scores are
        // wrong for this query, so the seeder must rescore the routes
        // under the query's own positions — the result must still be the
        // exact skyline.
        let gift = ex.forest.by_name("Gift Shop").unwrap();
        let hobby = ex.forest.by_name("Hobby Shop").unwrap();
        let mut bssr = Bssr::new(&ctx);
        let foreign = bssr.run(&SkySrQuery::new(ex.vq, [gift])).unwrap().routes;
        let q = SkySrQuery::new(ex.vq, [hobby, gift]);
        let cold = bssr.run(&q).unwrap();
        let warm = run_seeded(&mut bssr, &q, WarmSeeds::PrefixOrFull(&foreign));
        assert!(
            equivalent_skylines(&warm.routes, &cold.routes),
            "warm {:?} vs cold {:?}",
            warm.routes,
            cold.routes
        );
    }

    #[test]
    fn queue_policy_affects_visits_not_results() {
        let ex = PaperExample::new();
        let ctx = ex.context();
        let proposed = Bssr::new(&ctx).run(&ex.query()).unwrap();
        let distance = Bssr::with_config(
            &ctx,
            BssrConfig { queue_policy: QueuePolicy::DistanceBased, ..BssrConfig::default() },
        )
        .run(&ex.query())
        .unwrap();
        assert_eq!(proposed.routes, distance.routes);
    }
}
