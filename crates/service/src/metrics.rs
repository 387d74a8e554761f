//! Aggregate service metrics: per-rung latency histograms (the source of
//! every served count), the counters no rung can hold, snapshots.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use skysr_graph::EpochGcStats;

use crate::cache::CacheCounters;
use crate::plan::SeedSource;
use crate::telemetry::{Histogram, HistogramSnapshot, Rung, RungSummary};

/// At most this many skyline-size samples are retained; beyond it,
/// reservoir sampling keeps a uniform subset so the size summary stays
/// statistically faithful while memory stays bounded on long-lived
/// services. (Latency needs no reservoir — the log-bucketed
/// [`Histogram`]s summarise every observation exactly.)
const SAMPLE_CAP: usize = 65_536;

#[derive(Debug, Default)]
struct SampleSet {
    /// Skyline size per sampled query.
    samples: Vec<u32>,
    /// Total samples offered (≥ `samples.len()`).
    seen: u64,
    /// SplitMix64 state for reservoir replacement choices.
    rng: u64,
}

impl SampleSet {
    /// Algorithm R: uniform reservoir over everything offered so far.
    fn offer(&mut self, sample: u32) {
        self.seen += 1;
        if self.samples.len() < SAMPLE_CAP {
            self.samples.push(sample);
            return;
        }
        self.rng = self.rng.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        let j = (z ^ (z >> 31)) % self.seen;
        if let Some(slot) = self.samples.get_mut(j as usize) {
            *slot = sample;
        }
    }
}

/// Where one response's time went — recorded split so saturation (queue
/// wait under open-loop overload) never masquerades as service time.
#[derive(Clone, Copy, Debug, Default)]
pub struct LatencyBreakdown {
    /// Submission → dequeue: time spent waiting in the bounded queue.
    pub queue_wait: Duration,
    /// Dequeue → completion: planning, coalesced parking, engine work,
    /// cache fill.
    pub service: Duration,
    /// The engine-execution portion of `service` (search or repair);
    /// `None` when no engine ran for this response (cache hits, coalesced
    /// followers).
    pub engine: Option<Duration>,
}

impl LatencyBreakdown {
    /// End-to-end latency (what callers experience).
    pub fn total(&self) -> Duration {
        self.queue_wait + self.service
    }

    /// A breakdown with everything attributed to service time — for tests
    /// and callers that never queued.
    pub fn service_only(service: Duration) -> LatencyBreakdown {
        LatencyBreakdown { queue_wait: Duration::ZERO, service, engine: None }
    }
}

/// How one successfully answered query was served — picks the [`Rung`]
/// histogram [`MetricsRecorder::record`] files the response under.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Served {
    /// A BSSR search ran; `seeded` records which cached skyline
    /// warm-started it (semantic reuse), if any actually contributed
    /// seeds.
    Search {
        /// The reuse source whose seeds survived into the skyline set
        /// (`None` for a cold search, or when the probe came up dry).
        seeded: Option<SeedSource>,
    },
    /// Answered from the result cache.
    CacheHit,
    /// Answered by joining another request's in-flight computation
    /// (request coalescing).
    Coalesced,
    /// Answered by incrementally repairing a cached skyline from an older
    /// epoch instead of recomputing it (a subset of executed work).
    Repaired {
        /// The repair could not be resolved in place and fell back to a
        /// full warm-seeded re-search.
        fallback: bool,
        /// Cached routes proven untouched without any graph search.
        routes_untouched: usize,
        /// Cached routes whose legs were re-run at the new epoch.
        routes_rescored: usize,
    },
    /// Degraded mode: the request's deadline expired mid-engine, so the
    /// search stopped and returned the mutually non-dominated partial
    /// skyline proven so far. Every returned route is a genuine valid
    /// sequenced route dominated-or-equal by the exact skyline, but the
    /// set may be incomplete. Requests coalesced onto a truncated flight
    /// are also served `Approximate` — the flag must never be laundered
    /// away through sharing.
    Approximate,
}

/// Shared recorder the workers write into.
///
/// Each answered query is recorded once, into the end-to-end latency
/// histogram of its serving [`Rung`]; every count of answered queries
/// (completed, executed, coalesced, seeded, repaired, approximate) is read
/// off those histograms, so the counts agree by construction. Only what no
/// rung can hold is kept beside them: the repair payload, the queue-wait
/// and engine-time split, and the outcomes that answer nothing (failed,
/// stale, rejected, shed). Histograms and counters are atomics (lock-free
/// recording); skyline sizes go into a mutex-guarded, size-capped
/// reservoir (one push per query — negligible next to a BSSR search).
#[derive(Debug, Default)]
pub struct MetricsRecorder {
    failed: AtomicU64,
    stale_served: AtomicU64,
    repair_fallbacks: AtomicU64,
    routes_untouched: AtomicU64,
    routes_rescored: AtomicU64,
    rejected: AtomicU64,
    shed_deadline: AtomicU64,
    queue_wait: Histogram,
    engine: Histogram,
    rungs: [Histogram; 8],
    samples: Mutex<SampleSet>,
}

impl MetricsRecorder {
    /// Records one successfully answered query. `latency` carries the
    /// queue-wait / service / engine split; `served` tells whether a
    /// search actually ran and how the answer was shared.
    pub fn record(&self, latency: LatencyBreakdown, skyline_size: usize, served: Served) {
        self.rungs[Rung::of(served).index()].record(latency.total());
        if let Served::Repaired { fallback, routes_untouched, routes_rescored } = served {
            // Release after the rung sample: a snapshot that sees this
            // fallback (Acquire) also sees its `Repaired` sample, so
            // `repairs()` never goes negative.
            self.repair_fallbacks.fetch_add(u64::from(fallback), Ordering::Release);
            self.routes_untouched.fetch_add(routes_untouched as u64, Ordering::Relaxed);
            self.routes_rescored.fetch_add(routes_rescored as u64, Ordering::Relaxed);
        }
        self.queue_wait.record(latency.queue_wait);
        if let Some(engine) = latency.engine {
            self.engine.record(engine);
        }
        self.samples
            .lock()
            .expect("metrics poisoned")
            .offer(skyline_size.min(u32::MAX as usize) as u32);
    }

    /// Records a query rejected by validation.
    pub fn record_failure(&self) {
        self.failed.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a *stale serve*: a response whose skyline was computed under
    /// a different weight epoch than the request was pinned to.
    ///
    /// The epoch-stamped cache refuses cross-epoch answers by construction,
    /// so this counter staying at zero is the serving layer's staleness
    /// guarantee — CI gates on it. A nonzero value means the invalidation
    /// layer is broken.
    pub fn record_stale_serve(&self) {
        self.stale_served.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a request the admission gate refused outright: its deadline
    /// was judged unmeetable given the current backlog and cost model, so
    /// no work was queued. The request was answered
    /// [`QueryError::Overloaded`](skysr_core::error::QueryError) — neither
    /// `completed` nor `failed` (it was not invalid, just shed).
    pub fn record_rejected(&self) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a request whose deadline expired while it sat in the queue:
    /// it was dropped at dequeue without executing and answered
    /// [`QueryError::Overloaded`](skysr_core::error::QueryError).
    pub fn record_shed_deadline(&self) {
        self.shed_deadline.fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot over everything recorded so far. `wall` is the wall-clock
    /// window the caller observed (used for throughput); `cache` the
    /// cache's counters and `epochs` the weight-epoch history accounting
    /// at the same instant.
    pub fn snapshot(
        &self,
        wall: Duration,
        cache: CacheCounters,
        epochs: EpochGcStats,
    ) -> MetricsSnapshot {
        let repair_fallbacks = self.repair_fallbacks.load(Ordering::Acquire);
        let sizes = self.samples.lock().expect("metrics poisoned").samples.clone();
        MetricsSnapshot {
            failed: self.failed.load(Ordering::Relaxed),
            stale_served: self.stale_served.load(Ordering::Relaxed),
            repair_fallbacks,
            routes_untouched: self.routes_untouched.load(Ordering::Relaxed),
            routes_rescored: self.routes_rescored.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            shed_deadline: self.shed_deadline.load(Ordering::Relaxed),
            wall,
            queue_wait_hist: self.queue_wait.snapshot(),
            engine_hist: self.engine.snapshot(),
            rungs: Rung::ALL
                .iter()
                .map(|&rung| RungSummary { rung, hist: self.rungs[rung.index()].snapshot() })
                .collect(),
            mean_skyline_size: if sizes.is_empty() {
                0.0
            } else {
                sizes.iter().map(|&s| s as f64).sum::<f64>() / sizes.len() as f64
            },
            max_skyline_size: sizes.iter().copied().max().unwrap_or(0) as usize,
            cache,
            epochs,
        }
    }
}

/// Aggregate view of a service's activity over an observation window.
///
/// Counts of answered queries and the end-to-end latency summaries are
/// accessors computed from `rungs` ([`MetricsSnapshot::completed`],
/// [`MetricsSnapshot::latency`], …), so they cannot disagree with the
/// per-rung histograms. `completed() == executed() + ExactHit count +
/// coalesced() + approximate_served()` holds by construction.
#[derive(Clone, Debug)]
pub struct MetricsSnapshot {
    /// Queries rejected by validation.
    pub failed: u64,
    /// Responses served from a cache entry of a *different* weight epoch
    /// than the request was pinned to. Always zero unless the
    /// epoch-invalidation layer is broken — the CI staleness gate asserts
    /// on it.
    pub stale_served: u64,
    /// Repair attempts that had to fall back to a full warm-seeded
    /// re-search. A subset of the `Repaired` rung; `repairs() +
    /// repair_fallbacks` is the total number of repair attempts.
    pub repair_fallbacks: u64,
    /// Cached routes proven untouched by repair's lower-bound tier (no
    /// graph search at all), summed over all repair attempts.
    pub routes_untouched: u64,
    /// Cached routes whose shortest-path legs were re-run at the new
    /// epoch, summed over all repair attempts.
    pub routes_rescored: u64,
    /// Requests the admission gate refused before queueing: deadline
    /// judged unmeetable under the current backlog. Answered
    /// `Overloaded`; counted in neither `completed` nor `failed`.
    pub rejected: u64,
    /// Requests whose deadline expired while queued: dropped at dequeue,
    /// never executed, answered `Overloaded`. Counted in neither
    /// `completed` nor `failed`.
    pub shed_deadline: u64,
    /// Observation window.
    pub wall: Duration,
    /// Submission-to-dequeue wait histogram — the queueing share of
    /// [`MetricsSnapshot::latency`], split out so open-loop saturation
    /// shows honest service time.
    pub queue_wait_hist: HistogramSnapshot,
    /// Engine-execution histogram (search / repair time only; one sample
    /// per response that actually ran an engine).
    pub engine_hist: HistogramSnapshot,
    /// Per-rung end-to-end latency histograms, ladder order (one entry
    /// per [`Rung`], empty histograms included). The source of every
    /// answered-query count.
    pub rungs: Vec<RungSummary>,
    /// Mean number of skyline routes per answer.
    pub mean_skyline_size: f64,
    /// Largest skyline returned.
    pub max_skyline_size: usize,
    /// Result-cache counters at snapshot time.
    pub cache: CacheCounters,
    /// Weight-epoch history / GC accounting at snapshot time (retained
    /// overlays, compactions, rebases).
    pub epochs: EpochGcStats,
}

impl MetricsSnapshot {
    /// Responses served by `rung`.
    pub fn rung_count(&self, rung: Rung) -> u64 {
        self.rungs.iter().filter(|s| s.rung == rung).map(|s| s.hist.count()).sum()
    }

    /// Queries answered successfully (every rung, approximate included).
    pub fn completed(&self) -> u64 {
        self.rungs.iter().map(|s| s.hist.count()).sum()
    }

    /// Queries whose engine run produced an exact answer: repairs (any
    /// tier), warm-started and cold searches.
    pub fn executed(&self) -> u64 {
        [Rung::Repaired, Rung::WarmPrefix, Rung::WarmAncestor, Rung::WarmSuffix, Rung::Cold]
            .into_iter()
            .map(|r| self.rung_count(r))
            .sum()
    }

    /// Queries answered by joining another request's in-flight search
    /// (request coalescing).
    pub fn coalesced(&self) -> u64 {
        self.rung_count(Rung::Coalesced)
    }

    /// Searches warm-started from a cached skyline of `source` (semantic
    /// reuse); a subset of `executed()`.
    pub fn seeded(&self, source: SeedSource) -> u64 {
        self.rung_count(Rung::of(Served::Search { seeded: Some(source) }))
    }

    /// Cached skylines promoted to a newer epoch by incremental repair
    /// (the cheap tiers: untouched / rescored), without a full re-search:
    /// the `Repaired` rung less its fallbacks.
    pub fn repairs(&self) -> u64 {
        self.rung_count(Rung::Repaired).saturating_sub(self.repair_fallbacks)
    }

    /// Responses served in degraded mode: the deadline expired mid-engine
    /// and the partial skyline proven so far was returned flagged
    /// approximate (leaders of truncated flights plus any requests
    /// coalesced onto them). Counted in `completed()` — the caller got a
    /// valid (if incomplete) answer.
    pub fn approximate_served(&self) -> u64 {
        self.rung_count(Rung::Approximate)
    }

    /// End-to-end latency histogram over every response (queueing
    /// included): the merge of the rung histograms.
    pub fn latency(&self) -> HistogramSnapshot {
        let mut all = HistogramSnapshot::default();
        for s in &self.rungs {
            all.merge(&s.hist);
        }
        all
    }

    /// Completed queries per second of the window.
    pub fn throughput_qps(&self) -> f64 {
        if self.wall.as_secs_f64() > 0.0 {
            self.completed() as f64 / self.wall.as_secs_f64()
        } else {
            0.0
        }
    }

    /// Folds `other` into `self` — how a [`crate::shard::Router`] builds
    /// the deployment-wide aggregate out of per-shard snapshots.
    ///
    /// Counters and histograms add exactly (bucket boundaries are fixed,
    /// so histogram merging loses nothing). `wall` is the *longest* of
    /// the two windows — shards serve concurrently, not back-to-back.
    /// `mean_skyline_size` is the completed-weighted combination of two
    /// sampled means. Cache counters sum; the epoch/GC gauges sum except
    /// `retention`, reported as the largest configured ring (each shard
    /// owns its own ring — there is no shared retention to report).
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        let self_weight = self.completed() as f64;
        let other_weight = other.completed() as f64;
        if self_weight + other_weight > 0.0 {
            self.mean_skyline_size = (self.mean_skyline_size * self_weight
                + other.mean_skyline_size * other_weight)
                / (self_weight + other_weight);
        }
        self.max_skyline_size = self.max_skyline_size.max(other.max_skyline_size);

        self.failed += other.failed;
        self.stale_served += other.stale_served;
        self.repair_fallbacks += other.repair_fallbacks;
        self.routes_untouched += other.routes_untouched;
        self.routes_rescored += other.routes_rescored;
        self.rejected += other.rejected;
        self.shed_deadline += other.shed_deadline;

        self.wall = self.wall.max(other.wall);

        self.queue_wait_hist.merge(&other.queue_wait_hist);
        self.engine_hist.merge(&other.engine_hist);
        for (mine, theirs) in self.rungs.iter_mut().zip(&other.rungs) {
            debug_assert_eq!(mine.rung, theirs.rung, "rung summaries are ladder-ordered");
            mine.hist.merge(&theirs.hist);
        }

        self.cache.hits += other.cache.hits;
        self.cache.misses += other.cache.misses;
        self.cache.insertions += other.cache.insertions;
        self.cache.evictions += other.cache.evictions;
        self.cache.invalidations += other.cache.invalidations;
        self.cache.len += other.cache.len;

        self.epochs.retained += other.epochs.retained;
        self.epochs.retained_max += other.epochs.retained_max;
        self.epochs.retention = self.epochs.retention.max(other.epochs.retention);
        self.epochs.compacted += other.epochs.compacted;
        self.epochs.rebases += other.epochs.rebases;
        self.epochs.overlay_len += other.epochs.overlay_len;
    }
}

impl std::fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        fn ms(d: Duration) -> f64 {
            d.as_secs_f64() * 1e3
        }
        let latency = self.latency();
        let (hits, coalesced) = (self.rung_count(Rung::ExactHit), self.coalesced());
        writeln!(f, "queries     {} completed, {} failed", self.completed(), self.failed)?;
        writeln!(
            f,
            "executed    {} searches ({} answers shared: {} cache hits, {} coalesced)",
            self.executed(),
            hits + coalesced,
            hits,
            coalesced
        )?;
        writeln!(
            f,
            "reuse       {} prefix-, {} ancestor-, {} suffix-seeded warm starts",
            self.seeded(SeedSource::Prefix),
            self.seeded(SeedSource::Ancestor),
            self.seeded(SeedSource::Suffix)
        )?;
        writeln!(
            f,
            "throughput  {:.1} queries/s over {:.2} s",
            self.throughput_qps(),
            self.wall.as_secs_f64()
        )?;
        writeln!(
            f,
            "latency     mean {:.3} ms  p50 {:.3} ms  p90 {:.3} ms  p99 {:.3} ms  max {:.3} ms",
            ms(latency.mean()),
            ms(latency.quantile(0.50)),
            ms(latency.quantile(0.90)),
            ms(latency.quantile(0.99)),
            ms(latency.max())
        )?;
        writeln!(
            f,
            "split       queue-wait p50 {:.3} ms  p99 {:.3} ms · engine p50 {:.3} ms  p99 {:.3} \
             ms ({} engine runs)",
            ms(self.queue_wait_hist.quantile(0.50)),
            ms(self.queue_wait_hist.quantile(0.99)),
            ms(self.engine_hist.quantile(0.50)),
            ms(self.engine_hist.quantile(0.99)),
            self.engine_hist.count()
        )?;
        writeln!(
            f,
            "rungs       {:<13} {:>8} {:>10} {:>10} {:>10} {:>10} {:>10}",
            "rung", "count", "p50 ms", "p90 ms", "p99 ms", "p99.9 ms", "max ms"
        )?;
        for r in &self.rungs {
            if r.hist.is_empty() {
                continue;
            }
            writeln!(
                f,
                "            {:<13} {:>8} {:>10.3} {:>10.3} {:>10.3} {:>10.3} {:>10.3}",
                r.rung.label(),
                r.hist.count(),
                ms(r.hist.quantile(0.50)),
                ms(r.hist.quantile(0.90)),
                ms(r.hist.quantile(0.99)),
                ms(r.hist.quantile(0.999)),
                ms(r.hist.max())
            )?;
        }
        writeln!(
            f,
            "cache       {:.1}% hit rate ({} hits / {} misses, {} evictions, {} resident)",
            self.cache.hit_rate() * 100.0,
            self.cache.hits,
            self.cache.misses,
            self.cache.evictions,
            self.cache.len
        )?;
        writeln!(
            f,
            "staleness   {} entries invalidated by epoch change, {} stale serves",
            self.cache.invalidations, self.stale_served
        )?;
        writeln!(
            f,
            "repair      {} skylines repaired in place, {} fell back to re-search ({} routes \
             untouched, {} rescored)",
            self.repairs(),
            self.repair_fallbacks,
            self.routes_untouched,
            self.routes_rescored
        )?;
        writeln!(
            f,
            "overload    {} rejected at admission, {} shed expired in queue, {} served \
             approximate",
            self.rejected,
            self.shed_deadline,
            self.approximate_served()
        )?;
        {
            let e = &self.epochs;
            let cap =
                if e.retention == 0 { "unlimited".to_owned() } else { e.retention.to_string() };
            writeln!(
                f,
                "epochs      {} retained (max {}, cap {}), {} overlays compacted, {} rebases, \
                 {} overlay arcs",
                e.retained, e.retained_max, cap, e.compacted, e.rebases, e.overlay_len
            )?;
        }
        write!(
            f,
            "skylines    {:.2} routes/answer mean, {} max",
            self.mean_skyline_size, self.max_skyline_size
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Asserts a bucketed duration is within the histogram's 1/32 bound
    /// above the exact value.
    fn assert_bucketed(got: Duration, exact: Duration) {
        assert!(got >= exact, "bucketed {got:?} below exact {exact:?}");
        let slack = Duration::from_nanos((exact.as_nanos() as u64 / 32).max(1));
        assert!(got <= exact + slack, "bucketed {got:?} beyond {exact:?} + 1/32");
    }

    fn lat(us: u64) -> LatencyBreakdown {
        LatencyBreakdown::service_only(Duration::from_micros(us))
    }

    #[test]
    fn reservoir_bounds_memory_and_stays_representative() {
        let rec = MetricsRecorder::default();
        // Far beyond the cap, all with the same latency: the reservoir must
        // stay capped and every retained sample must be a real observation.
        for _ in 0..(SAMPLE_CAP as u64 + 10_000) {
            rec.record(lat(5), 1, Served::Search { seeded: None });
        }
        let inner = rec.samples.lock().unwrap();
        assert_eq!(inner.samples.len(), SAMPLE_CAP);
        assert_eq!(inner.seen, SAMPLE_CAP as u64 + 10_000);
        assert!(inner.samples.iter().all(|&s| s == 1));
        drop(inner);
        let snap =
            rec.snapshot(Duration::from_secs(1), CacheCounters::default(), EpochGcStats::default());
        assert_eq!(snap.completed(), SAMPLE_CAP as u64 + 10_000);
        // Histograms summarise *every* sample, not a reservoir subset.
        assert_eq!(snap.latency().count(), SAMPLE_CAP as u64 + 10_000);
        assert_bucketed(snap.latency().quantile(0.50), Duration::from_micros(5));
    }

    #[test]
    fn snapshot_aggregates_counters_and_sizes() {
        let rec = MetricsRecorder::default();
        rec.record(lat(100), 2, Served::Search { seeded: None });
        rec.record(lat(300), 4, Served::CacheHit);
        rec.record(lat(200), 3, Served::Search { seeded: Some(SeedSource::Prefix) });
        rec.record(lat(150), 2, Served::Coalesced);
        rec.record(lat(120), 2, Served::Search { seeded: Some(SeedSource::Ancestor) });
        rec.record(lat(130), 2, Served::Search { seeded: Some(SeedSource::Suffix) });
        rec.record_failure();
        let snap =
            rec.snapshot(Duration::from_secs(2), CacheCounters::default(), EpochGcStats::default());
        assert_eq!(snap.completed(), 6);
        assert_eq!(snap.executed(), 4);
        assert_eq!(snap.coalesced(), 1);
        assert_eq!(snap.seeded(SeedSource::Prefix), 1);
        assert_eq!(snap.seeded(SeedSource::Ancestor), 1);
        assert_eq!(snap.seeded(SeedSource::Suffix), 1);
        assert_eq!(snap.failed, 1);
        assert!((snap.throughput_qps() - 3.0).abs() < 1e-12);
        assert_bucketed(snap.latency().quantile(0.50), Duration::from_micros(130));
        assert_eq!(snap.latency().max(), Duration::from_micros(300), "max is tracked exactly");
        assert!((snap.mean_skyline_size - 2.5).abs() < 1e-12);
        assert_eq!(snap.max_skyline_size, 4);
        // Per-rung histograms partition the responses.
        assert_eq!(snap.rungs.len(), Rung::ALL.len(), "all rungs present");
        assert_eq!(snap.rung_count(Rung::Cold), 1);
        assert_eq!(snap.rung_count(Rung::ExactHit), 1);
        assert_eq!(snap.rung_count(Rung::Coalesced), 1);
        assert_eq!(snap.rung_count(Rung::WarmPrefix), 1);
        assert_eq!(snap.rung_count(Rung::WarmAncestor), 1);
        assert_eq!(snap.rung_count(Rung::WarmSuffix), 1);
        assert_eq!(snap.rung_count(Rung::Repaired), 0);
        // The report renders without panicking and mentions the headline
        // numbers.
        let text = snap.to_string();
        assert!(text.contains("6 completed"), "{text}");
        assert!(text.contains("2 answers shared: 1 cache hits, 1 coalesced"), "{text}");
        assert!(text.contains("1 prefix-, 1 ancestor-, 1 suffix-seeded"), "{text}");
        assert!(text.contains("queries/s"), "{text}");
        assert!(text.contains("0 stale serves"), "{text}");
        assert!(text.contains("split       queue-wait"), "{text}");
        assert!(text.contains("warm_prefix"), "{text}");
        assert!(!text.contains("repaired  "), "empty rungs are omitted: {text}");
    }

    #[test]
    fn latency_breakdown_splits_queue_wait_from_service_time() {
        let rec = MetricsRecorder::default();
        // 1 ms of queueing around 10 µs of work: end-to-end is dominated
        // by the queue, and the split must expose that honestly.
        for _ in 0..100 {
            rec.record(
                LatencyBreakdown {
                    queue_wait: Duration::from_millis(1),
                    service: Duration::from_micros(10),
                    engine: Some(Duration::from_micros(8)),
                },
                1,
                Served::Search { seeded: None },
            );
        }
        let snap =
            rec.snapshot(Duration::from_secs(1), CacheCounters::default(), EpochGcStats::default());
        assert_bucketed(snap.latency().quantile(0.50), Duration::from_micros(1_010));
        assert_bucketed(snap.queue_wait_hist.quantile(0.5), Duration::from_millis(1));
        assert_bucketed(snap.engine_hist.quantile(0.5), Duration::from_micros(8));
        assert_eq!(snap.engine_hist.count(), 100);
        // A cache hit records no engine sample.
        rec.record(lat(5), 1, Served::CacheHit);
        let snap =
            rec.snapshot(Duration::from_secs(1), CacheCounters::default(), EpochGcStats::default());
        assert_eq!(snap.engine_hist.count(), 100);
        assert_eq!(snap.latency().count(), 101);
    }

    #[test]
    fn overload_counters_keep_the_completed_partition_exact() {
        let rec = MetricsRecorder::default();
        rec.record(lat(40), 1, Served::Search { seeded: None });
        rec.record(lat(5), 1, Served::CacheHit);
        rec.record(lat(8), 1, Served::Coalesced);
        rec.record(lat(30), 1, Served::Approximate);
        rec.record(lat(25), 2, Served::Approximate);
        rec.record_rejected();
        rec.record_shed_deadline();
        rec.record_shed_deadline();
        let snap =
            rec.snapshot(Duration::from_secs(1), CacheCounters::default(), EpochGcStats::default());
        // Shed requests never reach `completed` or `failed`; approximate
        // responses complete without counting as exact executions.
        assert_eq!(snap.completed(), 5);
        assert_eq!(snap.failed, 0);
        assert_eq!(snap.executed(), 1);
        assert_eq!(snap.approximate_served(), 2);
        assert_eq!(snap.rejected, 1);
        assert_eq!(snap.shed_deadline, 2);
        let hits = snap.rung_count(Rung::ExactHit);
        assert_eq!(hits, 1);
        assert_eq!(
            snap.completed(),
            snap.executed() + hits + snap.coalesced() + snap.approximate_served()
        );
        let text = snap.to_string();
        // Approximate responses are neither executed searches nor cache
        // hits: the shared-answer split counts the ExactHit rung only.
        assert!(text.contains("2 answers shared: 1 cache hits, 1 coalesced"), "{text}");
        assert!(text.contains("1 rejected at admission"), "{text}");
        assert!(text.contains("2 shed expired in queue"), "{text}");
        assert!(text.contains("2 served approximate"), "{text}");
        assert!(text.contains("approximate"), "{text}");
    }

    #[test]
    fn repair_counts_split_the_repaired_rung() {
        let rec = MetricsRecorder::default();
        let repaired = |fallback, routes_untouched, routes_rescored| Served::Repaired {
            fallback,
            routes_untouched,
            routes_rescored,
        };
        rec.record(lat(20), 3, repaired(false, 2, 1));
        rec.record(lat(25), 2, repaired(false, 0, 2));
        rec.record(lat(90), 2, repaired(true, 0, 0));
        let snap =
            rec.snapshot(Duration::from_secs(1), CacheCounters::default(), EpochGcStats::default());
        assert_eq!(snap.rung_count(Rung::Repaired), 3);
        assert_eq!(snap.executed(), 3, "every repair tier is executed work");
        assert_eq!((snap.repairs(), snap.repair_fallbacks), (2, 1));
        assert_eq!((snap.routes_untouched, snap.routes_rescored), (2, 3));
        assert!(snap.to_string().contains("2 skylines repaired in place, 1 fell back"), "{snap}");
    }

    #[test]
    fn snapshots_taken_while_recording_keep_the_partition_exact() {
        use std::sync::atomic::AtomicBool;
        let rec = MetricsRecorder::default();
        let done = AtomicBool::new(false);
        let outcomes = [
            Served::Search { seeded: None },
            Served::Search { seeded: Some(SeedSource::Prefix) },
            Served::Search { seeded: Some(SeedSource::Ancestor) },
            Served::Search { seeded: Some(SeedSource::Suffix) },
            Served::CacheHit,
            Served::Coalesced,
            Served::Repaired { fallback: false, routes_untouched: 1, routes_rescored: 0 },
            Served::Repaired { fallback: true, routes_untouched: 0, routes_rescored: 1 },
            Served::Approximate,
        ];
        const PER_THREAD: u64 = 20_000;
        let snapshots = std::thread::scope(|s| {
            for t in 0..3u64 {
                let rec = &rec;
                s.spawn(move || {
                    for i in 0..PER_THREAD {
                        let served = outcomes[((i + t) % outcomes.len() as u64) as usize];
                        rec.record(lat(1 + i % 50), 1, served);
                    }
                });
            }
            let reader = s.spawn(|| {
                let mut taken = 0u64;
                while !done.load(Ordering::Relaxed) || taken == 0 {
                    let snap = rec.snapshot(
                        Duration::from_secs(1),
                        CacheCounters::default(),
                        EpochGcStats::default(),
                    );
                    let hits = snap.rung_count(Rung::ExactHit);
                    assert_eq!(
                        snap.completed(),
                        snap.executed() + hits + snap.coalesced() + snap.approximate_served(),
                        "{snap}"
                    );
                    let by_rung: u64 = Rung::ALL.iter().map(|&r| snap.rung_count(r)).sum();
                    assert_eq!(by_rung, snap.completed());
                    assert_eq!(snap.latency().count(), snap.completed());
                    assert!(
                        snap.repair_fallbacks <= snap.rung_count(Rung::Repaired),
                        "a fallback is never visible before its repaired sample"
                    );
                    taken += 1;
                }
                taken
            });
            // Recorders finish first (scope joins them only at its end, so
            // wait for the totals to land before releasing the reader).
            while rec.rungs.iter().map(Histogram::count).sum::<u64>() < 3 * PER_THREAD {
                std::thread::yield_now();
            }
            done.store(true, Ordering::Relaxed);
            reader.join().expect("reader thread")
        });
        assert!(snapshots > 0);
        let snap =
            rec.snapshot(Duration::from_secs(1), CacheCounters::default(), EpochGcStats::default());
        assert_eq!(snap.completed(), 3 * PER_THREAD);
    }

    #[test]
    fn stale_serves_are_counted_and_reported() {
        // The tripwire behind the CI staleness gate: in a healthy service
        // this counter is never bumped; when it is, the snapshot and the
        // rendered report must expose it.
        let rec = MetricsRecorder::default();
        let clean =
            rec.snapshot(Duration::from_secs(1), CacheCounters::default(), EpochGcStats::default());
        assert_eq!(clean.stale_served, 0);
        rec.record_stale_serve();
        rec.record_stale_serve();
        let snap =
            rec.snapshot(Duration::from_secs(1), CacheCounters::default(), EpochGcStats::default());
        assert_eq!(snap.stale_served, 2);
        assert!(snap.to_string().contains("2 stale serves"), "{snap}");
    }
}
