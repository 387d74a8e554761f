//! The four workloads: set-up, the timed closed loop, the answer audit and
//! the traced per-layer pass.
//!
//! Every workload runs on `nyc-small` with |Sq| = 3, on one service with
//! [`WORKERS`] workers. The work of a run is fixed by the seed: the query
//! pool, each client's request order and every weight burst derive from
//! it. The timed phase runs at least its count window (a seed-fixed prefix
//! of every client's stream, over which count metrics are taken) and then
//! keeps going until the time is up.

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use skysr_core::bssr::bounds::MinDistBounds;
use skysr_core::bssr::nninit::nninit;
use skysr_core::bssr::{Bssr, BssrConfig, BssrScratch, LowerBoundMode};
use skysr_core::dominance::SkylineSet;
use skysr_core::route::{equivalent_skylines, SkylineRoute};
use skysr_core::{PreparedQuery, QueryStats, SkySrQuery};
use skysr_data::dataset::{DatasetSpec, Preset};
use skysr_data::workload::WorkloadSpec;
use skysr_data::zipf::Zipf;
use skysr_graph::{DijkstraWorkspace, EpochId, WeightDelta};
use skysr_service::plan::SeedSource;
use skysr_service::replay::random_traffic_deltas;
use skysr_service::{
    MetricsSnapshot, QueryRequest, QueryService, RemoteService, Served, Server, ServerConfig,
    Service, ServiceConfig, ServiceContext, Ticket,
};

use crate::sys;
use crate::trace::{self, Recorder, Span, ROOT};

/// Service worker threads, sized for a 2-core machine.
pub const WORKERS: usize = 2;
/// Full set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;
const SEQ_LEN: usize = 3;

/// `cold-engine`: distinct timed queries (cycled), warm-up queries, and
/// the count window. The warm-up set is the same for every seed (minus any
/// query the timed pool also holds), so its cost does not move `setup_s`
/// from seed to seed.
const COLD_POOL: usize = 4000;
const COLD_WARMUP: usize = 32;
const COLD_WARMUP_SEED: u64 = 0x7761_726d;
const COLD_WINDOW: usize = 300;
/// Queries of the traced engine pass on `cold-engine`.
const ENGINE_PASS: usize = 300;

/// `hot-hits` / `remote-hits`: working set (fits the default 1024-entry
/// cache), Zipf stream length per client, and count windows.
const WORKING_SET: usize = 256;
const HOT_STREAM: usize = 50_000;
const HOT_WINDOW: usize = 20_000;
const REMOTE_WINDOW: usize = 2_000;
/// Requests in flight per `hot-hits` client.
const HOT_OUTSTANDING: usize = 2;
/// Requests the `remote-hits` client keeps in flight on its connection.
const REMOTE_OUTSTANDING: usize = 32;
/// Remote requests sent in set-up, after the connection is made.
const REMOTE_WARMUP: usize = 32;

/// `churn-repair`: cached queries, distinct traffic bursts, arcs per burst
/// and burst magnitude. A round is one publish and one pass over the pool;
/// rounds alternate a traffic burst with the burst that restores the base
/// weights, and the count window is the first two rounds. The pool is the
/// same for every seed (the seed picks the bursts and nothing else): a
/// seed-drawn sample of 600 queries moved the medians by about 20% from seed
/// to seed, and a pool large enough to average that out would take longer
/// to warm up and audit than the timed phase itself.
const CHURN_POOL: usize = 600;
const CHURN_POOL_SEED: u64 = 0x6368_7572_6e70;
const CHURN_BURSTS: usize = 4;
const CHURN_ARCS: usize = 64;
const CHURN_MAGNITUDE: f64 = 2.0;

/// Length of the windows over which CPU per request is taken.
const CPU_WINDOW: Duration = Duration::from_secs(1);

/// Latency samples kept per client: a uniform sample of every request once
/// more are sent. The buffer is written in full up front, so the resident
/// memory it adds does not depend on how many requests a run completes.
const LATENCY_SAMPLES: usize = 1 << 20;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    ColdEngine,
    HotHits,
    ChurnRepair,
    RemoteHits,
}

impl Workload {
    pub const ALL: [Workload; 4] =
        [Workload::ColdEngine, Workload::HotHits, Workload::ChurnRepair, Workload::RemoteHits];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdEngine => "cold-engine",
            Workload::HotHits => "hot-hits",
            Workload::ChurnRepair => "churn-repair",
            Workload::RemoteHits => "remote-hits",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn clients(self) -> usize {
        match self {
            Workload::RemoteHits => 1,
            _ => 2,
        }
    }

    fn config(self) -> ServiceConfig {
        let base = ServiceConfig { workers: WORKERS, ..ServiceConfig::default() };
        match self {
            // Figure 3's setting: every request is a cold engine run.
            Workload::ColdEngine => ServiceConfig {
                cache_capacity: 0,
                coalesce: false,
                prefix_reuse: false,
                ancestor_reuse: false,
                suffix_reuse: false,
                ..base
            },
            Workload::ChurnRepair => ServiceConfig { repair: true, ..base },
            Workload::HotHits | Workload::RemoteHits => base,
        }
    }

    /// Requests each client keeps in flight. `hot-hits` keeps two, so a
    /// worker usually finds the next request queued when it finishes one,
    /// and the guest scheduler's thread placement does not decide the
    /// latency; with one or with eight in flight the median moved by up to
    /// 30% between runs. `remote-hits` keeps 32 on its one connection, so
    /// the server's idle polling does not make up most of its CPU per
    /// request; with one in flight that figure followed hypervisor steal.
    fn outstanding(self) -> usize {
        match self {
            Workload::HotHits => HOT_OUTSTANDING,
            Workload::RemoteHits => REMOTE_OUTSTANDING,
            _ => 1,
        }
    }

    /// Whether answers are audited against a sequential run at their
    /// pinned epoch (the others are compared with their warm-up answers).
    fn audited(self) -> bool {
        matches!(self, Workload::ColdEngine | Workload::ChurnRepair)
    }
}

/// One step of a client's stream.
#[derive(Clone, Copy, Debug)]
enum Step {
    /// Submit the pool query with this index and wait for its answer.
    Query(usize),
    /// Publish one burst of random traffic deltas.
    Publish,
}

/// An answer kept for the audit.
struct Answer {
    idx: usize,
    epoch: EpochId,
    routes: Arc<[SkylineRoute]>,
}

/// A serving stack. Fields drop in declaration order: the connection
/// closes before the server stops, and the server before the service.
struct Stack {
    remote: Option<RemoteService>,
    server: Option<Server>,
    service: Arc<Service>,
    ctx: Arc<ServiceContext>,
    pool: Vec<SkySrQuery>,
    /// Warm-up answers by pool index (hit workloads).
    expected: Vec<Arc<[SkylineRoute]>>,
    /// `churn-repair`: the traffic bursts; see [`churn_bursts`].
    bursts: Vec<Vec<WeightDelta>>,
}

impl Stack {
    fn front(&self) -> &dyn QueryService {
        match &self.remote {
            Some(remote) => remote,
            None => &*self.service,
        }
    }
}

/// Wall times of one set-up.
#[derive(Clone, Copy, Debug)]
pub struct SetupTimes {
    pub total: Duration,
    pub generate: Duration,
    pub build: Duration,
    pub connect: Option<Duration>,
}

fn dataset_spec() -> DatasetSpec {
    DatasetSpec::preset(Preset::NycSmall)
}

fn wait_ok(service: &dyn QueryService, query: &SkySrQuery) -> Arc<[SkylineRoute]> {
    service
        .submit(QueryRequest::new(query.clone()))
        .wait()
        .expect("set-up queries are generated valid")
        .routes
}

fn setup(w: Workload, seed: u64, rec: &mut Option<&mut Recorder>) -> (Stack, SetupTimes) {
    let start = Instant::now();
    let (dataset, generate) =
        trace::timed(rec, ROOT, "data.generate", || dataset_spec().generate());
    let (pool, warmup) = trace::timed(rec, ROOT, "data.workload", || match w {
        Workload::ColdEngine => {
            let pool = WorkloadSpec::new(SEQ_LEN).queries(COLD_POOL).seed(seed).generate(&dataset);
            let mut warm = WorkloadSpec::new(SEQ_LEN)
                .queries(COLD_WARMUP)
                .seed(COLD_WARMUP_SEED)
                .generate(&dataset)
                .queries;
            warm.retain(|q| !pool.queries.contains(q));
            (pool.queries, warm)
        }
        Workload::HotHits | Workload::RemoteHits => {
            let set = WorkloadSpec::new(SEQ_LEN).queries(WORKING_SET).seed(seed);
            (set.generate(&dataset).queries, Vec::new())
        }
        Workload::ChurnRepair => {
            let set = WorkloadSpec::new(SEQ_LEN).queries(CHURN_POOL).seed(CHURN_POOL_SEED);
            (set.generate(&dataset).queries, Vec::new())
        }
    })
    .0;
    let (ctx, build) = trace::timed(rec, ROOT, "context.build", || {
        Arc::new(ServiceContext::from_dataset(dataset))
    });
    let (service, _) = trace::timed(rec, ROOT, "service.spawn", || {
        Arc::new(Service::new(Arc::clone(&ctx), w.config()))
    });
    let (expected, _) = trace::timed(rec, ROOT, "service.warmup", || match w {
        Workload::ColdEngine => {
            for outcome in service.run_queries(&warmup) {
                outcome.expect("warm-up queries are generated valid");
            }
            Vec::new()
        }
        Workload::HotHits | Workload::RemoteHits | Workload::ChurnRepair => service
            .run_queries(&pool)
            .into_iter()
            .map(|r| r.expect("generated queries are valid").routes)
            .collect(),
    });
    let bursts =
        if w == Workload::ChurnRepair { churn_bursts(&ctx, seed) } else { Default::default() };
    let mut stack = Stack { remote: None, server: None, service, ctx, pool, expected, bursts };
    let mut connect = None;
    if w == Workload::RemoteHits {
        let (server, _) = trace::timed(rec, ROOT, "net.spawn", || {
            Server::spawn("127.0.0.1:0", Arc::clone(&stack.service), ServerConfig::default())
                .expect("bind a loopback port")
        });
        let addr = server.local_addr();
        let (remote, took) = trace::timed(rec, ROOT, "net.connect", || {
            RemoteService::connect(addr).expect("connect to the loopback server")
        });
        trace::timed(rec, ROOT, "net.warmup", || {
            for q in stack.pool.iter().cycle().take(REMOTE_WARMUP) {
                wait_ok(&remote, q);
            }
        });
        stack.server = Some(server);
        stack.remote = Some(remote);
        connect = Some(took);
    }
    (stack, SetupTimes { total: start.elapsed(), generate, build, connect })
}

/// The weights published before each churn round: index 0 restores the
/// base weights, index `k >= 1` is the `k`-th seed-fixed traffic burst.
fn churn_bursts(ctx: &ServiceContext, seed: u64) -> Vec<Vec<WeightDelta>> {
    let graph = ctx.graph();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6368_7572_6e00);
    let bursts: Vec<Vec<WeightDelta>> = (0..CHURN_BURSTS)
        .map(|_| random_traffic_deltas(graph, CHURN_ARCS, CHURN_MAGNITUDE, &mut rng))
        .collect();
    let restore = bursts
        .iter()
        .flatten()
        .map(|d| {
            let (_, base) = (graph.neighbors(d.from))
                .find(|&(v, _)| v == d.to)
                .expect("a burst names existing arcs");
            WeightDelta::new(d.from, d.to, base.get())
        })
        .collect();
    std::iter::once(restore).chain(bursts).collect()
}

/// Which weights churn round `round` publishes: bursts 1..=K in turn, each
/// followed by the restore (0).
fn churn_state(round: usize) -> usize {
    if round % 2 == 1 {
        0
    } else {
        (round / 2) % CHURN_BURSTS + 1
    }
}

/// Every client's steps and count window.
fn client_plans(w: Workload, seed: u64, pool_len: usize) -> Vec<(Vec<Step>, usize)> {
    match w {
        Workload::ColdEngine => (0..w.clients())
            .map(|c| {
                let steps = (c..pool_len).step_by(w.clients()).map(Step::Query).collect();
                (steps, COLD_WINDOW / w.clients())
            })
            .collect(),
        Workload::HotHits | Workload::RemoteHits => {
            let window = if w == Workload::HotHits { HOT_WINDOW } else { REMOTE_WINDOW };
            let zipf = Zipf::new(pool_len, 1.0);
            (0..w.clients() as u64)
                .map(|c| {
                    let mut rng = StdRng::seed_from_u64(seed ^ 0x686f_7400 ^ c);
                    let steps = (0..HOT_STREAM).map(|_| Step::Query(zipf.sample(&mut rng)));
                    (steps.collect(), window)
                })
                .collect()
        }
        Workload::ChurnRepair => (0..w.clients())
            .map(|c| {
                let mut steps = vec![Step::Publish];
                steps.extend((c..pool_len).step_by(w.clients()).map(Step::Query));
                let window = 2 * steps.len();
                (steps, window)
            })
            .collect(),
    }
}

/// The serving rungs a response can report, in output order.
pub const RUNGS: [&str; 8] = [
    "exact_hit",
    "coalesced",
    "repaired",
    "warm_prefix",
    "warm_ancestor",
    "warm_suffix",
    "cold",
    "approximate",
];

fn rung_index(served: Served) -> usize {
    match served {
        Served::CacheHit => 0,
        Served::Coalesced => 1,
        Served::Repaired { .. } => 2,
        Served::Search { seeded: Some(SeedSource::Prefix) } => 3,
        Served::Search { seeded: Some(SeedSource::Ancestor) } => 4,
        Served::Search { seeded: Some(SeedSource::Suffix) } => 5,
        Served::Search { seeded: None } => 6,
        Served::Approximate => 7,
    }
}

/// Counts over a client's count window.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WindowCounts {
    pub rungs: [u64; 8],
    pub repair_in_place: u64,
    pub repair_fallback: u64,
}

impl WindowCounts {
    fn add(&mut self, other: &WindowCounts) {
        for (a, b) in self.rungs.iter_mut().zip(other.rungs) {
            *a += b;
        }
        self.repair_in_place += other.repair_in_place;
        self.repair_fallback += other.repair_fallback;
    }
}

/// A fixed-size uniform sample of a stream of latencies (reservoir
/// sampling with a seed-fixed generator).
struct Samples {
    buf: Vec<u32>,
    seen: u64,
    rng: u64,
}

impl Samples {
    fn new(seed: u64) -> Samples {
        Samples { buf: vec![u32::MAX; LATENCY_SAMPLES], seen: 0, rng: seed | 1 }
    }

    fn push(&mut self, d: Duration) {
        let v = u32::try_from(d.as_nanos()).unwrap_or(u32::MAX);
        let slot = if self.seen < LATENCY_SAMPLES as u64 {
            self.seen
        } else {
            // xorshift64: cheap and deterministic.
            self.rng ^= self.rng << 13;
            self.rng ^= self.rng >> 7;
            self.rng ^= self.rng << 17;
            self.rng % (self.seen + 1)
        };
        if let Some(x) = self.buf.get_mut(slot as usize) {
            *x = v;
        }
        self.seen += 1;
    }

    fn into_values(mut self) -> Vec<u64> {
        self.buf.truncate(self.seen.min(LATENCY_SAMPLES as u64) as usize);
        self.buf.into_iter().map(u64::from).collect()
    }
}

/// The first answer per (weights, query) of an audited workload. Later
/// answers to the same pair are compared with it as they arrive; the kept
/// ones are recomputed by the audit after the phase.
#[derive(Default)]
struct Firsts {
    routes: HashMap<(usize, usize), Arc<[SkylineRoute]>>,
    /// Every (pinned epoch, weights) pair answers were served under.
    epochs: BTreeSet<(EpochId, usize)>,
    /// The first epoch that published each weights index.
    state_epoch: BTreeMap<usize, EpochId>,
}

struct ClientLog {
    client: usize,
    requests: u64,
    errors: u64,
    mismatches: u64,
    latency: Samples,
    /// Client round trip minus the server-reported latency (traced only).
    handoff_ns: Vec<u64>,
    /// Server-reported queue wait (traced only).
    queue_wait_ns: Vec<u64>,
    publish_ns: Vec<u64>,
    firsts: Firsts,
    window: WindowCounts,
    spans: Vec<Span>,
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Where clients meet at the end of their count windows, so one metrics
/// snapshot covers exactly the windows.
struct WindowSync<'a> {
    barrier: Barrier,
    service: &'a Service,
    snapshot: Mutex<Option<MetricsSnapshot>>,
    /// Churn rounds: clients meet before each publish, one of them
    /// publishes, and all stop together once the time is up.
    round: Barrier,
    stop: AtomicBool,
}

impl WindowSync<'_> {
    fn arrive(&self) {
        if self.barrier.wait().is_leader() {
            let snap = self.service.metrics();
            *self.snapshot.lock().expect("window snapshot lock poisoned") = Some(snap);
        }
        self.barrier.wait();
    }
}

/// A client's count of completed requests, on a cache line of its own.
#[derive(Default)]
#[repr(align(64))]
struct Completed(AtomicU64);

struct ClientCtx<'a> {
    w: Workload,
    seed: u64,
    stack: &'a Stack,
    sync: &'a WindowSync<'a>,
    completed: &'a [Completed],
    deadline: Instant,
    origin: Instant,
    traced: bool,
}

/// A submitted request whose answer the client has not read yet.
struct Pending {
    step: usize,
    idx: usize,
    state: usize,
    sent: Instant,
    ticket: Ticket,
}

impl ClientLog {
    /// Waits for `p`'s answer and records it.
    fn complete(
        &mut self,
        cx: &ClientCtx<'_>,
        rec: &mut Option<Recorder>,
        p: Pending,
        window: usize,
    ) {
        let outcome = p.ticket.wait();
        let done = Instant::now();
        self.requests += 1;
        cx.completed[self.client].0.fetch_add(1, Ordering::Relaxed);
        self.latency.push(done - p.sent);
        if let Some(rec) = rec.as_mut() {
            let name = if cx.stack.remote.is_some() { "net.request" } else { "service.request" };
            rec.record(ROOT, name, p.sent, done);
        }
        let r = match outcome {
            Ok(r) => r,
            Err(_) => {
                self.errors += 1;
                return;
            }
        };
        if p.step < window {
            self.window.rungs[rung_index(r.served)] += 1;
            if let Served::Repaired { fallback, .. } = r.served {
                if fallback {
                    self.window.repair_fallback += 1;
                } else {
                    self.window.repair_in_place += 1;
                }
            }
        }
        if cx.traced {
            self.handoff_ns.push(nanos((done - p.sent).saturating_sub(r.latency)));
            self.queue_wait_ns.push(nanos(r.queue_wait));
        }
        let ok = if cx.w.audited() {
            self.firsts.epochs.insert((r.epoch, p.state));
            match self.firsts.routes.entry((p.state, p.idx)) {
                Entry::Vacant(v) => {
                    v.insert(r.routes);
                    true
                }
                Entry::Occupied(o) => equivalent_skylines(o.get(), &r.routes),
            }
        } else {
            let want = &cx.stack.expected[p.idx];
            Arc::ptr_eq(&r.routes, want) || r.routes[..] == want[..]
        };
        if !ok {
            self.mismatches += 1;
        }
    }
}

fn drive(cx: &ClientCtx<'_>, index: u64, steps: &[Step], window: usize) -> ClientLog {
    let front = cx.stack.front();
    let depth = cx.w.outstanding();
    let mut rec = cx.traced.then(|| Recorder::new(cx.origin, index + 1));
    let mut log = ClientLog {
        client: index as usize,
        requests: 0,
        errors: 0,
        mismatches: 0,
        latency: Samples::new(cx.seed ^ index),
        handoff_ns: Vec::new(),
        queue_wait_ns: Vec::new(),
        publish_ns: Vec::new(),
        firsts: Firsts::default(),
        window: WindowCounts::default(),
        spans: Vec::new(),
    };
    let mut inflight: VecDeque<Pending> = VecDeque::with_capacity(depth);
    // Index into `stack.bursts` of the weights currently published.
    let mut state = 0;
    log.firsts.state_epoch.insert(0, EpochId::BASE);
    for i in 0.. {
        match steps[i % steps.len()] {
            Step::Publish => {
                while let Some(p) = inflight.pop_front() {
                    log.complete(cx, &mut rec, p, window);
                }
                state = churn_state(i / steps.len());
                if cx.sync.round.wait().is_leader() {
                    let stop = i >= window && Instant::now() >= cx.deadline;
                    cx.sync.stop.store(stop, Ordering::Relaxed);
                    if !stop {
                        let t0 = Instant::now();
                        front.publish_weights(&cx.stack.bursts[state]);
                        let t1 = Instant::now();
                        log.publish_ns.push(nanos(t1 - t0));
                        if let Some(rec) = rec.as_mut() {
                            rec.record(ROOT, "context.publish", t0, t1);
                        }
                    }
                }
                // The barrier orders the leader's store and publish before
                // every client's reads below.
                cx.sync.round.wait();
                if cx.sync.stop.load(Ordering::Relaxed) {
                    break;
                }
                log.firsts.state_epoch.entry(state).or_insert(cx.stack.ctx.current_epoch());
            }
            Step::Query(idx) => {
                let request = QueryRequest::new(cx.stack.pool[idx].clone());
                let sent = Instant::now();
                let ticket = front.submit(request);
                inflight.push_back(Pending { step: i, idx, state, sent, ticket });
                if inflight.len() == depth {
                    let p = inflight.pop_front().expect("a full window");
                    log.complete(cx, &mut rec, p, window);
                }
            }
        }
        let end_of_window = i + 1 == window;
        // Churn clients stop only at a round boundary, together (above).
        let done = cx.stack.bursts.is_empty() && i + 1 >= window && Instant::now() >= cx.deadline;
        if end_of_window || done {
            while let Some(p) = inflight.pop_front() {
                log.complete(cx, &mut rec, p, window);
            }
        }
        if end_of_window {
            cx.sync.arrive();
        }
        if done {
            break;
        }
    }
    log.spans = rec.map(|r| r.spans).unwrap_or_default();
    log
}

/// What one timed phase measured.
pub struct Phase {
    pub wall: Duration,
    /// `VmHWM` when the clients finished.
    pub peak_rss_mb: f64,
    pub cpu_s: f64,
    /// Process CPU seconds per completed request in each whole
    /// [`CPU_WINDOW`] of the phase.
    pub cpu_windows: Vec<f64>,
    pub steal_frac: f64,
    pub requests: u64,
    pub errors: u64,
    pub mismatches: u64,
    pub stale: u64,
    pub latency_ns: Vec<u64>,
    pub handoff_ns: Vec<u64>,
    pub queue_wait_ns: Vec<u64>,
    pub publish_ns: Vec<u64>,
    pub window: WindowCounts,
    /// Service counters over the count window (window end minus phase start).
    pub window_metrics: MetricsSnapshot,
    /// Epoch history at the end of the count window.
    pub window_epochs: skysr_graph::EpochGcStats,
    pub spans: Vec<Span>,
}

impl Phase {
    pub fn throughput(&self) -> f64 {
        self.requests as f64 / self.wall.as_secs_f64()
    }
}

/// Samples process CPU and completed requests until every client has
/// finished, and returns the CPU seconds per request of each whole window.
fn cpu_per_request<T>(
    clients: &[thread::ScopedJoinHandle<'_, T>],
    completed: &[Completed],
) -> Vec<f64> {
    let count = || completed.iter().map(|c| c.0.load(Ordering::Relaxed)).sum::<u64>();
    let mut windows = Vec::new();
    let (mut cpu0, mut n0) = (sys::process_cpu_s(), count());
    let mut next = Instant::now() + CPU_WINDOW;
    while !clients.iter().all(|h| h.is_finished()) {
        thread::sleep(Duration::from_millis(50));
        if Instant::now() < next {
            continue;
        }
        let (cpu, n) = (sys::process_cpu_s(), count());
        if n > n0 {
            windows.push((cpu - cpu0) / (n - n0) as f64);
        }
        (cpu0, n0) = (cpu, n);
        next += CPU_WINDOW;
    }
    windows
}

fn timed_phase(w: Workload, seed: u64, stack: &Stack, seconds: f64, traced: bool) -> Phase {
    let plans = client_plans(w, seed, stack.pool.len());
    let sync = WindowSync {
        barrier: Barrier::new(plans.len()),
        service: &stack.service,
        snapshot: Mutex::new(None),
        round: Barrier::new(plans.len()),
        stop: AtomicBool::new(false),
    };
    let completed: Vec<Completed> = plans.iter().map(|_| Completed::default()).collect();
    let before = stack.service.metrics();
    let origin = Instant::now();
    let cpu0 = sys::process_cpu_s();
    let ticks0 = sys::CpuTicks::now();
    let cx = ClientCtx {
        w,
        seed,
        stack,
        sync: &sync,
        completed: &completed,
        deadline: origin + Duration::from_secs_f64(seconds),
        origin,
        traced,
    };
    let mut cpu_windows = Vec::new();
    let logs: Vec<ClientLog> = thread::scope(|s| {
        let handles: Vec<_> = plans
            .iter()
            .enumerate()
            .map(|(c, (steps, window))| {
                let cx = &cx;
                s.spawn(move || drive(cx, c as u64, steps, *window))
            })
            .collect();
        cpu_windows = cpu_per_request(&handles, &completed);
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let wall = origin.elapsed();
    // Before the benchmark's own post-processing (merging samples, audit).
    let peak_rss_mb = sys::peak_rss_mb();
    let cpu_s = sys::process_cpu_s() - cpu0;
    let steal_frac = sys::CpuTicks::now().steal_since(&ticks0);
    let after = stack.service.metrics();
    let at_window =
        sync.snapshot.into_inner().expect("window snapshot lock poisoned").expect("window reached");

    let mut window_metrics = at_window.clone();
    window_metrics.cache.hits -= before.cache.hits;
    window_metrics.cache.misses -= before.cache.misses;
    window_metrics.cache.insertions -= before.cache.insertions;
    window_metrics.cache.evictions -= before.cache.evictions;
    window_metrics.cache.invalidations -= before.cache.invalidations;

    let mut phase = Phase {
        wall,
        peak_rss_mb,
        cpu_s,
        cpu_windows,
        steal_frac,
        requests: 0,
        errors: 0,
        mismatches: 0,
        stale: after.stale_served - before.stale_served,
        latency_ns: Vec::new(),
        handoff_ns: Vec::new(),
        queue_wait_ns: Vec::new(),
        publish_ns: Vec::new(),
        window: WindowCounts::default(),
        window_epochs: at_window.epochs,
        window_metrics,
        spans: Vec::new(),
    };
    let mut firsts = Vec::new();
    for log in logs {
        phase.requests += log.requests;
        phase.errors += log.errors;
        phase.mismatches += log.mismatches;
        phase.latency_ns.extend(log.latency.into_values());
        phase.handoff_ns.extend(log.handoff_ns);
        phase.queue_wait_ns.extend(log.queue_wait_ns);
        phase.publish_ns.extend(log.publish_ns);
        phase.window.add(&log.window);
        phase.spans.extend(log.spans);
        firsts.push(log.firsts);
    }
    for f in &firsts {
        phase.mismatches += check_epochs(&stack.ctx, f);
    }
    let mut answers: Vec<Answer> = firsts
        .into_iter()
        .flat_map(|f| {
            let at = f.state_epoch;
            f.routes.into_iter().map(move |((state, idx), routes)| Answer {
                idx,
                epoch: at[&state],
                routes,
            })
        })
        .collect();
    if !w.audited() {
        // The expected answers themselves must be exact at epoch 0.
        answers = (stack.expected.iter().enumerate())
            .map(|(idx, routes)| Answer { idx, epoch: EpochId::BASE, routes: Arc::clone(routes) })
            .collect();
    }
    phase.mismatches += audit(&stack.ctx, &stack.pool, &answers);
    phase
}

/// Checks that every epoch an answer was pinned to has exactly the weights
/// its client published for it, so auditing one epoch per weights covers
/// them all. Returns the number of epochs that do not.
fn check_epochs(ctx: &ServiceContext, firsts: &Firsts) -> u64 {
    let same = |state: &usize, epoch: EpochId| {
        let first = firsts.state_epoch[state];
        first == epoch || ctx.delta_between(first, epoch).is_some_and(|d| d.is_empty())
    };
    firsts.epochs.iter().filter(|(epoch, state)| !same(state, *epoch)).count() as u64
}

/// Recomputes every answer with a sequential [`Bssr`] at its pinned epoch
/// and returns the number of answers that are not score-equivalent. Each
/// distinct (epoch, query) pair runs once, on [`WORKERS`] threads.
fn audit(ctx: &ServiceContext, pool: &[SkySrQuery], answers: &[Answer]) -> u64 {
    let key = |a: &Answer| (a.epoch, a.idx);
    let mut keys: Vec<(EpochId, usize)> = answers.iter().map(key).collect();
    keys.sort_unstable();
    keys.dedup();
    let chunk = keys.len().div_ceil(WORKERS).max(1);
    let oracle: HashMap<(EpochId, usize), Option<Vec<SkylineRoute>>> = thread::scope(|s| {
        let handles: Vec<_> = keys
            .chunks(chunk)
            .map(|part| {
                s.spawn(move || {
                    let mut scratch = BssrScratch::new(ctx.graph().num_vertices());
                    let mut out = Vec::with_capacity(part.len());
                    for group in part.chunk_by(|a, b| a.0 == b.0) {
                        let epoch = group[0].0;
                        // An epoch that can no longer be pinned cannot be
                        // audited; its answers count as failures.
                        let Some(pinned) = ctx.pin_at(epoch) else {
                            out.extend(group.iter().map(|&k| (k, None)));
                            continue;
                        };
                        let qctx = pinned.query_context();
                        let mut bssr = Bssr::with_scratch(&qctx, BssrConfig::default(), scratch);
                        for &(e, idx) in group {
                            let routes = bssr.run(&pool[idx]).ok().map(|r| r.routes);
                            out.push(((e, idx), routes));
                        }
                        scratch = bssr.into_scratch();
                    }
                    out
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("audit thread panicked")).collect()
    });
    answers
        .iter()
        .filter(|a| match &oracle[&key(a)] {
            Some(want) => !equivalent_skylines(&a.routes, want),
            None => true,
        })
        .count() as u64
}

/// Per-query timings and counts of the traced engine pass.
#[derive(Default)]
pub struct EnginePass {
    pub prepare_ns: Vec<u64>,
    pub nninit_ns: Vec<u64>,
    pub bounds_ns: Vec<u64>,
    pub run_ns: Vec<u64>,
    /// `run` minus the separately timed NNinit and bounds of the same query.
    pub search_ns: Vec<u64>,
    pub queries: u64,
    pub settled: u64,
    pub relaxed: u64,
    pub heap_pushes: u64,
    pub routes_enqueued: u64,
    pub pruned: u64,
    pub mdijkstra_runs: u64,
    pub mdijkstra_cache_hits: u64,
    pub skyline_routes: u64,
}

/// Runs the engine phases one by one over `queries` at the stack's
/// current epoch, recording a span per call.
fn engine_pass(ctx: &ServiceContext, queries: &[SkySrQuery], rec: &mut Recorder) -> EnginePass {
    let pinned = ctx.pin();
    let qctx = pinned.query_context();
    let mut ws = DijkstraWorkspace::new(qctx.graph.num_vertices());
    let mut bssr = Bssr::with_config(&qctx, BssrConfig::default());
    let mut pass = EnginePass::default();
    for q in queries {
        let id = rec.next_id();
        let t0 = Instant::now();
        let pq = PreparedQuery::prepare(&qctx, q).expect("generated queries are valid");
        let t1 = Instant::now();
        let mut skyline = SkylineSet::new();
        let mut stats = QueryStats::default();
        nninit(&qctx, &pq, &mut ws, &mut skyline, &mut stats);
        let t2 = Instant::now();
        let bounds = MinDistBounds::compute(
            &qctx,
            &pq,
            skyline.threshold_zero(),
            LowerBoundMode::Full,
            &mut ws,
            &mut stats,
        );
        black_box(&bounds);
        let t3 = Instant::now();
        let result = bssr.run_prepared(&pq);
        let t4 = Instant::now();
        for (name, a, b) in [
            ("engine.prepare", t0, t1),
            ("engine.nninit", t1, t2),
            ("engine.bounds", t2, t3),
            ("engine.run", t3, t4),
        ] {
            rec.record(id, name, a, b);
        }
        rec.push(id, ROOT, "engine.query", t0, t4);
        pass.prepare_ns.push(nanos(t1 - t0));
        pass.nninit_ns.push(nanos(t2 - t1));
        pass.bounds_ns.push(nanos(t3 - t2));
        pass.run_ns.push(nanos(t4 - t3));
        pass.search_ns.push(nanos((t4 - t3).saturating_sub(t3 - t1)));
        let p = result.stats.profile();
        pass.queries += 1;
        pass.settled += p.settled;
        pass.relaxed += p.relaxed;
        pass.heap_pushes += p.heap_pushes;
        pass.routes_enqueued += p.routes_enqueued;
        pass.pruned += p.pruned_labels();
        pass.mdijkstra_runs += p.mdijkstra_runs;
        pass.mdijkstra_cache_hits += p.mdijkstra_cache_hits;
        pass.skyline_routes += result.routes.len() as u64;
    }
    pass
}

/// Everything one run measured.
pub struct RunResult {
    pub setups: Vec<SetupTimes>,
    pub phase: Phase,
    /// Traced runs: the traced phase, the engine pass and every span.
    pub traced: Option<(Phase, EnginePass, Vec<Span>)>,
}

impl RunResult {
    pub fn attempted(&self) -> u64 {
        self.phase.requests + self.traced.as_ref().map_or(0, |t| t.0.requests)
    }

    pub fn failed(&self) -> u64 {
        let f = |p: &Phase| p.errors + p.mismatches + p.stale;
        f(&self.phase) + self.traced.as_ref().map_or(0, |t| f(&t.0))
    }
}

/// Runs one workload: [`SETUPS`] set-ups, the untraced timed phase on the
/// last, and, when `traced`, a fresh traced stack with the engine pass and
/// a traced timed phase. A traced run gives each phase half the time.
pub fn run(w: Workload, seed: u64, seconds: f64, traced: bool, setups: usize) -> RunResult {
    let origin = Instant::now();
    let mut rec = Recorder::new(origin, 0);
    let mut times = Vec::with_capacity(setups);
    let mut stack = None;
    for _ in 0..setups.max(1) {
        drop(stack.take());
        let mut r = traced.then_some(&mut rec);
        let (s, t) = setup(w, seed, &mut r);
        times.push(t);
        stack = Some(s);
    }
    let stack = stack.expect("at least one set-up");
    let phase_s = if traced { seconds / 2.0 } else { seconds };
    let phase = timed_phase(w, seed, &stack, phase_s, false);
    drop(stack);

    let traced = traced.then(|| {
        let (stack, t) = setup(w, seed, &mut Some(&mut rec));
        times.push(t);
        let sample = match w {
            Workload::ColdEngine => &stack.pool[..ENGINE_PASS],
            _ => &stack.pool[..],
        };
        let pass = engine_pass(&stack.ctx, sample, &mut rec);
        let mut traced_phase = timed_phase(w, seed, &stack, phase_s, true);
        let mut spans = rec.spans;
        spans.append(&mut traced_phase.spans);
        (traced_phase, pass, spans)
    });
    RunResult { setups: times, phase, traced }
}
