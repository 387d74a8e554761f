//! Incremental skyline repair + epoch-history GC: the end-to-end serving
//! guarantees.
//!
//! * repaired answers are oracle-exact at their pinned epochs under an
//!   update-heavy open-loop replay (the CI `repair-verify` job in
//!   miniature), with most attempts resolving in place;
//! * a bounded epoch ring stays bounded under churn: after the service
//!   drains, at most K epochs are retained, and the mid-run high-water
//!   mark never exceeds K plus one leased epoch per worker;
//! * a prefix skyline cached one epoch behind still seeds a warm start
//!   when the delta provably does not touch it — and never when it might
//!   (the `ResultCache::peek` stale-prefix fix), with exact answers either
//!   way.

use std::sync::Arc;

use skysr_category::{CategoryForest, CategoryId, ForestBuilder};
use skysr_core::bssr::{Bssr, BssrConfig};
use skysr_core::route::equivalent_skylines;
use skysr_core::{PoiTable, SkySrQuery};
use skysr_data::dataset::{DatasetSpec, Preset};
use skysr_graph::{GraphBuilder, RoadNetwork, VertexId, WeightDelta};
use skysr_service::plan::SeedSource;
use skysr_service::replay::{build_pool, replay_on, ReplaySpec};
use skysr_service::{QueryService, Service, ServiceConfig, ServiceContext};

#[test]
fn update_heavy_repair_replay_verifies_and_repairs_in_place() {
    let dataset = DatasetSpec::preset(Preset::CalSmall).scale(0.08).seed(21).generate();
    let spec = ReplaySpec {
        total: 240,
        distinct: 16,
        workers: 4,
        seq_len: 2,
        qps: 2000.0,
        update_rate: 250.0,
        update_burst: 8,
        update_magnitude: 2.0,
        repair: true,
        verify: true,
        ..ReplaySpec::default()
    };
    let pool = build_pool(&dataset, &spec);
    let ctx = Arc::new(ServiceContext::from_dataset(dataset));
    let report = replay_on(ctx, &pool, &spec);
    assert_eq!(report.metrics.completed(), 240);
    assert_eq!(report.verify_mismatches, Some(0), "repair must be oracle-exact");
    assert_eq!(report.stale_served(), 0);
    assert!(report.epochs_published > 0, "updates must interleave with the stream");
    let m = &report.metrics;
    assert!(m.repairs() > 0, "epoch churn over a warm cache must trigger repairs: {m:?}");
    assert!(
        m.repair_fallbacks < m.repairs(),
        "most repairs resolve in place ({} fallbacks vs {} repairs)",
        m.repair_fallbacks,
        m.repairs()
    );
    assert_eq!(m.cache.invalidations, 0, "repair replaces lazy invalidation entirely");
}

#[test]
fn bounded_retention_soak_keeps_history_within_the_ring() {
    let dataset = DatasetSpec::preset(Preset::CalSmall).scale(0.08).seed(33).generate();
    const K: usize = 6;
    let workers = 4;
    let spec = ReplaySpec {
        total: 400,
        distinct: 16,
        workers,
        seq_len: 2,
        qps: 3000.0,
        update_rate: 400.0,
        update_burst: 8,
        repair: true,
        retention: K,
        ..ReplaySpec::default()
    };
    let pool = build_pool(&dataset, &spec);
    let ctx = Arc::new(ServiceContext::from_dataset(dataset));
    let report = replay_on(Arc::clone(&ctx), &pool, &spec);
    assert!(report.epochs_published as usize > 2 * K, "the soak must overflow the ring");
    let gc = report.epoch_gc;
    assert_eq!(gc.retention, K);
    assert!(gc.retained <= K, "after drain the ring holds at most K epochs: {gc:?}");
    assert!(gc.compacted > 0, "overflowing the ring must compact overlays: {gc:?}");
    // Mid-run, each worker can lease at most one older epoch beyond the
    // ring (it re-pins per job), so the high-water mark is hard-bounded.
    assert!(gc.retained_max <= K + workers, "history exceeded the ring plus worker leases: {gc:?}");
    assert_eq!(report.stale_served(), 0);
}

/// A 40-vertex line city: PoIs near the start, nothing else for miles.
/// Weight updates at the far end provably cannot touch short skylines.
struct LineCity {
    graph: RoadNetwork,
    forest: CategoryForest,
    pois: PoiTable,
    asian: CategoryId,
    gift: CategoryId,
}

fn line_city() -> LineCity {
    let mut fb = ForestBuilder::new();
    let food = fb.add_root("Food");
    let asian = fb.add_child(food, "Asian");
    let shop = fb.add_root("Shop");
    let gift = fb.add_child(shop, "Gift");
    let forest = fb.build();
    let mut gb = GraphBuilder::new();
    let vs: Vec<VertexId> = (0..40).map(|_| gb.add_vertex()).collect();
    for w in vs.windows(2) {
        gb.add_edge(w[0], w[1], 1.0);
    }
    let graph = gb.build();
    let mut pois = PoiTable::new(graph.num_vertices());
    pois.add_poi(vs[1], asian);
    pois.add_poi(vs[2], gift);
    pois.finalize(&forest);
    LineCity { graph, forest, pois, asian, gift }
}

fn exact(ctx: &ServiceContext, q: &SkySrQuery) -> Vec<skysr_core::SkylineRoute> {
    let pinned = ctx.pin();
    let qctx = pinned.query_context();
    Bssr::new(&qctx).run(q).unwrap().routes
}

#[test]
fn untouched_prefix_entries_seed_warm_starts_across_epochs() {
    // Regression for the `ResultCache::peek` stale-prefix fix: before it,
    // a prefix skyline one epoch behind was useless even when the delta
    // could not possibly affect it.
    let city = line_city();
    let ctx = Arc::new(ServiceContext::new(city.graph, city.forest, city.pois));
    // NNinit would independently rediscover this tiny city's routes and
    // mask the seed (only seeds that *survive* into the skyline count),
    // so run the ablated engine: exactness is independent of NNinit.
    let engine = BssrConfig { use_init_search: false, ..BssrConfig::default() };
    let service = Service::new(
        Arc::clone(&ctx),
        ServiceConfig { workers: 1, repair: true, engine, ..ServiceConfig::default() },
    );
    let prefix_q = SkySrQuery::new(VertexId(0), [city.asian]);
    let full_q = SkySrQuery::new(VertexId(0), [city.asian, city.gift]);

    // Cache the prefix skyline at epoch 0 (length 1, nowhere near v38).
    service.submit_query(prefix_q.clone()).wait().unwrap();
    // Reweight the far end of the line: provably untouchable by any route
    // of the prefix skyline's radius.
    ctx.publish_weights(&[WeightDelta::new(VertexId(38), VertexId(39), 5.0)]);

    let full = service.submit_query(full_q.clone()).wait().unwrap();
    assert!(equivalent_skylines(&full.routes, &exact(&ctx, &full_q)), "rescued seed stays exact");
    let m = service.metrics();
    assert_eq!(
        m.seeded(SeedSource::Prefix),
        1,
        "the one-epoch-stale prefix skyline must seed the warm start: {m:?}"
    );
    assert_eq!(m.stale_served, 0);
}

#[test]
fn touched_prefix_entries_are_not_rescued() {
    // Negative control: a delta adjacent to the prefix skyline must veto
    // the rescue (the untouched check is conservative), and the answer is
    // still exact via a cold search.
    let city = line_city();
    let ctx = Arc::new(ServiceContext::new(city.graph, city.forest, city.pois));
    // NNinit would independently rediscover this tiny city's routes and
    // mask the seed (only seeds that *survive* into the skyline count),
    // so run the ablated engine: exactness is independent of NNinit.
    let engine = BssrConfig { use_init_search: false, ..BssrConfig::default() };
    let service = Service::new(
        Arc::clone(&ctx),
        ServiceConfig { workers: 1, repair: true, engine, ..ServiceConfig::default() },
    );
    let prefix_q = SkySrQuery::new(VertexId(0), [city.asian]);
    let full_q = SkySrQuery::new(VertexId(0), [city.asian, city.gift]);

    service.submit_query(prefix_q.clone()).wait().unwrap();
    // Reweight the very first edge: the prefix route runs over it.
    ctx.publish_weights(&[WeightDelta::new(VertexId(0), VertexId(1), 3.0)]);

    let full = service.submit_query(full_q.clone()).wait().unwrap();
    assert!(equivalent_skylines(&full.routes, &exact(&ctx, &full_q)));
    let m = service.metrics();
    assert_eq!(m.seeded(SeedSource::Prefix), 0, "a possibly-touched prefix must not seed: {m:?}");
    assert_eq!(m.stale_served, 0);
}
