//! Multi-tenant shard isolation: regions behind one [`Router`] share
//! nothing, and the router's addressing is deterministic.
//!
//! The headline property: a weight-delta storm on shard A must leave
//! shard B *bit-for-bit undisturbed* — epoch ring unmoved, zero cache
//! invalidations, zero stale serves, every answer still oracle-exact at
//! B's own pinned epoch, and B's cache-hit latency profile within noise.
//! Plus: region-less routing is a pure function of the start vertex
//! (property-tested), and mis-addressed requests die at the front door
//! without touching any shard's counters.

use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;
use skysr_core::bssr::Bssr;
use skysr_core::error::QueryError;
use skysr_core::route::equivalent_skylines;
use skysr_data::dataset::{Dataset, DatasetSpec, Preset};
use skysr_graph::{EpochId, VertexId};
use skysr_service::replay::{build_pool, random_traffic_deltas, replay_sharded, ReplaySpec};
use skysr_service::{
    QueryRequest, QueryService, RegionId, Router, Rung, ServiceConfig, ServiceContext,
    ShardRegistry,
};

use rand::rngs::StdRng;
use rand::SeedableRng;

fn city(seed: u64) -> Dataset {
    DatasetSpec::preset(Preset::CalSmall).scale(0.08).seed(seed).generate()
}

/// A router over `seeds.len()` regions, one CalSmall city per seed.
fn router_over(seeds: &[u64], workers: usize) -> Router {
    let mut registry = ShardRegistry::new();
    for (i, &seed) in seeds.iter().enumerate() {
        let ctx = Arc::new(ServiceContext::from_dataset(city(seed)));
        registry.add(
            format!("region-{i}"),
            ctx,
            ServiceConfig { workers, ..ServiceConfig::default() },
        );
    }
    registry.into_router()
}

#[test]
fn weight_storm_on_shard_a_leaves_shard_b_untouched() {
    let router = router_over(&[21, 22], 2);
    let (a, b) = (RegionId(0), RegionId(1));
    let spec = ReplaySpec { distinct: 12, seq_len: 2, seed: 7, ..ReplaySpec::default() };
    let pool_a = {
        let d = city(21);
        build_pool(&d, &spec)
    };
    let pool_b = {
        let d = city(22);
        build_pool(&d, &spec)
    };
    let shard_b_ctx = Arc::clone(router.context(b).expect("region 1 is registered"));

    // Warm shard B, then record its quiet-time cache-hit latency profile.
    let b_service = router.region_service(b).expect("region 1 is registered");
    let warm: Vec<_> =
        pool_b.iter().map(|q| b_service.submit(QueryRequest::new(q.clone()))).collect();
    for t in warm {
        t.wait().expect("warm-up queries are valid");
    }
    let quiet: Vec<_> =
        pool_b.iter().map(|q| b_service.submit(QueryRequest::new(q.clone()))).collect();
    for t in quiet {
        let r = t.wait().expect("valid");
        assert!(r.cache_hit(), "second pass on a quiet shard must hit");
    }
    let quiet_p99 = {
        let m = router.shard_metrics(b).unwrap();
        m.latency().quantile(0.99)
    };

    // The storm: 40 weight-update waves land on shard A, interleaved with
    // shard-A traffic that crosses the epochs, while shard B keeps serving
    // its (already-cached) pool through the same front door.
    let mut rng = StdRng::seed_from_u64(4242);
    let shard_a_ctx = Arc::clone(router.context(a).expect("region 0 is registered"));
    let a_service = router.region_service(a).expect("region 0 is registered");
    let mut b_responses = Vec::new();
    for _wave in 0..40 {
        let deltas = random_traffic_deltas(shard_a_ctx.graph(), 16, 3.0, &mut rng);
        router.publish_weights_to(a, &deltas).expect("region 0 is registered");
        let a_tickets: Vec<_> =
            pool_a.iter().take(4).map(|q| a_service.submit(QueryRequest::new(q.clone()))).collect();
        let b_tickets: Vec<_> =
            pool_b.iter().map(|q| b_service.submit(QueryRequest::new(q.clone()))).collect();
        for t in a_tickets {
            t.wait().expect("shard-A queries stay valid under updates");
        }
        b_responses.extend(b_tickets.into_iter().map(|t| t.wait().expect("valid")));
    }

    // Shard A took every epoch; shard B's epoch ring never moved.
    assert_eq!(shard_a_ctx.current_epoch(), EpochId(40));
    assert_eq!(shard_b_ctx.current_epoch(), EpochId(0), "the storm leaked into shard B's epochs");

    // Every storm-time shard-B answer is pinned to epoch 0 and
    // oracle-exact against a fresh sequential search there.
    let pinned = shard_b_ctx.pin_at(EpochId(0)).expect("epoch 0 exists");
    let qctx = pinned.query_context();
    for (q, r) in pool_b.iter().cycle().zip(&b_responses) {
        assert_eq!(r.epoch, EpochId(0), "shard B must never observe shard A's epochs");
        let fresh = Bssr::new(&qctx).run(q).unwrap().routes;
        assert!(
            equivalent_skylines(&r.routes, &fresh),
            "shard B diverged from its own oracle during the storm"
        );
    }

    let mb = router.shard_metrics(b).unwrap();
    assert_eq!(mb.stale_served, 0, "staleness gate on the bystander shard");
    assert_eq!(
        mb.cache.invalidations, 0,
        "shard A's epochs must not invalidate shard B's cache entries"
    );
    assert_eq!(mb.failed, 0);
    // Storm-time hits stay within noise of the quiet-time profile. The
    // bound is deliberately generous (shared cores make absolute latency
    // noisy) — the isolation claim it backs is that B's hits stayed
    // *hits*, never re-searches forced by foreign invalidations.
    let storm_hit_count = mb.rung_count(Rung::ExactHit);
    assert!(
        storm_hit_count >= 40 * pool_b.len() as u64,
        "every storm-time shard-B answer must still be a cache hit"
    );
    let storm_p99 = mb.latency().quantile(0.99);
    let bound = (quiet_p99 * 100).max(Duration::from_millis(250));
    assert!(
        storm_p99 <= bound,
        "shard B hit p99 {storm_p99:?} blew past noise bound {bound:?} (quiet p99 {quiet_p99:?})"
    );

    // Shard A itself stayed exact under its own storm.
    let ma = router.shard_metrics(a).unwrap();
    assert_eq!(ma.stale_served, 0);
    assert_eq!(router.misrouted(), 0);
    let _ = router.shutdown();
}

#[test]
fn misaddressed_requests_fail_at_the_front_door() {
    let router = router_over(&[21, 22], 1);
    let spec = ReplaySpec { distinct: 2, seq_len: 2, ..ReplaySpec::default() };
    let pool = {
        let d = city(21);
        build_pool(&d, &spec)
    };

    // An unregistered region is answered UnknownRegion by the router; no
    // shard's queue, cache or failure counter moves.
    let err = router
        .submit(QueryRequest::new(pool[0].clone()).region(RegionId(7)))
        .wait()
        .expect_err("region 7 is not registered");
    assert_eq!(err, QueryError::UnknownRegion(7));
    assert_eq!(router.misrouted(), 1);
    for region in [RegionId(0), RegionId(1)] {
        let m = router.shard_metrics(region).unwrap();
        assert_eq!((m.completed(), m.failed), (0, 0), "misroutes must not touch shard {region}");
    }

    // A shard handed a foreign request directly rejects it itself — the
    // registry stamped its identity, so router and shard cannot disagree.
    let err = router
        .shard(RegionId(0))
        .unwrap()
        .submit(QueryRequest::new(pool[0].clone()).region(RegionId(1)))
        .wait()
        .expect_err("shard 0 must refuse a region-1 request");
    assert_eq!(err, QueryError::UnknownRegion(1));

    // Correctly addressed traffic still flows to both shards.
    for region in [RegionId(0), RegionId(1)] {
        let q = if region == RegionId(0) { pool[0].clone() } else { pool[1].clone() };
        router
            .submit(QueryRequest::new(q).region(region))
            .wait()
            .expect("addressed requests are served");
    }
    let _ = router.shutdown();
}

#[test]
fn sharded_replay_verifies_every_shard_with_zero_misroutes() {
    // The driver the CI shard-verify job runs: per-shard streams and
    // update storms through one router, each shard verified against its
    // own sequential oracle at its own pinned epochs.
    let spec = ReplaySpec {
        total: 160,
        distinct: 16,
        seq_len: 2,
        workers: 2,
        update_every: 40,
        update_burst: 8,
        verify: true,
        ..ReplaySpec::default()
    };
    let datasets = vec![("north".to_owned(), city(21)), ("south".to_owned(), city(22))];
    let report = replay_sharded(datasets, &spec);
    assert_eq!(report.shards.len(), 2);
    assert_eq!(report.misrouted, 0);
    assert!(report.all_ok(), "every shard must verify clean");
    for shard in &report.shards {
        assert_eq!(shard.report.metrics.completed(), 160);
        assert_eq!(shard.report.verify_mismatches, Some(0), "shard {} oracle", shard.name);
        assert_eq!(shard.report.stale_served(), 0);
        assert!(shard.report.epochs_published > 0, "updates must land on shard {}", shard.name);
    }
    assert_eq!(report.total(), 320);
    assert_eq!(report.merged_metrics().completed(), 320);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Region-less routing is a pure function of the start vertex and the
    // registry shape: two identically built routers agree on every
    // start, repeated calls agree with themselves, and the answer is
    // always a registered region.
    #[test]
    fn region_less_routing_is_deterministic(starts in prop::collection::vec(0u32..200_000, 1..32)) {
        // Differently sized graphs make eligibility non-trivial: small
        // starts fit every shard, large ones only some (or none).
        let build = || {
            let mut registry = ShardRegistry::new();
            for (i, (seed, scale)) in [(21u64, 0.05), (22, 0.08), (23, 0.12)].iter().enumerate() {
                let d = DatasetSpec::preset(Preset::CalSmall).scale(*scale).seed(*seed).generate();
                let ctx = Arc::new(ServiceContext::from_dataset(d));
                registry.add(
                    format!("region-{i}"),
                    ctx,
                    ServiceConfig { workers: 1, ..ServiceConfig::default() },
                );
            }
            registry.into_router()
        };
        let first = build();
        let second = build();
        for &start in &starts {
            let chosen = first.route_start(VertexId(start));
            prop_assert!((chosen.0 as usize) < first.len(), "routed outside the registry");
            prop_assert_eq!(chosen, first.route_start(VertexId(start)), "unstable across calls");
            prop_assert_eq!(chosen, second.route_start(VertexId(start)), "unstable across builds");
        }
        let _ = first.shutdown();
        let _ = second.shutdown();
    }
}
