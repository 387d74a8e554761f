//! Overload-resilience guarantees: deadline-aware scheduling, admission
//! control and QoS degradation under sustained 2× overload.
//!
//! Three invariants, each end-to-end through the public service API:
//!
//! * **No wrong answers under overload.** At twice measured capacity with
//!   a tight deadline and admission on, every request either completes
//!   *exactly* (oracle-equivalent at its pinned epoch), is shed with
//!   [`QueryError::Overloaded`] (admission-refused or expired in queue),
//!   or is served as a *valid* approximate partial — every partial route
//!   dominated-or-equal by the exact skyline, the partial itself mutually
//!   non-dominated. The replay driver's `--verify` oracle checks all
//!   three cases; the counters must tile exactly.
//! * **Expired-in-queue work is never executed.** A request whose
//!   deadline has already lapsed is dropped at dequeue: the engine never
//!   runs, `executed` never moves, `shed_deadline` accounts for every one.
//! * **Aging bounds starvation.** A continuous flood of cheap band-0
//!   traffic cannot starve a queued cold search: the scheduler's aging
//!   bound promotes the expensive band's head after `age_limit`, so the
//!   cold answer lands orders of magnitude sooner than the flood ends.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use skysr_core::error::QueryError;
use skysr_data::dataset::{Dataset, DatasetSpec, Preset};
use skysr_service::replay::{build_pool, replay_on, ReplaySpec, StreamPattern};
use skysr_service::{QueryRequest, QueryService, Service, ServiceConfig, ServiceContext};

fn city(seed: u64) -> Dataset {
    DatasetSpec::preset(Preset::CalSmall).scale(0.08).seed(seed).generate()
}

/// A low-reuse churned Zipf stream — wide pool, flat exponent, weight
/// updates in flight — so load genuinely lands on the search rungs and 2×
/// the cold-calibrated capacity overloads the service for real.
fn overload_spec(seed: u64) -> ReplaySpec {
    ReplaySpec {
        total: 192,
        distinct: 96,
        seq_len: 2,
        pattern: StreamPattern::Zipf,
        zipf_exponent: 0.5,
        workers: 4,
        seed,
        repair: true,
        update_rate: 100.0,
        update_burst: 8,
        verify: true,
        ..ReplaySpec::default()
    }
}

#[test]
fn two_x_overload_serves_only_exact_shed_or_valid_approximate() {
    let seed = 33;
    let d = city(seed);
    let base = overload_spec(seed);
    let pool = build_pool(&d, &base);
    let ctx = Arc::new(ServiceContext::from_dataset(d));

    // Uncontended pass at half measured capacity: genuine service-time
    // latencies. The overloaded pass takes the *median* as its deadline —
    // trivially meetable for the cheap rungs, unmeetable for the slower
    // half of the searches once any 2×-capacity backlog builds (and
    // robust against capacity mis-calibration under a noisy scheduler,
    // which a generous multiple of the tail would not be).
    let uncontended = ReplaySpec { overload: 0.5, ..base.clone() };
    let calm = replay_on(Arc::clone(&ctx), &pool, &uncontended);
    assert_eq!(calm.verify_mismatches, Some(0), "uncontended run must be oracle-exact");
    assert_eq!(calm.metrics.completed(), 192, "nothing sheds without a deadline");
    let deadline = calm.metrics.latency().quantile(0.50).max(Duration::from_millis(1));

    let overloaded =
        ReplaySpec { overload: 2.0, admission: true, deadline: Some(deadline), ..base };
    let report = replay_on(ctx, &pool, &overloaded);

    // The oracle audited every produced response: exact answers as
    // score-equivalent skylines, approximate ones as valid partials
    // (dominated-or-equal by the exact skyline, mutually non-dominated).
    assert_eq!(report.verify_mismatches, Some(0), "overload must never produce a wrong answer");
    assert_eq!(report.metrics.stale_served, 0, "degraded is not stale");

    // Accounting tiles exactly: every request completed or was shed, and
    // every completion is attributable to exactly one rung.
    let m = &report.metrics;
    assert_eq!(m.failed, 0, "overload surfaces as Overloaded sheds, not failures");
    assert_eq!(
        m.completed() + m.rejected + m.shed_deadline,
        192,
        "every request completes or sheds: {m:?}"
    );
    assert_eq!(
        m.completed(),
        m.executed() + m.cache.hits + m.coalesced() + m.approximate_served(),
        "served-outcome taxonomy must tile: {m:?}"
    );

    // 2× capacity against a deadline near the uncontended p99 must
    // actually overload: part of the stream sheds (admission or expiry).
    assert!(report.shed() > 0, "2x capacity with a p99-scale deadline must shed: {m:?}");

    // The met-deadline split covers exactly the requests that finished.
    let (met, finished) = report.met_deadline.expect("deadline runs report the split");
    assert_eq!(finished as u64, m.completed());
    assert!(met <= finished);
}

#[test]
fn expired_in_queue_requests_are_never_executed() {
    let d = city(5);
    let spec = ReplaySpec { distinct: 8, seq_len: 2, ..ReplaySpec::default() };
    let pool = build_pool(&d, &spec);
    let ctx = Arc::new(ServiceContext::from_dataset(d));
    let service = Service::new(ctx, ServiceConfig { workers: 2, ..ServiceConfig::default() });

    // A zero deadline has lapsed by the time any worker can dequeue it:
    // the scheduler must drop every one at dequeue, engine untouched.
    let tickets: Vec<_> = (0..32)
        .map(|i| {
            service.submit(QueryRequest::new(pool[i % pool.len()].clone()).deadline(Duration::ZERO))
        })
        .collect();
    for t in tickets {
        match t.wait() {
            Err(QueryError::Overloaded) => {}
            other => panic!("an expired request must shed with Overloaded, got {other:?}"),
        }
    }
    let m = service.metrics();
    assert_eq!(m.executed(), 0, "expired-in-queue work must never reach the engine");
    assert_eq!(m.completed(), 0);
    assert_eq!(m.approximate_served(), 0);
    assert_eq!(m.shed_deadline, 32, "every shed is accounted: {m:?}");

    // The service stays healthy: a deadline-less request still serves.
    let r = service.submit_query(pool[0].clone()).wait().expect("service must stay serviceable");
    assert!(!r.routes.is_empty());
    let m = service.shutdown();
    assert_eq!(m.completed(), 1);
    assert_eq!(m.executed(), 1);
}

#[test]
fn aging_bound_prevents_cold_starvation_under_cheap_flood() {
    let d = city(13);
    let spec = ReplaySpec { distinct: 8, seq_len: 2, ..ReplaySpec::default() };
    let pool = build_pool(&d, &spec);
    let ctx = Arc::new(ServiceContext::from_dataset(d));
    let age_limit = Duration::from_millis(50);
    let service = Arc::new(Service::new(
        ctx,
        ServiceConfig { workers: 1, age_limit, ..ServiceConfig::default() },
    ));

    // Prime the cache so `pool[0]` duplicates classify and serve as hits
    // (band 0); `pool[1]` stays uncached — a band-2 cold search.
    service.submit_query(pool[0].clone()).wait().expect("prime the hit query");

    let flood = Duration::from_millis(1200);
    let stop = Arc::new(AtomicBool::new(false));
    let feeders: Vec<_> = (0..4)
        .map(|_| {
            let service = Arc::clone(&service);
            let stop = Arc::clone(&stop);
            let hit = pool[0].clone();
            std::thread::spawn(move || {
                let t0 = Instant::now();
                let mut tickets = Vec::new();
                // Four submitters against one worker keep band 0 non-empty
                // for the whole flood window.
                while t0.elapsed() < flood && !stop.load(Ordering::Relaxed) {
                    tickets.push(service.submit_query(hit.clone()));
                    if tickets.len() >= 64 {
                        for t in tickets.drain(..) {
                            let _ = t.wait();
                        }
                    }
                }
                for t in tickets {
                    let _ = t.wait();
                }
            })
        })
        .collect();

    // Let the flood build a backlog, then queue the cold search behind it.
    std::thread::sleep(Duration::from_millis(50));
    let submitted = Instant::now();
    let cold = service.submit_query(pool[1].clone());
    let response = cold.wait().expect("the cold search must complete");
    let waited = submitted.elapsed();
    stop.store(true, Ordering::Relaxed);
    for f in feeders {
        f.join().expect("feeder thread");
    }

    assert!(!response.routes.is_empty());
    // Without the aging bound the cold search drains only after the flood
    // stops (≥ 1.15 s from its submission). With it, the band-2 head is
    // promoted after `age_limit`, plus queue-drain and search slack.
    assert!(
        waited < Duration::from_millis(600),
        "cold search starved for {waited:?} under a cheap-traffic flood (age_limit {age_limit:?})"
    );
    let m = service.shutdown();
    assert!(m.cache.hits > 0, "the flood must actually exercise the hit band");
    assert!(m.executed() >= 2, "prime + cold search");
}
