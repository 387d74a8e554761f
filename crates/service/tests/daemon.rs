//! Loopback integration tests of the `skysr-d` daemon: remote replay
//! parity with the oracle under mid-stream weight updates, anytime
//! streaming semantics over the wire, deadline cutoffs, and framing
//! robustness against clients that disconnect mid-frame or speak garbage.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use skysr_data::dataset::{Dataset, DatasetSpec, Preset};
use skysr_service::net::wire::{read_frame, Frame, FEATURE_STREAMING, MAX_FRAME, PROTOCOL_V1};
use skysr_service::replay::{build_pool, replay_remote, ReplaySpec};
use skysr_service::{
    QueryRequest, QueryService, RegionId, RemoteService, Served, Server, ServerConfig, Service,
    ServiceConfig, ServiceContext, ShardRegistry,
};

/// The deterministic city every fixture here is built from — daemon and
/// shadow contexts generated from the same recipe are bit-identical.
fn city() -> Dataset {
    DatasetSpec::preset(Preset::CalSmall).scale(0.08).seed(21).generate()
}

fn spawn_daemon(workers: usize) -> (Arc<Service>, Server) {
    let ctx = Arc::new(ServiceContext::from_dataset(city()));
    let service = Arc::new(Service::new(
        Arc::clone(&ctx),
        ServiceConfig { workers, ..ServiceConfig::default() },
    ));
    let server = Server::spawn("127.0.0.1:0", Arc::clone(&service), ServerConfig::default())
        .expect("bind a loopback listener");
    (service, server)
}

/// `f` is dominated-or-equal by `p` in the (length, semantic) plane.
fn covers(f: &skysr_core::SkylineRoute, p: &skysr_core::SkylineRoute) -> bool {
    f.length.get() <= p.length.get() && f.semantic <= p.semantic
}

#[test]
fn remote_replay_is_oracle_exact_with_midstream_updates() {
    // The acceptance bar: `replay --connect`-style traffic over a real
    // socket, weight updates published through the wire mid-stream, and
    // every answer score-equivalent to a sequential cold run at its
    // pinned epoch — with zero stale serves.
    let (_service, mut server) = spawn_daemon(4);
    let spec = ReplaySpec {
        total: 240,
        distinct: 24,
        seq_len: 2,
        workers: 4,
        update_every: 40,
        update_burst: 8,
        verify: true,
        ..ReplaySpec::default()
    };
    let dataset = city();
    let pool = build_pool(&dataset, &spec);
    let shadow = Arc::new(ServiceContext::from_dataset(dataset));
    let remote =
        RemoteService::connect(server.local_addr()).expect("connect to the loopback daemon");
    let report = replay_remote(&remote, shadow, &pool, &spec).expect("fingerprints match");
    assert_eq!(report.metrics.completed(), 240);
    assert_eq!(report.verify_mismatches, Some(0), "remote answers must be oracle-exact");
    assert_eq!(report.verify_skipped, Some(0), "unbounded shadow history skips nothing");
    assert_eq!(report.metrics.stale_served, 0, "no answer served cross-epoch");
    assert!(report.epochs_published >= 5, "update waves must publish through the wire");
    let farewell = remote.shutdown();
    server.join();
    assert_eq!(farewell.completed(), 240);
}

#[test]
fn loopback_streaming_provisionals_are_dominated_by_final() {
    let (_service, mut server) = spawn_daemon(2);
    let remote =
        RemoteService::connect(server.local_addr()).expect("connect to the loopback daemon");
    let dataset = city();
    let spec = ReplaySpec { distinct: 12, seq_len: 2, ..ReplaySpec::default() };
    let pool = build_pool(&dataset, &spec);
    let mut streamed_any = false;
    for q in &pool {
        let (response, provisional) = remote
            .submit_streaming(QueryRequest::new(q.clone()))
            .wait_with_progress()
            .expect("pool queries succeed");
        // Anytime soundness over the wire: every provisional point is a
        // genuine route dominated-or-equal by the final exact skyline.
        for p in &provisional {
            assert!(
                response.routes.iter().any(|f| covers(f, p)),
                "provisional point not dominated-or-equal by the final skyline: {p:?}"
            );
        }
        // A search streams every final member on the way (cache hits and
        // coalesced answers legitimately stream nothing).
        if matches!(response.served, Served::Search { .. }) {
            for f in response.routes.iter() {
                assert!(provisional.contains(f), "final member never streamed: {f:?}");
            }
            if !response.routes.is_empty() {
                streamed_any = true;
            }
        }
    }
    assert!(streamed_any, "a fresh daemon must cold-search and stream at least one query");
    let _ = remote.shutdown();
    server.join();
}

/// Checks that `partial` is a valid anytime answer for a query whose exact
/// skyline is `exact`: mutually non-dominated, and every member
/// dominated-or-equal by some exact member.
fn assert_valid_partial(partial: &[skysr_core::SkylineRoute], exact: &[skysr_core::SkylineRoute]) {
    for (i, a) in partial.iter().enumerate() {
        for b in &partial[i + 1..] {
            assert!(
                !(covers(a, b) && (a.length != b.length || a.semantic != b.semantic)),
                "partial skyline contains a dominated member"
            );
        }
    }
    for p in partial {
        assert!(
            exact.iter().any(|f| covers(f, p)),
            "approximate member not covered by the exact skyline: {p:?}"
        );
    }
}

#[test]
fn deadline_cutoff_yields_valid_approximate_partials() {
    // Cache and coalescing off: every request is a cold search that
    // streams its provisional points, so the partials checked here come
    // from real search progress rather than from requests shed unserved.
    let ctx = Arc::new(ServiceContext::from_dataset(city()));
    let service = Arc::new(Service::new(
        ctx,
        ServiceConfig {
            workers: 2,
            cache_capacity: 0,
            coalesce: false,
            ..ServiceConfig::default()
        },
    ));
    let mut server = Server::spawn("127.0.0.1:0", service, ServerConfig::default())
        .expect("bind a loopback listener");
    let remote =
        RemoteService::connect(server.local_addr()).expect("connect to the loopback daemon");
    let spec = ReplaySpec { distinct: 16, seq_len: 2, ..ReplaySpec::default() };
    let pool = build_pool(&city(), &spec);
    let mut non_empty_partials = 0;
    for (i, q) in pool.iter().enumerate() {
        // Whatever a client cutoff could return is the fold of some prefix
        // of the provisional stream; check every such prefix.
        let (exact, provisional) = remote
            .submit_streaming(QueryRequest::new(q.clone()))
            .wait_with_progress()
            .expect("pool queries succeed");
        let mut folded = skysr_core::dominance::SkylineSet::new();
        for p in &provisional {
            folded.update(p.clone());
            let partial = folded.clone().into_routes();
            assert_valid_partial(&partial, &exact.routes);
            non_empty_partials += 1;
        }
        // A real client cutoff races the search: both outcomes are legal,
        // and each is checked.
        let cutoff = Duration::from_micros([0, 50, 200, 1_000][i % 4]);
        let anytime = remote
            .submit_streaming(QueryRequest::new(q.clone()))
            .wait_deadline(cutoff)
            .expect("pool queries succeed");
        if anytime.approximate {
            assert!(anytime.response.is_none(), "a cutoff carries no final metadata");
            assert_valid_partial(&anytime.routes, &exact.routes);
            non_empty_partials += usize::from(!anytime.routes.is_empty());
        } else {
            assert!(anytime.response.is_some(), "an uncut stream carries the full response");
            assert!(
                skysr_core::route::equivalent_skylines(&anytime.routes, &exact.routes),
                "an uncut answer is the exact skyline"
            );
        }
    }
    assert!(non_empty_partials > 0, "the searches must stream at least one provisional point");
    let _ = remote.shutdown();
    server.join();
}

#[test]
fn v1_client_is_served_unchanged_by_a_v2_multi_shard_daemon() {
    // Backward compatibility across the protocol bump: a daemon serving
    // two regions behind a router still answers a protocol-1 client
    // exactly as the old single-shard daemon did — a version-1 Welcome
    // with no registry bytes, region-less submits served by the default
    // shard — while a v2 client on the same socket sees the full
    // registry and can address either region.
    let mut registry = ShardRegistry::new();
    for (i, seed) in [21u64, 22].into_iter().enumerate() {
        let d = DatasetSpec::preset(Preset::CalSmall).scale(0.08).seed(seed).generate();
        let ctx = Arc::new(ServiceContext::from_dataset(d));
        registry.add(
            format!("region-{i}"),
            ctx,
            ServiceConfig { workers: 2, ..ServiceConfig::default() },
        );
    }
    let router = Arc::new(registry.into_router());
    let mut server = Server::spawn("127.0.0.1:0", Arc::clone(&router), ServerConfig::default())
        .expect("bind a loopback listener");
    let addr = server.local_addr();
    let pool =
        build_pool(&city(), &ReplaySpec { distinct: 6, seq_len: 2, ..ReplaySpec::default() });

    // The v1 client, frame by frame. Region-less `RequestOptions` encode
    // byte-identically to protocol 1, so these are the exact frames an
    // old binary puts on the wire.
    {
        let mut s = TcpStream::connect(addr).expect("connect");
        s.set_read_timeout(Some(Duration::from_secs(30))).expect("set timeout");
        s.write_all(&Frame::Hello { version: PROTOCOL_V1, features: FEATURE_STREAMING }.to_bytes())
            .expect("write v1 hello");
        let Frame::Welcome { version, registry, fingerprint, .. } =
            read_frame(&mut s, MAX_FRAME).expect("read welcome")
        else {
            panic!("handshake must answer Welcome");
        };
        assert_eq!(version, PROTOCOL_V1, "the daemon downgrades the connection, not the client");
        assert!(registry.is_empty(), "a v1 Welcome must not carry registry bytes");
        assert_eq!(fingerprint.epoch.0, 0);
        for (i, q) in pool.iter().enumerate() {
            let submit = Frame::Submit {
                id: i as u64,
                streaming: false,
                request: QueryRequest::new(q.clone()),
            };
            s.write_all(&submit.to_bytes()).expect("write v1 submit");
            let Frame::Final { id, response } = read_frame(&mut s, MAX_FRAME).expect("read final")
            else {
                panic!("a valid v1 submit must be answered Final, never faulted");
            };
            assert_eq!(id, i as u64);
            assert!(!response.routes.is_empty(), "the default shard serves v1 traffic");
        }
    }

    // Every v1 submit was served, each by the shard vertex-space routing
    // deterministically assigns its start — never misrouted, never
    // faulted.
    let expected_on = |region: RegionId| {
        pool.iter().filter(|q| router.route_start(q.start) == region).count() as u64
    };
    assert_eq!(router.shard_metrics(RegionId(0)).unwrap().completed(), expected_on(RegionId(0)));
    let south_v1 = expected_on(RegionId(1));
    assert_eq!(router.shard_metrics(RegionId(1)).unwrap().completed(), south_v1);
    assert_eq!(router.misrouted(), 0);

    // A v2 client on the same daemon sees both regions and reaches the
    // second one by address.
    let remote = RemoteService::connect(addr).expect("v2 connect");
    let regions = remote.regions();
    assert_eq!(regions.len(), 2);
    assert_eq!((regions[0].id, regions[1].id), (RegionId(0), RegionId(1)));
    assert_eq!(regions[0].name, "region-0");
    let pool_south = {
        let d = DatasetSpec::preset(Preset::CalSmall).scale(0.08).seed(22).generate();
        build_pool(&d, &ReplaySpec { distinct: 2, seq_len: 2, ..ReplaySpec::default() })
    };
    remote
        .submit(QueryRequest::new(pool_south[0].clone()).region(RegionId(1)))
        .wait()
        .expect("addressed v2 submit is served");
    assert_eq!(router.shard_metrics(RegionId(1)).unwrap().completed(), south_v1 + 1);
    let farewell = remote.shutdown();
    server.join();
    assert_eq!(farewell.completed(), pool.len() as u64 + 1, "the farewell merges every shard");
}

#[test]
fn hostile_clients_do_not_kill_the_daemon() {
    let (_service, mut server) = spawn_daemon(2);
    let addr = server.local_addr();

    // A client that dies mid-frame: the length prefix promises 100 bytes,
    // three arrive, then the connection drops.
    {
        let mut s = TcpStream::connect(addr).expect("connect");
        s.write_all(&100u32.to_le_bytes()).expect("write length");
        s.write_all(&[1, 2, 3]).expect("write partial payload");
    }

    // A client that speaks garbage: a well-formed length prefix around a
    // hostile payload. The daemon must answer with a Fault frame and
    // close — never panic.
    {
        let mut s = TcpStream::connect(addr).expect("connect");
        s.set_read_timeout(Some(Duration::from_secs(10))).expect("set timeout");
        s.write_all(&2u32.to_le_bytes()).expect("write length");
        s.write_all(&[0xFF, 0xEE]).expect("write garbage");
        let mut rest = Vec::new();
        let _ = s.read_to_end(&mut rest);
        assert!(!rest.is_empty(), "the daemon answers garbage with a Fault before closing");
    }

    // An oversized length prefix is rejected before any buffering.
    {
        let mut s = TcpStream::connect(addr).expect("connect");
        s.set_read_timeout(Some(Duration::from_secs(10))).expect("set timeout");
        s.write_all(&u32::MAX.to_le_bytes()).expect("write length");
        let mut rest = Vec::new();
        let _ = s.read_to_end(&mut rest);
    }

    // A version-mismatched handshake is answered with the server's
    // Welcome (so the client can report both versions) and then closed.
    {
        let mut s = TcpStream::connect(addr).expect("connect");
        s.set_read_timeout(Some(Duration::from_secs(10))).expect("set timeout");
        s.write_all(&Frame::Hello { version: 9999, features: 0 }.to_bytes()).expect("write hello");
        let frame = read_frame(&mut s, MAX_FRAME).expect("read welcome");
        assert!(matches!(frame, Frame::Welcome { .. }));
        let mut rest = Vec::new();
        let _ = s.read_to_end(&mut rest);
        assert!(rest.is_empty(), "nothing follows the farewell Welcome");
    }

    // After all of that, the daemon still serves real clients.
    let remote = RemoteService::connect(addr).expect("daemon still alive");
    let dataset = city();
    let pool =
        build_pool(&dataset, &ReplaySpec { distinct: 4, seq_len: 2, ..ReplaySpec::default() });
    remote.submit_query(pool[0].clone()).wait().expect("daemon still answers queries");
    let _ = remote.shutdown();
    server.join();
}
