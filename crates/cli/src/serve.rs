//! The `skysr-d` serve loop, shared by the standalone daemon binary and
//! `skysr-cli serve`.
//!
//! Builds (or loads) a dataset, stands up a [`Service`] over it (or, with
//! `--shards N`, N per-region services behind a
//! [`Router`](skysr_service::Router)), binds the
//! non-blocking TCP server and blocks until a client sends the `Shutdown`
//! frame — at which point the daemon stops accepting, drains every
//! in-flight query, answers the requester with a final metrics snapshot
//! and exits. A multi-shard daemon speaks protocol v2: its `Welcome`
//! advertises the region registry, `Submit` frames may carry a region id,
//! and v1 clients are still served by the default shard (region 0).

use std::sync::Arc;

use skysr_core::bssr::BssrConfig;
use skysr_service::{
    QueryService, Server, ServerConfig, Service, ServiceConfig, ServiceContext, ShardRegistry,
    TelemetryConfig,
};

use crate::args::Args;
use crate::city::{dataset_args, load_or_generate, parse_flag, CityArgs};

/// Usage text of the standalone `skysr-d` binary (the `serve` flags).
pub fn usage() -> &'static str {
    "usage:\n  \
     skysr-d [FILE] [--preset <tokyo|nyc|cal|tokyo-small|nyc-small|cal-small>]\n  \
     \t[--scale F] [--seed N] [--addr HOST:PORT] [--workers N] [--cache N]\n  \
     \t[--queue N] [--coalesce true|false] [--prefix-reuse true|false]\n  \
     \t[--ancestor-reuse true|false] [--suffix-reuse true|false]\n  \
     \t[--repair true|false] [--admission true|false] [--shards N]\n\n\
     Serves SkySR queries over the skysr-d wire protocol until a client\n\
     sends Shutdown (e.g. `skysr-cli shutdown --connect HOST:PORT`).\n\
     --shards N serves N regions (datasets seeded --seed, --seed+1, ...)\n\
     behind one multi-tenant router on a single socket.\n\
     `skysr-cli serve` accepts the same flags."
}

/// Runs the daemon: bind, announce, serve until drained.
pub fn run_serve(args: &mut Args) -> Result<(), String> {
    let city = dataset_args(args)?;
    let addr = args.optional("addr").unwrap_or_else(|| "127.0.0.1:7878".to_owned());
    let config = ServiceConfig {
        workers: parse_flag(args, "workers", 4)?,
        queue_capacity: parse_flag(args, "queue", 256)?,
        cache_capacity: parse_flag(args, "cache", 1024)?,
        coalesce: parse_flag(args, "coalesce", true)?,
        prefix_reuse: parse_flag(args, "prefix-reuse", true)?,
        ancestor_reuse: parse_flag(args, "ancestor-reuse", true)?,
        suffix_reuse: parse_flag(args, "suffix-reuse", true)?,
        repair: parse_flag(args, "repair", false)?,
        admission: parse_flag(args, "admission", false)?,
        engine: BssrConfig::default(),
        telemetry: TelemetryConfig::default(),
        ..ServiceConfig::default()
    };
    let shards: usize = parse_flag(args, "shards", 1)?;
    args.finish()?;
    if shards == 0 {
        return Err("--shards must be at least 1".into());
    }
    if shards > 1 {
        if city.file.is_some() {
            return Err("--shards generates one dataset per region and conflicts with a dataset \
                 FILE argument"
                .into());
        }
        let mut registry = ShardRegistry::new();
        let mut stats = Vec::with_capacity(shards);
        for i in 0..shards {
            let region = CityArgs {
                file: None,
                preset: city.preset,
                scale: city.scale,
                seed: city.seed + i as u64,
            };
            let dataset = load_or_generate(&region)?;
            let (v, p, e) = dataset.stats();
            stats.push(format!("region-{i}: |V|={v} |P|={p} |E|={e}"));
            let ctx = Arc::new(ServiceContext::from_dataset(dataset));
            registry.add(format!("region-{i}"), ctx, config.clone());
        }
        let router = Arc::new(registry.into_router());
        let mut server = Server::spawn(addr.as_str(), Arc::clone(&router), ServerConfig::default())
            .map_err(|e| format!("cannot bind {addr}: {e}"))?;
        // The listening line goes to stdout so scripts (CI) can wait on it.
        println!(
            "skysr-d listening on {} ({shards} shards; {})",
            server.local_addr(),
            stats.join("; ")
        );
        server.join();
        let metrics = router.metrics();
        eprintln!(
            "skysr-d drained and stopped: {} completed, {} executed, {} cache hits, {} coalesced \
             across {shards} shards ({} misrouted)",
            metrics.completed(),
            metrics.executed(),
            metrics.cache.hits,
            metrics.coalesced(),
            router.misrouted()
        );
        return Ok(());
    }
    let dataset = load_or_generate(&city)?;
    let (v, p, e) = dataset.stats();
    let name = dataset.name.clone();
    let ctx = Arc::new(ServiceContext::from_dataset(dataset));
    let service = Arc::new(Service::new(ctx, config));
    let mut server = Server::spawn(addr.as_str(), Arc::clone(&service), ServerConfig::default())
        .map_err(|e| format!("cannot bind {addr}: {e}"))?;
    // The listening line goes to stdout so scripts (CI) can wait on it.
    println!("skysr-d listening on {} ({name}: |V|={v} |P|={p} |E|={e})", server.local_addr());
    server.join();
    let metrics = service.metrics();
    eprintln!(
        "skysr-d drained and stopped: {} completed, {} executed, {} cache hits, {} coalesced",
        metrics.completed(),
        metrics.executed(),
        metrics.cache.hits,
        metrics.coalesced()
    );
    Ok(())
}
