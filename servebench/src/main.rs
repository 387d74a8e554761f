//! Layered serving benchmark for skysr.
//!
//! ```text
//! servebench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload (see `bench.rs` and `README.md`) in this process and
//! prints, as the last line of standard output, one JSON object with the
//! keys `correct`, `attempted`, `failed` and `metrics`. `--trace 0` reports
//! the end-to-end metrics; `--trace 1` reports the per-layer metrics and
//! writes the run's spans under `traces/` in this package. `--workload all`
//! runs every workload, each in its own child process. The exit code is
//! nonzero when any answer is wrong, any request failed or any stale answer
//! was served.

mod bench;
mod sys;
mod trace;

use std::path::Path;
use std::process::ExitCode;

use bench::{Phase, RunResult, Workload, RUNGS};

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: servebench --workload <cold-engine|hot-hits|churn-repair|remote-hits|all> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let slot = match flag.as_str() {
            "--workload" => &mut workload,
            "--seed" => &mut seed,
            "--seconds" => &mut seconds,
            "--trace" => &mut trace,
            _ => return Err(format!("unknown flag {flag}")),
        };
        if slot.replace(value.clone()).is_some() {
            return Err(format!("{flag} given twice"));
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let workload = match workload.as_str() {
        "all" => None,
        name => Some(Workload::parse(name).ok_or_else(|| format!("unknown workload {name}"))?),
    };
    let seed = seed.ok_or("--seed is required")?;
    let seed = seed.parse().map_err(|_| format!("bad --seed {seed}"))?;
    let seconds = seconds.ok_or("--seconds is required")?;
    let seconds: f64 = seconds.parse().map_err(|_| format!("bad --seconds {seconds}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must lie in (0, 600], got {seconds}"));
    }
    let trace = match trace.as_deref() {
        Some("0") | None => false,
        Some("1") => true,
        Some(t) => return Err(format!("--trace must be 0 or 1, got {t}")),
    };
    Ok(Args { workload, seed, seconds, trace })
}

struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric { name: name.into(), value, unit }
}

/// Nearest-rank percentile of `samples` (sorted in place); `None` when
/// there are no samples.
fn percentile(samples: &mut [u64], p: f64) -> Option<u64> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_unstable();
    let rank = ((p * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    Some(samples[rank - 1])
}

fn us(ns: Option<u64>) -> f64 {
    ns.map_or(0.0, |n| n as f64 / 1e3)
}

fn median_of(values: impl Iterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = values.collect();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Process CPU seconds per request: the median over the phase's whole
/// windows, or the whole phase's figure when it was shorter than one.
fn cpu_per_query_s(p: &Phase) -> f64 {
    if p.cpu_windows.is_empty() {
        p.cpu_s / p.requests as f64
    } else {
        median_of(p.cpu_windows.iter().copied())
    }
}

/// The gated end-to-end metrics of an untraced run. `failed_frac` is 0
/// on a correct run, so the JSON carries its complement `ok_frac`, which
/// is never 0; `failed_frac` is printed on a note line.
fn end_to_end(r: &RunResult, notes: &mut Vec<String>) -> Vec<Metric> {
    let p = &r.phase;
    let mut lat = p.latency_ns.clone();
    let p50 = percentile(&mut lat, 0.50).expect("at least one timed request");
    let failed_frac = ratio(r.failed(), r.attempted());
    let beyond = |q: f64| lat.len() - (q * lat.len() as f64).ceil() as usize;
    notes.push(format!(
        "{} latency samples; {} beyond p90, {} beyond p99",
        lat.len(),
        beyond(0.90),
        beyond(0.99)
    ));
    notes.push(format!(
        "failed_frac {failed_frac} ({} failed of {} attempted: {} errors, {} oracle mismatches, \
         {} stale serves)",
        r.failed(),
        r.attempted(),
        p.errors,
        p.mismatches,
        p.stale
    ));
    vec![
        metric("latency_p50_ms", p50 as f64 / 1e6, "ms"),
        metric("cpu_ms_per_query", cpu_per_query_s(p) * 1e3, "ms"),
        metric("setup_s", median_of(r.setups.iter().map(|s| s.total.as_secs_f64())), "s"),
        metric("peak_rss_mb", p.peak_rss_mb, "MB"),
        metric("ok_frac", 1.0 - failed_frac, "ratio"),
    ]
}

/// Wall-clock figures that follow hypervisor steal too closely to gate on
/// (see README): printed by every run and reported as per-layer `run.*`
/// metrics by traced runs.
fn wall_metrics(p: &Phase) -> Vec<Metric> {
    let mut lat = p.latency_ns.clone();
    let ms = |ns: Option<u64>| ns.map_or(0.0, |n| n as f64 / 1e6);
    vec![
        metric("run.throughput_qps", p.throughput(), "1/s"),
        metric("run.latency_p90_ms", ms(percentile(&mut lat, 0.90)), "ms"),
        metric("run.latency_p99_ms", ms(percentile(&mut lat, 0.99)), "ms"),
    ]
}

/// Count metrics of a traced phase and engine pass: these repeat exactly
/// for a given workload and seed.
fn count_metrics(phase: &Phase, pass: &bench::EnginePass) -> Vec<Metric> {
    let q = pass.queries.max(1) as f64;
    let mut out = vec![
        metric("engine.settled_per_query", pass.settled as f64 / q, "count"),
        metric("engine.relaxed_per_query", pass.relaxed as f64 / q, "count"),
        metric("engine.heap_pushes_per_query", pass.heap_pushes as f64 / q, "count"),
        metric("engine.routes_enqueued_per_query", pass.routes_enqueued as f64 / q, "count"),
        metric("engine.mdijkstra_runs_per_query", pass.mdijkstra_runs as f64 / q, "count"),
        metric(
            "engine.mdijkstra_cache_hit_ratio",
            ratio(pass.mdijkstra_cache_hits, pass.mdijkstra_runs + pass.mdijkstra_cache_hits),
            "ratio",
        ),
        metric(
            "engine.prune_ratio",
            ratio(pass.pruned, pass.pruned + pass.routes_enqueued),
            "ratio",
        ),
        metric("engine.skyline_routes_mean", pass.skyline_routes as f64 / q, "count"),
    ];
    for (name, n) in RUNGS.iter().zip(phase.window.rungs) {
        out.push(metric(format!("plan.rung.{name}"), n as f64, "count"));
    }
    let cache = &phase.window_metrics.cache;
    out.push(metric("cache.hit_rate", ratio(cache.hits, cache.hits + cache.misses), "ratio"));
    out.push(metric("cache.insertions", cache.insertions as f64, "count"));
    out.push(metric("cache.evictions", cache.evictions as f64, "count"));
    out.push(metric("cache.invalidations", cache.invalidations as f64, "count"));
    out.push(metric("context.epochs_retained", phase.window_epochs.retained as f64, "count"));
    out.push(metric("context.overlay_arcs", phase.window_epochs.overlay_len as f64, "count"));
    let (in_place, fallback) = (phase.window.repair_in_place, phase.window.repair_fallback);
    out.push(metric("repair.in_place", in_place as f64, "count"));
    out.push(metric("repair.fallback", fallback as f64, "count"));
    out.push(metric("repair.in_place_ratio", ratio(in_place, in_place + fallback), "ratio"));
    out
}

/// The per-layer metrics of a traced run. Layers the workload does not
/// load report 0.
fn per_layer(w: Workload, r: &RunResult, run_cpu_s: f64, run_steal: f64) -> Vec<Metric> {
    let (phase, pass, _) = r.traced.as_ref().expect("a traced run");
    let remote = w == Workload::RemoteHits;
    let setups = &r.setups;
    let mut out = vec![
        metric("data.generate_s", median_of(setups.iter().map(|s| s.generate.as_secs_f64())), "s"),
        metric("context.build_s", median_of(setups.iter().map(|s| s.build.as_secs_f64())), "s"),
        metric("engine.prepare_us_p50", us(percentile(&mut pass.prepare_ns.clone(), 0.5)), "us"),
        metric("engine.nninit_us_p50", us(percentile(&mut pass.nninit_ns.clone(), 0.5)), "us"),
        metric("engine.bounds_us_p50", us(percentile(&mut pass.bounds_ns.clone(), 0.5)), "us"),
        metric("engine.run_us_p50", us(percentile(&mut pass.run_ns.clone(), 0.5)), "us"),
        metric("engine.run_us_p99", us(percentile(&mut pass.run_ns.clone(), 0.99)), "us"),
        metric("engine.search_us_p50", us(percentile(&mut pass.search_ns.clone(), 0.5)), "us"),
    ];
    out.extend(count_metrics(phase, pass));
    let mut qw = phase.queue_wait_ns.clone();
    out.push(metric("service.queue_wait_us_p50", us(percentile(&mut qw, 0.5)), "us"));
    out.push(metric("service.queue_wait_us_p99", us(percentile(&mut qw, 0.99)), "us"));
    let mut handoff = phase.handoff_ns.clone();
    let handoff_p50 = us(percentile(&mut handoff, 0.5));
    out.push(metric("service.handoff_us_p50", handoff_p50, "us"));
    let mut publish = phase.publish_ns.clone();
    out.push(metric("context.publish_us_p50", us(percentile(&mut publish, 0.5)), "us"));
    out.push(metric("context.publish_us_p99", us(percentile(&mut publish, 0.99)), "us"));
    let mut rtt = if remote { phase.latency_ns.clone() } else { Vec::new() };
    out.push(metric("net.rtt_us_p50", us(percentile(&mut rtt, 0.5)), "us"));
    out.push(metric("net.rtt_us_p99", us(percentile(&mut rtt, 0.99)), "us"));
    out.push(metric("net.transport_us_p50", if remote { handoff_p50 } else { 0.0 }, "us"));
    let connect = median_of(setups.iter().filter_map(|s| s.connect).map(|d| d.as_secs_f64()));
    out.push(metric("net.connect_ms", connect * 1e3, "ms"));
    out.extend(wall_metrics(&r.phase));
    out.push(metric("run.steal_frac", run_steal, "ratio"));
    out.push(metric("run.cpu_s", run_cpu_s, "s"));
    out.push(metric(
        "telemetry.overhead_ratio",
        phase.throughput() / r.phase.throughput(),
        "ratio",
    ));
    out
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Writes the spans and their per-name self times under `traces/`.
fn write_traces(w: Workload, spans: &[trace::Span]) {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("traces");
    let spans_path = dir.join(format!("{}.spans.csv", w.name()));
    if let Err(e) = trace::write_spans(&spans_path, spans) {
        eprintln!("could not write {}: {e}", spans_path.display());
    }
    println!("spans       {} written to {}", spans.len(), spans_path.display());
    for (name, t) in trace::totals_by_name(spans) {
        println!(
            "span        {name:<24} n={:<8} total={:>10.3} ms  self={:>10.3} ms",
            t.count,
            t.total.as_secs_f64() * 1e3,
            t.self_time.as_secs_f64() * 1e3
        );
    }
    for (layer, d) in trace::self_time_by_layer(spans) {
        println!("layer       {layer:<24} self={:>10.3} ms", d.as_secs_f64() * 1e3);
    }
}

fn run_one(w: Workload, args: &Args) -> ExitCode {
    let cpu0 = sys::process_cpu_s();
    let ticks0 = sys::CpuTicks::now();
    let result = bench::run(w, args.seed, args.seconds, args.trace, bench::SETUPS);
    let run_cpu_s = sys::process_cpu_s() - cpu0;
    let run_steal = sys::CpuTicks::now().steal_since(&ticks0);
    println!(
        "provenance  {{\"workload\": \"{}\", \"seed\": {}, \"rev\": \"{}\", \"nproc\": {}, \
         \"workers\": {}, \"steal_frac\": {run_steal}, \"cpu_s\": {run_cpu_s}, \"trace\": {}}}",
        w.name(),
        args.seed,
        sys::git_revision(),
        sys::nproc(),
        bench::WORKERS,
        u8::from(args.trace)
    );
    let mut notes = Vec::new();
    let metrics = if args.trace {
        let (_, _, spans) = result.traced.as_ref().expect("traced run");
        write_traces(w, spans);
        per_layer(w, &result, run_cpu_s, run_steal)
    } else {
        end_to_end(&result, &mut notes)
    };
    let p = &result.phase;
    let setups: Vec<String> =
        result.setups.iter().map(|s| format!("{:.3}", s.total.as_secs_f64())).collect();
    println!(
        "phase       {} requests in {:.3} s, steal {:.4}; set-ups {} s",
        p.requests,
        p.wall.as_secs_f64(),
        p.steal_frac,
        setups.join(" ")
    );
    for note in &notes {
        println!("note        {note}");
    }
    for m in &metrics {
        println!("metric      {:<36} {:>16.6} {}", m.name, m.value, m.unit);
    }
    if !args.trace {
        for m in wall_metrics(&result.phase) {
            println!("ungated     {:<36} {:>16.6} {}", m.name, m.value, m.unit);
        }
    }
    let failed = result.failed();
    let correct = failed == 0;
    println!("{}", result_line(correct, result.attempted(), failed, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload in its own child process, one after another.
fn run_all(raw: &[String]) -> ExitCode {
    let exe = std::env::current_exe().expect("path of the running benchmark");
    let mut ok = true;
    for w in Workload::ALL {
        let mut args = raw.to_vec();
        let i = args.iter().position(|a| a == "--workload").expect("--workload given") + 1;
        args[i] = w.name().into();
        let status = std::process::Command::new(&exe)
            .args(&args)
            .status()
            .expect("start a workload process");
        ok &= status.success();
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match args.workload {
        Some(w) => run_one(w, &args),
        None => run_all(&raw),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counts(w: Workload, seed: u64) -> Vec<(String, f64)> {
        let r = bench::run(w, seed, 0.2, true, 1);
        assert_eq!(r.failed(), 0, "{} answered wrongly", w.name());
        let (phase, pass, _) = r.traced.as_ref().expect("traced run");
        count_metrics(phase, pass).into_iter().map(|m| (m.name, m.value)).collect()
    }

    /// Two runs with the same seed give identical count metrics on every
    /// workload, so later changes can cite them by name.
    #[test]
    fn counts_repeat_exactly_for_a_seed() {
        for w in Workload::ALL {
            assert_eq!(counts(w, 11), counts(w, 11), "{} counts differ", w.name());
        }
    }

    /// `BENCHMARK.json` names exactly the metrics this program prints.
    #[test]
    fn benchmark_json_lists_the_printed_metrics() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let r = bench::run(Workload::ChurnRepair, 3, 0.2, true, 1);
        let mut notes = Vec::new();
        let mut printed: Vec<String> =
            end_to_end(&r, &mut notes).into_iter().map(|m| m.name).collect();
        printed.extend(per_layer(Workload::ChurnRepair, &r, 1.0, 0.0).into_iter().map(|m| m.name));
        let listed: Vec<&str> = json
            .split("\"name\": \"")
            .skip(1)
            .map(|s| s.split('"').next().expect("closing quote"))
            .filter(|n| Workload::parse(n).is_none())
            .collect();
        let mut printed_sorted: Vec<&str> = printed.iter().map(String::as_str).collect();
        printed_sorted.sort_unstable();
        let mut listed_sorted = listed.clone();
        listed_sorted.sort_unstable();
        assert_eq!(printed_sorted, listed_sorted);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let mut v: Vec<u64> = (1..=1000).rev().collect();
        assert_eq!(percentile(&mut v, 0.5), Some(500));
        assert_eq!(percentile(&mut v, 0.99), Some(990));
        assert_eq!(percentile(&mut [], 0.5), None);
    }

    #[test]
    fn args_are_checked() {
        let a = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        assert!(parse_args(&a("--workload hot-hits --seed 1 --seconds 2 --trace 1")).is_ok());
        assert!(parse_args(&a("--workload nope --seed 1 --seconds 2 --trace 0")).is_err());
        assert!(parse_args(&a("--workload hot-hits --seed x --seconds 2 --trace 0")).is_err());
        assert!(parse_args(&a("--workload hot-hits --seed 1 --seconds 0 --trace 0")).is_err());
        assert!(parse_args(&a("--workload hot-hits --seed 1 --seconds 2 --trace 2")).is_err());
    }
}
