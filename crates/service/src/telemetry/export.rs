//! Exporters: JSON-lines span dumps and Prometheus-style text exposition.

use crate::metrics::MetricsSnapshot;
use crate::telemetry::histogram::HistogramSnapshot;
use crate::telemetry::trace::TraceSpan;

/// Renders spans as JSON lines (one object per line, trailing newline) —
/// the `--trace-out FILE` format.
pub fn spans_to_json_lines(spans: &[TraceSpan]) -> String {
    let mut out = String::with_capacity(spans.len() * 256);
    for span in spans {
        out.push_str(&span.to_json_line());
        out.push('\n');
    }
    out
}

/// Renders one or more labelled [`MetricsSnapshot`]s as Prometheus text
/// exposition (text format 0.0.4): counters as `skysr_*_total`, gauges
/// bare, histograms as cumulative `_bucket{le=…}` series with `_sum` and
/// `_count`. Each entry's labels (e.g. `workload="duplicate"`) are
/// attached to every series it contributes, so a multi-run bench exports
/// as one self-consistent page.
pub fn prometheus(entries: &[(&[(&str, &str)], &MetricsSnapshot)]) -> String {
    type CounterFn = fn(&MetricsSnapshot) -> u64;
    type HistFn = fn(&MetricsSnapshot) -> HistogramSnapshot;
    let mut out = String::with_capacity(4096);
    let counters: [(&str, &str, CounterFn); 15] = [
        ("skysr_completed_total", "Queries answered successfully", |m| m.completed()),
        ("skysr_failed_total", "Queries rejected by validation", |m| m.failed),
        ("skysr_executed_total", "Queries that ran a BSSR search or repair", |m| m.executed()),
        ("skysr_coalesced_total", "Queries answered by joining an in-flight search", |m| {
            m.coalesced()
        }),
        ("skysr_stale_served_total", "Responses served from a wrong-epoch entry", |m| {
            m.stale_served
        }),
        ("skysr_repairs_total", "Cached skylines promoted in place by repair", |m| m.repairs()),
        ("skysr_repair_fallbacks_total", "Repairs that fell back to a re-search", |m| {
            m.repair_fallbacks
        }),
        ("skysr_rejected_total", "Requests refused at admission (deadline unmeetable)", |m| {
            m.rejected
        }),
        ("skysr_shed_deadline_total", "Requests whose deadline expired in the queue", |m| {
            m.shed_deadline
        }),
        ("skysr_approximate_served_total", "Partial answers served after a deadline", |m| {
            m.approximate_served()
        }),
        ("skysr_cache_hits_total", "Result-cache hits", |m| m.cache.hits),
        ("skysr_cache_misses_total", "Result-cache misses", |m| m.cache.misses),
        ("skysr_cache_evictions_total", "Result-cache evictions", |m| m.cache.evictions),
        ("skysr_cache_invalidations_total", "Entries dropped by epoch invalidation", |m| {
            m.cache.invalidations
        }),
        ("skysr_epochs_retained", "Weight-epoch overlays currently retained", |m| {
            m.epochs.retained as u64
        }),
    ];
    for (name, help, get) in counters {
        let kind = if name.ends_with("_total") { "counter" } else { "gauge" };
        out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} {kind}\n"));
        for (labels, snap) in entries {
            out.push_str(&format!("{name}{} {}\n", label_set(labels, &[]), get(snap)));
        }
    }

    let hists: [(&str, &str, HistFn); 3] = [
        ("skysr_latency_seconds", "End-to-end latency (queueing included)", |m| m.latency()),
        ("skysr_queue_wait_seconds", "Submission-to-dequeue wait", |m| m.queue_wait_hist.clone()),
        ("skysr_engine_seconds", "Engine execution time (search / repair)", |m| {
            m.engine_hist.clone()
        }),
    ];
    for (name, help, get) in hists {
        out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} histogram\n"));
        for (labels, snap) in entries {
            histogram_series(&mut out, name, labels, &get(snap));
        }
    }

    out.push_str(
        "# HELP skysr_rung_latency_seconds End-to-end latency by serving rung\n\
         # TYPE skysr_rung_latency_seconds histogram\n",
    );
    for (labels, snap) in entries {
        for rung in &snap.rungs {
            if rung.hist.is_empty() {
                continue;
            }
            histogram_series_with(
                &mut out,
                "skysr_rung_latency_seconds",
                labels,
                &[("rung", rung.rung.label())],
                &rung.hist,
            );
        }
    }
    out
}

/// `{a="x",b="y"}` (or the empty string when no labels), with `extra`
/// appended.
fn label_set(labels: &[(&str, &str)], extra: &[(&str, &str)]) -> String {
    let mut pairs: Vec<String> =
        labels.iter().chain(extra.iter()).map(|(k, v)| format!("{k}=\"{v}\"")).collect();
    if pairs.is_empty() {
        return String::new();
    }
    pairs.sort();
    format!("{{{}}}", pairs.join(","))
}

/// Emits one histogram's `_bucket`/`_sum`/`_count` series.
fn histogram_series(out: &mut String, name: &str, labels: &[(&str, &str)], h: &HistogramSnapshot) {
    histogram_series_with(out, name, labels, &[], h);
}

fn histogram_series_with(
    out: &mut String,
    name: &str,
    labels: &[(&str, &str)],
    extra: &[(&str, &str)],
    h: &HistogramSnapshot,
) {
    for (upper_ns, cum) in h.cumulative() {
        let le = format!("{:.9}", upper_ns as f64 / 1e9);
        let mut with_le: Vec<(&str, &str)> = extra.to_vec();
        with_le.push(("le", le.as_str()));
        out.push_str(&format!("{name}_bucket{} {cum}\n", label_set(labels, &with_le)));
    }
    let mut inf: Vec<(&str, &str)> = extra.to_vec();
    inf.push(("le", "+Inf"));
    out.push_str(&format!("{name}_bucket{} {}\n", label_set(labels, &inf), h.count()));
    out.push_str(&format!(
        "{name}_sum{} {:.9}\n",
        label_set(labels, extra),
        h.sum_ns() as f64 / 1e9
    ));
    out.push_str(&format!("{name}_count{} {}\n", label_set(labels, extra), h.count()));
}
