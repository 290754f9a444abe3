//! Per-layer metrics: the fixed catalogue every traced run reports, and
//! readers for the public counters the program already exposes
//! (`metrics_snapshot()` families, store and dictionary sizes).

use std::collections::BTreeMap;

use parj_core::{MetricsSnapshot, SampleValue, TripleStore};
use parj_store::SortOrder;

use crate::record::Metrics;
use crate::stats::ratio;

/// The end-to-end metrics of every workload, with units, in the order
/// `Samples::end_to_end` reports them.
#[cfg(test)]
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("qps", "1/s"),
    ("query_geomean_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("bytes_per_triple", "bytes"),
];

/// The lock levels `parj_lock_wait_micros` is labelled with.
pub const LOCK_LEVELS: &[&str] = &[
    "server",
    "admission_quota",
    "admission_window",
    "engine",
    "cache_epoch",
    "cache_shard",
    "pool_state",
    "pool_job",
    "exec_output",
    "profile",
    "staging",
    "metrics",
];

/// Every per-layer metric, with its unit, in report order. A layer a
/// workload does not exercise reads 0 there (no server on the lubm
/// workloads, no writes outside lubm-rw).
pub fn catalogue() -> Vec<(String, &'static str)> {
    let fixed: &[(&str, &str)] = &[
        ("load.parse_encode_s", "s"),
        ("load.finalize_s", "s"),
        ("load.triples_per_s", "1/s"),
        ("server.request_us", "us"),
        ("server.self_us", "us"),
        ("server.client_overhead_us", "us"),
        ("server.response_bytes", "bytes"),
        ("server.shed", "count"),
        ("engine.parse_us", "us"),
        ("engine.translate_us", "us"),
        ("engine.cache_lookup_us", "us"),
        ("engine.optimize_us", "us"),
        ("engine.execute_us", "us"),
        ("engine.decode_us", "us"),
        ("engine.rows", "count"),
        ("join.group_probes", "count"),
        ("join.searches_sequential", "count"),
        ("join.searches_binary", "count"),
        ("join.search_words", "count"),
        ("join.rows_per_probe", "ratio"),
        ("join.morsels", "count"),
        ("join.adaptive_search_ns", "ns"),
        ("pool.busy_us", "us"),
        ("pool.park_us", "us"),
        ("pool.utilization", "ratio"),
        ("pool.helper_joins", "count"),
        ("store.decode_ns_per_value", "ns"),
        ("store.contains_ns", "ns"),
        ("store.compressed_replicas", "count"),
        ("store.partition_bytes", "bytes"),
        ("dict.bytes", "bytes"),
        ("cache.result_hit_ratio", "ratio"),
        ("cache.plan_hit_ratio", "ratio"),
        ("cache.invalidations", "count"),
        ("cache.evictions", "count"),
        ("delta.encode_us", "us"),
        ("delta.apply_us", "us"),
        ("delta.compact_us", "us"),
        ("delta.invalidate_us", "us"),
        ("delta.compactions", "count"),
        ("delta.resident_bytes_max", "bytes"),
        ("write.p50_ms", "ms"),
        ("write.p99_ms", "ms"),
    ];
    let mut out: Vec<(String, &'static str)> =
        fixed.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    out.extend(
        LOCK_LEVELS
            .iter()
            .map(|l| (format!("lock.wait_us.{l}"), "us")),
    );
    out.push(("trace.overhead_ratio".to_string(), "ratio"));
    out.push(("trace.unattributed_share".to_string(), "ratio"));
    out
}

/// Per-layer values a workload measured, by catalogue name.
#[derive(Debug, Default)]
pub struct Layers(pub BTreeMap<String, f64>);

impl Layers {
    pub fn set(&mut self, name: &str, value: f64) {
        debug_assert!(
            catalogue().iter().any(|(n, _)| n == name),
            "{name} is not catalogued"
        );
        self.0.insert(name.to_string(), value);
    }

    /// The whole catalogue, in order, 0 where unmeasured.
    pub fn to_metrics(&self) -> Metrics {
        let mut m = Metrics::default();
        for (name, unit) in catalogue() {
            let v = self.0.get(&name).copied().unwrap_or(0.0);
            m.put(name, v, unit);
        }
        m
    }

    /// Only what was measured, in catalogue order.
    pub fn measured(&self) -> Metrics {
        let mut m = Metrics::default();
        for (name, unit) in catalogue() {
            if let Some(&v) = self.0.get(&name) {
                m.put(name, v, unit);
            }
        }
        m
    }
}

/// Sum of every integer sample of a family (0 when absent).
fn total(snap: &MetricsSnapshot, family: &str) -> u64 {
    snap.family(family).map_or(0, |f| {
        f.samples
            .iter()
            .map(|s| match &s.value {
                SampleValue::Integer(v) => *v,
                SampleValue::Histogram(h) => h.count,
            })
            .sum()
    })
}

fn labelled(snap: &MetricsSnapshot, family: &str, key: &str, value: &str) -> u64 {
    snap.value(family, &[(key, value)]).unwrap_or(0)
}

/// `(sum, count)` of a histogram family's first sample.
pub fn histogram(snap: &MetricsSnapshot, family: &str) -> (u64, u64) {
    snap.family(family)
        .and_then(|f| f.samples.first())
        .map_or((0, 0), |s| match &s.value {
            SampleValue::Histogram(h) => (h.sum, h.count),
            SampleValue::Integer(v) => (*v, 1),
        })
}

/// Differences between two engine registry snapshots taken around a
/// traced phase: engine phases, executor counters, pool, cache and
/// lock waits, per query where the catalogue says so.
pub fn engine_deltas(layers: &mut Layers, before: &MetricsSnapshot, after: &MetricsSnapshot) {
    let d = |f: &str| total(after, f).saturating_sub(total(before, f)) as f64;
    let dl = |f: &str, k: &str, v: &str| {
        labelled(after, f, k, v).saturating_sub(labelled(before, f, k, v)) as f64
    };
    let queries = d("parj_queries_total");
    let per_query = |x: f64| ratio(x, queries);
    for (metric, phase) in [
        ("engine.parse_us", "parse"),
        ("engine.translate_us", "translate"),
        ("engine.cache_lookup_us", "cache_lookup"),
        ("engine.optimize_us", "optimize"),
        ("engine.execute_us", "execute"),
        ("engine.decode_us", "decode"),
    ] {
        layers.set(
            metric,
            per_query(dl("parj_query_phase_micros_total", "phase", phase)),
        );
    }
    let rows = d("parj_result_rows_total");
    let probes = d("parj_group_probes_total");
    layers.set("engine.rows", per_query(rows));
    layers.set("join.group_probes", per_query(probes));
    layers.set(
        "join.searches_sequential",
        per_query(dl("parj_searches_total", "kind", "sequential")),
    );
    layers.set(
        "join.searches_binary",
        per_query(dl("parj_searches_total", "kind", "binary")),
    );
    layers.set("join.search_words", per_query(d("parj_search_words_total")));
    layers.set("join.rows_per_probe", ratio(rows, probes));
    layers.set("join.morsels", per_query(d("parj_exec_morsels_total")));
    let busy = d("parj_pool_busy_micros_total");
    let park = d("parj_pool_park_micros_total");
    layers.set("pool.busy_us", per_query(busy));
    layers.set("pool.park_us", per_query(park));
    layers.set("pool.utilization", ratio(busy, busy + park));
    layers.set(
        "pool.helper_joins",
        per_query(d("parj_pool_helper_joins_total")),
    );
    for (metric, tier) in [
        ("cache.result_hit_ratio", "result"),
        ("cache.plan_hit_ratio", "plan"),
    ] {
        let hits = dl("parj_cache_hits_total", "cache", tier);
        let misses = dl("parj_cache_misses_total", "cache", tier);
        layers.set(metric, ratio(hits, hits + misses));
    }
    layers.set("cache.invalidations", d("parj_cache_invalidations_total"));
    layers.set("cache.evictions", d("parj_cache_evictions_total"));
    for level in LOCK_LEVELS {
        layers.set(
            &format!("lock.wait_us.{level}"),
            dl("parj_lock_wait_micros", "level", level),
        );
    }
}

/// Replica and dictionary sizes of the finalized store.
pub fn store_sizes(layers: &mut Layers, store: &TripleStore) {
    let compressed = store
        .partitions()
        .iter()
        .flat_map(|p| [SortOrder::SO, SortOrder::OS].map(|o| p.replica(o).is_compressed()))
        .filter(|&c| c)
        .count();
    layers.set("store.compressed_replicas", compressed as f64);
    layers.set(
        "store.partition_bytes",
        store.partitions_memory_bytes() as f64,
    );
    layers.set("dict.bytes", store.dict().memory_bytes() as f64);
}

/// Loader throughput from the set-up repetitions.
pub fn loader(layers: &mut Layers, times: &crate::data::SetupTimes) {
    let parse = crate::stats::median(&times.parse_encode_s);
    let fin = crate::stats::median(&times.finalize_s);
    layers.set("load.parse_encode_s", parse);
    layers.set("load.finalize_s", fin);
    layers.set(
        "load.triples_per_s",
        ratio(times.triples as f64, parse + fin),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root lists exactly the
    /// metrics this benchmark prints, with the same units.
    #[test]
    fn manifest_lists_every_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let manifest = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        let listed = |section: &str| -> Vec<(String, String)> {
            let body = manifest
                .split(&format!("\"{section}\": ["))
                .nth(1)
                .expect("section present");
            let body = &body[..body.find(']').expect("section closes")];
            body.split("{\"name\": \"")
                .skip(1)
                .map(|entry| {
                    let name = entry[..entry.find('"').expect("name closes")].to_string();
                    let unit = entry.split("\"unit\": \"").nth(1).expect("unit present");
                    (
                        name,
                        unit[..unit.find('"').expect("unit closes")].to_string(),
                    )
                })
                .collect()
        };
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(listed("end_to_end"), e2e);
        let per: Vec<(String, String)> = catalogue()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(listed("per_layer"), per);
    }
}
