//! Block-compression memory/throughput report (`results/compress.md`,
//! `BENCH_compress.json`).
//!
//! The tentpole claim behind `EngineConfig::compress_replicas`: the
//! frame-of-reference + bitpacked block codec shrinks the per-key
//! sorted value runs — the dominant term of replica memory — without
//! changing a single answered row. Three phases:
//!
//! 1. **Bytes per triple.** Build the LUBM base once, snapshot the
//!    value-store and total footprint, compress in place, snapshot
//!    again, split by replica layout (unit replicas with one value per
//!    key, run replicas otherwise). The run *asserts* the value-store
//!    shrinks by at least 2× — the codec's reason to exist — so a
//!    format regression fails the bench instead of silently shipping a
//!    fatter store.
//! 2. **Probe throughput.** The full LUBM query mix over two engines
//!    holding identical data (raw vs compressed replicas), single- and
//!    multi-thread, reporting ms per query and aggregate rows/s.
//! 3. **Byte identity.** Every query's id rows are compared across the
//!    two engines (and thread counts) before any timing is trusted;
//!    the record also carries whether the SIMD kernels or the scalar
//!    fallback decoded the blocks (`PARJ_NO_SIMD` selects the latter —
//!    the numbers must differ, the rows must not).

use parj_core::{EngineConfig, Parj};
use parj_datagen::lubm;
use serde_json::json;

use crate::report::{git_sha, Table};
use crate::timing::measure_ms;
use crate::Args;

/// Replica-size threshold for the compressed engine: low enough that
/// every benchmark-relevant replica compresses, so the report measures
/// the codec rather than the threshold.
const MIN_VALUES: usize = 64;

fn lubm_store(universities: usize) -> parj_core::TripleStore {
    lubm::generate_store(&lubm::LubmConfig {
        universities,
        seed: lubm::LubmConfig::default().seed,
    })
}

/// Every replica of `store`.
fn replicas(store: &parj_core::TripleStore) -> impl Iterator<Item = &parj_store::Replica> {
    store
        .partitions()
        .iter()
        .flat_map(|p| [parj_core::SortOrder::SO, parj_core::SortOrder::OS].map(|o| p.replica(o)))
}

/// Value-store bytes summed over every replica of `store`.
fn value_bytes(store: &parj_core::TripleStore) -> usize {
    replicas(store).map(|r| r.value_bytes()).sum()
}

/// Compressed-replica count across `store`.
fn compressed_replicas(store: &parj_core::TripleStore) -> usize {
    replicas(store).filter(|r| r.is_compressed()).count()
}

/// Replicas, stored values and value-store bytes of one layout.
#[derive(Debug, Default, Clone, Copy)]
struct LayoutShare {
    replicas: usize,
    values: usize,
    bytes: usize,
}

impl LayoutShare {
    fn bytes_per_value(&self) -> f64 {
        self.bytes as f64 / self.values.max(1) as f64
    }
}

/// The value store split by layout: `(unit, run)`.
fn layout_split(store: &parj_core::TripleStore) -> (LayoutShare, LayoutShare) {
    let (mut unit, mut run) = (LayoutShare::default(), LayoutShare::default());
    for r in replicas(store).filter(|r| !r.is_empty()) {
        let share = if r.is_unit() { &mut unit } else { &mut run };
        share.replicas += 1;
        share.values += r.num_triples();
        share.bytes += r.value_bytes();
    }
    (unit, run)
}

/// Block-compression bench: bytes-per-triple before/after plus probe
/// throughput and row byte-identity over the same data raw vs packed.
pub fn compress(args: &Args) -> (Vec<Table>, serde_json::Value) {
    // Phase 1 — memory, measured on one store compressed in place so
    // "before" and "after" hold byte-for-byte the same triples.
    let sha = git_sha();
    let mut store = lubm_store(args.scale);
    let triples = store.num_triples();
    let raw_value_bytes = value_bytes(&store);
    let raw_total_bytes = store.partitions_memory_bytes();
    let raw_all_bytes = store.total_memory_bytes();
    let (raw_unit, raw_run) = layout_split(&store);
    let compressed = store.compress_values(MIN_VALUES);
    let packed_value_bytes = value_bytes(&store);
    let packed_total_bytes = store.partitions_memory_bytes();
    let packed_all_bytes = store.total_memory_bytes();
    let (packed_unit, packed_run) = layout_split(&store);
    assert!(compressed > 0, "no replica crossed the {MIN_VALUES}-value threshold");
    assert_eq!(compressed, compressed_replicas(&store));

    let raw_vpt = raw_value_bytes as f64 / triples as f64;
    let packed_vpt = packed_value_bytes as f64 / triples as f64;
    let value_ratio = raw_value_bytes as f64 / packed_value_bytes as f64;
    let total_ratio = raw_total_bytes as f64 / packed_total_bytes as f64;
    // The acceptance bar: the value store — what the codec compresses —
    // must shrink at least 2×.
    assert!(
        value_ratio >= 2.0,
        "value-store compression ratio {value_ratio:.2}× is below the 2× bar \
         ({raw_value_bytes} -> {packed_value_bytes} bytes over {triples} triples)"
    );

    let mut mem = Table::new(
        format!(
            "Replica value compression — LUBM U={} ({} triples), \
             FOR unit frames + bitpacked run deltas, {}-value blocks, at {sha}",
            args.scale,
            triples,
            parj_store::BLOCK_LEN
        ),
        &["raw", "compressed", "ratio"],
    );
    let unit_share = raw_unit.values as f64 / (raw_unit.values + raw_run.values).max(1) as f64;
    for (label, raw, packed) in [
        (
            format!(
                "unit replicas: value bytes/value ({} replicas, {:.0}% of values)",
                raw_unit.replicas,
                unit_share * 100.0
            ),
            raw_unit,
            packed_unit,
        ),
        (
            format!("run replicas: value bytes/value ({} replicas)", raw_run.replicas),
            raw_run,
            packed_run,
        ),
    ] {
        mem.row(
            label,
            vec![
                format!("{:.2}", raw.bytes_per_value()),
                format!("{:.2}", packed.bytes_per_value()),
                format!("{:.2}x", raw.bytes as f64 / packed.bytes.max(1) as f64),
            ],
        );
    }
    mem.row(
        "value-store bytes/triple",
        vec![
            format!("{raw_vpt:.2}"),
            format!("{packed_vpt:.2}"),
            format!("{value_ratio:.2}x"),
        ],
    );
    mem.row(
        "total partition bytes/triple",
        vec![
            format!("{:.2}", raw_total_bytes as f64 / triples as f64),
            format!("{:.2}", packed_total_bytes as f64 / triples as f64),
            format!("{total_ratio:.2}x"),
        ],
    );
    mem.row(
        "total bytes/triple (with dictionary)",
        vec![
            format!("{:.2}", raw_all_bytes as f64 / triples as f64),
            format!("{:.2}", packed_all_bytes as f64 / triples as f64),
            format!("{:.2}x", raw_all_bytes as f64 / packed_all_bytes as f64),
        ],
    );
    mem.row(
        "compressed replicas",
        vec![String::new(), compressed.to_string(), String::new()],
    );

    // Phases 2 & 3 — probe throughput and byte identity. Fresh engines
    // so each side owns its representation end to end.
    let raw_cfg = EngineConfig {
        compress_replicas: false,
        cache: false,
        ..args.engine_config()
    };
    let packed_cfg = EngineConfig {
        compress_replicas: true,
        compress_min_values: MIN_VALUES,
        cache: false,
        ..args.engine_config()
    };
    let mut raw_engine = Parj::from_store(lubm_store(args.scale), raw_cfg);
    let mut packed_engine = Parj::from_store(lubm_store(args.scale), packed_cfg);
    assert_eq!(compressed_replicas(raw_engine.store()), 0);
    assert!(compressed_replicas(packed_engine.store()) > 0);

    let queries = lubm::queries();
    let thread_cols = [1usize, args.threads.max(2)];

    // Byte identity first: timing an engine that answers differently
    // would be measuring a bug.
    for q in &queries {
        for threads in thread_cols {
            let rows = |e: &mut Parj| {
                e.request(&q.sparql)
                    .threads(threads)
                    .ids_only()
                    .run()
                    .expect("benchmark query must run")
                    .ids
                    .expect("ids mode returns ids")
            };
            let raw_rows = rows(&mut raw_engine);
            let packed_rows = rows(&mut packed_engine);
            assert_eq!(
                raw_rows, packed_rows,
                "{} t={threads}: compressed rows diverged from raw",
                q.name
            );
        }
    }

    let mut probe = Table::new(
        format!(
            "Probe throughput — LUBM mix, avg of {} runs (cache off, \
             adaptive strategy, {} decode)",
            args.runs,
            if parj_store::simd_active() { "SIMD" } else { "scalar" }
        ),
        &[
            "raw 1T (ms)",
            "packed 1T (ms)",
            "raw MT (ms)",
            "packed MT (ms)",
        ],
    );
    let mut per_query = Vec::new();
    let mut total_rows = 0u64;
    let mut raw_mt_ms_sum = 0.0f64;
    let mut packed_mt_ms_sum = 0.0f64;
    for q in &queries {
        let mut cells = Vec::new();
        let mut entry = serde_json::Map::new();
        entry.insert("query".into(), json!(q.name));
        let count = raw_engine
            .request(&q.sparql)
            .threads(1)
            .count_only()
            .run()
            .expect("count runs")
            .count;
        total_rows += count * args.runs as u64;
        entry.insert("rows".into(), json!(count));
        for (label, threads) in [("1t", thread_cols[0]), ("mt", thread_cols[1])] {
            for (side, engine) in [("raw", &mut raw_engine), ("packed", &mut packed_engine)] {
                let m = measure_ms(args.runs, || {
                    engine
                        .request(&q.sparql)
                        .threads(threads)
                        .count_only()
                        .run()
                        .expect("benchmark query must run");
                });
                let ms = m.avg_ms;
                cells.push(crate::report::fmt_ms(ms));
                entry.insert(format!("{side}_{label}_ms"), json!(ms));
                if label == "mt" {
                    if side == "raw" {
                        raw_mt_ms_sum += ms;
                    } else {
                        packed_mt_ms_sum += ms;
                    }
                }
            }
        }
        probe.row(&q.name, cells);
        per_query.push(serde_json::Value::Object(entry));
    }
    probe.separator();
    probe.row(
        "**mix total (MT)**",
        vec![
            String::new(),
            String::new(),
            crate::report::fmt_ms(raw_mt_ms_sum),
            crate::report::fmt_ms(packed_mt_ms_sum),
        ],
    );

    (
        vec![mem, probe],
        json!({
            "experiment": "compress", "dataset": "lubm", "scale": args.scale,
            "git_sha": sha,
            "triples": triples,
            "block_len": parj_store::BLOCK_LEN,
            "compress_min_values": MIN_VALUES,
            "simd_active": parj_store::simd_active(),
            "memory": {
                "raw_value_bytes": raw_value_bytes,
                "packed_value_bytes": packed_value_bytes,
                "raw_total_bytes": raw_total_bytes,
                "packed_total_bytes": packed_total_bytes,
                "raw_value_bytes_per_triple": raw_vpt,
                "packed_value_bytes_per_triple": packed_vpt,
                "raw_bytes_per_triple_with_dict": raw_all_bytes as f64 / triples as f64,
                "packed_bytes_per_triple_with_dict": packed_all_bytes as f64 / triples as f64,
                "value_compression_ratio": value_ratio,
                "total_compression_ratio": total_ratio,
                "unit_replicas": raw_unit.replicas,
                "unit_values": raw_unit.values,
                "unit_packed_value_bytes": packed_unit.bytes,
                "run_replicas": raw_run.replicas,
                "run_values": raw_run.values,
                "run_packed_value_bytes": packed_run.bytes,
                "compressed_replicas": compressed,
                "bar": "value-store ratio >= 2.0 (asserted)",
            },
            "probe": {
                "runs": args.runs,
                "threads_multi": thread_cols[1],
                "rows_checked_identical": true,
                "raw_mix_total_mt_ms": raw_mt_ms_sum,
                "packed_mix_total_mt_ms": packed_mt_ms_sum,
                "approx_total_rows_counted": total_rows,
                "per_query": per_query,
            },
        }),
    )
}
