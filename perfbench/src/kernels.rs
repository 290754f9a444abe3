//! Micro-kernel probes for the traced run: `Group::contains`,
//! `Group::decode_into` and `adaptive_search`, timed on seeded samples
//! from the replicas the workload's queries touch.

use std::hint::black_box;
use std::time::Instant;

use parj_core::{CalibrationResult, ProbeStrategy, SearchStats, TripleStore};
use parj_datagen::NamedQuery;
use parj_join::{adaptive_search, ThresholdTable};
use parj_sparql::{parse_query, STerm};
use parj_store::{Replica, SortOrder};

use crate::layers::Layers;
use crate::stats::{ratio, Rng};

/// Groups sampled per replica.
const GROUPS_PER_REPLICA: usize = 256;
/// Keys searched per replica and pass.
const SEARCHES_PER_REPLICA: usize = 512;
/// Passes over the samples; the timings are totals over all of them.
const PASSES: usize = 20;

/// Both replicas of every predicate the queries name.
fn touched(store: &TripleStore, queries: &[NamedQuery]) -> Vec<(u32, SortOrder)> {
    let mut out = Vec::new();
    for q in queries {
        let parsed = parse_query(&q.sparql).expect("benchmark queries parse");
        for p in &parsed.patterns {
            let STerm::Term(t) = &p.p else { continue };
            let Some(pid) = store.dict().predicate_id(t) else {
                continue;
            };
            for order in [SortOrder::SO, SortOrder::OS] {
                if !out.contains(&(pid, order)) {
                    out.push((pid, order));
                }
            }
        }
    }
    out
}

pub fn probe(layers: &mut Layers, store: &TripleStore, queries: &[NamedQuery], rng: &mut Rng) {
    let replicas: Vec<(u32, SortOrder, &Replica)> = touched(store, queries)
        .into_iter()
        .filter_map(|(p, o)| store.replica(p, o).map(|r| (p, o, r)))
        .filter(|(_, _, r)| r.num_keys() > 0)
        .collect();

    // Group samples: (replica, position, a member, a probe that may miss).
    let mut samples = Vec::new();
    for (i, (_, _, r)) in replicas.iter().enumerate() {
        for _ in 0..GROUPS_PER_REPLICA {
            let pos = rng.below(r.num_keys());
            let g = r.group_at(pos);
            let member = g
                .iter()
                .nth(rng.below(g.len()))
                .expect("groups are non-empty");
            let other = member.wrapping_add(1 + rng.below(64) as u32);
            samples.push((i, pos, member, other));
        }
    }

    let t = Instant::now();
    let mut hits = 0u64;
    for _ in 0..PASSES {
        for &(i, pos, member, other) in &samples {
            let g = replicas[i].2.group_at(pos);
            hits += u64::from(g.contains(black_box(member)));
            hits += u64::from(g.contains(black_box(other)));
        }
    }
    black_box(hits);
    let calls = (PASSES * samples.len() * 2) as f64;
    layers.set(
        "store.contains_ns",
        ratio(t.elapsed().as_nanos() as f64, calls),
    );

    let mut buf = Vec::new();
    let mut values = 0usize;
    let t = Instant::now();
    for _ in 0..PASSES {
        for &(i, pos, _, _) in &samples {
            buf.clear();
            replicas[i].2.group_at(pos).decode_into(&mut buf);
            values += buf.len();
            black_box(&buf);
        }
    }
    layers.set(
        "store.decode_ns_per_value",
        ratio(t.elapsed().as_nanos() as f64, values as f64),
    );

    // Ascending probe keys, as the executor's driver feeds them: sampled
    // keys mixed with values that fall between keys.
    let thresholds = ThresholdTable::from_calibration(store, &CalibrationResult::paper_defaults());
    let mut searches = Vec::new();
    for (p, o, r) in &replicas {
        let keys = r.keys();
        let mut probes: Vec<u32> = (0..SEARCHES_PER_REPLICA)
            .map(|_| {
                let k = keys[rng.below(keys.len())];
                if rng.below(4) == 0 {
                    k.wrapping_add(1)
                } else {
                    k
                }
            })
            .collect();
        probes.sort_unstable();
        searches.push((keys, probes, thresholds.get(*p, *o).binary, r.idpos()));
    }
    let mut stats = SearchStats::new();
    let t = Instant::now();
    let mut found = 0u64;
    for _ in 0..PASSES {
        for (keys, probes, threshold, index) in &searches {
            let mut cursor = 0usize;
            for &v in probes {
                let hit = adaptive_search(
                    keys,
                    black_box(v),
                    &mut cursor,
                    *threshold,
                    ProbeStrategy::AdaptiveBinary,
                    *index,
                    &mut stats,
                );
                found += u64::from(hit.is_some());
            }
        }
    }
    black_box(found);
    let n = (PASSES * searches.len() * SEARCHES_PER_REPLICA) as f64;
    layers.set(
        "join.adaptive_search_ns",
        ratio(t.elapsed().as_nanos() as f64, n),
    );
}
