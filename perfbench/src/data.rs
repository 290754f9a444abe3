//! Seeded inputs, the independent answer oracle, and the timed set-up.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::Instant;

use parj_baseline::{BaselineEngine, HashJoinEngine};
use parj_core::{Parj, Term};
use parj_datagen::{lubm, watdiv, NamedQuery};
use parj_join::Atom;
use parj_optimizer::Pattern;
use parj_sparql::{parse_query, STerm};
use parj_store::TripleStore;

use crate::stats::median;
use crate::trace::Trace;

pub fn lubm_config(universities: usize, seed: u64) -> lubm::LubmConfig {
    lubm::LubmConfig { universities, seed }
}

pub fn watdiv_config(scale: usize, seed: u64) -> watdiv::WatDivConfig {
    watdiv::WatDivConfig { scale, seed }
}

/// The generated dataset as N-Triples text: what the engine loads.
pub fn lubm_text(cfg: &lubm::LubmConfig) -> String {
    let mut out = Vec::new();
    lubm::write_ntriples(cfg, &mut out).expect("writing to memory cannot fail");
    String::from_utf8(out).expect("generated N-Triples are UTF-8")
}

pub fn watdiv_text(cfg: &watdiv::WatDivConfig) -> String {
    let mut out = Vec::new();
    watdiv::generate(cfg, |s, p, o| {
        writeln!(out, "{s} {p} {o} .").expect("writing to memory cannot fail");
    });
    String::from_utf8(out).expect("generated N-Triples are UTF-8")
}

/// The named queries among `all`, in the order of `names`.
pub fn pick(all: Vec<NamedQuery>, names: &[&str]) -> Vec<NamedQuery> {
    names
        .iter()
        .map(|n| {
            all.iter()
                .find(|q| q.name == *n)
                .unwrap_or_else(|| panic!("query {n} is not in the generator's set"))
                .clone()
        })
        .collect()
}

/// Encodes a BGP against `store`'s dictionary, ordered so each pattern
/// shares a variable with the ones before it (no cross products in the
/// baseline's pipeline). `None` when a constant is absent from the
/// data, which makes the answer empty.
fn encode_bgp(store: &TripleStore, sparql: &str) -> Option<Vec<Pattern>> {
    let parsed = parse_query(sparql).expect("benchmark queries parse");
    assert!(
        !parsed.distinct
            && parsed.limit.is_none()
            && parsed.offset.is_none()
            && parsed.branches.len() == 1,
        "the oracle counts plain BGP solutions"
    );
    let dict = store.dict();
    let mut names: Vec<String> = Vec::new();
    let mut var = |n: &str| -> u16 {
        let i = names.iter().position(|x| x == n).unwrap_or_else(|| {
            names.push(n.to_string());
            names.len() - 1
        });
        u16::try_from(i).expect("few variables")
    };
    let mut atom = |t: &STerm| -> Option<Atom> {
        Some(match t {
            STerm::Var(v) => Atom::Var(var(v)),
            STerm::Term(t) => Atom::Const(dict.resource_id(t)?),
        })
    };
    let mut pending = Vec::new();
    for p in &parsed.patterns {
        let STerm::Term(pred) = &p.p else {
            panic!("the oracle needs constant predicates");
        };
        pending.push(Pattern {
            s: atom(&p.s)?,
            p: dict.predicate_id(pred)?,
            o: atom(&p.o)?,
        });
    }
    let vars = |p: &Pattern| {
        [p.s, p.o]
            .into_iter()
            .filter_map(|a| if let Atom::Var(v) = a { Some(v) } else { None })
            .collect::<Vec<_>>()
    };
    let mut ordered: Vec<Pattern> = Vec::new();
    let mut bound: Vec<u16> = Vec::new();
    while !pending.is_empty() {
        let next = pending
            .iter()
            .position(|p| vars(p).iter().any(|v| bound.contains(v)))
            .unwrap_or(0);
        let p = pending.remove(next);
        bound.extend(vars(&p));
        ordered.push(p);
    }
    Some(ordered)
}

/// Expected solution counts from the hash-join baseline over a store
/// built straight from the generator (no N-Triples parsing, no replica
/// compression, no PARJ executor), keyed by query name.
pub fn expected_counts(store: &TripleStore, queries: &[NamedQuery]) -> BTreeMap<String, u64> {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let engine = HashJoinEngine::parallel(threads);
    queries
        .iter()
        .map(|q| {
            let n = encode_bgp(store, &q.sparql).map_or(0, |pats| engine.run_count(store, &pats));
            (q.name.clone(), n)
        })
        .collect()
}

/// Set-up timings: every repetition's load and finalize, in seconds.
#[derive(Debug, Default)]
pub struct SetupTimes {
    pub total_s: Vec<f64>,
    pub parse_encode_s: Vec<f64>,
    pub finalize_s: Vec<f64>,
    pub triples: usize,
}

impl SetupTimes {
    pub fn median_s(&self) -> f64 {
        median(&self.total_s)
    }
}

/// One set-up: parse `text` through `load_ntriples_str`, then
/// `finalize()`. Records both steps (and spans, when tracing).
pub fn load(
    make: &dyn Fn() -> Parj,
    text: &str,
    times: &mut SetupTimes,
    trace: Option<&mut Trace>,
) -> Parj {
    let t0 = Instant::now();
    let start_ns = trace.as_ref().map_or(0, |t| t.now());
    let mut engine = make();
    times.triples = engine
        .load_ntriples_str(text)
        .expect("generated N-Triples load");
    let t1 = Instant::now();
    engine.finalize();
    let t2 = Instant::now();
    let parse = (t1 - t0).as_secs_f64();
    let fin = (t2 - t1).as_secs_f64();
    times.parse_encode_s.push(parse);
    times.finalize_s.push(fin);
    if let Some(tr) = trace {
        let root = tr.span(
            "load",
            0,
            0,
            start_ns,
            start_ns + ((t2 - t0).as_nanos() as u64),
        );
        let mid = start_ns + (t1 - t0).as_nanos() as u64;
        tr.span("load.parse_encode", root, 0, start_ns, mid);
        tr.span(
            "load.finalize",
            root,
            0,
            mid,
            start_ns + (t2 - t0).as_nanos() as u64,
        );
    }
    engine
}

/// The N-Triples line of one triple.
pub fn nt_line(s: &Term, p: &Term, o: &Term) -> String {
    format!("{s} {p} {o} .\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_agrees_with_engine_on_small_lubm() {
        let cfg = lubm_config(1, 3);
        let store = lubm::generate_store(&cfg);
        let queries = lubm::queries();
        let want = expected_counts(&store, &queries);
        let mut engine = Parj::builder().threads(1).build();
        engine.load_ntriples_str(&lubm_text(&cfg)).expect("loads");
        for q in &queries {
            let got = engine
                .request(&q.sparql)
                .count_only()
                .run()
                .expect("runs")
                .count;
            assert_eq!(got, want[&q.name], "{}", q.name);
        }
    }
}
