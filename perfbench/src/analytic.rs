//! `lubm-analytic`: LUBM-60, one closed-loop client running the heavy
//! queries in silent mode at `threads` = nproc with the cache off. The
//! executor, the packed codec and the morsel pool do nearly all the
//! work here.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use parj_core::Parj;
use parj_datagen::{lubm, NamedQuery};

use crate::data::{self, SetupTimes};
use crate::layers::{self, Layers};
use crate::record::{Outcome, Stamp};
use crate::stats::{ratio, Lanes, Rng};
use crate::trace::Trace;
use crate::Args;

pub struct Config {
    pub universities: usize,
    pub setup_reps: usize,
    pub queries: &'static [&'static str],
}

impl Config {
    pub fn standard() -> Config {
        Config {
            universities: 60,
            setup_reps: 3,
            queries: &["LUBM1", "LUBM2", "LUBM3", "LUBM7", "LUBM9", "LUBM10"],
        }
    }
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Runs whole cycles over the query mix, from a seeded start offset,
/// until `budget` has passed (at least one cycle). Every answer is
/// checked. With a trace, every other cycle is traced.
pub fn drive(
    engine: &mut Parj,
    queries: &[NamedQuery],
    expected: &BTreeMap<String, u64>,
    offset: usize,
    budget: Duration,
    mut trace: Option<&mut Trace>,
) -> Lanes {
    let mut lanes = Lanes::default();
    let start = Instant::now();
    let mut request = 0u64;
    for cycle in 0.. {
        let cycle_start = Instant::now();
        let traced = trace.is_some() && cycle % 2 == 1;
        for i in 0..queries.len() {
            let q = &queries[(offset + i) % queries.len()];
            request += 1;
            let span_start = trace.as_ref().map_or(0, |t| t.now());
            let t0 = Instant::now();
            let result = engine.request(&q.sparql).count_only().run();
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            if let (true, Some(tr)) = (traced, trace.as_deref_mut()) {
                let root = tr.span("query", 0, request, span_start, tr.now());
                if let Ok(out) = &result {
                    tr.query_phases(root, request, span_start, &out.stats);
                }
            }
            let ok = matches!(&result, Ok(out) if out.count == expected[&q.name]);
            let lane = lanes.lane(traced);
            lane.record(&q.name, ms, ok);
            lane.iteration(&q.name, t0.elapsed().as_secs_f64() * 1e3);
        }
        let n = u32::try_from(queries.len()).expect("a short query mix");
        lanes
            .lane(traced)
            .unit(n, cycle_start.elapsed().as_secs_f64());
        if start.elapsed() >= budget {
            break;
        }
    }
    lanes
}

pub fn run(args: &Args, cfg: &Config) -> Outcome {
    let mut rng = Rng::new(args.seed);
    let lubm_cfg = data::lubm_config(cfg.universities, args.seed);
    let queries = data::pick(lubm::queries(), cfg.queries);
    let text = data::lubm_text(&lubm_cfg);
    let expected = data::expected_counts(&lubm::generate_store(&lubm_cfg), &queries);

    let epoch = Instant::now();
    let mut trace = args.trace.then(|| Trace::new(epoch, 0));
    let make = || Parj::builder().threads(nproc()).cache(false).build();
    let mut times = SetupTimes::default();
    let mut engine: Option<Parj> = None;
    for _ in 0..cfg.setup_reps {
        drop(engine.take()); // free the previous engine before timing the next
        let t0 = Instant::now();
        let e = data::load(&make, &text, &mut times, trace.as_mut());
        times.total_s.push(t0.elapsed().as_secs_f64());
        engine = Some(e);
    }
    let mut engine = engine.expect("at least one set-up");
    drop(text);

    // Warm the pool and caches of the process; not counted.
    let offset = rng.below(queries.len());
    let warm = drive(
        &mut engine,
        &queries,
        &expected,
        offset,
        Duration::ZERO,
        None,
    );
    let budget = Duration::from_secs(args.seconds);
    let mut layers = Layers::default();
    let before = engine.metrics_snapshot();
    let lanes = drive(
        &mut engine,
        &queries,
        &expected,
        offset,
        budget,
        trace.as_mut(),
    );
    let after = engine.metrics_snapshot();
    if let Some(tr) = &trace {
        layers::engine_deltas(&mut layers, &before, &after);
        layers.set("trace.overhead_ratio", lanes.overhead_ratio());
        layers.set(
            "trace.unattributed_share",
            tr.unattributed_share(&["query"]),
        );
        layers::loader(&mut layers, &times);
        layers::store_sizes(&mut layers, engine.store());
        crate::kernels::probe(&mut layers, engine.store(), &queries, &mut rng);
    }
    // End-to-end numbers come from untraced queries only.
    let samples = &lanes.plain;

    let store = engine.store();
    let bytes_per_triple = ratio(
        store.total_memory_bytes() as f64,
        store.num_triples() as f64,
    );
    let e2e = samples.end_to_end(times.median_s(), bytes_per_triple);

    let mut counts = vec![
        ("warmup_queries".to_string(), warm.attempted()),
        ("setup_reps".to_string(), times.total_s.len() as u64),
    ];
    samples.describe(&mut counts);
    Outcome {
        attempted: lanes.attempted() + warm.attempted(),
        failed: lanes.failed() + warm.failed(),
        failed_checks: Vec::new(),
        end_to_end: e2e,
        reported: samples.reported(),
        per_layer: layers,
        samples: counts,
        stamp: Stamp::new(
            format!("LUBM-{} seed {}", cfg.universities, args.seed),
            times.triples,
            *engine.config(),
            1,
        ),
        trace,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Config {
        Config {
            universities: 1,
            setup_reps: 1,
            queries: &["LUBM1", "LUBM2", "LUBM9"],
        }
    }

    #[test]
    fn wrong_expected_answer_raises_the_error_ratio() {
        let cfg = data::lubm_config(1, 5);
        let queries = data::pick(lubm::queries(), small().queries);
        let mut expected = data::expected_counts(&lubm::generate_store(&cfg), &queries);
        let mut engine = Parj::builder().threads(2).build();
        engine
            .load_ntriples_str(&data::lubm_text(&cfg))
            .expect("loads");
        let good = drive(&mut engine, &queries, &expected, 0, Duration::ZERO, None);
        assert_eq!((good.attempted(), good.failed()), (3, 0));
        *expected.get_mut("LUBM2").expect("present") += 1;
        let bad = drive(&mut engine, &queries, &expected, 0, Duration::ZERO, None);
        assert_eq!((bad.attempted(), bad.failed()), (3, 1));
    }

    #[test]
    fn traced_run_reports_layers() {
        let args = Args {
            workload: "lubm-analytic".into(),
            seed: 1,
            seconds: 1,
            trace: true,
        };
        let out = run(&args, &small());
        assert_eq!(out.failed, 0);
        let get = |n: &str| out.per_layer.0.get(n).copied().unwrap_or(0.0);
        assert!(get("engine.execute_us") > 0.0);
        assert!(get("join.group_probes") > 0.0);
        assert!(get("store.contains_ns") > 0.0);
        assert!(get("trace.overhead_ratio") > 0.0);
        assert_eq!(out.end_to_end.0.len(), crate::layers::END_TO_END.len());
    }
}
