//! `watdiv-serve`: WatDiv scale 100 behind `ParjServer` on loopback,
//! two closed-loop HTTP clients cycling through 17 basic-workload
//! queries, answers fully decoded to SPARQL-JSON. Per-request layers
//! (HTTP, admission, serialisation, decode, prepare) dominate here.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use parj_core::{Parj, SharedParj};
use parj_datagen::watdiv;
use parj_server::{ParjServer, ServerConfig, ServerHandle};

use crate::data::{self, SetupTimes};
use crate::http;
use crate::layers::{self, histogram, Layers};
use crate::record::{Outcome, Stamp};
use crate::stats::{ratio, Lanes, Rng, Samples};
use crate::trace::Trace;
use crate::Args;

pub struct Config {
    pub scale: usize,
    pub setup_reps: usize,
    pub clients: usize,
    pub queries: &'static [&'static str],
}

impl Config {
    pub fn standard() -> Config {
        Config {
            scale: 100,
            setup_reps: 5,
            clients: 2,
            // F5, C1 and C3 return 10^4-10^5 rows or run 20-150 ms: they
            // would make this a second analytic workload.
            queries: &[
                "L1", "L2", "L3", "L4", "L5", "S1", "S2", "S3", "S4", "S5", "S6", "S7", "F1", "F2",
                "F3", "F4", "C2",
            ],
        }
    }
}

/// One query as the clients send it.
struct Target {
    name: String,
    path: String,
    rows: u64,
}

/// What the clients saw.
#[derive(Default)]
struct ClientRun {
    lanes: Lanes,
    response_bytes: u64,
    trace: Option<Trace>,
}

/// Closed-loop clients until `budget` has passed. Each client sends
/// every query once per cycle, in a fresh seeded order each cycle: in a
/// fixed order the clients would stay phase-locked, and which queries
/// overlap would depend on the seed. Each answer's status and row count
/// are checked. With a trace epoch, every other cycle is traced.
fn drive(
    addr: SocketAddr,
    targets: &[Target],
    clients: &[Rng],
    budget: Duration,
    epoch: Option<Instant>,
) -> ClientRun {
    let start = Instant::now();
    let runs: Vec<ClientRun> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter()
            .cloned()
            .enumerate()
            .map(|(c, mut rng)| {
                s.spawn(move || {
                    let mut run = ClientRun {
                        trace: epoch.map(|e| Trace::new(e, c as u64 + 1)),
                        ..ClientRun::default()
                    };
                    let mut order: Vec<usize> = Vec::new();
                    let mut cycle = 0usize;
                    let mut request = 0u64;
                    while start.elapsed() < budget {
                        if order.is_empty() {
                            order = (0..targets.len()).collect();
                            for k in (1..order.len()).rev() {
                                order.swap(k, rng.below(k + 1));
                            }
                            cycle += 1;
                        }
                        let t = &targets[order.pop().expect("refilled above")];
                        request += 1;
                        let traced = epoch.is_some() && cycle.is_multiple_of(2);
                        let span_start = run.trace.as_ref().map_or(0, Trace::now);
                        let t0 = Instant::now();
                        let reply = http::get(addr, &t.path);
                        let ms = t0.elapsed().as_secs_f64() * 1e3;
                        let reply = reply.unwrap_or_default();
                        if let (true, Some(tr)) = (traced, run.trace.as_mut()) {
                            let end = span_start + (ms * 1e6) as u64;
                            let root = tr.span("request", 0, request, span_start, end);
                            let mut at = span_start;
                            for (name, until) in [
                                ("http.send", reply.sent_ns),
                                ("http.wait", reply.first_byte_ns),
                                ("http.read", reply.received_ns),
                                ("client.count_rows", reply.parsed_ns),
                            ] {
                                let until = span_start + until;
                                if until > at {
                                    tr.span(name, root, request, at, until);
                                    at = until;
                                }
                            }
                        }
                        run.response_bytes += reply.bytes as u64;
                        let ok = reply.status == 200 && reply.rows == Some(t.rows);
                        let lane = run.lanes.lane(traced);
                        lane.record(&t.name, ms, ok);
                        let iteration = t0.elapsed().as_secs_f64();
                        lane.iteration(&t.name, iteration * 1e3);
                        lane.unit(1, iteration);
                    }
                    run
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client threads do not panic"))
            .collect()
    });
    let mut all = ClientRun::default();
    for r in runs {
        all.lanes.plain.absorb(r.lanes.plain);
        all.lanes.traced.absorb(r.lanes.traced);
        all.response_bytes += r.response_bytes;
        match (&mut all.trace, r.trace) {
            (Some(t), Some(other)) => t.absorb(other),
            (slot @ None, other) => *slot = other,
            _ => {}
        }
    }
    all
}

fn spawn(engine: &Arc<SharedParj>, clients: usize) -> ServerHandle {
    ParjServer::spawn(
        Arc::clone(engine),
        ServerConfig {
            // Permits at least the client count: nothing sheds.
            permits: 2 * clients,
            max_connections: 64,
            ..ServerConfig::default()
        },
    )
    .expect("bind an ephemeral loopback port")
}

/// The engine back from a shut-down server. Connection threads drop
/// their handle on the server state just after the drain counts them
/// as finished, so the last references can linger for a moment.
fn reclaim(mut shared: Arc<SharedParj>) -> SharedParj {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match Arc::try_unwrap(shared) {
            Ok(engine) => return engine,
            Err(back) if Instant::now() < deadline => {
                shared = back;
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(_) => panic!("the server did not release its engine handle"),
        }
    }
}

pub fn run(args: &Args, cfg: &Config) -> Outcome {
    let mut rng = Rng::new(args.seed);
    let wcfg = data::watdiv_config(cfg.scale, args.seed);
    let queries = data::pick(watdiv::basic_workload(), cfg.queries);
    let text = data::watdiv_text(&wcfg);
    let expected = data::expected_counts(&watdiv::generate_store(&wcfg), &queries);
    let targets: Vec<Target> = queries
        .iter()
        .map(|q| Target {
            name: q.name.clone(),
            path: format!("/sparql?query={}", http::urlencode(&q.sparql)),
            rows: expected[&q.name],
        })
        .collect();

    let epoch = Instant::now();
    let mut load_trace = args.trace.then(|| Trace::new(epoch, 0));
    let make = Parj::new;
    let mut times = SetupTimes::default();
    let mut serving: Option<(Arc<SharedParj>, ServerHandle)> = None;
    let mut config = None;
    let mut failed_checks = Vec::new();
    for _ in 0..cfg.setup_reps {
        if let Some((_, mut old)) = serving.take() {
            old.shutdown();
        }
        let t0 = Instant::now();
        let engine = data::load(&make, &text, &mut times, load_trace.as_mut());
        config = Some(*engine.config());
        let shared = Arc::new(SharedParj::new(engine));
        let server = spawn(&shared, cfg.clients);
        times.total_s.push(t0.elapsed().as_secs_f64());
        serving = Some((shared, server));
    }
    let (shared, mut server) = serving.expect("at least one set-up");
    drop(text);
    let addr = server.addr();

    let clients: Vec<Rng> = (0..cfg.clients as u64).map(|c| rng.fork(c)).collect();
    // One warm pass over every query; checked, not timed.
    let mut warm = Samples::default();
    for t in &targets {
        let reply = http::get(addr, &t.path).unwrap_or_default();
        warm.record(
            &t.name,
            0.0,
            reply.status == 200 && reply.rows == Some(t.rows),
        );
    }
    let budget = Duration::from_secs(args.seconds);
    let mut layers = Layers::default();
    let (e0, s0) = (shared.metrics_snapshot(), server.metrics().snapshot());
    let run = drive(
        addr,
        &targets,
        &clients,
        budget,
        load_trace.is_some().then_some(epoch),
    );
    let (e1, s1) = (shared.metrics_snapshot(), server.metrics().snapshot());
    let trace = load_trace.map(|mut tr| {
        layers::engine_deltas(&mut layers, &e0, &e1);
        let delta = |a: (u64, u64), b: (u64, u64)| {
            (
                b.0.saturating_sub(a.0) as f64,
                b.1.saturating_sub(a.1) as f64,
            )
        };
        let (req_sum, req_n) = delta(
            histogram(&s0, "parj_server_request_micros"),
            histogram(&s1, "parj_server_request_micros"),
        );
        let (eng_sum, eng_n) = delta(
            histogram(&e0, "parj_query_duration_micros"),
            histogram(&e1, "parj_query_duration_micros"),
        );
        let request_us = ratio(req_sum, req_n);
        let n = run.lanes.attempted() as f64;
        let round_trip_us = [&run.lanes.plain, &run.lanes.traced]
            .iter()
            .flat_map(|l| &l.all_ms)
            .sum::<f64>()
            * 1e3;
        layers.set("server.request_us", request_us);
        layers.set("server.self_us", request_us - ratio(eng_sum, eng_n));
        layers.set(
            "server.client_overhead_us",
            ratio(round_trip_us, n) - request_us,
        );
        layers.set("server.response_bytes", ratio(run.response_bytes as f64, n));
        let shed =
            |s: &parj_core::MetricsSnapshot| s.value("parj_server_shed_total", &[]).unwrap_or(0);
        layers.set("server.shed", shed(&s1).saturating_sub(shed(&s0)) as f64);
        layers.set("trace.overhead_ratio", run.lanes.overhead_ratio());
        let spans = run.trace.expect("traced clients record spans");
        layers.set(
            "trace.unattributed_share",
            spans.unattributed_share(&["request"]),
        );
        tr.absorb(spans);
        layers::loader(&mut layers, &times);
        tr
    });
    // End-to-end numbers come from untraced requests only.
    let samples = &run.lanes.plain;

    let report = server.shutdown();
    if report.leaked != 0 {
        failed_checks.push(format!(
            "server leaked {} in-flight queries at shutdown",
            report.leaked
        ));
    }
    drop(server);
    let mut engine = reclaim(shared).into_inner();
    let store = engine.store();
    let bytes_per_triple = ratio(
        store.total_memory_bytes() as f64,
        store.num_triples() as f64,
    );
    if args.trace {
        layers::store_sizes(&mut layers, store);
        crate::kernels::probe(&mut layers, store, &queries, &mut rng);
    }

    let e2e = samples.end_to_end(times.median_s(), bytes_per_triple);
    let mut counts = vec![
        ("warmup_requests".to_string(), warm.attempted),
        ("setup_reps".to_string(), times.total_s.len() as u64),
    ];
    samples.describe(&mut counts);
    Outcome {
        attempted: run.lanes.attempted() + warm.attempted,
        failed: run.lanes.failed() + warm.failed,
        failed_checks,
        end_to_end: e2e,
        reported: samples.reported(),
        per_layer: layers,
        samples: counts,
        stamp: Stamp::new(
            format!("WatDiv-{} seed {}", cfg.scale, args.seed),
            times.triples,
            config.expect("at least one set-up"),
            cfg.clients,
        ),
        trace,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Config {
        Config {
            scale: 2,
            setup_reps: 1,
            ..Config::standard()
        }
    }

    #[test]
    fn traced_run_checks_every_response() {
        let args = Args {
            workload: "watdiv-serve".into(),
            seed: 2,
            seconds: 1,
            trace: true,
        };
        let out = run(&args, &small());
        assert_eq!(out.failed, 0);
        assert!(out.failed_checks.is_empty(), "{:?}", out.failed_checks);
        let get = |n: &str| out.per_layer.0.get(n).copied().unwrap_or(0.0);
        assert!(get("server.request_us") > 0.0);
        assert!(get("server.response_bytes") > 0.0);
        assert_eq!(get("server.shed"), 0.0);
    }

    #[test]
    fn wrong_expected_row_count_raises_the_error_ratio() {
        let wcfg = data::watdiv_config(2, 6);
        let queries = data::pick(watdiv::basic_workload(), &["L2", "S1"]);
        let expected = data::expected_counts(&watdiv::generate_store(&wcfg), &queries);
        let mut engine = Parj::new();
        engine
            .load_ntriples_str(&data::watdiv_text(&wcfg))
            .expect("loads");
        let shared = Arc::new(SharedParj::new(engine));
        let mut server = spawn(&shared, 1);
        let targets: Vec<Target> = queries
            .iter()
            .map(|q| Target {
                name: q.name.clone(),
                path: format!("/sparql?query={}", http::urlencode(&q.sparql)),
                rows: expected[&q.name] + u64::from(q.name == "S1"),
            })
            .collect();
        let run = drive(
            server.addr(),
            &targets,
            &[Rng::new(6)],
            Duration::from_millis(50),
            None,
        );
        server.shutdown();
        assert!(run.lanes.failed() > 0);
        assert!(run.lanes.failed() < run.lanes.attempted());
    }
}
