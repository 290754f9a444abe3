//! `lubm-rw`: LUBM-60 through `SharedParj` with the cache on. One
//! closed-loop client runs a fixed, seeded sequence: reads (LUBM2, 4,
//! 5, 6, 8 and 9 as ids), then one mutation batch, repeated. Each batch
//! inserts new students (`memberOf`, `takesCourse`, `advisor`,
//! `rdf:type`) and deletes the `memberOf` of students inserted `lag`
//! epochs earlier. The sequence crosses the default compaction
//! threshold several times per run.
//!
//! A fixed operation count (not a time-bounded loop) is deliberate: it
//! repeats cache hits, misses and compactions exactly from run to run.

use std::collections::{BTreeMap, HashSet};
use std::time::Instant;

use parj_core::{MutationOutcome, Parj, SharedParj, Term, TripleStore};
use parj_datagen::lubm::{self, NS, RDF_TYPE};
use parj_datagen::NamedQuery;
use parj_store::SortOrder;

use crate::data::{self, SetupTimes};
use crate::layers::{self, Layers};
use crate::record::{Outcome, Stamp};
use crate::stats::{median, quantile, ratio, Rng, Samples};
use crate::trace::Trace;
use crate::Args;

pub struct Config {
    pub universities: usize,
    pub setup_reps: usize,
    /// Epochs (reads + one batch) per second of `--seconds`.
    pub epochs_per_second: usize,
    /// New students per batch.
    pub batch_students: usize,
    /// Epochs between a student's insertion and its `memberOf` delete.
    pub lag: usize,
    /// Extra reads per epoch after one read of each query; they repeat
    /// queries already read this epoch, so they hit the result cache.
    pub rereads: usize,
}

impl Config {
    pub fn standard() -> Config {
        Config {
            universities: 60,
            setup_reps: 3,
            epochs_per_second: 30,
            batch_students: 24,
            lag: 64,
            rereads: 2,
        }
    }
}

/// LUBM4 reads no written predicate: its cached answer must survive
/// every batch.
pub const READS: [&str; 6] = ["LUBM2", "LUBM4", "LUBM5", "LUBM6", "LUBM8", "LUBM9"];

fn iri(path: &str) -> Term {
    Term::iri(format!("{NS}{path}"))
}

/// One epoch of the sequence.
struct Epoch {
    /// Indexes into `READS`, with the answer count each must have.
    reads: Vec<(usize, u64)>,
    inserts: Vec<(Term, Term, Term)>,
    deletes: Vec<(Term, Term, Term)>,
}

/// A generated sequence and the final triples it leaves behind.
struct Sequence {
    epochs: Vec<Epoch>,
    /// N-Triples of the inserted triples still visible at the end.
    final_nt: String,
    /// The model's answer count per read query at the end.
    final_counts: [u64; 6],
}

/// What the generator knows about the base data, taken from the
/// independently built oracle store.
struct Knowledge {
    base_counts: [u64; 6],
    /// Courses each professor teaches, by professor IRI path.
    teaches: BTreeMap<String, Vec<String>>,
    universities: usize,
}

const PROFESSORS: [&str; 8] = ["fp0", "fp1", "ap0", "ap1", "ap2", "asp0", "asp1", "asp2"];

impl Knowledge {
    fn new(store: &TripleStore, universities: usize) -> Knowledge {
        let queries = data::pick(lubm::queries(), &READS);
        let counts = data::expected_counts(store, &queries);
        let mut base_counts = [0; 6];
        for (i, q) in READS.iter().enumerate() {
            base_counts[i] = counts[*q];
        }
        let dict = store.dict();
        let teacher_of = dict
            .predicate_id(&iri("teacherOf"))
            .expect("LUBM has teacherOf");
        let replica = store
            .replica(teacher_of, SortOrder::SO)
            .expect("teacherOf partition");
        let mut teaches = BTreeMap::new();
        for u in 0..universities {
            // Every university has at least 12 departments and every
            // department these eight professors (see the generator).
            for d in 0..12 {
                for p in PROFESSORS {
                    let path = format!("u{u}/d{d}/{p}");
                    let id = dict.resource_id(&iri(&path)).expect("professor exists");
                    let courses = replica
                        .group_for_key(id)
                        .iter()
                        .map(|c| match dict.decode_resource(c).expect("course decodes") {
                            Term::Iri(s) => s.strip_prefix(NS).expect("LUBM namespace").to_string(),
                            other => panic!("course {other} is not an IRI"),
                        })
                        .collect();
                    teaches.insert(path, courses);
                }
            }
        }
        Knowledge {
            base_counts,
            teaches,
            universities,
        }
    }

    /// The seeded sequence. The model tracks, per read query, how many
    /// answers the inserted students add: LUBM5 counts undergraduates
    /// that are members of u0/d0, LUBM9 counts courses a student takes
    /// from its own advisor. The other four queries need triples the
    /// batches never insert (degrees, e-mail, teaching assistants,
    /// faculty attributes), so their counts stay the base counts.
    fn sequence(&self, cfg: &Config, seed: u64, epochs: usize) -> Sequence {
        struct Student {
            iri: Term,
            dept: Term,
            l5: u64,
        }
        let mut rng = Rng::new(seed).fork(0x7277);
        let member_of = iri("memberOf");
        let (takes, advisor, rdf_type) = (iri("takesCourse"), iri("advisor"), Term::iri(RDF_TYPE));
        let mut extra = [0u64; 6];
        let mut students: Vec<Vec<Student>> = Vec::new();
        let mut visible: Vec<String> = Vec::new();
        let mut gone: HashSet<String> = HashSet::new();
        let mut out = Vec::with_capacity(epochs);
        for e in 0..epochs {
            let offset = rng.below(READS.len());
            let mut reads: Vec<usize> = (0..READS.len())
                .map(|i| (offset + i) % READS.len())
                .collect();
            for _ in 0..cfg.rereads {
                reads.push(rng.below(READS.len()));
            }
            let reads = reads
                .into_iter()
                .map(|q| (q, self.base_counts[q] + extra[q]))
                .collect();

            let mut inserts = Vec::new();
            let mut batch = Vec::new();
            for s in 0..cfg.batch_students {
                let (u, d) = if rng.below(8) == 0 {
                    (0, 0)
                } else {
                    (rng.below(self.universities), rng.below(12))
                };
                let undergrad = rng.below(4) != 0;
                let student = iri(&format!("u{u}/d{d}/pb{e}_{s}"));
                let dept = iri(&format!("u{u}/d{d}"));
                let prof = format!("u{u}/d{d}/{}", PROFESSORS[rng.below(PROFESSORS.len())]);
                let own = &self.teaches[&prof];
                let mut courses = Vec::new();
                if !own.is_empty() && rng.below(2) == 0 {
                    courses.push(own[rng.below(own.len())].clone());
                }
                while courses.len() < 2 {
                    let c = if rng.below(2) == 0 {
                        format!("u{u}/d{d}/c{}", rng.below(18))
                    } else {
                        format!("u{u}/d{d}/gc{}", rng.below(10))
                    };
                    if !courses.contains(&c) {
                        courses.push(c);
                    }
                }
                let l5 = u64::from(u == 0 && d == 0 && undergrad);
                extra[2] += l5;
                extra[5] += courses.iter().filter(|c| own.contains(c)).count() as u64;
                let class = if undergrad {
                    "UndergraduateStudent"
                } else {
                    "GraduateStudent"
                };
                inserts.push((student.clone(), rdf_type.clone(), iri(class)));
                inserts.push((student.clone(), member_of.clone(), dept.clone()));
                inserts.push((student.clone(), advisor.clone(), iri(&prof)));
                for c in &courses {
                    inserts.push((student.clone(), takes.clone(), iri(c)));
                }
                batch.push(Student {
                    iri: student,
                    dept,
                    l5,
                });
            }
            let mut deletes = Vec::new();
            if e >= cfg.lag {
                for s in &students[e - cfg.lag] {
                    extra[2] -= s.l5;
                    deletes.push((s.iri.clone(), member_of.clone(), s.dept.clone()));
                    gone.insert(data::nt_line(&s.iri, &member_of, &s.dept));
                }
            }
            visible.extend(inserts.iter().map(|(s, p, o)| data::nt_line(s, p, o)));
            students.push(batch);
            out.push(Epoch {
                reads,
                inserts,
                deletes,
            });
        }
        let final_nt = visible.into_iter().filter(|l| !gone.contains(l)).collect();
        let mut final_counts = self.base_counts;
        for (c, x) in final_counts.iter_mut().zip(extra) {
            *c += x;
        }
        Sequence {
            epochs: out,
            final_nt,
            final_counts,
        }
    }
}

/// What one pass over a sequence measured.
#[derive(Default)]
struct Pass {
    reads: Samples,
    write_ms: Vec<f64>,
    writes_failed: u64,
    phases: [f64; 4],
    compactions: u64,
    resident_bytes_max: usize,
    requests: u64,
}

impl Pass {
    fn attempted(&self) -> u64 {
        self.reads.attempted + self.write_ms.len() as u64
    }

    fn failed(&self) -> u64 {
        self.reads.failed + self.writes_failed
    }

    /// Runs one epoch, its reads then its batch: one closed-loop unit.
    fn epoch(
        &mut self,
        shared: &SharedParj,
        queries: &[NamedQuery],
        epoch: Epoch,
        mut trace: Option<&mut Trace>,
    ) -> Option<MutationOutcome> {
        let start = Instant::now();
        let reads = epoch.reads.len();
        for (q, want) in epoch.reads {
            self.requests += 1;
            let request = self.requests;
            let span_start = trace.as_ref().map_or(0, |t| t.now());
            let t0 = Instant::now();
            let result = shared.request(&queries[q].sparql).ids_only().run();
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            if let Some(tr) = trace.as_deref_mut() {
                let root = tr.span("read", 0, request, span_start, tr.now());
                if let Ok(out) = &result {
                    tr.query_phases(root, request, span_start, &out.stats);
                }
            }
            let ok = matches!(&result, Ok(out) if out.count == want);
            self.reads.record(READS[q], ms, ok);
            self.reads
                .iteration(READS[q], t0.elapsed().as_secs_f64() * 1e3);
        }
        self.requests += 1;
        let request = self.requests;
        let span_start = trace.as_ref().map_or(0, |t| t.now());
        let t0 = Instant::now();
        let result = shared
            .mutate()
            .insert_all(epoch.inserts)
            .delete_all(epoch.deletes)
            .run();
        self.write_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        match &result {
            Ok(out) => {
                if let Some(tr) = trace {
                    let root = tr.span("write", 0, request, span_start, tr.now());
                    tr.mutation_phases(root, request, span_start, &out.phases);
                }
                let p = out.phases;
                for (acc, v) in self.phases.iter_mut().zip([
                    p.encode_micros,
                    p.apply_micros,
                    p.compact_micros,
                    p.invalidate_micros,
                ]) {
                    *acc += v as f64;
                }
                self.compactions += out.compactions;
                self.resident_bytes_max = self.resident_bytes_max.max(out.delta_bytes);
            }
            Err(_) => self.writes_failed += 1,
        }
        let reads = u32::try_from(reads).expect("a short epoch");
        self.reads.unit(reads, start.elapsed().as_secs_f64());
        result.ok()
    }
}

/// Both lanes of a run and the store state it ends in.
#[derive(Default)]
struct Run {
    plain: Pass,
    traced: Pass,
    delta_bytes: usize,
    visible: usize,
}

/// Runs the sequence on one engine. With a trace, every other epoch is
/// traced: both lanes then see the same engine, process and host state,
/// so comparing them gives the tracing overhead.
fn drive(shared: &SharedParj, epochs: Vec<Epoch>, mut trace: Option<&mut Trace>) -> Run {
    let queries = data::pick(lubm::queries(), &READS);
    let mut run = Run::default();
    for (i, epoch) in epochs.into_iter().enumerate() {
        let out = match trace.as_deref_mut() {
            Some(tr) if i % 2 == 1 => run.traced.epoch(shared, &queries, epoch, Some(tr)),
            _ => run.plain.epoch(shared, &queries, epoch, None),
        };
        if let Some(out) = out {
            run.delta_bytes = out.delta_bytes;
            run.visible = out.visible_triples;
        }
    }
    run
}

/// Decoded rows as sorted N-Triples-style text, for comparing answers
/// across engines whose dictionaries number terms differently.
fn sorted_rows(engine: &mut Parj, sparql: &str) -> Option<Vec<String>> {
    let rows = engine.request(sparql).run().ok()?.rows?;
    let mut out: Vec<String> = rows
        .iter()
        .map(|r| {
            r.iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join(" ")
        })
        .collect();
    out.sort_unstable();
    Some(out)
}

/// End-of-run checks: the audit passes, and every read query answers
/// exactly what a fresh engine loaded from the base text plus the
/// applied batches answers (and what the model predicts).
fn verify(engine: &mut Parj, base_text: &str, seq_final: &Sequence) -> Vec<String> {
    let mut failed = Vec::new();
    let report = engine.audit();
    if !report.is_clean() {
        failed.push(format!("audit found violations: {report:?}"));
    }
    let mut fresh = Parj::new();
    fresh.load_ntriples_str(base_text).expect("base text loads");
    fresh
        .load_ntriples_str(&seq_final.final_nt)
        .expect("batch text loads");
    fresh.finalize();
    for (i, q) in data::pick(lubm::queries(), &READS).iter().enumerate() {
        let got = sorted_rows(engine, &q.sparql);
        let want = sorted_rows(&mut fresh, &q.sparql);
        if got.is_none() || got != want {
            failed.push(format!("{}: answer differs from a fresh engine's", q.name));
        }
        if want.map(|w| w.len() as u64) != Some(seq_final.final_counts[i]) {
            failed.push(format!(
                "{}: fresh engine disagrees with the model count",
                q.name
            ));
        }
    }
    failed
}

pub fn run(args: &Args, cfg: &Config) -> Outcome {
    let lubm_cfg = data::lubm_config(cfg.universities, args.seed);
    let text = data::lubm_text(&lubm_cfg);
    let knowledge = Knowledge::new(&lubm::generate_store(&lubm_cfg), cfg.universities);
    let epochs = cfg.epochs_per_second * args.seconds as usize;

    let epoch = Instant::now();
    let mut trace = args.trace.then(|| Trace::new(epoch, 0));
    let make = || Parj::builder().cache(true).build();
    let mut times = SetupTimes::default();
    let mut engine: Option<Parj> = None;
    for _ in 0..cfg.setup_reps {
        drop(engine.take()); // free the previous engine before timing the next
        let t0 = Instant::now();
        let e = data::load(&make, &text, &mut times, trace.as_mut());
        times.total_s.push(t0.elapsed().as_secs_f64());
        engine = Some(e);
    }
    let shared = SharedParj::new(engine.expect("at least one set-up"));

    let mut layers = Layers::default();
    let mut seq = knowledge.sequence(cfg, args.seed, epochs);
    let before = shared.metrics_snapshot();
    let run = drive(&shared, std::mem::take(&mut seq.epochs), trace.as_mut());
    let after = shared.metrics_snapshot();
    // End-to-end numbers come from the untraced epochs only.
    let pass = &run.plain;
    if let Some(tr) = &trace {
        let traced = &run.traced;
        // Registry deltas span both lanes; the per-query and per-batch
        // figures are the same work either way.
        layers::engine_deltas(&mut layers, &before, &after);
        layers.set(
            "trace.overhead_ratio",
            crate::stats::overhead_ratio(&pass.reads, &traced.reads),
        );
        layers.set(
            "trace.unattributed_share",
            tr.unattributed_share(&["read", "write"]),
        );
        // The batches' own phase timings do not depend on tracing: take
        // every batch of the sequence.
        let writes: Vec<f64> = pass
            .write_ms
            .iter()
            .chain(&traced.write_ms)
            .copied()
            .collect();
        let batches = writes.len() as f64;
        for (i, name) in [
            "delta.encode_us",
            "delta.apply_us",
            "delta.compact_us",
            "delta.invalidate_us",
        ]
        .into_iter()
        .enumerate()
        {
            layers.set(name, ratio(pass.phases[i] + traced.phases[i], batches));
        }
        layers.set(
            "delta.compactions",
            (pass.compactions + traced.compactions) as f64,
        );
        layers.set(
            "delta.resident_bytes_max",
            pass.resident_bytes_max.max(traced.resident_bytes_max) as f64,
        );
        layers.set("write.p50_ms", median(&writes));
        layers.set("write.p99_ms", quantile(&writes, 0.99));
        layers::loader(&mut layers, &times);
    }

    let mut engine = shared.into_inner();
    let config = *engine.config();
    let bytes = engine.store().total_memory_bytes() + run.delta_bytes;
    let bytes_per_triple = ratio(bytes as f64, run.visible as f64);
    if args.trace {
        let queries = data::pick(lubm::queries(), &READS);
        layers::store_sizes(&mut layers, engine.store());
        let mut rng = Rng::new(args.seed).fork(0x6b);
        crate::kernels::probe(&mut layers, engine.store(), &queries, &mut rng);
    }
    let failed_checks = verify(&mut engine, &text, &seq);

    let e2e = pass.reads.end_to_end(times.median_s(), bytes_per_triple);
    let mut reported = pass.reads.reported();
    reported.put("write_p50_ms", median(&pass.write_ms), "ms");
    reported.put("write_p99_ms", quantile(&pass.write_ms, 0.99), "ms");
    let mut counts = vec![
        ("setup_reps".to_string(), times.total_s.len() as u64),
        ("epochs".to_string(), pass.write_ms.len() as u64),
        (
            "write_samples_beyond_p99".to_string(),
            crate::stats::beyond(&pass.write_ms, 0.99),
        ),
        ("compactions".to_string(), pass.compactions),
    ];
    pass.reads.describe(&mut counts);
    Outcome {
        attempted: pass.attempted() + run.traced.attempted(),
        failed: pass.failed() + run.traced.failed(),
        failed_checks,
        end_to_end: e2e,
        reported,
        per_layer: layers,
        samples: counts,
        stamp: Stamp::new(
            format!("LUBM-{} seed {}", cfg.universities, args.seed),
            times.triples,
            config,
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
            epochs_per_second: 40,
            batch_students: 8,
            lag: 4,
            rereads: 2,
        }
    }

    #[test]
    fn sequence_answers_match_the_model_and_a_fresh_engine() {
        let args = Args {
            workload: "lubm-rw".into(),
            seed: 3,
            seconds: 1,
            trace: false,
        };
        let out = run(&args, &small());
        assert_eq!(out.failed, 0);
        assert!(out.failed_checks.is_empty(), "{:?}", out.failed_checks);
    }

    #[test]
    fn wrong_expected_answer_raises_the_error_ratio() {
        let cfg = small();
        let lubm_cfg = data::lubm_config(1, 4);
        let knowledge = Knowledge::new(&lubm::generate_store(&lubm_cfg), 1);
        let mut engine = Parj::builder().cache(true).build();
        engine
            .load_ntriples_str(&data::lubm_text(&lubm_cfg))
            .expect("loads");
        let shared = SharedParj::new(engine);
        let mut seq = knowledge.sequence(&cfg, 4, 6);
        seq.epochs[3].reads[0].1 += 1;
        let run = drive(&shared, seq.epochs, None);
        assert_eq!(run.plain.reads.failed, 1);
    }
}
