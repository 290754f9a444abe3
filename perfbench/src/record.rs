//! The run record: the metrics a run measured, its run stamp, and the
//! JSON lines it prints.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use parj_core::EngineConfig;

use crate::layers::Layers;
use crate::trace::Trace;
use crate::Args;

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Builds the metric list a workload reports, in order.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value: if value.is_finite() { value } else { 0.0 },
            unit,
        });
    }
}

/// What a later comparison needs to tell an environment change from a
/// code change.
#[derive(Debug, Clone)]
pub struct Stamp {
    pub git_sha: String,
    pub source_digest: String,
    pub nproc: usize,
    pub simd_active: bool,
    pub dataset: String,
    pub triples_loaded: usize,
    pub config: EngineConfig,
    pub clients: usize,
    /// Host speed probe, milliseconds: see [`host_probe_ms`].
    pub host_probe_ms: f64,
}

/// A fixed dependent-load walk over 64 MiB, timed: memory latency is
/// what the joins mostly wait on, so this moves when the host (not the
/// code) gets slower or faster between runs.
pub fn host_probe_ms() -> f64 {
    const N: usize = 1 << 24;
    let mut rng = crate::stats::Rng::new(0x686f7374);
    // Sattolo's shuffle: one cycle through every slot.
    let mut next: Vec<u32> = (0..N as u32).collect();
    for i in (1..N).rev() {
        next.swap(i, rng.below(i));
    }
    let t = std::time::Instant::now();
    let mut at = 0u32;
    for _ in 0..(1 << 20) {
        at = next[at as usize];
    }
    std::hint::black_box(at);
    t.elapsed().as_secs_f64() * 1e3
}

impl Stamp {
    pub fn new(
        dataset: String,
        triples_loaded: usize,
        config: EngineConfig,
        clients: usize,
    ) -> Stamp {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
        Stamp {
            git_sha: git_sha(&root),
            source_digest: source_digest(&root.join("crates")),
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            simd_active: parj_store::simd_active(),
            dataset,
            triples_loaded,
            config,
            clients,
            host_probe_ms: host_probe_ms(),
        }
    }

    fn to_json(&self) -> String {
        let c = &self.config;
        format!(
            "{{\"git_sha\":{},\"source_digest\":{},\"nproc\":{},\"simd_active\":{},\"dataset\":{},\
             \"triples_loaded\":{},\"clients\":{},\"threads\":{},\"compress_replicas\":{},\
             \"compress_min_values\":{},\"cache\":{},\"delta_compaction_threshold\":{},\
             \"morsel_size\":{},\"use_pool\":{},\"strategy\":{},\"host_probe_ms\":{}}}",
            json_str(&self.git_sha),
            json_str(&self.source_digest),
            self.nproc,
            self.simd_active,
            json_str(&self.dataset),
            self.triples_loaded,
            self.clients,
            c.threads,
            c.compress_replicas,
            c.compress_min_values,
            c.cache,
            c.delta_compaction_threshold,
            c.morsel_size,
            c.use_pool,
            json_str(c.strategy.label()),
            self.host_probe_ms,
        )
    }
}

/// The commit the sources came from, when the checkout is a git work
/// tree of its own (not a plain copy nested in some other repository).
fn git_sha(root: &Path) -> String {
    if !root.join(".git").exists() {
        return "unavailable".to_string();
    }
    std::process::Command::new("git")
        .arg("-C")
        .arg(root)
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unavailable".to_string())
}

/// FNV-1a over the engine sources (paths and contents, in sorted
/// order): identifies the measured code even where no git metadata is
/// shipped with the checkout.
fn source_digest(dir: &Path) -> String {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                files.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(dir, &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for f in &files {
        feed(
            f.strip_prefix(dir)
                .unwrap_or(f)
                .to_string_lossy()
                .as_bytes(),
        );
        feed(&std::fs::read(f).unwrap_or_default());
    }
    format!("fnv1a64:{h:016x}:{}files", files.len())
}

/// Everything one run produced.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// End-of-run checks that did not hold (audit, fresh-engine
    /// comparison, drain); any entry makes the run incorrect.
    pub failed_checks: Vec<String>,
    pub end_to_end: Metrics,
    /// Measured and recorded, but not gated.
    pub reported: Metrics,
    /// What the traced run measured; the result line reports the whole
    /// catalogue.
    pub per_layer: Layers,
    /// Sample counts and other context for the record.
    pub samples: Vec<(String, u64)>,
    pub stamp: Stamp,
    pub trace: Option<Trace>,
}

impl Outcome {
    fn correct(&self) -> bool {
        self.failed == 0 && self.failed_checks.is_empty() && self.attempted > 0
    }

    /// Writes the record (and spans, for a traced run) under
    /// `perfbench/out/`, then prints the record line and the result
    /// line, which is always the last line of stdout.
    pub fn emit(&self, args: &Args) -> std::io::Result<()> {
        let record = self.record_json(args);
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        std::fs::create_dir_all(&dir)?;
        let stem = format!(
            "{}-seed{}-trace{}",
            args.workload,
            args.seed,
            u8::from(args.trace)
        );
        std::fs::write(dir.join(format!("{stem}.json")), format!("{record}\n"))?;
        if let Some(trace) = &self.trace {
            trace.write(&dir.join(format!("{stem}-spans.jsonl")))?;
        }
        println!("{record}");
        let catalogue = self.per_layer.to_metrics();
        let shown = if args.trace {
            &catalogue
        } else {
            &self.end_to_end
        };
        println!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics_json(shown, true),
        );
        Ok(())
    }

    fn record_json(&self, args: &Args) -> String {
        let mut checks = String::from("[");
        for (i, c) in self.failed_checks.iter().enumerate() {
            if i > 0 {
                checks.push(',');
            }
            checks.push_str(&json_str(c));
        }
        checks.push(']');
        let mut samples = String::from("{");
        for (i, (k, v)) in self.samples.iter().enumerate() {
            if i > 0 {
                samples.push(',');
            }
            write!(samples, "{}:{v}", json_str(k)).expect("write to String");
        }
        samples.push('}');
        format!(
            "{{\"record\":{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"stamp\":{},\
             \"attempted\":{},\"failed\":{},\"error_ratio\":{},\"failed_checks\":{checks},\
             \"samples\":{samples},\"end_to_end\":{},\"reported\":{},\"per_layer\":{}}}}}",
            json_str(&args.workload),
            args.seed,
            args.seconds,
            args.trace,
            self.stamp.to_json(),
            self.attempted,
            self.failed,
            self.failed as f64 / self.attempted.max(1) as f64,
            metrics_json(&self.end_to_end, false),
            metrics_json(&self.reported, false),
            metrics_json(&self.per_layer.measured(), false),
        )
    }
}

fn metrics_json(m: &Metrics, with_units: bool) -> String {
    let mut out = String::from("{");
    for (i, metric) in m.0.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        if with_units {
            write!(
                out,
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(&metric.name),
                metric.value,
                json_str(metric.unit)
            )
        } else {
            write!(out, "{}:{}", json_str(&metric.name), metric.value)
        }
        .expect("write to String");
    }
    out.push('}');
    out
}

/// A JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("write to String"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
