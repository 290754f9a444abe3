//! The PARJ-rs benchmark: three seeded workloads driven through the
//! engine's public API from outside the program.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload lubm-analytic --seed 7 --seconds 10 --trace 0
//! ```
//!
//! * `lubm-analytic` — LUBM-60, one closed-loop client running the heavy
//!   queries LUBM1/2/3/7/9/10 in silent mode (`count_only`), cache off.
//! * `watdiv-serve` — WatDiv scale 100 behind `ParjServer` on loopback,
//!   two closed-loop HTTP clients over 17 basic-workload queries.
//! * `lubm-rw` — LUBM-60 through `SharedParj` with the cache on: a fixed,
//!   seeded sequence of reads and mutation batches.
//!
//! Data generation happens before any timer starts; the engine receives
//! only generated N-Triples text and query strings. Every counted answer
//! is checked against an independent oracle (`parj-baseline` over a
//! separately built store, plus a model of the mutations for lubm-rw).
//!
//! With `--trace 0` the last stdout line carries the end-to-end metrics;
//! with `--trace 1` a separate traced run reports per-layer metrics and
//! writes its spans to `perfbench/out/`. The line before it is the full
//! run record (seed, run stamp, error ratio, every metric measured).

mod analytic;
mod data;
mod http;
mod kernels;
mod layers;
mod record;
mod rw;
mod serve;
mod stats;
mod trace;

use std::process::ExitCode;

use record::Outcome;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

const USAGE: &str =
    "usage: parj-perfbench --workload <lubm-analytic|watdiv-serve|lubm-rw> --seed <n> --seconds <n> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?.max(1)),
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("--trace must be 0 or 1, got {value}")),
            },
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome: Outcome = match args.workload.as_str() {
        "lubm-analytic" => analytic::run(&args, &analytic::Config::standard()),
        "watdiv-serve" => serve::run(&args, &serve::Config::standard()),
        "lubm-rw" => rw::run(&args, &rw::Config::standard()),
        other => {
            eprintln!("unknown workload {other}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match outcome.emit(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("could not write the run record: {e}");
            ExitCode::FAILURE
        }
    }
}
