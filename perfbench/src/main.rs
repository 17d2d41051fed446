//! End-to-end and per-layer benchmark of the FACT optimizer.
//!
//! ```text
//! perfbench --workload <search-cold|search-traces|factd-shared> --seed <n>
//!           --seconds <s> --trace <0|1> [--factd <path to factd>]
//! ```
//!
//! Prints a machine fingerprint line, then as its last line one JSON
//! object: `correct`, `attempted`, `failed` and `metrics` (the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`).
//! See `README.md` for the workloads and what each metric means.

mod check;
mod corpus;
mod daemon;
mod exec;
mod inproc;
mod jobs;
mod layers;
mod stats;
#[cfg(test)]
mod tests;

use jobs::Workload;
use std::path::PathBuf;
use std::process::ExitCode;

/// One reported metric.
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// What one run prints as its last line.
pub struct Output {
    /// Whether the program's outputs were checked and the run completed.
    pub correct: bool,
    /// Jobs attempted.
    pub attempted: u64,
    /// Jobs that failed or whose output failed a check.
    pub failed: u64,
    /// The metrics.
    pub metrics: Vec<Metric>,
}

impl Output {
    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                // Non-finite values cannot be written as JSON numbers.
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    factd: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10.0f64, false);
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into());
    let mut factd = PathBuf::from(target).join("release").join("factd");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload `{v}`"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value()? == "1",
            "--factd" => factd = PathBuf::from(value()?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        factd,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!("fingerprint: {}", stats::fingerprint());
    let out = match (args.workload, args.trace) {
        (Workload::FactdShared, false) => daemon::run(&args.factd, args.seed, args.seconds),
        (Workload::FactdShared, true) => daemon::run_traced(&args.factd, args.seed, args.seconds),
        (w, false) => inproc::run(w, args.seed, args.seconds),
        (w, true) => inproc::run_traced(w, args.seed, args.seconds),
    };
    match out {
        Ok(out) => {
            println!("{}", out.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
