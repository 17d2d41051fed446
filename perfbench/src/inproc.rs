//! The in-process workloads, `search-cold` and `search-traces`: one
//! thread, a fresh `EvalCache` per job, the pipeline called directly as
//! `factc` does.

use crate::check::Checker;
use crate::corpus::{run_model, Inputs, Memories, Model, Observed};
use crate::exec::{decode, serve_in_process, Engine, Res};
use crate::jobs::{
    nonce, plan, prepare, request_line, Obj, Plan, Prepared, Slot, Workload, WARMUP_ROUND,
};
use crate::layers::{LayerAcc, ServeFigures};
use crate::stats::{gmean, mean, median, peak_rss_mb, quantile};
use crate::{Metric, Output};
use fact_core::{evaluation_context_key, EvalCache, PhaseTimers};
use fact_ir::Function;
use fact_prng::mix64;
use std::collections::HashSet;
use std::time::{Duration, Instant};

/// Times the corpus is compiled and a warm-up round run before timing;
/// `setup_s` is the median.
pub const SETUP_REPS: u64 = 3;

/// A reference model of the corpus: `run_model`, or a broken one in the
/// tests that show a failed check turns a run's `correct` false.
pub type Models = fn(Model, &Inputs, &Memories) -> Observed;

/// The seed of a job's functional check: one the search never saw.
pub fn check_seed(slot: &Slot) -> u64 {
    mix64(slot.trace_seed ^ 0x5EED_C4EC_0000_0001)
}

struct Runner {
    plan: Plan,
    seed: u64,
    engine: Engine,
    functions: Vec<Function>,
    /// Every evaluation context seen so far (warm-up and timed).
    contexts: HashSet<u64>,
    models: Models,
}

impl Runner {
    fn new(w: Workload, seed: u64, models: Models) -> Runner {
        Runner {
            plan: plan(w, seed),
            seed,
            engine: Engine::default(),
            functions: Vec::new(),
            contexts: HashSet::new(),
            models,
        }
    }

    fn compile_corpus(&mut self) -> Result<(), String> {
        self.functions = self
            .plan
            .corpus
            .iter()
            .map(|p| fact_lang::compile(&p.source).map_err(|e| format!("{}: {e}", p.name)))
            .collect::<Result<_, _>>()?;
        Ok(())
    }

    /// Prepares slot `k` of round `round`, asserting that its evaluation
    /// context is new: no timed job shares one with another or with a
    /// warm-up job, so no cross-job memo can warm a cold workload.
    fn prepare(&mut self, k: usize, round: u64) -> Result<Prepared, String> {
        let slot = &self.plan.round[k];
        let p = &self.plan.corpus[slot.program];
        let job = prepare(
            p,
            &self.functions[slot.program],
            slot,
            nonce(self.seed, round, slot.context),
        );
        let key = evaluation_context_key(&job.function, &job.alloc, &job.traces, &job.config);
        if !self.contexts.insert(key) {
            return Err(format!("round {round} slot {k}: evaluation context reused"));
        }
        Ok(job)
    }

    fn warm_up(&mut self, rep: u64) -> Result<(), String> {
        for k in 0..self.plan.round.len() {
            let job = self.prepare(k, WARMUP_ROUND - rep)?;
            self.engine
                .run(&job, self.plan.round[k].obj, &EvalCache::default(), None)?;
        }
        Ok(())
    }

    /// Compiles the corpus and runs a warm-up round `SETUP_REPS` times;
    /// returns the median wall time.
    fn setup(&mut self, reps: u64) -> Result<f64, String> {
        let mut times = Vec::new();
        for rep in 0..reps {
            let t = Instant::now();
            self.compile_corpus()?;
            self.warm_up(rep)?;
            times.push(t.elapsed().as_secs_f64());
        }
        Ok(median(&times))
    }

    fn check(&self, checker: &Checker, k: usize, job: &Prepared, res: &Res) -> Result<(), String> {
        let slot = &self.plan.round[k];
        let p = &self.plan.corpus[slot.program];
        let model = |i: &_, m: &_| (self.models)(p.model, i, m);
        match res {
            Res::Design(r) => {
                checker.check_design_job(p, job, slot.obj, r, &model, check_seed(slot))
            }
            Res::Pareto(r) => checker.check_pareto_job(p, job, r),
        }
    }
}

/// Runs `w` untraced for `seconds` of whole rounds and reports the
/// end-to-end metrics.
pub fn run(w: Workload, seed: u64, seconds: f64) -> Result<Output, String> {
    run_checked(w, seed, seconds, run_model)
}

/// [`run`], checking outputs against `models`.
pub fn run_checked(w: Workload, seed: u64, seconds: f64, models: Models) -> Result<Output, String> {
    let mut rn = Runner::new(w, seed, models);
    let setup_s = rn.setup(SETUP_REPS)?;
    let n = rn.plan.round.len();

    let mut latencies = Vec::new();
    let mut busy_s = 0.0;
    let mut evaluated = 0u64;
    let mut first: Vec<(Prepared, Result<Res, String>)> = Vec::with_capacity(n);
    let mut digests: Vec<Option<u64>> = Vec::with_capacity(n);
    let mut slot_failed = vec![0u64; n];
    let start = Instant::now();
    let mut round = 0u64;
    loop {
        for k in 0..n {
            let job = rn.prepare(k, round)?;
            let t = Instant::now();
            let res = rn
                .engine
                .run(&job, rn.plan.round[k].obj, &EvalCache::default(), None);
            let s = t.elapsed().as_secs_f64();
            busy_s += s;
            latencies.push(s * 1e3);
            if let Ok(r) = &res {
                evaluated += r.counters().evaluated;
            }
            let digest = res.as_ref().ok().map(Res::digest);
            if round == 0 {
                digests.push(digest);
                first.push((job, res));
            } else if digest.is_none() || digest != digests[k] {
                slot_failed[k] += 1;
            }
        }
        round += 1;
        if start.elapsed() >= Duration::from_secs_f64(seconds) {
            break;
        }
    }
    let peak = peak_rss_mb(None).unwrap_or(0.0);

    // Check the first round in full; later rounds must reproduce it.
    let checker = Checker::default();
    let mut quality = Quality::default();
    for (k, (job, res)) in first.iter().enumerate() {
        let slot = &rn.plan.round[k];
        let verdict = res.as_ref().map_err(String::clone).and_then(|r| {
            rn.check(&checker, k, job, r)?;
            Ok(r.quality(slot.obj))
        });
        match verdict {
            Ok(q) => quality.push(slot.obj, q),
            Err(e) => {
                let name = &rn.plan.corpus[slot.program].name;
                eprintln!("check failed: {name} ({:?}): {e}", slot.obj);
                // Every round of a failing slot repeats the failure.
                slot_failed[k] = round;
            }
        }
    }
    let attempted = round * n as u64;
    let failed: u64 = slot_failed.iter().sum();
    eprintln!("{w:?}: {round} rounds of {n} jobs, {attempted} jobs in {busy_s:.2} s busy");
    Ok(Output {
        correct: failed == 0,
        attempted,
        failed,
        metrics: end_to_end(
            setup_s, attempted, busy_s, &latencies, peak, &quality, evaluated,
        ),
    })
}

/// The quality figures of a round's jobs, by objective (see
/// `Res::quality`).
#[derive(Default)]
pub struct Quality {
    throughput: Vec<f64>,
    power: Vec<f64>,
    pareto: Vec<f64>,
}

impl Quality {
    /// Adds one job's figure.
    pub fn push(&mut self, obj: Obj, q: f64) {
        match obj {
            Obj::Throughput => self.throughput.push(q),
            Obj::Power => self.power.push(q),
            Obj::Pareto => self.pareto.push(q),
        }
    }
}

/// The end-to-end metrics, in `BENCHMARK.json` order.
pub fn end_to_end(
    setup_s: f64,
    jobs: u64,
    wall_s: f64,
    latencies_ms: &[f64],
    peak_rss_mb: f64,
    quality: &Quality,
    evaluated: u64,
) -> Vec<Metric> {
    let m = |name: &'static str, value: f64, unit: &'static str| Metric { name, value, unit };
    vec![
        m("setup_s", setup_s, "s"),
        m("jobs_per_s", jobs as f64 / wall_s, "1/s"),
        m("job_p50_ms", quantile(latencies_ms, 0.5), "ms"),
        m("job_p90_ms", quantile(latencies_ms, 0.9), "ms"),
        m("peak_rss_mb", peak_rss_mb, "MB"),
        m("cycles_ratio_gmean", gmean(&quality.throughput), "ratio"),
        m("power_ratio_gmean", gmean(&quality.power), "ratio"),
        m("pareto_hv_mean", mean(&quality.pareto), "ratio"),
        m("evals_per_s", evaluated as f64 / wall_s, "1/s"),
    ]
}

/// Runs `w` traced: rounds alternate untraced and traced (phase timers
/// plus replays of each layer's public functions) until `seconds` have
/// passed, and reports the per-layer metrics. Each slot's first traced
/// result passes the output checks; every other result must reproduce it.
pub fn run_traced(w: Workload, seed: u64, seconds: f64) -> Result<Output, String> {
    let mut rn = Runner::new(w, seed, run_model);
    rn.setup(1)?;
    let n = rn.plan.round.len();
    let checker = Checker::default();
    let mut acc = LayerAcc::default();
    // The digest of each slot's checked first traced result.
    let mut reference: Vec<Option<u64>> = Vec::with_capacity(n);
    let start = Instant::now();
    let mut round = 0u64;
    let (mut attempted, mut failed) = (0u64, 0u64);
    while round == 0 || start.elapsed() < Duration::from_secs_f64(seconds) {
        for k in 0..n {
            let obj = rn.plan.round[k].obj;
            let job = rn.prepare(k, round)?;
            let t = Instant::now();
            let untraced = rn.engine.run(&job, obj, &EvalCache::default(), None);
            acc.untraced(t.elapsed().as_secs_f64());

            let job = rn.prepare(k, round + 1)?;
            let timers = PhaseTimers::default();
            let t = Instant::now();
            let traced = rn
                .engine
                .run(&job, obj, &EvalCache::default(), Some(&timers));
            let secs = t.elapsed().as_secs_f64();
            let slot = &rn.plan.round[k];
            let p = &rn.plan.corpus[slot.program];
            if round == 0 {
                let verdict = traced.as_ref().map_err(String::clone).and_then(|r| {
                    rn.check(&checker, k, &job, r)?;
                    Ok(r.digest())
                });
                if let Err(e) = &verdict {
                    eprintln!("check failed: {} ({obj:?}): {e}", p.name);
                }
                reference.push(verdict.ok());
            }
            let reproduces = |res: &Result<Res, String>| {
                reference[k].is_some() && res.as_ref().ok().map(Res::digest) == reference[k]
            };
            failed += u64::from(!reproduces(&untraced)) + u64::from(!reproduces(&traced));
            attempted += 2;
            let Ok(res) = traced else { continue };
            acc.job(secs, &timers, &res);
            acc.replay(&rn.engine, &p.source, &job, &res);
            if round == 0 {
                // The serve codec, on the request line this job would be
                // and on the daemon's reply to it (from `run_job`).
                let line = request_line(p, slot, nonce(seed, round + 1, slot.context), "replay");
                let (req, pareto) = decode(&line)?;
                let (reply, _) = serve_in_process(&req, pareto, &EvalCache::default())?;
                acc.replay_codec(&line, &reply);
            }
        }
        round += 2;
    }
    Ok(Output {
        correct: failed == 0,
        attempted,
        failed,
        metrics: acc.finish(&ServeFigures::default()),
    })
}
