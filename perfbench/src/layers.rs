//! Per-layer metrics of the traced run.
//!
//! Nothing is instrumented inside the program: the benchmark times calls
//! into each layer's public functions itself ("replays", on each job's
//! input and on its optimized design), reads the pipeline's public
//! `OptimizeHooks::timers` phase sinks, and sums the counters every
//! result carries.

use crate::exec::{Counters, Engine, Res};
use crate::jobs::Prepared;
use crate::stats::mean;
use crate::Metric;
use fact_core::{partition, structural_hash, PartitionConfig, PhaseTimers};
use fact_estim::{evaluate, markov_of};
use fact_ir::Function;
use fact_sched::schedule;
use fact_serve::decode_request;
use fact_serve::json::{parse, Value};
use fact_sim::{profile, CompiledFn, EquivReference};
use fact_xform::Region;
use std::sync::atomic::Ordering;
use std::time::Instant;

/// Times `f` in microseconds.
fn us<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = std::hint::black_box(f());
    (out, t.elapsed().as_secs_f64() * 1e6)
}

/// Daemon-side figures of a traced `factd` run (zero for in-process
/// workloads, which run no daemon).
#[derive(Default)]
pub struct ServeFigures {
    /// Ping round trips on the workload's own connections, ms.
    pub ping_ms: Vec<f64>,
    /// Event-loop wakeups over the traced phase (STATS delta).
    pub loop_wakeups: u64,
    /// Requests sent over the traced phase (jobs and pings).
    pub requests: u64,
    /// Cache entries at the end (STATS).
    pub cache_entries: u64,
    /// Cache hits and evaluations over the traced phase's replies.
    pub cache_hits: u64,
    /// See `cache_hits`.
    pub evaluated: u64,
}

/// Accumulates the traced run's samples.
#[derive(Default)]
pub struct LayerAcc {
    compile_us: Vec<f64>,
    candidates_us: Vec<f64>,
    candidates: Vec<f64>,
    schedule_us: Vec<f64>,
    markov_us: Vec<f64>,
    evaluate_us: Vec<f64>,
    profile_us: Vec<f64>,
    capture_us: Vec<f64>,
    check_us: Vec<f64>,
    hash_us: Vec<f64>,
    partition_us: Vec<f64>,
    decode_us: Vec<f64>,
    encode_us: Vec<f64>,
    jobs: u64,
    counters: Counters,
    optimize_s: f64,
    untimed_s: f64,
    compile_ns: u64,
    simulate_ns: u64,
    estimate_ns: u64,
}

impl LayerAcc {
    /// Records one traced job: its optimize wall time with timers, the
    /// timers themselves and its counters.
    pub fn job(&mut self, optimize_s: f64, timers: &PhaseTimers, res: &Res) {
        self.jobs += 1;
        self.optimize_s += optimize_s;
        self.compile_ns += timers.compile_ns.load(Ordering::Relaxed);
        self.simulate_ns += timers.simulate_ns.load(Ordering::Relaxed);
        self.estimate_ns += timers.estimate_ns.load(Ordering::Relaxed);
        self.counters.add(&res.counters());
    }

    /// Records the optimize wall time of an untraced run of the same job.
    pub fn untraced(&mut self, optimize_s: f64) {
        self.untimed_s += optimize_s;
    }

    /// Replays the layers' public functions on one job's input, and on
    /// its optimized design where it has one.
    pub fn replay(&mut self, engine: &Engine, source: &str, job: &Prepared, res: &Res) {
        let (_, t) = us(|| fact_lang::compile(source));
        self.compile_us.push(t);
        let (reference, t) = us(|| EquivReference::capture(&job.function, &job.traces, 0xC0FFEE));
        self.capture_us.push(t);
        let mut designs: Vec<&Function> = vec![&job.function];
        if let Res::Design(r) = res {
            designs.push(&r.best);
            let cf = CompiledFn::compile(&r.best);
            let (_, t) = us(|| {
                if cf.num_memories() == 0 {
                    reference.check_profiled(&cf, &job.traces).map(|(n, _)| n)
                } else {
                    reference.check(&cf, &job.traces)
                }
            });
            self.check_us.push(t);
        }
        for (k, g) in designs.into_iter().enumerate() {
            let (cands, t) = us(|| engine.tlib.all_candidates(g, &Region::whole()));
            self.candidates_us.push(t);
            self.candidates.push(cands.len() as f64);
            let (_, t) = us(|| structural_hash(g));
            self.hash_us.push(t);
            let (prof, t) = us(|| profile(g, &job.traces));
            self.profile_us.push(t);
            let (sr, t) = us(|| {
                schedule(
                    g,
                    &engine.lib,
                    &engine.rules,
                    &job.alloc,
                    &prof,
                    &job.config.sched,
                )
            });
            self.schedule_us.push(t);
            let Ok(sr) = sr else { continue };
            let (markov, t) = us(|| markov_of(&sr));
            self.markov_us.push(t);
            let (_, t) = us(|| evaluate(&sr, &engine.lib, job.config.sched.clock_ns));
            self.evaluate_us.push(t);
            if let (0, Ok(m)) = (k, markov) {
                let (_, t) = us(|| partition(&sr.stg, &m, &PartitionConfig::default()));
                self.partition_us.push(t);
            }
        }
    }

    /// Replays the serve front end's codec: decoding the request line and
    /// encoding the reply.
    pub fn replay_codec(&mut self, request_line: &str, reply: &Value) {
        let (_, t) = us(|| parse(request_line).map(|v| decode_request(&v)));
        self.decode_us.push(t);
        let (_, t) = us(|| reply.to_json());
        self.encode_us.push(t);
    }

    /// The per-layer metrics, every one, in `BENCHMARK.json` order.
    pub fn finish(&self, serve: &ServeFigures) -> Vec<Metric> {
        let jobs = self.jobs.max(1) as f64;
        let c = &self.counters;
        let per_job = |x: u64| x as f64 / jobs;
        let ms = |ns: u64| ns as f64 / 1e6;
        let timed_ms = ms(self.compile_ns) + ms(self.simulate_ns) + ms(self.estimate_ns);
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        let (hits, evals) = if serve.evaluated > 0 {
            (serve.cache_hits, serve.evaluated)
        } else {
            (c.cache_hits, c.evaluated)
        };
        let m = |name: &'static str, value: f64, unit: &'static str| Metric { name, value, unit };
        vec![
            m("lang.compile_us", mean(&self.compile_us), "us"),
            m("xform.candidates_us", mean(&self.candidates_us), "us"),
            m("xform.candidates_per_call", mean(&self.candidates), "count"),
            m("sched.schedule_us", mean(&self.schedule_us), "us"),
            m(
                "sched.block_spliced_per_job",
                per_job(c.block_spliced),
                "count",
            ),
            m(
                "sched.full_reschedules_per_job",
                per_job(c.full_reschedules),
                "count",
            ),
            m("estim.markov_us", mean(&self.markov_us), "us"),
            m("estim.evaluate_us", mean(&self.evaluate_us), "us"),
            m(
                "estim.estimate_ms_per_job",
                ms(self.estimate_ns) / jobs,
                "ms",
            ),
            m("sim.profile_us", mean(&self.profile_us), "us"),
            m("sim.capture_us", mean(&self.capture_us), "us"),
            m("sim.check_profiled_us", mean(&self.check_us), "us"),
            m("sim.compile_ms_per_job", ms(self.compile_ns) / jobs, "ms"),
            m("sim.simulate_ms_per_job", ms(self.simulate_ns) / jobs, "ms"),
            m(
                "sim.vectors_per_s",
                c.sim_vectors as f64 / (self.simulate_ns.max(1) as f64 / 1e9),
                "1/s",
            ),
            m("sim.vectors_per_job", per_job(c.sim_vectors), "count"),
            m("sim.batches_per_job", per_job(c.sim_batches), "count"),
            m(
                "sim.engine_scalar_per_job",
                per_job(c.engine_scalar),
                "count",
            ),
            m(
                "sim.engine_batched_per_job",
                per_job(c.engine_batched),
                "count",
            ),
            m(
                "sim.lane_compactions_per_job",
                per_job(c.lane_compactions),
                "count",
            ),
            m(
                "core.optimize_ms_per_job",
                self.optimize_s * 1e3 / jobs,
                "ms",
            ),
            m("core.evaluated_per_job", per_job(c.evaluated), "count"),
            m(
                "core.evals_per_s",
                c.evaluated as f64 / self.optimize_s.max(1e-9),
                "1/s",
            ),
            m(
                "core.search_self_ms_per_job",
                (self.optimize_s * 1e3 - timed_ms) / jobs,
                "ms",
            ),
            m("core.hash_us", mean(&self.hash_us), "us"),
            m("core.partition_us", mean(&self.partition_us), "us"),
            m("core.cache_hit_ratio", ratio(hits, evals), "ratio"),
            m(
                "core.candidates_per_batch",
                ratio(c.mega_candidates, c.neighborhood_batches),
                "count",
            ),
            m(
                "core.pareto_points_per_job",
                per_job(c.pareto_points),
                "count",
            ),
            m("serve.decode_us", mean(&self.decode_us), "us"),
            m("serve.encode_us", mean(&self.encode_us), "us"),
            m(
                "serve.ping_ms",
                if serve.ping_ms.is_empty() {
                    0.0
                } else {
                    crate::stats::median(&serve.ping_ms)
                },
                "ms",
            ),
            m(
                "serve.loop_wakeups_per_request",
                ratio(serve.loop_wakeups, serve.requests),
                "count",
            ),
            m("serve.cache_entries", serve.cache_entries as f64, "count"),
            m(
                "trace.overhead_ratio",
                if self.untimed_s > 0.0 {
                    self.optimize_s / self.untimed_s
                } else {
                    0.0
                },
                "ratio",
            ),
        ]
    }
}
