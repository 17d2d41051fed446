//! Running one prepared job in-process, and what the metrics need from
//! its result.

use crate::jobs::{Obj, Prepared};
use crate::stats::normalized_hypervolume;
use fact_core::{
    optimize_pareto_with, optimize_with, structural_hash, EvalCache, FactResult, OptimizeHooks,
    ParetoFactResult, PhaseTimers, TransformLibrary,
};
use fact_estim::Estimate;
use fact_sched::{FuLibrary, SelectionRules};
use fact_serve::job::run_pareto_job;
use fact_serve::json::Value;
use fact_serve::{decode_request, parse, run_job, OptimizeRequest, Request};
use std::sync::atomic::AtomicBool;

/// The result of one job.
pub enum Res {
    /// A throughput or power job.
    Design(Box<FactResult>),
    /// A Pareto job.
    Pareto(Box<ParetoFactResult>),
}

/// Work counters every result carries.
#[derive(Clone, Copy, Default, Debug)]
pub struct Counters {
    /// Search-trajectory evaluations, cache-served included.
    pub evaluated: u64,
    /// Evaluations the cache served.
    pub cache_hits: u64,
    /// Schedules computed from scratch.
    pub full_reschedules: u64,
    /// Schedules that spliced memoized block fragments.
    pub block_spliced: u64,
    /// Trace vectors simulated.
    pub sim_vectors: u64,
    /// Batched simulation passes.
    pub sim_batches: u64,
    /// Evaluations routed to the scalar interpreter.
    pub engine_scalar: u64,
    /// Evaluations routed to the batched engine.
    pub engine_batched: u64,
    /// Lane compactions inside batched simulation.
    pub lane_compactions: u64,
    /// Mega-batch dispatches.
    pub neighborhood_batches: u64,
    /// Candidates handed to mega-batch dispatches.
    pub mega_candidates: u64,
    /// Frontier points (Pareto jobs).
    pub pareto_points: u64,
}

impl Counters {
    /// Adds `o` into `self`.
    pub fn add(&mut self, o: &Counters) {
        self.evaluated += o.evaluated;
        self.cache_hits += o.cache_hits;
        self.full_reschedules += o.full_reschedules;
        self.block_spliced += o.block_spliced;
        self.sim_vectors += o.sim_vectors;
        self.sim_batches += o.sim_batches;
        self.engine_scalar += o.engine_scalar;
        self.engine_batched += o.engine_batched;
        self.lane_compactions += o.lane_compactions;
        self.neighborhood_batches += o.neighborhood_batches;
        self.mega_candidates += o.mega_candidates;
        self.pareto_points += o.pareto_points;
    }
}

macro_rules! counters_of {
    ($r:expr, $points:expr) => {
        Counters {
            evaluated: $r.evaluated as u64,
            cache_hits: $r.cache_hits as u64,
            full_reschedules: $r.full_reschedules as u64,
            block_spliced: $r.block_spliced as u64,
            sim_vectors: $r.sim_vectors,
            sim_batches: $r.sim_batches,
            engine_scalar: $r.sim_engine_scalar,
            engine_batched: $r.sim_engine_batched,
            lane_compactions: $r.lane_compactions,
            neighborhood_batches: $r.neighborhood_batches,
            mega_candidates: $r.mega_candidates,
            pareto_points: $points,
        }
    };
}

impl Res {
    /// The result's work counters.
    pub fn counters(&self) -> Counters {
        match self {
            Res::Design(r) => counters_of!(r, 0),
            Res::Pareto(r) => counters_of!(r, r.frontier.len() as u64),
        }
    }

    /// The job's quality figure: optimized / baseline cycles for a
    /// throughput job, optimized / baseline power for a power job, and
    /// the normalized frontier hypervolume for a Pareto job.
    pub fn quality(&self, obj: Obj) -> f64 {
        match (self, obj) {
            (Res::Design(r), Obj::Throughput) => {
                r.estimate.average_schedule_length / r.baseline.average_schedule_length
            }
            (Res::Design(r), _) => r.estimate.power / r.baseline.power,
            (Res::Pareto(r), _) => {
                let pts: Vec<(f64, f64)> = r
                    .frontier
                    .iter()
                    .map(|p| (p.energy, p.latency_cycles))
                    .collect();
                let b = &r.baseline;
                normalized_hypervolume(
                    &pts,
                    b.energy_vdd2 * b.vdd * b.vdd,
                    b.average_schedule_length,
                )
            }
        }
    }

    /// A digest of everything the job reports: the optimized design's
    /// structure, the applied path, every estimate bit, the frontier and
    /// the counters that are properties of the search trajectory. Two
    /// runs of one job agree on it exactly.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::default();
        let est = |h: &mut Fnv, e: &Estimate| {
            for x in [
                e.average_schedule_length,
                e.energy_vdd2,
                e.vdd,
                e.power,
                e.throughput,
            ] {
                h.u64(x.to_bits());
            }
        };
        match self {
            Res::Design(r) => {
                h.u64(structural_hash(&r.best));
                est(&mut h, &r.estimate);
                est(&mut h, &r.baseline);
                for s in &r.applied {
                    h.bytes(s.as_bytes());
                }
                h.u64(r.evaluated as u64).u64(r.cache_hits as u64);
            }
            Res::Pareto(r) => {
                for p in &r.frontier {
                    for x in [p.energy, p.latency_cycles, p.vdd, p.power, p.sched_cycles] {
                        h.u64(x.to_bits());
                    }
                    for s in &p.applied {
                        h.bytes(s.as_bytes());
                    }
                }
                est(&mut h, &r.baseline);
                h.u64(r.evaluated as u64)
                    .u64(r.cache_hits as u64)
                    .u64(r.archive_len as u64);
            }
        }
        h.0
    }
}

/// FNV-1a.
struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Mixes in bytes.
    fn bytes(&mut self, b: &[u8]) -> &mut Self {
        for &x in b {
            self.0 = (self.0 ^ x as u64).wrapping_mul(0x100_0000_01b3);
        }
        self
    }

    /// Mixes in a word.
    fn u64(&mut self, x: u64) -> &mut Self {
        self.bytes(&x.to_le_bytes())
    }
}

/// The library, rules and transform set every in-process job uses.
pub struct Engine {
    /// The §5 functional-unit library.
    pub lib: FuLibrary,
    /// Its selection rules.
    pub rules: SelectionRules,
    /// The full transform library.
    pub tlib: TransformLibrary,
}

impl Default for Engine {
    fn default() -> Self {
        let (lib, rules) = fact_estim::section5_library();
        Engine {
            lib,
            rules,
            tlib: TransformLibrary::full(),
        }
    }
}

impl Engine {
    /// Runs `job` with the given cache and optional phase timers.
    ///
    /// # Errors
    /// The pipeline could not schedule or analyze the original behavior.
    pub fn run(
        &self,
        job: &Prepared,
        obj: Obj,
        cache: &EvalCache,
        timers: Option<&PhaseTimers>,
    ) -> Result<Res, String> {
        let hooks = OptimizeHooks {
            cache: Some(cache),
            stop: None,
            timers,
        };
        let (f, a, t, c) = (&job.function, &job.alloc, &job.traces, &job.config);
        if obj == Obj::Pareto {
            optimize_pareto_with(f, &self.lib, &self.rules, a, t, &self.tlib, c, hooks)
                .map(|r| Res::Pareto(Box::new(r)))
        } else {
            optimize_with(f, &self.lib, &self.rules, a, t, &self.tlib, c, hooks)
                .map(|r| Res::Design(Box::new(r)))
        }
        .map_err(|e| e.to_string())
    }
}

/// Decodes a job request line: the request and whether it is a Pareto job.
///
/// # Errors
/// The line is not a job request.
pub fn decode(line: &str) -> Result<(Box<OptimizeRequest>, bool), String> {
    match parse(line)
        .map_err(|e| e.to_string())
        .and_then(|v| decode_request(&v).map_err(|e| e.0))?
    {
        Request::Optimize(r) => Ok((r, false)),
        Request::Pareto(r) => Ok((r, true)),
        _ => Err("not a job request".into()),
    }
}

/// Serves `req` in-process through `fact_serve`'s own job runner.
///
/// # Errors
/// The job failed.
pub fn serve_in_process(
    req: &OptimizeRequest,
    pareto: bool,
    cache: &EvalCache,
) -> Result<(Value, Res), String> {
    let stop = AtomicBool::new(false);
    if pareto {
        run_pareto_job(req, cache, &stop).map(|(v, r)| (v, Res::Pareto(Box::new(r))))
    } else {
        run_job(req, cache, &stop).map(|(v, r)| (v, Res::Design(Box::new(r))))
    }
    .map_err(|e| format!("{}: {}", e.code, e.message))
}
