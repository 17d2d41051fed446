//! The output checker, computed apart from the program under test.
//!
//! * Each optimized design runs through the scalar interpreter on fresh
//!   vectors, drawn from a seed the search never saw, with random memory
//!   contents; its outputs and final memories must equal the corpus
//!   program's plain-Rust model.
//! * Baseline and optimized cycles are recomputed through the public,
//!   unmemoized path (`profile` → `schedule` → `markov_of`) and must equal
//!   the reported figures bit for bit.
//! * The optimized design is no worse than the baseline for the job's own
//!   objective; every Pareto frontier is sorted by latency and pairwise
//!   nondominated, and each frontier point's figures agree with each other
//!   and, for the untransformed design at the reference supply, with the
//!   recomputed baseline. Frontier points carry no design, so they get no
//!   functional check.

use crate::corpus::{Inputs, Memories, Observed, Program};
use crate::jobs::{Obj, Prepared};
use fact_core::{FactResult, ParetoFactResult};
use fact_estim::{markov_of, section5_library, VDD_REF};
use fact_ir::Function;
use fact_prng::splitmix64;
use fact_sched::{schedule, FuLibrary, SelectionRules};
use fact_sim::{execute_with, generate, profile, ExecConfig};

/// A reference model: inputs and initial memories to observed behaviour.
pub type ModelFn<'a> = &'a dyn Fn(&Inputs, &Memories) -> Observed;

/// Fresh vectors per checked design.
pub const CHECK_VECTORS: usize = 16;

/// The §5 library the checker schedules against.
pub struct Checker {
    lib: FuLibrary,
    rules: SelectionRules,
}

impl Default for Checker {
    fn default() -> Self {
        let (lib, rules) = section5_library();
        Checker { lib, rules }
    }
}

/// Runs `design` on `CHECK_VECTORS` fresh vectors of `p`'s input
/// distributions (from `seed`), each with random memory contents, and
/// compares every output and final memory with `model`.
///
/// # Errors
/// Describes the first difference or interpreter failure.
pub fn check_functional(
    p: &Program,
    design: &Function,
    model: ModelFn<'_>,
    seed: u64,
) -> Result<(), String> {
    let vectors = generate(&p.inputs, CHECK_VECTORS, seed);
    let mut state = seed ^ 0x6A09_E667_F3BC_C908;
    for (k, inputs) in vectors.vectors.iter().enumerate() {
        let mut config = ExecConfig::default();
        let mut memories = Memories::new();
        for (i, (_, m)) in design.memories().enumerate() {
            let v: Vec<i64> = (0..m.size)
                .map(|_| (splitmix64(&mut state) % 2001) as i64 - 1000)
                .collect();
            config.initial_memories.insert(i, v.clone());
            memories.insert(m.name.clone(), v);
        }
        let got = execute_with(design, inputs, &config)
            .map_err(|e| format!("{}: vector {k}: interpreter failed: {e}", p.name))?;
        let want = model(inputs, &memories);
        if got.outputs != want.outputs {
            return Err(format!(
                "{}: vector {k}: outputs {:?}, model says {:?}",
                p.name, got.outputs, want.outputs
            ));
        }
        for (i, (_, m)) in design.memories().enumerate() {
            if want.memories.get(&m.name) != Some(&got.memories[i]) {
                return Err(format!(
                    "{}: vector {k}: array `{}` differs from the model",
                    p.name, m.name
                ));
            }
        }
    }
    Ok(())
}

impl Checker {
    /// Average schedule length of `g` under `job`'s allocation and traces,
    /// through the unmemoized public path.
    ///
    /// # Errors
    /// Scheduling or Markov analysis failed.
    pub fn cycles(&self, g: &Function, job: &Prepared) -> Result<f64, String> {
        let prof = profile(g, &job.traces);
        let sr = schedule(
            g,
            &self.lib,
            &self.rules,
            &job.alloc,
            &prof,
            &job.config.sched,
        )
        .map_err(|e| format!("schedule: {e}"))?;
        Ok(markov_of(&sr)?.average_schedule_length)
    }

    fn same_cycles(
        &self,
        what: &str,
        g: &Function,
        job: &Prepared,
        reported: f64,
    ) -> Result<(), String> {
        let c = self.cycles(g, job)?;
        if c.to_bits() == reported.to_bits() {
            Ok(())
        } else {
            Err(format!(
                "{what} cycles: reported {reported}, recomputed {c}"
            ))
        }
    }

    /// Checks a throughput or power job's result.
    ///
    /// # Errors
    /// Names the first failed check.
    pub fn check_design_job(
        &self,
        p: &Program,
        job: &Prepared,
        obj: Obj,
        r: &FactResult,
        model: ModelFn<'_>,
        seed: u64,
    ) -> Result<(), String> {
        check_functional(p, &r.best, model, seed)?;
        self.same_cycles(
            "baseline",
            &job.function,
            job,
            r.baseline.average_schedule_length,
        )?;
        self.same_cycles(
            "optimized",
            &r.best,
            job,
            r.estimate.average_schedule_length,
        )?;
        let (opt, base) = match obj {
            Obj::Throughput => (
                r.estimate.average_schedule_length,
                r.baseline.average_schedule_length,
            ),
            _ => (r.estimate.power, r.baseline.power),
        };
        if opt > base {
            return Err(format!(
                "{}: optimized {opt} is worse than baseline {base}",
                p.name
            ));
        }
        Ok(())
    }

    /// Checks a Pareto job's result.
    ///
    /// # Errors
    /// Names the first failed check.
    pub fn check_pareto_job(
        &self,
        p: &Program,
        job: &Prepared,
        r: &ParetoFactResult,
    ) -> Result<(), String> {
        self.same_cycles(
            "baseline",
            &job.function,
            job,
            r.baseline.average_schedule_length,
        )?;
        let pts: Vec<(f64, f64)> = r
            .frontier
            .iter()
            .map(|q| (q.energy, q.latency_cycles))
            .collect();
        check_frontier(&pts)
            .and_then(|()| check_frontier_points(r, job.config.sched.clock_ns))
            .map_err(|e| format!("{}: {e}", p.name))
    }
}

/// Whether `a` and `b` agree to a relative 1e-12: the program and this
/// check may round one formula's operations in another order.
fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-12 * a.abs().max(b.abs())
}

/// Each frontier point's figures must agree with each other: energy is
/// `energy_vdd2 · vdd²` with `vdd` in `(0, VDD_REF]`, power is
/// `energy / (latency_cycles · clock_ns)`, a scaled supply only stretches
/// latency (exactly `sched_cycles` at `VDD_REF`), and the untransformed
/// design at `VDD_REF`, where the frontier keeps it, is the baseline.
///
/// # Errors
/// Names the first offending point.
pub fn check_frontier_points(r: &ParetoFactResult, clock_ns: f64) -> Result<(), String> {
    for (i, q) in r.frontier.iter().enumerate() {
        let at_ref = q.vdd == VDD_REF;
        let problem = if !(q.vdd > 0.0 && q.vdd <= VDD_REF) {
            "supply outside (0, VDD_REF]"
        } else if !close(q.energy, q.energy_vdd2 * q.vdd * q.vdd) {
            "energy is not energy_vdd2 * vdd^2"
        } else if !close(q.power, q.energy / (q.latency_cycles * clock_ns)) {
            "power is not energy / (latency_cycles * clock_ns)"
        } else if q.latency_cycles < q.sched_cycles && !close(q.latency_cycles, q.sched_cycles) {
            "latency below the schedule length"
        } else if at_ref && !close(q.latency_cycles, q.sched_cycles) {
            "latency at the reference supply is not the schedule length"
        } else if at_ref
            && q.applied.is_empty()
            && !(close(q.energy_vdd2, r.baseline.energy_vdd2)
                && close(q.sched_cycles, r.baseline.average_schedule_length))
        {
            "untransformed point differs from the baseline"
        } else {
            continue;
        };
        return Err(format!("frontier point {i} {q:?}: {problem}"));
    }
    Ok(())
}

/// A frontier of `(energy, latency)` points must be non-empty, sorted by
/// latency and pairwise nondominated.
///
/// # Errors
/// Names the first offending pair.
pub fn check_frontier(pts: &[(f64, f64)]) -> Result<(), String> {
    if pts.is_empty() {
        return Err("empty frontier".into());
    }
    for w in pts.windows(2) {
        if w[1].1 < w[0].1 {
            return Err(format!(
                "frontier not sorted by latency: {:?} before {:?}",
                w[0], w[1]
            ));
        }
    }
    for (i, a) in pts.iter().enumerate() {
        for (j, b) in pts.iter().enumerate() {
            let dominates = b.0 <= a.0 && b.1 <= a.1 && (b.0 < a.0 || b.1 < a.1);
            if i != j && dominates {
                return Err(format!(
                    "frontier point {j} {b:?} dominates point {i} {a:?}"
                ));
            }
        }
    }
    Ok(())
}
