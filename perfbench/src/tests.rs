//! The benchmark's own tests: a short smoke run of every workload, and
//! proof that each output check can fail.

use crate::check::{check_frontier, check_frontier_points, Checker};
use crate::corpus::{run_model, suite_programs, Inputs, Memories, Model, Observed};
use crate::exec::{Engine, Res};
use crate::jobs::{config_of, prepare, Obj, Slot, Workload};
use crate::{daemon, inproc};
use fact_core::EvalCache;
use fact_ir::{BinOp, OpKind};
use std::path::PathBuf;
use std::process::Command;

/// `factd`, built from the repository's sources into its target dir.
fn factd() -> PathBuf {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..");
    let target =
        std::env::var("CARGO_TARGET_DIR").map_or_else(|_| root.join("target"), PathBuf::from);
    let status = Command::new(std::env::var("CARGO").unwrap_or_else(|_| "cargo".into()))
        .args([
            "build",
            "--release",
            "--quiet",
            "--bin",
            "factd",
            "--manifest-path",
        ])
        .arg(root.join("Cargo.toml"))
        .env("CARGO_TARGET_DIR", &target)
        .status()
        .expect("cargo runs");
    assert!(status.success(), "factd builds");
    target.join("release").join("factd")
}

#[test]
fn every_workload_runs_one_round_without_failures() {
    for w in [Workload::SearchCold, Workload::SearchTraces] {
        let out = inproc::run(w, 7, 0.0).expect("workload runs");
        assert_eq!(out.failed, 0, "{w:?}");
        assert!(out.attempted > 0);
        assert!(
            out.metrics.iter().all(|m| m.value > 0.0),
            "{w:?}: every end-to-end metric is above 0"
        );
    }
    let out = daemon::run(&factd(), 7, 0.0).expect("factd-shared runs");
    assert_eq!(out.failed, 0);
    assert!(out.correct);
    assert!(out.metrics.iter().all(|m| m.value > 0.0));
}

#[test]
fn a_failed_check_turns_the_run_incorrect() {
    // A model whose first output is off by one fails every job that has
    // an output.
    fn wrong(model: Model, i: &Inputs, m: &Memories) -> Observed {
        let mut o = run_model(model, i, m);
        if let Some(first) = o.outputs.first_mut() {
            first.1 += 1;
        }
        o
    }
    let out = inproc::run_checked(Workload::SearchCold, 7, 0.0, wrong).expect("workload runs");
    assert!(out.failed > 0);
    assert!(!out.correct);
}

/// An IGF job of objective `obj`, run and returned with its inputs.
fn igf_job(obj: Obj) -> (crate::corpus::Program, crate::jobs::Prepared, Slot, Res) {
    let p = suite_programs()
        .into_iter()
        .find(|p| p.name == "IGF")
        .expect("IGF");
    let slot = Slot {
        program: 0,
        obj,
        vectors: 6,
        trace_seed: 11,
        search_seed: 12,
        conn: 0,
        context: 0,
    };
    let f = fact_lang::compile(&p.source).expect("IGF compiles");
    let job = prepare(&p, &f, &slot, 13);
    assert_eq!(job.config.search.seed, config_of(&slot).search.seed);
    let res = Engine::default()
        .run(&job, slot.obj, &EvalCache::default(), None)
        .expect("IGF optimizes");
    (p, job, slot, res)
}

#[test]
fn checker_accepts_the_real_result_and_rejects_a_mutated_design() {
    let (p, job, slot, res) = igf_job(Obj::Throughput);
    let Res::Design(mut r) = res else {
        panic!("design job")
    };
    let model = |i: &Inputs, m: &Memories| run_model(p.model, i, m);
    let checker = Checker::default();
    checker
        .check_design_job(&p, &job, slot.obj, &r, &model, 99)
        .expect("the real result passes");

    // Turn every multiplication of the optimized design into an addition.
    let ops: Vec<_> = r
        .best
        .block_ids()
        .flat_map(|b| r.best.block(b).ops.clone())
        .collect();
    let mut mutated = 0;
    for op in ops {
        if let OpKind::Bin(BinOp::Mul, a, b) = r.best.op(op).kind {
            r.best.op_mut(op).kind = OpKind::Bin(BinOp::Add, a, b);
            mutated += 1;
        }
    }
    assert!(mutated > 0, "IGF's design multiplies");
    let err = checker
        .check_design_job(&p, &job, slot.obj, &r, &model, 99)
        .expect_err("a mutated design is rejected");
    assert!(err.contains("model"), "{err}");
}

#[test]
fn checker_rejects_a_mutated_reference_model() {
    let (p, job, slot, res) = igf_job(Obj::Throughput);
    let Res::Design(r) = res else {
        panic!("design job")
    };
    let wrong = |i: &Inputs, m: &Memories| {
        let Observed {
            mut outputs,
            memories,
        } = run_model(p.model, i, m);
        outputs[0].1 += 1;
        Observed { outputs, memories }
    };
    assert!(Checker::default()
        .check_design_job(&p, &job, slot.obj, &r, &wrong, 99)
        .is_err());
}

#[test]
fn checker_rejects_a_worse_design_and_misreported_cycles() {
    let (p, job, slot, res) = igf_job(Obj::Throughput);
    let Res::Design(mut r) = res else {
        panic!("design job")
    };
    let model = |i: &Inputs, m: &Memories| run_model(p.model, i, m);
    let checker = Checker::default();
    // Judged as a power job, a design drawing twice the baseline's power
    // fails the objective check (its cycles still agree).
    let mut worse = r.clone();
    worse.estimate.power = r.baseline.power * 2.0;
    let err = checker
        .check_design_job(&p, &job, Obj::Power, &worse, &model, 99)
        .expect_err("a worse design is rejected");
    assert!(err.contains("worse"), "{err}");
    r.baseline.average_schedule_length += 0.5;
    assert!(checker
        .check_design_job(&p, &job, slot.obj, &r, &model, 99)
        .is_err());
}

#[test]
fn frontier_check_rejects_dominated_and_unsorted_points() {
    assert!(check_frontier(&[(3.0, 1.0), (2.0, 2.0), (1.0, 3.0)]).is_ok());
    assert!(
        check_frontier(&[(3.0, 1.0), (3.0, 2.0)]).is_err(),
        "dominated"
    );
    assert!(
        check_frontier(&[(2.0, 2.0), (3.0, 1.0)]).is_err(),
        "unsorted"
    );
    assert!(check_frontier(&[]).is_err(), "empty");
}

#[test]
fn checker_rejects_misreported_frontier_points() {
    let (p, job, slot, res) = igf_job(Obj::Pareto);
    let Res::Pareto(r) = res else {
        panic!("pareto job")
    };
    let checker = Checker::default();
    assert_eq!(slot.obj, Obj::Pareto);
    checker
        .check_pareto_job(&p, &job, &r)
        .expect("the real frontier passes");
    let clock_ns = job.config.sched.clock_ns;

    // Under-reported energy.
    let mut low_energy = r.clone();
    low_energy.frontier[0].energy *= 0.5;
    assert!(check_frontier_points(&low_energy, clock_ns).is_err());

    // Under-reported power.
    let mut low_power = r.clone();
    low_power.frontier[0].power *= 0.5;
    assert!(check_frontier_points(&low_power, clock_ns).is_err());

    // A latency below the schedule length, with power made to agree.
    let mut fast = r.clone();
    let q = &mut fast.frontier[0];
    q.latency_cycles = 0.5 * q.sched_cycles;
    q.power = q.energy / (q.latency_cycles * clock_ns);
    assert!(check_frontier_points(&fast, clock_ns).is_err());

    // The untransformed design at the reference supply that is not the
    // baseline.
    let mut base = r.clone();
    base.baseline.energy_vdd2 *= 2.0;
    let q = &mut base.frontier[0];
    q.applied.clear();
    q.vdd = fact_estim::VDD_REF;
    q.latency_cycles = q.sched_cycles;
    q.energy = q.energy_vdd2 * q.vdd * q.vdd;
    q.power = q.energy / (q.latency_cycles * clock_ns);
    let err = check_frontier_points(&base, clock_ns).expect_err("not the baseline");
    assert!(err.contains("baseline"), "{err}");
}
