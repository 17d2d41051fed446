//! Workloads and their seeded job lists.
//!
//! A workload is a fixed *round*: a list of job slots (program, objective,
//! trace-set size, trace seed, search seed). A run replays whole rounds
//! until its time is up. Every job of every round carries a `job_nonce`
//! input that no program reads: it changes the job's evaluation context
//! (the traces are part of `evaluation_context_key`) without changing its
//! work, so every round repeats exactly the same computation while no two
//! rounds share an evaluation context. That makes rounds comparable
//! result-for-result and keeps any memo keyed by evaluation context from
//! serving one round out of another.

use crate::corpus::{fir_template, pps_template, suite_programs, Program};
use fact_core::{FactConfig, Objective};
use fact_estim::section5_library;
use fact_ir::Function;
use fact_prng::mix64;
use fact_sched::Allocation;
use fact_serve::json::Value;
use fact_sim::{generate, InputSpec, TraceSet};
use std::collections::BTreeMap;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// In-process, one thread, fresh cache per job, small trace sets.
    SearchCold,
    /// In-process, one thread, fresh cache per job, hundreds of vectors.
    SearchTraces,
    /// A spawned `factd --workers 2` driven by two closed-loop connections.
    FactdShared,
}

impl Workload {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "search-cold" => Some(Workload::SearchCold),
            "search-traces" => Some(Workload::SearchTraces),
            "factd-shared" => Some(Workload::FactdShared),
            _ => None,
        }
    }
}

/// The objective of one job (a `pareto` job is its own request type).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Obj {
    /// Minimize average schedule length.
    Throughput,
    /// Minimize power (Vdd scaling).
    Power,
    /// Explore the energy × latency frontier.
    Pareto,
}

impl Obj {
    const ALL: [Obj; 3] = [Obj::Throughput, Obj::Power, Obj::Pareto];

    /// The pipeline's objective.
    pub fn objective(self) -> Objective {
        match self {
            Obj::Throughput => Objective::Throughput,
            Obj::Power => Objective::Power,
            Obj::Pareto => Objective::Pareto,
        }
    }
}

/// One job slot of a round.
#[derive(Clone, Debug)]
pub struct Slot {
    /// Index into the workload's corpus.
    pub program: usize,
    /// The job's objective.
    pub obj: Obj,
    /// Trace vectors per job.
    pub vectors: usize,
    /// Trace generator seed.
    pub trace_seed: u64,
    /// Search seed.
    pub search_seed: u64,
    /// `factd-shared` only: the client connection that sends the job.
    pub conn: usize,
    /// The evaluation context the slot belongs to, unique within a round:
    /// every in-process slot has its own; `factd-shared` slots of one
    /// connection revisit a few.
    pub context: usize,
}

/// A workload's corpus and round.
pub struct Plan {
    /// The programs the round draws from.
    pub corpus: Vec<Program>,
    /// One round of job slots, in the order they run (per connection for
    /// `factd-shared`).
    pub round: Vec<Slot>,
}

/// Connections `factd-shared` drives, and the daemon's worker count.
pub const FACTD_CONNECTIONS: usize = 2;

fn derive(seed: u64, tag: u64, k: u64) -> u64 {
    // Kept below 2^62 so the value survives the wire's i64 integers.
    mix64(seed ^ mix64(tag.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ k)) >> 2
}

/// Builds the corpus and round of `w` for `seed`. The program mix, trace
/// sizes and search seeds are fixed; the seed picks the trace data.
pub fn plan(w: Workload, seed: u64) -> Plan {
    match w {
        Workload::SearchCold => {
            // The suite at its own small trace sets, plus size-scaled
            // FIR and PPS, whose search is dominated by scheduling and
            // estimation. TEST2 and SINTRAN are simulation-heavy even
            // with three vectors, so they run one objective each.
            let mut corpus = suite_programs();
            corpus.extend([fir_template(8), fir_template(32), fir_template(64)]);
            corpus.extend([
                pps_template(8),
                pps_template(24),
                pps_template(32),
                pps_template(48),
            ]);
            let mut round = Vec::new();
            for (i, p) in corpus.iter().enumerate() {
                let objs: Vec<Obj> = match p.name.as_str() {
                    "Test2" => vec![Obj::Throughput],
                    "SINTRAN" => vec![Obj::Power],
                    _ => Obj::ALL.to_vec(),
                };
                for obj in objs {
                    round.push(inproc_slot(
                        seed,
                        round.len(),
                        i,
                        obj,
                        small_trace_set(&p.name),
                    ));
                }
            }
            Plan { corpus, round }
        }
        Workload::SearchTraces => {
            // Hundreds of vectors per job: simulation dominates.
            let corpus = suite_programs();
            let vectors = |name: &str| match name {
                "GCD" => 384,
                "FIR" => 256,
                "Test2" => 24,
                "SINTRAN" => 48,
                "IGF" => 512,
                _ => 512,
            };
            let mut round = Vec::new();
            for (i, p) in corpus.iter().enumerate() {
                for obj in Obj::ALL {
                    round.push(inproc_slot(seed, round.len(), i, obj, vectors(&p.name)));
                }
            }
            Plan { corpus, round }
        }
        Workload::FactdShared => {
            // Each connection introduces six evaluation contexts per round
            // (every objective twice) and revisits each with new search
            // seeds and exact repeats, so the shared cache serves most
            // evaluations while the per-job fixed cost remains. Both
            // connections send the same mix, each under its own nonces,
            // so neither waits on the other's longer round.
            let mut corpus = suite_programs();
            corpus.extend([fir_template(32), pps_template(24)]);
            let idx = |name: &str| {
                corpus
                    .iter()
                    .position(|p| p.name == name)
                    .expect("factd corpus program")
            };
            let contexts = [
                (idx("Test2"), Obj::Throughput),
                (idx("FIR-32"), Obj::Power),
                (idx("IGF"), Obj::Pareto),
                (idx("SINTRAN"), Obj::Throughput),
                (idx("PPS-24"), Obj::Power),
                (idx("FIR"), Obj::Pareto),
            ];
            // Search-seed visiting order per context: 0 is cold, later
            // new seeds are partly cached, repeats are fully cached.
            const VISITS: [u64; 7] = [0, 1, 0, 2, 1, 3, 0];
            let mut round = Vec::new();
            for conn in 0..FACTD_CONNECTIONS {
                for (c, &(program, obj)) in contexts.iter().enumerate() {
                    let context = conn * contexts.len() + c;
                    for v in VISITS {
                        round.push(Slot {
                            program,
                            obj,
                            vectors: small_trace_set(&corpus[program].name),
                            trace_seed: derive(seed, 1, context as u64),
                            search_seed: derive(SEARCH_SEEDS, 2, (c * 64) as u64 + v),
                            conn,
                            context,
                        });
                    }
                }
            }
            Plan { corpus, round }
        }
    }
}

/// The trace-set size the §5 suite gives each program family.
fn small_trace_set(name: &str) -> usize {
    match name {
        "GCD" => 12,
        "Test2" | "SINTRAN" => 3,
        "IGF" => 6,
        n if n.starts_with("FIR") => 4,
        _ => 10,
    }
}

/// The search seeds are part of the fixed job list, not drawn from the
/// run's seed: the run's seed draws the trace data and the nonces, so
/// runs with different seeds do the same search work on different data.
const SEARCH_SEEDS: u64 = 0xFAC7_5EED;

fn inproc_slot(seed: u64, k: usize, program: usize, obj: Obj, vectors: usize) -> Slot {
    Slot {
        program,
        obj,
        vectors,
        trace_seed: derive(seed, 1, k as u64),
        search_seed: derive(SEARCH_SEEDS, 2, k as u64),
        conn: 0,
        context: k,
    }
}

/// The nonce of evaluation context `context` in round `round` (warm-up
/// rounds count down from [`WARMUP_ROUND`]; timed rounds count up from 0).
pub fn nonce(seed: u64, round: u64, context: usize) -> i64 {
    (derive(seed, 3, round) ^ (context as u64)) as i64
}

/// The first warm-up round's index; warm-up rounds count down from it,
/// so they never meet the timed rounds' indices.
pub const WARMUP_ROUND: u64 = u64::MAX;

/// A job compiled and ready to run in-process.
pub struct Prepared {
    /// The behavior.
    pub function: Function,
    /// Its allocation.
    pub alloc: Allocation,
    /// The job's traces (with its nonce).
    pub traces: TraceSet,
    /// The run configuration.
    pub config: FactConfig,
}

/// Input specs of a slot, with its nonce appended.
pub fn slot_inputs(p: &Program, nonce: i64) -> Vec<(String, InputSpec)> {
    let mut inputs = p.inputs.clone();
    inputs.push(("job_nonce".to_string(), InputSpec::Constant(nonce)));
    inputs
}

/// The allocation of a corpus program.
pub fn allocation_of(p: &Program) -> Allocation {
    let (lib, _) = section5_library();
    let mut a = Allocation::new();
    for (name, count) in &p.alloc {
        a.set(lib.by_name(name).expect("§5 library unit"), *count);
    }
    a
}

/// The run configuration of a slot: defaults, one search thread, with the
/// slot's objective and search seed.
pub fn config_of(slot: &Slot) -> FactConfig {
    let mut config = FactConfig {
        objective: slot.obj.objective(),
        ..FactConfig::default()
    };
    config.search.seed = slot.search_seed;
    config.search.threads = 1;
    config
}

/// Compiles and prepares one in-process job.
pub fn prepare(p: &Program, function: &Function, slot: &Slot, nonce: i64) -> Prepared {
    Prepared {
        function: function.clone(),
        alloc: allocation_of(p),
        traces: generate(&slot_inputs(p, nonce), slot.vectors, slot.trace_seed),
        config: config_of(slot),
    }
}

fn spec_value(s: &InputSpec) -> Value {
    match s {
        InputSpec::Constant(c) => Value::object([("const", Value::Int(*c))]),
        InputSpec::Uniform { lo, hi } => {
            Value::object([("lo", Value::Int(*lo)), ("hi", Value::Int(*hi))])
        }
        InputSpec::GaussianAr { sigma, rho } => {
            Value::object([("sigma", Value::Float(*sigma)), ("rho", Value::Float(*rho))])
        }
    }
}

/// The `factd` request line of a slot (without the trailing newline).
/// `id` names the slot, not the round, so a slot's reply is the same
/// text in every round.
pub fn request_line(p: &Program, slot: &Slot, nonce: i64, id: &str) -> String {
    let inputs: BTreeMap<String, Value> = slot_inputs(p, nonce)
        .iter()
        .map(|(k, s)| (k.clone(), spec_value(s)))
        .collect();
    let alloc: BTreeMap<String, Value> = p
        .alloc
        .iter()
        .map(|(k, n)| (k.to_string(), Value::Int(*n as i64)))
        .collect();
    let mut members = vec![
        (
            "type",
            Value::Str(
                if slot.obj == Obj::Pareto {
                    "pareto"
                } else {
                    "optimize"
                }
                .into(),
            ),
        ),
        ("id", Value::Str(id.into())),
        ("source", Value::Str(p.source.clone())),
        ("alloc", Value::Object(alloc)),
        (
            "traces",
            Value::object([
                ("n", Value::Int(slot.vectors as i64)),
                ("seed", Value::Int(slot.trace_seed as i64)),
                ("inputs", Value::Object(inputs)),
            ]),
        ),
        (
            "search",
            Value::object([
                ("seed", Value::Int(slot.search_seed as i64)),
                ("threads", Value::Int(1)),
            ]),
        ),
    ];
    match slot.obj {
        Obj::Throughput => members.push(("objective", Value::Str("throughput".into()))),
        Obj::Power => members.push(("objective", Value::Str("power".into()))),
        Obj::Pareto => {}
    }
    Value::object(members).to_json()
}
