//! The benchmark corpus: the six §5 suite programs plus size-scaled FIR
//! and PPS variants generated from templates, each with its allocation,
//! its input distributions and a plain-Rust reference model.
//!
//! The models are written from the programs' definitions, not from the
//! compiler, so the output checker can tell a wrong optimized design from
//! a right one without trusting any part of the program under test.

use fact_core::suite::{input_specs, FIR_SRC, GCD_SRC, IGF_SRC, PPS_SRC, SINTRAN_SRC, TEST2_SRC};
use fact_sim::InputSpec;
use std::collections::HashMap;

/// What a reference model computes, keyed by program family.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Model {
    /// Greatest common divisor by repeated subtraction.
    Gcd,
    /// Direct-form FIR over `taps` coefficients (symmetric pair form).
    Fir {
        /// Array length of `c`, `x` and `xr`.
        taps: usize,
    },
    /// The paper's TEST2: three loops over memories.
    Test2,
    /// Sine transform: nested product-accumulate.
    Sintran,
    /// Incomplete gamma series.
    Igf,
    /// Sum of `n` inputs.
    Pps {
        /// Number of inputs `x1..xn`.
        n: usize,
    },
}

/// One corpus program.
#[derive(Clone, Debug)]
pub struct Program {
    /// Display name, e.g. `FIR` or `PPS-32`.
    pub name: String,
    /// Behavioral source text.
    pub source: String,
    /// Allocation by §5 library unit name.
    pub alloc: Vec<(&'static str, u32)>,
    /// Input distributions the traces are drawn from.
    pub inputs: Vec<(String, InputSpec)>,
    /// Reference model.
    pub model: Model,
}

const FIR_ALLOC: &[(&str, u32)] = &[("a1", 2), ("mt1", 1), ("cp1", 1), ("i1", 1)];
const PPS_ALLOC: &[(&str, u32)] = &[("a1", 5)];

fn suite_program(name: &str, source: &str, alloc: &[(&'static str, u32)], model: Model) -> Program {
    Program {
        name: name.to_string(),
        source: source.to_string(),
        alloc: alloc.to_vec(),
        inputs: input_specs(name).expect("suite program has input specs"),
        model,
    }
}

/// FIR with `taps` coefficients: the suite's FIR source with its arrays
/// and trip count scaled.
pub fn fir_template(taps: usize) -> Program {
    let source = format!(
        "proc fir{taps}(n) {{\n    array c[{taps}];\n    array x[{taps}];\n    array xr[{taps}];\n    \
         var acc = 0;\n    var i = 0;\n    while (i < n) {{\n        var ci = c[i];\n        \
         acc = acc + ci * x[i] + ci * xr[i];\n        i = i + 1;\n    }}\n    out y = acc;\n}}\n"
    );
    Program {
        name: format!("FIR-{taps}"),
        source,
        alloc: FIR_ALLOC.to_vec(),
        inputs: vec![("n".to_string(), InputSpec::Constant(taps as i64))],
        model: Model::Fir { taps },
    }
}

/// PPS over `n` inputs: one sequential summation chain.
pub fn pps_template(n: usize) -> Program {
    let params: Vec<String> = (1..=n).map(|i| format!("x{i}")).collect();
    let source = format!(
        "proc pps{n}({}) {{\n    out s = {};\n}}\n",
        params.join(", "),
        params.join(" + ")
    );
    Program {
        name: format!("PPS-{n}"),
        source,
        alloc: PPS_ALLOC.to_vec(),
        inputs: params
            .into_iter()
            .map(|p| (p, InputSpec::Uniform { lo: -100, hi: 100 }))
            .collect(),
        model: Model::Pps { n },
    }
}

/// The six §5 suite programs, with the suite's own allocations.
pub fn suite_programs() -> Vec<Program> {
    vec![
        suite_program(
            "GCD",
            GCD_SRC,
            &[("sb1", 2), ("cp1", 1), ("e1", 1)],
            Model::Gcd,
        ),
        suite_program("FIR", FIR_SRC, FIR_ALLOC, Model::Fir { taps: 16 }),
        suite_program(
            "Test2",
            TEST2_SRC,
            &[("a1", 2), ("sb1", 2), ("cp1", 2), ("i1", 2)],
            Model::Test2,
        ),
        suite_program(
            "SINTRAN",
            SINTRAN_SRC,
            &[("a1", 4), ("sb1", 4), ("mt1", 1), ("cp1", 1), ("i1", 1)],
            Model::Sintran,
        ),
        suite_program(
            "IGF",
            IGF_SRC,
            &[
                ("a1", 3),
                ("sb1", 1),
                ("mt1", 1),
                ("cp1", 1),
                ("i1", 1),
                ("s1", 1),
            ],
            Model::Igf,
        ),
        suite_program("PPS", PPS_SRC, PPS_ALLOC, Model::Pps { n: 16 }),
    ]
}

/// Named inputs, as the interpreter takes them.
pub type Inputs = HashMap<String, i64>;
/// Memory contents by array name.
pub type Memories = HashMap<String, Vec<i64>>;

/// The observable behaviour of one run: outputs in emission order and
/// final memory contents by array name.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Observed {
    /// `(name, value)` of every `out`, in emission order.
    pub outputs: Vec<(String, i64)>,
    /// Final contents of every array.
    pub memories: Memories,
}

fn mem<'a>(m: &'a Memories, name: &str) -> &'a [i64] {
    m.get(name).map(Vec::as_slice).unwrap_or(&[])
}

fn input(i: &Inputs, name: &str) -> i64 {
    *i.get(name).unwrap_or(&0)
}

/// Runs the plain-Rust model of `model` on the given inputs and initial
/// memories. Arithmetic wraps, as in the IR.
pub fn run_model(model: Model, inputs: &Inputs, memories: &Memories) -> Observed {
    let mut mems = memories.clone();
    let outputs = match model {
        Model::Gcd => {
            let (mut a, mut b) = (input(inputs, "a"), input(inputs, "b"));
            while a != b {
                if a > b {
                    a = a.wrapping_sub(b);
                } else {
                    b = b.wrapping_sub(a);
                }
            }
            vec![("g".to_string(), a)]
        }
        Model::Fir { .. } => {
            let n = input(inputs, "n");
            let (c, x, xr) = (mem(&mems, "c"), mem(&mems, "x"), mem(&mems, "xr"));
            let mut acc = 0i64;
            for i in 0..n.max(0) as usize {
                acc = acc
                    .wrapping_add(c[i].wrapping_mul(x[i]))
                    .wrapping_add(c[i].wrapping_mul(xr[i]));
            }
            vec![("y".to_string(), acc)]
        }
        Model::Test2 => {
            let (n1, n2, n3) = (
                input(inputs, "n1").max(0) as usize,
                input(inputs, "n2").max(0) as usize,
                input(inputs, "n3").max(0) as usize,
            );
            let x = mem(&mems, "x").to_vec();
            let mut x1 = mem(&mems, "x1").to_vec();
            for i in 0..n1 {
                x1[i] = x[i].wrapping_add(3);
            }
            let mut x2 = mem(&mems, "x2").to_vec();
            for j in 0..n2 {
                x2[j] = x1[j].wrapping_add(x[j]);
            }
            let (y1, y2, y3, y4) = (
                mem(&mems, "y1"),
                mem(&mems, "y2"),
                mem(&mems, "y3"),
                mem(&mems, "y4"),
            );
            let mut y = mem(&mems, "y").to_vec();
            for m in 0..n3 {
                y[m] = y1[m]
                    .wrapping_add(y2[m])
                    .wrapping_sub(y3[m].wrapping_add(y4[m]));
            }
            let d = y[0];
            mems.insert("x1".into(), x1);
            mems.insert("x2".into(), x2);
            mems.insert("y".into(), y);
            vec![("d".to_string(), d)]
        }
        Model::Sintran => {
            let n = input(inputs, "n").max(0) as usize;
            let (x, w) = (mem(&mems, "x"), mem(&mems, "w"));
            let mut s = mem(&mems, "s").to_vec();
            for k in 0..n {
                let wk = w[k];
                let mut acc = 0i64;
                for xj in &x[..n] {
                    acc = acc
                        .wrapping_add(xj.wrapping_mul(wk))
                        .wrapping_add(xj.wrapping_mul(k as i64));
                }
                s[k] = acc.wrapping_mul(wk).wrapping_add(acc.wrapping_mul(3));
            }
            let d = s[0];
            mems.insert("s".into(), s);
            vec![("d".to_string(), d)]
        }
        Model::Igf => {
            let (a, n) = (input(inputs, "a"), input(inputs, "n"));
            let (mut term, mut sum) = (4096i64, 0i64);
            for _ in 0..n.max(0) {
                term = term.wrapping_add(a);
                sum = sum.wrapping_add(term.wrapping_mul(a).wrapping_add(term.wrapping_mul(3)));
            }
            vec![("g".to_string(), sum >> 2)]
        }
        Model::Pps { n } => {
            let s = (1..=n).fold(0i64, |s, i| s.wrapping_add(input(inputs, &format!("x{i}"))));
            vec![("s".to_string(), s)]
        }
    };
    Observed {
        outputs,
        memories: mems,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fact_sim::{execute_with, ExecConfig};

    /// Every model agrees with the interpreter on the unoptimized source,
    /// so a later mismatch against an optimized design is the design's.
    #[test]
    fn models_match_the_sources() {
        let mut programs = suite_programs();
        programs.extend([
            fir_template(8),
            fir_template(40),
            pps_template(5),
            pps_template(33),
        ]);
        for p in &programs {
            let f = fact_lang::compile(&p.source).expect("corpus program compiles");
            for seed in 0..4u64 {
                let traces = fact_sim::generate(&p.inputs, 1, seed);
                let inputs = traces.vectors[0].clone();
                let mut memories = Memories::new();
                let mut config = ExecConfig::default();
                for (i, (_, m)) in f.memories().enumerate() {
                    let v: Vec<i64> = (0..m.size as i64)
                        .map(|k| (k * 7919 + seed as i64 * 31) % 2001 - 1000)
                        .collect();
                    config.initial_memories.insert(i, v.clone());
                    memories.insert(m.name.clone(), v);
                }
                let r = execute_with(&f, &inputs, &config).expect("source runs");
                let want = run_model(p.model, &inputs, &memories);
                assert_eq!(r.outputs, want.outputs, "{}", p.name);
                for (i, (_, m)) in f.memories().enumerate() {
                    assert_eq!(
                        r.memories[i], want.memories[&m.name],
                        "{} array {}",
                        p.name, m.name
                    );
                }
            }
        }
    }
}
