//! The `factd-shared` workload: a spawned `factd --workers 2`, driven over
//! TCP by two closed-loop client connections from this process. Each
//! connection sends its next job only after reading the previous reply.

use crate::check::Checker;
use crate::corpus::run_model;
use crate::exec::{decode, serve_in_process, Engine, Res};
use crate::inproc::{check_seed, end_to_end, Quality, SETUP_REPS};
use crate::jobs::{
    nonce, plan, request_line, Plan, Prepared, Workload, FACTD_CONNECTIONS, WARMUP_ROUND,
};
use crate::layers::{LayerAcc, ServeFigures};
use crate::stats::{median, peak_rss_mb};
use crate::Output;
use fact_core::{evaluation_context_key, EvalCache, PhaseTimers};
use fact_estim::section5_library;
use fact_sched::Allocation;
use fact_serve::json::Value;
use fact_serve::{parse, OptimizeRequest};
use fact_sim::generate;
use std::collections::HashSet;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A running daemon.
struct Daemon {
    child: Child,
    addr: String,
    drain: Option<JoinHandle<()>>,
}

impl Daemon {
    /// Spawns `factd` on an ephemeral port and waits for its address.
    fn spawn(factd: &Path) -> Result<Daemon, String> {
        let mut child = Command::new(factd)
            .args([
                "--addr",
                "127.0.0.1:0",
                "--workers",
                &FACTD_CONNECTIONS.to_string(),
            ])
            .args(["--stats-every", "0"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", factd.display()))?;
        let mut err = BufReader::new(child.stderr.take().expect("piped stderr"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            if err.read_line(&mut line).map_err(|e| e.to_string())? == 0 {
                let _ = child.wait();
                return Err("factd exited before listening".into());
            }
            if let Some(rest) = line.split("listening on ").nth(1) {
                break rest
                    .split_whitespace()
                    .next()
                    .unwrap_or_default()
                    .to_string();
            }
        };
        // Keep draining the log so the daemon never blocks on a full pipe.
        let drain = std::thread::spawn(move || {
            let mut sink = Vec::new();
            let _ = err.read_to_end(&mut sink);
        });
        Ok(Daemon {
            child,
            addr,
            drain: Some(drain),
        })
    }

    fn connect(&self) -> Result<Conn, String> {
        let stream =
            TcpStream::connect(&self.addr).map_err(|e| format!("connect {}: {e}", self.addr))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn { stream, reader })
    }

    /// Asks the daemon to shut down; [`Daemon::wait`] reaps it.
    fn request_shutdown(&self) {
        if let Ok(mut c) = self.connect() {
            let _ = c.request(r#"{"type":"shutdown"}"#);
        }
    }

    /// Waits for the daemon to exit (killing it after 20 s) and for its
    /// log drain.
    fn wait(mut self) {
        let deadline = Instant::now() + Duration::from_secs(20);
        while matches!(self.child.try_wait(), Ok(None)) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(d) = self.drain.take() {
            let _ = d.join();
        }
    }
}

/// Stops every daemon, whatever happened.
struct Daemons(Vec<Daemon>);

impl Drop for Daemons {
    fn drop(&mut self) {
        for d in &self.0 {
            d.request_shutdown();
        }
        for d in self.0.drain(..) {
            d.wait();
        }
    }
}

/// One client connection.
struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    /// Sends one request line and reads one reply line (without `\n`).
    fn request(&mut self, line: &str) -> Result<String, String> {
        let mut buf = Vec::with_capacity(line.len() + 1);
        buf.extend_from_slice(line.as_bytes());
        buf.push(b'\n');
        self.stream.write_all(&buf).map_err(|e| e.to_string())?;
        let mut reply = String::new();
        if self
            .reader
            .read_line(&mut reply)
            .map_err(|e| e.to_string())?
            == 0
        {
            return Err("daemon closed the connection".into());
        }
        reply.truncate(reply.trim_end().len());
        Ok(reply)
    }

    fn ping_ms(&mut self) -> Result<f64, String> {
        let t = Instant::now();
        let r = self.request(r#"{"type":"ping"}"#)?;
        if !r.contains("pong") {
            return Err(format!("ping answered {r}"));
        }
        Ok(t.elapsed().as_secs_f64() * 1e3)
    }

    fn stats(&mut self) -> Result<Value, String> {
        parse(&self.request(r#"{"type":"stats"}"#)?).map_err(|e| e.to_string())
    }
}

fn int(v: &Value, key: &str) -> u64 {
    v.get(key).and_then(Value::as_i64).unwrap_or(0) as u64
}

/// The slot indices each connection sends, in order.
fn slots_of(plan: &Plan) -> Vec<Vec<usize>> {
    let mut by_conn = vec![Vec::new(); FACTD_CONNECTIONS];
    for (k, s) in plan.round.iter().enumerate() {
        by_conn[s.conn].push(k);
    }
    by_conn
}

fn line_of(plan: &Plan, seed: u64, k: usize, round: u64) -> String {
    let s = &plan.round[k];
    request_line(
        &plan.corpus[s.program],
        s,
        nonce(seed, round, s.context),
        &format!("c{}-s{k}", s.conn),
    )
}

/// What one connection did in the timed phase.
#[derive(Default)]
struct ConnRun {
    latencies_ms: Vec<f64>,
    ping_ms: Vec<f64>,
    /// Replies of the first round, by position in the connection's list.
    first: Vec<String>,
    /// Later replies that differ from the first round's, by position.
    mismatches: Vec<u64>,
    rounds: u64,
    /// Sum of `cache_hits` and `evaluated` over every reply.
    cache_hits: u64,
    evaluated: u64,
}

/// Rounds per second of `--seconds`. `factd-shared` runs a fixed number
/// of rounds rather than until a deadline: every round leaves new entries
/// in the daemon's cache, so only a fixed round count makes its peak RSS
/// (and the cache's table growth steps) repeat from run to run. The rate
/// makes a run last about `--seconds` on the reference machine.
const ROUNDS_PER_SECOND: f64 = 2.0;

/// Runs `rounds` rounds on every connection concurrently, each on its own
/// thread, starting at round `first_round` (`pings` sends a ping after
/// every job).
fn drive(
    plan: &Plan,
    seed: u64,
    conns: &mut [Conn],
    first_round: u64,
    rounds: u64,
    pings: bool,
) -> Result<Vec<ConnRun>, String> {
    let slots = slots_of(plan);
    std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(&slots)
            .map(|(conn, mine)| {
                scope.spawn(move || -> Result<ConnRun, String> {
                    let mut run = ConnRun {
                        mismatches: vec![0; mine.len()],
                        ..ConnRun::default()
                    };
                    loop {
                        let round = first_round + run.rounds;
                        for (i, &k) in mine.iter().enumerate() {
                            let line = line_of(plan, seed, k, round);
                            let t = Instant::now();
                            let reply = conn.request(&line)?;
                            run.latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
                            if pings {
                                run.ping_ms.push(conn.ping_ms()?);
                            }
                            if run.rounds == 0 {
                                run.first.push(reply);
                            } else if reply != run.first[i] {
                                run.mismatches[i] += 1;
                            }
                        }
                        run.rounds += 1;
                        if run.rounds == rounds {
                            break;
                        }
                    }
                    for r in &run.first {
                        let v = parse(r).map_err(|e| e.to_string())?;
                        run.cache_hits += int(&v, "cache_hits") * run.rounds;
                        run.evaluated += int(&v, "evaluated") * run.rounds;
                    }
                    Ok(run)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "client thread panicked".to_string())?)
            .collect()
    })
}

fn timed_rounds(seconds: f64) -> u64 {
    ((seconds * ROUNDS_PER_SECOND).round() as u64).max(1)
}

/// Starts a daemon, waits for its first `pong` and runs a warm-up round
/// whose evaluation contexts no timed job uses.
fn start(
    factd: &Path,
    plan: &Plan,
    seed: u64,
    rep: u64,
) -> Result<(Daemon, Vec<Conn>, f64), String> {
    let t = Instant::now();
    let d = Daemon::spawn(factd)?;
    let mut conns = (0..FACTD_CONNECTIONS)
        .map(|_| d.connect())
        .collect::<Result<Vec<_>, _>>()?;
    conns[0].ping_ms()?;
    drive(plan, seed, &mut conns, WARMUP_ROUND - rep, 1, false)?;
    Ok((d, conns, t.elapsed().as_secs_f64()))
}

/// The in-process form of a decoded request, prepared the way the
/// daemon prepares it.
fn prepared(req: &OptimizeRequest) -> Result<Prepared, String> {
    let (lib, _) = section5_library();
    let mut alloc = Allocation::new();
    for (name, n) in &req.alloc {
        alloc.set(lib.by_name(name).ok_or("unknown unit")?, *n);
    }
    Ok(Prepared {
        function: fact_lang::compile(&req.source).map_err(|e| e.to_string())?,
        alloc,
        traces: generate(&req.traces.inputs, req.traces.n, req.traces.seed),
        config: req.config.clone(),
    })
}

fn context_key(line: &str) -> Result<u64, String> {
    let job = prepared(&decode(line)?.0)?;
    Ok(evaluation_context_key(
        &job.function,
        &job.alloc,
        &job.traces,
        &job.config,
    ))
}

fn without_cache_hits(v: &Value) -> Value {
    let mut v = v.clone();
    if let Value::Object(m) = &mut v {
        m.remove("cache_hits");
    }
    v
}

/// Checks connection `conn`'s first-round replies: each equals the reply
/// of an in-process replay of the connection's jobs through one shared
/// cache (so `cache_hits` repeats exactly), and — `cache_hits` aside —
/// the reply of a cold in-process run (the cache is transparent); the
/// cold result then passes the design or frontier checks. Returns each
/// job's quality figure (see `Res::quality`).
fn check_conn(
    plan: &Plan,
    seed: u64,
    slots: &[usize],
    replies: &[String],
    checker: &Checker,
) -> Vec<Result<f64, String>> {
    let warm = EvalCache::default();
    slots
        .iter()
        .zip(replies)
        .map(|(&k, reply)| -> Result<f64, String> {
            let (req, pareto) = decode(&line_of(plan, seed, k, 0))?;
            let (v, _) = serve_in_process(&req, pareto, &warm)?;
            if v.to_json() != *reply {
                return Err(format!(
                    "reply differs from the in-process replay:\n  daemon  {reply}\n  replay  {}",
                    v.to_json()
                ));
            }
            let (cold, res) = serve_in_process(&req, pareto, &EvalCache::default())?;
            let daemon = parse(reply).map_err(|e| e.to_string())?;
            if without_cache_hits(&cold) != without_cache_hits(&daemon) {
                return Err("reply differs from a cold in-process run".into());
            }
            let slot = &plan.round[k];
            let p = &plan.corpus[slot.program];
            let job = prepared(&req)?;
            let model = |i: &_, m: &_| run_model(p.model, i, m);
            match &res {
                Res::Design(r) => {
                    checker.check_design_job(p, &job, slot.obj, r, &model, check_seed(slot))
                }
                Res::Pareto(r) => checker.check_pareto_job(p, &job, r),
            }?;
            Ok(res.quality(slot.obj))
        })
        .collect()
}

/// Each connection reuses only its own evaluation contexts, and no timed
/// context is a warm-up one: so every `cache_hits` figure depends on the
/// connection's own history alone and repeats exactly.
fn check_contexts(plan: &Plan, seed: u64) -> Result<(), String> {
    let slots = slots_of(plan);
    let mut seen: HashSet<u64> = HashSet::new();
    for round in (0..SETUP_REPS).map(|r| WARMUP_ROUND - r).chain([0]) {
        for mine in &slots {
            let own: HashSet<u64> = mine
                .iter()
                .map(|&k| context_key(&line_of(plan, seed, k, round)))
                .collect::<Result<_, _>>()?;
            if own.iter().any(|c| seen.contains(c)) {
                return Err(format!(
                    "round {round}: an evaluation context is shared across connections or rounds"
                ));
            }
            seen.extend(own);
        }
    }
    Ok(())
}

/// Checks every connection's replies (see [`check_conn`]) and counts the
/// jobs: a slot whose first reply fails a check fails in every round, and
/// each later reply that differs from the first fails on its own.
/// Returns the quality figures, the jobs attempted and the jobs failed.
fn tally(plan: &Plan, seed: u64, runs: &[ConnRun]) -> (Quality, u64, u64) {
    let checker = Checker::default();
    let mut quality = Quality::default();
    let (mut attempted, mut failed) = (0u64, 0u64);
    for (mine, run) in slots_of(plan).iter().zip(runs) {
        let verdicts = check_conn(plan, seed, mine, &run.first, &checker);
        for ((&k, verdict), mism) in mine.iter().zip(verdicts).zip(&run.mismatches) {
            let obj = plan.round[k].obj;
            match verdict {
                Ok(q) => {
                    failed += mism;
                    quality.push(obj, q);
                }
                Err(e) => {
                    eprintln!(
                        "check failed: {} ({obj:?}): {e}",
                        plan.corpus[plan.round[k].program].name
                    );
                    failed += run.rounds;
                }
            }
        }
        attempted += run.rounds * mine.len() as u64;
    }
    (quality, attempted, failed)
}

/// Runs `factd-shared` untraced and reports the end-to-end metrics.
pub fn run(factd: &Path, seed: u64, seconds: f64) -> Result<Output, String> {
    let plan = plan(Workload::FactdShared, seed);
    check_contexts(&plan, seed)?;
    let mut daemons = Daemons(Vec::new());
    let mut setups = Vec::new();
    let mut conns = Vec::new();
    for rep in 0..SETUP_REPS {
        // Earlier daemons are told to stop at once and reaped at the end.
        conns.clear();
        if let Some(d) = daemons.0.last() {
            d.request_shutdown();
        }
        let (d, c, s) = start(factd, &plan, seed, rep)?;
        daemons.0.push(d);
        conns = c;
        setups.push(s);
    }
    let t = Instant::now();
    let runs = drive(&plan, seed, &mut conns, 0, timed_rounds(seconds), false)?;
    let wall_s = t.elapsed().as_secs_f64();
    let daemon = daemons.0.last().expect("a daemon");
    let peak = peak_rss_mb(Some(daemon.child.id())).unwrap_or(0.0);
    drop(conns);
    drop(daemons);

    let (quality, attempted, failed) = tally(&plan, seed, &runs);
    let evaluated: u64 = runs.iter().map(|r| r.evaluated).sum();
    let hits: u64 = runs.iter().map(|r| r.cache_hits).sum();
    let latencies: Vec<f64> = runs
        .iter()
        .flat_map(|r| r.latencies_ms.iter().copied())
        .collect();
    let rounds: Vec<u64> = runs.iter().map(|r| r.rounds).collect();
    eprintln!("factd-shared: rounds per connection {rounds:?}, {attempted} jobs in {wall_s:.2} s, cache hits {hits} of {evaluated} evaluations");
    Ok(Output {
        correct: failed == 0,
        attempted,
        failed,
        metrics: end_to_end(
            median(&setups),
            attempted,
            wall_s,
            &latencies,
            peak,
            &quality,
            evaluated,
        ),
    })
}

/// Runs `factd-shared` traced: the daemon serves rounds with a ping after
/// every job (STATS before and after), its replies are checked as in the
/// untraced run, then the first round's request lines are replayed
/// in-process — through `decode_request` and the pipeline, one shared
/// cache per connection as in the daemon — untraced and traced, with the
/// layer replays.
pub fn run_traced(factd: &Path, seed: u64, seconds: f64) -> Result<Output, String> {
    let plan = plan(Workload::FactdShared, seed);
    let (d, mut conns, _) = start(factd, &plan, seed, 0)?;
    let daemons = Daemons(vec![d]);
    let before = conns[0].stats()?;
    let runs = drive(&plan, seed, &mut conns, 0, timed_rounds(seconds), true)?;
    let after = conns[0].stats()?;
    drop(conns);
    drop(daemons);

    let (_, attempted, failed) = tally(&plan, seed, &runs);
    let jobs: u64 = runs.iter().map(|r| r.latencies_ms.len() as u64).sum();
    let mut serve = ServeFigures {
        ping_ms: runs
            .iter()
            .flat_map(|r| r.ping_ms.iter().copied())
            .collect(),
        loop_wakeups: int(&after, "loop_wakeups") - int(&before, "loop_wakeups"),
        // Jobs, pings, and the closing STATS request.
        requests: 2 * jobs + 1,
        cache_entries: int(&after, "cache_entries"),
        ..ServeFigures::default()
    };
    for r in &runs {
        serve.cache_hits += r.cache_hits;
        serve.evaluated += r.evaluated;
    }

    let engine = Engine::default();
    let mut acc = LayerAcc::default();
    for (mine, run) in slots_of(&plan).iter().zip(&runs) {
        let (untraced_cache, traced_cache) = (EvalCache::default(), EvalCache::default());
        for (&k, reply) in mine.iter().zip(&run.first) {
            let line = line_of(&plan, seed, k, 0);
            let (req, _) = decode(&line)?;
            let job = prepared(&req)?;
            let obj = plan.round[k].obj;
            let t = Instant::now();
            engine.run(&job, obj, &untraced_cache, None)?;
            acc.untraced(t.elapsed().as_secs_f64());
            let timers = PhaseTimers::default();
            let t = Instant::now();
            let res = engine.run(&job, obj, &traced_cache, Some(&timers))?;
            acc.job(t.elapsed().as_secs_f64(), &timers, &res);
            acc.replay(&engine, &req.source, &job, &res);
            acc.replay_codec(&line, &parse(reply).map_err(|e| e.to_string())?);
        }
    }
    Ok(Output {
        correct: failed == 0,
        attempted,
        failed,
        metrics: acc.finish(&serve),
    })
}
