//! relogic benchmark: end-to-end workloads against the release build, with
//! every answer checked.
//!
//! Run from the root of a relogic checkout:
//!
//! ```text
//! cargo run --release --manifest-path relbench/Cargo.toml --bin relbench -- \
//!     --workload serve-hot --seed 1 --seconds 45 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. `--trace 1` runs the traced
//! per-layer replay instead (`relbench-trace`). `--steady N` runs every
//! workload N times with seeds 1..=N and prints each metric's spread
//! against its bound in `BENCHMARK.json`. `--envelope` prints the measured
//! single-pass accuracy envelope against the reference.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use relbench::checks::Checker;
use relbench::json::{self, Json};
use relbench::refsim;
use relbench::stats::{hd_quantile, median, quartiles};
use relbench::sys;
use relbench::workload::{
    self, Backend, Input, Op, Source, Workload, COLD_CACHE_BYTES, DAEMON_TIMEOUT_MS, THREADS,
};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    steady: Option<usize>,
    envelope: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        steady: None,
        envelope: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => args.trace = value()? == "1",
            "--steady" => {
                args.steady = Some(value()?.parse().map_err(|e| format!("--steady: {e}"))?);
            }
            "--envelope" => args.envelope = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn main() {
    if let Err(e) = run() {
        eprintln!("relbench: {e}");
        std::process::exit(1);
    }
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let root = std::env::current_dir().map_err(|e| e.to_string())?;
    if !root.join("crates/cli/Cargo.toml").is_file() {
        return Err("run from the root of a relogic checkout (crates/cli not found)".into());
    }
    if let Some(runs) = args.steady {
        return steady(&root, &args, runs);
    }
    let cli = build_cli(&root)?;
    if args.envelope {
        return envelope(&root, &cli);
    }
    let wl = workload::build(&args.workload, args.seed).ok_or_else(|| {
        format!(
            "unknown workload `{}` (expected one of {})",
            args.workload,
            workload::NAMES.join(", ")
        )
    })?;
    let work = WorkDir::new(&root)?;
    if args.trace {
        return traced(&root, &cli, &work, &args);
    }
    let outcome = match wl.name {
        "cli-batch" => run_batch(&cli, &work.0, &wl, &args)?,
        _ => run_serve(&cli, &work.0, &wl, &args)?,
    };
    outcome.print();
    Ok(())
}

/// Builds `relogic-cli` in release mode and returns the binary's path.
fn build_cli(root: &Path) -> Result<PathBuf, String> {
    let status = Command::new("cargo")
        .args(["build", "--release", "--quiet", "-p", "relogic-cli"])
        .current_dir(root)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cargo: {e}"))?;
    if !status.success() {
        return Err("building relogic-cli failed".into());
    }
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| root.join("target"), |d| root.join(d));
    let cli = target.join("release").join("relogic-cli");
    if cli.is_file() {
        Ok(cli)
    } else {
        Err(format!("{} not found after the build", cli.display()))
    }
}

/// A scratch directory under `.bench_work/`, removed when dropped. Paths in
/// it are relative to the checkout root so socket paths stay short.
struct WorkDir(PathBuf);

impl WorkDir {
    fn new(root: &Path) -> Result<WorkDir, String> {
        let rel = PathBuf::from(".bench_work").join(std::process::id().to_string());
        std::fs::create_dir_all(root.join(&rel)).map_err(|e| format!("{}: {e}", rel.display()))?;
        Ok(WorkDir(rel))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        let _ = std::fs::remove_dir(".bench_work");
    }
}

/// Writes a workload's inputs into `dir` and returns `(name, text)` pairs.
/// Suite analogues come from `relogic-cli gen`; the rest from the seed.
fn write_inputs(cli: &Path, dir: &Path, inputs: &[Input]) -> Result<Vec<(String, String)>, String> {
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    inputs
        .iter()
        .map(|input| {
            let text = match &input.source {
                Source::Suite(name) => {
                    let out = Command::new(cli)
                        .args(["gen", name])
                        .output()
                        .map_err(|e| format!("gen {name}: {e}"))?;
                    if !out.status.success() {
                        return Err(format!("gen {name} failed"));
                    }
                    String::from_utf8(out.stdout).map_err(|e| e.to_string())?
                }
                Source::Text(text) => text.clone(),
            };
            std::fs::write(dir.join(format!("{}.bench", input.name)), &text)
                .map_err(|e| e.to_string())?;
            Ok((input.name.clone(), text))
        })
        .collect()
}

/// One finished operation of the timed phase.
struct Done {
    op: usize,
    /// Wall time in seconds, as the client saw it.
    latency: f64,
    /// CPU time in seconds the program's process spent on it.
    cpu: f64,
    ok: bool,
    out: String,
}

/// Runs whole rounds of `round_len` operations, one at a time in round
/// order (a single closed-loop client). After the first round it starts
/// another only if that round, taking as long as the last, would end
/// within `seconds`. One client, as reproduction scripts run jobs: with two
/// connections or jobs on a 2-core host, each operation's time depended on
/// what ran beside it.
fn run_rounds(
    round_len: usize,
    seconds: f64,
    mut exec: impl FnMut(usize) -> Done,
) -> (Vec<Done>, f64) {
    let start = Instant::now();
    let mut done = Vec::new();
    loop {
        let round_start = Instant::now();
        done.extend((0..round_len).map(&mut exec));
        let last = round_start.elapsed().as_secs_f64();
        if start.elapsed().as_secs_f64() + last > seconds {
            break;
        }
    }
    (done, start.elapsed().as_secs_f64())
}

/// Metrics and counts of one run.
struct Outcome {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    fn print(&self) {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

/// End-to-end metrics common to every workload, from the timed phase.
///
/// Operations are timed in the CPU time of the program's process, not in
/// wall time. On the shared virtual machines this benchmark runs on, the
/// hypervisor takes 3–17 % of the CPU for other guests (steal time), and
/// that share drifts over minutes: wall time per operation moved by ±22 %
/// where CPU time moved by ±9 % (see README). On a dedicated core a
/// single-threaded operation's wall time equals its CPU time.
fn end_to_end(
    round: &[Op],
    done: &[Done],
    setup: &[f64],
    peak_rss: u64,
) -> Vec<(&'static str, f64, &'static str)> {
    let ok: Vec<&Done> = done.iter().filter(|d| d.ok).collect();
    // Quantiles are taken over the operations of a round, each at its mean
    // over the run's rounds, with the Harrell–Davis estimator. The host's
    // speed swings by ±30 % within seconds, so one operation's mean over a
    // few rounds still scatters; the estimator averages over neighbouring
    // operations where a plain quantile reads one or two of them.
    let mut per_op: BTreeMap<usize, (f64, f64)> = BTreeMap::new();
    for d in &ok {
        let e = per_op.entry(d.op).or_default();
        *e = (e.0 + d.cpu * 1e3, e.1 + 1.0);
    }
    let mean_ms = |pick: &dyn Fn(&Op) -> bool| {
        per_op
            .iter()
            .filter(|(&op, _)| pick(&round[op]))
            .map(|(_, (sum, n))| sum / n)
            .collect::<Vec<_>>()
    };
    let all = mean_ms(&|_| true);
    let analyze = mean_ms(&|op| op.kind() == "analyze");
    let rate = |work: &dyn Fn(&Op) -> f64, pick: &dyn Fn(&Op) -> bool| {
        let (w, t) = ok
            .iter()
            .filter(|d| pick(&round[d.op]))
            .fold((0.0, 0.0), |(w, t), d| (w + work(&round[d.op]), t + d.cpu));
        w / t
    };
    let ops = rate(&|_| 1.0, &|_| true);
    let mc = rate(&|op| op.mc_patterns() as f64, &|op| op.mc_patterns() > 0);
    // CLI sweeps where the workload has them; otherwise the ε points of
    // serve `analyze` requests.
    let has_sweep = round.iter().any(|op| op.kind() == "sweep");
    let points = rate(&|op| op.eps_points() as f64, &|op| {
        op.kind() == if has_sweep { "sweep" } else { "analyze" }
    });
    vec![
        ("setup_s", median(setup), "s"),
        ("ops_per_cpu_s", ops, "ops/cpu-s"),
        ("cpu_p50_ms", hd_quantile(&all, 0.5), "ms"),
        ("cpu_p90_ms", hd_quantile(&all, 0.9), "ms"),
        ("analyze_cpu_p50_ms", hd_quantile(&analyze, 0.5), "ms"),
        ("mc_patterns_per_cpu_s", mc, "patterns/cpu-s"),
        ("sweep_points_per_cpu_s", points, "points/cpu-s"),
        ("peak_rss_mb", peak_rss as f64 / (1u64 << 20) as f64, "MB"),
    ]
}

/// Self-tests the reference, then checks that every repeat of an operation
/// answered as its first answer in `first`, and checks each first answer.
/// `parse_result` extracts the result object from an answer.
fn check_outputs(
    checker: &mut Checker,
    round: &[Op],
    done: &[Done],
    first: &BTreeMap<usize, String>,
    parse_result: impl Fn(&str) -> Option<Json>,
) {
    let mut failures = Vec::new();
    if let Err(e) = refsim::self_test(7) {
        failures.push(format!("reference self-test: {e}"));
    }
    for d in done.iter().filter(|d| d.ok) {
        if first.get(&d.op) != Some(&d.out) {
            let clip = |s: &str| s.chars().take(2000).collect::<String>();
            failures.push(format!(
                "{} {}: answer differs between repeats:\n{}\n{}",
                round[d.op].kind(),
                d.op,
                clip(first.get(&d.op).map_or("", |s| s.as_str())),
                clip(&d.out)
            ));
        }
    }
    for (&i, out) in first {
        let op = &round[i];
        if op.kind() == "sweep" {
            checker.check_sweep(op, out);
        } else if let Some(result) = parse_result(out) {
            checker.check(op, &result);
        } else {
            failures.push(format!("{} {i}: unparseable answer", op.kind()));
        }
    }
    checker.failures.extend(failures);
}

// ---------------------------------------------------------------- serve --

/// A `relogic-cli serve` daemon; stopped with SIGTERM when dropped.
struct Daemon {
    child: Option<Child>,
    sock: PathBuf,
}

impl Daemon {
    fn start(cli: &Path, dir: &Path, cache_bytes: Option<u64>) -> Result<Daemon, String> {
        let sock = dir.join("d.sock");
        let _ = std::fs::remove_file(&sock);
        let log = std::fs::File::create(dir.join("daemon.log")).map_err(|e| e.to_string())?;
        let mut cmd = Command::new(cli);
        cmd.arg("serve")
            .arg("--unix")
            .arg(&sock)
            .args(["--threads", &THREADS.to_string()])
            .args(["--timeout-ms", &DAEMON_TIMEOUT_MS.to_string()]);
        if let Some(bytes) = cache_bytes {
            cmd.args(["--cache-bytes", &bytes.to_string()]);
        }
        let child = cmd
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("serve: {e}"))?;
        let mut daemon = Daemon {
            child: Some(child),
            sock,
        };
        let t0 = Instant::now();
        while UnixStream::connect(&daemon.sock).is_err() {
            let exited = daemon
                .child
                .as_mut()
                .and_then(|c| c.try_wait().ok().flatten());
            if exited.is_some() {
                // Reaped by `try_wait`; nothing left to stop.
                daemon.child = None;
                return Err(format!("daemon exited before listening ({exited:?})"));
            }
            if t0.elapsed() > Duration::from_secs(30) {
                return Err("daemon did not start listening within 30 s".into());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        Ok(daemon)
    }

    /// CPU time the daemon has used so far, in seconds.
    fn cpu_s(&self) -> f64 {
        self.child
            .as_ref()
            .and_then(|c| sys::cpu_s(c).ok())
            .unwrap_or(f64::NAN)
    }

    fn connect(&self) -> Result<Conn, String> {
        let stream = UnixStream::connect(&self.sock).map_err(|e| e.to_string())?;
        let writer = stream.try_clone().map_err(|e| e.to_string())?;
        Ok(Conn {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Stops the daemon with SIGTERM, waits for it to exit, and returns its
    /// peak RSS in bytes.
    fn stop(mut self) -> u64 {
        self.child.take().map_or(0, |child| {
            sys::terminate(&child);
            sys::reap(child).map_or(0, |e| e.peak_rss_bytes)
        })
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(child) = self.child.take() {
            sys::terminate(&child);
            let _ = sys::reap(child);
        }
    }
}

struct Conn {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl Conn {
    fn call(&mut self, line: &str) -> Result<String, String> {
        self.writer
            .write_all(line.as_bytes())
            .and_then(|()| self.writer.write_all(b"\n"))
            .map_err(|e| e.to_string())?;
        let mut reply = String::new();
        self.reader
            .read_line(&mut reply)
            .map_err(|e| e.to_string())?;
        if reply.is_empty() {
            return Err("connection closed".into());
        }
        Ok(reply.trim_end().to_owned())
    }
}

/// The response with its cache tag removed, so a miss and a hit for the
/// same request compare byte for byte.
fn without_cache_tag(reply: &str) -> (String, Option<&'static str>) {
    for tag in ["hit", "miss"] {
        let member = format!(",\"cache\":\"{tag}\"");
        if reply.contains(&member) {
            return (reply.replacen(&member, "", 1), Some(tag));
        }
    }
    (reply.to_owned(), None)
}

fn is_ok(reply: &str) -> bool {
    reply.starts_with("{\"ok\":true")
}

fn stats(conn: &mut Conn) -> Result<Json, String> {
    let reply = conn.call("{\"kind\":\"stats\"}")?;
    json::parse(&reply)?
        .get("result")
        .cloned()
        .ok_or_else(|| "stats: no result".to_owned())
}

fn cache_counter(stats: &Json, key: &str) -> f64 {
    stats
        .at(&["cache", key])
        .and_then(Json::num)
        .unwrap_or(f64::NAN)
}

fn run_serve(cli: &Path, dir: &Path, wl: &Workload, args: &Args) -> Result<Outcome, String> {
    let hot = wl.name == "serve-hot";
    let cache_bytes = (!hot).then_some(COLD_CACHE_BYTES);
    let mut setup = Vec::new();
    let mut warm_replies = Vec::new();
    let mut texts = Vec::new();
    let mut daemon = None;
    for k in 0..wl.setups {
        // Set-up is timed in the CPU time of the program: `gen` runs plus
        // the daemon's start and warm-up.
        let cpu0 = sys::reaped_children_cpu_s();
        texts = write_inputs(cli, dir, &wl.inputs)?;
        let d = Daemon::start(cli, dir, cache_bytes)?;
        let mut conn = d.connect()?;
        warm_replies = wl
            .warm
            .iter()
            .map(|&i| {
                let op = &wl.round[i];
                conn.call(&op.request(&texts[op.circuit()].1))
            })
            .collect::<Result<Vec<_>, _>>()?;
        setup.push(sys::reaped_children_cpu_s() - cpu0 + d.cpu_s());
        if k + 1 < wl.setups {
            drop(conn);
            d.stop();
        } else {
            daemon = Some(d);
        }
    }
    let daemon = daemon.ok_or("no set-up ran")?;
    eprintln!("{}: set-up {setup:.3?} s", wl.name);
    // A fresh connection per stats call: the daemon closes connections
    // idle for 30 s.
    let before = stats(&mut daemon.connect()?)?;

    let lines: Vec<String> = wl
        .round
        .iter()
        .map(|op| op.request(&texts[op.circuit()].1))
        .collect();
    let mut conn = daemon.connect()?;
    let (done, elapsed) = run_rounds(lines.len(), args.seconds, |i| {
        let cpu0 = daemon.cpu_s();
        let t0 = Instant::now();
        let reply = conn.call(&lines[i]);
        let latency = t0.elapsed().as_secs_f64();
        let cpu = daemon.cpu_s() - cpu0;
        let out = reply.unwrap_or_else(|e| e);
        Done {
            op: i,
            latency,
            cpu,
            ok: is_ok(&out),
            out,
        }
    });
    // The daemon serves each connection on one of its worker threads, so
    // read the counters on the client connection while it is open.
    let after = stats(&mut conn)?;
    drop(conn);
    let peak_rss = daemon.stop();

    let checks_start = Instant::now();
    let mut checker = Checker::new(&wl.inputs, &texts, args.seed)?;
    let mut failures = Vec::new();
    // Workload validity from the daemon's own counters.
    let misses = cache_counter(&after, "misses") - cache_counter(&before, "misses");
    let evictions = cache_counter(&after, "evictions");
    let analysis = done.len() as f64;
    if hot && misses != 0.0 {
        failures.push(format!(
            "serve-hot: {misses} cache misses in the timed phase"
        ));
    }
    if !hot && (misses != analysis || evictions <= 0.0) {
        failures.push(format!(
            "serve-cold: {misses} misses for {analysis} requests, {evictions} evictions"
        ));
    }
    // Repeats must match byte for byte, and so must a warm hit and the
    // cold miss that answered the same request during set-up.
    let mut first = BTreeMap::new();
    for (&i, reply) in wl.warm.iter().zip(&warm_replies) {
        first.insert(i, without_cache_tag(reply).0);
    }
    let want_tag = if hot { "hit" } else { "miss" };
    let mut normalized = Vec::with_capacity(done.len());
    for d in done {
        let (out, tag) = without_cache_tag(&d.out);
        if d.ok && tag != Some(want_tag) {
            failures.push(format!(
                "{} {}: cache {tag:?}, expected {want_tag}",
                wl.round[d.op].kind(),
                d.op
            ));
        }
        first.entry(d.op).or_insert_with(|| out.clone());
        normalized.push(Done { out, ..d });
    }
    check_outputs(&mut checker, &wl.round, &normalized, &first, |reply| {
        json::parse(reply).ok()?.get("result").cloned()
    });
    checker.failures.extend(failures);
    eprintln!(
        "{}: checks took {:.2} s",
        wl.name,
        checks_start.elapsed().as_secs_f64()
    );
    Ok(finish(wl, &normalized, elapsed, &setup, peak_rss, &checker))
}

fn finish(
    wl: &Workload,
    done: &[Done],
    elapsed: f64,
    setup: &[f64],
    peak_rss: u64,
    checker: &Checker,
) -> Outcome {
    for f in &checker.failures {
        eprintln!("check failed: {f}");
    }
    let failed = done.iter().filter(|d| !d.ok).count();
    for d in done.iter().filter(|d| !d.ok) {
        eprintln!(
            "operation failed: {} {}: {}",
            wl.round[d.op].kind(),
            d.op,
            d.out.chars().take(300).collect::<String>()
        );
    }
    eprintln!(
        "{}: {} operations in {elapsed:.2} s, {failed} failed, {} checks, {} failed",
        wl.name,
        done.len(),
        checker.checks,
        checker.failures.len()
    );
    let (wall, cpu) = done
        .iter()
        .fold((0.0, 0.0), |(w, c), d| (w + d.latency, c + d.cpu));
    eprintln!(
        "{}: {:.2} ops/s in wall time; wall time is {:.3} × CPU time",
        wl.name,
        done.len() as f64 / elapsed,
        wall / cpu
    );
    Outcome {
        correct: checker.failures.is_empty(),
        attempted: done.len(),
        failed,
        metrics: end_to_end(&wl.round, done, setup, peak_rss),
    }
}

// ------------------------------------------------------------ cli-batch --

/// Runs `relogic-cli` with `args`; returns how it ended and its stdout (or
/// its error, when it failed).
fn cli_job(cli: &Path, args: &[String]) -> Result<(sys::Exit, String), String> {
    let mut child = Command::new(cli)
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("relogic-cli: {e}"))?;
    let mut stderr = child.stderr.take().ok_or("no stderr pipe")?;
    let drain = std::thread::spawn(move || {
        let mut s = String::new();
        let _ = stderr.read_to_string(&mut s);
        s
    });
    let mut out = String::new();
    if let Some(mut stdout) = child.stdout.take() {
        stdout.read_to_string(&mut out).map_err(|e| e.to_string())?;
    }
    let exit = sys::reap(child).map_err(|e| e.to_string())?;
    let err = drain.join().unwrap_or_default();
    if exit.code != Some(0) {
        out = format!("exit {:?}: {}", exit.code, err.trim());
    }
    Ok((exit, out))
}

fn run_batch(cli: &Path, dir: &Path, wl: &Workload, args: &Args) -> Result<Outcome, String> {
    let mut setup = Vec::new();
    let mut texts = Vec::new();
    for _ in 0..wl.setups {
        let cpu0 = sys::reaped_children_cpu_s();
        texts = write_inputs(cli, dir, &wl.inputs)?;
        setup.push(sys::reaped_children_cpu_s() - cpu0);
    }
    let path = |circuit: usize| {
        dir.join(format!("{}.bench", wl.inputs[circuit].name))
            .display()
            .to_string()
    };
    let jobs: Vec<Vec<String>> = wl
        .round
        .iter()
        .map(|op| op.cli_args(&path(op.circuit())))
        .collect();
    let mut peak = 0;
    let (done, elapsed) = run_rounds(jobs.len(), args.seconds, |i| {
        let t0 = Instant::now();
        let result = cli_job(cli, &jobs[i]);
        let latency = t0.elapsed().as_secs_f64();
        let (ok, cpu, out) = match result {
            Ok((exit, out)) => {
                peak = peak.max(exit.peak_rss_bytes);
                (exit.code == Some(0), exit.cpu_s, out)
            }
            Err(e) => (false, f64::NAN, e),
        };
        Done {
            op: i,
            latency,
            cpu,
            ok,
            out,
        }
    });

    let mut checker = Checker::new(&wl.inputs, &texts, args.seed)?;
    let mut failures = Vec::new();
    let mut first = BTreeMap::new();
    for d in done.iter().filter(|d| d.ok) {
        first.entry(d.op).or_insert_with(|| d.out.clone());
    }
    // Workload validity: every estimate trips the BDD budget and is
    // answered by the propagation tier.
    for (&i, out) in &first {
        if wl.round[i].kind() == "estimate" {
            let tier = json::parse(out)
                .ok()
                .and_then(|j| j.get("tier").and_then(Json::str).map(str::to_owned));
            if tier.as_deref() != Some("propagation") {
                failures.push(format!("estimate {i}: tier {tier:?}, expected propagation"));
            }
        }
    }
    // Thread-count determinism on one small case.
    let small = path(0);
    let mc = Op::MonteCarlo {
        circuit: 0,
        eps: 0.05,
        patterns: 200_000,
        seed: args.seed,
    };
    let sweep = Op::Sweep {
        circuit: 0,
        points: 21,
        max_eps: 0.5,
        backend: Backend::Sampled(args.seed),
    };
    for op in [&mc, &sweep] {
        let mut outs = Vec::new();
        for threads in ["1", "2"] {
            let mut a = op.cli_args(&small);
            let n = a.len();
            a[n - 1] = threads.to_owned();
            outs.push(cli_job(cli, &a)?.1);
        }
        if outs[0] != outs[1] {
            failures.push(format!(
                "{}: output differs between --threads 1 and 2",
                op.kind()
            ));
        }
    }
    check_outputs(&mut checker, &wl.round, &done, &first, |out| {
        json::parse(out).ok()
    });
    for (&i, out) in &first {
        let op = &wl.round[i];
        let sweep = first.iter().find(
            |(&j, _)| matches!(wl.round[j], Op::Sweep { circuit, .. } if circuit == op.circuit()),
        );
        if let (Op::Analyze { .. }, Some((_, csv)), Ok(result)) = (op, sweep, json::parse(out)) {
            checker.check_against_sweep(op, &result, csv);
        }
    }
    checker.failures.extend(failures);
    Ok(finish(wl, &done, elapsed, &setup, peak, &checker))
}

// ---------------------------------------------------------------- trace --

/// Writes every workload's inputs and runs the traced per-layer replay,
/// relaying its result line.
fn traced(root: &Path, cli: &Path, work: &WorkDir, args: &Args) -> Result<(), String> {
    for name in workload::NAMES {
        let wl = workload::build(name, args.seed).ok_or("unknown workload")?;
        write_inputs(cli, &work.0.join(name), &wl.inputs)?;
    }
    let status = Command::new("cargo")
        .args([
            "run",
            "--release",
            "--quiet",
            "--bin",
            "relbench-trace",
            "--manifest-path",
        ])
        .arg(root.join("relbench/Cargo.toml"))
        .arg("--")
        .args(["--workload", &args.workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .arg("--cli")
        .arg(cli)
        .arg("--work")
        .arg(&work.0)
        .status()
        .map_err(|e| format!("cargo: {e}"))?;
    if status.success() {
        Ok(())
    } else {
        Err("traced run failed".into())
    }
}

// --------------------------------------------------------------- steady --

/// Runs every workload `runs` times (seeds 1..=runs) and prints each
/// end-to-end metric's median, quartiles and spread against its bound.
fn steady(root: &Path, args: &Args, runs: usize) -> Result<(), String> {
    let spec = std::fs::read_to_string(root.join("BENCHMARK.json"))
        .map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let spec = json::parse(&spec)?;
    let bounds: BTreeMap<String, f64> = spec
        .get("end_to_end")
        .and_then(Json::arr)
        .unwrap_or_default()
        .iter()
        .filter_map(|m| Some((m.get("name")?.str()?.to_owned(), m.get("bound")?.num()?)))
        .collect();
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let names: Vec<&str> = if args.workload.is_empty() {
        workload::NAMES.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    for name in names {
        let mut values: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        let mut shares = Vec::new();
        for seed in 1..=runs {
            let out = Command::new(&exe)
                .args(["--workload", name, "--seed", &seed.to_string()])
                .args(["--seconds", &args.seconds.to_string(), "--trace", "0"])
                .stderr(Stdio::null())
                .output()
                .map_err(|e| e.to_string())?;
            let text = String::from_utf8_lossy(&out.stdout);
            let line = text.lines().last().unwrap_or("");
            let doc = json::parse(line).map_err(|e| format!("{name} seed {seed}: {e}"))?;
            let num = |k: &str| doc.get(k).and_then(Json::num).unwrap_or(f64::NAN);
            shares.push(num("failed") / num("attempted"));
            if doc.get("correct").and_then(Json::bool) != Some(true) {
                println!("{name} seed {seed}: correct = false");
            }
            if let Some(Json::Obj(metrics)) = doc.get("metrics") {
                for (k, v) in metrics {
                    values
                        .entry(k.clone())
                        .or_default()
                        .push(v.get("value").and_then(Json::num).unwrap_or(f64::NAN));
                }
            }
        }
        println!("{name}: failed share per run {shares:?}");
        for (metric, v) in &values {
            let (q1, q3) = quartiles(v);
            let med = median(v);
            let spread = (q3 - q1) / med;
            let bound = bounds.get(metric).copied().unwrap_or(f64::NAN);
            let verdict = if spread <= bound / 3.0 {
                "steady"
            } else {
                "NOT steady"
            };
            println!(
                "  {metric:20} median {med:12.4} q1 {q1:12.4} q3 {q3:12.4} spread {spread:6.3} bound {bound:5.2} {verdict}"
            );
            let runs: Vec<String> = v.iter().map(|x| format!("{x:.4}")).collect();
            println!("  {:20} runs {}", "", runs.join(" "));
        }
    }
    Ok(())
}

// ------------------------------------------------------------- envelope --

/// Prints the worst |δ_single-pass − δ_reference| less the `z` standard
/// errors the checks allow: per suite analogue and ε, and per ε over all of
/// serve-cold's random circuits for seeds 1–3. This is the measurement
/// behind `checks::ENVELOPE` and `checks::random_envelope`. Suite analogues
/// whose exact weights build is slow use sampled weights, as the workloads
/// do.
fn envelope(root: &Path, cli: &Path) -> Result<(), String> {
    let work = WorkDir::new(root)?;
    let exact = ["x2", "cu", "b9", "c499", "c1355"];
    let sampled = ["c1908", "c2670", "frg2", "c3540", "i10"];
    let suite: Vec<Input> = exact
        .iter()
        .chain(&sampled)
        .map(|&n| Input {
            name: n.to_owned(),
            source: Source::Suite(n),
        })
        .collect();
    let mut sets = vec![("suite".to_owned(), suite)];
    for seed in 1..=3 {
        if let Some(cold) = workload::build("serve-cold", seed) {
            let random = cold
                .inputs
                .into_iter()
                .filter(|i| matches!(i.source, Source::Text(_)))
                .collect();
            sets.push((format!("serve-cold seed {seed}"), random));
        }
    }
    let grid = [0.01, 0.02, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3];
    println!("set                  circuit    eps   worst |δ − ref| − z·SE");
    for (set, inputs) in &sets {
        let texts = write_inputs(cli, &work.0, inputs)?;
        let mut checker = Checker::new(inputs, &texts, 1)?;
        let z = checker.z();
        let mut worst_per_eps = [f64::NEG_INFINITY; 8];
        for (k, input) in inputs.iter().enumerate() {
            let backend = if sampled.contains(&input.name.as_str()) {
                Backend::Sampled(1)
            } else {
                Backend::Exact
            };
            let path = work.0.join(format!("{}.bench", input.name));
            for (slot, &eps) in worst_per_eps.iter_mut().zip(&grid) {
                let op = Op::Analyze {
                    circuit: k,
                    eps: vec![eps],
                    backend,
                    correlated: true,
                };
                let (exit, out) = cli_job(cli, &op.cli_args(&path.display().to_string()))?;
                if exit.code != Some(0) {
                    return Err(format!("{}: {out}", input.name));
                }
                let doc = json::parse(&out)?;
                let delta = doc
                    .get("points")
                    .and_then(Json::arr)
                    .and_then(|p| p.first()?.get("delta")?.nums())
                    .unwrap_or_default();
                let r = checker.reference(k, eps).clone();
                let worst = delta
                    .iter()
                    .zip(r.delta.iter().zip(&r.std_err))
                    .map(|(d, (rd, se))| (d - rd).abs() - z * se)
                    .fold(f64::NEG_INFINITY, f64::max);
                *slot = slot.max(worst);
                if set == "suite" {
                    println!("{set:20} {:9} {eps:5.2} {worst:10.4}", input.name);
                }
            }
        }
        if set != "suite" {
            for (eps, worst) in grid.iter().zip(worst_per_eps) {
                println!("{set:20} {:9} {eps:5.2} {worst:10.4}", "(all)");
            }
        }
    }
    Ok(())
}
