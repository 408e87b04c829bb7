//! Traced per-layer run: replays the benchmark's operations in-process,
//! timing each call into a layer's public functions, and prints the
//! per-layer metrics as the last line of standard output.
//!
//! Every layer in README's layer table is exercised by at least one
//! workload, and each run replays one round of all three workloads so that
//! every per-layer metric is measured whatever `--workload` is:
//!
//! * serve-hot: builds (parse, digest, tape, weights, observability), then
//!   one hit round through the same calls the daemon makes;
//! * serve-cold: one round of misses through the artifact cache under
//!   serve-cold's byte budget;
//! * cli-batch: one round of the batch's operations, plus one job of each
//!   kind run both as a `relogic-cli` process and in-process through
//!   `relogic_cli::run`, whose difference is the process overhead.
//!
//! The cache counters come from the two replays' artifact caches. Spans (name, start, end,
//! parent, request id) are kept in memory and written to
//! `.bench_out/spans-<workload>-<seed>.json` at the end.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use relbench::stats::median;
use relbench::sys;
use relbench::workload::{
    self, Backend, Op, Workload, DAEMON_TIMEOUT_MS, SAMPLED_PATTERNS, THREADS,
};
use relogic::{
    GateEps, InputDistribution, ObservabilityMatrix, SinglePass, SinglePassOptions, SweepTape,
    Weights,
};
use relogic_estimate::{CriticalMetric, EstimatorPolicy, EstimatorTier, PropagationEstimate};
use relogic_netlist::{bench, Circuit};
use relogic_serve::api;
use relogic_serve::proto::{AnalyzeRequestOptions, BackendSpec, CircuitPayload, NetlistFormat};
use relogic_serve::{ArtifactCache, Service, ServiceConfig};
use relogic_sim::{CancelToken, CircuitTape, MonteCarloConfig, DEFAULT_LANES};
use relogic_store::StoreKey;

struct Span {
    name: &'static str,
    start: f64,
    end: f64,
    parent: Option<usize>,
    request: u64,
    /// Work done inside the span (patterns, ε points), for rates.
    work: f64,
}

/// In-memory span recorder. With `on == false` it only runs the closures,
/// which is the untraced side of the overhead measurement.
struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    request: u64,
}

impl Tracer {
    fn new(on: bool) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            request: 0,
        }
    }

    /// A root span for one replayed operation, under a fresh request id.
    fn op<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        self.request += 1;
        self.span(name, 0.0, f)
    }

    fn span<T>(&mut self, name: &'static str, work: f64, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let start = self.t0.elapsed().as_secs_f64();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.stack.last().copied(),
            request: self.request,
            work,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id].end = self.t0.elapsed().as_secs_f64();
        out
    }

    /// Self time of every span: its duration less the time its children
    /// cover (children never overlap: the replay is sequential).
    fn self_times(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(|s| s.end - s.start).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.end - s.start;
            }
        }
        own
    }

    /// Mean self time of spans named `name`, in seconds.
    fn mean(&self, name: &str) -> f64 {
        let own = self.self_times();
        let v: Vec<f64> = self
            .spans
            .iter()
            .zip(&own)
            .filter(|(s, _)| s.name == name)
            .map(|(_, t)| *t)
            .collect();
        v.iter().sum::<f64>() / v.len() as f64
    }

    /// Work per second of self time over spans named `name`.
    fn rate(&self, name: &str) -> f64 {
        let own = self.self_times();
        let (w, t) = self
            .spans
            .iter()
            .zip(&own)
            .filter(|(s, _)| s.name == name)
            .fold((0.0, 0.0), |(w, t), (s, o)| (w + s.work, t + o));
        w / t
    }

    fn write(&self, path: &Path) -> std::io::Result<()> {
        let own = self.self_times();
        let mut out = String::from("[\n");
        for (i, (s, o)) in self.spans.iter().zip(&own).enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"start\":{},\"end\":{},\"self\":{o},\"parent\":{parent},\"request\":{}}}{}\n",
                s.name,
                s.start,
                s.end,
                s.request,
                if i + 1 < self.spans.len() { "," } else { "" }
            ));
        }
        out.push_str("]\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

struct Args {
    workload: String,
    seed: u64,
    cli: PathBuf,
    work: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        cli: PathBuf::new(),
        work: PathBuf::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {}
            "--cli" => args.cli = PathBuf::from(value),
            "--work" => args.work = PathBuf::from(value),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn main() {
    if let Err(e) = run() {
        eprintln!("relbench-trace: {e}");
        std::process::exit(1);
    }
}

/// A loaded input: netlist text and parsed circuit.
struct Loaded {
    text: String,
    circuit: Circuit,
}

fn load(work: &Path, wl: &Workload, tr: &mut Tracer) -> Result<Vec<Loaded>, String> {
    wl.inputs
        .iter()
        .map(|input| {
            let path = work.join(wl.name).join(format!("{}.bench", input.name));
            let text =
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            let circuit = tr.op("load", |tr| {
                tr.span("netlist.parse", 0.0, |_| bench::parse(&text))
            });
            let circuit = circuit.map_err(|e| format!("{}: {e}", input.name))?;
            Ok(Loaded { text, circuit })
        })
        .collect()
}

fn backend_of(b: Backend) -> relogic::Backend {
    match b {
        Backend::Exact => relogic::Backend::Bdd,
        Backend::Sampled(seed) => relogic::Backend::Simulation {
            patterns: SAMPLED_PATTERNS,
            seed,
        },
    }
}

fn spec_of(b: Backend) -> BackendSpec {
    match b {
        Backend::Exact => BackendSpec::Bdd,
        Backend::Sampled(seed) => BackendSpec::Sim {
            patterns: SAMPLED_PATTERNS,
            seed,
        },
    }
}

fn weights(tr: &mut Tracer, c: &Circuit, b: Backend) -> Result<Weights, String> {
    let name = match b {
        Backend::Exact => "core.weights_exact",
        Backend::Sampled(_) => "core.weights_sampled",
    };
    tr.span(name, 0.0, |_| {
        Weights::try_compute(c, &InputDistribution::Uniform, backend_of(b))
    })
    .map_err(|e| e.to_string())
}

fn pass_options(correlated: bool) -> SinglePassOptions {
    if correlated {
        SinglePassOptions::default()
    } else {
        SinglePassOptions::without_correlations()
    }
}

/// The single pass at each ε, as the library's layers.
fn single_pass(
    tr: &mut Tracer,
    c: &Circuit,
    w: &Weights,
    eps: &[f64],
    correlated: bool,
) -> Result<Vec<Vec<f64>>, String> {
    let engine = tr
        .span("core.single_pass_build", 0.0, |_| {
            SinglePass::try_new(c, w, pass_options(correlated))
        })
        .map_err(|e| e.to_string())?;
    eps.iter()
        .map(|&e| {
            let ge = GateEps::try_uniform(c, e).map_err(|e| e.to_string())?;
            tr.span("core.single_pass_point", 1.0, |_| engine.try_run(&ge))
                .map(|r| r.per_output().to_vec())
                .map_err(|e| e.to_string())
        })
        .collect()
}

/// The serve path for an `analyze` on resident artifacts: result object
/// and its encoding.
fn analyze_result(
    tr: &mut Tracer,
    c: &Circuit,
    w: &Weights,
    eps: &[f64],
    correlated: bool,
) -> Result<String, String> {
    let options = AnalyzeRequestOptions {
        single_pass: pass_options(correlated),
        diagnostics: false,
        per_node: false,
    };
    let never = CancelToken::new();
    let result = tr
        .span("serve.analyze_result", eps.len() as f64, |_| {
            api::analyze_result_cancellable(c, w, eps, &options, &never)
        })
        .map_err(|e| e.to_string())?;
    Ok(tr.span("serve.encode", 0.0, |_| result.encode()))
}

fn mc(
    tr: &mut Tracer,
    c: &Circuit,
    tape: &CircuitTape,
    eps: f64,
    patterns: u64,
    seed: u64,
) -> Result<(), String> {
    let ge = GateEps::try_uniform(c, eps).map_err(|e| e.to_string())?;
    let config = MonteCarloConfig {
        patterns,
        seed,
        threads: THREADS,
        ..MonteCarloConfig::default()
    };
    tr.span("sim.mc", patterns as f64, |_| {
        relogic_sim::try_estimate_tape(c, tape, ge.as_slice(), &config, DEFAULT_LANES)
    })
    .map(|_| ())
    .map_err(|e| e.to_string())
}

fn critical(
    tr: &mut Tracer,
    c: &Circuit,
    w: &Weights,
    threshold: f64,
    metric: &str,
) -> Result<usize, String> {
    let tape = tr
        .span("core.sweep_tape_build", 0.0, |_| SweepTape::try_new(c, w))
        .map_err(|e| e.to_string())?;
    let metric = CriticalMetric::parse(metric).ok_or("bad metric")?;
    let report = tr
        .span("estimate.critical_eps", 0.0, |_| {
            relogic_estimate::critical_eps(c, &tape, metric, threshold, 0)
        })
        .map_err(|e| e.to_string())?;
    Ok(report.steps)
}

/// The estimator policy with the daemon's tier closures, on a cold or warm
/// observability matrix.
fn estimate(
    tr: &mut Tracer,
    c: &Circuit,
    matrix: Option<&ObservabilityMatrix>,
    eps: f64,
    budget: usize,
) -> Result<EstimatorTier, String> {
    let ge = GateEps::try_uniform(c, eps).map_err(|e| e.to_string())?;
    let policy = EstimatorPolicy {
        bdd_node_budget: budget,
        ..EstimatorPolicy::default()
    };
    let report = tr
        .span("estimate.run", 0.0, |_| {
            relogic_estimate::run_estimate(
                &policy,
                |budget| match matrix {
                    Some(m) => Ok(m.closed_form(&ge)),
                    None => ObservabilityMatrix::try_compute_budgeted(
                        c,
                        &InputDistribution::Uniform,
                        THREADS,
                        budget,
                    )
                    .map(|m| m.closed_form(&ge)),
                },
                || {
                    PropagationEstimate::try_compute(c, &InputDistribution::Uniform)
                        .map(|p| p.closed_form(&ge))
                },
                |patterns, seed| {
                    let config = MonteCarloConfig {
                        patterns,
                        seed,
                        threads: THREADS,
                        ..MonteCarloConfig::default()
                    };
                    Ok(relogic_sim::try_estimate(c, ge.as_slice(), &config)?
                        .per_output()
                        .to_vec())
                },
            )
        })
        .map_err(|e| e.to_string())?;
    Ok(report.tier)
}

#[derive(Default)]
struct Bdd {
    peak: f64,
    hits: f64,
    lookups: f64,
    gc: f64,
    reorders: f64,
}

/// Per-circuit resident state of the hot replay.
struct Resident {
    weights: Option<Weights>,
    tape: Option<CircuitTape>,
    matrix: Option<ObservabilityMatrix>,
}

/// One round of serve-hot hits through the calls the daemon makes.
fn hot_round(
    tr: &mut Tracer,
    wl: &Workload,
    inputs: &[Loaded],
    res: &[Resident],
    cache: &ArtifactCache,
) -> Result<(), String> {
    for op in &wl.round {
        let k = op.circuit();
        let c = &inputs[k].circuit;
        tr.op(op.kind(), |tr| -> Result<(), String> {
            let backend = match op {
                Op::Analyze { backend, .. } => *backend,
                _ => Backend::Exact,
            };
            let payload = CircuitPayload {
                netlist: inputs[k].text.clone(),
                format: NetlistFormat::Bench,
                backend: spec_of(backend),
            };
            tr.span("store.digest", 0.0, |_| {
                StoreKey::digest("bench", &spec_of(backend).cache_tag(), &inputs[k].text)
            });
            tr.span("serve.cache_lookup", 0.0, |_| {
                cache.get_or_compile(&payload)
            })
            .map_err(|e| e.to_string())?;
            let r = &res[k];
            match op {
                Op::Analyze {
                    eps, correlated, ..
                } => {
                    let w = r.weights.as_ref().ok_or("weights not resident")?;
                    analyze_result(tr, c, w, eps, *correlated)?;
                    single_pass(tr, c, w, eps, *correlated)?;
                }
                Op::Observability { eps, .. } => {
                    let m = r.matrix.as_ref().ok_or("observability not resident")?;
                    for &e in eps {
                        let ge = GateEps::try_uniform(c, e).map_err(|e| e.to_string())?;
                        tr.span("core.closed_form", 0.0, |_| m.closed_form(&ge));
                    }
                }
                Op::MonteCarlo {
                    eps,
                    patterns,
                    seed,
                    ..
                } => {
                    let tape = r.tape.as_ref().ok_or("tape not resident")?;
                    mc(tr, c, tape, *eps, *patterns, *seed)?;
                }
                Op::Estimate { eps, budget, .. } => {
                    estimate(tr, c, r.matrix.as_ref(), *eps, *budget)?;
                }
                Op::CriticalEps {
                    threshold, metric, ..
                } => {
                    let w = r.weights.as_ref().ok_or("weights not resident")?;
                    critical(tr, c, w, *threshold, metric)?;
                }
                Op::Sweep { .. } => {}
            }
            Ok(())
        })?;
    }
    Ok(())
}

/// serve-hot: warm-up builds, then the hit round untraced and traced.
/// Returns the tracing overhead in percent.
fn hot(
    tr: &mut Tracer,
    work: &Path,
    seed: u64,
    bdd: &mut Bdd,
) -> Result<(f64, ArtifactCache), String> {
    let wl = workload::build("serve-hot", seed).ok_or("serve-hot")?;
    let inputs = load(work, &wl, tr)?;
    let mut res: Vec<Resident> = inputs
        .iter()
        .map(|_| Resident {
            weights: None,
            tape: None,
            matrix: None,
        })
        .collect();
    let cache = ArtifactCache::new(256 << 20);
    for op in wl.warm.iter().map(|&i| &wl.round[i]) {
        let k = op.circuit();
        let c = &inputs[k].circuit;
        let r = &mut res[k];
        tr.op("warm", |tr| -> Result<(), String> {
            match op {
                Op::Analyze { backend, .. } | Op::CriticalEps { backend, .. }
                    if r.weights.is_none() =>
                {
                    r.weights = Some(weights(tr, c, *backend)?);
                }
                Op::MonteCarlo { .. } if r.tape.is_none() => {
                    r.tape = Some(tr.span("sim.tape_compile", 0.0, |_| CircuitTape::compile(c)));
                }
                Op::Observability { .. } if r.matrix.is_none() => {
                    let m = tr
                        .span("core.observability_exact", 0.0, |_| {
                            ObservabilityMatrix::try_compute(
                                c,
                                &InputDistribution::Uniform,
                                relogic::Backend::Bdd,
                            )
                        })
                        .map_err(|e| e.to_string())?;
                    if let Some(s) = m.diagnostics().bdd_stats() {
                        bdd.peak = bdd.peak.max(s.peak_live_nodes as f64);
                        bdd.hits += s.cache_hits as f64;
                        bdd.lookups += (s.cache_hits + s.cache_misses) as f64;
                        bdd.gc += s.gc_runs as f64;
                        bdd.reorders += s.reorders as f64;
                    }
                    r.matrix = Some(m);
                }
                _ => {}
            }
            Ok(())
        })?;
    }
    for op in &wl.round {
        let backend = match op {
            Op::Analyze { backend, .. } => *backend,
            _ => Backend::Exact,
        };
        let payload = CircuitPayload {
            netlist: inputs[op.circuit()].text.clone(),
            format: NetlistFormat::Bench,
            backend: spec_of(backend),
        };
        cache.get_or_compile(&payload).map_err(|e| e.to_string())?;
    }
    // Untraced and traced replays of the same hit round in back-to-back
    // pairs of alternating order; the median relative difference of a pair
    // is the tracing overhead. A pair takes a few seconds, over which the
    // host's speed moves less than over the whole set of replays.
    const PAIRS: usize = 6;
    let mut off = Tracer::new(false);
    let mut overheads = Vec::with_capacity(PAIRS);
    for k in 0..PAIRS {
        let mut pair = [0.0f64; 2];
        for (i, time) in pair.iter_mut().enumerate() {
            let traced = (k + i) % 2 == 1;
            let t0 = Instant::now();
            hot_round(
                if traced { &mut *tr } else { &mut off },
                &wl,
                &inputs,
                &res,
                &cache,
            )?;
            *time = t0.elapsed().as_secs_f64();
        }
        let (traced, untraced) = if k % 2 == 0 {
            (pair[1], pair[0])
        } else {
            (pair[0], pair[1])
        };
        overheads.push(100.0 * (traced - untraced) / untraced);
    }
    Ok((median(&overheads), cache))
}

/// serve-cold: one round of misses through the daemon's artifact cache,
/// under serve-cold's byte budget.
fn cold(tr: &mut Tracer, work: &Path, seed: u64) -> Result<ArtifactCache, String> {
    let wl = workload::build("serve-cold", seed).ok_or("serve-cold")?;
    let cache = ArtifactCache::new(workload::COLD_CACHE_BYTES as usize);
    for op in &wl.round {
        let input = &wl.inputs[op.circuit()];
        let path = work.join(wl.name).join(format!("{}.bench", input.name));
        let text = std::fs::read_to_string(&path).map_err(|e| e.to_string())?;
        tr.op(op.kind(), |tr| -> Result<(), String> {
            tr.span("store.digest", 0.0, |_| {
                StoreKey::digest("bench", "bdd", &text)
            });
            let payload = CircuitPayload {
                netlist: text.clone(),
                format: NetlistFormat::Bench,
                backend: BackendSpec::Bdd,
            };
            // A miss parses the netlist inside the cache.
            let (artifact, _) = tr
                .span("serve.cache_compile", 0.0, |_| {
                    cache.get_or_compile(&payload)
                })
                .map_err(|e| e.to_string())?;
            let c = artifact.circuit();
            match op {
                Op::Analyze {
                    eps, correlated, ..
                } => {
                    let w = tr
                        .span("core.weights_exact", 0.0, |_| {
                            artifact.weights(cache.counters())
                        })
                        .map_err(|e| e.to_string())?;
                    analyze_result(tr, c, w, eps, *correlated)?;
                }
                Op::MonteCarlo {
                    eps,
                    patterns,
                    seed,
                    ..
                } => {
                    let tape =
                        tr.span("sim.tape_compile", 0.0, |_| artifact.tape(cache.counters()));
                    mc(tr, c, tape, *eps, *patterns, *seed)?;
                }
                _ => {}
            }
            Ok(())
        })?;
    }
    Ok(cache)
}

fn batch(
    tr: &mut Tracer,
    work: &Path,
    seed: u64,
    tiers: &mut usize,
    steps: &mut Vec<f64>,
) -> Result<(), String> {
    let wl = workload::build("cli-batch", seed).ok_or("cli-batch")?;
    let inputs = load(work, &wl, tr)?;
    for op in &wl.round {
        let c = &inputs[op.circuit()].circuit;
        tr.op(op.kind(), |tr| -> Result<(), String> {
            match op {
                Op::MonteCarlo {
                    eps,
                    patterns,
                    seed,
                    ..
                } => {
                    let tape = tr.span("sim.tape_compile", 0.0, |_| CircuitTape::compile(c));
                    mc(tr, c, &tape, *eps, *patterns, *seed)?;
                }
                Op::Estimate { eps, budget, .. } => {
                    if estimate(tr, c, None, *eps, *budget)? == EstimatorTier::Propagation {
                        *tiers += 1;
                    }
                }
                Op::Sweep {
                    points,
                    max_eps,
                    backend,
                    ..
                } => {
                    let w = weights(tr, c, *backend)?;
                    let tape = tr
                        .span("core.sweep_tape_build", 0.0, |_| SweepTape::try_new(c, &w))
                        .map_err(|e| e.to_string())?;
                    let grid: Vec<f64> = (0..*points)
                        .map(|i| max_eps * i as f64 / (*points - 1) as f64)
                        .collect();
                    tr.span("core.sweep_grid", *points as f64, |_| {
                        tape.try_run_grid(&grid, THREADS)
                    })
                    .map_err(|e| e.to_string())?;
                }
                Op::CriticalEps {
                    threshold,
                    metric,
                    backend,
                    ..
                } => {
                    let w = weights(tr, c, *backend)?;
                    steps.push(critical(tr, c, &w, *threshold, metric)? as f64);
                }
                Op::Analyze {
                    eps,
                    backend,
                    correlated,
                    ..
                } => {
                    let w = weights(tr, c, *backend)?;
                    single_pass(tr, c, &w, eps, *correlated)?;
                }
                Op::Observability { .. } => {}
            }
            Ok(())
        })?;
    }
    Ok(())
}

/// cli-batch's cheap job kinds (`analyze`, `estimate`), each timed as a
/// `relogic-cli` process and in-process through `relogic_cli::run`, in
/// `PAIRS` back-to-back pairs of alternating order. Returns the median
/// difference in seconds; fails when the two print different output. A
/// pair runs within a fraction of a second, so the host's speed, which
/// swings by ±30 % over seconds, is the same for both halves; the costly
/// kinds would bury a millisecond of start-up in that swing.
fn process_overhead(cli: &Path, work: &Path, seed: u64) -> Result<f64, String> {
    const PAIRS: usize = 10;
    let wl = workload::build("cli-batch", seed).ok_or("cli-batch")?;
    let mut diffs = Vec::new();
    for kind in ["analyze", "estimate"] {
        let op = wl
            .round
            .iter()
            .find(|op| op.kind() == kind)
            .ok_or("cli-batch has no such job")?;
        let path = work
            .join(wl.name)
            .join(format!("{}.bench", wl.inputs[op.circuit()].name));
        let args = op.cli_args(&path.display().to_string());
        let process = || -> Result<(f64, String), String> {
            let t0 = Instant::now();
            let out = Command::new(cli)
                .args(&args)
                .output()
                .map_err(|e| e.to_string())?;
            let text = String::from_utf8_lossy(&out.stdout).trim_end().to_owned();
            Ok((t0.elapsed().as_secs_f64(), text))
        };
        let in_process = || -> Result<(f64, String), String> {
            let t0 = Instant::now();
            let parsed = relogic_cli::ParsedArgs::parse(args.iter().map(String::as_str))
                .map_err(|e| e.to_string())?;
            let out = relogic_cli::run(&parsed).map_err(|e| e.to_string())?;
            Ok((t0.elapsed().as_secs_f64(), out.trim_end().to_owned()))
        };
        for k in 0..PAIRS {
            let ((tp, op_out), (ti, in_out)) = if k % 2 == 0 {
                (process()?, in_process()?)
            } else {
                let i = in_process()?;
                (process()?, i)
            };
            if op_out != in_out {
                return Err(format!("{kind}: process and in-process output differ"));
            }
            diffs.push(tp - ti);
        }
    }
    Ok(median(&diffs))
}

/// Client round-trip of a cached request to a `relogic-cli serve` daemon
/// less the in-process `Service::handle_line` time of the same request
/// (medians of 200 each). The daemon's own latency histogram has log₂
/// buckets, too coarse to subtract at this scale.
fn transport(cli: &Path, work: &Path, seed: u64) -> Result<f64, String> {
    let wl = workload::build("serve-hot", seed).ok_or("serve-hot")?;
    let op = wl
        .round
        .iter()
        .find(|op| op.kind() == "estimate")
        .ok_or("no estimate in serve-hot")?;
    let path = work
        .join(wl.name)
        .join(format!("{}.bench", wl.inputs[op.circuit()].name));
    let line = op.request(&std::fs::read_to_string(path).map_err(|e| e.to_string())?);
    let service = Service::new(ServiceConfig {
        default_threads: THREADS,
        ..ServiceConfig::default()
    });
    if !service.handle_line(&line).starts_with("{\"ok\":true") {
        return Err("transport probe request failed".into());
    }
    let inproc: Vec<f64> = (0..200)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(service.handle_line(&line));
            t0.elapsed().as_secs_f64()
        })
        .collect();
    let sock = work.join("t.sock");
    let child = Command::new(cli)
        .arg("serve")
        .arg("--unix")
        .arg(&sock)
        .args([
            "--threads",
            &THREADS.to_string(),
            "--timeout-ms",
            &DAEMON_TIMEOUT_MS.to_string(),
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| e.to_string())?;
    let result = (|| -> Result<f64, String> {
        let t0 = Instant::now();
        let stream = loop {
            match UnixStream::connect(&sock) {
                Ok(s) => break s,
                Err(_) if t0.elapsed() < Duration::from_secs(30) => {
                    std::thread::sleep(Duration::from_millis(2))
                }
                Err(e) => return Err(e.to_string()),
            }
        };
        let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
        let mut reader = BufReader::new(stream);
        let mut call = || -> Result<f64, String> {
            let t0 = Instant::now();
            writer
                .write_all(line.as_bytes())
                .and_then(|()| writer.write_all(b"\n"))
                .map_err(|e| e.to_string())?;
            let mut reply = String::new();
            reader.read_line(&mut reply).map_err(|e| e.to_string())?;
            Ok(t0.elapsed().as_secs_f64())
        };
        call()?;
        let rtt = (0..200).map(|_| call()).collect::<Result<Vec<_>, _>>()?;
        Ok(median(&rtt) - median(&inproc))
    })();
    sys::terminate(&child);
    let _ = sys::reap(child);
    result
}

/// Cache counters of serve-hot's cache (warm-up plus hit rounds) and
/// serve-cold's (one round of misses), summed.
fn cache_counters(caches: &[&ArtifactCache]) -> BTreeMap<&'static str, f64> {
    let sum = |f: fn(&relogic_serve::cache::CacheCounters) -> &AtomicU64| {
        caches
            .iter()
            .map(|c| f(c.counters()).load(Ordering::Relaxed) as f64)
            .sum::<f64>()
    };
    let hits = sum(|c| &c.hits);
    let misses = sum(|c| &c.misses);
    BTreeMap::from([
        ("serve.cache_hits", hits),
        ("serve.cache_misses", misses),
        ("serve.evictions", sum(|c| &c.evictions)),
        ("serve.weights_computed", sum(|c| &c.weights_computed)),
        ("serve.hit_ratio", hits / (hits + misses)),
    ])
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let mut tr = Tracer::new(true);
    let mut bdd = Bdd::default();
    let mut tiers = 0usize;
    let mut steps = Vec::new();
    let (overhead, hot_cache) = hot(&mut tr, &args.work, args.seed, &mut bdd)?;
    let cold_cache = cold(&mut tr, &args.work, args.seed)?;
    batch(&mut tr, &args.work, args.seed, &mut tiers, &mut steps)?;
    let cli_overhead = process_overhead(&args.cli, &args.work, args.seed)?;
    let transport = transport(&args.cli, &args.work, args.seed)?;
    let counters = cache_counters(&[&hot_cache, &cold_cache]);

    let out =
        PathBuf::from(".bench_out").join(format!("spans-{}-{}.json", args.workload, args.seed));
    tr.write(&out)
        .map_err(|e| format!("{}: {e}", out.display()))?;
    eprintln!(
        "relbench-trace: {} spans written to {}",
        tr.spans.len(),
        out.display()
    );

    let ms = |name: &str| tr.mean(name) * 1e3;
    let us = |name: &str| tr.mean(name) * 1e6;
    let mut metrics: Vec<(&str, f64, &str)> = vec![
        ("netlist.parse_ms", ms("netlist.parse"), "ms"),
        ("store.digest_us", us("store.digest"), "us"),
        ("sim.tape_compile_ms", ms("sim.tape_compile"), "ms"),
        ("sim.mc_patterns_per_s", tr.rate("sim.mc"), "patterns/s"),
        ("core.weights_exact_ms", ms("core.weights_exact"), "ms"),
        ("core.weights_sampled_ms", ms("core.weights_sampled"), "ms"),
        (
            "core.single_pass_build_ms",
            ms("core.single_pass_build"),
            "ms",
        ),
        (
            "core.single_pass_point_ms",
            ms("core.single_pass_point"),
            "ms",
        ),
        (
            "core.sweep_tape_build_ms",
            ms("core.sweep_tape_build"),
            "ms",
        ),
        (
            "core.sweep_points_per_s",
            tr.rate("core.sweep_grid"),
            "points/s",
        ),
        (
            "core.observability_exact_ms",
            ms("core.observability_exact"),
            "ms",
        ),
        ("core.closed_form_us", us("core.closed_form"), "us"),
        ("bdd.peak_live_nodes", bdd.peak, "count"),
        ("bdd.op_cache_hit_rate", bdd.hits / bdd.lookups, "ratio"),
        ("bdd.gc_runs", bdd.gc, "count"),
        ("bdd.reorders", bdd.reorders, "count"),
        (
            "estimate.critical_eps_ms",
            ms("estimate.critical_eps"),
            "ms",
        ),
        ("estimate.critical_eps_steps", median(&steps), "count"),
        ("estimate.run_ms", ms("estimate.run"), "ms"),
        ("estimate.tier_propagation", tiers as f64, "count"),
        ("serve.analyze_result_ms", ms("serve.analyze_result"), "ms"),
        ("serve.encode_us", us("serve.encode"), "us"),
        ("serve.cache_lookup_us", us("serve.cache_lookup"), "us"),
    ];
    for (name, value) in &counters {
        let unit = if *name == "serve.hit_ratio" {
            "ratio"
        } else {
            "count"
        };
        metrics.push((name, *value, unit));
    }
    metrics.push(("serve.transport_us", transport * 1e6, "us"));
    metrics.push(("cli.process_overhead_ms", cli_overhead * 1e3, "ms"));
    metrics.push(("trace.overhead_pct", overhead, "%"));

    let attempted = tr.request;
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
        .collect();
    println!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": 0, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    Ok(())
}
