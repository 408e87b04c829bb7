//! The three workloads: their inputs and the operations of one round.
//!
//! Both the end-to-end harness (which renders an operation as a serve
//! request line or a `relogic-cli` command) and the traced run (which
//! replays it through library calls) take their operations from here, so
//! the two measure the same work. Everything is a pure function of the
//! workload seed.

use crate::circuits;
use crate::json::quote;
use crate::refsim::Rng;

/// Daemon and CLI worker threads: the benchmark is sized for a 2-core host.
pub const THREADS: usize = 2;
/// Random reconvergent circuits per serve-cold round.
pub const COLD_RANDOM: usize = 400;
/// Per-request timeout handed to the daemon. The default (10 s) is shorter
/// than a cold c2670 `analyze` (~15 s on a 2-core host).
pub const DAEMON_TIMEOUT_MS: u64 = 120_000;
/// serve-cold's artifact-cache budget: larger than any one artifact it
/// builds (c2670 charges ~1.2 MB) and well below its working set, so
/// round-robin requests always miss and the cache must evict.
pub const COLD_CACHE_BYTES: u64 = 1_500_000;
/// Live-node budget for cli-batch `estimate`: every large analogue trips it
/// within ~0.1 s. At the CLI default (2 M) c2670 stays under the budget and
/// its exact build runs for over ten minutes.
pub const ESTIMATE_NODE_BUDGET: usize = 200_000;
/// Patterns of sampled (`--backend sim`) weight vectors.
pub const SAMPLED_PATTERNS: u64 = 65_536;

/// Where an input netlist comes from.
#[derive(Clone, Debug)]
pub enum Source {
    /// A suite analogue, emitted by `relogic-cli gen <name>`.
    Suite(&'static str),
    /// Netlist text generated by the benchmark from the seed.
    Text(String),
}

/// One input netlist of a workload.
#[derive(Clone, Debug)]
pub struct Input {
    /// File stem and display name.
    pub name: String,
    /// Its origin.
    pub source: Source,
}

/// Statistics backend for the weight vectors.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// Exact BDD weights.
    Exact,
    /// Sampled weights from `SAMPLED_PATTERNS` patterns with this seed.
    Sampled(u64),
}

/// One operation, addressed to input `circuit`.
#[derive(Clone, Debug)]
pub enum Op {
    /// Single-pass δ at several ε points (the CLI takes the first only).
    Analyze {
        /// Input index.
        circuit: usize,
        /// ε points.
        eps: Vec<f64>,
        /// Weights backend.
        backend: Backend,
        /// With the §4.1 correlation correction.
        correlated: bool,
    },
    /// Observability closed form at several ε points (exact BDD).
    Observability {
        /// Input index.
        circuit: usize,
        /// ε points.
        eps: Vec<f64>,
    },
    /// Monte Carlo fault injection.
    MonteCarlo {
        /// Input index.
        circuit: usize,
        /// Gate failure probability.
        eps: f64,
        /// Pattern count.
        patterns: u64,
        /// RNG seed.
        seed: u64,
    },
    /// Tiered estimate.
    Estimate {
        /// Input index.
        circuit: usize,
        /// Gate failure probability.
        eps: f64,
        /// BDD live-node budget of the exact tier.
        budget: usize,
    },
    /// Bisection for the ε where the δ summary reaches `threshold`.
    CriticalEps {
        /// Input index.
        circuit: usize,
        /// δ threshold.
        threshold: f64,
        /// `max` or `mean`.
        metric: &'static str,
        /// Weights backend.
        backend: Backend,
    },
    /// Uncorrelated δ curves over `points` ε values in `[0, max_eps]`
    /// (CLI only).
    Sweep {
        /// Input index.
        circuit: usize,
        /// Grid points.
        points: usize,
        /// Grid upper bound.
        max_eps: f64,
        /// Weights backend.
        backend: Backend,
    },
}

impl Op {
    /// Short kind name, as on the wire.
    pub fn kind(&self) -> &'static str {
        match self {
            Op::Analyze { .. } => "analyze",
            Op::Observability { .. } => "observability",
            Op::MonteCarlo { .. } => "monte_carlo",
            Op::Estimate { .. } => "estimate",
            Op::CriticalEps { .. } => "critical_eps",
            Op::Sweep { .. } => "sweep",
        }
    }

    /// The input this operation reads.
    pub fn circuit(&self) -> usize {
        match self {
            Op::Analyze { circuit, .. }
            | Op::Observability { circuit, .. }
            | Op::MonteCarlo { circuit, .. }
            | Op::Estimate { circuit, .. }
            | Op::CriticalEps { circuit, .. }
            | Op::Sweep { circuit, .. } => *circuit,
        }
    }

    /// ε points this operation evaluates δ at (for `sweep_points_per_s`).
    pub fn eps_points(&self) -> usize {
        match self {
            Op::Analyze { eps, .. } | Op::Observability { eps, .. } => eps.len(),
            Op::Sweep { points, .. } => *points,
            _ => 0,
        }
    }

    /// Monte Carlo patterns this operation simulates.
    pub fn mc_patterns(&self) -> u64 {
        match self {
            Op::MonteCarlo { patterns, .. } => *patterns,
            _ => 0,
        }
    }

    /// The serve protocol request line for this operation.
    ///
    /// # Panics
    ///
    /// On `Sweep`, which the protocol has no request for.
    pub fn request(&self, netlist: &str) -> String {
        let list = |eps: &[f64]| {
            let items: Vec<String> = eps.iter().map(|e| format!("{e}")).collect();
            format!("[{}]", items.join(","))
        };
        let backend = |b: &Backend| {
            match b {
            Backend::Exact => String::new(),
            Backend::Sampled(seed) => format!(
                ",\"backend\":\"sim\",\"backend_patterns\":{SAMPLED_PATTERNS},\"backend_seed\":{seed}"
            ),
        }
        };
        let body = match self {
            Op::Analyze {
                eps,
                backend: b,
                correlated,
                ..
            } => format!(
                "\"kind\":\"analyze\",\"eps\":{}{}{}",
                list(eps),
                backend(b),
                if *correlated { "" } else { ",\"no_correlations\":true" }
            ),
            Op::Observability { eps, .. } => {
                format!("\"kind\":\"observability\",\"eps\":{}", list(eps))
            }
            // One thread per request, like the rest of the serve workloads:
            // work on both cores of a 2-core host is slowed by anything else
            // that runs there. cli-batch's `mc` jobs measure the kernel on
            // two threads.
            Op::MonteCarlo {
                eps, patterns, seed, ..
            } => format!(
                "\"kind\":\"monte_carlo\",\"eps\":{eps},\"patterns\":{patterns},\"seed\":{seed},\"threads\":1"
            ),
            Op::Estimate { eps, budget, .. } => {
                format!("\"kind\":\"estimate\",\"eps\":{eps},\"bdd_node_budget\":{budget}")
            }
            Op::CriticalEps {
                threshold,
                metric,
                backend: b,
                ..
            } => format!(
                "\"kind\":\"critical_eps\",\"threshold\":{threshold},\"metric\":\"{metric}\"{}",
                backend(b)
            ),
            Op::Sweep { .. } => panic!("sweep has no serve request"),
        };
        format!("{{{body},\"netlist\":{}}}", quote(netlist))
    }

    /// `relogic-cli` arguments for this operation on the netlist at `path`.
    pub fn cli_args(&self, path: &str) -> Vec<String> {
        let backend = |b: &Backend| match b {
            Backend::Exact => vec!["--backend".to_owned(), "bdd".to_owned()],
            Backend::Sampled(seed) => vec![
                "--backend".to_owned(),
                "sim".to_owned(),
                "--patterns".to_owned(),
                SAMPLED_PATTERNS.to_string(),
                "--seed".to_owned(),
                seed.to_string(),
            ],
        };
        let mut args: Vec<String> = match self {
            Op::Analyze {
                eps,
                backend: b,
                correlated,
                ..
            } => {
                let mut a = vec!["analyze".into(), path.into(), "--json".into()];
                a.extend(["--eps".into(), format!("{}", eps[0])]);
                a.extend(backend(b));
                if !correlated {
                    a.push("--no-correlations".into());
                }
                a
            }
            Op::Observability { eps, .. } => vec![
                "observability".into(),
                path.into(),
                "--json".into(),
                "--eps".into(),
                format!("{}", eps[0]),
            ],
            Op::MonteCarlo {
                eps,
                patterns,
                seed,
                ..
            } => vec![
                "mc".into(),
                path.into(),
                "--json".into(),
                "--eps".into(),
                format!("{eps}"),
                "--patterns".into(),
                patterns.to_string(),
                "--seed".into(),
                seed.to_string(),
            ],
            Op::Estimate { eps, budget, .. } => vec![
                "estimate".into(),
                path.into(),
                "--json".into(),
                "--eps".into(),
                format!("{eps}"),
                "--bdd-node-budget".into(),
                budget.to_string(),
            ],
            Op::CriticalEps {
                threshold,
                metric,
                backend: b,
                ..
            } => {
                let mut a = vec![
                    "critical-eps".into(),
                    path.into(),
                    "--json".into(),
                    "--threshold".into(),
                    format!("{threshold}"),
                    "--metric".into(),
                    (*metric).into(),
                ];
                a.extend(backend(b));
                a
            }
            Op::Sweep {
                points,
                max_eps,
                backend: b,
                ..
            } => {
                let mut a = vec![
                    "sweep".into(),
                    path.into(),
                    "--no-correlations".into(),
                    "--points".into(),
                    points.to_string(),
                    "--max-eps".into(),
                    format!("{max_eps}"),
                ];
                a.extend(backend(b));
                a
            }
        };
        args.extend(["--threads".into(), THREADS.to_string()]);
        args
    }
}

/// A workload: its inputs, the operations that warm a daemon's cache during
/// set-up, and the operations of one round of the timed phase.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Workload name.
    pub name: &'static str,
    /// Input netlists.
    pub inputs: Vec<Input>,
    /// Operations run once during set-up to warm the daemon's cache, as
    /// indices into `round` (serve-hot only).
    pub warm: Vec<usize>,
    /// One round of the timed phase, in dispatch order.
    pub round: Vec<Op>,
    /// How many times set-up is repeated to take its median: more for
    /// the set-ups of a few tens of milliseconds, whose single timings
    /// scatter most.
    pub setups: usize,
}

/// Workload names, in the order the benchmark lists them.
pub const NAMES: [&str; 3] = ["serve-hot", "serve-cold", "cli-batch"];

/// ε of the serve workloads' Monte Carlo requests. The kernel draws each
/// fault bit from ε's binary expansion, so its cost depends on ε: 0.25
/// runs about twice as fast as 0.1. A fixed ε keeps a round the same work
/// for every seed; the seed varies the patterns.
const MC_EPS: f64 = 0.1;

/// The checked ε pairs of serve-hot's `analyze` requests.
const HOT_PAIRS: [(f64, f64); 5] = [
    (0.05, 0.2),
    (0.075, 0.225),
    (0.1, 0.25),
    (0.125, 0.275),
    (0.15, 0.3),
];

/// ε values for checked single-pass points: the method's accuracy envelope
/// against fault injection is measured on [0.05, 0.3] (see README).
fn checked_eps(rng: &mut Rng) -> f64 {
    (2 + rng.below(11)) as f64 / 40.0
}

/// Four ε points: 0 and ½, where δ is known exactly, and two checked points.
fn eps_grid(rng: &mut Rng) -> Vec<f64> {
    let a = checked_eps(rng);
    let mut b = checked_eps(rng);
    while b == a {
        b = checked_eps(rng);
    }
    vec![0.0, a.min(b), a.max(b), 0.5]
}

fn suite(names: &[&'static str]) -> Vec<Input> {
    names
        .iter()
        .map(|&n| Input {
            name: n.to_owned(),
            source: Source::Suite(n),
        })
        .collect()
}

/// The workload `name` for `seed`, or `None` for an unknown name.
pub fn build(name: &str, seed: u64) -> Option<Workload> {
    let mut rng = Rng::new(seed ^ 0x005e_ed0f_be9c);
    match name {
        "serve-hot" => {
            // 0 x2, 1 cu, 2 b9, 3 c499, 4 c1355, 5 c3540 (sampled weights).
            // The large analogue runs without the correlation correction:
            // with sampled weights the correlated pass does not repeat bit
            // for bit (see README, "Excluded operations").
            let inputs = suite(&["x2", "cu", "b9", "c499", "c1355", "c3540"]);
            let mut others = vec![
                Op::Analyze {
                    circuit: 5,
                    eps: vec![0.0, HOT_PAIRS[0].0, HOT_PAIRS[0].1, 0.5],
                    backend: Backend::Sampled(seed),
                    correlated: false,
                },
                Op::Analyze {
                    circuit: 5,
                    eps: vec![0.0, HOT_PAIRS[4].0, HOT_PAIRS[4].1, 0.5],
                    backend: Backend::Sampled(seed),
                    correlated: false,
                },
            ];
            for circuit in [0, 1, 2, 1] {
                others.push(Op::Observability {
                    circuit,
                    eps: eps_grid(&mut rng),
                });
            }
            for circuit in [0, 1, 2] {
                others.push(Op::Estimate {
                    circuit,
                    eps: checked_eps(&mut rng),
                    budget: 2_000_000,
                });
            }
            others.push(Op::CriticalEps {
                circuit: 2,
                threshold: 0.1 + 0.05 * rng.below(5) as f64,
                metric: if rng.below(2) == 0 { "max" } else { "mean" },
                backend: Backend::Exact,
            });
            for circuit in [3, 4] {
                others.push(Op::MonteCarlo {
                    circuit,
                    eps: MC_EPS,
                    patterns: 1_000_000,
                    seed,
                });
                others.push(Op::CriticalEps {
                    circuit,
                    threshold: 0.1 + 0.05 * rng.below(5) as f64,
                    metric: if rng.below(2) == 0 { "max" } else { "mean" },
                    backend: Backend::Exact,
                });
            }
            // The correlated pass costs up to twice as much at some ε as at
            // others, so b9, c499 and c1355 each get every pair of
            // `HOT_PAIRS` once. The 12 cheaper requests above and the 12
            // dearer ones (c499, c1355, Monte Carlo) balance, so the median
            // latency falls in the middle of b9's cluster, not at an edge.
            // The order is fixed: the seed changes parameters, not the
            // sequence of request kinds.
            let mut round = Vec::new();
            let mut rest = others.into_iter();
            for &(a, b) in &HOT_PAIRS {
                for circuit in [2, 3, 4] {
                    round.push(Op::Analyze {
                        circuit,
                        eps: vec![0.0, a, b, 0.5],
                        backend: Backend::Exact,
                        correlated: true,
                    });
                }
                round.extend(rest.by_ref().take(2));
            }
            round.extend(rest);
            // Warm in kind order so observability is resident before the
            // estimates that reuse it.
            let mut warm: Vec<usize> = (0..round.len()).collect();
            warm.sort_by_key(|&i| match round[i] {
                Op::Observability { .. } => 0,
                Op::Estimate { .. } => 2,
                _ => 1,
            });
            Some(Workload {
                name: "serve-hot",
                inputs,
                warm,
                round,
                setups: 3,
            })
        }
        "serve-cold" => {
            let mut inputs = suite(&["c2670", "x2", "cu", "b9", "c499", "c1355"]);
            // Random circuits have a fixed size, so the seed varies their
            // structure but not how much work they are. There are enough of
            // them to give the latency quantiles samples.
            for k in 0..COLD_RANDOM {
                let text = circuits::random_reconvergent(rng.next_u64(), 16, 100);
                inputs.push(Input {
                    name: format!("rand{k}"),
                    source: Source::Text(text),
                });
            }
            for k in 0..4 {
                inputs.push(Input {
                    name: format!("tree{k}"),
                    source: Source::Text(circuits::random_tree(rng.next_u64(), 20)),
                });
            }
            let analyzed = inputs.len();
            inputs.extend(suite(&["c1908", "frg2", "c3540", "i10"]));
            // A fixed order: suite circuits and Monte Carlo runs at fixed
            // places among the random circuits, and c2670 last.
            let mut round: Vec<Op> = (1..analyzed)
                .map(|circuit| Op::Analyze {
                    circuit,
                    eps: eps_grid(&mut rng),
                    backend: Backend::Exact,
                    correlated: true,
                })
                .collect();
            let mc: Vec<Op> = (analyzed..inputs.len())
                .map(|circuit| Op::MonteCarlo {
                    circuit,
                    eps: MC_EPS,
                    patterns: 1_000_000,
                    seed,
                })
                .collect();
            let stride = round.len() / (mc.len() + 1);
            for (k, op) in mc.into_iter().enumerate() {
                round.insert((k + 1) * stride + k, op);
            }
            round.push(Op::Analyze {
                circuit: 0,
                eps: eps_grid(&mut rng),
                backend: Backend::Exact,
                correlated: true,
            });
            Some(Workload {
                name: "serve-cold",
                inputs,
                warm: Vec::new(),
                round,
                setups: 11,
            })
        }
        "cli-batch" => {
            let inputs = suite(&["c1908", "c2670", "frg2", "c3540", "i10"]);
            let mut round = Vec::new();
            // A fixed job order: the seed changes parameters, not which
            // jobs follow one another.
            for circuit in 0..inputs.len() {
                let small = [0.001, 0.0015, 0.002][rng.below(3)];
                round.push(Op::MonteCarlo {
                    circuit,
                    eps: small,
                    patterns: 1_000_000,
                    seed,
                });
                round.push(Op::Estimate {
                    circuit,
                    eps: small,
                    budget: ESTIMATE_NODE_BUDGET,
                });
                round.push(Op::Sweep {
                    circuit,
                    points: 201,
                    max_eps: 0.5,
                    backend: Backend::Sampled(seed),
                });
                round.push(Op::CriticalEps {
                    circuit,
                    threshold: 0.1 + 0.05 * rng.below(5) as f64,
                    metric: if rng.below(2) == 0 { "max" } else { "mean" },
                    backend: Backend::Sampled(seed),
                });
                // Uncorrelated, at points of the sweep's grid: with sampled
                // weights the correlated pass does not repeat bit for bit
                // (see README, "Excluded operations"). Three per circuit
                // give `analyze_p50_ms` enough samples.
                for _ in 0..3 {
                    round.push(Op::Analyze {
                        circuit,
                        eps: vec![checked_eps(&mut rng)],
                        backend: Backend::Sampled(seed),
                        correlated: false,
                    });
                }
            }
            Some(Workload {
                name: "cli-batch",
                inputs,
                warm: Vec::new(),
                round,
                setups: 11,
            })
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_are_pure_functions_of_the_seed() {
        for name in NAMES {
            let a = build(name, 11).unwrap();
            let b = build(name, 11).unwrap();
            assert_eq!(format!("{:?}", a.round), format!("{:?}", b.round));
            assert!(a.round.iter().all(|op| op.circuit() < a.inputs.len()));
        }
        assert!(build("nope", 1).is_none());
    }
}
