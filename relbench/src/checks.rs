//! Output checks: every answer is tested against the independent reference
//! in [`crate::refsim`] or against properties the method must have. No
//! check compares against a stored copy of an earlier output.

use std::collections::HashMap;

use crate::json::Json;
use crate::refsim::{self, Estimate, Netlist};
use crate::stats::bonferroni_z;
use crate::workload::{Input, Op, Source};

/// Largest |δ_single-pass − δ_reference| accepted on suite analogues at
/// ε ∈ [0.05, 0.3], on top of `z` standard errors of the reference. The
/// measured worst case is ~0.04 (c3540; `--envelope` prints it).
pub const ENVELOPE: f64 = 0.05;

/// The same envelope for the benchmark's seeded random circuits, whose
/// dense reconvergence the single pass tracks less well, and worse at small
/// ε: 0.5 − 1.3ε, about 1.6–1.9× the worst case measured over 600 of
/// serve-cold's circuits (0.27 at ε = 0.05 falling to 0.06 at ε = 0.3;
/// `--envelope` prints it).
pub fn random_envelope(eps: f64) -> f64 {
    0.5 - 1.3 * eps
}

/// Documented accuracy bound of the propagation tier: mean |δ − MC| over
/// the outputs of a circuit.
pub const PROPAGATION_BOUND: f64 = 0.15;
/// Patterns of each reference fault-injection run.
pub const REF_PATTERNS: u64 = 1 << 16;
/// Patterns of each reference observability run.
pub const OBS_PATTERNS: u64 = 1 << 16;
/// Exact properties (δ(0) = 0, δ(½) = ½, fanout-free closed form) hold to
/// this absolute tolerance.
pub const EXACT_TOL: f64 = 1e-12;

/// Family-wise false-alarm rate of the statistical checks, split over up
/// to `STAT_COMPARISONS` comparisons per run (Bonferroni).
const STAT_ALPHA: f64 = 1e-6;
const STAT_COMPARISONS: usize = 10_000;

/// Checks results against the reference, caching reference runs.
pub struct Checker {
    nets: Vec<Netlist>,
    /// Whether each input is a suite analogue (else a random circuit).
    suite: Vec<bool>,
    seed: u64,
    z: f64,
    refs: HashMap<(usize, u64), Estimate>,
    obs: HashMap<usize, Vec<Vec<f64>>>,
    /// Failed checks, one line each.
    pub failures: Vec<String>,
    /// Checks made.
    pub checks: usize,
}

impl Checker {
    /// A checker over a workload's inputs and their netlist texts.
    ///
    /// # Errors
    ///
    /// When a netlist does not parse with the reference parser.
    pub fn new(inputs: &[Input], texts: &[(String, String)], seed: u64) -> Result<Checker, String> {
        let nets = texts
            .iter()
            .map(|(name, text)| Netlist::parse_bench(text).map_err(|e| format!("{name}: {e}")))
            .collect::<Result<_, _>>()?;
        let suite = inputs
            .iter()
            .map(|i| matches!(i.source, Source::Suite(_)))
            .collect();
        Ok(Checker {
            nets,
            suite,
            seed,
            z: bonferroni_z(STAT_ALPHA, STAT_COMPARISONS),
            refs: HashMap::new(),
            obs: HashMap::new(),
            failures: Vec::new(),
            checks: 0,
        })
    }

    /// Standard-error multiple used by the statistical checks.
    pub fn z(&self) -> f64 {
        self.z
    }

    /// Reference fault injection on `circuit` at `eps` (cached).
    pub fn reference(&mut self, circuit: usize, eps: f64) -> &Estimate {
        let seed = self.seed ^ (circuit as u64) << 32 ^ eps.to_bits();
        let net = &self.nets[circuit];
        self.refs
            .entry((circuit, eps.to_bits()))
            .or_insert_with(|| refsim::fault_injection(net, eps, REF_PATTERNS, seed))
    }

    fn fail(&mut self, what: String) {
        self.failures.push(what);
    }

    fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.checks += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Checks δ values: finite, in [0, 1], and one per output.
    fn in_range(&mut self, label: &str, circuit: usize, delta: &[f64]) {
        let outputs = self.nets[circuit].outputs.len();
        self.expect(delta.len() == outputs, || {
            format!("{label}: {} values for {outputs} outputs", delta.len())
        });
        let bad = delta
            .iter()
            .find(|d| !d.is_finite() || !(0.0..=1.0).contains(*d));
        self.expect(bad.is_none(), || {
            format!("{label}: δ {bad:?} outside [0, 1]")
        });
    }

    /// δ(0) = 0 and δ(½) = ½ on every gate-driven output.
    fn exact_points(&mut self, label: &str, circuit: usize, eps: f64, delta: &[f64]) {
        let want = if eps == 0.0 {
            0.0
        } else if eps == 0.5 {
            0.5
        } else {
            return;
        };
        let net = &self.nets[circuit];
        let worst = (0..delta.len().min(net.outputs.len()))
            .filter(|&o| net.gate_driven(o))
            .map(|o| (delta[o] - want).abs())
            .fold(0.0, f64::max);
        self.expect(worst <= EXACT_TOL, || {
            format!("{label}: δ({eps}) off by {worst:e} from {want}")
        });
    }

    /// Single-pass δ against the fanout-free closed form, or else (for the
    /// correlated pass) against the reference within the accuracy envelope.
    fn envelope(&mut self, label: &str, circuit: usize, eps: f64, delta: &[f64], correlated: bool) {
        if let Some(exact) = self.nets[circuit].tree_exact(eps) {
            let worst = worst_diff(delta, &exact);
            self.expect(worst <= EXACT_TOL, || {
                format!("{label}: fanout-free circuit off the closed form by {worst:e} at ε {eps}")
            });
            return;
        }
        if !correlated || !(0.05..=0.3).contains(&eps) {
            return;
        }
        let z = self.z;
        let envelope = if self.suite[circuit] {
            ENVELOPE
        } else {
            random_envelope(eps)
        };
        let r = self.reference(circuit, eps).clone();
        let worst = delta
            .iter()
            .zip(r.delta.iter().zip(&r.std_err))
            .map(|(d, (rd, se))| (d - rd).abs() - z * se)
            .fold(f64::NEG_INFINITY, f64::max);
        self.expect(worst <= envelope, || {
            format!("{label}: δ off the reference by {worst:.4} (+{z:.1} SE) at ε {eps}, envelope {envelope}")
        });
    }

    /// Checks one result object (the serve `result` member or a CLI
    /// `--json` document) of operation `op`.
    pub fn check(&mut self, op: &Op, result: &Json) {
        let circuit = op.circuit();
        let label = format!("{} {}", op.kind(), circuit);
        match op {
            Op::Analyze { eps, .. } | Op::Observability { eps, .. } => {
                let Some(points) = result.get("points").and_then(Json::arr) else {
                    return self.expect(false, || format!("{label}: no `points`"));
                };
                self.expect(points.len() == eps.len(), || {
                    format!(
                        "{label}: {} points for {} ε values",
                        points.len(),
                        eps.len()
                    )
                });
                for (point, &e) in points.iter().zip(eps) {
                    let delta = point.get("delta").and_then(Json::nums).unwrap_or_default();
                    let got_eps = point.get("eps").and_then(Json::num);
                    self.expect(got_eps == Some(e), || {
                        format!("{label}: point ε {got_eps:?}, asked {e}")
                    });
                    self.in_range(&label, circuit, &delta);
                    self.exact_points(&label, circuit, e, &delta);
                    match op {
                        Op::Analyze { correlated, .. } => {
                            self.envelope(&label, circuit, e, &delta, *correlated);
                        }
                        _ => self.observability(&label, circuit, e, &delta),
                    }
                }
            }
            Op::MonteCarlo { eps, patterns, .. } => {
                let delta = result.get("delta").and_then(Json::nums).unwrap_or_default();
                let se = result
                    .get("std_error")
                    .and_then(Json::nums)
                    .unwrap_or_default();
                let n = result.get("patterns").and_then(Json::num).unwrap_or(0.0);
                self.in_range(&label, circuit, &delta);
                self.expect(n >= *patterns as f64, || {
                    format!("{label}: ran {n} patterns, asked {patterns}")
                });
                let z = self.z;
                let r = self.reference(circuit, *eps).clone();
                let worst = delta
                    .iter()
                    .zip(&se)
                    .zip(r.delta.iter().zip(&r.std_err))
                    .map(|((d, s), (rd, rs))| {
                        (d - rd).abs() / (z * (s * s + rs * rs).sqrt() + 1.0 / r.patterns as f64)
                    })
                    .fold(0.0, f64::max);
                self.expect(worst <= 1.0, || {
                    format!("{label}: Monte Carlo disagrees with the reference ({worst:.2} × {z:.1} combined SE)")
                });
            }
            Op::Estimate { eps, .. } => {
                let delta = result.get("delta").and_then(Json::nums).unwrap_or_default();
                self.in_range(&label, circuit, &delta);
                let r = self.reference(circuit, *eps).clone();
                let mean = delta
                    .iter()
                    .zip(&r.delta)
                    .map(|(d, rd)| (d - rd).abs())
                    .sum::<f64>()
                    / delta.len().max(1) as f64;
                self.expect(mean <= PROPAGATION_BOUND, || {
                    format!("{label}: mean |δ − reference| {mean:.4} above {PROPAGATION_BOUND}")
                });
            }
            Op::CriticalEps { threshold, .. } => {
                let num = |k: &str| result.get(k).and_then(Json::num).unwrap_or(f64::NAN);
                let crossed = result.get("crossed").and_then(Json::bool);
                let (lo, hi, critical) = (num("lo"), num("hi"), num("critical"));
                let (dlo, dhi) = (num("delta_lo"), num("delta_hi"));
                self.expect(crossed == Some(true), || {
                    format!("{label}: threshold not crossed")
                });
                self.expect(lo <= critical && critical <= hi, || {
                    format!("{label}: critical ε {critical} outside [{lo}, {hi}]")
                });
                self.expect(dlo <= *threshold && *threshold <= dhi + EXACT_TOL, || {
                    format!("{label}: δ bracket [{dlo}, {dhi}] misses threshold {threshold}")
                });
            }
            Op::Sweep { .. } => self.expect(false, || format!("{label}: sweep result is CSV")),
        }
    }

    /// Checks `sweep` CSV output: one row per grid point, δ(0) = 0 and
    /// δ(½) = ½ (printed to six decimals), every value in [0, 1].
    pub fn check_sweep(&mut self, op: &Op, csv: &str) {
        let Op::Sweep {
            circuit,
            points,
            max_eps,
            ..
        } = op
        else {
            return;
        };
        let label = format!("sweep {circuit}");
        let rows: Vec<Vec<f64>> = csv
            .lines()
            .skip(1)
            .map(|l| {
                l.split(',')
                    .map(|c| c.parse().unwrap_or(f64::NAN))
                    .collect()
            })
            .collect();
        self.expect(rows.len() == *points, || {
            format!("{label}: {} rows for {points} points", rows.len())
        });
        let outputs = self.nets[*circuit].outputs.len();
        for row in &rows {
            let (eps, delta) = row.split_first().unwrap_or((&f64::NAN, &[]));
            self.in_range(&label, *circuit, delta);
            self.expect(
                delta.len() == outputs && (0.0..=*max_eps).contains(eps),
                || format!("{label}: bad row at ε {eps}"),
            );
        }
        if let (Some(first), Some(last)) = (rows.first(), rows.last()) {
            self.exact_points(&label, *circuit, first[0], &first[1..]);
            self.exact_points(&label, *circuit, last[0], &last[1..]);
            self.expect(first[0] == 0.0 && last[0] == 0.5, || {
                format!("{label}: grid is not [0, 0.5]")
            });
        }
    }

    /// An uncorrelated `analyze` against the `sweep` of the same circuit and
    /// weights: the sweep tape computes the same recurrence, so δ must match
    /// the sweep's row at that ε to the six decimals the CSV prints.
    pub fn check_against_sweep(&mut self, analyze: &Op, result: &Json, csv: &str) {
        let Op::Analyze { circuit, eps, .. } = analyze else {
            return;
        };
        let label = format!("analyze {circuit} vs sweep");
        let delta = result
            .get("points")
            .and_then(Json::arr)
            .and_then(|p| p.first()?.get("delta")?.nums())
            .unwrap_or_default();
        let row: Option<Vec<f64>> = csv.lines().skip(1).find_map(|l| {
            let cells: Vec<f64> = l
                .split(',')
                .map(|c| c.parse().unwrap_or(f64::NAN))
                .collect();
            ((cells[0] - eps[0]).abs() < 1e-9).then(|| cells[1..].to_vec())
        });
        let worst = row.map_or(f64::INFINITY, |r| worst_diff(&delta, &r));
        self.expect(worst <= 5e-7, || {
            format!("{label}: differs by {worst:e} at ε {}", eps[0])
        });
    }

    /// Observability δ against ½(1 − Π(1 − 2εô)) on the reference's sampled
    /// observabilities, within `z` standard errors of that estimate.
    fn observability(&mut self, label: &str, circuit: usize, eps: f64, delta: &[f64]) {
        let seed = self.seed ^ 0x0b5e_u64 << 40 ^ circuit as u64;
        let net = &self.nets[circuit];
        let obs = self
            .obs
            .entry(circuit)
            .or_insert_with(|| refsim::observabilities(net, OBS_PATTERNS, seed));
        let want = refsim::observability_delta(net, obs, eps);
        // Delta method: ∂δ/∂ô_g ≤ ε, and each ô has variance ô(1 − ô)/n.
        let var: Vec<f64> = (0..net.outputs.len())
            .map(|o| {
                obs.iter()
                    .map(|row| eps * eps * row[o] * (1.0 - row[o]) / OBS_PATTERNS as f64)
                    .sum()
            })
            .collect();
        let z = self.z;
        let worst = delta
            .iter()
            .zip(&want)
            .zip(&var)
            .map(|((d, w), v)| (d - w).abs() - z * v.sqrt())
            .fold(f64::NEG_INFINITY, f64::max);
        self.expect(worst <= 1e-9, || {
            format!("{label}: observability δ off the sampled closed form by {worst:.4} beyond {z:.1} SE at ε {eps}")
        });
    }
}

/// Largest absolute elementwise difference.
pub fn worst_diff(a: &[f64], b: &[f64]) -> f64 {
    if a.len() != b.len() {
        return f64::INFINITY;
    }
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}
