//! Independent reference: a plain fault-injection simulator for `.bench`
//! netlists.
//!
//! Nothing here comes from the program under test. The netlist parser, the
//! random number generator and the simulator are this file's own, so the
//! benchmark's output checks do not share a fault with the code they check.
//!
//! Fault model (von Neumann, as in the paper): every gate output flips
//! independently with probability ε; primary inputs are uniform and
//! error-free. δ of an output is the probability that its value differs
//! from the fault-free value.

use std::collections::HashMap;

/// Gate function of a node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// Primary input.
    Input,
    /// AND.
    And,
    /// NAND.
    Nand,
    /// OR.
    Or,
    /// NOR.
    Nor,
    /// XOR (parity).
    Xor,
    /// XNOR.
    Xnor,
    /// Inverter.
    Not,
    /// Buffer.
    Buf,
}

impl Op {
    fn parse(name: &str) -> Option<Op> {
        Some(match name.to_ascii_uppercase().as_str() {
            "AND" => Op::And,
            "NAND" => Op::Nand,
            "OR" => Op::Or,
            "NOR" => Op::Nor,
            "XOR" => Op::Xor,
            "XNOR" => Op::Xnor,
            "NOT" | "INV" => Op::Not,
            "BUF" | "BUFF" => Op::Buf,
            _ => return None,
        })
    }

    /// Applies the gate to 64 patterns at once.
    fn word(self, ins: impl Iterator<Item = u64>) -> u64 {
        let mut ins = ins;
        match self {
            Op::Input => 0,
            Op::And => ins.fold(!0, |a, b| a & b),
            Op::Nand => !ins.fold(!0, |a, b| a & b),
            Op::Or => ins.fold(0, |a, b| a | b),
            Op::Nor => !ins.fold(0, |a, b| a | b),
            Op::Xor => ins.fold(0, |a, b| a ^ b),
            Op::Xnor => !ins.fold(0, |a, b| a ^ b),
            Op::Not => !ins.next().unwrap_or(0),
            Op::Buf => ins.next().unwrap_or(0),
        }
    }

    fn bit(self, ins: &[bool]) -> bool {
        let w = self.word(ins.iter().map(|&b| if b { !0 } else { 0 }));
        w & 1 == 1
    }
}

/// A combinational netlist with nodes in topological order.
#[derive(Clone, Debug)]
pub struct Netlist {
    /// Node names, in topological order.
    pub names: Vec<String>,
    /// Gate function per node.
    pub ops: Vec<Op>,
    /// Fanin node indices per node.
    pub fanin: Vec<Vec<usize>>,
    /// Primary-input node indices, in declaration order.
    pub inputs: Vec<usize>,
    /// Output node indices, in declaration order.
    pub outputs: Vec<usize>,
}

impl Netlist {
    /// Parses ISCAS-85 `.bench` text.
    ///
    /// # Errors
    ///
    /// A message naming the offending line for syntax errors, unknown gates,
    /// undefined signals and cycles.
    pub fn parse_bench(text: &str) -> Result<Netlist, String> {
        let mut input_names = Vec::new();
        let mut output_names = Vec::new();
        let mut defs: Vec<(String, Op, Vec<String>)> = Vec::new();
        for (no, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let bad = || format!("line {}: cannot parse `{line}`", no + 1);
            if let Some((lhs, rhs)) = line.split_once('=') {
                let (gate, args) = rhs.trim().split_once('(').ok_or_else(bad)?;
                let args = args.trim().strip_suffix(')').ok_or_else(bad)?;
                let op = Op::parse(gate.trim())
                    .ok_or_else(|| format!("line {}: unknown gate `{}`", no + 1, gate.trim()))?;
                let fanin = args.split(',').map(|a| a.trim().to_owned()).collect();
                defs.push((lhs.trim().to_owned(), op, fanin));
            } else {
                let (kw, name) = line.split_once('(').ok_or_else(bad)?;
                let name = name
                    .trim()
                    .strip_suffix(')')
                    .ok_or_else(bad)?
                    .trim()
                    .to_owned();
                match kw.trim().to_ascii_uppercase().as_str() {
                    "INPUT" => input_names.push(name),
                    "OUTPUT" => output_names.push(name),
                    _ => return Err(bad()),
                }
            }
        }
        let mut net = Netlist {
            names: Vec::new(),
            ops: Vec::new(),
            fanin: Vec::new(),
            inputs: Vec::new(),
            outputs: Vec::new(),
        };
        let mut index: HashMap<String, usize> = HashMap::new();
        for name in input_names {
            index.insert(name.clone(), net.names.len());
            net.inputs.push(net.names.len());
            net.names.push(name);
            net.ops.push(Op::Input);
            net.fanin.push(Vec::new());
        }
        // Kahn-style placement: repeatedly place every definition whose
        // fanins are all placed.
        let mut pending = defs;
        while !pending.is_empty() {
            let before = pending.len();
            let mut rest = Vec::new();
            for (name, op, fanin) in pending {
                if fanin.iter().all(|f| index.contains_key(f)) {
                    let ids = fanin.iter().map(|f| index[f]).collect();
                    index.insert(name.clone(), net.names.len());
                    net.names.push(name);
                    net.ops.push(op);
                    net.fanin.push(ids);
                } else {
                    rest.push((name, op, fanin));
                }
            }
            if rest.len() == before {
                return Err(format!("signal `{}` is undefined or on a cycle", rest[0].0));
            }
            pending = rest;
        }
        for name in output_names {
            let id = *index
                .get(&name)
                .ok_or_else(|| format!("output `{name}` is undefined"))?;
            net.outputs.push(id);
        }
        Ok(net)
    }

    /// Number of gates (non-input nodes).
    pub fn gate_count(&self) -> usize {
        self.ops.iter().filter(|&&op| op != Op::Input).count()
    }

    /// Whether output `o` is driven by a gate rather than a primary input.
    pub fn gate_driven(&self, o: usize) -> bool {
        self.ops[self.outputs[o]] != Op::Input
    }

    /// Exact δ per output for a fanout-free circuit, `None` when some node
    /// drives more than one gate or output. On a tree every gate's fanins
    /// are independent, so propagating the joint (fault-free, faulty)
    /// distribution of each wire is exact.
    pub fn tree_exact(&self, eps: f64) -> Option<Vec<f64>> {
        let mut uses = vec![0usize; self.names.len()];
        for f in self.fanin.iter().flatten() {
            uses[*f] += 1;
        }
        for &o in &self.outputs {
            uses[o] += 1;
        }
        if uses.iter().any(|&u| u > 1) {
            return None;
        }
        // joint[n][2 * good + faulty]
        let mut joint = vec![[0.0f64; 4]; self.names.len()];
        for n in 0..self.names.len() {
            if self.ops[n] == Op::Input {
                joint[n] = [0.5, 0.0, 0.0, 0.5];
                continue;
            }
            let fanin = &self.fanin[n];
            let mut pre = [0.0f64; 4];
            let mut good = vec![false; fanin.len()];
            let mut bad = vec![false; fanin.len()];
            for combo in 0..(1usize << (2 * fanin.len())) {
                let mut p = 1.0;
                for (k, &f) in fanin.iter().enumerate() {
                    let state = (combo >> (2 * k)) & 3;
                    p *= joint[f][state];
                    good[k] = state & 2 != 0;
                    bad[k] = state & 1 != 0;
                }
                if p == 0.0 {
                    continue;
                }
                let g = usize::from(self.ops[n].bit(&good));
                let b = usize::from(self.ops[n].bit(&bad));
                pre[2 * g + b] += p;
            }
            for g in 0..2 {
                joint[n][2 * g] = (1.0 - eps) * pre[2 * g] + eps * pre[2 * g + 1];
                joint[n][2 * g + 1] = (1.0 - eps) * pre[2 * g + 1] + eps * pre[2 * g];
            }
        }
        Some(
            self.outputs
                .iter()
                .map(|&o| joint[o][1] + joint[o][2])
                .collect(),
        )
    }
}

/// xoshiro256** seeded through splitmix64.
#[derive(Clone, Debug)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// A generator whose stream depends only on `seed`.
    pub fn new(seed: u64) -> Rng {
        let mut x = seed;
        let mut next = || {
            x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        Rng {
            s: [next(), next(), next(), next()],
        }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n.max(1)
    }
}

/// Bits of ε's binary expansion used for fault masks: a mask bit is set
/// with probability ⌊ε·2³²⌉/2³², within 1.2e-10 of ε.
const MASK_BITS: u32 = 32;

/// 64 independent Bernoulli(p) bits from the binary expansion of `p`:
/// reading the expansion from its least significant digit, a 1 digit ORs in
/// a fresh uniform word and a 0 digit ANDs one in.
fn bernoulli_word(rng: &mut Rng, digits: u64) -> u64 {
    if digits == 0 {
        return 0;
    }
    let skip = digits.trailing_zeros();
    let mut mask = 0u64;
    for i in skip..MASK_BITS {
        let r = rng.next_u64();
        mask = if digits >> i & 1 == 1 {
            mask | r
        } else {
            mask & r
        };
    }
    mask
}

fn eps_digits(eps: f64) -> u64 {
    (eps.clamp(0.0, 1.0) * f64::from(1u32 << 31) * 2.0).round() as u64
}

/// Per-output fault-injection estimate.
#[derive(Clone, Debug)]
pub struct Estimate {
    /// Patterns simulated (a multiple of 64).
    pub patterns: u64,
    /// δ per output.
    pub delta: Vec<f64>,
    /// Standard error of each δ.
    pub std_err: Vec<f64>,
    /// Fault-free signal probability P(node = 1), per node.
    pub signal_prob: Vec<f64>,
}

/// Fault injection at a uniform gate failure probability `eps`.
pub fn fault_injection(net: &Netlist, eps: f64, patterns: u64, seed: u64) -> Estimate {
    let words = patterns.div_ceil(64).max(1);
    let digits = eps_digits(eps);
    if digits >= 1u64 << MASK_BITS {
        // ε = 1: every gate always flips.
        return fault_injection_with(net, words, seed, |_| !0);
    }
    fault_injection_with(net, words, seed, |rng| bernoulli_word(rng, digits))
}

fn fault_injection_with(
    net: &Netlist,
    words: u64,
    seed: u64,
    mut mask: impl FnMut(&mut Rng) -> u64,
) -> Estimate {
    let n = net.names.len();
    let mut rng = Rng::new(seed);
    let mut good = vec![0u64; n];
    let mut bad = vec![0u64; n];
    let mut errors = vec![0u64; net.outputs.len()];
    let mut ones = vec![0u64; n];
    for _ in 0..words {
        for node in 0..n {
            let op = net.ops[node];
            if op == Op::Input {
                let w = rng.next_u64();
                good[node] = w;
                bad[node] = w;
            } else {
                let fanin = &net.fanin[node];
                good[node] = op.word(fanin.iter().map(|&f| good[f]));
                bad[node] = op.word(fanin.iter().map(|&f| bad[f])) ^ mask(&mut rng);
            }
            ones[node] += u64::from(good[node].count_ones());
        }
        for (k, &o) in net.outputs.iter().enumerate() {
            errors[k] += u64::from((good[o] ^ bad[o]).count_ones());
        }
    }
    let total = words * 64;
    let delta: Vec<f64> = errors.iter().map(|&e| e as f64 / total as f64).collect();
    let std_err = delta
        .iter()
        .map(|&d| (d * (1.0 - d) / total as f64).sqrt())
        .collect();
    Estimate {
        patterns: total,
        delta,
        std_err,
        signal_prob: ones.iter().map(|&c| c as f64 / total as f64).collect(),
    }
}

/// Sampled observabilities: `obs[g][o]` is the fraction of fault-free
/// input patterns on which flipping node `g` alone flips output `o`.
/// Rows of primary inputs are zero.
pub fn observabilities(net: &Netlist, patterns: u64, seed: u64) -> Vec<Vec<f64>> {
    let n = net.names.len();
    let mut fanout = vec![Vec::new(); n];
    for (node, fanin) in net.fanin.iter().enumerate() {
        for &f in fanin {
            fanout[f].push(node);
        }
    }
    // Forward cone of every gate, in topological (index) order.
    let cones: Vec<Vec<usize>> = (0..n)
        .map(|g| {
            let mut in_cone = vec![false; n];
            in_cone[g] = true;
            let mut cone = Vec::new();
            for node in g + 1..n {
                if net.fanin[node].iter().any(|&f| in_cone[f]) {
                    in_cone[node] = true;
                    cone.push(node);
                }
            }
            cone
        })
        .collect();
    let words = patterns.div_ceil(64).max(1);
    let mut rng = Rng::new(seed);
    let mut good = vec![0u64; n];
    let mut alt = vec![0u64; n];
    let mut flips = vec![vec![0u64; net.outputs.len()]; n];
    let out_pos: HashMap<usize, Vec<usize>> =
        net.outputs
            .iter()
            .enumerate()
            .fold(HashMap::new(), |mut m, (k, &o)| {
                m.entry(o).or_default().push(k);
                m
            });
    for _ in 0..words {
        for node in 0..n {
            good[node] = if net.ops[node] == Op::Input {
                rng.next_u64()
            } else {
                net.ops[node].word(net.fanin[node].iter().map(|&f| good[f]))
            };
        }
        alt.copy_from_slice(&good);
        for g in 0..n {
            if net.ops[g] == Op::Input {
                continue;
            }
            alt[g] = !good[g];
            for &node in &cones[g] {
                alt[node] = net.ops[node].word(net.fanin[node].iter().map(|&f| alt[f]));
            }
            for node in std::iter::once(g).chain(cones[g].iter().copied()) {
                if let Some(ks) = out_pos.get(&node) {
                    let diff = u64::from((alt[node] ^ good[node]).count_ones());
                    for &k in ks {
                        flips[g][k] += diff;
                    }
                }
                alt[node] = good[node];
            }
        }
    }
    let total = (words * 64) as f64;
    flips
        .iter()
        .map(|row| row.iter().map(|&c| c as f64 / total).collect())
        .collect()
}

/// The observability closed form δ_o = ½(1 − Π_g (1 − 2ε·ô_{g,o})) over
/// every gate `g`, evaluated on `obs` from [`observabilities`].
pub fn observability_delta(net: &Netlist, obs: &[Vec<f64>], eps: f64) -> Vec<f64> {
    (0..net.outputs.len())
        .map(|o| {
            let prod: f64 = (0..net.names.len())
                .filter(|&g| net.ops[g] != Op::Input)
                .map(|g| 1.0 - 2.0 * eps * obs[g][o])
                .product();
            0.5 * (1.0 - prod)
        })
        .collect()
}

/// An inverter chain of length `k` on one input.
pub fn inverter_chain(k: usize) -> String {
    let mut text = String::from("INPUT(a)\nOUTPUT(n0)\n");
    let mut prev = "a".to_owned();
    for i in (0..k).rev() {
        text.push_str(&format!("n{i} = NOT({prev})\n"));
        prev = format!("n{i}");
    }
    text
}

/// A balanced fanout-free tree of 2-input XOR gates over `leaves` inputs.
pub fn xor_tree(leaves: usize) -> String {
    let mut text = String::new();
    let mut level: Vec<String> = (0..leaves).map(|i| format!("x{i}")).collect();
    for name in &level {
        text.push_str(&format!("INPUT({name})\n"));
    }
    text.push_str("OUTPUT(root)\n");
    let mut next_id = 0;
    while level.len() > 1 {
        let mut next = Vec::new();
        for pair in level.chunks(2) {
            if let [a, b] = pair {
                let name = if level.len() == 2 {
                    "root".to_owned()
                } else {
                    next_id += 1;
                    format!("t{next_id}")
                };
                text.push_str(&format!("{name} = XOR({a}, {b})\n"));
                next.push(name);
            } else {
                next.push(pair[0].clone());
            }
        }
        level = next;
    }
    text
}

/// Checks the reference against exact answers where δ has a closed form:
/// an inverter chain of length k has δ = ½(1 − (1 − 2ε)^k), and a
/// fanout-free tree of m XOR gates has δ = ½(1 − (1 − 2ε)^m). Both the
/// exact tree evaluation (to 1e-12) and fault injection (within six
/// standard errors) must match.
///
/// # Errors
///
/// A message describing the first mismatch.
pub fn self_test(seed: u64) -> Result<(), String> {
    for (text, gates) in [
        (inverter_chain(1), 1),
        (inverter_chain(7), 7),
        (xor_tree(2), 1),
        (xor_tree(9), 8),
        (xor_tree(16), 15),
    ] {
        let net = Netlist::parse_bench(&text)?;
        if net.gate_count() != gates {
            return Err(format!(
                "expected {gates} gates, parsed {}",
                net.gate_count()
            ));
        }
        for eps in [0.0f64, 0.01, 0.1, 0.25, 0.5] {
            let closed = 0.5 * (1.0 - (1.0 - 2.0 * eps).powi(gates as i32));
            let exact = net
                .tree_exact(eps)
                .ok_or("tree not recognised as fanout-free")?;
            if (exact[0] - closed).abs() > 1e-12 {
                return Err(format!(
                    "tree evaluation {} vs closed form {closed} ({gates} gates, eps {eps})",
                    exact[0]
                ));
            }
            let mc = fault_injection(&net, eps, 1 << 16, seed);
            let tol = 6.0 * (closed * (1.0 - closed) / mc.patterns as f64).sqrt() + 1e-9;
            if (mc.delta[0] - closed).abs() > tol {
                return Err(format!(
                    "fault injection {} vs closed form {closed} ({gates} gates, eps {eps})",
                    mc.delta[0]
                ));
            }
        }
    }
    // Signal probabilities: an AND of four inputs is 1 with probability 1/16.
    let net = Netlist::parse_bench(
        "INPUT(a)\nINPUT(b)\nINPUT(c)\nINPUT(d)\nOUTPUT(y)\ny = AND(a, b, c, d)\n",
    )?;
    let p = fault_injection(&net, 0.0, 1 << 16, seed).signal_prob[4];
    if (p - 1.0 / 16.0).abs() > 6.0 * (15.0f64 / 256.0 / 65536.0).sqrt() {
        return Err(format!("AND4 signal probability {p}, expected 1/16"));
    }
    // Observabilities: every gate of an XOR tree is observed on every pattern.
    let net = Netlist::parse_bench(&xor_tree(5))?;
    let obs = observabilities(&net, 1 << 10, seed);
    for (g, (row, op)) in obs.iter().zip(&net.ops).enumerate() {
        let expect = if *op == Op::Input { 0.0 } else { 1.0 };
        if row[0] != expect {
            return Err(format!("XOR-tree observability {} for node {g}", row[0]));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_passes_its_self_test() {
        self_test(7).unwrap();
    }

    #[test]
    fn tree_exact_rejects_fanout() {
        let net =
            Netlist::parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\nn = AND(a, b)\ny = OR(n, n)\n")
                .unwrap();
        assert!(net.tree_exact(0.1).is_none());
    }

    #[test]
    fn bernoulli_masks_hit_their_rate() {
        let mut rng = Rng::new(3);
        let digits = eps_digits(0.3);
        let ones: u32 = (0..20_000)
            .map(|_| bernoulli_word(&mut rng, digits).count_ones())
            .sum();
        let rate = f64::from(ones) / (20_000.0 * 64.0);
        assert!((rate - 0.3).abs() < 0.003, "rate {rate}");
    }
}
