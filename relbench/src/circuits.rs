//! Seeded circuit generators for the benchmark's own inputs.
//!
//! Random circuits have at most 20 primary inputs, which keeps the
//! program's exact BDD weights cheap while the seed varies the structure.

use crate::refsim::Rng;

const GATES: [&str; 7] = ["AND", "NAND", "OR", "NOR", "XOR", "XNOR", "NOT"];

/// A random reconvergent circuit: `inputs` primary inputs, `gates` gates of
/// fanin 1–3 drawn with a bias towards recent signals, and every gate that
/// drives nothing made an output.
pub fn random_reconvergent(seed: u64, inputs: usize, gates: usize) -> String {
    let mut rng = Rng::new(seed);
    let mut signals: Vec<String> = (0..inputs).map(|i| format!("i{i}")).collect();
    let mut used = vec![false; inputs + gates];
    let mut body = String::new();
    for g in 0..gates {
        let kind = GATES[rng.below(GATES.len())];
        let arity = if kind == "NOT" { 1 } else { 2 + rng.below(2) };
        let mut fanin: Vec<usize> = Vec::with_capacity(arity);
        while fanin.len() < arity {
            // A quarter of the picks come from the 12 most recent signals,
            // which creates the reconvergent fanout the correction is for.
            let n = signals.len();
            let pick = if rng.below(4) == 0 {
                n - 1 - rng.below(n.min(12))
            } else {
                rng.below(n)
            };
            if !fanin.contains(&pick) {
                fanin.push(pick);
            }
        }
        for &f in &fanin {
            used[f] = true;
        }
        let args: Vec<&str> = fanin.iter().map(|&f| signals[f].as_str()).collect();
        body.push_str(&format!("g{g} = {kind}({})\n", args.join(", ")));
        signals.push(format!("g{g}"));
    }
    let mut text = String::new();
    for i in 0..inputs {
        text.push_str(&format!("INPUT(i{i})\n"));
    }
    for g in 0..gates {
        if !used[inputs + g] {
            text.push_str(&format!("OUTPUT(g{g})\n"));
        }
    }
    text.push_str(&body);
    text
}

/// A random fanout-free circuit: every input and gate drives exactly one
/// gate, except the single output. Gates have fanin 1–3.
pub fn random_tree(seed: u64, inputs: usize) -> String {
    let mut rng = Rng::new(seed);
    let mut roots: Vec<String> = (0..inputs).map(|i| format!("i{i}")).collect();
    let mut body = String::new();
    let mut g = 0;
    while roots.len() > 1 || g == 0 {
        let kind = GATES[rng.below(GATES.len())];
        let arity = if kind == "NOT" {
            1
        } else {
            (2 + rng.below(2)).min(roots.len()).max(1)
        };
        let mut args = Vec::with_capacity(arity);
        for _ in 0..arity {
            args.push(roots.swap_remove(rng.below(roots.len())));
        }
        // A one-input AND/OR/XOR is legal but degenerate; use an inverter.
        let kind = if arity == 1 { "NOT" } else { kind };
        body.push_str(&format!("t{g} = {kind}({})\n", args.join(", ")));
        roots.push(format!("t{g}"));
        g += 1;
    }
    let mut text = String::new();
    for i in 0..inputs {
        text.push_str(&format!("INPUT(i{i})\n"));
    }
    text.push_str(&format!("OUTPUT({})\n", roots[0]));
    text.push_str(&body);
    text
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::refsim::Netlist;

    #[test]
    fn generated_circuits_parse_and_trees_are_fanout_free() {
        for seed in 0..20 {
            let net = Netlist::parse_bench(&random_reconvergent(seed, 16, 80)).unwrap();
            assert_eq!(net.gate_count(), 80);
            assert!(!net.outputs.is_empty());
            assert!((0..net.outputs.len()).all(|o| net.gate_driven(o)));
            let tree = Netlist::parse_bench(&random_tree(seed, 12)).unwrap();
            assert!(tree.tree_exact(0.1).is_some());
            assert_eq!(tree.inputs.len(), 12);
        }
    }

    #[test]
    fn same_seed_same_circuit() {
        assert_eq!(
            random_reconvergent(5, 10, 30),
            random_reconvergent(5, 10, 30)
        );
        assert_ne!(
            random_reconvergent(5, 10, 30),
            random_reconvergent(6, 10, 30)
        );
    }
}
