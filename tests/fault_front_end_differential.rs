//! Differential tests for the fault front end: the positional (hash-free)
//! fault collapse and the exact-skip test-length search against verbatim
//! copies of the hash-map collapse and the full-sum search they replaced.
//!
//! Both rewrites promise bit-identical output: the same representatives,
//! the same class members in the same class order, and the same
//! `TestLength { patterns, confidence.to_bits() }` for every input.

use proptest::prelude::*;
use protest::prelude::*;
use protest_circuits::{by_name, mult_mesh, random_circuit, RandomCircuitParams};
use protest_core::testlen::{
    required_test_length, required_test_length_fraction, required_test_length_fraction_weighted,
    required_test_length_weighted, TestLength,
};
use protest_sim::{collapse_universe, dominance_collapse, CollapsedUniverse, FaultUniverse};

/// The pre-CSR collapse, kept as the oracle. The bodies are verbatim;
/// only the return type changed, because `CollapsedUniverse` has no
/// public constructor: each function returns `(representatives, classes)`.
mod old_collapse {
    use protest_netlist::{Circuit, GateKind};
    use protest_sim::{Fault, FaultUniverse, StuckAt};

    pub type Classes = (Vec<Fault>, Vec<Vec<Fault>>);

    pub fn collapse_universe(circuit: &Circuit, universe: &FaultUniverse) -> Classes {
        use std::collections::HashMap;

        let index: HashMap<Fault, usize> =
            universe.iter().enumerate().map(|(i, f)| (f, i)).collect();
        let mut dsu = Dsu::new(universe.len());

        for (id, node) in circuit.iter() {
            let (controlled, out_pol) = match node.kind() {
                GateKind::And => (StuckAt::Zero, StuckAt::Zero),
                GateKind::Nand => (StuckAt::Zero, StuckAt::One),
                GateKind::Or => (StuckAt::One, StuckAt::One),
                GateKind::Nor => (StuckAt::One, StuckAt::Zero),
                GateKind::Buf | GateKind::Not => {
                    // Both polarities map through.
                    for pol in [StuckAt::Zero, StuckAt::One] {
                        let out_pol = if node.kind() == GateKind::Not {
                            pol.flipped()
                        } else {
                            pol
                        };
                        let pin_fault = Fault::input_pin(id, 0, pol);
                        let driver = node.fanins()[0];
                        let in_fault = Fault::output(driver, pol);
                        let out_fault = Fault::output(id, out_pol);
                        let a = index.get(&pin_fault).or_else(|| {
                            if circuit.is_output(driver) {
                                None
                            } else {
                                index.get(&in_fault)
                            }
                        });
                        if let (Some(&a), Some(&b)) = (a, index.get(&out_fault)) {
                            dsu.union(a, b);
                        }
                    }
                    continue;
                }
                _ => continue,
            };
            let out_fault = Fault::output(id, out_pol);
            let Some(&out_idx) = index.get(&out_fault) else {
                continue;
            };
            for (pin, &f) in node.fanins().iter().enumerate() {
                let pin_fault = Fault::input_pin(id, pin as u8, controlled);
                let in_fault = Fault::output(f, controlled);
                let a = index.get(&pin_fault).or_else(|| {
                    if circuit.is_output(f) {
                        None
                    } else {
                        index.get(&in_fault)
                    }
                });
                if let Some(&a) = a {
                    dsu.union(a, out_idx);
                }
            }
        }

        let mut groups: HashMap<usize, Vec<Fault>> = HashMap::new();
        for (i, f) in universe.iter().enumerate() {
            groups.entry(dsu.find(i)).or_default().push(f);
        }
        let mut classes: Vec<Vec<Fault>> = groups.into_values().collect();
        for class in &mut classes {
            class.sort();
        }
        classes.sort_by_key(|c| c[0]);
        let representatives = classes.iter().map(|c| c[0]).collect();
        (representatives, classes)
    }

    pub fn dominance_collapse(circuit: &Circuit, equiv: &Classes) -> Classes {
        use std::collections::HashMap;

        let (equiv_representatives, equiv_classes) = equiv;
        // Fault → equivalence-class index.
        let mut class_of: HashMap<Fault, u32> = HashMap::new();
        for (ci, class) in equiv_classes.iter().enumerate() {
            for &f in class {
                class_of.insert(f, ci as u32);
            }
        }
        // Accounting forest over class indices: at most one parent per class.
        let mut parent: Vec<Option<u32>> = vec![None; equiv_classes.len()];
        let root = |parent: &[Option<u32>], mut c: u32| -> u32 {
            while let Some(p) = parent[c as usize] {
                c = p;
            }
            c
        };

        for (id, node) in circuit.iter() {
            let controlled = match node.kind() {
                GateKind::And | GateKind::Nand => StuckAt::Zero,
                GateKind::Or | GateKind::Nor => StuckAt::One,
                _ => continue,
            };
            let out_pol = match node.kind() {
                GateKind::And => StuckAt::Zero,
                GateKind::Nand => StuckAt::One,
                GateKind::Or => StuckAt::One,
                GateKind::Nor => StuckAt::Zero,
                _ => unreachable!(),
            };
            let target = Fault::output(id, out_pol.flipped());
            let Some(&tc) = class_of.get(&target) else {
                continue; // dead node or pruned class
            };
            if parent[tc as usize].is_some() {
                continue; // already accounted to another implier
            }
            let source_pol = controlled.flipped();
            for (pin, &f) in node.fanins().iter().enumerate() {
                let pin_fault = Fault::input_pin(id, pin as u8, source_pol);
                let in_fault = Fault::output(f, source_pol);
                let sc = class_of.get(&pin_fault).copied().or_else(|| {
                    if circuit.is_output(f) {
                        None
                    } else {
                        class_of.get(&in_fault).copied()
                    }
                });
                let Some(sc) = sc else { continue };
                if sc == tc || root(&parent, sc) == tc {
                    continue;
                }
                parent[tc as usize] = Some(sc);
                break; // one accounting parent per dominated class
            }
        }

        // Group equivalence classes by forest root and emit merged classes.
        let mut groups: HashMap<u32, Vec<u32>> = HashMap::new();
        for c in 0..equiv_classes.len() as u32 {
            groups.entry(root(&parent, c)).or_default().push(c);
        }
        let mut merged: Vec<(Fault, Vec<Fault>)> = groups
            .into_iter()
            .map(|(r, members)| {
                let mut faults: Vec<Fault> = members
                    .iter()
                    .flat_map(|&c| equiv_classes[c as usize].iter().copied())
                    .collect();
                faults.sort();
                (equiv_representatives[r as usize], faults)
            })
            .collect();
        merged.sort_by_key(|&(rep, _)| rep);
        let representatives = merged.iter().map(|&(rep, _)| rep).collect();
        let classes = merged.into_iter().map(|(_, c)| c).collect();
        (representatives, classes)
    }

    /// The old `CollapsedUniverse::filtered`.
    pub fn filtered(equiv: &Classes, keep: &[bool]) -> Classes {
        let representatives = equiv
            .0
            .iter()
            .zip(keep)
            .filter(|(_, &k)| k)
            .map(|(&r, _)| r)
            .collect();
        let classes = equiv
            .1
            .iter()
            .zip(keep)
            .filter(|(_, &k)| k)
            .map(|(c, _)| c.clone())
            .collect();
        (representatives, classes)
    }

    #[derive(Debug)]
    struct Dsu {
        parent: Vec<u32>,
    }

    impl Dsu {
        fn new(n: usize) -> Self {
            Dsu {
                parent: (0..n as u32).collect(),
            }
        }
        fn find(&mut self, i: usize) -> usize {
            let mut root = i;
            while self.parent[root] as usize != root {
                root = self.parent[root] as usize;
            }
            let mut cur = i;
            while self.parent[cur] as usize != cur {
                let next = self.parent[cur] as usize;
                self.parent[cur] = root as u32;
                cur = next;
            }
            root
        }
        fn union(&mut self, a: usize, b: usize) {
            let (ra, rb) = (self.find(a), self.find(b));
            if ra != rb {
                self.parent[ra] = rb as u32;
            }
        }
    }
}

/// The full-sum test-length search, kept as the oracle (verbatim: every
/// probe sums every fault's term).
mod old_testlen {
    use protest_core::testlen::{TestLength, MAX_PATTERNS};

    pub fn required_test_length(ps: &[f64], confidence: f64) -> Option<TestLength> {
        assert!(
            confidence > 0.0 && confidence < 1.0,
            "confidence must be in (0, 1)"
        );
        if ps.is_empty() {
            return Some(TestLength {
                patterns: 0,
                confidence: 1.0,
            });
        }
        let terms = miss_terms(ps.iter().map(|&p| (p, 1.0)))?;
        search_length(&terms, confidence)
    }

    pub fn required_test_length_weighted(
        ps: &[f64],
        counts: &[u32],
        confidence: f64,
    ) -> Option<TestLength> {
        assert!(
            confidence > 0.0 && confidence < 1.0,
            "confidence must be in (0, 1)"
        );
        assert_eq!(ps.len(), counts.len(), "one count per probability");
        if counts.iter().all(|&c| c == 0) {
            return Some(TestLength {
                patterns: 0,
                confidence: 1.0,
            });
        }
        let terms = miss_terms(
            ps.iter()
                .zip(counts)
                .filter(|&(_, &c)| c > 0)
                .map(|(&p, &c)| (p, c as f64)),
        )?;
        search_length(&terms, confidence)
    }

    pub fn required_test_length_fraction(ps: &[f64], d: f64, e: f64) -> Option<TestLength> {
        assert!(d > 0.0 && d <= 1.0, "fraction d must be in (0, 1]");
        let mut sorted: Vec<f64> = ps.to_vec();
        sorted.sort_by(|a, b| b.partial_cmp(a).unwrap_or(std::cmp::Ordering::Equal));
        let keep = ((d * ps.len() as f64).round() as usize).min(ps.len());
        required_test_length(&sorted[..keep], e)
    }

    pub fn required_test_length_fraction_weighted(
        ps: &[f64],
        counts: &[u32],
        d: f64,
        e: f64,
    ) -> Option<TestLength> {
        assert!(d > 0.0 && d <= 1.0, "fraction d must be in (0, 1]");
        assert_eq!(ps.len(), counts.len(), "one count per probability");
        let total: u64 = counts.iter().map(|&c| c as u64).sum();
        let mut keep = ((d * total as f64).round() as u64).min(total);
        let mut order: Vec<usize> = (0..ps.len()).collect();
        order.sort_by(|&a, &b| {
            ps[b]
                .partial_cmp(&ps[a])
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let mut kept_ps = Vec::with_capacity(ps.len());
        let mut kept_counts = Vec::with_capacity(counts.len());
        for &i in &order {
            if keep == 0 {
                break;
            }
            let take = (counts[i] as u64).min(keep) as u32;
            if take > 0 {
                kept_ps.push(ps[i]);
                kept_counts.push(take);
                keep -= take as u64;
            }
        }
        required_test_length_weighted(&kept_ps, &kept_counts, e)
    }

    fn miss_terms(faults: impl Iterator<Item = (f64, f64)>) -> Option<Vec<(f64, f64)>> {
        let mut terms = Vec::new();
        for (p, count) in faults {
            if p <= 0.0 {
                return None;
            }
            if p < 1.0 {
                terms.push(((-p).ln_1p(), count));
            }
        }
        Some(terms)
    }

    fn ln_detection_at(terms: &[(f64, f64)], n: u64) -> f64 {
        let mut total = 0.0f64;
        for &(ln_miss, count) in terms {
            let t = n as f64 * ln_miss;
            total += count * (-t.exp_m1()).ln();
        }
        total
    }

    fn search_length(terms: &[(f64, f64)], confidence: f64) -> Option<TestLength> {
        let target = confidence.ln();
        let reaches = |n: u64| ln_detection_at(terms, n) >= target;
        let mut hi = 1u64;
        while !reaches(hi) {
            if hi >= MAX_PATTERNS {
                return None;
            }
            hi = (hi * 2).min(MAX_PATTERNS);
        }
        let mut lo = hi / 2;
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if reaches(mid) {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        Some(TestLength {
            patterns: hi,
            confidence: ln_detection_at(terms, hi).exp(),
        })
    }
}

fn as_classes(c: &CollapsedUniverse) -> old_collapse::Classes {
    (
        c.representatives().to_vec(),
        c.classes().iter().map(|class| class.to_vec()).collect(),
    )
}

fn assert_same_classes(what: &str, got: &CollapsedUniverse, want: &old_collapse::Classes) {
    let got = as_classes(got);
    assert_eq!(got.0, want.0, "{what}: representatives differ");
    assert_eq!(got.1.len(), want.1.len(), "{what}: class count differs");
    for (i, (g, w)) in got.1.iter().zip(&want.1).enumerate() {
        assert_eq!(g, w, "{what}: class {i} differs");
    }
}

/// Every collapse the analyzer can run on `circuit` — equivalence,
/// dominance over it, and dominance over a pruned copy — against the
/// oracle.
fn assert_collapse_matches_oracle(circuit: &Circuit) {
    let name = circuit.name();
    let universe = FaultUniverse::all(circuit);
    let equiv = collapse_universe(circuit, &universe);
    let want_equiv = old_collapse::collapse_universe(circuit, &universe);
    assert_same_classes(&format!("{name} equivalence"), &equiv, &want_equiv);
    assert_eq!(equiv.expanded_len(), universe.len(), "{name}");

    let dom = dominance_collapse(circuit, &equiv);
    let want_dom = old_collapse::dominance_collapse(circuit, &want_equiv);
    assert_same_classes(&format!("{name} dominance"), &dom, &want_dom);

    // The analyzer prunes proven-redundant classes before dominance
    // merging; any keep mask exercises the same partial-universe path.
    let keep: Vec<bool> = (0..equiv.len()).map(|i| i % 3 != 1).collect();
    let pruned = equiv.filtered(&keep);
    let want_pruned = old_collapse::filtered(&want_equiv, &keep);
    assert_same_classes(&format!("{name} pruned"), &pruned, &want_pruned);
    let dom = dominance_collapse(circuit, &pruned);
    let want_dom = old_collapse::dominance_collapse(circuit, &want_pruned);
    assert_same_classes(&format!("{name} pruned dominance"), &dom, &want_dom);
}

#[test]
fn collapse_matches_hash_oracle_on_paper_circuits() {
    for name in ["c17", "alu", "comp24", "div8x8"] {
        assert_collapse_matches_oracle(&by_name(name).unwrap());
    }
}

#[test]
fn collapse_matches_hash_oracle_on_small_meshes() {
    assert_collapse_matches_oracle(&mult_mesh(3, 2, 3, true));
    assert_collapse_matches_oracle(&mult_mesh(3, 2, 3, false));
}

/// Random circuits with every gate kind the collapse rules distinguish
/// (BUF/NOT pass-through, XNOR, wide gates, constants) and internal nets
/// observed as primary outputs, which the stem/PO guards treat apart.
fn mixed_circuit(seed: u64) -> Circuit {
    let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut next = move |m: u64| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x % m
    };
    let mut b = CircuitBuilder::new(format!("mixed{seed}"));
    let mut nodes: Vec<NodeId> = (0..4).map(|i| b.input(format!("i{i}"))).collect();
    if next(2) == 0 {
        let value = next(2) == 0;
        nodes.push(b.constant(value));
    }
    for _ in 0..24 {
        let kind = match next(10) {
            0 => GateKind::And,
            1 => GateKind::Nand,
            2 => GateKind::Or,
            3 => GateKind::Nor,
            4 => GateKind::Xor,
            5 => GateKind::Xnor,
            6 => GateKind::Not,
            7 => GateKind::Buf,
            8 => GateKind::And,
            _ => GateKind::Or,
        };
        let arity = match kind {
            GateKind::Not | GateKind::Buf => 1,
            _ => 2 + next(3) as usize,
        };
        let fanins: Vec<NodeId> = (0..arity)
            .map(|_| nodes[next(nodes.len() as u64) as usize])
            .collect();
        nodes.push(b.gate(kind, &fanins));
    }
    let last = *nodes.last().unwrap();
    b.output(last, "z");
    for k in 0..3 {
        let n = nodes[next(nodes.len() as u64) as usize];
        b.output(n, format!("o{k}"));
    }
    b.finish().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn collapse_matches_hash_oracle_on_random_circuits(seed in 0u64..10_000) {
        assert_collapse_matches_oracle(&random_circuit(RandomCircuitParams {
            inputs: 6,
            gates: 40,
            outputs: 3,
            seed,
        }));
        assert_collapse_matches_oracle(&mixed_circuit(seed));
    }
}

fn bits(t: Option<TestLength>) -> Option<(u64, u64)> {
    t.map(|t| (t.patterns, t.confidence.to_bits()))
}

/// A probability drawn from the regimes the search must treat alike:
/// certain, undetectable, unreachable within `MAX_PATTERNS`, tiny, near
/// one and ordinary.
fn draw_p(next: &mut impl FnMut(u64) -> u64, allow_zero: bool) -> f64 {
    match next(20) {
        0 => 1.0,
        1 if allow_zero => 0.0,
        2 => 1e-15 * (1.0 + next(100) as f64 / 100.0),
        3 => 10f64.powi(-(next(13) as i32)),
        4 => 1.0 - 10f64.powi(-(1 + next(12) as i32)),
        5 => f64::MIN_POSITIVE * (1 + next(1000)) as f64,
        _ => (next(1_000_000) as f64 + 1.0) / 1_000_001.0,
    }
}

#[test]
fn test_length_matches_full_sum_oracle() {
    let mut x: u64 = 0x2545_f491_4f6c_dd1d;
    let mut next = move |m: u64| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x % m
    };
    let mut reached = 0;
    for round in 0..400 {
        let len = match round % 4 {
            0 => next(8) as usize,
            1 => next(64) as usize,
            _ => next(800) as usize,
        };
        let allow_zero = round % 9 == 0;
        let ps: Vec<f64> = (0..len).map(|_| draw_p(&mut next, allow_zero)).collect();
        let counts: Vec<u32> = ps
            .iter()
            .map(|_| if next(5) == 0 { 0 } else { next(9) as u32 })
            .collect();
        for (d, e) in [
            (1.0, 0.98),
            (1.0, 0.5),
            (0.98, 0.95),
            (0.9, 0.999),
            (0.5, 0.9),
        ] {
            if d == 1.0 {
                let got = bits(required_test_length(&ps, e));
                assert_eq!(got, bits(old_testlen::required_test_length(&ps, e)));
                reached += usize::from(got.is_some());
                assert_eq!(
                    bits(required_test_length_weighted(&ps, &counts, e)),
                    bits(old_testlen::required_test_length_weighted(&ps, &counts, e)),
                    "weighted, round {round}"
                );
            }
            assert_eq!(
                bits(required_test_length_fraction(&ps, d, e)),
                bits(old_testlen::required_test_length_fraction(&ps, d, e)),
                "fraction d={d} e={e}, round {round}"
            );
            assert_eq!(
                bits(required_test_length_fraction_weighted(&ps, &counts, d, e)),
                bits(old_testlen::required_test_length_fraction_weighted(
                    &ps, &counts, d, e
                )),
                "weighted fraction d={d} e={e}, round {round}"
            );
        }
    }
    // The vectors must exercise both outcomes, not only `None`.
    assert!(reached > 50, "only {reached} reachable searches");
}

/// The search on real estimator output: the serve hot path (comp24) and
/// a circuit whose collapse is weighted by class sizes.
#[test]
fn test_length_matches_full_sum_oracle_on_analyses() {
    for name in ["comp24", "alu", "div8x8"] {
        let analyzer = Analyzer::new(by_name(name).unwrap());
        let probs = InputProbs::uniform(analyzer.circuit().num_inputs());
        let analysis = analyzer.run(&probs).unwrap();
        let ps = analysis.detection_probabilities();
        let sizes = analyzer.class_sizes();
        for (d, e) in [(1.0, 0.95), (0.98, 0.98), (0.9, 0.5)] {
            assert_eq!(
                bits(required_test_length_fraction(&ps, d, e)),
                bits(old_testlen::required_test_length_fraction(&ps, d, e)),
                "{name} d={d} e={e}"
            );
            assert_eq!(
                bits(required_test_length_fraction_weighted(&ps, sizes, d, e)),
                bits(old_testlen::required_test_length_fraction_weighted(
                    &ps, sizes, d, e
                )),
                "{name} weighted d={d} e={e}"
            );
        }
    }
}
