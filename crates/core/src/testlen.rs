//! Necessary test lengths (paper Sec. 5, formula (3)).
//!
//! Under the independence assumption, the probability that `N` random
//! patterns detect every fault in `F` is
//!
//! ```text
//! P_F(N) = Π_{f ∈ F} (1 − (1 − p_f)^N)
//! ```
//!
//! All computation happens in log space so the paper's extreme regimes
//! (`N ≈ 3·10⁸` at `p_f ≈ 10⁻⁸`, Table 3) remain numerically stable.
//!
//! The search for the minimal `N` probes the same lengths as a plain
//! exponential-then-bisection search that sums every fault's term
//! `ln(1 − (1 − p_f)^N)` at every probe, and it returns bit-identical
//! `patterns` and `confidence`. It does less work per probe for two
//! reasons, both exact in floating point:
//!
//! * **Dead terms are skipped.** With `t = N·ln(1 − p_f) < −40`,
//!   `e^t < 4.3·10⁻¹⁸` is below half an ulp of 1.0, so `−expm1(t)` rounds
//!   to exactly 1.0 and the term is `ln 1.0 = +0.0`. Adding `+0.0` to the
//!   running sum (which is `+0.0` or negative) changes no bit. Since `t`
//!   only falls as `N` grows, a term dead at a failed probe is dead at
//!   every later, longer probe and leaves the search for good; the
//!   bisection in `(hi/2, hi]` visits only the terms alive at `hi/2`, in
//!   fault order.
//! * **Failing probes stop early.** Every term is `≤ 0`, and rounded
//!   addition is monotone, so once the running sum falls below
//!   `ln confidence` no later term can lift it back: the probe's verdict
//!   is already the full sum's verdict.
//! * **Most failing probes take one term.** Dropping terms from the sum
//!   can only raise it: adding an omitted term `x ≤ 0` never raises the
//!   rounded running sum, and adding a shared term keeps the order of two
//!   running sums, since rounding is monotone. So the full sum is at most
//!   the hardest fault's term alone, and when that term is already below
//!   `ln confidence` the probe fails without a pass over the others —
//!   which settles every probe far short of `N`.
//!
//! So every probe gives the full sum's verdict — `N` is the same even
//! where the rounded sum is not monotone in `N` — and the successful
//! probe at `N` adds the same nonzero terms in the same order, so the
//! reported confidence has the same bits.

/// A computed test length.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TestLength {
    /// The minimal pattern count `N`.
    pub patterns: u64,
    /// `P_F(N)` actually achieved at that length.
    pub confidence: f64,
}

/// Search cap: beyond this the test is deemed uneconomical / unreachable.
pub const MAX_PATTERNS: u64 = 1 << 50;

/// `ln P_F(N)` for detection probabilities `ps`.
///
/// Returns `-inf` if any probability is 0 (an undetectable fault can never
/// be covered) and 0.0 for an empty set.
pub fn ln_set_detection_probability(ps: &[f64], n: u64) -> f64 {
    if n == 0 {
        return if ps.is_empty() {
            0.0
        } else {
            f64::NEG_INFINITY
        };
    }
    let mut total = 0.0f64;
    for &p in ps {
        if p <= 0.0 {
            return f64::NEG_INFINITY;
        }
        if p >= 1.0 {
            continue;
        }
        // t = ln (1-p)^N;  term = ln(1 − e^t) = ln(−expm1(t)).
        let t = n as f64 * (-p).ln_1p();
        total += (-t.exp_m1()).ln();
    }
    total
}

/// `P_F(N)` (see [`ln_set_detection_probability`]).
pub fn set_detection_probability(ps: &[f64], n: u64) -> f64 {
    ln_set_detection_probability(ps, n).exp()
}

/// [`ln_set_detection_probability`] with a multiplicity per probability —
/// the class-expansion form: a collapsed fault class of size `k` whose
/// members share the representative's detection probability contributes
/// its product term `k` times.
///
/// Entries with `count == 0` are skipped (a fully pruned class).
pub fn ln_set_detection_probability_weighted(ps: &[f64], counts: &[u32], n: u64) -> f64 {
    assert_eq!(ps.len(), counts.len(), "one count per probability");
    if n == 0 {
        return if counts.iter().all(|&c| c == 0) {
            0.0
        } else {
            f64::NEG_INFINITY
        };
    }
    let mut total = 0.0f64;
    for (&p, &count) in ps.iter().zip(counts) {
        if count == 0 {
            continue;
        }
        if p <= 0.0 {
            return f64::NEG_INFINITY;
        }
        if p >= 1.0 {
            continue;
        }
        let t = n as f64 * (-p).ln_1p();
        total += count as f64 * (-t.exp_m1()).ln();
    }
    total
}

/// The weighted companion of [`required_test_length`]: minimal `N` with
/// `Π_i (1 − (1 − p_i)^N)^{count_i} ≥ confidence`, or `None` beyond
/// [`MAX_PATTERNS`].
///
/// # Panics
///
/// Panics if `confidence` is not within `(0, 1)` or the slices differ in
/// length.
pub fn required_test_length_weighted(
    ps: &[f64],
    counts: &[u32],
    confidence: f64,
) -> Option<TestLength> {
    let _span = protest_telemetry::span(protest_telemetry::Site::TestLength);
    weighted_length(ps, counts, confidence)
}

/// [`required_test_length_weighted`] without its span.
fn weighted_length(ps: &[f64], counts: &[u32], confidence: f64) -> Option<TestLength> {
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
    search_length(terms, confidence)
}

/// The weighted `d`-fraction variant: drops the hardest `(1 − d)`-fraction
/// of the *expanded* universe (counting multiplicities), splitting a class
/// at the boundary when necessary, then computes the weighted test length.
///
/// # Panics
///
/// Panics like [`required_test_length_weighted`], and if `d` is not within
/// `(0, 1]`.
pub fn required_test_length_fraction_weighted(
    ps: &[f64],
    counts: &[u32],
    d: f64,
    e: f64,
) -> Option<TestLength> {
    let _span = protest_telemetry::span(protest_telemetry::Site::TestLength);
    assert!(d > 0.0 && d <= 1.0, "fraction d must be in (0, 1]");
    assert_eq!(ps.len(), counts.len(), "one count per probability");
    let total: u64 = counts.iter().map(|&c| c as u64).sum();
    let mut keep = ((d * total as f64).round() as u64).min(total);
    // Highest detection probability first; keep the easiest `keep` faults.
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
    weighted_length(&kept_ps, &kept_counts, e)
}

/// `ln Σ_f (1 − p_f)^N` — the log of the *expected number of undetected
/// faults* after `N` patterns.
///
/// This is the numerically robust companion of `J_N`: once every fault is
/// nearly certain to be caught, `ln J_N` saturates to 0 in `f64` while this
/// quantity keeps discriminating (`J_N ≈ exp(−Σ q_f)` for small
/// `q_f = (1−p_f)^N`). The optimizer climbs on it for exactly that reason.
///
/// Returns `-inf` for an empty set or when every `p_f ≥ 1`.
pub fn ln_expected_undetected(ps: &[f64], n: u64) -> f64 {
    // Log-sum-exp over t_f = N·ln(1 − p_f).
    let ts: Vec<f64> = ps
        .iter()
        .filter(|&&p| p < 1.0)
        .map(|&p| {
            if p <= 0.0 {
                0.0 // (1-0)^N = 1
            } else {
                n as f64 * (-p).ln_1p()
            }
        })
        .collect();
    let m = ts.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if m == f64::NEG_INFINITY {
        return f64::NEG_INFINITY;
    }
    m + ts.iter().map(|t| (t - m).exp()).sum::<f64>().ln()
}

/// The minimal `N` with `P_F(N) ≥ confidence`, or `None` if unreachable
/// within [`MAX_PATTERNS`] (e.g. an estimated-undetectable fault in `F`).
///
/// # Example
///
/// ```
/// use protest_core::testlen::required_test_length;
///
/// // Three faults, the hardest detected by 1% of patterns:
/// let n = required_test_length(&[0.5, 0.1, 0.01], 0.98).unwrap();
/// assert!(n.patterns > 100 && n.patterns < 1000);
/// assert!(n.confidence >= 0.98);
/// ```
///
/// # Panics
///
/// Panics if `confidence` is not within `(0, 1)`.
pub fn required_test_length(ps: &[f64], confidence: f64) -> Option<TestLength> {
    let _span = protest_telemetry::span(protest_telemetry::Site::TestLength);
    unweighted_length(ps, confidence)
}

/// [`required_test_length`] without its span.
fn unweighted_length(ps: &[f64], confidence: f64) -> Option<TestLength> {
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
    search_length(terms, confidence)
}

/// The per-fault `(ln(1 − p), multiplicity)` terms of a test-length
/// search, computed once per fault instead of once per probed length.
/// Certainly detected faults (`p ≥ 1`) contribute nothing and are
/// dropped. `None` when a fault is undetectable (`p ≤ 0`): no length
/// reaches any confidence then.
fn miss_terms(faults: impl Iterator<Item = (f64, f64)>) -> Option<Vec<(f64, f64)>> {
    let mut terms = Vec::with_capacity(faults.size_hint().0);
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

/// A fault's term `count · ln(1 − (1 − p)^n)` of `ln P_F(n)`, from
/// `ln_miss = ln(1 − p)`.
fn miss_term(n: u64, ln_miss: f64, count: f64) -> f64 {
    // t = ln (1-p)^N;  term = ln(1 − e^t) = ln(−expm1(t)).
    let t = n as f64 * ln_miss;
    count * (-t.exp_m1()).ln()
}

/// Below this exponent `t = N·ln(1 − p)` a fault's miss term is exactly
/// `+0.0`: `e^t < 4.3·10⁻¹⁸` is under half an ulp of 1.0, so
/// `−expm1(t)` rounds to 1.0 and its log is `+0.0`.
const DEAD_EXPONENT: f64 = -40.0;

/// One probe of the test-length search: whether `ln P_F(n) ≥ target`,
/// summing `alive` in order as [`ln_set_detection_probability_weighted`]
/// sums every fault, but skipping dead terms and stopping at the first
/// shortfall — both exact, see the module docs.
///
/// A failed probe also narrows `alive` to the terms still alive at `n`
/// (its unexamined tail kept as is), with `scratch` as the second
/// buffer; every later probe is longer, so no dropped term revives.
/// Returns the full sum when the probe succeeds.
fn probe(
    alive: &mut Vec<(f64, f64)>,
    scratch: &mut Vec<(f64, f64)>,
    n: u64,
    target: f64,
) -> Option<f64> {
    scratch.clear();
    let mut total = 0.0f64;
    for i in 0..alive.len() {
        let (ln_miss, count) = alive[i];
        if n as f64 * ln_miss < DEAD_EXPONENT {
            continue;
        }
        scratch.push((ln_miss, count));
        total += miss_term(n, ln_miss, count);
        if total < target {
            if scratch.len() <= i {
                scratch.extend_from_slice(&alive[i + 1..]);
                std::mem::swap(alive, scratch);
            }
            return None;
        }
    }
    Some(total)
}

/// The minimal `N ≥ 1` with `ln P_F(N) ≥ ln confidence`: exponential
/// search for an upper bound, then bisection in `(hi/2, hi]`. The probe
/// lengths and verdicts are those of a full-sum search (module docs): a
/// probe fails outright when the hardest fault's term alone misses the
/// target, and otherwise runs [`probe`]. So the bisection only needs the
/// terms alive at its last failure.
fn search_length(mut alive: Vec<(f64, f64)>, confidence: f64) -> Option<TestLength> {
    let target = confidence.ln();
    // The smallest `p` has the largest `ln(1 − p)`, and the largest term.
    let hardest = alive.iter().copied().max_by(|a, b| a.0.total_cmp(&b.0));
    let mut scratch = Vec::with_capacity(alive.len());
    let mut reaches = |n: u64| {
        if hardest.is_some_and(|(ln_miss, count)| miss_term(n, ln_miss, count) < target) {
            return None;
        }
        probe(&mut alive, &mut scratch, n, target)
    };
    let mut hi = 1u64;
    let mut at_hi = loop {
        if let Some(sum) = reaches(hi) {
            break sum;
        }
        if hi >= MAX_PATTERNS {
            return None;
        }
        hi = (hi * 2).min(MAX_PATTERNS);
    };
    let mut lo = hi / 2; // reaches(lo) is false (or lo == 0)
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        match reaches(mid) {
            Some(sum) => (hi, at_hi) = (mid, sum),
            None => lo = mid,
        }
    }
    Some(TestLength {
        patterns: hi,
        confidence: at_hi.exp(),
    })
}

/// The paper's `d`-fraction variant: `F_d` keeps the `d·100 %` faults with
/// the *highest* detection probabilities (dropping the hardest tail), and
/// `N` is the minimal length detecting all of `F_d` with probability ≥ `e`.
///
/// # Panics
///
/// Panics if `d` is not within `(0, 1]` or `e` not within `(0, 1)`.
pub fn required_test_length_fraction(ps: &[f64], d: f64, e: f64) -> Option<TestLength> {
    let _span = protest_telemetry::span(protest_telemetry::Site::TestLength);
    assert!(d > 0.0 && d <= 1.0, "fraction d must be in (0, 1]");
    let mut sorted: Vec<f64> = ps.to_vec();
    // Highest first; the kept set is the easiest d·100 %.
    sorted.sort_by(|a, b| b.partial_cmp(a).unwrap_or(std::cmp::Ordering::Equal));
    let keep = ((d * ps.len() as f64).round() as usize).min(ps.len());
    unweighted_length(&sorted[..keep], e)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_fault_closed_form() {
        // One fault at p: N = ceil(ln(1−e)/ln(1−p)).
        let p = 0.01;
        let e = 0.98;
        let want = ((1.0f64 - e).ln() / (1.0f64 - p).ln()).ceil() as u64;
        let got = required_test_length(&[p], e).unwrap();
        assert_eq!(got.patterns, want);
        assert!(got.confidence >= e);
        // Minimality.
        assert!(set_detection_probability(&[p], got.patterns - 1) < e);
    }

    #[test]
    fn paper_scale_magnitudes() {
        // p ≈ 6·10⁻⁹ (COMP's hardest faults at p=0.5) needs N ≈ 5·10⁸ at
        // e=0.95 — the Table 3 regime must not overflow or round to junk.
        let got = required_test_length(&[6e-9], 0.95).unwrap();
        assert!(got.patterns > 100_000_000, "N = {}", got.patterns);
        assert!(got.patterns < 1_000_000_000, "N = {}", got.patterns);
    }

    #[test]
    fn monotone_in_confidence_and_probability() {
        let ps = [0.001, 0.01, 0.3];
        let n95 = required_test_length(&ps, 0.95).unwrap().patterns;
        let n98 = required_test_length(&ps, 0.98).unwrap().patterns;
        let n999 = required_test_length(&ps, 0.999).unwrap().patterns;
        assert!(n95 <= n98 && n98 <= n999);
        let easier = [0.01, 0.1, 0.3];
        let ne = required_test_length(&easier, 0.95).unwrap().patterns;
        assert!(ne <= n95);
    }

    #[test]
    fn undetectable_fault_is_unreachable() {
        assert!(required_test_length(&[0.0, 0.5], 0.9).is_none());
    }

    #[test]
    fn fraction_drops_hardest_faults() {
        // One pathological fault at 1e-12 dominates d=1.0; d=0.5 drops it.
        let ps = [0.5, 1e-12];
        let full = required_test_length_fraction(&ps, 1.0, 0.95).unwrap();
        let half = required_test_length_fraction(&ps, 0.5, 0.95).unwrap();
        assert!(full.patterns > 1_000_000_000);
        assert!(half.patterns < 100);
    }

    #[test]
    fn certain_detection_needs_one_pattern() {
        let got = required_test_length(&[1.0, 1.0], 0.99).unwrap();
        assert_eq!(got.patterns, 1);
        assert_eq!(got.confidence, 1.0);
    }

    #[test]
    fn empty_fault_set() {
        let got = required_test_length(&[], 0.9).unwrap();
        assert_eq!(got.patterns, 0);
    }

    #[test]
    fn formula_matches_direct_product_in_easy_regime() {
        let ps = [0.3, 0.2, 0.6];
        for n in [1u64, 5, 20] {
            let direct: f64 = ps
                .iter()
                .map(|&p: &f64| 1.0 - (1.0 - p).powi(n as i32))
                .product();
            let log_space = set_detection_probability(&ps, n);
            assert!((direct - log_space).abs() < 1e-12, "n={n}");
        }
    }

    #[test]
    #[should_panic(expected = "confidence")]
    fn rejects_confidence_one() {
        let _ = required_test_length(&[0.5], 1.0);
    }

    #[test]
    fn weighted_matches_repeated_expansion() {
        // A class of size k contributes exactly like k copies of its
        // representative's probability.
        let ps = [0.4, 0.05, 0.7];
        let counts = [3u32, 2, 1];
        let expanded: Vec<f64> = ps
            .iter()
            .zip(&counts)
            .flat_map(|(&p, &c)| std::iter::repeat_n(p, c as usize))
            .collect();
        for n in [1u64, 7, 40] {
            let w = ln_set_detection_probability_weighted(&ps, &counts, n);
            let e = ln_set_detection_probability(&expanded, n);
            assert!((w - e).abs() < 1e-12, "n={n}: {w} vs {e}");
        }
        let nw = required_test_length_weighted(&ps, &counts, 0.95).unwrap();
        let ne = required_test_length(&expanded, 0.95).unwrap();
        assert_eq!(nw.patterns, ne.patterns);
        assert!((nw.confidence - ne.confidence).abs() < 1e-12);
    }

    #[test]
    fn weighted_fraction_splits_boundary_classes() {
        // Universe of 4 expanded faults; d = 0.75 keeps 3, cutting the
        // hard class of size 2 down to one member.
        let ps = [0.9, 0.01];
        let counts = [2u32, 2];
        let full = required_test_length_fraction_weighted(&ps, &counts, 1.0, 0.95).unwrap();
        let part = required_test_length_fraction_weighted(&ps, &counts, 0.75, 0.95).unwrap();
        let expanded = [0.9, 0.9, 0.01, 0.01];
        let reference = required_test_length_fraction(&expanded, 0.75, 0.95).unwrap();
        assert_eq!(part.patterns, reference.patterns);
        assert!(part.patterns < full.patterns);
    }

    /// The search as it read before the per-fault terms were hoisted:
    /// every probe re-evaluates the public log-space formula.
    fn reference_length(ln_at: impl Fn(u64) -> f64, confidence: f64) -> Option<TestLength> {
        let target = confidence.ln();
        let mut hi = 1u64;
        while ln_at(hi) < target {
            if hi >= MAX_PATTERNS {
                return None;
            }
            hi = (hi * 2).min(MAX_PATTERNS);
        }
        let mut lo = hi / 2;
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if ln_at(mid) >= target {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        Some(TestLength {
            patterns: hi,
            confidence: ln_at(hi).exp(),
        })
    }

    #[test]
    fn hoisted_search_is_bit_identical_to_the_formula() {
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for round in 0..300 {
            let len = (next() % 40) as usize;
            let ps: Vec<f64> = (0..len)
                .map(|_| match next() % 16 {
                    0 if round % 7 == 0 => 0.0,
                    1 => 1.0,
                    2 => 10f64.powi(-((next() % 12) as i32)),
                    _ => (next() % 1_000_000) as f64 / 1_000_000.0 + 1e-9,
                })
                .collect();
            let counts: Vec<u32> = ps.iter().map(|_| (next() % 4) as u32).collect();
            for e in [0.5, 0.95, 0.999] {
                let got = required_test_length(&ps, e);
                let want = if ps.is_empty() {
                    required_test_length(&ps, e)
                } else {
                    reference_length(|n| ln_set_detection_probability(&ps, n), e)
                };
                assert_eq!(got.map(|t| t.patterns), want.map(|t| t.patterns));
                assert_eq!(
                    got.map(|t| t.confidence.to_bits()),
                    want.map(|t| t.confidence.to_bits())
                );
                if counts.iter().any(|&c| c > 0) {
                    let got = required_test_length_weighted(&ps, &counts, e);
                    let want = reference_length(
                        |n| ln_set_detection_probability_weighted(&ps, &counts, n),
                        e,
                    );
                    assert_eq!(got.map(|t| t.patterns), want.map(|t| t.patterns));
                    assert_eq!(
                        got.map(|t| t.confidence.to_bits()),
                        want.map(|t| t.confidence.to_bits())
                    );
                }
            }
        }
    }

    #[test]
    fn weighted_skips_empty_classes() {
        let got = required_test_length_weighted(&[0.5, 0.2], &[1, 0], 0.9).unwrap();
        let reference = required_test_length(&[0.5], 0.9).unwrap();
        assert_eq!(got.patterns, reference.patterns);
        let none = required_test_length_weighted(&[0.5], &[0], 0.9).unwrap();
        assert_eq!(none.patterns, 0);
    }
}
