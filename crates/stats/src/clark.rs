//! Statistical `min`/`max` of canonical forms via tightness probabilities.
//!
//! Implements eqs. (38)–(43) of the paper, which follow Clark's classic
//! moment-matching and the tightness-probability formulation of
//! Visweswariah et al.: the result of `min(Tn, Tm)` is re-expressed as a
//! first-order canonical form whose sensitivities are the
//! tightness-weighted blend of the operands' sensitivities and whose mean
//! absorbs the `−σ·φ(·)` correction term.
//!
//! The approximation deliberately drops the residual (non-linear) variance
//! so the result stays first-order — exactly what the paper does; the
//! Monte Carlo cross-check (Figure 6) quantifies the accuracy.

use crate::canonical::CanonicalForm;
use crate::gaussian::{norm_cdf, norm_pdf};

/// Outcome of a statistical `min`/`max`, exposing the tightness probability
/// alongside the blended form (C-INTERMEDIATE: callers often need both).
#[derive(Debug, Clone, PartialEq)]
pub struct MinMaxResult {
    /// The blended first-order form.
    pub form: CanonicalForm,
    /// `P(first operand is the min)` for [`stat_min`]
    /// (resp. the max for [`stat_max`]).
    pub tightness: f64,
    /// Standard deviation of the *residual* the first-order form drops:
    /// `√(Var_exact[min] − Var[form])`, from Clark's exact second
    /// moment. Zero when the blend is exact (deterministic ordering);
    /// otherwise a bound on how much the linear approximation
    /// understates the variance — the quantity behind Figure 6's small
    /// σ error.
    pub residual_std: f64,
}

/// Statistical minimum `min(a, b)` of two jointly normal canonical forms.
///
/// Follows eq. (38): with `t = P(a < b)` (eq. (39)),
///
/// ```text
/// min ≈ t·a0 + (1−t)·b0 − σ_{a,b}·φ((μ_b − μ_a)/σ_{a,b})
///       + Σ (t·aᵢ + (1−t)·bᵢ)·Xᵢ
/// ```
///
/// Degenerate cases (`σ_{a,b} ≈ 0`, i.e. the difference is deterministic)
/// return whichever operand has the smaller mean with tightness snapped to
/// `{0, ½, 1}`.
///
/// ```
/// use varbuf_stats::{CanonicalForm, SourceId, stat_min};
/// let a = CanonicalForm::with_terms(3.0, vec![(SourceId(0), 1.0)]);
/// let b = CanonicalForm::with_terms(5.0, vec![(SourceId(1), 1.0)]);
/// let m = stat_min(&a, &b);
/// assert!(m.form.mean() < 3.0); // min mean is below both means' minimum
/// assert!(m.tightness > 0.5);   // `a` is usually the smaller one
/// ```
#[must_use]
pub fn stat_min(a: &CanonicalForm, b: &CanonicalForm) -> MinMaxResult {
    let (dmu, dvar) = b.sub_stats(a); // moments of b − a, allocation-free
    let sigma = dvar.sqrt();

    if sigma <= f64::EPSILON * (a.mean().abs() + b.mean().abs() + 1.0) {
        // Deterministic ordering of the two forms.
        return if dmu > 0.0 {
            MinMaxResult {
                form: a.clone(),
                tightness: 1.0,
                residual_std: 0.0,
            }
        } else if dmu < 0.0 {
            MinMaxResult {
                form: b.clone(),
                tightness: 0.0,
                residual_std: 0.0,
            }
        } else {
            MinMaxResult {
                form: a.clone(),
                tightness: 0.5,
                residual_std: 0.0,
            }
        };
    }

    let z = dmu / sigma;
    let t = norm_cdf(z); // P(a < b), eq. (39)
    let mut form = a.linear_combination(t, b, 1.0 - t);
    form.add_constant(-sigma * norm_pdf(z));

    // Clark's exact second moment of min(a, b) = −max(−a, −b):
    //   E[min²] = (μa² + σa²)·t + (μb² + σb²)·(1−t) − (μa + μb)·σ·φ(z).
    let (mu_a, mu_b) = (a.mean(), b.mean());
    let (var_a, var_b) = (a.variance(), b.variance());
    let phi = norm_pdf(z);
    let e_min = mu_a * t + mu_b * (1.0 - t) - sigma * phi;
    let e_min2 =
        (mu_a * mu_a + var_a) * t + (mu_b * mu_b + var_b) * (1.0 - t) - (mu_a + mu_b) * sigma * phi;
    let var_exact = (e_min2 - e_min * e_min).max(0.0);
    let residual_std = (var_exact - form.variance()).max(0.0).sqrt();

    MinMaxResult {
        form,
        tightness: t,
        residual_std,
    }
}

/// In-place [`stat_min`]: overwrites `dest` with the blended form of
/// `min(a, b)` and returns the tightness probability `P(a < b)`.
///
/// Bitwise identical to `stat_min(a, b).form` — the same degenerate
/// snaps and the same `t·a + (1−t)·b` merge — but the destination's
/// term buffer is recycled and the residual second-moment bookkeeping
/// (which the DP merge never reads) is skipped. `dest` must be a
/// distinct form from both operands (the borrow checker enforces it).
pub fn stat_min_assign(dest: &mut CanonicalForm, a: &CanonicalForm, b: &CanonicalForm) -> f64 {
    let (dmu, dvar) = b.sub_stats(a);
    let sigma = dvar.sqrt();

    if sigma <= f64::EPSILON * (a.mean().abs() + b.mean().abs() + 1.0) {
        return if dmu > 0.0 {
            dest.copy_from(a);
            1.0
        } else if dmu < 0.0 {
            dest.copy_from(b);
            0.0
        } else {
            dest.copy_from(a);
            0.5
        };
    }

    let z = dmu / sigma;
    let t = norm_cdf(z);
    dest.lin_comb_into(a, t, b, 1.0 - t);
    dest.add_constant(-sigma * norm_pdf(z));
    t
}

/// Statistical maximum `max(a, b)`, derived from
/// `max(a, b) = −min(−a, −b)`.
///
/// The returned tightness is `P(a > b)`, i.e. the probability that the
/// first operand is the max.
#[must_use]
pub fn stat_max(a: &CanonicalForm, b: &CanonicalForm) -> MinMaxResult {
    let r = stat_min(&a.scaled(-1.0), &b.scaled(-1.0));
    MinMaxResult {
        form: r.form.scaled(-1.0),
        tightness: r.tightness,
        residual_std: r.residual_std,
    }
}

/// In-place [`stat_max`]: overwrites `dest` with the blended form of
/// `max(a, b)` and returns the tightness probability `P(a > b)`.
///
/// Bitwise identical to `stat_max(a, b).form` without the negated
/// operand copies or the residual bookkeeping. Negation is exact and
/// round-to-nearest is sign-symmetric, so the moments of `a − b` equal
/// those of `(−b) − (−a)`, and each blended coefficient
/// `t·aᵢ + (1−t)·bᵢ` is the exact negation of `t·(−aᵢ) + (1−t)·(−bᵢ)`
/// (an exact zero is dropped either way). The nominal is the exception:
/// `x + (−x)` rounds to `+0.0`, so an exactly-zero sum negated back
/// would come out `−0.0`. It replays the negate–min–negate sequence
/// literally. `dest` must be distinct from both operands.
#[allow(clippy::neg_multiply)] // `x * -1.0` is what `scaled(-1.0)` computes
pub fn stat_max_assign(dest: &mut CanonicalForm, a: &CanonicalForm, b: &CanonicalForm) -> f64 {
    let (dmu, dvar) = a.sub_stats(b);
    let sigma = dvar.sqrt();

    if sigma <= f64::EPSILON * (a.mean().abs() + b.mean().abs() + 1.0) {
        return if dmu > 0.0 {
            dest.copy_from(a);
            1.0
        } else if dmu < 0.0 {
            dest.copy_from(b);
            0.0
        } else {
            dest.copy_from(a);
            0.5
        };
    }

    let z = dmu / sigma;
    let t = norm_cdf(z); // P(a > b)
    dest.lin_comb_into(a, t, b, 1.0 - t);
    let mut nominal = t * (a.mean() * -1.0) + (1.0 - t) * (b.mean() * -1.0);
    nominal += -sigma * norm_pdf(z);
    dest.set_mean(nominal * -1.0);
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::canonical::SourceId;

    fn form(n: f64, terms: &[(u32, f64)]) -> CanonicalForm {
        CanonicalForm::with_terms(n, terms.iter().map(|&(i, a)| (SourceId(i), a)).collect())
    }

    #[test]
    fn min_of_identical_forms_is_itself() {
        let a = form(2.0, &[(0, 1.0)]);
        let r = stat_min(&a, &a);
        assert_eq!(r.form, a);
        assert_eq!(r.tightness, 0.5);
    }

    #[test]
    fn min_with_clear_winner() {
        let a = form(0.0, &[(0, 0.1)]);
        let b = form(100.0, &[(1, 0.1)]);
        let r = stat_min(&a, &b);
        assert!(r.tightness > 1.0 - 1e-12);
        assert!((r.form.mean() - 0.0).abs() < 1e-6);
        // Sensitivities are (almost) purely a's.
        assert!((r.form.coeff(SourceId(0)) - 0.1).abs() < 1e-9);
        assert!(r.form.coeff(SourceId(1)).abs() < 1e-9);
    }

    #[test]
    fn min_mean_below_both_means() {
        let a = form(3.0, &[(0, 1.0)]);
        let b = form(3.0, &[(1, 1.0)]);
        let r = stat_min(&a, &b);
        // E[min of two iid N(3,1)] = 3 − 1/√π ≈ 2.436 — here σ_diff = √2 so
        // correction = √2·φ(0) = √2/√(2π) = 1/√π.
        let expect = 3.0 - 1.0 / std::f64::consts::PI.sqrt();
        assert!((r.form.mean() - expect).abs() < 1e-9);
        assert!((r.tightness - 0.5).abs() < 1e-12);
        // Blended sensitivities: half of each.
        assert!((r.form.coeff(SourceId(0)) - 0.5).abs() < 1e-12);
        assert!((r.form.coeff(SourceId(1)) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn min_deterministic_difference() {
        // Same source, shifted mean: b − a is constant → pick smaller mean.
        let a = form(1.0, &[(0, 2.0)]);
        let b = form(4.0, &[(0, 2.0)]);
        let r = stat_min(&a, &b);
        assert_eq!(r.form, a);
        assert_eq!(r.tightness, 1.0);
        let r2 = stat_min(&b, &a);
        assert_eq!(r2.form, a);
        assert_eq!(r2.tightness, 0.0);
    }

    #[test]
    fn max_mirrors_min() {
        let a = form(3.0, &[(0, 1.0)]);
        let b = form(3.0, &[(1, 1.0)]);
        let mx = stat_max(&a, &b);
        let mn = stat_min(&a, &b);
        // E[max] + E[min] = μa + μb for jointly normal pairs.
        assert!((mx.form.mean() + mn.form.mean() - 6.0).abs() < 1e-9);
        assert!(mx.form.mean() > 3.0);
    }

    #[test]
    fn residual_variance_matches_monte_carlo() {
        use crate::mc::{sample_moments, MonteCarlo};
        // Two partially correlated forms: the linear blend understates
        // Var[min]; residual_std must close the gap against MC truth.
        let a = form(0.0, &[(0, 3.0), (2, 1.0)]);
        let b = form(0.5, &[(1, 2.5), (2, 1.0)]);
        let r = stat_min(&a, &b);
        let mut mc = MonteCarlo::new(5, vec![SourceId(0), SourceId(1), SourceId(2)]);
        let xs: Vec<f64> = (0..40_000)
            .map(|_| {
                let s = mc.draw();
                s.eval(&a).min(s.eval(&b))
            })
            .collect();
        let (mc_mean, mc_var) = sample_moments(&xs);
        assert!(
            (r.form.mean() - mc_mean).abs() < 0.05,
            "mean {} vs {}",
            r.form.mean(),
            mc_mean
        );
        let var_model = r.form.variance() + r.residual_std * r.residual_std;
        assert!(
            (var_model - mc_var).abs() / mc_var < 0.05,
            "exact var {} vs MC {}",
            var_model,
            mc_var
        );
        // The linear form alone must indeed understate the variance here.
        assert!(r.residual_std > 0.0);
    }

    #[test]
    fn stat_min_assign_matches_stat_min_bitwise() {
        let cases = [
            (form(3.0, &[(0, 1.0)]), form(5.0, &[(1, 1.0)])),
            (form(3.0, &[(0, 1.0)]), form(3.0, &[(1, 1.0)])),
            // Deterministic orderings (shared source, shifted means).
            (form(1.0, &[(0, 2.0)]), form(4.0, &[(0, 2.0)])),
            (form(4.0, &[(0, 2.0)]), form(1.0, &[(0, 2.0)])),
            (form(2.0, &[(0, 1.0)]), form(2.0, &[(0, 1.0)])),
        ];
        for (a, b) in &cases {
            let r = stat_min(a, b);
            let mut dest = form(99.0, &[(42, 7.0)]);
            let t = stat_min_assign(&mut dest, a, b);
            assert_eq!(t.to_bits(), r.tightness.to_bits());
            assert_eq!(dest.mean().to_bits(), r.form.mean().to_bits());
            assert_eq!(dest.term_count(), r.form.term_count());
            for (x, y) in dest.terms().zip(r.form.terms()) {
                assert_eq!(x.0, y.0);
                assert_eq!(x.1.to_bits(), y.1.to_bits());
            }
        }
    }

    #[test]
    fn stat_max_assign_matches_stat_max_bitwise() {
        // Equal means over disjoint unit terms: z = 0, t = ½, and a
        // nominal of −σ·φ(0) puts the max exactly on zero. stat_max's
        // negated path yields −0.0 there; a direct blend would give +0.0.
        let zero_max = -(2f64.sqrt() * norm_pdf(0.0));
        let cases = [
            // Disjoint terms, distinct means.
            (form(3.0, &[(0, 1.0)]), form(5.0, &[(1, 1.0)])),
            // Tie: equal means, t = ½.
            (form(3.0, &[(0, 1.0)]), form(3.0, &[(1, 1.0)])),
            // Deterministic orderings (shared source, shifted means), both ways.
            (form(1.0, &[(0, 2.0)]), form(4.0, &[(0, 2.0)])),
            (form(4.0, &[(0, 2.0)]), form(1.0, &[(0, 2.0)])),
            // Deterministic tie.
            (form(2.0, &[(0, 1.0)]), form(2.0, &[(0, 1.0)])),
            // Constants, alone and against a random form.
            (CanonicalForm::constant(2.0), CanonicalForm::constant(-1.0)),
            (CanonicalForm::constant(1.0), CanonicalForm::constant(1.0)),
            (form(0.0, &[(0, 1.0)]), CanonicalForm::constant(-5.0)),
            (CanonicalForm::constant(0.5), form(0.0, &[(3, 2.0)])),
            // Shared terms; the second pair's id 0 blends to an exact zero.
            (
                form(0.0, &[(0, 3.0), (2, 1.0)]),
                form(0.5, &[(1, 2.5), (2, 1.0)]),
            ),
            (
                form(3.0, &[(0, 1.0), (1, 1.0)]),
                form(3.0, &[(0, -1.0), (2, 1.0)]),
            ),
            (form(zero_max, &[(0, 1.0)]), form(zero_max, &[(1, 1.0)])),
        ];
        for (a, b) in &cases {
            let r = stat_max(a, b);
            let mut dest = form(99.0, &[(42, 7.0)]);
            let t = stat_max_assign(&mut dest, a, b);
            assert_eq!(t.to_bits(), r.tightness.to_bits(), "{a} vs {b}");
            assert_eq!(dest.mean().to_bits(), r.form.mean().to_bits(), "{a} vs {b}");
            assert_eq!(dest.term_count(), r.form.term_count(), "{a} vs {b}");
            for (x, y) in dest.terms().zip(r.form.terms()) {
                assert_eq!(x.0, y.0);
                assert_eq!(x.1.to_bits(), y.1.to_bits());
            }
        }
        let mut dest = CanonicalForm::default();
        let (a, b) = &cases[cases.len() - 1];
        stat_max_assign(&mut dest, a, b);
        assert_eq!(dest.mean().to_bits(), (-0.0f64).to_bits());
        let (a, b) = &cases[cases.len() - 2];
        stat_max_assign(&mut dest, a, b);
        assert_eq!(dest.coeff(SourceId(0)), 0.0);
        assert_eq!(dest.term_count(), 2);
    }

    #[test]
    fn min_against_constant() {
        let a = form(0.0, &[(0, 1.0)]);
        let c = CanonicalForm::constant(-5.0);
        let r = stat_min(&a, &c);
        // Constant −5 is 5σ below a's mean: it is essentially always the min.
        assert!(r.tightness < 1e-4);
        assert!((r.form.mean() + 5.0).abs() < 0.02);
    }
}
