//! Standard normal distribution primitives.
//!
//! Everything here is implemented from scratch (no external math crates).
//! The CDF uses Graeme West's double-precision algorithm (*Better
//! approximations to cumulative normal functions*, Wilmott 2005), which is
//! accurate to about `1e-15` over the whole real line including the deep
//! tails; `erf`/`erfc` are defined through it, and the quantile uses Peter
//! Acklam's rational approximation refined by one Halley step, giving near
//! machine precision on the full open interval `(0, 1)`.

use std::f64::consts::{PI, SQRT_2};

/// The standard normal probability density function `φ(x)`.
///
/// ```
/// let p = varbuf_stats::gaussian::norm_pdf(0.0);
/// assert!((p - 0.3989422804014327).abs() < 1e-15);
/// ```
#[inline]
#[must_use]
pub fn norm_pdf(x: f64) -> f64 {
    (-0.5 * x * x).exp() / (2.0 * PI).sqrt()
}

/// The standard normal cumulative distribution function `Φ(x)`.
///
/// Implemented with West's (2005) double-precision algorithm: a rational
/// polynomial for `|x| < 7.07` and a continued fraction for the far tail,
/// accurate to ~`1e-15` everywhere with correct tail behavior down to
/// `Φ(−37) ≈ 5.7e-300`.
///
/// ```
/// let c = varbuf_stats::gaussian::norm_cdf(0.0);
/// assert!((c - 0.5).abs() < 1e-15);
/// ```
#[must_use]
pub fn norm_cdf(x: f64) -> f64 {
    let xabs = x.abs();
    let cum = if xabs > 37.0 {
        0.0
    } else {
        let e = (-xabs * xabs / 2.0).exp();
        if xabs < 7.071_067_811_865_475 {
            let mut build = 3.526_249_659_989_11e-2 * xabs + 0.700_383_064_443_688;
            build = build * xabs + 6.373_962_203_531_65;
            build = build * xabs + 33.912_866_078_383;
            build = build * xabs + 112.079_291_497_871;
            build = build * xabs + 221.213_596_169_931;
            build = build * xabs + 220.206_867_912_376;
            let num = e * build;
            let mut den = 8.838_834_764_831_84e-2 * xabs + 1.755_667_163_182_64;
            den = den * xabs + 16.064_177_579_207;
            den = den * xabs + 86.780_732_202_946_1;
            den = den * xabs + 296.564_248_779_674;
            den = den * xabs + 637.333_633_378_831;
            den = den * xabs + 793.826_512_519_948;
            den = den * xabs + 440.413_735_824_752;
            num / den
        } else {
            let mut build = xabs + 0.65;
            build = xabs + 4.0 / build;
            build = xabs + 3.0 / build;
            build = xabs + 2.0 / build;
            build = xabs + 1.0 / build;
            e / build / 2.506_628_274_631_000_5
        }
    };
    if x > 0.0 {
        1.0 - cum
    } else {
        cum
    }
}

/// The error function `erf(x) = 2·Φ(x·√2) − 1`.
///
/// Inherits the ~`1e-15` accuracy of [`norm_cdf`] for moderate `x`; for
/// `x → ∞` where `erf → 1`, absolute accuracy is retained (use
/// [`erfc_precise`] when you need *relative* accuracy in the upper tail).
///
/// ```
/// let e = varbuf_stats::gaussian::erf(1.0);
/// assert!((e - 0.8427007929497149).abs() < 1e-12);
/// ```
#[inline]
#[must_use]
pub fn erf(x: f64) -> f64 {
    2.0 * norm_cdf(x * SQRT_2) - 1.0
}

/// The complementary error function `erfc(x) = 2·Φ(−x·√2)`, with good
/// *relative* accuracy in the positive tail (down to `x ≈ 26`).
///
/// ```
/// let e = varbuf_stats::gaussian::erfc_precise(10.0);
/// assert!(e > 0.0 && e < 1e-43);
/// ```
#[inline]
#[must_use]
pub fn erfc_precise(x: f64) -> f64 {
    2.0 * norm_cdf(-x * SQRT_2)
}

/// The inverse of the standard normal CDF (the quantile function),
/// `norm_quantile(Φ(x)) == x`.
///
/// Acklam's rational approximation refined with one step of Halley's
/// method against the high-accuracy [`norm_cdf`], giving ~`1e-14`
/// accuracy on `(0, 1)`.
///
/// # Panics
///
/// Panics if `p` is not strictly inside `(0, 1)`.
///
/// ```
/// let z = varbuf_stats::gaussian::norm_quantile(0.975);
/// assert!((z - 1.959963984540054).abs() < 1e-12);
/// ```
#[must_use]
pub fn norm_quantile(p: f64) -> f64 {
    assert!(
        p > 0.0 && p < 1.0,
        "norm_quantile requires p in (0, 1), got {p}"
    );

    // Acklam's coefficients.
    const A: [f64; 6] = [
        -3.969_683_028_665_376e1,
        2.209_460_984_245_205e2,
        -2.759_285_104_469_687e2,
        1.383_577_518_672_69e2,
        -3.066_479_806_614_716e1,
        2.506_628_277_459_239,
    ];
    const B: [f64; 5] = [
        -5.447_609_879_822_406e1,
        1.615_858_368_580_409e2,
        -1.556_989_798_598_866e2,
        6.680_131_188_771_972e1,
        -1.328_068_155_288_572e1,
    ];
    const C: [f64; 6] = [
        -7.784_894_002_430_293e-3,
        -3.223_964_580_411_365e-1,
        -2.400_758_277_161_838,
        -2.549_732_539_343_734,
        4.374_664_141_464_968,
        2.938_163_982_698_783,
    ];
    const D: [f64; 4] = [
        7.784_695_709_041_462e-3,
        3.224_671_290_700_398e-1,
        2.445_134_137_142_996,
        3.754_408_661_907_416,
    ];
    const P_LOW: f64 = 0.024_25;
    const P_HIGH: f64 = 1.0 - P_LOW;

    let x = if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= P_HIGH {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    };

    // One Halley refinement step using the high-accuracy CDF.
    let e = norm_cdf(x) - p;
    let u = e * (2.0 * PI).sqrt() * (x * x / 2.0).exp();
    x - u / (1.0 + x * u / 2.0)
}

/// Closed-form `P(T1 > T2)` for two jointly normal random variables
/// (eq. (8)–(9) of the paper).
///
/// `rho` is the correlation coefficient between `T1` and `T2`. If the
/// difference `T1 - T2` is (numerically) deterministic, the result snaps to
/// `0`, `0.5`, or `1` based on the sign of the mean difference.
///
/// ```
/// // Equal means: a coin flip regardless of variances.
/// let p = varbuf_stats::gaussian::prob_greater_normal(3.0, 3.0, 1.0, 2.0, 0.3);
/// assert!((p - 0.5).abs() < 1e-12);
/// ```
#[must_use]
pub fn prob_greater_normal(mu1: f64, mu2: f64, sigma1: f64, sigma2: f64, rho: f64) -> f64 {
    let var = sigma1 * sigma1 - 2.0 * rho * sigma1 * sigma2 + sigma2 * sigma2;
    let sigma_diff = var.max(0.0).sqrt();
    let dmu = mu1 - mu2;
    if sigma_diff <= f64::EPSILON * (mu1.abs() + mu2.abs() + 1.0) {
        // Deterministic difference.
        return if dmu > 0.0 {
            1.0
        } else if dmu < 0.0 {
            0.0
        } else {
            0.5
        };
    }
    norm_cdf(dmu / sigma_diff)
}

/// `P(X >= x)` for `X ~ N(mean, sigma²)`; a deterministic `X`
/// (`sigma == 0`) gives `1` or `0`.
///
/// ```
/// let p = varbuf_stats::gaussian::prob_at_least_normal(10.0, 2.0, 10.0);
/// assert!((p - 0.5).abs() < 1e-15);
/// assert_eq!(varbuf_stats::gaussian::prob_at_least_normal(1.0, 0.0, 1.0), 1.0);
/// ```
#[must_use]
pub fn prob_at_least_normal(mean: f64, sigma: f64, x: f64) -> f64 {
    if sigma == 0.0 {
        return if mean >= x { 1.0 } else { 0.0 };
    }
    norm_cdf((mean - x) / sigma)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pdf_symmetry_and_peak() {
        assert!((norm_pdf(0.0) - 1.0 / (2.0 * PI).sqrt()).abs() < 1e-15);
        assert!((norm_pdf(1.3) - norm_pdf(-1.3)).abs() < 1e-15);
        assert!(norm_pdf(5.0) < norm_pdf(0.0));
    }

    #[test]
    fn erf_known_values() {
        assert!(erf(0.0).abs() < 1e-15);
        assert!((erf(1.0) - 0.842_700_792_949_714_9).abs() < 1e-12);
        assert!((erf(2.0) - 0.995_322_265_018_952_7).abs() < 1e-12);
        assert!((erf(-1.0) + erf(1.0)).abs() < 1e-15);
    }

    #[test]
    fn erfc_tail_accuracy() {
        // erfc(3) = 2.209e-5 with relative accuracy.
        let e = erfc_precise(3.0);
        assert!((e - 2.209_049_699_858_544e-5).abs() / e < 1e-10);
        // Deep tail keeps a nonzero, decreasing value.
        assert!(erfc_precise(10.0) > 0.0);
        assert!(erfc_precise(10.0) < erfc_precise(9.0));
        // Negative side reflects.
        assert!((erfc_precise(-1.0) - (2.0 - erfc_precise(1.0))).abs() < 1e-14);
    }

    #[test]
    fn cdf_known_values() {
        assert!((norm_cdf(0.0) - 0.5).abs() < 1e-15);
        assert!((norm_cdf(1.0) - 0.841_344_746_068_542_9).abs() < 1e-13);
        assert!((norm_cdf(-1.0) - 0.158_655_253_931_457_07).abs() < 1e-13);
        assert!((norm_cdf(1.959_963_984_540_054) - 0.975).abs() < 1e-13);
        assert!((norm_cdf(-3.0) - 1.349_898_031_630_094_6e-3).abs() < 1e-15);
        // Deep tails stay monotone and bounded.
        assert!(norm_cdf(-10.0) > 0.0);
        assert!(norm_cdf(10.0) <= 1.0);
        assert!(norm_cdf(-10.0) < 1e-20);
        assert_eq!(norm_cdf(-40.0), 0.0);
        assert_eq!(norm_cdf(40.0), 1.0);
    }

    #[test]
    fn cdf_is_monotone() {
        let mut prev = -1.0;
        let mut x = -8.0;
        while x <= 8.0 {
            let c = norm_cdf(x);
            assert!(c >= prev, "CDF not monotone at x={x}");
            prev = c;
            x += 0.01;
        }
    }

    #[test]
    fn cdf_complement_symmetry() {
        for &x in &[0.1, 0.7, 1.5, 3.3, 6.0] {
            assert!(
                (norm_cdf(x) + norm_cdf(-x) - 1.0).abs() < 1e-14,
                "symmetry failed at {x}"
            );
        }
    }

    #[test]
    fn quantile_roundtrip() {
        for &p in &[
            1e-10,
            1e-4,
            0.01,
            0.05,
            0.3,
            0.5,
            0.77,
            0.95,
            0.99,
            1.0 - 1e-8,
        ] {
            let x = norm_quantile(p);
            let back = norm_cdf(x);
            assert!(
                (back - p).abs() < 1e-9 * (p.min(1.0 - p)).max(1e-11),
                "roundtrip failed for p={p}: x={x}, back={back}"
            );
        }
    }

    #[test]
    fn quantile_known_values() {
        assert!(norm_quantile(0.5).abs() < 1e-12);
        assert!((norm_quantile(0.975) - 1.959_963_984_540_054).abs() < 1e-12);
        assert!((norm_quantile(0.05) + 1.644_853_626_951_472_4).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "norm_quantile requires p in (0, 1)")]
    fn quantile_rejects_zero() {
        let _ = norm_quantile(0.0);
    }

    #[test]
    fn prob_greater_basics() {
        // Much larger mean dominates.
        assert!(prob_greater_normal(100.0, 0.0, 1.0, 1.0, 0.0) > 1.0 - 1e-12);
        // Symmetric case.
        let p = prob_greater_normal(1.0, 0.0, 1.0, 1.0, 0.0);
        let q = prob_greater_normal(0.0, 1.0, 1.0, 1.0, 0.0);
        assert!((p + q - 1.0).abs() < 1e-12);
        // Perfect correlation with equal sigma is deterministic.
        assert!((prob_greater_normal(2.0, 1.0, 1.0, 1.0, 1.0) - 1.0).abs() < 1e-12);
        assert!(prob_greater_normal(1.0, 2.0, 1.0, 1.0, 1.0).abs() < 1e-12);
    }

    #[test]
    fn prob_greater_correlation_sharpens() {
        // Figure 2 of the paper: for a fixed positive mean difference the
        // probability rises with correlation (sigma of the difference falls).
        let lo = prob_greater_normal(1.0, 0.0, 1.0, 1.0, 0.0);
        let mid = prob_greater_normal(1.0, 0.0, 1.0, 1.0, 0.5);
        let hi = prob_greater_normal(1.0, 0.0, 1.0, 1.0, 0.9);
        assert!(lo < mid && mid < hi, "{lo} {mid} {hi}");
    }
}
