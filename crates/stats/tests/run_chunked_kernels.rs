//! Pinning suite for the run-chunked sparse kernels of
//! [`CanonicalForm`] (`lin_comb_into`, `add_scaled_assign`,
//! `sub_stats`): each must reproduce an independent naive sorted-merge
//! reference bit for bit, including the degenerate run shapes that
//! stress the gallop: empty exclusive runs, single-term forms, fully
//! interleaved source ownership, and exact zero cancellations.
//!
//! Cases come from the in-tree [`SplitMix64`] generator, so the suite is
//! hermetic and reproducible offline.

use varbuf_stats::canonical::{CanonicalForm, SourceId};
use varbuf_stats::rng::SplitMix64;

const SEEDS: [u64; 3] = [0x9E37_79B9, 0x85EB_CA6B, 0xC2B2_AE35];

fn random_form(rng: &mut SplitMix64, width: u32, max_terms: usize) -> CanonicalForm {
    let n = rng.below(max_terms + 1);
    let terms = (0..n)
        .map(|_| {
            (
                SourceId(rng.below(width as usize) as u32),
                rng.uniform(-4.0, 4.0),
            )
        })
        .collect();
    CanonicalForm::with_terms(rng.uniform(-10.0, 10.0), terms)
}

/// Naive sorted-merge reference for `k1·a + k2·b`: the textbook two-
/// pointer walk with per-branch expressions spelled out — exactly the
/// grouping the run-chunked kernel documents (`k·c` on exclusive runs,
/// `k1·ca + k2·cb` on shared ids, exact zeros dropped).
fn naive_lin_comb(a: &CanonicalForm, k1: f64, b: &CanonicalForm, k2: f64) -> CanonicalForm {
    let ta: Vec<(SourceId, f64)> = a.terms().collect();
    let tb: Vec<(SourceId, f64)> = b.terms().collect();
    let (mut i, mut j) = (0, 0);
    let mut out = Vec::new();
    while i < ta.len() || j < tb.len() {
        let c = if j >= tb.len() || (i < ta.len() && ta[i].0 < tb[j].0) {
            let v = (ta[i].0, k1 * ta[i].1);
            i += 1;
            v
        } else if i >= ta.len() || tb[j].0 < ta[i].0 {
            let v = (tb[j].0, k2 * tb[j].1);
            j += 1;
            v
        } else {
            let v = (ta[i].0, k1 * ta[i].1 + k2 * tb[j].1);
            i += 1;
            j += 1;
            v
        };
        if c.1 != 0.0 {
            out.push(c);
        }
    }
    CanonicalForm::with_terms(k1 * a.mean() + k2 * b.mean(), out)
}

fn assert_forms_bitwise(label: &str, got: &CanonicalForm, want: &CanonicalForm) {
    assert_eq!(
        got.mean().to_bits(),
        want.mean().to_bits(),
        "{label}: mean bits"
    );
    assert_eq!(got.term_count(), want.term_count(), "{label}: term count");
    for ((gi, gc), (wi, wc)) in got.terms().zip(want.terms()) {
        assert_eq!(gi, wi, "{label}: term id");
        assert_eq!(gc.to_bits(), wc.to_bits(), "{label}: term coefficient");
    }
}

#[test]
fn run_chunked_lin_comb_matches_naive_reference() {
    // Random shapes across seeds, plus the structured worst cases.
    for &seed in &SEEDS {
        let mut rng = SplitMix64::new(seed);
        for case in 0..128 {
            let a = random_form(&mut rng, 24, 12);
            let b = random_form(&mut rng, 24, 12);
            let k1 = rng.uniform(-3.0, 3.0);
            let k2 = rng.uniform(-3.0, 3.0);
            let want = naive_lin_comb(&a, k1, &b, k2);
            let mut got = CanonicalForm::constant(0.0);
            got.lin_comb_into(&a, k1, &b, k2);
            assert_forms_bitwise(&format!("seed{seed:x}/case{case}"), &got, &want);
        }
    }
}

#[test]
fn run_chunked_kernels_handle_degenerate_run_shapes() {
    let shared = |ids: &[u32], coeff: f64| -> CanonicalForm {
        CanonicalForm::with_terms(1.0, ids.iter().map(|&i| (SourceId(i), coeff)).collect())
    };
    // (label, a, b) covering: empty exclusive runs (identical id sets),
    // single-term forms, fully interleaved ownership (every run has
    // length one), one-sided emptiness, and subset containment.
    let cases = [
        (
            "identical-sets",
            shared(&[1, 2, 3, 4], 0.5),
            shared(&[1, 2, 3, 4], -0.25),
        ),
        ("single-term", shared(&[7], 2.0), shared(&[7], 3.0)),
        ("single-disjoint", shared(&[3], 2.0), shared(&[9], 3.0)),
        (
            "interleaved",
            shared(&[0, 2, 4, 6, 8], 1.0),
            shared(&[1, 3, 5, 7, 9], -1.0),
        ),
        (
            "empty-left",
            CanonicalForm::constant(4.0),
            shared(&[2, 5], 1.5),
        ),
        (
            "empty-right",
            shared(&[2, 5], 1.5),
            CanonicalForm::constant(-4.0),
        ),
        (
            "both-empty",
            CanonicalForm::constant(1.0),
            CanonicalForm::constant(2.0),
        ),
        (
            "subset",
            shared(&[1, 2, 3, 4, 5, 6], 1.0),
            shared(&[2, 4], 0.5),
        ),
    ];
    for (label, a, b) in &cases {
        for &(k1, k2) in &[(1.0, 1.0), (1.0, -1.0), (0.5, -2.0), (0.0, 1.0), (1.0, 0.0)] {
            let want = naive_lin_comb(a, k1, b, k2);
            let mut got = CanonicalForm::constant(0.0);
            got.lin_comb_into(a, k1, b, k2);
            assert_forms_bitwise(&format!("{label}/k({k1},{k2})"), &got, &want);

            // add_scaled_assign documents bit-equality with
            // `linear_combination(1.0, ·, k)` — including the exact-
            // cancellation fallback these shapes trigger.
            let want_asa = naive_lin_comb(a, 1.0, b, k2);
            let mut got_asa = a.clone();
            got_asa.add_scaled_assign(b, k2);
            assert_forms_bitwise(&format!("{label}/asa k{k2}"), &got_asa, &want_asa);

            // sub_stats mirrors the materialized difference's moments.
            let diff = naive_lin_comb(a, 1.0, b, -1.0);
            let (dmu, dvar) = a.sub_stats(b);
            assert_eq!(
                dmu.to_bits(),
                (a.mean() - b.mean()).to_bits(),
                "{label}: dmu"
            );
            assert_eq!(dvar.to_bits(), diff.variance().to_bits(), "{label}: dvar");
        }
    }
}

#[test]
fn exact_cancellation_falls_back_identically() {
    // Crafted so `a + k·b` zeroes an interior coefficient exactly:
    // the in-place kernel must take its fallback and still match the
    // naive reference bit for bit (the canonical invariant forbids
    // stored zeros).
    let a = CanonicalForm::with_terms(
        2.0,
        vec![(SourceId(1), 1.5), (SourceId(3), -0.75), (SourceId(5), 2.0)],
    );
    let b = CanonicalForm::with_terms(-1.0, vec![(SourceId(3), 1.5), (SourceId(4), 1.0)]);
    let k = 0.5; // 0.5·1.5 cancels −0.75 exactly
    let want = naive_lin_comb(&a, 1.0, &b, k);
    assert_eq!(want.coeff(SourceId(3)), 0.0, "the crafted cancel happened");
    let mut got = a.clone();
    got.add_scaled_assign(&b, k);
    assert_forms_bitwise("cancel", &got, &want);

    // A zero scale multiplying a fresh (insert-position) source also
    // hits the cancel guard: `k·cb == 0.0` must not insert a zero term.
    let mut gz = a.clone();
    gz.add_scaled_assign(&b, 0.0);
    assert_forms_bitwise("zero-scale", &gz, &naive_lin_comb(&a, 1.0, &b, 0.0));
}
