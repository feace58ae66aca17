//! Pinning suite for the run-chunked sparse kernels of
//! [`CanonicalForm`] (`lin_comb_into`, `add_scaled_assign`,
//! `sub_stats`): each must reproduce an independent naive sorted-merge
//! reference bit for bit, including the degenerate run shapes that
//! stress the gallop: empty exclusive runs, single-term forms, fully
//! interleaved source ownership, and exact zero cancellations.
//!
//! The same references check forms whose region terms sit in a dense
//! window over a [`Grid`]: random windows with holes, windows on the grid
//! edge, disjoint, overlapping and nested windows, gridless operands that
//! land on the grid, exact cancellations, underflow and non-finite
//! poison.
//!
//! Cases come from the in-tree [`SplitMix64`] generator, so the suite is
//! hermetic and reproducible offline.

use varbuf_stats::canonical::{CanonicalForm, Grid, SourceId};
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

// ---------------------------------------------------------------------
// Region windows: the same references, fed forms whose region terms sit
// in a dense window over a grid.
// ---------------------------------------------------------------------

/// A 7 × 5 grid of ids 3..=37: ids 0..=2 fall below it and 38.. above.
fn small_grid() -> Grid {
    Grid::new(SourceId(3), 7, 5)
}

/// Cell `(row, col)` of [`small_grid`] as a plain id.
fn cell(row: usize, col: usize) -> u32 {
    small_grid().id(row, col).0
}

/// A windowed form: tail terms below and above the grid, and a `width`
/// × `height` window at `(row, col)` whose cells are holes with
/// probability ~0.3.
fn random_windowed(
    rng: &mut SplitMix64,
    (row, col, width, height): (usize, usize, usize, usize),
) -> CanonicalForm {
    let mut form = CanonicalForm::constant(rng.uniform(-10.0, 10.0));
    for id in 0..3 {
        if rng.below(2) == 0 {
            form.push_term(SourceId(id), rng.uniform(-4.0, 4.0));
        }
    }
    let cells: Vec<f64> = (0..width * height)
        .map(|_| {
            if rng.below(10) < 3 {
                0.0
            } else {
                rng.uniform(-4.0, 4.0)
            }
        })
        .collect();
    form.set_regions(small_grid(), row, col, width, &cells, 1.0);
    for id in 38..42 {
        if rng.below(2) == 0 {
            form.push_term(SourceId(id), rng.uniform(-4.0, 4.0));
        }
    }
    form
}

/// A random window inside the 7 × 5 grid, touching its edges often.
fn random_rect(rng: &mut SplitMix64) -> (usize, usize, usize, usize) {
    let (row, col) = (rng.below(5), rng.below(7));
    (row, col, 1 + rng.below(7 - col), 1 + rng.below(5 - row))
}

/// The same values with every term in the sparse tail.
fn sparse_copy(f: &CanonicalForm) -> CanonicalForm {
    CanonicalForm::with_terms(f.mean(), f.terms().collect())
}

/// Naive covariance: shared ids in ascending order from `0.0`.
fn naive_covariance(a: &CanonicalForm, b: &CanonicalForm) -> f64 {
    let mut cov = 0.0;
    for (id, x) in a.terms() {
        if let Some((_, y)) = b.terms().find(|&(j, _)| j == id) {
            cov += x * y;
        }
    }
    cov
}

/// Every kernel on `(a, b)` against its naive reference, bit for bit.
fn check_pair(label: &str, a: &CanonicalForm, b: &CanonicalForm, c: &CanonicalForm) {
    for &(k1, k2) in &[(1.0, 1.0), (1.0, -1.0), (0.3, -2.7), (0.0, 1.0), (1.0, 0.0)] {
        let want = naive_lin_comb(a, k1, b, k2);
        let mut got = CanonicalForm::constant(7.0);
        got.lin_comb_into(a, k1, b, k2);
        assert_forms_bitwise(&format!("{label}/lin k({k1},{k2})"), &got, &want);

        let mut asa = a.clone();
        asa.add_scaled_assign(b, k2);
        assert_forms_bitwise(
            &format!("{label}/asa k{k2}"),
            &asa,
            &naive_lin_comb(a, 1.0, b, k2),
        );

        let mut fused = CanonicalForm::constant(-3.0);
        fused.lin_comb_sub_into(a, k1, b, k2, c);
        assert_forms_bitwise(
            &format!("{label}/fused k({k1},{k2})"),
            &fused,
            &naive_lin_comb(&want, 1.0, c, -1.0),
        );
    }
    let diff = naive_lin_comb(a, 1.0, b, -1.0);
    let (dmu, dvar) = a.sub_stats(b);
    assert_eq!(dmu.to_bits(), diff.mean().to_bits(), "{label}: dmu");
    assert_eq!(
        dvar.to_bits(),
        sparse_copy(&diff).variance().to_bits(),
        "{label}: dvar"
    );
    assert_eq!(
        a.variance().to_bits(),
        sparse_copy(a).variance().to_bits(),
        "{label}: variance"
    );
    assert_eq!(
        a.covariance(b).to_bits(),
        naive_covariance(a, b).to_bits(),
        "{label}: covariance"
    );
}

#[test]
fn windowed_kernels_match_naive_reference() {
    for &seed in &SEEDS {
        let mut rng = SplitMix64::new(seed);
        for case in 0..96 {
            let rect = random_rect(&mut rng);
            let a = random_windowed(&mut rng, rect);
            let rect = random_rect(&mut rng);
            let b = random_windowed(&mut rng, rect);
            let rect = random_rect(&mut rng);
            let c = random_windowed(&mut rng, rect);
            check_pair(&format!("seed{seed:x}/case{case}"), &a, &b, &c);
        }
    }
}

#[test]
fn windowed_kernels_handle_window_geometry() {
    let mut rng = SplitMix64::new(0x51DE);
    let shapes = [
        ("disjoint", (0, 0, 2, 2), (3, 4, 3, 2)),
        ("overlapping", (1, 1, 4, 3), (2, 3, 4, 3)),
        ("nested", (0, 0, 7, 5), (2, 2, 2, 1)),
        ("nested-inner-first", (2, 2, 2, 1), (0, 0, 7, 5)),
        ("same-rect", (1, 2, 3, 3), (1, 2, 3, 3)),
        ("edge-row", (4, 0, 7, 1), (0, 6, 1, 5)),
        ("corners", (0, 0, 1, 1), (4, 6, 1, 1)),
    ];
    for (label, ra, rb) in shapes {
        let a = random_windowed(&mut rng, ra);
        let b = random_windowed(&mut rng, rb);
        let c = random_windowed(&mut rng, (0, 3, 2, 4));
        check_pair(label, &a, &b, &c);
        check_pair(&format!("{label}/swapped"), &b, &a, &c);
    }
}

#[test]
fn windowed_kernels_mix_with_gridless_forms() {
    let mut rng = SplitMix64::new(0xB1E5);
    let a = random_windowed(&mut rng, (1, 1, 5, 3));
    // Gridless operands: one off the grid (the global and device
    // shape), one whose ids land inside `a`'s window and one outside it
    // but on the grid.
    let off_grid = CanonicalForm::with_terms(2.0, vec![(SourceId(0), 1.5), (SourceId(40), -0.5)]);
    let inside = CanonicalForm::with_terms(
        -1.0,
        vec![
            (SourceId(1), 0.25),
            (SourceId(cell(2, 2)), -3.0),
            (SourceId(cell(3, 4)), 1.0),
        ],
    );
    let outside = CanonicalForm::with_terms(0.5, vec![(SourceId(cell(0, 6)), 2.0)]);
    for (label, other) in [
        ("off-grid", &off_grid),
        ("inside", &inside),
        ("outside", &outside),
    ] {
        check_pair(&format!("{label}/right"), &a, other, &inside);
        check_pair(&format!("{label}/left"), other, &a, &a);
    }
    // Two grids that disagree combine as sparse copies.
    let mut other_grid = CanonicalForm::constant(1.0);
    other_grid.set_regions(Grid::new(SourceId(5), 3, 3), 0, 0, 3, &[1.0; 9], 0.5);
    check_pair("other-grid", &a, &other_grid, &off_grid);
}

#[test]
fn windowed_kernels_handle_cancellation_zeros_and_poison() {
    let grid = small_grid();
    let windowed = |tail: &[(u32, f64)], row, col, width, cells: &[f64]| {
        let mut f = CanonicalForm::constant(1.0);
        for &(id, c) in tail.iter().filter(|&&(id, _)| id < 3) {
            f.push_term(SourceId(id), c);
        }
        f.set_regions(grid, row, col, width, cells, 1.0);
        for &(id, c) in tail.iter().filter(|&&(id, _)| id >= 38) {
            f.push_term(SourceId(id), c);
        }
        f
    };
    let a = windowed(
        &[(0, 1.5), (40, 2.0)],
        1,
        1,
        3,
        &[1.5, -0.75, 0.0, 2.0, 5e-324, 1.0],
    );
    // 0.5·1.5 cancels −0.75 exactly, and 0.5 · 5e-324 underflows.
    let b = windowed(&[(0, 3.0)], 1, 2, 2, &[1.5, 4.0, 5e-324, 0.0]);
    let c = windowed(&[], 2, 0, 2, &[1.0, -1.0]);
    check_pair("cancel", &a, &b, &c);
    let mut got = a.clone();
    got.add_scaled_assign(&b, 0.5);
    assert_eq!(
        got.coeff(SourceId(cell(1, 2))),
        0.0,
        "the crafted cancel happened"
    );
    // Exact cancellation of everything: the difference of a form with
    // itself has no terms, and its variance is −0.0.
    let (dmu, dvar) = a.sub_stats(&a);
    assert_eq!(
        (dmu.to_bits(), dvar.to_bits()),
        (0.0f64.to_bits(), (-0.0f64).to_bits())
    );
    let zero = a.sub(&a);
    assert_eq!(zero.term_count(), 0);
    assert_eq!(zero.variance().to_bits(), (-0.0f64).to_bits());
    assert_eq!(
        CanonicalForm::constant(2.0).variance().to_bits(),
        (-0.0f64).to_bits()
    );
    // Non-finite coefficients and scalars (the fault injector's poison
    // shapes): a hole never meets the poison.
    let nan = windowed(
        &[(0, f64::NAN)],
        0,
        0,
        2,
        &[f64::INFINITY, 0.0, f64::NAN, 1.0],
    );
    check_pair("poison", &a, &nan, &b);
    check_pair("poison-left", &nan, &a, &b);
    for k in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
        let want = naive_lin_comb(&a, 1.0, &b, k);
        let mut got = CanonicalForm::default();
        got.lin_comb_into(&a, 1.0, &b, k);
        assert_forms_bitwise(&format!("scalar {k}"), &got, &want);
        let mut asa = a.clone();
        asa.add_scaled_assign(&b, k);
        assert_forms_bitwise(&format!("asa scalar {k}"), &asa, &want);
    }
}

#[test]
fn windowed_forms_keep_the_accessor_contract() {
    let mut rng = SplitMix64::new(0xACC);
    for _ in 0..64 {
        let rect = random_rect(&mut rng);
        let f = random_windowed(&mut rng, rect);
        let sparse = sparse_copy(&f);
        assert_eq!(f.term_count(), f.terms().count());
        assert_eq!(f.term_count(), sparse.term_count());
        let ids: Vec<SourceId> = f.terms().map(|(id, _)| id).collect();
        assert!(ids.windows(2).all(|w| w[0] < w[1]), "ascending ids");
        assert!(f.terms().all(|(_, c)| c != 0.0), "no zero term");
        for id in 0..44 {
            assert_eq!(
                f.coeff(SourceId(id)).to_bits(),
                sparse.coeff(SourceId(id)).to_bits(),
                "coeff of X{id}"
            );
        }
        // Equal by value, whatever the layout or window extent.
        assert_eq!(f, sparse);
        assert_eq!(sparse, f);
        let mut wider = f.clone();
        wider.add_scaled_assign(&random_windowed(&mut rng, (0, 0, 7, 5)), 0.0);
        assert_eq!(wider, f, "a zero-scaled operand leaves the value");
        let mut moved = f.clone();
        moved.add_constant(1.0);
        assert_ne!(moved, f);
        let second = f.terms().nth(1);
        if let Some((id, c)) = second {
            let bumped = f.add(&CanonicalForm::with_terms(0.0, vec![(id, c)]));
            assert_ne!(bumped, f);
        }
    }
}
