//! The variation-aware key operations of Section 4.2.
//!
//! Three operations drive the dynamic program, each mapping canonical-form
//! solutions to canonical-form solutions:
//!
//! * **wire extension** (eqs. (33)–(34)): adding a wire of length `l`
//!   above a solution;
//! * **buffer extension** (eqs. (35)–(36)): inserting a buffer whose
//!   `C_b`/`T_b` are themselves canonical forms;
//! * **branch merge** (eqs. (37)–(38)): summing loads and taking the
//!   statistical minimum of the RATs via tightness probabilities.

use crate::solution::{DetSolution, StatFields, StatSolution};
use crate::trace::Trace;
use varbuf_rctree::wire::WireSegment;
use varbuf_rctree::NodeId;
use varbuf_stats::clark::stat_min_assign;
use varbuf_stats::CanonicalForm;
use varbuf_variation::BufferTypeId;

/// Wire extension, statistical (eqs. (33)–(34)):
/// `L' = L + c·l`, `T' = T − r·l·L − ½·r·c·l²`.
#[must_use]
pub fn wire_extend_stat(sol: &StatSolution, seg: &WireSegment) -> StatSolution {
    let load = sol.load.plus_constant(seg.capacitance);
    // T' couples the load's sensitivities into the RAT: −r·l · L.
    let mut rat = sol.rat.linear_combination(1.0, &sol.load, -seg.resistance);
    rat.add_constant(-0.5 * seg.resistance * seg.capacitance);
    StatFields {
        load,
        rat,
        // A pending deferral survives an eager extension unchanged: this
        // segment's coupling used the (wire-invariant) load terms, so the
        // deficit `−p·load_terms` still describes exactly what `rat` owes.
        wire_pending: sol.wire_pending,
        trace: sol.trace.clone(),
    }
    .into()
}

/// In-place [`wire_extend_stat`]: writes the extended solution into a
/// recycled `dest` (which must be distinct from `sol`), reusing its term
/// buffers. Bitwise identical to the allocating version.
pub fn wire_extend_stat_into(dest: &mut StatSolution, sol: &StatSolution, seg: &WireSegment) {
    dest.load.copy_from(&sol.load);
    dest.load.add_constant(seg.capacitance);
    // T' couples the load's sensitivities into the RAT: −r·l · L.
    dest.rat
        .lin_comb_into(&sol.rat, 1.0, &sol.load, -seg.resistance);
    dest.rat
        .add_constant(-0.5 * seg.resistance * seg.capacitance);
    dest.wire_pending = sol.wire_pending;
    dest.trace = sol.trace.clone();
}

/// Lazy wire extension, statistical: folds the segment's effect on the
/// *means* in immediately — bit-for-bit the same two nominal adds the
/// eager kernel performs — and defers the O(terms) coupling
/// `rat ← rat − r·load` (terms only) by accumulating `r` into
/// [`StatFields::wire_pending`]. Load terms are invariant under wire
/// extension, so the deferred chain collapses exactly to one
/// `−(Σrᵢ)·load` term update at materialization.
pub fn wire_defer_stat_in_place(sol: &mut StatSolution, seg: &WireSegment) {
    let sol: &mut StatFields = sol;
    // Same fadd sequence as `wire_extend_stat_in_place`'s nominal path:
    // `+= −r·L̄` (add_scaled_assign's nominal update), then `−½·r·c·l²`.
    sol.rat.add_constant(-seg.resistance * sol.load.mean());
    sol.rat
        .add_constant(-0.5 * seg.resistance * seg.capacitance);
    sol.load.add_constant(seg.capacitance);
    sol.wire_pending += seg.resistance;
}

/// Copying [`wire_defer_stat_in_place`] for the multi-width lift: writes
/// the lazily-extended solution into a recycled `dest` (distinct from
/// `sol`). Means match the eager kernel bit-for-bit; the term coupling is
/// carried forward in `dest.wire_pending`.
pub fn wire_defer_stat_into(dest: &mut StatSolution, sol: &StatSolution, seg: &WireSegment) {
    dest.load.copy_from(&sol.load);
    dest.load.add_constant(seg.capacitance);
    dest.rat.copy_from(&sol.rat);
    dest.rat.add_constant(-seg.resistance * sol.load.mean());
    dest.rat
        .add_constant(-0.5 * seg.resistance * seg.capacitance);
    dest.wire_pending = sol.wire_pending + seg.resistance;
    dest.trace = sol.trace.clone();
}

/// Pays off a solution's deferred wire coupling: one
/// `rat ← rat − p·load` over the *terms* alone (the means were kept
/// current eagerly), clearing [`StatFields::wire_pending`]. For a
/// unit-length chain (`p` the single segment's `r·l`) the term update is
/// the exact walk `wire_extend_stat_in_place` would have run, so the
/// result is bit-identical to the eager kernel; longer chains reassociate
/// the coefficient sum only.
pub fn materialize_wire_stat(sol: &mut StatSolution) {
    let sol: &mut StatFields = sol;
    if sol.wire_pending != 0.0 {
        let p = sol.wire_pending;
        sol.rat.add_scaled_terms_assign(&sol.load, -p);
        sol.wire_pending = 0.0;
    }
}

/// [`wire_extend_stat`] mutating the solution itself — for the
/// single-width lift, where the child list is consumed and each
/// solution can be extended where it sits instead of copied. Bitwise
/// identical to the copying versions: the RAT update is
/// [`CanonicalForm::add_scaled_assign`] (documented bit-equal to the
/// `linear_combination` the copying kernel runs) against the load
/// *before* its constant shift, the same operand order both kernels
/// use. The trace is untouched — the same `Arc` the copying path
/// clones.
pub fn wire_extend_stat_in_place(sol: &mut StatSolution, seg: &WireSegment) {
    let sol: &mut StatFields = sol;
    sol.rat.add_scaled_assign(&sol.load, -seg.resistance);
    sol.rat
        .add_constant(-0.5 * seg.resistance * seg.capacitance);
    sol.load.add_constant(seg.capacitance);
}

/// Wire extension, deterministic (eqs. (25)–(26)).
#[must_use]
pub fn wire_extend_det(sol: &DetSolution, seg: &WireSegment) -> DetSolution {
    DetSolution {
        load: sol.load + seg.capacitance,
        rat: sol.rat - seg.resistance * (sol.load + seg.capacitance / 2.0),
        trace: sol.trace.clone(),
    }
}

/// Buffer extension, statistical (eqs. (35)–(36)):
/// `L' = C_b`, `T' = T − T_b − R_b·L` with `C_b`/`T_b` canonical forms.
#[must_use]
pub fn buffer_extend_stat(
    sol: &StatSolution,
    cap_form: &CanonicalForm,
    delay_form: &CanonicalForm,
    resistance: f64,
    node: NodeId,
    ty: BufferTypeId,
) -> StatSolution {
    debug_assert_eq!(
        sol.wire_pending, 0.0,
        "buffer extension reads the RAT's terms; materialize first"
    );
    let rat = sol
        .rat
        .linear_combination(1.0, &sol.load, -resistance)
        .sub(delay_form);
    StatFields {
        load: cap_form.clone(),
        rat,
        wire_pending: 0.0,
        trace: Trace::buffer(node, ty, sol.trace.clone()),
    }
    .into()
}

/// In-place [`buffer_extend_stat`]: writes into a recycled `dest`
/// (distinct from `sol`), fusing the `−R·L` coupling and the `−T_b`
/// subtraction into one merge walk. Bitwise identical to the allocating
/// two-pass version (pinned by `lin_comb_sub_into`'s own tests).
pub fn buffer_extend_stat_into(
    dest: &mut StatSolution,
    sol: &StatSolution,
    cap_form: &CanonicalForm,
    delay_form: &CanonicalForm,
    resistance: f64,
    node: NodeId,
    ty: BufferTypeId,
) {
    debug_assert_eq!(
        sol.wire_pending, 0.0,
        "buffer extension reads the RAT's terms; materialize first"
    );
    dest.rat
        .lin_comb_sub_into(&sol.rat, 1.0, &sol.load, -resistance, delay_form);
    dest.load.copy_from(cap_form);
    dest.wire_pending = 0.0;
    dest.trace = Trace::buffer(node, ty, sol.trace.clone());
}

/// Buffer extension, deterministic (eqs. (27)–(28)).
#[must_use]
pub fn buffer_extend_det(
    sol: &DetSolution,
    capacitance: f64,
    intrinsic_delay: f64,
    resistance: f64,
    node: NodeId,
    ty: BufferTypeId,
) -> DetSolution {
    DetSolution {
        load: capacitance,
        rat: sol.rat - intrinsic_delay - resistance * sol.load,
        trace: Trace::buffer(node, ty, sol.trace.clone()),
    }
}

/// Branch merge of one pair, statistical (eqs. (37)–(38)):
/// `L' = L_n + L_m`, `T' = min(T_n, T_m)` via tightness probability.
#[must_use]
pub fn merge_pair_stat(a: &StatSolution, b: &StatSolution) -> StatSolution {
    debug_assert!(
        a.wire_pending == 0.0 && b.wire_pending == 0.0,
        "merge's statistical min reads both RATs' terms; materialize first"
    );
    // `stat_min_assign` writes `stat_min(..).form` bit for bit without
    // the residual moments a merge never reads.
    let mut rat = CanonicalForm::default();
    stat_min_assign(&mut rat, &a.rat, &b.rat);
    StatFields {
        load: a.load.add(&b.load),
        rat,
        wire_pending: 0.0,
        trace: Trace::join(a.trace.clone(), b.trace.clone()),
    }
    .into()
}

/// In-place [`merge_pair_stat`]: writes into a recycled `dest` (distinct
/// from both operands). Bitwise identical to the allocating version —
/// the load add is the same sorted merge and the RAT min goes through
/// [`stat_min_assign`], which reproduces `stat_min` exactly.
pub fn merge_pair_stat_into(dest: &mut StatSolution, a: &StatSolution, b: &StatSolution) {
    debug_assert!(
        a.wire_pending == 0.0 && b.wire_pending == 0.0,
        "merge's statistical min reads both RATs' terms; materialize first"
    );
    dest.load.lin_comb_into(&a.load, 1.0, &b.load, 1.0);
    stat_min_assign(&mut dest.rat, &a.rat, &b.rat);
    dest.wire_pending = 0.0;
    dest.trace = Trace::join(a.trace.clone(), b.trace.clone());
}

/// Branch merge of one pair, deterministic (eqs. (29)–(30)).
#[must_use]
pub fn merge_pair_det(a: &DetSolution, b: &DetSolution) -> DetSolution {
    DetSolution {
        load: a.load + b.load,
        rat: a.rat.min(b.rat),
        trace: Trace::join(a.trace.clone(), b.trace.clone()),
    }
}

/// Final driver step: the RAT seen at the source once the driver
/// resistance `R_d` charges the root load — statistical form.
#[must_use]
pub fn driver_rat_stat(sol: &StatSolution, driver_resistance: f64) -> CanonicalForm {
    debug_assert_eq!(
        sol.wire_pending, 0.0,
        "driver RAT reads the root RAT's terms; materialize first"
    );
    sol.rat
        .linear_combination(1.0, &sol.load, -driver_resistance)
}

/// Final driver step, deterministic.
#[must_use]
pub fn driver_rat_det(sol: &DetSolution, driver_resistance: f64) -> f64 {
    sol.rat - driver_resistance * sol.load
}

#[cfg(test)]
mod tests {
    use super::*;
    use varbuf_rctree::WireParams;
    use varbuf_stats::SourceId;

    fn wire_seg(l: f64) -> WireSegment {
        WireParams {
            res_per_um: 1e-3,
            cap_per_um: 0.1,
        }
        .segment(l)
    }

    fn stat(load: f64, lterm: f64, rat: f64, rterm: f64) -> StatSolution {
        StatSolution::new(
            CanonicalForm::with_terms(load, vec![(SourceId(0), lterm)]),
            CanonicalForm::with_terms(rat, vec![(SourceId(1), rterm)]),
        )
    }

    #[test]
    fn wire_extend_in_place_matches_copying_kernel_bitwise() {
        // Load sources both overlapping the RAT's and disjoint from it,
        // so the in-place update exercises matches and insertions.
        let mut s = StatSolution::new(
            CanonicalForm::with_terms(30.0, vec![(SourceId(0), 2.0), (SourceId(3), -0.5)]),
            CanonicalForm::with_terms(-100.0, vec![(SourceId(1), 3.0), (SourceId(3), 0.25)]),
        );
        let seg = wire_seg(750.0);
        let reference = wire_extend_stat(&s, &seg);
        wire_extend_stat_in_place(&mut s, &seg);
        for (a, b) in [(&reference.load, &s.load), (&reference.rat, &s.rat)] {
            assert_eq!(a.mean().to_bits(), b.mean().to_bits());
            assert_eq!(a.term_count(), b.term_count());
            for (x, y) in a.terms().zip(b.terms()) {
                assert_eq!(x.0, y.0);
                assert_eq!(x.1.to_bits(), y.1.to_bits());
            }
        }
        assert!(std::sync::Arc::ptr_eq(&reference.trace, &s.trace));
    }

    #[test]
    fn lazy_unit_chain_is_bitwise_identical_to_eager() {
        // One segment deferred then materialized must reproduce the
        // eager kernel exactly: the mean adds run in the same order and
        // the term walk is `add_scaled_assign`'s with the same operands.
        let mk = || {
            StatSolution::new(
                CanonicalForm::with_terms(30.0, vec![(SourceId(0), 2.0), (SourceId(3), -0.5)]),
                CanonicalForm::with_terms(-100.0, vec![(SourceId(1), 3.0), (SourceId(3), 0.25)]),
            )
        };
        let seg = wire_seg(750.0);
        let mut eager = mk();
        wire_extend_stat_in_place(&mut eager, &seg);
        let mut lazy = mk();
        wire_defer_stat_in_place(&mut lazy, &seg);
        assert_eq!(lazy.wire_pending, seg.resistance);
        materialize_wire_stat(&mut lazy);
        assert_eq!(lazy.wire_pending, 0.0);
        assert_form_bits(&eager.load, &lazy.load);
        assert_form_bits(&eager.rat, &lazy.rat);
        // The copying variant carries the accumulated pending forward.
        let mut dest = mk();
        wire_defer_stat_into(&mut dest, &lazy, &seg);
        assert_eq!(dest.wire_pending, seg.resistance);
        assert_eq!(dest.rat.mean().to_bits(), {
            let mut e2 = eager.clone();
            wire_extend_stat_in_place(&mut e2, &seg);
            e2.rat.mean().to_bits()
        });
    }

    /// Per-segment deferral plus one materialization vs the sequential
    /// eager chain, 3 seeds × lengths {1,2,8,32} × {D2D, WID}-shaped
    /// forms, within 1e-12 relative.
    #[test]
    fn deferred_chain_matches_sequential_within_1e12() {
        use varbuf_stats::rng::SplitMix64;
        let close = |a: f64, b: f64| {
            let scale = a.abs().max(b.abs()).max(1.0);
            assert!(
                (a - b).abs() <= 1e-12 * scale,
                "deferred {a} vs sequential {b}"
            );
        };
        for seed in [0x9E37_79B9u64, 0x85EB_CA6B, 0xC2B2_AE35] {
            for len in [1usize, 2, 8, 32] {
                // D2D: a handful of shared global sources; WID: many
                // region sources, mostly disjoint between load and RAT.
                for sources in [4u32, 40] {
                    let mut rng = SplitMix64::new(seed ^ (len as u64) ^ u64::from(sources));
                    let mut terms = |n: usize| {
                        (0..n)
                            .map(|_| {
                                (
                                    SourceId(rng.next_u64() as u32 % sources),
                                    rng.next_f64() * 4.0 - 2.0,
                                )
                            })
                            .collect::<Vec<_>>()
                    };
                    let lterms = terms(3 + sources as usize / 4);
                    let rterms = terms(3 + sources as usize / 4);
                    let mut rng2 =
                        SplitMix64::new(seed.wrapping_mul(0xD129_42C2).wrapping_add(len as u64));
                    let base = StatSolution::new(
                        CanonicalForm::with_terms(20.0 + rng2.next_f64() * 30.0, lterms),
                        CanonicalForm::with_terms(-150.0 + rng2.next_f64() * 50.0, rterms),
                    );
                    let segs: Vec<WireSegment> = (0..len)
                        .map(|_| wire_seg(50.0 + rng2.next_f64() * 450.0))
                        .collect();

                    let mut eager = base.clone();
                    for seg in &segs {
                        wire_extend_stat_in_place(&mut eager, seg);
                    }

                    // Engine path: per-segment defer, one materialize.
                    let mut lazy = base.clone();
                    for seg in &segs {
                        wire_defer_stat_in_place(&mut lazy, seg);
                    }
                    materialize_wire_stat(&mut lazy);

                    close(eager.load.mean(), lazy.load.mean());
                    close(eager.rat.mean(), lazy.rat.mean());
                    assert_eq!(eager.load.term_count(), lazy.load.term_count());
                    assert_eq!(eager.rat.term_count(), lazy.rat.term_count());
                    for (x, y) in eager.rat.terms().zip(lazy.rat.terms()) {
                        assert_eq!(x.0, y.0);
                        close(x.1, y.1);
                    }
                }
            }
        }
    }

    /// Satellite regression: per-segment epsilon-sparsification compounds
    /// term drop along a chain — a term a single post-materialization
    /// sparsify keeps is lost when every segment re-thresholds against
    /// its own intermediate σ.
    #[test]
    fn per_segment_sparsify_compounds_term_drop_on_chains() {
        let epsilon = 0.1;
        // The RAT starts with a large S0 coefficient that the chain's
        // coupling cancels almost exactly (load carries +1 on S0, each
        // segment subtracts r·1), plus a small independent S9 term that
        // is below ε·σ early on but dominant once S0 has cancelled.
        let mk = || {
            StatSolution::new(
                CanonicalForm::with_terms(100.0, vec![(SourceId(0), 1.0)]),
                CanonicalForm::with_terms(-500.0, vec![(SourceId(0), 10.0), (SourceId(9), 0.15)]),
            )
        };
        let seg = WireSegment {
            length: 1000.0,
            resistance: 1.0,
            capacitance: 10.0,
        };
        let mut eager = mk();
        for _ in 0..10 {
            wire_extend_stat_in_place(&mut eager, &seg);
            eager.load.sparsify(epsilon);
            eager.rat.sparsify(epsilon);
        }
        let mut lazy = mk();
        for _ in 0..10 {
            wire_defer_stat_in_place(&mut lazy, &seg);
        }
        materialize_wire_stat(&mut lazy);
        lazy.load.sparsify(epsilon);
        lazy.rat.sparsify(epsilon);
        // Eager dropped S9 at the first threshold pass (σ ≈ 9 there);
        // the lazy path's single final pass sees σ ≈ 0.15 and keeps it.
        assert_eq!(eager.rat.coeff(SourceId(9)), 0.0, "eager compounding");
        assert!((lazy.rat.coeff(SourceId(9)) - 0.15).abs() < 1e-12);
        assert!(lazy.rat.term_count() > eager.rat.term_count());
    }

    #[test]
    fn stat_wire_matches_det_on_means() {
        let s = stat(30.0, 2.0, -100.0, 3.0);
        let d = DetSolution::new(30.0, -100.0);
        let seg = wire_seg(500.0);
        let sw = wire_extend_stat(&s, &seg);
        let dw = wire_extend_det(&d, &seg);
        assert!((sw.load.mean() - dw.load).abs() < 1e-9);
        assert!((sw.rat.mean() - dw.rat).abs() < 1e-9);
    }

    #[test]
    fn wire_couples_load_variation_into_rat() {
        // Eq. (34): the RAT sensitivity picks up −r·l·α from the load.
        let s = stat(30.0, 2.0, -100.0, 0.0);
        let seg = wire_seg(1000.0); // r·l = 1.0 kΩ
        let sw = wire_extend_stat(&s, &seg);
        assert!((sw.rat.coeff(SourceId(0)) + 2.0).abs() < 1e-12);
        // Load terms are untouched by wire.
        assert!((sw.load.coeff(SourceId(0)) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn buffer_replaces_load_with_cap_form() {
        let s = stat(50.0, 1.0, -200.0, 1.0);
        let cap = CanonicalForm::with_terms(20.0, vec![(SourceId(5), 1.0)]);
        let delay = CanonicalForm::with_terms(35.0, vec![(SourceId(5), 1.8)]);
        let out = buffer_extend_stat(&s, &cap, &delay, 0.2, NodeId(3), BufferTypeId(0));
        assert_eq!(out.load, cap);
        // T' = T − T_b − R·L → mean −200 − 35 − 0.2·50 = −245.
        assert!((out.rat.mean() + 245.0).abs() < 1e-9);
        // Sensitivities: rat gets −1.8 (delay) on S5, −0.2·1.0 on S0 (from R·L), keeps 1.0 on S1.
        assert!((out.rat.coeff(SourceId(5)) + 1.8).abs() < 1e-12);
        assert!((out.rat.coeff(SourceId(0)) + 0.2).abs() < 1e-12);
        assert!((out.rat.coeff(SourceId(1)) - 1.0).abs() < 1e-12);
        assert_eq!(out.trace.buffer_count(), 1);
    }

    #[test]
    fn det_buffer_matches_formula() {
        let s = DetSolution::new(50.0, -200.0);
        let out = buffer_extend_det(&s, 20.0, 35.0, 0.2, NodeId(3), BufferTypeId(1));
        assert_eq!(out.load, 20.0);
        assert!((out.rat + 245.0).abs() < 1e-12);
        assert_eq!(out.trace.collect(), vec![(NodeId(3), BufferTypeId(1))]);
    }

    #[test]
    fn merge_sums_loads_and_mins_rats() {
        let a = stat(10.0, 1.0, -100.0, 1.0);
        let b = stat(20.0, 0.5, -50.0, 1.0);
        let m = merge_pair_stat(&a, &b);
        assert!((m.load.mean() - 30.0).abs() < 1e-12);
        // Statistical min mean is at most min of the means.
        assert!(m.rat.mean() <= -100.0 + 1e-9);
        // Deterministic counterpart.
        let dm = merge_pair_det(
            &DetSolution::new(10.0, -100.0),
            &DetSolution::new(20.0, -50.0),
        );
        assert_eq!(dm.load, 30.0);
        assert_eq!(dm.rat, -100.0);
    }

    fn assert_form_bits(a: &CanonicalForm, b: &CanonicalForm) {
        assert_eq!(a.mean().to_bits(), b.mean().to_bits());
        assert_eq!(a.term_count(), b.term_count());
        for (x, y) in a.terms().zip(b.terms()) {
            assert_eq!(x.0, y.0);
            assert_eq!(x.1.to_bits(), y.1.to_bits());
        }
    }

    #[test]
    fn into_ops_match_allocating_ops_bitwise() {
        let a = stat(30.0, 2.0, -100.0, 3.0);
        let b = stat(12.0, -0.7, -80.0, 1.1);
        let seg = wire_seg(750.0);
        let cap = CanonicalForm::with_terms(20.0, vec![(SourceId(5), 1.0)]);
        let delay = CanonicalForm::with_terms(35.0, vec![(SourceId(1), 1.8)]);
        // Recycled destination with stale content that must be overwritten.
        let mut dest = stat(9.9, 9.9, 9.9, 9.9);

        let w = wire_extend_stat(&a, &seg);
        wire_extend_stat_into(&mut dest, &a, &seg);
        assert_form_bits(&dest.load, &w.load);
        assert_form_bits(&dest.rat, &w.rat);

        let bf = buffer_extend_stat(&a, &cap, &delay, 0.2, NodeId(3), BufferTypeId(0));
        buffer_extend_stat_into(&mut dest, &a, &cap, &delay, 0.2, NodeId(3), BufferTypeId(0));
        assert_form_bits(&dest.load, &bf.load);
        assert_form_bits(&dest.rat, &bf.rat);
        assert_eq!(dest.trace.buffer_count(), 1);

        let m = merge_pair_stat(&a, &b);
        merge_pair_stat_into(&mut dest, &a, &b);
        assert_form_bits(&dest.load, &m.load);
        assert_form_bits(&dest.rat, &m.rat);
    }

    #[test]
    fn driver_rat_subtracts_charging_delay() {
        let s = stat(40.0, 1.0, -100.0, 0.0);
        let rat = driver_rat_stat(&s, 0.1);
        assert!((rat.mean() + 104.0).abs() < 1e-9);
        assert!((rat.coeff(SourceId(0)) + 0.1).abs() < 1e-12);
        let d = driver_rat_det(&DetSolution::new(40.0, -100.0), 0.1);
        assert!((d + 104.0).abs() < 1e-12);
    }
}
