//! Sparse first-order canonical forms over independent standard normals.
//!
//! Every statistical quantity in the dynamic program — loading capacitance
//! `L`, required arrival time `T`, device characteristics — is represented
//! as a **first-order canonical form** (eqs. (31)–(32) of the paper):
//!
//! ```text
//! v = v0 + Σᵢ aᵢ · Xᵢ         with  Xᵢ ~ N(0, 1)  i.i.d.
//! ```
//!
//! The sensitivities `aᵢ` already absorb the standard deviation of the
//! physical parameter, so variance and covariance reduce to dot products of
//! the coefficient vectors. Terms are stored sparsely, sorted by
//! [`SourceId`], which keeps every operation `O(k)` in the number of live
//! terms and makes merging two forms a single sorted walk.
//!
//! # Memory layout
//!
//! Terms are stored **structure-of-arrays**: one `Vec<SourceId>` of sorted
//! ids and one parallel `Vec<f64>` of coefficients, instead of a single
//! `Vec<(SourceId, f64)>`. Two effects pay for the split on the DP hot
//! path. The id probes that drive every sorted walk read a dense `u32`
//! array (4 bytes per term instead of a 16-byte padded pair), and the
//! bulk run appends of the linear-combination kernels become straight-line
//! `out[i] = k · src[i]` loops over `f64` slices that LLVM auto-vectorizes
//! — the interleaved pair layout defeated vectorization entirely. All
//! kernels perform the identical floating-point operations in the
//! identical order, so every result is bit-for-bit what the
//! array-of-pairs layout produced.

use crate::gaussian::{norm_cdf, norm_quantile, prob_at_least_normal};
use std::cell::RefCell;
use std::fmt;

thread_local! {
    /// Matched-position scratch for [`CanonicalForm::add_scaled_assign`]:
    /// pass 1 records the index at which each of `other`'s sources landed
    /// so the no-insertion update pass is a direct scatter instead of a
    /// second, identical probe walk over `self`'s id array.
    static ASA_POSITIONS: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

/// Identifier of one independent `N(0, 1)` variation source.
///
/// Ids are allocated by the process-variation model: id conventions (global
/// inter-die source, spatial region sources, per-device random sources) live
/// in `varbuf-variation`; this crate treats ids as opaque.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SourceId(pub u32);

impl fmt::Display for SourceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "X{}", self.0)
    }
}

/// A sparse first-order canonical form `v0 + Σ aᵢ·Xᵢ`.
///
/// Invariant: `ids` is sorted strictly ascending with no duplicates,
/// `coeffs` is the parallel coefficient array (same length), and no
/// coefficient is exactly zero.
///
/// ```
/// use varbuf_stats::canonical::{CanonicalForm, SourceId};
/// let a = CanonicalForm::with_terms(1.0, vec![(SourceId(0), 3.0), (SourceId(2), 4.0)]);
/// assert!((a.variance() - 25.0).abs() < 1e-12);
/// assert!((a.std_dev() - 5.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CanonicalForm {
    nominal: f64,
    ids: Vec<SourceId>,
    coeffs: Vec<f64>,
}

impl CanonicalForm {
    /// A deterministic (variance-free) value.
    #[must_use]
    pub fn constant(nominal: f64) -> Self {
        Self {
            nominal,
            ids: Vec::new(),
            coeffs: Vec::new(),
        }
    }

    /// Builds a form from a nominal value and a term list.
    ///
    /// The terms may be unsorted and may contain duplicates; duplicates are
    /// summed and zero coefficients dropped. Inputs that already satisfy
    /// the invariant (strictly ascending ids, no zero coefficients) — the
    /// overwhelmingly common case inside the DP operations — skip the
    /// sort-and-compact pass entirely.
    #[must_use]
    pub fn with_terms(nominal: f64, mut terms: Vec<(SourceId, f64)>) -> Self {
        if !Self::terms_canonical(&terms) {
            terms.sort_unstable_by_key(|&(id, _)| id);
            let mut compact: Vec<(SourceId, f64)> = Vec::with_capacity(terms.len());
            for (id, coeff) in terms {
                match compact.last_mut() {
                    Some((last_id, last_coeff)) if *last_id == id => *last_coeff += coeff,
                    _ => compact.push((id, coeff)),
                }
            }
            compact.retain(|&(_, c)| c != 0.0);
            terms = compact;
        }
        Self {
            nominal,
            ids: terms.iter().map(|&(id, _)| id).collect(),
            coeffs: terms.iter().map(|&(_, c)| c).collect(),
        }
    }

    /// The nominal (mean) value `v0`.
    #[inline]
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.nominal
    }

    /// Iterates the sorted sensitivity terms as `(id, coefficient)` pairs.
    #[inline]
    pub fn terms(
        &self,
    ) -> impl ExactSizeIterator<Item = (SourceId, f64)> + DoubleEndedIterator + '_ {
        self.ids.iter().copied().zip(self.coeffs.iter().copied())
    }

    /// The sorted source ids (parallel to [`term_coeffs`](Self::term_coeffs)).
    #[inline]
    #[must_use]
    pub fn term_ids(&self) -> &[SourceId] {
        &self.ids
    }

    /// The coefficients (parallel to [`term_ids`](Self::term_ids)).
    #[inline]
    #[must_use]
    pub fn term_coeffs(&self) -> &[f64] {
        &self.coeffs
    }

    /// Number of live (non-zero) sensitivity terms.
    #[inline]
    #[must_use]
    pub fn term_count(&self) -> usize {
        self.ids.len()
    }

    /// The coefficient of one source (zero if absent).
    #[must_use]
    pub fn coeff(&self, id: SourceId) -> f64 {
        match self.ids.binary_search(&id) {
            Ok(pos) => self.coeffs[pos],
            Err(_) => 0.0,
        }
    }

    /// Variance `Σ aᵢ²` (sources are i.i.d. standard normal).
    #[must_use]
    pub fn variance(&self) -> f64 {
        self.coeffs.iter().map(|&a| a * a).sum()
    }

    /// Standard deviation.
    #[inline]
    #[must_use]
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Covariance with another form: `Σ aᵢ·bᵢ` over shared sources.
    #[must_use]
    pub fn covariance(&self, other: &Self) -> f64 {
        let mut cov = 0.0;
        let (ia, ib) = (&self.ids[..], &other.ids[..]);
        let (mut i, mut j) = (0, 0);
        while i < ia.len() && j < ib.len() {
            let (ida, idb) = (ia[i], ib[j]);
            match ida.cmp(&idb) {
                // Unshared ids contribute nothing: gallop over the run.
                std::cmp::Ordering::Less => i += 1 + lower_bound(&ia[i + 1..], idb),
                std::cmp::Ordering::Greater => j += 1 + lower_bound(&ib[j + 1..], ida),
                std::cmp::Ordering::Equal => {
                    cov += self.coeffs[i] * other.coeffs[j];
                    i += 1;
                    j += 1;
                }
            }
        }
        cov
    }

    /// Correlation coefficient with another form, clamped to `[-1, 1]`.
    ///
    /// Returns `0.0` when either form is deterministic.
    #[must_use]
    pub fn correlation(&self, other: &Self) -> f64 {
        let sa = self.std_dev();
        let sb = other.std_dev();
        if sa == 0.0 || sb == 0.0 {
            return 0.0;
        }
        (self.covariance(other) / (sa * sb)).clamp(-1.0, 1.0)
    }

    /// Adds a constant in place.
    pub fn add_constant(&mut self, c: f64) {
        self.nominal += c;
    }

    /// Overwrites the nominal, keeping the terms.
    pub(crate) fn set_mean(&mut self, nominal: f64) {
        self.nominal = nominal;
    }

    /// Returns `self + c` without mutating.
    #[must_use]
    pub fn plus_constant(&self, c: f64) -> Self {
        let mut out = self.clone();
        out.add_constant(c);
        out
    }

    /// Scales the whole form (mean and sensitivities) by `k`.
    #[must_use]
    pub fn scaled(&self, k: f64) -> Self {
        if k == 0.0 {
            return Self::constant(0.0);
        }
        Self {
            nominal: self.nominal * k,
            ids: self.ids.clone(),
            coeffs: self.coeffs.iter().map(|&a| a * k).collect(),
        }
    }

    /// Linear combination `k1·self + k2·other` as a new form.
    ///
    /// This is the workhorse of the DP key operations: wire-add, buffer-add
    /// and merge are all expressible through it. Runs in
    /// `O(k_self + k_other)` via a sorted merge.
    #[must_use]
    pub fn linear_combination(&self, k1: f64, other: &Self, k2: f64) -> Self {
        let mut out = Self {
            nominal: 0.0,
            ids: Vec::with_capacity(self.ids.len() + other.ids.len()),
            coeffs: Vec::with_capacity(self.ids.len() + other.ids.len()),
        };
        out.lin_comb_into(self, k1, other, k2);
        out
    }

    /// `self + other`.
    #[must_use]
    pub fn add(&self, other: &Self) -> Self {
        self.linear_combination(1.0, other, 1.0)
    }

    /// `self - other`.
    #[must_use]
    pub fn sub(&self, other: &Self) -> Self {
        self.linear_combination(1.0, other, -1.0)
    }

    /// Adds `k · other` into `self` in place.
    ///
    /// Bitwise identical to `self.linear_combination(1.0, other, k)`
    /// (`1.0·a` is exact, and matched coefficients are grouped as
    /// `a + (k·b)` in both), but touches only `other`'s sources: each is
    /// located by a galloping search, so when `other`'s sources are a
    /// subset of `self`'s — the common case in the DP, where a
    /// solution's load sources were already folded into its RAT — the
    /// cost is `O(m·log k)` updates instead of an `O(k)` rewrite of the
    /// term vector. New sources shift only the tail behind them; the
    /// rare exact cancellation (a coefficient or fresh product landing
    /// on `±0.0`, which the canonical representation must drop) falls
    /// back to the allocating reference path.
    pub fn add_scaled_assign(&mut self, other: &Self, k: f64) {
        // Probe strategy: galloping wins when `other` is much sparser
        // than `self`; at comparable densities (the wire-lift shape —
        // a load whose sources are mostly already in the RAT) a linear
        // two-pointer advance is branch-predictable and ~2× cheaper.
        // The probe walk runs exactly once: matched positions are
        // recorded into a thread-local scratch so the no-insert update
        // is a direct scatter rather than a second identical walk. The
        // applied expression (`a += k·b` at the same index) is
        // unchanged, so every output bit is too.
        let linear = other.ids.len() * 4 >= self.ids.len();
        ASA_POSITIONS.with(|scratch| {
            let mut pos = scratch.borrow_mut();
            pos.clear();
            // Pass 1 (read-only): find every `other` source, counting
            // the insertions and detecting cancellations.
            let mut inserts = 0usize;
            let mut cancels = false;
            let mut i = 0usize;
            for (j, &id) in other.ids.iter().enumerate() {
                if linear {
                    while self.ids.get(i).is_some_and(|&ida| ida < id) {
                        i += 1;
                    }
                } else {
                    i += lower_bound(&self.ids[i..], id);
                }
                let cb = other.coeffs[j];
                match self.ids.get(i) {
                    Some(&ida) if ida == id => {
                        if self.coeffs[i] + k * cb == 0.0 {
                            cancels = true;
                            break;
                        }
                        pos.push(i as u32);
                        i += 1;
                    }
                    _ => {
                        if k * cb == 0.0 {
                            cancels = true;
                            break;
                        }
                        inserts += 1;
                    }
                }
            }
            if cancels {
                *self = self.linear_combination(1.0, other, k);
                return;
            }
            self.nominal += k * other.nominal;
            if inserts == 0 {
                // Every source matched, and pass 1 already knows where:
                // scatter the updates straight to the recorded indices.
                for (j, &p) in pos.iter().enumerate() {
                    self.coeffs[p as usize] += k * other.coeffs[j];
                }
            } else {
                // Backward merge into the grown tail: `w` never catches
                // up with the unread `self` prefix because every
                // remaining write covers at least the remaining reads
                // plus the pending insertions.
                let old = self.ids.len();
                self.ids.resize(old + inserts, other.ids[0]);
                self.coeffs.resize(old + inserts, 0.0);
                let (mut i, mut j) = (old as isize - 1, other.ids.len() as isize - 1);
                let mut w = (old + inserts) as isize - 1;
                while j >= 0 {
                    let idb = other.ids[j as usize];
                    let cb = other.coeffs[j as usize];
                    if i >= 0 && self.ids[i as usize] > idb {
                        self.ids[w as usize] = self.ids[i as usize];
                        self.coeffs[w as usize] = self.coeffs[i as usize];
                        i -= 1;
                    } else if i >= 0 && self.ids[i as usize] == idb {
                        let ca = self.coeffs[i as usize];
                        self.ids[w as usize] = idb;
                        self.coeffs[w as usize] = ca + k * cb;
                        i -= 1;
                        j -= 1;
                    } else {
                        self.ids[w as usize] = idb;
                        self.coeffs[w as usize] = k * cb;
                        j -= 1;
                    }
                    w -= 1;
                }
                debug_assert_eq!(w, i, "prefix below the last insertion is already in place");
            }
        });
    }

    /// Adds `k · other`'s *sensitivity terms* into `self`, leaving the
    /// nominal untouched.
    ///
    /// This is the materialization kernel of the DP's lazy wire
    /// propagation: deferring a chain of wire couplings leaves the RAT's
    /// mean already correct (it was updated eagerly, segment by segment)
    /// while the term update collapses to a single
    /// `rat += (−Σrᵢ)·load` over the terms alone. The term arithmetic
    /// is exactly [`add_scaled_assign`](Self::add_scaled_assign) — same
    /// walk, same grouping, same cancellation fallback — so a unit-length
    /// chain reproduces the eager kernel's term bits verbatim.
    pub fn add_scaled_terms_assign(&mut self, other: &Self, k: f64) {
        let nominal = self.nominal;
        self.add_scaled_assign(other, k);
        self.nominal = nominal;
    }

    /// The `α`-percentile `π_α = μ + z_α·σ` of this (normal) form.
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is not in `(0, 1)`.
    #[must_use]
    pub fn percentile(&self, alpha: f64) -> f64 {
        let sigma = self.std_dev();
        if sigma == 0.0 {
            return self.nominal;
        }
        self.nominal + norm_quantile(alpha) * sigma
    }

    /// `P(self > other)` under the joint-normal assumption (eq. (8)).
    ///
    /// Allocation-free: the difference's moments come from
    /// [`sub_stats`](Self::sub_stats) rather than a materialized form.
    #[must_use]
    pub fn prob_greater(&self, other: &Self) -> f64 {
        let (dmu, var) = self.sub_stats(other);
        let sigma = var.sqrt();
        if sigma <= f64::EPSILON * (self.nominal.abs() + other.nominal.abs() + 1.0) {
            return if dmu > 0.0 {
                1.0
            } else if dmu < 0.0 {
                0.0
            } else {
                0.5
            };
        }
        norm_cdf(dmu / sigma)
    }

    /// `P(self < other)`.
    #[inline]
    #[must_use]
    pub fn prob_less(&self, other: &Self) -> f64 {
        other.prob_greater(self)
    }

    /// `P(self >= x)` for a deterministic threshold `x` — the *timing yield*
    /// when `self` is the RAT at the root and `x` is the required RAT.
    #[must_use]
    pub fn prob_at_least(&self, x: f64) -> f64 {
        prob_at_least_normal(self.nominal, self.std_dev(), x)
    }

    /// Whether a term list already satisfies the representation
    /// invariant: strictly ascending ids with no zero coefficients.
    #[inline]
    fn terms_canonical(terms: &[(SourceId, f64)]) -> bool {
        let mut prev: Option<SourceId> = None;
        for &(id, c) in terms {
            if c == 0.0 || prev.is_some_and(|p| p >= id) {
                return false;
            }
            prev = Some(id);
        }
        true
    }

    /// Overwrites `self` with `src`, reusing `self`'s term capacity.
    ///
    /// Bitwise equivalent to `*self = src.clone()` without the heap
    /// round trip once `self` has grown to its working size.
    pub fn copy_from(&mut self, src: &Self) {
        self.nominal = src.nominal;
        self.ids.clear();
        self.ids.extend_from_slice(&src.ids);
        self.coeffs.clear();
        self.coeffs.extend_from_slice(&src.coeffs);
    }

    /// In-place [`linear_combination`](Self::linear_combination):
    /// overwrites `self` with `k1·a + k2·b`.
    ///
    /// Produces bitwise-identical terms to the allocating version — the
    /// merge walk and per-term arithmetic are the same; only the
    /// destination buffer is recycled.
    pub fn lin_comb_into(&mut self, a: &Self, k1: f64, b: &Self, k2: f64) {
        self.ids.clear();
        self.coeffs.clear();
        let (ia, ib) = (&a.ids[..], &b.ids[..]);
        let (mut i, mut j) = (0, 0);
        // Run-chunked: sibling subtrees own disjoint source-id blocks
        // (SourceLayout is keyed by node id, and node ids are assigned in
        // DFS order), so the operands interleave in long single-owner
        // runs. Gallop to the end of each run and bulk-append it scaled —
        // on the split layout the scale loop is a vectorizable
        // `out[r] = k·src[r]` over a plain `f64` slice. The pushed values
        // and their order are exactly the one-term-at-a-time walk's.
        while i < ia.len() && j < ib.len() {
            let (ida, idb) = (ia[i], ib[j]);
            match ida.cmp(&idb) {
                std::cmp::Ordering::Less => {
                    let run = i + 1 + lower_bound(&ia[i + 1..], idb);
                    append_scaled_run(
                        &mut self.ids,
                        &mut self.coeffs,
                        &ia[i..run],
                        &a.coeffs[i..run],
                        k1,
                    );
                    i = run;
                }
                std::cmp::Ordering::Greater => {
                    let run = j + 1 + lower_bound(&ib[j + 1..], ida);
                    append_scaled_run(
                        &mut self.ids,
                        &mut self.coeffs,
                        &ib[j..run],
                        &b.coeffs[j..run],
                        k2,
                    );
                    j = run;
                }
                std::cmp::Ordering::Equal => {
                    let c = k1 * a.coeffs[i] + k2 * b.coeffs[j];
                    if c != 0.0 {
                        self.ids.push(ida);
                        self.coeffs.push(c);
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
        append_scaled_run(
            &mut self.ids,
            &mut self.coeffs,
            &ia[i..],
            &a.coeffs[i..],
            k1,
        );
        append_scaled_run(
            &mut self.ids,
            &mut self.coeffs,
            &ib[j..],
            &b.coeffs[j..],
            k2,
        );
        self.nominal = k1 * a.nominal + k2 * b.nominal;
    }

    /// Fused buffer kernel: overwrites `self` with `(k1·a + k2·b) − c`
    /// in a single three-way merge walk.
    ///
    /// Bitwise identical to
    /// `a.linear_combination(k1, b, k2).sub(c)`: every surviving
    /// coefficient is grouped as `1.0·(k1·aᵢ + k2·bᵢ) + (−1.0)·cᵢ`,
    /// which IEEE-754 round-to-nearest evaluates to the same bits as the
    /// two-pass chain (`1.0·x = x` and `x + (−y) = x − y` exactly, and a
    /// `±0.0` intermediate dropped by the two-pass version leaves
    /// `−cᵢ`, which `±0.0 − cᵢ` also yields for nonzero `cᵢ`).
    pub fn lin_comb_sub_into(&mut self, a: &Self, k1: f64, b: &Self, k2: f64, c: &Self) {
        // Two chunked passes: the run-merged combination, then the small
        // subtrahend (`c` is a device form — a handful of terms) folded
        // in by the galloping in-place kernel. Each pass is documented
        // bit-equal to its allocating reference, so the chain reproduces
        // `a.linear_combination(k1, b, k2).sub(c)` exactly — including
        // the `±0.0` cases: a combination term that cancels is dropped
        // by the run append and the subtraction then *inserts* `−cᵢ`,
        // the same bits `±0.0 − cᵢ` yields for the nonzero `cᵢ` a
        // canonical form carries.
        self.lin_comb_into(a, k1, b, k2);
        self.add_scaled_assign(c, -1.0);
    }

    /// Mean and variance of `self − other` without materializing the
    /// difference form.
    ///
    /// Bitwise identical to `(self.sub(other).mean(),
    /// self.sub(other).variance())`: the merged walk visits the union of
    /// ids in the same ascending order and squares the same surviving
    /// coefficients. Exact cancellations are skipped rather than added,
    /// because the materialized path drops them via the nonzero filter —
    /// and `variance()`'s `Sum` fold starts at `-0.0`, so a difference
    /// whose terms all cancel yields `-0.0`, which an unconditional
    /// `+= 0.0` would flip to `+0.0`.
    #[must_use]
    pub fn sub_stats(&self, other: &Self) -> (f64, f64) {
        let mut var = -0.0;
        let (ia, ib) = (&self.ids[..], &other.ids[..]);
        let (mut i, mut j) = (0, 0);
        // Run-chunked like `lin_comb_into`: unmatched ids come in long
        // single-owner runs, squared here in the same ascending order
        // the one-term walk used (`(−b)·(−b)` and `b·b` are the same
        // bits, so the run loops square the raw coefficients).
        while i < ia.len() && j < ib.len() {
            let (ida, idb) = (ia[i], ib[j]);
            match ida.cmp(&idb) {
                std::cmp::Ordering::Less => {
                    let run = i + 1 + lower_bound(&ia[i + 1..], idb);
                    for &a in &self.coeffs[i..run] {
                        var += a * a;
                    }
                    i = run;
                }
                std::cmp::Ordering::Greater => {
                    let run = j + 1 + lower_bound(&ib[j + 1..], ida);
                    for &b in &other.coeffs[j..run] {
                        var += b * b;
                    }
                    j = run;
                }
                std::cmp::Ordering::Equal => {
                    let d = self.coeffs[i] - other.coeffs[j];
                    i += 1;
                    j += 1;
                    if d != 0.0 {
                        // dropped by the nonzero filter in the materialized path
                        var += d * d;
                    }
                }
            }
        }
        for &a in &self.coeffs[i..] {
            var += a * a;
        }
        for &b in &other.coeffs[j..] {
            var += b * b;
        }
        (self.nominal - other.nominal, var)
    }

    /// Drops terms whose coefficient magnitude is below
    /// `epsilon · max(σ, ε)` and folds their variance into nothing
    /// (conservative sparsification knob; `epsilon = 0` keeps everything).
    ///
    /// Returns the number of dropped terms.
    pub fn sparsify(&mut self, epsilon: f64) -> usize {
        if epsilon <= 0.0 {
            return 0;
        }
        let cutoff = epsilon * self.std_dev().max(f64::MIN_POSITIVE);
        let before = self.ids.len();
        let mut w = 0usize;
        for r in 0..before {
            if self.coeffs[r].abs() >= cutoff {
                self.ids[w] = self.ids[r];
                self.coeffs[w] = self.coeffs[r];
                w += 1;
            }
        }
        self.ids.truncate(w);
        self.coeffs.truncate(w);
        before - w
    }
}

impl Default for CanonicalForm {
    fn default() -> Self {
        Self::constant(0.0)
    }
}

impl fmt::Display for CanonicalForm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}", self.nominal)?;
        for (id, a) in self.terms() {
            if a >= 0.0 {
                write!(f, " + {a:.6}·{id}")?;
            } else {
                write!(f, " - {:.6}·{id}", -a)?;
            }
        }
        Ok(())
    }
}

/// Appends one single-owner run scaled by `k`, preserving the
/// term-at-a-time reference semantics: each product `k·c` is computed in
/// order and exact zeros are dropped.
///
/// The products land in a branch-free `out[r] = k·src[r]` loop (the
/// vectorizable fast path); the rare run containing an exact zero product
/// (`k` of zero magnitude or a denormal underflow) is re-compacted in a
/// second scan, which yields the same surviving values in the same order
/// as pushing one term at a time.
#[inline]
fn append_scaled_run(
    ids_out: &mut Vec<SourceId>,
    coeffs_out: &mut Vec<f64>,
    ids: &[SourceId],
    coeffs: &[f64],
    k: f64,
) {
    let start = coeffs_out.len();
    coeffs_out.extend(coeffs.iter().map(|&c| k * c));
    if coeffs_out[start..].iter().all(|&c| c != 0.0) {
        ids_out.extend_from_slice(ids);
        return;
    }
    let mut w = start;
    for (r, &id) in ids.iter().enumerate() {
        let c = coeffs_out[start + r];
        if c != 0.0 {
            coeffs_out[w] = c;
            ids_out.push(id);
            w += 1;
        }
    }
    coeffs_out.truncate(w);
}

/// Index of the first id `>= id`: a galloping probe (1, 2, 4, …)
/// brackets the answer, a binary search pins it. Starting the gallop at
/// the front makes repeated searches from a moving lower bound cheap
/// when successive ids land close together.
fn lower_bound(ids: &[SourceId], id: SourceId) -> usize {
    let mut hi = 1usize;
    while hi <= ids.len() && ids[hi - 1] < id {
        hi <<= 1;
    }
    let lo = (hi >> 1).min(ids.len());
    let hi = hi.min(ids.len());
    lo + ids[lo..hi].partition_point(|&t| t < id)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn form(n: f64, terms: &[(u32, f64)]) -> CanonicalForm {
        CanonicalForm::with_terms(n, terms.iter().map(|&(i, a)| (SourceId(i), a)).collect())
    }

    fn terms_of(f: &CanonicalForm) -> Vec<(SourceId, f64)> {
        f.terms().collect()
    }

    #[test]
    fn constant_has_zero_variance() {
        let c = CanonicalForm::constant(4.2);
        assert_eq!(c.mean(), 4.2);
        assert_eq!(c.variance(), 0.0);
        assert_eq!(c.term_count(), 0);
    }

    #[test]
    fn with_terms_sorts_and_merges() {
        let f = form(0.0, &[(3, 1.0), (1, 2.0), (3, -1.0), (2, 0.0)]);
        assert_eq!(terms_of(&f), vec![(SourceId(1), 2.0)]);
    }

    #[test]
    fn covariance_and_correlation() {
        let a = form(0.0, &[(0, 3.0), (1, 4.0)]);
        let b = form(0.0, &[(1, 4.0), (2, 3.0)]);
        assert!((a.covariance(&b) - 16.0).abs() < 1e-12);
        assert!((a.correlation(&b) - 16.0 / 25.0).abs() < 1e-12);
        assert!((a.correlation(&a) - 1.0).abs() < 1e-12);
        let c = CanonicalForm::constant(1.0);
        assert_eq!(a.correlation(&c), 0.0);
    }

    #[test]
    fn linear_combination_merges_sources() {
        let a = form(1.0, &[(0, 1.0), (2, 2.0)]);
        let b = form(2.0, &[(1, 3.0), (2, -2.0)]);
        let s = a.add(&b);
        assert_eq!(s.mean(), 3.0);
        assert_eq!(terms_of(&s), vec![(SourceId(0), 1.0), (SourceId(1), 3.0)]);
        let d = a.sub(&a);
        assert_eq!(d.mean(), 0.0);
        assert_eq!(d.term_count(), 0);
    }

    #[test]
    fn scaled_by_zero_is_constant_zero() {
        let a = form(5.0, &[(0, 1.0)]);
        let z = a.scaled(0.0);
        assert_eq!(z, CanonicalForm::constant(0.0));
    }

    #[test]
    fn percentile_matches_quantile() {
        let a = form(10.0, &[(0, 2.0)]);
        let p95 = a.percentile(0.95);
        assert!((p95 - (10.0 + 2.0 * crate::gaussian::norm_quantile(0.95))).abs() < 1e-12);
        // 5th percentile is below the mean.
        assert!(a.percentile(0.05) < 10.0);
        // Deterministic form: percentile is the value itself.
        assert_eq!(CanonicalForm::constant(7.0).percentile(0.01), 7.0);
    }

    #[test]
    fn prob_greater_shared_source_cancels() {
        // T1 = 5 + X0, T2 = 4 + X0: difference is deterministic 1 > 0.
        let t1 = form(5.0, &[(0, 1.0)]);
        let t2 = form(4.0, &[(0, 1.0)]);
        assert_eq!(t1.prob_greater(&t2), 1.0);
        assert_eq!(t2.prob_greater(&t1), 0.0);
        assert_eq!(t1.prob_greater(&t1), 0.5);
    }

    #[test]
    fn prob_greater_complementarity() {
        let t1 = form(5.0, &[(0, 1.0), (1, 0.5)]);
        let t2 = form(4.5, &[(0, 0.2), (2, 1.5)]);
        let p = t1.prob_greater(&t2);
        let q = t2.prob_greater(&t1);
        assert!((p + q - 1.0).abs() < 1e-9);
        assert!(p > 0.5);
    }

    #[test]
    fn prob_at_least_yield_semantics() {
        let rat = form(-1000.0, &[(0, 10.0)]);
        assert!((rat.prob_at_least(-1000.0) - 0.5).abs() < 1e-12);
        assert!(rat.prob_at_least(-1100.0) > 0.999);
        assert!(rat.prob_at_least(-900.0) < 0.001);
    }

    #[test]
    fn sparsify_drops_tiny_terms() {
        let mut a = form(0.0, &[(0, 1.0), (1, 1e-12)]);
        let dropped = a.sparsify(1e-6);
        assert_eq!(dropped, 1);
        assert_eq!(a.term_count(), 1);
        assert_eq!(a.sparsify(0.0), 0);
    }

    #[test]
    fn with_terms_fast_path_keeps_sorted_inputs() {
        // Already-canonical input: fast path must preserve it verbatim.
        let terms = vec![(SourceId(1), 2.0), (SourceId(3), -1.5), (SourceId(9), 0.25)];
        let f = CanonicalForm::with_terms(1.0, terms.clone());
        assert_eq!(terms_of(&f), terms);
        // A zero coefficient forces the slow path and is dropped.
        let g = CanonicalForm::with_terms(1.0, vec![(SourceId(1), 2.0), (SourceId(3), 0.0)]);
        assert_eq!(g.term_count(), 1);
        // Equal ids force the slow path and are summed.
        let h = CanonicalForm::with_terms(0.0, vec![(SourceId(4), 1.0), (SourceId(4), 2.0)]);
        assert_eq!(terms_of(&h), vec![(SourceId(4), 3.0)]);
    }

    #[test]
    fn lin_comb_into_matches_allocating_version_bitwise() {
        let a = form(1.25, &[(0, 1.0), (2, 2.0), (7, -0.5)]);
        let b = form(-2.5, &[(1, 3.0), (2, -2.0), (9, 4.0)]);
        for (k1, k2) in [(1.0, 1.0), (1.0, -1.0), (0.3, 0.7), (-1.7, 2.9)] {
            let legacy = a.linear_combination(k1, &b, k2);
            let mut out = form(99.0, &[(50, 123.0)]);
            out.lin_comb_into(&a, k1, &b, k2);
            assert_eq!(legacy.mean().to_bits(), out.mean().to_bits());
            assert_eq!(legacy.term_count(), out.term_count());
            for (x, y) in legacy.terms().zip(out.terms()) {
                assert_eq!(x.0, y.0);
                assert_eq!(x.1.to_bits(), y.1.to_bits());
            }
        }
    }

    #[test]
    fn append_scaled_run_drops_exact_zero_products() {
        // k = 0 zeroes a whole run: the compaction path must drop every
        // product, exactly like pushing one term at a time would.
        let a = form(1.0, &[(0, 1.0), (4, 3.0)]);
        let b = form(2.0, &[(1, 5.0), (2, 2.0)]);
        let out = a.linear_combination(1.0, &b, 0.0);
        assert_eq!(terms_of(&out), vec![(SourceId(0), 1.0), (SourceId(4), 3.0)]);
        // And a partial-zero run (underflow to 0.0) keeps the survivors
        // in order.
        let c = form(0.0, &[(1, 5e-324), (2, 1.0)]);
        let scaled = CanonicalForm::constant(0.0).linear_combination(1.0, &c, 0.5);
        assert_eq!(terms_of(&scaled), vec![(SourceId(2), 0.5)]);
    }

    #[test]
    fn add_scaled_assign_matches_linear_combination_bitwise() {
        let cases: Vec<(CanonicalForm, CanonicalForm, f64)> = vec![
            // Subset: every `other` source already present (pure update).
            (
                form(1.25, &[(0, 1.0), (2, 2.0), (7, -0.5), (11, 3.0)]),
                form(-2.5, &[(2, -0.25), (11, 4.0)]),
                -1.7,
            ),
            // Disjoint: every source inserted, interleaved and at both ends.
            (
                form(0.5, &[(2, 2.0), (7, -0.5)]),
                form(1.0, &[(0, 1.0), (4, 3.0), (9, -2.0)]),
                0.3,
            ),
            // Mixed matches and insertions.
            (
                form(-1.0, &[(1, 1.0), (5, -2.0), (6, 0.75)]),
                form(2.0, &[(1, 3.0), (2, -2.0), (6, 0.5), (9, 4.0)]),
                2.9,
            ),
            // Exact cancellation on id 3 → the canonical form must drop it.
            (
                form(0.0, &[(3, 1.5), (4, 1.0)]),
                form(0.0, &[(3, 1.5), (8, 2.0)]),
                -1.0,
            ),
            // k = 0 zeroes every product (cancellation fallback).
            (
                form(1.0, &[(0, 1.0)]),
                form(2.0, &[(0, 5.0), (1, 2.0)]),
                0.0,
            ),
            // Empty operands on either side.
            (form(4.0, &[]), form(1.0, &[(2, 1.0)]), 1.0),
            (form(4.0, &[(2, 1.0)]), form(1.0, &[]), 1.0),
        ];
        for (a, b, k) in cases {
            let reference = a.linear_combination(1.0, &b, k);
            let mut inplace = a.clone();
            inplace.add_scaled_assign(&b, k);
            assert_eq!(reference.mean().to_bits(), inplace.mean().to_bits());
            assert_eq!(
                reference.term_count(),
                inplace.term_count(),
                "{reference} vs {inplace}"
            );
            for (x, y) in reference.terms().zip(inplace.terms()) {
                assert_eq!(x.0, y.0);
                assert_eq!(x.1.to_bits(), y.1.to_bits());
            }
        }
    }

    #[test]
    fn add_scaled_terms_assign_updates_terms_and_fixes_nominal() {
        let cases: Vec<(CanonicalForm, CanonicalForm, f64)> = vec![
            // Pure update, insertions, mixed, and the cancellation
            // fallback path — mirroring the add_scaled_assign matrix.
            (
                form(1.25, &[(0, 1.0), (2, 2.0), (7, -0.5), (11, 3.0)]),
                form(-2.5, &[(2, -0.25), (11, 4.0)]),
                -1.7,
            ),
            (
                form(0.5, &[(2, 2.0), (7, -0.5)]),
                form(1.0, &[(0, 1.0), (4, 3.0), (9, -2.0)]),
                0.3,
            ),
            (
                form(0.0, &[(3, 1.5), (4, 1.0)]),
                form(7.0, &[(3, 1.5), (8, 2.0)]),
                -1.0,
            ),
        ];
        for (a, b, k) in cases {
            let mut full = a.clone();
            full.add_scaled_assign(&b, k);
            let mut terms_only = a.clone();
            terms_only.add_scaled_terms_assign(&b, k);
            // Nominal frozen, every term bit equal to the full kernel.
            assert_eq!(terms_only.mean().to_bits(), a.mean().to_bits());
            assert_eq!(terms_only.term_count(), full.term_count());
            for (x, y) in full.terms().zip(terms_only.terms()) {
                assert_eq!(x.0, y.0);
                assert_eq!(x.1.to_bits(), y.1.to_bits());
            }
        }
    }

    #[test]
    fn lin_comb_sub_into_matches_two_pass_chain_bitwise() {
        let a = form(1.25, &[(0, 1.0), (2, 2.0), (7, -0.5)]);
        let b = form(-2.5, &[(1, 3.0), (2, -2.0), (7, 0.5), (9, 4.0)]);
        let c = form(0.75, &[(0, 0.25), (2, -1.4), (8, 2.0), (9, 4.0)]);
        for (k1, k2) in [(1.0, -0.2), (1.0, 1.0), (0.3, 0.7)] {
            let legacy = a.linear_combination(k1, &b, k2).sub(&c);
            let mut out = form(99.0, &[(50, 123.0)]);
            out.lin_comb_sub_into(&a, k1, &b, k2, &c);
            assert_eq!(legacy.mean().to_bits(), out.mean().to_bits());
            assert_eq!(legacy.term_count(), out.term_count(), "{legacy} vs {out}");
            for (x, y) in legacy.terms().zip(out.terms()) {
                assert_eq!(x.0, y.0);
                assert_eq!(x.1.to_bits(), y.1.to_bits());
            }
        }
        // Exact cancellation in the intermediate (k1·a + k2·b ≡ 0 on id 7)
        // while c also carries id 7: the fused kernel must still match.
        let legacy = a.linear_combination(1.0, &b, 1.0).sub(&c);
        let mut out = CanonicalForm::default();
        out.lin_comb_sub_into(&a, 1.0, &b, 1.0, &c);
        assert_eq!(legacy, out);
    }

    #[test]
    fn sub_stats_matches_materialized_difference_bitwise() {
        let a = form(5.0, &[(0, 1.0), (2, 2.0), (7, -0.5)]);
        let b = form(4.0, &[(1, 3.0), (2, 2.0), (9, 4.0)]);
        let diff = a.sub(&b);
        let (dmu, var) = a.sub_stats(&b);
        assert_eq!(dmu.to_bits(), diff.mean().to_bits());
        assert_eq!(var.to_bits(), diff.variance().to_bits());
        // Shared source cancels exactly (id 2): still identical.
        let (_, var2) = a.sub_stats(&a);
        assert_eq!(var2.to_bits(), a.sub(&a).variance().to_bits());
    }

    #[test]
    fn copy_from_reuses_capacity() {
        let src = form(3.0, &[(0, 1.0), (5, 2.0)]);
        let mut dst = form(0.0, &[(1, 9.0), (2, 9.0), (3, 9.0)]);
        let cap = 3; // dst grew to at least 3 terms
        dst.copy_from(&src);
        assert_eq!(dst, src);
        assert!(dst.coeffs.capacity() >= cap);
    }

    #[test]
    fn display_is_nonempty() {
        let a = form(1.0, &[(0, -2.0)]);
        let s = format!("{a}");
        assert!(s.contains("X0"));
        assert!(!format!("{}", CanonicalForm::constant(0.0)).is_empty());
    }
}
