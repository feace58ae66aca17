//! Run-global term interning and lane-blocked batched kernels.
//!
//! The DP's sparse canonical forms pay a branchy sorted-merge per binary
//! operation. For workloads that evaluate moments over *whole solution
//! lists* — batched covariance, variance sweeps, representation
//! cross-checks — a denser layout wins: a per-run
//! [`TermInterner`] maps every live [`SourceId`] to a dense column index,
//! so a form becomes a fixed-stride `f64` row ([`ColumnForm`]) and a list
//! of forms becomes a contiguous row-major matrix ([`FormBatch`]) whose
//! reductions are flat slice sweeps.
//!
//! # Lane-block layout
//!
//! [`FormBatch`] stores every row padded to a multiple of [`LANES`]
//! (8 × `f64`), tail slots zeroed. The batched kernels then walk rows as
//! `chunks_exact(LANES)` blocks and accumulate into [`LANES`] independent
//! partial sums — straight-line, branch-free inner loops with no
//! cross-iteration dependence per lane, the exact shape LLVM's
//! auto-vectorizer turns into packed SIMD without any unsafe code or
//! fast-math flags. Zero slots are *not* skipped: a padding or absent
//! source contributes an exact `+0.0` product, which cannot change any
//! lane's partial sum.
//!
//! # Determinism contracts
//!
//! Two distinct contracts coexist here, and the difference matters:
//!
//! * **[`ColumnForm`] (single rows): sparse parity.** Its `variance`/
//!   `covariance` replay exactly the sparse sorted-walk fold of
//!   [`CanonicalForm`] — zero slots skipped, same order, same empty-sum
//!   sign — so round-tripping a form through the dense representation is
//!   a bitwise identity on every moment (pinned by the `determinism`
//!   suite in `varbuf-core`).
//! * **[`FormBatch`] (lane kernels): fixed lane schedule.** A lane
//!   reduction sums lane `l ∈ 0..8` over blocks, then combines the
//!   eight partials by the fixed halving tree
//!   `((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7))`. That order differs from
//!   the sparse sequential fold (floating-point addition does not
//!   reassociate), so batch results are **not** bit-equal to
//!   [`CanonicalForm`]'s — they are bit-equal to the *scalar reference
//!   kernels* [`lane_variance_ref`] / [`lane_dot_ref`] /
//!   [`lane_lin_comb_dot_ref`], which spell out the schedule in plain
//!   scalar code. Every optimized kernel is pinned against its reference
//!   across seeds by the `lane_kernels` property suite. Columns are
//!   still assigned in ascending [`SourceId`] order, so the *set* of
//!   products a kernel folds is exactly the sparse walk's.
//!
//! The DP engine itself never consumes lane-kernel moments — its pruning
//! and merging stay on the sparse forms — so the engine's own bitwise
//! oracles (`determinism`, `lishi_oracle`) are
//! unaffected by the schedule change.
//!
//! # Term-set interning
//!
//! Sibling solutions in a DP list overwhelmingly share term *sets* (the
//! same subtree sources, different coefficients): scattering each form
//! with a per-term binary search repeats identical id→column lookups.
//! [`ScatterPlanCache`] interns each distinct sorted id-set once and
//! caches its column-position plan, so every further form with the same
//! set scatters with a single hash probe and a flat indexed copy.
//!
//! # Arena lifetime
//!
//! Dense rows are recycled through a [`FormArena`]: `take` hands out a
//! zeroed row, `put` returns its buffer for reuse. The arena is per-run
//! scratch (one per worker, never shared), mirroring the `SolPool`
//! recycling discipline of the DP engine.

use crate::canonical::{CanonicalForm, SourceId};
use std::collections::HashMap;
use std::rc::Rc;

/// `f64` lanes per block: one AVX-512 register, two AVX2, four SSE2.
pub const LANES: usize = 8;

/// Folds the eight lane partials by the fixed halving tree
/// `((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7))` — the one reduction order
/// every lane kernel (optimized and reference alike) commits to.
#[inline]
#[must_use]
fn reduce_lanes(acc: [f64; LANES]) -> f64 {
    ((acc[0] + acc[4]) + (acc[2] + acc[6])) + ((acc[1] + acc[5]) + (acc[3] + acc[7]))
}

/// Scalar reference for the lane variance kernel: `Σ aᵢ²` accumulated
/// lane-by-lane over [`LANES`]-wide blocks (remainder elements fold into
/// lanes `0..rem`), reduced by [`reduce_lanes`]'s fixed tree.
///
/// This function *defines* the batched variance result: the optimized
/// [`FormBatch::variances_into`] sweep is pinned bit-for-bit against it.
/// An all-zero (or empty) row yields `+0.0` — unlike the sparse fold's
/// `-0.0` empty sum, one of the documented schedule differences.
#[must_use]
pub fn lane_variance_ref(row: &[f64]) -> f64 {
    let mut acc = [0.0f64; LANES];
    let chunks = row.chunks_exact(LANES);
    let tail = chunks.remainder();
    for block in chunks {
        for l in 0..LANES {
            acc[l] += block[l] * block[l];
        }
    }
    for (l, &x) in tail.iter().enumerate() {
        acc[l] += x * x;
    }
    reduce_lanes(acc)
}

/// Scalar reference for the lane dot-product kernel:
/// `Σ aᵢ·bᵢ` with the same blocking, tail folding, and reduction tree as
/// [`lane_variance_ref`]. Zero slots are folded, not skipped — their
/// products are exact `±0.0` and leave every `+0.0`-seeded lane partial
/// unchanged.
///
/// # Panics
///
/// Panics if the slices differ in length.
#[must_use]
pub fn lane_dot_ref(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "lane dot operands must match in length");
    let mut acc = [0.0f64; LANES];
    let ca = a.chunks_exact(LANES);
    let tail_a = ca.remainder();
    let mut bs = b.chunks_exact(LANES);
    for block_a in ca {
        let block_b = bs.next().expect("equal lengths");
        for l in 0..LANES {
            acc[l] += block_a[l] * block_b[l];
        }
    }
    let tail_b = &b[b.len() - tail_a.len()..];
    for (l, (&x, &y)) in tail_a.iter().zip(tail_b).enumerate() {
        acc[l] += x * y;
    }
    reduce_lanes(acc)
}

/// Scalar reference for the fused lin-comb + covariance kernel: writes
/// `out[j] = k1·a[j] + k2·b[j]` and simultaneously folds
/// `Σ out[j]·probe[j]` with the lane schedule, in one logical pass — the
/// combined row never needs a second traversal to get its covariance.
///
/// # Panics
///
/// Panics if the slice lengths differ.
#[must_use]
pub fn lane_lin_comb_dot_ref(
    a: &[f64],
    k1: f64,
    b: &[f64],
    k2: f64,
    probe: &[f64],
    out: &mut [f64],
) -> f64 {
    assert_eq!(a.len(), b.len(), "lin-comb operands must match in length");
    assert_eq!(a.len(), probe.len(), "probe must match operand length");
    assert_eq!(a.len(), out.len(), "out must match operand length");
    let mut acc = [0.0f64; LANES];
    for (j, o) in out.iter_mut().enumerate() {
        let v = k1 * a[j] + k2 * b[j];
        *o = v;
        acc[j % LANES] += v * probe[j];
    }
    reduce_lanes(acc)
}

/// Scalar reference for the fused apply + variance kernel: writes
/// `dst[j] ← dst[j] + k·src[j]` and simultaneously folds `Σ dst[j]²`
/// of the *updated* row with the lane schedule — one logical pass where
/// the unfused pipeline would traverse the row twice. This is the dense
/// analogue of the lazy-wire materialization step
/// `rat ← rat − (Σrᵢ)·load` followed by a σ read: applying a deferred
/// affine transform to a whole solution list batches into exactly this
/// shape, one row per solution.
///
/// # Panics
///
/// Panics if the slice lengths differ.
pub fn lane_axpy_var_ref(dst: &mut [f64], src: &[f64], k: f64) -> f64 {
    assert_eq!(dst.len(), src.len(), "axpy operands must match in length");
    let mut acc = [0.0f64; LANES];
    for (j, d) in dst.iter_mut().enumerate() {
        let v = *d + k * src[j];
        *d = v;
        acc[j % LANES] += v * v;
    }
    reduce_lanes(acc)
}

/// A run-global map from sparse [`SourceId`]s to dense column indices.
///
/// Built once per optimization run from the enumerable universe of
/// sources a net can touch. Columns are assigned in ascending id order
/// (see the module docs for why that matters).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TermInterner {
    /// Column → id, strictly ascending.
    ids: Vec<SourceId>,
}

impl TermInterner {
    /// Builds an interner from an arbitrary iterator of source ids
    /// (sorted and deduplicated internally).
    #[must_use]
    pub fn new(sources: impl IntoIterator<Item = SourceId>) -> Self {
        let mut ids: Vec<SourceId> = sources.into_iter().collect();
        ids.sort_unstable();
        ids.dedup();
        Self { ids }
    }

    /// Builds an interner from ids that are already strictly ascending.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if the input is not strictly ascending.
    #[must_use]
    pub fn from_sorted(ids: Vec<SourceId>) -> Self {
        debug_assert!(
            ids.windows(2).all(|w| w[0] < w[1]),
            "interner ids must be strictly ascending"
        );
        Self { ids }
    }

    /// Number of interned columns.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the interner is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The dense column of `id`, or `None` if it was never interned.
    #[must_use]
    pub fn column(&self, id: SourceId) -> Option<usize> {
        self.ids.binary_search(&id).ok()
    }

    /// The source id stored at `col`.
    ///
    /// # Panics
    ///
    /// Panics if `col >= self.len()`.
    #[must_use]
    pub fn id(&self, col: usize) -> SourceId {
        self.ids[col]
    }

    /// The interned ids in column (ascending) order.
    #[must_use]
    pub fn ids(&self) -> &[SourceId] {
        &self.ids
    }
}

/// Interns distinct sorted term *sets* and caches their column-position
/// scatter plans (see the module docs: sibling solutions share sets far
/// more often than they share coefficients).
///
/// One cache per batch-building site — like the arena, per-run scratch.
#[derive(Debug, Default)]
pub struct ScatterPlanCache {
    plans: HashMap<Box<[SourceId]>, Rc<[u32]>>,
    hits: usize,
    misses: usize,
}

impl ScatterPlanCache {
    /// Creates an empty cache.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The column-position plan for `ids` under `interner`: `plan[t]` is
    /// the dense column of `ids[t]`. Computed (with one binary search
    /// per term) only the first time a given id-set is seen; every
    /// further form sharing the set gets the cached plan from a single
    /// hash probe.
    ///
    /// # Panics
    ///
    /// Panics if any id is outside the interner.
    #[must_use]
    pub fn plan(&mut self, interner: &TermInterner, ids: &[SourceId]) -> Rc<[u32]> {
        if let Some(plan) = self.plans.get(ids) {
            self.hits += 1;
            return Rc::clone(plan);
        }
        self.misses += 1;
        let plan: Rc<[u32]> = ids
            .iter()
            .map(|&id| {
                interner
                    .column(id)
                    .expect("form references a source outside the interner") as u32
            })
            .collect();
        self.plans.insert(ids.into(), Rc::clone(&plan));
        plan
    }

    /// Number of distinct id-sets interned so far.
    #[must_use]
    pub fn distinct_sets(&self) -> usize {
        self.plans.len()
    }

    /// Number of `plan` calls answered from the cache.
    #[must_use]
    pub fn hits(&self) -> usize {
        self.hits
    }

    /// Number of `plan` calls that had to intern a new id-set (equals
    /// [`distinct_sets`](Self::distinct_sets) — kept as a counter so
    /// hit-rate math never touches the map).
    #[must_use]
    pub fn misses(&self) -> usize {
        self.misses
    }

    /// Total `plan` calls (hits + misses).
    #[must_use]
    pub fn lookups(&self) -> usize {
        self.hits + self.misses
    }
}

/// A canonical form in dense column representation: `nominal` plus one
/// coefficient slot per interned column (0.0 = source absent).
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnForm {
    nominal: f64,
    cols: Vec<f64>,
}

impl ColumnForm {
    /// Scatters a sparse form into dense columns.
    ///
    /// # Panics
    ///
    /// Panics if the form references a source the interner doesn't know.
    #[must_use]
    pub fn from_canonical(interner: &TermInterner, form: &CanonicalForm) -> Self {
        let mut out = Self {
            nominal: form.mean(),
            cols: vec![0.0; interner.len()],
        };
        out.scatter(interner, form);
        out
    }

    /// Re-scatters `form` into this row, reusing the buffer.
    ///
    /// # Panics
    ///
    /// Panics if the form references a source the interner doesn't know.
    pub fn scatter(&mut self, interner: &TermInterner, form: &CanonicalForm) {
        self.cols.clear();
        self.cols.resize(interner.len(), 0.0);
        self.nominal = form.mean();
        for (id, a) in form.terms() {
            let col = interner
                .column(id)
                .expect("form references a source outside the interner");
            self.cols[col] = a;
        }
    }

    /// Gathers the row back into a sparse canonical form.
    ///
    /// Bitwise identical to the original: nonzero columns are emitted in
    /// column order, which is ascending id order.
    #[must_use]
    pub fn to_canonical(&self, interner: &TermInterner) -> CanonicalForm {
        let terms: Vec<(SourceId, f64)> = self
            .cols
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c != 0.0)
            .map(|(col, &c)| (interner.id(col), c))
            .collect();
        CanonicalForm::with_terms(self.nominal, terms)
    }

    /// The nominal (mean) value.
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.nominal
    }

    /// Variance `Σ aᵢ²` over the dense row — **sparse parity**: zero
    /// slots are skipped, so the fold sees exactly the sparse term
    /// sequence and matches [`CanonicalForm::variance`] bitwise.
    #[must_use]
    pub fn variance(&self) -> f64 {
        self.cols
            .iter()
            .filter(|&&a| a != 0.0)
            .map(|&a| a * a)
            .sum()
    }

    /// Covariance against another row of the same width — **sparse
    /// parity**: only slots nonzero in *both* rows (the shared sources)
    /// contribute, folded from `0.0` exactly like the sparse walk in
    /// [`CanonicalForm::covariance`].
    ///
    /// # Panics
    ///
    /// Panics if the rows come from different-width interners.
    #[must_use]
    pub fn covariance(&self, other: &Self) -> f64 {
        assert_eq!(self.cols.len(), other.cols.len(), "interner width mismatch");
        let mut cov = 0.0;
        for (&x, &y) in self.cols.iter().zip(&other.cols) {
            if x != 0.0 && y != 0.0 {
                cov += x * y;
            }
        }
        cov
    }

    /// The dense coefficient row.
    #[must_use]
    pub fn columns(&self) -> &[f64] {
        &self.cols
    }
}

/// Recycles [`ColumnForm`] buffers, the dense analogue of the DP's
/// solution pool. Per-run scratch — never shared between workers.
#[derive(Debug, Default)]
pub struct FormArena {
    spare: Vec<Vec<f64>>,
}

impl FormArena {
    /// Spare rows to retain; beyond this, returned rows really are freed.
    const KEEP: usize = 32;

    /// Creates an empty arena.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// A zeroed row sized to `interner`, reusing a spare buffer if one
    /// is available.
    #[must_use]
    pub fn take(&mut self, interner: &TermInterner) -> ColumnForm {
        let mut cols = self.spare.pop().unwrap_or_default();
        cols.clear();
        cols.resize(interner.len(), 0.0);
        ColumnForm { nominal: 0.0, cols }
    }

    /// Returns a row's buffer to the arena.
    pub fn put(&mut self, form: ColumnForm) {
        if self.spare.len() < Self::KEEP && form.cols.capacity() > 0 {
            self.spare.push(form.cols);
        }
    }

    /// Number of spare buffers currently held.
    #[must_use]
    pub fn spare_count(&self) -> usize {
        self.spare.len()
    }
}

/// A solution list's forms in lane-blocked SoA layout: nominals
/// contiguous, coefficient rows contiguous row-major with each row
/// padded to a [`LANES`] multiple (zero tail), so every batched kernel
/// walks whole `chunks_exact(LANES)` blocks with no remainder branch.
#[derive(Debug, Clone, Default)]
pub struct FormBatch {
    /// Logical row width (interner columns).
    width: usize,
    /// Physical row stride: `width` rounded up to a [`LANES`] multiple.
    stride: usize,
    nominals: Vec<f64>,
    rows: Vec<f64>,
}

impl FormBatch {
    /// An empty batch over `interner`'s column space.
    #[must_use]
    pub fn new(interner: &TermInterner) -> Self {
        let width = interner.len();
        Self {
            width,
            stride: width.div_ceil(LANES) * LANES,
            nominals: Vec::new(),
            rows: Vec::new(),
        }
    }

    /// Clears the batch, retaining capacity, and rebinds it to
    /// `interner`'s width.
    pub fn reset(&mut self, interner: &TermInterner) {
        self.width = interner.len();
        self.stride = self.width.div_ceil(LANES) * LANES;
        self.nominals.clear();
        self.rows.clear();
    }

    /// Appends one sparse form as a dense row (zero-padded to the lane
    /// stride), locating each term's column by binary search.
    ///
    /// # Panics
    ///
    /// Panics if the form references a source outside the interner.
    pub fn push(&mut self, interner: &TermInterner, form: &CanonicalForm) {
        assert_eq!(interner.len(), self.width, "interner width mismatch");
        self.nominals.push(form.mean());
        let start = self.rows.len();
        self.rows.resize(start + self.stride, 0.0);
        let row = &mut self.rows[start..];
        for (id, a) in form.terms() {
            let col = interner
                .column(id)
                .expect("form references a source outside the interner");
            row[col] = a;
        }
    }

    /// [`push`](Self::push) through a [`ScatterPlanCache`]: the form's
    /// id-set is interned once and its column plan reused, so sibling
    /// forms sharing a term set scatter without any per-term search.
    /// Produces bit-identical rows to `push`.
    ///
    /// # Panics
    ///
    /// Panics if the form references a source outside the interner.
    pub fn push_interned(
        &mut self,
        interner: &TermInterner,
        cache: &mut ScatterPlanCache,
        form: &CanonicalForm,
    ) {
        assert_eq!(interner.len(), self.width, "interner width mismatch");
        let plan = cache.plan(interner, form.term_ids());
        self.nominals.push(form.mean());
        let start = self.rows.len();
        self.rows.resize(start + self.stride, 0.0);
        let row = &mut self.rows[start..];
        for (&col, &a) in plan.iter().zip(form.term_coeffs()) {
            row[col as usize] = a;
        }
    }

    /// Number of rows in the batch.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nominals.len()
    }

    /// Whether the batch has no rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nominals.is_empty()
    }

    /// The contiguous nominal values.
    #[must_use]
    pub fn means(&self) -> &[f64] {
        &self.nominals
    }

    /// One logical row (padding slots excluded).
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    #[must_use]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.rows[i * self.stride..i * self.stride + self.width]
    }

    /// One physical row including its zeroed lane padding.
    fn row_padded(&self, i: usize) -> &[f64] {
        &self.rows[i * self.stride..(i + 1) * self.stride]
    }

    /// Batched lane variance: `out[i] = Σⱼ row[i][j]²` for every row,
    /// one branch-free blocked pass over the matrix. Bitwise identical
    /// to [`lane_variance_ref`] per row (padding zeros contribute exact
    /// `+0.0` to the same lanes the reference's tail fold uses).
    pub fn variances_into(&self, out: &mut Vec<f64>) {
        out.clear();
        out.extend((0..self.len()).map(|i| {
            let mut acc = [0.0f64; LANES];
            for block in self.row_padded(i).chunks_exact(LANES) {
                for l in 0..LANES {
                    acc[l] += block[l] * block[l];
                }
            }
            reduce_lanes(acc)
        }));
    }

    /// Batched lane covariance against a probe row:
    /// `out[i] = Σⱼ row[i][j]·probe[j]`, one branch-free blocked pass.
    /// Bitwise identical to [`lane_dot_ref`] of each logical row against
    /// `probe.columns()`.
    ///
    /// # Panics
    ///
    /// Panics if `probe`'s width differs from the batch's.
    pub fn covariances_with_into(&self, probe: &ColumnForm, out: &mut Vec<f64>) {
        assert_eq!(probe.cols.len(), self.width, "interner width mismatch");
        out.clear();
        let full = self.width / LANES * LANES;
        out.extend((0..self.len()).map(|i| {
            let row = self.row_padded(i);
            let mut acc = [0.0f64; LANES];
            let mut pb = probe.cols.chunks_exact(LANES);
            for block in row[..full].chunks_exact(LANES) {
                let p = pb.next().expect("probe width checked");
                for l in 0..LANES {
                    acc[l] += block[l] * p[l];
                }
            }
            for (l, (&x, &y)) in row[full..self.width]
                .iter()
                .zip(&probe.cols[full..])
                .enumerate()
            {
                acc[l] += x * y;
            }
            reduce_lanes(acc)
        }));
    }

    /// Fused lin-comb + covariance: appends the combined row
    /// `k1·row[i] + k2·row[j]` to the batch (its nominal is
    /// `k1·mean[i] + k2·mean[j]`) and returns its lane covariance
    /// against the existing row `probe` — one pass produces both the
    /// row and the moment, where the unfused pipeline would traverse
    /// the fresh row twice. Bitwise identical to
    /// [`lane_lin_comb_dot_ref`] over the padded rows.
    ///
    /// # Panics
    ///
    /// Panics if `i`, `j`, or `probe` are out of range.
    pub fn lin_comb_cov_push(&mut self, i: usize, k1: f64, j: usize, k2: f64, probe: usize) -> f64 {
        assert!(
            i < self.len() && j < self.len() && probe < self.len(),
            "row out of range"
        );
        self.nominals
            .push(k1 * self.nominals[i] + k2 * self.nominals[j]);
        let start = self.rows.len();
        self.rows.resize(start + self.stride, 0.0);
        let (head, out) = self.rows.split_at_mut(start);
        let a = &head[i * self.stride..i * self.stride + self.stride];
        let b = &head[j * self.stride..j * self.stride + self.stride];
        let p = &head[probe * self.stride..probe * self.stride + self.stride];
        let mut acc = [0.0f64; LANES];
        for (blk, ((oa, ob), op)) in out.chunks_exact_mut(LANES).zip(
            a.chunks_exact(LANES)
                .zip(b.chunks_exact(LANES))
                .zip(p.chunks_exact(LANES)),
        ) {
            for l in 0..LANES {
                let v = k1 * oa[l] + k2 * ob[l];
                blk[l] = v;
                acc[l] += v * op[l];
            }
        }
        reduce_lanes(acc)
    }

    /// Fused apply + variance: updates row `dst`'s coefficients in place
    /// to `row[dst] + k·row[src]` and returns the lane variance of the
    /// updated row from the same pass. The nominal is deliberately left
    /// untouched, mirroring `CanonicalForm::add_scaled_terms_assign`:
    /// this is the batch form of the lazy-wire materialization
    /// `rat ← rat − p·load` (terms only — the mean was folded eagerly at
    /// deferral time), and one call per solution applies the deferred
    /// transform *and* yields the σ² the very next consumer (the winner
    /// key) would otherwise pay a second traversal for.
    /// Bitwise identical to [`lane_axpy_var_ref`] over the padded rows.
    ///
    /// # Panics
    ///
    /// Panics if `dst` or `src` is out of range, or if `dst == src`.
    pub fn apply_scaled_var(&mut self, dst: usize, src: usize, k: f64) -> f64 {
        assert!(dst < self.len() && src < self.len(), "row out of range");
        assert_ne!(dst, src, "in-place apply needs distinct rows");
        let (a, b) = (dst.min(src), dst.max(src));
        let (head, rest) = self.rows.split_at_mut(b * self.stride);
        let low = &mut head[a * self.stride..a * self.stride + self.stride];
        let high = &mut rest[..self.stride];
        let (d, s): (&mut [f64], &[f64]) = if dst < src { (low, high) } else { (high, low) };
        let mut acc = [0.0f64; LANES];
        for (blk_d, blk_s) in d.chunks_exact_mut(LANES).zip(s.chunks_exact(LANES)) {
            for l in 0..LANES {
                let v = blk_d[l] + k * blk_s[l];
                blk_d[l] = v;
                acc[l] += v * v;
            }
        }
        reduce_lanes(acc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    fn random_form(rng: &mut SplitMix64, universe: &[SourceId], max_terms: usize) -> CanonicalForm {
        let n = (rng.next_u64() as usize) % (max_terms + 1);
        let mut terms = Vec::with_capacity(n);
        for _ in 0..n {
            let id = universe[(rng.next_u64() as usize) % universe.len()];
            let coeff = rng.next_f64() * 4.0 - 2.0;
            terms.push((id, coeff));
        }
        CanonicalForm::with_terms(rng.next_f64() * 10.0 - 5.0, terms)
    }

    #[test]
    fn interner_assigns_ascending_columns() {
        let it = TermInterner::new([SourceId(9), SourceId(2), SourceId(5), SourceId(2)]);
        assert_eq!(it.len(), 3);
        assert_eq!(it.ids(), &[SourceId(2), SourceId(5), SourceId(9)]);
        assert_eq!(it.column(SourceId(5)), Some(1));
        assert_eq!(it.column(SourceId(7)), None);
        assert_eq!(it.id(2), SourceId(9));
    }

    #[test]
    fn column_roundtrip_is_bitwise_identity() {
        let mut rng = SplitMix64::new(42);
        let universe: Vec<SourceId> = (0..40).map(SourceId).collect();
        let it = TermInterner::new(universe.iter().copied());
        for _ in 0..50 {
            let f = random_form(&mut rng, &universe, 12);
            let dense = ColumnForm::from_canonical(&it, &f);
            let back = dense.to_canonical(&it);
            assert_eq!(back, f);
            assert_eq!(dense.mean().to_bits(), f.mean().to_bits());
            assert_eq!(dense.variance().to_bits(), f.variance().to_bits());
        }
    }

    #[test]
    fn dense_covariance_matches_sparse_bitwise() {
        let mut rng = SplitMix64::new(7);
        let universe: Vec<SourceId> = (0..32).map(|i| SourceId(i * 3)).collect();
        let it = TermInterner::new(universe.iter().copied());
        for _ in 0..50 {
            let a = random_form(&mut rng, &universe, 10);
            let b = random_form(&mut rng, &universe, 10);
            let da = ColumnForm::from_canonical(&it, &a);
            let db = ColumnForm::from_canonical(&it, &b);
            assert_eq!(da.covariance(&db).to_bits(), a.covariance(&b).to_bits());
        }
    }

    #[test]
    fn batch_kernels_match_lane_references_bitwise() {
        // Widths straddling the lane boundary: 7 (pure tail), 8 (exact),
        // 25 (blocks + tail) — the padding must be invisible.
        for &width in &[7u32, 8, 25, 48] {
            let mut rng = SplitMix64::new(u64::from(width) + 3);
            let universe: Vec<SourceId> = (0..width).map(SourceId).collect();
            let it = TermInterner::new(universe.iter().copied());
            let forms: Vec<CanonicalForm> = (0..20)
                .map(|_| random_form(&mut rng, &universe, width as usize / 2 + 1))
                .collect();
            let probe = random_form(&mut rng, &universe, width as usize / 2 + 1);

            let mut batch = FormBatch::new(&it);
            for f in &forms {
                batch.push(&it, f);
            }
            assert_eq!(batch.len(), forms.len());

            let mut vars = Vec::new();
            batch.variances_into(&mut vars);
            let mut covs = Vec::new();
            let dp = ColumnForm::from_canonical(&it, &probe);
            batch.covariances_with_into(&dp, &mut covs);
            for (i, f) in forms.iter().enumerate() {
                assert_eq!(batch.means()[i].to_bits(), f.mean().to_bits());
                assert_eq!(vars[i].to_bits(), lane_variance_ref(batch.row(i)).to_bits());
                assert_eq!(
                    covs[i].to_bits(),
                    lane_dot_ref(batch.row(i), dp.columns()).to_bits()
                );
            }
        }
    }

    #[test]
    fn fused_lin_comb_cov_matches_reference() {
        let mut rng = SplitMix64::new(99);
        let universe: Vec<SourceId> = (0..21).map(SourceId).collect();
        let it = TermInterner::new(universe.iter().copied());
        let mut batch = FormBatch::new(&it);
        for _ in 0..4 {
            batch.push(&it, &random_form(&mut rng, &universe, 12));
        }
        let (a, b, p) = (0, 1, 2);
        let stride = batch.row_padded(0).len();
        let mut out_ref = vec![0.0; stride];
        let want = lane_lin_comb_dot_ref(
            batch.row_padded(a),
            0.75,
            batch.row_padded(b),
            -1.25,
            batch.row_padded(p),
            &mut out_ref,
        );
        let got = batch.lin_comb_cov_push(a, 0.75, b, -1.25, p);
        assert_eq!(got.to_bits(), want.to_bits());
        let new = batch.len() - 1;
        for (x, y) in batch.row_padded(new).iter().zip(&out_ref) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        assert_eq!(
            batch.means()[new].to_bits(),
            (0.75 * batch.means()[a] + -1.25 * batch.means()[b]).to_bits()
        );
    }

    #[test]
    fn fused_apply_scaled_var_matches_reference() {
        // Widths straddling the lane boundary, both apply directions
        // (dst before and after src in the matrix).
        for &width in &[7u32, 8, 25] {
            let mut rng = SplitMix64::new(u64::from(width) * 31 + 5);
            let universe: Vec<SourceId> = (0..width).map(SourceId).collect();
            let it = TermInterner::new(universe.iter().copied());
            for &(dst, src) in &[(0usize, 1usize), (2, 0)] {
                let mut batch = FormBatch::new(&it);
                for _ in 0..3 {
                    batch.push(
                        &it,
                        &random_form(&mut rng, &universe, width as usize / 2 + 1),
                    );
                }
                let k = -(rng.next_f64() * 2.0 + 0.1);
                let mut want_row = batch.row_padded(dst).to_vec();
                let src_row = batch.row_padded(src).to_vec();
                let want_var = lane_axpy_var_ref(&mut want_row, &src_row, k);
                let mean_before = batch.means()[dst];
                let got_var = batch.apply_scaled_var(dst, src, k);
                assert_eq!(got_var.to_bits(), want_var.to_bits());
                assert_eq!(
                    batch.means()[dst].to_bits(),
                    mean_before.to_bits(),
                    "apply is terms-only: the nominal must not move"
                );
                for (x, y) in batch.row_padded(dst).iter().zip(&want_row) {
                    assert_eq!(x.to_bits(), y.to_bits());
                }
                // src is untouched.
                for (x, y) in batch.row_padded(src).iter().zip(&src_row) {
                    assert_eq!(x.to_bits(), y.to_bits());
                }
            }
        }
    }

    #[test]
    fn scatter_plan_cache_dedups_sibling_term_sets() {
        let universe: Vec<SourceId> = (0..16).map(SourceId).collect();
        let it = TermInterner::new(universe.iter().copied());
        let mut cache = ScatterPlanCache::new();
        // Five "siblings": same term set, different coefficients.
        let siblings: Vec<CanonicalForm> = (0..5)
            .map(|k| {
                CanonicalForm::with_terms(
                    f64::from(k),
                    [1u32, 4, 9, 13]
                        .iter()
                        .map(|&i| (SourceId(i), 0.5 + f64::from(k) * 0.1))
                        .collect(),
                )
            })
            .collect();
        let mut plain = FormBatch::new(&it);
        let mut interned = FormBatch::new(&it);
        for f in &siblings {
            plain.push(&it, f);
            interned.push_interned(&it, &mut cache, f);
        }
        assert_eq!(cache.distinct_sets(), 1, "one shared set interned once");
        assert_eq!(cache.hits(), 4, "four forms reused the plan");
        for i in 0..siblings.len() {
            assert_eq!(plain.means()[i].to_bits(), interned.means()[i].to_bits());
            for (x, y) in plain.row(i).iter().zip(interned.row(i)) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn arena_recycles_rows() {
        let it = TermInterner::new((0..8).map(SourceId));
        let mut arena = FormArena::new();
        let a = arena.take(&it);
        assert_eq!(a.columns(), &[0.0; 8]);
        arena.put(a);
        assert_eq!(arena.spare_count(), 1);
        let b = arena.take(&it);
        assert_eq!(arena.spare_count(), 0);
        assert_eq!(b.columns().len(), 8);
    }

    #[test]
    fn empty_width_batch_is_sound() {
        let it = TermInterner::new(std::iter::empty());
        let mut batch = FormBatch::new(&it);
        batch.push(&it, &CanonicalForm::constant(2.0));
        batch.push(&it, &CanonicalForm::constant(3.0));
        let mut vars = Vec::new();
        batch.variances_into(&mut vars);
        assert_eq!(vars, vec![0.0, 0.0]);
        let probe = ColumnForm::from_canonical(&it, &CanonicalForm::constant(1.0));
        let mut covs = Vec::new();
        batch.covariances_with_into(&probe, &mut covs);
        assert_eq!(covs, vec![0.0, 0.0]);
    }
}
