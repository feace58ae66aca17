//! First-order canonical forms over independent standard normals.
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
//! the coefficient vectors, taken in ascending [`SourceId`] order.
//!
//! # Memory layout
//!
//! A form keeps its terms in two parts.
//!
//! * **Region window.** The spatially correlated sources of eqs.
//!   (19)–(24) are the cells of a row-major [`Grid`] of consecutive ids.
//!   A form stores its region terms densely: the bounding rectangle of
//!   the cells it carries (origin row and column, width), one `f64` per
//!   cell, row by row, with an exact zero marking a cell it does not
//!   carry (a hole). Each device's ~2 mm taper covers ~48 cells of a
//!   ~9 × 9 square, and the sums the DP builds from nearby devices fill
//!   most of their rectangle, so a window spends 8 bytes per term
//!   instead of 12 and every kernel runs it as straight row loops with
//!   no id comparisons.
//! * **Sparse tail.** Every other term — the global source, the
//!   per-device random sources, and every term of a form built without a
//!   grid ([`with_terms`](CanonicalForm::with_terms)) — is stored
//!   **structure-of-arrays**: one `Vec<SourceId>` of sorted ids and one
//!   parallel `Vec<f64>` of coefficients. A form with no region terms
//!   (D2D, nominal, constants) allocates no window.
//!
//! Row-major cell order is ascending id order, and a gridded form's tail
//! never holds one of its grid's cells, so the tail ids below the grid,
//! then the window, then the tail ids above it enumerate the terms in
//! ascending order. The kernels compute the same floating-point
//! operation per term as a sorted merge over that order: a product
//! against a hole is masked to zero rather than taken, an exact-zero
//! result becomes a hole as the sparse path drops it, and the
//! reductions (variance, covariance, [`sub_stats`](CanonicalForm::sub_stats))
//! add the same terms in the same order, folding a hole in as `−0.0`,
//! which leaves every sum bit for bit unchanged. Operands on different
//! grids, or a gridless operand that carries cells of the other's grid
//! in its tail, are combined as sparse copies.

use crate::gaussian::{norm_cdf, norm_quantile, prob_at_least_normal};
use std::cell::RefCell;
use std::fmt;

thread_local! {
    /// Matched-position scratch for the tail's `add_scaled` pass:
    /// pass 1 records the index at which each of `other`'s sources landed
    /// so the no-insertion update pass is a direct scatter instead of a
    /// second, identical probe walk over `self`'s id array.
    static ASA_POSITIONS: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

/// Identifier of one independent `N(0, 1)` variation source.
///
/// Ids are allocated by the process-variation model: id conventions (global
/// inter-die source, spatial region sources, per-device random sources) live
/// in `varbuf-variation`; this crate treats ids as opaque, apart from the
/// [`Grid`] a form's region terms are laid out on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SourceId(pub u32);

impl fmt::Display for SourceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "X{}", self.0)
    }
}

/// A row-major grid of consecutive source ids — the die's spatial
/// regions: cell `(row, col)` is source `base + row·cols + col`.
///
/// Forms whose region terms lie on the same grid combine window against
/// window (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Grid {
    base: u32,
    cols: u32,
    rows: u32,
}

impl Grid {
    /// A `cols × rows` grid whose cell `(0, 0)` is source `base`.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero or the grid's ids overflow
    /// `u32`.
    #[must_use]
    pub fn new(base: SourceId, cols: usize, rows: usize) -> Self {
        let dim = |n: usize| u32::try_from(n).ok().filter(|&n| n > 0);
        let (Some(c), Some(r)) = (dim(cols), dim(rows)) else {
            panic!("grid dimensions {cols} x {rows} must be positive and fit u32");
        };
        assert!(
            c.checked_mul(r)
                .and_then(|n| base.0.checked_add(n))
                .is_some(),
            "grid ids overflow u32"
        );
        Self {
            base: base.0,
            cols: c,
            rows: r,
        }
    }

    /// The source of cell `(row, col)`.
    #[inline]
    #[must_use]
    pub fn id(self, row: usize, col: usize) -> SourceId {
        debug_assert!(row < self.rows as usize && col < self.cols as usize);
        SourceId(self.base + row as u32 * self.cols + col as u32)
    }

    /// One past the last cell's id.
    #[inline]
    fn end(self) -> u32 {
        self.base + self.cols * self.rows
    }

    /// Whether `id` is one of the grid's cells.
    #[inline]
    fn contains(self, id: SourceId) -> bool {
        (self.base..self.end()).contains(&id.0)
    }
}

/// A rectangle of grid cells: rows `row..row + height`, columns
/// `col..col + width`. Empty exactly when both extents are zero.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Rect {
    row: u32,
    col: u32,
    width: u32,
    height: u32,
}

impl Rect {
    #[inline]
    fn is_empty(self) -> bool {
        self.width == 0
    }

    #[inline]
    fn cells(self) -> usize {
        self.width as usize * self.height as usize
    }

    #[inline]
    fn row_end(self) -> u32 {
        self.row + self.height
    }

    #[inline]
    fn col_end(self) -> u32 {
        self.col + self.width
    }

    /// The bounding rectangle of both.
    fn union(self, other: Self) -> Self {
        if other.is_empty() {
            return self;
        }
        if self.is_empty() {
            return other;
        }
        let (row, col) = (self.row.min(other.row), self.col.min(other.col));
        Self {
            row,
            col,
            width: self.col_end().max(other.col_end()) - col,
            height: self.row_end().max(other.row_end()) - row,
        }
    }

    /// The cells both cover.
    fn intersect(self, other: Self) -> Self {
        let (row, col) = (self.row.max(other.row), self.col.max(other.col));
        let (row_end, col_end) = (
            self.row_end().min(other.row_end()),
            self.col_end().min(other.col_end()),
        );
        if row_end <= row || col_end <= col {
            return Self::default();
        }
        Self {
            row,
            col,
            width: col_end - col,
            height: row_end - row,
        }
    }

    fn contains(self, other: Self) -> bool {
        other.is_empty()
            || (self.row <= other.row
                && self.col <= other.col
                && other.row_end() <= self.row_end()
                && other.col_end() <= self.col_end())
    }
}

/// `k·c` for a stored cell, and a hole (`0.0`) for a hole: a product
/// against a hole is never taken, so a non-finite `k` cannot turn an
/// absent term into a NaN.
#[inline]
fn scale_cell(c: f64, k: f64) -> f64 {
    if c != 0.0 {
        k * c
    } else {
        0.0
    }
}

/// The square a reduction adds for difference `d`: `d²`, or `−0.0` —
/// the identity of IEEE addition — where the sparse walk adds nothing.
#[inline]
fn square_or_skip(d: f64) -> f64 {
    if d != 0.0 {
        d * d
    } else {
        -0.0
    }
}

/// A form's region terms: the cells of `rect` on `grid`, row-major, an
/// exact zero marking a hole.
///
/// Invariants: `cells.len() == rect.cells()` (so an empty rectangle
/// holds no cells), `nnz` counts the nonzero cells, and an empty
/// rectangle is all a window with no nonzero cell keeps.
#[derive(Debug, Clone)]
struct Window {
    grid: Grid,
    rect: Rect,
    nnz: usize,
    cells: Vec<f64>,
}

/// The window of a form with no region terms.
static NO_WINDOW: Window = Window {
    grid: Grid {
        base: 0,
        cols: 0,
        rows: 0,
    },
    rect: Rect {
        row: 0,
        col: 0,
        width: 0,
        height: 0,
    },
    nnz: 0,
    cells: Vec::new(),
};

/// A form's region window, boxed so that a form without region terms
/// is one pointer wider than its tail and allocates nothing. A recycled
/// form keeps its box, possibly empty, for the next write; only a window
/// with cells puts the form on its grid.
#[derive(Debug, Default)]
struct Regions(Option<Box<Window>>);

impl Regions {
    #[inline]
    fn get(&self) -> &Window {
        self.0.as_deref().unwrap_or(&NO_WINDOW)
    }

    /// The grid the form is laid out on: `None` without region terms.
    #[inline]
    fn grid(&self) -> Option<Grid> {
        self.0.as_deref().filter(|w| w.nnz > 0).map(|w| w.grid)
    }

    #[inline]
    fn nnz(&self) -> usize {
        self.0.as_deref().map_or(0, |w| w.nnz)
    }

    /// The window to write, on `grid`, boxed on first use.
    fn make(&mut self, grid: Grid) -> &mut Window {
        let win = self.0.get_or_insert_with(|| {
            Box::new(Window {
                grid,
                ..NO_WINDOW.clone()
            })
        });
        win.grid = grid;
        win
    }

    /// Drops every region term, keeping any box for reuse.
    fn clear(&mut self) {
        if let Some(win) = &mut self.0 {
            win.empty();
        }
    }
}

/// A clone allocates a window only for a form with region terms.
impl Clone for Regions {
    fn clone(&self) -> Self {
        Self(self.0.as_ref().filter(|w| w.nnz > 0).cloned())
    }
}

impl Window {
    /// Drops every cell, keeping the buffer's capacity.
    fn empty(&mut self) {
        self.rect = Rect::default();
        self.nnz = 0;
        self.cells.clear();
    }

    /// Recounts the nonzero cells, emptying a window that has none.
    fn count(&mut self) {
        self.nnz = self.cells.iter().filter(|&&c| c != 0.0).count();
        if self.nnz == 0 {
            self.empty();
        }
    }

    /// Grid row `r` as `(first column, cells)`, if the window covers it.
    #[inline]
    fn row(&self, r: u32) -> Option<(u32, &[f64])> {
        if r < self.rect.row || r >= self.rect.row_end() {
            return None;
        }
        let width = self.rect.width as usize;
        let start = (r - self.rect.row) as usize * width;
        Some((self.rect.col, &self.cells[start..start + width]))
    }

    /// The cells of grid row `r`, columns `col..col + width`, which the
    /// window must cover.
    #[inline]
    fn span(&self, r: u32, col: u32, width: u32) -> &[f64] {
        let start = (r - self.rect.row) as usize * self.rect.width as usize
            + (col - self.rect.col) as usize;
        &self.cells[start..start + width as usize]
    }

    /// Mutable [`span`](Self::span).
    #[inline]
    fn span_mut(&mut self, r: u32, col: u32, width: u32) -> &mut [f64] {
        let start = (r - self.rect.row) as usize * self.rect.width as usize
            + (col - self.rect.col) as usize;
        &mut self.cells[start..start + width as usize]
    }

    /// The stored coefficient of `id`, one of the grid's cells (`0.0`
    /// for a hole or a cell outside the window).
    fn coeff(&self, id: SourceId) -> f64 {
        let offset = id.0 - self.grid.base;
        let (r, c) = (offset / self.grid.cols, offset % self.grid.cols);
        let rect = self.rect;
        if r < rect.row || r >= rect.row_end() || c < rect.col || c >= rect.col_end() {
            return 0.0;
        }
        match self.span(r, c, 1)[0] {
            x if x != 0.0 => x,
            _ => 0.0,
        }
    }

    /// The nonzero cells as `(id, coefficient)`, in ascending id order.
    fn terms(&self) -> impl Iterator<Item = (SourceId, f64)> + '_ {
        let width = self.rect.width as usize;
        let (row, col, grid) = (self.rect.row as usize, self.rect.col as usize, self.grid);
        self.cells
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c != 0.0)
            .map(move |(i, &c)| (grid.id(row + i / width, col + i % width), c))
    }

    fn copy_from(&mut self, src: &Self) {
        self.rect = src.rect;
        self.nnz = src.nnz;
        self.cells.clear();
        self.cells.extend_from_slice(&src.cells);
    }

    /// Overwrites the window with `Σ k·w` over `ops`, cell by cell in
    /// operand order: the rectangle becomes the operands' bounding box,
    /// zero-filled, and each operand's rows are added in. `0.0 + x` is
    /// `x` for every nonzero `x`, so a cell only one operand carries
    /// holds that operand's product exactly, and a cell two carry holds
    /// `k₁·a + k₂·b` — the sorted merge's expressions.
    fn combine(&mut self, ops: &[(&Self, f64)]) {
        self.rect = ops
            .iter()
            .fold(Rect::default(), |rect, (op, _)| rect.union(op.rect));
        self.cells.clear();
        self.cells.resize(self.rect.cells(), 0.0);
        for &(op, k) in ops {
            let r = op.rect;
            for row in r.row..r.row_end() {
                let src = op.span(row, r.col, r.width);
                for (d, &s) in self.span_mut(row, r.col, r.width).iter_mut().zip(src) {
                    *d += scale_cell(s, k);
                }
            }
        }
        self.count();
    }

    /// Adds `k·other` cell by cell in place, first growing the window to
    /// cover `other`'s rectangle.
    fn add_scaled(&mut self, other: &Self, k: f64) {
        let r = other.rect;
        if r.is_empty() {
            return;
        }
        if !self.rect.contains(r) {
            self.grow(r);
        }
        let mut nnz = self.nnz;
        for row in r.row..r.row_end() {
            let src = other.span(row, r.col, r.width);
            for (d, &s) in self.span_mut(row, r.col, r.width).iter_mut().zip(src) {
                let was = *d != 0.0;
                *d += scale_cell(s, k);
                nnz = nnz + usize::from(*d != 0.0) - usize::from(was);
            }
        }
        self.nnz = nnz;
        if nnz == 0 {
            self.empty();
        }
    }

    /// Widens the rectangle to the bounding box of itself and `other`,
    /// moving the rows in place and zero-filling the new cells.
    fn grow(&mut self, other: Rect) {
        let old = self.rect;
        if old.is_empty() {
            self.rect = other;
            self.cells.clear();
            self.cells.resize(other.cells(), 0.0);
            return;
        }
        let new = old.union(other);
        let (ow, nw) = (old.width as usize, new.width as usize);
        let (dr, dc) = ((old.row - new.row) as usize, (old.col - new.col) as usize);
        self.cells.resize(new.cells(), 0.0);
        // Last row first: row r lands at (r + dr)·nw + dc ≥ r·ow, past
        // the end of every row above it, which has not moved yet.
        for r in (0..old.height as usize).rev() {
            let src = r * ow;
            self.cells.copy_within(src..src + ow, (r + dr) * nw + dc);
        }
        let moved = dr..dr + old.height as usize;
        for (r, row) in self.cells.chunks_exact_mut(nw).enumerate() {
            if moved.contains(&r) {
                row[..dc].fill(0.0);
                row[dc + ow..].fill(0.0);
            } else {
                row.fill(0.0);
            }
        }
        self.rect = new;
    }

    /// Multiplies every stored cell by `k` in place.
    fn scale(&mut self, k: f64) {
        for c in &mut self.cells {
            *c = scale_cell(*c, k);
        }
        self.count();
    }

    /// Adds `Σ c²` over the cells to `var`, in row-major order.
    fn sum_squares(&self, var: &mut f64) {
        for &c in &self.cells {
            *var += square_or_skip(c);
        }
    }

    /// Adds `Σ (aᵢ − bᵢ)²` over the union of two windows' cells to
    /// `var`, in ascending id order. A cell only one window covers adds
    /// its square (`a − 0 = a`, `(0 − b)² = b²`), a hole on both sides or
    /// an exact cancellation adds nothing.
    fn diff_squares(var: &mut f64, a: &Self, b: &Self) {
        fn squares(var: &mut f64, cells: &[f64]) {
            for &c in cells {
                *var += square_or_skip(c);
            }
        }
        let union = a.rect.union(b.rect);
        for r in union.row..union.row_end() {
            let (x, y) = match (a.row(r), b.row(r)) {
                (None, None) => continue,
                (Some((_, cells)), None) | (None, Some((_, cells))) => {
                    squares(var, cells);
                    continue;
                }
                // Leftmost first: `(b − a)²` and `(a − b)²` are the same
                // bits, as rounding is sign-symmetric.
                (Some(x), Some(y)) if x.0 <= y.0 => (x, y),
                (Some(x), Some(y)) => (y, x),
            };
            let ((xc, xs), (yc, ys)) = (x, y);
            let x_end = xc + xs.len() as u32;
            let lead = (yc.min(x_end) - xc) as usize;
            squares(var, &xs[..lead]);
            let shared = x_end.min(yc + ys.len() as u32).saturating_sub(yc) as usize;
            for (&p, &q) in xs[lead..lead + shared].iter().zip(&ys[..shared]) {
                *var += square_or_skip(p - q);
            }
            squares(var, &xs[lead + shared..]);
            squares(var, &ys[shared..]);
        }
    }

    /// Adds `Σ aᵢ·bᵢ` over the cells both windows carry to `cov`, in
    /// ascending id order.
    fn dot(cov: &mut f64, a: &Self, b: &Self) {
        let both = a.rect.intersect(b.rect);
        for r in both.row..both.row_end() {
            let xs = a.span(r, both.col, both.width);
            let ys = b.span(r, both.col, both.width);
            for (&p, &q) in xs.iter().zip(ys) {
                *cov += if p != 0.0 && q != 0.0 { p * q } else { -0.0 };
            }
        }
    }
}

/// A borrowed run of sparse terms: strictly ascending ids and their
/// coefficients.
#[derive(Clone, Copy)]
struct Terms<'a> {
    ids: &'a [SourceId],
    coeffs: &'a [f64],
}

impl<'a> Terms<'a> {
    fn split(self, at: usize) -> (Self, Self) {
        let (ids_lo, ids_hi) = self.ids.split_at(at);
        let (coeffs_lo, coeffs_hi) = self.coeffs.split_at(at);
        (
            Self {
                ids: ids_lo,
                coeffs: coeffs_lo,
            },
            Self {
                ids: ids_hi,
                coeffs: coeffs_hi,
            },
        )
    }

    fn iter(self) -> impl Iterator<Item = (SourceId, f64)> + 'a {
        self.ids.iter().copied().zip(self.coeffs.iter().copied())
    }
}

/// A first-order canonical form `v0 + Σ aᵢ·Xᵢ`.
///
/// Invariant: the tail's `ids` are sorted strictly ascending with no
/// duplicates, `coeffs` is the parallel coefficient array (same length),
/// no tail coefficient is exactly zero, and a form laid out on a
/// [`Grid`] keeps every term on one of its cells in its window, never in
/// the tail (see the module docs).
///
/// ```
/// use varbuf_stats::canonical::{CanonicalForm, Grid, SourceId};
/// let a = CanonicalForm::with_terms(1.0, vec![(SourceId(0), 3.0), (SourceId(2), 4.0)]);
/// assert!((a.variance() - 25.0).abs() < 1e-12);
/// assert!((a.std_dev() - 5.0).abs() < 1e-12);
///
/// // The same terms with source 2 as cell (0, 1) of a 4 × 4 grid of
/// // ids 1..=16: the form is equal by value, whatever its layout.
/// let mut b = CanonicalForm::constant(1.0);
/// b.push_term(SourceId(0), 3.0);
/// b.set_regions(Grid::new(SourceId(1), 4, 4), 0, 1, 1, &[4.0], 1.0);
/// assert_eq!(a, b);
/// assert_eq!(b.term_count(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct CanonicalForm {
    nominal: f64,
    ids: Vec<SourceId>,
    coeffs: Vec<f64>,
    win: Regions,
}

impl CanonicalForm {
    /// A deterministic (variance-free) value.
    #[must_use]
    pub fn constant(nominal: f64) -> Self {
        Self {
            nominal,
            ids: Vec::new(),
            coeffs: Vec::new(),
            win: Regions::default(),
        }
    }

    /// Builds a gridless form (every term in the sparse tail) from a
    /// nominal value and a term list.
    ///
    /// The terms may be unsorted and may contain duplicates; duplicates are
    /// summed and zero coefficients dropped. Inputs that already satisfy
    /// the invariant (strictly ascending ids, no zero coefficients) skip
    /// the sort-and-compact pass entirely.
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
            win: Regions::default(),
        }
    }

    /// The nominal (mean) value `v0`.
    #[inline]
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.nominal
    }

    /// Iterates the nonzero sensitivity terms as `(id, coefficient)`
    /// pairs in ascending id order.
    pub fn terms(&self) -> impl Iterator<Item = (SourceId, f64)> + '_ {
        let (below, above) = self.tail_split(self.win.grid());
        below
            .iter()
            .chain(self.win.get().terms())
            .chain(above.iter())
    }

    /// Number of live (non-zero) sensitivity terms, without a scan.
    #[inline]
    #[must_use]
    pub fn term_count(&self) -> usize {
        self.ids.len() + self.win.nnz()
    }

    /// The coefficient of one source (zero if absent).
    #[must_use]
    pub fn coeff(&self, id: SourceId) -> f64 {
        if self.win.grid().is_some_and(|g| g.contains(id)) {
            return self.win.get().coeff(id);
        }
        match self.ids.binary_search(&id) {
            Ok(pos) => self.coeffs[pos],
            Err(_) => 0.0,
        }
    }

    /// The sparse tail.
    #[inline]
    fn tail(&self) -> Terms<'_> {
        Terms {
            ids: &self.ids,
            coeffs: &self.coeffs,
        }
    }

    /// The tail split at `grid`'s first cell: the terms that precede the
    /// window in id order and those that follow it (all of them precede
    /// it on a gridless layout).
    #[inline]
    fn tail_split(&self, grid: Option<Grid>) -> (Terms<'_>, Terms<'_>) {
        let below = match grid {
            Some(g) => self.ids.partition_point(|id| id.0 < g.base),
            None => self.ids.len(),
        };
        self.tail().split(below)
    }

    /// Whether the tail holds one of `grid`'s cells (a gridless form
    /// built with [`with_terms`](Self::with_terms) may).
    fn tail_meets(&self, grid: Grid) -> bool {
        let below = self.ids.partition_point(|id| id.0 < grid.base);
        self.ids.get(below).is_some_and(|&id| grid.contains(id))
    }

    /// The layout `forms` combine on cell by cell: `Some(grid)`, the one
    /// grid the gridded forms all share (`None` when no form has one),
    /// provided no gridless form's tail holds one of its cells. `None`
    /// when they do not fit one layout; the caller then combines
    /// [`sparse`](Self::sparse) copies.
    fn common_grid(forms: &[&Self]) -> Option<Option<Grid>> {
        let mut grids = [None; 3];
        for (slot, form) in grids.iter_mut().zip(forms) {
            *slot = form.win.grid();
        }
        let grids = &grids[..forms.len()];
        let Some(grid) = grids.iter().flatten().next().copied() else {
            return Some(None);
        };
        let fits = grids.iter().zip(forms).all(|(own, form)| match own {
            Some(own) => *own == grid,
            None => !form.tail_meets(grid),
        });
        fits.then_some(Some(grid))
    }

    /// The same terms with every one in the sparse tail.
    fn sparse(&self) -> Self {
        Self::with_terms(self.nominal, self.terms().collect())
    }

    /// Variance `Σ aᵢ²` (sources are i.i.d. standard normal).
    #[must_use]
    pub fn variance(&self) -> f64 {
        let (below, above) = self.tail_split(self.win.grid());
        let mut var = -0.0;
        for &a in below.coeffs {
            var += a * a;
        }
        self.win.get().sum_squares(&mut var);
        for &a in above.coeffs {
            var += a * a;
        }
        var
    }

    /// Whether every coefficient is at most `bound` in magnitude (`false`
    /// if one is NaN). One pass over the tail and the window's cells, in
    /// no particular order: a screen, not a reduction.
    #[must_use]
    pub fn coeffs_within(&self, bound: f64) -> bool {
        let within = |cs: &[f64]| cs.iter().fold(true, |ok, c| ok & (c.abs() <= bound));
        within(&self.coeffs) && within(&self.win.get().cells)
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
        let Some(grid) = Self::common_grid(&[self, other]) else {
            return self.sparse().covariance(&other.sparse());
        };
        let ((a_lo, a_hi), (b_lo, b_hi)) = (self.tail_split(grid), other.tail_split(grid));
        let mut cov = 0.0;
        sparse_dot(&mut cov, a_lo, b_lo);
        Window::dot(&mut cov, self.win.get(), other.win.get());
        sparse_dot(&mut cov, a_hi, b_hi);
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

    /// Scales the whole form (mean and sensitivities) by `k`; a product
    /// that underflows to zero is dropped.
    #[must_use]
    pub fn scaled(&self, k: f64) -> Self {
        if k == 0.0 {
            return Self::constant(0.0);
        }
        let mut out = self.clone();
        out.nominal *= k;
        out.ids.clear();
        out.coeffs.clear();
        append_scaled_run(&mut out.ids, &mut out.coeffs, &self.ids, &self.coeffs, k);
        if let Some(win) = &mut out.win.0 {
            win.scale(k);
        }
        out
    }

    /// Linear combination `k1·self + k2·other` as a new form.
    ///
    /// This is the workhorse of the DP key operations: wire-add, buffer-add
    /// and merge are all expressible through it. Runs in time linear in
    /// the operands' tails and windows.
    #[must_use]
    pub fn linear_combination(&self, k1: f64, other: &Self, k2: f64) -> Self {
        let mut out = Self::default();
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
    /// `a + (k·b)` in both). The window is updated cell by cell over
    /// `other`'s rectangle, growing first if `other` reaches outside it;
    /// the tail touches only `other`'s tail sources, each located by a
    /// galloping search, and falls back to the allocating path on the
    /// rare exact cancellation the canonical tail must drop.
    pub fn add_scaled_assign(&mut self, other: &Self, k: f64) {
        if Self::common_grid(&[self, other]).is_none() {
            *self = self.sparse().linear_combination(1.0, &other.sparse(), k);
            return;
        }
        sparse_add_scaled(&mut self.ids, &mut self.coeffs, other.tail(), k);
        if let Some(grid) = other.win.grid() {
            self.win.make(grid).add_scaled(other.win.get(), k);
        }
        self.nominal += k * other.nominal;
    }

    /// Adds `k · other`'s *sensitivity terms* into `self`, leaving the
    /// nominal untouched.
    ///
    /// This is the materialization kernel of the DP's lazy wire
    /// propagation: deferring a chain of wire couplings leaves the RAT's
    /// mean already correct (it was updated eagerly, segment by segment)
    /// while the term update collapses to a single
    /// `rat += (−Σrᵢ)·load` over the terms alone. The term arithmetic
    /// is exactly [`add_scaled_assign`](Self::add_scaled_assign), so a
    /// unit-length chain reproduces the eager kernel's term bits
    /// verbatim.
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

    /// Starts an in-place build: sets the nominal and clears the terms
    /// and the grid, keeping the buffers' capacity. Follow with
    /// [`push_term`](Self::push_term) for the tail, in ascending id
    /// order, and [`set_regions`](Self::set_regions) for the window; the
    /// result equals what [`with_terms`](Self::with_terms) builds from
    /// the same terms, bit for bit.
    pub fn reset(&mut self, nominal: f64) {
        self.nominal = nominal;
        self.ids.clear();
        self.coeffs.clear();
        self.win.clear();
    }

    /// Appends one tail term of an in-place build, dropping an exact zero
    /// as [`with_terms`](Self::with_terms) does. `id` must exceed every
    /// tail id already present and lie off the form's grid.
    pub fn push_term(&mut self, id: SourceId, coeff: f64) {
        debug_assert!(self.ids.last().is_none_or(|&last| last < id));
        debug_assert!(self.win.grid().is_none_or(|g| !g.contains(id)));
        if coeff != 0.0 {
            self.ids.push(id);
            self.coeffs.push(coeff);
        }
    }

    /// Writes the form's region terms: `k·weights[i]` for the cells of the
    /// `width`-wide rectangle whose top-left cell is `(row, col)` on
    /// `grid`, row-major. An exact-zero weight or product is a hole, so
    /// the terms are bitwise those [`with_terms`](Self::with_terms)
    /// keeps from the list of `(cell id, k·weight)` over the nonzero
    /// weights. Replaces any region terms the form had; its tail must
    /// hold none of `grid`'s cells.
    ///
    /// # Panics
    ///
    /// Panics if nonempty `weights` do not fill rows of a nonzero
    /// `width`, or the rectangle leaves the grid.
    pub fn set_regions(
        &mut self,
        grid: Grid,
        row: usize,
        col: usize,
        width: usize,
        weights: &[f64],
        k: f64,
    ) {
        assert!(
            weights.is_empty() || (width > 0 && weights.len().is_multiple_of(width)),
            "{} weights do not fill rows of width {width}",
            weights.len()
        );
        let height = weights.len().checked_div(width).unwrap_or(0);
        assert!(
            col + width <= grid.cols as usize && row + height <= grid.rows as usize,
            "window {width} x {height} at ({row}, {col}) leaves the grid"
        );
        debug_assert!(!self.tail_meets(grid));
        let win = self.win.make(grid);
        win.rect = if height == 0 {
            Rect::default()
        } else {
            Rect {
                row: row as u32,
                col: col as u32,
                width: width as u32,
                height: height as u32,
            }
        };
        win.cells.clear();
        win.cells.extend(weights.iter().map(|&w| scale_cell(w, k)));
        win.count();
    }

    /// Overwrites `self` with `src`, reusing `self`'s buffers.
    ///
    /// Bitwise equivalent to `*self = src.clone()` without the heap
    /// round trip once `self` has grown to its working size.
    pub fn copy_from(&mut self, src: &Self) {
        self.nominal = src.nominal;
        self.ids.clear();
        self.ids.extend_from_slice(&src.ids);
        self.coeffs.clear();
        self.coeffs.extend_from_slice(&src.coeffs);
        match src.win.grid() {
            Some(grid) => self.win.make(grid).copy_from(src.win.get()),
            None => self.win.clear(),
        }
    }

    /// In-place [`linear_combination`](Self::linear_combination):
    /// overwrites `self` with `k1·a + k2·b`.
    ///
    /// Produces bitwise-identical terms to the allocating version — the
    /// per-term arithmetic is the same; only the destination buffers are
    /// recycled.
    pub fn lin_comb_into(&mut self, a: &Self, k1: f64, b: &Self, k2: f64) {
        let Some(grid) = Self::common_grid(&[a, b]) else {
            self.lin_comb_into(&a.sparse(), k1, &b.sparse(), k2);
            return;
        };
        self.ids.clear();
        self.coeffs.clear();
        sparse_lin_comb(&mut self.ids, &mut self.coeffs, a.tail(), k1, b.tail(), k2);
        self.combine_windows(grid, &[(a, k1), (b, k2)]);
        self.nominal = k1 * a.nominal + k2 * b.nominal;
    }

    /// Overwrites the window with `Σ k·w` over the operands' windows on
    /// their common `grid` (none: no region terms).
    fn combine_windows(&mut self, grid: Option<Grid>, ops: &[(&Self, f64)]) {
        match grid {
            Some(grid) => {
                let mut wins = [(&NO_WINDOW, 0.0); 3];
                for (slot, &(form, k)) in wins.iter_mut().zip(ops) {
                    *slot = (form.win.get(), k);
                }
                self.win.make(grid).combine(&wins[..ops.len()]);
            }
            None => self.win.clear(),
        }
    }

    /// Fused buffer kernel: overwrites `self` with `(k1·a + k2·b) − c`.
    ///
    /// Bitwise identical to `a.linear_combination(k1, b, k2).sub(c)`:
    /// every surviving coefficient is grouped as
    /// `1.0·(k1·aᵢ + k2·bᵢ) + (−1.0)·cᵢ`, which IEEE-754
    /// round-to-nearest evaluates to the same bits as the two-pass chain
    /// (`1.0·x = x` and `x + (−y) = x − y` exactly, and a `±0.0`
    /// intermediate dropped by the two-pass version leaves `−cᵢ`, which
    /// `±0.0 − cᵢ` also yields for nonzero `cᵢ`). The window takes all
    /// three operands in one pass over their bounding box.
    pub fn lin_comb_sub_into(&mut self, a: &Self, k1: f64, b: &Self, k2: f64, c: &Self) {
        let Some(grid) = Self::common_grid(&[a, b, c]) else {
            self.lin_comb_into(a, k1, b, k2);
            self.add_scaled_assign(c, -1.0);
            return;
        };
        // The tail in two passes: the run-merged combination, then the
        // small subtrahend folded in by the galloping in-place kernel —
        // each bit-equal to its allocating reference.
        self.ids.clear();
        self.coeffs.clear();
        sparse_lin_comb(&mut self.ids, &mut self.coeffs, a.tail(), k1, b.tail(), k2);
        sparse_add_scaled(&mut self.ids, &mut self.coeffs, c.tail(), -1.0);
        self.combine_windows(grid, &[(a, k1), (b, k2), (c, -1.0)]);
        // `x + (−1.0)·c` is `x − c`, bit for bit.
        self.nominal = k1 * a.nominal + k2 * b.nominal;
        self.nominal -= c.nominal;
    }

    /// Mean and variance of `self − other` without materializing the
    /// difference form.
    ///
    /// Bitwise identical to `(self.sub(other).mean(),
    /// self.sub(other).variance())`: the walk visits the union of ids in
    /// the same ascending order and squares the same surviving
    /// coefficients. Exact cancellations are skipped rather than added,
    /// because the materialized path drops them via the nonzero filter —
    /// and `variance()`'s fold starts at `-0.0`, so a difference whose
    /// terms all cancel yields `-0.0`, which an unconditional `+= 0.0`
    /// would flip to `+0.0`.
    #[must_use]
    pub fn sub_stats(&self, other: &Self) -> (f64, f64) {
        let Some(grid) = Self::common_grid(&[self, other]) else {
            return self.sparse().sub_stats(&other.sparse());
        };
        let ((a_lo, a_hi), (b_lo, b_hi)) = (self.tail_split(grid), other.tail_split(grid));
        let mut var = -0.0;
        sparse_diff_squares(&mut var, a_lo, b_lo);
        Window::diff_squares(&mut var, self.win.get(), other.win.get());
        sparse_diff_squares(&mut var, a_hi, b_hi);
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
        let before = self.term_count();
        let mut w = 0usize;
        for r in 0..self.ids.len() {
            if self.coeffs[r].abs() >= cutoff {
                self.ids[w] = self.ids[r];
                self.coeffs[w] = self.coeffs[r];
                w += 1;
            }
        }
        self.ids.truncate(w);
        self.coeffs.truncate(w);
        if let Some(win) = &mut self.win.0 {
            for c in &mut win.cells {
                let kept = c.abs() >= cutoff;
                if !kept {
                    *c = 0.0;
                }
            }
            win.count();
        }
        before - self.term_count()
    }
}

impl Default for CanonicalForm {
    fn default() -> Self {
        Self::constant(0.0)
    }
}

/// Forms compare by value: nominal and terms, whatever their layout.
impl PartialEq for CanonicalForm {
    fn eq(&self, other: &Self) -> bool {
        self.nominal == other.nominal
            && self.term_count() == other.term_count()
            && self.terms().eq(other.terms())
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

/// Appends `k1·a + k2·b` to `ids`/`coeffs` in one sorted walk, dropping
/// exact zeros.
///
/// Run-chunked: sibling subtrees own disjoint device-id blocks (device
/// ids are keyed by node id, and node ids are assigned in DFS order), so
/// the operands interleave in long single-owner runs. The walk gallops
/// to the end of each run and bulk-appends it scaled — on the split
/// layout the scale loop is a vectorizable `out[r] = k·src[r]` over a
/// plain `f64` slice. The pushed values and their order are exactly the
/// one-term-at-a-time walk's.
fn sparse_lin_comb(
    ids: &mut Vec<SourceId>,
    coeffs: &mut Vec<f64>,
    a: Terms<'_>,
    k1: f64,
    b: Terms<'_>,
    k2: f64,
) {
    let (ia, ib) = (a.ids, b.ids);
    let (mut i, mut j) = (0, 0);
    while i < ia.len() && j < ib.len() {
        let (ida, idb) = (ia[i], ib[j]);
        match ida.cmp(&idb) {
            std::cmp::Ordering::Less => {
                let run = i + 1 + lower_bound(&ia[i + 1..], idb);
                append_scaled_run(ids, coeffs, &ia[i..run], &a.coeffs[i..run], k1);
                i = run;
            }
            std::cmp::Ordering::Greater => {
                let run = j + 1 + lower_bound(&ib[j + 1..], ida);
                append_scaled_run(ids, coeffs, &ib[j..run], &b.coeffs[j..run], k2);
                j = run;
            }
            std::cmp::Ordering::Equal => {
                let c = k1 * a.coeffs[i] + k2 * b.coeffs[j];
                if c != 0.0 {
                    ids.push(ida);
                    coeffs.push(c);
                }
                i += 1;
                j += 1;
            }
        }
    }
    append_scaled_run(ids, coeffs, &ia[i..], &a.coeffs[i..], k1);
    append_scaled_run(ids, coeffs, &ib[j..], &b.coeffs[j..], k2);
}

/// Adds `k·other` into the sparse terms `ids`/`coeffs` in place:
/// bitwise `1.0·self + k·other` through [`sparse_lin_comb`].
///
/// Probe strategy: galloping wins when `other` is much sparser than
/// `self`; at comparable densities (the wire-lift shape — a load whose
/// sources are mostly already in the RAT) a linear two-pointer advance
/// is branch-predictable and ~2× cheaper. The probe walk runs exactly
/// once: matched positions are recorded into a thread-local scratch so
/// the no-insert update is a direct scatter rather than a second
/// identical walk. New sources shift only the tail behind them; the rare
/// exact cancellation (a coefficient or fresh product landing on
/// `±0.0`, which the canonical representation must drop) falls back to
/// the allocating merge.
fn sparse_add_scaled(ids: &mut Vec<SourceId>, coeffs: &mut Vec<f64>, other: Terms<'_>, k: f64) {
    if other.ids.is_empty() {
        return;
    }
    let linear = other.ids.len() * 4 >= ids.len();
    ASA_POSITIONS.with(|scratch| {
        let mut pos = scratch.borrow_mut();
        pos.clear();
        // Pass 1 (read-only): find every `other` source, counting the
        // insertions and detecting cancellations.
        let mut inserts = 0usize;
        let mut cancels = false;
        let mut i = 0usize;
        for (j, &id) in other.ids.iter().enumerate() {
            if linear {
                while ids.get(i).is_some_and(|&ida| ida < id) {
                    i += 1;
                }
            } else {
                i += lower_bound(&ids[i..], id);
            }
            let cb = other.coeffs[j];
            match ids.get(i) {
                Some(&ida) if ida == id => {
                    if coeffs[i] + k * cb == 0.0 {
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
            let (mut new_ids, mut new_coeffs) = (Vec::new(), Vec::new());
            let own = Terms { ids, coeffs };
            sparse_lin_comb(&mut new_ids, &mut new_coeffs, own, 1.0, other, k);
            *ids = new_ids;
            *coeffs = new_coeffs;
            return;
        }
        if inserts == 0 {
            // Every source matched, and pass 1 already knows where:
            // scatter the updates straight to the recorded indices.
            for (j, &p) in pos.iter().enumerate() {
                coeffs[p as usize] += k * other.coeffs[j];
            }
            return;
        }
        // Backward merge into the grown tail: `w` never catches up with
        // the unread prefix because every remaining write covers at
        // least the remaining reads plus the pending insertions.
        let old = ids.len();
        ids.resize(old + inserts, other.ids[0]);
        coeffs.resize(old + inserts, 0.0);
        let (mut i, mut j) = (old as isize - 1, other.ids.len() as isize - 1);
        let mut w = (old + inserts) as isize - 1;
        while j >= 0 {
            let idb = other.ids[j as usize];
            let cb = other.coeffs[j as usize];
            if i >= 0 && ids[i as usize] > idb {
                ids[w as usize] = ids[i as usize];
                coeffs[w as usize] = coeffs[i as usize];
                i -= 1;
            } else if i >= 0 && ids[i as usize] == idb {
                let ca = coeffs[i as usize];
                ids[w as usize] = idb;
                coeffs[w as usize] = ca + k * cb;
                i -= 1;
                j -= 1;
            } else {
                ids[w as usize] = idb;
                coeffs[w as usize] = k * cb;
                j -= 1;
            }
            w -= 1;
        }
        debug_assert_eq!(w, i, "prefix below the last insertion is already in place");
    });
}

/// Adds `Σ (aᵢ − bᵢ)²` over the union of two sparse runs to `var`, in
/// ascending id order, skipping exact cancellations. Run-chunked like
/// [`sparse_lin_comb`]: unmatched ids come in long single-owner runs,
/// squared here in the same ascending order the one-term walk used
/// (`(−b)·(−b)` and `b·b` are the same bits, so the run loops square the
/// raw coefficients).
fn sparse_diff_squares(var: &mut f64, a: Terms<'_>, b: Terms<'_>) {
    let (ia, ib) = (a.ids, b.ids);
    let (mut i, mut j) = (0, 0);
    while i < ia.len() && j < ib.len() {
        let (ida, idb) = (ia[i], ib[j]);
        match ida.cmp(&idb) {
            std::cmp::Ordering::Less => {
                let run = i + 1 + lower_bound(&ia[i + 1..], idb);
                for &x in &a.coeffs[i..run] {
                    *var += x * x;
                }
                i = run;
            }
            std::cmp::Ordering::Greater => {
                let run = j + 1 + lower_bound(&ib[j + 1..], ida);
                for &y in &b.coeffs[j..run] {
                    *var += y * y;
                }
                j = run;
            }
            std::cmp::Ordering::Equal => {
                let d = a.coeffs[i] - b.coeffs[j];
                i += 1;
                j += 1;
                if d != 0.0 {
                    // dropped by the nonzero filter in the materialized path
                    *var += d * d;
                }
            }
        }
    }
    for &x in &a.coeffs[i..] {
        *var += x * x;
    }
    for &y in &b.coeffs[j..] {
        *var += y * y;
    }
}

/// Adds `Σ aᵢ·bᵢ` over the ids two sparse runs share to `cov`, in
/// ascending id order.
fn sparse_dot(cov: &mut f64, a: Terms<'_>, b: Terms<'_>) {
    let (ia, ib) = (a.ids, b.ids);
    let (mut i, mut j) = (0, 0);
    while i < ia.len() && j < ib.len() {
        let (ida, idb) = (ia[i], ib[j]);
        match ida.cmp(&idb) {
            // Unshared ids contribute nothing: gallop over the run.
            std::cmp::Ordering::Less => i += 1 + lower_bound(&ia[i + 1..], idb),
            std::cmp::Ordering::Greater => j += 1 + lower_bound(&ib[j + 1..], ida),
            std::cmp::Ordering::Equal => {
                *cov += a.coeffs[i] * b.coeffs[j];
                i += 1;
                j += 1;
            }
        }
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

    /// Ids and coefficient bits, in `terms()` order.
    fn bits(f: &CanonicalForm) -> Vec<(u32, u64)> {
        f.terms().map(|(id, c)| (id.0, c.to_bits())).collect()
    }

    /// `f` with every term on `grid` moved into a window: the layout the
    /// process model writes.
    fn windowed(f: &CanonicalForm, grid: Grid) -> CanonicalForm {
        let cells: Vec<(SourceId, f64)> = f.terms().filter(|&(id, _)| grid.contains(id)).collect();
        let mut out = CanonicalForm::constant(f.mean());
        for (id, c) in f.terms().filter(|&(id, _)| id.0 < grid.base) {
            out.push_term(id, c);
        }
        if let (Some(first), Some(last)) = (cells.first(), cells.last()) {
            let at = |id: SourceId| {
                let offset = (id.0 - grid.base) as usize;
                (offset / grid.cols as usize, offset % grid.cols as usize)
            };
            let (r0, r1) = (at(first.0).0, at(last.0).0);
            let c0 = cells.iter().map(|&(id, _)| at(id).1).min().unwrap();
            let c1 = cells.iter().map(|&(id, _)| at(id).1).max().unwrap();
            let width = c1 - c0 + 1;
            let mut weights = vec![0.0; width * (r1 - r0 + 1)];
            for &(id, c) in &cells {
                let (r, col) = at(id);
                weights[(r - r0) * width + col - c0] = c;
            }
            out.set_regions(grid, r0, c0, width, &weights, 1.0);
        }
        for (id, c) in f.terms().filter(|&(id, _)| id.0 >= grid.end()) {
            out.push_term(id, c);
        }
        out
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
    fn in_place_build_matches_with_terms_bitwise() {
        // A 3 × 2 window at (1, 2) of a 6 × 4 grid of ids 1..=24, with a
        // hole, a denormal that `k` may flush to zero, and a tail term on
        // each side of the grid.
        let grid = Grid::new(SourceId(1), 6, 4);
        let weights = [1.5, 0.0, -0.25, 5e-324, 2.0, 0.75];
        // Reuse one destination that starts wider than any result, so a
        // stale term would show.
        let mut out = form(99.0, &[(0, 1.0), (1, 1.0), (3, 1.0), (20, 1.0), (30, 1.0)]);
        for (head, k, tail) in [(3.0, 0.5, -1.0), (0.0, -0.0, 2.0), (-0.0, 2.0, 0.0)] {
            let cells = (0..6).map(|i| grid.id(1 + i / 3, 2 + i % 3));
            let reference = CanonicalForm::with_terms(
                1.25,
                std::iter::once((SourceId(0), head))
                    .chain(
                        cells
                            .zip(&weights)
                            .filter(|&(_, &w)| w != 0.0)
                            .map(|(id, &w)| (id, k * w)),
                    )
                    .chain(std::iter::once((SourceId(40), tail)))
                    .collect(),
            );
            out.reset(1.25);
            out.push_term(SourceId(0), head);
            out.set_regions(grid, 1, 2, 3, &weights, k);
            out.push_term(SourceId(40), tail);
            assert_eq!(out.mean().to_bits(), reference.mean().to_bits());
            assert_eq!(out.term_count(), reference.term_count());
            assert_eq!(bits(&out), bits(&reference));
        }
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
    fn windows_hold_region_terms_by_value() {
        // Ids 1..=12 form a 4 × 3 grid; 0 and 20 stay in the tail.
        let grid = Grid::new(SourceId(1), 4, 3);
        let sparse = form(2.0, &[(0, 1.0), (2, 0.5), (4, -2.0), (7, 3.0), (20, 1.5)]);
        let w = windowed(&sparse, grid);
        assert_eq!(w, sparse);
        assert_eq!(bits(&w), bits(&sparse));
        assert_eq!(w.term_count(), 5);
        assert_eq!(w.win.get().rect.cells(), 6, "2 rows × 3 columns");
        for id in 0..24 {
            assert_eq!(
                w.coeff(SourceId(id)).to_bits(),
                sparse.coeff(SourceId(id)).to_bits()
            );
        }
        assert_eq!(w.variance().to_bits(), sparse.variance().to_bits());
        // A form with no region term allocates no window.
        let d2d = windowed(&form(1.0, &[(0, 1.0), (20, 2.0)]), grid);
        assert!(d2d.win.0.is_none());
        assert!(CanonicalForm::constant(3.0).win.0.is_none());
        // Nor does a clone of a recycled form whose window emptied.
        let mut recycled = w.clone();
        recycled.copy_from(&d2d);
        assert!(recycled.win.0.is_some());
        assert!(recycled.clone().win.0.is_none());
    }

    #[test]
    fn window_kernels_match_sparse_kernels_bitwise() {
        // Disjoint, overlapping and nested windows on one 5 × 4 grid
        // (ids 1..=20), plus a growth in every direction.
        let grid = Grid::new(SourceId(1), 5, 4);
        let shapes = [
            form(1.0, &[(0, 0.5), (1, 1.0), (2, -2.0), (7, 0.25), (30, 1.0)]),
            form(
                -2.0,
                &[(0, 1.5), (13, 3.0), (14, -1.0), (19, 2.0), (31, 4.0)],
            ),
            form(0.5, &[(2, 2.0), (7, -0.25), (8, 1.0), (12, 0.5)]),
            form(3.0, &[(8, 1.0)]),
            form(4.0, &[(0, -1.0), (30, 2.0)]),
            form(0.25, &[(1, 1.0), (20, -1.0)]),
        ];
        for a in &shapes {
            for b in &shapes {
                let (wa, wb) = (windowed(a, grid), windowed(b, grid));
                for (k1, k2) in [(1.0, 1.0), (1.0, -1.0), (0.3, 0.7), (-1.7, 0.0)] {
                    let want = a.linear_combination(k1, b, k2);
                    let got = wa.linear_combination(k1, &wb, k2);
                    assert_eq!(bits(&got), bits(&want), "{a} / {b} lin comb");
                    assert_eq!(got.term_count(), want.term_count());
                    let mut asa = wa.clone();
                    asa.add_scaled_assign(&wb, k2);
                    let want = a.linear_combination(1.0, b, k2);
                    assert_eq!(bits(&asa), bits(&want), "{a} / {b} add scaled");
                    assert_eq!(asa.mean().to_bits(), want.mean().to_bits());
                    assert_eq!(asa.term_count(), want.term_count());
                }
                let (dmu, var) = wa.sub_stats(&wb);
                let (want_mu, want_var) = a.sub_stats(b);
                assert_eq!(
                    (dmu.to_bits(), var.to_bits()),
                    (want_mu.to_bits(), want_var.to_bits())
                );
                assert_eq!(wa.covariance(&wb).to_bits(), a.covariance(b).to_bits());
                // Mixed layouts: a gridless operand whose ids fall on the grid.
                assert_eq!(bits(&wa.add(b)), bits(&a.add(b)));
                assert_eq!(wa.sub_stats(b).1.to_bits(), a.sub_stats(b).1.to_bits());
            }
        }
    }

    #[test]
    fn display_is_nonempty() {
        let a = form(1.0, &[(0, -2.0)]);
        let s = format!("{a}");
        assert!(s.contains("X0"));
        assert!(!format!("{}", CanonicalForm::constant(0.0)).is_empty());
    }
}
