//! Intra-die spatial correlation model.
//!
//! The die is partitioned into a square grid of regions (500 µm cells in
//! the paper, Section 5.1), each carrying one independent `N(0,1)` source
//! `Y_i`. A device at location `p` is influenced by every region whose
//! center lies within the taper radius, with isotropic Gaussian weights
//! that fall off with distance and vanish at about 2 mm. Two devices that
//! are close share many regions (high correlation); distant devices share
//! none (Figure 4 of the paper).
//!
//! Weights are normalized so the *total* spatial standard deviation at any
//! location equals a target scale: uniform across the die for the
//! **homogeneous** model, or ramping linearly from 0.5× at the south-west
//! corner to 1.5× at the north-east corner for the **heterogeneous** model
//! (the paper's "linearly increasing fashion").

use varbuf_rctree::geom::{BoundingBox, Point};

/// Which budget-distribution pattern the die uses (Section 5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpatialKind {
    /// Every region has the same variance scale.
    Homogeneous,
    /// Variance scale ramps linearly from SW (0.5×) to NE (1.5×).
    Heterogeneous,
}

/// The spatial grid plus weight computation.
#[derive(Debug, Clone, PartialEq)]
pub struct SpatialModel {
    kind: SpatialKind,
    origin: Point,
    cols: usize,
    rows: usize,
    cell_um: f64,
    taper_um: f64,
    die_diag: f64,
}

/// One device's taper as a dense row-major window over the grid, written
/// by [`SpatialModel::taper_into`]: the cells of the `width`-wide
/// rectangle whose top-left cell is `(row, col)`, each holding its
/// normalized weight, or `0.0` outside the taper radius.
#[derive(Debug, Clone, Default)]
pub(crate) struct Taper {
    pub(crate) row: usize,
    pub(crate) col: usize,
    pub(crate) width: usize,
    pub(crate) weights: Vec<f64>,
}

impl SpatialModel {
    /// Builds a grid covering `die` with `cell_um`-sized cells and a
    /// Gaussian weight taper that reaches ≈`e⁻²` at `taper_um`.
    ///
    /// # Panics
    ///
    /// Panics if `cell_um` or `taper_um` is not strictly positive.
    #[must_use]
    pub fn new(die: BoundingBox, kind: SpatialKind, cell_um: f64, taper_um: f64) -> Self {
        assert!(cell_um > 0.0, "cell size must be positive");
        assert!(taper_um > 0.0, "taper distance must be positive");
        let cols = ((die.width() / cell_um).ceil() as usize).max(1);
        let rows = ((die.height() / cell_um).ceil() as usize).max(1);
        Self {
            kind,
            origin: die.min,
            cols,
            rows,
            cell_um,
            taper_um,
            die_diag: die.width() + die.height(),
        }
    }

    /// The paper's configuration: 500 µm grid, ~2 mm taper.
    #[must_use]
    pub fn paper_defaults(die: BoundingBox, kind: SpatialKind) -> Self {
        Self::new(die, kind, 500.0, 2_000.0)
    }

    /// Number of regions (grid cells).
    #[must_use]
    pub fn region_count(&self) -> usize {
        self.cols * self.rows
    }

    /// The grid dimensions `(cols, rows)`.
    #[must_use]
    pub fn grid_dims(&self) -> (usize, usize) {
        (self.cols, self.rows)
    }

    /// The `SpatialKind` this model was built with.
    #[must_use]
    pub fn kind(&self) -> SpatialKind {
        self.kind
    }

    /// Center of region `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.region_count()`.
    #[must_use]
    pub fn region_center(&self, i: usize) -> Point {
        assert!(i < self.region_count(), "region {i} out of range");
        let col = i % self.cols;
        let row = i / self.cols;
        Point::new(
            self.origin.x + (col as f64 + 0.5) * self.cell_um,
            self.origin.y + (row as f64 + 0.5) * self.cell_um,
        )
    }

    /// The region containing `p` (clamped to the grid).
    #[must_use]
    pub fn region_of(&self, p: Point) -> usize {
        let col = (((p.x - self.origin.x) / self.cell_um) as isize).clamp(0, self.cols as isize - 1)
            as usize;
        let row = (((p.y - self.origin.y) / self.cell_um) as isize).clamp(0, self.rows as isize - 1)
            as usize;
        row * self.cols + col
    }

    /// The location-dependent variance scale: `1.0` everywhere for the
    /// homogeneous model; `0.5 → 1.5` linearly SW→NE for the heterogeneous
    /// one.
    #[must_use]
    pub fn scale_at(&self, p: Point) -> f64 {
        match self.kind {
            SpatialKind::Homogeneous => 1.0,
            SpatialKind::Heterogeneous => {
                if self.die_diag <= 0.0 {
                    return 1.0;
                }
                let t = ((p.x - self.origin.x) + (p.y - self.origin.y)) / self.die_diag;
                0.5 + t.clamp(0.0, 1.0)
            }
        }
    }

    /// The *systematic* intra-die pattern at `p`, normalized to `[-1, 1]`.
    ///
    /// Intra-die variation has a deterministic, repeatable component on
    /// top of the random one — Section 3.2 of the paper attributes it to
    /// optical lens distortion ("differences depending on distance from
    /// the center of the lens") and the stepper's SW→NE exposure
    /// gradient. The pattern returned here is multiplied by the
    /// systematic budget in `ProcessModel` to shift device nominals:
    ///
    /// * heterogeneous: the paper's linear SW→NE ramp, `-1` at the SW
    ///   corner to `+1` at the NE corner;
    /// * homogeneous: a milder radial (lens-distortion) bowl, `-0.5` at
    ///   the die center to `+0.5` at the corners.
    #[must_use]
    pub fn systematic_pattern(&self, p: Point) -> f64 {
        match self.kind {
            SpatialKind::Heterogeneous => {
                if self.die_diag <= 0.0 {
                    return 0.0;
                }
                let t = ((p.x - self.origin.x) + (p.y - self.origin.y)) / self.die_diag;
                2.0 * t.clamp(0.0, 1.0) - 1.0
            }
            SpatialKind::Homogeneous => {
                let cx = self.origin.x + self.cols as f64 * self.cell_um / 2.0;
                let cy = self.origin.y + self.rows as f64 * self.cell_um / 2.0;
                let dmax = Point::new(cx, cy)
                    .euclid(self.origin)
                    .max(f64::MIN_POSITIVE);
                let d = p.euclid(Point::new(cx, cy)).min(dmax);
                let unit = d / dmax;
                0.5 * (2.0 * unit * unit - 1.0)
            }
        }
    }

    /// The normalized region weights for a device at `p`:
    /// `(region index, coefficient)` pairs such that
    /// `Σ coeff² = scale_at(p)²`.
    ///
    /// Multiplying each coefficient by the per-category sigma budget gives
    /// the canonical-form sensitivities of eq. (21)–(24).
    ///
    /// Allocates a fresh vector per call; the process model's hot path
    /// writes the same weights as a dense window instead.
    #[must_use]
    pub fn weights_at(&self, p: Point) -> Vec<(usize, f64)> {
        let mut weights = Vec::new();
        self.weights_into(p, &mut weights);
        weights
    }

    /// [`weights_at`](Self::weights_at) writing into a caller-provided
    /// buffer (cleared first): the nonzero cells of the dense taper
    /// window the process model writes its device forms from, in
    /// ascending region-index order (the window is row-major), which
    /// downstream code relies on for sorted merges.
    pub fn weights_into(&self, p: Point, weights: &mut Vec<(usize, f64)>) {
        let mut taper = Taper::default();
        self.taper_into(p, &mut taper);
        weights.clear();
        let width = taper.width.max(1);
        weights.extend(
            taper
                .weights
                .iter()
                .enumerate()
                .filter(|&(_, &w)| w != 0.0)
                .map(|(i, &w)| {
                    (
                        (taper.row + i / width) * self.cols + taper.col + i % width,
                        w,
                    )
                }),
        );
    }

    /// Writes the taper of a device at `p` into `taper` as a dense
    /// row-major window: the bounding rectangle of the cells within the
    /// taper radius, each cell's normalized weight, and `0.0` for a cell
    /// of the rectangle outside the radius. The weights are bitwise
    /// those of [`weights_at`](Self::weights_at), which reads them from
    /// here.
    pub(crate) fn taper_into(&self, p: Point, taper: &mut Taper) {
        taper.weights.clear();
        // Visit the cells within the taper radius of p.
        let sigma = self.taper_um / 2.0; // weight = e^{-2} at the taper edge
        let reach = (self.taper_um / self.cell_um).ceil() as isize;
        let pc = self.region_of(p);
        let (pcol, prow) = ((pc % self.cols) as isize, (pc / self.cols) as isize);

        // The in-range square, clamped to the grid up front so the inner
        // loop carries no bounds checks. Row-major, exactly the order the
        // old `-reach..=reach` double loop visited its surviving cells.
        let col_lo = pcol.saturating_sub(reach).max(0) as usize;
        let col_hi = ((pcol + reach).min(self.cols as isize - 1)).max(0) as usize;
        let row_lo = prow.saturating_sub(reach).max(0) as usize;
        let row_hi = ((prow + reach).min(self.rows as isize - 1)).max(0) as usize;

        // Distances are computed from the inlined center coordinates —
        // the same `origin + (index + 0.5)·cell` expression as
        // `region_center`, with the row term `dy²` hoisted out of the
        // column loop; `dx·dx + dy²` then matches `euclid`'s
        // `dx·dx + dy·dy` operation-for-operation, so every weight keeps
        // the exact bits of the original per-cell scan.
        let denom = 2.0 * sigma * sigma;
        let mut sum_sq = 0.0;
        let (mut rows, mut cols) = ((usize::MAX, 0), (usize::MAX, 0));
        for row in row_lo..=row_hi {
            let cy = self.origin.y + (row as f64 + 0.5) * self.cell_um;
            let dy = p.y - cy;
            let dy2 = dy * dy;
            for col in col_lo..=col_hi {
                let cx = self.origin.x + (col as f64 + 0.5) * self.cell_um;
                let dx = p.x - cx;
                let d = (dx * dx + dy2).sqrt();
                if d > self.taper_um {
                    taper.weights.push(0.0);
                    continue;
                }
                let w = (-d * d / denom).exp();
                sum_sq += w * w;
                taper.weights.push(w);
                rows = (rows.0.min(row), rows.1.max(row));
                cols = (cols.0.min(col), cols.1.max(col));
            }
        }
        if rows.0 == usize::MAX {
            // Nothing within the radius (a taper shorter than half a cell).
            taper.weights.clear();
            (taper.row, taper.col, taper.width) = (0, 0, 0);
            return;
        }
        // Trim to the in-radius cells' bounding box; each cell moves to
        // an index no later than its own, so the copy runs in place.
        let square_width = col_hi - col_lo + 1;
        let width = cols.1 - cols.0 + 1;
        let mut k = 0;
        for row in rows.0..=rows.1 {
            let from = (row - row_lo) * square_width + cols.0 - col_lo;
            taper.weights.copy_within(from..from + width, k);
            k += width;
        }
        taper.weights.truncate(k);
        (taper.row, taper.col, taper.width) = (rows.0, cols.0, width);
        let norm = self.scale_at(p) / sum_sq.sqrt();
        for w in taper.weights.iter_mut().filter(|w| **w != 0.0) {
            *w *= norm;
        }
    }

    /// The spatial correlation between two device locations — the dot
    /// product of their normalized weight vectors divided by their norms.
    ///
    /// `1.0` for co-located devices, decaying to `0.0` beyond ~2× taper.
    #[must_use]
    pub fn correlation(&self, a: Point, b: Point) -> f64 {
        let wa = self.weights_at(a);
        let wb = self.weights_at(b);
        correlation_of_weights(&wa, &wb)
    }
}

/// Correlation of two normalized weight vectors (each sorted ascending by
/// region index, as [`SpatialModel::weights_into`] produces them): their
/// dot product over shared regions divided by the product of their norms,
/// clamped to `[-1, 1]`.
fn correlation_of_weights(wa: &[(usize, f64)], wb: &[(usize, f64)]) -> f64 {
    let na: f64 = wa.iter().map(|&(_, w)| w * w).sum::<f64>().sqrt();
    let nb: f64 = wb.iter().map(|&(_, w)| w * w).sum::<f64>().sqrt();
    if na == 0.0 || nb == 0.0 {
        return 0.0;
    }
    // Sorted merge over the shared regions, accumulating in `wa` order —
    // the same order (ascending region index) the old hash-lookup walk
    // visited. Starts at `-0.0` like `Sum`'s fold so a disjoint pair
    // keeps the exact bits of the previous implementation.
    let mut dot = -0.0;
    let (mut i, mut j) = (0, 0);
    while i < wa.len() && j < wb.len() {
        let (ra, x) = wa[i];
        let (rb, y) = wb[j];
        match ra.cmp(&rb) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                dot += x * y;
                i += 1;
                j += 1;
            }
        }
    }
    (dot / (na * nb)).clamp(-1.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn die(side: f64) -> BoundingBox {
        BoundingBox {
            min: Point::new(0.0, 0.0),
            max: Point::new(side, side),
        }
    }

    #[test]
    fn grid_dimensions() {
        let m = SpatialModel::paper_defaults(die(5000.0), SpatialKind::Homogeneous);
        assert_eq!(m.grid_dims(), (10, 10));
        assert_eq!(m.region_count(), 100);
    }

    #[test]
    fn region_lookup_roundtrip() {
        let m = SpatialModel::paper_defaults(die(5000.0), SpatialKind::Homogeneous);
        for i in [0usize, 5, 42, 99] {
            let c = m.region_center(i);
            assert_eq!(m.region_of(c), i);
        }
        // Clamping outside the die.
        assert_eq!(m.region_of(Point::new(-100.0, -100.0)), 0);
        assert_eq!(m.region_of(Point::new(9e9, 9e9)), 99);
    }

    #[test]
    fn homogeneous_weights_are_unit_norm() {
        let m = SpatialModel::paper_defaults(die(8000.0), SpatialKind::Homogeneous);
        for p in [
            Point::new(4000.0, 4000.0),
            Point::new(100.0, 100.0),
            Point::new(7900.0, 50.0),
        ] {
            let w = m.weights_at(p);
            let sum_sq: f64 = w.iter().map(|&(_, c)| c * c).sum();
            assert!((sum_sq - 1.0).abs() < 1e-9, "at {p}: {sum_sq}");
            assert!(!w.is_empty());
        }
    }

    #[test]
    fn heterogeneous_ramps_sw_to_ne() {
        let m = SpatialModel::paper_defaults(die(8000.0), SpatialKind::Heterogeneous);
        let sw = m.scale_at(Point::new(0.0, 0.0));
        let center = m.scale_at(Point::new(4000.0, 4000.0));
        let ne = m.scale_at(Point::new(8000.0, 8000.0));
        assert!((sw - 0.5).abs() < 1e-9);
        assert!((center - 1.0).abs() < 1e-9);
        assert!((ne - 1.5).abs() < 1e-9);
        // Weight norms match the scale.
        let w = m.weights_at(Point::new(8000.0, 8000.0));
        let sum_sq: f64 = w.iter().map(|&(_, c)| c * c).sum();
        assert!((sum_sq.sqrt() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn nearby_devices_correlate_far_ones_do_not() {
        // Figure 4's qualitative behavior.
        let m = SpatialModel::paper_defaults(die(10_000.0), SpatialKind::Homogeneous);
        let a = Point::new(5000.0, 5000.0);
        let near = Point::new(5300.0, 5000.0);
        let mid = Point::new(6500.0, 5000.0);
        let far = Point::new(9900.0, 200.0);
        let c_self = m.correlation(a, a);
        let c_near = m.correlation(a, near);
        let c_mid = m.correlation(a, mid);
        let c_far = m.correlation(a, far);
        assert!((c_self - 1.0).abs() < 1e-9);
        assert!(c_near > 0.7, "near correlation {c_near}");
        assert!(c_mid < c_near && c_mid > 0.0, "mid correlation {c_mid}");
        assert_eq!(c_far, 0.0, "far correlation {c_far}");
    }

    #[test]
    fn correlation_decreases_with_distance() {
        let m = SpatialModel::paper_defaults(die(10_000.0), SpatialKind::Homogeneous);
        let a = Point::new(5000.0, 5000.0);
        let mut prev = 1.1;
        for d in [0.0, 250.0, 500.0, 1000.0, 1500.0, 2000.0, 3000.0, 4500.0] {
            let c = m.correlation(a, Point::new(5000.0 + d, 5000.0));
            assert!(c <= prev + 1e-9, "correlation rose at d={d}: {c} > {prev}");
            prev = c;
        }
    }

    #[test]
    fn tiny_die_single_region() {
        let m = SpatialModel::paper_defaults(die(200.0), SpatialKind::Homogeneous);
        assert_eq!(m.region_count(), 1);
        let w = m.weights_at(Point::new(100.0, 100.0));
        assert_eq!(w.len(), 1);
        assert!((w[0].1 - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "cell size must be positive")]
    fn zero_cell_rejected() {
        let _ = SpatialModel::new(die(100.0), SpatialKind::Homogeneous, 0.0, 100.0);
    }

    #[test]
    fn weights_into_matches_weights_at_bitwise() {
        let m = SpatialModel::paper_defaults(die(8000.0), SpatialKind::Heterogeneous);
        let mut buf = vec![(999usize, 1.23)]; // stale content must be cleared
        for p in [
            Point::new(0.0, 0.0),
            Point::new(4000.0, 4000.0),
            Point::new(7900.0, 50.0),
        ] {
            m.weights_into(p, &mut buf);
            let fresh = m.weights_at(p);
            assert_eq!(buf.len(), fresh.len());
            for (a, b) in buf.iter().zip(&fresh) {
                assert_eq!(a.0, b.0);
                assert_eq!(a.1.to_bits(), b.1.to_bits());
            }
            // Ascending region order, the contract sorted merges rely on.
            assert!(buf.windows(2).all(|w| w[0].0 < w[1].0));
        }
    }
}
