//! The assembled first-order process model.
//!
//! [`ProcessModel`] combines the variation budgets, the spatial grid, the
//! buffer library and the source-id layout, and produces the canonical
//! forms of eq. (23)–(24) for any buffer instance:
//!
//! ```text
//! C_b,t = C_b0 + α·X_dev + Σ γ_i·Y_i + ξ·G
//! T_b,t = T_b0 + β·X_dev + Σ θ_i·Y_i + η·G
//! ```
//!
//! where `X_dev` is the instance's private random source, the `Y_i` are
//! the spatial region sources weighted by the Gaussian taper, and `G` is
//! the shared inter-die source. The [`VariationMode`] selects which terms
//! exist: `Nominal` (the paper's **NOM**), `DieToDie` (**D2D**: random +
//! inter-die) or `WithinDie` (**WID**: everything).

use crate::library::{BufferLibrary, BufferType, BufferTypeId};
use crate::sources::SourceLayout;
use crate::spatial::{SpatialKind, SpatialModel, Taper};
use varbuf_rctree::elmore::BufferValues;
use varbuf_rctree::geom::{BoundingBox, Point};
use varbuf_rctree::NodeId;
use varbuf_stats::mc::SampleVector;
use varbuf_stats::{CanonicalForm, Grid};

/// Per-category standard-deviation budgets, as fractions of the nominal
/// value (the paper budgets 5% each, Section 5.1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VariationBudgets {
    /// Random per-device variation σ, fraction of nominal.
    pub random: f64,
    /// Inter-die variation σ, fraction of nominal.
    pub inter_die: f64,
    /// Intra-die (spatial) variation σ, fraction of nominal.
    pub intra_die: f64,
    /// Amplitude of the *systematic* intra-die pattern (lens-distortion
    /// radial bowl / stepper SW→NE ramp, Section 3.2 of the paper) as a
    /// fraction of nominal. Device nominals are shifted by
    /// `systematic · pattern(location)` with `pattern ∈ [-1, 1]`; only a
    /// within-die-aware optimizer sees the shift, while the silicon
    /// always has it.
    pub systematic: f64,
}

impl VariationBudgets {
    /// The paper's 5%/5%/5% random budgets, plus an 8% systematic
    /// intra-die amplitude.
    #[must_use]
    pub fn paper_5pct() -> Self {
        Self {
            random: 0.05,
            inter_die: 0.05,
            intra_die: 0.05,
            systematic: 0.08,
        }
    }

    /// All categories (including the systematic pattern) set to zero —
    /// useful for checking that the statistical machinery degenerates to
    /// the deterministic one.
    #[must_use]
    pub fn zero() -> Self {
        Self {
            random: 0.0,
            inter_die: 0.0,
            intra_die: 0.0,
            systematic: 0.0,
        }
    }
}

impl Default for VariationBudgets {
    fn default() -> Self {
        Self::paper_5pct()
    }
}

/// Which variation categories an optimization run models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VariationMode {
    /// No variation at all — the deterministic baseline (**NOM**).
    Nominal,
    /// Random device variation + inter-die variation (**D2D**).
    DieToDie,
    /// Everything including spatially correlated intra-die variation
    /// (**WID**).
    WithinDie,
}

impl VariationMode {
    /// Short label used in experiment tables.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            VariationMode::Nominal => "NOM",
            VariationMode::DieToDie => "D2D",
            VariationMode::WithinDie => "WID",
        }
    }
}

/// One candidate site's share of eqs. (23)–(24): its node and mode,
/// the WID nominal factor, and its spatial taper as a dense window over
/// the region grid. [`ProcessModel::device_site`] loads it once per
/// candidate and [`ProcessModel::device_forms_into`] reads it once per
/// buffer type; reusing one site keeps both calls allocation-free.
#[derive(Debug)]
pub struct DeviceSite {
    node: NodeId,
    mode: VariationMode,
    /// `1 + systematic shift` at the site; applied in `WithinDie` only.
    factor: f64,
    /// The taper at the site; read in `WithinDie` only.
    taper: Taper,
}

impl Default for DeviceSite {
    fn default() -> Self {
        Self {
            node: NodeId(0),
            mode: VariationMode::Nominal,
            factor: 1.0,
            taper: Taper::default(),
        }
    }
}

/// The assembled process model for one die.
#[derive(Debug, Clone, PartialEq)]
pub struct ProcessModel {
    budgets: VariationBudgets,
    spatial: SpatialModel,
    layout: SourceLayout,
    /// The region sources as a grid of ids, the layout of every WID
    /// form's region window.
    grid: Grid,
    library: BufferLibrary,
}

impl ProcessModel {
    /// Builds a model over a die bounding box.
    #[must_use]
    pub fn new(
        die: BoundingBox,
        kind: SpatialKind,
        budgets: VariationBudgets,
        library: BufferLibrary,
    ) -> Self {
        let spatial = SpatialModel::paper_defaults(die, kind);
        let layout = SourceLayout::new(spatial.region_count(), library.len());
        let (cols, rows) = spatial.grid_dims();
        Self {
            budgets,
            grid: Grid::new(layout.region(0), cols, rows),
            spatial,
            layout,
            library,
        }
    }

    /// The paper's 5%/5%/5% budgets with the default 65 nm library.
    #[must_use]
    pub fn paper_defaults(die: BoundingBox, kind: SpatialKind) -> Self {
        Self::new(
            die,
            kind,
            VariationBudgets::paper_5pct(),
            BufferLibrary::default_65nm(),
        )
    }

    /// The buffer library.
    #[must_use]
    pub fn library(&self) -> &BufferLibrary {
        &self.library
    }

    /// The source-id layout.
    #[must_use]
    pub fn layout(&self) -> SourceLayout {
        self.layout
    }

    /// The spatial grid.
    #[must_use]
    pub fn spatial(&self) -> &SpatialModel {
        &self.spatial
    }

    /// The budgets.
    #[must_use]
    pub fn budgets(&self) -> VariationBudgets {
        self.budgets
    }

    /// Canonical form of the input capacitance `C_b,t` of buffer type `ty`
    /// instantiated at candidate `node` located at `loc` (eq. (23)).
    #[must_use]
    pub fn buffer_cap_form(
        &self,
        ty: BufferTypeId,
        node: NodeId,
        loc: Point,
        mode: VariationMode,
    ) -> CanonicalForm {
        self.buffer_forms(ty, node, loc, mode).0
    }

    /// Canonical form of the intrinsic delay `T_b,t` (eq. (24)).
    #[must_use]
    pub fn buffer_delay_form(
        &self,
        ty: BufferTypeId,
        node: NodeId,
        loc: Point,
        mode: VariationMode,
    ) -> CanonicalForm {
        self.buffer_forms(ty, node, loc, mode).1
    }

    /// Both forms of `ty` at candidate `node` located at `loc`:
    /// `(C_b,t, T_b,t)` from one taper scan.
    #[must_use]
    pub fn buffer_forms(
        &self,
        ty: BufferTypeId,
        node: NodeId,
        loc: Point,
        mode: VariationMode,
    ) -> (CanonicalForm, CanonicalForm) {
        let mut site = DeviceSite::default();
        self.device_site(node, loc, mode, &mut site);
        let mut pair = Default::default();
        self.device_forms_into(&site, ty, &mut pair);
        pair
    }

    /// The deterministic output resistance `R_b` of `ty`.
    #[must_use]
    pub fn buffer_resistance(&self, ty: BufferTypeId) -> f64 {
        self.library.get(ty).resistance
    }

    /// The same model with device sources moved to net `net_index`'s id
    /// block — required when optimizing several nets of one design so
    /// their (node-id-keyed) random device sources do not collide while
    /// the global and spatial sources stay shared. See
    /// [`SourceLayout::for_net`].
    #[must_use]
    pub fn for_net(&self, net_index: u32) -> Self {
        let mut out = self.clone();
        out.layout = self.layout.for_net(net_index);
        out
    }

    /// The relative systematic shift of device nominals at `loc`
    /// (`budgets.systematic · pattern(loc)`), which only a
    /// within-die-aware optimizer models but the silicon always has.
    #[must_use]
    pub fn systematic_shift(&self, loc: Point) -> f64 {
        self.budgets.systematic * self.spatial.systematic_pattern(loc)
    }

    /// Loads `site` with candidate `node` located at `loc` under `mode`:
    /// in `WithinDie`, one spatial taper scan written as a dense window,
    /// plus the systematic nominal factor. Every buffer type's forms at
    /// the candidate then read the site through
    /// [`device_forms_into`](Self::device_forms_into).
    pub fn device_site(
        &self,
        node: NodeId,
        loc: Point,
        mode: VariationMode,
        site: &mut DeviceSite,
    ) {
        site.node = node;
        site.mode = mode;
        if matches!(mode, VariationMode::WithinDie) {
            site.factor = 1.0 + self.systematic_shift(loc);
            self.spatial.taper_into(loc, &mut site.taper);
        }
    }

    /// Writes eqs. (23)–(24) for buffer type `ty` at `site` (loaded by
    /// [`device_site`](Self::device_site)): `C_b,t` into `out.0` and
    /// `T_b,t` into `out.1`, reusing their term buffers.
    ///
    /// The global (`0`) and device (`>R`) terms go to the form's sparse
    /// tail; in `WithinDie` the region terms (`1..=R`) are the site's
    /// taper window scaled in one pass, written as the form's region
    /// window. Exact zeros are dropped (left holes), so each form equals
    /// what `CanonicalForm::with_terms` builds from the same list, bit
    /// for bit; D2D and nominal forms carry no window.
    pub fn device_forms_into(
        &self,
        site: &DeviceSite,
        ty: BufferTypeId,
        out: &mut (CanonicalForm, CanonicalForm),
    ) {
        let t = self.library.get(ty);
        let equations = [
            (&mut out.0, t.capacitance, t.cap_sensitivity),
            (&mut out.1, t.intrinsic_delay, t.delay_sensitivity),
        ];
        for (form, nominal, sensitivity) in equations {
            // Only a WID-aware model sees the systematic intra-die
            // pattern; NOM and D2D optimizers assume the data-sheet
            // nominal everywhere.
            let nominal = if matches!(site.mode, VariationMode::WithinDie) {
                nominal * site.factor
            } else {
                nominal
            };
            form.reset(nominal);
            if matches!(site.mode, VariationMode::Nominal) {
                continue;
            }
            let base = nominal * sensitivity;
            // Inter-die global source, spatially correlated sources
            // (none outside WID), random per-device source.
            form.push_term(self.layout.global(), self.budgets.inter_die * base);
            if matches!(site.mode, VariationMode::WithinDie) {
                let taper = &site.taper;
                form.set_regions(
                    self.grid,
                    taper.row,
                    taper.col,
                    taper.width,
                    &taper.weights,
                    self.budgets.intra_die * base,
                );
            }
            form.push_term(
                self.layout.device(site.node, ty.0),
                self.budgets.random * base,
            );
        }
    }

    /// Concrete [`BufferValues`] for one Monte Carlo realization: the
    /// canonical forms of `ty` at `(node, loc)` evaluated on `sample`.
    #[must_use]
    pub fn buffer_values_at(
        &self,
        ty: BufferTypeId,
        node: NodeId,
        loc: Point,
        mode: VariationMode,
        sample: &SampleVector,
    ) -> BufferValues {
        let (cap, delay) = self.buffer_forms(ty, node, loc, mode);
        BufferValues {
            capacitance: sample.eval(&cap),
            intrinsic_delay: sample.eval(&delay),
            resistance: self.buffer_resistance(ty),
        }
    }

    /// Nominal [`BufferValues`] of `ty` (no variation).
    #[must_use]
    pub fn nominal_buffer_values(&self, ty: BufferTypeId) -> BufferValues {
        let t: &BufferType = self.library.get(ty);
        BufferValues {
            capacitance: t.capacitance,
            intrinsic_delay: t.intrinsic_delay,
            resistance: t.resistance,
        }
    }
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

    fn model(kind: SpatialKind) -> ProcessModel {
        ProcessModel::paper_defaults(die(8000.0), kind)
    }

    #[test]
    fn nominal_mode_is_deterministic() {
        let m = model(SpatialKind::Homogeneous);
        let f = m.buffer_cap_form(
            BufferTypeId(0),
            NodeId(3),
            Point::new(100.0, 100.0),
            VariationMode::Nominal,
        );
        assert_eq!(f.term_count(), 0);
        assert_eq!(f.mean(), m.library().get(BufferTypeId(0)).capacitance);
    }

    #[test]
    fn d2d_has_random_and_global_only() {
        let m = model(SpatialKind::Homogeneous);
        let f = m.buffer_delay_form(
            BufferTypeId(1),
            NodeId(5),
            Point::new(4000.0, 4000.0),
            VariationMode::DieToDie,
        );
        assert_eq!(f.term_count(), 2);
        let nominal = m.library().get(BufferTypeId(1)).intrinsic_delay;
        // σ² = (5%·T)² + (5%·T)².
        let expect_var = 2.0 * (0.05 * nominal) * (0.05 * nominal);
        assert!((f.variance() - expect_var).abs() < 1e-9);
        assert!(f.coeff(m.layout().global()) > 0.0);
    }

    #[test]
    fn wid_adds_spatial_variance() {
        let m = model(SpatialKind::Homogeneous);
        let loc = Point::new(4000.0, 4000.0);
        let d2d = m.buffer_cap_form(BufferTypeId(0), NodeId(1), loc, VariationMode::DieToDie);
        let wid = m.buffer_cap_form(BufferTypeId(0), NodeId(1), loc, VariationMode::WithinDie);
        let nominal = m.library().get(BufferTypeId(0)).capacitance;
        // WID applies the systematic shift to the nominal before budgets.
        let shifted = nominal * (1.0 + m.systematic_shift(loc));
        assert!((wid.mean() - shifted).abs() < 1e-9);
        let expect_wid_var = 3.0 * (0.05 * shifted) * (0.05 * shifted); // rand+global+spatial, scale 1
        assert!((wid.variance() - expect_wid_var).abs() < 1e-9);
        assert!(wid.term_count() > d2d.term_count());
        // D2D remains unshifted.
        assert_eq!(d2d.mean(), nominal);
    }

    #[test]
    fn systematic_pattern_shapes() {
        // Heterogeneous: monotone SW→NE ramp from -amp to +amp.
        let m = model(SpatialKind::Heterogeneous);
        let sw = m.systematic_shift(Point::new(0.0, 0.0));
        let center = m.systematic_shift(Point::new(4000.0, 4000.0));
        let ne = m.systematic_shift(Point::new(8000.0, 8000.0));
        assert!((sw + 0.08).abs() < 1e-9, "SW shift {sw}");
        assert!(center.abs() < 1e-9, "center shift {center}");
        assert!((ne - 0.08).abs() < 1e-9, "NE shift {ne}");
        // Homogeneous: radial bowl, slowest at the corners.
        let h = model(SpatialKind::Homogeneous);
        let c = h.systematic_shift(Point::new(4000.0, 4000.0));
        let corner = h.systematic_shift(Point::new(0.0, 0.0));
        assert!(c < 0.0 && corner > 0.0 && corner.abs() <= 0.08 * 0.5 + 1e-9);
    }

    #[test]
    fn heterogeneous_scales_spatial_with_location() {
        let m = model(SpatialKind::Heterogeneous);
        let sw = m.buffer_cap_form(
            BufferTypeId(0),
            NodeId(1),
            Point::new(100.0, 100.0),
            VariationMode::WithinDie,
        );
        let ne = m.buffer_cap_form(
            BufferTypeId(0),
            NodeId(2),
            Point::new(7900.0, 7900.0),
            VariationMode::WithinDie,
        );
        assert!(
            ne.variance() > sw.variance(),
            "NE must vary more: {} vs {}",
            ne.variance(),
            sw.variance()
        );
    }

    #[test]
    fn same_site_same_type_fully_correlated_random() {
        let m = model(SpatialKind::Homogeneous);
        let loc = Point::new(1000.0, 1000.0);
        let a = m.buffer_cap_form(BufferTypeId(0), NodeId(9), loc, VariationMode::DieToDie);
        let b = m.buffer_cap_form(BufferTypeId(0), NodeId(9), loc, VariationMode::DieToDie);
        assert!((a.correlation(&b) - 1.0).abs() < 1e-12);
        // Different node: only the global source is shared.
        let c = m.buffer_cap_form(BufferTypeId(0), NodeId(10), loc, VariationMode::DieToDie);
        let rho = a.correlation(&c);
        assert!((rho - 0.5).abs() < 1e-9, "expected 1/2, got {rho}");
    }

    #[test]
    fn nearby_instances_correlate_through_regions() {
        let m = model(SpatialKind::Homogeneous);
        let a = m.buffer_cap_form(
            BufferTypeId(0),
            NodeId(1),
            Point::new(4000.0, 4000.0),
            VariationMode::WithinDie,
        );
        let near = m.buffer_cap_form(
            BufferTypeId(0),
            NodeId(2),
            Point::new(4200.0, 4000.0),
            VariationMode::WithinDie,
        );
        let far = m.buffer_cap_form(
            BufferTypeId(0),
            NodeId(3),
            Point::new(7900.0, 100.0),
            VariationMode::WithinDie,
        );
        let rho_near = a.correlation(&near);
        let rho_far = a.correlation(&far);
        assert!(rho_near > rho_far, "{rho_near} !> {rho_far}");
        // Far instances still share the global source, so correlation is
        // bounded below by the inter-die fraction but not by spatial terms.
        assert!(rho_far > 0.0 && rho_far < 0.5);
    }

    /// Eqs. (23)–(24) transcribed term by term and built with
    /// `with_terms`: the `(C_b,t, T_b,t)` reference the writer must match
    /// bit for bit.
    fn reference_forms(
        m: &ProcessModel,
        ty: BufferTypeId,
        node: NodeId,
        loc: Point,
        mode: VariationMode,
    ) -> (CanonicalForm, CanonicalForm) {
        let form = |nominal: f64, sensitivity: f64| {
            let nominal = match mode {
                VariationMode::Nominal => return CanonicalForm::constant(nominal),
                VariationMode::DieToDie => nominal,
                VariationMode::WithinDie => nominal * (1.0 + m.systematic_shift(loc)),
            };
            let base = nominal * sensitivity;
            let budgets = m.budgets();
            let mut terms = vec![(m.layout().global(), budgets.inter_die * base)];
            if mode == VariationMode::WithinDie {
                let coeff = budgets.intra_die * base;
                for (region, w) in m.spatial().weights_at(loc) {
                    terms.push((m.layout().region(region), coeff * w));
                }
            }
            terms.push((m.layout().device(node, ty.0), budgets.random * base));
            CanonicalForm::with_terms(nominal, terms)
        };
        let t = m.library().get(ty);
        (
            form(t.capacitance, t.cap_sensitivity),
            form(t.intrinsic_delay, t.delay_sensitivity),
        )
    }

    /// Ids plus the bits of the nominal and of every coefficient of both
    /// forms (`==` would let ±0.0 pass).
    fn assert_same_bits(
        got: &(CanonicalForm, CanonicalForm),
        want: &(CanonicalForm, CanonicalForm),
        what: &str,
    ) {
        for (got, want) in [(&got.0, &want.0), (&got.1, &want.1)] {
            assert_eq!(got.mean().to_bits(), want.mean().to_bits(), "{what}: mean");
            assert_eq!(got.term_count(), want.term_count(), "{what}: term count");
            let bits = |f: &CanonicalForm| -> Vec<_> {
                f.terms().map(|(id, c)| (id, c.to_bits())).collect()
            };
            assert_eq!(bits(got), bits(want), "{what}: terms");
        }
    }

    /// Every device-form case: both spatial kinds × the paper's and zero
    /// budgets × nets 0 and 5, each visited in an order that shrinks and
    /// grows the term lists — the die centre (~48 taper weights), then a
    /// corner, and `WithinDie` right after `Nominal` — so a stale term
    /// would show.
    fn device_form_cases() -> Vec<(String, ProcessModel, NodeId, Point, VariationMode)> {
        let centre = (NodeId(7), Point::new(4000.0, 4000.0));
        let corner = (NodeId(12), Point::new(100.0, 7900.0));
        let spatial = model(SpatialKind::Homogeneous).spatial().clone();
        assert!(spatial.weights_at(centre.1).len() > spatial.weights_at(corner.1).len());
        let steps = [
            (centre, VariationMode::WithinDie),
            (corner, VariationMode::WithinDie),
            (corner, VariationMode::Nominal),
            (corner, VariationMode::WithinDie),
            (centre, VariationMode::DieToDie),
            (centre, VariationMode::Nominal),
            (centre, VariationMode::WithinDie),
        ];
        let mut cases = Vec::new();
        for kind in [SpatialKind::Homogeneous, SpatialKind::Heterogeneous] {
            for budgets in [VariationBudgets::paper_5pct(), VariationBudgets::zero()] {
                for net in [0, 5] {
                    let library = BufferLibrary::default_65nm();
                    let m = ProcessModel::new(die(8000.0), kind, budgets, library).for_net(net);
                    for ((node, loc), mode) in steps {
                        let label = format!("{kind:?} {budgets:?} net {net} {mode:?} {loc}");
                        cases.push((label, m.clone(), node, loc, mode));
                    }
                }
            }
        }
        cases
    }

    #[test]
    fn precomputed_device_forms_match_per_call_path_bitwise() {
        // The DP loads a site once per candidate and writes every buffer
        // type's forms from it; `buffer_cap_form`/`buffer_delay_form`
        // (skew analysis, via `buffer_forms` as Monte Carlo and yield
        // evaluation) load a fresh site per call. Both give the same bits.
        let mut site = DeviceSite::default();
        let mut out = Default::default();
        for (label, m, node, loc, mode) in device_form_cases() {
            m.device_site(node, loc, mode, &mut site);
            for (ty, _) in m.library().iter() {
                m.device_forms_into(&site, ty, &mut out);
                let per_call = (
                    m.buffer_cap_form(ty, node, loc, mode),
                    m.buffer_delay_form(ty, node, loc, mode),
                );
                assert_same_bits(&out, &per_call, &format!("{label} {ty:?}"));
            }
        }
    }

    #[test]
    fn cached_device_forms_share_one_table_and_match_pure_path() {
        // One site and one output pair shared by every case, as a DP
        // worker's scratch is shared by every candidate it buffers, still
        // write the pure `with_terms` transcription of eqs. (23)–(24).
        let mut site = DeviceSite::default();
        let mut out = Default::default();
        for (label, m, node, loc, mode) in device_form_cases() {
            m.device_site(node, loc, mode, &mut site);
            for (ty, _) in m.library().iter() {
                m.device_forms_into(&site, ty, &mut out);
                let reference = reference_forms(&m, ty, node, loc, mode);
                assert_same_bits(&out, &reference, &format!("{label} {ty:?}"));
            }
        }
    }

    #[test]
    fn mc_values_match_forms() {
        let m = model(SpatialKind::Homogeneous);
        let loc = Point::new(2000.0, 2000.0);
        let mut sample = SampleVector::new();
        sample.set(m.layout().global(), 1.0);
        let v = m.buffer_values_at(
            BufferTypeId(0),
            NodeId(4),
            loc,
            VariationMode::DieToDie,
            &sample,
        );
        let t = m.library().get(BufferTypeId(0));
        // Global at +1σ shifts cap by 5% of nominal.
        assert!((v.capacitance - t.capacitance * 1.05).abs() < 1e-9);
        assert_eq!(v.resistance, t.resistance);
        // Nominal values helper.
        let nv = m.nominal_buffer_values(BufferTypeId(0));
        assert_eq!(nv.capacitance, t.capacitance);
    }
}
