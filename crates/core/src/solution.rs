//! Candidate-solution types for the dynamic programs.

use crate::trace::Trace;
use std::sync::Arc;
use varbuf_stats::CanonicalForm;

/// A deterministic candidate: `(L, T)` plus its decision trace.
#[derive(Debug, Clone)]
pub struct DetSolution {
    /// Downstream loading capacitance `L`, fF.
    pub load: f64,
    /// Required arrival time `T`, ps.
    pub rat: f64,
    /// The buffer decisions that produced this candidate.
    pub trace: Arc<Trace>,
}

impl DetSolution {
    /// A fresh solution with no decisions.
    #[must_use]
    pub fn new(load: f64, rat: f64) -> Self {
        Self {
            load,
            rat,
            trace: Trace::empty(),
        }
    }
}

/// A statistical candidate: `(L, T)` as first-order canonical forms plus
/// the decision trace (eqs. (31)–(32) of the paper).
#[derive(Debug, Clone)]
pub struct StatSolution {
    /// Downstream loading capacitance `L` as a canonical form, fF.
    pub load: CanonicalForm,
    /// Required arrival time `T` as a canonical form, ps.
    pub rat: CanonicalForm,
    /// Deferred wire-coupling resistance (lazy wire propagation): the
    /// summed `Σrᵢ` of wire segments whose mean effects have been folded
    /// into `rat` eagerly but whose term coupling
    /// `rat ← rat − (Σrᵢ)·load` (terms only) is still pending. `0.0`
    /// means the solution is fully materialized; every consumer of the
    /// RAT's *sensitivities* (merge, buffer, winner selection) must
    /// materialize first. Load terms are invariant under
    /// wire extension, so one scalar captures the whole deferred chain
    /// exactly.
    pub wire_pending: f64,
    /// The buffer decisions that produced this candidate.
    pub trace: Arc<Trace>,
}

impl StatSolution {
    /// A fresh solution with no decisions.
    #[must_use]
    pub fn new(load: CanonicalForm, rat: CanonicalForm) -> Self {
        Self {
            load,
            rat,
            wire_pending: 0.0,
            trace: Trace::empty(),
        }
    }

    /// Mean of the load form (the 2P rule's primary sort key).
    #[inline]
    #[must_use]
    pub fn load_mean(&self) -> f64 {
        self.load.mean()
    }

    /// Mean of the RAT form.
    #[inline]
    #[must_use]
    pub fn rat_mean(&self) -> f64 {
        self.rat.mean()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use varbuf_stats::SourceId;

    #[test]
    fn det_solution_starts_unbuffered() {
        let s = DetSolution::new(10.0, -5.0);
        assert_eq!(s.trace.buffer_count(), 0);
        assert_eq!(s.load, 10.0);
        assert_eq!(s.rat, -5.0);
    }

    #[test]
    fn stat_solution_means() {
        let s = StatSolution::new(
            CanonicalForm::with_terms(20.0, vec![(SourceId(0), 1.0)]),
            CanonicalForm::with_terms(-100.0, vec![(SourceId(0), 2.0)]),
        );
        assert_eq!(s.load_mean(), 20.0);
        assert_eq!(s.rat_mean(), -100.0);
        assert_eq!(s.trace.buffer_count(), 0);
    }
}
