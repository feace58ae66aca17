//! Candidate-solution types for the dynamic programs, plus the chunked
//! streaming storage the hierarchical engine parks cut-node frontiers
//! in: a [`ChunkedList`] stores solutions in fixed-capacity
//! [`SolChunk`] blocks and charges its bytes to a shared
//! [`ChunkLedger`], so the peak resident footprint of all parked
//! frontiers is an observable the governor can budget against instead
//! of an accident of list sizes.

use crate::trace::Trace;
use std::sync::atomic::{AtomicUsize, Ordering};
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

/// Solutions per [`SolChunk`] block. Chunks are append-only; a full
/// chunk is sealed and a fresh one started, so a parked frontier never
/// triggers a large reallocation-and-copy the way one `Vec` would.
pub const CHUNK_CAP: usize = 256;

/// One fixed-capacity block of a [`ChunkedList`].
#[derive(Debug, Default)]
pub struct SolChunk {
    sols: Vec<StatSolution>,
}

impl SolChunk {
    fn with_capacity() -> Self {
        Self {
            sols: Vec::with_capacity(CHUNK_CAP),
        }
    }

    /// Solutions stored in this chunk.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sols.len()
    }

    /// Whether the chunk holds no solutions.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sols.is_empty()
    }
}

/// Shared accounting for every [`ChunkedList`] of one run: live bytes
/// currently parked plus the run's high-water mark. Atomic so frontier
/// producers on worker threads and the consuming splice loop can share
/// one ledger without locks.
#[derive(Debug, Default)]
pub struct ChunkLedger {
    live: AtomicUsize,
    peak: AtomicUsize,
}

impl ChunkLedger {
    /// A fresh ledger with nothing charged.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Charges `bytes` of newly parked solutions and bumps the peak.
    pub fn charge(&self, bytes: usize) {
        let now = self.live.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.peak.fetch_max(now, Ordering::Relaxed);
    }

    /// Releases `bytes` (a frontier was consumed or dropped).
    pub fn release(&self, bytes: usize) {
        // Saturating: a release can race a concurrent charge's peak
        // update, but live never goes below zero.
        let mut current = self.live.load(Ordering::Relaxed);
        loop {
            let next = current.saturating_sub(bytes);
            match self.live.compare_exchange_weak(
                current,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(observed) => current = observed,
            }
        }
    }

    /// Bytes currently parked across all lists charging this ledger.
    #[must_use]
    pub fn live(&self) -> usize {
        self.live.load(Ordering::Relaxed)
    }

    /// High-water mark of [`ChunkLedger::live`] over the ledger's life.
    #[must_use]
    pub fn peak(&self) -> usize {
        self.peak.load(Ordering::Relaxed)
    }
}

/// A chunked, append-only solution list with byte accounting.
///
/// The hierarchical engine parks each cut node's spliced frontier in
/// one of these until the cut's parent consumes it; every byte parked
/// is charged to the shared [`ChunkLedger`] on push and released when
/// the list is drained or dropped, so "how much frontier memory is
/// resident right now" is a single ledger read.
#[derive(Debug, Default)]
pub struct ChunkedList {
    chunks: Vec<SolChunk>,
    ledger: Option<Arc<ChunkLedger>>,
    charged: usize,
}

impl ChunkedList {
    /// An empty list charging nothing.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty list that charges its bytes to `ledger`.
    #[must_use]
    pub fn with_ledger(ledger: Arc<ChunkLedger>) -> Self {
        Self {
            chunks: Vec::new(),
            ledger: Some(ledger),
            charged: 0,
        }
    }

    /// Appends one solution whose estimated footprint is `bytes`.
    pub fn push(&mut self, sol: StatSolution, bytes: usize) {
        if self.chunks.last().is_none_or(|c| c.sols.len() >= CHUNK_CAP) {
            self.chunks.push(SolChunk::with_capacity());
        }
        self.chunks
            .last_mut()
            .expect("chunk just ensured")
            .sols
            .push(sol);
        self.charged += bytes;
        if let Some(ledger) = &self.ledger {
            ledger.charge(bytes);
        }
    }

    /// Total solutions across all chunks.
    #[must_use]
    pub fn len(&self) -> usize {
        self.chunks.iter().map(SolChunk::len).sum()
    }

    /// Whether no solutions are stored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.chunks.iter().all(SolChunk::is_empty)
    }

    /// Bytes charged against the ledger for this list.
    #[must_use]
    pub fn charged_bytes(&self) -> usize {
        self.charged
    }

    /// Iterates the stored solutions in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &StatSolution> {
        self.chunks.iter().flat_map(|c| c.sols.iter())
    }

    /// Drains the list into a flat `Vec`, releasing its ledger charge.
    #[must_use]
    pub fn into_vec(mut self) -> Vec<StatSolution> {
        let mut out = Vec::with_capacity(self.len());
        for chunk in &mut self.chunks {
            out.append(&mut chunk.sols);
        }
        // Drop runs next and releases the charge (chunks are empty).
        out
    }
}

impl Drop for ChunkedList {
    fn drop(&mut self) {
        if let Some(ledger) = &self.ledger {
            ledger.release(self.charged);
        }
        self.charged = 0;
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

    fn dummy(i: usize) -> StatSolution {
        StatSolution::new(
            CanonicalForm::constant(i as f64),
            CanonicalForm::constant(-(i as f64)),
        )
    }

    #[test]
    fn chunked_list_spans_chunks_and_preserves_order() {
        let mut list = ChunkedList::new();
        let n = CHUNK_CAP * 2 + 17;
        for i in 0..n {
            list.push(dummy(i), 64);
        }
        assert_eq!(list.len(), n);
        assert_eq!(list.charged_bytes(), 64 * n);
        assert!(list.iter().count() == n);
        let flat = list.into_vec();
        for (i, s) in flat.iter().enumerate() {
            assert_eq!(s.load_mean(), i as f64);
        }
    }

    #[test]
    fn ledger_tracks_live_and_peak_across_lists() {
        let ledger = Arc::new(ChunkLedger::new());
        let mut a = ChunkedList::with_ledger(Arc::clone(&ledger));
        let mut b = ChunkedList::with_ledger(Arc::clone(&ledger));
        for i in 0..10 {
            a.push(dummy(i), 100);
        }
        for i in 0..5 {
            b.push(dummy(i), 100);
        }
        assert_eq!(ledger.live(), 1500);
        assert_eq!(ledger.peak(), 1500);
        drop(a);
        assert_eq!(ledger.live(), 500);
        assert_eq!(ledger.peak(), 1500, "peak is a high-water mark");
        let drained = b.into_vec();
        assert_eq!(drained.len(), 5);
        assert_eq!(ledger.live(), 0);
    }
}
