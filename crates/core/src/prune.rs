//! The statistical pruning rules (Section 2 of the paper).
//!
//! A pruning rule decides when one random solution *dominates* another —
//! the single design decision that determines whether the dynamic program
//! stays polynomial:
//!
//! * [`TwoParam`] — the paper's contribution. Solutions are ordered by
//!   the probability conditions (6)–(7), `P(L₁<L₂) ≥ p̄_L` and
//!   `P(T₁>T₂) ≥ p̄_T`. Under joint normality this ordering is total and
//!   transitive (Lemmas 2–4, Theorem 2), so merge and prune run in
//!   **linear** time over mean-sorted lists, giving `O(B·N²)` overall
//!   (Theorem 1).
//! * [`FourParam`] — the rule of the DATE 2005 paper \[7\] this work
//!   extends: interval dominance between percentile pairs. Only a partial
//!   order, so merging needs the full `O(n·m)` cross product and pruning
//!   `O(N²)` pairwise checks — the blow-up shown in Table 2.
//! * [`OneParam`] — the simplified single-percentile rule of \[8\]:
//!   deterministic dominance applied to fixed percentiles; linear, but
//!   blind to correlations between solutions.

use crate::solution::StatSolution;
use std::cmp::Ordering;
use std::convert::Infallible;
use std::fmt;
use varbuf_stats::norm_quantile;

/// Structure-of-arrays scratch holding every solution's pruning keys,
/// computed **once** per prune/merge instead of once per comparison.
///
/// `load`/`rat` hold the rule's scalar keys (load ascending = better, RAT
/// descending = better); `aux` holds rule-specific extra columns (the 4P
/// rule stores its four percentile arrays there). The table is recycled
/// across nodes by the DP's solution pool, so batch key computation is
/// allocation-free once the vectors have grown to the high-water mark.
#[derive(Debug, Default, Clone)]
pub struct KeyTable {
    /// Load keys (ascending = better), aligned with the solution list.
    pub load: Vec<f64>,
    /// RAT keys (descending = better), aligned with the solution list.
    pub rat: Vec<f64>,
    /// Rule-specific auxiliary columns; unused ones stay empty.
    pub aux: [Vec<f64>; 4],
}

impl KeyTable {
    /// Empties all columns, retaining capacity.
    pub fn clear(&mut self) {
        self.load.clear();
        self.rat.clear();
        for a in &mut self.aux {
            a.clear();
        }
    }

    /// Number of keyed solutions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.load.len()
    }

    /// Whether the table holds no keys.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.load.is_empty()
    }

    /// Swaps the keys of solutions `i` and `j` in every populated column
    /// (keeps the table aligned when the solution list is permuted).
    pub fn swap(&mut self, i: usize, j: usize) {
        self.load.swap(i, j);
        self.rat.swap(i, j);
        for a in &mut self.aux {
            if !a.is_empty() {
                a.swap(i, j);
            }
        }
    }

    /// Moves the keys at `from` to `to` (`to ≤ from`), shifting those at
    /// `to..from` up one place, in every populated column (keeps the
    /// table aligned when the list rotates the same range).
    fn rotate_in(&mut self, to: usize, from: usize) {
        self.load[to..=from].rotate_right(1);
        self.rat[to..=from].rotate_right(1);
        for a in &mut self.aux {
            if !a.is_empty() {
                a[to..=from].rotate_right(1);
            }
        }
    }

    /// Truncates every populated column to `len`.
    pub fn truncate(&mut self, len: usize) {
        self.load.truncate(len);
        self.rat.truncate(len);
        for a in &mut self.aux {
            if !a.is_empty() {
                a.truncate(len);
            }
        }
    }
}

/// A rule was configured with thresholds outside its valid range.
///
/// Returned by the `try_new` constructors so that user-supplied
/// parameters (e.g. a CLI `--p` flag) surface as a recoverable error
/// instead of a panic deep inside the optimizer.
#[derive(Debug, Clone, PartialEq)]
pub struct RuleConfigError {
    rule: &'static str,
    message: String,
}

impl RuleConfigError {
    fn new(rule: &'static str, message: String) -> Self {
        Self { rule, message }
    }

    /// Name of the rule that rejected its configuration.
    #[must_use]
    pub fn rule(&self) -> &'static str {
        self.rule
    }
}

impl fmt::Display for RuleConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid {} configuration: {}", self.rule, self.message)
    }
}

impl std::error::Error for RuleConfigError {}

/// A pruning key came out non-finite (NaN or ±∞).
///
/// `f64::total_cmp` gives NaN a defined sort position, but a NaN load or
/// RAT key means the solution itself is corrupt — comparisons against it
/// are meaningless and the dominance sweep would silently keep or drop it
/// depending on where the sort happened to place it. The checked prune
/// entry point surfaces the first offender as a typed error instead.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NonFiniteKey {
    /// Index of the offending solution in the pre-prune list.
    pub index: usize,
    /// Name of the key column (`"load"`, `"rat"`, or `"aux[k]"`).
    pub column: &'static str,
    /// The non-finite value itself.
    pub value: f64,
}

impl fmt::Display for NonFiniteKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "solution {} has a non-finite {} pruning key ({})",
            self.index, self.column, self.value
        )
    }
}

impl std::error::Error for NonFiniteKey {}

/// How a rule's `merge`/`prune` must traverse solution sets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergeStrategy {
    /// The rule induces a total, transitive order: lists stay sorted and
    /// merge/prune are linear walks (Figure 1 of the paper).
    SortedLinear,
    /// The rule is only a partial order: all `n·m` combinations must be
    /// formed and pruning is pairwise quadratic.
    CrossProduct,
}

/// The comparison a rule's keyed dominance makes, named by
/// [`PruningRule::keyed_dominance`] so that pruning sweeps can run it
/// inline over the key columns instead of calling the rule for every
/// pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeyedDominance {
    /// `a` dominates `b` iff `load[a] ≤ load[b]` and `rat[a] ≥ rat[b]`.
    LoadRat,
    /// Interval dominance over the percentile columns of the 4P rule:
    /// `aux[1][a] < aux[0][b]` and `aux[2][a] > aux[3][b]`.
    Intervals,
    /// No key comparison decides it: the rule's
    /// [`dominates`](PruningRule::dominates) reads the forms.
    Forms,
}

impl KeyedDominance {
    /// Whether solution `a` (by index) dominates solution `b` under
    /// `rule`, whose comparison this is. `keys` must be aligned with
    /// `sols` (same order).
    #[inline]
    fn holds<R: PruningRule + ?Sized>(
        self,
        rule: &R,
        keys: &KeyTable,
        a: usize,
        b: usize,
        sols: &[StatSolution],
    ) -> bool {
        match self {
            Self::LoadRat => keys.load[a] <= keys.load[b] && keys.rat[a] >= keys.rat[b],
            Self::Intervals => keys.aux[1][a] < keys.aux[0][b] && keys.aux[2][a] > keys.aux[3][b],
            Self::Forms => rule.dominates(&sols[a], &sols[b]),
        }
    }

    /// Marks in `dominated` every solution that solution `i` dominates,
    /// `i` itself excepted: [`holds`](Self::holds) for a whole row. A mark
    /// once set stays set and no verdict reads another, so the interval
    /// comparisons run branch-free down the columns.
    fn mark_row<R: PruningRule + ?Sized>(
        self,
        rule: &R,
        keys: &KeyTable,
        i: usize,
        sols: &[StatSolution],
        dominated: &mut [bool],
    ) {
        if self == Self::Intervals {
            let (load_hi, rat_lo) = (keys.aux[1][i], keys.aux[2][i]);
            let columns = keys.aux[0].iter().zip(&keys.aux[3]);
            for (j, (d, (&load_lo, &rat_hi))) in dominated.iter_mut().zip(columns).enumerate() {
                *d |= (load_hi < load_lo) & (rat_lo > rat_hi) & (j != i);
            }
            return;
        }
        for (j, d) in dominated.iter_mut().enumerate() {
            if !*d && j != i && self.holds(rule, keys, i, j, sols) {
                *d = true;
            }
        }
    }
}

/// A dominance relation between statistical solutions.
///
/// This trait is sealed in spirit: the three implementations in this
/// module are the rules the paper studies, and the DP engine treats them
/// uniformly through it. Rules must be `Send + Sync` so the batch pool
/// can share one rule object across its workers; the three paper rules
/// are plain `Copy` value types, so this costs nothing.
pub trait PruningRule: fmt::Debug + Send + Sync {
    /// Human-readable rule name (`"2P"`, `"4P"`, `"1P"`).
    fn name(&self) -> &'static str;

    /// The traversal strategy this rule supports.
    fn strategy(&self) -> MergeStrategy;

    /// Scalar key ordering loads ascending (smaller = better).
    fn load_key(&self, s: &StatSolution) -> f64;

    /// Scalar key ordering RATs (larger = better).
    fn rat_key(&self, s: &StatSolution) -> f64;

    /// Whether `a` dominates `b` (so `b` may be discarded).
    fn dominates(&self, a: &StatSolution, b: &StatSolution) -> bool;

    /// Computes every solution's keys in one batch into `keys`
    /// (cleared first). The default fills `load`/`rat` from
    /// [`load_key`](Self::load_key)/[`rat_key`](Self::rat_key); rules
    /// with more expensive keys (4P percentiles) override this to hoist
    /// shared work (e.g. `norm_quantile` lookups) out of the per-solution
    /// loop. Key values are bitwise what the scalar accessors return.
    fn batch_keys(&self, sols: &[StatSolution], keys: &mut KeyTable) {
        keys.clear();
        keys.load.extend(sols.iter().map(|s| self.load_key(s)));
        keys.rat.extend(sols.iter().map(|s| self.rat_key(s)));
    }

    /// How [`dominates`](Self::dominates) reads through the keys that
    /// [`batch_keys`](Self::batch_keys) computes. Rules whose dominance
    /// is a pure key comparison name it, so pruning sweeps touch only
    /// flat `f64` columns; the default, [`KeyedDominance::Forms`], asks
    /// `dominates` for every pair. Either way the verdict is bitwise the
    /// form-based one.
    fn keyed_dominance(&self) -> KeyedDominance {
        KeyedDominance::Forms
    }

    /// Whether this rule's scalar keys are plain means — i.e.
    /// `load_key == load_mean()` and `rat_key == rat_mean()` with
    /// dominance a pure `(load ≤, rat ≥)` key comparison. When true, the
    /// DP can prune solutions whose deferred wire coupling is still
    /// pending, since deferral never perturbs a mean (see
    /// `DpOptions::use_lazy_wire`). Percentile-keyed rules (1P, 2P with
    /// thresholds above 0.5, 2P9) read a σ that depends on the RAT
    /// terms, so they return the default `false`.
    fn mean_keys(&self) -> bool {
        false
    }
}

/// The proposed two-parameter rule, eqs. (6)–(7).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TwoParam {
    p_load: f64,
    p_rat: f64,
}

impl TwoParam {
    /// Creates the rule with thresholds `p̄_L` and `p̄_T`.
    ///
    /// # Panics
    ///
    /// Panics unless both thresholds are in `[0.5, 1)` — values below 0.5
    /// are meaningless for pruning (footnote 3 of the paper) and `1.0`
    /// degenerates to the almost-sure ordering of eqs. (4)–(5).
    #[must_use]
    pub fn new(p_load: f64, p_rat: f64) -> Self {
        match Self::try_new(p_load, p_rat) {
            Ok(rule) => rule,
            Err(e) => panic!("2P thresholds must be in [0.5, 1), got ({p_load}, {p_rat}): {e}"),
        }
    }

    /// Fallible variant of [`new`](Self::new) for user-supplied
    /// thresholds.
    ///
    /// # Errors
    ///
    /// Returns [`RuleConfigError`] unless both thresholds are in
    /// `[0.5, 1)`.
    pub fn try_new(p_load: f64, p_rat: f64) -> Result<Self, RuleConfigError> {
        if !((0.5..1.0).contains(&p_load) && (0.5..1.0).contains(&p_rat)) {
            return Err(RuleConfigError::new(
                "2P",
                format!("thresholds must be in [0.5, 1), got ({p_load}, {p_rat})"),
            ));
        }
        Ok(Self { p_load, p_rat })
    }

    /// The thresholds `(p̄_L, p̄_T)`.
    #[must_use]
    pub fn thresholds(&self) -> (f64, f64) {
        (self.p_load, self.p_rat)
    }
}

impl Default for TwoParam {
    /// The `p̄_L = p̄_T = 0.5` setting of Theorem 1 (pure mean ordering).
    fn default() -> Self {
        Self::new(0.5, 0.5)
    }
}

impl PruningRule for TwoParam {
    fn name(&self) -> &'static str {
        "2P"
    }

    fn strategy(&self) -> MergeStrategy {
        MergeStrategy::SortedLinear
    }

    fn load_key(&self, s: &StatSolution) -> f64 {
        s.load_mean()
    }

    fn rat_key(&self, s: &StatSolution) -> f64 {
        s.rat_mean()
    }

    fn dominates(&self, a: &StatSolution, b: &StatSolution) -> bool {
        if self.p_load == 0.5 && self.p_rat == 0.5 {
            // Lemma 4: the probability conditions reduce to mean ordering.
            return a.load_mean() <= b.load_mean() && a.rat_mean() >= b.rat_mean();
        }
        a.load.prob_less(&b.load) >= self.p_load && a.rat.prob_greater(&b.rat) >= self.p_rat
    }

    fn keyed_dominance(&self) -> KeyedDominance {
        if self.mean_keys() {
            // The keys ARE the means — the whole check reads two flat
            // columns (the 2P hot path).
            KeyedDominance::LoadRat
        } else {
            // Thresholded 2P needs the probability integrals; prob_less /
            // prob_greater are allocation-free via `sub_stats`.
            KeyedDominance::Forms
        }
    }

    fn mean_keys(&self) -> bool {
        self.p_load == 0.5 && self.p_rat == 0.5
    }
}

/// The four-parameter rule of the DATE 2005 paper \[7\], eqs. (2)–(3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FourParam {
    alpha_l: f64,
    alpha_u: f64,
    beta_l: f64,
    beta_u: f64,
}

impl FourParam {
    /// Creates the rule with load percentiles `(α_l, α_u)` and RAT
    /// percentiles `(β_l, β_u)`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < α_l < α_u < 1` and `0 < β_l < β_u < 1`.
    #[must_use]
    pub fn new(alpha_l: f64, alpha_u: f64, beta_l: f64, beta_u: f64) -> Self {
        match Self::try_new(alpha_l, alpha_u, beta_l, beta_u) {
            Ok(rule) => rule,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible variant of [`new`](Self::new) for user-supplied
    /// percentile pairs.
    ///
    /// # Errors
    ///
    /// Returns [`RuleConfigError`] unless `0 < α_l < α_u < 1` and
    /// `0 < β_l < β_u < 1`.
    pub fn try_new(
        alpha_l: f64,
        alpha_u: f64,
        beta_l: f64,
        beta_u: f64,
    ) -> Result<Self, RuleConfigError> {
        if !(0.0 < alpha_l && alpha_l < alpha_u && alpha_u < 1.0) {
            return Err(RuleConfigError::new(
                "4P",
                format!("need 0 < α_l < α_u < 1, got ({alpha_l}, {alpha_u})"),
            ));
        }
        if !(0.0 < beta_l && beta_l < beta_u && beta_u < 1.0) {
            return Err(RuleConfigError::new(
                "4P",
                format!("need 0 < β_l < β_u < 1, got ({beta_l}, {beta_u})"),
            ));
        }
        Ok(Self {
            alpha_l,
            alpha_u,
            beta_l,
            beta_u,
        })
    }
}

impl Default for FourParam {
    /// A representative designer preference: 10%/90% intervals.
    fn default() -> Self {
        Self::new(0.1, 0.9, 0.1, 0.9)
    }
}

impl PruningRule for FourParam {
    fn name(&self) -> &'static str {
        "4P"
    }

    fn strategy(&self) -> MergeStrategy {
        MergeStrategy::CrossProduct
    }

    fn load_key(&self, s: &StatSolution) -> f64 {
        s.load_mean()
    }

    fn rat_key(&self, s: &StatSolution) -> f64 {
        s.rat_mean()
    }

    fn dominates(&self, a: &StatSolution, b: &StatSolution) -> bool {
        // Eq. (2): π_{α_u}(L₁) < π_{α_l}(L₂);
        // eq. (3): π_{β_l}(T₁) > π_{β_u}(T₂).
        a.load.percentile(self.alpha_u) < b.load.percentile(self.alpha_l)
            && a.rat.percentile(self.beta_l) > b.rat.percentile(self.beta_u)
    }

    fn batch_keys(&self, sols: &[StatSolution], keys: &mut KeyTable) {
        keys.clear();
        keys.load.extend(sols.iter().map(|s| s.load_mean()));
        keys.rat.extend(sols.iter().map(|s| s.rat_mean()));
        // Hoist the four quantile inversions out of the per-solution loop
        // (`norm_quantile` is deterministic, so the products are bitwise
        // what per-call `percentile` computes), and take each form's
        // std_dev once instead of once per percentile.
        let z_al = norm_quantile(self.alpha_l);
        let z_au = norm_quantile(self.alpha_u);
        let z_bl = norm_quantile(self.beta_l);
        let z_bu = norm_quantile(self.beta_u);
        for s in sols {
            let (lm, ls) = (s.load.mean(), s.load.std_dev());
            if ls == 0.0 {
                keys.aux[0].push(lm);
                keys.aux[1].push(lm);
            } else {
                keys.aux[0].push(lm + z_al * ls);
                keys.aux[1].push(lm + z_au * ls);
            }
            let (rm, rs) = (s.rat.mean(), s.rat.std_dev());
            if rs == 0.0 {
                keys.aux[2].push(rm);
                keys.aux[3].push(rm);
            } else {
                keys.aux[2].push(rm + z_bl * rs);
                keys.aux[3].push(rm + z_bu * rs);
            }
        }
    }

    fn keyed_dominance(&self) -> KeyedDominance {
        // `batch_keys` stores aux[0] = π_{α_l}(L), aux[1] = π_{α_u}(L),
        // aux[2] = π_{β_l}(T), aux[3] = π_{β_u}(T).
        KeyedDominance::Intervals
    }
}

/// The one-parameter percentile rule of \[8\]: deterministic dominance on
/// fixed percentiles (load at `α`, RAT at `1−α`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OneParam {
    alpha: f64,
}

impl OneParam {
    /// Creates the rule with percentile `α`.
    ///
    /// # Panics
    ///
    /// Panics unless `α ∈ (0, 1)`.
    #[must_use]
    pub fn new(alpha: f64) -> Self {
        match Self::try_new(alpha) {
            Ok(rule) => rule,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible variant of [`new`](Self::new) for a user-supplied
    /// percentile.
    ///
    /// # Errors
    ///
    /// Returns [`RuleConfigError`] unless `α ∈ (0, 1)`.
    pub fn try_new(alpha: f64) -> Result<Self, RuleConfigError> {
        if !((0.0..1.0).contains(&alpha) && alpha > 0.0) {
            return Err(RuleConfigError::new(
                "1P",
                format!("percentile must be in (0, 1), got {alpha}"),
            ));
        }
        Ok(Self { alpha })
    }
}

impl Default for OneParam {
    /// The conservative 95th-percentile setting.
    fn default() -> Self {
        Self::new(0.95)
    }
}

impl PruningRule for OneParam {
    fn name(&self) -> &'static str {
        "1P"
    }

    fn strategy(&self) -> MergeStrategy {
        MergeStrategy::SortedLinear
    }

    fn load_key(&self, s: &StatSolution) -> f64 {
        s.load.percentile(self.alpha)
    }

    fn rat_key(&self, s: &StatSolution) -> f64 {
        s.rat.percentile(1.0 - self.alpha)
    }

    fn dominates(&self, a: &StatSolution, b: &StatSolution) -> bool {
        self.load_key(a) <= self.load_key(b) && self.rat_key(a) >= self.rat_key(b)
    }

    fn keyed_dominance(&self) -> KeyedDominance {
        // The percentile keys were computed once by `batch_keys`; the
        // per-comparison sqrt/quantile work of the scalar path vanishes.
        KeyedDominance::LoadRat
    }
}

/// Removes dominated solutions.
///
/// For [`MergeStrategy::SortedLinear`] rules this sorts by the load key
/// and sweeps once, pruning against the last kept solution — sound by the
/// transitivity theorems. For [`MergeStrategy::CrossProduct`] rules it
/// falls back to pairwise `O(N²)` elimination.
///
/// The output is sorted by ascending load key (and, for linear rules,
/// ascending RAT key).
#[must_use]
pub fn prune_solutions(rule: &dyn PruningRule, mut sols: Vec<StatSolution>) -> Vec<StatSolution> {
    prune_solutions_in_place(rule, &mut sols);
    sols
}

/// [`prune_solutions`] without the by-value round trip: the survivors are
/// compacted to the front of `sols` and the tail truncated, so the DP hot
/// path reuses one buffer instead of allocating a `kept` vector per
/// prune. Output order is identical to [`prune_solutions`].
pub fn prune_solutions_in_place(rule: &dyn PruningRule, sols: &mut Vec<StatSolution>) {
    let mut scratch = PruneScratch::default();
    prune_solutions_keyed(rule, sols, &mut scratch);
}

/// Recycled scratch for [`prune_solutions_keyed`]: the key table plus the
/// argsort/permutation/flag buffers. One per DP run, reused across
/// every node, so a steady-state prune allocates nothing.
#[derive(Debug, Default)]
pub struct PruneScratch {
    /// The batched key columns (exposed so callers can reuse the keys of
    /// the most recent prune).
    pub keys: KeyTable,
    order: Vec<u32>,
    perm: Vec<u32>,
    flags: Vec<bool>,
    retired: Vec<StatSolution>,
}

impl PruneScratch {
    /// Drains the solutions the last prune eliminated. A recycling pool
    /// can reclaim their term-vector capacity (the DP's `SolPool` does);
    /// dropping the iterator discards whatever it did not consume, which
    /// is also what happens when the scratch is simply reused.
    pub fn drain_retired(&mut self) -> std::vec::Drain<'_, StatSolution> {
        self.retired.drain(..)
    }
}

/// Longest unsorted tail that [`sort_keyed`] binary-inserts entry by
/// entry; a longer one is argsorted whole. A buffering step appends one
/// candidate per buffer type to a sorted list.
const INSERT_TAIL_MAX: usize = 16;

/// Stable-sorts `sols`, and `keys` in lockstep, by `cmp` over key
/// indices. The longest sorted prefix stays in place and each later
/// entry is rotated in at its upper bound, after every entry that does
/// not order after it: all of those came earlier in the input, so this
/// is the position a stable sort gives it. Moving an entry moves 8-byte
/// handles and key columns. A tail longer than [`INSERT_TAIL_MAX`] is
/// argsorted whole instead (any stable sort yields the same order).
fn sort_keyed(
    sols: &mut [StatSolution],
    keys: &mut KeyTable,
    order: &mut Vec<u32>,
    perm: &mut Vec<u32>,
    cmp: impl Fn(&KeyTable, usize, usize) -> Ordering,
) {
    let n = sols.len();
    let mut sorted = n.min(1);
    while sorted < n && cmp(keys, sorted - 1, sorted) != Ordering::Greater {
        sorted += 1;
    }
    if n - sorted > INSERT_TAIL_MAX {
        order.clear();
        order.extend(0..n as u32);
        order.sort_by(|&a, &b| cmp(keys, a as usize, b as usize));
        apply_order(sols, keys, order, perm);
        return;
    }
    for i in sorted..n {
        let (mut lo, mut hi) = (0, i);
        while lo < hi {
            let mid = (lo + hi) / 2;
            if cmp(keys, mid, i) == Ordering::Greater {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        if lo < i {
            sols[lo..=i].rotate_right(1);
            keys.rotate_in(lo, i);
        }
    }
}

/// Applies the sorted order to `sols` and `keys` in lockstep:
/// `final[k] = original[order[k]]`. Consumes `perm` as scratch (rebuilt
/// as the inverse permutation, then reduced to the identity by cycle
/// swaps).
fn apply_order(sols: &mut [StatSolution], keys: &mut KeyTable, order: &[u32], perm: &mut Vec<u32>) {
    perm.clear();
    perm.resize(order.len(), 0);
    // perm[i] = destination position of the element currently at i.
    for (k, &src) in order.iter().enumerate() {
        perm[src as usize] = k as u32;
    }
    for i in 0..perm.len() {
        while perm[i] as usize != i {
            let j = perm[i] as usize;
            sols.swap(i, j);
            keys.swap(i, j);
            perm.swap(i, j);
        }
    }
}

/// Moves the survivors (`keep(r)`) to the front of `sols`, in order and
/// with `keys` aligned, and the rest into `retired`.
fn compact(
    sols: &mut Vec<StatSolution>,
    keys: &mut KeyTable,
    retired: &mut Vec<StatSolution>,
    mut keep: impl FnMut(&KeyTable, &[StatSolution], usize, usize) -> bool,
) {
    // `w` is one past the last kept entry.
    let mut w = 0usize;
    for r in 0..sols.len() {
        if !keep(keys, sols, w, r) {
            continue;
        }
        // Until the first elimination every survivor is already in place.
        if w != r {
            sols.swap(w, r);
            keys.swap(w, r);
        }
        w += 1;
    }
    retired.extend(sols.drain(w..));
    keys.truncate(w);
}

/// [`prune_solutions_in_place`] driven by batched keys: the rule computes
/// every solution's keys once ([`PruningRule::batch_keys`]), the sort and
/// dominance sweeps then run over flat `f64` columns, comparing them
/// inline where the rule's [`PruningRule::keyed_dominance`] names the
/// comparison, and all scratch comes from the recycled `scratch`.
/// Survivor set and output order are identical — bitwise — to sorting
/// with a stable sort on the rule's keys and sweeping with
/// [`PruningRule::dominates`]: the keys are the same deterministic values
/// the scalar accessors produce, compared in the same order.
///
/// A [`MergeStrategy::SortedLinear`] list is put in (load key ascending,
/// RAT key descending) order by keeping its sorted prefix in place and
/// binary-inserting the entries after it, so the sorted list plus a few
/// buffered candidates that a buffering step prunes costs a few binary
/// searches, not a sort.
///
/// On return, `scratch.keys` holds the surviving solutions' keys, aligned
/// with `sols`.
pub fn prune_solutions_keyed(
    rule: &dyn PruningRule,
    sols: &mut Vec<StatSolution>,
    scratch: &mut PruneScratch,
) {
    let Ok(()) = prune_solutions_polled(rule, sols, scratch, || Ok::<_, Infallible>(false));
}

/// [`prune_solutions_keyed`] with a `poll` that the quadratic
/// [`MergeStrategy::CrossProduct`] sweep calls before every 256th row:
/// an error aborts the prune and leaves `sols` as it was, and `Ok(true)`
/// stops the sweep early, so the rows swept so far alone decide which
/// solutions are eliminated (a superset of the non-dominated set
/// survives). Linear rules never poll.
pub(crate) fn prune_solutions_polled<E>(
    rule: &dyn PruningRule,
    sols: &mut Vec<StatSolution>,
    scratch: &mut PruneScratch,
    mut poll: impl FnMut() -> Result<bool, E>,
) -> Result<(), E> {
    let n = sols.len();
    // Eliminated solutions from the previous prune that nobody drained
    // are dropped here, so a non-draining caller stays bounded.
    scratch.retired.clear();
    rule.batch_keys(sols, &mut scratch.keys);
    debug_assert_eq!(scratch.keys.len(), n, "rule keyed fewer solutions");
    let dominance = rule.keyed_dominance();
    match rule.strategy() {
        MergeStrategy::SortedLinear => {
            sort_keyed(
                sols,
                &mut scratch.keys,
                &mut scratch.order,
                &mut scratch.perm,
                |k, a, b| {
                    k.load[a]
                        .total_cmp(&k.load[b])
                        .then(k.rat[b].total_cmp(&k.rat[a]))
                },
            );
            // Each entry is checked against the last one kept.
            compact(
                sols,
                &mut scratch.keys,
                &mut scratch.retired,
                |k, s, w, r| w == 0 || !dominance.holds(rule, k, w - 1, r, s),
            );
        }
        MergeStrategy::CrossProduct => {
            scratch.flags.clear();
            scratch.flags.resize(n, false);
            for i in 0..n {
                if i % 256 == 0 && poll()? {
                    break;
                }
                if !scratch.flags[i] {
                    dominance.mark_row(rule, &scratch.keys, i, sols, &mut scratch.flags);
                }
            }
            let dominated = &scratch.flags;
            compact(
                sols,
                &mut scratch.keys,
                &mut scratch.retired,
                |_, _, _, r| !dominated[r],
            );
            sort_keyed(
                sols,
                &mut scratch.keys,
                &mut scratch.order,
                &mut scratch.perm,
                |k, a, b| k.load[a].total_cmp(&k.load[b]),
            );
        }
    }
    Ok(())
}

/// [`prune_solutions_keyed`] with a non-finite key guard: after batching
/// the keys, every populated column is scanned and the first NaN/∞ entry
/// is reported as a typed [`NonFiniteKey`] error, leaving `sols`
/// untouched. The DP's internal path stays unchecked — its kernels cannot
/// produce non-finite values from the validated inputs — but externally
/// assembled solution lists (a stored design, a user bridge) should come
/// through here.
///
/// # Errors
///
/// Returns [`NonFiniteKey`] identifying the first offending solution and
/// key column.
pub fn prune_solutions_keyed_checked(
    rule: &dyn PruningRule,
    sols: &mut Vec<StatSolution>,
    scratch: &mut PruneScratch,
) -> Result<(), NonFiniteKey> {
    rule.batch_keys(sols, &mut scratch.keys);
    let columns: [(&'static str, &[f64]); 6] = [
        ("load", &scratch.keys.load),
        ("rat", &scratch.keys.rat),
        ("aux[0]", &scratch.keys.aux[0]),
        ("aux[1]", &scratch.keys.aux[1]),
        ("aux[2]", &scratch.keys.aux[2]),
        ("aux[3]", &scratch.keys.aux[3]),
    ];
    for (column, values) in columns {
        if let Some((index, &value)) = values.iter().enumerate().find(|(_, v)| !v.is_finite()) {
            return Err(NonFiniteKey {
                index,
                column,
                value,
            });
        }
    }
    prune_solutions_keyed(rule, sols, scratch);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use varbuf_stats::{CanonicalForm, SourceId};

    fn sol(load: f64, rat: f64) -> StatSolution {
        StatSolution::new(CanonicalForm::constant(load), CanonicalForm::constant(rat))
    }

    fn sol_var(load: f64, lsig: f64, rat: f64, rsig: f64, src: u32) -> StatSolution {
        StatSolution::new(
            CanonicalForm::with_terms(load, vec![(SourceId(src), lsig)]),
            CanonicalForm::with_terms(rat, vec![(SourceId(src + 100), rsig)]),
        )
    }

    #[test]
    fn two_param_mean_ordering() {
        let rule = TwoParam::default();
        let a = sol(10.0, -50.0);
        let b = sol(20.0, -60.0);
        assert!(rule.dominates(&a, &b));
        assert!(!rule.dominates(&b, &a));
        // Incomparable pair: smaller load but worse RAT.
        let c = sol(5.0, -100.0);
        assert!(!rule.dominates(&a, &c));
        assert!(!rule.dominates(&c, &a));
    }

    #[test]
    fn two_param_high_threshold_needs_margin() {
        let rule = TwoParam::new(0.9, 0.9);
        // Tiny mean differences with large variance: not dominated.
        let a = sol_var(10.0, 5.0, -50.0, 5.0, 0);
        let b = sol_var(10.5, 5.0, -51.0, 5.0, 1);
        assert!(!rule.dominates(&a, &b));
        // Huge margins: dominated even at 0.9.
        let c = sol_var(100.0, 5.0, -500.0, 5.0, 2);
        assert!(rule.dominates(&a, &c));
    }

    #[test]
    fn two_param_correlated_solutions_prune_easier() {
        // Same source in both: the difference variance shrinks, so a
        // modest margin suffices at a high threshold — the paper's
        // argument for why 2P keeps working on real (correlated) nets.
        let rule = TwoParam::new(0.9, 0.9);
        let a = StatSolution::new(
            CanonicalForm::with_terms(10.0, vec![(SourceId(0), 5.0)]),
            CanonicalForm::with_terms(-50.0, vec![(SourceId(1), 5.0)]),
        );
        let b = StatSolution::new(
            CanonicalForm::with_terms(12.0, vec![(SourceId(0), 5.0)]),
            CanonicalForm::with_terms(-55.0, vec![(SourceId(1), 5.0)]),
        );
        // Differences are deterministic (perfect correlation) → P = 1.
        assert!(rule.dominates(&a, &b));
    }

    #[test]
    #[should_panic(expected = "2P thresholds")]
    fn two_param_rejects_bad_threshold() {
        let _ = TwoParam::new(0.4, 0.5);
    }

    #[test]
    fn four_param_interval_dominance() {
        let rule = FourParam::default();
        // Deterministic solutions: percentiles equal the values.
        let a = sol(10.0, -50.0);
        let b = sol(20.0, -60.0);
        assert!(rule.dominates(&a, &b));
        // Wide variance makes intervals overlap → incomparable.
        let c = sol_var(10.0, 20.0, -50.0, 20.0, 0);
        let d = sol_var(20.0, 20.0, -60.0, 20.0, 1);
        assert!(!rule.dominates(&c, &d));
        assert!(!rule.dominates(&d, &c));
    }

    #[test]
    fn one_param_percentile_keys() {
        let rule = OneParam::new(0.95);
        let tight = sol_var(10.0, 0.1, -50.0, 0.1, 0);
        let loose = sol_var(10.0, 10.0, -50.0, 10.0, 1);
        // The loose solution's 95th-percentile load is much worse.
        assert!(rule.load_key(&loose) > rule.load_key(&tight));
        assert!(rule.rat_key(&loose) < rule.rat_key(&tight));
        assert!(rule.dominates(&tight, &loose));
        assert!(!rule.dominates(&loose, &tight));
    }

    #[test]
    fn prune_keeps_pareto_front_two_param() {
        let rule = TwoParam::default();
        let sols = vec![
            sol(10.0, -100.0),
            sol(20.0, -80.0),
            sol(30.0, -60.0),
            sol(15.0, -120.0), // dominated by the first
            sol(25.0, -90.0),  // dominated by the second
        ];
        let kept = prune_solutions(&rule, sols);
        assert_eq!(kept.len(), 3);
        // Sorted by load, RAT strictly improving.
        for w in kept.windows(2) {
            assert!(w[0].load_mean() < w[1].load_mean());
            assert!(w[0].rat_mean() < w[1].rat_mean());
        }
    }

    #[test]
    fn prune_four_param_keeps_incomparables() {
        let rule = FourParam::default();
        // Same means, huge variances → intervals overlap → nothing prunes.
        let sols = vec![
            sol_var(10.0, 30.0, -100.0, 30.0, 0),
            sol_var(12.0, 30.0, -95.0, 30.0, 1),
            sol_var(14.0, 30.0, -90.0, 30.0, 2),
        ];
        let kept = prune_solutions(&rule, sols);
        assert_eq!(kept.len(), 3, "4P must keep overlapping-interval solutions");
        // The same set under 2P collapses to a single survivor chain.
        let rule2 = TwoParam::default();
        let sols2 = vec![
            sol_var(10.0, 30.0, -100.0, 30.0, 0),
            sol_var(12.0, 30.0, -95.0, 30.0, 1),
            sol_var(14.0, 30.0, -90.0, 30.0, 2),
        ];
        let kept2 = prune_solutions(&rule2, sols2);
        assert_eq!(kept2.len(), 3); // strictly increasing load AND rat: all kept
                                    // But a dominated-by-mean one disappears under 2P and not under 4P.
        let extra = vec![
            sol_var(10.0, 30.0, -100.0, 30.0, 0),
            sol_var(11.0, 30.0, -101.0, 30.0, 1), // worse mean load and rat
        ];
        assert_eq!(prune_solutions(&rule2, extra.clone()).len(), 1);
        assert_eq!(prune_solutions(&rule, extra).len(), 2);
    }

    #[test]
    fn prune_empty_and_singleton() {
        let rule = TwoParam::default();
        assert!(prune_solutions(&rule, vec![]).is_empty());
        assert_eq!(prune_solutions(&rule, vec![sol(1.0, -1.0)]).len(), 1);
    }

    #[test]
    fn prune_removes_exact_duplicates() {
        let rule = TwoParam::default();
        let kept = prune_solutions(&rule, vec![sol(5.0, -10.0), sol(5.0, -10.0)]);
        assert_eq!(kept.len(), 1);
    }

    /// Reference implementation: the pre-KeyTable prune, kept verbatim so
    /// the keyed path can be pinned against it.
    fn prune_reference(rule: &dyn PruningRule, sols: &mut Vec<StatSolution>) {
        match rule.strategy() {
            MergeStrategy::SortedLinear => {
                sols.sort_by(|a, b| {
                    rule.load_key(a)
                        .total_cmp(&rule.load_key(b))
                        .then(rule.rat_key(b).total_cmp(&rule.rat_key(a)))
                });
                let mut w = 0usize;
                for r in 0..sols.len() {
                    if w > 0 && rule.dominates(&sols[w - 1], &sols[r]) {
                        continue;
                    }
                    sols.swap(w, r);
                    w += 1;
                }
                sols.truncate(w);
            }
            MergeStrategy::CrossProduct => {
                let mut dominated = vec![false; sols.len()];
                for i in 0..sols.len() {
                    if dominated[i] {
                        continue;
                    }
                    for j in 0..sols.len() {
                        if i == j || dominated[j] {
                            continue;
                        }
                        if rule.dominates(&sols[i], &sols[j]) {
                            dominated[j] = true;
                        }
                    }
                }
                let mut flags = dominated.iter();
                sols.retain(|_| !flags.next().expect("same length"));
                sols.sort_by(|a, b| rule.load_key(a).total_cmp(&rule.load_key(b)));
            }
        }
    }

    #[test]
    fn keyed_prune_matches_reference_for_all_rules() {
        use varbuf_stats::SplitMix64;
        let rules: [&dyn PruningRule; 5] = [
            &TwoParam::default(),
            &TwoParam::new(0.9, 0.9),
            &FourParam::default(),
            &OneParam::default(),
            &OneParam::new(0.6),
        ];
        let mut scratch = PruneScratch::default();
        for (ri, rule) in rules.iter().enumerate() {
            for seed in [1u64, 2, 3] {
                let mut rng = SplitMix64::new(seed * 31 + ri as u64);
                // Sizes straddling the insertion-sort cutoff, plus
                // duplicates to exercise sort stability.
                for n in [0usize, 1, 2, 17, 63, 64, 90] {
                    let base: Vec<StatSolution> = (0..n)
                        .map(|i| {
                            let load = (rng.next_u64() % 8) as f64 + rng.next_f64() * 0.01;
                            let rat = -100.0 + (rng.next_u64() % 8) as f64;
                            if i % 3 == 0 {
                                sol(load, rat) // deterministic duplicates
                            } else {
                                sol_var(
                                    load,
                                    rng.next_f64() * 3.0,
                                    rat,
                                    rng.next_f64() * 3.0,
                                    i as u32,
                                )
                            }
                        })
                        .collect();
                    let mut reference = base.clone();
                    prune_reference(*rule, &mut reference);
                    let mut keyed = base;
                    prune_solutions_keyed(*rule, &mut keyed, &mut scratch);
                    assert_eq!(
                        keyed.len(),
                        reference.len(),
                        "{} n={n} seed={seed}",
                        rule.name()
                    );
                    assert_eq!(scratch.keys.len(), keyed.len());
                    for (k, (a, b)) in keyed.iter().zip(&reference).enumerate() {
                        assert_eq!(
                            a.load_mean().to_bits(),
                            b.load_mean().to_bits(),
                            "{} n={n} seed={seed} pos={k} load",
                            rule.name()
                        );
                        assert_eq!(
                            a.rat_mean().to_bits(),
                            b.rat_mean().to_bits(),
                            "{} n={n} seed={seed} pos={k} rat",
                            rule.name()
                        );
                        assert_eq!(a.load, b.load);
                        assert_eq!(a.rat, b.rat);
                        // The retained key column matches the rule's
                        // scalar accessors on the survivor.
                        assert_eq!(scratch.keys.load[k].to_bits(), rule.load_key(a).to_bits());
                        assert_eq!(scratch.keys.rat[k].to_bits(), rule.rat_key(a).to_bits());
                    }
                }
            }
        }
    }

    #[test]
    fn batched_four_param_keys_match_percentiles_bitwise() {
        let rule = FourParam::new(0.2, 0.8, 0.15, 0.85);
        let sols = vec![
            sol(10.0, -50.0),
            sol_var(12.0, 4.0, -60.0, 2.5, 0),
            sol_var(9.0, 0.0, -40.0, 7.0, 1),
        ];
        let mut keys = KeyTable::default();
        rule.batch_keys(&sols, &mut keys);
        for (i, s) in sols.iter().enumerate() {
            assert_eq!(keys.aux[0][i].to_bits(), s.load.percentile(0.2).to_bits());
            assert_eq!(keys.aux[1][i].to_bits(), s.load.percentile(0.8).to_bits());
            assert_eq!(keys.aux[2][i].to_bits(), s.rat.percentile(0.15).to_bits());
            assert_eq!(keys.aux[3][i].to_bits(), s.rat.percentile(0.85).to_bits());
        }
        // Keyed dominance equals form dominance on every pair.
        for i in 0..sols.len() {
            for j in 0..sols.len() {
                assert_eq!(
                    rule.keyed_dominance().holds(&rule, &keys, i, j, &sols),
                    rule.dominates(&sols[i], &sols[j])
                );
            }
        }
    }

    #[test]
    fn keyed_prune_empty_list() {
        let rule = TwoParam::default();
        let mut scratch = PruneScratch::default();
        let mut sols: Vec<StatSolution> = vec![];
        prune_solutions_keyed(&rule, &mut sols, &mut scratch);
        assert!(sols.is_empty());
        assert!(scratch.keys.is_empty());
        assert_eq!(scratch.drain_retired().count(), 0);
    }

    #[test]
    fn keyed_prune_single_solution() {
        let mut scratch = PruneScratch::default();
        for rule in [
            &TwoParam::default() as &dyn PruningRule,
            &FourParam::default(),
            &OneParam::default(),
        ] {
            let mut sols = vec![sol(7.0, -3.0)];
            prune_solutions_keyed(rule, &mut sols, &mut scratch);
            assert_eq!(sols.len(), 1, "{}", rule.name());
            assert_eq!(sols[0].load_mean(), 7.0);
            assert_eq!(scratch.keys.len(), 1);
            assert_eq!(scratch.drain_retired().count(), 0);
        }
    }

    #[test]
    fn keyed_prune_all_identical_keys() {
        // Every solution has bit-identical keys: the first dominates the
        // rest (non-strict comparisons), exactly one survives, and the
        // retired carcasses are all recoverable.
        let mut scratch = PruneScratch::default();
        let rule = TwoParam::default();
        let mut sols: Vec<StatSolution> = (0..8).map(|_| sol(5.0, -10.0)).collect();
        prune_solutions_keyed(&rule, &mut sols, &mut scratch);
        assert_eq!(sols.len(), 1);
        assert_eq!(sols[0].load_mean(), 5.0);
        assert_eq!(scratch.drain_retired().count(), 7);
        // 4P interval dominance is strict (<, >), so identical keys are
        // incomparable and everything survives.
        let rule4 = FourParam::default();
        let mut sols4: Vec<StatSolution> = (0..8).map(|_| sol(5.0, -10.0)).collect();
        prune_solutions_keyed(&rule4, &mut sols4, &mut scratch);
        assert_eq!(sols4.len(), 8);
    }

    #[test]
    fn checked_prune_rejects_non_finite_keys() {
        let rule = TwoParam::default();
        let mut scratch = PruneScratch::default();

        let mut sols = vec![sol(1.0, -1.0), sol(f64::NAN, -2.0), sol(3.0, -3.0)];
        let e = prune_solutions_keyed_checked(&rule, &mut sols, &mut scratch).unwrap_err();
        assert_eq!(e.index, 1);
        assert_eq!(e.column, "load");
        assert!(e.value.is_nan());
        assert_eq!(sols.len(), 3, "the list must be left untouched on error");
        assert!(e.to_string().contains("non-finite"), "{e}");

        let mut sols = vec![sol(1.0, f64::INFINITY)];
        let e = prune_solutions_keyed_checked(&rule, &mut sols, &mut scratch).unwrap_err();
        assert_eq!((e.index, e.column), (0, "rat"));
        assert_eq!(e.value, f64::INFINITY);

        // Finite lists pass through with the identical survivor set.
        let mut checked = vec![sol(10.0, -100.0), sol(15.0, -120.0), sol(20.0, -80.0)];
        let mut unchecked = checked.clone();
        prune_solutions_keyed_checked(&rule, &mut checked, &mut scratch).unwrap();
        prune_solutions_keyed(&rule, &mut unchecked, &mut scratch);
        assert_eq!(checked.len(), unchecked.len());
        for (a, b) in checked.iter().zip(&unchecked) {
            assert_eq!(a.load, b.load);
            assert_eq!(a.rat, b.rat);
        }
    }

    #[test]
    fn checked_prune_scans_aux_columns() {
        // A 4P rule with zero σ keeps aux = mean, so a non-finite mean
        // shows up in `load` first; force a NaN into an aux column via a
        // non-finite variance term instead.
        let rule = FourParam::default();
        let mut scratch = PruneScratch::default();
        let mut sols = vec![sol(1.0, -1.0), sol_var(2.0, f64::NAN, -2.0, 1.0, 0)];
        let e = prune_solutions_keyed_checked(&rule, &mut sols, &mut scratch).unwrap_err();
        assert_eq!(e.index, 1);
        assert!(e.column.starts_with("aux"), "{}", e.column);
    }

    #[test]
    fn presorted_fast_path_matches_unsorted_input() {
        // The same multiset pruned from sorted and shuffled order must
        // produce the identical survivor list (the fast path only skips
        // a sort that would be the identity).
        let rule = TwoParam::default();
        let mut scratch = PruneScratch::default();
        let sorted = vec![
            sol(10.0, -100.0),
            sol(15.0, -120.0),
            sol(20.0, -80.0),
            sol(25.0, -90.0),
            sol(30.0, -60.0),
        ];
        let mut shuffled = vec![
            sorted[4].clone(),
            sorted[1].clone(),
            sorted[3].clone(),
            sorted[0].clone(),
            sorted[2].clone(),
        ];
        let mut fast = sorted.clone();
        prune_solutions_keyed(&rule, &mut fast, &mut scratch);
        prune_solutions_keyed(&rule, &mut shuffled, &mut scratch);
        assert_eq!(fast.len(), shuffled.len());
        for (a, b) in fast.iter().zip(&shuffled) {
            assert_eq!(a.load_mean().to_bits(), b.load_mean().to_bits());
            assert_eq!(a.rat_mean().to_bits(), b.rat_mean().to_bits());
        }
    }

    #[test]
    fn rule_names() {
        assert_eq!(TwoParam::default().name(), "2P");
        assert_eq!(FourParam::default().name(), "4P");
        assert_eq!(OneParam::default().name(), "1P");
        assert_eq!(TwoParam::default().strategy(), MergeStrategy::SortedLinear);
        assert_eq!(FourParam::default().strategy(), MergeStrategy::CrossProduct);
    }

    #[test]
    fn try_new_rejects_out_of_range_thresholds() {
        let e = TwoParam::try_new(0.4, 0.9).unwrap_err();
        assert_eq!(e.rule(), "2P");
        assert!(e.to_string().contains("[0.5, 1)"), "{e}");
        assert!(TwoParam::try_new(0.9, 0.9).is_ok());

        let e = FourParam::try_new(0.9, 0.1, 0.1, 0.9).unwrap_err();
        assert_eq!(e.rule(), "4P");
        assert!(FourParam::try_new(0.1, 0.9, 0.1, 0.9).is_ok());
        assert!(FourParam::try_new(0.1, 0.9, 0.9, 0.1).is_err());

        let e = OneParam::try_new(1.5).unwrap_err();
        assert_eq!(e.rule(), "1P");
        assert!(OneParam::try_new(0.0).is_err());
        assert!(OneParam::try_new(0.95).is_ok());
    }
}
