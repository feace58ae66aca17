//! Micro-benchmarks of the pruning rules (the Table 2 story at the
//! operation level): prune and merge cost of 2P/1P (linear) versus 4P
//! (quadratic) on synthetic candidate lists.

use varbuf_bench::harness::{black_box, Bencher};
use varbuf_core::prune::{
    prune_solutions, prune_solutions_keyed, FourParam, OneParam, PruneScratch, PruningRule,
    TwoParam,
};
use varbuf_core::solution::StatSolution;
use varbuf_stats::{CanonicalForm, SourceId};

/// Builds `n` synthetic solutions along a noisy Pareto front with a few
/// correlated variation terms each.
fn synthetic_solutions(n: usize) -> Vec<StatSolution> {
    (0..n)
        .map(|i| {
            let f = i as f64;
            let load = CanonicalForm::with_terms(
                10.0 + f,
                vec![(SourceId(0), 0.5), (SourceId(1 + (i % 7) as u32), 0.8)],
            );
            // Mostly increasing RAT with dips so pruning has work to do.
            let rat = CanonicalForm::with_terms(
                -1000.0 + 2.0 * f - if i % 5 == 0 { 15.0 } else { 0.0 },
                vec![(SourceId(0), 1.0), (SourceId(8 + (i % 5) as u32), 1.2)],
            );
            StatSolution::new(load, rat)
        })
        .collect()
}

/// What a buffering step hands the prune: a sorted, pruned list of `n`
/// entries followed by one buffered candidate per buffer type (3), each
/// with a small load and a RAT that lands it inside the list.
fn buffered_site(rule: &dyn PruningRule, n: usize) -> Vec<StatSolution> {
    // Pruning a longer front keeps `n` survivors.
    let mut sols: Vec<StatSolution> = prune_solutions(rule, synthetic_solutions(n * 5 / 4))
        .into_iter()
        .take(n)
        .collect();
    let rat_mid = sols[n / 2].rat_mean();
    for ty in 0..3 {
        let f = f64::from(ty);
        sols.push(StatSolution::new(
            CanonicalForm::with_terms(4.0 + f, vec![(SourceId(20 + ty), 0.2)]),
            CanonicalForm::with_terms(rat_mid - 3.0 * f, vec![(SourceId(0), 1.0)]),
        ));
    }
    sols
}

fn main() {
    let mut group = Bencher::new("prune");
    for &n in &[64usize, 256, 1024] {
        let sols = synthetic_solutions(n);
        let rules: Vec<(&str, Box<dyn PruningRule>)> = vec![
            ("2P", Box::new(TwoParam::default())),
            ("2P-0.9", Box::new(TwoParam::new(0.9, 0.9))),
            ("1P", Box::new(OneParam::default())),
            ("4P", Box::new(FourParam::default())),
        ];
        for (name, rule) in rules {
            group.bench(&format!("{name}/{n}"), || {
                prune_solutions(black_box(rule.as_ref()), black_box(sols.clone()))
            });
        }
    }
    // The engine's own call: the keyed prune over a recycled scratch, on
    // the list shape a buffering step produces. Each iteration prunes a
    // fresh clone; the `clone` row times the clone alone, so the prune
    // costs the difference.
    let mut scratch = PruneScratch::default();
    for &n in &[32usize, 128] {
        let rule = TwoParam::default();
        let sols = buffered_site(&rule, n);
        assert_eq!(sols.len(), n + 3, "the front must keep {n} survivors");
        group.bench(&format!("2P-buffer-site/{n}+3"), || {
            let mut list = black_box(sols.clone());
            prune_solutions_keyed(&rule, &mut list, &mut scratch);
            list
        });
        group.bench(&format!("2P-buffer-site/{n}+3/clone"), || {
            black_box(sols.clone())
        });
    }
    group.finish();
}
