//! Micro-benchmarks of the canonical-form kernels: the engine's region
//! windows on operands built from the process model's device forms
//! ([`KernelOperands`]), the same values laid out fully sparse, and the
//! sparse tail alone (D2D-style forms) across term counts.

use varbuf_bench::harness::{black_box, Bencher};
use varbuf_bench::KernelOperands;
use varbuf_stats::clark::stat_min_assign;
use varbuf_stats::{stat_min, CanonicalForm, SourceId};

fn form(terms: usize, offset: u32, stride: u32) -> CanonicalForm {
    CanonicalForm::with_terms(
        100.0,
        (0..terms as u32)
            .map(|i| (SourceId(offset + i * stride), 0.3 + f64::from(i % 5)))
            .collect(),
    )
}

/// The DP's kernel calls on one operand set: a merge's load sum and
/// Clark blend, the prune's difference moments, a buffering step and a
/// wire step.
fn bench_dp_kernels(group: &mut Bencher, label: &str, ops: &KernelOperands) {
    let [load_a, load_b] = &ops.loads;
    let [rat_a, rat_b] = &ops.rats;
    let mut dest = CanonicalForm::default();
    group.bench(&format!("{label}/lin_comb_into"), || {
        dest.lin_comb_into(black_box(load_a), 1.0, black_box(load_b), 1.0);
        dest.mean()
    });
    group.bench(&format!("{label}/stat_min_assign"), || {
        stat_min_assign(&mut dest, black_box(rat_a), black_box(rat_b))
    });
    group.bench(&format!("{label}/sub_stats"), || {
        black_box(rat_a).sub_stats(black_box(rat_b))
    });
    group.bench(&format!("{label}/lin_comb_sub_into"), || {
        dest.lin_comb_sub_into(black_box(rat_a), 1.0, load_a, -0.4, &ops.delay);
        dest.mean()
    });
    let mut rat = rat_a.clone();
    group.bench(&format!("{label}/add_scaled_assign"), || {
        rat.add_scaled_assign(black_box(load_a), -1e-6);
        rat.mean()
    });
}

fn main() {
    let mut group = Bencher::new("canonical");
    let windowed = KernelOperands::build();
    bench_dp_kernels(&mut group, "window", &windowed);
    bench_dp_kernels(&mut group, "sparse", &windowed.sparse());
    for &k in &[8usize, 64, 512, 2048] {
        // Half-overlapping source sets: the realistic D2D merge case.
        let a = form(k, 0, 2);
        let b = form(k, 1, 2);
        group.bench(&format!("linear_combination/{k}"), || {
            black_box(&a).linear_combination(1.0, black_box(&b), -0.5)
        });
        group.bench(&format!("covariance/{k}"), || {
            black_box(&a).covariance(black_box(&b))
        });
        group.bench(&format!("stat_min/{k}"), || {
            stat_min(black_box(&a), black_box(&b))
        });
        group.bench(&format!("prob_greater/{k}"), || {
            black_box(&a).prob_greater(black_box(&b))
        });
    }
    group.finish();
}
