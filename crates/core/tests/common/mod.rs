//! Checks shared by the integration suites.

use varbuf_core::dp::{RunRequest, RunResult};
use varbuf_core::YieldEvaluator;

/// Independently re-evaluates a run's design (its buffers and wire
/// widths, on the request's tree, model and mode) and asserts the
/// reported root RAT is real: finite, with a mean within 1e-6 relative
/// of the re-evaluation — the "valid buffered tree" check.
pub fn assert_valid_design(label: &str, request: &RunRequest<'_>, run: &RunResult) {
    let r = &run.result;
    assert!(r.root_rat.mean().is_finite(), "{label}: RAT mean");
    assert!(r.root_rat.variance().is_finite(), "{label}: RAT variance");
    let widths = request.sizing.edge_widths(&r.wire_widths);
    let independent = YieldEvaluator::new(request.tree, request.model, request.mode)
        .rat_form_sized(&r.assignment, &widths);
    assert!(
        (independent.mean() - r.root_rat.mean()).abs() < 1e-6 * r.root_rat.mean().abs(),
        "{label}: evaluator {} vs DP {}",
        independent.mean(),
        r.root_rat.mean()
    );
}
