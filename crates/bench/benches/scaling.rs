//! Benchmark of the end-to-end DP across benchmark sizes — the measured
//! backbone of Figure 5's linearity claim — plus the batch-throughput
//! comparison for the batch pool (one worker vs four).
//!
//! All DP timings route through [`optimize_batch`] with one worker, so
//! the wall-clock columns reflect the engine the CLI and experiment
//! binaries actually run: the plain sequential loop, on one thread on
//! both sides of every statistical/deterministic ratio. On top of the
//! printed tables the run writes machine-readable `BENCH_dp.json` at
//! the repo root (median ns, solutions/sec, peak list size per bench,
//! plus the thread count the batch speedup must be judged against).
//!
//! `VARBUF_BENCH_SMOKE=1` shrinks sizes and budgets to a CI-friendly
//! smoke run and writes `target/BENCH_dp.smoke.json` instead, so a
//! smoke run never overwrites the committed full-size numbers.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};
use varbuf_bench::harness::{alloc_counter, black_box, BenchConfig, Bencher, JsonReport};
use varbuf_bench::KernelOperands;
use varbuf_core::det::optimize_deterministic;
use varbuf_core::governor::Budget;
use varbuf_core::hier::HierOptions;
use varbuf_core::pool::{default_jobs, optimize_batch, optimize_batch_forced, BatchRequest};
use varbuf_core::prune::TwoParam;
use varbuf_core::service::{EditOp, OptimizeParams, Request, Response, Service, ServiceConfig};
use varbuf_core::RequestError;
use varbuf_rctree::generate::{generate_benchmark, generate_htree, BenchmarkSpec, HTreeSpec};
use varbuf_rctree::RoutingTree;
use varbuf_stats::clark::stat_min_assign;
use varbuf_stats::{prob_greater_normal, CanonicalForm, SourceId};
use varbuf_variation::{ProcessModel, SpatialKind, VariationMode};

/// Counting allocator: lets the bench assert the DP hot path stays
/// (nearly) allocation-free per candidate — see `assert_alloc_budget`.
#[global_allocator]
static ALLOC: alloc_counter::CountingAlloc = alloc_counter::CountingAlloc;

fn request<'a>(tree: &'a RoutingTree, model: &'a ProcessModel) -> BatchRequest<'a> {
    let mut req = BatchRequest::new(
        tree,
        model,
        VariationMode::WithinDie,
        Arc::new(TwoParam::default()),
    );
    req.strict = true;
    req
}

/// Median of `pairs` per-pair `num / den` wall-clock ratios. Each pair
/// times one run of each side back to back, alternating which side goes
/// first, so drift on a shared host hits both sides of a pair alike
/// instead of skewing two independent medians.
fn paired_ratio(pairs: usize, mut num: impl FnMut(), mut den: impl FnMut()) -> f64 {
    let time = |f: &mut dyn FnMut()| {
        let t = Instant::now();
        f();
        t.elapsed().as_secs_f64()
    };
    let mut ratios: Vec<f64> = Vec::with_capacity(pairs);
    for i in 0..pairs {
        let (n, d) = if i % 2 == 0 {
            let n = time(&mut num);
            (n, time(&mut den))
        } else {
            let d = time(&mut den);
            (time(&mut num), d)
        };
        ratios.push(n / d.max(f64::MIN_POSITIVE));
    }
    ratios.sort_by(f64::total_cmp);
    ratios[ratios.len() / 2]
}

fn main() {
    let smoke = std::env::var_os("VARBUF_BENCH_SMOKE").is_some();

    let mut report = JsonReport::new();
    report.meta_str("bench", "scaling");
    report.meta_num("threads_available", default_jobs() as f64);
    report.meta_num("smoke", u32::from(smoke).into());

    // Per-size scaling, Figure 5 style.
    let sizes: &[usize] = if smoke {
        &[64]
    } else {
        &[128, 256, 512, 1024, 4096]
    };
    let config = if smoke {
        BenchConfig {
            warmup: Duration::from_millis(10),
            measure: Duration::from_millis(200),
            max_iters: 5,
        }
    } else {
        BenchConfig::slow()
    };
    let mut group = Bencher::new("dp_scaling").with_config(config);
    let mut last_ratio = f64::NAN;
    let mut last_ratio_sinks = 0usize;
    for &sinks in sizes {
        let tree = generate_benchmark(&BenchmarkSpec::random("scale", sinks, 77)).subdivided(500.0);
        let model = ProcessModel::paper_defaults(tree.bounding_box(), SpatialKind::Heterogeneous);

        let reqs = vec![request(&tree, &model)];
        // The first run on this fresh model collects the DP counters for
        // annotation and doubles as the allocation-budget probe: it is
        // what every CLI `opt` and benchmark item pays. The engine's
        // recycling pool is per-run and device forms are written into
        // its scratch, so the per-candidate allocations left in the hot
        // path are the trace `Arc`s recording lineage (one per merge pair
        // / buffered candidate) and the box of each solution the pool
        // cannot supply from a recycled carcass: about one allocation per
        // generated solution, under the bound of two.
        let allocs_before = alloc_counter::alloc_count();
        let stats = optimize_batch(&reqs, 1)
            .pop()
            .expect("one request")
            .expect("completes")
            .result
            .stats;
        let run_allocs = alloc_counter::alloc_count() - allocs_before;
        assert!(
            run_allocs < 2 * stats.solutions_generated as u64,
            "DP hot path regressed to per-candidate heap traffic: \
             {run_allocs} allocations for {} generated solutions at N={sinks}",
            stats.solutions_generated
        );
        group
            .bench(&format!("2P-WID/{sinks}"), || {
                optimize_batch(black_box(&reqs), 1)
            })
            .annotate_dp(stats.solutions_generated, stats.max_solutions_per_node);
        group.bench(&format!("deterministic/{sinks}"), || {
            optimize_deterministic(black_box(&tree), model.library()).expect("completes")
        });
        // The statistical/deterministic gap: the median of per-pair
        // wall-clock ratios at identical tree size (the committed
        // baseline was ~29x at N=1024).
        last_ratio = paired_ratio(
            if smoke { 41 } else { 21 },
            || drop(black_box(optimize_batch(black_box(&reqs), 1))),
            || {
                drop(black_box(optimize_deterministic(
                    black_box(&tree),
                    model.library(),
                )))
            },
        );
        last_ratio_sinks = sinks;
        report.meta_num(&format!("stat_vs_det_ratio_{sinks}"), last_ratio);
    }
    group.finish();
    report.record_group("dp_scaling", group.results());
    // The headline ratio always aliases the largest size *actually run*
    // (a smoke run shrinks the size list), so the size it came from is
    // recorded alongside — consumers must not assume N=1024.
    report.meta_num("stat_vs_det_ratio", last_ratio);
    report.meta_num("stat_vs_det_ratio_sinks", last_ratio_sinks as f64);
    println!("stat vs det ratio (N={last_ratio_sinks}): {last_ratio:.2}x");

    // Counter attribution runs at N=1024 (not the 4096 tail of the
    // scaling sweep), so its counters keep their historical size and
    // remain comparable across releases.
    let attr_sinks = if smoke { sizes[0] } else { 1024 };
    let attr_tree =
        generate_benchmark(&BenchmarkSpec::random("scale", attr_sinks, 77)).subdivided(500.0);
    let attr_model =
        ProcessModel::paper_defaults(attr_tree.bounding_box(), SpatialKind::Heterogeneous);
    let attr_stats = optimize_batch(&[request(&attr_tree, &attr_model)], 1)
        .pop()
        .expect("one request")
        .expect("completes")
        .result
        .stats;
    let generated = attr_stats.solutions_generated.max(1) as f64;
    report.meta_num("pruned_by_dominance", attr_stats.pruned_by_dominance as f64);
    report.meta_num(
        "pruned_by_dominance_ratio",
        attr_stats.pruned_by_dominance as f64 / generated,
    );

    // Lazy wire propagation: deferred affine wire transforms (the
    // default) vs the eager per-segment kernels, on subdivision-heavy
    // trees where the deferral pays — `subdiv` segments per ~1000 µm
    // Steiner edge means the eager path rewrites every RAT term
    // `subdiv` times per chain while the lazy path folds the whole
    // chain into one materialization at the next merge/buffer. The
    // oracle suite (`tests/lazy_wire_oracle.rs`) pins the two paths
    // equal-objective, so the delta here is pure avoided term traffic.
    // The heaviest configuration runs last so the headline
    // `lazy_wire_speedup` aliases it.
    let wire_cfgs: &[(usize, usize)] = if smoke {
        &[(16, 64)]
    } else {
        &[(4, 256), (16, 256), (4, 1024), (16, 1024)]
    };
    let mut wh = Bencher::new("wire_heavy").with_config(config);
    let mut lazy_speedup = f64::NAN;
    let mut lazy_label = (0usize, 0usize);
    for &(subdiv, sinks) in wire_cfgs {
        // The random benchmarks place sinks on a 1000·√N µm die, so a
        // typical Steiner edge runs ~1000 µm; this pitch splits it into
        // ~`subdiv` buffer-candidate segments.
        let pitch = 1000.0 / subdiv as f64;
        let tree =
            generate_benchmark(&BenchmarkSpec::random("wire-heavy", sinks, 77)).subdivided(pitch);
        let model = ProcessModel::paper_defaults(tree.bounding_box(), SpatialKind::Heterogeneous);
        let on_reqs = vec![request(&tree, &model)];
        let mut off_reqs = vec![request(&tree, &model)];
        off_reqs[0].options.use_lazy_wire = false;
        let probe = optimize_batch(&on_reqs, 1)
            .pop()
            .expect("one request")
            .expect("completes")
            .result
            .stats;
        wh.bench(&format!("lazy_on/{subdiv}x{sinks}"), || {
            optimize_batch(black_box(&on_reqs), 1)
        })
        .annotate_dp(probe.solutions_generated, probe.max_solutions_per_node);
        wh.bench(&format!("lazy_off/{subdiv}x{sinks}"), || {
            optimize_batch(black_box(&off_reqs), 1)
        });
        // The speedup is the median of interleaved (eager, lazy) pair
        // ratios, as `stat_vs_det_ratio` is, so a change in host speed
        // between two timing blocks cannot decide it.
        lazy_speedup = paired_ratio(
            if smoke { 41 } else { 21 },
            || drop(black_box(optimize_batch(black_box(&off_reqs), 1))),
            || drop(black_box(optimize_batch(black_box(&on_reqs), 1))),
        );
        lazy_label = (subdiv, sinks);
        report.meta_num(&format!("lazy_wire_speedup_{subdiv}x{sinks}"), lazy_speedup);
        // The wire/merge split the deferral changes — from the lazy
        // probe, so `wire_ns` covers defers + materializations.
        report.meta_num(
            &format!("wire_pass_ns_{subdiv}x{sinks}"),
            probe.wire_time.as_nanos() as f64,
        );
    }
    wh.finish();
    report.record_group("wire_heavy", wh.results());
    report.meta_num("lazy_wire_speedup", lazy_speedup);
    println!(
        "lazy wire propagation at {}x{}: {lazy_speedup:.2}x over eager per-segment kernels",
        lazy_label.0, lazy_label.1
    );

    // Batch throughput: independent nets fanned across the worker pool.
    let (net_count, net_sinks) = if smoke { (3, 24) } else { (8, 64) };
    let trees: Vec<RoutingTree> = (0..net_count)
        .map(|i| {
            generate_benchmark(&BenchmarkSpec::random("batch", net_sinks, 100 + i as u64))
                .subdivided(500.0)
        })
        .collect();
    let models: Vec<ProcessModel> = trees
        .iter()
        .map(|t| ProcessModel::paper_defaults(t.bounding_box(), SpatialKind::Heterogeneous))
        .collect();
    let reqs: Vec<BatchRequest> = trees
        .iter()
        .zip(&models)
        .map(|(t, m)| request(t, m))
        .collect();

    let sample: Vec<_> = optimize_batch(&reqs, 1)
        .into_iter()
        .map(|r| r.expect("completes").result.stats)
        .collect();
    let total_generated: usize = sample.iter().map(|s| s.solutions_generated).sum();
    let peak_list = sample
        .iter()
        .map(|s| s.max_solutions_per_node)
        .max()
        .unwrap_or(0);

    let mut batch = Bencher::new("batch_throughput").with_config(config);
    let mut medians = [Duration::ZERO; 2];
    for (slot, workers) in [1usize, 4].into_iter().enumerate() {
        // Forced: the multi-worker slot must exercise the pool even on a
        // host with fewer threads, or the reported "speedup" silently
        // compares jobs=1 against itself (threads_available in the meta
        // says how to judge the number).
        medians[slot] = batch
            .bench(&format!("{net_count}nets/jobs{workers}"), || {
                optimize_batch_forced(black_box(&reqs), workers)
            })
            .annotate_dp(total_generated, peak_list)
            .median;
    }
    batch.finish();
    report.record_group("batch_throughput", batch.results());

    let speedup = medians[0].as_secs_f64() / medians[1].as_secs_f64().max(f64::MIN_POSITIVE);
    report.meta_num("batch_speedup_jobs4_vs_jobs1", speedup);
    println!(
        "batch throughput: jobs=4 vs jobs=1 speedup {speedup:.2}x \
         ({net_count} requests on {} hardware threads)",
        default_jobs()
    );

    // Microbenches of the statistical kernels the DP spends its time
    // in. The `window/` cases run the engine's own operand shapes —
    // region windows folded from the process model's device forms
    // (`KernelOperands`): a merge's load sum and Clark blend, the
    // difference moments under them, a buffering step and a wire step.
    // The sparse cases time the tail path (D2D forms, and every form
    // built with `with_terms`): the linear combination, its in-place
    // variant, covariance over a 64-form list, and the tightness
    // probability underneath every statistical min.
    let kernel_config = if smoke {
        BenchConfig {
            warmup: Duration::from_millis(5),
            measure: Duration::from_millis(50),
            max_iters: 10_000,
        }
    } else {
        BenchConfig::default()
    };
    let mut kern = Bencher::new("canonical_kernels").with_config(kernel_config);
    let ops = KernelOperands::build();
    let ([load_a, load_b], [rat_a, rat_b]) = (&ops.loads, &ops.rats);
    let mut dest = CanonicalForm::constant(0.0);
    kern.bench("window/lin_comb_into", || {
        dest.lin_comb_into(load_a, 1.0, load_b, 1.0);
        dest.mean()
    });
    kern.bench("window/stat_min_assign", || {
        stat_min_assign(&mut dest, rat_a, rat_b)
    });
    kern.bench("window/sub_stats", || rat_a.sub_stats(rat_b));
    kern.bench("window/lin_comb_sub_into", || {
        dest.lin_comb_sub_into(rat_a, 1.0, load_a, -0.4, &ops.delay);
        dest.mean()
    });
    let mut rat = rat_a.clone();
    kern.bench("window/add_scaled_assign", || {
        rat.add_scaled_assign(load_a, -1e-6);
        rat.mean()
    });
    // Two overlapping ~32-term sparse forms over a 48-source universe —
    // the shape a D2D RAT's device tail takes on a mid-size net.
    let form_a = CanonicalForm::with_terms(
        -120.0,
        (0..32u32)
            .map(|i| (SourceId(i), 0.25 + f64::from(i) * 0.01))
            .collect(),
    );
    let form_b = CanonicalForm::with_terms(
        -95.0,
        (16..48u32)
            .map(|i| (SourceId(i), 0.75 - f64::from(i) * 0.01))
            .collect(),
    );
    kern.bench("linear_combination/32t", || {
        form_a.linear_combination(1.0, &form_b, -0.5)
    });
    kern.bench("lin_comb_into/32t", || {
        dest.lin_comb_into(&form_a, 1.0, &form_b, -0.5);
        dest.mean()
    });
    let forms: Vec<CanonicalForm> = (0..64u32)
        .map(|k| {
            CanonicalForm::with_terms(
                f64::from(k),
                (0..48u32)
                    .filter(|i| (i + k) % 3 != 0)
                    .map(|i| (SourceId(i), 0.1 + f64::from(i % 7) * 0.05))
                    .collect(),
            )
        })
        .collect();
    kern.bench("sparse_covariance/64x48", || {
        forms.iter().map(|f| f.covariance(&form_a)).sum::<f64>()
    });
    kern.bench("prob_greater_normal", || {
        prob_greater_normal(
            black_box(-100.0),
            black_box(-101.5),
            black_box(2.0),
            black_box(2.5),
            black_box(0.35),
        )
    });
    kern.finish();
    report.record_group("canonical_kernels", kern.results());

    // Resident service: per-request round-trip latency (p50/p99 over
    // individual samples, not Bencher medians), sustained throughput,
    // and the admission-control shed count under a deliberate overload
    // burst. The session stays open across all samples, so the net is
    // parsed and its model built once — the set-up the service exists
    // to amortize.
    let (svc_sinks, svc_requests) = if smoke { (12usize, 40usize) } else { (48, 400) };
    // Cache off: with the solution cache armed every repeat opt on an
    // unedited session is a pure replay, which would silently turn this
    // latency metric into the incremental benchmark below. Pinning it
    // cold keeps p50/p99/throughput comparable across releases.
    let mut service = Service::new(ServiceConfig {
        use_cache: false,
        ..ServiceConfig::default()
    });
    let svc_tree = generate_benchmark(&BenchmarkSpec::random("serve", svc_sinks, 11));
    let svc_cost = svc_tree.len() as u64;
    let handle = match service.execute(Request::Open {
        tree: Box::new(svc_tree),
        spatial: SpatialKind::Heterogeneous,
    }) {
        Response::Opened { handle, .. } => handle,
        other => panic!("service open failed: {other}"),
    };
    let opt = || Request::Optimize {
        handle,
        params: OptimizeParams::default(),
    };
    let mut latencies = Vec::with_capacity(svc_requests);
    let span = Instant::now();
    for _ in 0..svc_requests {
        let t = Instant::now();
        let response = service.execute(opt());
        latencies.push(t.elapsed());
        assert!(
            !response.is_error(),
            "clean service run errored: {response}"
        );
    }
    let elapsed = span.elapsed();
    latencies.sort_unstable();
    let p50 = latencies[svc_requests / 2];
    let p99 = latencies[(svc_requests * 99 / 100).min(svc_requests - 1)];
    let throughput = svc_requests as f64 / elapsed.as_secs_f64().max(f64::MIN_POSITIVE);
    report.meta_num("service_p50_ns", p50.as_nanos() as f64);
    report.meta_num("service_p99_ns", p99.as_nanos() as f64);
    report.meta_num("service_throughput_rps", throughput);

    // Overload burst: room for 4 requests, 12 submitted — the rest must
    // come back `overloaded`, and the drain must answer every one.
    let mut burst = Service::new(ServiceConfig {
        queue_hard_cost: svc_cost * 4,
        queue_soft_cost: svc_cost * 2,
        ..ServiceConfig::default()
    });
    let burst_tree = generate_benchmark(&BenchmarkSpec::random("serve", svc_sinks, 11));
    let burst_handle = match burst.execute(Request::Open {
        tree: Box::new(burst_tree),
        spatial: SpatialKind::Heterogeneous,
    }) {
        Response::Opened { handle, .. } => handle,
        other => panic!("service open failed: {other}"),
    };
    for _ in 0..12 {
        burst.submit(Request::Optimize {
            handle: burst_handle,
            params: OptimizeParams::default(),
        });
    }
    let burst_responses = burst.drain(1);
    let shed = burst_responses
        .iter()
        .filter(|r| matches!(r, Response::Error(RequestError::Overloaded { .. })))
        .count();
    assert_eq!(burst_responses.len(), 12, "drain must answer every request");
    assert!(shed > 0, "overload burst never shed");
    report.meta_num("service_shed", shed as f64);

    let mut svc_bench = Bencher::new("service").with_config(kernel_config);
    svc_bench.bench(&format!("execute_opt/{svc_sinks}sinks"), || {
        service.execute(opt())
    });
    svc_bench.finish();
    report.record_group("service", svc_bench.results());
    println!(
        "service: p50 {:.3} ms, p99 {:.3} ms, {throughput:.0} req/s, {shed} shed in burst",
        p50.as_secs_f64() * 1e3,
        p99.as_secs_f64() * 1e3,
    );

    // Incremental re-optimization: the edit→opt loop the session cache
    // exists for. Two services over identical N-sink trees — one with
    // the default (armed) cache, one pinned cold — replay the same
    // single-sink RAT-edit script; the warm side recomputes only the
    // dirtied root path, the cold side reruns the full DP. The headline
    // `incremental_speedup` is the median of interleaved (cold, warm)
    // pair ratios of one edit→opt round each, as `stat_vs_det_ratio`
    // is, so one host stall inside a timing block cannot decide it; the
    // warm side's hit/miss counters give `cache_hit_rate` (results are
    // byte-identical either way — `tests/incremental.rs` is the oracle).
    let inc_sinks = if smoke { 96usize } else { 1024 };
    let inc_tree = generate_benchmark(&BenchmarkSpec::random("incr", inc_sinks, 23));
    let edit_sink = inc_tree.sinks().last().expect("generated tree has sinks").0;
    let open_session = |use_cache: bool| {
        let mut svc = Service::new(ServiceConfig {
            use_cache,
            ..ServiceConfig::default()
        });
        let handle = match svc.execute(Request::Open {
            tree: Box::new(inc_tree.clone()),
            spatial: SpatialKind::Heterogeneous,
        }) {
            Response::Opened { handle, .. } => handle,
            other => panic!("service open failed: {other}"),
        };
        // Prime run: on the warm side it populates the cache the edits
        // will dirty; the cold side runs it too, so both sides share one
        // history.
        let warmup = svc.execute(Request::Optimize {
            handle,
            params: OptimizeParams::default(),
        });
        assert!(!warmup.is_error(), "prime run errored: {warmup}");
        (svc, handle, 0usize)
    };
    // One round: the next RAT edit of the script, then the opt it dirties.
    let edit_opt = |(svc, handle, round): &mut (Service, _, usize)| {
        let edited = svc.execute(Request::Edit {
            handle: *handle,
            op: EditOp::SinkRat {
                node: edit_sink,
                required_arrival: 250.0 + *round as f64 * 7.0,
            },
        });
        assert!(!edited.is_error(), "edit errored: {edited}");
        *round += 1;
        let response = svc.execute(Request::Optimize {
            handle: *handle,
            params: OptimizeParams::default(),
        });
        assert!(!response.is_error(), "incremental opt errored: {response}");
    };
    let mut warm = open_session(true);
    let mut cold = open_session(false);
    let incremental_speedup = paired_ratio(
        if smoke { 41 } else { 21 },
        || edit_opt(&mut cold),
        || edit_opt(&mut warm),
    );
    let (mut warm_svc, warm_handle, _) = warm;
    let warm_stats = warm_svc.stats();
    let cache_hit_rate = warm_stats.cache_hits as f64
        / (warm_stats.cache_hits + warm_stats.cache_misses).max(1) as f64;
    report.meta_num("incremental_speedup", incremental_speedup);
    report.meta_num("cache_hit_rate", cache_hit_rate);
    let mut inc_bench = Bencher::new("incremental").with_config(kernel_config);
    inc_bench.bench(&format!("edit_opt_warm/{inc_sinks}sinks"), || {
        let edited = warm_svc.execute(Request::Edit {
            handle: warm_handle,
            op: EditOp::SinkRat {
                node: edit_sink,
                required_arrival: 321.5,
            },
        });
        assert!(!edited.is_error(), "edit errored: {edited}");
        warm_svc.execute(Request::Optimize {
            handle: warm_handle,
            params: OptimizeParams::default(),
        })
    });
    inc_bench.finish();
    report.record_group("incremental", inc_bench.results());
    println!(
        "incremental: cold/warm edit→opt {incremental_speedup:.1}x at N={inc_sinks} \
         (median of paired rounds, hit rate {cache_hit_rate:.3})"
    );

    // Clock-tree pipeline at full-chip scale: symmetric H-trees through
    // the hierarchical engine (cut-node decomposition + streamed
    // frontiers) under a governed memory budget — the paper's
    // footnote-4 capacity configuration (> 64 000 sinks) as a recurring
    // workload. Wall-clock and the frontier ledger's byte peak are the
    // recorded observables. Smoke shrinks the trees but keeps the field
    // names, so the schema gate is mode-independent; the `cts_*` labels
    // name the full-size configuration.
    let cts_budget_bytes: usize = if smoke { 64 << 20 } else { 512 << 20 };
    let cts_budget = Budget {
        soft_mem_bytes: cts_budget_bytes,
        hard_mem_bytes: cts_budget_bytes.saturating_mul(4),
        ..Budget::unlimited()
    };
    let cts_config = BenchConfig {
        warmup: Duration::ZERO,
        measure: Duration::from_millis(1),
        max_iters: 1,
    };
    let mut cts = Bencher::new("clock_cts").with_config(cts_config);
    // Smoke trees are far below the default cut threshold; shrink it so
    // the decomposition (and its ledger accounting) actually runs.
    let hier_opts = if smoke {
        HierOptions {
            cut_nodes: 128,
            ..HierOptions::default()
        }
    } else {
        HierOptions::default()
    };
    let mut peak_chunk_bytes = 0usize;
    for (field, levels) in [
        ("cts_16k_wall_ms", if smoke { 8u32 } else { 14 }),
        ("cts_64k_wall_ms", if smoke { 10 } else { 16 }),
    ] {
        let tree = generate_htree(&HTreeSpec::with_levels(levels));
        let model = ProcessModel::paper_defaults(tree.bounding_box(), SpatialKind::Heterogeneous);
        let mut req = BatchRequest::new(
            &tree,
            &model,
            VariationMode::WithinDie,
            Arc::new(TwoParam::default()),
        )
        .with_hier(hier_opts);
        req.budget = cts_budget;
        let reqs = vec![req];
        // Probe run: collects the decomposition's ledger peak (the
        // governed report carries it) and asserts the budgeted run
        // actually completed.
        let probe = optimize_batch(&reqs, 1)
            .pop()
            .expect("one request")
            .expect("completes within the governed budget");
        peak_chunk_bytes = peak_chunk_bytes.max(probe.degradation.peak_chunk_bytes);
        let sinks = tree.sink_count();
        let median = cts
            .bench(&format!("hier_2p_wid/{sinks}"), || {
                optimize_batch(black_box(&reqs), 1)
            })
            .annotate_dp(
                probe.result.stats.solutions_generated,
                probe.result.stats.max_solutions_per_node,
            )
            .median;
        report.meta_num(field, median.as_secs_f64() * 1e3);
    }
    cts.finish();
    report.record_group("clock_cts", cts.results());
    report.meta_num("peak_chunk_bytes", peak_chunk_bytes as f64);
    report.meta_num("cts_budget_bytes", cts_budget_bytes as f64);
    assert!(
        peak_chunk_bytes <= cts_budget_bytes,
        "parked-frontier peak {peak_chunk_bytes} B exceeds the governed \
         soft memory budget {cts_budget_bytes} B"
    );
    println!("clock cts: peak chunk bytes {peak_chunk_bytes} within budget {cts_budget_bytes}");

    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let path = if smoke {
        let dir = root.join("target");
        std::fs::create_dir_all(&dir).expect("create target/");
        dir.join("BENCH_dp.smoke.json")
    } else {
        root.join("BENCH_dp.json")
    };
    report.write(&path).expect("write the bench report");
    println!("wrote {}", path.display());
}
