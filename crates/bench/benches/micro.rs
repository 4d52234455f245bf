//! Micro-benchmarks: throughput of the substrate kernels the
//! co-exploration loop leans on (accelerator model, estimator
//! inference, gradient manipulation, supernet step) and of the
//! compile-once/replay-many training engine vs. the fresh-record
//! reference, timed with `hdx_obs::Stopwatch` (the container has no
//! criterion, and rule HDX011 keeps raw clocks inside the obs crate).
//!
//! Set `HDX_BENCH_SECS` to change the per-benchmark measurement budget
//! (default 2 s after a 0.3 s warm-up). Results — op timings plus
//! steps/sec before/after for the replay engine — are written as
//! machine-readable JSON to `BENCH_micro.json` (override the path with
//! `HDX_BENCH_JSON`); CI runs this in release mode as a smoke job.

use hdx_accel::{evaluate_network, AccelConfig, Dataflow, SearchSpace};
use hdx_core::manipulate;
use hdx_nas::supernet::FinalNet;
use hdx_nas::{Architecture, Dataset, NetworkPlan, Supernet, SupernetConfig, TaskSpec};
use hdx_obs::Stopwatch;
use hdx_surrogate::{Estimator, EstimatorConfig, PairSet};
use hdx_tensor::{
    ExecMode, ParamStore, Program, ResidualMlp, Rng, Session, Tape, Tensor, WorkerPool,
};
use std::fmt::Write as _;
use std::hint::black_box;
use std::sync::Arc;

fn measure_secs() -> f64 {
    hdx_tensor::knobs::f64_or("HDX_BENCH_SECS", 2.0)
}

/// Collected results, serialized by hand (std-only container).
#[derive(Default)]
struct Report {
    ops: Vec<(String, f64)>,         // name -> seconds/iter
    replay: Vec<(String, f64, f64)>, // name -> (fresh, compiled) steps/sec
    counters: Vec<(String, f64)>,    // name -> dimensionless value
}

impl Report {
    fn to_json(&self) -> String {
        let mut s = String::from("{\n  \"bench_secs\": ");
        let _ = write!(s, "{}", measure_secs());
        s.push_str(",\n  \"ops\": {\n");
        for (i, (name, per_iter)) in self.ops.iter().enumerate() {
            let _ = write!(
                s,
                "    \"{name}\": {{\"us_per_iter\": {:.3}, \"iters_per_sec\": {:.1}}}",
                per_iter * 1e6,
                1.0 / per_iter
            );
            s.push_str(if i + 1 < self.ops.len() { ",\n" } else { "\n" });
        }
        s.push_str("  },\n  \"replay\": {\n");
        for (i, (name, fresh, compiled)) in self.replay.iter().enumerate() {
            let _ = write!(
                s,
                "    \"{name}\": {{\"fresh_steps_per_sec\": {fresh:.1}, \
                 \"compiled_steps_per_sec\": {compiled:.1}, \"speedup\": {:.2}}}",
                compiled / fresh
            );
            s.push_str(if i + 1 < self.replay.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        s.push_str("  },\n  \"counters\": {\n");
        for (i, (name, value)) in self.counters.iter().enumerate() {
            let _ = write!(s, "    \"{name}\": {value:.4}");
            s.push_str(if i + 1 < self.counters.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        s.push_str("  }\n}\n");
        s
    }
}

/// Runs `f` repeatedly for the measurement budget and prints mean
/// time/iter and iterations/second.
fn bench(report: &mut Report, name: &str, mut f: impl FnMut()) -> f64 {
    let warmup_secs = 0.3;
    let watch = Stopwatch::start();
    let mut warm_iters = 0u64;
    while watch.seconds() < warmup_secs {
        f();
        warm_iters += 1;
    }

    let budget = measure_secs();
    let watch = Stopwatch::start();
    let mut iters = 0u64;
    while watch.seconds() < budget {
        f();
        iters += 1;
    }
    let elapsed = watch.seconds();
    let per_iter = elapsed / iters as f64;
    println!(
        "{name:<44} {:>12.3} us/iter {:>12.1} iter/s  ({iters} iters, {warm_iters} warm)",
        per_iter * 1e6,
        1.0 / per_iter
    );
    report.ops.push((name.to_string(), per_iter));
    per_iter
}

fn bench_accel_model(report: &mut Report) {
    let plan = NetworkPlan::cifar18();
    let layers = plan.layers_for(&Architecture::uniform(18, 3));
    let cfg = AccelConfig::new(16, 16, 64, Dataflow::RowStationary).expect("valid");
    bench(report, "accel/evaluate_network_cifar18", || {
        black_box(evaluate_network(black_box(&layers), black_box(&cfg)));
    });
}

fn bench_exhaustive_search(report: &mut Report) {
    let plan = NetworkPlan::cifar18();
    let layers = plan.layers_for(&Architecture::uniform(18, 1));
    let weights = hdx_accel::CostWeights::paper();
    let jobs = hdx_tensor::num_jobs(0);

    // Cold path: the per-(layer, config) model evaluations that fill
    // the LUT. This is the expensive, parallelizable work — fresh
    // every iteration (build_layer_lut bypasses the cache).
    let seq = bench(report, "accel/layer_lut_build_2295 (jobs=1)", || {
        black_box(hdx_accel::build_layer_lut(black_box(&layers), 1));
    });
    let par = bench(
        report,
        &format!("accel/layer_lut_build_2295 (jobs=auto:{jobs})"),
        || {
            black_box(hdx_accel::build_layer_lut(black_box(&layers), 0));
        },
    );
    println!(
        "    -> parallel LUT-build speedup: {:.2}x on {jobs} workers",
        seq / par
    );

    // Warm path: exhaustive_search hits the process-global cached LUT
    // after its first call, so this measures the post-build scan — the
    // cost of every *repeated* search over the same layers, on a pool
    // that outlives the calls as a search's does.
    let pool = WorkerPool::new(jobs);
    bench(report, "accel/exhaustive_search_2295 (cached LUT)", || {
        black_box(hdx_accel::exhaustive_search(
            black_box(&layers),
            &weights,
            &[],
            &pool,
        ));
    });
}

fn bench_estimator_inference(report: &mut Report) {
    let plan = NetworkPlan::cifar18();
    let mut rng = Rng::new(1);
    let pairs = PairSet::sample(&plan, 400, &mut rng, 0);
    let mut est = Estimator::new(
        &plan,
        EstimatorConfig {
            epochs: 3,
            ..Default::default()
        },
        &mut rng,
    );
    est.train(&pairs, &mut rng);
    let input = pairs.input_row(0).to_vec();
    bench(report, "surrogate/estimator_predict", || {
        black_box(est.predict_raw(black_box(&input)));
    });
}

fn bench_gradient_manipulation(report: &mut Report) {
    let mut rng = Rng::new(2);
    let g_loss: Vec<f32> = (0..108).map(|_| rng.normal()).collect();
    let g_const: Vec<f32> = (0..108).map(|_| rng.normal()).collect();
    bench(report, "core/manipulate_108d", || {
        black_box(manipulate(
            black_box(&g_loss),
            black_box(&g_const),
            true,
            1e-3,
        ));
    });
}

fn bench_supernet_step(report: &mut Report) {
    let spec = TaskSpec::cifar_like(1);
    let ds = Dataset::generate(&spec);
    let mut rng = Rng::new(3);
    let net = Supernet::new(
        18,
        spec.feature_dim,
        spec.num_classes,
        SupernetConfig::default(),
        &mut rng,
    );
    bench(report, "nas/supernet_forward_backward", || {
        let batch = ds.train_batch(32, &mut rng);
        let mut tape = Tape::new();
        let (w, a) = net.bind(&mut tape);
        let loss = net.task_loss(&mut tape, &w, &a, &batch, &mut rng);
        black_box(tape.backward(loss));
    });
}

fn bench_space_enumeration(report: &mut Report) {
    bench(report, "accel/enumerate_space", || {
        black_box(SearchSpace::paper().enumerate().len());
    });
}

/// One estimator-shaped MLP training step (forward + backward on a
/// `[32, 114] → 3` residual MLP), fresh-record vs. compiled replay.
fn bench_mlp_step_replay(report: &mut Report) {
    let mut rng = Rng::new(4);
    let mut params = ParamStore::new();
    let mlp = ResidualMlp::new(&mut params, 114, 64, 3, 5, &mut rng);
    let x = Tensor::randn(&[32, 114], 1.0, &mut rng);
    let t = Tensor::randn(&[32, 3], 1.0, &mut rng);

    let fresh = bench(report, "tensor/mlp_step (fresh-record)", || {
        let mut tape = Tape::new();
        let b = params.bind(&mut tape);
        let xv = tape.leaf(x.clone());
        let tv = tape.leaf(t.clone());
        let pred = mlp.forward(&mut tape, &b, xv);
        let loss = tape.mse(pred, tv);
        black_box(tape.backward(loss));
    });

    let mut tape = Tape::new();
    let b = params.bind(&mut tape);
    let xv = tape.leaf(x.clone());
    let tv = tape.leaf(t.clone());
    let pred = mlp.forward(&mut tape, &b, xv);
    let loss = tape.mse(pred, tv);
    let prog = Arc::new(Program::compile(&tape, &[loss], &[]));
    let mut sess = Session::new(prog);
    let mut step = || {
        for (id, tensor) in params.iter() {
            sess.bind(b.var(id), tensor.data());
        }
        sess.bind_tensor(xv, &x);
        sess.bind_tensor(tv, &t);
        sess.forward();
        sess.backward(loss);
        black_box(sess.scalar(loss));
    };
    let compiled = bench(report, "tensor/mlp_step (session replay)", &mut step);
    println!("    -> session replay speedup: {:.2}x", fresh / compiled);
    report
        .replay
        .push(("mlp_step".to_string(), 1.0 / fresh, 1.0 / compiled));

    // Obs-overhead guard: with the trace sink disabled, the obs work a
    // replay step performs (per-dispatch counter ops plus span checks)
    // must stay under 1% of the step itself. Measured, not assumed:
    // count the dispatches one step records, then time the disabled
    // primitives directly.
    if !hdx_obs::enabled() {
        let dispatches = |snap: &[(String, u64)]| -> u64 {
            snap.iter()
                .filter(|(name, _)| name.starts_with("kernel.dispatch."))
                .map(|(_, v)| *v)
                .sum()
        };
        let before = dispatches(&hdx_obs::snapshot());
        step();
        let per_step = (dispatches(&hdx_obs::snapshot()) - before) as f64;

        static PROBE: hdx_obs::Counter = hdx_obs::Counter::new("bench.obs_probe");
        let probe_iters = 1_000_000u64;
        let watch = Stopwatch::start();
        for _ in 0..probe_iters {
            let _span = hdx_obs::span("bench.obs_probe");
            PROBE.incr();
            PROBE.add(1);
        }
        let per_probe = watch.seconds() / probe_iters as f64;
        let overhead = per_step * per_probe / compiled;
        println!(
            "    -> obs-disabled overhead estimate: {:.4}% \
             ({per_step} dispatches/step, {:.1} ns/probe)",
            overhead * 100.0,
            per_probe * 1e9
        );
        report
            .counters
            .push(("obs_disabled_overhead_pct".to_string(), overhead * 100.0));
        assert!(
            overhead <= 0.01,
            "obs-disabled overhead {:.4}% exceeds the 1% budget on mlp_step",
            overhead * 100.0
        );
    }
}

/// The engine α/v-step hardware head: 18 α rows → softmax encoding →
/// generator MLP → decoded hardware → estimator MLP → cost + hinge,
/// with three backward passes (objective, cost, constraint) per step —
/// the exact shape `hdx_core::engine::run_search` replays every step.
#[allow(clippy::too_many_lines)]
fn bench_hw_head_step_replay(report: &mut Report) {
    use hdx_tensor::Var;
    let mut rng = Rng::new(9);
    let mut alpha = ParamStore::new();
    for _ in 0..18 {
        alpha.alloc(Tensor::randn(&[1, 6], 1e-3, &mut rng));
    }
    let mut gen_params = ParamStore::new();
    let gen = ResidualMlp::new(&mut gen_params, 108, 48, 6, 5, &mut rng);
    let mut est_params = ParamStore::new();
    let est = ResidualMlp::new(&mut est_params, 114, 64, 3, 5, &mut rng);

    struct Head {
        alpha_vars: Vec<Var>,
        gen_vars: Vec<Var>,
        objective: Var,
        cost: Var,
        constraint: Var,
    }
    let record = |tape: &mut Tape,
                  alpha: &ParamStore,
                  gen_params: &ParamStore,
                  est_params: &ParamStore|
     -> Head {
        let ab = alpha.bind(tape);
        let alpha_vars: Vec<Var> = (0..18).map(|l| ab.var(alpha.id(l))).collect();
        let parts: Vec<Var> = alpha_vars
            .iter()
            .map(|&a| {
                let s = tape.scale(a, 1.0);
                tape.softmax_rows(s)
            })
            .collect();
        let enc = tape.concat_cols(&parts);
        let gb = gen_params.bind(tape);
        let gen_vars: Vec<Var> = (0..gen_params.len())
            .map(|i| gb.var(gen_params.id(i)))
            .collect();
        let raw = gen.forward(tape, &gb, enc);
        let dims_raw = tape.slice_cols(raw, 0, 3);
        let dims = tape.sigmoid(dims_raw);
        let df_raw = tape.slice_cols(raw, 3, 6);
        let df = tape.softmax_rows(df_raw);
        let hw = tape.concat_cols(&[dims, df]);
        let eb = est_params.bind(tape);
        let est_in = tape.concat_cols(&[enc, hw]);
        let norm = est.forward(tape, &eb, est_in);
        let mut metric = Vec::new();
        for m in 0..3 {
            let z = tape.slice_cols(norm, m, m + 1);
            let logv = tape.scale(z, 0.8);
            let sh = tape.add_scalar(logv, 1.5);
            metric.push(tape.exp(sh));
        }
        let p = tape.add(metric[0], metric[1]);
        let cost = tape.add(p, metric[2]);
        let objective = tape.scale(cost, 0.003);
        let constraint = tape.hinge_above(metric[0], 25.0);
        Head {
            alpha_vars,
            gen_vars,
            objective,
            cost,
            constraint,
        }
    };

    let fresh = bench(report, "core/hw_head_step (fresh-record)", || {
        let mut tape = Tape::new();
        let head = record(&mut tape, &alpha, &gen_params, &est_params);
        black_box(tape.backward(head.objective));
        black_box(tape.backward(head.cost));
        black_box(tape.backward(head.constraint));
    });

    let mut tape = Tape::new();
    let head = record(&mut tape, &alpha, &gen_params, &est_params);
    let sinks: Vec<Var> = head
        .alpha_vars
        .iter()
        .chain(&head.gen_vars)
        .copied()
        .collect();
    let prog = Arc::new(Program::compile_with_sinks(
        &tape,
        &[head.objective, head.cost, head.constraint],
        &[],
        &sinks,
    ));
    let mut sess = Session::new(prog);
    let compiled = bench(report, "core/hw_head_step (session replay)", || {
        for (l, &v) in head.alpha_vars.iter().enumerate() {
            sess.bind(v, alpha.get(alpha.id(l)).data());
        }
        for (i, &v) in head.gen_vars.iter().enumerate() {
            sess.bind(v, gen_params.get(gen_params.id(i)).data());
        }
        sess.forward();
        sess.backward(head.objective);
        sess.backward(head.cost);
        sess.backward(head.constraint);
        black_box(sess.scalar(head.objective));
    });
    println!("    -> session replay speedup: {:.2}x", fresh / compiled);
    report
        .replay
        .push(("hw_head_step".to_string(), 1.0 / fresh, 1.0 / compiled));
}

/// Full `Estimator::train` optimizer steps/sec, fresh vs. compiled —
/// first single-worker (so the engine, not thread count, is what
/// varies), then multi-worker compiled replay against the same
/// single-threaded fresh-record baseline (the parallel path the
/// ROADMAP's ≥2× goal is measured on; `HDX_JOBS` raises the worker
/// count on real multi-core hardware).
fn bench_estimator_train_replay(report: &mut Report) {
    let plan = NetworkPlan::cifar18();
    let mut rng = Rng::new(5);
    let pairs = PairSet::sample(&plan, 512, &mut rng, 0);
    let epochs = (measure_secs() * 4.0).ceil().max(2.0) as usize;
    let run = |exec: ExecMode, jobs: usize| {
        let cfg = EstimatorConfig {
            epochs,
            batch: 128,
            jobs,
            exec,
            ..Default::default()
        };
        let mut est = Estimator::new(&plan, cfg, &mut Rng::new(6));
        let watch = Stopwatch::start();
        black_box(est.train(&pairs, &mut Rng::new(7)));
        let secs = watch.seconds();
        let steps = (epochs * pairs.len().div_ceil(128)) as f64;
        steps / secs
    };
    let fresh = run(ExecMode::FreshRecord, 1);
    let compiled = run(ExecMode::Compiled, 1);
    println!(
        "surrogate/estimator_train (jobs=1)           fresh {fresh:>8.1} steps/s   \
         compiled {compiled:>8.1} steps/s   speedup {:.2}x",
        compiled / fresh
    );
    report
        .replay
        .push(("estimator_train".to_string(), fresh, compiled));

    // Multi-worker entry: at least 2 workers even on a 1-core container
    // (where it documents the no-regression bound), `HDX_JOBS`/auto on
    // real hardware.
    let jobs = hdx_tensor::num_jobs(0).max(2);
    let compiled_par = run(ExecMode::Compiled, jobs);
    println!(
        "surrogate/estimator_train (jobs={jobs})           fresh {fresh:>8.1} steps/s   \
         compiled {compiled_par:>8.1} steps/s   speedup {:.2}x",
        compiled_par / fresh
    );
    report
        .replay
        .push((format!("estimator_train_jobs{jobs}"), fresh, compiled_par));
}

/// One estimator-shaped training step on a single multi-worker
/// session: the row-partitioned fused kernels vs. a one-worker session
/// and vs. the fresh-record baseline (all bit-identical; only
/// wall-clock may differ). The replay-section entry keeps the section's
/// schema — `fresh` is genuine fresh-record, `speedup` is
/// multi-worker-replay over fresh-record, comparable to its siblings.
fn bench_mlp_step_parallel(report: &mut Report) {
    let jobs = hdx_tensor::num_jobs(0).max(2);
    let mut rng = Rng::new(4);
    let mut params = ParamStore::new();
    let mlp = ResidualMlp::new(&mut params, 114, 64, 3, 5, &mut rng);
    let x = Tensor::randn(&[32, 114], 1.0, &mut rng);
    let t = Tensor::randn(&[32, 3], 1.0, &mut rng);

    let fresh = bench(
        report,
        "tensor/mlp_step (fresh-record, par baseline)",
        || {
            let mut tape = Tape::new();
            let b = params.bind(&mut tape);
            let xv = tape.leaf(x.clone());
            let tv = tape.leaf(t.clone());
            let pred = mlp.forward(&mut tape, &b, xv);
            let loss = tape.mse(pred, tv);
            black_box(tape.backward(loss));
        },
    );

    let mut tape = Tape::new();
    let b = params.bind(&mut tape);
    let xv = tape.leaf(x.clone());
    let tv = tape.leaf(t.clone());
    let pred = mlp.forward(&mut tape, &b, xv);
    let loss = tape.mse(pred, tv);
    let prog = Arc::new(Program::compile(&tape, &[loss], &[]));

    let time_session = |report: &mut Report, name: &str, pool: Option<&WorkerPool>| {
        let mut sess = Session::new(Arc::clone(&prog));
        bench(report, name, || {
            for (id, tensor) in params.iter() {
                sess.bind(b.var(id), tensor.data());
            }
            sess.bind_tensor(xv, &x);
            sess.bind_tensor(tv, &t);
            sess.forward_with(pool);
            sess.try_backward_with(loss, pool)
                .expect("loss is an output");
            black_box(sess.scalar(loss));
        })
    };
    let seq = time_session(report, "tensor/mlp_step (session replay, jobs=1)", None);
    let pool = WorkerPool::new(jobs);
    let par = time_session(
        report,
        &format!("tensor/mlp_step (session replay, jobs={jobs})"),
        Some(&pool),
    );
    println!(
        "    -> row-parallel kernel speedup vs jobs=1 replay: {:.2}x on {jobs} workers",
        seq / par
    );
    report
        .replay
        .push((format!("mlp_step_jobs{jobs}"), 1.0 / fresh, 1.0 / par));
}

/// `FinalNet::train` steps/sec, fresh vs. compiled.
fn bench_final_net_replay(report: &mut Report) {
    let spec = TaskSpec::cifar_like(2);
    let ds = Dataset::generate(&spec);
    let arch = Architecture::uniform(18, 3);
    let steps = (measure_secs() * 400.0).ceil().max(100.0) as usize;
    let run = |exec: ExecMode| {
        let mut rng = Rng::new(8);
        let mut net = FinalNet::new(
            &arch,
            spec.feature_dim,
            spec.num_classes,
            &SupernetConfig::default(),
            &mut rng,
        );
        let watch = Stopwatch::start();
        black_box(net.train(&ds, steps, 32, &mut rng, exec, &WorkerPool::new(1)));
        steps as f64 / watch.seconds()
    };
    let fresh = run(ExecMode::FreshRecord);
    let compiled = run(ExecMode::Compiled);
    println!(
        "nas/final_net_train                          fresh {fresh:>8.1} steps/s   \
         compiled {compiled:>8.1} steps/s   speedup {:.2}x",
        compiled / fresh
    );
    report
        .replay
        .push(("final_net_train".to_string(), fresh, compiled));
}

/// Raw throughput of the blocked kernels, outside any program: the
/// three matmul shapes of the evaluator MLP step (input layer, hidden
/// layer, and the transposed gW form) plus the generator's fused
/// decode head. GFLOP/s (2·m·k·n flops per matmul) land in the JSON
/// counters so kernel regressions are visible without a full replay.
fn bench_raw_kernels(report: &mut Report) {
    use hdx_tensor::kernels::{decode_head_into, matmul_view, DecodeAct, Epilogue, MatRef, Tier};
    let mut rng = Rng::new(33);
    // The estimator's wide shapes (panel kernels); the supernet's
    // narrow search-path linears (row-lane kernels): `x·W1`, `ĝ·W2ᵀ`,
    // `h·W2`, and `Xᵀ·ĝ` of a `20 → h → 20` block at batch 32; then
    // widths on both sides of the lane/panel cutover (n ≤ 48 at
    // AVX-512, n ≤ 24 at AVX2). Rows run at the detected tier, and the
    // narrow and cutover shapes again at AVX2 when the host is wider.
    let narrow = [
        (32usize, 20usize, 4usize),
        (32, 20, 9),
        (32, 9, 20),
        (20, 32, 9),
    ];
    let cutover = [
        (32usize, 20usize, 24usize),
        (32, 20, 32),
        (32, 20, 48),
        (32, 20, 64),
    ];
    let wide = [(32usize, 114usize, 64usize), (32, 64, 64), (114, 32, 64)];
    let detected = Tier::detected();
    let mut runs: Vec<(Tier, (usize, usize, usize))> = wide
        .iter()
        .chain(&narrow)
        .chain(&cutover)
        .map(|&s| (detected, s))
        .collect();
    if detected > Tier::Avx2 {
        runs.extend(narrow.iter().chain(&cutover).map(|&s| (Tier::Avx2, s)));
    }
    for (tier, (m, k, n)) in runs {
        let a = Tensor::randn(&[m, k], 1.0, &mut rng);
        let b = Tensor::randn(&[k, n], 1.0, &mut rng);
        let mut out = vec![0.0f32; m * n];
        let prefix = if tier == detected { "" } else { "avx2_" };
        let per = bench(
            report,
            &format!("tensor/matmul_blocked_{prefix}{m}x{k}x{n}"),
            || {
                matmul_view(
                    tier,
                    MatRef::rows(black_box(a.data()), k),
                    MatRef::rows(black_box(b.data()), n),
                    &mut out,
                    m,
                    k,
                    n,
                    &Epilogue::default(),
                );
                black_box(&out);
            },
        );
        let gflops = 2.0 * (m * k * n) as f64 / per / 1e9;
        println!("    -> {gflops:.2} GFLOP/s");
        report
            .counters
            .push((format!("raw.matmul_{prefix}{m}x{k}x{n}_gflops"), gflops));
    }

    // The generator's decode head at its serving shape: one row,
    // softmax/sigmoid windows, no materialized slices.
    let parts = [
        (0usize, 8usize, DecodeAct::Softmax),
        (8, 14, DecodeAct::Sigmoid),
        (14, 20, DecodeAct::Softmax),
    ];
    let src = Tensor::randn(&[1, 20], 1.0, &mut rng);
    let mut out = vec![0.0f32; 20];
    let per = bench(report, "tensor/decode_head_fused_1x20", || {
        decode_head_into(black_box(src.data()), &mut out, 1, 20, &parts);
        black_box(&out);
    });
    report.counters.push((
        "raw.decode_head_1x20_melems_per_sec".to_string(),
        20.0 / per / 1e6,
    ));
}

/// Catalog hot path: publish (idempotent re-publish of the same
/// content) + verified read of a small checkpoint object. Feeds the
/// `catalog.*` obs counters surfaced in the JSON below.
fn bench_catalog_roundtrip(report: &mut Report) {
    let root = std::env::temp_dir().join(format!("hdx_bench_catalog_{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    let catalog = hdx_catalog::Catalog::open(&root).expect("open bench catalog");
    let mut ckpt = hdx_tensor::Checkpoint::new();
    ckpt.put_u64("bench.payload", &[64], &(0..64u64).collect::<Vec<_>>());
    let bytes = ckpt.to_bytes();
    let receipt = catalog.publish(0, "bench", 0, &bytes).expect("publish");
    bench(report, "catalog/publish_get_small", || {
        let r = catalog
            .publish(0, "bench", 0, black_box(&bytes))
            .expect("re-publish");
        black_box(catalog.get(r.fingerprint).expect("get"));
    });
    catalog.gc(1).expect("gc");
    black_box(receipt);
    std::fs::remove_dir_all(&root).ok();
}

fn main() {
    println!(
        "HDX micro-benchmarks ({}s budget per case)\n",
        measure_secs()
    );
    let mut report = Report::default();
    bench_raw_kernels(&mut report);
    bench_accel_model(&mut report);
    bench_exhaustive_search(&mut report);
    bench_estimator_inference(&mut report);
    bench_gradient_manipulation(&mut report);
    bench_supernet_step(&mut report);
    bench_space_enumeration(&mut report);
    bench_mlp_step_replay(&mut report);
    bench_mlp_step_parallel(&mut report);
    bench_hw_head_step_replay(&mut report);
    bench_estimator_train_replay(&mut report);
    bench_final_net_replay(&mut report);
    bench_catalog_roundtrip(&mut report);

    // Deterministic obs-registry counters: the same values the serving
    // layer exposes through the `metrics` verb, cumulative over this
    // whole bench run — bank hit rate and kernel dispatch tiers land
    // in the JSON so cache and SIMD regressions are visible at a
    // glance.
    let snap = hdx_obs::snapshot();
    let get = |name: &str| -> f64 {
        snap.iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |&(_, v)| v as f64)
    };
    let (hits, misses) = (get("bank.hit"), get("bank.miss"));
    if hits + misses > 0.0 {
        report
            .counters
            .push(("obs.bank_hit_rate".to_string(), hits / (hits + misses)));
    }
    for tier in ["avx512", "avx2", "scalar"] {
        let name = format!("kernel.dispatch.{tier}");
        report.counters.push((format!("obs.{name}"), get(&name)));
    }
    for name in [
        "catalog.publishes",
        "catalog.hits",
        "catalog.evictions",
        "catalog.bytes",
    ] {
        report.counters.push((format!("obs.{name}"), get(name)));
    }

    // `cargo bench` sets the package dir as CWD; anchor the default to
    // the workspace root so the artifact lands next to ROADMAP.md.
    let path = hdx_tensor::knobs::raw("HDX_BENCH_JSON").unwrap_or_else(|| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_micro.json").to_string()
    });
    std::fs::write(&path, report.to_json()).expect("write bench JSON");
    println!("\nwrote {path}");
}
