//! Parallel == sequential, and compiled == fresh-record — bit for bit.
//!
//! The workspace's parallel evaluation paths (exhaustive accelerator
//! search, estimator pair labelling, sharded estimator pre-training)
//! promise results identical to a single-threaded run at any worker
//! count, and the compiled replay engine ([`hdx_tensor::Session`])
//! promises results identical to re-recording the graph on a fresh
//! tape every step. These tests pin both promises for seeds 0–2 — and
//! verify the parallel path genuinely runs on more than one thread, so
//! the equality is not vacuous.

use hdx_accel::{exhaustive_search, CostWeights, Metric};
use hdx_core::{
    run_search, CheckpointSpec, Constraint, Method, SearchCheckpoint, SearchOptions, Task,
};
use hdx_nas::supernet::FinalNet;
use hdx_nas::{
    Architecture, Batch, Dataset, NetworkPlan, SampledReplay, Supernet, SupernetConfig, TaskSpec,
    EVAL_CHUNK, OP_SET,
};
use hdx_serve::{load_bundle, save_bundle, train_artifacts, train_artifacts_from};
use hdx_surrogate::{Estimator, EstimatorConfig, PairSet};
use hdx_tensor::ckpt::fnv1a;
use hdx_tensor::{
    parallel_map, Adam, ExecMode, ParamStore, Program, ResidualMlp, Rng, Session, SessionBank,
    Tape, Tensor, WorkerPool,
};
use std::collections::HashSet;
use std::sync::{Arc, Mutex};

const SEEDS: [u64; 3] = [0, 1, 2];
const PAR_JOBS: usize = 4;
/// Worker counts the parallel replay executor is pinned at.
const JOB_GRID: [usize; 3] = [1, 2, 4];

#[test]
fn parallel_map_actually_uses_multiple_threads() {
    let seen = Mutex::new(HashSet::new());
    let items: Vec<usize> = (0..256).collect();
    parallel_map(&items, PAR_JOBS, |_, _| {
        seen.lock()
            .expect("no poison")
            .insert(std::thread::current().id());
        std::thread::sleep(std::time::Duration::from_millis(1));
    });
    let distinct = seen.lock().expect("no poison").len();
    assert!(distinct > 1, "expected >1 worker thread, saw {distinct}");
}

#[test]
fn exhaustive_search_is_thread_count_invariant() {
    let plan = NetworkPlan::cifar18();
    let weights = CostWeights::paper();
    for seed in SEEDS {
        let mut rng = Rng::new(seed);
        let layers = plan.layers_for(&Architecture::random(18, &mut rng));
        for constraints in [vec![], vec![(Metric::Latency, 40.0), (Metric::Area, 2.6)]] {
            let seq = exhaustive_search(&layers, &weights, &constraints, &WorkerPool::new(1));
            let pool = WorkerPool::new(PAR_JOBS);
            let par = exhaustive_search(&layers, &weights, &constraints, &pool);
            // SearchOutcome derives PartialEq over config + f64 metrics +
            // f64 cost: equality here is exact, not approximate.
            assert_eq!(seq, par, "seed {seed} constraints {constraints:?}");
        }
    }
}

#[test]
fn pair_sampling_is_thread_count_invariant() {
    let plan = NetworkPlan::cifar18();
    for seed in SEEDS {
        let seq = PairSet::sample(&plan, 120, &mut Rng::new(seed), 1);
        let par = PairSet::sample(&plan, 120, &mut Rng::new(seed), PAR_JOBS);
        assert_eq!(seq.len(), par.len(), "seed {seed}");
        for i in 0..seq.len() {
            assert_eq!(
                seq.input_row(i),
                par.input_row(i),
                "seed {seed} pair {i} inputs"
            );
            assert_eq!(
                seq.target_raw(i),
                par.target_raw(i),
                "seed {seed} pair {i} targets"
            );
        }
    }
}

/// A compiled [`Session`] replayed N training steps must be
/// bit-identical to N fresh-record steps: same losses, same gradients,
/// same trained parameters. Pinned at the tensor level for an
/// Adam-trained residual MLP, single- and multi-threaded shapes being
/// irrelevant here (the session is single-threaded by construction).
#[test]
fn session_replay_matches_fresh_record_over_steps() {
    for seed in SEEDS {
        let mut setup_rng = Rng::new(seed);
        let mut params_c = ParamStore::new();
        let mlp = ResidualMlp::new(&mut params_c, 10, 12, 3, 5, &mut setup_rng);
        let mut params_f = params_c.clone();
        let steps: Vec<(Tensor, Tensor)> = (0..12)
            .map(|_| {
                (
                    Tensor::randn(&[8, 10], 1.0, &mut setup_rng),
                    Tensor::randn(&[8, 3], 1.0, &mut setup_rng),
                )
            })
            .collect();

        // Compiled: record once, replay every step.
        let mut tape = Tape::new();
        let binding = params_c.bind(&mut tape);
        let xv = tape.leaf(Tensor::zeros(&[8, 10]));
        let tv = tape.leaf(Tensor::zeros(&[8, 3]));
        let pred = mlp.forward(&mut tape, &binding, xv);
        let loss = tape.mse(pred, tv);
        let prog = Arc::new(Program::compile(&tape, &[loss], &[]));
        let mut sess = Session::new(prog);
        let mut opt_c = Adam::new(2e-3);
        let mut losses_c = Vec::new();
        for (x, t) in &steps {
            for (id, tensor) in params_c.iter() {
                sess.bind(binding.var(id), tensor.data());
            }
            sess.bind_tensor(xv, x);
            sess.bind_tensor(tv, t);
            sess.forward();
            sess.backward(loss);
            losses_c.push(sess.scalar(loss));
            let grads: Vec<Option<Tensor>> = params_c
                .iter()
                .map(|(id, tensor)| {
                    Some(Tensor::from_vec(
                        sess.grad(binding.var(id)).expect("grad").to_vec(),
                        tensor.shape(),
                    ))
                })
                .collect();
            opt_c.step(&mut params_c, &grads);
        }

        // Fresh-record reference: rebuild the graph every step.
        let mut opt_f = Adam::new(2e-3);
        let mut losses_f = Vec::new();
        for (x, t) in &steps {
            let mut tape = Tape::new();
            let b = params_f.bind(&mut tape);
            let xv = tape.leaf(x.clone());
            let tv = tape.leaf(t.clone());
            let pred = mlp.forward(&mut tape, &b, xv);
            let loss = tape.mse(pred, tv);
            losses_f.push(tape.value(loss).item());
            let grads = tape.backward(loss);
            let collected = b.gradients(&grads);
            opt_f.step(&mut params_f, &collected);
        }

        assert_eq!(losses_c, losses_f, "seed {seed}: per-step losses diverged");
        for (id, t) in params_f.iter() {
            assert_eq!(
                params_c.get(id).data(),
                t.data(),
                "seed {seed}: parameter {} diverged after training",
                id.index()
            );
        }
    }
}

/// `Estimator::train` on the compiled engine must be bit-identical to
/// the fresh-record path for every seed at every worker count (the
/// parallel path replays bank-leased sessions across the training
/// call's pool: several shards per worker, or one shard with the whole
/// pool in its row-parallel kernels).
#[test]
fn compiled_estimator_training_matches_fresh_record() {
    let plan = NetworkPlan::cifar18();
    for seed in SEEDS {
        for jobs in JOB_GRID {
            let train = |exec: ExecMode| {
                let mut rng = Rng::new(seed);
                let pairs = PairSet::sample(&plan, 400, &mut rng, jobs);
                let cfg = EstimatorConfig {
                    epochs: 5,
                    batch: 96,
                    jobs,
                    exec,
                    ..Default::default()
                };
                let mut est = Estimator::new(&plan, cfg, &mut rng);
                let loss = est.train(&pairs, &mut rng);
                (est, pairs, loss)
            };
            let (est_c, pairs, loss_c) = train(ExecMode::Compiled);
            let (est_f, _, loss_f) = train(ExecMode::FreshRecord);
            assert_eq!(
                loss_c, loss_f,
                "seed {seed} jobs {jobs}: final losses diverged"
            );
            for i in (0..pairs.len()).step_by(29) {
                assert_eq!(
                    est_c.predict_raw(pairs.input_row(i)),
                    est_f.predict_raw(pairs.input_row(i)),
                    "seed {seed} jobs {jobs}: predictions diverged on pair {i}"
                );
            }
        }
    }
}

/// `FinalNet::train` must produce bit-identical weights for every
/// (engine, worker count) combination: the compiled step leases its
/// program from the session bank and row-partitions its kernels, and
/// neither may change a single bit.
#[test]
fn final_net_training_is_exec_and_thread_invariant() {
    let spec = TaskSpec {
        train: 256,
        val: 64,
        test: 128,
        ..TaskSpec::cifar_like(6)
    };
    let ds = Dataset::generate(&spec);
    let arch = Architecture::uniform(6, 4);
    for seed in SEEDS {
        let run = |exec: ExecMode, jobs: usize| {
            let mut rng = Rng::new(seed);
            let mut net = FinalNet::new(
                &arch,
                spec.feature_dim,
                spec.num_classes,
                &SupernetConfig::default(),
                &mut rng,
            );
            let loss = net.train(&ds, 30, 48, &mut rng, exec, &WorkerPool::new(jobs));
            (net, loss)
        };
        let (net_ref, loss_ref) = run(ExecMode::FreshRecord, 1);
        for jobs in JOB_GRID {
            let (net_c, loss_c) = run(ExecMode::Compiled, jobs);
            assert_eq!(loss_c, loss_ref, "seed {seed} jobs {jobs}: losses diverged");
            for (id, t) in net_ref.w_store().iter() {
                assert_eq!(
                    net_c.w_store().get(id).data(),
                    t.data(),
                    "seed {seed} jobs {jobs}: weights diverged for parameter {}",
                    id.index()
                );
            }
        }
    }
}

/// The compiled final evaluation (chunked forward replay) scores error
/// and cross-entropy bit-identically to a whole-batch fresh record, at
/// row counts around the chunk size (part-filled tail chunks, a reused
/// session) and at every worker count.
#[test]
fn compiled_final_eval_matches_fresh_record() {
    let spec = TaskSpec {
        train: 256,
        val: 64,
        test: 2048 + 5,
        ..TaskSpec::cifar_like(6)
    };
    let ds = Dataset::generate(&spec);
    let all = ds.test_all();
    let arch = Architecture::uniform(6, 4);
    // The wide net puts more of the forward above the row-parallel
    // dispatch threshold, so jobs > 1 really splits rows.
    let wide = SupernetConfig {
        feature_dim: 48,
        base_hidden: 12,
        ..SupernetConfig::default()
    };
    for (seed, cfg) in [(0, SupernetConfig::default()), (1, wide)] {
        let mut rng = Rng::new(seed);
        let mut net = FinalNet::new(&arch, spec.feature_dim, spec.num_classes, &cfg, &mut rng);
        let pools: Vec<WorkerPool> = JOB_GRID.iter().map(|&jobs| WorkerPool::new(jobs)).collect();
        net.train(&ds, 10, 48, &mut rng, ExecMode::Compiled, &pools[0]);
        let mut fresh = net.evaluator(ExecMode::FreshRecord, &pools[0]);
        let mut compiled: Vec<_> = pools
            .iter()
            .map(|pool| net.evaluator(ExecMode::Compiled, pool))
            .collect();
        for rows in [1, EVAL_CHUNK - 1, EVAL_CHUNK, EVAL_CHUNK + 1, 2048 + 5] {
            let batch = Batch {
                x: all.x.slice_rows(0, rows),
                y: all.y[..rows].to_vec(),
            };
            let want = fresh.score(&batch);
            for (eval, jobs) in compiled.iter_mut().zip(JOB_GRID) {
                let got = eval.score(&batch);
                assert_eq!(
                    got.error.to_bits(),
                    want.error.to_bits(),
                    "seed {seed} rows {rows} jobs {jobs}: error diverged"
                );
                assert_eq!(
                    got.ce.to_bits(),
                    want.ce.to_bits(),
                    "seed {seed} rows {rows} jobs {jobs}: cross-entropy diverged"
                );
            }
        }
    }
}

#[test]
fn estimator_pretraining_is_thread_count_invariant() {
    let plan = NetworkPlan::cifar18();
    for seed in SEEDS {
        let train = |jobs: usize| {
            let mut rng = Rng::new(seed);
            let pairs = PairSet::sample(&plan, 400, &mut rng, jobs);
            let cfg = EstimatorConfig {
                epochs: 5,
                batch: 96,
                jobs,
                ..Default::default()
            };
            let mut est = Estimator::new(&plan, cfg, &mut rng);
            let loss = est.train(&pairs, &mut rng);
            (est, pairs, loss)
        };
        let (est_seq, pairs, loss_seq) = train(1);
        let (est_par, _, loss_par) = train(PAR_JOBS);
        // f32 training loss must match exactly: the shard decomposition
        // and merge order are worker-count independent by construction.
        assert_eq!(loss_seq, loss_par, "seed {seed}: final losses diverged");
        for i in (0..pairs.len()).step_by(37) {
            assert_eq!(
                est_seq.predict_raw(pairs.input_row(i)),
                est_par.predict_raw(pairs.input_row(i)),
                "seed {seed}: predictions diverged on pair {i}"
            );
        }
        assert_eq!(
            est_seq.within_tolerance(&pairs, 0.10),
            est_par.within_tolerance(&pairs, 0.10),
            "seed {seed}: accuracies diverged"
        );
    }
}

/// Same bytes for both training entry points: the FNV-1a of the bundle
/// `save_bundle` writes after fresh pre-training (`train_artifacts`)
/// and after an `--init-bundle` continuation of that bundle by 200
/// pairs (`train_artifacts_from`), pinned at one and two workers.
#[test]
fn trained_bundle_bytes_are_pinned_at_every_worker_count() {
    let dir = std::env::temp_dir().join(format!("hdx_train_pin_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    for jobs in [1, 2] {
        let fresh_path = dir.join(format!("fresh_{jobs}.ckpt"));
        save_bundle(
            &fresh_path,
            &train_artifacts(Task::Spheres, 2, 400, 4, jobs),
        )
        .expect("save fresh bundle");
        let init = load_bundle(&fresh_path).expect("load fresh bundle");
        let more_path = dir.join(format!("more_{jobs}.ckpt"));
        save_bundle(&more_path, &train_artifacts_from(init, 200, 4, jobs))
            .expect("save continued bundle");
        let digest = |path: &std::path::Path| fnv1a(&std::fs::read(path).expect("read bundle"));
        let (fresh, more) = (digest(&fresh_path), digest(&more_path));
        assert_eq!(
            (fresh, more),
            (0x80ca_0e01_028d_44f9, 0x87ac_fdad_fc20_0e1c),
            "jobs={jobs}: trained bundle bytes moved: fresh={fresh:#018x} more={more:#018x}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A mid-search checkpoint is a file that outlives the process: its
/// bytes and its options fingerprint are pinned, so a refactor of
/// `SearchOptions` or the supernet cannot silently orphan a snapshot
/// written by an earlier build. Two HDX epochs under an FPS
/// constraint, a snapshot after each, at jobs 1 and 2.
#[test]
fn search_checkpoint_bytes_are_pinned_at_every_worker_count() {
    let prepared = train_artifacts(Task::Spheres, 2, 400, 4, 1).into_prepared();
    let dir = std::env::temp_dir().join(format!("hdx_search_ckpt_pin_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    for jobs in [1, 2] {
        let path = dir.join(format!("search_{jobs}.ckpt"));
        let opts = SearchOptions {
            method: Method::Hdx {
                delta0: 1e-3,
                p: 5e-2,
            },
            constraints: vec![Constraint::fps(30.0)],
            epochs: 2,
            steps_per_epoch: 3,
            final_train_steps: 20,
            seed: 5,
            jobs,
            checkpoint: Some(CheckpointSpec {
                path: path.clone(),
                every_epochs: 1,
                note: None,
            }),
            ..SearchOptions::default()
        };
        run_search(&prepared.context(), &opts);
        let bytes = fnv1a(&std::fs::read(&path).expect("read checkpoint"));
        let fingerprint = SearchCheckpoint::load(&path)
            .expect("load checkpoint")
            .fingerprint();
        assert_eq!(
            (bytes, fingerprint),
            (0x00ce_7564_6965_f33c, 0x14f6_702e_c960_14b0),
            "jobs={jobs}: search checkpoint moved: bytes={bytes:#018x} \
             fingerprint={fingerprint:#018x}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The full-mixture supernet step (`num_paths == OP_SET.len()`:
/// sampling disabled, static topology, no RNG consumed) is the sampled
/// step with every path chosen, and must replay bit-identically to
/// fresh-recording — every loss value, every `w` gradient, and every
/// `α` gradient, at every worker count.
#[test]
fn full_mixture_supernet_step_replay_matches_fresh_record() {
    let spec = TaskSpec {
        train: 256,
        val: 64,
        test: 128,
        ..TaskSpec::cifar_like(9)
    };
    let ds = Dataset::generate(&spec);
    let cfg = SupernetConfig {
        num_paths: OP_SET.len(),
        ..SupernetConfig::default()
    };
    const BATCH: usize = 24;
    for seed in SEEDS {
        let mut rng = Rng::new(seed);
        let net = Supernet::new(5, spec.feature_dim, spec.num_classes, cfg, &mut rng);
        let batches: Vec<_> = (0..3).map(|_| ds.train_batch(BATCH, &mut rng)).collect();

        // The full mixture samples every path at every layer, without
        // touching the RNG.
        let all: Vec<Vec<usize>> = vec![(0..OP_SET.len()).collect(); 5];
        let mut rng_paths = Rng::new(77);
        assert_eq!(net.sample_step_paths(&mut rng_paths), all);
        assert_eq!(
            rng_paths.next_u64(),
            Rng::new(77).next_u64(),
            "full-mixture path sampling must not consume RNG"
        );

        // The stem → layer segments → tail chain, on a private bank:
        // the w-step yields every w gradient, the α-step the loss and
        // every α gradient. One replay serves all batches, so later
        // steps run on held (dirty) sessions.
        let replay = |jobs: usize| {
            let bank = SessionBank::new();
            let pool = WorkerPool::new(jobs);
            let mut replay = SampledReplay::new(&bank, &pool);
            let mut rng_paths = Rng::new(5);
            let mut out: Vec<Vec<f32>> = Vec::new();
            for batch in &batches {
                let w_grads = replay.w_step(&net, batch, &mut rng_paths);
                let (loss, alpha_grads) = replay.alpha_step(&net, batch, &mut rng_paths);
                let mut step = vec![loss as f32];
                for g in &w_grads {
                    step.extend_from_slice(g.as_ref().expect("sink gradient").data());
                }
                step.extend(alpha_grads);
                out.push(step);
            }
            out
        };

        // Fresh-record reference: re-record the mixture every step. The
        // RNG handed to task_loss must come back untouched (sampling is
        // disabled), which `rng_probe` double-checks.
        let fresh: Vec<Vec<f32>> = batches
            .iter()
            .map(|batch| {
                let mut tape = Tape::new();
                let (wb, ab) = net.bind(&mut tape);
                let mut rng_probe = Rng::new(123);
                let before = rng_probe.normal();
                let mut rng_task = Rng::new(123);
                let loss = net.task_loss(&mut tape, &wb, &ab, batch, &mut rng_task);
                assert_eq!(
                    rng_task.normal(),
                    before,
                    "full mixture must not consume RNG"
                );
                let grads = tape.backward(loss);
                let mut step = vec![tape.value(loss).item()];
                for (id, t) in net.w_store().iter() {
                    step.extend_from_slice(grads.wrt_or_zeros(wb.var(id), t.shape()).data());
                }
                for (id, t) in net.alpha_store().iter() {
                    step.extend_from_slice(grads.wrt_or_zeros(ab.var(id), t.shape()).data());
                }
                step
            })
            .collect();

        for jobs in JOB_GRID {
            assert_eq!(
                replay(jobs),
                fresh,
                "seed {seed} jobs {jobs}: full-mixture step diverged"
            );
        }
    }
}
