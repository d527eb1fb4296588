//! The `train-m2` workload: GCWC on the ×10 tiled CI network (1 720
//! edges) split into K = 2 partitions, trained through
//! `ShardedModel::fit_shards` — the paper's "-M2" point of Fig. 6.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use gcwc::model::Encoder;
use gcwc::task::corrupt_input_pooled;
use gcwc::{GcwcModel, InferRequest, InferWorkspace, ModelConfig, ShardedModel, TrainSample};
use gcwc_graph::{EdgeGraph, PartitionSet, StageSpec};
use gcwc_linalg::rng::seeded;
use gcwc_linalg::{BufferPool, Matrix};
use gcwc_nn::{Adam, GradBuffer, ParamStore, Tape};
use gcwc_traffic::generators;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::fixture::{self, Slices, M, NET_SEED};
use crate::report::{Phase, Report};
use crate::trace::{Overhead, Tracer};
use crate::{alloc, stats, sys, Budget};

/// CI-network tiling factor (Fig. 6's ×10 point).
pub const SCALE: usize = 10;
/// Partitions ("-M2").
pub const SHARDS: usize = 2;
/// Mini-batch size of the paper's timing experiments.
pub const BATCH: usize = 20;
/// Epochs per `fit_shards` call; each epoch is one batch step.
pub const EPOCHS_PER_CALL: usize = 2;
/// Bring-ups per run; `setup_s` is their median.
pub const BRING_UPS: usize = 9;
/// Test instances the latency phase cycles through.
const TEST_SET: usize = 16;
/// Test instances folded into `output.digest` after the first call.
const DIGEST_OPS: usize = 4;
/// Test instances timed after each `fit_shards` call.
const LATENCY_SLICE: usize = 64;
/// Op id of the replay's batch-level spans (gradient scaling and the
/// optimizer step), distinct from every sample's op id.
const BATCH_OP: u64 = u64::MAX;
/// Op id of the replay's call-level spans (localizing the batch, once
/// per `fit_shards` call), distinct from every other op id.
const CALL_OP: u64 = u64::MAX - 1;

fn graph() -> EdgeGraph {
    generators::scaled_city(&fixture::ci_city(), SCALE)
}

fn config() -> ModelConfig {
    fixture::ci_config().with_epochs(EPOCHS_PER_CALL)
}

fn bring_up(tracer: &mut Tracer, op: u64) -> ShardedModel<GcwcModel> {
    let whole = tracer.begin("setup", op);
    let g = tracer.time("setup.graph", op, graph);
    let ps = tracer.time("setup.partition_only", op, || Arc::new(PartitionSet::build(&g, SHARDS)));
    let model = tracer.time("setup.model", op, || ShardedModel::gcwc_on(ps, M, config(), NET_SEED));
    tracer.end(whole);
    model
}

/// Runs train-m2 for `budget` and fills `report`.
pub fn run(seed: u64, budget: Budget, report: &mut Report) {
    let mut tracer = Tracer::new(report.traced());
    let g = graph();
    let n = g.num_nodes();
    let mut rng = StdRng::seed_from_u64(seed);
    let samples: Vec<TrainSample> = (0..BATCH).map(|i| fixture::sample(&mut rng, n, i)).collect();
    let tests: Vec<TrainSample> =
        (0..TEST_SET).map(|i| fixture::sample(&mut rng, n, BATCH + i)).collect();
    drop(g);

    // Setup: graph, partition and model, BRING_UPS times, the median
    // reported. The first model is the one trained; the others are
    // spread over the run, between its slices (see below), so a slow
    // spell of a shared host moves a few of them rather than all.
    let mut setup_s = Vec::new();
    let mut timed_bring_up = |tracer: &mut Tracer| {
        let t0 = Instant::now();
        let m = bring_up(tracer, setup_s.len() as u64);
        setup_s.push(t0.elapsed().as_secs_f64());
        m
    };
    let mut model = timed_bring_up(&mut tracer);

    // Capacity and latency alternate: one whole `fit_shards` call (one
    // capacity slice), then LATENCY_SLICE test instances — Fig. 6(b)'s
    // testing time per instance on the model trained so far.
    let mut slices = Slices::default();
    let mut losses: Vec<Vec<f64>> = Vec::new();
    let mut digest = stats::Fnv::new();
    let (mut calls, mut failed) = (0u64, 0u64);
    let mut lat = Vec::new();
    let mut lat_failed = 0u64;
    let per_call = (samples.len() * EPOCHS_PER_CALL) as u64;
    let mut tester = Tester::new(&model);
    let end = Instant::now() + budget.total();
    let mut spare_bring_up = |tracer: &mut Tracer, done: &mut usize| {
        if *done < BRING_UPS {
            drop(timed_bring_up(tracer));
            *done += 1;
        }
    };
    let mut bring_ups = 1;
    while calls < 2 || Instant::now() < end || lat.len() < stats::min_samples(0.9) {
        slices.measure(|| {
            model.fit_shards(&samples);
            (per_call, 0)
        });
        spare_bring_up(&mut tracer, &mut bring_ups);
        let per_epoch = shard_mean_losses(&model);
        if per_epoch.iter().any(|l| !l.is_finite()) {
            failed += 1;
            report.fail(format!("fit call {calls}: non-finite epoch loss {per_epoch:?}"));
        }
        losses.push(per_epoch);
        if calls == 0 {
            for t in &tests[..DIGEST_OPS] {
                digest.f64s(tester.complete(&model, t).as_slice());
            }
        }
        calls += 1;
        for _ in 0..LATENCY_SLICE {
            let t = &tests[lat.len() % TEST_SET];
            let t0 = Instant::now();
            let out = tester.complete(&model, t);
            lat.push(t0.elapsed().as_secs_f64() * 1e3);
            if let Err(e) = fixture::check_histograms(out, n, M) {
                lat_failed += 1;
                report.fail(format!("test instance {}: {e}", lat.len()));
            }
        }
        spare_bring_up(&mut tracer, &mut bring_ups);
    }
    while bring_ups < BRING_UPS {
        spare_bring_up(&mut tracer, &mut bring_ups);
    }
    report.phase(Phase {
        name: "setup",
        attempted: BRING_UPS as u64,
        succeeded: BRING_UPS as u64,
        failed: 0,
    });
    report.metric_n("setup_s", stats::median(&setup_s), "s", Some(setup_s.len()));
    let ops = calls * per_call;
    report.phase(Phase {
        name: "capacity",
        attempted: ops,
        succeeded: ops - failed * per_call,
        failed: failed * per_call,
    });
    let first = losses.first().and_then(|l| l.first()).copied().unwrap_or(f64::NAN);
    let last = losses.last().and_then(|l| l.last()).copied().unwrap_or(f64::NAN);
    if last.is_nan() || first.is_nan() || last >= first {
        report.fail(format!("training did not reduce the loss: first epoch {first}, last {last}"));
    }
    let (ops_per_s, cpu_ms_per_op, nslices) = slices.medians();
    report.metric_n("ops_per_s", ops_per_s, "op/s", Some(nslices));
    report.metric_n("cpu_ms_per_op", cpu_ms_per_op, "ms", Some(nslices));
    report.note("fit_calls", calls);
    report.note("batch_step_s", BATCH as f64 / ops_per_s);
    report.phase(Phase {
        name: "latency",
        attempted: lat.len() as u64,
        succeeded: lat.len() as u64 - lat_failed,
        failed: lat_failed,
    });
    let sorted = report.latency(&lat);

    if report.traced() {
        replay(&model, &samples, &mut tracer, report, cpu_ms_per_op);
        report.metric("train.loss_final", last, "nats");
        report.metric("output.digest", digest.finish48(), "hash");
        match stats::percentile(&sorted, 0.99) {
            Some(p99) => report.metric_n("latency.p99_ms", p99, "ms", Some(sorted.len())),
            None => report.absent(
                "latency.p99_ms",
                "ms",
                format!("{} test instances; p99 needs {}", sorted.len(), stats::min_samples(0.99)),
            ),
        }
        report.metric_n(
            "setup.partition_ms",
            tracer.op_median_ms("setup.partition_only"),
            "ms",
            Some(BRING_UPS),
        );
        let path = PathBuf::from(".perfbench/traces").join(format!("train-m2-seed{seed}.jsonl"));
        tracer.write_jsonl(&path).expect("write the trace");
        report.note("trace_file", path.display());
    }
    report.metric("peak_rss_mb", sys::peak_rss_mb(), "MB");
}

/// Tests one instance through the tape-free inference path: each
/// shard's rows are selected, completed with `GcwcModel::infer_into`
/// and their owned rows scattered into the global answer. Buffers are
/// reused, so a warm test allocates nothing.
struct Tester {
    ws: InferWorkspace,
    locals: Vec<Matrix>,
    outs: Vec<Matrix>,
    global: Matrix,
}

impl Tester {
    fn new(model: &ShardedModel<GcwcModel>) -> Self {
        let ps = model.partition_set();
        let local = |k: usize| Matrix::zeros(ps.partition(k).num_local(), M);
        Self {
            ws: InferWorkspace::new(),
            locals: (0..SHARDS).map(local).collect(),
            outs: (0..SHARDS).map(local).collect(),
            global: Matrix::zeros(model.num_edges(), M),
        }
    }

    fn complete(&mut self, model: &ShardedModel<GcwcModel>, t: &TrainSample) -> &Matrix {
        for (k, shard) in model.shards().iter().enumerate() {
            let view = model.partition_set().partition(k).view();
            view.select_into(&t.input, &mut self.locals[k]);
            let rq = InferRequest {
                input: &self.locals[k],
                time_of_day: t.context.time_of_day,
                day_of_week: t.context.day_of_week,
                row_flags: &[],
            };
            let out = std::slice::from_mut(&mut self.outs[k]);
            // One kernel thread per shard, the pinning `fit_shards` uses
            // for K > 1; a two-thread kernel barrier made each instance
            // wait out any descheduled helper on a shared host.
            gcwc_linalg::parallel::with_threads(1, || {
                shard.infer_into(&mut self.ws, 1, |_| rq, out)
            });
            view.scatter_owned(&self.outs[k], &mut self.global);
        }
        &self.global
    }
}

/// Per-epoch loss of the last fit, averaged over shards.
fn shard_mean_losses(model: &ShardedModel<GcwcModel>) -> Vec<f64> {
    let reports = model.shard_reports();
    let epochs = reports.iter().map(|r| r.epoch_losses.len()).min().unwrap_or(0);
    (0..epochs)
        .map(|e| reports.iter().map(|r| r.epoch_losses[e]).sum::<f64>() / reports.len() as f64)
        .collect()
}

/// The traced replay of the per-sample training body, composed from
/// public calls the same way the training loop composes them: the batch
/// localized once per `fit_shards` call, then per sample forward in
/// train mode, masked KL, backward and gradient merge, and one Adam
/// step per batch — plus the Chebyshev, pooling and FC-decoder kernels
/// at the encoder's shapes.
fn replay(
    model: &ShardedModel<GcwcModel>,
    samples: &[TrainSample],
    tracer: &mut Tracer,
    report: &mut Report,
    cpu_ms_per_op: f64,
) {
    let cfg = config();
    let ps = Arc::clone(model.partition_set());
    struct Shard {
        enc: Encoder,
        store: ParamStore,
        adam: Adam,
        tape: Tape,
        buffer: GradBuffer,
    }
    let mut shards: Vec<Shard> = (0..SHARDS)
        .map(|k| {
            let mut store = ParamStore::new();
            let mut rng = seeded(gcwc::shard_seed(NET_SEED, k));
            let enc = Encoder::new(ps.partition(k).graph(), M, &cfg, &mut store, &mut rng);
            let adam = Adam::new(&store, cfg.optim);
            Shard { enc, store, adam, tape: Tape::new(), buffer: GradBuffer::new() }
        })
        .collect();
    let param_mb: f64 =
        shards.iter().map(|s| s.store.num_scalars() as f64 * 8.0).sum::<f64>() / (1 << 20) as f64;

    // `fit_shards` localizes the whole batch once per call, before any
    // step; its cost is shared by the call's samples × epochs ops.
    let locals: Vec<Vec<TrainSample>> = (0..SHARDS)
        .map(|k| {
            samples
                .iter()
                .map(|sample| tracer.time("train.localize", CALL_OP, || model.localize(k, sample)))
                .collect()
        })
        .collect();
    let mut master = StdRng::seed_from_u64(NET_SEED ^ 0xA5A5);
    let (mut allocs, mut untraced_ops) = (0u64, 0u64);
    let mut overhead = Overhead::default();
    let mut off = Tracer::new(false);
    gcwc_linalg::parallel::with_threads(1, || {
        // Pass 0 warms the tapes; passes 1 and 2 trace alternate
        // samples, so every sample is measured once traced and once not.
        for pass in 0..3u64 {
            for sh in &mut shards {
                sh.store.zero_grads();
            }
            for i in 0..samples.len() {
                let op = i as u64;
                let traced = pass > 0 && Overhead::traced(op, pass);
                let t: &mut Tracer = if traced { &mut *tracer } else { &mut off };
                let a0 = alloc::thread_allocs();
                let started = Instant::now();
                let whole = t.begin("sample", op);
                for (sh, shard_locals) in shards.iter_mut().zip(&locals) {
                    let local = &shard_locals[i];
                    sh.tape.reset();
                    sh.buffer.reset();
                    let mut rng = seeded(master.random());
                    let pred = t.time("train.forward", op, || {
                        let (input, flags) = corrupt_input_pooled(
                            &local.input,
                            &local.context.row_flags,
                            cfg.row_dropout,
                            &mut rng,
                            sh.tape.pool_mut(),
                        );
                        let pred = sh.enc.output(&mut sh.tape, &sh.store, &input, true, &mut rng);
                        sh.tape.pool_mut().give(input);
                        sh.tape.pool_mut().give_vec(flags);
                        pred
                    });
                    let loss = t.time("train.loss", op, || {
                        sh.tape.kl_loss_masked_ref(pred, &local.label, &local.label_mask, 1e-6)
                    });
                    t.time("train.backward", op, || sh.tape.backward(loss, &mut sh.buffer));
                    t.time("train.merge", op, || sh.buffer.merge_into(&mut sh.store));
                }
                t.end(whole);
                if pass > 0 {
                    overhead.record(op, traced, started.elapsed().as_secs_f64() * 1e3);
                    if !traced {
                        allocs += alloc::thread_allocs() - a0;
                        untraced_ops += 1;
                    }
                }
            }
            // One optimizer step per batch, accounted per sample.
            let t: &mut Tracer = if pass == 2 { &mut *tracer } else { &mut off };
            for sh in &mut shards {
                t.time("train.merge", BATCH_OP, || {
                    sh.store.scale_grads(1.0 / samples.len() as f64)
                });
                t.time("train.optimizer", BATCH_OP, || sh.adam.step(&mut sh.store));
            }
        }
    });
    let per_sample =
        |name: &str| stats::median(&tracer.per_op_ms(name, |op| op != BATCH_OP && op != CALL_OP));
    // The batch-level spans are one step per batch, shared by its samples.
    let batch_share = |name: &str| -> f64 {
        tracer.per_op_ms(name, |op| op == BATCH_OP).iter().sum::<f64>() / samples.len() as f64
    };
    let ops_per_call = (samples.len() * EPOCHS_PER_CALL) as f64;
    let localize =
        tracer.per_op_ms("train.localize", |op| op == CALL_OP).iter().sum::<f64>() / ops_per_call;
    let forward = per_sample("train.forward");
    let loss = per_sample("train.loss");
    let backward = per_sample("train.backward");
    let merge = per_sample("train.merge") + batch_share("train.merge");
    let optimizer = batch_share("train.optimizer");
    let n = samples.len();
    report.metric_n("train.localize_ms", localize, "ms", Some(1));
    report.metric_n("train.forward_ms", forward, "ms", Some(n));
    report.metric_n("train.loss_ms", loss, "ms", Some(n));
    report.metric_n("train.backward_ms", backward, "ms", Some(n));
    report.metric_n("train.merge_ms", merge, "ms", Some(n));
    report.metric_n("train.optimizer_ms", optimizer, "ms", Some(1));
    let parts = localize + forward + loss + backward + merge + optimizer;
    report.metric("train.parts_cpu_ratio", parts / cpu_ms_per_op, "ratio");
    report.metric("account.parts_ratio", parts / cpu_ms_per_op, "ratio");
    report.metric("allocs_per_op", allocs as f64 / untraced_ops.max(1) as f64, "count");
    report.metric("trace.overhead_pct", overhead.pct(), "%");

    kernels(&ps, tracer, report);
    let fc_mb: f64 = (0..SHARDS)
        .map(|k| {
            let (fc_in, n_local) = fc_shape(&ps, k);
            (fc_in * n_local) as f64 * 8.0
        })
        .sum::<f64>()
        / (1 << 20) as f64;
    report.metric("train.fc_param_mb", fc_mb, "MB");
    // Value, gradient and both Adam moments of every parameter.
    report.metric("train.step_mb", param_mb * 4.0, "MB");
}

fn specs() -> Vec<StageSpec> {
    config()
        .conv_layers
        .iter()
        .map(|l| StageSpec { cheb_order: l.cheb_order, pool: l.pool })
        .collect()
}

/// The FC decoder's `(input features, outputs)` on shard `k`.
fn fc_shape(ps: &PartitionSet, k: usize) -> (usize, usize) {
    let p = ps.partition(k);
    let plan = p.conv_plan(&specs());
    let filters = config().conv_layers.last().expect("a conv layer").filters;
    (plan.out_nodes() * filters, p.num_local())
}

/// Times the encoder's kernels at its own shapes, per sample: each
/// stage's Chebyshev expansion and adjoint, its max-pool forward and
/// backward, and the FC decoder's forward and two backward products.
fn kernels(ps: &PartitionSet, tracer: &mut Tracer, report: &mut Report) {
    const OPS: u64 = 12;
    let cfg = config();
    let mut rng = StdRng::seed_from_u64(7);
    let mut rand = |r: usize, c: usize| Matrix::from_fn(r, c, |_, _| rng.random::<f64>() - 0.5);
    let mut pool = BufferPool::default();
    let mut plan_ms = Vec::new();
    let prepared: Vec<_> = (0..SHARDS)
        .map(|k| {
            let t0 = Instant::now();
            let plan = ps.partition(k).conv_plan(&specs());
            plan_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            let mut c_in = 1;
            let stages: Vec<_> = plan
                .stages()
                .iter()
                .zip(&cfg.conv_layers)
                .map(|(st, lc)| {
                    let x = rand(st.in_nodes, c_in * M);
                    let act = rand(st.in_nodes, lc.filters * M);
                    let pooled_grad = rand(st.out_nodes, lc.filters * M);
                    c_in = lc.filters;
                    (
                        st.basis.clone(),
                        st.pool.clone(),
                        x,
                        act,
                        pooled_grad,
                        st.out_nodes,
                        lc.filters,
                    )
                })
                .collect();
            let (fc_in, n_local) = fc_shape(ps, k);
            let rows = rand(M, fc_in);
            let w = rand(fc_in, n_local);
            let g = rand(M, n_local);
            (stages, rows, w, g)
        })
        .collect();
    gcwc_linalg::parallel::with_threads(1, || {
        for op in 0..OPS {
            let op = 2_000_000 + op;
            for (stages, rows, w, g) in &prepared {
                for (basis, pmap, x, act, pooled_grad, out_nodes, filters) in stages {
                    let mut taps = Vec::new();
                    tracer.time("train.cheb", op, || {
                        gcwc_graph::PolyBasis::forward_pooled(
                            basis.as_ref(),
                            x,
                            &mut pool,
                            &mut taps,
                        );
                        let adj = gcwc_graph::PolyBasis::adjoint_combine_pooled(
                            basis.as_ref(),
                            &taps,
                            &mut pool,
                        );
                        pool.give(adj);
                    });
                    for tap in taps {
                        pool.give(tap);
                    }
                    if let Some(pmap) = pmap {
                        let mut out = Matrix::zeros(*out_nodes, filters * M);
                        let mut argmax = vec![0usize; out_nodes * filters * M];
                        let mut grad_in = Matrix::zeros(act.rows(), act.cols());
                        tracer.time("train.pool", op, || {
                            pmap.max_forward_into(act, &mut out, &mut argmax);
                            pmap.max_backward_into(pooled_grad, &argmax, &mut grad_in);
                        });
                    }
                }
                let mut dec = Matrix::zeros(M, w.cols());
                let mut gw = Matrix::zeros(w.rows(), w.cols());
                let mut grows = Matrix::zeros(M, w.rows());
                tracer.time("train.fc_decoder", op, || {
                    rows.matmul_into(w, &mut dec);
                    rows.matmul_tn_into(g, &mut gw);
                    g.matmul_nt_into(w, &mut grows);
                });
            }
        }
    });
    let per = |name: &str| tracer.op_median_ms(name);
    report.metric_n("train.cheb_ms", per("train.cheb"), "ms", Some(OPS as usize));
    report.metric_n("train.pool_ms", per("train.pool"), "ms", Some(OPS as usize));
    report.metric_n("train.fc_decoder_ms", per("train.fc_decoder"), "ms", Some(OPS as usize));
    report.metric_n("setup.plan_ms", plan_ms.iter().sum(), "ms", Some(1));
}
