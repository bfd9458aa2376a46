//! The layer probes: each layer's public functions timed on their own, at
//! the shapes the workloads use. They run the same way in every traced run,
//! whatever the workload, so a layer's number does not depend on which
//! workload was asked for and every workload's traced run is another
//! sample of it.
//!
//! "wide" and "tiny" are the first batch of `train_wide` and `train_tiny`.
//! `gflops` and `gbps` use operation and byte counts computed from shapes,
//! never counted by the hardware.

use std::sync::Arc;
use std::time::Instant;

use matgnn::data::{Dataset, DirStore, GeneratorConfig, Normalizer, Sample, Shard};
use matgnn::dist::{
    synthetic_slab, train_ddp, Communicator, CostModel, DdpConfig, DistHalo, ZeroAdam,
};
use matgnn::graph::{
    pack_batches, parts_for_rank, GraphBatch, MolGraph, NeighborList, PackPolicy, PartitionPlan,
};
use matgnn::model::{
    graphpar_step, local_batches, Egnn, EgnnConfig, GnnModel, GraphParLoss, LocalHalo,
};
use matgnn::serve::{DynamicBatcher, InferenceEngine};
use matgnn::tensor::{pool, recycler, Tape};
use matgnn::train::{
    evaluate, profile_step, Adam, AdamHyper, LossConfig, TrainCheckpoint, TrainConfig, Trainer,
};

use crate::host::{alloc_counts, stream_triad};
use crate::kernels::{egnn_work, filled, time_us, KernelTimes};
use crate::report::Outcome;
use crate::stats::median;
use crate::trace::Recorder;
use crate::workloads::graphpar::TimedHalo;
use crate::workloads::serve::{batcher_config, TARGET_PARAMS};
use crate::workloads::step::{train_step, StepSettings};
use crate::workloads::train::{atoms_of, generate, N_LAYERS, TINY, WIDE};
use crate::workloads::{Ctx, POOL_THREADS};

/// Share of a traced run's measuring time the probes may take.
pub const BUDGET_SHARE: f64 = 0.4;
/// Individually timed probes the budget is divided among.
const TIMED_PROBES: f64 = 40.0;
/// Neighbour cutoff of the slab probes, Å (`GraphParConfig`'s default).
const SLAB_CUTOFF: f64 = 2.5;

/// Atoms in the slab the graph probes build: `(full, smoke)`.
const SLAB_ATOMS: (usize, usize) = (1536, 64);
/// Atoms in the slab the graph-parallel step probes run on. Smaller than
/// the workload's so three steps fit the probe budget.
const STEP_SLAB_ATOMS: (usize, usize) = (384, 64);

struct Inputs {
    wide_model: Egnn,
    wide_samples: Vec<Sample>,
    tiny_model: Egnn,
    tiny_samples: Vec<Sample>,
    tiny_data: Dataset,
    aggregate: Dataset,
    norm: Normalizer,
}

impl Inputs {
    fn new(ctx: &Ctx) -> Self {
        let wide_hidden = ctx.size(WIDE.hidden.0, WIDE.hidden.1);
        let tiny_hidden = ctx.size(TINY.hidden.0, TINY.hidden.1);
        let take =
            |ds: &Dataset, n: usize| ds.samples().iter().take(n).cloned().collect::<Vec<_>>();
        let wide = generate(WIDE.kinds, WIDE.batch.div_ceil(WIDE.kinds.len()), ctx.seed);
        let tiny_data = generate(TINY.kinds, 16, ctx.seed);
        // Two molecules of each source, as a shuffled batch mixes them.
        let tiny_samples = [0, 1, 16, 17].map(|i| tiny_data.sample(i).clone()).to_vec();
        let aggregate = Dataset::generate_aggregate(64, ctx.seed, &GeneratorConfig::default());
        Inputs {
            wide_model: Egnn::new(EgnnConfig::new(wide_hidden, N_LAYERS).with_seed(ctx.seed)),
            wide_samples: take(&wide, WIDE.batch),
            tiny_model: Egnn::new(EgnnConfig::new(tiny_hidden, N_LAYERS).with_seed(ctx.seed)),
            tiny_samples,
            norm: Normalizer::fit(&aggregate),
            tiny_data,
            aggregate,
        }
    }
}

/// Median duration in µs of the spans called `name`.
fn span_us(rec: &Recorder, name: &str) -> f64 {
    let v: Vec<f64> = rec
        .spans()
        .iter()
        .filter(|s| s.name == name)
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
        .collect();
    median(&v).unwrap_or(0.0)
}

/// Median over steps of the summed duration of `names` within a step, µs.
fn step_sum_us(rec: &Recorder, names: &[&str]) -> f64 {
    let mut per_op = std::collections::BTreeMap::<u64, f64>::new();
    for s in rec.spans().iter().filter(|s| names.contains(&s.name)) {
        *per_op.entry(s.op).or_default() += (s.end_ns - s.start_ns) as f64 / 1e3;
    }
    median(&per_op.into_values().collect::<Vec<_>>()).unwrap_or(0.0)
}

const FWD_SPANS: [&str; 4] = [
    "model.bind",
    "model.segment.embed",
    "model.segment.layer",
    "model.segment.heads",
];

/// Runs re-composed training steps on one batch and reads the phase times
/// off the spans. Returns the recorder and the nodes per tape.
fn traced_steps(
    model: &mut Egnn,
    samples: &[Sample],
    norm: &Normalizer,
    budget_ms: f64,
) -> (Recorder, usize) {
    let refs: Vec<&Sample> = samples.iter().collect();
    let loss_cfg = LossConfig::default();
    let settings = StepSettings {
        norm,
        loss: &loss_cfg,
        grad_clip: Some(5.0),
    };
    let initial = model.params().flatten();
    let mut optimizer = Adam::new(model.params(), AdamHyper::default(), None);
    let mut rec = Recorder::new(true, Instant::now(), 0);
    let mut nodes = 0;
    let start = Instant::now();
    let mut steps = 0;
    while steps < 3 || start.elapsed().as_secs_f64() * 1e3 < budget_ms {
        (_, nodes) = train_step(&mut rec, model, &mut optimizer, &refs, &settings, 1e-3);
        steps += 1;
    }
    model.params_mut().unflatten_from(&initial);
    (rec, nodes)
}

fn push_step_phases(out: &mut Outcome, rec: &Recorder, suffix: &str) {
    out.push(
        &format!("train.step.fwd.{suffix}"),
        "us",
        step_sum_us(rec, &FWD_SPANS),
    );
    out.push(
        &format!("train.step.loss.{suffix}"),
        "us",
        span_us(rec, "train.loss"),
    );
    out.push(
        &format!("train.step.bwd.{suffix}"),
        "us",
        span_us(rec, "tensor.tape.backward"),
    );
    out.push(
        &format!("train.step.clip.{suffix}"),
        "us",
        span_us(rec, "train.clip"),
    );
    out.push(
        &format!("train.step.adam.{suffix}"),
        "us",
        span_us(rec, "train.adam"),
    );
}

fn tensor_and_step_probes(out: &mut Outcome, inp: &mut Inputs, b: f64) {
    let refs: Vec<&Sample> = inp.wide_samples.iter().collect();
    let graphs: Vec<&MolGraph> = refs.iter().map(|s| &s.graph).collect();
    let batch = GraphBatch::from_graphs(&graphs);
    let (e, n, h) = (
        batch.n_edges(),
        batch.n_nodes(),
        inp.wide_model.config().hidden_dim,
    );
    out.note("probe.wide.edges", "count", e as f64);
    out.note("probe.wide.atoms", "count", n as f64);
    out.note("probe.wide.hidden", "count", h as f64);

    // Matmul family and silu at [E×H]·[H×H].
    let k = KernelTimes::measure(e, h, b);
    out.push("tensor.matmul.us", "us", k.matmul_us);
    out.push("tensor.matmul.gflops", "GFLOP/s", k.gflops(k.matmul_us));
    out.push("tensor.matmul_tn.us", "us", k.matmul_tn_us);
    out.push(
        "tensor.matmul_tn.gflops",
        "GFLOP/s",
        k.gflops(k.matmul_tn_us),
    );
    out.push("tensor.matmul_nt.us", "us", k.matmul_nt_us);
    out.push(
        "tensor.matmul_nt.gflops",
        "GFLOP/s",
        k.gflops(k.matmul_nt_us),
    );
    // Computed bytes: every element read once and written once, 4 B each.
    let rw_bytes = 2.0 * (e * h) as f64 * 4.0;
    let gbps = |us: f64| rw_bytes / us / 1e3;
    out.push("tensor.silu.us", "us", k.silu_us);
    out.push("tensor.silu.gbps", "GB/s", gbps(k.silu_us));
    let x = filled(e, h, 1);
    let us = time_us(b, || x.transpose().recycle());
    out.push("tensor.transpose.us", "us", us);
    out.push("tensor.transpose.gbps", "GB/s", gbps(us));
    // Gather and scatter over the batch's own edge list.
    let nodes_h = filled(n, h, 4);
    let us = time_us(b, || nodes_h.gather_rows(batch.src()).recycle());
    out.push("tensor.gather_rows.us", "us", us);
    out.push("tensor.gather_rows.gbps", "GB/s", gbps(us));
    let us = time_us(b, || x.scatter_add_rows(batch.src(), n).recycle());
    out.push("tensor.scatter_add_rows.us", "us", us);
    out.push("tensor.scatter_add_rows.gbps", "GB/s", gbps(us));
    out.push(
        "tensor.sum_axis0.us",
        "us",
        time_us(b, || x.sum_axis0().recycle()),
    );
    out.push("tensor.pool.dispatch_us", "us", {
        // What handing two chunks to a pool of two costs; the
        // workloads themselves run a pool of one.
        pool::set_thread_override(2);
        let us = time_us(b, || pool::parallel_for(2, |_| {}));
        pool::set_thread_override(POOL_THREADS);
        us
    });

    // Wide step: phases, segments, collate.
    let (rec, _) = traced_steps(&mut inp.wide_model, &inp.wide_samples, &inp.norm, 3.0 * b);
    push_step_phases(out, &rec, "wide_us");
    out.push(
        "model.egnn.embed_fwd.us",
        "us",
        span_us(&rec, "model.segment.embed"),
    );
    out.push(
        "model.egnn.layer_fwd.us",
        "us",
        span_us(&rec, "model.segment.layer"),
    );
    out.push(
        "model.egnn.heads_fwd.us",
        "us",
        span_us(&rec, "model.segment.heads"),
    );
    let fwd_us = step_sum_us(&rec, &FWD_SPANS);
    let bwd_us = span_us(&rec, "tensor.tape.backward");
    out.push("model.egnn.fwd.wide_ms", "ms", fwd_us / 1e3);
    out.push("model.egnn.bwd.wide_ms", "ms", bwd_us / 1e3);
    out.push("data.collate.wide_us", "us", span_us(&rec, "data.collate"));
    out.push(
        "graph.batch.from_graphs.wide_us",
        "us",
        span_us(&rec, "graph.batch.from_graphs"),
    );
    let work = egnn_work(inp.wide_model.config(), n as f64, e as f64);
    out.push(
        "model.egnn.flops_per_atom",
        "FLOP",
        work.step_flops() / n as f64,
    );
    let compute_us = fwd_us + span_us(&rec, "train.loss") + bwd_us;
    out.push(
        "model.egnn.step.gflops",
        "GFLOP/s",
        work.step_flops() / compute_us / 1e3,
    );

    // Tracked memory of one wide step.
    let (_, targets) = matgnn::data::collate(&refs, &inp.norm);
    let profile = profile_step(
        &mut inp.wide_model,
        &batch,
        &targets,
        &LossConfig::default(),
        false,
    );
    out.push(
        "tensor.memory.peak_tracked_mib",
        "MiB",
        profile.peak_total as f64 / (1 << 20) as f64,
    );
    out.push(
        "tensor.memory.activation_frac",
        "share",
        profile.activation_fraction(),
    );

    // Tiny step: phases and the per-step overheads.
    let trefs: Vec<&Sample> = inp.tiny_samples.iter().collect();
    let tgraphs: Vec<&MolGraph> = trefs.iter().map(|s| &s.graph).collect();
    let tbatch = GraphBatch::from_graphs(&tgraphs);
    let th = inp.tiny_model.config().hidden_dim;
    let small = filled(tbatch.n_edges(), th, 5);
    let small_w = filled(th, th, 6);
    out.push(
        "tensor.small_matmul.us",
        "us",
        time_us(b, || small.matmul(&small_w).recycle()),
    );
    // Warm the recycler on these shapes, then count over measured steps.
    traced_steps(&mut inp.tiny_model, &inp.tiny_samples, &inp.norm, 0.0);
    let before = (recycler::stats(), alloc_counts());
    let (rec, nodes) = traced_steps(&mut inp.tiny_model, &inp.tiny_samples, &inp.norm, 3.0 * b);
    let after = (recycler::stats(), alloc_counts());
    let steps = rec.spans().iter().filter(|s| s.name == "op.step").count() as f64;
    let r = after.0.delta_since(&before.0);
    push_step_phases(out, &rec, "tiny_us");
    out.push("tensor.tape.nodes_per_step", "count", nodes as f64);
    out.push(
        "tensor.tape.backward.tiny_us",
        "us",
        span_us(&rec, "tensor.tape.backward"),
    );
    out.push(
        "tensor.recycler.hit_ratio",
        "ratio",
        r.hits as f64 / (r.hits + r.misses).max(1) as f64,
    );
    out.push(
        "tensor.recycler.misses_per_step",
        "count",
        r.misses as f64 / steps,
    );
    // Process-wide, so the recorder's own span log is in these counts.
    out.push(
        "tensor.alloc.allocs_per_step",
        "count",
        (after.1 .0 - before.1 .0) as f64 / steps,
    );
    out.push(
        "tensor.alloc.kib_per_step",
        "KiB",
        (after.1 .1 - before.1 .1) as f64 / steps / 1024.0,
    );
    out.push(
        "model.egnn.fwd.tiny_us",
        "us",
        step_sum_us(&rec, &FWD_SPANS),
    );
    out.push(
        "model.egnn.bwd.tiny_us",
        "us",
        span_us(&rec, "tensor.tape.backward"),
    );
    out.push("data.collate.tiny_us", "us", span_us(&rec, "data.collate"));
    out.push(
        "graph.batch.from_graphs.tiny_us",
        "us",
        span_us(&rec, "graph.batch.from_graphs"),
    );
    out.push(
        "data.collate.share",
        "share",
        span_us(&rec, "data.collate") / span_us(&rec, "op.step"),
    );

    let probe = stream_triad(2);
    out.push("tensor.host.stream_gbps", "GB/s", probe.gbps);
    out.note(
        "probe.stream.array_mib",
        "MiB",
        probe.array_bytes as f64 / (1 << 20) as f64,
    );
    out.note(
        "probe.stream.llc_mib",
        "MiB",
        probe.llc_bytes as f64 / (1 << 20) as f64,
    );
}

fn graph_potential_data_probes(out: &mut Outcome, inp: &Inputs, ctx: &Ctx, b: f64) {
    let slab = synthetic_slab(ctx.size(SLAB_ATOMS.0, SLAB_ATOMS.1), ctx.seed);
    let us = time_us(b, || NeighborList::build(&slab, SLAB_CUTOFF));
    out.push(
        "graph.neighbors.build.atoms_per_s",
        "atoms/s",
        slab.len() as f64 / us * 1e6,
    );
    out.push(
        "graph.molgraph.from_structure.us",
        "us",
        time_us(b, || MolGraph::from_structure(&slab, SLAB_CUTOFF)),
    );
    let graphs: Vec<&MolGraph> = inp.aggregate.samples().iter().map(|s| &s.graph).collect();
    let policy = PackPolicy {
        max_atoms: 512,
        max_graphs: 64,
    };
    out.push(
        "graph.pack.pack_batches.us",
        "us",
        time_us(b, || pack_batches(&graphs, &policy)),
    );
    let us = time_us(b, || PartitionPlan::build(&slab, SLAB_CUTOFF, 4));
    out.push("graph.partition.build.ms", "ms", us / 1e3);
    let plan = PartitionPlan::build(&slab, SLAB_CUTOFF, 4);
    let ghosts = plan.total_ghosts() as f64;
    out.push(
        "graph.partition.ghost_frac",
        "share",
        ghosts / (plan.n_nodes() as f64 + ghosts),
    );

    let gen = GeneratorConfig::default();
    let label_slab = synthetic_slab(ctx.size(256, 32), ctx.seed);
    let us = time_us(b, || gen.potential.energy_forces(&label_slab));
    out.push(
        "potential.label.us_per_atom",
        "us",
        us / label_slab.len() as f64,
    );

    let us = time_us(b, || Dataset::generate_aggregate(32, ctx.seed, &gen));
    out.push("data.generate.us_per_graph", "us", us / 32.0);
    out.push(
        "data.normalizer.fit.ms",
        "ms",
        time_us(b, || Normalizer::fit(&inp.aggregate)) / 1e3,
    );
    let refs: Vec<&Sample> = inp.aggregate.samples().iter().collect();
    let shard = Shard::encode(&refs);
    let mib = shard.len_bytes() as f64 / (1 << 20) as f64;
    out.push(
        "data.shard.encode.mib_per_s",
        "MiB/s",
        mib / time_us(b, || Shard::encode(&refs)) * 1e6,
    );
    out.push(
        "data.shard.decode.mib_per_s",
        "MiB/s",
        mib / time_us(b, || shard.decode()) * 1e6,
    );
    let dir = ctx
        .out_dir
        .join(format!("probe-store-{}", std::process::id()));
    // Each write fsyncs every shard: disk-bound, so few samples.
    let mut writes = Vec::new();
    let mut store = None;
    for _ in 0..2 {
        let t = Instant::now();
        store = DirStore::write(&inp.aggregate, &dir, 16).ok();
        writes.push(t.elapsed().as_secs_f64() * 1e3 / 4.0);
    }
    out.push(
        "data.dirstore.write.ms_per_shard",
        "ms",
        median(&writes).unwrap_or(0.0),
    );
    match &store {
        Some(store) => out.push(
            "data.dirstore.read_shard.us",
            "us",
            time_us(b, || store.read_shard(0)),
        ),
        None => out.check(
            "probe_store_written",
            false,
            format!("could not write {}", dir.display()),
        ),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

fn model_and_train_probes(out: &mut Outcome, inp: &mut Inputs, ctx: &Ctx, b: f64) {
    // Frozen engine against the tape forward, single graph and packed batch.
    let model =
        Egnn::new(EgnnConfig::with_target_params(TARGET_PARAMS, N_LAYERS).with_seed(ctx.seed));
    let engine = Arc::new(InferenceEngine::from_model(&model, Normalizer::default()));
    let graphs: Vec<&MolGraph> = inp.aggregate.samples().iter().map(|s| &s.graph).collect();
    let single = GraphBatch::from_graphs(&graphs[graphs.len() - 1..]);
    let frozen_us = time_us(b, || engine.predict_raw(&single));
    out.push("model.frozen.predict.single_us", "us", frozen_us);
    let policy = PackPolicy {
        max_atoms: 512,
        max_graphs: 64,
    };
    let (packed, _) = pack_batches(&graphs, &policy).swap_remove(0);
    out.note("probe.packed.atoms", "count", packed.n_nodes() as f64);
    out.push(
        "model.frozen.predict.batch_us",
        "us",
        time_us(b, || engine.predict_raw(&packed)),
    );
    let tape_us = time_us(b, || {
        let mut tape = Tape::new();
        let pvars = model.params().bind_frozen(&mut tape);
        let o = model.forward(&mut tape, &pvars, &single);
        tape.value(o.energy).item()
    });
    out.push("model.frozen.vs_tape", "ratio", tape_us / frozen_us);

    // Graph-parallel step on one rank: model time against halo time.
    let slab = synthetic_slab(ctx.size(STEP_SLAB_ATOMS.0, STEP_SLAB_ATOMS.1), ctx.seed);
    let plan = PartitionPlan::build(&slab, SLAB_CUTOFF, 4);
    let hidden = ctx.size(32, 8);
    let gp_model = Egnn::new(EgnnConfig::new(hidden, N_LAYERS).with_seed(ctx.seed));
    let batches = local_batches(&plan, 0, 4);
    let mut rec = Recorder::new(true, Instant::now(), 0);
    let start = Instant::now();
    let mut n = 0;
    while n < 3 || start.elapsed().as_secs_f64() * 1e3 < 2.0 * b {
        rec.next_op();
        let root = rec.open("op.step");
        let mut channel = TimedHalo {
            inner: LocalHalo::new(),
            rec: &mut rec,
        };
        let r = graphpar_step(
            &gp_model,
            &plan,
            &batches,
            &mut channel,
            &GraphParLoss::default(),
        );
        rec.close(root);
        if r.is_err() {
            out.check(
                "probe_graphpar_local",
                false,
                "graphpar_step over LocalHalo failed",
            );
        }
        n += 1;
    }
    let step_us = span_us(&rec, "op.step");
    let halo_us = step_sum_us(
        &rec,
        &[
            "dist.halo.exchange_ghosts",
            "dist.halo.accumulate_adjoints",
            "dist.halo.gather_rows",
            "dist.halo.reduce_parts",
        ],
    );
    out.push("model.graphpar.step_local.ms", "ms", step_us / 1e3);
    out.push("model.graphpar.halo_share", "share", halo_us / step_us);

    // Evaluation and a durable checkpoint.
    let eval_set = Dataset::from_samples(inp.tiny_samples.clone());
    let us = time_us(b, || {
        evaluate(
            &inp.tiny_model,
            &eval_set,
            &inp.norm,
            &LossConfig::default(),
            TINY.batch,
        )
    });
    out.push("train.eval.us_per_graph", "us", us / eval_set.len() as f64);
    let adam = Adam::new(inp.wide_model.params(), AdamHyper::default(), None);
    let ckpt = TrainCheckpoint {
        epoch: 0,
        step_in_epoch: 0,
        global_step: 1,
        seed: ctx.seed,
        loss_acc: 0.0,
        loss_count: 0,
        params: inp.wide_model.params().clone(),
        adam: adam.export_state(),
        normalizer: inp.norm,
    };
    let path = ctx
        .out_dir
        .join(format!("probe-{}.ckpt", std::process::id()));
    let mut saves = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        if ckpt.save(&path).is_err() {
            out.check(
                "probe_checkpoint_saved",
                false,
                format!("could not write {}", path.display()),
            );
        }
        saves.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let _ = std::fs::remove_file(&path);
    out.push(
        "train.checkpoint.save_ms",
        "ms",
        median(&saves).unwrap_or(0.0),
    );
}

/// Times `op` on rank 0 while rank 1 makes the matching calls.
fn collective_us(
    iters: usize,
    op: impl Fn(&mut Communicator, &mut ZeroAdam, &mut Vec<f32>) + Sync,
    n_params: usize,
) -> f64 {
    let comms = Communicator::create(2, CostModel::default());
    let samples = std::thread::scope(|scope| {
        let handles: Vec<_> = comms
            .into_iter()
            .map(|mut comm| {
                let op = &op;
                scope.spawn(move || {
                    let mut zero =
                        ZeroAdam::new(n_params, comm.rank(), 2, AdamHyper::default(), None);
                    let mut data = vec![0.5f32; n_params];
                    (0..iters)
                        .map(|_| {
                            let t = Instant::now();
                            op(&mut comm, &mut zero, &mut data);
                            t.elapsed().as_secs_f64() * 1e6
                        })
                        .collect::<Vec<f64>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("rank thread"))
            .next()
            .expect("rank 0")
    });
    median(&samples).unwrap_or(0.0)
}

fn dist_probes(out: &mut Outcome, inp: &mut Inputs, ctx: &Ctx, b: f64) {
    let n_params = inp.tiny_model.params().n_scalars();
    out.note("probe.dist.payload_floats", "count", n_params as f64);
    // Iterations sized so each collective gets about one probe budget.
    let iters = ((b * 1e3 / 40.0) as usize).clamp(8, 400);
    out.push(
        "dist.all_reduce_mean.us",
        "us",
        collective_us(
            iters,
            |c, _, d| c.all_reduce_mean(d).expect("healthy group"),
            n_params,
        ),
    );
    out.push(
        "dist.reduce_scatter_sum.us",
        "us",
        collective_us(
            iters,
            |c, _, d| drop(c.reduce_scatter_sum(d).expect("healthy group")),
            n_params,
        ),
    );
    out.push(
        "dist.all_gather.us",
        "us",
        collective_us(
            iters,
            |c, z, d| {
                let (s, e) = z.shard();
                drop(c.all_gather(&d[s..e], d.len()).expect("healthy group"));
            },
            n_params,
        ),
    );
    out.push(
        "dist.barrier.us",
        "us",
        collective_us(
            iters,
            |c, _, _| c.barrier().expect("healthy group"),
            n_params,
        ),
    );
    let grads = vec![1e-3f32; n_params];
    out.push(
        "dist.zero.step.us",
        "us",
        collective_us(
            iters,
            |c, z, d| z.step(c, d, &grads, 1e-3).expect("healthy group"),
            n_params,
        ),
    );

    // A small library run for the counts only the report carries, and the
    // same work on one process for the scaling efficiency.
    let data = &inp.tiny_data;
    let norm = Normalizer::fit(data);
    let epochs = 2;
    let cfg = DdpConfig {
        world: 2,
        epochs,
        batch_size: TINY.batch,
        seed: ctx.seed,
        zero: true,
        ..Default::default()
    };
    let mut model = inp.tiny_model.clone();
    train_ddp(&mut model, data, &norm, &cfg); // warm-up
    let mut model = inp.tiny_model.clone();
    let t = Instant::now();
    let report = train_ddp(&mut model, data, &norm, &cfg);
    let ddp_s = t.elapsed().as_secs_f64();
    let steps = report.steps.max(1) as f64;
    let comm = report.ranks[0].comm;
    out.push(
        "dist.ddp.collectives_per_step",
        "count",
        comm.collectives as f64 / steps,
    );
    out.push(
        "dist.ddp.bytes_per_step",
        "B",
        comm.bytes_moved as f64 / steps,
    );
    // Cost-model outputs (computed), as shares of the measured wall.
    out.push(
        "dist.ddp.modeled_comm_frac",
        "share",
        comm.modeled_seconds / ddp_s,
    );
    out.push(
        "dist.ddp.exposed_comm_frac",
        "share",
        comm.exposed_seconds() / ddp_s,
    );
    let peak = report.ranks.iter().map(|r| r.peak_total).max().unwrap_or(0);
    out.push(
        "dist.ddp.peak_tracked_mib",
        "MiB",
        peak as f64 / (1 << 20) as f64,
    );
    let single_cfg = TrainConfig {
        epochs,
        batch_size: TINY.batch,
        seed: ctx.seed,
        ..Default::default()
    };
    let mut model = inp.tiny_model.clone();
    Trainer::new(single_cfg).fit(&mut model, data, None, &norm); // warm-up
    let mut model = inp.tiny_model.clone();
    let t = Instant::now();
    Trainer::new(single_cfg).fit(&mut model, data, None, &norm);
    let single_s = t.elapsed().as_secs_f64();
    // Same graphs on both sides, so atoms cancel: (A/ddp_s) ÷ (2·A/single_s).
    out.push("dist.ddp.scaling_eff", "ratio", single_s / (2.0 * ddp_s));
    out.note("probe.ddp.atoms", "count", atoms_of(data) as f64);

    // Graph-parallel steps over a timed DistHalo, two ranks.
    let slab = synthetic_slab(ctx.size(STEP_SLAB_ATOMS.0, STEP_SLAB_ATOMS.1), ctx.seed);
    let plan = PartitionPlan::build(&slab, SLAB_CUTOFF, 4);
    let gp_model = Egnn::new(EgnnConfig::new(ctx.size(32, 8), N_LAYERS).with_seed(ctx.seed));
    let comms = Communicator::create(2, CostModel::default());
    let rank0 = std::thread::scope(|scope| {
        let handles: Vec<_> = comms
            .into_iter()
            .map(|mut comm| {
                let (plan, gp_model) = (&plan, &gp_model);
                scope.spawn(move || {
                    let (p0, p1) = parts_for_rank(4, 2, comm.rank());
                    let batches = local_batches(plan, p0, p1);
                    let mut rec = Recorder::new(true, Instant::now(), comm.rank() as u32);
                    let mut last = None;
                    for _ in 0..3 {
                        rec.next_op();
                        let mut channel = TimedHalo {
                            inner: DistHalo::new(&mut comm, plan),
                            rec: &mut rec,
                        };
                        last = graphpar_step(
                            gp_model,
                            plan,
                            &batches,
                            &mut channel,
                            &GraphParLoss::default(),
                        )
                        .ok();
                    }
                    (
                        rec,
                        last.map(|o| (o.halo_bytes, o.owned_atoms, o.ghost_atoms)),
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("rank thread"))
            .next()
            .expect("rank 0")
    });
    let (rec, counts) = rank0;
    out.push(
        "dist.halo.exchange_ghosts.us",
        "us",
        span_us(&rec, "dist.halo.exchange_ghosts"),
    );
    out.push(
        "dist.halo.accumulate_adjoints.us",
        "us",
        span_us(&rec, "dist.halo.accumulate_adjoints"),
    );
    out.push(
        "dist.halo.reduce_parts.us",
        "us",
        span_us(&rec, "dist.halo.reduce_parts"),
    );
    match counts {
        Some((bytes, owned, ghosts)) => {
            out.push("dist.halo.bytes_per_step", "B", bytes as f64);
            out.push(
                "dist.halo.ghost_frac",
                "share",
                ghosts as f64 / (owned + ghosts).max(1) as f64,
            );
        }
        None => out.check(
            "probe_graphpar_dist",
            false,
            "graphpar_step over DistHalo failed",
        ),
    }
}

fn serve_and_telemetry_probes(out: &mut Outcome, inp: &Inputs, ctx: &Ctx, b: f64) {
    let model =
        Egnn::new(EgnnConfig::with_target_params(TARGET_PARAMS, N_LAYERS).with_seed(ctx.seed));
    let engine = Arc::new(InferenceEngine::from_model(&model, Normalizer::default()));
    let batcher = DynamicBatcher::start(engine, batcher_config());
    let graph = &inp.aggregate.sample(0).graph;
    // One request at a time: the batching window is part of what a lone
    // caller waits for.
    let mut submit_us = Vec::new();
    let ms = time_us(2.0 * b, || {
        let t = Instant::now();
        let ticket = batcher.submit(graph.clone());
        submit_us.push(t.elapsed().as_secs_f64() * 1e6);
        ticket.map(|t| t.wait())
    }) / 1e3;
    out.push("serve.submit.us", "us", median(&submit_us).unwrap_or(0.0));
    out.push("serve.single_request.ms", "ms", ms);
    batcher.shutdown();

    // Telemetry is off in every workload; this is what its call sites cost.
    const CALLS: usize = 2000;
    let us = time_us(b, || {
        for _ in 0..CALLS {
            drop(std::hint::black_box(matgnn::telemetry::span("perf.probe")));
        }
    });
    out.push("telemetry.span.disabled_ns", "ns", us * 1e3 / CALLS as f64);
    let us = time_us(b, || {
        for i in 0..CALLS {
            matgnn::telemetry::histogram_record("perf.probe.hist", i as f64);
            matgnn::telemetry::counter_add("perf.probe.count", 1);
        }
    });
    out.push(
        "telemetry.registry.record_ns",
        "ns",
        us * 1e3 / CALLS as f64,
    );
}

/// Runs every probe inside `ctx.seconds` (roughly: a probe takes at least
/// three samples however long they are).
pub fn run_all(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let b = ctx.seconds * 1e3 / TIMED_PROBES;
    let mut inp = Inputs::new(ctx);
    let started = Instant::now();
    tensor_and_step_probes(&mut out, &mut inp, b);
    graph_potential_data_probes(&mut out, &inp, ctx, b);
    model_and_train_probes(&mut out, &mut inp, ctx, b);
    dist_probes(&mut out, &mut inp, ctx, b);
    serve_and_telemetry_probes(&mut out, &inp, ctx, b);
    out.note("probe.wall_s", "s", started.elapsed().as_secs_f64());
    out
}
