//! `graphpar_w2`: `train_graphpar` — one synthetic slab split into four
//! slab partitions over two ranks, ghost atoms exchanged between layers.

use std::time::Instant;

use matgnn::dist::{
    synthetic_slab, train_graphpar, Communicator, CostModel, DistHalo, GraphParConfig,
    GraphParReport, ZeroAdam,
};
use matgnn::graph::{parts_for_rank, PartitionPlan};
use matgnn::model::{
    graphpar_step, local_batches, Egnn, EgnnConfig, GnnModel, HaloChannel, HaloError,
};
use matgnn::tensor::Tensor;

use super::train::{check_losses, N_LAYERS};
use super::{push_common, repeat_for, setup_repeated, three_way, Ctx, Path};
use crate::report::Outcome;
use crate::trace::{Attribution, Recorder};
use crate::traceout;

pub const WORLD: usize = 2;
pub const N_PARTS: usize = 4;
/// Atoms in the slab: `(full, smoke)`.
pub const N_ATOMS: (usize, usize) = (768, 64);
pub const HIDDEN: (usize, usize) = (32, 8);
/// Optimizer steps in one repetition. The loss of this objective jumps
/// about early on: over 24 seeds every run is below its first loss after
/// 12 steps, but not after 8.
pub const STEPS: usize = 12;

pub fn config(ctx: &Ctx, world: usize, steps: usize) -> GraphParConfig {
    GraphParConfig {
        world,
        n_parts: N_PARTS,
        n_atoms: ctx.size(N_ATOMS.0, N_ATOMS.1),
        hidden_dim: ctx.size(HIDDEN.0, HIDDEN.1),
        n_layers: N_LAYERS,
        steps,
        zero: true,
        seed: ctx.seed,
        ..Default::default()
    }
}

fn fit(cfg: &GraphParConfig) -> (f64, GraphParReport) {
    let t = Instant::now();
    let report = train_graphpar(cfg);
    (t.elapsed().as_secs_f64(), report)
}

/// A [`HaloChannel`] that times every call into the channel it wraps.
pub struct TimedHalo<'r, C: HaloChannel> {
    pub inner: C,
    pub rec: &'r mut Recorder,
}

impl<C: HaloChannel> HaloChannel for TimedHalo<'_, C> {
    fn part_range(&self, plan: &PartitionPlan) -> (usize, usize) {
        self.inner.part_range(plan)
    }

    fn exchange_ghosts(
        &mut self,
        plan: &PartitionPlan,
        owned: &[Tensor],
        cols: usize,
    ) -> Result<Vec<Tensor>, HaloError> {
        let open = self.rec.open("dist.halo.exchange_ghosts");
        let r = self.inner.exchange_ghosts(plan, owned, cols);
        self.rec.close(open);
        r
    }

    fn accumulate_adjoints(
        &mut self,
        plan: &PartitionPlan,
        own: &[Tensor],
        ghost: &[Tensor],
        cols: usize,
    ) -> Result<Vec<Tensor>, HaloError> {
        let open = self.rec.open("dist.halo.accumulate_adjoints");
        let r = self.inner.accumulate_adjoints(plan, own, ghost, cols);
        self.rec.close(open);
        r
    }

    fn gather_rows(
        &mut self,
        plan: &PartitionPlan,
        owned: &[Tensor],
        cols: usize,
    ) -> Result<Tensor, HaloError> {
        let open = self.rec.open("dist.halo.gather_rows");
        let r = self.inner.gather_rows(plan, owned, cols);
        self.rec.close(open);
        r
    }

    fn reduce_parts(
        &mut self,
        plan: &PartitionPlan,
        per_part: &[Vec<f32>],
        len: usize,
    ) -> Result<Vec<f32>, HaloError> {
        let open = self.rec.open("dist.halo.reduce_parts");
        let r = self.inner.reduce_parts(plan, per_part, len);
        self.rec.close(open);
        r
    }
}

pub fn run(ctx: &Ctx) -> Outcome {
    let cfg = config(ctx, WORLD, STEPS);
    let mut warm = None;
    let mut reference_ok = false;
    let mut reference_detail = String::new();
    let (_, setup_times) = setup_repeated(ctx, || {
        // The trajectory must not depend on the number of ranks: two steps
        // on one rank give the bits the two-rank warm-up has to repeat.
        let single = train_graphpar(&config(ctx, 1, 2));
        let (wall, report) = fit(&cfg);
        let bits = |l: &[f32]| l.iter().take(2).map(|x| x.to_bits()).collect::<Vec<_>>();
        reference_ok = report.losses.len() >= 2 && bits(&single.losses) == bits(&report.losses);
        reference_detail = format!(
            "world 1 {:?} vs world {WORLD} {:?}",
            &single.losses,
            &report.losses[..2.min(report.losses.len())]
        );
        warm = Some((wall, report));
    });
    let warm = warm.expect("set up at least once");
    if ctx.trace {
        return traced(ctx, &cfg);
    }

    let mut out = Outcome::default();
    let (mut throughput, mut step_ms, mut finals) = (Vec::new(), Vec::new(), Vec::new());
    let mut all_finite = true;
    let mut healthy = true;
    let mut first = f64::NAN;
    repeat_for(ctx.seconds, |_| {
        let (wall, r) = fit(&cfg);
        throughput.push((cfg.n_atoms * r.losses.len()) as f64 / wall);
        step_ms.push(wall * 1e3 / r.losses.len().max(1) as f64);
        out.attempted += cfg.steps as u64;
        let bad = r.losses.iter().filter(|l| !l.is_finite()).count() + (cfg.steps - r.losses.len());
        out.failed += bad as u64;
        all_finite &= bad == 0;
        healthy &= r.final_world == WORLD && r.recoveries == 0;
        first = r.losses.first().map_or(f64::NAN, |&l| l as f64);
        finals.push(r.losses.last().map_or(f64::NAN, |&l| l as f64));
    });
    finals.push(warm.1.losses.last().map_or(f64::NAN, |&l| l as f64));
    check_losses(&mut out, first, &finals, all_finite);
    out.check(
        "world_intact",
        healthy,
        format!("every repetition finished with world {WORLD}, no recoveries"),
    );
    out.check("world_invariant", reference_ok, reference_detail);

    out.push_samples("atoms_per_s", "atoms/s", throughput);
    out.push_samples("op_ms_p50", "ms", step_ms);
    push_common(&mut out, setup_times);
    out.note("final_loss", "loss", finals[0]);
    out.note("ghost_atoms_rank0", "count", warm.1.ghost_atoms as f64);
    out.note(
        "halo_bytes_per_step_rank0",
        "B",
        warm.1.halo_bytes_per_step as f64,
    );
    out
}

/// One repetition of the same work as `train_graphpar`, re-composed: per
/// rank, build the slab, the plan and the local batches, then
/// `graphpar_step` over a timed `DistHalo` and the ZeRO shard update.
fn recomposed_rep(
    cfg: &GraphParConfig,
    enabled: bool,
    origin: Instant,
) -> (f64, Vec<(Recorder, f32)>) {
    let comms =
        Communicator::create_with_timeout(cfg.world, CostModel::default(), cfg.comm_timeout);
    let t = Instant::now();
    let ranks = std::thread::scope(|scope| {
        let handles: Vec<_> = comms
            .into_iter()
            .map(|mut comm| {
                scope.spawn(move || {
                    let mut rec = Recorder::new(enabled, origin, comm.rank() as u32);
                    rec.next_op();
                    let root = rec.open("op.setup");
                    let structure = synthetic_slab(cfg.n_atoms, cfg.seed);
                    let plan = rec.span("graph.partition.build", || {
                        PartitionPlan::build(&structure, cfg.cutoff, cfg.n_parts)
                    });
                    let mut model = rec.span("model.init", || {
                        Egnn::new(
                            EgnnConfig::new(cfg.hidden_dim, cfg.n_layers)
                                .with_seed(cfg.seed.wrapping_add(1)),
                        )
                    });
                    let n_params = model.params().n_scalars();
                    let mut flat_params = model.params().flatten().data().to_vec();
                    let mut zero =
                        ZeroAdam::new(n_params, comm.rank(), comm.world(), cfg.adam, None);
                    let (p0, p1) = parts_for_rank(cfg.n_parts, comm.world(), comm.rank());
                    let batches = rec.span("model.local_batches", || local_batches(&plan, p0, p1));
                    rec.close(root);

                    let mut loss = f32::NAN;
                    for _ in 0..cfg.steps {
                        rec.next_op();
                        let root = rec.open("op.step");
                        let open = rec.open("model.graphpar_step");
                        let result = {
                            let mut channel = TimedHalo {
                                inner: DistHalo::new(&mut comm, &plan),
                                rec: &mut rec,
                            };
                            graphpar_step(&model, &plan, &batches, &mut channel, &cfg.loss)
                        };
                        rec.close(open);
                        let out = result.expect("healthy group");
                        let open = rec.open("dist.flatten");
                        let mut flat = Vec::with_capacity(n_params);
                        for g in &out.grads {
                            flat.extend_from_slice(g.data());
                        }
                        // Gradients arrive globally reduced; pre-scale the
                        // shard to cancel ZeroAdam's 1/world mean.
                        let (s, e) = zero.shard();
                        let w = comm.world() as f32;
                        let shard: Vec<f32> = flat[s..e].iter().map(|g| g * w).collect();
                        rec.close(open);
                        let open = rec.open("dist.zero.step_all_gather");
                        zero.step_with_reduced_shard(&mut comm, &mut flat_params, shard, cfg.lr)
                            .expect("healthy group");
                        rec.close(open);
                        let open = rec.open("dist.unflatten");
                        model.params_mut().unflatten_from(
                            &Tensor::from_vec(n_params, flat_params.clone()).expect("flat params"),
                        );
                        rec.close(open);
                        rec.close(root);
                        loss = out.loss;
                    }
                    (rec, loss)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("rank thread"))
            .collect::<Vec<_>>()
    });
    (t.elapsed().as_secs_f64(), ranks)
}

fn traced(ctx: &Ctx, cfg: &GraphParConfig) -> Outcome {
    let origin = Instant::now();
    let mut out = Outcome::default();
    let mut lib_loss = f32::NAN;
    let mut attr = Attribution::default();
    let mut last = Vec::new();
    let walls = three_way(ctx.seconds, |path| match path {
        Path::Library => {
            let (wall, r) = fit(cfg);
            lib_loss = r.losses.last().copied().unwrap_or(f32::NAN);
            wall
        }
        Path::Untraced => recomposed_rep(cfg, false, origin).0,
        Path::Traced => {
            let (wall, ranks) = recomposed_rep(cfg, true, origin);
            for (rec, _) in &ranks {
                attr.absorb(rec.spans());
            }
            last = ranks;
            wall
        }
    });

    let steps = attr.calls_of("op.step");
    let loss = last.first().map_or(f32::NAN, |(_, l)| *l);
    out.attempted = steps;
    out.failed = if loss.is_finite() { 0 } else { steps };
    // The re-composition is the library's arithmetic in the library's
    // order, so it must land on the library's bits.
    out.check(
        "recomposition_bitwise_equal",
        loss.to_bits() == lib_loss.to_bits(),
        format!("re-composed final loss {loss} vs train_graphpar {lib_loss}"),
    );
    walls.push(&mut out, &attr, "op.step");
    out.push("train.final_loss", "loss", loss as f64);
    let recs: Vec<&Recorder> = last.iter().map(|(r, _)| r).collect();
    traceout::write(ctx, "graphpar_w2", &recs, &mut out);
    out
}
