//! The graph-parallel training driver: one structure, spatially
//! partitioned, trained by `world` ranks that exchange ghost-atom halos
//! between layers ([`DistHalo`]) instead of replicating the graph.
//!
//! Because the partition plan fixes `n_parts` **virtual parts**
//! independent of the rank count and every cross-part reduction runs in
//! canonical ascending part order, the whole trajectory — losses,
//! gradients, parameters — is bitwise identical at any world size (see
//! `crates/model/src/graphpar.rs`). That invariance is what makes
//! elastic recovery exact here: when a rank dies mid-exchange, the
//! survivors regroup with [`Communicator::split_survivors`], re-derive
//! their part ranges from the *same* plan, redo the interrupted step,
//! and continue producing the very bits an uninterrupted run would.
//!
//! Optimizers: a replicated Adam (every rank holds full moments — the
//! default), or ZeRO sharding ([`ZeroAdam`]). Graph-parallel gradients
//! arrive already reduced, so the ZeRO path skips the reduce-scatter
//! and feeds each rank's shard directly; the internal `1/world` mean is
//! cancelled by pre-scaling, which is exact for power-of-two worlds —
//! the regime the bitwise gates in `matgnn_bench graphpar` cover.

use std::thread;
use std::time::Duration;

use matgnn_graph::{parts_for_rank, AtomicStructure, Element, PartitionPlan};
use matgnn_model::{
    graphpar_step, local_batches, Egnn, EgnnConfig, GnnModel, GraphParLoss, HaloError,
};
use matgnn_tensor::Tensor;
use matgnn_train::{adam_update, AdamHyper};

use crate::collective::{CommStats, Communicator, CostModel};
use crate::fault::{FaultKind, FaultPlan, FaultSite};
use crate::halo::DistHalo;
use crate::zero::ZeroAdam;

/// Configuration of a graph-parallel training run.
#[derive(Debug, Clone)]
pub struct GraphParConfig {
    /// Number of simulated ranks.
    pub world: usize,
    /// Number of virtual partitions (fixed per run; independent of
    /// `world`, which is what keeps the trajectory rank-count-invariant).
    pub n_parts: usize,
    /// Atoms in the synthetic slab structure.
    pub n_atoms: usize,
    /// Neighbor cutoff radius (also the halo depth).
    pub cutoff: f64,
    /// EGNN hidden width.
    pub hidden_dim: usize,
    /// EGNN message-passing layers.
    pub n_layers: usize,
    /// Optimizer steps.
    pub steps: usize,
    /// Learning rate.
    pub lr: f32,
    /// Adam hyper-parameters.
    pub adam: AdamHyper,
    /// Shard optimizer state with ZeRO instead of replicating it.
    pub zero: bool,
    /// Credit modeled halo-communication time as overlapped with
    /// compute (accounting only — the arithmetic is unchanged, so
    /// results are bitwise identical on/off).
    pub overlap_comm: bool,
    /// Loss definition.
    pub loss: GraphParLoss,
    /// Structure/model seed.
    pub seed: u64,
    /// Per-collective rendezvous timeout.
    pub comm_timeout: Duration,
    /// Deterministic fault schedule (halo-site events fire inside the
    /// step's first ghost exchange).
    pub fault_plan: FaultPlan,
    /// Elastic recoveries allowed before a rank gives up.
    pub max_recoveries: usize,
    /// Interconnect cost model.
    pub cost: CostModel,
}

impl Default for GraphParConfig {
    fn default() -> Self {
        GraphParConfig {
            world: 2,
            n_parts: 4,
            n_atoms: 32,
            cutoff: 2.5,
            hidden_dim: 16,
            n_layers: 2,
            steps: 3,
            lr: 1e-3,
            adam: AdamHyper::default(),
            zero: false,
            overlap_comm: false,
            loss: GraphParLoss::default(),
            seed: 0,
            comm_timeout: Duration::from_secs(10),
            fault_plan: FaultPlan::none(),
            max_recoveries: 3,
            cost: CostModel::default(),
        }
    }
}

/// Outcome of a graph-parallel run, reported by the lowest-ranked
/// survivor (all survivors hold bitwise-identical replicas).
#[derive(Debug, Clone)]
pub struct GraphParReport {
    /// Loss at every completed optimizer step.
    pub losses: Vec<f32>,
    /// Final flattened parameters.
    pub final_params: Vec<f32>,
    /// World size at the end of the run (shrinks across kill recoveries).
    pub final_world: usize,
    /// Elastic recoveries performed.
    pub recoveries: usize,
    /// Atoms owned by the reporting rank at the end of the run.
    pub owned_atoms: usize,
    /// Ghost atoms in the reporting rank's halos at the end of the run.
    pub ghost_atoms: usize,
    /// Logical halo payload moved per step by the reporting rank
    /// (owner rows copied into ghost slots, summed over layers).
    pub halo_bytes_per_step: u64,
    /// The reporting rank's communicator statistics.
    pub stats: CommStats,
}

/// Deterministic synthetic slab: atoms on a perturbed lattice elongated
/// along x, four per station — the canonical input of the graph-parallel
/// benchmarks (long axis → clean slab partitions).
pub fn synthetic_slab(n_atoms: usize, seed: u64) -> AtomicStructure {
    use matgnn_tensor::rng::Rng;
    let mut rng = Rng::seed_from_u64(seed);
    let pool = [Element::H, Element::C, Element::N, Element::O];
    let species = (0..n_atoms)
        .map(|_| pool[rng.gen_range(0..pool.len())])
        .collect();
    let positions = (0..n_atoms)
        .map(|i| {
            [
                (i / 4) as f64 * 1.1 + rng.gen_range(-0.25..0.25),
                ((i % 4) / 2) as f64 * 1.2 + rng.gen_range(-0.25..0.25),
                (i % 2) as f64 * 1.2 + rng.gen_range(-0.25..0.25),
            ]
        })
        .collect();
    AtomicStructure::new(species, positions).expect("species/positions agree")
}

enum RankOutcome {
    /// Completed all steps.
    Done(GraphParReport),
    /// Left the run early (hung rank excused by the watchdog path).
    Excused,
    /// Unrecoverable failure.
    Failed(String),
}

/// Runs graph-parallel training across `cfg.world` simulated ranks and
/// returns the lowest surviving rank's report.
///
/// # Panics
///
/// Panics if every rank fails (e.g. the fault plan kills rank 0, which
/// the driver does not support, or recoveries exceed the budget).
pub fn train_graphpar(cfg: &GraphParConfig) -> GraphParReport {
    let start = std::time::Instant::now();
    let comms = Communicator::create_with_timeout(cfg.world, cfg.cost, cfg.comm_timeout);
    let runtime = matgnn_tensor::runtime::scope_raw(); // every rank adopts the caller's scope
    let outcomes: Vec<Option<RankOutcome>> = thread::scope(|scope| {
        let handles: Vec<_> = comms
            .into_iter()
            .map(|comm| {
                let cfg = cfg.clone();
                scope.spawn(move || {
                    let _runtime = runtime.map(matgnn_tensor::Runtime::enter);
                    run_rank(&cfg, comm)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().ok()) // a killed rank's panic is expected
            .collect()
    });
    let mut excused = 0;
    let mut report = None;
    for outcome in outcomes.into_iter().flatten() {
        match outcome {
            RankOutcome::Done(r) => {
                if report.is_none() {
                    report = Some(r);
                }
            }
            RankOutcome::Excused => excused += 1,
            RankOutcome::Failed(msg) => panic!("graph-parallel rank failed: {msg}"),
        }
    }
    let _ = excused;
    let report = report.expect("at least one rank must survive the fault plan");
    ledger_append(cfg, &report, start.elapsed());
    report
}

/// Appends the finished run's scaling coordinates to the ledger named
/// by `MATGNN_LEDGER`, if set — one env lookup at run end, nothing on
/// the training path. Atoms seen = the whole slab once per step (the
/// partitions jointly cover it each step).
fn ledger_append(cfg: &GraphParConfig, report: &GraphParReport, wall: Duration) {
    use matgnn_telemetry::ledger;
    if !std::env::var(ledger::ENV_VAR).is_ok_and(|v| !v.is_empty()) {
        return;
    }
    let params = report.final_params.len() as u64;
    let atoms_per_step = cfg.n_atoms as u64;
    let atoms_seen = atoms_per_step * report.losses.len() as u64;
    let mut rec = ledger::RunRecord::new("graphpar", params, atoms_seen, cfg.world);
    rec.steps = report.losses.len() as u64;
    rec.wall_s = wall.as_secs_f64();
    rec.loss = report.losses.last().copied().unwrap_or(f32::NAN) as f64;
    rec.curve = report
        .losses
        .iter()
        .enumerate()
        .map(|(i, l)| {
            (
                ledger::flop_estimate(params, atoms_per_step * (i as u64 + 1)),
                *l as f64,
            )
        })
        .collect();
    ledger::append_from_env(&rec);
}

fn run_rank(cfg: &GraphParConfig, comm: Communicator) -> RankOutcome {
    matgnn_telemetry::set_rank(comm.rank());
    let out = run_rank_inner(cfg, comm);
    matgnn_telemetry::clear_rank();
    matgnn_telemetry::clear_step();
    out
}

fn run_rank_inner(cfg: &GraphParConfig, mut comm: Communicator) -> RankOutcome {
    // Faults target the rank a process was *launched* as: survivors are
    // renumbered after elastic recovery, and an event must not migrate
    // onto a different process when a step is redone.
    let launch_rank = comm.rank();
    let structure = synthetic_slab(cfg.n_atoms, cfg.seed);
    let plan = PartitionPlan::build(&structure, cfg.cutoff, cfg.n_parts);
    let mut model = Egnn::new(
        EgnnConfig::new(cfg.hidden_dim, cfg.n_layers).with_seed(cfg.seed.wrapping_add(1)),
    );
    let n_params = model.params().n_scalars();
    let mut flat_params: Vec<f32> = model.params().flatten().data().to_vec();

    // Replicated Adam state (moments held in full by every rank) …
    let mut m = vec![0.0f32; n_params];
    let mut v = vec![0.0f32; n_params];
    let mut t: u64 = 0;
    // … or a ZeRO shard. Chaos runs mirror the full moments after each
    // step so a shrunk group can re-shard without the dead rank's slice
    // (a real deployment reads them from the checkpoint instead).
    let mut zero = cfg
        .zero
        .then(|| ZeroAdam::new(n_params, comm.rank(), comm.world(), cfg.adam, None));
    let mut zero_mirror: Option<(Vec<f32>, Vec<f32>, u64)> = None;

    let mut batches = {
        let (p0, p1) = parts_for_rank(cfg.n_parts, comm.world(), comm.rank());
        local_batches(&plan, p0, p1)
    };
    let mut losses = Vec::with_capacity(cfg.steps);
    let mut recoveries = 0usize;
    let mut owned_atoms = 0;
    let mut ghost_atoms = 0;
    let mut halo_bytes_per_step = 0;

    let mut step = 0usize;
    while step < cfg.steps {
        matgnn_telemetry::set_step(step as u64);
        let before = comm.stats();
        let result = {
            let mut channel = DistHalo::new(&mut comm, &plan);
            if let Some(kind) = cfg
                .fault_plan
                .check_at(launch_rank, step as u64, FaultSite::Halo)
            {
                channel.arm_fault(kind);
            }
            graphpar_step(&model, &plan, &batches, &mut channel, &cfg.loss)
        };
        match result {
            Ok(out) => {
                let flat_grads = flatten_grads(&out.grads, n_params);
                if let Some(z) = zero.as_mut() {
                    // Gradients are already globally reduced; hand the
                    // shard straight to the sharded update, pre-scaled
                    // to cancel the internal 1/world mean.
                    let (s, e) = z.shard();
                    let w = comm.world() as f32;
                    let shard: Vec<f32> = flat_grads[s..e].iter().map(|g| g * w).collect();
                    if let Err(err) =
                        z.step_with_reduced_shard(&mut comm, &mut flat_params, shard, cfg.lr)
                    {
                        return RankOutcome::Failed(format!("zero step: {err}"));
                    }
                    if !cfg.fault_plan.is_empty() {
                        match z.gather_state(&mut comm) {
                            Ok(state) => zero_mirror = Some(state),
                            Err(err) => return RankOutcome::Failed(format!("zero mirror: {err}")),
                        }
                    }
                } else {
                    t += 1;
                    adam_update(
                        &mut flat_params,
                        &flat_grads,
                        &mut m,
                        &mut v,
                        t,
                        cfg.lr,
                        &cfg.adam,
                    );
                }
                model
                    .params_mut()
                    .unflatten_from(&Tensor::from_vec(n_params, flat_params.clone()).unwrap());
                if cfg.overlap_comm {
                    // Per-part halo pushes hide behind the next part's
                    // kernels in a pipelined deployment; credit the
                    // step's halo time as overlapped. Accounting only —
                    // the bits above never depend on this.
                    let delta = comm.stats().modeled_seconds - before.modeled_seconds;
                    comm.credit_overlap(delta);
                }
                losses.push(out.loss);
                owned_atoms = out.owned_atoms;
                ghost_atoms = out.ghost_atoms;
                halo_bytes_per_step = out.halo_bytes;
                step += 1;
            }
            Err(HaloError(msg)) => {
                // A hung rank that the group timed out on leaves the
                // run, mirroring watchdog escalation: it marks itself
                // failed so the survivors' regroup excludes it.
                let hung_me = matches!(
                    cfg.fault_plan
                        .check_at(launch_rank, step as u64, FaultSite::Halo),
                    Some(FaultKind::Hang)
                );
                if hung_me {
                    comm.mark_failed();
                    return RankOutcome::Excused;
                }
                recoveries += 1;
                if recoveries > cfg.max_recoveries {
                    return RankOutcome::Failed(format!("recovery budget exhausted after: {msg}"));
                }
                matgnn_telemetry::health_event("halo_failure", &msg);
                comm = match comm.split_survivors(cfg.comm_timeout * 4) {
                    Ok(fresh) => fresh,
                    Err(err) => return RankOutcome::Failed(format!("regroup: {err}")),
                };
                // Same plan, fewer ranks: re-derive the local part run
                // and re-shard the optimizer; then redo this step. The
                // canonical reductions make the redone step bitwise
                // equal to what the full group would have produced.
                let (p0, p1) = parts_for_rank(cfg.n_parts, comm.world(), comm.rank());
                batches = local_batches(&plan, p0, p1);
                if zero.is_some() {
                    let (fm, fv, ft) = zero_mirror
                        .clone()
                        .unwrap_or_else(|| (vec![0.0; n_params], vec![0.0; n_params], 0));
                    zero = Some(ZeroAdam::from_full_state(
                        n_params,
                        comm.rank(),
                        comm.world(),
                        cfg.adam,
                        None,
                        &fm,
                        &fv,
                        ft,
                    ));
                }
            }
        }
    }
    RankOutcome::Done(GraphParReport {
        losses,
        final_params: flat_params,
        final_world: comm.world(),
        recoveries,
        owned_atoms,
        ghost_atoms,
        halo_bytes_per_step,
        stats: comm.stats(),
    })
}

fn flatten_grads(grads: &[Tensor], n_params: usize) -> Vec<f32> {
    let mut flat = Vec::with_capacity(n_params);
    for g in grads {
        flat.extend_from_slice(g.data());
    }
    debug_assert_eq!(flat.len(), n_params);
    flat
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn trajectory_is_invariant_to_world_size() {
        let run = |world: usize| {
            train_graphpar(&GraphParConfig {
                world,
                ..GraphParConfig::default()
            })
        };
        let reference = run(1);
        assert_eq!(reference.losses.len(), 3);
        for world in [2, 4] {
            let r = run(world);
            assert_eq!(bits(&r.losses), bits(&reference.losses), "W={world}");
            assert_eq!(
                bits(&r.final_params),
                bits(&reference.final_params),
                "W={world}"
            );
        }
    }

    #[test]
    fn zero_on_off_is_bitwise_identical() {
        for world in [2, 4] {
            let run = |zero: bool| {
                train_graphpar(&GraphParConfig {
                    world,
                    zero,
                    ..GraphParConfig::default()
                })
            };
            let dense = run(false);
            let sharded = run(true);
            assert_eq!(bits(&dense.losses), bits(&sharded.losses), "W={world}");
            assert_eq!(
                bits(&dense.final_params),
                bits(&sharded.final_params),
                "W={world}"
            );
        }
    }

    #[test]
    fn overlap_changes_accounting_not_bits() {
        let run = |overlap_comm: bool| {
            train_graphpar(&GraphParConfig {
                world: 2,
                overlap_comm,
                ..GraphParConfig::default()
            })
        };
        let sync = run(false);
        let overlapped = run(true);
        assert_eq!(bits(&sync.losses), bits(&overlapped.losses));
        assert_eq!(bits(&sync.final_params), bits(&overlapped.final_params));
        assert_eq!(sync.stats.overlapped_seconds, 0.0);
        assert!(overlapped.stats.overlapped_seconds > 0.0);
        assert!(overlapped.stats.overlapped_seconds <= overlapped.stats.modeled_seconds);
    }

    #[test]
    fn kill_in_halo_recovers_and_continues_bitwise() {
        let reference = train_graphpar(&GraphParConfig {
            world: 1,
            steps: 4,
            ..GraphParConfig::default()
        });
        let chaotic = train_graphpar(&GraphParConfig {
            world: 3,
            steps: 4,
            fault_plan: FaultPlan::parse("kill@rank2,step1,halo").unwrap(),
            comm_timeout: Duration::from_secs(5),
            ..GraphParConfig::default()
        });
        assert_eq!(chaotic.recoveries, 1);
        assert_eq!(chaotic.final_world, 2);
        assert_eq!(chaotic.losses.len(), 4);
        // The interrupted trajectory is the uninterrupted one, bit for bit.
        assert_eq!(bits(&chaotic.losses), bits(&reference.losses));
        assert_eq!(bits(&chaotic.final_params), bits(&reference.final_params));
    }

    #[test]
    fn hang_in_halo_excuses_the_rank_and_survivors_continue() {
        let reference = train_graphpar(&GraphParConfig {
            world: 1,
            steps: 3,
            ..GraphParConfig::default()
        });
        let chaotic = train_graphpar(&GraphParConfig {
            world: 2,
            steps: 3,
            fault_plan: FaultPlan::parse("hang@rank1,step1,halo").unwrap(),
            comm_timeout: Duration::from_millis(300),
            ..GraphParConfig::default()
        });
        assert_eq!(chaotic.recoveries, 1);
        assert_eq!(chaotic.final_world, 1);
        assert_eq!(bits(&chaotic.losses), bits(&reference.losses));
        assert_eq!(bits(&chaotic.final_params), bits(&reference.final_params));
    }

    #[test]
    fn zero_recovery_reshards_from_the_mirror() {
        let reference = train_graphpar(&GraphParConfig {
            world: 4,
            steps: 3,
            zero: true,
            ..GraphParConfig::default()
        });
        // Kill one of four ranks: the survivors re-shard from the
        // mirrored moments. Post-recovery worlds are not a power of
        // two, so the zero-path scaling is no longer exactly cancelled;
        // the run must still complete and stay close.
        let chaotic = train_graphpar(&GraphParConfig {
            world: 4,
            steps: 3,
            zero: true,
            fault_plan: FaultPlan::parse("kill@rank3,step1,halo").unwrap(),
            comm_timeout: Duration::from_secs(5),
            ..GraphParConfig::default()
        });
        assert_eq!(chaotic.recoveries, 1);
        assert_eq!(chaotic.final_world, 3);
        assert_eq!(chaotic.losses.len(), 3);
        for (a, b) in chaotic.final_params.iter().zip(&reference.final_params) {
            assert!((a - b).abs() <= 1e-5 * (1.0 + b.abs()));
        }
    }
}
