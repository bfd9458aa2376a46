//! The distributed halo-exchange channel: [`DistHalo`] implements the
//! model crate's [`HaloChannel`] over the [`Communicator`] slot
//! machinery, so graph-parallel ranks push owner rows into peers' ghost
//! slots with the same rendezvous, staging-buffer recycling, timeout,
//! and poisoning semantics as every other collective in this crate.
//!
//! # Protocol
//!
//! All four channel operations follow the crate's publish/read/finish
//! shape: each rank stages one recycler-backed buffer (its parts' owned
//! rows, ghost adjoints, or flat gradient contributions, concatenated
//! in ascending part order), a generation barrier makes every stage
//! visible, readers copy exactly the peer rows they need under the
//! group lock, and `finish` recycles the staging buffers. Because ranks
//! own contiguous ascending runs of parts and parts own contiguous
//! ascending atom ranges, a rank's staged owned-row buffer *is* a
//! contiguous slice of the global row space — ghost reads are a single
//! offset computation, no index tables on the wire.
//!
//! # Bitwise parity
//!
//! Every reduction here replays the exact accumulation loops of the
//! in-process [`LocalHalo`](matgnn_model::LocalHalo) reference —
//! ascending part order, same per-row element order, the contributor's
//! own block added at its own position — over bit-identical staged
//! values. A graph-parallel step therefore produces the same bits at
//! every world size, which `matgnn_bench graphpar` gates on.

use std::sync::Arc;
use std::time::Duration;

use matgnn_graph::{parts_for_rank, PartitionPlan};
use matgnn_model::graphpar::{add_ghost_rows, add_into};
use matgnn_model::{HaloChannel, HaloError};
use matgnn_tensor::Tensor;

use crate::collective::{CommError, Communicator};
use crate::fault::FaultKind;

/// The distributed [`HaloChannel`]. Borrows the rank's [`Communicator`]
/// for the duration of one graph-parallel step; construct one per step
/// so armed faults and per-step telemetry scope naturally.
pub struct DistHalo<'a> {
    comm: &'a mut Communicator,
    armed: Option<FaultKind>,
}

impl<'a> DistHalo<'a> {
    /// Wraps a communicator for one graph-parallel step over `plan`,
    /// recording this rank's halo-fraction sample.
    pub fn new(comm: &'a mut Communicator, plan: &PartitionPlan) -> Self {
        let (p0, p1) = parts_for_rank(plan.n_parts(), comm.world(), comm.rank());
        let owned: usize = (p0..p1).map(|p| plan.part(p).n_owned()).sum();
        let ghosts: usize = (p0..p1).map(|p| plan.part(p).ghosts().len()).sum();
        matgnn_telemetry::gauge_set("comm.halo.ghost_atoms", ghosts as f64);
        if owned + ghosts > 0 {
            matgnn_telemetry::histogram_record(
                "comm.halo.fraction",
                ghosts as f64 / (owned + ghosts) as f64,
            );
        }
        DistHalo { comm, armed: None }
    }

    /// Arms a fault to fire inside this step's first halo exchange:
    /// `Kill` panics mid-collective (the unwinding rank's communicator
    /// poisons the group), `Hang` stops making progress until the
    /// watchdog or a peer timeout poisons the group, `Delay` stalls the
    /// exchange. Other kinds are step-boundary faults and are ignored.
    pub fn arm_fault(&mut self, kind: FaultKind) {
        self.armed = Some(kind);
    }

    /// The underlying communicator (for stats and recovery).
    pub fn comm(&self) -> &Communicator {
        self.comm
    }

    fn fire_armed(&mut self) -> Result<(), HaloError> {
        match self.armed.take() {
            Some(FaultKind::Kill) => {
                panic!(
                    "injected fault: rank {} killed in halo exchange",
                    self.comm.rank()
                )
            }
            Some(FaultKind::Hang) => loop {
                if self.comm.is_poisoned() {
                    return Err(HaloError(format!(
                        "rank {} hung in halo exchange until the group was poisoned",
                        self.comm.rank()
                    )));
                }
                std::thread::sleep(Duration::from_millis(1));
            },
            Some(FaultKind::Delay(d)) => {
                std::thread::sleep(d);
                Ok(())
            }
            _ => Ok(()),
        }
    }

    fn chunk(&self, plan: &PartitionPlan) -> usize {
        plan.n_parts().div_ceil(self.comm.world())
    }

    fn lift(&mut self, e: CommError) -> HaloError {
        HaloError(e.to_string())
    }
}

/// Concatenates row blocks into one staging vector.
fn pack(blocks: &[Tensor]) -> Vec<f32> {
    let _span = matgnn_telemetry::span("comm.halo.pack");
    let total: usize = blocks.iter().map(|t| t.data().len()).sum();
    let mut flat = Vec::with_capacity(total);
    for b in blocks {
        flat.extend_from_slice(b.data());
    }
    flat
}

impl HaloChannel for DistHalo<'_> {
    fn part_range(&self, plan: &PartitionPlan) -> (usize, usize) {
        parts_for_rank(plan.n_parts(), self.comm.world(), self.comm.rank())
    }

    fn exchange_ghosts(
        &mut self,
        plan: &PartitionPlan,
        owned: &[Tensor],
        cols: usize,
    ) -> Result<Vec<Tensor>, HaloError> {
        let _span = matgnn_telemetry::span("comm.halo.exchange");
        self.fire_armed()?;
        let world = self.comm.world();
        let my_rank = self.comm.rank();
        let chunk = self.chunk(plan);
        let (p0, p1) = self.part_range(plan);
        let flat = pack(owned);
        self.comm.publish_slice(&flat).map_err(|e| self.lift(e))?;
        let mut cross_bytes = 0u64;
        let out = self
            .comm
            .read_slots(|slots| {
                let _span = matgnn_telemetry::span("comm.halo.unpack");
                let mut out = Vec::with_capacity(p1 - p0);
                for p in p0..p1 {
                    let part = plan.part(p);
                    let mut data = Vec::with_capacity(part.ghosts().len() * cols);
                    for &g in part.ghosts() {
                        let owner_rank = plan.owner_part(g) / chunk;
                        let base = {
                            let (a, _) = parts_for_rank(plan.n_parts(), world, owner_rank);
                            plan.offsets()[a]
                        };
                        let buf: &Arc<Vec<f32>> =
                            slots[owner_rank].as_ref().expect("peer staged its rows");
                        data.extend_from_slice(&buf[(g - base) * cols..(g - base + 1) * cols]);
                        if owner_rank != my_rank {
                            cross_bytes += (cols * 4) as u64;
                        }
                    }
                    out.push(
                        Tensor::from_vec((part.ghosts().len(), cols), data)
                            .expect("ghost block shape"),
                    );
                }
                out
            })
            .map_err(|e| self.lift(e))?;
        self.comm.finish().map_err(|e| self.lift(e))?;
        self.comm.account_traffic(cross_bytes);
        matgnn_telemetry::counter_add("comm.halo.bytes", cross_bytes);
        Ok(out)
    }

    fn accumulate_adjoints(
        &mut self,
        plan: &PartitionPlan,
        own: &[Tensor],
        ghost: &[Tensor],
        cols: usize,
    ) -> Result<Vec<Tensor>, HaloError> {
        let _span = matgnn_telemetry::span("comm.halo.exchange");
        let world = self.comm.world();
        let my_rank = self.comm.rank();
        let v = plan.n_parts();
        let chunk = self.chunk(plan);
        let (p0, p1) = self.part_range(plan);
        let flat = pack(ghost);
        self.comm.publish_slice(&flat).map_err(|e| self.lift(e))?;
        let mut cross_bytes = 0u64;
        let out = self
            .comm
            .read_slots(|slots| {
                let _span = matgnn_telemetry::span("comm.halo.unpack");
                let mut out = Vec::with_capacity(p1 - p0);
                for p in p0..p1 {
                    let part = plan.part(p);
                    let (s, e) = part.owned_range();
                    let mut acc = vec![0.0f32; part.n_owned() * cols];
                    // The canonical contributor loop: ascending part
                    // order, identical to LocalHalo at any world size.
                    for q in 0..v {
                        if q == p {
                            add_into(&mut acc, own[p - p0].data());
                            continue;
                        }
                        let owner_rank = q / chunk;
                        let (a, _) = parts_for_rank(v, world, owner_rank);
                        let base: usize = (a..q).map(|q2| plan.part(q2).ghosts().len()).sum();
                        let buf: &Arc<Vec<f32>> =
                            slots[owner_rank].as_ref().expect("peer staged adjoints");
                        let rows = plan.part(q).ghosts().len();
                        let block = &buf[base * cols..(base + rows) * cols];
                        add_ghost_rows(&mut acc, plan, q, block, s, e, cols);
                        if owner_rank != my_rank {
                            let in_range = plan
                                .part(q)
                                .ghosts()
                                .iter()
                                .filter(|&&g| g >= s && g < e)
                                .count();
                            cross_bytes += (in_range * cols * 4) as u64;
                        }
                    }
                    out.push(
                        Tensor::from_vec((part.n_owned(), cols), acc).expect("owned block shape"),
                    );
                }
                out
            })
            .map_err(|e| self.lift(e))?;
        self.comm.finish().map_err(|e| self.lift(e))?;
        self.comm.account_traffic(cross_bytes);
        matgnn_telemetry::counter_add("comm.halo.bytes", cross_bytes);
        Ok(out)
    }

    fn gather_rows(
        &mut self,
        plan: &PartitionPlan,
        owned: &[Tensor],
        cols: usize,
    ) -> Result<Tensor, HaloError> {
        let _span = matgnn_telemetry::span("comm.halo.exchange");
        let world = self.comm.world();
        let my_rank = self.comm.rank();
        let n = plan.n_nodes();
        let flat = pack(owned);
        self.comm.publish_slice(&flat).map_err(|e| self.lift(e))?;
        let mut cross_bytes = 0u64;
        let data = self
            .comm
            .read_slots(|slots| {
                let _span = matgnn_telemetry::span("comm.halo.unpack");
                let mut data = Vec::with_capacity(n * cols);
                for (r, slot) in slots.iter().enumerate().take(world) {
                    let buf = slot.as_ref().expect("peer staged its rows");
                    data.extend_from_slice(buf);
                    if r != my_rank {
                        cross_bytes += (buf.len() * 4) as u64;
                    }
                }
                data
            })
            .map_err(|e| self.lift(e))?;
        self.comm.finish().map_err(|e| self.lift(e))?;
        self.comm.account_traffic(cross_bytes);
        matgnn_telemetry::counter_add("comm.halo.bytes", cross_bytes);
        Tensor::from_vec((n, cols), data).map_err(|e| HaloError(format!("gathered shape: {e:?}")))
    }

    fn reduce_parts(
        &mut self,
        plan: &PartitionPlan,
        per_part: &[Vec<f32>],
        len: usize,
    ) -> Result<Vec<f32>, HaloError> {
        let _span = matgnn_telemetry::span("comm.halo.exchange");
        let world = self.comm.world();
        let my_rank = self.comm.rank();
        let v = plan.n_parts();
        let chunk = self.chunk(plan);
        let flat: Vec<f32> = {
            let _span = matgnn_telemetry::span("comm.halo.pack");
            per_part.iter().flatten().copied().collect()
        };
        self.comm.publish_slice(&flat).map_err(|e| self.lift(e))?;
        let mut cross_bytes = 0u64;
        let acc = self
            .comm
            .read_slots(|slots| {
                let _span = matgnn_telemetry::span("comm.halo.unpack");
                let mut acc = vec![0.0f32; len];
                // Ascending part order — never grouped per rank, so the
                // sum's bits are independent of the world size.
                for q in 0..v {
                    let owner_rank = q / chunk;
                    let (a, _) = parts_for_rank(v, world, owner_rank);
                    let buf = slots[owner_rank].as_ref().expect("peer staged gradients");
                    add_into(&mut acc, &buf[(q - a) * len..(q - a + 1) * len]);
                    if owner_rank != my_rank {
                        cross_bytes += (len * 4) as u64;
                    }
                }
                acc
            })
            .map_err(|e| self.lift(e))?;
        self.comm.finish().map_err(|e| self.lift(e))?;
        self.comm.account_traffic(cross_bytes);
        matgnn_telemetry::counter_add("comm.halo.bytes", cross_bytes);
        Ok(acc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collective::CostModel;
    use matgnn_graph::{AtomicStructure, Element};
    use matgnn_model::{graphpar_step, local_batches, Egnn, EgnnConfig, GraphParLoss, LocalHalo};
    use matgnn_tensor::rng::Rng;
    use std::thread;

    fn slab_structure(n: usize, seed: u64) -> AtomicStructure {
        let mut rng = Rng::seed_from_u64(seed);
        let pool = [Element::H, Element::C, Element::N, Element::O];
        let species = (0..n).map(|_| pool[rng.gen_range(0..pool.len())]).collect();
        let positions = (0..n)
            .map(|i| {
                [
                    (i / 4) as f64 * 1.1 + rng.gen_range(-0.25..0.25),
                    ((i % 4) / 2) as f64 * 1.2 + rng.gen_range(-0.25..0.25),
                    (i % 2) as f64 * 1.2 + rng.gen_range(-0.25..0.25),
                ]
            })
            .collect();
        AtomicStructure::new(species, positions).unwrap()
    }

    fn model_and_plan(n_parts: usize) -> (Egnn, matgnn_graph::PartitionPlan) {
        let s = slab_structure(32, 41);
        let model = Egnn::new(EgnnConfig::new(12, 2).with_seed(7));
        let plan = matgnn_graph::PartitionPlan::build(&s, 2.5, n_parts);
        (model, plan)
    }

    fn run_dist(world: usize, n_parts: usize) -> matgnn_model::GraphParOutput {
        let comms = Communicator::create(world, CostModel::default());
        let outs: Vec<_> = thread::scope(|scope| {
            let handles: Vec<_> = comms
                .into_iter()
                .map(|mut comm| {
                    scope.spawn(move || {
                        let (model, plan) = model_and_plan(n_parts);
                        let (p0, p1) = parts_for_rank(n_parts, world, comm.rank());
                        let batches = local_batches(&plan, p0, p1);
                        let mut ch = DistHalo::new(&mut comm, &plan);
                        graphpar_step(&model, &plan, &batches, &mut ch, &GraphParLoss::default())
                            .expect("healthy group")
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        // Replicated outputs: every rank must return the same bits.
        let first = &outs[0];
        for o in &outs[1..] {
            assert_eq!(o.loss.to_bits(), first.loss.to_bits());
            assert_eq!(o.energy.to_bits(), first.energy.to_bits());
            for (a, b) in o.grads.iter().zip(&first.grads) {
                assert_eq!(
                    a.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    b.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>()
                );
            }
        }
        outs.into_iter().next().unwrap()
    }

    #[test]
    fn world_sizes_agree_bitwise_with_local_reference() {
        let n_parts = 4;
        let (model, plan) = model_and_plan(n_parts);
        let batches = local_batches(&plan, 0, n_parts);
        let mut local = LocalHalo::new();
        let reference = graphpar_step(
            &model,
            &plan,
            &batches,
            &mut local,
            &GraphParLoss::default(),
        )
        .unwrap();
        for world in [1, 2, 4] {
            let out = run_dist(world, n_parts);
            assert_eq!(
                out.loss.to_bits(),
                reference.loss.to_bits(),
                "loss diverged at W={world}"
            );
            assert_eq!(out.energy.to_bits(), reference.energy.to_bits());
            for (i, (a, b)) in out.grads.iter().zip(&reference.grads).enumerate() {
                assert_eq!(
                    a.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    b.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "grad {i} diverged at W={world}"
                );
            }
        }
    }

    #[test]
    fn forces_are_replicated_and_match_local() {
        let n_parts = 3;
        let (model, plan) = model_and_plan(n_parts);
        let batches = local_batches(&plan, 0, n_parts);
        let mut local = LocalHalo::new();
        let reference = graphpar_step(
            &model,
            &plan,
            &batches,
            &mut local,
            &GraphParLoss::default(),
        )
        .unwrap();
        let out = run_dist(3, n_parts);
        assert_eq!(
            out.forces
                .data()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
            reference
                .forces
                .data()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn killed_rank_poisons_the_halo_group() {
        let world = 3;
        let comms =
            Communicator::create_with_timeout(world, CostModel::default(), Duration::from_secs(5));
        let results: Vec<_> = thread::scope(|scope| {
            let handles: Vec<_> = comms
                .into_iter()
                .map(|mut comm| {
                    scope.spawn(move || {
                        let (model, plan) = model_and_plan(3);
                        let rank = comm.rank();
                        let (p0, p1) = parts_for_rank(3, world, rank);
                        let batches = local_batches(&plan, p0, p1);
                        let mut ch = DistHalo::new(&mut comm, &plan);
                        if rank == 1 {
                            ch.arm_fault(FaultKind::Kill);
                        }
                        graphpar_step(&model, &plan, &batches, &mut ch, &GraphParLoss::default())
                            .map(|o| o.loss)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join()).collect()
        });
        // Rank 1 panicked; survivors observed the poisoned group as a
        // HaloError instead of hanging.
        assert!(results[1].is_err(), "rank 1 should have died");
        for (r, res) in results.iter().enumerate() {
            if r != 1 {
                let step = res.as_ref().expect("survivor thread should not panic");
                assert!(step.is_err(), "rank {r} should see a halo error");
            }
        }
    }

    #[test]
    fn hung_rank_unblocks_after_peer_timeout() {
        let world = 2;
        let comms = Communicator::create_with_timeout(
            world,
            CostModel::default(),
            Duration::from_millis(200),
        );
        let results: Vec<_> = thread::scope(|scope| {
            let handles: Vec<_> = comms
                .into_iter()
                .map(|mut comm| {
                    scope.spawn(move || {
                        let (model, plan) = model_and_plan(2);
                        let rank = comm.rank();
                        let (p0, p1) = parts_for_rank(2, world, rank);
                        let batches = local_batches(&plan, p0, p1);
                        let mut ch = DistHalo::new(&mut comm, &plan);
                        if rank == 0 {
                            ch.arm_fault(FaultKind::Hang);
                        }
                        graphpar_step(&model, &plan, &batches, &mut ch, &GraphParLoss::default())
                            .map(|o| o.loss)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        // The peer's rendezvous timeout poisons the group; both the
        // hung rank and the waiting peer return errors, neither hangs.
        for (r, res) in results.iter().enumerate() {
            assert!(res.is_err(), "rank {r} should fail, not hang");
        }
    }

    #[test]
    fn cross_rank_bytes_are_accounted() {
        let world = 2;
        let n_parts = 2;
        let comms = Communicator::create(world, CostModel::default());
        let stats: Vec<_> = thread::scope(|scope| {
            let handles: Vec<_> = comms
                .into_iter()
                .map(|mut comm| {
                    scope.spawn(move || {
                        let (model, plan) = model_and_plan(n_parts);
                        let (p0, p1) = parts_for_rank(n_parts, world, comm.rank());
                        let batches = local_batches(&plan, p0, p1);
                        let mut ch = DistHalo::new(&mut comm, &plan);
                        graphpar_step(&model, &plan, &batches, &mut ch, &GraphParLoss::default())
                            .expect("healthy group");
                        comm.stats()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (r, st) in stats.iter().enumerate() {
            assert!(
                st.bytes_moved > 0,
                "rank {r} should account cross-rank halo traffic"
            );
            assert!(st.collectives > 0);
        }
        // A single-rank run moves nothing across ranks.
        let comms = Communicator::create(1, CostModel::default());
        let mut comm = comms.into_iter().next().unwrap();
        let (model, plan) = model_and_plan(n_parts);
        let batches = local_batches(&plan, 0, n_parts);
        let mut ch = DistHalo::new(&mut comm, &plan);
        graphpar_step(&model, &plan, &batches, &mut ch, &GraphParLoss::default()).unwrap();
        assert_eq!(comm.stats().bytes_moved, 0);
    }
}
