//! Graph-parallel EGNN execution over a spatial [`PartitionPlan`].
//!
//! One structure is split into `V` **virtual parts** (fixed per run,
//! independent of the rank count); a rank executes a contiguous run of
//! parts, layer by layer, refreshing each part's ghost halo between
//! layers through a [`HaloChannel`]. The channel is the only
//! communication abstraction the engine sees: `matgnn_dist` implements
//! it over the real collective runtime, while [`LocalHalo`] runs all
//! parts in-process (the single-rank path, and the reference every
//! multi-rank run must match bitwise).
//!
//! # Why the trajectory is invariant to the rank count
//!
//! Every segment runs **per part**: forward without a tape, backward on
//! one tape per part and segment whose graph, leaf bindings and seeds
//! depend only on the plan, never on which rank runs it. The only
//! cross-part arithmetic is (a) ghost-value copies (exact), (b)
//! ghost-adjoint accumulation, (c) the energy reduction, and (d) the
//! parameter-gradient reduction — and all of (b)–(d) are performed in
//! **canonical ascending part order** on every rank, with the same
//! per-row f32 additions a single rank would issue. Forward node values
//! are additionally bitwise identical to the plain single-tape
//! [`Egnn`]: every kernel is row-wise with a fixed per-row accumulation
//! order, and a part's local edge list preserves the global edge order
//! restricted to its owned sources (see DESIGN.md §7.9).

use matgnn_graph::{GraphBatch, PartitionPlan};
use matgnn_tensor::{Exec, NoTape, Tape, Tensor, Var};

use crate::{Egnn, GnnModel};

/// A halo-exchange failure (in the distributed channel: a poisoned or
/// timed-out communicator). The engine aborts the step and surfaces the
/// error so the driver can run elastic recovery.
#[derive(Debug, Clone)]
pub struct HaloError(pub String);

impl std::fmt::Display for HaloError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "halo exchange failed: {}", self.0)
    }
}

impl std::error::Error for HaloError {}

/// The communication surface of graph-parallel execution. Implementors
/// move **owned row blocks** between parts; all methods are collective
/// across ranks (every rank calls them the same number of times per
/// step, in the same order).
pub trait HaloChannel {
    /// The contiguous run of parts this channel executes.
    fn part_range(&self, plan: &PartitionPlan) -> (usize, usize);

    /// Pushes each local part's owned rows to the parts that ghost
    /// them; returns, for each local part, its ghost rows (ghost-id
    /// ascending) as copied from the owners. `owned[i]` belongs to part
    /// `part_range().0 + i` and has that part's `n_owned()` rows.
    fn exchange_ghosts(
        &mut self,
        plan: &PartitionPlan,
        owned: &[Tensor],
        cols: usize,
    ) -> Result<Vec<Tensor>, HaloError>;

    /// Routes ghost adjoints back to their owners. Returns, per local
    /// part `p`, the accumulated gradient for `p`'s owned rows: the sum
    /// over **all contributing parts in ascending part order** (each
    /// part contributes at its own index — `p`'s own block included) of
    /// that part's gradient rows for those atoms. `own[i]` is local
    /// part `i`'s gradient for its owned rows, `ghost[i]` for its ghost
    /// rows (ghost-id ascending).
    fn accumulate_adjoints(
        &mut self,
        plan: &PartitionPlan,
        own: &[Tensor],
        ghost: &[Tensor],
        cols: usize,
    ) -> Result<Vec<Tensor>, HaloError>;

    /// Concatenates per-part owned row blocks over **all** parts in
    /// ascending part order — which, because parts own contiguous
    /// ascending id ranges, is exactly the global `[n × cols]` matrix.
    fn gather_rows(
        &mut self,
        plan: &PartitionPlan,
        owned: &[Tensor],
        cols: usize,
    ) -> Result<Tensor, HaloError>;

    /// Canonical cross-part reduction of per-part flat vectors: returns
    /// `Σ_p contribution_p` summed in ascending part order, identically
    /// on every rank. `per_part[i]` is local part `i`'s contribution;
    /// each has length `len` (passed explicitly so ranks that own no
    /// parts — possible when `world` does not divide `n_parts` — still
    /// receive the full reduction).
    fn reduce_parts(
        &mut self,
        plan: &PartitionPlan,
        per_part: &[Vec<f32>],
        len: usize,
    ) -> Result<Vec<f32>, HaloError>;
}

/// The in-process channel: one "rank" executes every part. This is both
/// the single-rank production path and the parity reference — the
/// distributed channel must reproduce its arithmetic bit for bit, which
/// is why the accumulation loops below are written in the exact
/// ascending-part order the distributed implementation mirrors.
#[derive(Debug, Default)]
pub struct LocalHalo;

impl LocalHalo {
    /// Creates the all-parts-local channel.
    pub fn new() -> Self {
        LocalHalo
    }
}

impl HaloChannel for LocalHalo {
    fn part_range(&self, plan: &PartitionPlan) -> (usize, usize) {
        (0, plan.n_parts())
    }

    fn exchange_ghosts(
        &mut self,
        plan: &PartitionPlan,
        owned: &[Tensor],
        cols: usize,
    ) -> Result<Vec<Tensor>, HaloError> {
        assert_eq!(owned.len(), plan.n_parts());
        let mut out = Vec::with_capacity(owned.len());
        for part in plan.parts() {
            let mut data = Vec::with_capacity(part.ghosts().len() * cols);
            for &g in part.ghosts() {
                let q = plan.owner_part(g);
                let (qs, _) = plan.part(q).owned_range();
                let row = &owned[q].data()[(g - qs) * cols..(g - qs + 1) * cols];
                data.extend_from_slice(row);
            }
            out.push(tensor_rows(data, part.ghosts().len(), cols));
        }
        Ok(out)
    }

    fn accumulate_adjoints(
        &mut self,
        plan: &PartitionPlan,
        own: &[Tensor],
        ghost: &[Tensor],
        cols: usize,
    ) -> Result<Vec<Tensor>, HaloError> {
        let v = plan.n_parts();
        assert_eq!(own.len(), v);
        assert_eq!(ghost.len(), v);
        let mut out = Vec::with_capacity(v);
        for (p, own_p) in own.iter().enumerate() {
            let part = plan.part(p);
            let (s, e) = part.owned_range();
            let mut acc = vec![0.0f32; part.n_owned() * cols];
            // Ascending contributor order, own block at its own index —
            // the canonical order every world size reproduces.
            for (q, ghost_q) in ghost.iter().enumerate() {
                if q == p {
                    add_into(&mut acc, own_p.data());
                } else {
                    add_ghost_rows(&mut acc, plan, q, ghost_q.data(), s, e, cols);
                }
            }
            out.push(tensor_rows(acc, part.n_owned(), cols));
        }
        Ok(out)
    }

    fn gather_rows(
        &mut self,
        plan: &PartitionPlan,
        owned: &[Tensor],
        cols: usize,
    ) -> Result<Tensor, HaloError> {
        let mut data = Vec::with_capacity(plan.n_nodes() * cols);
        for block in owned {
            data.extend_from_slice(block.data());
        }
        Ok(tensor_rows(data, plan.n_nodes(), cols))
    }

    fn reduce_parts(
        &mut self,
        plan: &PartitionPlan,
        per_part: &[Vec<f32>],
        len: usize,
    ) -> Result<Vec<f32>, HaloError> {
        assert_eq!(per_part.len(), plan.n_parts());
        let mut acc = vec![0.0f32; len];
        for contribution in per_part {
            add_into(&mut acc, contribution);
        }
        Ok(acc)
    }
}

/// `acc[i] += x[i]`, sequentially — the element order every channel
/// implementation must use so accumulations stay bitwise identical.
pub fn add_into(acc: &mut [f32], x: &[f32]) {
    assert_eq!(acc.len(), x.len());
    for (a, &b) in acc.iter_mut().zip(x) {
        *a += b;
    }
}

/// Adds contributor part `q`'s ghost-gradient rows that fall inside the
/// owner range `[s, e)` onto `acc` (the owner's `[n_owned × cols]`
/// block). `ghost_data` is `q`'s ghost block, ghost-id ascending.
pub fn add_ghost_rows(
    acc: &mut [f32],
    plan: &PartitionPlan,
    q: usize,
    ghost_data: &[f32],
    s: usize,
    e: usize,
    cols: usize,
) {
    for (gi, &g) in plan.part(q).ghosts().iter().enumerate() {
        if g >= s && g < e {
            let dst = &mut acc[(g - s) * cols..(g - s + 1) * cols];
            let src = &ghost_data[gi * cols..(gi + 1) * cols];
            for (a, &b) in dst.iter_mut().zip(src) {
                *a += b;
            }
        }
    }
}

/// Builds a `[rows × cols]` tensor from a flat row-major vector (also
/// valid for zero rows — empty halos are common on interior parts).
fn tensor_rows(data: Vec<f32>, rows: usize, cols: usize) -> Tensor {
    Tensor::from_vec((rows, cols), data).expect("row block shape")
}

/// Copies rows `[r0, r1)` of `t` into a fresh tensor.
fn rows_of(t: &Tensor, r0: usize, r1: usize) -> Tensor {
    let c = t.cols();
    tensor_rows(t.data()[r0 * c..r1 * c].to_vec(), r1 - r0, c)
}

/// Concatenates an owned block with a ghost block (owned rows first).
fn stitch(owned: &Tensor, ghosts: &Tensor) -> Tensor {
    let c = owned.cols();
    let mut data = Vec::with_capacity((owned.rows() + ghosts.rows()) * c);
    data.extend_from_slice(owned.data());
    data.extend_from_slice(ghosts.data());
    tensor_rows(data, owned.rows() + ghosts.rows(), c)
}

/// The energy/force objective of a graph-parallel step:
/// `w_e (E − y)² + w_f ‖F‖² / (3n)`. Its per-row adjoints are pure
/// functions of the (replicated) global outputs, so gradient seeds are
/// bitwise identical on every rank.
#[derive(Debug, Clone, Copy)]
pub struct GraphParLoss {
    /// Target total energy `y`.
    pub energy_target: f32,
    /// Energy term weight `w_e`.
    pub energy_weight: f32,
    /// Force regularization weight `w_f`.
    pub force_weight: f32,
}

impl Default for GraphParLoss {
    fn default() -> Self {
        GraphParLoss {
            energy_target: 0.0,
            energy_weight: 1.0,
            force_weight: 1.0,
        }
    }
}

/// Everything a graph-parallel forward/backward produces. `energy`,
/// `forces`, `loss`, and `grads` are **replicated**: every rank returns
/// the same bits.
#[derive(Debug)]
pub struct GraphParOutput {
    /// Total energy of the structure.
    pub energy: f32,
    /// Per-atom forces `[n × 3]` in global (renumbered) atom order.
    pub forces: Tensor,
    /// Scalar loss.
    pub loss: f32,
    /// Parameter gradients aligned with the model's `ParamSet`,
    /// canonically summed over parts.
    pub grads: Vec<Tensor>,
    /// Atoms owned by this rank's parts.
    pub owned_atoms: usize,
    /// Ghost atoms replicated into this rank's halos.
    pub ghost_atoms: usize,
    /// Logical halo payload this step (ghost rows × columns × 4 bytes,
    /// summed over every exchange, including same-rank part copies).
    pub halo_bytes: u64,
}

/// Builds the partition-local batches for parts `[p0, p1)` — one
/// [`GraphBatch`] per part, owned nodes first, then ghosts. Build these
/// once per plan and reuse them across steps.
pub fn local_batches(plan: &PartitionPlan, p0: usize, p1: usize) -> Vec<GraphBatch> {
    (p0..p1)
        .map(|p| GraphBatch::from_graphs(&[plan.part(p).graph()]))
        .collect()
}

/// One graph-parallel forward + backward over this rank's parts.
///
/// `batches` must be [`local_batches`]`(plan, p0, p1)` for the
/// channel's part range. Forward runs embed, every layer and the heads per
/// part without a tape ([`NoTape`]), refreshing the ghost halo after each
/// layer, and keeps only the segment boundaries. Backward records each
/// segment again on a tape per part (activation-checkpointing style; see
/// [`backward_part`]), seeds it with the downstream adjoints and drains
/// its parameter gradients through the tape's leaf-sink path, while ghost
/// adjoints flow back to their owners through the channel.
///
/// # Panics
///
/// Panics if `batches` disagrees with the channel's part range.
pub fn graphpar_step(
    model: &Egnn,
    plan: &PartitionPlan,
    batches: &[GraphBatch],
    channel: &mut dyn HaloChannel,
    loss_cfg: &GraphParLoss,
) -> Result<GraphParOutput, HaloError> {
    let (p0, p1) = channel.part_range(plan);
    let k = p1 - p0;
    assert_eq!(batches.len(), k, "one local batch per local part");
    let n = plan.n_nodes();
    let hidden = model.config().hidden_dim;
    let n_seg = model.n_segments();
    let params = model.params();
    let weights: Vec<Tensor> = params.iter().map(|e| e.tensor.clone()).collect();
    let n_owned: Vec<usize> = (p0..p1).map(|p| plan.part(p).n_owned()).collect();
    let mut halo_bytes: u64 = 0;

    // ---- Forward ----------------------------------------------------
    // inputs[s][i] = the state entering segment s for local part i
    // (`[h, d, rel0]`, ghost rows refreshed); the heads' outputs
    // `[node_e, forces]` come last. Embed needs no exchange: ghost h is
    // the same per-row MLP of the same feature rows the owner computes,
    // and d is identically zero.
    let mut inputs: Vec<Vec<Vec<Tensor>>> = vec![vec![Vec::new(); k]];
    for seg in 0..n_seg {
        let (start, end) = model.segment_param_range(seg);
        let mut out: Vec<Vec<Tensor>> = batches
            .iter()
            .zip(&inputs[seg])
            .map(|(batch, state)| {
                part_segment(model, &mut NoTape, seg, &weights[start..end], batch, state)
            })
            .collect();
        if seg > 0 && seg < n_seg - 1 {
            // A part has none of a ghost's edges, so the layer leaves its
            // ghost rows stale: overwrite them with the owners' rows.
            halo_bytes += refresh_halo(plan, channel, &mut out, &n_owned, 0, hidden)?;
            if model.config().update_coords {
                halo_bytes += refresh_halo(plan, channel, &mut out, &n_owned, 1, 3)?;
            }
        }
        inputs.push(out);
    }
    let heads = inputs.pop().expect("heads outputs");
    let owned_rows = |j: usize| -> Vec<Tensor> {
        heads
            .iter()
            .zip(&n_owned)
            .map(|(o, &no)| rows_of(&o[j], 0, no))
            .collect()
    };
    let full_e = channel.gather_rows(plan, &owned_rows(0), 1)?;
    let full_f = channel.gather_rows(plan, &owned_rows(1), 3)?;
    // Reduce node energies with the same scatter kernel — and therefore
    // the same global-node-order accumulation — the single-tape model
    // uses for its per-graph energy sum.
    let node_graph: Vec<usize> = vec![0; n];
    let energy = full_e.scatter_add_rows(&node_graph, 1).item();

    // ---- Loss and adjoint seeds (replicated arithmetic) -------------
    let de = energy - loss_cfg.energy_target;
    let n3 = (3 * n) as f32;
    let loss = loss_cfg.energy_weight * de * de + loss_cfg.force_weight * full_f.norm_sq() / n3;
    let g_e = 2.0 * loss_cfg.energy_weight * de;
    let g_f = 2.0 * loss_cfg.force_weight / n3;
    // Owned rows carry the loss adjoint, ghost rows zero (their real rows
    // are differentiated by their owner part).
    let mut seeds: Vec<Vec<Tensor>> = (0..k)
        .map(|i| {
            let n_local = plan.part(p0 + i).n_local();
            let (ps, _) = plan.part(p0 + i).owned_range();
            let mut seed_e = vec![0.0f32; n_local];
            seed_e[..n_owned[i]].fill(g_e);
            let mut seed_f = vec![0.0f32; n_local * 3];
            for (r, row) in seed_f.chunks_exact_mut(3).take(n_owned[i]).enumerate() {
                for (c, x) in row.iter_mut().enumerate() {
                    *x = g_f * full_f.get(ps + r, c);
                }
            }
            vec![
                tensor_rows(seed_e, n_local, 1),
                tensor_rows(seed_f, n_local, 3),
            ]
        })
        .collect();

    // ---- Backward: heads, then layers deepest first, then embed -------
    let mut offsets = vec![0];
    for e in params.iter() {
        offsets.push(offsets[offsets.len() - 1] + e.tensor.numel());
    }
    let flat_len = offsets[params.len()];
    let mut part_grads: Vec<Vec<f32>> = (0..k).map(|_| vec![0.0f32; flat_len]).collect();
    for seg in (0..n_seg).rev() {
        let adjoints: Vec<Vec<Tensor>> = batches
            .iter()
            .zip(&inputs[seg])
            .zip(seeds)
            .zip(&mut part_grads)
            .map(|(((batch, state), seed), flat)| {
                backward_part(model, seg, batch, state, seed, flat, &offsets)
            })
            .collect();
        seeds = if seg > 0 {
            let h = route_adjoints(plan, channel, &adjoints, &n_owned, 0, hidden)?;
            let d = route_adjoints(plan, channel, &adjoints, &n_owned, 1, 3)?;
            h.into_iter().zip(d).map(|(h, d)| vec![h, d]).collect()
        } else {
            Vec::new()
        };
    }

    // Canonical cross-part parameter reduction: ascending part order,
    // identical on every rank (never group partial sums per rank — that
    // would make the bits depend on the world size).
    let flat = channel.reduce_parts(plan, &part_grads, flat_len)?;
    let grads: Vec<Tensor> = params
        .iter()
        .enumerate()
        .map(|(i, e)| {
            Tensor::from_vec(
                e.tensor.shape().clone(),
                flat[offsets[i]..offsets[i + 1]].to_vec(),
            )
            .expect("grad shape")
        })
        .collect();

    let owned_atoms: usize = n_owned.iter().sum();
    let ghost_atoms: usize = (p0..p1).map(|p| plan.part(p).ghosts().len()).sum();
    Ok(GraphParOutput {
        energy,
        forces: full_f,
        loss,
        grads,
        owned_atoms,
        ghost_atoms,
        halo_bytes,
    })
}

/// Segment `seg` on a partition-local batch: [`Egnn::segment`], except
/// that the heads return per-node energies (the caller reduces them in
/// global node order) — `[node_e, forces]`.
fn part_segment<C: Exec>(
    model: &Egnn,
    cx: &mut C,
    seg: usize,
    pvars: &[C::V],
    batch: &GraphBatch,
    state: &[C::V],
) -> Vec<C::V> {
    if seg + 1 < model.n_segments() {
        return model.segment(cx, seg, pvars, batch, state);
    }
    let (node_e, forces) =
        model.head_forward_nodes(cx, pvars, batch, &state[0], &state[1], &state[2]);
    vec![node_e, forces]
}

/// Differentiates segment `seg` of one part: records it on a tape from its
/// input boundary `state` (`h` and `d` as leaves, the edge vectors as a
/// constant), seeds its outputs with `seeds`, writes its parameter
/// gradients into the part's flat vector at `offsets`, and returns the
/// adjoints of `h` and `d` (none for embed, which has no input state).
fn backward_part(
    model: &Egnn,
    seg: usize,
    batch: &GraphBatch,
    state: &[Tensor],
    seeds: Vec<Tensor>,
    flat: &mut [f32],
    offsets: &[usize],
) -> Vec<Tensor> {
    let (start, end) = model.segment_param_range(seg);
    let mut tape = Tape::new();
    let mut leaves = model.params().bind_range(&mut tape, start, end);
    let inputs: Vec<Var> = state
        .iter()
        .enumerate()
        .map(|(j, t)| match j {
            0 | 1 => tape.param(t.clone()),
            _ => tape.constant(t.clone()),
        })
        .collect();
    let out = part_segment(model, &mut tape, seg, &leaves, batch, &inputs);
    let n_adj = inputs.len().min(2);
    leaves.extend_from_slice(&inputs[..n_adj]);
    // Embed's `d` is a constant zero: its seed has nowhere to flow.
    let seeds: Vec<(Var, Tensor)> = out.into_iter().zip(seeds).collect();
    let np = end - start;
    let mut adjoints: Vec<Option<Tensor>> = vec![None; n_adj];
    let mut sink = |j: usize, g: Tensor| {
        if j < np {
            flat[offsets[start + j]..offsets[start + j + 1]].copy_from_slice(g.data());
        } else {
            adjoints[j - np] = Some(g);
        }
    };
    let _ = tape.backward_seeded_with_leaf_sink(&seeds, &leaves, &mut sink);
    adjoints
        .into_iter()
        .map(|g| g.expect("every leaf is emitted"))
        .collect()
}

/// Overwrites the ghost rows of state column `j` (`cols` wide) in every
/// local part with the owners' rows, through the channel. Returns the
/// payload bytes moved.
fn refresh_halo(
    plan: &PartitionPlan,
    channel: &mut dyn HaloChannel,
    states: &mut [Vec<Tensor>],
    n_owned: &[usize],
    j: usize,
    cols: usize,
) -> Result<u64, HaloError> {
    let owned: Vec<Tensor> = states
        .iter()
        .zip(n_owned)
        .map(|(s, &no)| rows_of(&s[j], 0, no))
        .collect();
    let ghosts = channel.exchange_ghosts(plan, &owned, cols)?;
    for ((s, o), g) in states.iter_mut().zip(&owned).zip(&ghosts) {
        s[j] = stitch(o, g);
    }
    Ok(ghosts.iter().map(|t| t.bytes() as u64).sum())
}

/// Routes input adjoint `j` (`cols` wide) of every local part to the
/// owners of its rows, through the channel. Returns each part's seed for
/// the segment below: the accumulated gradient of its owned rows, then
/// zero ghost rows.
fn route_adjoints(
    plan: &PartitionPlan,
    channel: &mut dyn HaloChannel,
    adjoints: &[Vec<Tensor>],
    n_owned: &[usize],
    j: usize,
    cols: usize,
) -> Result<Vec<Tensor>, HaloError> {
    let (own, ghost): (Vec<Tensor>, Vec<Tensor>) = adjoints
        .iter()
        .zip(n_owned)
        .map(|(a, &no)| (rows_of(&a[j], 0, no), rows_of(&a[j], no, a[j].rows())))
        .unzip();
    let acc = channel.accumulate_adjoints(plan, &own, &ghost, cols)?;
    Ok(acc
        .iter()
        .zip(&ghost)
        .map(|(o, g)| stitch(o, &Tensor::zeros((g.rows(), cols))))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EgnnConfig;
    use matgnn_graph::{AtomicStructure, Element, MolGraph};
    use matgnn_tensor::rng::Rng;

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

    fn plain_reference(model: &Egnn, plan: &PartitionPlan) -> (Tensor, Tensor) {
        let graph = MolGraph::from_structure(plan.structure(), plan.cutoff());
        let batch = GraphBatch::from_graphs(&[&graph]);
        let mut tape = Tape::new();
        let (_, out) = model.bind_and_forward(&mut tape, &batch);
        (
            tape.value(out.energy).clone(),
            tape.value(out.forces).clone(),
        )
    }

    fn run_graphpar(model: &Egnn, plan: &PartitionPlan) -> GraphParOutput {
        let mut channel = LocalHalo::new();
        let batches = local_batches(plan, 0, plan.n_parts());
        graphpar_step(
            model,
            plan,
            &batches,
            &mut channel,
            &GraphParLoss::default(),
        )
        .unwrap()
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn forward_is_bitwise_identical_to_plain_egnn() {
        let s = slab_structure(36, 21);
        let model = Egnn::new(EgnnConfig::new(16, 3).with_seed(4));
        for n_parts in [1, 2, 4] {
            let plan = PartitionPlan::build(&s, 2.5, n_parts);
            let (e_ref, f_ref) = plain_reference(&model, &plan);
            let out = run_graphpar(&model, &plan);
            assert_eq!(
                out.energy.to_bits(),
                e_ref.item().to_bits(),
                "energy diverged at V={n_parts}"
            );
            assert_eq!(
                bits(&out.forces),
                bits(&f_ref),
                "forces diverged at V={n_parts}"
            );
        }
    }

    #[test]
    fn forward_parity_holds_with_rbf_gate_and_norm() {
        let s = slab_structure(28, 23);
        let model = Egnn::new(
            EgnnConfig::new(12, 2)
                .with_rbf(6)
                .with_edge_gate(true)
                .with_layer_norm(true)
                .with_seed(9),
        );
        let plan = PartitionPlan::build(&s, 2.5, 3);
        let (e_ref, f_ref) = plain_reference(&model, &plan);
        let out = run_graphpar(&model, &plan);
        assert_eq!(out.energy.to_bits(), e_ref.item().to_bits());
        assert_eq!(bits(&out.forces), bits(&f_ref));
    }

    #[test]
    fn grads_match_single_tape_reference() {
        let base = EgnnConfig::new(12, 2).with_seed(6);
        // The default, then the configs whose tape-free forward takes
        // other in-place branches: the gate's `mul_col`, the norm and the
        // residual; and a `d` passed unchanged across every boundary.
        for config in [
            base,
            base.with_edge_gate(true)
                .with_layer_norm(true)
                .with_rbf(6)
                .with_residual(true),
            base.with_update_coords(false),
        ] {
            grads_match_single_tape_reference_for(Egnn::new(config));
        }
    }

    fn grads_match_single_tape_reference_for(model: Egnn) {
        let s = slab_structure(24, 25);
        let plan = PartitionPlan::build(&s, 2.5, 3);
        let cfg = GraphParLoss::default();
        let out = run_graphpar(&model, &plan);

        // Same objective on one plain tape.
        let graph = MolGraph::from_structure(plan.structure(), plan.cutoff());
        let batch = GraphBatch::from_graphs(&[&graph]);
        let mut tape = Tape::new();
        let (pvars, mo) = model.bind_and_forward(&mut tape, &batch);
        let n3 = (3 * batch.n_nodes()) as f32;
        let de = tape.add_scalar(mo.energy, -cfg.energy_target);
        let esq = tape.square(de);
        let escaled = tape.scale(esq, cfg.energy_weight);
        let eterm = tape.sum_all(escaled);
        let fsq = tape.square(mo.forces);
        let fsum = tape.sum_all(fsq);
        let fterm = tape.scale(fsum, cfg.force_weight / n3);
        let total = tape.add(eterm, fterm);
        let ref_loss = tape.value(total).item();
        let mut grads = tape.backward(total);

        assert!(
            (out.loss - ref_loss).abs() <= 1e-5 * (1.0 + ref_loss.abs()),
            "{} vs {ref_loss}",
            out.loss
        );
        for (i, &v) in pvars.iter().enumerate() {
            let want = grads
                .take(v)
                .unwrap_or_else(|| Tensor::zeros(model.params().tensor(i).shape().clone()));
            let tol = 1e-4 * (1.0 + want.max_abs());
            assert!(
                out.grads[i].allclose(&want, tol),
                "param {i} ({}) diverged with {}",
                model.params().entry(i).name,
                model.describe()
            );
        }
    }

    #[test]
    fn single_part_equals_multi_part_loss_only_in_forward() {
        // Sanity: the engine is deterministic — two identical runs agree
        // bit for bit, including gradients.
        let s = slab_structure(24, 29);
        let model = Egnn::new(EgnnConfig::new(10, 2).with_seed(3));
        let plan = PartitionPlan::build(&s, 2.5, 4);
        let a = run_graphpar(&model, &plan);
        let b = run_graphpar(&model, &plan);
        assert_eq!(a.loss.to_bits(), b.loss.to_bits());
        for (x, y) in a.grads.iter().zip(&b.grads) {
            assert_eq!(bits(x), bits(y));
        }
    }

    #[test]
    fn gradcheck_through_halo_exchange() {
        // Central finite differences through the full partitioned
        // pipeline (V=2, so every layer crosses the halo) against the
        // engine's analytic gradients.
        let s = slab_structure(16, 31);
        let mut model = Egnn::new(EgnnConfig::new(8, 2).with_seed(8));
        let plan = PartitionPlan::build(&s, 2.5, 2);
        let cfg = GraphParLoss::default();
        let batches = local_batches(&plan, 0, 2);
        let base = {
            let mut ch = LocalHalo::new();
            graphpar_step(&model, &plan, &batches, &mut ch, &cfg).unwrap()
        };
        let mut rng = Rng::seed_from_u64(77);
        let n_params = model.params().len();
        for _ in 0..6 {
            let pi = rng.gen_range(0..n_params);
            let numel = model.params().tensor(pi).numel();
            let ei = rng.gen_range(0..numel);
            let orig = model.params().tensor(pi).data()[ei];
            let eps = 1e-2 * (1.0 + orig.abs());
            let mut loss_at = |v: f32| {
                model.params_mut().tensor_mut(pi).data_mut()[ei] = v;
                let mut ch = LocalHalo::new();
                let out = graphpar_step(&model, &plan, &batches, &mut ch, &cfg).unwrap();
                out.loss as f64
            };
            let lp = loss_at(orig + eps);
            let lm = loss_at(orig - eps);
            model.params_mut().tensor_mut(pi).data_mut()[ei] = orig;
            let fd = (lp - lm) / (2.0 * eps as f64);
            let analytic = base.grads[pi].data()[ei] as f64;
            let tol = 2e-2 * (1.0 + fd.abs().max(analytic.abs()));
            assert!(
                (fd - analytic).abs() <= tol,
                "param {pi}[{ei}]: fd {fd} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn output_accounts_for_halo_traffic() {
        let s = slab_structure(32, 35);
        let model = Egnn::new(EgnnConfig::new(8, 2).with_seed(2));
        let plan = PartitionPlan::build(&s, 2.5, 4);
        let out = run_graphpar(&model, &plan);
        assert_eq!(out.owned_atoms, 32);
        assert_eq!(out.ghost_atoms, plan.total_ghosts());
        assert!(out.ghost_atoms > 0);
        // h (+ d when coordinates update) per layer, 4 bytes per float.
        let per_layer = (8 + 3) * 4 * out.ghost_atoms as u64;
        assert_eq!(out.halo_bytes, 2 * per_layer);
    }
}
