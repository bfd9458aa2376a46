//! Graph-parallel (domain-decomposition) benchmark.
//!
//! Run: `cargo run --release -p matgnn-bench -- graphpar [--quick|--full]`
//!
//! Gates first, curve second:
//!
//! 1. **Parity gates.** The partitioned engine must be *bitwise* identical
//!    to the plain single-tape EGNN forward, the multi-rank trajectory
//!    must be bitwise invariant to the world size for a fixed virtual
//!    partition count, and neither ZeRO nor comm overlap may change a
//!    single bit.
//! 2. **Weak-scaling sweep.** Atoms per rank held fixed while the world
//!    grows; reports halo-atom fraction, exposed halo-comm time per
//!    layer, and the per-rank memory footprint, which must stay within a
//!    constant-factor ceiling of the single-rank footprint (that bounded
//!    ratio *is* the point of domain decomposition: O(atoms/rank) memory,
//!    not O(total atoms)).
//!
//! Writes `BENCH_graphpar.json` and exits non-zero if any gate fails.

use std::time::Instant;

use matgnn::prelude::*;
use matgnn_bench::{csv_row, gate, RunMode};

pub const TITLE: &str = "Graph parallelism: domain decomposition, halo exchange, weak scaling";

const SEED: u64 = 11;
const CUTOFF: f64 = 2.5;
const HIDDEN: usize = 16;
const LAYERS: usize = 2;

/// Per-rank memory footprint of one graph-parallel rank, in bytes:
/// three copies of the flat parameter vector (weights + Adam m and v —
/// the replicated-optimizer worst case) plus the live activation rows.
/// With per-segment recompute only one layer's tape is alive at a time,
/// so activations are `local_rows x (hidden + 3) x (layers + 1)` f32
/// values (h and d for every layer boundary kept for the backward
/// sweep).
fn rank_footprint_bytes(plan: &PartitionPlan, world: usize, rank: usize, n_params: usize) -> u64 {
    let (p0, p1) = parts_for_rank(plan.n_parts(), world, rank);
    let local_rows: usize = (p0..p1).map(|q| plan.part(q).n_local()).sum();
    let act = local_rows * (HIDDEN + 3) * (LAYERS + 1) * 4;
    (3 * n_params * 4 + act) as u64
}

fn train_cfg(world: usize, n_parts: usize, n_atoms: usize, steps: usize) -> GraphParConfig {
    GraphParConfig {
        world,
        n_parts,
        n_atoms,
        cutoff: CUTOFF,
        hidden_dim: HIDDEN,
        n_layers: LAYERS,
        steps,
        seed: SEED,
        ..Default::default()
    }
}

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|v| v.to_bits()).collect()
}

/// Whether two runs have bitwise-identical losses and final parameters.
fn same_bits(a: &GraphParReport, b: &GraphParReport) -> bool {
    bits(&a.losses) == bits(&b.losses) && bits(&a.final_params) == bits(&b.final_params)
}

pub fn run(mode: RunMode) -> bool {
    let mut passed = true;

    // ── Gate 1: partitioned forward ≡ plain single-tape EGNN, bitwise ──
    let structure = synthetic_slab(48, SEED);
    let model = Egnn::new(EgnnConfig::new(HIDDEN, LAYERS).with_seed(SEED + 1));
    let mut engine_vs_plain = true;
    for n_parts in [1usize, 2, 4] {
        let plan = PartitionPlan::build(&structure, CUTOFF, n_parts);
        // Plain reference on the plan's (axis-sorted) structure.
        let graph = MolGraph::from_structure(plan.structure(), plan.cutoff());
        let batch = GraphBatch::from_graphs(&[&graph]);
        let mut tape = Tape::new();
        let (_, out_ref) = model.bind_and_forward(&mut tape, &batch);
        let e_ref = tape.value(out_ref.energy).item();
        let f_ref: Vec<f32> = tape.value(out_ref.forces).data().to_vec();

        let mut channel = LocalHalo::new();
        let batches = local_batches(&plan, 0, plan.n_parts());
        let out = graphpar_step(
            &model,
            &plan,
            &batches,
            &mut channel,
            &GraphParLoss::default(),
        )
        .expect("local halo cannot fail");
        let ok = out.energy.to_bits() == e_ref.to_bits() && bits(out.forces.data()) == bits(&f_ref);
        engine_vs_plain &= gate(
            ok,
            &format!("engine diverged from plain EGNN at V={n_parts}"),
        );
    }
    println!(
        "gate 1  engine ≡ plain EGNN (V∈{{1,2,4}})            {}",
        if engine_vs_plain { "OK" } else { "DIVERGED" }
    );
    passed &= engine_vs_plain;

    // ── Gate 2: trajectory bitwise invariant to world size (fixed V) ──
    let steps = match mode {
        RunMode::Quick => 3,
        RunMode::Full => 6,
    };
    let reference = train_graphpar(&train_cfg(1, 4, 48, steps));
    let mut world_invariant = true;
    for world in [2usize, 4] {
        let r = train_graphpar(&train_cfg(world, 4, 48, steps));
        world_invariant &= gate(
            same_bits(&r, &reference),
            &format!("W={world} trajectory diverged from single-rank"),
        );
    }
    println!(
        "gate 2  trajectory invariant to W∈{{1,2,4}} at V=4    {}",
        if world_invariant { "OK" } else { "DIVERGED" }
    );
    passed &= world_invariant;

    // ── Gate 3: ZeRO on/off bitwise identical (power-of-two worlds) ──
    let mut zero_clean = true;
    for world in [2usize, 4] {
        let zero = train_graphpar(&GraphParConfig {
            zero: true,
            ..train_cfg(world, 4, 48, steps)
        });
        zero_clean &= gate(
            same_bits(&zero, &reference),
            &format!("ZeRO changed bits at W={world}"),
        );
    }
    println!(
        "gate 3  ZeRO on/off bitwise identical (W∈{{2,4}})     {}",
        if zero_clean { "OK" } else { "DIVERGED" }
    );
    passed &= zero_clean;

    // ── Gate 4: overlap changes accounting, never bits ──
    let overlapped = train_graphpar(&GraphParConfig {
        overlap_comm: true,
        ..train_cfg(2, 4, 48, steps)
    });
    let plain2 = train_graphpar(&train_cfg(2, 4, 48, steps));
    let overlap_bits_ok = gate(same_bits(&overlapped, &plain2), "comm overlap changed bits");
    let overlap_accounted = gate(
        overlapped.stats.overlapped_seconds > 0.0 && plain2.stats.overlapped_seconds == 0.0,
        "comm overlap credited no hidden time",
    );
    println!(
        "gate 4  overlap: bits unchanged, time credited       {}",
        if overlap_bits_ok && overlap_accounted {
            "OK"
        } else {
            "FAILED"
        }
    );
    passed &= overlap_bits_ok && overlap_accounted;

    // ── Weak-scaling sweep: atoms/rank fixed, world grows ──
    let (atoms_per_rank, worlds, sweep_steps) = match mode {
        RunMode::Quick => (48usize, vec![1usize, 2, 4], 2usize),
        RunMode::Full => (96, vec![1, 2, 4, 8], 4),
    };
    let n_params = model.params().flatten().data().len();
    println!(
        "\nweak scaling at {atoms_per_rank} atoms/rank ({} steps/point):",
        sweep_steps
    );
    println!(
        "{:>6} {:>8} {:>8} {:>12} {:>16} {:>14} {:>12}",
        "world", "atoms", "ghosts", "halo_frac", "exposed_ms/lyr", "rank_mem_KiB", "ms/step"
    );
    struct SweepRow {
        world: usize,
        atoms: usize,
        ghosts: usize,
        halo_fraction: f64,
        exposed_ms_per_layer: f64,
        rank_mem_bytes: u64,
        ms_per_step: f64,
    }
    let mut rows: Vec<SweepRow> = Vec::new();
    for &world in &worlds {
        let n_atoms = atoms_per_rank * world;
        let plan = PartitionPlan::build(&synthetic_slab(n_atoms, SEED), CUTOFF, world);
        let ghosts = plan.total_ghosts();
        let halo_fraction = ghosts as f64 / plan.n_nodes() as f64;
        let rank_mem_bytes = (0..world)
            .map(|r| rank_footprint_bytes(&plan, world, r, n_params))
            .max()
            .unwrap_or(0);
        let t0 = Instant::now();
        let report = train_graphpar(&train_cfg(world, world, n_atoms, sweep_steps));
        let wall = t0.elapsed();
        let exposed_ms_per_layer =
            report.stats.exposed_seconds() * 1e3 / (sweep_steps * LAYERS) as f64;
        let ms_per_step = wall.as_secs_f64() * 1e3 / sweep_steps as f64;
        println!(
            "{:>6} {:>8} {:>8} {:>12.4} {:>16.4} {:>14.1} {:>12.1}",
            world,
            n_atoms,
            ghosts,
            halo_fraction,
            exposed_ms_per_layer,
            rank_mem_bytes as f64 / 1024.0,
            ms_per_step
        );
        csv_row(&[
            "weak_scaling".to_string(),
            world.to_string(),
            n_atoms.to_string(),
            ghosts.to_string(),
            format!("{halo_fraction:.6}"),
            format!("{exposed_ms_per_layer:.6}"),
            rank_mem_bytes.to_string(),
            format!("{ms_per_step:.3}"),
        ]);
        rows.push(SweepRow {
            world,
            atoms: n_atoms,
            ghosts,
            halo_fraction,
            exposed_ms_per_layer,
            rank_mem_bytes,
            ms_per_step,
        });
    }

    // ── Gate 5: per-rank memory ceiling under weak scaling ──
    // The footprint may grow only by the bounded halo fraction, never
    // with the total atom count; 1.8x the single-rank footprint is a
    // generous constant-factor ceiling (halo fractions here are < 0.5).
    let base_mem = rows[0].rank_mem_bytes.max(1) as f64;
    let worst_ratio = rows
        .iter()
        .map(|r| r.rank_mem_bytes as f64 / base_mem)
        .fold(0.0f64, f64::max);
    let mem_ok = worst_ratio <= 1.8;
    println!(
        "gate 5  per-rank memory ceiling (worst {worst_ratio:.2}x ≤ 1.80x) {}",
        if mem_ok { "OK" } else { "FAILED" }
    );
    passed &= gate(
        mem_ok,
        &format!("per-rank footprint grew {worst_ratio:.2}x under weak scaling"),
    );

    // ── BENCH_graphpar.json ──
    let sweep_json: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"world\": {}, \"atoms\": {}, \"ghost_atoms\": {}, \
                 \"halo_fraction\": {:.6}, \"exposed_ms_per_layer\": {:.6}, \
                 \"rank_mem_bytes\": {}, \"ms_per_step\": {:.3}}}",
                r.world,
                r.atoms,
                r.ghosts,
                r.halo_fraction,
                r.exposed_ms_per_layer,
                r.rank_mem_bytes,
                r.ms_per_step
            )
        })
        .collect();
    let header = matgnn_bench::bench_json_header(mode);
    let json = format!(
        "{{\n{header}  \"atoms_per_rank\": {atoms_per_rank},\n  \
         \"hidden_dim\": {HIDDEN},\n  \"n_layers\": {LAYERS},\n  \
         \"engine_matches_plain_egnn\": {engine_vs_plain},\n  \
         \"world_size_invariant\": {world_invariant},\n  \
         \"zero_bitwise_clean\": {zero_clean},\n  \
         \"overlap_bitwise_clean\": {overlap_bits_ok},\n  \
         \"rank_mem_worst_ratio\": {worst_ratio:.4},\n  \
         \"rank_mem_ceiling\": 1.8,\n  \"weak_scaling\": [\n{}\n  ]\n}}\n",
        sweep_json.join(",\n"),
    );
    let path = "BENCH_graphpar.json";
    std::fs::write(path, json).expect("write BENCH_graphpar.json");
    println!("\nwrote {path}");

    if !passed {
        eprintln!("graphpar: one or more gates FAILED");
        return false;
    }
    println!("all gates passed");
    true
}
