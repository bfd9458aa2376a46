//! Allocation benchmark for the steady-state training loop — measures heap
//! allocations per optimizer step and ns per step with the buffer recycler
//! on versus off, verifies the two modes are **bitwise identical**, checks
//! that [`MemoryTracker`] peak accounting is unaffected, and writes the
//! results to `BENCH_alloc.json`.
//!
//! Run: `MATGNN_THREADS=2 cargo run --release -p matgnn-bench -- alloc [--quick|--full]`
//!
//! The allocation legs run at pool-of-1 so the numbers isolate tensor
//! buffer traffic from the worker pool's per-dispatch job handles; the
//! bitwise leg runs at the configured pool size. Exits non-zero if the
//! recycler changes any bit of the training trajectory, saves less than
//! 90% of steady-state allocations, or parks more buffers than it ever
//! freshly allocated, so CI can gate on it.

use std::sync::atomic::Ordering;
use std::time::Instant;

use matgnn::prelude::*;
use matgnn::tensor::{pool, recycler, Runtime};
use matgnn::train::{profile_step, train_step, Adam, AdamHyper, Optimizer};
use matgnn_bench::{gate, param_bits, RunMode};

use crate::{ALLOC_BYTES, ALLOC_EVENTS};

pub const TITLE: &str = "Steady-state allocations: recycler on vs off, bitwise-checked";

struct Leg {
    allocs_per_step: f64,
    kib_per_step: f64,
    ns_per_step: f64,
    final_loss: f64,
}

/// The fixed batch every leg trains on, and the model width.
struct Job {
    batch: GraphBatch,
    targets: Targets,
    loss_cfg: LossConfig,
    hidden: usize,
}

impl Job {
    /// A fresh model; every leg starts from the same seed.
    fn model(&self) -> Egnn {
        Egnn::new(EgnnConfig::new(self.hidden, 3).with_seed(42))
    }
}

/// Runs `steps` full optimizer steps (forward + backward + Adam + grad
/// recycle — the trainer's steady-state loop) and returns the last loss.
fn run_steps(job: &Job, model: &mut Egnn, optimizer: &mut Adam, steps: usize) -> f64 {
    let Job {
        batch,
        targets,
        loss_cfg,
        ..
    } = job;
    let mut last = 0.0;
    for _ in 0..steps {
        let outcome = train_step(&*model, batch, targets, loss_cfg, false, None);
        last = outcome.loss;
        optimizer.step(model.params_mut(), &outcome.grads, 1e-3);
        for g in outcome.grads {
            g.recycle();
        }
    }
    last
}

/// One measured leg: fresh model + optimizer, `warmup` unmeasured steps
/// (fills the recycler pool and the tape-length hint), then `steps`
/// measured ones.
fn measure_leg(job: &Job, enabled: bool, warmup: usize, steps: usize) -> Leg {
    let _rt = Runtime::current().with_recycler(enabled).enter();
    let mut model = job.model();
    let mut optimizer = Adam::new(model.params(), AdamHyper::default(), None);
    run_steps(job, &mut model, &mut optimizer, warmup);

    let allocs0 = ALLOC_EVENTS.load(Ordering::Relaxed);
    let bytes0 = ALLOC_BYTES.load(Ordering::Relaxed);
    let t0 = Instant::now();
    let final_loss = run_steps(job, &mut model, &mut optimizer, steps);
    let wall = t0.elapsed();
    let allocs = ALLOC_EVENTS.load(Ordering::Relaxed) - allocs0;
    let bytes = ALLOC_BYTES.load(Ordering::Relaxed) - bytes0;

    Leg {
        allocs_per_step: allocs as f64 / steps as f64,
        kib_per_step: bytes as f64 / steps as f64 / 1024.0,
        ns_per_step: wall.as_nanos() as f64 / steps as f64,
        final_loss,
    }
}

/// Trains a fresh model for `steps` at the configured pool size and
/// returns the bit patterns of the last loss and every parameter.
fn trajectory_bits(job: &Job, enabled: bool, steps: usize) -> Vec<u64> {
    let _rt = Runtime::current().with_recycler(enabled).enter();
    let mut model = job.model();
    let mut optimizer = Adam::new(model.params(), AdamHyper::default(), None);
    let loss = run_steps(job, &mut model, &mut optimizer, steps);

    let mut bits = vec![loss.to_bits()];
    bits.extend(param_bits(&model));
    bits
}

/// Peak tracked bytes of one profiled step under the given recycler mode.
fn tracked_peak(job: &Job, enabled: bool) -> u64 {
    let _rt = Runtime::current().with_recycler(enabled).enter();
    let mut model = job.model();
    profile_step(&mut model, &job.batch, &job.targets, &job.loss_cfg, false).peak_total
}

pub fn run(mode: RunMode) -> bool {
    let threads = pool::num_threads();
    let (hidden, graphs, warmup, steps, traj_steps) = match mode {
        RunMode::Quick => (48, 6, 3, 8, 6),
        RunMode::Full => (96, 12, 5, 20, 10),
    };
    println!(
        "pool: {threads} worker(s) configured; allocation legs forced to 1\n\
         model: hidden {hidden}, 3 layers; batch: {graphs} graphs\n"
    );

    let ds = Dataset::generate_aggregate(graphs, 7, &GeneratorConfig::default());
    let norm = Normalizer::fit(&ds);
    let sample_refs: Vec<&Sample> = ds.samples().iter().collect();
    let (batch, targets) = collate(&sample_refs, &norm);
    let job = Job {
        batch,
        targets,
        loss_cfg: LossConfig::default(),
        hidden,
    };

    // — allocation + speed legs at pool-of-1 —
    let pool_of_1 = Runtime::current().with_threads(1).enter();
    let off = measure_leg(&job, false, warmup, steps);
    let rec0 = recycler::stats();
    let on = measure_leg(&job, true, warmup, steps);
    let rec = recycler::stats().delta_since(&rec0);
    // The pool parks only buffers it lent, so it can never hold more than
    // it freshly allocated over the whole process.
    let pooled = recycler::pooled_buffers();
    let pooled_mib = recycler::pooled_bytes() as f64 / (1024.0 * 1024.0);
    let misses_total = recycler::stats().misses;
    drop(pool_of_1);

    let reduction = 1.0 - on.allocs_per_step / off.allocs_per_step;
    let bitwise_legs = on.final_loss.to_bits() == off.final_loss.to_bits();
    println!(
        "recycler off   {:>10.1} allocs/step   {:>10.1} KiB/step   {:>12.0} ns/step",
        off.allocs_per_step, off.kib_per_step, off.ns_per_step
    );
    println!(
        "recycler on    {:>10.1} allocs/step   {:>10.1} KiB/step   {:>12.0} ns/step",
        on.allocs_per_step, on.kib_per_step, on.ns_per_step
    );
    println!(
        "reduction      {:>10.1} %           speedup {:>5.2}x   loss bitwise {}",
        100.0 * reduction,
        off.ns_per_step / on.ns_per_step,
        if bitwise_legs { "OK" } else { "DIVERGED" }
    );
    println!(
        "recycler hits {} misses {} released {} ({:.1} MiB reused)",
        rec.hits,
        rec.misses,
        rec.released,
        rec.bytes_reused as f64 / (1024.0 * 1024.0)
    );
    println!(
        "recycler pooled {pooled} buffers ({pooled_mib:.2} MiB), {misses_total} misses since start"
    );

    // — bitwise trajectory at the configured pool size —
    let traj_off = trajectory_bits(&job, false, traj_steps);
    let traj_on = trajectory_bits(&job, true, traj_steps);
    let bitwise_traj = traj_off == traj_on;
    println!(
        "trajectory ({traj_steps} steps, pool {threads}): loss + all params bitwise {}",
        if bitwise_traj { "OK" } else { "DIVERGED" }
    );

    // — logical memory accounting must not notice the recycler —
    let peak_off = tracked_peak(&job, false);
    let peak_on = tracked_peak(&job, true);
    let peak_equal = peak_off == peak_on;
    println!(
        "tracked peak: off {peak_off} B, on {peak_on} B — {}",
        if peak_equal { "OK" } else { "DIVERGED" }
    );

    let path = "BENCH_alloc.json";
    let header = matgnn_bench::bench_json_header(mode);
    let json = format!(
        "{{\n{header}  \"threads\": {threads},\n  \
         \"allocs_per_step_off\": {:.1},\n  \"allocs_per_step_on\": {:.1},\n  \
         \"kib_per_step_off\": {:.1},\n  \"kib_per_step_on\": {:.1},\n  \
         \"ns_per_step_off\": {:.0},\n  \"ns_per_step_on\": {:.0},\n  \
         \"alloc_reduction\": {:.4},\n  \"recycler_hits\": {},\n  \
         \"recycler_misses\": {},\n  \"mib_reused\": {:.1},\n  \
         \"pooled_buffers\": {pooled},\n  \"pooled_mib\": {pooled_mib:.2},\n  \
         \"bitwise_equal\": {},\n  \"tracked_peak_equal\": {peak_equal}\n}}\n",
        off.allocs_per_step,
        on.allocs_per_step,
        off.kib_per_step,
        on.kib_per_step,
        off.ns_per_step,
        on.ns_per_step,
        reduction,
        rec.hits,
        rec.misses,
        rec.bytes_reused as f64 / (1024.0 * 1024.0),
        bitwise_legs && bitwise_traj,
    );
    std::fs::write(path, json).expect("write BENCH_alloc.json");
    println!("\nwrote {path}");

    let mut passed = gate(
        bitwise_legs && bitwise_traj,
        "recycler on/off trajectories diverged bitwise",
    );
    passed &= gate(peak_equal, "MemoryTracker peak changed with the recycler");
    passed &= gate(
        pooled as u64 <= misses_total,
        &format!("recycler holds {pooled} buffers but allocated only {misses_total}"),
    );
    passed &= gate(
        reduction >= 0.90,
        &format!(
            "allocation reduction {:.1}% below the 90% floor",
            100.0 * reduction
        ),
    );
    passed
}
