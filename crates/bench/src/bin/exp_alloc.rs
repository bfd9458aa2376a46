//! Allocation benchmark for the steady-state training loop — measures heap
//! allocations per optimizer step and ns per step with the buffer recycler
//! on versus off, verifies the two modes are **bitwise identical**, checks
//! that [`MemoryTracker`] peak accounting is unaffected, and writes the
//! results to `BENCH_alloc.json`.
//!
//! ```sh
//! MATGNN_THREADS=2 cargo run --release -p matgnn-bench --bin exp_alloc -- [--quick|--full]
//! ```
//!
//! The allocation legs run at pool-of-1 so the numbers isolate tensor
//! buffer traffic from the worker pool's per-dispatch job handles; the
//! bitwise leg runs at the configured pool size. Exits non-zero if the
//! recycler changes any bit of the training trajectory or saves less than
//! 90% of steady-state allocations, so CI can gate on it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use matgnn::prelude::*;
use matgnn::tensor::{pool, recycler, Runtime};
use matgnn::train::{profile_step, train_step, Adam, AdamHyper, Optimizer};

/// [`System`] with an allocation-event counter: `alloc` and `realloc`
/// calls bump [`ALLOC_EVENTS`]; frees are not counted (the steady-state
/// claim is about *new* heap traffic).
struct CountingAlloc;

static ALLOC_EVENTS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates every operation to `System` unchanged.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

struct Leg {
    allocs_per_step: f64,
    kib_per_step: f64,
    ns_per_step: f64,
    final_loss: f64,
}

/// Runs `steps` full optimizer steps (forward + backward + Adam + grad
/// recycle — the trainer's steady-state loop) and returns the last loss.
fn run_steps(
    model: &mut Egnn,
    optimizer: &mut Adam,
    batch: &GraphBatch,
    targets: &Targets,
    loss_cfg: &LossConfig,
    steps: usize,
) -> f64 {
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
fn measure_leg(
    enabled: bool,
    batch: &GraphBatch,
    targets: &Targets,
    loss_cfg: &LossConfig,
    hidden: usize,
    warmup: usize,
    steps: usize,
) -> Leg {
    let _rt = Runtime::current().with_recycler(enabled).enter();
    let mut model = Egnn::new(EgnnConfig::new(hidden, 3).with_seed(42));
    let mut optimizer = Adam::new(model.params(), AdamHyper::default(), None);
    run_steps(&mut model, &mut optimizer, batch, targets, loss_cfg, warmup);

    let allocs0 = ALLOC_EVENTS.load(Ordering::Relaxed);
    let bytes0 = ALLOC_BYTES.load(Ordering::Relaxed);
    let t0 = Instant::now();
    let final_loss = run_steps(&mut model, &mut optimizer, batch, targets, loss_cfg, steps);
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
fn trajectory_bits(
    enabled: bool,
    batch: &GraphBatch,
    targets: &Targets,
    loss_cfg: &LossConfig,
    hidden: usize,
    steps: usize,
) -> Vec<u64> {
    let _rt = Runtime::current().with_recycler(enabled).enter();
    let mut model = Egnn::new(EgnnConfig::new(hidden, 3).with_seed(42));
    let mut optimizer = Adam::new(model.params(), AdamHyper::default(), None);
    let loss = run_steps(&mut model, &mut optimizer, batch, targets, loss_cfg, steps);

    let mut bits = vec![loss.to_bits()];
    bits.extend(
        model
            .params()
            .flatten()
            .data()
            .iter()
            .map(|x| u64::from(x.to_bits())),
    );
    bits
}

/// Peak tracked bytes of one profiled step under the given recycler mode.
fn tracked_peak(
    enabled: bool,
    batch: &GraphBatch,
    targets: &Targets,
    loss_cfg: &LossConfig,
    hidden: usize,
) -> u64 {
    let _rt = Runtime::current().with_recycler(enabled).enter();
    let mut model = Egnn::new(EgnnConfig::new(hidden, 3).with_seed(42));
    profile_step(&mut model, batch, targets, loss_cfg, false).peak_total
}

#[allow(clippy::too_many_lines)]
fn main() {
    let mode = matgnn_bench::RunMode::from_args();
    matgnn_bench::banner(
        "Steady-state allocations: recycler on vs off, bitwise-checked",
        mode,
    );

    let threads = pool::num_threads();
    let (hidden, graphs, warmup, steps, traj_steps) = match mode {
        matgnn_bench::RunMode::Quick => (48, 6, 3, 8, 6),
        matgnn_bench::RunMode::Full => (96, 12, 5, 20, 10),
    };
    println!(
        "pool: {threads} worker(s) configured; allocation legs forced to 1\n\
         model: hidden {hidden}, 3 layers; batch: {graphs} graphs\n"
    );

    let ds = Dataset::generate_aggregate(graphs, 7, &GeneratorConfig::default());
    let norm = Normalizer::fit(&ds);
    let sample_refs: Vec<&Sample> = ds.samples().iter().collect();
    let (batch, targets) = collate(&sample_refs, &norm);
    let loss_cfg = LossConfig::default();

    // — allocation + speed legs at pool-of-1 —
    let pool_of_1 = Runtime::current().with_threads(1).enter();
    let off = measure_leg(false, &batch, &targets, &loss_cfg, hidden, warmup, steps);
    let rec0 = recycler::stats();
    let on = measure_leg(true, &batch, &targets, &loss_cfg, hidden, warmup, steps);
    let rec = recycler::stats().delta_since(&rec0);
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

    // — bitwise trajectory at the configured pool size —
    let traj_off = trajectory_bits(false, &batch, &targets, &loss_cfg, hidden, traj_steps);
    let traj_on = trajectory_bits(true, &batch, &targets, &loss_cfg, hidden, traj_steps);
    let bitwise_traj = traj_off == traj_on;
    println!(
        "trajectory ({traj_steps} steps, pool {threads}): loss + all params bitwise {}",
        if bitwise_traj { "OK" } else { "DIVERGED" }
    );

    // — logical memory accounting must not notice the recycler —
    let peak_off = tracked_peak(false, &batch, &targets, &loss_cfg, hidden);
    let peak_on = tracked_peak(true, &batch, &targets, &loss_cfg, hidden);
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

    let mut failed = false;
    if !(bitwise_legs && bitwise_traj) {
        eprintln!("ERROR: recycler on/off trajectories diverged bitwise");
        failed = true;
    }
    if !peak_equal {
        eprintln!("ERROR: MemoryTracker peak changed with the recycler");
        failed = true;
    }
    if reduction < 0.90 {
        eprintln!(
            "ERROR: allocation reduction {:.1}% below the 90% floor",
            100.0 * reduction
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}
