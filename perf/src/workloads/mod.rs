//! The seven workloads. Each is one function from a [`Ctx`] to an
//! [`Outcome`]: set up from the seed (several times, for a median set-up
//! time), repeat one fixed unit of work until `--seconds` have passed,
//! check the outputs, report the median repetition.

pub mod ddp;
pub mod graphpar;
pub mod ingest;
pub mod serve;
pub mod step;
pub mod train;

use std::path::PathBuf;
use std::time::Instant;

use crate::host;
use crate::report::Outcome;

/// Name and reason of every workload, in reporting order.
pub const WORKLOADS: [(&str, &str); 7] = [
    (
        "train_wide",
        "kernel-bound single-process training: wide EGNN on periodic slabs, where matmul, silu and gather/scatter dominate",
    ),
    (
        "train_tiny",
        "overhead-bound single-process training: narrow EGNN on small molecules, where tape, recycler, collate and Adam dominate",
    ),
    (
        "ddp_w2",
        "train_tiny's model and data over 2 ranks with ZeRO: flatten, reduce-scatter, all-gather and rank-skew waits are the extra work",
    ),
    (
        "graphpar_w2",
        "one slab split into 4 parts over 2 ranks: partitioner, per-layer ghost exchange and segment recompute run only here",
    ),
    (
        "serve_open",
        "open loop, Poisson arrivals at a fixed rate below capacity: the batching window and queue set latency, not the forward",
    ),
    (
        "serve_closed",
        "closed loop, 32 requests kept outstanding: batches fill, so pack, frozen forward and reply set capacity",
    ),
    (
        "ingest",
        "shard encode against open, decode and collate of the same graphs: the store's write and read sides, no model code",
    ),
];

/// Repetitions a timed section never goes below, however slow the host.
pub const MIN_REPS: usize = 3;
/// Times each workload is set up at least; `setup_s` is the median.
pub const SETUPS: usize = 3;
/// A cheap set-up is repeated up to this many times, while all of them
/// together have taken less than [`SETUP_BUDGET_S`]: the median of three
/// 70 ms set-ups moved by a fifth between sets of runs of the same code.
pub const MAX_SETUPS: usize = 9;
pub const SETUP_BUDGET_S: f64 = 1.0;

/// What the command line asked for.
#[derive(Debug, Clone)]
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Sizes divided by about fifty, for the smoke test.
    pub smoke: bool,
    /// Where `trace-W.json` and scratch stores go.
    pub out_dir: PathBuf,
}

impl Ctx {
    /// Picks the full or the smoke value of a frozen size.
    pub fn size(&self, full: usize, smoke: usize) -> usize {
        if self.smoke {
            smoke
        } else {
            full
        }
    }
}

/// Runs the named workload.
pub fn run(name: &str, ctx: &Ctx) -> Result<Outcome, String> {
    match name {
        "train_wide" => Ok(train::run(&train::WIDE, ctx)),
        "train_tiny" => Ok(train::run(&train::TINY, ctx)),
        "ddp_w2" => Ok(ddp::run(ctx)),
        "graphpar_w2" => Ok(graphpar::run(ctx)),
        "serve_open" => Ok(serve::run_open(ctx)),
        "serve_closed" => Ok(serve::run_closed(ctx)),
        "ingest" => Ok(ingest::run(ctx)),
        other => Err(format!(
            "unknown workload `{other}`; expected one of: {}",
            WORKLOADS.map(|(n, _)| n).join(", ")
        )),
    }
}

/// Threads of the tensor pool in every workload. The multi-rank workloads
/// run one such pool per rank and serving one beside its batcher worker,
/// so no workload keeps more than two threads busy. Single-process
/// training could use two on the reference host, but there a pool of two
/// is no faster than a pool of one (3 700 against 3 780 atoms/s on
/// `train_wide`, 23 400 against 23 500 on `train_tiny`) and loses half its
/// throughput whenever the second core is taken.
pub const POOL_THREADS: usize = 1;

/// Sets a workload up [`SETUPS`] to [`MAX_SETUPS`] times (once for a
/// traced run, which does not report set-up time), timing each; returns
/// the last state and every set-up time in seconds.
pub fn setup_repeated<S>(ctx: &Ctx, mut setup: impl FnMut() -> S) -> (S, Vec<f64>) {
    let (min, max) = if ctx.trace {
        (1, 1)
    } else {
        (SETUPS, MAX_SETUPS)
    };
    let mut times: Vec<f64> = Vec::with_capacity(max);
    let mut state = None;
    while times.len() < min || (times.len() < max && times.iter().sum::<f64>() < SETUP_BUDGET_S) {
        // Drop the previous state first so peak memory is one set-up's.
        drop(state.take());
        let t = Instant::now();
        state = Some(setup());
        times.push(t.elapsed().as_secs_f64());
    }
    (state.expect("SETUPS >= 1"), times)
}

/// Calls `rep(i)` until `seconds` have passed and at least [`MIN_REPS`]
/// repetitions ran. The unit of work is fixed; only their number varies.
pub fn repeat_for(seconds: f64, mut rep: impl FnMut(usize)) -> usize {
    let start = Instant::now();
    let mut n = 0;
    while n < MIN_REPS || start.elapsed().as_secs_f64() < seconds {
        rep(n);
        n += 1;
    }
    n
}

/// Which of the three ways a traced run does a repetition's work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Path {
    /// The library entry point the untraced run times.
    Library,
    /// Re-composed from public functions, recorder off.
    Untraced,
    /// Re-composed, recorder on.
    Traced,
}

/// Rounds a traced run never goes below.
const MIN_ROUNDS: usize = 2;

/// Runs rounds of one repetition on each [`Path`] until `seconds` have
/// passed; `run` returns the repetition's wall time. Alternating the paths
/// keeps drift in the host's speed out of the ratios between them.
pub fn three_way(seconds: f64, mut run: impl FnMut(Path) -> f64) -> crate::traceout::Walls {
    // The re-composed path sees batches the library path did not (no
    // shuffle), so its buffer shapes are warmed separately, untimed.
    run(Path::Untraced);
    let start = Instant::now();
    let mut walls = [Vec::new(), Vec::new(), Vec::new()];
    while walls[0].len() < MIN_ROUNDS || start.elapsed().as_secs_f64() < seconds {
        for (i, path) in [Path::Library, Path::Untraced, Path::Traced]
            .into_iter()
            .enumerate()
        {
            walls[i].push(run(path));
        }
    }
    let med = |v: &[f64]| crate::stats::median(v).unwrap_or(f64::NAN);
    crate::traceout::Walls {
        library_s: med(&walls[0]),
        untraced_s: med(&walls[1]),
        traced_s: med(&walls[2]),
    }
}

/// Adds the two metrics every workload reports the same way.
pub fn push_common(out: &mut Outcome, setup_times: Vec<f64>) {
    out.push_samples("setup_s", "s", setup_times);
    out.push("peak_rss_mib", "MiB", host::peak_rss_mib());
}
