//! `matgnn_bench` — one binary for every paper artifact, extension and
//! bench suite: `cargo run --release -p matgnn-bench -- <target>
//! [--quick|--full]`.
//!
//! Each target is a module with `pub fn run(mode: RunMode) -> bool`. This
//! file parses the target and the mode, prints the banner, and maps
//! `false` (a failed gate) to exit code 1; bad arguments print the usage
//! to stderr and exit 2. One process runs one target, so no process state
//! (the telemetry sink, the metrics registry, the allocation counters) is
//! shared between targets.

use std::alloc::{GlobalAlloc, Layout, System};
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};

use matgnn_bench::{banner, RunMode};

/// The paper's figures and tables, and the extensions beside them.
mod paper {
    pub mod ablations;
    pub mod fig1;
    pub mod fig3;
    pub mod fig4;
    pub mod fig5;
    pub mod fig6;
    pub mod noise_scale;
    pub mod strong_scaling;
    pub mod table1;
    pub mod table2;
    pub mod transfer;
    pub mod variance;
}

/// Gated bench suites; each writes a `BENCH_<name>.json`.
mod suites {
    pub mod alloc;
    pub mod graphpar;
    pub mod kernels;
    pub mod observe;
    pub mod pipeline;
    pub mod serving;
}

/// [`System`] with allocation counters: `alloc` and `realloc` bump
/// [`ALLOC_EVENTS`] and add their size to [`ALLOC_BYTES`]; frees are not
/// counted (the steady-state claims are about *new* heap traffic). The
/// `alloc`, `serving` and `observe` suites read both around their measured
/// regions.
struct CountingAlloc;

/// Heap allocation events (`alloc` + `realloc`) since the process started.
static ALLOC_EVENTS: AtomicU64 = AtomicU64::new(0);
/// Bytes requested by those events.
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

/// A runnable target: its command-line name, banner title and entry point.
type Target = (&'static str, &'static str, fn(RunMode) -> bool);

static TARGETS: [Target; 18] = [
    ("fig1", paper::fig1::TITLE, paper::fig1::run),
    ("fig3", paper::fig3::TITLE, paper::fig3::run),
    ("fig4", paper::fig4::TITLE, paper::fig4::run),
    ("fig5", paper::fig5::TITLE, paper::fig5::run),
    ("fig6", paper::fig6::TITLE, paper::fig6::run),
    ("table1", paper::table1::TITLE, paper::table1::run),
    ("table2", paper::table2::TITLE, paper::table2::run),
    ("ablations", paper::ablations::TITLE, paper::ablations::run),
    (
        "noise_scale",
        paper::noise_scale::TITLE,
        paper::noise_scale::run,
    ),
    (
        "strong_scaling",
        paper::strong_scaling::TITLE,
        paper::strong_scaling::run,
    ),
    ("transfer", paper::transfer::TITLE, paper::transfer::run),
    ("variance", paper::variance::TITLE, paper::variance::run),
    ("kernels", suites::kernels::TITLE, suites::kernels::run),
    ("alloc", suites::alloc::TITLE, suites::alloc::run),
    ("pipeline", suites::pipeline::TITLE, suites::pipeline::run),
    ("serving", suites::serving::TITLE, suites::serving::run),
    ("observe", suites::observe::TITLE, suites::observe::run),
    ("graphpar", suites::graphpar::TITLE, suites::graphpar::run),
];

fn usage() -> String {
    let mut s = String::from(
        "usage: matgnn_bench <target> [--quick|--full]  (default: --quick)\n\ntargets:\n",
    );
    for (name, title, _) in &TARGETS {
        s.push_str(&format!("  {name:<16}{title}\n"));
    }
    s
}

/// Parses `<target> [--quick|--full]`; the last mode flag wins.
fn parse(args: &[String]) -> Result<(&'static Target, RunMode), String> {
    let mut target = None;
    let mut mode = RunMode::Quick;
    for arg in args {
        match arg.as_str() {
            "--quick" => mode = RunMode::Quick,
            "--full" => mode = RunMode::Full,
            flag if flag.starts_with('-') => return Err(format!("unknown flag `{flag}`")),
            name if target.is_none() => {
                let found = TARGETS.iter().find(|t| t.0 == name);
                target = Some(found.ok_or_else(|| format!("unknown target `{name}`"))?);
            }
            extra => return Err(format!("unexpected argument `{extra}`")),
        }
    }
    Ok((target.ok_or("missing target")?, mode))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print!("{}", usage());
        return ExitCode::SUCCESS;
    }
    let (target, mode) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(msg) => {
            eprint!("error: {msg}\n\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let (_, title, run) = target;
    banner(title, mode);
    if run(mode) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
