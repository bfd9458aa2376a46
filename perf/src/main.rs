//! `perf` — the repository's one performance record.
//!
//! ```text
//! perf run --workload W --seed S --seconds T --trace 0|1 [--smoke] [--commit ID]
//! perf all [--seed S] [--seconds T] [--runs N] [--smoke] [--commit ID] [--out FILE]
//! perf compare A.json B.json [--benchmark BENCHMARK.json]
//! perf manifest
//! ```
//!
//! `run` measures one workload in this process and prints, as the last
//! line of standard output, the JSON result the benchmark driver reads.
//! `all` runs every workload in a child process of its own (so peak memory
//! is per workload), untraced and traced, and writes a record `compare`
//! can judge against another. See README.md.

mod catalog;
mod compare;
mod host;
mod kernels;
mod probes;
mod record;
mod report;
mod stats;
mod trace;
mod traceout;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use workloads::Ctx;

#[global_allocator]
static ALLOC: host::CountingAlloc = host::CountingAlloc;

/// Seed used when none is given.
pub const DEFAULT_SEED: u64 = 2025;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let result = match cmd.as_str() {
        "run" => Args::parse(rest, &["smoke"]).and_then(|a| cmd_run(&a)),
        "all" => Args::parse(rest, &["smoke"]).and_then(|a| record::cmd_all(&a)),
        "compare" => Args::parse(rest, &[]).and_then(|a| compare::cmd_compare(&a)),
        "manifest" => {
            print!("{}", catalog::manifest());
            Ok(true)
        }
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(true)
        }
        other => Err(format!("unknown command `{other}`\n{USAGE}")),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

const USAGE: &str = "usage:
  perf run --workload W --seed S --seconds T --trace 0|1 [--smoke] [--commit ID]
  perf all [--seed S] [--seconds T] [--runs N] [--smoke] [--commit ID] [--out FILE]
  perf compare A.json B.json [--benchmark BENCHMARK.json]
  perf manifest";

/// Parsed `--flag value` pairs, boolean switches and positional words.
/// An unknown or repeated flag is an error, not a silent default.
pub struct Args {
    flags: Vec<(String, String)>,
    pub positional: Vec<String>,
}

impl Args {
    pub fn parse(args: &[String], switches: &[&str]) -> Result<Args, String> {
        let mut flags: Vec<(String, String)> = Vec::new();
        let mut positional = Vec::new();
        let mut i = 0;
        while i < args.len() {
            match args[i].strip_prefix("--") {
                None => positional.push(args[i].clone()),
                Some(name) => {
                    if flags.iter().any(|(k, _)| k == name) {
                        return Err(format!("--{name} given twice"));
                    }
                    if switches.contains(&name) {
                        flags.push((name.to_string(), "1".to_string()));
                    } else {
                        i += 1;
                        let value = args
                            .get(i)
                            .ok_or_else(|| format!("--{name} needs a value"))?;
                        flags.push((name.to_string(), value.clone()));
                    }
                }
            }
            i += 1;
        }
        Ok(Args { flags, positional })
    }

    pub fn get(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    pub fn has(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    pub fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name}: cannot read `{v}` as a number")),
        }
    }

    /// Rejects flags outside `known`.
    pub fn only(&self, known: &[&str]) -> Result<(), String> {
        match self
            .flags
            .iter()
            .find(|(k, _)| !known.contains(&k.as_str()))
        {
            Some((k, _)) => Err(format!("unknown flag --{k}")),
            None => Ok(()),
        }
    }
}

/// `<target dir>/perf`, next to the build that is running: results never
/// land in the repository's own directories.
pub fn out_dir() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| Some(exe.parent()?.parent()?.join("perf")))
        .unwrap_or_else(|| PathBuf::from("target/perf"))
}

fn cmd_run(args: &Args) -> Result<bool, String> {
    args.only(&["workload", "seed", "seconds", "trace", "smoke", "commit"])?;
    if !args.positional.is_empty() {
        return Err(format!("unexpected argument `{}`", args.positional[0]));
    }
    let workload = args.get("workload").ok_or("--workload is required")?;
    let trace = match args.get("trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
    };
    let seconds: f64 = args.num("seconds", catalog::RUN_SECONDS as f64)?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    let ctx = Ctx {
        seed: args.num("seed", DEFAULT_SEED)?,
        seconds,
        trace,
        smoke: args.has("smoke"),
        out_dir: out_dir(),
    };
    let commit = args.get("commit").unwrap_or("unknown");
    matgnn::tensor::pool::set_thread_override(workloads::POOL_THREADS);

    let mut out = if trace {
        // The layer probes take their share of the measuring time first;
        // the traced workload gets the rest.
        let probe_ctx = Ctx {
            seconds: seconds * probes::BUDGET_SHARE,
            ..ctx.clone()
        };
        let probed = probes::run_all(&probe_ctx);
        let work_ctx = Ctx {
            seconds: seconds * (1.0 - probes::BUDGET_SHARE),
            ..ctx.clone()
        };
        let mut out = workloads::run(workload, &work_ctx)?;
        out.metrics.extend(probed.metrics);
        out.extra.extend(probed.extra);
        out.checks.extend(probed.checks);
        catalog::order_per_layer(&mut out);
        out
    } else {
        let mut out = workloads::run(workload, &ctx)?;
        catalog::check_end_to_end(&mut out);
        out
    };
    if out.metrics.iter().any(|m| !m.value().is_finite()) {
        out.check("metrics_finite", false, "a metric is NaN or infinite");
    }

    let header = host::HostHeader::capture(workloads::POOL_THREADS, ctx.seed, commit, ctx.smoke);
    println!("host {}", header.to_json());
    let mode = if trace { "traced" } else { "untraced" };
    print!(
        "{}",
        out.table(&format!(
            "{workload} ({mode}, seed {}, {seconds} s)",
            ctx.seed
        ))
    );
    println!("{}", out.contract_json());
    Ok(out.correct())
}
