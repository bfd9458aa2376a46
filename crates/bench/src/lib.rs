//! Shared plumbing for the `matgnn_bench` targets: the run mode, the
//! banner, the `BENCH_*.json` header and CSV row printing.
//!
//! Every target runs with `--quick` (default, CI-sized) or `--full` (the
//! paper-shaped run, several CPU-minutes) and prints both a
//! human-readable table and machine-readable CSV rows prefixed with
//! `csv,`. A paper target's `csv,` rows are deterministic for a seed (the
//! `paper-smoke` CI job compares them with `results/`); columns read off a
//! wall clock go on `timing,` rows instead.

#![warn(missing_docs)]

use matgnn::model::{Egnn, GnnModel};
use matgnn::scaling::ExperimentConfig;

/// How much compute an experiment target should spend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunMode {
    /// CI-sized run (tens of seconds).
    Quick,
    /// Paper-shaped run (minutes).
    Full,
}

impl RunMode {
    /// The matching experiment configuration.
    pub fn experiment_config(self) -> ExperimentConfig {
        match self {
            RunMode::Quick => ExperimentConfig::quick(),
            RunMode::Full => ExperimentConfig::full(),
        }
    }

    /// Label for banners.
    pub fn label(self) -> &'static str {
        match self {
            RunMode::Quick => "quick",
            RunMode::Full => "full",
        }
    }
}

/// Prints the standard experiment banner.
pub fn banner(title: &str, mode: RunMode) {
    println!("==============================================================");
    println!("{title}");
    println!(
        "mode: {} (pass --full for the paper-shaped run)",
        mode.label()
    );
    println!("==============================================================");
}

/// Schema version stamped into every `BENCH_*.json` artifact.
///
/// Bump when the shared header shape changes so downstream tooling can
/// dispatch on it instead of sniffing fields.
pub const BENCH_SCHEMA_VERSION: u32 = 1;

/// Renders the shared header every `BENCH_*.json` writer opens with:
/// schema version, run mode, and the host context (available threads,
/// active SIMD tier) needed to interpret timing numbers across machines.
///
/// The string is a run of `"key": value,` lines meant to be pasted right
/// after the opening `{` of the artifact, so each experiment keeps full
/// control of its own payload fields.
pub fn bench_json_header(mode: RunMode) -> String {
    let avail = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        "  \"schema_version\": {BENCH_SCHEMA_VERSION},\n  \"mode\": \"{}\",\n  \
         \"host\": {{\"threads_available\": {avail}, \"simd_tier\": \"{}\"}},\n",
        mode.label(),
        matgnn::tensor::simd::active_tier().name()
    )
}

/// Prints one machine-readable CSV row (prefixed so logs stay greppable).
pub fn csv_row(fields: &[String]) {
    println!("csv,{}", fields.join(","));
}

/// Prints one CSV row of wall-clock columns, prefixed `timing,`: they
/// change run to run, so they stay off the `csv,` rows a paper target's
/// committed output is compared on.
pub fn timing_row(fields: &[String]) {
    println!("timing,{}", fields.join(","));
}

/// One pass/fail gate of a suite: prints `ERROR: {why}` to stderr when
/// `ok` is false, and returns `ok` so a suite can fold its gates with
/// `passed &= gate(..)`.
pub fn gate(ok: bool, why: &str) -> bool {
    if !ok {
        eprintln!("ERROR: {why}");
    }
    ok
}

/// Bit patterns of every parameter of `model`, for bitwise run
/// comparisons.
pub fn param_bits(model: &Egnn) -> Vec<u64> {
    let flat = model.params().flatten();
    flat.data().iter().map(|x| u64::from(x.to_bits())).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn modes_map_to_configs() {
        let q = RunMode::Quick.experiment_config();
        let f = RunMode::Full.experiment_config();
        assert!(q.units.graphs_per_tb < f.units.graphs_per_tb);
        assert_eq!(RunMode::Quick.label(), "quick");
    }

    #[test]
    fn header_is_valid_json_prefix() {
        let h = bench_json_header(RunMode::Quick);
        assert!(h.contains("\"schema_version\": 1"));
        assert!(h.contains("\"threads_available\""));
        assert!(h.contains("\"simd_tier\""));
        // Wrapping the header plus one payload field must parse as JSON.
        let doc = format!("{{\n{h}  \"ok\": true\n}}\n");
        matgnn::telemetry::json::parse(&doc).expect("header forms valid JSON");
    }
}
