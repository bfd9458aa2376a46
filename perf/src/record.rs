//! `perf all`: every workload in a child process of its own — so peak
//! memory and allocator state are per workload — untraced (`--runs` times,
//! one seed each) and traced (once). The children's host headers and
//! result lines are kept verbatim in one record file for `perf compare`.

use std::path::PathBuf;
use std::process::Command;

use matgnn::telemetry::json::{parse, Json};

use crate::catalog::{END_TO_END, RUN_SECONDS};
use crate::stats::summarize;
use crate::workloads::WORKLOADS;
use crate::{out_dir, Args, DEFAULT_SEED};

/// One child run as stored in a record.
pub struct Run {
    pub workload: String,
    pub trace: bool,
    pub seed: u64,
    pub host: Json,
    pub result: Json,
}

/// Reads a record written by `perf all`.
pub fn load(path: &str) -> Result<Vec<Run>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let doc = parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let Some(Json::Arr(runs)) = doc.get("runs") else {
        return Err(format!("{path}: no `runs` array"));
    };
    runs.iter()
        .map(|r| {
            let field = |k: &str| {
                r.get(k)
                    .cloned()
                    .ok_or_else(|| format!("{path}: a run lacks `{k}`"))
            };
            Ok(Run {
                workload: field("workload")?.as_str().unwrap_or_default().to_string(),
                trace: field("trace")?.as_num() == Some(1.0),
                seed: field("seed")?.as_num().unwrap_or(0.0) as u64,
                host: field("host")?,
                result: field("result")?,
            })
        })
        .collect()
}

/// A metric's value in a run's result, if it is there and a number.
pub fn metric(result: &Json, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_num()
}

struct Child {
    host_line: String,
    result_line: String,
    stdout: String,
    ok: bool,
}

fn spawn(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    commit: &str,
) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the perf binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["run", "--workload", workload, "--commit", commit])
        .args([
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if smoke {
        cmd.arg("--smoke");
    }
    let output = cmd
        .output()
        .map_err(|e| format!("running {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    let find = |prefix: &str| {
        stdout
            .lines()
            .rev()
            .find(|l| l.starts_with(prefix))
            .map(|l| l.trim_start_matches("host ").to_string())
    };
    let (Some(host_line), Some(result_line)) = (find("host {"), find("{\"correct\"")) else {
        return Err(format!(
            "{workload}: the child printed no result (exit {:?})\n{stdout}{}",
            output.status.code(),
            String::from_utf8_lossy(&output.stderr)
        ));
    };
    Ok(Child {
        host_line,
        result_line,
        stdout,
        ok: output.status.success(),
    })
}

pub fn cmd_all(args: &Args) -> Result<bool, String> {
    args.only(&["seed", "seconds", "runs", "smoke", "commit", "out"])?;
    let seed: u64 = args.num("seed", DEFAULT_SEED)?;
    let smoke = args.has("smoke");
    let seconds: f64 = args.num("seconds", if smoke { 0.2 } else { RUN_SECONDS as f64 })?;
    let runs: usize = args.num("runs", 1)?;
    let commit = args.get("commit").unwrap_or("unknown");
    let out_path = args
        .get("out")
        .map(PathBuf::from)
        .unwrap_or_else(|| out_dir().join("record.json"));

    let mut all_ok = true;
    let mut entries = Vec::new();
    for (workload, why) in WORKLOADS {
        println!("#### {workload} — {why}");
        let mut per_metric: Vec<Vec<f64>> = vec![Vec::new(); END_TO_END.len()];
        for i in 0..runs.max(1) {
            let child = spawn(workload, seed + i as u64, seconds, false, smoke, commit)?;
            all_ok &= child.ok;
            if runs <= 1 || !child.ok {
                print!("{}", child.stdout);
            }
            let result = parse(&child.result_line).map_err(|e| format!("{workload}: {e}"))?;
            for (values, m) in per_metric.iter_mut().zip(&END_TO_END) {
                values.extend(metric(&result, m.name));
            }
            entries.push(entry(workload, false, seed + i as u64, &child));
        }
        if runs > 1 {
            println!(
                "  over {runs} runs, seeds {seed}..{}:",
                seed + runs as u64 - 1
            );
            for (values, m) in per_metric.iter().zip(&END_TO_END) {
                if let Some(s) = summarize(values) {
                    println!(
                        "  {:<14} median {:>16.6} {:<8} n {:>3}  q1 {:>14.6}  q3 {:>14.6}  spread {:>6.2} %  (bound {:.0} %)",
                        m.name, s.median, m.unit, s.n, s.q1, s.q3, 100.0 * s.spread(), 100.0 * m.bound
                    );
                }
            }
        }
        let child = spawn(workload, seed, seconds, true, smoke, commit)?;
        all_ok &= child.ok;
        print!("{}", child.stdout);
        entries.push(entry(workload, true, seed, &child));
    }

    if let Some(dir) = out_path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    let text = format!(
        "{{\"claim\":null,\"runs\":[\n{}\n]}}\n",
        entries.join(",\n")
    );
    std::fs::write(&out_path, text).map_err(|e| format!("writing {}: {e}", out_path.display()))?;
    println!("record written to {}", out_path.display());
    if !all_ok {
        println!("at least one workload failed a check");
    }
    Ok(all_ok)
}

fn entry(workload: &str, trace: bool, seed: u64, child: &Child) -> String {
    format!(
        "{{\"workload\":\"{workload}\",\"trace\":{},\"seed\":{seed},\"host\":{},\"result\":{}}}",
        u8::from(trace),
        child.host_line,
        child.result_line
    )
}
