//! `perf compare A.json B.json`: per workload and end-to-end metric, both
//! sides' medians and quartiles, the change against the bound
//! `BENCHMARK.json` fixes, and a verdict. Records measured under different
//! conditions are refused, not compared.

use matgnn::telemetry::json::{parse, Json};

use crate::record::{load, metric, Run};
use crate::stats::{summarize, Summary};
use crate::workloads::WORKLOADS;
use crate::Args;

/// Host-header fields that must agree for two records to be comparable.
const COMPARABLE: [&str; 5] = [
    "bench_version",
    "nproc",
    "simd_tier",
    "pool_threads",
    "smoke",
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// A side's run-to-run spread is wider than the bound, so a change of
    /// the bound's size cannot be told from noise.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How much worse `b` is than `a`, as a share of `a`'s median; negative
/// when it is better.
pub fn worsening(a: &Summary, b: &Summary, higher_is_better: bool) -> f64 {
    let change = (b.median - a.median) / a.median.abs();
    if higher_is_better {
        -change
    } else {
        change
    }
}

pub fn judge(a: &Summary, b: &Summary, higher_is_better: bool, bound: f64) -> Verdict {
    if a.spread() > bound || b.spread() > bound {
        Verdict::Unresolved
    } else if worsening(a, b, higher_is_better) > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

struct Declared {
    name: String,
    unit: String,
    higher_is_better: bool,
    bound: f64,
}

fn declared_metrics(path: &str) -> Result<Vec<Declared>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let doc = parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let Some(Json::Arr(list)) = doc.get("end_to_end") else {
        return Err(format!("{path}: no `end_to_end` array"));
    };
    list.iter()
        .map(|m| {
            let text = |k: &str| m.get(k).and_then(Json::as_str).map(str::to_string);
            match (
                text("name"),
                text("unit"),
                text("better"),
                m.get("bound").and_then(Json::as_num),
            ) {
                (Some(name), Some(unit), Some(better), Some(bound)) => Ok(Declared {
                    name,
                    unit,
                    higher_is_better: better == "higher",
                    bound,
                }),
                _ => Err(format!(
                    "{path}: an end_to_end entry lacks name, unit, better or bound"
                )),
            }
        })
        .collect()
}

/// The first comparable field on which any run disagrees with record
/// `a`'s first.
fn host_mismatch(a: &[Run], b: &[Run]) -> Option<String> {
    let describe = |j: Option<&Json>| match j {
        Some(Json::Str(s)) => s.clone(),
        Some(Json::Num(n)) => n.to_string(),
        Some(Json::Bool(v)) => v.to_string(),
        _ => "absent".to_string(),
    };
    let reference = &a.first()?.host;
    for run in a.iter().chain(b) {
        for key in COMPARABLE {
            if run.host.get(key) != reference.get(key) {
                return Some(format!(
                    "host header differs on `{key}`: {} vs {} ({} seed {})",
                    describe(reference.get(key)),
                    describe(run.host.get(key)),
                    run.workload,
                    run.seed
                ));
            }
        }
    }
    None
}

pub fn cmd_compare(args: &Args) -> Result<bool, String> {
    args.only(&["benchmark"])?;
    let [a_path, b_path] = args.positional.as_slice() else {
        return Err("compare takes exactly two record files".to_string());
    };
    let declared = declared_metrics(args.get("benchmark").unwrap_or("BENCHMARK.json"))?;
    let (a, b) = (load(a_path)?, load(b_path)?);
    if let Some(why) = host_mismatch(&a, &b) {
        return Err(format!("refusing to compare: {why}"));
    }

    let values = |runs: &[Run], workload: &str, name: &str| -> Vec<f64> {
        runs.iter()
            .filter(|r| r.workload == workload && !r.trace)
            .filter_map(|r| metric(&r.result, name))
            .collect()
    };
    println!(
        "{:<13} {:<13} {:>14} {:>14} {:>8} {:>8} {:>8} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "A iqr%", "B iqr%", "worse%", "bound%"
    );
    let mut clean = true;
    for (workload, _) in WORKLOADS {
        for m in &declared {
            let (sa, sb) = (
                summarize(&values(&a, workload, &m.name)),
                summarize(&values(&b, workload, &m.name)),
            );
            let (Some(sa), Some(sb)) = (sa, sb) else {
                println!("{workload:<13} {:<13} missing from a record", m.name);
                clean = false;
                continue;
            };
            let verdict = judge(&sa, &sb, m.higher_is_better, m.bound);
            clean &= verdict == Verdict::Ok;
            println!(
                "{workload:<13} {:<13} {:>14.5} {:>14.5} {:>8.2} {:>8.2} {:>8.2} {:>7.1}  {}  ({}, n {} vs {})",
                m.name,
                sa.median,
                sb.median,
                100.0 * sa.spread(),
                100.0 * sb.spread(),
                100.0 * worsening(&sa, &sb, m.higher_is_better),
                100.0 * m.bound,
                verdict.as_str(),
                m.unit,
                sa.n,
                sb.n
            );
        }
    }
    println!(
        "{}",
        if clean {
            "no metric is worse or unresolved"
        } else {
            "some metrics are worse or unresolved"
        }
    );
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(values: &[f64]) -> Summary {
        summarize(values).unwrap()
    }

    #[test]
    fn verdicts() {
        let a = summary(&[100.0, 101.0, 99.0, 100.5, 99.5]);
        let same = summary(&[100.2, 100.9, 99.1, 100.4, 99.6]);
        let slower = summary(&[80.0, 80.5, 79.5, 80.2, 79.8]);
        let noisy = summary(&[60.0, 100.0, 140.0, 80.0, 120.0]);
        // Throughput: higher is better.
        assert_eq!(judge(&a, &same, true, 0.1), Verdict::Ok);
        assert_eq!(judge(&a, &slower, true, 0.1), Verdict::Worse);
        assert_eq!(judge(&slower, &a, true, 0.1), Verdict::Ok);
        // The same numbers read as a latency: lower is better.
        assert_eq!(judge(&a, &slower, false, 0.1), Verdict::Ok);
        assert_eq!(judge(&slower, &a, false, 0.1), Verdict::Worse);
        // A spread wider than the bound hides a change of that size.
        assert_eq!(judge(&a, &noisy, true, 0.1), Verdict::Unresolved);
        assert!((worsening(&a, &slower, true) - 0.2).abs() < 1e-9);
    }

    fn run(host: &str) -> Run {
        Run {
            workload: "ingest".into(),
            trace: false,
            seed: 1,
            host: parse(host).unwrap(),
            result: Json::Null,
        }
    }

    #[test]
    fn differing_hosts_are_refused() {
        let base = r#"{"bench_version":1,"nproc":2,"simd_tier":"avx512","pool_threads":2,"smoke":false,"seed":1}"#;
        let other_seed = base.replace("\"seed\":1", "\"seed\":9");
        let other_tier = base.replace("avx512", "avx2");
        assert!(host_mismatch(&[run(base)], &[run(&other_seed)]).is_none());
        let why = host_mismatch(&[run(base)], &[run(&other_tier)]).unwrap();
        assert!(why.contains("simd_tier") && why.contains("avx2"), "{why}");
    }
}
