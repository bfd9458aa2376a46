//! What a run reports: measured metrics with their samples, correctness
//! checks, operation counts, and the two renderings — the table a person
//! reads and the one-line JSON result the driver reads.

use matgnn::telemetry::json::{escape_str_into, push_f64};

use crate::stats::{summarize, Summary};

/// One metric: the reported value is the median of `samples` (a single
/// sample for counts and totals).
#[derive(Debug, Clone)]
pub struct Measured {
    pub name: String,
    pub unit: &'static str,
    pub samples: Vec<f64>,
}

impl Measured {
    pub fn new(name: impl Into<String>, unit: &'static str, samples: Vec<f64>) -> Self {
        Measured {
            name: name.into(),
            unit,
            samples,
        }
    }

    pub fn single(name: impl Into<String>, unit: &'static str, value: f64) -> Self {
        Measured::new(name, unit, vec![value])
    }

    pub fn summary(&self) -> Option<Summary> {
        summarize(&self.samples)
    }

    /// The median, or 0 when nothing was measured (a layer that did not
    /// run in this workload).
    pub fn value(&self) -> f64 {
        self.summary().map_or(0.0, |s| s.median)
    }
}

/// A correctness check on the program's outputs.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

impl Check {
    pub fn new(name: &'static str, ok: bool, detail: impl Into<String>) -> Self {
        Check {
            name,
            ok,
            detail: detail.into(),
        }
    }
}

/// Everything one run of one workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// The metrics the driver asked for (end-to-end or per-layer).
    pub metrics: Vec<Measured>,
    /// Detail shown to a person and kept in the record, outside the contract.
    pub extra: Vec<Measured>,
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<Check>,
    /// Things a reader must know to read the numbers, such as a
    /// percentile the sample was too small to state.
    pub remarks: Vec<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.checks.iter().all(|c| c.ok)
    }

    pub fn push(&mut self, name: &str, unit: &'static str, value: f64) {
        self.metrics.push(Measured::single(name, unit, value));
    }

    pub fn push_samples(&mut self, name: &str, unit: &'static str, samples: Vec<f64>) {
        self.metrics.push(Measured::new(name, unit, samples));
    }

    pub fn note(&mut self, name: &str, unit: &'static str, value: f64) {
        self.extra.push(Measured::single(name, unit, value));
    }

    pub fn check(&mut self, name: &'static str, ok: bool, detail: impl Into<String>) {
        self.checks.push(Check::new(name, ok, detail));
    }

    #[cfg(test)]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .chain(&self.extra)
            .find(|m| m.name == name)
            .map(Measured::value)
    }

    /// The driver's result line: exactly `correct`, `attempted`, `failed`
    /// and `metrics`, every value with all its digits.
    pub fn contract_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            escape_str_into(&mut out, &m.name);
            out.push_str(":{\"value\":");
            push_f64(&mut out, m.value());
            out.push_str(",\"unit\":");
            escape_str_into(&mut out, m.unit);
            out.push('}');
        }
        out.push_str("}}");
        out
    }

    /// Metrics with sample count and quartiles, then the checks.
    pub fn table(&self, title: &str) -> String {
        let mut out = format!("== {title} ==\n");
        let mut rows = |label: &str, list: &[Measured]| {
            if list.is_empty() {
                return;
            }
            out.push_str(&format!(
                "{label}\n  {:<44} {:>16} {:<8} {:>4}  {:>14} {:>14}\n",
                "metric", "median", "unit", "n", "q1", "q3"
            ));
            for m in list {
                match m.summary() {
                    Some(s) => out.push_str(&format!(
                        "  {:<44} {:>16.6} {:<8} {:>4}  {:>14.6} {:>14.6}\n",
                        m.name, s.median, m.unit, s.n, s.q1, s.q3
                    )),
                    None => out.push_str(&format!(
                        "  {:<44} {:>16} {:<8} {:>4}\n",
                        m.name, "-", m.unit, 0
                    )),
                }
            }
        };
        rows("metrics", &self.metrics);
        rows("detail", &self.extra);
        out.push_str(&format!(
            "ops_attempted {}  ops_failed {}  failed_frac {:.6}\n",
            self.attempted,
            self.failed,
            self.failed as f64 / self.attempted.max(1) as f64
        ));
        for c in &self.checks {
            out.push_str(&format!(
                "check {:<40} {}  {}\n",
                c.name,
                if c.ok { "ok  " } else { "FAIL" },
                c.detail
            ));
        }
        if self.attempted == 0 {
            out.push_str(
                "check ops_attempted > 0                        FAIL  nothing was attempted\n",
            );
        }
        for r in &self.remarks {
            out.push_str(&format!("note  {r}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use matgnn::telemetry::json::parse;

    #[test]
    fn contract_line_has_exactly_the_four_keys() {
        let mut o = Outcome {
            attempted: 12,
            failed: 1,
            ..Default::default()
        };
        o.push_samples("atoms_per_s", "atoms/s", vec![3.0, 1.0, 2.0]);
        o.push("setup_s", "s", 0.1234567890123);
        o.note("not_in_contract", "ms", 5.0);
        o.check("finite", true, "");
        let doc = parse(&o.contract_json()).expect("parses");
        match &doc {
            matgnn::telemetry::json::Json::Obj(fields) => {
                let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
                assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            }
            other => panic!("not an object: {other:?}"),
        }
        let metrics = doc.get("metrics").unwrap();
        let aps = metrics.get("atoms_per_s").unwrap();
        assert_eq!(aps.get("value").and_then(|v| v.as_num()), Some(2.0));
        assert_eq!(aps.get("unit").and_then(|v| v.as_str()), Some("atoms/s"));
        let setup = metrics
            .get("setup_s")
            .unwrap()
            .get("value")
            .unwrap()
            .as_num();
        assert_eq!(setup, Some(0.1234567890123));
        assert!(metrics.get("not_in_contract").is_none());
    }

    #[test]
    fn a_failed_check_or_no_attempts_is_incorrect() {
        let mut o = Outcome {
            attempted: 1,
            ..Default::default()
        };
        assert!(o.correct());
        o.check("x", false, "boom");
        assert!(!o.correct());
        assert!(o.table("t").contains("FAIL  boom"));
        let none = Outcome::default();
        assert!(!none.correct());
    }
}
