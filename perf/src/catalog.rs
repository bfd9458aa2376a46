//! Every metric the benchmark declares, in reporting order. `BENCHMARK.json`
//! is generated from this file (`perf manifest`) and the smoke test holds
//! the two equal, so a metric cannot be emitted without being declared.

use crate::report::{Measured, Outcome};
use crate::workloads::WORKLOADS;

/// Seconds one run measures for. The driver makes 158 runs; with three
/// set-ups per run (at most ~3.5 s together) and two builds this keeps the
/// session near 2 300 s of its 3 420 s cap.
pub const RUN_SECONDS: u64 = 10;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

/// Reported by every workload with `--trace 0`. Every bound is the widest
/// the driver admits: on the reference host (a shared 2-vCPU VM) the same
/// code on ten seeds spreads by 7–13 % in throughput, so a narrower bound
/// would report noise as regressions (calibration log in the README).
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "atoms_per_s",
        unit: "atoms/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "op_ms_p50",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.15,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn hi(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

const fn lo(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

/// Reported by every workload with `--trace 1`. The first block is the
/// layer probes, measured the same way whatever the workload; the second
/// is what the traced workload itself shows, and reads 0 for a layer the
/// workload does not run.
pub const PER_LAYER: [PerLayer; 115] = [
    // tensor — wide shapes ([E×H]·[H×H] of train_wide's first batch)
    lo("tensor.matmul.us", "us"),
    hi("tensor.matmul.gflops", "GFLOP/s"),
    lo("tensor.matmul_tn.us", "us"),
    hi("tensor.matmul_tn.gflops", "GFLOP/s"),
    lo("tensor.matmul_nt.us", "us"),
    hi("tensor.matmul_nt.gflops", "GFLOP/s"),
    lo("tensor.transpose.us", "us"),
    hi("tensor.transpose.gbps", "GB/s"),
    lo("tensor.gather_rows.us", "us"),
    hi("tensor.gather_rows.gbps", "GB/s"),
    lo("tensor.scatter_add_rows.us", "us"),
    hi("tensor.scatter_add_rows.gbps", "GB/s"),
    lo("tensor.silu.us", "us"),
    hi("tensor.silu.gbps", "GB/s"),
    lo("tensor.sum_axis0.us", "us"),
    // tensor — tiny shapes and per-step overheads (train_tiny's first batch)
    lo("tensor.small_matmul.us", "us"),
    lo("tensor.pool.dispatch_us", "us"),
    lo("tensor.tape.nodes_per_step", "count"),
    lo("tensor.tape.backward.tiny_us", "us"),
    hi("tensor.recycler.hit_ratio", "ratio"),
    lo("tensor.recycler.misses_per_step", "count"),
    lo("tensor.alloc.allocs_per_step", "count"),
    lo("tensor.alloc.kib_per_step", "KiB"),
    lo("tensor.memory.peak_tracked_mib", "MiB"),
    lo("tensor.memory.activation_frac", "share"),
    hi("tensor.host.stream_gbps", "GB/s"),
    // graph
    hi("graph.neighbors.build.atoms_per_s", "atoms/s"),
    lo("graph.molgraph.from_structure.us", "us"),
    lo("graph.batch.from_graphs.wide_us", "us"),
    lo("graph.batch.from_graphs.tiny_us", "us"),
    lo("graph.pack.pack_batches.us", "us"),
    lo("graph.partition.build.ms", "ms"),
    lo("graph.partition.ghost_frac", "share"),
    // potential
    lo("potential.label.us_per_atom", "us"),
    // data
    lo("data.generate.us_per_graph", "us"),
    lo("data.normalizer.fit.ms", "ms"),
    hi("data.shard.encode.mib_per_s", "MiB/s"),
    hi("data.shard.decode.mib_per_s", "MiB/s"),
    lo("data.dirstore.write.ms_per_shard", "ms"),
    lo("data.dirstore.read_shard.us", "us"),
    lo("data.collate.wide_us", "us"),
    lo("data.collate.tiny_us", "us"),
    lo("data.collate.share", "share"),
    // model
    lo("model.egnn.embed_fwd.us", "us"),
    lo("model.egnn.layer_fwd.us", "us"),
    lo("model.egnn.heads_fwd.us", "us"),
    lo("model.egnn.fwd.wide_ms", "ms"),
    lo("model.egnn.bwd.wide_ms", "ms"),
    lo("model.egnn.fwd.tiny_us", "us"),
    lo("model.egnn.bwd.tiny_us", "us"),
    lo("model.egnn.flops_per_atom", "FLOP"),
    hi("model.egnn.step.gflops", "GFLOP/s"),
    lo("model.frozen.predict.single_us", "us"),
    lo("model.frozen.predict.batch_us", "us"),
    hi("model.frozen.vs_tape", "ratio"),
    lo("model.graphpar.step_local.ms", "ms"),
    lo("model.graphpar.halo_share", "share"),
    // train
    lo("train.step.fwd.wide_us", "us"),
    lo("train.step.loss.wide_us", "us"),
    lo("train.step.bwd.wide_us", "us"),
    lo("train.step.clip.wide_us", "us"),
    lo("train.step.adam.wide_us", "us"),
    lo("train.step.fwd.tiny_us", "us"),
    lo("train.step.loss.tiny_us", "us"),
    lo("train.step.bwd.tiny_us", "us"),
    lo("train.step.clip.tiny_us", "us"),
    lo("train.step.adam.tiny_us", "us"),
    lo("train.eval.us_per_graph", "us"),
    lo("train.checkpoint.save_ms", "ms"),
    // dist
    lo("dist.all_reduce_mean.us", "us"),
    lo("dist.reduce_scatter_sum.us", "us"),
    lo("dist.all_gather.us", "us"),
    lo("dist.barrier.us", "us"),
    lo("dist.zero.step.us", "us"),
    lo("dist.ddp.collectives_per_step", "count"),
    lo("dist.ddp.bytes_per_step", "B"),
    lo("dist.ddp.modeled_comm_frac", "share"),
    lo("dist.ddp.exposed_comm_frac", "share"),
    lo("dist.ddp.peak_tracked_mib", "MiB"),
    hi("dist.ddp.scaling_eff", "ratio"),
    lo("dist.halo.exchange_ghosts.us", "us"),
    lo("dist.halo.accumulate_adjoints.us", "us"),
    lo("dist.halo.reduce_parts.us", "us"),
    lo("dist.halo.bytes_per_step", "B"),
    lo("dist.halo.ghost_frac", "share"),
    // serve
    lo("serve.submit.us", "us"),
    lo("serve.single_request.ms", "ms"),
    // telemetry
    lo("telemetry.span.disabled_ns", "ns"),
    lo("telemetry.registry.record_ns", "ns"),
    // ---- what the traced workload itself shows ----
    lo("trace.op_ms", "ms"),
    lo("trace.overhead_frac", "share"),
    hi("trace.coverage", "share"),
    lo("trace.recomposed_ratio", "ratio"),
    lo("share.tensor", "share"),
    lo("share.graph", "share"),
    lo("share.data", "share"),
    lo("share.model", "share"),
    lo("share.train", "share"),
    lo("share.dist", "share"),
    lo("share.serve", "share"),
    lo("share.kernels_computed", "share"),
    lo("share.flop_bound_computed", "share"),
    lo("train.final_loss", "loss"),
    lo("dist.ddp.rank_skew_frac", "share"),
    lo("serve.queue_wait.share_p50", "share"),
    lo("serve.queue_wait.share_p99", "share"),
    lo("serve.latency.p99_over_p50", "ratio"),
    hi("serve.batch.open_graphs_mean", "count"),
    hi("serve.batch.open_atoms_mean", "count"),
    hi("serve.batch.closed_graphs_mean", "count"),
    lo("serve.reply.overhead_share", "share"),
    lo("serve.loadgen.late_frac", "share"),
    hi("serve.engine.share", "share"),
    lo("serve.alloc.allocs_per_request", "count"),
    lo("serve.slo_miss_frac", "share"),
];

/// Orders a traced run's metrics as [`PER_LAYER`] declares them. A
/// declared metric nothing measured reads 0 (the layer did not run); a
/// measured metric nobody declared is a bug and fails the run.
pub fn order_per_layer(out: &mut Outcome) {
    let mut measured = std::mem::take(&mut out.metrics);
    let mut ordered = Vec::with_capacity(PER_LAYER.len());
    for decl in &PER_LAYER {
        let found = measured.iter().position(|m| m.name == decl.name);
        ordered.push(match found {
            Some(i) => {
                let m = measured.swap_remove(i);
                Measured {
                    unit: decl.unit,
                    ..m
                }
            }
            None => Measured::single(decl.name, decl.unit, 0.0),
        });
    }
    for stray in &measured {
        out.check(
            "metric_declared",
            false,
            format!("`{}` is not in the catalog", stray.name),
        );
    }
    out.metrics = ordered;
}

/// Checks an untraced run reported exactly [`END_TO_END`], in order.
pub fn check_end_to_end(out: &mut Outcome) {
    let got: Vec<&str> = out.metrics.iter().map(|m| m.name.as_str()).collect();
    let want: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
    if got != want {
        out.check(
            "metrics_declared",
            false,
            format!("reported {got:?}, declared {want:?}"),
        );
    }
    let dead: Vec<&str> = out
        .metrics
        .iter()
        .filter(|m| !(m.value().is_finite() && m.value() > 0.0))
        .map(|m| m.name.as_str())
        .collect();
    if !dead.is_empty() {
        out.check(
            "metrics_positive",
            false,
            format!("not finite and positive: {dead:?}"),
        );
    }
}

/// The text of `BENCHMARK.json`.
pub fn manifest() -> String {
    let mut s = String::from("{\n");
    s.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"perf/Cargo.toml\", \"--bin\", \"perf\", \"--\", \"run\"],\n",
    );
    s.push_str("  \"paths\": [\"perf\"],\n");
    s.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    s.push_str("  \"workloads\": [\n");
    for (i, (name, why)) in WORKLOADS.iter().enumerate() {
        let sep = if i + 1 < WORKLOADS.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{name}\", \"why\": \"{why}\"}}{sep}\n"
        ));
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 < END_TO_END.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{sep}\n",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound
        ));
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 < PER_LAYER.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{sep}\n",
            m.name,
            m.unit,
            m.better.as_str()
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str) -> bool {
        let first = name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric());
        first
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for (n, why) in WORKLOADS {
            assert!(name_ok(n), "{n}");
            assert!(
                why.len() <= 200 && !why.contains('\n') && !why.contains('"'),
                "{n}"
            );
            assert!(seen.insert(n), "{n} used twice");
        }
        for m in &END_TO_END {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25);
            assert!(seen.insert(m.name), "{} used twice", m.name);
        }
        for m in &PER_LAYER {
            assert!(
                name_ok(m.name) && unit_ok(m.unit),
                "{} [{}]",
                m.name,
                m.unit
            );
            assert!(seen.insert(m.name), "{} used twice", m.name);
        }
        assert!(PER_LAYER.len() <= 128 && (2..=8).contains(&WORKLOADS.len()));
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert!(setup.unit == "s" && setup.better == Better::Lower);
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn manifest_is_json_with_exactly_the_contract_keys() {
        let text = manifest();
        assert!(text.len() <= 64 * 1024);
        let doc = matgnn::telemetry::json::parse(&text).expect("manifest parses");
        match doc {
            matgnn::telemetry::json::Json::Obj(fields) => {
                let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
                assert_eq!(
                    keys,
                    [
                        "command",
                        "paths",
                        "run_seconds",
                        "workloads",
                        "end_to_end",
                        "per_layer"
                    ]
                );
            }
            other => panic!("not an object: {other:?}"),
        }
    }

    #[test]
    fn ordering_fills_absent_layers_with_zero_and_flags_strays() {
        let mut out = Outcome {
            attempted: 1,
            ..Default::default()
        };
        out.push("share.model", "share", 0.5);
        out.push("tensor.matmul.us", "us", 12.0);
        order_per_layer(&mut out);
        assert_eq!(out.metrics.len(), PER_LAYER.len());
        assert_eq!(out.metrics[0].name, "tensor.matmul.us");
        assert_eq!(out.get("share.model"), Some(0.5));
        assert_eq!(out.get("share.serve"), Some(0.0));
        assert!(out.correct());
        out.push("made.up", "us", 1.0);
        order_per_layer(&mut out);
        assert!(!out.correct());
    }
}
