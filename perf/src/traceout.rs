//! Turns a traced run's spans into the per-workload trace metrics and
//! writes `trace-<workload>.json`.

use crate::report::Outcome;
use crate::trace::{chrome_trace, Attribution, Recorder};
use crate::workloads::Ctx;

/// Layers whose self-time share of the traced operations is reported.
/// (`telemetry` and `potential` never run inside a timed operation:
/// labelling is set-up, and telemetry is off.)
pub const SHARE_LAYERS: [&str; 7] = ["tensor", "graph", "data", "model", "train", "dist", "serve"];

/// Median wall time of one repetition of equal work on each of the three
/// paths.
pub struct Walls {
    /// The library entry point the untraced run times.
    pub library_s: f64,
    /// The re-composed path with the recorder off.
    pub untraced_s: f64,
    /// The re-composed path with the recorder on.
    pub traced_s: f64,
}

impl Walls {
    /// 1 − traced ÷ untraced throughput.
    pub fn overhead_frac(&self) -> f64 {
        1.0 - self.untraced_s / self.traced_s
    }

    /// Re-composed ÷ library wall time; near 1 when the re-composition
    /// does the library's work.
    pub fn recomposed_ratio(&self) -> f64 {
        self.untraced_s / self.library_s
    }

    /// [`push_trace_metrics`] with these walls' two ratios; `op` names the
    /// root span whose mean duration is the operation time.
    pub fn push(&self, out: &mut Outcome, attr: &Attribution, op: &str) {
        push_trace_metrics(
            out,
            attr,
            attr.mean_ms(op),
            self.overhead_frac(),
            self.recomposed_ratio(),
        );
    }
}

/// Pushes the trace metrics every workload reports: operation time,
/// tracing overhead, coverage, how close the re-composition is to the
/// library path, and each layer's self-time share.
pub fn push_trace_metrics(
    out: &mut Outcome,
    attr: &Attribution,
    op_ms: f64,
    overhead_frac: f64,
    recomposed_ratio: f64,
) {
    out.push("trace.op_ms", "ms", op_ms);
    out.push("trace.overhead_frac", "share", overhead_frac);
    out.push("trace.coverage", "share", attr.coverage());
    out.push("trace.recomposed_ratio", "ratio", recomposed_ratio);
    for layer in SHARE_LAYERS {
        out.push(&format!("share.{layer}"), "share", attr.share(layer));
    }
    for (name, ns) in &attr.self_ns {
        let calls = attr.calls_of(name).max(1);
        out.note(
            &format!("self_us.{name}"),
            "us",
            *ns as f64 / calls as f64 / 1e3,
        );
    }
}

/// Writes the Chrome trace next to the other results and checks it landed.
pub fn write(ctx: &Ctx, workload: &str, recorders: &[&Recorder], out: &mut Outcome) {
    let path = ctx.out_dir.join(format!("trace-{workload}.json"));
    let written = std::fs::create_dir_all(&ctx.out_dir)
        .and_then(|()| std::fs::write(&path, chrome_trace(recorders)));
    let spans: usize = recorders.iter().map(|r| r.spans().len()).sum();
    out.note("trace.spans", "count", spans as f64);
    out.check(
        "trace_written",
        written.is_ok() && spans > 0,
        match written {
            Ok(()) => format!("{spans} spans -> {}", path.display()),
            Err(e) => format!("{}: {e}", path.display()),
        },
    );
}
