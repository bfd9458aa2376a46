//! `serve_open` and `serve_closed`: `InferenceEngine::from_model` behind a
//! `DynamicBatcher` with one worker, driven two ways. Open loop: seeded
//! Poisson arrivals at a fixed rate below capacity, each request timed
//! from the instant it was due. Closed loop: one thread keeping 32
//! requests outstanding, which measures capacity.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use matgnn::data::{Dataset, GeneratorConfig, Normalizer};
use matgnn::graph::{GraphBatch, MolGraph};
use matgnn::model::{Egnn, EgnnConfig};
use matgnn::serve::{
    BatcherConfig, DynamicBatcher, GraphPrediction, InferenceEngine, Prediction, ServeError, Ticket,
};

use super::train::N_LAYERS;
use super::{push_common, setup_repeated, Ctx, MIN_REPS};
use crate::host::alloc_counts;
use crate::report::{Measured, Outcome};
use crate::stats::{median, median_of_windows, nearest_rank, sorted, tail, Tail};
use crate::trace::{Attribution, Open, Recorder};
use crate::traceout;

pub const TARGET_PARAMS: usize = 10_000;
/// Graphs requests are drawn from: `(full, smoke)`.
pub const POOL_GRAPHS: (usize, usize) = (256, 24);
/// Requests the closed loop keeps outstanding (its client count).
pub const CLIENTS: usize = 32;
/// Requests in one closed-loop repetition: `(full, smoke)`.
pub const CLOSED_REP_REQUESTS: (usize, usize) = (3000, 60);
/// Open-loop arrival rate, requests per second: about 22 % of the
/// closed-loop capacity measured on the reference host (5 500 req/s). At
/// 40 % (2 200 req/s) the sender, the worker and the collector fight over
/// the host's two cores: 3–5 % of requests then miss the limit and the
/// sender runs late, so the run measures the scheduler.
pub const OPEN_RATE: f64 = 1200.0;
/// Length of one open-loop window, seconds: at [`OPEN_RATE`] it holds the
/// thousand samples a p99 needs.
pub const OPEN_WINDOW_S: (f64, f64) = (1.0, 0.1);
/// Fixed latency limit; slower replies, and refused requests, miss it.
pub const SLO_MS: f64 = 25.0;
/// Replies checked against a prediction of the same graph alone.
pub const CHECKED_REPLIES: usize = 64;

pub fn batcher_config() -> BatcherConfig {
    BatcherConfig {
        max_atoms: 512,
        max_graphs: 64,
        max_wait: Duration::from_millis(2),
        queue_capacity: 1024,
        workers: 1,
        ..Default::default()
    }
}

/// splitmix64: the arrival schedule's own generator, so the benchmark
/// does not share a random stream with the program it measures.
pub struct Schedule(u64);

impl Schedule {
    pub fn new(seed: u64) -> Self {
        Schedule(seed ^ 0x5EED_0FA2_217A_15C3)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    /// Uniform in (0, 1].
    fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// Exponential inter-arrival gap of a Poisson process, seconds.
    pub fn gap(&mut self, rate: f64) -> f64 {
        -self.unit().ln() / rate
    }

    pub fn index(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

pub struct ServeState {
    pub engine: Arc<InferenceEngine>,
    pub graphs: Vec<MolGraph>,
    /// `engine.predict` of sampled pool graphs on their own.
    pub solo: Vec<(usize, GraphPrediction)>,
    pub batcher: DynamicBatcher,
}

impl ServeState {
    pub fn new(ctx: &Ctx) -> Self {
        let model =
            Egnn::new(EgnnConfig::with_target_params(TARGET_PARAMS, N_LAYERS).with_seed(ctx.seed));
        // Model-unit serving, as `matgnn_cli serve` without a checkpoint.
        let engine = Arc::new(InferenceEngine::from_model(&model, Normalizer::default()));
        let n = ctx.size(POOL_GRAPHS.0, POOL_GRAPHS.1);
        let data = Dataset::generate_aggregate(n, ctx.seed, &GeneratorConfig::default());
        let graphs: Vec<MolGraph> = data.samples().iter().map(|s| s.graph.clone()).collect();
        let mut pick = Schedule::new(ctx.seed ^ 0xC0FFEE);
        let solo = (0..CHECKED_REPLIES.min(graphs.len()))
            .map(|_| {
                let i = pick.index(graphs.len());
                let batch = GraphBatch::from_graphs(&[&graphs[i]]);
                (i, engine.predict(&batch).remove(0))
            })
            .collect();
        let batcher = DynamicBatcher::start(Arc::clone(&engine), batcher_config());
        let state = ServeState {
            engine,
            graphs,
            solo,
            batcher,
        };
        // Warm-up: recycler buckets for every batch shape, worker spawned.
        closed_loop(&state, &mut Schedule::new(ctx.seed), 4 * CLIENTS);
        state
    }
}

/// One served (or refused) request as the load generator saw it.
#[derive(Debug, Clone)]
pub struct Reply {
    pub graph: usize,
    pub due: Instant,
    pub submitted: Instant,
    pub done: Instant,
    pub ok: bool,
    pub atoms: usize,
    pub queue_wait: Duration,
    pub batch_graphs: usize,
    pub energy: f64,
    pub max_force: f64,
}

impl Reply {
    pub fn latency_ms(&self) -> f64 {
        self.done.duration_since(self.due).as_secs_f64() * 1e3
    }

    /// How long after it was due the request was submitted.
    pub fn late_ms(&self) -> f64 {
        self.submitted.duration_since(self.due).as_secs_f64() * 1e3
    }

    fn refused(graph: usize, due: Instant, at: Instant) -> Reply {
        Reply {
            graph,
            due,
            submitted: at,
            done: at,
            ok: false,
            atoms: 0,
            queue_wait: Duration::ZERO,
            batch_graphs: 0,
            energy: f64::NAN,
            max_force: f64::NAN,
        }
    }
}

impl Reply {
    fn served(p: Prediction, graph: usize, due: Instant, submitted: Instant) -> Reply {
        Reply {
            graph,
            due,
            submitted,
            done: Instant::now(),
            ok: true,
            atoms: p.forces.len(),
            queue_wait: p.queue_wait,
            batch_graphs: p.batch_graphs,
            energy: p.energy,
            max_force: p
                .forces
                .iter()
                .flatten()
                .fold(0.0f64, |m, c| m.max(c.abs())),
        }
    }
}

fn redeem(ticket: Ticket, graph: usize, due: Instant, submitted: Instant) -> Reply {
    match ticket.wait() {
        Ok(p) => Reply::served(p, graph, due, submitted),
        Err(_) => Reply::refused(graph, due, Instant::now()),
    }
}

/// Closed loop: keeps [`CLIENTS`] requests outstanding until `n` are
/// answered. A request is due the instant its predecessor's reply frees a
/// client. Returns wall seconds and the replies.
pub fn closed_loop(state: &ServeState, pick: &mut Schedule, n: usize) -> (f64, Vec<Reply>) {
    let start = Instant::now();
    let mut inflight = VecDeque::with_capacity(CLIENTS);
    let mut replies = Vec::with_capacity(n);
    let mut sent = 0;
    while replies.len() < n {
        while sent < n && inflight.len() < CLIENTS {
            let g = pick.index(state.graphs.len());
            let due = Instant::now();
            match state.batcher.submit(state.graphs[g].clone()) {
                Ok(t) => inflight.push_back((t, g, due)),
                Err(_) => replies.push(Reply::refused(g, due, Instant::now())),
            }
            sent += 1;
        }
        // One worker serves in arrival order, so the oldest is next.
        if let Some((ticket, g, due)) = inflight.pop_front() {
            replies.push(redeem(ticket, g, due, due));
        }
    }
    (start.elapsed().as_secs_f64(), replies)
}

/// Open loop: one load-generator thread submits each request when it is
/// due (`try_submit`; a full queue refuses) and, while it waits for the
/// next one, polls the oldest outstanding ticket — one worker answers in
/// order. It polls rather than sleeps, so beside the worker it is the
/// second busy thread; a separate collector thread would be a third on a
/// two-core host, and pre-empted the sender for a millisecond or more at
/// the 99th percentile. Runs for `window_s` seconds of arrivals.
pub fn open_loop(
    state: &ServeState,
    schedule: &mut Schedule,
    rate: f64,
    window_s: f64,
) -> (f64, Vec<Reply>) {
    let mut arrivals = Vec::new();
    let mut t = 0.0;
    loop {
        t += schedule.gap(rate);
        if t >= window_s {
            break;
        }
        arrivals.push((
            Duration::from_secs_f64(t),
            schedule.index(state.graphs.len()),
        ));
    }
    let mut replies = Vec::with_capacity(arrivals.len());
    let mut pending: VecDeque<(Ticket, usize, Instant, Instant)> = VecDeque::new();
    let start = Instant::now();
    for (offset, g) in arrivals {
        let due = start + offset;
        while Instant::now() < due {
            match pending.front().and_then(|(ticket, ..)| ticket.poll()) {
                Some(p) => {
                    let (_, g, due, submitted) = pending.pop_front().expect("front exists");
                    replies.push(Reply::served(p, g, due, submitted));
                }
                None => std::hint::spin_loop(),
            }
        }
        let submitted = Instant::now();
        match state.batcher.try_submit(state.graphs[g].clone()) {
            Ok(ticket) => pending.push_back((ticket, g, due, submitted)),
            Err(ServeError::QueueFull | ServeError::ShuttingDown | ServeError::Disconnected) => {
                replies.push(Reply::refused(g, due, submitted));
            }
        }
    }
    for (ticket, g, due, submitted) in pending {
        replies.push(redeem(ticket, g, due, submitted));
    }
    (start.elapsed().as_secs_f64(), replies)
}

/// Quantiles of one batch of replies. A refused request has no latency;
/// it counts against the limit instead.
pub struct WindowStats {
    pub sent: usize,
    pub ok: usize,
    pub atoms: usize,
    pub p50_ms: f64,
    pub p99: Tail,
    pub slo_miss: usize,
    pub late_over_1ms: usize,
    pub late_p99: Tail,
    pub queue_p50_ms: f64,
    pub queue_p99: Tail,
    pub batch_graphs_mean: f64,
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = values.fold((0.0, 0usize), |(s, n), x| (s + x, n + 1));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

pub fn window_stats(replies: &[Reply]) -> WindowStats {
    let served: Vec<&Reply> = replies.iter().filter(|r| r.ok).collect();
    let lat: Vec<f64> = served.iter().map(|r| r.latency_ms()).collect();
    let late: Vec<f64> = replies.iter().map(Reply::late_ms).collect();
    let queue: Vec<f64> = served
        .iter()
        .map(|r| r.queue_wait.as_secs_f64() * 1e3)
        .collect();
    WindowStats {
        sent: replies.len(),
        ok: served.len(),
        atoms: served.iter().map(|r| r.atoms).sum(),
        p50_ms: nearest_rank(&sorted(&lat), 0.5).unwrap_or(f64::NAN),
        p99: tail(&lat, 0.99),
        slo_miss: replies
            .iter()
            .filter(|r| !r.ok || r.latency_ms() > SLO_MS)
            .count(),
        late_over_1ms: late.iter().filter(|&&l| l > 1.0).count(),
        late_p99: tail(&late, 0.99),
        queue_p50_ms: nearest_rank(&sorted(&queue), 0.5).unwrap_or(f64::NAN),
        queue_p99: tail(&queue, 0.99),
        batch_graphs_mean: mean(served.iter().map(|r| r.batch_graphs as f64)),
    }
}

/// Compares sampled replies with the prediction of the same graph alone.
fn check_against_solo(out: &mut Outcome, state: &ServeState, replies: &[Reply]) {
    let mut checked = 0;
    let mut worst: f64 = 0.0;
    for (g, solo) in &state.solo {
        let Some(r) = replies.iter().find(|r| r.ok && r.graph == *g) else {
            continue;
        };
        let solo_max = solo
            .forces
            .iter()
            .flatten()
            .fold(0.0f64, |m, c| m.max(c.abs()));
        let e = (r.energy - solo.energy).abs() / solo.energy.abs().max(1e-6);
        let f = (r.max_force - solo_max).abs() / solo_max.max(1e-6);
        worst = worst.max(e).max(f);
        checked += 1;
    }
    out.check(
        "replies_match_solo_predict",
        checked > 0 && worst <= 1e-4,
        format!("{checked} sampled replies, worst relative difference {worst:.3e}"),
    );
}

fn check_counts(out: &mut Outcome, sent: usize, ok: usize, failed: usize) {
    out.attempted = sent as u64;
    out.failed = failed as u64;
    out.check(
        "sent_accounted",
        sent == ok + failed,
        format!("sent {sent} = succeeded {ok} + failed {failed}"),
    );
}

/// The percentile, or 0 with a remark saying the sample was too small:
/// a tail is stated or withheld, never extrapolated.
fn stated(out: &mut Outcome, what: &str, t: Tail) -> f64 {
    match t {
        Tail::Value(v) => v,
        Tail::Insufficient { have, need } => {
            out.remarks.push(format!(
                "{what}: insufficient — {have} samples, {need} needed for ten beyond the percentile; reported as 0"
            ));
            0.0
        }
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn setup(ctx: &Ctx) -> (ServeState, Vec<f64>) {
    setup_repeated(ctx, || ServeState::new(ctx))
}

pub fn run_closed(ctx: &Ctx) -> Outcome {
    let (state, setup_times) = setup(ctx);
    if ctx.trace {
        return traced(ctx, &state, false);
    }
    let mut out = Outcome::default();
    let per_rep = ctx.size(CLOSED_REP_REQUESTS.0, CLOSED_REP_REQUESTS.1);
    let mut pick = Schedule::new(ctx.seed);
    let (mut aps, mut rps, mut p50, mut p99) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut sent, mut ok) = (0, 0);
    let mut all = Vec::new();
    let start = Instant::now();
    while p50.len() < MIN_REPS || start.elapsed().as_secs_f64() < ctx.seconds {
        let (wall, replies) = closed_loop(&state, &mut pick, per_rep);
        let w = window_stats(&replies);
        sent += w.sent;
        ok += w.ok;
        aps.push(w.atoms as f64 / wall);
        rps.push(w.ok as f64 / wall);
        p50.push(w.p50_ms);
        if let Tail::Value(v) = w.p99 {
            p99.push(v);
        }
        if all.is_empty() {
            all = replies;
        }
    }
    check_counts(&mut out, sent, ok, sent - ok);
    check_against_solo(&mut out, &state, &all);

    out.push_samples("atoms_per_s", "atoms/s", aps);
    out.push_samples("op_ms_p50", "ms", p50);
    push_common(&mut out, setup_times);
    out.extra.push(Measured::new("requests_per_s", "1/s", rps));
    out.extra.push(Measured::new("latency_ms_p99", "ms", p99));
    out.note("clients", "count", CLIENTS as f64);
    out.note("requests_per_rep", "count", per_rep as f64);
    state.batcher.shutdown();
    out
}

pub fn run_open(ctx: &Ctx) -> Outcome {
    let (state, setup_times) = setup(ctx);
    if ctx.trace {
        return traced(ctx, &state, true);
    }
    let mut out = Outcome::default();
    let window_s = if ctx.smoke {
        OPEN_WINDOW_S.1
    } else {
        OPEN_WINDOW_S.0
    };
    let windows = ((ctx.seconds / window_s).floor() as usize).max(MIN_REPS);
    let mut schedule = Schedule::new(ctx.seed);
    let (mut aps, mut p50) = (Vec::new(), Vec::new());
    let (mut latencies, mut lateness) = (Vec::new(), Vec::new());
    let (mut sent, mut ok, mut missed, mut late) = (0, 0, 0, 0);
    let mut first = Vec::new();
    for _ in 0..windows {
        let (wall, replies) = open_loop(&state, &mut schedule, OPEN_RATE, window_s);
        let w = window_stats(&replies);
        sent += w.sent;
        ok += w.ok;
        missed += w.slo_miss;
        late += w.late_over_1ms;
        aps.push(w.atoms as f64 / wall);
        p50.push(w.p50_ms);
        latencies.push(
            replies
                .iter()
                .filter(|r| r.ok)
                .map(Reply::latency_ms)
                .collect::<Vec<f64>>(),
        );
        lateness.push(replies.iter().map(Reply::late_ms).collect::<Vec<f64>>());
        if first.is_empty() {
            first = replies;
        }
    }
    check_counts(&mut out, sent, ok, sent - ok);
    check_against_solo(&mut out, &state, &first);

    out.push_samples("atoms_per_s", "atoms/s", aps);
    out.push_samples("op_ms_p50", "ms", p50);
    push_common(&mut out, setup_times);
    // Exact nearest-rank p99 of each window, median across windows.
    let p99 = stated(&mut out, "latency p99", median_of_windows(&latencies, 0.99));
    out.note("latency_ms_p99", "ms", p99);
    let late_p99 = stated(
        &mut out,
        "load generator lateness p99",
        median_of_windows(&lateness, 0.99),
    );
    out.note("loadgen_late_ms_p99", "ms", late_p99);
    out.note("slo_miss_frac", "share", missed as f64 / sent.max(1) as f64);
    out.note(
        "loadgen_late_frac",
        "share",
        late as f64 / sent.max(1) as f64,
    );
    out.note("arrival_rate", "1/s", OPEN_RATE);
    out.note("windows", "count", windows as f64);
    state.batcher.shutdown();
    out
}

/// The batches the worker formed, rebuilt from the replies: one worker
/// serves in order, so the next `batch_graphs` served replies after a
/// batch's first member are the rest of it.
fn batches_of(replies: &[Reply]) -> Vec<&[Reply]> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < replies.len() {
        if !replies[i].ok {
            i += 1;
            continue;
        }
        let k = replies[i].batch_graphs.max(1);
        let end = (i + k).min(replies.len());
        if replies[i..end].iter().all(|r| r.ok && r.batch_graphs == k) {
            out.push(&replies[i..end]);
        }
        i = end;
    }
    out
}

/// Traced serving. The batcher's inside cannot be timed from outside, so
/// each request's spans are laid out afterwards: lateness and queue wait
/// from the reply's own fields, and inside the batch's service time the
/// pack (`GraphBatch::from_graphs`) and forward (`InferenceEngine::predict`)
/// as re-run on the same graphs once the load has stopped.
fn traced(ctx: &Ctx, state: &ServeState, open: bool) -> Outcome {
    let origin = Instant::now();
    let mut out = Outcome::default();
    let window_s = if ctx.smoke {
        OPEN_WINDOW_S.1
    } else {
        OPEN_WINDOW_S.0
    };
    let per_rep = ctx.size(CLOSED_REP_REQUESTS.0, CLOSED_REP_REQUESTS.1);
    let mut schedule = Schedule::new(ctx.seed);
    let drive = |schedule: &mut Schedule| {
        if open {
            open_loop(state, schedule, OPEN_RATE, window_s)
        } else {
            closed_loop(state, schedule, per_rep)
        }
    };

    // First half of the time: the plain run. Second half: the run whose
    // replies are kept and laid out as spans.
    let half = ctx.seconds / 2.0;
    let mut plain_rps = Vec::new();
    let start = Instant::now();
    while plain_rps.len() < MIN_REPS.min(2) || start.elapsed().as_secs_f64() < half {
        let (wall, replies) = drive(&mut schedule);
        plain_rps.push(replies.iter().filter(|r| r.ok).count() as f64 / wall);
    }
    let (allocs_before, _) = alloc_counts();
    let mut kept: Vec<Reply> = Vec::new();
    let mut kept_rps = Vec::new();
    let start = Instant::now();
    while kept_rps.len() < MIN_REPS.min(2) || start.elapsed().as_secs_f64() < half {
        let (wall, replies) = drive(&mut schedule);
        kept_rps.push(replies.iter().filter(|r| r.ok).count() as f64 / wall);
        kept.extend(replies);
    }
    let (allocs_after, _) = alloc_counts();

    // Re-run pack and forward for every batch, load stopped.
    let mut rec = Recorder::new(true, origin, 0);
    let batches = batches_of(&kept);
    let mut batch_atoms = Vec::with_capacity(batches.len());
    let (mut service_s, mut replay_s, mut predict_s) = (0.0, 0.0, 0.0);
    let mut forward_ms = Vec::with_capacity(batches.len());
    for members in &batches {
        let graphs: Vec<&MolGraph> = members.iter().map(|r| &state.graphs[r.graph]).collect();
        let t = Instant::now();
        let batch = GraphBatch::from_graphs(&graphs);
        let pack = t.elapsed();
        let t = Instant::now();
        std::hint::black_box(state.engine.predict(&batch));
        let predict = t.elapsed();
        batch_atoms.push(batch.n_nodes());
        forward_ms.push((pack + predict).as_secs_f64() * 1e3);
        let batch_start = members[0].submitted + members[0].queue_wait;
        let last_done = members
            .iter()
            .map(|r| r.done)
            .max()
            .expect("non-empty batch");
        service_s += last_done
            .saturating_duration_since(batch_start)
            .as_secs_f64();
        replay_s += (pack + predict).as_secs_f64();
        predict_s += predict.as_secs_f64();
        for r in members.iter() {
            rec.next_op();
            let root = rec.record("op.request", r.due, r.done, Open::none());
            rec.record("loadgen.late", r.due, r.submitted, root);
            let started = (r.submitted + r.queue_wait).min(r.done);
            rec.record("serve.queue_wait", r.submitted, started, root);
            let service = rec.record("serve.batch", started, r.done, root);
            let packed = (started + pack).min(r.done);
            rec.record("graph.batch.from_graphs", started, packed, service);
            rec.record(
                "model.frozen.predict",
                packed,
                (packed + predict).min(r.done),
                service,
            );
        }
    }

    let w = window_stats(&kept);
    check_counts(&mut out, w.sent, w.ok, w.sent - w.ok);
    check_against_solo(&mut out, state, &kept);
    let mut attr = Attribution::default();
    attr.absorb(rec.spans());
    // Keeping the replies is all tracing costs the live run; the replay
    // explains `replay_s` of the `service_s` the batches took.
    let overhead =
        1.0 - median(&kept_rps).unwrap_or(f64::NAN) / median(&plain_rps).unwrap_or(f64::NAN);
    traceout::push_trace_metrics(
        &mut out,
        &attr,
        attr.mean_ms("op.request"),
        overhead,
        replay_s / service_s,
    );

    let p99 = stated(&mut out, "latency p99", w.p99);
    let queue_p99 = stated(&mut out, "queue wait p99", w.queue_p99);
    let late_p99 = stated(&mut out, "load generator lateness p99", w.late_p99);
    let forward_p50 = median(&forward_ms).unwrap_or(f64::NAN);
    out.push(
        "serve.queue_wait.share_p50",
        "share",
        ratio(w.queue_p50_ms, w.p50_ms),
    );
    out.push("serve.queue_wait.share_p99", "share", ratio(queue_p99, p99));
    out.push("serve.latency.p99_over_p50", "ratio", ratio(p99, w.p50_ms));
    let (graphs_name, atoms_name) = if open {
        (
            "serve.batch.open_graphs_mean",
            Some("serve.batch.open_atoms_mean"),
        )
    } else {
        ("serve.batch.closed_graphs_mean", None)
    };
    out.push(graphs_name, "count", w.batch_graphs_mean);
    if let Some(name) = atoms_name {
        out.push(name, "count", mean(batch_atoms.iter().map(|&a| a as f64)));
    }
    out.push(
        "serve.reply.overhead_share",
        "share",
        ((w.p50_ms - w.queue_p50_ms - forward_p50) / w.p50_ms).max(0.0),
    );
    out.push(
        "serve.loadgen.late_frac",
        "share",
        w.late_over_1ms as f64 / w.sent.max(1) as f64,
    );
    out.push("serve.engine.share", "share", predict_s / service_s);
    out.push(
        "serve.alloc.allocs_per_request",
        "count",
        (allocs_after - allocs_before) as f64 / w.sent.max(1) as f64,
    );
    out.push(
        "serve.slo_miss_frac",
        "share",
        w.slo_miss as f64 / w.sent.max(1) as f64,
    );
    out.note("latency_ms_p50", "ms", w.p50_ms);
    out.note("latency_ms_p99", "ms", p99);
    out.note("queue_wait_ms_p50", "ms", w.queue_p50_ms);
    out.note("queue_wait_ms_p99", "ms", queue_p99);
    out.note("loadgen_late_ms_p99", "ms", late_p99);
    out.note("batch_forward_ms_p50", "ms", forward_p50);
    out.note("batches", "count", batches.len() as f64);
    traceout::write(
        ctx,
        if open { "serve_open" } else { "serve_closed" },
        &[&rec],
        &mut out,
    );
    out
}
