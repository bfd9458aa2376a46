//! Event collection and the two sinks: per-rank JSONL logs (written
//! line-by-line as events close — a nested span when its thread's
//! outermost span closes) and a Chrome-trace JSON file (written once at
//! [`shutdown`]).

use std::cell::RefCell;
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Instant;

use crate::json;

/// Cap on buffered Chrome-trace events; beyond it events still reach
/// the JSONL sink but are dropped from `trace.json` (the drop count is
/// reported in the trace metadata).
const TRACE_EVENT_CAP: usize = 1 << 20;

struct TraceEvent {
    name: String,
    ts_us: u64,
    dur_us: u64,
    rank: i64,
    step: i64,
    tid: u64,
}

struct Collector {
    dir: Option<PathBuf>,
    /// One append-mode file per rank tag (keyed by raw rank; -1 is the
    /// shared unranked file).
    writers: HashMap<i64, Arc<File>>,
    trace: Vec<TraceEvent>,
    trace_dropped: u64,
    /// First OS thread name seen per telemetry tid, for Perfetto labels.
    thread_names: HashMap<u64, String>,
}

static COLLECTOR: Mutex<Option<Collector>> = Mutex::new(None);

thread_local! {
    /// Events this thread closed inside a still-open span (see [`emit`]).
    static PENDING: RefCell<Vec<(i64, String, Option<TraceEvent>)>> = const { RefCell::new(Vec::new()) };
}

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Microseconds since telemetry was first initialised in this process.
pub(crate) fn now_us() -> u64 {
    let epoch = EPOCH.get_or_init(Instant::now);
    epoch.elapsed().as_micros() as u64
}

/// Locks the collector, recovering from poisoning: a panicking rank
/// under the fault injector must not take telemetry down with it.
fn collector() -> MutexGuard<'static, Option<Collector>> {
    COLLECTOR.lock().unwrap_or_else(|e| e.into_inner())
}

/// Enables telemetry with `dir` as the sink directory (created if
/// missing). JSONL logs stream into it immediately; `trace.json`
/// appears on [`shutdown`]. Re-initialising while enabled starts a
/// fresh collection in the new directory.
pub fn init(dir: impl AsRef<Path>) -> std::io::Result<()> {
    let dir = dir.as_ref().to_path_buf();
    std::fs::create_dir_all(&dir)?;
    EPOCH.get_or_init(Instant::now);
    let mut guard = collector();
    *guard = Some(Collector {
        dir: Some(dir),
        writers: HashMap::new(),
        trace: Vec::new(),
        trace_dropped: 0,
        thread_names: HashMap::new(),
    });
    drop(guard);
    crate::set_enabled(true);
    Ok(())
}

/// Enables telemetry from the `MATGNN_TELEMETRY` environment variable;
/// returns `true` if it was set (and non-empty) and init succeeded.
pub fn init_from_env() -> bool {
    match std::env::var(crate::ENV_VAR) {
        Ok(dir) if !dir.is_empty() => init(&dir).is_ok(),
        _ => false,
    }
}

/// Directory the active sink writes into, if telemetry is enabled.
pub fn active_dir() -> Option<PathBuf> {
    collector().as_ref().and_then(|c| c.dir.clone())
}

/// Disables telemetry, flushes all JSONL writers, writes `trace.json`,
/// and returns the sink directory (if one was configured). Idempotent.
pub fn shutdown() -> Option<PathBuf> {
    crate::set_enabled(false);
    let mut guard = collector();
    let collector = guard.take()?;
    let dir = collector.dir.clone();
    // Writers flush on drop; the JSONL files are already line-complete.
    if let Some(dir) = &dir {
        let trace = render_chrome_trace(&collector);
        let _ = std::fs::write(dir.join("trace.json"), trace);
    }
    dir
}

fn rank_file_name(rank: i64) -> String {
    if rank < 0 {
        "events-unranked.jsonl".to_string()
    } else {
        format!("events-rank{rank}.jsonl")
    }
}

/// The JSONL file of `rank`, opened on first use (`None` without a sink
/// directory).
fn rank_file(collector: &mut Collector, rank: i64) -> Option<Arc<File>> {
    let dir = collector.dir.as_ref()?;
    let file = collector.writers.entry(rank).or_insert_with(|| {
        let path = dir.join(rank_file_name(rank));
        let file = OpenOptions::new().create(true).append(true).open(path);
        Arc::new(file.unwrap_or_else(|_| File::create("/dev/null").expect("open /dev/null")))
    });
    Some(Arc::clone(file))
}

/// Hands one event — its JSONL line and, for a span, its trace event —
/// to the sinks. Events queue per thread until one arrives at depth 0
/// (a thread's outermost span, or any non-span event): a span nested in
/// another then never takes the collector lock or writes a file between
/// sibling spans, where the enclosing span could not account for the
/// time. Files are written outside the lock, one append-mode write per
/// line, so lines stay whole under concurrent writers and a crash loses
/// at most the queued events; IO errors are swallowed, since telemetry
/// must never fail the run it observes.
fn emit(rank: i64, tid: u64, line: String, trace: Option<TraceEvent>, depth: u32) {
    PENDING.with(|pending| {
        let mut pending = pending.borrow_mut();
        pending.push((rank, line, trace));
        if depth > 0 {
            return;
        }
        let mut writes = Vec::with_capacity(pending.len());
        if let Some(collector) = collector().as_mut() {
            note_thread_name(collector, tid);
            for (rank, line, trace) in pending.drain(..) {
                writes.push((rank_file(collector, rank), line));
                match trace {
                    Some(event) if collector.trace.len() < TRACE_EVENT_CAP => {
                        collector.trace.push(event)
                    }
                    Some(_) => collector.trace_dropped += 1,
                    None => {}
                }
            }
        }
        pending.clear();
        for (file, mut line) in writes {
            if let Some(file) = file {
                line.push('\n');
                let _ = (&*file).write_all(line.as_bytes());
            }
        }
    });
}

fn push_common_fields(line: &mut String, ts_us: u64, rank: i64, step: i64, tid: u64) {
    line.push_str(&format!(
        "\"v\":{v},\"ts_us\":{ts_us},\"rank\":{rank},\"step\":{step},\"tid\":{tid}",
        v = crate::SCHEMA_VERSION
    ));
}

fn note_thread_name(collector: &mut Collector, tid: u64) {
    collector.thread_names.entry(tid).or_insert_with(|| {
        std::thread::current()
            .name()
            .unwrap_or("unnamed")
            .to_string()
    });
}

/// Emits a closed span to both sinks. Called from `Span::drop`.
pub(crate) fn record_span(name: &'static str, start_us: u64, dur_us: u64, depth: u32) {
    let rank = crate::rank_raw();
    let step = crate::step_raw();
    let tid = crate::tid();
    let mut line = String::with_capacity(128);
    line.push_str("{\"type\":\"span\",");
    push_common_fields(&mut line, start_us, rank, step, tid);
    line.push_str(",\"name\":");
    json::escape_str_into(&mut line, name);
    line.push_str(&format!(",\"dur_us\":{dur_us},\"depth\":{depth}}}"));
    let event = TraceEvent {
        name: name.to_string(),
        ts_us: start_us,
        dur_us,
        rank,
        step,
        tid,
    };
    emit(rank, tid, line, Some(event), depth);
}

/// Emits a free-form log event (`"type":"log"`) tagged with the current
/// rank/step. No-op when telemetry is disabled.
pub fn log_event(kind: &str, msg: &str) {
    if !crate::enabled() {
        return;
    }
    let rank = crate::rank_raw();
    let step = crate::step_raw();
    let tid = crate::tid();
    let mut line = String::with_capacity(96 + msg.len());
    line.push_str("{\"type\":\"log\",");
    push_common_fields(&mut line, now_us(), rank, step, tid);
    line.push_str(",\"kind\":");
    json::escape_str_into(&mut line, kind);
    line.push_str(",\"msg\":");
    json::escape_str_into(&mut line, msg);
    line.push('}');

    emit(rank, tid, line, None, 0);
}

/// Emits a supervisor health event (`"type":"health"`, schema v2):
/// anomaly detections, checkpoint rollbacks, watchdog escalations.
/// Structurally a log event under a dedicated type so health incidents
/// can be filtered without parsing free-form log kinds. No-op when
/// telemetry is disabled.
pub fn health_event(kind: &str, detail: &str) {
    if !crate::enabled() {
        return;
    }
    let rank = crate::rank_raw();
    let step = crate::step_raw();
    let tid = crate::tid();
    let mut line = String::with_capacity(96 + detail.len());
    line.push_str("{\"type\":\"health\",");
    push_common_fields(&mut line, now_us(), rank, step, tid);
    line.push_str(",\"kind\":");
    json::escape_str_into(&mut line, kind);
    line.push_str(",\"detail\":");
    json::escape_str_into(&mut line, detail);
    line.push('}');

    emit(rank, tid, line, None, 0);
}

/// Emits a metrics-flush event containing the given name/value pairs.
/// Called by `metrics::flush_metrics` with a registry snapshot.
pub(crate) fn record_metrics_flush(values: &[(String, f64)]) {
    if !crate::enabled() {
        return;
    }
    let rank = crate::rank_raw();
    let step = crate::step_raw();
    let tid = crate::tid();
    let mut line = String::with_capacity(64 + values.len() * 24);
    line.push_str("{\"type\":\"metrics\",");
    push_common_fields(&mut line, now_us(), rank, step, tid);
    line.push_str(",\"values\":{");
    for (i, (name, value)) in values.iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        json::escape_str_into(&mut line, name);
        line.push(':');
        json::push_f64(&mut line, *value);
    }
    line.push_str("}}");

    emit(rank, tid, line, None, 0);
}

/// Renders the buffered events as a `chrome://tracing` / Perfetto
/// document: one complete (`"ph":"X"`) event per span, grouped into one
/// process per rank, plus thread/process name metadata.
fn render_chrome_trace(collector: &Collector) -> String {
    let mut out = String::with_capacity(64 + collector.trace.len() * 96);
    out.push_str("{\"traceEvents\":[");
    let mut first = true;
    for ev in &collector.trace {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str("{\"name\":");
        json::escape_str_into(&mut out, &ev.name);
        // pid groups a rank's threads into one Perfetto process track;
        // unranked threads (rank -1) land in pid 0.
        out.push_str(&format!(
            ",\"cat\":\"span\",\"ph\":\"X\",\"ts\":{ts},\"dur\":{dur},\"pid\":{pid},\"tid\":{tid},\"args\":{{\"rank\":{rank},\"step\":{step}}}}}",
            ts = ev.ts_us,
            dur = ev.dur_us,
            pid = ev.rank + 1,
            tid = ev.tid,
            rank = ev.rank,
            step = ev.step,
        ));
    }
    // Name metadata: one process per rank, one label per thread.
    let mut ranks: Vec<i64> = collector.trace.iter().map(|e| e.rank).collect();
    ranks.sort_unstable();
    ranks.dedup();
    for rank in ranks {
        if !first {
            out.push(',');
        }
        first = false;
        let label = if rank < 0 {
            "unranked".to_string()
        } else {
            format!("rank {rank}")
        };
        out.push_str(&format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\"args\":{{\"name\":",
            pid = rank + 1
        ));
        json::escape_str_into(&mut out, &label);
        out.push_str("}}");
    }
    let mut tids: Vec<(&u64, &String)> = collector.thread_names.iter().collect();
    tids.sort_by_key(|(tid, _)| **tid);
    for (tid, name) in tids {
        // A thread may emit under several ranks (pool workers); name it
        // in every process track it appeared in.
        let mut pids: Vec<i64> = collector
            .trace
            .iter()
            .filter(|e| e.tid == *tid)
            .map(|e| e.rank + 1)
            .collect();
        pids.sort_unstable();
        pids.dedup();
        for pid in pids {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"args\":{{\"name\":"
            ));
            json::escape_str_into(&mut out, name);
            out.push_str("}}");
        }
    }
    out.push_str(&format!(
        "],\"displayTimeUnit\":\"ms\",\"otherData\":{{\"dropped_events\":{dropped}}}}}",
        dropped = collector.trace_dropped
    ));
    out
}
