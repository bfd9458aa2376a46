//! Dynamic batching: a bounded FIFO request queue packed into
//! [`GraphBatch`]es by a work-conserving worker pool.
//!
//! Requests arrive one graph at a time; the kernels are most efficient on
//! batches. The policy is *continuous batching*: a worker that finds the
//! queue non-empty takes, at once, the longest prefix admitted by the
//! [`PackPolicy`](matgnn_graph::PackPolicy) (`max_atoms` / `max_graphs`) —
//! FIFO order, a request is never overtaken by a later one — and never
//! lingers for more to arrive. Batch size follows backlog by itself:
//! whatever arrives while every worker is busy is the next batch, so an
//! idle pool answers a lone request in one forward and a saturated pool
//! fills its batches. A timed window in front of dispatch would buy
//! little on this engine and charge every request for it: the perf record
//! has the frozen forward at 6.6 µs per atom for a single graph against
//! 5.7 µs in a packed 510-atom batch (`model.frozen.predict.{single,batch}_us`),
//! so lingering saves at most 14 % of worker CPU. The queue is bounded:
//! [`submit`](DynamicBatcher::submit) blocks for backpressure,
//! [`try_submit`](DynamicBatcher::try_submit) refuses instead (the
//! load-shedding path a saturation bench needs).
//!
//! Per-request telemetry flows through the PR-5 layer: span
//! `serve.batch` around each engine call, gauge `serve.queue_depth`,
//! histograms `serve.batch.graphs` / `serve.batch.atoms` /
//! `serve.queue_wait_ms` / `serve.latency_ms` (the last two also as
//! sliding windows, feeding p50/p99 via
//! [`histogram_quantile`](matgnn_telemetry::histogram_quantile) and
//! `/metrics`), and counter `serve.requests`. Queue wait and batch fill
//! are separate series, so a slow reply shows whether it waited or was
//! served in a large batch.

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use matgnn_graph::{GraphBatch, MolGraph, PackPolicy};
use matgnn_telemetry as telemetry;

use crate::engine::InferenceEngine;

/// Batching and queueing policy for a [`DynamicBatcher`].
#[derive(Debug, Clone, Copy)]
pub struct BatcherConfig {
    /// Maximum total atoms packed into one batch.
    pub max_atoms: usize,
    /// Maximum graphs packed into one batch.
    pub max_graphs: usize,
    /// No longer delays dispatch: workers take what is queued the moment
    /// they are free. Kept only because the frozen benchmark sets it;
    /// removed together with that literal in the next `benchmark` PR.
    pub max_wait: Duration,
    /// Queue bound: [`submit`](DynamicBatcher::submit) blocks and
    /// [`try_submit`](DynamicBatcher::try_submit) refuses beyond this.
    pub queue_capacity: usize,
    /// Number of serving worker threads.
    pub workers: usize,
    /// End-to-end latency SLO in milliseconds; requests served slower
    /// than this bump the `serve.slo_breach` counter.
    pub slo_ms: f64,
}

impl Default for BatcherConfig {
    fn default() -> Self {
        BatcherConfig {
            max_atoms: 512,
            max_graphs: 64,
            max_wait: Duration::from_millis(2),
            queue_capacity: 1024,
            workers: 2,
            slo_ms: 50.0,
        }
    }
}

impl BatcherConfig {
    fn policy(&self) -> PackPolicy {
        PackPolicy {
            max_atoms: self.max_atoms,
            max_graphs: self.max_graphs,
        }
    }
}

/// A served request's result, in physical units.
#[derive(Debug, Clone)]
pub struct Prediction {
    /// Total energy (eV).
    pub energy: f64,
    /// Per-atom forces (eV/Å).
    pub forces: Vec<[f64; 3]>,
    /// Time the request spent queued before its batch started.
    pub queue_wait: Duration,
    /// Number of graphs in the batch that served this request.
    pub batch_graphs: usize,
    /// Total atoms in the batch that served this request.
    pub batch_atoms: usize,
}

/// Serving front-end errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The batcher is shutting down and no longer accepts requests.
    ShuttingDown,
    /// The bounded queue is full (returned by
    /// [`try_submit`](DynamicBatcher::try_submit) only).
    QueueFull,
    /// The serving workers disappeared before answering (shutdown raced
    /// the request).
    Disconnected,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::ShuttingDown => write!(f, "batcher is shutting down"),
            ServeError::QueueFull => write!(f, "request queue is full"),
            ServeError::Disconnected => write!(f, "serving workers dropped the request"),
        }
    }
}

impl std::error::Error for ServeError {}

/// A pending request's claim ticket; redeem with [`Ticket::wait`].
#[derive(Debug)]
pub struct Ticket {
    rx: mpsc::Receiver<Prediction>,
}

impl Ticket {
    /// Blocks until the prediction is ready.
    pub fn wait(self) -> Result<Prediction, ServeError> {
        self.rx.recv().map_err(|_| ServeError::Disconnected)
    }

    /// Non-blocking poll; `None` while the request is still in flight.
    pub fn poll(&self) -> Option<Prediction> {
        self.rx.try_recv().ok()
    }
}

/// One queued request.
struct Request {
    graph: MolGraph,
    enqueued: Instant,
    tx: mpsc::Sender<Prediction>,
}

/// State shared between submitters and workers.
struct Shared {
    cfg: BatcherConfig,
    engine: Arc<InferenceEngine>,
    queue: Mutex<VecDeque<Request>>,
    /// Signalled when a request is enqueued (workers wait on this).
    not_empty: Condvar,
    /// Signalled when queue space frees up (blocking submitters wait).
    space: Condvar,
    shutdown: AtomicBool,
    /// Workers started and not yet exited — the `/healthz` liveness
    /// signal. Counted by `start` before it spawns, so the pool is ready
    /// when `start` returns; decremented on any worker exit, panics
    /// included.
    live_workers: AtomicUsize,
}

/// The dynamic batching front-end. See the [module docs](self).
pub struct DynamicBatcher {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl DynamicBatcher {
    /// Starts `cfg.workers` serving threads over `engine`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.workers` or `cfg.queue_capacity` is zero.
    pub fn start(engine: Arc<InferenceEngine>, cfg: BatcherConfig) -> Self {
        assert!(cfg.workers > 0, "batcher needs at least one worker");
        assert!(cfg.queue_capacity > 0, "queue capacity must be positive");
        let shared = Arc::new(Shared {
            cfg,
            engine,
            queue: Mutex::new(VecDeque::new()),
            not_empty: Condvar::new(),
            space: Condvar::new(),
            shutdown: AtomicBool::new(false),
            live_workers: AtomicUsize::new(cfg.workers),
        });
        let runtime = matgnn_tensor::runtime::scope_raw(); // workers adopt the starter's scope
        let workers = (0..cfg.workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || {
                        let _runtime = runtime.map(matgnn_tensor::Runtime::enter);
                        worker_loop(&shared)
                    })
                    .expect("spawn serving worker")
            })
            .collect();
        DynamicBatcher { shared, workers }
    }

    /// Enqueues a graph, blocking while the queue is at capacity
    /// (backpressure). Returns a [`Ticket`] for the result.
    pub fn submit(&self, graph: MolGraph) -> Result<Ticket, ServeError> {
        let mut queue = lock(&self.shared.queue);
        while queue.len() >= self.shared.cfg.queue_capacity {
            if self.shared.shutdown.load(Ordering::Acquire) {
                return Err(ServeError::ShuttingDown);
            }
            queue = self
                .shared
                .space
                .wait_timeout(queue, Duration::from_millis(50))
                .unwrap_or_else(|e| e.into_inner())
                .0;
        }
        self.enqueue(queue, graph)
    }

    /// Enqueues a graph, refusing with [`ServeError::QueueFull`] when at
    /// capacity — the load-shedding variant.
    pub fn try_submit(&self, graph: MolGraph) -> Result<Ticket, ServeError> {
        let queue = lock(&self.shared.queue);
        if queue.len() >= self.shared.cfg.queue_capacity {
            telemetry::counter_add("serve.shed", 1);
            return Err(ServeError::QueueFull);
        }
        self.enqueue(queue, graph)
    }

    fn enqueue(
        &self,
        mut queue: std::sync::MutexGuard<'_, VecDeque<Request>>,
        graph: MolGraph,
    ) -> Result<Ticket, ServeError> {
        if self.shared.shutdown.load(Ordering::Acquire) {
            return Err(ServeError::ShuttingDown);
        }
        let (tx, rx) = mpsc::channel();
        queue.push_back(Request {
            graph,
            enqueued: Instant::now(),
            tx,
        });
        telemetry::gauge_set("serve.queue_depth", queue.len() as f64);
        drop(queue);
        self.shared.not_empty.notify_one();
        Ok(Ticket { rx })
    }

    /// Current number of queued (not yet batched) requests.
    pub fn queue_depth(&self) -> usize {
        lock(&self.shared.queue).len()
    }

    /// Number of worker threads started and not yet exited.
    pub fn live_workers(&self) -> usize {
        self.shared.live_workers.load(Ordering::Acquire)
    }

    /// A `/healthz` readiness probe wired to this batcher: ready while
    /// at least one worker is alive and shutdown has not begun. The
    /// probe holds only the shared state, so it outlives the batcher
    /// handle (and reports unready once the pool is gone).
    pub fn readiness_probe(&self) -> crate::metrics_http::ReadinessProbe {
        let shared = Arc::clone(&self.shared);
        Arc::new(move || {
            shared.live_workers.load(Ordering::Acquire) > 0
                && !shared.shutdown.load(Ordering::Acquire)
        })
    }

    /// Stops accepting new requests, drains the queue, and joins the
    /// workers. Every already-accepted request is served before return.
    /// Dropping the batcher does the same.
    pub fn shutdown(self) {
        drop(self);
    }
}

impl Drop for DynamicBatcher {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.not_empty.notify_all();
        self.shared.space.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn lock<'a>(m: &'a Mutex<VecDeque<Request>>) -> std::sync::MutexGuard<'a, VecDeque<Request>> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// How many requests at the front of the queue one batch admits, and
/// their total atom count.
fn batch_prefix(queue: &VecDeque<Request>, policy: &PackPolicy) -> (usize, usize) {
    let mut graphs = 0usize;
    let mut atoms = 0usize;
    for req in queue.iter() {
        let n = req.graph.n_nodes();
        if !policy.admits(graphs, atoms, n) {
            break;
        }
        graphs += 1;
        atoms += n;
    }
    (graphs, atoms)
}

/// Decrements the live-worker count (set by [`DynamicBatcher::start`])
/// when a worker exits — by return or by panic (drops run during
/// unwinding), so `/healthz` cannot report a dead pool as ready.
struct LivenessGuard<'a>(&'a Shared);

impl Drop for LivenessGuard<'_> {
    fn drop(&mut self) {
        self.0.live_workers.fetch_sub(1, Ordering::AcqRel);
    }
}

fn worker_loop(shared: &Shared) {
    let _liveness = LivenessGuard(shared);
    let policy = shared.cfg.policy();
    loop {
        // Wait for work (or shutdown with an empty queue).
        let mut queue = lock(&shared.queue);
        while queue.is_empty() {
            if shared.shutdown.load(Ordering::Acquire) {
                return;
            }
            queue = shared
                .not_empty
                .wait_timeout(queue, Duration::from_millis(50))
                .unwrap_or_else(|e| e.into_inner())
                .0;
        }

        // Work-conserving dispatch: take what the policy admits of the
        // queue as it stands. The lock is held since the emptiness check
        // and a batch always admits its first graph, so the prefix is
        // never empty; what arrives while this batch is served is the
        // next one.
        let (graphs, atoms) = batch_prefix(&queue, &policy);
        let requests: Vec<Request> = queue.drain(..graphs).collect();
        telemetry::gauge_set("serve.queue_depth", queue.len() as f64);
        drop(queue);
        shared.space.notify_all();

        // Serve it (lock released — other workers keep going).
        serve_batch(shared, requests, atoms);
    }
}

fn serve_batch(shared: &Shared, requests: Vec<Request>, batch_atoms: usize) {
    debug_assert!(!requests.is_empty());
    let started = Instant::now();
    let predictions = {
        let _span = telemetry::span("serve.batch");
        let graphs: Vec<&MolGraph> = requests.iter().map(|r| &r.graph).collect();
        let batch = GraphBatch::from_graphs(&graphs);
        shared.engine.predict(&batch)
    };
    let batch_graphs = requests.len();
    telemetry::histogram_record("serve.batch.graphs", batch_graphs as f64);
    telemetry::histogram_record("serve.batch.atoms", batch_atoms as f64);
    telemetry::counter_add("serve.requests", batch_graphs as u64);
    for (req, pred) in requests.into_iter().zip(predictions) {
        let queue_wait = started.duration_since(req.enqueued);
        let queue_wait_ms = queue_wait.as_secs_f64() * 1e3;
        let latency_ms = req.enqueued.elapsed().as_secs_f64() * 1e3;
        telemetry::histogram_record("serve.queue_wait_ms", queue_wait_ms);
        telemetry::histogram_record("serve.latency_ms", latency_ms);
        // Sliding windows feed the live /metrics p50/p99 (exact over
        // the last WINDOW_DEFAULT_CAP requests).
        telemetry::window_record("serve.queue_wait_ms", queue_wait_ms);
        telemetry::window_record("serve.latency_ms", latency_ms);
        if latency_ms > shared.cfg.slo_ms {
            telemetry::counter_add("serve.slo_breach", 1);
        }
        // A dropped receiver means the caller gave up; not an error.
        let _ = req.tx.send(Prediction {
            energy: pred.energy,
            forces: pred.forces,
            queue_wait,
            batch_graphs,
            batch_atoms,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use matgnn_graph::{AtomicStructure, Element};
    use matgnn_model::{Egnn, EgnnConfig};

    fn chain(n: usize) -> MolGraph {
        let species = vec![Element::C; n];
        let positions = (0..n).map(|i| [i as f64 * 1.2, 0.0, 0.0]).collect();
        let s = AtomicStructure::new(species, positions).unwrap();
        MolGraph::from_structure(&s, 1.5)
    }

    fn engine() -> Arc<InferenceEngine> {
        Arc::new(InferenceEngine::from_model(
            &Egnn::new(EgnnConfig::new(8, 2)),
            Default::default(),
        ))
    }

    /// Queues `sizes` (chains of that many atoms, in order) behind a
    /// single worker that is busy the whole time they arrive, and returns
    /// their tickets — the backlog a loaded server sees, built without a
    /// timer. The worker is kept busy with one chain larger than
    /// `max_atoms`, which no batch can share. That chain's reply still
    /// being outstanding after the last submit proves the worker has not
    /// looked at the queue since the burst began; if the host stalled this
    /// thread long enough for the reply to land first, the burst is
    /// drained and queued again.
    fn queue_behind_busy_worker(batcher: &DynamicBatcher, sizes: &[usize]) -> Vec<Ticket> {
        let cfg = batcher.shared.cfg;
        assert_eq!(cfg.workers, 1, "backlog is only certain behind one worker");
        let blocker = chain(cfg.max_atoms.max(2048) + 1);
        let burst: Vec<MolGraph> = sizes.iter().map(|&n| chain(n)).collect();
        for _ in 0..20 {
            let busy = batcher.submit(blocker.clone()).unwrap();
            let tickets: Vec<Ticket> = burst
                .iter()
                .map(|g| batcher.submit(g.clone()).unwrap())
                .collect();
            if busy.poll().is_none() {
                return tickets;
            }
            for t in tickets {
                t.wait().unwrap();
            }
        }
        panic!("the worker outran the submitter 20 times in a row");
    }

    fn queued(sizes: &[usize]) -> VecDeque<Request> {
        sizes
            .iter()
            .map(|&n| Request {
                graph: chain(n),
                enqueued: Instant::now(),
                tx: mpsc::channel().0,
            })
            .collect()
    }

    #[test]
    fn batch_prefix_respects_caps_and_admits_an_oversize_head() {
        let policy = PackPolicy {
            max_atoms: 8,
            max_graphs: 3,
        };
        assert_eq!(batch_prefix(&queued(&[]), &policy), (0, 0));
        // A graph larger than max_atoms is served alone, not stranded.
        assert_eq!(batch_prefix(&queued(&[20, 2]), &policy), (1, 20));
        // Exactly max_atoms fits; one atom more does not.
        assert_eq!(batch_prefix(&queued(&[4, 4, 2]), &policy), (2, 8));
        assert_eq!(batch_prefix(&queued(&[4, 3, 2]), &policy), (2, 7));
        // max_graphs binds before max_atoms.
        assert_eq!(batch_prefix(&queued(&[2, 2, 2, 2]), &policy), (3, 6));
    }

    #[test]
    fn serves_concurrent_requests() {
        let batcher = DynamicBatcher::start(engine(), BatcherConfig::default());
        let tickets: Vec<Ticket> = (0..16)
            .map(|i| batcher.submit(chain(2 + i % 5)).unwrap())
            .collect();
        for (i, t) in tickets.into_iter().enumerate() {
            let p = t.wait().unwrap();
            assert_eq!(p.forces.len(), 2 + i % 5, "request {i} got wrong graph");
            assert!(p.energy.is_finite());
            assert!(p.batch_graphs >= 1);
        }
        batcher.shutdown();
    }

    /// An idle pool answers a lone request at once, whatever `max_wait`
    /// says: dispatch is work-conserving, there is no batching window.
    #[test]
    fn lone_request_is_dispatched_without_waiting() {
        let cfg = BatcherConfig {
            max_wait: Duration::from_secs(5),
            ..BatcherConfig::default()
        };
        let batcher = DynamicBatcher::start(engine(), cfg);
        let p = batcher.submit(chain(3)).unwrap().wait().unwrap();
        assert_eq!(p.batch_graphs, 1);
        assert!(
            p.queue_wait < Duration::from_millis(500),
            "an idle worker let the request queue for {:?}",
            p.queue_wait
        );
        batcher.shutdown();
    }

    /// What queues up while the worker is busy is its next batch: the
    /// longest FIFO prefix within `max_atoms`, then the rest.
    #[test]
    fn backlog_becomes_the_next_batch_in_fifo_order() {
        let cfg = BatcherConfig {
            max_atoms: 20,
            workers: 1,
            ..BatcherConfig::default()
        };
        let batcher = DynamicBatcher::start(engine(), cfg);
        let sizes = [2, 3, 4, 5, 6, 7];
        let replies: Vec<Prediction> = queue_behind_busy_worker(&batcher, &sizes)
            .into_iter()
            .map(|t| t.wait().unwrap())
            .collect();
        for (i, p) in replies.iter().enumerate() {
            assert_eq!(p.forces.len(), sizes[i], "reply {i} is out of order");
        }
        // 2+3+4+5+6 = 20 atoms fill one batch; the 7-atom graph would be
        // the 27th atom and is served next, alone.
        for p in &replies[..5] {
            assert_eq!((p.batch_graphs, p.batch_atoms), (5, 20));
        }
        assert_eq!((replies[5].batch_graphs, replies[5].batch_atoms), (1, 7));
        batcher.shutdown();
    }

    /// Batched results must be identical to serving each graph alone —
    /// graphs are disjoint in the batch union.
    #[test]
    fn batching_does_not_change_results() {
        let eng = engine();
        let solo = {
            let g = chain(4);
            let batch = GraphBatch::from_graphs(&[&g]);
            eng.predict(&batch).remove(0)
        };
        let cfg = BatcherConfig {
            workers: 1,
            ..BatcherConfig::default()
        };
        let batcher = DynamicBatcher::start(Arc::clone(&eng), cfg);
        for t in queue_behind_busy_worker(&batcher, &[4; 8]) {
            let p = t.wait().unwrap();
            assert_eq!(p.batch_graphs, 8, "the burst was not served as one batch");
            assert_eq!(p.energy, solo.energy, "batching changed the energy");
            assert_eq!(p.forces, solo.forces, "batching changed the forces");
        }
        batcher.shutdown();
    }

    #[test]
    fn max_atoms_bounds_batches() {
        let cfg = BatcherConfig {
            max_atoms: 8,
            workers: 1,
            ..BatcherConfig::default()
        };
        let batcher = DynamicBatcher::start(engine(), cfg);
        for t in queue_behind_busy_worker(&batcher, &[4; 6]) {
            let p = t.wait().unwrap();
            assert_eq!(
                (p.batch_graphs, p.batch_atoms),
                (2, 8),
                "24 queued atoms must be served as three full 8-atom batches"
            );
        }
        batcher.shutdown();
    }

    #[test]
    fn try_submit_sheds_load_when_full() {
        // One worker, a tiny queue and one graph per batch: submitting is
        // far cheaper than a forward, so the queue backs up.
        let cfg = BatcherConfig {
            queue_capacity: 2,
            workers: 1,
            max_graphs: 1,
            ..BatcherConfig::default()
        };
        let batcher = DynamicBatcher::start(engine(), cfg);
        let mut accepted = Vec::new();
        let mut shed = 0;
        for _ in 0..50 {
            match batcher.try_submit(chain(3)) {
                Ok(t) => accepted.push(t),
                Err(ServeError::QueueFull) => shed += 1,
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert!(shed > 0, "queue never filled");
        for t in accepted {
            t.wait().unwrap();
        }
        batcher.shutdown();
    }

    #[test]
    fn shutdown_drains_accepted_requests() {
        let cfg = BatcherConfig {
            workers: 1,
            ..BatcherConfig::default()
        };
        let batcher = DynamicBatcher::start(engine(), cfg);
        // Still queued behind the busy worker when shutdown begins.
        let tickets = queue_behind_busy_worker(&batcher, &[3; 8]);
        batcher.shutdown();
        for t in tickets {
            let p = t.wait().expect("accepted request dropped at shutdown");
            assert_eq!(p.batch_graphs, 8);
        }
    }

    #[test]
    fn liveness_tracks_worker_pool() {
        let cfg = BatcherConfig {
            workers: 3,
            ..BatcherConfig::default()
        };
        let batcher = DynamicBatcher::start(engine(), cfg);
        let probe = batcher.readiness_probe();
        // Ready as soon as `start` returns, before any worker has run.
        assert_eq!(batcher.live_workers(), 3);
        assert!(probe(), "pool alive but probe not ready");
        batcher.shutdown();
        assert!(!probe(), "probe still ready after shutdown");
    }

    #[test]
    fn latency_metrics_flow_to_quantiles() {
        telemetry::reset_metrics();
        let batcher = DynamicBatcher::start(engine(), BatcherConfig::default());
        let tickets: Vec<Ticket> = (0..10).map(|_| batcher.submit(chain(3)).unwrap()).collect();
        for t in tickets {
            t.wait().unwrap();
        }
        batcher.shutdown();
        let p50 = telemetry::histogram_quantile("serve.latency_ms", 0.5)
            .expect("latency histogram empty");
        assert!(p50 >= 0.0);
        assert!(
            telemetry::histogram_quantile("serve.queue_wait_ms", 0.5).is_some(),
            "queue-wait histogram empty"
        );
        assert!(
            telemetry::window_quantile("serve.queue_wait_ms", 0.99).is_some(),
            "queue-wait window empty"
        );
        let snap = telemetry::snapshot();
        assert!(
            snap.iter().any(|(k, _)| k == "serve.requests"),
            "request counter missing"
        );
    }
}
