//! Bounded background prefetching: a producer thread fills a channel of
//! depth `N` while the consumer trains, hiding item-construction latency
//! behind compute.
//!
//! [`Prefetcher`] is the generic engine — one dedicated producer thread, a
//! bounded [`std::sync::mpsc::sync_channel`], panic propagation, and
//! shutdown-on-drop. `matgnn_data` builds
//! [`PrefetchIterator`](crate::PrefetchIterator) on top of it; `matgnn_dist`
//! reuses it for the per-rank DDP loaders.
//!
//! Determinism: the producer runs the *same* code the synchronous path
//! would (same shuffle order, same normalizer math, same collation), only
//! earlier in wall time. The channel preserves order, so the consumer sees
//! an identical item sequence for any depth — concurrency moves work, never
//! reorders or recomputes it.

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::thread::JoinHandle;

enum Msg<T> {
    Item(T),
    /// The producer panicked; the payload is re-thrown on the consumer
    /// thread by [`Prefetcher::next`].
    Panicked(Box<dyn Any + Send>),
}

/// Producer-side handle passed to the closure given to
/// [`Prefetcher::spawn`]; each [`send`](Feed::send) blocks while the
/// bounded queue is full (that is the backpressure that caps memory at
/// `depth` in-flight items).
pub struct Feed<T> {
    tx: SyncSender<Msg<T>>,
}

impl<T> Feed<T> {
    /// Queues one item, blocking while the buffer is full. Returns `false`
    /// when the consumer is gone (dropped the [`Prefetcher`]); the producer
    /// should stop generating.
    pub fn send(&self, item: T) -> bool {
        self.tx.send(Msg::Item(item)).is_ok()
    }
}

/// A bounded, order-preserving background producer.
///
/// # Examples
///
/// ```
/// use matgnn_data::Prefetcher;
///
/// let mut pf = Prefetcher::spawn(2, |feed| {
///     for i in 0..5u32 {
///         if !feed.send(i * i) {
///             return;
///         }
///     }
/// });
/// let got: Vec<u32> = pf.by_ref().collect();
/// assert_eq!(got, vec![0, 1, 4, 9, 16]);
/// ```
pub struct Prefetcher<T> {
    rx: Option<Receiver<Msg<T>>>,
    handle: Option<JoinHandle<()>>,
}

impl<T: Send + 'static> Prefetcher<T> {
    /// Starts a producer thread running `body` with a [`Feed`] bounded at
    /// `depth` queued items (`depth = 1` double-buffers: one item ready
    /// while the next builds).
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero — a zero-depth pipeline is the synchronous
    /// path, which callers should take directly.
    pub fn spawn<F>(depth: usize, body: F) -> Self
    where
        F: FnOnce(&Feed<T>) + Send + 'static,
    {
        assert!(depth > 0, "prefetch depth must be positive");
        let (tx, rx) = std::sync::mpsc::sync_channel(depth);
        // Propagate the spawner's telemetry rank so producer-side spans
        // (collation, shard reads) attribute to the rank they feed, and
        // its runtime scope.
        let rank = matgnn_telemetry::rank_raw();
        let runtime = matgnn_tensor::runtime::scope_raw();
        let handle = std::thread::Builder::new()
            .name("matgnn-prefetch".into())
            .spawn(move || {
                matgnn_telemetry::set_rank_raw(rank);
                let _runtime = runtime.map(matgnn_tensor::Runtime::enter);
                let feed = Feed { tx };
                if let Err(payload) = catch_unwind(AssertUnwindSafe(|| {
                    let _span = matgnn_telemetry::span("prefetch.producer");
                    body(&feed)
                })) {
                    // Jump the queue bound: the consumer must learn about
                    // the panic even if the buffer is full, so retry after
                    // draining pressure has made room. `Disconnected` means
                    // nobody is listening — swallow the payload.
                    let mut msg = Msg::Panicked(payload);
                    loop {
                        match feed.tx.try_send(msg) {
                            Ok(()) => break,
                            Err(TrySendError::Full(back)) => {
                                msg = back;
                                std::thread::yield_now();
                            }
                            Err(TrySendError::Disconnected(_)) => break,
                        }
                    }
                }
            })
            .expect("spawn prefetch thread");
        Prefetcher {
            rx: Some(rx),
            handle: Some(handle),
        }
    }

    /// Takes the next item, blocking until the producer delivers one.
    /// Returns `None` once the producer finished; re-raises the producer's
    /// panic on this thread if it crashed.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<T> {
        let rx = self.rx.as_ref()?;
        match rx.recv() {
            Ok(Msg::Item(item)) => Some(item),
            Ok(Msg::Panicked(payload)) => {
                // Join first so the thread is reaped before unwinding.
                self.rx = None;
                if let Some(h) = self.handle.take() {
                    let _ = h.join();
                }
                std::panic::resume_unwind(payload);
            }
            Err(_) => {
                self.rx = None;
                if let Some(h) = self.handle.take() {
                    if let Err(payload) = h.join() {
                        std::panic::resume_unwind(payload);
                    }
                }
                None
            }
        }
    }
}

impl<T: Send + 'static> Iterator for Prefetcher<T> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        Prefetcher::next(self)
    }
}

impl<T> std::fmt::Debug for Prefetcher<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Prefetcher")
            .field("open", &self.rx.is_some())
            .finish_non_exhaustive()
    }
}

impl<T> Drop for Prefetcher<T> {
    fn drop(&mut self) {
        // Closing the receiver makes the producer's next send fail, so it
        // exits promptly even mid-epoch; join to reap the thread. A panic
        // that was never observed via `next` is intentionally swallowed —
        // dropping a pipeline mid-run (early stop, error path) must not
        // double-panic.
        self.rx = None;
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order_for_any_depth() {
        for depth in [1, 2, 7] {
            let mut pf = Prefetcher::spawn(depth, |feed| {
                for i in 0..20u32 {
                    if !feed.send(i) {
                        return;
                    }
                }
            });
            let got: Vec<u32> = pf.by_ref().collect();
            assert_eq!(got, (0..20).collect::<Vec<_>>(), "depth {depth}");
        }
    }

    #[test]
    fn early_drop_stops_the_producer() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;

        let produced = Arc::new(AtomicUsize::new(0));
        let p = Arc::clone(&produced);
        let mut pf = Prefetcher::spawn(1, move |feed| {
            for i in 0..1_000_000u64 {
                if !feed.send(i) {
                    return;
                }
                p.fetch_add(1, Ordering::SeqCst);
            }
        });
        assert_eq!(pf.next(), Some(0));
        drop(pf); // joins the producer; must not hang
        assert!(produced.load(Ordering::SeqCst) < 1_000_000);
    }

    #[test]
    fn producer_panic_propagates_to_consumer() {
        let mut pf = Prefetcher::spawn(1, |feed| {
            feed.send(1u32);
            panic!("boom in producer");
        });
        assert_eq!(pf.next(), Some(1));
        let err = catch_unwind(AssertUnwindSafe(|| pf.next())).unwrap_err();
        let msg = err.downcast_ref::<&str>().copied().unwrap_or_default();
        assert!(msg.contains("boom"), "unexpected payload: {msg:?}");
        assert_eq!(pf.next(), None); // after the panic the stream is closed
    }

    #[test]
    fn dropping_unobserved_panic_is_quiet() {
        let pf = Prefetcher::spawn(1, |_feed: &Feed<u32>| panic!("never observed"));
        drop(pf);
    }
}
