//! Rank-local hang supervision: a heartbeat each rank publishes as it
//! makes step progress, and a watchdog thread that escalates when the
//! heartbeat goes stale.
//!
//! This is deliberately distinct from the hard per-collective rendezvous
//! timeout (PR 1): a rank blocked *inside* a collective is waiting on its
//! peers — that is the rendezvous timeout's jurisdiction, and the
//! heartbeat is marked **parked** for the duration so the watchdog stays
//! quiet. The watchdog only fires when a rank is supposed to be
//! *computing* (not parked in any wait) yet has not beaten within the
//! progress deadline — a wedged data loader, an OS-level stall, or the
//! injected [`crate::FaultKind::Hang`]. Escalation is a telemetry health
//! event followed by poisoning the group through a
//! [`FailureHandle`](crate::collective::FailureHandle), which wakes every
//! peer with `RankFailed` and hands control to the existing elastic
//! recovery path (`split_survivors` + checkpoint reload).

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::collective::FailureHandle;

/// A rank's step-progress pulse, shared between the training thread (which
/// beats), the collective wait loops (which park around blocking waits),
/// and the [`Watchdog`] (which reads).
#[derive(Debug)]
pub struct Heartbeat {
    /// Reference instant; beats are stored as microseconds since it.
    epoch: Instant,
    /// Microseconds-since-epoch of the most recent beat.
    last_beat_us: AtomicU64,
    /// Number of blocking waits currently in progress (collective
    /// rendezvous, survivor splits, bucket sessions). While non-zero the
    /// rank is waiting on peers, not stalled, and the watchdog holds fire.
    parked: AtomicUsize,
    /// Set when the rank is done; tells the watchdog to exit.
    done: AtomicBool,
}

impl Heartbeat {
    /// A fresh heartbeat that counts as having just beaten.
    pub fn new() -> Arc<Heartbeat> {
        Arc::new(Heartbeat {
            epoch: Instant::now(),
            last_beat_us: AtomicU64::new(0),
            parked: AtomicUsize::new(0),
            done: AtomicBool::new(false),
        })
    }

    /// Publishes progress: resets the staleness clock.
    pub fn beat(&self) {
        self.last_beat_us
            .store(self.epoch.elapsed().as_micros() as u64, Ordering::Release);
    }

    /// Time since the most recent beat.
    pub fn lag(&self) -> Duration {
        let now = self.epoch.elapsed().as_micros() as u64;
        Duration::from_micros(now.saturating_sub(self.last_beat_us.load(Ordering::Acquire)))
    }

    /// Enters a blocking wait: the watchdog must not count time spent
    /// here as a stall. Calls nest (bucket thread + training thread).
    pub fn park(&self) {
        self.parked.fetch_add(1, Ordering::AcqRel);
    }

    /// Leaves a blocking wait; completing a wait is itself progress, so
    /// this beats before unparking.
    pub fn unpark(&self) {
        self.beat();
        self.parked.fetch_sub(1, Ordering::AcqRel);
    }

    /// Whether any blocking wait is in progress.
    pub fn is_parked(&self) -> bool {
        self.parked.load(Ordering::Acquire) > 0
    }

    /// Tells the watchdog the rank finished (cleanly or not).
    pub fn mark_done(&self) {
        self.done.store(true, Ordering::Release);
    }

    /// Whether [`mark_done`](Self::mark_done) was called.
    pub fn is_done(&self) -> bool {
        self.done.load(Ordering::Acquire)
    }
}

/// RAII park scope: parks on construction, beats-and-unparks on drop (any
/// exit path of the enclosing wait, success or error).
pub(crate) struct ParkGuard {
    hb: Arc<Heartbeat>,
}

impl ParkGuard {
    pub(crate) fn new(hb: Arc<Heartbeat>) -> Self {
        hb.park();
        ParkGuard { hb }
    }
}

impl Drop for ParkGuard {
    fn drop(&mut self) {
        self.hb.unpark();
    }
}

/// Per-rank hang watchdog: a thread polling one rank's [`Heartbeat`] and
/// poisoning the group when the rank stalls outside a collective for
/// longer than the progress deadline.
#[derive(Debug)]
pub struct Watchdog {
    handle: Option<JoinHandle<()>>,
    fired: Arc<AtomicBool>,
    /// Stop signal owned by this watchdog alone — *not* the heartbeat's
    /// `done` flag, which is shared and sticky: stopping one watchdog
    /// (e.g. to re-arm after an elastic re-form) must not kill its
    /// replacement on the same heartbeat.
    stop: Arc<AtomicBool>,
}

impl Watchdog {
    /// Spawns a watchdog for `hb` with the given progress `deadline`.
    /// When it fires it emits a `supervisor.watchdog` health event,
    /// bumps the `supervisor.watchdog_fired` counter, publishes the
    /// observed heartbeat lag, and poisons the group via `poison` so
    /// every peer unwinds into elastic recovery.
    pub fn spawn(
        label: String,
        hb: Arc<Heartbeat>,
        deadline: Duration,
        poison: FailureHandle,
    ) -> Watchdog {
        let fired = Arc::new(AtomicBool::new(false));
        let fired_flag = Arc::clone(&fired);
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let beat = hb;
        // Poll fast enough to catch a lapse promptly without burning a
        // core: a quarter of the deadline, capped at 50 ms.
        let poll = (deadline / 4)
            .min(Duration::from_millis(50))
            .max(Duration::from_millis(1));
        let telemetry_rank = matgnn_telemetry::rank_raw();
        let runtime = matgnn_tensor::runtime::scope_raw();
        let handle = std::thread::Builder::new()
            .name(format!("matgnn-watchdog-{label}"))
            .spawn(move || {
                matgnn_telemetry::set_rank_raw(telemetry_rank);
                let _runtime = runtime.map(matgnn_tensor::Runtime::enter);
                loop {
                    if stop_flag.load(Ordering::Acquire) || beat.is_done() {
                        return;
                    }
                    let lag = beat.lag();
                    if !beat.is_parked() && lag > deadline {
                        matgnn_telemetry::health_event(
                            "supervisor.watchdog",
                            &format!(
                                "{label}: no step progress for {}ms (deadline {}ms); \
                                 poisoning group for elastic recovery",
                                lag.as_millis(),
                                deadline.as_millis()
                            ),
                        );
                        matgnn_telemetry::counter_add("supervisor.watchdog_fired", 1);
                        matgnn_telemetry::gauge_set(
                            format!("supervisor.{label}.heartbeat_lag_us"),
                            lag.as_micros() as f64,
                        );
                        poison.poison();
                        fired_flag.store(true, Ordering::Release);
                        return;
                    }
                    std::thread::sleep(poll);
                }
            })
            .expect("spawn watchdog thread");
        Watchdog {
            handle: Some(handle),
            fired,
            stop,
        }
    }

    /// Whether the watchdog has fired (group poisoned by this rank).
    pub fn fired(&self) -> bool {
        self.fired.load(Ordering::Acquire)
    }

    /// Stops the watchdog and joins its thread, returning whether it
    /// fired at any point.
    pub fn stop(mut self) -> bool {
        self.stop.store(true, Ordering::Release);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
        self.fired.load(Ordering::Acquire)
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Communicator, CostModel};

    #[test]
    fn beats_keep_the_lag_small() {
        let hb = Heartbeat::new();
        std::thread::sleep(Duration::from_millis(5));
        assert!(hb.lag() >= Duration::from_millis(4));
        hb.beat();
        assert!(hb.lag() < Duration::from_millis(5));
    }

    #[test]
    fn park_guard_nests_and_beats_on_exit() {
        let hb = Heartbeat::new();
        {
            let _outer = ParkGuard::new(Arc::clone(&hb));
            assert!(hb.is_parked());
            {
                let _inner = ParkGuard::new(Arc::clone(&hb));
                assert!(hb.is_parked());
            }
            assert!(hb.is_parked());
            std::thread::sleep(Duration::from_millis(3));
        }
        assert!(!hb.is_parked());
        // The guard beat on exit: the stall clock restarted.
        assert!(hb.lag() < Duration::from_millis(3));
    }

    #[test]
    fn watchdog_fires_on_a_silent_rank_and_poisons_the_group() {
        let mut comms = Communicator::create(2, CostModel::default());
        let hb = Heartbeat::new();
        let dog = Watchdog::spawn(
            "rank0".into(),
            Arc::clone(&hb),
            Duration::from_millis(20),
            comms[0].failure_handle(),
        );
        // No beats, not parked: the deadline lapses and the group dies.
        let start = Instant::now();
        while !dog.fired() && start.elapsed() < Duration::from_secs(5) {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(dog.stop(), "watchdog never fired");
        assert!(comms[0].is_poisoned(), "group was not poisoned");
        assert!(comms[1].barrier().is_err(), "peers must fail fast");
    }

    #[test]
    fn watchdog_stays_quiet_while_parked_or_beating() {
        let comms = Communicator::create(1, CostModel::default());
        let hb = Heartbeat::new();
        let dog = Watchdog::spawn(
            "rank0".into(),
            Arc::clone(&hb),
            Duration::from_millis(15),
            comms[0].failure_handle(),
        );
        // Beating regularly: never fires.
        for _ in 0..6 {
            hb.beat();
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(!dog.fired());
        // Parked (blocked in a collective): never fires even when stale.
        hb.park();
        std::thread::sleep(Duration::from_millis(40));
        assert!(!dog.fired());
        hb.unpark();
        assert!(!dog.stop(), "watchdog fired spuriously");
        assert!(!comms[0].is_poisoned());
    }
}
