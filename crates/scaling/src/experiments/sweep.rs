//! The one sweep runner behind the training experiments (DESIGN.md §3).
//!
//! The paper's evidence is a grid of independent trainings (Sec. IV).
//! [`Sweep::prepare`] does the shared data half once; each point runs
//! [`train_and_evaluate`]; [`run`] runs the points on the host's cores,
//! each worker with a pool of 1, and returns results in point order,
//! bitwise equal to the serial loop. Progress lines and `MATGNN_LEDGER`
//! records come out in completion order.

use std::sync::atomic::{AtomicUsize, Ordering};

use matgnn_data::{Dataset, Normalizer};
use matgnn_model::Egnn;
use matgnn_telemetry::RankScope;
use matgnn_tensor::Runtime;
use matgnn_train::{evaluate, EvalMetrics, TrainConfig, TrainReport, Trainer};

use crate::ExperimentConfig;

/// The data every point of an experiment shares: one aggregate split into
/// a training pool and a held-out test set, and the label normalizer
/// fitted on the training pool.
#[derive(Debug)]
pub struct Sweep {
    /// The training split; every TB subset is drawn from it.
    pub train: Dataset,
    /// The held-out test set every point is evaluated on.
    pub test: Dataset,
    /// Label normalizer fitted on `train`, shared by every point.
    pub normalizer: Normalizer,
    seed: u64,
}

impl Sweep {
    /// Generates the aggregate, splits off the test set and fits the
    /// shared normalizer.
    pub fn prepare(cfg: &ExperimentConfig) -> Sweep {
        let n_graphs = cfg.units.aggregate_graphs();
        cfg.progress(&format!("generating aggregate of {n_graphs} graphs"));
        let aggregate = Dataset::generate_aggregate(n_graphs, cfg.seed, &cfg.generator());
        let (train, test) = aggregate.split_test(cfg.test_fraction, cfg.seed ^ 0xBEEF);
        let normalizer = Normalizer::fit(&train);
        Sweep {
            train,
            test,
            normalizer,
            seed: cfg.seed,
        }
    }

    /// The training subset for `tb` paper-terabytes.
    pub fn subset(&self, tb: f64) -> Dataset {
        self.train.subsample_tb(tb, self.seed ^ 0xDA7A)
    }
}

/// Trains `model` on `train` under `tc` and evaluates it on `test`, with
/// `tc`'s loss and batch size. Returns the trained model, its training
/// report and its test metrics.
pub fn train_and_evaluate(
    mut model: Egnn,
    train: &Dataset,
    test: &Dataset,
    tc: TrainConfig,
    normalizer: &Normalizer,
) -> (Egnn, TrainReport, EvalMetrics) {
    let report = Trainer::new(tc).fit(&mut model, train, None, normalizer);
    let metrics = evaluate(&model, test, normalizer, &tc.loss, tc.batch_size);
    (model, report, metrics)
}

/// Runs `f` on every point, concurrently when the current [`Runtime`]
/// has more than one thread, and returns the results in point order (see
/// the module docs for the contract). A panic in `f` is re-raised on the
/// caller's thread.
pub fn run<P: Sync, R: Send>(points: &[P], f: impl Fn(&P) -> R + Sync) -> Vec<R> {
    let rt = Runtime::current();
    let workers = rt.threads.min(points.len());
    if workers <= 1 {
        return points.iter().map(f).collect();
    }
    let rank = matgnn_telemetry::rank_raw();
    let next = AtomicUsize::new(0);
    let worker = || {
        let _rt = rt.with_threads(1).enter();
        let _rank = RankScope::adopt(rank);
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(point) = points.get(i) else {
                return done;
            };
            done.push((i, f(point)));
        }
    };
    let mut done: Vec<(usize, R)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers).map(|_| s.spawn(worker)).collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_scaling_grid, UnitMap};

    fn tiny_config() -> ExperimentConfig {
        ExperimentConfig {
            units: UnitMap {
                graphs_per_tb: 40.0,
                ..Default::default()
            },
            epochs: 1,
            model_sizes: vec![200, 1_000],
            tb_points: vec![0.4, 1.2],
            verbose: false,
            ..ExperimentConfig::quick()
        }
    }

    #[test]
    fn grid_is_bitwise_equal_at_every_worker_count() {
        let losses = |threads: usize| {
            let _rt = Runtime::current().with_threads(threads).enter();
            let grid = run_scaling_grid(&tiny_config());
            grid.points
                .iter()
                .map(|p| {
                    (
                        p.actual_params,
                        p.tb.to_bits(),
                        p.train_loss.to_bits(),
                        p.test_loss.to_bits(),
                    )
                })
                .collect::<Vec<_>>()
        };
        let serial = losses(1);
        assert_eq!(serial.len(), 4);
        for threads in [2, 3] {
            assert_eq!(losses(threads), serial, "{threads} workers");
        }
    }

    #[test]
    fn results_come_back_in_point_order_when_later_points_finish_first() {
        let _rt = Runtime::current().with_threads(2).enter();
        let points: Vec<usize> = (0..4).collect();
        let finished = std::sync::Mutex::new(Vec::new());
        let out = run(&points, |&p| {
            // Point 0 holds its worker until the other worker has
            // finished every later point.
            while p == 0 && finished.lock().unwrap().len() < 3 {
                std::thread::yield_now();
            }
            finished.lock().unwrap().push(p);
            (p * 10, Runtime::current().threads)
        });
        assert_eq!(*finished.lock().unwrap(), [1, 2, 3, 0]);
        assert_eq!(out, [(0, 1), (10, 1), (20, 1), (30, 1)]);
    }

    #[test]
    fn one_worker_runs_inline_under_the_callers_scope() {
        let _rt = Runtime::current().with_threads(4).enter();
        let caller = std::thread::current().id();
        let out = run(&[()], |_| {
            (std::thread::current().id(), Runtime::current().threads)
        });
        assert_eq!(out, [(caller, 4)]);
    }
}
