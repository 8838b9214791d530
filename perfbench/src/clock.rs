//! Round latency of an untraced search, measured at the evaluation seam.
//!
//! A round's latency is the time between two successive `evaluate_batch` returns of one
//! search: the pause the search adds between two hardware evaluations, plus the
//! evaluation itself. In a resumed segment the first round counts from the segment start,
//! so checkpoint load, verification and model replay land in that round.

use parmis::evaluation::PolicyEvaluator;
use parmis::objective::Objective;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// An evaluator wrapper that records round latencies (ms) into a shared sink and forwards
/// every call unchanged.
pub struct RoundClock<E> {
    inner: E,
    last_return: Mutex<Option<Instant>>,
    rounds: Arc<Mutex<Vec<f64>>>,
}

impl<E: PolicyEvaluator> RoundClock<E> {
    /// A clock for a fresh search: its first batch (the initial design) only starts the
    /// clock.
    pub fn fresh(inner: E, rounds: Arc<Mutex<Vec<f64>>>) -> Self {
        RoundClock {
            inner,
            last_return: Mutex::new(None),
            rounds,
        }
    }

    /// A clock for a resumed segment: its first round counts from now.
    pub fn resumed(inner: E, rounds: Arc<Mutex<Vec<f64>>>) -> Self {
        RoundClock {
            inner,
            last_return: Mutex::new(Some(Instant::now())),
            rounds,
        }
    }
}

impl<E: PolicyEvaluator> PolicyEvaluator for RoundClock<E> {
    fn parameter_dim(&self) -> usize {
        self.inner.parameter_dim()
    }

    fn parameter_bound(&self) -> f64 {
        self.inner.parameter_bound()
    }

    fn objectives(&self) -> &[Objective] {
        self.inner.objectives()
    }

    fn evaluate(&self, theta: &[f64]) -> parmis::Result<Vec<f64>> {
        self.inner.evaluate(theta)
    }

    fn evaluate_batch(&self, thetas: &[Vec<f64>]) -> parmis::Result<Vec<Vec<f64>>> {
        let values = self.inner.evaluate_batch(thetas);
        let now = Instant::now();
        let mut last = self.last_return.lock().expect("the clock never panics");
        if let Some(previous) = last.replace(now) {
            self.rounds
                .lock()
                .expect("the clock never panics")
                .push(now.duration_since(previous).as_secs_f64() * 1e3);
        }
        values
    }
}
