//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own files, around each call into a layer's
//! public functions. A span has a layer, a start, an end and the span that was open when it
//! started (its parent). Self time is a span's duration minus the part its children cover,
//! so nested spans (NSGA-II around its RFF evaluation callbacks, a round around its phases)
//! never count twice.

use std::time::{Duration, Instant};

/// The layer boundaries the traced run records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// One whole search (root span).
    Search,
    /// One model-guided round of Algorithm 1.
    Round,
    /// `gp::hyperopt::fit_with_hyperopt`: a from-scratch refit with hyperparameter search.
    Hyperopt,
    /// `GaussianProcess::with_observations_and_targets`: the incremental model update.
    Extend,
    /// `RffSampler::new`: building the posterior weight distribution.
    RffBuild,
    /// `RffSampler::sample_with`: drawing one posterior function.
    RffDraw,
    /// `Nsga2Engine::solve`: the front-sampling solve (its callback is `RffEval`).
    Nsga2,
    /// `PosteriorSample::eval_batch_into`: one population evaluation of a sampled function.
    RffEval,
    /// `AcquisitionOptimizer::maximize_batch`: scoring the candidate pool (Eq. 9).
    Acquisition,
    /// `PolicyEvaluator::evaluate_batch`: running policies on the simulated SoC.
    Evaluation,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 10] = [
        Layer::Search,
        Layer::Round,
        Layer::Hyperopt,
        Layer::Extend,
        Layer::RffBuild,
        Layer::RffDraw,
        Layer::Nsga2,
        Layer::RffEval,
        Layer::Acquisition,
        Layer::Evaluation,
    ];

    /// Whether time spent directly in this span is glue outside any measured layer.
    pub fn is_glue(self) -> bool {
        matches!(self, Layer::Search | Layer::Round)
    }
}

#[derive(Debug, Clone)]
struct Span {
    layer: Layer,
    parent: Option<usize>,
    start: Instant,
    end: Option<Instant>,
}

/// The spans of one traced pass.
#[derive(Debug, Default)]
pub struct Trace {
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Trace {
    /// Opens a span of `layer` whose parent is the innermost open span.
    pub fn open(&mut self, layer: Layer) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            layer,
            parent: self.open.last().copied(),
            start: Instant::now(),
            end: None,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open span.
    pub fn close(&mut self, id: usize) {
        let end = Instant::now();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end = Some(end);
    }

    /// Self time per layer, in [`Layer::ALL`] order.
    pub fn self_times(&self) -> Vec<(Layer, Duration)> {
        let duration = |s: &Span| {
            s.end
                .expect("every span is closed before reporting")
                .duration_since(s.start)
        };
        let mut children = vec![Duration::ZERO; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children[parent] += duration(span);
            }
        }
        Layer::ALL
            .iter()
            .map(|&layer| {
                let total = self
                    .spans
                    .iter()
                    .zip(&children)
                    .filter(|(s, _)| s.layer == layer)
                    .map(|(s, c)| duration(s).saturating_sub(*c))
                    .sum();
                (layer, total)
            })
            .collect()
    }

    /// Self time of one layer.
    pub fn self_time(&self, layer: Layer) -> Duration {
        self.self_times()
            .into_iter()
            .find(|(l, _)| *l == layer)
            .map(|(_, d)| d)
            .unwrap_or_default()
    }

    /// Total self time of every measured (non-glue) layer.
    pub fn covered(&self) -> Duration {
        self.self_times()
            .into_iter()
            .filter(|(l, _)| !l.is_glue())
            .map(|(_, d)| d)
            .sum()
    }

    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut trace = Trace::default();
        let outer = trace.open(Layer::Nsga2);
        let inner = trace.open(Layer::RffEval);
        std::thread::sleep(Duration::from_millis(5));
        trace.close(inner);
        trace.close(outer);
        let nsga = trace.self_time(Layer::Nsga2);
        let eval = trace.self_time(Layer::RffEval);
        assert!(eval >= Duration::from_millis(5));
        assert!(nsga < eval);
        assert_eq!(trace.covered(), nsga + eval);
    }
}
