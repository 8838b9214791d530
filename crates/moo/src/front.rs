//! Incrementally maintained Pareto-front archive.

use crate::dominance::dominates;

/// A single entry of a [`ParetoFront`]: an objective vector plus a user-supplied tag.
#[derive(Debug, Clone, PartialEq)]
pub struct FrontEntry<T> {
    /// Objective values of the entry (minimization).
    pub objectives: Vec<f64>,
    /// User payload, e.g. the policy parameters that produced the objectives.
    pub tag: T,
}

/// Non-dominated archive of objective vectors with attached payloads.
///
/// Used throughout the workspace to accumulate the Pareto-frontier DRM policies found during
/// a PaRMIS/RL/IL run: the tag carries the policy parameters, the objective vector carries
/// (execution time, energy) or (execution time, -PPW), always as minimization objectives.
///
/// # Examples
///
/// ```
/// use moo::ParetoFront;
///
/// let mut front: ParetoFront<&str> = ParetoFront::new(2);
/// assert!(front.insert(vec![2.0, 2.0], "balanced"));
/// assert!(front.insert(vec![1.0, 4.0], "fast"));
/// assert!(!front.insert(vec![3.0, 3.0], "dominated"));
/// assert_eq!(front.len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct ParetoFront<T> {
    dim: usize,
    entries: Vec<FrontEntry<T>>,
}

impl<T> ParetoFront<T> {
    /// Creates an empty front for objective vectors of length `dim`.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "objective dimension must be positive");
        ParetoFront {
            dim,
            entries: Vec::new(),
        }
    }

    /// Number of objectives tracked by the front.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of non-dominated entries currently stored.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if the front holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Attempts to insert a point. Returns `true` if the point was added (i.e. it is not
    /// dominated by any archived point); dominated archive members are evicted.
    ///
    /// Points equal to an existing entry are treated as dominated and rejected, keeping the
    /// archive free of duplicates.
    ///
    /// # Panics
    ///
    /// Panics if `objectives.len() != self.dim()` or if any value is NaN.
    pub fn insert(&mut self, objectives: Vec<f64>, tag: T) -> bool {
        assert_eq!(
            objectives.len(),
            self.dim,
            "objective vector has wrong dimension"
        );
        assert!(
            objectives.iter().all(|v| !v.is_nan()),
            "objective values must not be NaN"
        );
        for e in &self.entries {
            if dominates(&e.objectives, &objectives) || e.objectives == objectives {
                return false;
            }
        }
        self.entries
            .retain(|e| !dominates(&objectives, &e.objectives));
        self.entries.push(FrontEntry { objectives, tag });
        true
    }

    /// Returns `true` if `objectives` would be accepted by [`insert`](Self::insert) without
    /// modifying the front.
    pub fn would_accept(&self, objectives: &[f64]) -> bool {
        assert_eq!(objectives.len(), self.dim);
        !self
            .entries
            .iter()
            .any(|e| dominates(&e.objectives, objectives) || e.objectives == objectives)
    }

    /// Iterates over the archived entries in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &FrontEntry<T>> {
        self.entries.iter()
    }

    /// Returns the archived objective vectors.
    pub fn objective_values(&self) -> Vec<Vec<f64>> {
        self.entries.iter().map(|e| e.objectives.clone()).collect()
    }

    /// Returns the archived tags in insertion order.
    pub fn tags(&self) -> Vec<&T> {
        self.entries.iter().map(|e| &e.tag).collect()
    }

    /// Returns, for each objective, the worst (maximum) archived value. Useful for choosing a
    /// hypervolume reference point. Returns `None` when the front is empty.
    pub fn nadir(&self) -> Option<Vec<f64>> {
        if self.entries.is_empty() {
            return None;
        }
        let mut worst = vec![f64::NEG_INFINITY; self.dim];
        for e in &self.entries {
            for (w, v) in worst.iter_mut().zip(&e.objectives) {
                *w = w.max(*v);
            }
        }
        Some(worst)
    }

    /// Returns, for each objective, the best (minimum) archived value (the ideal point).
    /// Returns `None` when the front is empty.
    pub fn ideal(&self) -> Option<Vec<f64>> {
        if self.entries.is_empty() {
            return None;
        }
        let mut best = vec![f64::INFINITY; self.dim];
        for e in &self.entries {
            for (b, v) in best.iter_mut().zip(&e.objectives) {
                *b = b.min(*v);
            }
        }
        Some(best)
    }

    /// Returns the entry whose objectives minimize the supplied scalarization, or `None` for
    /// an empty front. This is the runtime policy-selection step of the paper (§V-A): given a
    /// user preference expressed as a scalarization, pick the matching Pareto policy.
    pub fn select_by<F: Fn(&[f64]) -> f64>(&self, score: F) -> Option<&FrontEntry<T>> {
        self.entries.iter().min_by(|a, b| {
            score(&a.objectives)
                .partial_cmp(&score(&b.objectives))
                .unwrap_or(std::cmp::Ordering::Equal)
        })
    }
}

impl<T> Extend<(Vec<f64>, T)> for ParetoFront<T> {
    fn extend<I: IntoIterator<Item = (Vec<f64>, T)>>(&mut self, iter: I) {
        for (obj, tag) in iter {
            self.insert(obj, tag);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_keeps_only_non_dominated() {
        let mut f = ParetoFront::new(2);
        assert!(f.insert(vec![5.0, 5.0], 'a'));
        assert!(f.insert(vec![1.0, 6.0], 'b'));
        // Dominates 'a': evicts it.
        assert!(f.insert(vec![4.0, 4.0], 'c'));
        assert_eq!(f.len(), 2);
        assert!(!f.iter().any(|e| e.tag == 'a'));
        // Dominated: rejected.
        assert!(!f.insert(vec![4.5, 4.5], 'd'));
        assert_eq!(f.len(), 2);
    }

    #[test]
    fn duplicate_points_rejected() {
        let mut f = ParetoFront::new(2);
        assert!(f.insert(vec![1.0, 2.0], 0));
        assert!(!f.insert(vec![1.0, 2.0], 1));
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn would_accept_matches_insert_behaviour() {
        let mut f = ParetoFront::new(2);
        f.insert(vec![2.0, 2.0], ());
        assert!(f.would_accept(&[1.0, 3.0]));
        assert!(!f.would_accept(&[3.0, 3.0]));
        assert!(!f.would_accept(&[2.0, 2.0]));
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn nadir_and_ideal() {
        let mut f = ParetoFront::new(2);
        assert!(f.nadir().is_none());
        assert!(f.ideal().is_none());
        f.insert(vec![1.0, 4.0], ());
        f.insert(vec![3.0, 2.0], ());
        assert_eq!(f.nadir().unwrap(), vec![3.0, 4.0]);
        assert_eq!(f.ideal().unwrap(), vec![1.0, 2.0]);
    }

    #[test]
    fn select_by_weighted_sum() {
        let mut f = ParetoFront::new(2);
        f.insert(vec![1.0, 10.0], "perf");
        f.insert(vec![10.0, 1.0], "energy");
        let perf_pref = f.select_by(|o| 0.9 * o[0] + 0.1 * o[1]).unwrap();
        assert_eq!(perf_pref.tag, "perf");
        let energy_pref = f.select_by(|o| 0.1 * o[0] + 0.9 * o[1]).unwrap();
        assert_eq!(energy_pref.tag, "energy");
    }

    #[test]
    fn extend_inserts_all() {
        let mut f = ParetoFront::new(2);
        f.extend(vec![
            (vec![1.0, 5.0], 0),
            (vec![5.0, 1.0], 1),
            (vec![6.0, 6.0], 2),
        ]);
        assert_eq!(f.len(), 2);
        assert_eq!(f.tags().len(), 2);
    }

    #[test]
    #[should_panic]
    fn insert_rejects_nan() {
        let mut f = ParetoFront::new(2);
        f.insert(vec![f64::NAN, 1.0], ());
    }

    #[test]
    #[should_panic]
    fn zero_dim_front_panics() {
        let _: ParetoFront<()> = ParetoFront::new(0);
    }
}
