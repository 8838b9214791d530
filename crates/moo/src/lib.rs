//! Multi-objective optimization toolkit for the PaRMIS reproduction.
//!
//! The PaRMIS framework (and its RL/IL baselines) need a small set of multi-objective
//! primitives, all assuming **minimization** of every objective:
//!
//! * [`dominance`] — Pareto-dominance tests and non-dominated filtering.
//! * [`front`] — the [`ParetoFront`] container that incrementally maintains a non-dominated
//!   archive of points and their tags (e.g. policy parameters).
//! * [`hypervolume`](mod@hypervolume) — the Pareto hypervolume (PHV) quality indicator used throughout the
//!   paper's evaluation (exact 2-D sweep plus a recursive WFG-style algorithm for `k > 2`).
//! * [`nsga2`] — the NSGA-II evolutionary algorithm used by PaRMIS to solve the cheap
//!   multi-objective problem over sampled GP posterior functions (paper §IV-B step 1):
//!   SBX crossover (p_c = 0.9 per pair, ½ per gene, η_c = 15) and polynomial mutation
//!   (1/d per gene, η_m = 20), bred by a variation step that draws one coin word per 64
//!   genes, one uniform per crossed gene and geometric mutation gaps, and computes the
//!   spread factors and children in branch-free passes (see the module docs for the draw
//!   schedule).
//! * [`scalarize`] — linear and Tchebycheff scalarizations used by the RL/IL baselines.
//!
//! # Examples
//!
//! ```
//! use moo::front::ParetoFront;
//! use moo::hypervolume::hypervolume;
//!
//! let mut front = ParetoFront::new(2);
//! front.insert(vec![1.0, 4.0], 0usize);
//! front.insert(vec![2.0, 2.0], 1usize);
//! front.insert(vec![4.0, 1.0], 2usize);
//! front.insert(vec![3.0, 3.0], 3usize); // dominated by (2, 2)
//! assert_eq!(front.len(), 3);
//!
//! let phv = hypervolume(front.objective_values(), &[5.0, 5.0]);
//! assert!(phv > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dominance;
pub mod front;
pub mod hypervolume;
pub mod nsga2;
pub mod scalarize;
pub mod stats;

pub use dominance::{dominates, non_dominated_indices, Dominance, DominanceScratch};
pub use front::ParetoFront;
pub use hypervolume::hypervolume;
pub use nsga2::{FlatPopulation, Nsga2, Nsga2Config, Nsga2Engine};
pub use scalarize::{Scalarization, WeightVector};
