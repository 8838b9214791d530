//! Shared harness for regenerating the paper's tables and figures.
//!
//! Each `fig*`/`table*` binary in `src/bin/` reproduces one experiment from the paper's
//! evaluation section and prints the corresponding rows/series to stdout (and, when the
//! `PARMIS_RESULTS_DIR` environment variable is set, writes the same data as JSON for
//! post-processing). This library holds the pieces they share: experiment configuration from
//! the command line, PaRMIS/baseline runners with consistent budgets, PHV bookkeeping with a
//! common reference point, and plain-text table printing.
//!
//! The crate's tests hold the workspace-wide performance contracts: the heap-allocation
//! counts of the hot loops (`tests/allocation_contracts.rs`) and the bit identity and
//! committed digests of the batched front-sampling engine (`tests/acq_equivalence.rs`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod harness;
pub mod report;

pub use harness::{ExperimentBudget, MethodFront, PhvSummary};
