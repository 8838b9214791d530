//! Shared harness for regenerating the paper's tables and figures.
//!
//! Each `fig*`/`table*` binary in `src/bin/` reproduces one experiment from the paper's
//! evaluation section and prints the corresponding rows/series to stdout (and, when the
//! `PARMIS_RESULTS_DIR` environment variable is set, writes the same data as JSON for
//! post-processing). This library holds the pieces they share: experiment configuration from
//! the command line, PaRMIS/baseline runners with consistent budgets, PHV bookkeeping with a
//! common reference point, and plain-text table printing.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod harness;
pub mod report;
pub mod seedpath;

pub use harness::{ExperimentBudget, MethodFront, PhvSummary};
