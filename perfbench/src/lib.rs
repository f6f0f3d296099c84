//! Whole-study benchmark of the Melissa workspace.
//!
//! Runs a named workload for a fixed time, checks its statistics against
//! a reference, and reports end-to-end metrics — or, traced, a per-layer
//! ledger recorded at the boundaries of the program's public entry
//! points.  See `README.md` for the workloads, the metrics and how the
//! phases are cut.

pub mod bench;
pub mod check;
pub mod host;
pub mod layers;
pub mod trace;
pub mod workload;
pub mod wrap;
