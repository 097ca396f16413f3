//! Workload generation, throughput measurement, and correctness checking
//! for the Valois reproduction experiments (DESIGN.md §4, E1–E10).
//!
//! * [`workload`] — operation mixes, key distributions, prefilling.
//! * [`runner`] — multi-threaded duration-based throughput runs with
//!   optional stall injection (the E2 preemption model).
//! * [`linearize`] — a Wing–Gong-style exhaustive linearizability checker
//!   for small recorded histories (validates the §2.1 requirement).
//! * [`table`] — fixed-width table printing for paper-style experiment
//!   output.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod latency;
pub mod linearize;
pub mod retry;
pub mod runner;
pub mod table;
pub mod workload;

pub use latency::{LatencyHistogram, LatencySummary};
pub use linearize::{check_linearizable, History, Op, Recorded};
pub use retry::{run_hot_window, HotWindowConfig, HotWindowResult};
pub use runner::{run_fill, run_throughput, FillResult, RunConfig, RunResult};
pub use table::Table;
pub use workload::{KeyDist, OpKind, OpMix, WorkloadSpec};
