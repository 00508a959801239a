//! # gv-harness — experiment drivers for every table and figure
//!
//! * [`scenario`] — assemble node + device + SPMD group, run one experiment
//! * [`turnaround`] — 1–8-process sweeps (Figs. 9, 11–15) and speedups
//!   (Table III experimental half, Fig. 16)
//! * [`profile`] — microbenchmark profiling (Table II)
//! * [`overhead`] — virtualization-overhead sweep (Fig. 10)
//! * [`analysis`] — the `--analyze` pass: `gv-analyze` checkers over traces
//! * [`sched`] — GVM scheduling-policy sweeps (beyond the paper)
//! * [`cluster`] — cluster placement-policy sweeps (beyond the paper)
//! * [`pipeline`] — chunked staging/copy pipeline sweeps (beyond the paper)
//! * [`explore`] — schedule exploration over the `gv-analyze` catalog
//! * [`report`] — text/CSV/JSON emission, artifacts and reports
//! * [`repro`] — the paper's tables and figures, and the experiment
//!   registry
//!
//! One binary, `repro <experiment> [flags]`, runs any entry of
//! [`repro::REGISTRY`]; `repro --help` lists them and their flags.
//! `--quick` makes any of them a scaled-down smoke run.

#![warn(missing_docs)]

pub mod ablation;
pub mod analysis;
pub mod cluster;
pub mod coalesce;
pub mod explore;
pub mod ft;
pub mod overhead;
pub mod pipeline;
pub mod profile;
pub mod quota;
pub mod remote_compare;
pub mod report;
pub mod repro;
pub mod scenario;
pub mod sched;
pub mod sensitivity;
pub mod timeline;
pub mod turnaround;
pub mod zerocopy;

pub use scenario::{ExecutionMode, ExperimentResult, Scenario};
pub use turnaround::{sweep, TurnaroundConfig, TurnaroundPoint, TurnaroundSeries};
