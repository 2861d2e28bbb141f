//! # heidl-bench — experiment harness
//!
//! Workload generators and measurement helpers shared by the Criterion
//! benches (`benches/`) and the `experiments` table printer
//! (`src/bin/experiments.rs`), which together regenerate every experiment
//! in DESIGN.md's index (T1-T2, E1-E10) and nothing else; and the
//! verdicts of the `pairs` driver (`src/bin/pairs.rs`), which judges a
//! change against its parent from perfbench runs.

#![warn(missing_docs)]

pub mod pairs;
pub mod workload;

pub use workload::*;
