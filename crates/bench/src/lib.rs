//! # heidl-bench — experiment harness
//!
//! Workload generators and measurement helpers shared by the Criterion
//! benches (`benches/`) and the `experiments` table printer
//! (`src/bin/experiments.rs`), which together regenerate every experiment
//! in DESIGN.md's index (T1-T2, E1-E10).

#![warn(missing_docs)]

pub mod pairs;
pub mod workload;

pub use workload::*;
