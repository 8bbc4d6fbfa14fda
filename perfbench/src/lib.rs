//! End-to-end and per-layer benchmark of the hepquery workspace.
//!
//! `perfbench --workload <interactive|batch> --seed N --seconds S
//! --trace <0|1>` sets the workload up, measures it for `S` seconds,
//! checks every output against the reference implementation and prints
//! one JSON result line last. See `README.md` in this directory.

pub mod catalog;
pub mod check;
pub mod closed;
pub mod data;
pub mod layers;
pub mod ops;
pub mod report;
pub mod run;
pub mod serving;
pub mod stats;
pub mod trace;
