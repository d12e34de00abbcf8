//! The Koios repository benchmark.
//!
//! `kbench --workload <name> --seed <n> --seconds <s> --trace <0|1>` runs
//! one seeded workload, checks every reply for correctness, prints the
//! report and, as its last line, one JSON object with the result.
//! `kbench compare` sets two groups of result records side by side. See
//! `kbench/README.md` for the workloads, the metrics and what each should
//! move.

pub mod closed;
pub mod compare;
pub mod hits;
pub mod inputs;
pub mod layers;
pub mod report;
pub mod run;
pub mod serve;
pub mod spec;
pub mod stats;
pub mod trace;
