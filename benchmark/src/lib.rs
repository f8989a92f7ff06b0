//! The repo benchmark: six workloads, quiet-host rates, exact counts and
//! bench-side layer spans over the DTA reproduction's public API.
//!
//! See `README.md` for what every workload and metric is for, and
//! `../BENCHMARK.json` for the contract the driver holds the numbers to.

pub mod alloc;
pub mod audit;
pub mod gen;
pub mod host;
pub mod metrics;
pub mod pipeline;
pub mod stats;
pub mod trace;
pub mod workloads;
