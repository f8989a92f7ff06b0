//! Telemetry monitoring systems and workloads.
//!
//! DTA is a *collection* system: the actual telemetry is produced by
//! existing monitoring systems running on switches. Table 2 of the paper
//! maps each state-of-the-art system onto a DTA primitive
//! ([`TABLE2_INTEGRATIONS`]); this crate implements the producers the
//! examples and `repro` experiments run, covering all four primitives:
//!
//! * [`int`] — In-band Network Telemetry: XD/MX postcards, MD path tracing,
//!   congestion events.
//! * [`marple`] — Marple queries: flowlet sizes, TCP timeouts, lossy flows,
//!   host counters.
//! * [`netseer`] — NetSeer loss events (18 B, Append).
//! * [`trajectory`] — Trajectory Sampling path labels (Postcarding).
//! * [`traces`] — synthetic data-center traffic (heavy-tailed flows, Zipf
//!   popularity) standing in for the Benson et al. traces of §6.1.
//! * [`rates`] — the Table 1 per-switch report-rate model.

pub mod int;
pub mod marple;
pub mod netseer;
pub mod rates;
pub mod traces;
pub mod trajectory;

pub use rates::{MonitoringSystem, ReportRateModel};
pub use traces::{TracePacket, TraceConfig, TraceGenerator};

/// Every Table 2 integration: `(system, monitoring task, primitive)`.
/// Exercised by the T2 experiment to prove primitive coverage.
pub const TABLE2_INTEGRATIONS: &[(&str, &str, &str)] = &[
    ("INT-MD", "Path Tracing", "Key-Write"),
    ("Marple", "Host counters (non-merging)", "Key-Write"),
    ("PacketScope", "Flow troubleshooting", "Key-Write"),
    ("PINT", "Per-flow queries", "Key-Write"),
    ("Sonata", "Per-query results", "Key-Write"),
    ("INT-XD/MX", "Path Measurements", "Postcarding"),
    ("Trajectory Sampling", "Path Frequencies", "Postcarding"),
    ("dShark", "Parser-Grouper transfer", "Append"),
    ("INT", "Congestion events", "Append"),
    ("Marple", "Lossy connections", "Append"),
    ("NetSeer", "Loss events", "Append"),
    ("PacketScope", "Pipeline-loss insight", "Append"),
    ("Sonata", "Raw data transfer", "Append"),
    ("Marple", "Host counters (addition)", "Key-Increment"),
    ("TurboFlow", "Per-flow counters", "Key-Increment"),
];
