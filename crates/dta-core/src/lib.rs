//! The DTA wire protocol.
//!
//! Direct Telemetry Access (SIGCOMM 2023) defines a lightweight UDP-based
//! protocol spoken between telemetry *reporters* (switches) and the
//! *translator* (the collector's last-hop switch). A DTA report is a normal
//! UDP datagram whose payload carries two DTA-specific headers (Figure 4 of
//! the paper):
//!
//! ```text
//! | Eth | IP | UDP | DTA header | primitive sub-header | telemetry payload |
//! ```
//!
//! The DTA header selects one of the four collection primitives; the
//! primitive sub-header carries its parameters (key, redundancy, list id,
//! hop number, ...). The translator consumes these headers and replaces them
//! with RoCEv2 headers when generating the RDMA operation.
//!
//! This crate is the single source of truth for the wire format. It contains
//! no I/O and no simulation: just types, encoding, decoding, and the
//! recycling [`ImagePool`] the wire path writes its buffers into.

// Lint floor (enforced by `dta-lint` + clippy -D warnings, see DESIGN.md
// "Static analysis"): unsafe operations must be explicitly scoped even
// inside unsafe fns, and every public type must be debuggable.
#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_debug_implementations)]

pub mod flow;
pub mod framing;
pub mod header;
pub mod key;
pub mod nack;
pub mod pool;
pub mod primitive;
pub mod report;

pub use flow::FlowTuple;
pub use header::{DtaFlags, DtaHeader, DtaOpcode, DTA_UDP_PORT, DTA_VERSION};
pub use nack::{decode_nack, encode_nack, DTA_NACK_PORT, NACK_MAGIC};
pub use key::TelemetryKey;
pub use pool::ImagePool;
pub use primitive::{
    AppendHeader, KeyIncrementHeader, KeyWriteHeader, PostcardingHeader, PrimitiveHeader,
};
pub use report::{DtaReport, ReportError};

/// Maximum telemetry payload carried by one DTA report, in bytes.
///
/// The paper's evaluation uses payloads of 4–20 B (INT postcards to 5-hop
/// paths); we allow up to 64 B which comfortably covers every system in
/// Table 2 (the largest is NetSeer's 18 B loss events).
pub const MAX_TELEMETRY_PAYLOAD: usize = 64;

/// Maximum redundancy level a report may request (Figure 12 evaluates up
/// to N = 8).
pub const MAX_REDUNDANCY: u8 = 8;
