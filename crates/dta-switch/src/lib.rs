//! Programmable switch (Tofino-class) pipeline model.
//!
//! DTA's reporter is "~700 lines of P4_16 for the Tofino ASIC" and the
//! translator pipeline is "2K lines of P4_16" (§5). Without the ASIC, we
//! model the parts of the RMT (Reconfigurable Match Tables) architecture
//! that DTA's logic and its resource accounting depend on:
//!
//! * [`resources`] — the six resource classes of Figure 9 / Table 3 (SRAM,
//!   match crossbar, table IDs, hash dist units, ternary bus, stateful
//!   ALUs), with percentage-of-chip accounting.
//! * [`register`] — stateful register arrays (SRAM) with single-traversal
//!   access semantics: one read-modify-write per array per packet, the
//!   constraint that shapes the Append batching design ("our
//!   non-recirculating RDMA-generating pipeline requiring access to all B−1
//!   entries during a single pipeline traversal", §6.4).
//! * [`multicast`] — the packet replication engine (PRE) used to emit the N
//!   redundant copies for Key-Write / Key-Increment / Postcarding ("The
//!   redundancy ... is generated by the packet replication engine through
//!   multicasting", §5.2).

pub mod multicast;
pub mod register;
pub mod resources;

pub use multicast::MulticastEngine;
pub use register::RegisterArray;
pub use resources::{ResourceClass, ResourceVector};
