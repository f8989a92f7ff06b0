//! Simulated RoCEv2 (RDMA over Converged Ethernet v2) substrate.
//!
//! DTA's translator converts telemetry reports into standard RDMA verbs and
//! the collector ingests them with a commodity RDMA NIC (BlueField-2 in the
//! paper's testbed). No RDMA hardware is present here, so this crate
//! implements the relevant slice of the InfiniBand transport in software:
//!
//! * [`packet`] — real RoCEv2 wire format: BTH, RETH, AtomicETH, ImmDt,
//!   ICRC, carried in UDP port 4791.
//! * [`verbs`] — the verb-level operations DTA uses: `RDMA WRITE`,
//!   `FETCH_ADD`, `SEND` (with immediate).
//! * [`mr`] — registered memory regions with rkey validation, bounds checks,
//!   and memory-instruction accounting (the Figure 8 metric).
//! * [`qp`] — reliable-connection queue pairs with packet sequence numbers:
//!   in-order delivery enforcement, duplicate drop, NAK generation. The
//!   strict-PSN requirement is exactly why multiple switches cannot share a
//!   QP and why the translator exists (§3, "Meeting goal #1").
//! * [`nic`] — an ingress engine executing RoCE packets against registered
//!   memory plus the performance model (message rate + line rate) that
//!   bounds DTA's collection throughput (§6.7: "Our base performance is
//!   bounded by the RDMA message rate of the NIC").
//! * [`cm`] — a minimal RDMA_CM-style handshake used by the translator
//!   control plane to set up QPs and learn rkeys/addresses.

pub mod cm;
pub mod mr;
pub mod nic;
pub mod packet;
pub mod qp;
pub mod segment;
pub mod verbs;

pub use cm::{CmEvent, CmManager, ConnectionParams};
pub use mr::{MemoryRegion, MemoryRegistry, MrError, SnapshotBuf};
pub use nic::{NicConfig, NicPerfModel, RdmaNic, RxOutcome};
pub use packet::{AtomicEth, Bth, ImmDt, Opcode, Reth, RocePacket, ROCE_UDP_PORT};
pub use qp::{QpError, QpState, QueuePair};
pub use segment::{segment_write, MTU_1024};
pub use verbs::{RdmaOp, WorkCompletion};
