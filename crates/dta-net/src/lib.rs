//! Event-driven network simulation substrate for DTA.
//!
//! The paper's testbed is two x86 servers joined by a Tofino switch over
//! 100G links, plus (for the motivating scale arguments) data-center fabrics
//! of thousands of switches. This crate replaces that hardware with an
//! event-driven simulator:
//!
//! * [`time`] — simulated nanosecond clock and event queue.
//! * [`packet`] — the datagram unit carried between simulated nodes.
//! * [`link`] — bandwidth/latency links with finite queues, lossy or
//!   lossless (PFC-paused) drop disciplines.
//! * [`faults`] — smoltcp-style fault injection: random drop, corruption,
//!   reordering (the paper's primitives must tolerate in-transit loss).
//! * [`node`] / [`network`] — node trait and the simulation engine.
//! * [`topology`] — fat-tree builder and shortest-path routing, used by the
//!   Figure 3 / Figure 7b network-scale experiments.

pub mod faults;
pub mod link;
pub mod network;
pub mod node;
pub mod packet;
pub mod time;
pub mod topology;

pub use faults::{splitmix64, FaultConfig, FaultInjector, FaultTotals, Verdict};
pub use link::{Link, LinkConfig, LinkStats, QueueDiscipline};
pub use network::{Network, NetworkStats};
pub use node::{Emission, NetNode, NodeId};
pub use packet::Packet;
pub use time::{EventQueue, HeapEventQueue, SimTime, GBPS_100, GBPS_25, GBPS_400};
pub use topology::{FatTree, Routing, Topology};
