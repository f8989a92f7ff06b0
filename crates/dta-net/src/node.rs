//! Simulated node interface.

use crate::packet::Packet;
use crate::time::SimTime;

/// Identifier of a node in the simulated network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl core::fmt::Display for NodeId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A packet emitted by a node in response to an input.
#[derive(Debug, Clone)]
pub struct Emission {
    /// The packet to transmit.
    pub packet: Packet,
    /// Extra delay before the packet enters the egress link (models pipeline
    /// latency inside the node; 0 for cut-through forwarding).
    pub delay_ns: u64,
}

impl Emission {
    /// Emit immediately.
    pub fn now(packet: Packet) -> Self {
        Emission { packet, delay_ns: 0 }
    }

    /// Emit after `delay_ns` of node-internal processing.
    pub fn after(packet: Packet, delay_ns: u64) -> Self {
        Emission { packet, delay_ns }
    }
}

/// Behaviour of a simulated node (switch, server NIC, middlebox).
///
/// Nodes append the packets they want to send to `out` rather than holding
/// a network handle; the engine schedules those onto egress links. The
/// out-parameter (instead of a returned `Vec`) lets the engine recycle one
/// emission buffer across every event — at fat-tree scale the per-event
/// allocation was measurable. This keeps nodes independently unit-testable.
/// The `Any` supertrait lets harnesses take a node back out of the network
/// and downcast it to inspect its state (e.g., query the collector's
/// stores after a simulation run).
pub trait NetNode: std::any::Any {
    /// Handle a delivered packet, appending any packets to emit to `out`.
    fn receive(&mut self, now: SimTime, packet: Packet, out: &mut Vec<Emission>);

    /// Periodic housekeeping tick (cache flushes, timers). Return `false`
    /// to cancel this tick series — the engine stops rescheduling it (a
    /// drained reporter fleet would otherwise tick as pure event churn for
    /// the rest of the run). Default: do nothing, keep ticking.
    fn tick(&mut self, _now: SimTime, _out: &mut Vec<Emission>) -> bool {
        true
    }

    /// Barrier any work the node does off the engine thread: when this
    /// returns, the effects of every packet received so far are visible to
    /// an outside observer (a harness snapshotting memory mid-run). Default:
    /// nothing to wait for.
    fn quiesce(&mut self) {}
}

/// A node that sinks every packet and counts them; useful as a stub and for
/// link/topology tests.
#[derive(Debug, Default)]
pub struct SinkNode {
    /// Packets delivered so far.
    pub received: u64,
    /// Total payload bytes delivered.
    pub bytes: u64,
}

impl NetNode for SinkNode {
    fn receive(&mut self, _now: SimTime, packet: Packet, _out: &mut Vec<Emission>) {
        self.received += 1;
        self.bytes += packet.wire_len() as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    #[test]
    fn sink_counts() {
        let mut s = SinkNode::default();
        let mut out = Vec::new();
        s.receive(
            SimTime::ZERO,
            Packet::new(NodeId(0), NodeId(1), Bytes::from(vec![0u8; 10])),
            &mut out,
        );
        s.receive(
            SimTime::ZERO,
            Packet::new(NodeId(0), NodeId(1), Bytes::from(vec![0u8; 5])),
            &mut out,
        );
        assert_eq!(s.received, 2);
        assert_eq!(s.bytes, 15);
        assert!(out.is_empty());
    }
}
