//! The simulated RDMA NIC: ingress execution engine + performance model.

use std::collections::HashMap;
use std::collections::VecDeque;

use bytes::Bytes;

use crate::mr::{MemoryRegistry, MrError};
use crate::packet::{Opcode, RocePacket};
use crate::qp::{QpError, QueuePair};
use crate::verbs::{WcStatus, WorkCompletion};

/// Static NIC parameters: the two resource limits that bound DTA collection
/// throughput (§7: "the new bottleneck is the message rate of the RDMA NICs
/// at the collectors").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NicConfig {
    /// Messages (verbs) per second the NIC can execute.
    pub msg_rate: f64,
    /// Port line rate in bits per second.
    pub line_rate_bps: f64,
    /// Number of ports/NICs ganged together ("DTA already supports
    /// multi-NIC collectors", §7).
    pub num_nics: u32,
    /// ACK coalescing factor: emit one ACK per this many ACK-eligible
    /// packets (1 = ACK every packet). RoCE responders coalesce ACKs as
    /// standard practice; DTA's translator is fire-and-forget and never
    /// consumes them, so the default batches them. NAKs and solicited
    /// packets always respond immediately.
    pub ack_coalesce: u32,
}

impl NicConfig {
    /// BlueField-2-class NIC: ~110M msg/s, 100 Gb/s — calibrated so the
    /// paper's headline numbers re-emerge (Key-Write N=1 ≈ 110M rps,
    /// Append batch 16 ≈ 1.3B rps).
    pub fn bluefield2() -> Self {
        NicConfig { msg_rate: 110e6, line_rate_bps: 100e9, num_nics: 1, ack_coalesce: 64 }
    }

    /// Set the ACK coalescing factor (1 = ACK every packet).
    pub fn with_ack_coalesce(mut self, every: u32) -> Self {
        self.ack_coalesce = every.max(1);
        self
    }
}

/// Closed-form throughput model for a NIC config.
#[derive(Debug, Clone, Copy)]
pub struct NicPerfModel {
    config: NicConfig,
}

impl NicPerfModel {
    /// Model over `config`.
    pub fn new(config: NicConfig) -> Self {
        NicPerfModel { config }
    }

    /// The config this model was built from.
    pub fn config(&self) -> NicConfig {
        self.config
    }

    /// Sustainable message rate for messages of `wire_bytes` each:
    /// `min(msg_rate, line_rate / bits_per_msg)`, times the NIC count.
    fn message_rate(&self, wire_bytes: usize) -> f64 {
        let by_msgs = self.config.msg_rate;
        let by_wire = self.config.line_rate_bps / (wire_bytes as f64 * 8.0);
        by_msgs.min(by_wire) * self.config.num_nics as f64
    }

    /// Report throughput when each message carries `reports_per_msg` reports
    /// and each report triggers `msgs_per_report` messages (redundancy).
    ///
    /// * Key-Write with redundancy N: `reports_per_msg = 1`,
    ///   `msgs_per_report = N`.
    /// * Append with batch B: `reports_per_msg = B`, `msgs_per_report = 1`.
    /// * Postcarding (B-hop chunks): `reports_per_msg = B` postcards per
    ///   write.
    pub fn report_rate(
        &self,
        wire_bytes: usize,
        reports_per_msg: f64,
        msgs_per_report: f64,
    ) -> f64 {
        assert!(reports_per_msg > 0.0 && msgs_per_report > 0.0);
        self.message_rate(wire_bytes) * reports_per_msg / msgs_per_report
    }
}

/// Outcome of feeding one RoCE packet to the NIC.
///
/// Response packets travel by value: an ACK, NAK or READ response leaves
/// the NIC without a heap allocation, and [`RdmaNic::ingress_burst`] moves
/// it straight into its caller's `responses`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RxOutcome {
    /// Op executed; carries the ACK to return (None when no ack is due).
    Executed(Option<RocePacket>),
    /// PSN gap: op not executed; carries the NAK packet.
    Nak(RocePacket),
    /// Duplicate PSN: silently dropped.
    DuplicateDropped,
    /// Validation failed (bad rkey, bounds, unknown QP, malformed).
    Error(NicError),
}

/// NIC-level receive errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NicError {
    /// No QP with that number.
    UnknownQp(u32),
    /// QP sequence violation.
    Qp(QpError),
    /// Memory violation.
    Mr(MrError),
    /// FETCH_ADD response value (not an error; internal use).
    Malformed,
}

/// Counters for the NIC ingress path.
#[derive(Debug, Clone, Copy, Default)]
pub struct NicStats {
    /// Verbs executed.
    pub executed: u64,
    /// NAKs generated.
    pub naks: u64,
    /// Duplicates dropped.
    pub dups: u64,
    /// Errors (rkey/bounds/unknown QP).
    pub errors: u64,
    /// Total wire bytes received.
    pub bytes_rx: u64,
}

/// How many packets ahead [`RdmaNic::ingress_burst`] hints: far enough that
/// a DRAM miss (~80 ns) is covered by the verbs in between (~10 ns each
/// when they hit), near enough that the hinted lines are still in L1 when
/// reached. Not a knob — sized once on `ingest-wide`.
const BURST_LOOKAHEAD: usize = 8;

/// The collector-side RDMA NIC.
///
/// Owns the registered memory and the responder half of every QP. The DMA
/// engine (memory writes) runs with zero CPU involvement; completions are
/// queued only for SEND and WRITE-with-immediate, which is what the
/// collector CPU polls.
#[derive(Debug)]
pub struct RdmaNic {
    /// Registered memory.
    pub memory: MemoryRegistry,
    /// Responder QPs. A collector hosts a handful (one per primitive
    /// service), so the per-packet lookup is a linear scan over a dense
    /// vector — measurably cheaper than hashing the QPN on every ingress.
    qps: Vec<QueuePair>,
    /// Per-QP in-progress segmented write: (rkey, next va, bytes left).
    in_progress: HashMap<u32, (u32, u64, u32)>,
    completions: VecDeque<WorkCompletion>,
    ack_coalesce: u32,
    /// Counters.
    pub stats: NicStats,
    /// Throughput model (used by harnesses; ingress execution itself is
    /// functional, not timed).
    pub perf: NicPerfModel,
}

impl RdmaNic {
    /// NIC with the given performance config and empty memory registry.
    pub fn new(config: NicConfig) -> Self {
        Self::with_registry(config, MemoryRegistry::new())
    }

    /// NIC over an existing registry — the per-shard endpoint constructor.
    ///
    /// A sharded translator gives each worker its own `RdmaNic` built from a
    /// *clone* of the collector's registry: region handles are copied but
    /// the striped backing stores are shared, so shard threads issue writes
    /// fully in parallel (distinct stripes never contend) while QP state,
    /// segmentation cursors, and counters stay shard-private. This models
    /// one NIC receive queue / DMA channel per shard hitting common DRAM.
    pub fn with_registry(config: NicConfig, memory: MemoryRegistry) -> Self {
        RdmaNic {
            memory,
            qps: Vec::new(),
            in_progress: HashMap::new(),
            completions: VecDeque::new(),
            ack_coalesce: config.ack_coalesce.max(1),
            stats: NicStats::default(),
            perf: NicPerfModel::new(config),
        }
    }

    /// Install a responder QP (replaces any existing QP with the same QPN).
    pub fn add_qp(&mut self, qp: QueuePair) {
        if let Some(existing) = self.qps.iter_mut().find(|q| q.qpn == qp.qpn) {
            *existing = qp;
        } else {
            self.qps.push(qp);
        }
    }

    /// Access a QP (tests / CM).
    pub fn qp(&self, qpn: u32) -> Option<&QueuePair> {
        self.qps.iter().find(|q| q.qpn == qpn)
    }

    /// Pop the next completion, if any (the collector CPU's poll loop).
    pub fn poll_completion(&mut self) -> Option<WorkCompletion> {
        self.completions.pop_front()
    }

    /// DPDK-style RX burst: execute `pkts` back-to-back, appending any
    /// response packets that must actually go on the wire (coalesced ACKs,
    /// NAKs) to `responses`. Returns the number of packets executed.
    ///
    /// This is the collector's hot receive path. Each packet goes through
    /// [`RdmaNic::ingress`] — same validation, counters and outcomes as the
    /// per-packet path — but the burst is used as a DMA engine uses its
    /// queue: while packet `i` executes, the data line packet
    /// `i + BURST_LOOKAHEAD` will touch is hinted ([`RdmaNic::hint`]), so
    /// the cache misses of a wide key space overlap instead of each
    /// waiting behind the previous verb's stripe-lock `lock cmpxchg`.
    pub fn ingress_burst(
        &mut self,
        pkts: &[RocePacket],
        responses: &mut Vec<RocePacket>,
    ) -> u64 {
        let mut executed = 0u64;
        // Packet 0 executes next: too late to hint.
        for pkt in pkts.iter().take(BURST_LOOKAHEAD).skip(1) {
            self.hint(pkt);
        }
        for (i, pkt) in pkts.iter().enumerate() {
            if let Some(ahead) = pkts.get(i + BURST_LOOKAHEAD) {
                self.hint(ahead);
            }
            match self.ingress(pkt) {
                RxOutcome::Executed(ack) => {
                    executed += 1;
                    // Test the option before moving it: `extend(ack)` copies
                    // all 128 bytes out for every packet, ACK or not (7 ns a
                    // verb of `rdma.nic_burst_ns` on a 2-vCPU VM).
                    if let Some(ack) = ack {
                        responses.push(ack);
                    }
                }
                RxOutcome::Nak(nak) => responses.push(nak),
                RxOutcome::DuplicateDropped | RxOutcome::Error(_) => {}
            }
        }
        executed
    }

    /// Hint the line the verb in `pkt` addresses, from the RETH / AtomicETH
    /// it carries. A hint validates nothing and counts nothing: a packet
    /// without either header (a segmented-write continuation, a SEND), an
    /// unknown rkey or an address outside its region is simply not hinted,
    /// and is rejected as ever when its turn comes.
    #[inline]
    fn hint(&self, pkt: &RocePacket) {
        let (rkey, va) = match (&pkt.reth, &pkt.atomic) {
            (Some(reth), _) => (reth.rkey, reth.va),
            (None, Some(ae)) => (ae.rkey, ae.va),
            (None, None) => return,
        };
        if let Some(region) = self.memory.lookup(rkey) {
            region.prefetch(va);
        }
    }

    /// Execute one inbound RoCE packet.
    pub fn ingress(&mut self, pkt: &RocePacket) -> RxOutcome {
        self.stats.bytes_rx += pkt.wire_len() as u64;
        let qpn = pkt.bth.dest_qp;
        let Some(qp_idx) = self.qps.iter().position(|q| q.qpn == qpn) else {
            self.stats.errors += 1;
            return RxOutcome::Error(NicError::UnknownQp(qpn));
        };
        let qp = &mut self.qps[qp_idx];
        // PSN discipline first (transport layer), then memory execution.
        match qp.receive(pkt.bth.psn) {
            Ok(()) => {}
            Err(QpError::Duplicate(_)) => {
                self.stats.dups += 1;
                return RxOutcome::DuplicateDropped;
            }
            Err(QpError::OutOfOrder { expected, .. }) => {
                self.stats.naks += 1;
                // NAK carries the expected PSN so the requester can resync.
                let requester = qp.dest_qpn;
                return RxOutcome::Nak(RocePacket::nak(requester, expected));
            }
            Err(e) => {
                self.stats.errors += 1;
                return RxOutcome::Error(NicError::Qp(e));
            }
        }

        let requester_qpn = qp.dest_qpn;
        let mut read_data: Option<Bytes> = None;
        let result: Result<(), NicError> = match pkt.bth.opcode {
            Opcode::WriteOnly | Opcode::WriteOnlyImm => {
                let reth = pkt.reth.as_ref().expect("decoded WRITE has RETH");
                self.memory
                    .write(reth.rkey, reth.va, &pkt.payload)
                    .map_err(NicError::Mr)
                    .map(|_| {
                        if let Some(imm) = pkt.imm {
                            self.completions.push_back(WorkCompletion {
                                qpn,
                                status: WcStatus::Success,
                                imm: Some(imm.0),
                                payload: pkt.payload.clone(),
                            });
                        }
                    })
            }
            Opcode::WriteFirst => {
                // Start of a segmented write: execute this fragment and
                // remember the cursor for the continuations.
                let reth = pkt.reth.as_ref().expect("decoded WRITE FIRST has RETH");
                let done = pkt.payload.len() as u64;
                if done > u64::from(reth.dma_len) {
                    // A fragment longer than the RETH length it opens: the
                    // continuations would be bounded by a wrapped length.
                    self.in_progress.remove(&qpn);
                    Err(NicError::Malformed)
                } else {
                    self.memory
                        .write(reth.rkey, reth.va, &pkt.payload)
                        .map_err(NicError::Mr)
                        .map(|_| {
                            self.in_progress.insert(
                                qpn,
                                (reth.rkey, reth.va + done, reth.dma_len - done as u32),
                            );
                        })
                }
            }
            Opcode::WriteMiddle | Opcode::WriteLast => {
                match self.in_progress.get_mut(&qpn) {
                    None => Err(NicError::Malformed), // continuation w/o FIRST
                    Some((rkey, va, remaining)) => {
                        let n = pkt.payload.len() as u32;
                        if n > *remaining {
                            self.in_progress.remove(&qpn);
                            Err(NicError::Malformed) // overruns the RETH length
                        } else {
                            let (rkey, dst) = (*rkey, *va);
                            *va += n as u64;
                            *remaining -= n;
                            let finished =
                                pkt.bth.opcode == Opcode::WriteLast || *remaining == 0;
                            if finished {
                                self.in_progress.remove(&qpn);
                            }
                            self.memory.write(rkey, dst, &pkt.payload).map_err(NicError::Mr)
                        }
                    }
                }
            }
            Opcode::FetchAdd => {
                let ae = pkt.atomic.as_ref().expect("decoded FETCH_ADD has AtomicETH");
                self.memory
                    .fetch_add(ae.rkey, ae.va, ae.swap_add)
                    .map(|_| ())
                    .map_err(NicError::Mr)
            }
            Opcode::ReadRequest => {
                let reth = pkt.reth.as_ref().expect("decoded READ has RETH");
                match self.memory.lookup(reth.rkey) {
                    None => Err(NicError::Mr(MrError::BadRkey(reth.rkey))),
                    Some(region) => region
                        .peek(reth.va, reth.dma_len as usize)
                        .map_err(NicError::Mr)
                        .map(|data| read_data = Some(Bytes::from(data))),
                }
            }
            Opcode::ReadResponseOnly => Ok(()), // requester-side path
            Opcode::SendOnly | Opcode::SendOnlyImm => {
                self.completions.push_back(WorkCompletion {
                    qpn,
                    status: WcStatus::Success,
                    imm: pkt.imm.map(|i| i.0),
                    payload: pkt.payload.clone(),
                });
                Ok(())
            }
            Opcode::Ack | Opcode::AtomicAck => Ok(()), // requester-side path
        };

        match result {
            Ok(()) => {
                self.stats.executed += 1;
                // ACK coalescing: solicited packets (and every
                // `ack_coalesce`-th eligible packet) get an immediate ACK;
                // the rest are covered by the next cumulative ACK. The
                // coalescing state is per-QP, as on real HCAs — traffic on
                // one QP cannot starve another QP's ACK stream. DTA's
                // translator never consumes ACKs, so the batching is free.
                let ack = if let Some(data) = read_data {
                    // A READ's response packet doubles as its ack; never
                    // coalesced (the requester is blocked on the bytes).
                    Some(RocePacket::read_response(requester_qpn, pkt.bth.psn, data))
                } else if pkt.bth.opcode.needs_ack() {
                    self.qps[qp_idx]
                        .ack_due(self.ack_coalesce, pkt.bth.solicited)
                        .then(|| RocePacket::ack(requester_qpn, pkt.bth.psn))
                } else {
                    None
                };
                RxOutcome::Executed(ack)
            }
            Err(e) => {
                self.stats.errors += 1;
                RxOutcome::Error(e)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mr::{MemoryRegion, MrAccess};
    use bytes::Bytes;
    use crate::packet::Reth;

    fn nic_with_qp() -> RdmaNic {
        // Per-packet ACKs so tests can assert response contents.
        let mut nic = RdmaNic::new(NicConfig::bluefield2().with_ack_coalesce(1));
        nic.memory.register(MemoryRegion::new(0x10000, 4096, 0xAB, MrAccess::ATOMIC));
        let mut qp = QueuePair::new(5);
        qp.to_rtr(1, 0);
        qp.to_rts(0);
        nic.add_qp(qp);
        nic
    }

    #[test]
    fn acks_coalesce_at_configured_factor() {
        let mut nic = RdmaNic::new(NicConfig::bluefield2().with_ack_coalesce(4));
        nic.memory.register(MemoryRegion::new(0x10000, 4096, 0xAB, MrAccess::ATOMIC));
        let mut qp = QueuePair::new(5);
        qp.to_rtr(1, 0);
        qp.to_rts(0);
        nic.add_qp(qp);
        let mut acks = Vec::new();
        for psn in 0..8u32 {
            match nic.ingress(&write_pkt(psn, 0x10000, &[1, 2, 3, 4])) {
                RxOutcome::Executed(ack) => acks.push(ack),
                other => panic!("unexpected {other:?}"),
            }
        }
        let got: Vec<Option<u32>> =
            acks.iter().map(|a| a.as_ref().map(|p| p.bth.psn)).collect();
        // One cumulative ACK per 4 packets, carrying the latest PSN.
        assert_eq!(
            got,
            vec![None, None, None, Some(3), None, None, None, Some(7)]
        );
        // Coalescing is per-QP: interleaved traffic on a second QP must
        // not consume the first QP's pending-ACK budget.
        let mut qp2 = QueuePair::new(6);
        qp2.to_rtr(2, 0);
        qp2.to_rts(0);
        nic.add_qp(qp2);
        for psn in 0..3u32 {
            match nic.ingress(&RocePacket::write(
                6,
                psn,
                Reth { va: 0x10000, rkey: 0xAB, dma_len: 4 },
                Bytes::from_static(&[0; 4]),
            )) {
                RxOutcome::Executed(None) => {}
                other => panic!("QP 6 acked early (shared counter?): {other:?}"),
            }
        }
        // QP 5's own counter was flushed at psn 7; its next ACK arrives
        // exactly 4 packets later, unaffected by QP 6's traffic.
        for psn in 8..12u32 {
            let got = nic.ingress(&write_pkt(psn, 0x10000, &[1, 2, 3, 4]));
            match (psn, got) {
                (11, RxOutcome::Executed(Some(ack))) => assert_eq!(ack.bth.psn, 11),
                (11, other) => panic!("expected QP 5 ack at its 8th packet, got {other:?}"),
                (_, RxOutcome::Executed(None)) => {}
                (_, other) => panic!("unexpected {other:?}"),
            }
        }

        // Solicited (write-imm) packets flush the pending ACK immediately.
        let imm = RocePacket::write_imm(
            5,
            12,
            Reth { va: 0x10000, rkey: 0xAB, dma_len: 4 },
            0x1,
            Bytes::from_static(&[0; 4]),
        );
        match nic.ingress(&imm) {
            RxOutcome::Executed(Some(ack)) => assert_eq!(ack.bth.psn, 12),
            other => panic!("unexpected {other:?}"),
        }
    }

    fn write_pkt(psn: u32, va: u64, data: &'static [u8]) -> RocePacket {
        RocePacket::write(5, psn, Reth { va, rkey: 0xAB, dma_len: data.len() as u32 }, Bytes::from_static(data))
    }

    #[test]
    fn write_executes_and_acks() {
        let mut nic = nic_with_qp();
        match nic.ingress(&write_pkt(0, 0x10000, &[1, 2, 3, 4])) {
            RxOutcome::Executed(Some(ack)) => assert_eq!(ack.bth.psn, 0),
            other => panic!("unexpected {other:?}"),
        }
        let region = nic.memory.lookup(0xAB).unwrap();
        assert_eq!(region.peek(0x10000, 4).unwrap(), vec![1, 2, 3, 4]);
    }

    #[test]
    fn empty_write_at_the_region_end_is_executed_not_a_panic() {
        // Off the wire: an empty WRITE ONLY whose RETH names the end address
        // decodes, passes the ICRC and the length check, and is in bounds.
        let mut nic = nic_with_qp();
        let empty = RocePacket::write(
            5,
            0,
            Reth { va: 0x10000 + 4096, rkey: 0xAB, dma_len: 0 },
            Bytes::new(),
        );
        let decoded = RocePacket::decode(empty.encode()).expect("decodable empty WRITE");
        assert!(matches!(nic.ingress(&decoded), RxOutcome::Executed(Some(_))));
        assert_eq!((nic.stats.executed, nic.stats.errors), (1, 0));
        assert_eq!(nic.memory.memory_instructions(), 0);
    }

    #[test]
    fn psn_gap_naks_without_executing() {
        let mut nic = nic_with_qp();
        match nic.ingress(&write_pkt(5, 0x10000, &[9; 4])) {
            RxOutcome::Nak(nak) => assert_eq!(nak.bth.psn, 0),
            other => panic!("unexpected {other:?}"),
        }
        // Memory untouched.
        let region = nic.memory.lookup(0xAB).unwrap();
        assert_eq!(region.peek(0x10000, 4).unwrap(), vec![0; 4]);
    }

    #[test]
    fn duplicate_dropped_silently() {
        let mut nic = nic_with_qp();
        assert!(matches!(nic.ingress(&write_pkt(0, 0x10000, &[1; 4])), RxOutcome::Executed(_)));
        assert!(matches!(
            nic.ingress(&write_pkt(0, 0x10000, &[2; 4])),
            RxOutcome::DuplicateDropped
        ));
        // First write's data survives.
        let region = nic.memory.lookup(0xAB).unwrap();
        assert_eq!(region.peek(0x10000, 4).unwrap(), vec![1; 4]);
    }

    #[test]
    fn bad_rkey_is_error() {
        let mut nic = nic_with_qp();
        let pkt = RocePacket::write(
            5,
            0,
            Reth { va: 0x10000, rkey: 0xFF, dma_len: 4 },
            Bytes::from_static(&[0; 4]),
        );
        assert!(matches!(
            nic.ingress(&pkt),
            RxOutcome::Error(NicError::Mr(MrError::BadRkey(0xFF)))
        ));
    }

    #[test]
    fn fetch_add_accumulates() {
        let mut nic = nic_with_qp();
        for i in 0..3 {
            let pkt = RocePacket::fetch_add(5, i, 0x10000, 0xAB, 10);
            assert!(matches!(nic.ingress(&pkt), RxOutcome::Executed(_)));
        }
        let region = nic.memory.lookup(0xAB).unwrap();
        assert_eq!(
            u64::from_be_bytes(region.peek(0x10000, 8).unwrap().try_into().unwrap()),
            30
        );
    }

    #[test]
    fn write_imm_raises_completion() {
        let mut nic = nic_with_qp();
        let pkt = RocePacket::write_imm(
            5,
            0,
            Reth { va: 0x10000, rkey: 0xAB, dma_len: 4 },
            0x42,
            Bytes::from_static(&[7; 4]),
        );
        nic.ingress(&pkt);
        let wc = nic.poll_completion().expect("completion queued");
        assert_eq!(wc.imm, Some(0x42));
        assert!(nic.poll_completion().is_none());
    }

    #[test]
    fn plain_write_raises_no_completion() {
        let mut nic = nic_with_qp();
        nic.ingress(&write_pkt(0, 0x10000, &[1; 4]));
        assert!(nic.poll_completion().is_none());
    }

    #[test]
    fn unknown_qp_is_error() {
        let mut nic = nic_with_qp();
        let pkt = write_pkt(0, 0x10000, &[0; 4]);
        let mut bad = pkt.clone();
        bad.bth.dest_qp = 99;
        assert!(matches!(
            nic.ingress(&bad),
            RxOutcome::Error(NicError::UnknownQp(99))
        ));
    }

    #[test]
    fn read_request_returns_bytes_in_response() {
        let mut nic = nic_with_qp();
        assert!(matches!(nic.ingress(&write_pkt(0, 0x10000, &[9, 8, 7, 6])), RxOutcome::Executed(_)));
        let req = RocePacket::read_request(
            5,
            1,
            Reth { va: 0x10000, rkey: 0xAB, dma_len: 4 },
        );
        match nic.ingress(&req) {
            RxOutcome::Executed(Some(resp)) => {
                assert_eq!(resp.bth.opcode, Opcode::ReadResponseOnly);
                assert_eq!(resp.bth.psn, 1, "response echoes the request PSN");
                assert_eq!(&resp.payload[..], &[9, 8, 7, 6]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn duplicate_read_request_dropped_silently() {
        let mut nic = nic_with_qp();
        let req = RocePacket::read_request(5, 0, Reth { va: 0x10000, rkey: 0xAB, dma_len: 4 });
        assert!(matches!(nic.ingress(&req), RxOutcome::Executed(Some(_))));
        assert!(matches!(nic.ingress(&req), RxOutcome::DuplicateDropped));
    }

    #[test]
    fn read_request_bad_rkey_is_error() {
        let mut nic = nic_with_qp();
        let req = RocePacket::read_request(5, 0, Reth { va: 0x10000, rkey: 0xFF, dma_len: 4 });
        assert!(matches!(
            nic.ingress(&req),
            RxOutcome::Error(NicError::Mr(MrError::BadRkey(0xFF)))
        ));
    }

    /// A 64-byte WRITE FIRST whose RETH announces 4 bytes, round-tripped
    /// through the wire codec: decodable, not a hand-built impossibility.
    fn oversized_write_first() -> RocePacket {
        let mut first = RocePacket::write(
            5,
            0,
            Reth { va: 0x10000, rkey: 0xAB, dma_len: 4 },
            Bytes::from(vec![0xEE; 64]),
        );
        first.bth.opcode = Opcode::WriteFirst;
        RocePacket::decode(first.encode()).expect("decodable WRITE FIRST")
    }

    #[test]
    fn write_first_longer_than_its_reth_is_malformed() {
        let mut nic = nic_with_qp();
        assert!(matches!(
            nic.ingress(&oversized_write_first()),
            RxOutcome::Error(NicError::Malformed)
        ));
        assert_eq!((nic.stats.errors, nic.stats.executed), (1, 0));
        // Rejected before the region write.
        let region = nic.memory.lookup(0xAB).unwrap();
        assert_eq!(region.peek(0x10000, 64).unwrap(), vec![0; 64]);
    }

    #[test]
    fn continuation_cannot_ride_a_rejected_write_first() {
        // The rejected FIRST used to leave a cursor whose remaining length
        // had wrapped to ~4 GiB, so any MIDDLE/LAST after it was written.
        let mut nic = nic_with_qp();
        nic.ingress(&oversized_write_first());
        for (psn, opcode) in [(1, Opcode::WriteMiddle), (2, Opcode::WriteLast)] {
            let mut pkt = write_pkt(psn, 0, &[0xEE; 64]);
            pkt.bth.opcode = opcode;
            pkt.reth = None;
            assert!(matches!(nic.ingress(&pkt), RxOutcome::Error(NicError::Malformed)));
        }
        let region = nic.memory.lookup(0xAB).unwrap();
        assert_eq!(region.peek(0x10000, 192).unwrap(), vec![0; 192]);
        assert_eq!((nic.stats.errors, nic.stats.executed), (3, 0));
    }

    /// Everything observable about a NIC after a packet stream: region
    /// bytes and counters, NIC counters, queued completions.
    fn observed(mut nic: RdmaNic) -> impl PartialEq + std::fmt::Debug {
        let region = nic.memory.lookup(0xAB).unwrap();
        let mem = (region.snapshot().to_vec(), region.writes(), region.memory_instructions());
        let completions: Vec<_> = std::iter::from_fn(|| nic.poll_completion()).collect();
        (mem, format!("{:?}", nic.stats), completions)
    }

    #[test]
    fn burst_with_lookahead_equals_packet_by_packet() {
        const BASE: u64 = 0x10000;
        const LEN: usize = 3 * crate::mr::STRIPE_BYTES + 40;
        let twin = || {
            let mut nic = RdmaNic::new(NicConfig::bluefield2().with_ack_coalesce(3));
            nic.memory.register(MemoryRegion::new(BASE, LEN, 0xAB, MrAccess::ATOMIC));
            let mut qp = QueuePair::new(5);
            qp.to_rtr(1, 0);
            qp.to_rts(0);
            nic.add_qp(qp);
            nic
        };
        let write = |psn, rkey, va, len: usize| {
            let reth = Reth { va, rkey, dma_len: len as u32 };
            RocePacket::write(5, psn, reth, Bytes::from(vec![psn as u8 + 1; len]))
        };
        let fragment = |psn, opcode, reth: Option<Reth>| {
            let mut pkt = write(psn, 0xAB, BASE + 4000, 64);
            pkt.bth.opcode = opcode;
            pkt.reth = reth;
            pkt
        };
        let last_byte = BASE + LEN as u64 - 1;
        // Every way a hint could go wrong: verbs of each kind, targets the
        // region does not hold, continuations with nothing to hint from,
        // and packets the PSN discipline refuses after they were hinted.
        let mut pkts = vec![
            write(0, 0xAB, BASE, 8),
            RocePacket::write_imm(
                5,
                1,
                Reth { va: BASE + 4096, rkey: 0xAB, dma_len: 4 },
                0x77,
                Bytes::from_static(&[9; 4]),
            ),
            RocePacket::fetch_add(5, 2, BASE + 8192, 0xAB, 5),
            // Segmented write straddling the first stripe boundary.
            fragment(
                3,
                Opcode::WriteFirst,
                Some(Reth { va: BASE + 4000, rkey: 0xAB, dma_len: 192 }),
            ),
            fragment(4, Opcode::WriteMiddle, None),
            fragment(5, Opcode::WriteLast, None),
            RocePacket::read_request(5, 6, Reth { va: BASE, rkey: 0xAB, dma_len: 8 }),
            write(7, 0xFF, BASE, 8),                  // unknown rkey
            write(8, 0xAB, u64::MAX, 8),              // va + len overflows
            write(9, 0xAB, BASE - 1, 8),              // below the region
            write(10, 0xAB, last_byte - 7, 8),        // ends on the last byte
            write(11, 0xAB, last_byte, 8),            // starts on it, runs past
            RocePacket::fetch_add(5, 12, u64::MAX, 0xAB, 1), // misaligned, out of range
            RocePacket::fetch_add(5, 13, BASE, 0xFF, 1),     // unknown rkey
            write(20, 0xAB, BASE + 16, 8),            // PSN gap: NAK, not executed
            write(10, 0xAB, BASE + 16, 8),            // duplicate
        ];
        let mut unknown_qp = write(0, 0xAB, BASE + 16, 8);
        unknown_qp.bth.dest_qp = 99;
        pkts.push(unknown_qp);
        // A tail long enough that every burst length below has packets
        // both inside and beyond the lookahead window.
        pkts.extend((14..14 + 3 * BURST_LOOKAHEAD as u32).map(|psn| {
            if psn % 3 == 0 {
                RocePacket::fetch_add(5, psn, BASE + 8 * u64::from(psn), 0xAB, u64::from(psn))
            } else {
                write(psn, 0xAB, BASE + 300 * u64::from(psn), 24)
            }
        }));

        let mut single = twin();
        let mut single_responses = Vec::new();
        for pkt in &pkts {
            match single.ingress(pkt) {
                RxOutcome::Executed(Some(resp)) | RxOutcome::Nak(resp) => {
                    single_responses.push(resp)
                }
                _ => {}
            }
        }
        assert!(single.stats.naks == 1 && single.stats.dups == 1 && single.stats.errors == 7);
        let single = observed(single);

        for burst_len in
            [1, BURST_LOOKAHEAD - 1, BURST_LOOKAHEAD, BURST_LOOKAHEAD + 1, pkts.len()]
        {
            let mut burst = twin();
            let mut responses = Vec::new();
            assert_eq!(burst.ingress_burst(&[], &mut responses), 0);
            let executed: u64 =
                pkts.chunks(burst_len).map(|c| burst.ingress_burst(c, &mut responses)).sum();
            assert_eq!(executed, burst.stats.executed, "burst length {burst_len}");
            assert_eq!(responses, single_responses, "burst length {burst_len}");
            assert_eq!(observed(burst), single, "burst length {burst_len}");
        }
    }

    #[test]
    fn perf_model_msg_rate_bound() {
        let m = NicPerfModel::new(NicConfig::bluefield2());
        // 78B KW writes: msg-rate bound (110M), not line-rate bound (160M).
        let rate = m.message_rate(78);
        assert!((rate - 110e6).abs() < 1.0);
    }

    #[test]
    fn perf_model_line_rate_bound() {
        let m = NicPerfModel::new(NicConfig::bluefield2());
        // 1500B messages: line-rate bound = 100e9/12000 = 8.33M.
        let rate = m.message_rate(1500);
        assert!((rate - 100e9 / 12000.0).abs() < 1.0);
    }

    #[test]
    fn multi_nic_scales_rate() {
        let m = NicPerfModel::new(NicConfig { num_nics: 2, ..NicConfig::bluefield2() });
        assert!((m.message_rate(78) - 220e6).abs() < 1.0);
    }

    #[test]
    fn report_rate_append_batching() {
        let m = NicPerfModel::new(NicConfig::bluefield2());
        // Batch of 16 4B events: 64B payload -> 142B wire.
        let rate = m.report_rate(142, 16.0, 1.0);
        assert!(rate > 1.0e9, "batch-16 append should exceed 1B rps, got {rate}");
    }

    #[test]
    fn report_rate_redundancy_divides() {
        let m = NicPerfModel::new(NicConfig::bluefield2());
        let n1 = m.report_rate(78, 1.0, 1.0);
        let n4 = m.report_rate(78, 1.0, 4.0);
        assert!((n1 / n4 - 4.0).abs() < 1e-9);
    }
}
