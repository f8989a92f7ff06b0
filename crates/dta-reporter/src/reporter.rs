//! Reporter packet crafting, and the reporter end of the congestion loop
//! (§5.2): decoding translator NACKs and deterministically retransmitting
//! the dropped report from a bounded in-flight window.

use std::collections::VecDeque;

use dta_core::framing::{UdpPacket, UDP_FRAME_OVERHEAD};
use dta_core::nack::decode_nack;
use dta_core::{DtaReport, ImagePool, DTA_UDP_PORT};
use dta_net::{Emission, NetNode, NodeId, Packet, SimTime};

/// Reporter addressing configuration (the controller-populated tables of
/// §5.1: "inserting collector IP addresses for the DTA primitives").
#[derive(Debug, Clone, Copy)]
pub struct ReporterConfig {
    /// This switch's node id.
    pub my_id: NodeId,
    /// This switch's IP.
    pub my_ip: u32,
    /// The collector's node id (reports route toward it; the translator
    /// intercepts).
    pub collector_id: NodeId,
    /// The collector's IP.
    pub collector_ip: u32,
    /// UDP source port for this reporter's exports.
    pub src_port: u16,
}

/// Buffer width of a reporter's frame pool: Eth/IPv4/UDP around the
/// widest report.
const FRAME_BYTES: usize = UDP_FRAME_OVERHEAD + DtaReport::MAX_LEN;

/// Frames a reporter keeps in rotation at most. Its pool grows only to the
/// frames it has in flight at once — a handful for a paced fleet lane; a
/// whole schedule framed in one burst ([`Reporter::frame_all`]) and then
/// dropped recycles in full on the next burst, up to this many. Past it,
/// each frame is a fresh allocation.
const FRAME_POOL_DEPTH: usize = 1 << 14;

/// The switch-side DTA report exporter.
#[derive(Debug)]
pub struct Reporter {
    config: ReporterConfig,
    frames: ImagePool,
    /// Reports exported.
    pub exported: u64,
}

impl Reporter {
    /// Reporter with the given addressing.
    pub fn new(config: ReporterConfig) -> Self {
        Reporter { config, frames: ImagePool::new(FRAME_BYTES, FRAME_POOL_DEPTH), exported: 0 }
    }

    /// Frame one DTA report for the wire: Eth/IPv4/UDP headers, DTA header,
    /// sub-header and payload written in one pass into a recycled buffer
    /// of the frame's final length — the bytes of
    /// `UdpPacket::frame(.., report.encode()?).encode()`.
    pub fn frame(&mut self, report: &DtaReport) -> Packet {
        let len = report.encoded_len().expect("report within payload bound");
        let c = self.config;
        let wire = self.frames.build(UDP_FRAME_OVERHEAD + len, |mut buf| {
            let (src, dst) = ((c.my_ip, c.src_port), (c.collector_ip, DTA_UDP_PORT));
            UdpPacket::put_headers(&mut buf, src.0, src.1, dst.0, dst.1, len);
            report.put(&mut buf);
        });
        self.exported += 1;
        Packet::new(c.my_id, c.collector_id, wire)
    }

    /// Frame a batch of reports.
    pub fn frame_all(&mut self, reports: &[DtaReport]) -> Vec<Packet> {
        reports.iter().map(|r| self.frame(r)).collect()
    }

    /// The reporter's addressing.
    pub fn config(&self) -> &ReporterConfig {
        &self.config
    }
}

/// Reporter-side NACK-driven retransmit policy (the loop-closing half of
/// §5.2's "NACK sent back to the reporter in case of a dropped report").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetransmitPolicy {
    /// In-flight window: how many recently framed reports stay buffered
    /// for retransmission. DTA has no ACKs, so entries leave the window
    /// only by eviction — a NACK for an evicted seq counts as
    /// `nacks_unmatched` and the report is lost (best-effort, by design).
    pub window: usize,
    /// Retransmissions allowed per report; a NACK arriving after the
    /// budget is spent counts as `retries_exhausted`.
    pub max_retries: u32,
    /// Node-internal delay before a NACKed report re-enters the wire.
    /// Pacing the retransmit burst gives the translator's token bucket
    /// time to refill; it is modeled as an [`Emission::after`] delay on
    /// the simulated clock, so retransmit timing is deterministic.
    pub pace_ns: u64,
}

impl Default for RetransmitPolicy {
    fn default() -> Self {
        RetransmitPolicy { window: 1024, max_retries: 8, pace_ns: 20_000 }
    }
}

/// Counters of the reporter end of the congestion loop.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetxStats {
    /// Inbound packets that decoded as DTA NACKs.
    pub nacks_received: u64,
    /// Inbound packets that were anything else (stray user traffic).
    pub stray_received: u64,
    /// Reports re-emitted in response to a NACK.
    pub retransmitted: u64,
    /// NACKs for reports whose retry budget was already spent.
    pub retries_exhausted: u64,
    /// NACKs whose seq was not in the in-flight window (evicted or never
    /// ours).
    pub nacks_unmatched: u64,
}

impl RetxStats {
    /// Accumulate `other` into `self` (fleet-wide aggregation).
    pub fn merge(&mut self, other: &RetxStats) {
        self.nacks_received += other.nacks_received;
        self.stray_received += other.stray_received;
        self.retransmitted += other.retransmitted;
        self.retries_exhausted += other.retries_exhausted;
        self.nacks_unmatched += other.nacks_unmatched;
    }

    /// Every NACK is answered one way: retransmitted, budget-exhausted,
    /// or unmatched. The congestion tests assert this ledger closes.
    pub fn ledger_closes(&self) -> bool {
        self.nacks_received
            == self.retransmitted + self.retries_exhausted + self.nacks_unmatched
    }
}

/// One buffered in-flight report.
struct WindowEntry {
    seq: u32,
    retries: u32,
    report: DtaReport,
}

/// The bounded in-flight window of one [`ReporterFleetNode`] lane.
struct RetxWindow {
    policy: RetransmitPolicy,
    entries: VecDeque<WindowEntry>,
}

impl RetxWindow {
    fn new(policy: RetransmitPolicy) -> Self {
        RetxWindow { policy, entries: VecDeque::with_capacity(policy.window.max(1)) }
    }

    /// Remember a just-framed report (evicting the oldest at capacity —
    /// a loop, not a single pop, so a window shrunk by a later
    /// `set_retransmit` really trims down to the new bound).
    fn record(&mut self, report: &DtaReport) {
        while self.entries.len() >= self.policy.window.max(1) {
            self.entries.pop_front();
        }
        self.entries.push_back(WindowEntry {
            seq: report.header.seq,
            retries: 0,
            report: report.clone(),
        });
    }

    /// Answer a NACK for `seq`: the report to retransmit, or `None` with
    /// the reason counted in `stats`. Searches newest-first so a seq that
    /// somehow recurs resolves to its latest incarnation.
    fn on_nack(&mut self, seq: u32, stats: &mut RetxStats) -> Option<DtaReport> {
        let Some(entry) = self.entries.iter_mut().rev().find(|e| e.seq == seq) else {
            stats.nacks_unmatched += 1;
            return None;
        };
        if entry.retries >= self.policy.max_retries {
            stats.retries_exhausted += 1;
            return None;
        }
        entry.retries += 1;
        stats.retransmitted += 1;
        Some(entry.report.clone())
    }
}

/// Classify one delivered packet: `Some((dst_ip, seq))` for a DTA NACK
/// (the destination IP selects the fleet lane it answers), else stray.
/// The translator always emits NACKs from [`dta_core::DTA_NACK_PORT`];
/// checking it keeps stray user traffic whose payload happens to start
/// `DNAK` from triggering a spurious retransmission. The packet is
/// consumed: its frame is decoded by move.
fn decode_inbound(packet: Packet) -> Option<(u32, u32)> {
    let udp = UdpPacket::decode(packet.payload).ok()?;
    if udp.udp.src_port != dta_core::DTA_NACK_PORT {
        return None;
    }
    let seq = decode_nack(&udp.payload)?;
    Some((udp.ip.dst, seq))
}

/// One co-located reporter of a [`ReporterFleetNode`]: its framer, its
/// paced schedule, and (when enabled) its in-flight retransmit window.
struct Lane {
    reporter: Reporter,
    schedule: Vec<DtaReport>,
    cursor: usize,
    retx: Option<RetxWindow>,
}

/// Paced reporters sharing one host node (and its uplink) — the scenario
/// harness's fleet member.
///
/// A K=8 fat tree has 128 hosts; a thousand-reporter fleet therefore needs
/// reporters co-located on hosts — each *lane* is a full [`Reporter`] with
/// its own source IP and schedule, all multiplexed onto the host's single
/// network attachment. Lanes are *paced*: each emits at most
/// `reports_per_tick` reports per tick until its schedule is exhausted, so
/// thousands of reporters don't serialize their entire run into a single
/// burst that tail-drops at the first ToR queue. All state is handed over
/// before the run, so a simulation owns the node completely — the engine's
/// tick events are the only driver, keeping runs deterministic on the
/// simulated clock.
pub struct ReporterFleetNode {
    lanes: Vec<Lane>,
    reports_per_tick: usize,
    /// Retransmit policy applied to every lane (set before or after adding
    /// lanes; `None` disables retransmission).
    retx_policy: Option<RetransmitPolicy>,
    /// Host-wide congestion-loop counters (all lanes).
    pub retx_stats: RetxStats,
    /// Packets delivered *to* this host — always
    /// `retx_stats.nacks_received + retx_stats.stray_received` (kept as
    /// the sum for golden compatibility).
    pub received: u64,
}

impl ReporterFleetNode {
    /// Empty fleet host pacing each lane at `reports_per_tick`.
    pub fn new(reports_per_tick: usize) -> Self {
        ReporterFleetNode {
            lanes: Vec::new(),
            reports_per_tick: reports_per_tick.max(1),
            retx_policy: None,
            retx_stats: RetxStats::default(),
            received: 0,
        }
    }

    /// Enable NACK-driven retransmission on every lane (existing and
    /// future). Calling again re-applies the new policy to every lane:
    /// existing windows keep their buffered entries (an oversized buffer
    /// trims itself on the next record), only the policy changes.
    pub fn set_retransmit(&mut self, policy: RetransmitPolicy) {
        self.retx_policy = Some(policy);
        for lane in &mut self.lanes {
            match lane.retx.as_mut() {
                Some(window) => window.policy = policy,
                None => lane.retx = Some(RetxWindow::new(policy)),
            }
        }
    }

    /// Add a co-located reporter with its schedule. Lanes emit in insertion
    /// order within each tick.
    pub fn add_lane(&mut self, reporter: Reporter, schedule: Vec<DtaReport>) {
        let retx = self.retx_policy.map(RetxWindow::new);
        self.lanes.push(Lane { reporter, schedule, cursor: 0, retx });
    }

    /// Ticks needed to drain a schedule of `len` reports at
    /// `reports_per_tick` — the scenario harness sizes its emission window
    /// from this.
    pub fn ticks_to_drain(len: usize, reports_per_tick: usize) -> u64 {
        (len as u64).div_ceil(reports_per_tick.max(1) as u64)
    }

    /// Number of co-located reporters.
    pub fn lanes(&self) -> usize {
        self.lanes.len()
    }

    /// Reports not yet emitted, across all lanes.
    pub fn pending(&self) -> usize {
        self.lanes.iter().map(|l| l.schedule.len() - l.cursor).sum()
    }
}

impl NetNode for ReporterFleetNode {
    fn receive(&mut self, _now: SimTime, packet: Packet, out: &mut Vec<Emission>) {
        self.received += 1;
        let Some((dst_ip, seq)) = decode_inbound(packet) else {
            self.retx_stats.stray_received += 1;
            return;
        };
        self.retx_stats.nacks_received += 1;
        // The NACK's destination IP names the lane whose report was
        // dropped (every lane has its own source address).
        let Some(lane) =
            self.lanes.iter_mut().find(|l| l.reporter.config().my_ip == dst_ip)
        else {
            self.retx_stats.nacks_unmatched += 1;
            return;
        };
        let Some(window) = lane.retx.as_mut() else {
            self.retx_stats.nacks_unmatched += 1;
            return;
        };
        if let Some(report) = window.on_nack(seq, &mut self.retx_stats) {
            let pace = window.policy.pace_ns;
            out.push(Emission::after(lane.reporter.frame(&report), pace));
        }
    }

    fn tick(&mut self, _now: SimTime, out: &mut Vec<Emission>) -> bool {
        for lane in &mut self.lanes {
            let end = (lane.cursor + self.reports_per_tick).min(lane.schedule.len());
            for r in &lane.schedule[lane.cursor..end] {
                if let Some(window) = lane.retx.as_mut() {
                    window.record(r);
                }
                out.push(Emission::now(lane.reporter.frame(r)));
            }
            lane.cursor = end;
        }
        // Cancel the tick series once every lane has drained (retransmits
        // ride on `receive`, so cancellation cannot strand them).
        self.lanes.iter().any(|l| l.cursor < l.schedule.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use dta_core::TelemetryKey;
    use proptest::prelude::*;

    /// A raw UDP telemetry frame: the legacy export format DTA replaces.
    fn legacy_udp_frame(config: &ReporterConfig, telemetry_payload: Bytes) -> Packet {
        let udp = UdpPacket::frame(
            config.my_ip,
            config.src_port,
            config.collector_ip,
            DTA_UDP_PORT,
            telemetry_payload,
        );
        Packet::new(config.my_id, config.collector_id, udp.encode())
    }

    /// Total reports exported, across all lanes.
    fn exported(node: &ReporterFleetNode) -> u64 {
        node.lanes.iter().map(|l| l.reporter.exported).sum()
    }

    fn config() -> ReporterConfig {
        ReporterConfig {
            my_id: NodeId(1),
            my_ip: 0x0A00_0001,
            collector_id: NodeId(9),
            collector_ip: 0x0A00_0009,
            src_port: 5555,
        }
    }

    #[test]
    fn framed_report_decodes_end_to_end() {
        let mut r = Reporter::new(config());
        let report = DtaReport::key_write(3, TelemetryKey::from_u64(1), 2, vec![1, 2, 3, 4]);
        let pkt = r.frame(&report);
        let udp = UdpPacket::decode(pkt.payload).unwrap();
        assert_eq!(udp.udp.dst_port, DTA_UDP_PORT);
        assert_eq!(DtaReport::decode(udp.payload).unwrap(), report);
        assert_eq!(r.exported, 1);
    }

    proptest! {
        /// The single-pass pooled frame is the two-step framing, byte for
        /// byte, for every primitive, every payload length up to the bound
        /// and both flag bits — into a fresh buffer and a recycled one.
        #[test]
        fn frame_equals_two_step_framing(
            primitive in 0u8..4,
            seq in any::<u32>(),
            key in any::<u64>(),
            redundancy in 1u8..=dta_core::MAX_REDUNDANCY,
            word in any::<u64>(),
            payload in prop::collection::vec(any::<u8>(), 0..=dta_core::MAX_TELEMETRY_PAYLOAD),
            immediate in any::<bool>(),
            nack_on_drop in any::<bool>(),
        ) {
            let key = TelemetryKey::from_u64(key);
            let mut report = match primitive {
                0 => DtaReport::key_write(seq, key, redundancy, Bytes::new()),
                1 => DtaReport::append(seq, word as u32, Bytes::new()),
                2 => DtaReport::key_increment(seq, key, redundancy, word),
                _ => DtaReport::postcard(seq, key, word as u8 % 5, 5, (word >> 8) as u32),
            }
            .with_flags(dta_core::DtaFlags { immediate, nack_on_drop });
            report.payload = Bytes::from(payload);
            let c = config();
            let two_step = UdpPacket::frame(
                c.my_ip,
                c.src_port,
                c.collector_ip,
                DTA_UDP_PORT,
                report.encode().unwrap(),
            )
            .encode();
            let mut r = Reporter::new(c);
            for _ in 0..2 {
                let pkt = r.frame(&report);
                prop_assert_eq!(&pkt.payload, &two_step);
                prop_assert_eq!((pkt.src, pkt.dst), (c.my_id, c.collector_id));
            }
            let pool = (r.frames.allocated, r.frames.recycled);
            prop_assert_eq!(pool, (1, 1), "the second frame recycles the first's buffer");
        }
    }

    #[test]
    fn dta_overhead_vs_legacy_udp_is_small() {
        // Goal #4: DTA's wire overhead over raw UDP telemetry is just the
        // two DTA headers (8B fixed + primitive sub-header).
        let mut r = Reporter::new(config());
        let report = DtaReport::append(0, 1, vec![0u8; 4]);
        let dta_len = r.frame(&report).wire_len();
        let legacy_len = legacy_udp_frame(&config(), Bytes::from(vec![0u8; 4])).wire_len();
        assert_eq!(dta_len - legacy_len, 8 + 4 /* Append sub-header */);
    }

    /// A host with one reporter at `config()`, pacing `schedule` at
    /// `per_tick`, retransmitting under `policy` when given.
    fn one_lane(
        schedule: Vec<DtaReport>,
        per_tick: usize,
        policy: Option<RetransmitPolicy>,
    ) -> ReporterFleetNode {
        let mut node = ReporterFleetNode::new(per_tick);
        if let Some(policy) = policy {
            node.set_retransmit(policy);
        }
        node.add_lane(Reporter::new(config()), schedule);
        node
    }

    #[test]
    fn paced_node_emits_at_most_n_per_tick_then_goes_quiet() {
        let schedule: Vec<DtaReport> =
            (0..7u32).map(|i| DtaReport::append(i, 1, i.to_be_bytes().to_vec())).collect();
        let mut node = one_lane(schedule, 3, None);
        assert_eq!(node.pending(), 7);
        assert_eq!(ReporterFleetNode::ticks_to_drain(7, 3), 3);
        let sizes: Vec<usize> = (0..5)
            .map(|_| {
                let mut out = Vec::new();
                node.tick(SimTime::ZERO, &mut out);
                out.len()
            })
            .collect();
        assert_eq!(sizes, [3, 3, 1, 0, 0]);
        assert_eq!(node.pending(), 0);
        assert_eq!(exported(&node), 7);
    }

    #[test]
    fn fleet_node_paces_each_lane_and_cancels_when_drained() {
        let mut node = ReporterFleetNode::new(2);
        for lane in 0..3u32 {
            let schedule: Vec<DtaReport> = (0..lane + 2)
                .map(|i| DtaReport::append(i, 1, i.to_be_bytes().to_vec()))
                .collect();
            node.add_lane(Reporter::new(config()), schedule);
        }
        assert_eq!(node.lanes(), 3);
        assert_eq!(node.pending(), 2 + 3 + 4);
        let mut out = Vec::new();
        // Tick 1: every lane emits up to 2.
        assert!(node.tick(SimTime::ZERO, &mut out));
        assert_eq!(out.len(), 2 + 2 + 2);
        // Tick 2: lanes 1 and 2 finish; the series keeps going until then.
        out.clear();
        assert!(!node.tick(SimTime::ZERO, &mut out), "drained fleet cancels its ticks");
        assert_eq!(out.len(), 1 + 2);
        assert_eq!(node.pending(), 0);
        assert_eq!(exported(&node), 9);
        // Inbound non-NACK packets terminate, counted as stray.
        let pkt = legacy_udp_frame(&config(), Bytes::from_static(b"nack"));
        out.clear();
        node.receive(SimTime::ZERO, pkt, &mut out);
        assert!(out.is_empty());
        assert_eq!(node.received, 1);
        assert_eq!(node.retx_stats.stray_received, 1);
    }

    /// Frame a NACK for `seq` addressed to `dst_ip`, as the translator
    /// would emit it.
    fn nack_packet(dst_ip: u32, seq: u32) -> Packet {
        let udp = UdpPacket::frame(
            0x0A00_0001,
            dta_core::DTA_NACK_PORT,
            dst_ip,
            5555,
            dta_core::encode_nack(seq),
        );
        Packet::new(NodeId(7), NodeId(1), udp.encode())
    }

    /// Decode the DTA report inside an emitted packet.
    fn emitted_report(e: &Emission) -> DtaReport {
        let udp = UdpPacket::decode(e.packet.payload.clone()).unwrap();
        DtaReport::decode(udp.payload).unwrap()
    }

    #[test]
    fn paced_node_retransmits_nacked_report_from_window() {
        let schedule: Vec<DtaReport> =
            (0..3u32).map(|i| DtaReport::append(i, 1, i.to_be_bytes().to_vec())).collect();
        let policy = RetransmitPolicy { window: 8, max_retries: 1, pace_ns: 500 };
        let mut node = one_lane(schedule.clone(), 8, Some(policy));
        let mut out = Vec::new();
        node.tick(SimTime::ZERO, &mut out);
        assert_eq!(out.len(), 3);

        // NACK for seq 1: the exact report re-emits, paced by pace_ns.
        out.clear();
        node.receive(SimTime::ZERO, nack_packet(config().my_ip, 1), &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].delay_ns, 500, "retransmit must be paced");
        assert_eq!(emitted_report(&out[0]), schedule[1]);
        assert_eq!(node.retx_stats.nacks_received, 1);
        assert_eq!(node.retx_stats.retransmitted, 1);

        // Second NACK for the same seq: budget (1) spent.
        out.clear();
        node.receive(SimTime::ZERO, nack_packet(config().my_ip, 1), &mut out);
        assert!(out.is_empty());
        assert_eq!(node.retx_stats.retries_exhausted, 1);

        // NACK for a seq never sent: unmatched.
        node.receive(SimTime::ZERO, nack_packet(config().my_ip, 99), &mut out);
        assert!(out.is_empty());
        assert_eq!(node.retx_stats.nacks_unmatched, 1);
        assert!(node.retx_stats.ledger_closes());
        assert_eq!(node.received, 3);
    }

    #[test]
    fn window_eviction_bounds_recovery() {
        let schedule: Vec<DtaReport> =
            (0..4u32).map(|i| DtaReport::append(i, 1, i.to_be_bytes().to_vec())).collect();
        let policy = RetransmitPolicy { window: 2, max_retries: 8, pace_ns: 0 };
        let mut node = one_lane(schedule, 8, Some(policy));
        let mut out = Vec::new();
        node.tick(SimTime::ZERO, &mut out);
        // Seqs 0 and 1 were evicted by 2 and 3 (window of 2).
        out.clear();
        node.receive(SimTime::ZERO, nack_packet(config().my_ip, 0), &mut out);
        assert!(out.is_empty());
        assert_eq!(node.retx_stats.nacks_unmatched, 1);
        node.receive(SimTime::ZERO, nack_packet(config().my_ip, 3), &mut out);
        assert_eq!(out.len(), 1, "in-window seq must still retransmit");
        assert!(node.retx_stats.ledger_closes());
    }

    #[test]
    fn fleet_node_routes_nack_to_the_owning_lane() {
        let mut node = ReporterFleetNode::new(8);
        node.set_retransmit(RetransmitPolicy { window: 8, max_retries: 2, pace_ns: 100 });
        for lane in 0..2u32 {
            let mut cfg = config();
            cfg.my_ip = 0x0A02_0000 + lane;
            // Globally unique seqs, as the scenario workload generator
            // assigns them.
            let schedule: Vec<DtaReport> = (0..2u32)
                .map(|i| DtaReport::append(lane * 2 + i, 1, vec![lane as u8; 4]))
                .collect();
            node.add_lane(Reporter::new(cfg), schedule);
        }
        let mut out = Vec::new();
        node.tick(SimTime::ZERO, &mut out);
        assert_eq!(out.len(), 4);
        // Seq 2 belongs to lane 1; the NACK is addressed to lane 1's IP.
        out.clear();
        node.receive(SimTime::ZERO, nack_packet(0x0A02_0001, 2), &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(emitted_report(&out[0]).payload.as_ref(), &[1u8; 4]);
        assert_eq!(node.retx_stats.retransmitted, 1);
        // A NACK addressed to an IP no lane owns is unmatched, not a panic.
        out.clear();
        node.receive(SimTime::ZERO, nack_packet(0x0A02_0099, 2), &mut out);
        assert!(out.is_empty());
        assert_eq!(node.retx_stats.nacks_unmatched, 1);
        assert!(node.retx_stats.ledger_closes());
    }

    #[test]
    fn nack_lookalike_from_wrong_source_port_is_stray() {
        // An 8-byte user payload starting "DNAK" is only a NACK when it
        // comes from the translator's NACK port — anything else must not
        // trigger a retransmission.
        let schedule = vec![DtaReport::append(0, 1, vec![1; 4])];
        let mut node = one_lane(schedule, 8, Some(RetransmitPolicy::default()));
        let mut out = Vec::new();
        node.tick(SimTime::ZERO, &mut out);
        out.clear();
        let spoof = UdpPacket::frame(
            0x0A00_0001,
            8080, // not DTA_NACK_PORT
            config().my_ip,
            5555,
            dta_core::encode_nack(0),
        );
        node.receive(SimTime::ZERO, Packet::new(NodeId(7), NodeId(1), spoof.encode()), &mut out);
        assert!(out.is_empty(), "spoofed NACK retransmitted");
        assert_eq!(node.retx_stats.stray_received, 1);
        assert_eq!(node.retx_stats.nacks_received, 0);
    }

    #[test]
    fn shrinking_the_window_trims_existing_buffers() {
        // 11 reports paced 10/tick: tick 1 buffers 10 entries under a
        // wide window; the window is then shrunk to 2 and tick 2 records
        // the 11th — which must trim all the way down to the new bound.
        let mut node = ReporterFleetNode::new(10);
        node.set_retransmit(RetransmitPolicy { window: 64, max_retries: 4, pace_ns: 0 });
        let schedule: Vec<DtaReport> =
            (0..11u32).map(|i| DtaReport::append(i, 1, vec![0; 4])).collect();
        node.add_lane(Reporter::new(config()), schedule);
        let mut out = Vec::new();
        node.tick(SimTime::ZERO, &mut out);
        assert_eq!(out.len(), 10);
        node.set_retransmit(RetransmitPolicy { window: 2, max_retries: 4, pace_ns: 0 });
        out.clear();
        node.tick(SimTime::ZERO, &mut out); // records seq 10, trims to 2
        assert_eq!(out.len(), 1);
        out.clear();
        node.receive(SimTime::ZERO, nack_packet(config().my_ip, 3), &mut out);
        assert!(out.is_empty(), "seq outside the shrunk window must not retransmit");
        assert_eq!(node.retx_stats.nacks_unmatched, 1);
        node.receive(SimTime::ZERO, nack_packet(config().my_ip, 10), &mut out);
        assert_eq!(out.len(), 1, "newest seq must survive the trim");
    }

    #[test]
    fn set_retransmit_reapplies_policy_to_existing_lanes() {
        let mut node = ReporterFleetNode::new(8);
        node.set_retransmit(RetransmitPolicy { window: 8, max_retries: 4, pace_ns: 100 });
        node.add_lane(
            Reporter::new(config()),
            vec![DtaReport::append(0, 1, vec![1; 4])],
        );
        // Tighten the policy after the lane exists: the lane must follow.
        node.set_retransmit(RetransmitPolicy { window: 8, max_retries: 4, pace_ns: 9_000 });
        let mut out = Vec::new();
        node.tick(SimTime::ZERO, &mut out);
        out.clear();
        node.receive(SimTime::ZERO, nack_packet(config().my_ip, 0), &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].delay_ns, 9_000, "existing lane kept the stale pacing policy");
    }

    #[test]
    fn nack_without_retransmit_policy_still_splits_counters() {
        let mut node = one_lane(Vec::new(), 1, None);
        let mut out = Vec::new();
        node.receive(SimTime::ZERO, nack_packet(config().my_ip, 5), &mut out);
        assert!(out.is_empty(), "no policy, no retransmit");
        assert_eq!(node.retx_stats.nacks_received, 1);
        assert_eq!(node.retx_stats.nacks_unmatched, 1);
        assert_eq!(node.received, 1);
        assert!(node.retx_stats.ledger_closes());
    }

    #[test]
    fn node_emits_queued_reports_on_tick() {
        // A one-shot export is a lane paced wider than its schedule.
        let queued =
            vec![DtaReport::append(0, 1, vec![1; 4]), DtaReport::append(1, 1, vec![2; 4])];
        let mut node = one_lane(queued.clone(), 8, None);
        let mut emissions = Vec::new();
        node.tick(SimTime::ZERO, &mut emissions);
        assert_eq!(emissions.iter().map(emitted_report).collect::<Vec<_>>(), queued);
        emissions.clear();
        node.tick(SimTime::ZERO, &mut emissions);
        assert!(emissions.is_empty(), "outbox drained");
    }
}
