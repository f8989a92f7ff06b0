//! Kernel replays: the workload's own recorded inputs run through one
//! public function of one layer, timed in fixed-work chunks and reduced
//! with the same quiet-host estimator as the end-to-end rates. A replay
//! says what that layer costs on this workload's data; the spans say how
//! much of a report it is.

use std::hint::black_box;
use std::time::Instant;

use bytes::Bytes;
use dta_collector::ServiceConfig;
use dta_core::framing::UdpPacket;
use dta_core::{DtaReport, PrimitiveHeader, TelemetryKey};
use dta_hash::{Crc32, CrcParams, KeyScratch};
use dta_net::node::SinkNode;
use dta_net::{FatTree, LinkConfig, Network, NodeId, Packet};
use dta_rdma::packet::RocePacket;
use dta_reporter::{Reporter, ReporterConfig};
use dta_translator::{spsc, Partitioner, TranslatorConfig, TranslatorOutput};

use crate::metrics::Outcome;
use crate::pipeline::Pipeline;
use crate::stats::ChunkTimes;
use crate::trace::{Span, Tracer};

/// Chunks per replay: enough for a steady fast tail, short enough that a traced
/// run's dozen replays fit its budget.
const REPLAY_CHUNKS: usize = 200;

/// Time `REPLAY_CHUNKS` calls of `chunk`, each doing `work` units; returns
/// quiet-host nanoseconds per unit. The first call is a warm-up.
fn quiet_ns(work: usize, mut chunk: impl FnMut()) -> f64 {
    chunk();
    let mut times = ChunkTimes::new(work as u64, REPLAY_CHUNKS);
    for _ in 0..REPLAY_CHUNKS {
        times.record(|| {
            let t0 = Instant::now();
            chunk();
            t0.elapsed().as_nanos() as u64
        });
    }
    times.quiet_ns()
}

/// `collector.service_new_ms` and `translator.new_ms` from the set-up spans.
pub(super) fn record_setup_spans(out: &mut Outcome, spans: &[Span]) {
    let ms = |name: &str| {
        let total: u64 = spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        (total > 0).then_some(total as f64 / 1e6)
    };
    out.set_opt("collector.service_new_ms", ms("collector.service_new"));
    out.set_opt("translator.new_ms", ms("translator.new"));
}

fn key_of(report: &DtaReport) -> Option<&TelemetryKey> {
    match &report.primitive {
        PrimitiveHeader::KeyWrite(h) => Some(&h.key),
        PrimitiveHeader::KeyIncrement(h) => Some(&h.key),
        PrimitiveHeader::Postcarding(h) => Some(&h.key),
        PrimitiveHeader::Append(_) => None,
    }
}

/// `hash.digest_ns`: `KeyScratch::digests(key, 2)` over the stream's key
/// sequence, in a scratch sized like the translator's (so it hits where the
/// translator's hits). `hash.crc_ns`: one `Crc32::compute` of a 16 B key.
pub(super) fn hash_kernels(out: &mut Outcome, reports: &[DtaReport]) {
    let keys: Vec<TelemetryKey> = reports
        .iter()
        .filter_map(key_of)
        .copied()
        .take(1 << 18)
        .collect();
    if keys.is_empty() {
        return;
    }
    const CHUNK: usize = 4096;
    let mut scratch = KeyScratch::new(
        TranslatorConfig::default().key_scratch_entries,
        dta_hash::polynomials::MAX_REDUNDANCY,
    );
    let mut at = 0usize;
    let digest = quiet_ns(CHUNK, || {
        for _ in 0..CHUNK {
            black_box(scratch.digests(keys[at].as_bytes(), 2));
            at = (at + 1) % keys.len();
        }
    });
    out.set("hash.digest_ns", digest);
    let crc = Crc32::new(CrcParams::IEEE);
    let mut at = 0usize;
    let crc_ns = quiet_ns(CHUNK, || {
        for _ in 0..CHUNK {
            black_box(crc.compute(black_box(keys[at].as_bytes())));
            at = (at + 1) % keys.len();
        }
    });
    out.set("hash.crc_ns", crc_ns);
}

/// Translate `reports` on a fresh pipeline and return the RoCE packets.
fn packets_of(p: &mut Pipeline, reports: &[DtaReport]) -> Vec<RocePacket> {
    let mut out = TranslatorOutput::default();
    let mut packets = Vec::new();
    for batch in reports.chunks(crate::pipeline::BATCH) {
        p.tr.process_batch(0, batch, &mut out);
        packets.append(&mut out.packets);
    }
    packets.extend(p.tr.flush(0).packets);
    packets
}

/// Reports whose packets a region replay uses (bounds the replay's memory
/// and time on `ingest-wide`; well past every cache either way).
const REGION_REPLAY_REPORTS: usize = 1 << 17;

/// `rdma.mr_write_ns`, `rdma.mr_fetch_add_ns`, `rdma.mr_read_ns`: the
/// `(va, bytes)` sequence the translator emits for this workload's reports,
/// replayed through `MemoryRegion::write` / `fetch_add` / `read_into` on a
/// second collector of the same geometry (the measured one is not touched).
pub(super) fn region_kernels(
    out: &mut Outcome,
    svc: &ServiceConfig,
    trc: &TranslatorConfig,
    kw_reports: &[DtaReport],
    inc_reports: &[DtaReport],
) {
    let mut p = Pipeline::connect(svc.clone(), trc.clone(), &mut Tracer::new(false, 0));
    let take = |r: &[DtaReport]| r[..r.len().min(REGION_REPLAY_REPORTS)].to_vec();
    // A mixed stream also writes the Append and Postcarding regions: keep
    // the verbs that target the region being replayed.
    let rkey_of = |region: Option<&dta_rdma::MemoryRegion>| region.map(|r| r.rkey);
    let kw_rkey = rkey_of(p.col.keywrite.as_ref().map(|s| s.region()));
    let cms_rkey = rkey_of(p.col.key_increment.as_ref().map(|s| s.region()));
    let writes: Vec<(u64, Bytes)> = packets_of(&mut p, &take(kw_reports))
        .into_iter()
        .filter_map(|pkt| {
            pkt.reth
                .filter(|r| Some(r.rkey) == kw_rkey)
                .map(|r| (r.va, pkt.payload))
        })
        .collect();
    let adds: Vec<(u64, u64)> = packets_of(&mut p, &take(inc_reports))
        .into_iter()
        .filter_map(|pkt| {
            pkt.atomic
                .filter(|a| Some(a.rkey) == cms_rkey)
                .map(|a| (a.va, a.swap_add))
        })
        .collect();
    const CHUNK: usize = 4096;
    if let (Some(store), false) = (p.col.keywrite.as_ref(), writes.is_empty()) {
        let region = store.region();
        let mut at = 0usize;
        let write_ns = quiet_ns(CHUNK, || {
            for _ in 0..CHUNK {
                let (va, data) = &writes[at];
                region.write(*va, data).expect("replayed write in range");
                at = (at + 1) % writes.len();
            }
        });
        out.set("rdma.mr_write_ns", write_ns);
        let mut at = 0usize;
        let mut slot = [0u8; 8];
        let read_ns = quiet_ns(CHUNK, || {
            for _ in 0..CHUNK {
                let (va, data) = &writes[at];
                region
                    .read_into(*va, &mut slot[..data.len().min(8)])
                    .expect("replayed read");
                black_box(&slot);
                at = (at + 1) % writes.len();
            }
        });
        out.set("rdma.mr_read_ns", read_ns);
    }
    if let (Some(store), false) = (p.col.key_increment.as_ref(), adds.is_empty()) {
        let region = store.region();
        let mut at = 0usize;
        let add_ns = quiet_ns(CHUNK, || {
            for _ in 0..CHUNK {
                let (va, add) = adds[at];
                black_box(
                    region
                        .fetch_add(va, add)
                        .expect("replayed fetch_add in range"),
                );
                at = (at + 1) % adds.len();
            }
        });
        out.set("rdma.mr_fetch_add_ns", add_ns);
    }
}

/// `shard.route_ns` (`Partitioner::route_cached` over the stream) and
/// `shard.spsc_ns` (one `spsc` push + pop pair on one thread: the ring's
/// own cost without a second core's cache misses).
pub(super) fn shard_kernels(out: &mut Outcome, reports: &[DtaReport]) {
    const CHUNK: usize = 4096;
    let partitioner = Partitioner::for_shards(1);
    let mut scratch = KeyScratch::new(16 * 1024, 1);
    let mut at = 0usize;
    let route = quiet_ns(CHUNK, || {
        for _ in 0..CHUNK {
            black_box(partitioner.route_cached(&mut scratch, &reports[at]));
            at = (at + 1) % reports.len();
        }
    });
    out.set("shard.route_ns", route);
    let (mut tx, mut rx) = spsc::channel::<u64>(4096);
    let spsc_ns = quiet_ns(CHUNK, || {
        for i in 0..CHUNK as u64 {
            tx.push(i).expect("ring drained every pair");
            black_box(rx.pop());
        }
    });
    out.set("shard.spsc_ns", spsc_ns);
}

/// The wire-side kernels of a scenario workload, over its generated
/// streams: `core.encode_ns`, `reporter.frame_ns`, `core.decode_ns`
/// (`UdpPacket::decode` + `DtaReport::decode`, what the translator node
/// does per arrival) and `rdma.wire_codec_ns` (`RocePacket::encode` +
/// `decode` over the packets those reports translate to).
pub(super) fn wire_kernels(
    out: &mut Outcome,
    svc: &ServiceConfig,
    trc: &TranslatorConfig,
    reports: &[DtaReport],
) {
    let n = reports.len();
    out.set(
        "core.encode_ns",
        quiet_ns(n, || {
            for r in reports {
                black_box(r.encode().expect("generated report encodes"));
            }
        }),
    );
    let config = ReporterConfig {
        my_id: NodeId(1),
        my_ip: 0x0A02_0001,
        collector_id: NodeId(0),
        collector_ip: dta_sim::COLLECTOR_IP,
        src_port: 5000,
    };
    let mut reporter = Reporter::new(config);
    out.set(
        "reporter.frame_ns",
        quiet_ns(n, || {
            black_box(reporter.frame_all(reports));
        }),
    );
    let framed: Vec<Packet> = reporter.frame_all(reports);
    out.set(
        "core.decode_ns",
        quiet_ns(n, || {
            for pkt in &framed {
                let udp = UdpPacket::decode(pkt.payload.clone()).expect("framed packet decodes");
                black_box(DtaReport::decode(udp.payload).expect("framed report decodes"));
            }
        }),
    );
    let mut p = Pipeline::connect(svc.clone(), trc.clone(), &mut Tracer::new(false, 0));
    let packets = packets_of(&mut p, reports);
    if !packets.is_empty() {
        out.set(
            "rdma.wire_codec_ns",
            quiet_ns(packets.len(), || {
                for pkt in &packets {
                    black_box(RocePacket::decode(pkt.encode()).expect("encoded packet decodes"));
                }
            }),
        );
    }
}

/// Packets each host blasts in the raw-fabric replay.
const BLAST_PER_HOST: usize = 64;

/// `net.build_ms` (`FatTree::new(k)` + `shortest_path_routing()` + links)
/// and `net.event_ns`: a bare `Network` — every host blasts the host half
/// the fabric away (so traffic crosses the core and no link is a hot
/// spot), sinks everywhere, no DTA node anywhere — in host nanoseconds per
/// fabric event (`forwarded + delivered`).
pub(super) fn net_kernels(out: &mut Outcome, k: u32) {
    let build = |k: u32| {
        let ft = FatTree::new(k);
        let mut net = Network::new(ft.topology.shortest_path_routing());
        for (a, b) in ft.topology.edges() {
            net.add_duplex_link(a, b, LinkConfig::dc_100g());
        }
        (ft, net)
    };
    out.set(
        "net.build_ms",
        quiet_ns(1, || drop(black_box(build(k)))) / 1e6,
    );

    let (ft, _) = build(k);
    let half = k / 2;
    let hosts: Vec<NodeId> = (0..k)
        .flat_map(|pod| (0..half).flat_map(move |e| (0..half).map(move |h| (pod, e, h))))
        .map(|(pod, e, h)| ft.host(pod, e, h))
        .collect();
    let payload = Bytes::from(vec![0xA5u8; 64]);
    let mut events = 0u64;
    let mut times = ChunkTimes::new(1, REPLAY_CHUNKS / 4);
    for _ in 0..REPLAY_CHUNKS / 4 {
        // Building is outside the clock; only the event loop is timed.
        let (_, mut net) = build(k);
        for &host in &hosts {
            net.add_node(host, Box::new(SinkNode::default()));
        }
        for (i, &host) in hosts.iter().enumerate() {
            let peer = hosts[(i + hosts.len() / 2) % hosts.len()];
            for _ in 0..BLAST_PER_HOST {
                net.send_from(host, Packet::new(host, peer, payload.clone()));
            }
        }
        times.record(|| {
            let t0 = Instant::now();
            net.run_to_idle();
            t0.elapsed().as_nanos() as u64
        });
        events = net.stats.forwarded + net.stats.delivered;
        if net.stats.dropped > 0 {
            out.violation(format!("raw fabric dropped {} packets", net.stats.dropped));
        }
    }
    times.work_per_chunk = events.max(1);
    out.set("net.event_ns", times.quiet_ns());
}
