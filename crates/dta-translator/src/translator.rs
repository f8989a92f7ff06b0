//! DTA-to-RDMA translation (the pipeline of Figure 6).
//!
//! Hot-path design rules (see `DESIGN.md`):
//!
//! * each slot/chunk/batch image is built **once** and all `N` redundancy
//!   replicas receive clones of its [`bytes::Bytes`] handle, never a heap
//!   copy per replica: an image of at most [`bytes::Bytes::INLINE_CAP`]
//!   bytes (a Key-Write slot with a value up to 12 B) rides inline, so a
//!   clone is a plain copy; a wider one is a pooled buffer, and a clone is
//!   a refcount bump;
//! * key digests (checksum + `N` slot hashes) come from the
//!   [`KeyScratch`] cache, so a key that reported recently costs one
//!   16-byte compare instead of `1 + N` CRC passes;
//! * [`Translator::process_batch`] reuses the caller's
//!   [`TranslatorOutput`] so steady-state batch translation does not grow
//!   or reallocate the packet vector, and hints the [`KeyScratch`] set a
//!   few reports ahead, so a key stream wider than the scratch overlaps its
//!   table misses (a hint is never a lookup: same hits, same evictions).

#[cfg(test)]
use bytes::Bytes;
use dta_collector::layout::{AppendLayout, CmsLayout, KwLayout, PostcardLayout};
use dta_collector::postcarding::{hop_checksums, ValueCodec};
use dta_collector::service::{SERVICE_APPEND, SERVICE_CMS, SERVICE_KW, SERVICE_POSTCARD};
use dta_core::{DtaReport, ImagePool, PrimitiveHeader};
#[cfg(test)]
use dta_core::TelemetryKey;
use dta_hash::scratch::KeyScratch;
use dta_rdma::cm::{ConnectionParams, ServiceId};
use dta_rdma::packet::{RocePacket, IMAGE_BYTES};
use dta_rdma::qp::QueuePair;
use dta_rdma::verbs::RdmaOp;

use crate::append::{AppendBatcher, BatchWrite};
use crate::postcard_cache::{CacheEmission, PostcardCache};
use crate::ratelimit::{RateLimiter, RateLimiterConfig};

/// How many reports ahead the batch loop hints the key scratch: a set miss
/// is one DRAM round-trip, a translated report ~100 ns, so a handful
/// suffices and the hinted sets are still in L1 when reached. Not a knob —
/// sized once on `ingest-wide`.
const BATCH_LOOKAHEAD: usize = 6;

/// Image pool depth. Buffers recycle once the NIC (or whatever consumed
/// the packets) drops them; the depth covers the packets in flight across
/// a couple of batches before the pool falls back to fresh allocations,
/// while staying small enough that the rotation is cache-resident (a
/// deeper pool guarantees a cold line per build and loses to the
/// allocator's LIFO fast path).
const IMAGE_POOL_DEPTH: usize = 1024;

/// Translator sizing and behaviour knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct TranslatorConfig {
    /// Postcarding aggregation cache rows (32K on the Tofino prototype).
    pub postcard_cache_slots: usize,
    /// Postcarding hop bound `B`.
    pub postcard_hops: u8,
    /// Postcarding slot width in bits.
    pub postcard_bits: u32,
    /// Postcarding value-universe size |V| (must match the collector codec).
    pub postcard_values: u32,
    /// Postcarding redundancy `N`.
    pub postcard_redundancy: usize,
    /// Append batch size `B` (16 in the paper's headline results).
    pub append_batch: usize,
    /// Path MTU toward the collector; batches larger than this segment into
    /// WRITE FIRST/MIDDLE/LAST sequences.
    pub mtu: usize,
    /// Optional RDMA rate limiter.
    pub rate_limit: Option<RateLimiterConfig>,
    /// Key digest scratch entries (rounded to a power of two). Models the
    /// ASIC's per-key SRAM scratch; a hit skips all CRC work for a report.
    pub key_scratch_entries: usize,
}

impl Default for TranslatorConfig {
    fn default() -> Self {
        TranslatorConfig {
            postcard_cache_slots: 32 * 1024,
            postcard_hops: 5,
            postcard_bits: 32,
            postcard_values: 1 << 12,
            postcard_redundancy: 1,
            append_batch: 16,
            mtu: dta_rdma::segment::MTU_1024,
            rate_limit: None,
            key_scratch_entries: 16 * 1024,
        }
    }
}

/// Counters for the translation paths.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TranslatorStats {
    /// DTA reports processed.
    pub reports_in: u64,
    /// RoCE packets emitted.
    pub rdma_out: u64,
    /// Reports dropped by the rate limiter.
    pub rate_limited: u64,
    /// NACKs sent back to reporters.
    pub nacks_sent: u64,
    /// Reports dropped because the target service is not connected.
    pub no_service: u64,
    /// QP resynchronizations performed after collector NAKs.
    pub resyncs: u64,
}

impl TranslatorStats {
    /// Accumulate `other` into `self` — used to aggregate per-shard
    /// translator counters into one pipeline-wide view.
    pub fn merge(&mut self, other: &TranslatorStats) {
        self.reports_in += other.reports_in;
        self.rdma_out += other.rdma_out;
        self.rate_limited += other.rate_limited;
        self.nacks_sent += other.nacks_sent;
        self.no_service += other.no_service;
        self.resyncs += other.resyncs;
    }
}

/// The result of translating one DTA report (or a batch of them).
#[derive(Debug, Default)]
pub struct TranslatorOutput {
    /// RoCE packets to forward to the collector NIC.
    pub packets: Vec<RocePacket>,
    /// Sequence numbers of reports the rate limiter dropped whose
    /// `nack_on_drop` flag requests a NACK back to the reporter — one entry
    /// per dropped report, in drop order, so a batch caller can answer each
    /// reporter individually (the single-report path sees 0 or 1 entries).
    pub nacked: Vec<u32>,
}

impl TranslatorOutput {
    /// Reset for reuse, keeping the vectors' capacity.
    pub fn clear(&mut self) {
        self.packets.clear();
        self.nacked.clear();
    }
}

/// A connected per-primitive RDMA path.
#[derive(Debug)]
struct ServiceConn {
    qp: QueuePair,
    params: ConnectionParams,
}

/// The DTA translator dataplane.
///
/// Every piece of hot-path state — the key-digest scratch, the image pool,
/// the postcard cache, the append batcher, the per-service QPs — is *owned*
/// by the instance, never shared: a [`crate::ShardedTranslator`] runs one
/// `Translator` per worker shard with zero cross-shard traffic (asserted
/// `Send` below so a shard can own its translator on its own thread).
#[derive(Debug)]
pub struct Translator {
    config: TranslatorConfig,
    scratch: KeyScratch,
    codec: ValueCodec,
    images: ImagePool,

    kw: Option<(ServiceConn, KwLayout)>,
    postcard: Option<(ServiceConn, PostcardLayout)>,
    append: Option<(ServiceConn, AppendLayout, AppendBatcher)>,
    cms: Option<(ServiceConn, CmsLayout)>,

    cache: PostcardCache,
    limiter: Option<RateLimiter>,
    /// Counters.
    pub stats: TranslatorStats,
}

// A shard owns its translator on a worker thread; nothing inside may be
// thread-bound. (`Sync` is deliberately NOT asserted: all hot state is
// `&mut`-owned, which is the whole sharding model.)
const fn _assert_send<T: Send>() {}
const _: () = _assert_send::<Translator>();

impl Translator {
    /// Translator with no connected services.
    pub fn new(config: TranslatorConfig) -> Self {
        let cache = PostcardCache::new(config.postcard_cache_slots, config.postcard_hops);
        let codec = ValueCodec::switch_ids(config.postcard_values, config.postcard_bits);
        let limiter = config.rate_limit.map(RateLimiter::new);
        let scratch = KeyScratch::new(
            config.key_scratch_entries,
            dta_hash::polynomials::MAX_REDUNDANCY,
        );
        Translator {
            config,
            scratch,
            codec,
            images: ImagePool::new(IMAGE_BYTES, IMAGE_POOL_DEPTH),
            kw: None,
            postcard: None,
            append: None,
            cms: None,
            cache,
            limiter,
            stats: TranslatorStats::default(),
        }
    }

    /// Translator configuration.
    pub fn config(&self) -> &TranslatorConfig {
        &self.config
    }

    /// The postcard aggregation cache (for Figure 14 statistics).
    pub fn postcard_cache(&self) -> &PostcardCache {
        &self.cache
    }

    /// Hit/miss counters of the key digest scratch.
    pub fn key_scratch_stats(&self) -> dta_hash::ScratchStats {
        self.scratch.stats
    }

    /// Image-pool counters: `(recycled, allocated)`. Once the ring has grown
    /// to the images in flight (packets consumed downstream), `recycled`
    /// grows and `allocated` stays flat — the report hot path is
    /// allocation-free.
    pub fn image_pool_stats(&self) -> (u64, u64) {
        (self.images.recycled, self.images.allocated)
    }

    /// Attach the Key-Write service (CM handshake result).
    pub fn connect_key_write(&mut self, qp: QueuePair, params: ConnectionParams) {
        let layout = KwLayout {
            base_va: params.base_va,
            slots: params.slots,
            value_bytes: params.slot_bytes - KwLayout::CSUM_BYTES,
        };
        self.kw = Some((ServiceConn { qp, params }, layout));
    }

    /// Attach the Postcarding service.
    pub fn connect_postcarding(&mut self, qp: QueuePair, params: ConnectionParams) {
        let layout = PostcardLayout {
            base_va: params.base_va,
            chunks: params.slots,
            hops: self.config.postcard_hops,
            slot_bits: self.config.postcard_bits,
        };
        assert_eq!(
            layout.chunk_stride(),
            params.slot_bytes as u64,
            "collector chunk stride disagrees with translator hop bound"
        );
        self.postcard = Some((ServiceConn { qp, params }, layout));
    }

    /// Attach the Append service.
    pub fn connect_append(&mut self, qp: QueuePair, params: ConnectionParams) {
        let entries_per_list = params.slots;
        let entry_bytes = params.slot_bytes;
        let list_bytes = entries_per_list * entry_bytes as u64;
        let lists = (params.region_len / list_bytes) as u32;
        let layout = AppendLayout {
            base_va: params.base_va,
            lists,
            entries_per_list,
            entry_bytes,
        };
        let batcher = AppendBatcher::new(layout, self.config.append_batch);
        self.append = Some((ServiceConn { qp, params }, layout, batcher));
    }

    /// Attach the Key-Increment service.
    pub fn connect_key_increment(&mut self, qp: QueuePair, params: ConnectionParams) {
        let layout = CmsLayout { base_va: params.base_va, slots: params.slots };
        self.cms = Some((ServiceConn { qp, params }, layout));
    }

    /// Attach the service `service` names, one of the collector's four
    /// `SERVICE_*` ids.
    ///
    /// # Panics
    /// Panics on any other id: no translation path exists for it.
    pub fn connect(&mut self, service: ServiceId, qp: QueuePair, params: ConnectionParams) {
        match service {
            SERVICE_KW => self.connect_key_write(qp, params),
            SERVICE_POSTCARD => self.connect_postcarding(qp, params),
            SERVICE_APPEND => self.connect_append(qp, params),
            SERVICE_CMS => self.connect_key_increment(qp, params),
            other => panic!("service {other} has no translation path"),
        }
    }

    /// Handle a RoCE response from the collector (ACK or NAK). On NAK, the
    /// matching QP's send PSN resynchronizes to the collector's expected
    /// PSN (§5.2's queue-pair resynchronization) unless the QP counts it
    /// as a stale repeat ([`QueuePair::resync_send`]). True when a send
    /// PSN was rewound.
    pub fn on_roce_response(&mut self, pkt: &RocePacket) -> bool {
        if !pkt.is_nak() {
            return false;
        }
        let qpn = pkt.bth.dest_qp;
        for conn in [
            self.kw.as_mut().map(|(c, _)| c),
            self.postcard.as_mut().map(|(c, _)| c),
            self.append.as_mut().map(|(c, _, _)| c),
            self.cms.as_mut().map(|(c, _)| c),
        ]
        .into_iter()
        .flatten()
        {
            if conn.qp.qpn == qpn {
                let rewound = conn.qp.resync_send(pkt.bth.psn);
                self.stats.resyncs += u64::from(rewound);
                return rewound;
            }
        }
        false
    }

    /// Translate one DTA report into RoCE packets (the ingress→egress
    /// traversal of Figure 6).
    ///
    /// Allocates a fresh [`TranslatorOutput`] per call; steady-state hot
    /// loops should prefer [`Translator::process_batch`], which reuses one.
    pub fn process(&mut self, now_ns: u64, report: &DtaReport) -> TranslatorOutput {
        let mut out = TranslatorOutput::default();
        self.process_into(now_ns, report, &mut out);
        out
    }

    /// Translate a batch of reports, appending all packets into `out`
    /// (cleared first, capacity retained). This is the allocation-free
    /// steady-state entry point: after warm-up, translating a batch of any
    /// of the four primitives builds its images in pooled buffers and stages
    /// in preallocated registers — no heap traffic in this layer
    /// (`tests/steady_state_alloc.rs`).
    pub fn process_batch(
        &mut self,
        now_ns: u64,
        reports: &[DtaReport],
        out: &mut TranslatorOutput,
    ) {
        self.translate_batch(reports, |report| (now_ns, report), out);
    }

    /// The one batch loop, behind [`Translator::process_batch`] and the
    /// shard workers alike: `view` yields each item's own ingest time and
    /// report (rate limiting must see arrival timestamps, not the
    /// batch-drain time, to stay a pure function of the delivered stream).
    ///
    /// Equal to [`Translator::process`] report by report, except that it
    /// uses the batch: while report `i` translates, the [`KeyScratch`] set
    /// of report `i + BATCH_LOOKAHEAD` is hinted, so a key stream wider
    /// than the scratch overlaps its table misses instead of taking them
    /// one at a time.
    pub(crate) fn translate_batch<T>(
        &mut self,
        items: &[T],
        view: impl Fn(&T) -> (u64, &DtaReport),
        out: &mut TranslatorOutput,
    ) {
        out.clear();
        // Item 0 translates next: too late to hint (and a batch of one,
        // the scenario nodes' shape, takes no hint at all).
        for item in items.iter().take(BATCH_LOOKAHEAD).skip(1) {
            self.hint(view(item).1);
        }
        for (i, item) in items.iter().enumerate() {
            if let Some(ahead) = items.get(i + BATCH_LOOKAHEAD) {
                self.hint(view(ahead).1);
            }
            let (now_ns, report) = view(item);
            self.process_into(now_ns, report, out);
        }
    }

    /// Hint the scratch set a keyed report will look up. Append carries no
    /// key and a postcard reaches the scratch only when its cache row
    /// completes, so neither is hinted.
    #[inline]
    fn hint(&self, report: &DtaReport) {
        match &report.primitive {
            PrimitiveHeader::KeyWrite(h) => self.scratch.prefetch(h.key.as_bytes()),
            PrimitiveHeader::KeyIncrement(h) => self.scratch.prefetch(h.key.as_bytes()),
            PrimitiveHeader::Append(_) | PrimitiveHeader::Postcarding(_) => {}
        }
    }

    /// Translate one report, appending packets to `out` without clearing it
    /// first.
    fn process_into(&mut self, now_ns: u64, report: &DtaReport, out: &mut TranslatorOutput) {
        self.stats.reports_in += 1;
        let packets_before = out.packets.len();
        let immediate = report.header.flags.immediate.then_some(report.header.seq);
        let nack = report.header.flags.nack_on_drop.then_some(report.header.seq);

        match &report.primitive {
            PrimitiveHeader::KeyWrite(h) => {
                let Some((_, layout)) = &self.kw else {
                    self.stats.no_service += 1;
                    return;
                };
                let layout = *layout;
                let n = h.redundancy as usize;
                if !admit(&mut self.limiter, &mut self.stats, now_ns, n as u64, nack, out) {
                    return;
                }
                // Key digests from the scratch: one lookup covers the
                // checksum and all N slot addresses.
                let digests = self.scratch.digests(h.key.as_bytes(), n);
                // Slot image: checksum || value, padded to the slot width —
                // built once, cloned into every replica. Up to 16 B (values
                // up to 12 B) it is inline, so a clone copies it and a drop
                // frees nothing; a wider image is a recycled pool buffer the
                // replicas share (no allocation in the steady state either
                // way).
                let w = layout.value_bytes as usize;
                let take = report.payload.len().min(w);
                let img = self.images.build(4 + w, |buf| {
                    buf[..4].copy_from_slice(&digests.checksum.to_be_bytes());
                    copy_short(&mut buf[4..4 + take], &report.payload[..take]);
                });

                // One packet per redundancy copy (the switch's PRE); each
                // replica's rid selects the hash function and carries a
                // clone of the image.
                let (conn, _) = self.kw.as_mut().expect("checked above");
                let rkey = conn.params.rkey;
                for rid in 0..n {
                    let data = img.clone();
                    let va = layout.slot_va_from_digest(digests.slots[rid]);
                    let op = match immediate {
                        Some(imm) => RdmaOp::WriteImm { rkey, va, data, imm },
                        None => RdmaOp::Write { rkey, va, data },
                    };
                    out.packets.push(op.into_packet(&mut conn.qp));
                }
            }

            PrimitiveHeader::KeyIncrement(h) => {
                let Some((_, layout)) = &self.cms else {
                    self.stats.no_service += 1;
                    return;
                };
                let layout = *layout;
                let n = h.redundancy as usize;
                if !admit(&mut self.limiter, &mut self.stats, now_ns, n as u64, nack, out) {
                    return;
                }
                let digests = self.scratch.digests(h.key.as_bytes(), n);
                let (conn, _) = self.cms.as_mut().expect("checked above");
                let rkey = conn.params.rkey;
                for rid in 0..n {
                    let va = layout.slot_va_from_digest(digests.slots[rid]);
                    let op = RdmaOp::FetchAdd { rkey, va, add: h.delta };
                    out.packets.push(op.into_packet(&mut conn.qp));
                }
            }

            PrimitiveHeader::Append(h) => {
                let Some((conn, _, batcher)) = &mut self.append else {
                    self.stats.no_service += 1;
                    return;
                };
                let Some(batch) = batcher.push(h.list_id, &report.payload) else {
                    return; // staged or invalid list
                };
                if !admit(&mut self.limiter, &mut self.stats, now_ns, 1, nack, out) {
                    return;
                }
                emit_append_batch(conn, &mut self.images, self.config.mtu, batch, immediate, out);
            }

            PrimitiveHeader::Postcarding(h) => {
                if self.postcard.is_none() {
                    self.stats.no_service += 1;
                    return;
                }
                // The row caches `g(v)`; the hop checksums go on when the
                // row is emitted, from one walk of the key.
                let code = self.codec.encode(Some(h.value));
                let emissions = self.cache.insert(&h.key, h.hop, h.path_len, code);
                for emission in emissions.iter().flatten() {
                    self.emit_postcard_chunk(now_ns, emission, nack, out);
                }
            }
        }
        self.stats.rdma_out += (out.packets.len() - packets_before) as u64;
    }

    /// Flush translator-held state (cache rows, partial batches) — the
    /// periodic timer path. The cost follows what is staged, not what could
    /// be: occupied cache rows (bitmap walk, nothing at all when the cache
    /// is empty) and lists with a partial batch (the batcher's dirty bits).
    pub fn flush(&mut self, now_ns: u64) -> TranslatorOutput {
        let mut out = TranslatorOutput::default();
        for emission in self.cache.flush() {
            self.emit_postcard_chunk(now_ns, &emission, None, &mut out);
        }
        if let Some((conn, _, batcher)) = self.append.as_mut() {
            let mut from = 0;
            while let Some(list) = batcher.next_dirty(from) {
                from = list + 1;
                let Some(batch) = batcher.flush(list) else { continue };
                emit_append_batch(conn, &mut self.images, self.config.mtu, batch, None, &mut out);
            }
        }
        self.stats.rdma_out += out.packets.len() as u64;
        out
    }

    /// Emit one aggregated postcard chunk (complete or early) as `N` chunk
    /// writes sharing a single image build. `nack` is the sequence number a
    /// rate-limiter drop must NACK: that of the report that forced the
    /// emission, when it asked for one (the timer flush owes none).
    fn emit_postcard_chunk(
        &mut self,
        now_ns: u64,
        emission: &CacheEmission,
        nack: Option<u32>,
        out: &mut TranslatorOutput,
    ) {
        let n = self.config.postcard_redundancy;
        if !admit(&mut self.limiter, &mut self.stats, now_ns, n as u64, nack, out) {
            return;
        }
        let (_, layout) = self.postcard.as_ref().expect("caller checked service");
        let layout = *layout;
        // Every slot holds `checksum(x, i) ⊕ g(v)`; unseen hops take the
        // blank codeword, so every chunk write covers all B slots (§4:
        // "each flow always writes all B hops' values").
        let blank = self.codec.encode(None);
        let checksum = hop_checksums(&emission.key, layout.slot_bits);
        let img = self.images.build(layout.chunk_stride() as usize, |buf| {
            for (hop, slot) in (0..layout.hops).zip(buf.chunks_exact_mut(4)) {
                let word = checksum(hop) ^ emission.word(hop).unwrap_or(blank);
                slot.copy_from_slice(&word.to_be_bytes());
            }
        });

        let digests = self.scratch.digests(emission.key.as_bytes(), n);
        let (conn, _) = self.postcard.as_mut().expect("caller checked service");
        let rkey = conn.params.rkey;
        for (rid, data) in std::iter::repeat_n(img, n).enumerate() {
            let va = layout.chunk_va_from_digest(digests.slots[rid]);
            let op = RdmaOp::Write { rkey, va, data };
            out.packets.push(op.into_packet(&mut conn.qp));
        }
    }
}

/// `dst.copy_from_slice(src)` (equal lengths) by fixed-size moves up to 16
/// bytes. A Key-Write value is that short, and a copy of runtime length
/// compiles to a `memcpy` call: ~10 ns of a ~65 ns Key-Write translation
/// on a 2-vCPU Xeon VM.
#[inline]
fn copy_short(dst: &mut [u8], src: &[u8]) {
    let n = src.len();
    assert_eq!(dst.len(), n, "copy between unequal lengths");
    match n {
        0 => {}
        // First, middle and last cover one to three bytes.
        1..=3 => {
            dst[0] = src[0];
            dst[n / 2] = src[n / 2];
            dst[n - 1] = src[n - 1];
        }
        4..=7 => copy_overlapping::<4>(dst, src),
        8..=16 => copy_overlapping::<8>(dst, src),
        _ => dst.copy_from_slice(src),
    }
}

/// Copy `W` to `2 W` bytes (equal lengths) as two overlapping `W`-byte
/// words: the head and the tail.
#[inline]
fn copy_overlapping<const W: usize>(dst: &mut [u8], src: &[u8]) {
    let head = *src.first_chunk::<W>().expect("at least W bytes");
    let tail = *src.last_chunk::<W>().expect("at least W bytes");
    *dst.first_chunk_mut::<W>().expect("equal lengths") = head;
    *dst.last_chunk_mut::<W>().expect("equal lengths") = tail;
}

/// Put one staged Append batch on the wire — completed by a report or
/// flushed partial by the timer, the row is full-width either way. Over
/// the translator's fields for the reason `admit` is: the batch is still
/// borrowed from the batcher.
#[inline]
fn emit_append_batch(
    conn: &mut ServiceConn,
    images: &mut ImagePool,
    mtu: usize,
    batch: BatchWrite<'_>,
    immediate: Option<u32>,
    out: &mut TranslatorOutput,
) {
    let rkey = conn.params.rkey;
    let data = images.copy(batch.data);
    if data.len() > mtu {
        // Over-MTU batches take the segmented-write path (the immediate
        // flag is not combinable with segmentation in this prototype; the
        // WRITE LAST completes silently).
        out.packets
            .extend(dta_rdma::segment::segment_write(&mut conn.qp, rkey, batch.va, data, mtu));
    } else {
        let op = match immediate {
            Some(imm) => RdmaOp::WriteImm { rkey, va: batch.va, data, imm },
            None => RdmaOp::Write { rkey, va: batch.va, data },
        };
        out.packets.push(op.into_packet(&mut conn.qp));
    }
}

/// Rate-limiter admission for `msgs` RDMA messages. A refused report that
/// set `nack_on_drop` passes its sequence number as `nack` and is named in
/// `out.nacked`. Over the translator's fields rather than `&mut self`: the
/// Append path admits while it holds a batch borrowed from the batcher.
fn admit(
    limiter: &mut Option<RateLimiter>,
    stats: &mut TranslatorStats,
    now_ns: u64,
    msgs: u64,
    nack: Option<u32>,
    out: &mut TranslatorOutput,
) -> bool {
    let Some(limiter) = limiter else {
        return true;
    };
    if limiter.admit(now_ns, msgs) {
        return true;
    }
    stats.rate_limited += 1;
    if let Some(seq) = nack {
        out.nacked.push(seq);
        stats.nacks_sent += 1;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use dta_collector::service::{CollectorService, ServiceConfig};
    use dta_core::DtaFlags;
    use dta_rdma::cm::CmRequester;
    use dta_rdma::nic::RxOutcome;

    /// Build a collector + fully connected translator pair.
    fn connected() -> (CollectorService, Translator) {
        connected_to(ServiceConfig::default())
    }

    /// [`connected`], against a collector of the given shape.
    fn connected_to(config: ServiceConfig) -> (CollectorService, Translator) {
        let mut svc = CollectorService::new(config);
        let mut tr = Translator::new(TranslatorConfig {
            postcard_values: 1 << 12,
            append_batch: 4,
            ..TranslatorConfig::default()
        });
        for (service, qpn) in [
            (SERVICE_KW, 0x31),
            (SERVICE_POSTCARD, 0x32),
            (SERVICE_APPEND, 0x33),
            (SERVICE_CMS, 0x34),
        ] {
            let req = CmRequester::new(qpn, 0);
            let reply = svc.handle_cm(&req.request(service));
            let (qp, params) = req.complete(&reply).unwrap();
            tr.connect(service, qp, params);
        }
        (svc, tr)
    }

    fn run(svc: &mut CollectorService, out: TranslatorOutput) {
        for pkt in &out.packets {
            match svc.nic_ingress(pkt) {
                RxOutcome::Executed(_) => {}
                other => panic!("collector rejected packet: {other:?}"),
            }
        }
    }

    #[test]
    fn keywrite_report_lands_and_queries() {
        let (mut svc, mut tr) = connected();
        let key = TelemetryKey::from_u64(7);
        let report = DtaReport::key_write(0, key, 2, vec![0xDE, 0xAD, 0xBE, 0xEF]);
        let out = tr.process(0, &report);
        assert_eq!(out.packets.len(), 2, "N=2 redundancy -> 2 writes");
        run(&mut svc, out);
        let kw = svc.keywrite.as_ref().unwrap();
        let got = kw.query(&key, 2, dta_collector::QueryPolicy::Plurality);
        assert_eq!(
            got,
            dta_collector::QueryOutcome::Found(vec![0xDE, 0xAD, 0xBE, 0xEF])
        );
    }

    #[test]
    fn postcards_aggregate_into_one_write() {
        let (mut svc, mut tr) = connected();
        let key = TelemetryKey::from_u64(11);
        let path = [5u32, 6, 7, 8, 9];
        let mut packets = 0;
        for (hop, v) in path.iter().enumerate() {
            let out = tr.process(0, &DtaReport::postcard(0, key, hop as u8, 5, *v));
            packets += out.packets.len();
            run(&mut svc, out);
        }
        assert_eq!(packets, 1, "5 postcards -> 1 chunk write (N=1)");
        let store = svc.postcarding.as_ref().unwrap();
        assert_eq!(
            store.query(&key, 1),
            dta_collector::PostcardQueryOutcome::Found(path.to_vec())
        );
    }

    /// A postcard as it comes off the wire: `PrimitiveHeader::decode` only
    /// checks `hop < path_len`, so both of these decode cleanly.
    fn postcard_off_the_wire(key: TelemetryKey, hop: u8, path_len: u8) -> DtaReport {
        let wire = DtaReport::postcard(9, key, hop, path_len, 3).encode().unwrap();
        DtaReport::decode(wire).expect("well-formed on the wire")
    }

    #[test]
    fn postcard_hop_beyond_the_hop_bound_is_dropped_and_counted() {
        let (mut svc, mut tr) = connected();
        let key = TelemetryKey::from_u64(12);
        // Hop 6 of a 7-hop path against `postcard_hops = 5`.
        let out = tr.process(0, &postcard_off_the_wire(key, 6, 7));
        assert!(out.packets.is_empty() && out.nacked.is_empty());
        assert_eq!(tr.postcard_cache().stats.rejected, 1);
        assert_eq!(tr.postcard_cache().stats.postcards, 0);
        assert_eq!(tr.stats, TranslatorStats { reports_in: 1, ..TranslatorStats::default() });
        // No row was touched: the flow's in-bound postcards still aggregate.
        for hop in 0..5u8 {
            run(&mut svc, tr.process(0, &DtaReport::postcard(0, key, hop, 5, 40 + u32::from(hop))));
        }
        assert_eq!(
            svc.postcarding.as_ref().unwrap().query(&key, 1),
            dta_collector::PostcardQueryOutcome::Found(vec![40, 41, 42, 43, 44])
        );
    }

    #[test]
    fn postcard_path_length_beyond_the_hop_bound_is_dropped_and_counted() {
        let (_svc, mut tr) = connected();
        let key = TelemetryKey::from_u64(13);
        // `1 << 200` was the completion mask's shift: a panic in debug
        // builds, a wrapped mask and a wrong completion rule in release.
        let out = tr.process(0, &postcard_off_the_wire(key, 0, 200));
        assert!(out.packets.is_empty());
        assert_eq!(tr.postcard_cache().stats.rejected, 1);
        assert!(tr.flush(0).packets.is_empty(), "nothing was staged");
    }

    #[test]
    fn append_batches_by_four() {
        let (mut svc, mut tr) = connected();
        let mut packets = 0;
        for i in 0..8u32 {
            let out = tr.process(0, &DtaReport::append(i, 3, i.to_be_bytes().to_vec()));
            packets += out.packets.len();
            run(&mut svc, out);
        }
        assert_eq!(packets, 2, "8 entries at batch 4 -> 2 writes");
        let reader = svc.append.as_mut().unwrap();
        for i in 0..8u32 {
            assert_eq!(reader.poll(3), i.to_be_bytes().to_vec());
        }
    }

    #[test]
    fn key_increment_accumulates_via_fetch_add() {
        let (mut svc, mut tr) = connected();
        let key = TelemetryKey::src_ip(0x0A00_0001);
        for _ in 0..5 {
            let out = tr.process(0, &DtaReport::key_increment(0, key, 2, 10));
            run(&mut svc, out);
        }
        let s = svc.key_increment.as_ref().unwrap();
        assert_eq!(s.query(&key, 2), 50);
    }

    #[test]
    fn immediate_flag_raises_collector_completion() {
        let (mut svc, mut tr) = connected();
        let report = DtaReport::key_write(77, TelemetryKey::from_u64(1), 1, vec![1; 4])
            .with_flags(DtaFlags { immediate: true, nack_on_drop: false });
        let out = tr.process(0, &report);
        run(&mut svc, out);
        let wc = svc.nic.poll_completion().expect("immediate completion");
        assert_eq!(wc.imm, Some(77));
    }

    #[test]
    fn rate_limiter_drops_and_nacks() {
        let (_svc, _) = connected();
        let mut tr = Translator::new(TranslatorConfig {
            rate_limit: Some(RateLimiterConfig { msgs_per_sec: 1.0, burst: 2 }),
            ..TranslatorConfig::default()
        });
        // Connect only KW via a fresh collector.
        let mut svc = CollectorService::new(ServiceConfig::default());
        let req = CmRequester::new(1, 0);
        let reply = svc.handle_cm(&req.request(SERVICE_KW));
        let (qp, params) = req.complete(&reply).unwrap();
        tr.connect_key_write(qp, params);

        let flags = DtaFlags { immediate: false, nack_on_drop: true };
        let r1 = DtaReport::key_write(7, TelemetryKey::from_u64(1), 2, vec![0; 4])
            .with_flags(flags);
        let out1 = tr.process(0, &r1);
        assert_eq!(out1.packets.len(), 2);
        assert!(out1.nacked.is_empty());
        let out2 = tr.process(0, &r1);
        assert!(out2.packets.is_empty(), "bucket exhausted");
        assert_eq!(out2.nacked, [7], "NACK must name the dropped report's seq");
        assert_eq!(tr.stats.rate_limited, 1);
        assert_eq!(tr.stats.nacks_sent, 1);
    }

    #[test]
    fn disconnected_service_drops_report() {
        let mut tr = Translator::new(TranslatorConfig::default());
        let out = tr.process(0, &DtaReport::append(0, 1, vec![0; 4]));
        assert!(out.packets.is_empty());
        assert_eq!(tr.stats.no_service, 1);
    }

    #[test]
    fn nak_resyncs_send_psn() {
        let (mut svc, mut tr) = connected();
        // Send one KW report normally.
        let out = tr.process(0, &DtaReport::key_write(0, TelemetryKey::from_u64(1), 1, vec![0; 4]));
        run(&mut svc, out);
        // Simulate loss: process a report but drop its packet, then send
        // another — the collector NAKs the gap.
        let _lost = tr.process(0, &DtaReport::key_write(1, TelemetryKey::from_u64(2), 1, vec![0; 4]));
        let out3 = tr.process(0, &DtaReport::key_write(2, TelemetryKey::from_u64(3), 1, vec![0; 4]));
        let nak = match svc.nic_ingress(&out3.packets[0]) {
            RxOutcome::Nak(nak) => nak,
            other => panic!("expected NAK, got {other:?}"),
        };
        tr.on_roce_response(&nak);
        assert_eq!(tr.stats.resyncs, 1);
        // After resync the stream flows again.
        let out4 = tr.process(0, &DtaReport::key_write(3, TelemetryKey::from_u64(4), 1, vec![0; 4]));
        run(&mut svc, out4);
    }

    /// A collector whose Key-Write slot image (4 + 32 B) is wider than
    /// [`Bytes::INLINE_CAP`]: the translator builds it in a pooled buffer.
    fn wide_kw() -> ServiceConfig {
        ServiceConfig { kw_value_bytes: 32, ..ServiceConfig::default() }
    }

    #[test]
    fn replicas_share_one_slot_image_zero_copy() {
        // Acceptance: redundancy-N fan-out performs exactly one slot-image
        // build; every replica's payload is a zero-copy handle to the same
        // backing store (pointer identity), not a per-replica heap copy.
        let (_svc, mut tr) = connected_to(wide_kw());
        for n in [2u8, 4, 8] {
            let report =
                DtaReport::key_write(0, TelemetryKey::from_u64(900 + n as u64), n, vec![9; 4]);
            let out = tr.process(0, &report);
            assert_eq!(out.packets.len(), n as usize);
            let first = out.packets[0].payload.as_ptr();
            for pkt in &out.packets {
                assert_eq!(
                    pkt.payload.as_ptr(),
                    first,
                    "replica payload was copied instead of shared (N={n})"
                );
                assert_eq!(pkt.payload.len(), out.packets[0].payload.len());
            }
        }
    }

    #[test]
    fn replicas_carry_identical_inline_slot_images() {
        // The default 4 B value makes an 8 B slot image: built once on the
        // stack, every replica carries the same bytes, and the pool is
        // never asked for a buffer.
        let (_svc, mut tr) = connected();
        for n in [2u8, 4, 8] {
            let report =
                DtaReport::key_write(0, TelemetryKey::from_u64(900 + n as u64), n, vec![9; 4]);
            let out = tr.process(0, &report);
            assert_eq!(out.packets.len(), n as usize);
            let first = &out.packets[0].payload;
            assert_eq!(first.len(), 8, "checksum || 4 B value");
            assert_eq!(&first[4..], &[9; 4]);
            for pkt in &out.packets {
                assert_eq!(&pkt.payload, first, "replica payloads differ (N={n})");
            }
        }
        assert_eq!(tr.image_pool_stats(), (0, 0));
    }

    #[test]
    fn postcard_replicas_share_one_chunk_image() {
        let (mut svc, _) = connected();
        let mut tr = Translator::new(TranslatorConfig {
            postcard_redundancy: 3,
            ..TranslatorConfig::default()
        });
        let req = CmRequester::new(0x99, 0);
        let reply = svc.handle_cm(&req.request(SERVICE_POSTCARD));
        let (qp, params) = req.complete(&reply).unwrap();
        tr.connect_postcarding(qp, params);
        let key = TelemetryKey::from_u64(31337);
        let mut last = Vec::new();
        for hop in 0..5u8 {
            let out = tr.process(0, &DtaReport::postcard(0, key, hop, 5, 7));
            if !out.packets.is_empty() {
                last = out.packets;
            }
        }
        assert_eq!(last.len(), 3, "N=3 chunk writes");
        let first = last[0].payload.as_ptr();
        for pkt in &last {
            assert_eq!(pkt.payload.as_ptr(), first, "chunk image copied per replica");
        }
    }

    #[test]
    fn process_batch_reuses_output_and_matches_process() {
        let (mut svc, mut tr) = connected();
        let reports: Vec<DtaReport> = (0..64u64)
            .map(|i| DtaReport::key_write(0, TelemetryKey::from_u64(i), 2, vec![i as u8; 4]))
            .collect();
        let mut out = TranslatorOutput::default();
        tr.process_batch(0, &reports, &mut out);
        assert_eq!(out.packets.len(), 128, "64 reports x N=2");
        let cap = out.packets.capacity();
        for pkt in &out.packets {
            assert!(matches!(svc.nic_ingress(pkt), RxOutcome::Executed(_)));
        }
        // Re-running a same-size batch must not grow the packet vector.
        let reports2: Vec<DtaReport> = (0..64u64)
            .map(|i| DtaReport::key_write(0, TelemetryKey::from_u64(1000 + i), 2, vec![3; 4]))
            .collect();
        tr.process_batch(0, &reports2, &mut out);
        assert_eq!(out.packets.len(), 128);
        assert_eq!(out.packets.capacity(), cap, "packet vector reallocated");
        for pkt in &out.packets {
            assert!(matches!(svc.nic_ingress(pkt), RxOutcome::Executed(_)));
        }
        // And the data landed: spot-check a key from each batch.
        let kw = svc.keywrite.as_ref().unwrap();
        for k in [5u64, 1005] {
            assert!(kw
                .query(&TelemetryKey::from_u64(k), 2, dta_collector::QueryPolicy::Plurality)
                .is_found());
        }
    }

    #[test]
    fn process_batch_equals_process_report_by_report() {
        // All four primitives interleaved, keys both repeating and fresh,
        // one immediate-flagged report: the batch loop's lookahead must not
        // show in any packet or counter.
        let reports: Vec<DtaReport> = (0..96u32)
            .map(|i| {
                let key = |v: u32| TelemetryKey::from_u64(u64::from(v));
                let k = key(if i % 5 == 0 { i % 10 } else { 1000 + i });
                match i % 4 {
                    0 => DtaReport::key_write(i, k, 2, vec![i as u8; 4]),
                    1 => DtaReport::append(i, i % 3, vec![i as u8; 4]),
                    2 => DtaReport::key_increment(i, k, 3, u64::from(i)),
                    // Flow i/20 over hops 0..5: every fifth completes a row.
                    _ => DtaReport::postcard(i, key(i / 20), (i / 4 % 5) as u8, 5, i),
                }
            })
            .map(|r| match r.header.seq {
                8 => r.with_flags(DtaFlags { immediate: true, ..DtaFlags::default() }),
                _ => r,
            })
            .collect();
        let wire =
            |pkts: &[RocePacket]| -> Vec<Bytes> { pkts.iter().map(RocePacket::encode).collect() };

        let (_, mut single) = connected();
        let mut expected = Vec::new();
        for report in &reports {
            expected.extend(single.process(0, report).packets);
        }
        assert!(single.key_scratch_stats().hits > 0 && expected.len() > reports.len());

        for batch_len in
            [1, BATCH_LOOKAHEAD - 1, BATCH_LOOKAHEAD, BATCH_LOOKAHEAD + 1, reports.len()]
        {
            let (_, mut batched) = connected();
            let mut out = TranslatorOutput::default();
            let mut got = Vec::new();
            batched.process_batch(0, &[], &mut out);
            assert!(out.packets.is_empty());
            for batch in reports.chunks(batch_len) {
                batched.process_batch(0, batch, &mut out);
                got.append(&mut out.packets);
            }
            // PSN, rkey, va and payload bytes, in order.
            assert_eq!(wire(&got), wire(&expected), "batch length {batch_len}");
            assert_eq!(batched.stats, single.stats, "batch length {batch_len}");
            assert_eq!(batched.key_scratch_stats(), single.key_scratch_stats());
        }
    }

    #[test]
    fn key_scratch_accelerates_repeated_keys() {
        let (mut svc, mut tr) = connected();
        let key = TelemetryKey::from_u64(77);
        for _ in 0..50 {
            let out = tr.process(0, &DtaReport::key_write(0, key, 2, vec![1; 4]));
            run(&mut svc, out);
        }
        let stats = tr.key_scratch_stats();
        assert_eq!(stats.misses, 1, "one CRC pass for 50 same-key reports");
        assert_eq!(stats.hits, 49);
        // Correctness unaffected: the key queries back.
        let kw = svc.keywrite.as_ref().unwrap();
        assert!(kw.query(&key, 2, dta_collector::QueryPolicy::Plurality).is_found());
    }

    #[test]
    fn steady_state_hot_path_recycles_images() {
        // Acceptance: once packets are consumed downstream, the translator
        // stops allocating — after the ring has grown to the images in
        // flight, every image comes from the recycling pool.
        let (mut svc, mut tr) = connected_to(wide_kw());
        let mut warm = 0;
        for round in 0u64..3 {
            for i in 0..8192u64 {
                let r = DtaReport::key_write(0, TelemetryKey::from_u64(i), 2, vec![1; 4]);
                let out = tr.process(0, &r);
                run(&mut svc, out); // packets dropped here -> buffers free
            }
            let (recycled, allocated) = tr.image_pool_stats();
            assert_eq!(recycled + allocated, (round + 1) * 8192);
            if round == 0 {
                warm = allocated;
                assert_eq!(warm, 1, "one image in flight at a time needs one buffer");
            }
            assert_eq!(allocated, warm, "steady-state hot path allocated images");
        }
    }

    #[test]
    fn steady_state_hot_path_builds_inline_images() {
        // 8 B slot images are inline: no build ever reaches the pool.
        let (mut svc, mut tr) = connected();
        for i in 0..8192u64 {
            let r = DtaReport::key_write(0, TelemetryKey::from_u64(i), 2, vec![1; 4]);
            let out = tr.process(0, &r);
            run(&mut svc, out);
        }
        assert_eq!(tr.image_pool_stats(), (0, 0), "an inline image reached the pool");
    }

    #[test]
    fn flush_visits_only_dirty_lists() {
        let (mut svc, mut tr) = connected();
        // Stage partial batches on 3 of the 16 lists.
        for list in [1u32, 7, 11] {
            run(&mut svc, tr.process(0, &DtaReport::append(0, list, vec![5; 4])));
        }
        assert_eq!(tr.append.as_ref().unwrap().2.dirty_count(), 3);
        let out = tr.flush(0);
        assert_eq!(out.packets.len(), 3, "exactly one write per dirty list");
        run(&mut svc, out);
        assert_eq!(tr.append.as_ref().unwrap().2.dirty_count(), 0);
        assert!(tr.flush(0).packets.is_empty(), "second flush has nothing to do");
    }

    #[test]
    fn flush_emits_partial_state() {
        let (mut svc, mut tr) = connected();
        // 3 postcards of a 5-hop path + 2 staged append entries.
        let key = TelemetryKey::from_u64(5);
        for hop in 0..3u8 {
            run(&mut svc, tr.process(0, &DtaReport::postcard(0, key, hop, 5, 42)));
        }
        run(&mut svc, tr.process(0, &DtaReport::append(0, 1, vec![1; 4])));
        let out = tr.flush(0);
        assert_eq!(out.packets.len(), 2, "one early chunk + one padded batch");
        run(&mut svc, out);
    }
}
