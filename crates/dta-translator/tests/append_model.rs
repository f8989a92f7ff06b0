//! The dense [`AppendBatcher`] against the map-based batcher it replaced,
//! kept here as the reference model, and its batches end to end through
//! [`Translator::process`] when they outgrow a pooled image or the MTU.

use std::collections::{BTreeSet, HashMap};

use dta_collector::layout::AppendLayout;
use dta_collector::service::{CollectorService, ServiceConfig, SERVICE_APPEND};
use dta_core::DtaReport;
use dta_rdma::cm::CmRequester;
use dta_rdma::nic::RxOutcome;
use dta_translator::{AppendBatcher, Translator, TranslatorConfig};
use proptest::prelude::*;

/// `(list, va, bytes)` of one emitted batch.
type Emitted = (u32, u64, Vec<u8>);

/// The pre-register-array batcher: a map of growing vectors, a map of
/// heads, a tree set of dirty lists.
struct MapBatcher {
    layout: AppendLayout,
    batch: usize,
    staged: HashMap<u32, Vec<u8>>,
    dirty: BTreeSet<u32>,
    heads: HashMap<u32, u64>,
    entries_in: u64,
    batches_out: u64,
}

impl MapBatcher {
    fn new(layout: AppendLayout, batch: usize) -> Self {
        MapBatcher {
            layout,
            batch,
            staged: HashMap::new(),
            dirty: BTreeSet::new(),
            heads: HashMap::new(),
            entries_in: 0,
            batches_out: 0,
        }
    }

    fn emit(&mut self, list: u32, data: Vec<u8>) -> Emitted {
        self.dirty.remove(&list);
        let head = self.heads.entry(list).or_insert(0);
        let va = self.layout.entry_va(list, *head);
        *head = (*head + self.batch as u64) % self.layout.entries_per_list;
        self.batches_out += 1;
        (list, va, data)
    }

    fn push(&mut self, list: u32, entry: &[u8]) -> Option<Emitted> {
        if list >= self.layout.lists {
            return None;
        }
        self.entries_in += 1;
        let w = self.layout.entry_bytes as usize;
        let mut e = entry[..entry.len().min(w)].to_vec();
        e.resize(w, 0);
        let staged = self.staged.entry(list).or_default();
        staged.extend_from_slice(&e);
        if staged.len() < self.batch * w {
            self.dirty.insert(list);
            return None;
        }
        let data = std::mem::take(staged);
        Some(self.emit(list, data))
    }

    fn flush(&mut self, list: u32) -> Option<Emitted> {
        let staged = self.staged.get_mut(&list)?;
        if staged.is_empty() {
            return None;
        }
        let mut data = std::mem::take(staged);
        data.resize(self.batch * self.layout.entry_bytes as usize, 0);
        Some(self.emit(list, data))
    }

    fn staged_entries(&self, list: u32) -> usize {
        self.staged
            .get(&list)
            .map_or(0, |s| s.len() / self.layout.entry_bytes as usize)
    }
}

proptest! {
    /// Seeded `push`/`flush` interleavings over 70 lists (two dirty-bitmap
    /// words, the second partial) with a 12-entry ring (wraps after three
    /// batches of 4): entries shorter than, equal to and longer than the
    /// 4-byte width, list ids up to 74 (out of range), and the occasional
    /// flush of a list chosen the same way. Same `(list, va, bytes)`
    /// sequence, and the same counters, dirty order and staged counts after
    /// every step.
    #[test]
    fn dense_batcher_matches_map_model(
        ops in proptest::collection::vec(
            (0u8..8, 0u8..4, 0u32..75, proptest::collection::vec(any::<u8>(), 0..7)),
            1..300,
        ),
    ) {
        let layout = AppendLayout { base_va: 0x4000, lists: 70, entries_per_list: 12, entry_bytes: 4 };
        let mut dense = AppendBatcher::new(layout, 4);
        let mut model = MapBatcher::new(layout, 4);
        for (kind, hot, list, entry) in &ops {
            // Three in four operations land on eight hot lists, so batches
            // fill and rings wrap; the rest spread over the id space.
            let list = if *hot == 0 { *list } else { *list % 8 };
            let (got, want) = if *kind == 0 {
                (dense.flush(list).map(|w| (w.list_id, w.va, w.data.to_vec())), model.flush(list))
            } else {
                (dense.push(list, entry).map(|w| (w.list_id, w.va, w.data.to_vec())), model.push(list, entry))
            };
            prop_assert_eq!(got, want);
            prop_assert_eq!((dense.entries_in, dense.batches_out), (model.entries_in, model.batches_out));
            prop_assert_eq!(dense.dirty_lists().collect::<Vec<_>>(), model.dirty.iter().copied().collect::<Vec<_>>());
            prop_assert_eq!(dense.dirty_count(), model.dirty.len());
            prop_assert_eq!(dense.next_dirty(list), model.dirty.range(list..).next().copied());
            for l in [list, 0, 7, 69, 70] {
                prop_assert_eq!(dense.staged_entries(l), model.staged_entries(l));
                prop_assert_eq!(dense.head(l), model.heads.get(&l).copied().unwrap_or(0));
            }
        }
    }
}

/// `entry_bytes`-wide entries on one list, batched by `batch`, through a
/// connected translator into a collector and polled back. Returns how many
/// packets each report produced.
fn append_round_trip(entry_bytes: u32, batch: usize) -> Vec<usize> {
    let mut svc = CollectorService::new(ServiceConfig {
        append_lists: 2,
        append_entries: 1 << 10,
        append_entry_bytes: entry_bytes,
        ..ServiceConfig::default()
    });
    let mut tr = Translator::new(TranslatorConfig {
        append_batch: batch,
        ..TranslatorConfig::default()
    });
    let req = CmRequester::new(0x51, 0);
    let reply = svc.handle_cm(&req.request(SERVICE_APPEND));
    let (qp, params) = req.complete(&reply).unwrap();
    tr.connect_append(qp, params);

    let entry = |i: u32| -> Vec<u8> {
        (0..entry_bytes)
            .map(|b| (i as u8).wrapping_mul(31).wrapping_add(b as u8))
            .collect()
    };
    let mut packets = Vec::new();
    // Two full batches and a half, so the second batch reuses the staging
    // row and the flush pads a partial one.
    let total = (2 * batch + batch / 2) as u32;
    for i in 0..total {
        let out = tr.process(0, &DtaReport::append(i, 1, entry(i)));
        packets.push(out.packets.len());
        for pkt in &out.packets {
            assert!(matches!(svc.nic_ingress(pkt), RxOutcome::Executed(_)));
        }
    }
    for pkt in &tr.flush(0).packets {
        assert!(matches!(svc.nic_ingress(pkt), RxOutcome::Executed(_)));
    }
    let reader = svc.append.as_mut().unwrap();
    for i in 0..total {
        assert_eq!(reader.poll(1), entry(i), "entry {i} of width {entry_bytes}");
    }
    packets
}

#[test]
fn batch_wider_than_a_pooled_image_is_one_write() {
    // 32 × 4 B = 128 B: past the 64-byte pool buffers, within the MTU.
    let packets = append_round_trip(4, 32);
    assert_eq!(packets.iter().sum::<usize>(), 2);
    assert_eq!(
        (packets[31], packets[63]),
        (1, 1),
        "every 32nd entry emits one write"
    );
}

#[test]
fn batch_wider_than_the_mtu_is_segmented() {
    // 32 × 64 B = 2 KiB at MTU 1024: FIRST + LAST per batch.
    let packets = append_round_trip(64, 32);
    assert_eq!(packets.iter().sum::<usize>(), 4);
    assert_eq!((packets[31], packets[63]), (2, 2));
}
