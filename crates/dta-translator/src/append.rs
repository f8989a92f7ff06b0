//! Append batching and per-list head tracking (Algorithm 3).
//!
//! "Append has its logic split between ingress and egress, where ingress is
//! responsible for building batches, and egress tracks per-list memory
//! pointers. Batching of size B is achieved by storing B−1 incoming list
//! entries into SRAM using per-list registers. Every Bth packet in a list
//! will read all stored items, and bring these to the egress pipeline where
//! they are sent as a single RDMA Write packet." (§5.2)

use dta_collector::layout::AppendLayout;

/// Maximum simultaneous lists ("our prototype supports tracking up to 131K
/// simultaneous lists").
const MAX_LISTS: u32 = 131 * 1024;

/// A batch ready to be written: target address + concatenated entries,
/// borrowed from the batcher's staging registers (valid until the next
/// `push`/`flush`; the translator copies it straight into its write image).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchWrite<'a> {
    /// List the batch belongs to.
    pub list_id: u32,
    /// Target virtual address (start of the batch in the ring).
    pub va: u64,
    /// Concatenated entry bytes (`batch * entry_bytes`).
    pub data: &'a [u8],
}

/// Ingress batch building + egress head tracking for all lists: flat
/// register arrays indexed by list id, sized once from the layout.
#[derive(Debug)]
pub struct AppendBatcher {
    layout: AppendLayout,
    batch: usize,
    /// The "B−1 entries in SRAM registers", one `batch * entry_bytes` row
    /// per list. One zeroed allocation: a list nobody appends to never
    /// touches its pages.
    staging: Vec<u8>,
    /// Entries staged per list.
    fill: Vec<u32>,
    /// Per-list ring head, in entries.
    heads: Vec<u64>,
    /// Bit `list % 64` of word `list / 64` is set while `list` holds a
    /// partial batch. The timer flush walks only these, in ascending order,
    /// instead of scanning all (up to 131K) list ids.
    dirty: Vec<u64>,
    /// Entries accepted.
    pub entries_in: u64,
    /// Batches emitted.
    pub batches_out: u64,
}

impl AppendBatcher {
    /// Batcher over `layout` emitting every `batch` entries.
    ///
    /// # Panics
    /// Panics if `batch` is zero, the ring capacity is not a multiple of the
    /// batch (batches must never straddle the wrap point), or the layout has
    /// more lists than the prototype supports.
    pub fn new(layout: AppendLayout, batch: usize) -> Self {
        assert!(batch > 0, "batch size must be positive");
        assert_eq!(
            layout.entries_per_list % batch as u64,
            0,
            "ring capacity must be a multiple of the batch size"
        );
        assert!(layout.lists <= MAX_LISTS, "too many lists: {}", layout.lists);
        let lists = layout.lists as usize;
        let staging_len = batch
            .checked_mul(layout.entry_bytes as usize)
            .and_then(|row| row.checked_mul(lists))
            .expect("staging for every list fits the address space");
        AppendBatcher {
            layout,
            batch,
            staging: vec![0; staging_len],
            fill: vec![0; lists],
            heads: vec![0; lists],
            dirty: vec![0; lists.div_ceil(64)],
            entries_in: 0,
            batches_out: 0,
        }
    }

    /// Configured batch size.
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// Layout in use.
    pub fn layout(&self) -> &AppendLayout {
        &self.layout
    }

    /// Current head (in entries) of `list`.
    pub fn head(&self, list: u32) -> u64 {
        self.heads.get(list as usize).copied().unwrap_or(0)
    }

    /// Stage one entry for `list`, normalized in place to the layout's fixed
    /// entry width (truncated or zero-padded — fixed-width entries are what
    /// make the ring pollable); returns the batch write when this entry was
    /// the `B`-th.
    ///
    /// Returns `None` for out-of-range lists (the ASIC would drop).
    pub fn push(&mut self, list: u32, entry: &[u8]) -> Option<BatchWrite<'_>> {
        if list >= self.layout.lists {
            return None;
        }
        self.entries_in += 1;
        let l = list as usize;
        let w = self.layout.entry_bytes as usize;
        let staged = self.fill[l] as usize;
        let at = self.row(l).start + staged * w;
        let slot = &mut self.staging[at..at + w];
        let take = entry.len().min(w);
        slot[..take].copy_from_slice(&entry[..take]);
        slot[take..].fill(0);
        if staged + 1 < self.batch {
            self.fill[l] += 1;
            self.dirty[l / 64] |= 1 << (l % 64);
            return None;
        }
        Some(self.emit(list))
    }

    /// Entries currently staged for `list`.
    pub fn staged_entries(&self, list: u32) -> usize {
        self.fill.get(list as usize).map_or(0, |&n| n as usize)
    }

    /// First list at or after `from` holding a partial batch.
    pub fn next_dirty(&self, from: u32) -> Option<u32> {
        let mut w = from as usize / 64;
        let mut bits = *self.dirty.get(w)? & (u64::MAX << (from % 64));
        while bits == 0 {
            w += 1;
            bits = *self.dirty.get(w)?;
        }
        Some((w * 64) as u32 + bits.trailing_zeros())
    }

    /// Lists currently holding a partial batch, in ascending order — the
    /// timer flush walks exactly these.
    pub fn dirty_lists(&self) -> impl Iterator<Item = u32> + '_ {
        std::iter::successors(self.next_dirty(0), |&list| self.next_dirty(list + 1))
    }

    /// Number of lists holding a partial batch.
    pub fn dirty_count(&self) -> usize {
        self.dirty.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Flush a partial batch for `list` (timer path), zero-padding the tail
    /// of the batch region.
    pub fn flush(&mut self, list: u32) -> Option<BatchWrite<'_>> {
        let l = list as usize;
        let staged = *self.fill.get(l)? as usize;
        if staged == 0 {
            return None;
        }
        let row = self.row(l);
        self.staging[row.start + staged * self.layout.entry_bytes as usize..row.end].fill(0);
        Some(self.emit(list))
    }

    /// Hand out `list`'s staging row as one batch: the row is clean again,
    /// and the head moves one batch along the ring.
    fn emit(&mut self, list: u32) -> BatchWrite<'_> {
        let l = list as usize;
        self.fill[l] = 0;
        self.dirty[l / 64] &= !(1 << (l % 64));
        let va = self.layout.entry_va(list, self.heads[l]);
        self.heads[l] = (self.heads[l] + self.batch as u64) % self.layout.entries_per_list;
        self.batches_out += 1;
        BatchWrite { list_id: list, va, data: &self.staging[self.row(l)] }
    }

    /// Where list `l`'s staging row sits in the buffer.
    fn row(&self, l: usize) -> std::ops::Range<usize> {
        let bytes = self.batch * self.layout.entry_bytes as usize;
        l * bytes..(l + 1) * bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout(lists: u32, entries: u64) -> AppendLayout {
        AppendLayout { base_va: 0x1000, lists, entries_per_list: entries, entry_bytes: 4 }
    }

    #[test]
    fn batch_emits_every_bth_entry() {
        let mut b = AppendBatcher::new(layout(1, 64), 4);
        for i in 0..3u32 {
            assert!(b.push(0, &i.to_be_bytes()).is_none());
        }
        let w = b.push(0, &3u32.to_be_bytes()).expect("4th entry emits");
        assert_eq!(w.va, 0x1000);
        assert_eq!(w.data.len(), 16);
        assert_eq!(&w.data[0..4], &0u32.to_be_bytes());
        assert_eq!(&w.data[12..16], &3u32.to_be_bytes());
    }

    #[test]
    fn consecutive_batches_advance_head() {
        let mut b = AppendBatcher::new(layout(1, 16), 4);
        for i in 0..16u32 {
            if let Some(w) = b.push(0, &i.to_be_bytes()) {
                assert_eq!(w.va, 0x1000 + ((i as u64 - 3) / 4) * 16);
            }
        }
        // Ring wrapped: head back to 0.
        assert_eq!(b.head(0), 0);
    }

    #[test]
    fn ring_wraps_to_base() {
        let mut b = AppendBatcher::new(layout(1, 8), 4);
        for i in 0..8u32 {
            b.push(0, &i.to_be_bytes());
        }
        let w = b.push(0, &99u32.to_be_bytes());
        assert!(w.is_none());
        for i in 0..3u32 {
            if let Some(w) = b.push(0, &i.to_be_bytes()) {
                assert_eq!(w.va, 0x1000, "wrapped batch writes at ring start");
            }
        }
    }

    #[test]
    fn lists_batch_independently() {
        let mut b = AppendBatcher::new(layout(4, 16), 2);
        assert!(b.push(0, &[1, 0, 0, 0]).is_none());
        assert!(b.push(1, &[2, 0, 0, 0]).is_none());
        let w0 = b.push(0, &[3, 0, 0, 0]).unwrap();
        assert_eq!(w0.list_id, 0);
        // Neighbouring staging rows do not bleed into each other.
        assert_eq!(w0.data, [1, 0, 0, 0, 3, 0, 0, 0]);
        let va0 = w0.va;
        let w1 = b.push(1, &[4, 0, 0, 0]).unwrap();
        assert_eq!(w1.list_id, 1);
        assert_eq!(w1.data, [2, 0, 0, 0, 4, 0, 0, 0]);
        assert_ne!(va0, w1.va);
    }

    #[test]
    fn batch_one_is_unbatched() {
        let mut b = AppendBatcher::new(layout(1, 16), 1);
        let w = b.push(0, &[7, 7, 7, 7]).expect("every entry emits");
        assert_eq!(w.data, vec![7, 7, 7, 7]);
    }

    #[test]
    fn short_entries_zero_padded() {
        let mut b = AppendBatcher::new(layout(1, 16), 1);
        let w = b.push(0, &[9]).unwrap();
        assert_eq!(w.data, vec![9, 0, 0, 0]);
    }

    #[test]
    fn long_entries_truncated_and_stale_bytes_never_resurface() {
        let mut b = AppendBatcher::new(layout(1, 16), 2);
        b.push(0, &[1, 2, 3, 4, 5, 6]);
        assert_eq!(b.push(0, &[7; 9]).unwrap().data, [1, 2, 3, 4, 7, 7, 7, 7]);
        // The row is reused: a short entry and a flushed tail must read as
        // zeros, not as the previous batch.
        b.push(0, &[8]);
        assert_eq!(b.flush(0).unwrap().data, [8, 0, 0, 0, 0, 0, 0, 0]);
    }

    #[test]
    fn out_of_range_list_dropped() {
        let mut b = AppendBatcher::new(layout(2, 16), 2);
        assert!(b.push(5, &[0; 4]).is_none());
        assert_eq!(b.entries_in, 0);
    }

    #[test]
    fn flush_pads_partial_batch() {
        let mut b = AppendBatcher::new(layout(1, 16), 4);
        b.push(0, &[1, 1, 1, 1]);
        b.push(0, &[2, 2, 2, 2]);
        let w = b.flush(0).expect("partial batch flushed");
        assert_eq!(w.data.len(), 16);
        assert_eq!(&w.data[0..4], &[1, 1, 1, 1]);
        assert_eq!(&w.data[8..16], &[0; 8]);
        assert!(b.flush(0).is_none());
    }

    #[test]
    #[should_panic]
    fn ring_not_multiple_of_batch_rejected() {
        let _ = AppendBatcher::new(layout(1, 10), 4);
    }

    #[test]
    fn staged_counter_tracks() {
        let mut b = AppendBatcher::new(layout(1, 16), 4);
        assert_eq!(b.staged_entries(0), 0);
        b.push(0, &[0; 4]);
        b.push(0, &[0; 4]);
        assert_eq!(b.staged_entries(0), 2);
    }

    #[test]
    fn dirty_tracking_follows_partial_batches() {
        let mut b = AppendBatcher::new(layout(8, 16), 4);
        assert_eq!(b.dirty_count(), 0);
        // Partial batches on lists 2 and 5.
        b.push(2, &[0; 4]);
        b.push(5, &[0; 4]);
        b.push(5, &[0; 4]);
        assert_eq!(b.dirty_lists().collect::<Vec<_>>(), vec![2, 5]);
        // Completing list 5's batch cleans it.
        b.push(5, &[0; 4]);
        assert!(b.push(5, &[0; 4]).is_some());
        assert_eq!(b.dirty_lists().collect::<Vec<_>>(), vec![2]);
        // Flushing list 2 cleans it too.
        assert!(b.flush(2).is_some());
        assert_eq!(b.dirty_count(), 0);
        // Out-of-range pushes never dirty anything.
        b.push(99, &[0; 4]);
        assert_eq!(b.dirty_count(), 0);
    }
}

#[cfg(test)]
mod scale_tests {
    use super::*;

    /// "Tests show that the translator can support hundreds of thousands of
    /// simultaneous lists" (§6.4) — exercise the prototype's 131K bound.
    #[test]
    fn hundred_thirty_one_thousand_simultaneous_lists() {
        let layout = AppendLayout {
            base_va: 0,
            lists: MAX_LISTS,
            entries_per_list: 16,
            entry_bytes: 4,
        };
        let mut b = AppendBatcher::new(layout, 4);
        // One entry in every list (all staged), then fill one batch each in
        // a sample of lists spread across the id space.
        for list in (0..MAX_LISTS).step_by(257) {
            for i in 0..4u32 {
                let w = b.push(list, &i.to_be_bytes());
                if i == 3 {
                    let w = w.expect("4th entry flushes");
                    assert_eq!(w.va, layout.entry_va(list, 0));
                } else {
                    assert!(w.is_none());
                }
            }
        }
        assert_eq!(b.batches_out, (MAX_LISTS as u64).div_ceil(257));
        // The very last list id is valid; one past it is not.
        assert!(b.push(MAX_LISTS - 1, &[0; 4]).is_none());
        assert_eq!(b.staged_entries(MAX_LISTS - 1), 1);
        assert!(b.push(MAX_LISTS, &[0; 4]).is_none());
        assert_eq!(b.staged_entries(MAX_LISTS), 0, "out-of-range list rejected");
    }
}
