//! Append lists: ring buffers + the polling reader (Algorithms 3 & 4).
//!
//! "Lists are implemented as ring-buffers, and the translator keeps a
//! per-list head pointer to track where in server memory the next batch
//! should be written" (§5.2). The collector side keeps a *tail* pointer per
//! list and polls: "Extracting telemetry data from the lists is a very
//! lightweight process, requiring a pointer increment, possibly rolling back
//! to the start of the buffer, and then reading the memory location" (§6.7.1).

use dta_rdma::mr::MemoryRegion;

use crate::engine::SlotSource;
use crate::layout::AppendLayout;

/// The collector-side reader over the Append region.
#[derive(Debug)]
pub struct AppendReader {
    layout: AppendLayout,
    region: MemoryRegion,
    tails: Vec<u64>,
}

impl AppendReader {
    /// Reader with all tails at entry 0.
    pub fn new(layout: AppendLayout, region: MemoryRegion) -> Self {
        assert!(region.len() as u64 >= layout.region_len());
        AppendReader { layout, region, tails: vec![0; layout.lists as usize] }
    }

    /// Geometry.
    pub fn layout(&self) -> &AppendLayout {
        &self.layout
    }

    /// The backing region (for NIC registration).
    pub fn region(&self) -> &MemoryRegion {
        &self.region
    }

    /// Current tail of `list`.
    pub fn tail(&self, list: u32) -> u64 {
        self.tails[list as usize]
    }

    /// Poll one entry from `list` (Algorithm 4): read at the tail, advance,
    /// wrap. The caller is responsible for polling no faster than the
    /// translator writes (the paper allocates one list per core to avoid
    /// tail races).
    pub fn poll(&mut self, list: u32) -> Vec<u8> {
        poll_at(&self.layout, &mut self.tails, &self.region, list)
    }

    /// [`AppendReader::poll`] reading the entry from `src` instead of the
    /// live region — the same tail advance over a snapshot image (the tail
    /// is reader state, so progress carries across epochs).
    pub fn poll_from<S: SlotSource + ?Sized>(&mut self, src: &S, list: u32) -> Vec<u8> {
        poll_at(&self.layout, &mut self.tails, src, list)
    }

    /// Poll `n` entries from `list`.
    pub fn poll_n(&mut self, list: u32, n: usize) -> Vec<Vec<u8>> {
        (0..n).map(|_| self.poll(list)).collect()
    }
}

/// Algorithm 4 against any [`SlotSource`]: read at the tail, advance, wrap.
/// Free-standing so [`AppendReader::poll`] can pass its own region while
/// mutably borrowing its tails.
fn poll_at<S: SlotSource + ?Sized>(
    layout: &AppendLayout,
    tails: &mut [u64],
    src: &S,
    list: u32,
) -> Vec<u8> {
    let tail = &mut tails[list as usize];
    let va = layout.base_va + list as u64 * layout.list_bytes() + *tail * layout.entry_bytes as u64;
    let mut data = vec![0u8; layout.entry_bytes as usize];
    assert!(src.read_slot(va, &mut data), "entry within source");
    *tail = (*tail + 1) % layout.entries_per_list;
    data
}

/// A direct (non-RDMA) writer mirroring the translator's head-pointer logic;
/// used by unit/property tests and collector-only experiments.
#[derive(Debug)]
pub struct DirectAppender {
    layout: AppendLayout,
    region: MemoryRegion,
    heads: Vec<u64>,
}

impl DirectAppender {
    /// Writer with all heads at entry 0.
    pub fn new(layout: AppendLayout, region: MemoryRegion) -> Self {
        assert!(region.len() as u64 >= layout.region_len());
        DirectAppender { layout, region, heads: vec![0; layout.lists as usize] }
    }

    /// Append one entry to `list` (wraps at the ring capacity).
    pub fn append(&mut self, list: u32, entry: &[u8]) {
        assert_eq!(entry.len(), self.layout.entry_bytes as usize);
        let head = &mut self.heads[list as usize];
        let va = self.layout.entry_va(list, *head);
        self.region.write(va, entry).expect("entry within region");
        *head = (*head + 1) % self.layout.entries_per_list;
    }

    /// Current head of `list`.
    pub fn head(&self, list: u32) -> u64 {
        self.heads[list as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dta_rdma::mr::MrAccess;

    fn setup(lists: u32, entries: u64) -> (DirectAppender, AppendReader) {
        let layout = AppendLayout { base_va: 0, lists, entries_per_list: entries, entry_bytes: 4 };
        let region = MemoryRegion::new(0, layout.region_len() as usize, 1, MrAccess::WRITE);
        (DirectAppender::new(layout, region.clone()), AppendReader::new(layout, region))
    }

    #[test]
    fn fifo_order_preserved() {
        let (mut w, mut r) = setup(1, 64);
        for i in 0..10u32 {
            w.append(0, &i.to_be_bytes());
        }
        for i in 0..10u32 {
            assert_eq!(r.poll(0), i.to_be_bytes().to_vec());
        }
    }

    #[test]
    fn lists_are_independent() {
        let (mut w, mut r) = setup(3, 16);
        w.append(0, &1u32.to_be_bytes());
        w.append(2, &3u32.to_be_bytes());
        assert_eq!(r.poll(2), 3u32.to_be_bytes().to_vec());
        assert_eq!(r.poll(0), 1u32.to_be_bytes().to_vec());
    }

    #[test]
    fn ring_wraps_at_capacity() {
        let (mut w, mut r) = setup(1, 4);
        for i in 0..6u32 {
            w.append(0, &i.to_be_bytes());
        }
        assert_eq!(w.head(0), 2); // wrapped
        // Entries 4,5 overwrote entries 0,1.
        assert_eq!(r.poll(0), 4u32.to_be_bytes().to_vec());
        assert_eq!(r.poll(0), 5u32.to_be_bytes().to_vec());
        assert_eq!(r.poll(0), 2u32.to_be_bytes().to_vec());
    }

    #[test]
    fn tail_wraps_too() {
        let (mut w, mut r) = setup(1, 4);
        for i in 0..4u32 {
            w.append(0, &i.to_be_bytes());
        }
        r.poll_n(0, 4);
        assert_eq!(r.tail(0), 0);
        w.append(0, &9u32.to_be_bytes());
        assert_eq!(r.poll(0), 9u32.to_be_bytes().to_vec());
    }

    #[test]
    #[should_panic]
    fn wrong_entry_size_rejected() {
        let (mut w, _) = setup(1, 4);
        w.append(0, &[1, 2, 3]);
    }
}
