//! Registered memory regions.
//!
//! The collector allocates its primitive data structures in RDMA-registered
//! memory ("all RDMA-registered memory is allocated on 1GB huge pages", §6)
//! and hands out rkeys to the translator. Every inbound WRITE / FETCH_ADD is
//! validated against the region's bounds and key before touching memory —
//! and counted, because "memory instructions per report" is the paper's
//! Figure 8 metric.
//!
//! Storage is **lock-striped**: the region is split into fixed power-of-two
//! stripes, each behind its own `RwLock`. Slot writes landing in different
//! stripes proceed in parallel (like DMA channels hitting different DRAM
//! banks), and the common one-stripe access takes exactly one uncontended
//! lock instead of the previous whole-region `RwLock`. The accessors are
//! allocation-free: [`MemoryRegion::read_into`] copies into a caller buffer.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use dta_core::pool::Recycler;

/// Stripe width in bytes. Power of two so stripe index and offset are a
/// shift and a mask. 4KB keeps a slot access inside one stripe except when
/// it straddles a 4KB boundary (rare: slots are tens of bytes).
pub(crate) const STRIPE_BYTES: usize = 4096;
const STRIPE_SHIFT: u32 = STRIPE_BYTES.trailing_zeros();
/// Dirt is tracked per 64-byte line: a stripe's 64 lines are one `u64`
/// bitmap, so a slot-sized write dirties one or two lines, not 4 KiB.
const LINE_BYTES: usize = STRIPE_BYTES / 64;
const LINE_SHIFT: u32 = LINE_BYTES.trailing_zeros();

/// The line bitmap of a non-empty access of `len` bytes at offset `within`
/// of one stripe (`within + len <= STRIPE_BYTES`).
#[inline]
fn line_mask(within: usize, len: usize) -> u64 {
    let first = within >> LINE_SHIFT;
    let last = (within + len - 1) >> LINE_SHIFT;
    (u64::MAX << first) & (u64::MAX >> (63 - last))
}

/// The byte ranges `[start, end)` of the runs of set bits in `lines`, the
/// line bitmap of stripe `stripe`, clipped to a region of `len` bytes (the
/// last line of a ragged region is short). Ascending.
fn line_runs(stripe: usize, mut lines: u64, len: usize) -> impl Iterator<Item = (usize, usize)> {
    let base = stripe * STRIPE_BYTES;
    std::iter::from_fn(move || {
        if lines == 0 {
            return None;
        }
        let first = lines.trailing_zeros();
        let run = (lines >> first).trailing_ones();
        lines &= !((u64::MAX >> (64 - run)) << first);
        let start = base + ((first as usize) << LINE_SHIFT);
        let end = base + (((first + run) as usize) << LINE_SHIFT);
        Some((start, end.min(len)))
    })
}

/// Errors when executing an RDMA op against registered memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MrError {
    /// No region with the given rkey.
    BadRkey(u32),
    /// The access falls outside the region.
    OutOfBounds {
        /// Requested virtual address.
        va: u64,
        /// Requested length.
        len: usize,
    },
    /// Atomic access not aligned to 8 bytes.
    Misaligned(u64),
    /// Region does not permit the requested access.
    AccessDenied,
}

impl core::fmt::Display for MrError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            MrError::BadRkey(k) => write!(f, "unknown rkey {k:#x}"),
            MrError::OutOfBounds { va, len } => {
                write!(f, "access [{va:#x}, +{len}) outside region")
            }
            MrError::Misaligned(va) => write!(f, "atomic at {va:#x} not 8B-aligned"),
            MrError::AccessDenied => write!(f, "region access denied"),
        }
    }
}

impl std::error::Error for MrError {}

/// Access permissions of a region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MrAccess {
    /// Remote writes allowed.
    pub remote_write: bool,
    /// Remote atomics allowed.
    pub remote_atomic: bool,
}

impl MrAccess {
    /// Write-only region (Key-Write, Postcarding, Append targets).
    pub const WRITE: MrAccess = MrAccess { remote_write: true, remote_atomic: false };
    /// Atomic-capable region (Key-Increment sketch).
    pub const ATOMIC: MrAccess = MrAccess { remote_write: true, remote_atomic: true };
}

/// The counters a stripe lock serializes alongside its bytes: the
/// write/atomic instruction counts are summed on demand, so no access —
/// WRITE, FETCH_ADD or query read — touches a region-global atomic.
#[derive(Default)]
struct StripeMeta {
    writes: u64,
    /// Bit `l` is set once a WRITE or FETCH_ADD touched line `l` of the
    /// stripe. A clear line is still all-zero, so snapshots and recycling
    /// skip it, and a stripe is dirty exactly when this is non-zero.
    lines: u64,
    /// FETCH_ADD operations executed.
    atomics: u64,
}

/// A minimal spin rwlock specialized for stripe access: slot-sized
/// critical sections (a bounds-checked memcpy) make parking machinery pure
/// overhead. Writers CAS `0 -> WRITER`; readers increment while no writer
/// holds it. Not panic-safe: a panicking critical section deadlocks the
/// stripe instead of poisoning (acceptable for the simulator; sections
/// contain no panicking calls).
struct StripeLock {
    state: AtomicU32,
    meta: UnsafeCell<StripeMeta>,
}

const WRITER: u32 = u32::MAX;

// Two locks to a cache line, none straddling one: a 64 MiB region's lock
// array is 512 KiB, and both the write and the query path touch exactly one
// lock line per op.
const _: () = assert!(std::mem::size_of::<StripeLock>() == 32);

impl StripeLock {
    fn new() -> Self {
        StripeLock { state: AtomicU32::new(0), meta: UnsafeCell::new(StripeMeta::default()) }
    }

    #[inline]
    fn acquire_write(&self) {
        let mut spins = 0u32;
        while self
            .state
            .compare_exchange_weak(0, WRITER, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            spins += 1;
            if spins > 64 {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
    }

    #[inline]
    fn release_write(&self) {
        self.state.store(0, Ordering::Release);
    }

    #[inline]
    fn acquire_read(&self) {
        let mut spins = 0u32;
        loop {
            let s = self.state.load(Ordering::Relaxed);
            if s != WRITER
                && self
                    .state
                    .compare_exchange_weak(s, s + 1, Ordering::Acquire, Ordering::Relaxed)
                    .is_ok()
            {
                break;
            }
            spins += 1;
            if spins > 64 {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
    }

    #[inline]
    fn release_read(&self) {
        self.state.fetch_sub(1, Ordering::Release);
    }
}

/// The striped backing store shared by all clones of a region.
///
/// The bytes live in **one** shared zeroed allocation (so registering a
/// multi-MB region is one `alloc_zeroed` — per-stripe 4KB boxes memset
/// eagerly and cost ~0.6ms per default-sized collector); stripe `i` covers
/// `[i * STRIPE_BYTES, (i+1) * STRIPE_BYTES) ∩ [0, len)` and that range is
/// only dereferenced while `locks[i]` is held.
struct Stripes {
    len: usize,
    /// `UnsafeCell<u8>` has the same in-memory representation as `u8`;
    /// wrapping each byte keeps the shared-allocation interior mutability
    /// sound without ever forming overlapping `&mut [u8]`.
    data: Box<[UnsafeCell<u8>]>,
    locks: Vec<StripeLock>,
}

// SAFETY: every byte of `data` is assigned to exactly one stripe, and all
// access to a stripe's bytes and meta happens under its rwlock — the same
// discipline as a Vec of RwLock<[u8; STRIPE_BYTES]>.
unsafe impl Sync for Stripes {}
// SAFETY: `data` and `locks` are owned heap allocations with no thread
// affinity; moving them moves the stripes and their locks together.
unsafe impl Send for Stripes {}

impl Drop for Stripes {
    fn drop(&mut self) {
        self.recycle();
    }
}

/// The zeroed backings of region stripes and snapshots, one recycler for
/// both, so a snapshot can reuse a region-sized buffer. Every simulated
/// collector sizes its stores the same way, and a backing is re-zeroed
/// **dirty lines only** on return, so a mostly clean region costs almost
/// nothing to recycle. The cap is 32 default-sized collectors' worth.
static BACKINGS: Recycler<UnsafeCell<u8>> = Recycler::new(128);

impl Stripes {
    fn new(len: usize) -> Self {
        let n = len.div_ceil(STRIPE_BYTES);
        let data = BACKINGS.take_zeroed(len);
        Stripes { len, data, locks: (0..n).map(|_| StripeLock::new()).collect() }
    }

    /// Byte range of stripe `i`.
    #[inline]
    fn range(&self, i: usize) -> (usize, usize) {
        let start = i * STRIPE_BYTES;
        (start, self.len.min(start + STRIPE_BYTES))
    }

    #[inline]
    fn with_write<R>(&self, i: usize, f: impl FnOnce(&mut [u8], &mut StripeMeta) -> R) -> R {
        let lock = &self.locks[i];
        lock.acquire_write();
        let (s, e) = self.range(i);
        // SAFETY: the write lock gives exclusive access to this stripe's
        // bytes and meta; the slice covers only this stripe's range.
        let r = unsafe {
            let buf =
                std::slice::from_raw_parts_mut(self.data[s..e].as_ptr() as *mut u8, e - s);
            f(buf, &mut *lock.meta.get())
        };
        lock.release_write();
        r
    }

    /// Return the backing to the recycler, zeroed. Only dirty lines are
    /// wiped (clean ones are zero by invariant).
    fn recycle(&mut self) {
        for i in 0..self.locks.len() {
            // SAFETY: `&mut self` in drop — no other access possible.
            let lines = unsafe { &*self.locks[i].meta.get() }.lines;
            for (s, e) in line_runs(i, lines, self.len) {
                // SAFETY: same exclusivity as the meta read above (`&mut
                // self` in drop), and `line_runs` keeps the slice inside
                // stripe `i`'s range of the shared allocation.
                unsafe {
                    std::slice::from_raw_parts_mut(self.data[s..e].as_ptr() as *mut u8, e - s)
                        .fill(0);
                }
            }
        }
        BACKINGS.give(std::mem::take(&mut self.data));
    }

    #[inline]
    fn with_read<R>(&self, i: usize, f: impl FnOnce(&[u8], &StripeMeta) -> R) -> R {
        let lock = &self.locks[i];
        lock.acquire_read();
        let (s, e) = self.range(i);
        // SAFETY: the shared lock excludes writers for this stripe.
        let r = unsafe {
            let buf = std::slice::from_raw_parts(self.data[s..e].as_ptr() as *const u8, e - s);
            f(buf, &*lock.meta.get())
        };
        lock.release_read();
        r
    }
}

/// A registered memory region.
///
/// Interior mutability allows the simulated NIC (ingress path) and the
/// collector's query threads to share the region, like DMA and CPU share
/// DRAM. Locking is per-stripe; accesses to different stripes never
/// contend, and multi-stripe accesses take the stripe locks in ascending
/// order (so concurrent spanning accesses cannot deadlock).
#[derive(Clone)]
pub struct MemoryRegion {
    /// Starting virtual address.
    pub base_va: u64,
    /// rkey advertised to peers.
    pub rkey: u32,
    access: MrAccess,
    mem: Arc<Stripes>,
}

impl core::fmt::Debug for MemoryRegion {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("MemoryRegion")
            .field("base_va", &self.base_va)
            .field("rkey", &self.rkey)
            .field("len", &self.len())
            .field("stripes", &self.mem.locks.len())
            .finish()
    }
}

impl MemoryRegion {
    /// Register `len` zeroed bytes at `base_va` with the given key/access.
    pub fn new(base_va: u64, len: usize, rkey: u32, access: MrAccess) -> Self {
        MemoryRegion { base_va, rkey, access, mem: Arc::new(Stripes::new(len)) }
    }

    /// Region length in bytes.
    pub fn len(&self) -> usize {
        self.mem.len
    }

    /// Whether the region is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn offset(&self, va: u64, len: usize) -> Result<usize, MrError> {
        let end = va.checked_add(len as u64).ok_or(MrError::OutOfBounds { va, len })?;
        if va < self.base_va || end > self.base_va + self.len() as u64 {
            return Err(MrError::OutOfBounds { va, len });
        }
        Ok((va - self.base_va) as usize)
    }

    /// Hint the cache line of the byte at `va` — the data line a verb a few
    /// packets down the burst will touch ([`crate::nic::RdmaNic::
    /// ingress_burst`]). Total, and not an access: an address outside the
    /// region hints nothing, and no lock, counter or dirty bit moves. The
    /// stripe-lock word is deliberately not hinted — the lock arrays are
    /// cache-resident, and a read-intent pull of a line a concurrent
    /// reader CASes only adds coherence traffic.
    #[inline]
    pub fn prefetch(&self, va: u64) {
        let byte = va
            .checked_sub(self.base_va)
            .and_then(|off| usize::try_from(off).ok())
            .and_then(|off| self.mem.data.get(off));
        if let Some(byte) = byte {
            dta_hash::prefetch_read(byte.get());
        }
    }

    /// Execute an RDMA WRITE of `data` at `va`. An empty write that passes
    /// the bounds check (the region's end address included) succeeds and
    /// touches nothing: no stripe, no counter, no dirty bit.
    #[inline]
    pub fn write(&self, va: u64, data: &[u8]) -> Result<(), MrError> {
        if !self.access.remote_write {
            return Err(MrError::AccessDenied);
        }
        let off = self.offset(va, data.len())?;
        let stripe = off >> STRIPE_SHIFT;
        let within = off & (STRIPE_BYTES - 1);
        // `len - 1 < room` is `within + len <= STRIPE_BYTES` for a non-empty
        // write and false for an empty one (the subtraction wraps), which
        // `write_spanning` turns into no access at all: at the region's end
        // address `stripe` is one past the last, and must not be indexed.
        if data.len().wrapping_sub(1) < STRIPE_BYTES - within {
            // Fast path: slot-sized writes stay inside one stripe. All
            // accounting happens under the stripe lock already held — the
            // write path touches no region-global atomics.
            self.mem.with_write(stripe, |buf, m| {
                buf[within..within + data.len()].copy_from_slice(data);
                m.writes += 1;
                m.lines |= line_mask(within, data.len());
            });
        } else {
            self.write_spanning(off, data);
        }
        Ok(())
    }

    /// Slow path for writes crossing stripe boundaries: stripe locks are
    /// taken in ascending order (no deadlock against other spanning ops).
    /// The op counts once, on its first stripe.
    fn write_spanning(&self, mut off: usize, data: &[u8]) {
        let mut src = data;
        let mut first = true;
        while !src.is_empty() {
            let stripe = off >> STRIPE_SHIFT;
            let within = off & (STRIPE_BYTES - 1);
            let take = src.len().min(STRIPE_BYTES - within);
            self.mem.with_write(stripe, |buf, m| {
                buf[within..within + take].copy_from_slice(&src[..take]);
                if first {
                    m.writes += 1;
                }
                m.lines |= line_mask(within, take);
            });
            first = false;
            src = &src[take..];
            off += take;
        }
    }

    /// RDMA WRITE operations executed (summed from the per-stripe
    /// counters).
    pub fn writes(&self) -> u64 {
        self.sum_stripes(|m| m.writes)
    }

    /// Total memory instructions executed against this region (one per
    /// RDMA op, as in Figure 8: the NIC's DMA engine issues one memory
    /// transaction per operation).
    pub fn memory_instructions(&self) -> u64 {
        self.sum_stripes(|m| m.writes + m.atomics)
    }

    /// Sum a per-stripe counter, each stripe read under its own lock.
    fn sum_stripes(&self, counter: impl Fn(&StripeMeta) -> u64) -> u64 {
        (0..self.mem.locks.len()).map(|i| self.mem.with_read(i, |_, m| counter(m))).sum()
    }

    /// Execute a FETCH_ADD of `add` at `va` (8-byte, per the IB spec).
    /// Returns the original value.
    pub fn fetch_add(&self, va: u64, add: u64) -> Result<u64, MrError> {
        if !self.access.remote_atomic {
            return Err(MrError::AccessDenied);
        }
        if !va.is_multiple_of(8) {
            return Err(MrError::Misaligned(va));
        }
        let off = self.offset(va, 8)?;
        // The region-relative offset must be 8B-aligned too (as with real
        // RDMA, where registered regions are page-aligned): an unaligned
        // base_va would otherwise let an aligned va straddle a stripe.
        if off % 8 != 0 {
            return Err(MrError::Misaligned(va));
        }
        let stripe = off >> STRIPE_SHIFT;
        let within = off & (STRIPE_BYTES - 1);
        Ok(self.mem.with_write(stripe, |buf, m| {
            let word = &mut buf[within..within + 8];
            let old = u64::from_be_bytes(word.as_ref().try_into().unwrap());
            word.copy_from_slice(&old.wrapping_add(add).to_be_bytes());
            m.atomics += 1;
            m.lines |= line_mask(within, 8);
            old
        }))
    }

    /// Copy `dst.len()` bytes at `va` into a caller-provided buffer — the
    /// allocation-free read used by every query path. Not an RDMA op and
    /// not counted: a query's reads are its `QueryResponse::probes`.
    pub fn read_into(&self, va: u64, dst: &mut [u8]) -> Result<(), MrError> {
        let mut off = self.offset(va, dst.len())?;
        let mut out = dst;
        while !out.is_empty() {
            let stripe = off >> STRIPE_SHIFT;
            let within = off & (STRIPE_BYTES - 1);
            let take = out.len().min(STRIPE_BYTES - within);
            self.mem
                .with_read(stripe, |buf, _| out[..take].copy_from_slice(&buf[within..within + take]));
            out = &mut out[take..];
            off += take;
        }
        Ok(())
    }

    /// [`MemoryRegion::read_into`] into a fresh `Vec` (READ responses,
    /// tests and diagnostics).
    pub fn peek(&self, va: u64, len: usize) -> Result<Vec<u8>, MrError> {
        self.offset(va, len)?; // bound the request before allocating for it
        let mut out = vec![0u8; len];
        self.read_into(va, &mut out)?;
        Ok(out)
    }

    /// Copy the whole region out into a [`SnapshotBuf`]: each stripe's
    /// runs of dirty lines memcpy under its read lock; clean lines are
    /// never read *or* written, because the destination comes from the
    /// same zeroed-buffer recycler the stripes themselves return to. The
    /// copy is proportional to the lines the run dirtied, not the region
    /// size — and the buffer goes back when the snapshot drops.
    /// This is what the scenario harness snapshots collector memory with.
    pub fn snapshot(&self) -> SnapshotBuf {
        let mut out = SnapshotBuf::zeroed(self.len());
        for i in 0..self.mem.locks.len() {
            let (s, _) = self.mem.range(i);
            self.mem.with_read(i, |buf, m| {
                for (start, end) in line_runs(i, m.lines, self.len()) {
                    out.write_range(start, &buf[start - s..end - s]);
                }
            });
        }
        out
    }
}

/// An owned byte image of a region, produced by [`MemoryRegion::snapshot`].
///
/// Backed by the same process-wide zeroed-buffer recycler the stripe
/// stores return to: acquisition is a free-list pop (no allocation, no
/// memset for the clean majority of a region), and drop re-zeros only the
/// ranges that were written before returning the buffer. Dereferences to
/// `&[u8]`.
pub struct SnapshotBuf {
    data: Box<[UnsafeCell<u8>]>,
    len: usize,
    /// Byte ranges `[start, end)` that may be non-zero (re-zeroed on
    /// drop): ascending, and neither overlapping nor touching. `usize`
    /// offsets, so every region length is representable.
    written: Vec<(usize, usize)>,
}

/// Append `[start, end)` to an ascending range list, merging it into the
/// last range when the two overlap or touch.
fn push_range(ranges: &mut Vec<(usize, usize)>, start: usize, end: usize) {
    match ranges.last_mut() {
        Some(last) if start <= last.1 => last.1 = last.1.max(end),
        _ => ranges.push((start, end)),
    }
}

impl SnapshotBuf {
    /// An all-zero image of `len` bytes (recycled when possible).
    fn zeroed(len: usize) -> Self {
        SnapshotBuf { data: BACKINGS.take_zeroed(len), len, written: Vec::new() }
    }

    /// Copy `src` into the image at byte offset `start`, which must not be
    /// below the end of any range already written.
    fn write_range(&mut self, start: usize, src: &[u8]) {
        let end = start + src.len();
        // SAFETY: the buffer is exclusively owned; the slice index bounds
        // the range.
        unsafe {
            std::slice::from_raw_parts_mut(self.data[start..end].as_ptr() as *mut u8, src.len())
                .copy_from_slice(src);
        }
        push_range(&mut self.written, start, end);
    }

    /// OR `other`'s written ranges into this image.
    ///
    /// The collector-fleet memory merge: when every key's slots are
    /// written on exactly one collector (write-once Key-Write, slot-
    /// disjoint key pools), OR-ing the per-collector images is a union of
    /// the written bytes, and the merged image is comparable byte-for-byte
    /// against a single-image run. Bytes outside `other`'s written ranges
    /// are zero by the pool invariant, so only those ranges are visited,
    /// and this image's ranges become the union of both lists (which keeps
    /// drop and clone proportional to the dirty lines too). Panics if the
    /// lengths differ.
    pub fn or_with(&mut self, other: &SnapshotBuf) {
        assert_eq!(other.len, self.len, "cannot OR differently sized region images");
        // SAFETY: the buffer is exclusively owned; plain-byte writes.
        let dst = unsafe {
            std::slice::from_raw_parts_mut(self.data.as_ptr() as *mut u8, self.len)
        };
        let src = other.as_bytes();
        for &(s, e) in &other.written {
            for (d, &b) in dst[s..e].iter_mut().zip(&src[s..e]) {
                *d |= b;
            }
        }
        // Two ascending runs: the stable sort merges them in one pass.
        let mut both = [&self.written[..], &other.written[..]].concat();
        both.sort();
        self.written.clear();
        for (s, e) in both {
            push_range(&mut self.written, s, e);
        }
    }

    /// The full image bytes.
    pub fn as_bytes(&self) -> &[u8] {
        // SAFETY: exclusive ownership; shared reads of plain bytes.
        unsafe { std::slice::from_raw_parts(self.data.as_ptr() as *const u8, self.len) }
    }
}

impl std::ops::Deref for SnapshotBuf {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_bytes()
    }
}

impl Drop for SnapshotBuf {
    fn drop(&mut self) {
        for &(s, e) in &self.written {
            // SAFETY: exclusive ownership in drop.
            unsafe {
                std::slice::from_raw_parts_mut(self.data[s..e].as_ptr() as *mut u8, e - s)
                    .fill(0);
            }
        }
        BACKINGS.give(std::mem::take(&mut self.data));
    }
}

impl Clone for SnapshotBuf {
    fn clone(&self) -> Self {
        let mut out = SnapshotBuf::zeroed(self.len);
        for &(s, e) in &self.written {
            out.write_range(s, &self.as_bytes()[s..e]);
        }
        out
    }
}

impl PartialEq for SnapshotBuf {
    fn eq(&self, other: &Self) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}
impl Eq for SnapshotBuf {}

impl core::fmt::Debug for SnapshotBuf {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("SnapshotBuf")
            .field("len", &self.len)
            .field("written_ranges", &self.written.len())
            .finish()
    }
}

// SAFETY: plain bytes behind exclusive ownership.
unsafe impl Send for SnapshotBuf {}
// SAFETY: no interior mutability — every write goes through `&mut self`,
// so shared references only ever read.
unsafe impl Sync for SnapshotBuf {}

/// The per-NIC table of registered regions, keyed by rkey.
///
/// Lookup scans the region vector: a collector registers one region per
/// primitive (at most four), and at that size a dense scan beats hashing
/// the rkey on every validated op — the same trade as `RdmaNic`'s QP
/// table. Cloning a registry clones the region *handles* only — the
/// striped backing stores are shared, which is how per-shard NIC endpoints
/// all land in the same collector memory.
#[derive(Debug, Default, Clone)]
pub struct MemoryRegistry {
    regions: Vec<MemoryRegion>,
}

impl MemoryRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a region; rkeys must be unique.
    ///
    /// # Panics
    /// Panics if the rkey is already registered.
    pub fn register(&mut self, region: MemoryRegion) {
        assert!(
            self.lookup(region.rkey).is_none(),
            "duplicate rkey {:#x}",
            region.rkey
        );
        self.regions.push(region);
    }

    /// Find a region by rkey.
    #[inline]
    pub fn lookup(&self, rkey: u32) -> Option<&MemoryRegion> {
        self.regions.iter().find(|r| r.rkey == rkey)
    }

    /// Number of registered regions.
    pub fn len(&self) -> usize {
        self.regions.len()
    }

    /// Whether no regions are registered.
    pub fn is_empty(&self) -> bool {
        self.regions.is_empty()
    }

    /// Iterate over the registered regions (rkey order of registration).
    pub fn regions(&self) -> impl Iterator<Item = &MemoryRegion> {
        self.regions.iter()
    }

    /// Execute a validated WRITE.
    pub fn write(&self, rkey: u32, va: u64, data: &[u8]) -> Result<(), MrError> {
        self.lookup(rkey).ok_or(MrError::BadRkey(rkey))?.write(va, data)
    }

    /// Execute a validated FETCH_ADD.
    pub fn fetch_add(&self, rkey: u32, va: u64, add: u64) -> Result<u64, MrError> {
        self.lookup(rkey).ok_or(MrError::BadRkey(rkey))?.fetch_add(va, add)
    }

    /// Sum of memory instructions across all regions.
    pub fn memory_instructions(&self) -> u64 {
        self.regions.iter().map(|r| r.memory_instructions()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_then_read_back() {
        let mr = MemoryRegion::new(0x1000, 64, 1, MrAccess::WRITE);
        mr.write(0x1010, &[1, 2, 3, 4]).unwrap();
        let mut got = [0u8; 4];
        mr.read_into(0x1010, &mut got).unwrap();
        assert_eq!(got, [1, 2, 3, 4]);
        assert_eq!(mr.writes(), 1);
        assert_eq!(mr.snapshot().written, [(0, 64)], "one dirty line");
    }

    #[test]
    fn line_ranges_past_4_gib_are_exact() {
        // Pure range arithmetic, no region: a 6 GiB one would not fit here.
        // As `u32` byte offsets these wrapped, and a dropped snapshot
        // re-zeroed the wrong bytes.
        let base = 5usize << 30;
        let stripe = base / STRIPE_BYTES;
        let len = base + 2 * STRIPE_BYTES - 100;
        let lines = 0b1011 | 1 << 63;
        let runs: Vec<_> = line_runs(stripe, lines, len).collect();
        assert_eq!(
            runs,
            [(base, base + 128), (base + 192, base + 256), (base + 4032, base + 4096)]
        );
        // The last stripe is ragged: its last line ends at the region's end.
        let tail: Vec<_> = line_runs(stripe + 1, 0b1 | 0b11 << 61, len).collect();
        let next = base + STRIPE_BYTES;
        assert_eq!(tail, [(next, next + 64), (next + 3904, len)]);
        // A run that ends a stripe merges with one that starts the next.
        let mut merged = Vec::new();
        for (s, e) in runs.into_iter().chain(tail) {
            push_range(&mut merged, s, e);
        }
        assert_eq!(
            merged,
            [
                (base, base + 128),
                (base + 192, base + 256),
                (base + 4032, next + 64),
                (next + 3904, len),
            ]
        );
        assert_eq!(line_mask(4032, 64), 1 << 63);
        assert_eq!(line_mask(60, 8), 0b11);
        assert_eq!(line_mask(0, STRIPE_BYTES), u64::MAX);
    }

    #[test]
    fn snapshot_or_merge_unions_disjoint_writes() {
        let a = MemoryRegion::new(0, 64, 1, MrAccess::WRITE);
        let b = MemoryRegion::new(0, 64, 1, MrAccess::WRITE);
        let both = MemoryRegion::new(0, 64, 1, MrAccess::WRITE);
        a.write(4, &[1, 2]).unwrap();
        b.write(32, &[7]).unwrap();
        both.write(4, &[1, 2]).unwrap();
        both.write(32, &[7]).unwrap();
        let mut merged = a.snapshot();
        merged.or_with(&b.snapshot());
        assert_eq!(&*merged, &*both.snapshot());
    }

    /// Three stripes and a tail that ends inside a line but on an 8-byte
    /// boundary, so a FETCH_ADD can end exactly at the region's end; no
    /// other test pools this length.
    const OR_LEN: usize = STRIPE_BYTES * 3 + 120;

    /// The byte ranges, in `SnapshotBuf::written` form, of the lines that
    /// the `(into_a, atomic, at, len, byte)` ops which `pick` keeps (by
    /// `into_a`) dirtied.
    fn dirty_line_ranges(
        ops: &[(bool, bool, usize, usize, u8)],
        pick: impl Fn(bool) -> bool,
    ) -> Vec<(usize, usize)> {
        let mut dirty = vec![false; OR_LEN.div_ceil(LINE_BYTES)];
        for &(_, _, at, len, _) in ops.iter().filter(|op| pick(op.0)) {
            dirty[at / LINE_BYTES..=(at + len - 1) / LINE_BYTES].fill(true);
        }
        let mut ranges = Vec::new();
        for (line, _) in dirty.iter().enumerate().filter(|(_, d)| **d) {
            push_range(&mut ranges, line * LINE_BYTES, ((line + 1) * LINE_BYTES).min(OR_LEN));
        }
        ranges
    }

    proptest::proptest! {
        /// Snapshots, the range-based merge and recycling at line
        /// granularity, on random sparse WRITEs and FETCH_ADDs into two
        /// regions — some straddling lines and stripes, some ending at the
        /// region's end. A snapshot must equal a `peek` of the whole
        /// region and record exactly the dirty lines; the merge must equal
        /// the byte-wise OR; and once the regions and images drop, the
        /// pool must hand back only zeroed buffers (a dirty one would
        /// silently corrupt a later run's region or snapshot).
        #[test]
        fn snapshots_track_dirty_lines_and_recycle_zeroed(
            ops in proptest::collection::vec(
                (
                    proptest::prelude::any::<bool>(),
                    proptest::prelude::any::<bool>(),
                    proptest::prop_oneof![0usize..OR_LEN, OR_LEN - 300..OR_LEN],
                    proptest::prop_oneof![1usize..16, 1usize..300],
                    1u8..255,
                ),
                0..40,
            ),
        ) {
            let a = MemoryRegion::new(0, OR_LEN, 1, MrAccess::ATOMIC);
            let b = MemoryRegion::new(0, OR_LEN, 1, MrAccess::ATOMIC);
            // Clamp every op into the region (an 8-aligned word for an
            // atomic), so the clamped ones end exactly at its end.
            let ops: Vec<_> = ops
                .into_iter()
                .map(|(into_a, atomic, at, len, byte)| {
                    if atomic {
                        (into_a, atomic, at.min(OR_LEN - 8) / 8 * 8, 8, byte)
                    } else {
                        (into_a, atomic, at.min(OR_LEN - len), len, byte)
                    }
                })
                .collect();
            for &(into_a, atomic, at, len, byte) in &ops {
                let region = if into_a { &a } else { &b };
                if atomic {
                    region.fetch_add(at as u64, u64::from(byte)).unwrap();
                } else {
                    region.write(at as u64, &vec![byte; len]).unwrap();
                }
            }
            let (sa, sb) = (a.snapshot(), b.snapshot());
            for (region, snap, is_a) in [(&a, &sa, true), (&b, &sb, false)] {
                proptest::prop_assert_eq!(snap.as_bytes(), &region.peek(0, OR_LEN).unwrap()[..]);
                let lines = dirty_line_ranges(&ops, |into_a| into_a == is_a);
                proptest::prop_assert_eq!(snap.written, lines);
            }
            let expected: Vec<u8> = sa.iter().zip(sb.iter()).map(|(x, y)| x | y).collect();
            let mut merged = sa.clone();
            merged.or_with(&sb);
            proptest::prop_assert_eq!(merged.as_bytes(), &expected[..]);
            let copy = merged.clone();
            proptest::prop_assert_eq!(copy.as_bytes(), &expected[..]);
            proptest::prop_assert_eq!(copy.written, dirty_line_ranges(&ops, |_| true));

            // Six buffers of this (test-private) length go back to the pool;
            // hold as many fresh regions and images at once so each is a
            // distinct buffer.
            drop((a, b, sa, sb, merged, copy));
            let regions: Vec<MemoryRegion> =
                (0..3).map(|_| MemoryRegion::new(0, OR_LEN, 1, MrAccess::WRITE)).collect();
            let images: Vec<SnapshotBuf> = (0..3).map(|_| SnapshotBuf::zeroed(OR_LEN)).collect();
            for region in &regions {
                proptest::prop_assert!(
                    region.peek(0, OR_LEN).unwrap().iter().all(|&x| x == 0),
                    "dirty region backing in the zeroed pool"
                );
            }
            for buf in &images {
                proptest::prop_assert!(buf.iter().all(|&x| x == 0), "dirty buffer in the zeroed pool");
            }
        }
    }

    #[test]
    fn read_into_is_allocation_free_interface() {
        let mr = MemoryRegion::new(0, 64, 1, MrAccess::WRITE);
        mr.write(8, &[7; 8]).unwrap();
        let mut buf = [0u8; 8];
        mr.read_into(8, &mut buf).unwrap();
        assert_eq!(buf, [7; 8]);
        assert!(matches!(
            mr.read_into(60, &mut buf),
            Err(MrError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn accesses_spanning_stripes_are_exact() {
        // Region bigger than one stripe; write across the boundary.
        let len = STRIPE_BYTES * 2 + 17;
        let mr = MemoryRegion::new(0, len, 1, MrAccess::WRITE);
        let data: Vec<u8> = (0..200u32).map(|i| i as u8).collect();
        let va = (STRIPE_BYTES - 100) as u64;
        mr.write(va, &data).unwrap();
        assert_eq!(mr.peek(va, data.len()).unwrap(), data);
        // Tail of the region is still addressable.
        mr.write((len - 4) as u64, &[1, 2, 3, 4]).unwrap();
        assert_eq!(mr.peek((len - 4) as u64, 4).unwrap(), vec![1, 2, 3, 4]);
    }

    #[test]
    fn parallel_writers_to_distinct_stripes() {
        let mr = MemoryRegion::new(0, STRIPE_BYTES * 8, 1, MrAccess::WRITE);
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let mr = mr.clone();
                s.spawn(move || {
                    let base = t * STRIPE_BYTES as u64;
                    for i in 0..64u64 {
                        mr.write(base + i * 8, &[t as u8 + 1; 8]).unwrap();
                    }
                });
            }
        });
        for t in 0..8u64 {
            let got = mr.peek(t * STRIPE_BYTES as u64, 8).unwrap();
            assert_eq!(got, vec![t as u8 + 1; 8]);
        }
        assert_eq!(mr.writes(), 8 * 64);
    }

    #[test]
    fn out_of_bounds_write_rejected() {
        let mr = MemoryRegion::new(0x1000, 64, 1, MrAccess::WRITE);
        assert!(matches!(mr.write(0x1040, &[0]), Err(MrError::OutOfBounds { .. })));
        assert!(matches!(mr.write(0x0FFF, &[0]), Err(MrError::OutOfBounds { .. })));
        // Boundary-exact write succeeds.
        mr.write(0x103C, &[0; 4]).unwrap();
        // A wire-supplied 4 GiB read length is refused by the bounds check,
        // not by the allocator.
        assert!(matches!(mr.peek(0x1000, 0xFFFF_FFFF), Err(MrError::OutOfBounds { .. })));
    }

    #[test]
    fn empty_write_is_a_bounds_checked_no_op() {
        // The end address is in range for zero bytes and is the one offset
        // whose stripe does not exist (8 KiB = stripes 0 and 1).
        let mr = MemoryRegion::new(0x1000, STRIPE_BYTES * 2, 1, MrAccess::WRITE);
        let end = 0x1000 + STRIPE_BYTES as u64 * 2;
        for va in [0x1000, 0x1020, end] {
            mr.write(va, &[]).unwrap();
        }
        assert!(matches!(mr.write(end + 1, &[]), Err(MrError::OutOfBounds { .. })));
        // Not an access: no counter moved, no stripe went dirty.
        assert_eq!((mr.writes(), mr.memory_instructions()), (0, 0));
        assert!(mr.snapshot().written.is_empty());
    }

    #[test]
    fn fetch_add_returns_old_value() {
        let mr = MemoryRegion::new(0, 64, 1, MrAccess::ATOMIC);
        assert_eq!(mr.fetch_add(8, 5).unwrap(), 0);
        assert_eq!(mr.fetch_add(8, 7).unwrap(), 5);
        assert_eq!(
            u64::from_be_bytes(mr.peek(8, 8).unwrap().try_into().unwrap()),
            12
        );
    }

    #[test]
    fn misaligned_atomic_rejected() {
        let mr = MemoryRegion::new(0, 64, 1, MrAccess::ATOMIC);
        assert!(matches!(mr.fetch_add(4, 1), Err(MrError::Misaligned(4))));
    }

    #[test]
    fn unaligned_base_va_atomic_rejected_not_panicking() {
        // Over an unaligned base_va, an 8B-aligned va has an unaligned
        // region offset and could straddle a stripe boundary; every
        // atomic must error cleanly (never panic). Aligned-base regions
        // are unaffected.
        let mr = MemoryRegion::new(4, STRIPE_BYTES * 2, 1, MrAccess::ATOMIC);
        let va = STRIPE_BYTES as u64; // va % 8 == 0, but off % 8 == 4
        assert!(matches!(mr.fetch_add(va, 1), Err(MrError::Misaligned(_))));
        assert!(matches!(mr.fetch_add(12, 1), Err(MrError::Misaligned(_))));
        let aligned = MemoryRegion::new(8, STRIPE_BYTES * 2, 2, MrAccess::ATOMIC);
        assert_eq!(aligned.fetch_add(16, 5).unwrap(), 0);
    }

    #[test]
    fn atomic_denied_on_write_only_region() {
        let mr = MemoryRegion::new(0, 64, 1, MrAccess::WRITE);
        assert!(matches!(mr.fetch_add(0, 1), Err(MrError::AccessDenied)));
    }

    #[test]
    fn registry_validates_rkey() {
        let mut reg = MemoryRegistry::new();
        reg.register(MemoryRegion::new(0, 64, 10, MrAccess::WRITE));
        assert!(reg.write(10, 0, &[1]).is_ok());
        assert!(matches!(reg.write(11, 0, &[1]), Err(MrError::BadRkey(11))));
    }

    #[test]
    fn registry_indexes_many_regions() {
        // Lookup must stay exact however many regions there are: register
        // several hundred with awkward (clustered and wide-spread) rkeys,
        // then find every one and miss on neighbours. The regions are
        // empty: 512 real backings would fill the process-wide zeroed pool,
        // and a full pool drops what other tests return to it unchecked.
        let mut reg = MemoryRegistry::new();
        let rkeys: Vec<u32> = (0..512u32)
            .map(|i| if i % 2 == 0 { i * 2 } else { 0x8000_0000 | (i * 3) })
            .collect();
        for (i, &rk) in rkeys.iter().enumerate() {
            reg.register(MemoryRegion::new((i as u64) << 16, 0, rk, MrAccess::WRITE));
        }
        assert_eq!(reg.len(), 512);
        for (i, &rk) in rkeys.iter().enumerate() {
            let r = reg.lookup(rk).unwrap_or_else(|| panic!("rkey {rk:#x} lost"));
            assert_eq!(r.base_va, (i as u64) << 16, "lookup returned wrong region");
        }
        for missing in [1u32, 5, 0x7FFF_FFFF, u32::MAX] {
            assert!(reg.lookup(missing).is_none(), "phantom hit for {missing:#x}");
        }
        // And the registered regions execute: an empty write fits only at
        // its own region's base address.
        assert!(reg.write(rkeys[300], 300u64 << 16, &[]).is_ok());
        assert!(matches!(
            reg.write(rkeys[300], (300u64 << 16) + 1, &[]),
            Err(MrError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn cloned_registry_shares_backing_stores() {
        let mut reg = MemoryRegistry::new();
        reg.register(MemoryRegion::new(0, 64, 7, MrAccess::WRITE));
        let clone = reg.clone();
        clone.write(7, 0, &[0xEE; 4]).unwrap();
        // The write through the clone is visible through the original.
        assert_eq!(reg.lookup(7).unwrap().peek(0, 4).unwrap(), vec![0xEE; 4]);
    }

    #[test]
    #[should_panic]
    fn duplicate_rkey_panics() {
        let mut reg = MemoryRegistry::new();
        reg.register(MemoryRegion::new(0, 64, 10, MrAccess::WRITE));
        reg.register(MemoryRegion::new(0x100, 64, 10, MrAccess::WRITE));
    }

    #[test]
    fn memory_instruction_accounting() {
        let mut reg = MemoryRegistry::new();
        reg.register(MemoryRegion::new(0, 1024, 1, MrAccess::ATOMIC));
        for i in 0..10 {
            reg.write(1, i * 8, &[0; 8]).unwrap();
        }
        for _ in 0..5 {
            reg.fetch_add(1, 0, 1).unwrap();
        }
        assert_eq!(reg.memory_instructions(), 15);
    }

    #[test]
    fn fetch_add_wraps() {
        let mr = MemoryRegion::new(0, 8, 1, MrAccess::ATOMIC);
        mr.fetch_add(0, u64::MAX).unwrap();
        assert_eq!(mr.fetch_add(0, 2).unwrap(), u64::MAX);
        assert_eq!(
            u64::from_be_bytes(mr.peek(0, 8).unwrap().try_into().unwrap()),
            1
        );
    }

    #[test]
    fn concurrent_fetch_adds_sum_exactly() {
        let mr = MemoryRegion::new(0, STRIPE_BYTES * 2, 1, MrAccess::ATOMIC);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let mr = mr.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        mr.fetch_add(0, 1).unwrap();
                        mr.fetch_add(STRIPE_BYTES as u64, 2).unwrap();
                    }
                });
            }
        });
        let lo = u64::from_be_bytes(mr.peek(0, 8).unwrap().try_into().unwrap());
        let hi =
            u64::from_be_bytes(mr.peek(STRIPE_BYTES as u64, 8).unwrap().try_into().unwrap());
        assert_eq!(lo, 4000);
        assert_eq!(hi, 8000);
    }
}
