//! The recycling buffer pool (DPDK-mempool style) every wide wire-path
//! buffer comes from: the translator's chunk/batch images and Key-Write
//! slot images past [`Bytes::INLINE_CAP`], each reporter's frames, and the
//! RoCE frames of the translator's link and the collector node. A build of
//! at most [`Bytes::INLINE_CAP`] bytes is an inline handle and never
//! touches the pool.
//!
//! Every owner — a translator (and so every shard of a sharded one), a
//! reporter, a link, a collector node — owns its pool outright: buffers
//! recycle within one owner's build→consume→drop loop and are never shared
//! across threads, so the hot path stays allocation-free without a
//! synchronized free-list.
//!
//! The large zeroed tables a scenario run builds once and drops at its end
//! (region stripes and snapshots, key-digest scratches, postcard-cache
//! rows) recycle across runs through a process-wide [`Recycler`] instead.

use std::cell::UnsafeCell;
use std::sync::{Arc, Mutex};

use bytes::Bytes;

/// A recycling pool of shared buffers of one width.
///
/// `build` hands out an inline [`Bytes`] up to [`Bytes::INLINE_CAP`] bytes
/// (its clones are plain copies), and past that a zero-copy view of a
/// pooled buffer when the next buffer in rotation is no longer referenced
/// by any handle. When it still is, the ring grows by a fresh buffer, up to
/// its depth; at depth the fresh buffer replaces the busy one in the
/// rotation (graceful degradation when a consumer retains buffers
/// indefinitely — never corruption). In the steady state — build, consume,
/// drop — a warm pool performs no heap allocation for buffers up to its
/// width.
#[derive(Debug)]
pub struct ImagePool {
    width: usize,
    depth: usize,
    /// The rotation, oldest buffer at `next`. Grows on demand: a pool that
    /// never has more than a few buffers in flight never holds more.
    ring: Vec<Arc<[u8]>>,
    next: usize,
    /// Builds served by a recycled buffer (allocation-free).
    pub recycled: u64,
    /// Builds that needed a fresh buffer: ring growth, or a busy buffer at
    /// full depth.
    pub allocated: u64,
}

impl ImagePool {
    /// An empty pool of `width`-byte buffers whose ring grows up to `depth`
    /// buffers (at least one).
    pub fn new(width: usize, depth: usize) -> Self {
        let depth = depth.max(1);
        ImagePool { width, depth, ring: Vec::new(), next: 0, recycled: 0, allocated: 0 }
    }

    /// Produce a `len`-byte buffer, letting `fill` write it into zeroed
    /// bytes. Up to [`Bytes::INLINE_CAP`] bytes the buffer is built on the
    /// stack and returned inline: no pool ring, no reference count. Past
    /// that, the handle returned is the only one made: `N` replicas of it
    /// cost `N` refcount bumps in all. A buffer wider than the pool's width
    /// is one exact-size allocation ([`build_exact`]).
    #[inline]
    pub fn build(&mut self, len: usize, fill: impl FnOnce(&mut [u8])) -> Bytes {
        if len <= Bytes::INLINE_CAP {
            let mut buf = [0u8; Bytes::INLINE_CAP];
            fill(&mut buf[..len]);
            return Bytes::from_inline(buf, len);
        }
        self.build_pooled(len, fill)
    }

    /// [`ImagePool::build`] past the inline width. Out of line, so `fill`
    /// has one call site in `build` and inlines into the inline arm.
    #[inline(never)]
    fn build_pooled(&mut self, len: usize, fill: impl FnOnce(&mut [u8])) -> Bytes {
        if len > self.width {
            return build_exact(len, fill);
        }
        let at = self.next;
        let buf = match self.ring.get_mut(at).and_then(Arc::get_mut) {
            Some(bytes) => {
                // Sole owner: every handle that saw this buffer is gone;
                // reuse the allocation.
                bytes[..len].fill(0);
                fill(&mut bytes[..len]);
                self.recycled += 1;
                &self.ring[at]
            }
            None => {
                // Empty ring, or the oldest buffer is still referenced
                // downstream: a fresh full-width buffer, which joins the
                // rotation (as its newest, just before the busy oldest)
                // while the ring is below depth and otherwise takes the
                // busy buffer's place, to recycle once its own handles go.
                let mut fresh = zeroed(self.width);
                fill(&mut Arc::get_mut(&mut fresh).expect("just built, not yet shared")[..len]);
                self.allocated += 1;
                if self.ring.len() < self.depth {
                    self.ring.insert(at, fresh);
                } else {
                    self.ring[at] = fresh;
                }
                &self.ring[at]
            }
        };
        let mut image = Bytes::from_owner(Arc::clone(buf));
        image.truncate(len);
        // A compare, not `%`: the division measured as ~12 % of a recycled
        // build.
        self.next = if at + 1 == self.ring.len() { 0 } else { at + 1 };
        image
    }

    /// A buffer holding a copy of `data`.
    #[inline]
    pub fn copy(&mut self, data: &[u8]) -> Bytes {
        self.build(data.len(), |buf| buf.copy_from_slice(data))
    }
}

/// A `len`-byte buffer that `fill` writes into zeroed bytes, in one
/// exact-size allocation: what a pool hands out past its width, and what a
/// one-off `encode()` returns.
pub fn build_exact(len: usize, fill: impl FnOnce(&mut [u8])) -> Bytes {
    let mut buf = zeroed(len);
    fill(Arc::get_mut(&mut buf).expect("just built, not yet shared"));
    Bytes::from_owner(buf)
}

/// `len` zero bytes behind one allocation (header and bytes together).
fn zeroed(len: usize) -> Arc<[u8]> {
    std::iter::repeat_n(0, len).collect()
}

/// Types for which the all-zero bit pattern is a valid value, so a table
/// of them can come from one zeroed allocation.
///
/// # Safety
/// An implementor must be valid, and mean what its table owner calls
/// "empty", when every byte of it is zero.
pub unsafe trait Zeroable {}

// SAFETY: every bit pattern is a valid integer.
unsafe impl Zeroable for u8 {}
// SAFETY: as above.
unsafe impl Zeroable for u64 {}
// SAFETY: `UnsafeCell<T>` has `T`'s in-memory representation.
unsafe impl<T: Zeroable> Zeroable for UnsafeCell<T> {}

/// A bounded, process-wide free list of zeroed tables of one type.
///
/// A table type declares one `static` recycler; a table is taken from it
/// at construction and given back, re-zeroed by its owner, on drop.
/// Region registration and translator construction repeat the same sizes
/// run after run, and glibc's adaptive mmap threshold turns a repeated
/// multi-MB zeroed allocation into an explicit memset, so a recycled table
/// costs only what its owner wrote into it. Past `cap` pooled tables, a
/// given-back table is freed.
#[derive(Debug)]
pub struct Recycler<T> {
    cap: usize,
    free: Mutex<Vec<Box<[T]>>>,
}

impl<T: Zeroable> Recycler<T> {
    /// An empty recycler that keeps at most `cap` tables.
    pub const fn new(cap: usize) -> Self {
        Recycler { cap, free: Mutex::new(Vec::new()) }
    }

    /// An all-zero table of `len` elements: a pooled one of that length,
    /// or else one zeroed allocation (untouched zero pages, no memset).
    pub fn take_zeroed(&self, len: usize) -> Box<[T]> {
        let pooled = self.free.lock().ok().and_then(|mut free| {
            let at = free.iter().position(|t| t.len() == len)?;
            Some(free.swap_remove(at))
        });
        // SAFETY: `T: Zeroable`, so the zeroed slice is fully initialized.
        pooled.unwrap_or_else(|| unsafe { Box::new_zeroed_slice(len).assume_init() })
    }

    /// Take back `table`, which the caller has re-zeroed. The free list
    /// reserves its cap on the first give, so a give allocates nothing
    /// after that; at the cap the table is freed instead.
    pub fn give(&self, table: Box<[T]>) {
        if table.is_empty() {
            return;
        }
        if let Ok(mut free) = self.free.lock() {
            let len = free.len();
            if len < self.cap {
                free.reserve_exact(self.cap - len);
                free.push(table);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 32 bytes derived from `i`: wider than [`Bytes::INLINE_CAP`], so a
    /// build of it takes the pooled arm.
    fn wide(i: u64) -> [u8; 32] {
        let mut out = [0u8; 32];
        for word in out.chunks_exact_mut(8) {
            word.copy_from_slice(&i.to_be_bytes());
        }
        out
    }

    #[test]
    fn steady_state_recycles_after_warm_up() {
        let mut pool = ImagePool::new(64, 1024);
        for round in 0..3u64 {
            for i in 0..500u64 {
                let img = pool.copy(&wide(i));
                assert_eq!(&img[..], &wide(i));
            }
            assert_eq!(pool.recycled + pool.allocated, (round + 1) * 500);
            assert_eq!(pool.allocated, 1, "one buffer in flight at a time needs one buffer");
        }
        assert_eq!(pool.ring.len(), 1);
    }

    #[test]
    fn image_pool_degrades_gracefully_when_packets_are_retained() {
        // A consumer that holds onto every buffer forces fallback
        // allocations (never corruption): retained buffers must keep their
        // contents even after the pool index wraps.
        let depth = 64;
        let mut pool = ImagePool::new(32, depth);
        let total = depth + 100;
        let retained: Vec<Bytes> = (0..total as u64).map(|i| pool.copy(&wide(i))).collect();
        assert_eq!(pool.allocated, total as u64, "every buffer is still referenced");
        assert_eq!(pool.ring.len(), depth);
        for (i, img) in retained.iter().enumerate() {
            assert_eq!(&img[..], &wide(i as u64), "buffer {i} clobbered by pool reuse");
        }
        // Once the consumer lets go, the ring recycles without growing.
        drop(retained);
        for i in 0..2 * depth as u64 {
            pool.copy(&wide(i));
        }
        assert_eq!(pool.allocated, total as u64);
        assert_eq!(pool.ring.len(), depth);
    }

    #[test]
    fn grown_pool_stays_within_depth_and_never_shares_a_live_buffer() {
        // Random hold/release pattern: each build either keeps its handle
        // for a while or drops it at once. The ring never exceeds its
        // depth, and a fresh build never aliases a buffer any live handle
        // can still see (contents of every live handle stay intact).
        let depth = 16;
        let mut pool = ImagePool::new(32, depth);
        let mut live: std::collections::VecDeque<(u64, Bytes)> = Default::default();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for i in 0..4096u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let len = 8 + (x % 25) as usize;
            let img = pool.build(len, |buf| buf[..8].copy_from_slice(&i.to_be_bytes()));
            assert!(pool.ring.len() <= depth, "ring grew past its depth");
            for (_, other) in &live {
                assert!(
                    !std::ptr::eq(other.as_ptr(), img.as_ptr()),
                    "build {i} reused a buffer a live handle still sees"
                );
            }
            if x & 3 != 0 {
                live.push_back((i, img));
            }
            while live.len() > (x >> 8) as usize % 40 {
                live.pop_front();
            }
            for (j, held) in &live {
                assert_eq!(&held[..8], &j.to_be_bytes(), "live buffer {j} was overwritten");
            }
        }
        assert_eq!(pool.ring.len(), depth, "a pool with up to 39 held buffers fills its ring");
        assert!(pool.recycled > 0);
    }

    #[test]
    fn wider_than_the_pool_is_one_exact_allocation() {
        let mut pool = ImagePool::new(8, 4);
        let wide = pool.build(20, |buf| buf.fill(7));
        assert_eq!(&wide[..], &[7u8; 20]);
        assert!(pool.ring.is_empty(), "an over-width build does not touch the ring");
        assert_eq!((pool.recycled, pool.allocated), (0, 0));
    }

    #[test]
    fn inline_builds_never_touch_the_ring() {
        let mut pool = ImagePool::new(64, 4);
        let held: Vec<Bytes> =
            (0..=Bytes::INLINE_CAP).map(|len| pool.build(len, |buf| buf.fill(len as u8))).collect();
        for (len, img) in held.iter().enumerate() {
            assert_eq!(&img[..], &vec![len as u8; len][..]);
        }
        assert!(pool.ring.is_empty(), "a build of at most 16 B is inline");
        assert_eq!((pool.recycled, pool.allocated), (0, 0));
        // One byte more takes the pooled arm.
        let pooled = pool.build(Bytes::INLINE_CAP + 1, |buf| buf.fill(1));
        assert_eq!(&pooled[..], &[1u8; Bytes::INLINE_CAP + 1]);
        assert_eq!((pool.ring.len(), pool.allocated), (1, 1));
    }

    #[test]
    fn recycled_buffers_are_zeroed_before_fill() {
        let mut pool = ImagePool::new(32, 1);
        drop(pool.build(32, |buf| buf.fill(0xFF)));
        let img = pool.build(32, |buf| buf[0] = 1);
        let mut want = [0u8; 32];
        want[0] = 1;
        assert_eq!(&img[..], &want);
        assert_eq!(pool.recycled, 1);
    }

    #[test]
    fn inline_builds_are_zeroed_before_fill() {
        let mut pool = ImagePool::new(32, 1);
        drop(pool.build(8, |buf| buf.fill(0xFF)));
        let img = pool.build(8, |buf| buf[0] = 1);
        assert_eq!(&img[..], &[1, 0, 0, 0, 0, 0, 0, 0]);
        assert_eq!(pool.recycled, 0);
    }

    #[test]
    fn recycler_never_mixes_lengths_or_types() {
        let bytes: Recycler<u8> = Recycler::new(8);
        let words: Recycler<u64> = Recycler::new(8);
        let (mut short, long) = (bytes.take_zeroed(8), bytes.take_zeroed(16));
        short.fill(0xFF);
        short.fill(0); // the owner re-zeroes before giving back
        let (short_at, long_at) = (short.as_ptr(), long.as_ptr());
        bytes.give(short);
        bytes.give(long);
        // A u64 table of the u8 tables' lengths is not one of them.
        let other = words.take_zeroed(8);
        assert!(other.iter().all(|w| *w == 0));
        assert!(!std::ptr::eq(other.as_ptr().cast::<u8>(), short_at));
        // Each length gets its own table back, whatever the order.
        let long = bytes.take_zeroed(16);
        let short = bytes.take_zeroed(8);
        assert_eq!((long.as_ptr(), long.len()), (long_at, 16));
        assert_eq!((short.as_ptr(), short.len()), (short_at, 8));
        assert!(long.iter().chain(short.iter()).all(|b| *b == 0));
        // A third length is a fresh table: nothing pooled has it.
        assert_eq!(bytes.take_zeroed(32).len(), 32);
        assert!(bytes.free.lock().unwrap().is_empty());
    }

    #[test]
    fn recycler_frees_a_give_at_its_cap() {
        let pool: Recycler<u64> = Recycler::new(2);
        let tables: Vec<Box<[u64]>> = (0..3).map(|_| pool.take_zeroed(4)).collect();
        let at: Vec<*const u64> = tables.iter().map(|t| t.as_ptr()).collect();
        for table in tables {
            pool.give(table);
        }
        assert_eq!(pool.free.lock().unwrap().len(), 2, "the third give is past the cap");
        let kept: Vec<Box<[u64]>> = (0..2).map(|_| pool.take_zeroed(4)).collect();
        let kept: Vec<*const u64> = kept.iter().map(|t| t.as_ptr()).collect();
        assert!(kept.contains(&at[0]) && kept.contains(&at[1]));
        // An empty table is never pooled.
        pool.give(Box::new([]));
        assert!(pool.free.lock().unwrap().is_empty());
    }
}
