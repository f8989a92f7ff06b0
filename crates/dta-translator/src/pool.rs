//! The recycling slot/chunk image pool (DPDK-mempool style).
//!
//! Every translator instance — and therefore every shard of a
//! [`crate::ShardedTranslator`] — owns its pool outright: buffers recycle
//! within one shard's translate→NIC-execute→drop loop and are never shared
//! across threads, so the report hot path stays allocation-free without a
//! single synchronized free-list.

use bytes::Bytes;

/// Maximum slot/chunk image size served by the recycling pool; a larger
/// image is one exact-size allocation (of the paper's shapes only an Append
/// batch wider than `16 × 4 B` exceeds it: Key-Write slots are `4 + value`
/// bytes, Postcarding chunks `next_pow2(B * 4)`).
pub(crate) const IMG_POOL_BUF: usize = 64;

/// Image pool depth. Buffers recycle once the NIC (or whatever consumed
/// the packets) drops them; the depth covers the packets in flight across
/// a couple of batches before the pool falls back to fresh allocations,
/// while staying small enough that the rotation is cache-resident (a
/// deeper pool guarantees a cold line per build and loses to the
/// allocator's LIFO fast path).
pub(crate) const IMG_POOL_DEPTH: usize = 1024;

/// A recycling pool of shared image buffers.
///
/// `build` hands out a zero-copy [`Bytes`] view of a pooled buffer when
/// the next buffer in rotation is no longer referenced by any packet;
/// otherwise it allocates a fresh buffer (graceful degradation when a
/// consumer retains payloads indefinitely). In the steady state —
/// translate, execute at the NIC, drop — the report hot path performs no
/// heap allocation at all for images up to [`IMG_POOL_BUF`].
#[derive(Debug)]
pub(crate) struct ImagePool {
    bufs: Vec<std::sync::Arc<[u8]>>,
    next: usize,
    /// Pool recycles (allocation-free images).
    pub(crate) recycled: u64,
    /// Fallback fresh allocations (pool buffer still referenced).
    pub(crate) allocated: u64,
}

impl ImagePool {
    pub(crate) fn new(depth: usize) -> Self {
        ImagePool {
            bufs: (0..depth)
                .map(|_| std::sync::Arc::from([0u8; IMG_POOL_BUF].as_slice()))
                .collect(),
            next: 0,
            recycled: 0,
            allocated: 0,
        }
    }

    /// Produce a `len`-byte image, letting `fill` write it into zeroed
    /// bytes. The handle returned is the only one made: `N` replicas of the
    /// image cost `N` refcount bumps in all.
    #[inline]
    pub(crate) fn build(&mut self, len: usize, fill: impl FnOnce(&mut [u8])) -> Bytes {
        if len > IMG_POOL_BUF {
            let mut image: std::sync::Arc<[u8]> = std::iter::repeat_n(0, len).collect();
            fill(std::sync::Arc::get_mut(&mut image).expect("just built, not yet shared"));
            return Bytes::from_owner(image);
        }
        let at = self.next;
        self.next = (self.next + 1) % self.bufs.len();
        let buf = &mut self.bufs[at];
        if let Some(bytes) = std::sync::Arc::get_mut(buf) {
            // Sole owner: every packet that referenced this buffer is gone;
            // reuse the allocation.
            bytes[..len].fill(0);
            fill(&mut bytes[..len]);
            self.recycled += 1;
        } else {
            // Still referenced downstream: hand out a fresh full-width
            // buffer and park it in the rotation so it can recycle later.
            let mut staged = [0u8; IMG_POOL_BUF];
            fill(&mut staged[..len]);
            self.allocated += 1;
            *buf = std::sync::Arc::from(staged.as_slice());
        }
        let mut image = Bytes::from_owner(buf.clone());
        image.truncate(len);
        image
    }

    /// An image holding a copy of `data`.
    #[inline]
    pub(crate) fn copy(&mut self, data: &[u8]) -> Bytes {
        self.build(data.len(), |buf| buf.copy_from_slice(data))
    }
}
