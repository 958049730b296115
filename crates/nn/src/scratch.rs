//! Thread-local reusable scratch buffers for the compute engine.
//!
//! The convolution hot path would otherwise allocate fresh vectors for
//! every kernel call: padded input copies, packed weights, flipped
//! weights, kernel outputs, and the per-image gradient scratch. Proxy
//! training issues thousands of such calls per run, so the allocator
//! traffic (and the page faults of fresh memory) was a measurable slice
//! of the wall clock. This module keeps a per-thread pool of retired
//! buffers and hands them back out on request.
//!
//! A dropped [`crate::lanes::Lanes`] batch returns its buffers here too,
//! so a training's activations, caches and gradients reuse warm memory
//! from one step to the next.
//!
//! A request takes a pooled buffer of exactly its length, the one most
//! recently recycled, and allocates only when the pool has none; a
//! pooled buffer is never resized, so a take never reallocates and never
//! writes. A training step asks for the same lengths in the same order
//! every time and returns every buffer, so once one step has run, every
//! later step is served from the pool. The pool is bounded by the bytes
//! it retains: a recycled buffer that would push it over
//! [`MAX_RETAINED_BYTES`] evicts the oldest ones first, and a buffer
//! larger than the whole bound is dropped.
//!
//! Per-*thread* is the right granularity because the kernels run on the
//! thread that calls them, and proxy training runs on the flow's
//! calling thread: that thread warms up its own buffer set once and
//! then reuses it for every later training. No locking, no
//! cross-thread traffic, no change in results — a buffer's contents
//! are either fully overwritten ([`take`]) or explicitly zeroed
//! ([`take_zeroed`]) before use.

use std::cell::RefCell;
use std::collections::VecDeque;

/// Per-thread bound on the bytes of capacity the pool retains. A proxy
/// training step's working set is a few megabytes; the bound keeps
/// several networks' sets warm without pinning an outsized workload's
/// buffers on a long-lived thread.
const MAX_RETAINED_BYTES: usize = 32 << 20;

/// Retired buffers, oldest first, and the bytes they hold.
#[derive(Default)]
struct Pool {
    buffers: VecDeque<Vec<f32>>,
    bytes: usize,
}

thread_local! {
    static POOL: RefCell<Pool> = RefCell::default();
}

/// Bytes of capacity `buf` holds.
fn bytes(buf: &Vec<f32>) -> usize {
    buf.capacity() * std::mem::size_of::<f32>()
}

/// Checks out a buffer of exactly `len` elements with **unspecified
/// contents** — callers must overwrite every element before reading.
/// Prefer this over [`take_zeroed`] whenever the kernel writes the whole
/// buffer anyway: a pooled buffer comes back unwritten. It is the most
/// recently recycled one of that length.
pub(crate) fn take(len: usize) -> Vec<f32> {
    let pooled = POOL.with(|p| {
        let mut p = p.borrow_mut();
        let at = p.buffers.iter().rposition(|b| b.len() == len)?;
        let buf = p.buffers.remove(at)?;
        p.bytes -= bytes(&buf);
        Some(buf)
    });
    pooled.unwrap_or_else(|| vec![0.0; len])
}

/// Checks out a buffer of exactly `len` zeroed elements — for kernels
/// that rely on zero initialization (the zeroed batches of
/// [`crate::lanes::Lanes::zeros`]).
pub(crate) fn take_zeroed(len: usize) -> Vec<f32> {
    let mut buf = take(len);
    buf.fill(0.0);
    buf
}

/// Returns a buffer to the current thread's pool for reuse, evicting
/// the oldest buffers while the pool holds more than
/// [`MAX_RETAINED_BYTES`].
///
/// Buffers that escape instead (e.g. into a `Tensor`) are simply never
/// recycled — correct, just not reused.
pub(crate) fn recycle(buf: Vec<f32>) {
    let size = bytes(&buf);
    if size == 0 || size > MAX_RETAINED_BYTES {
        return;
    }
    POOL.with(|p| {
        let mut p = p.borrow_mut();
        p.bytes += size;
        p.buffers.push_back(buf);
        while p.bytes > MAX_RETAINED_BYTES {
            let oldest = p
                .buffers
                .pop_front()
                .expect("retained bytes are in buffers");
            p.bytes -= bytes(&oldest);
        }
    });
}

/// What this thread's pool holds: `(buffers, bytes)`. A take that
/// allocates adds a buffer once it is recycled.
#[cfg(test)]
pub(crate) fn stats() -> (usize, usize) {
    POOL.with(|p| (p.borrow().buffers.len(), p.borrow().bytes))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_zeroed_really_zeroes_recycled_buffers() {
        recycle(vec![7.0f32; 100]);
        let buf = take_zeroed(100);
        assert_eq!(buf.len(), 100);
        assert!(buf.iter().all(|&v| v == 0.0), "stale data leaked through");
        recycle(buf);
    }

    /// A take reuses a buffer of its exact length, as it was (never
    /// written), and allocates for any other length.
    #[test]
    fn take_reuses_capacity() {
        let exact = vec![2.0f32; 5_000];
        let exact_ptr = exact.as_ptr();
        recycle(vec![1.0f32; 9_000]);
        recycle(exact);
        let again = take(5_000);
        assert_eq!(
            again.as_ptr(),
            exact_ptr,
            "the exact-length buffer was passed over"
        );
        assert!(again.iter().all(|&v| v == 2.0), "a take wrote its buffer");
        let other = take(4_000);
        assert_eq!(other.len(), 4_000);
        let kept = POOL.with(|p| p.borrow().buffers.iter().any(|b| b.len() == 9_000));
        assert!(kept, "a 4,000 take must not take the 9,000 buffer");
        recycle(again);
        recycle(other);
    }

    /// Retained bytes never pass the bound, and the oldest buffers go
    /// first.
    #[test]
    fn pool_is_bounded() {
        let len = MAX_RETAINED_BYTES / 4 / 10;
        recycle(vec![1.0f32; len]);
        for _ in 0..30 {
            recycle(vec![0.0; len]);
            assert!(stats().1 <= MAX_RETAINED_BYTES);
        }
        recycle(vec![0.0; MAX_RETAINED_BYTES / 4 + 1]);
        assert!(stats().1 <= MAX_RETAINED_BYTES);
        POOL.with(|p| {
            let p = p.borrow();
            assert!(p.buffers.iter().all(|b| b[0] == 0.0), "the oldest was kept");
            assert_eq!(p.bytes, p.buffers.iter().map(bytes).sum::<usize>());
        });
    }
}
