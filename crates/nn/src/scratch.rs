//! Thread-local reusable scratch buffers for the compute engine.
//!
//! The convolution hot path would otherwise allocate (and zero) fresh
//! vectors for every kernel call: padded input copies, packed weights,
//! flipped weights, kernel outputs, and the per-image gradient scratch.
//! Proxy training issues thousands of such calls per run, so the
//! allocator traffic was a measurable slice of the wall clock. This
//! module keeps a small per-thread pool of retired buffers and hands
//! them back out on request.
//!
//! A dropped [`crate::lanes::Lanes`] batch returns its buffer here too,
//! so a training's activations, caches and gradients reuse warm memory
//! from one step to the next.
//!
//! Per-*thread* is the right granularity because the kernels run on the
//! thread that calls them, and proxy training runs on the flow's
//! calling thread: that thread warms up its own buffer set once and
//! then reuses it for every later training. No locking, no
//! cross-thread traffic, no change in results — a buffer's contents
//! are either fully overwritten ([`take`]) or explicitly zeroed
//! ([`take_zeroed`]) before use.

use std::cell::RefCell;

/// Per-thread cap on pooled buffer *count*; retired buffers beyond this
/// are simply dropped. Comfortably covers one backward pass's working
/// set.
const MAX_POOLED: usize = 24;

/// Per-buffer retention cap in elements: buffers larger than this are
/// dropped instead of pooled, so one outsized workload cannot pin
/// `MAX_POOLED` huge buffers per long-lived thread for the rest of the
/// process. Together the two caps bound retained memory per thread at
/// `MAX_POOLED * MAX_POOLED_ELEMS * 4` bytes.
const MAX_POOLED_ELEMS: usize = 1 << 22;

/// Pops the first pooled buffer whose capacity already fits `len`
/// (avoiding a regrow), or an arbitrary one as a fallback.
fn pop_fitting(pool: &mut Vec<Vec<f32>>, len: usize) -> Option<Vec<f32>> {
    match pool.iter().position(|b| b.capacity() >= len) {
        Some(i) => Some(pool.swap_remove(i)),
        None => pool.pop(),
    }
}

thread_local! {
    static POOL: RefCell<Vec<Vec<f32>>> = const { RefCell::new(Vec::new()) };
}

/// Checks out a buffer of exactly `len` elements with **unspecified
/// contents** — callers must overwrite every element before reading.
/// Prefer this over [`take_zeroed`] whenever the kernel writes the whole
/// buffer anyway: it skips the memset entirely.
pub(crate) fn take(len: usize) -> Vec<f32> {
    if len == 0 {
        return Vec::new(); // don't evict a pooled buffer for nothing
    }
    POOL.with(|p| match pop_fitting(&mut p.borrow_mut(), len) {
        Some(mut v) => {
            v.resize(len, 0.0);
            v
        }
        None => vec![0.0; len],
    })
}

/// Checks out a buffer of exactly `len` zeroed elements — for kernels
/// that rely on zero initialization (the zeroed batches of
/// [`crate::lanes::Lanes::zeros`]).
pub(crate) fn take_zeroed(len: usize) -> Vec<f32> {
    if len == 0 {
        return Vec::new();
    }
    POOL.with(|p| match pop_fitting(&mut p.borrow_mut(), len) {
        Some(mut v) => {
            v.clear();
            v.resize(len, 0.0);
            v
        }
        None => vec![0.0; len],
    })
}

/// Returns a buffer to the current thread's pool for reuse.
///
/// Buffers that escape instead (e.g. into a `Tensor`) are simply never
/// recycled — correct, just not reused.
pub(crate) fn recycle(buf: Vec<f32>) {
    if buf.capacity() == 0 || buf.capacity() > MAX_POOLED_ELEMS {
        return;
    }
    POOL.with(|p| {
        let mut pool = p.borrow_mut();
        if pool.len() < MAX_POOLED {
            pool.push(buf);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_zeroed_really_zeroes_recycled_buffers() {
        recycle(vec![7.0f32; 100]);
        let buf = take_zeroed(60);
        assert_eq!(buf.len(), 60);
        assert!(buf.iter().all(|&v| v == 0.0), "stale data leaked through");
        recycle(buf);
    }

    #[test]
    fn take_reuses_capacity() {
        let mut big = take(0);
        big.reserve(10_000);
        let cap = big.capacity();
        recycle(big);
        let again = take(5_000);
        assert!(again.capacity() >= cap.min(10_000), "buffer was not reused");
        assert_eq!(again.len(), 5_000);
        recycle(again);
    }

    #[test]
    fn pool_is_bounded() {
        for _ in 0..(MAX_POOLED * 3) {
            recycle(vec![0.0; 16]);
        }
        POOL.with(|p| assert!(p.borrow().len() <= MAX_POOLED));
    }
}
