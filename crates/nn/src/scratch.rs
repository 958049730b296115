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
//! Per-*thread* is the right granularity because the worker threads
//! are now persistent (see `codesign_parallel::WorkerPool`): each pool
//! worker and each caller thread warms up its own buffer set once and
//! then reuses it for the rest of the process. No locking, no
//! cross-thread traffic, no change in results — a buffer's contents
//! are either fully overwritten ([`take`]) or explicitly zeroed
//! ([`take_zeroed`]) before use.
//!
//! The quantized engine runs the same pattern over integer tensors, so
//! the pool exists once per element type: `f32` for the float engine,
//! `i8` for quantized activations/weights, `i16` for the packed
//! integer GEMM panels, and `i32` for integer accumulators.

use std::cell::RefCell;

/// Per-thread cap on pooled buffer *count* (per element type); retired
/// buffers beyond this are simply dropped. Comfortably covers one
/// backward pass's working set.
const MAX_POOLED: usize = 24;

/// Per-buffer retention cap in elements: buffers larger than this are
/// dropped instead of pooled, so one outsized workload cannot pin
/// `MAX_POOLED` huge buffers per persistent thread for the rest of the
/// process. Together the two caps bound retained memory per thread and
/// element type at `MAX_POOLED * MAX_POOLED_ELEMS * size_of::<T>()`
/// bytes.
const MAX_POOLED_ELEMS: usize = 1 << 22;

/// Pops the first pooled buffer whose capacity already fits `len`
/// (avoiding a regrow), or an arbitrary one as a fallback.
fn pop_fitting<T>(pool: &mut Vec<Vec<T>>, len: usize) -> Option<Vec<T>> {
    match pool.iter().position(|b| b.capacity() >= len) {
        Some(i) => Some(pool.swap_remove(i)),
        None => pool.pop(),
    }
}

/// Generates one element type's pool: `take` (unspecified contents),
/// `take_zeroed`, and `recycle`, all backed by the same thread-local
/// free list. The `f32` trio keeps its original unsuffixed names; the
/// integer pools are suffixed (`take_i8`, …).
macro_rules! typed_pool {
    ($pool:ident, $ty:ty, $take:ident, $take_zeroed:ident, $recycle:ident) => {
        thread_local! {
            static $pool: RefCell<Vec<Vec<$ty>>> = const { RefCell::new(Vec::new()) };
        }

        /// Checks out a buffer of exactly `len` elements with
        /// **unspecified contents** — callers must overwrite every
        /// element before reading. Prefer this over the zeroed variant
        /// whenever the kernel writes the whole buffer anyway: it skips
        /// the memset entirely.
        pub(crate) fn $take(len: usize) -> Vec<$ty> {
            if len == 0 {
                return Vec::new(); // don't evict a pooled buffer for nothing
            }
            $pool.with(|p| match pop_fitting(&mut p.borrow_mut(), len) {
                Some(mut v) => {
                    v.resize(len, 0 as $ty);
                    v
                }
                None => vec![0 as $ty; len],
            })
        }

        /// Checks out a buffer of exactly `len` zeroed elements — for
        /// kernels that rely on zero initialization (materialized
        /// padding: the padded copies and im2col patch matrices).
        pub(crate) fn $take_zeroed(len: usize) -> Vec<$ty> {
            if len == 0 {
                return Vec::new();
            }
            $pool.with(|p| match pop_fitting(&mut p.borrow_mut(), len) {
                Some(mut v) => {
                    v.clear();
                    v.resize(len, 0 as $ty);
                    v
                }
                None => vec![0 as $ty; len],
            })
        }

        /// Returns a buffer to the current thread's pool for reuse.
        ///
        /// Buffers that escape instead (e.g. into a `Tensor`) are
        /// simply never recycled — correct, just not reused.
        pub(crate) fn $recycle(buf: Vec<$ty>) {
            if buf.capacity() == 0 || buf.capacity() > MAX_POOLED_ELEMS {
                return;
            }
            $pool.with(|p| {
                let mut pool = p.borrow_mut();
                if pool.len() < MAX_POOLED {
                    pool.push(buf);
                }
            });
        }
    };
}

typed_pool!(POOL, f32, take, take_zeroed, recycle);
typed_pool!(POOL_I8, i8, take_i8, take_zeroed_i8, recycle_i8);
typed_pool!(POOL_I16, i16, take_i16, take_zeroed_i16, recycle_i16);
typed_pool!(POOL_I32, i32, take_i32, take_zeroed_i32, recycle_i32);

// The zeroed i16/i32 variants exist for symmetry; the integer GEMM
// currently overwrites its panels and accumulators in full.
#[allow(dead_code)]
fn _pool_symmetry() {
    let _ = take_zeroed_i16(0);
    let _ = take_zeroed_i32(0);
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

    #[test]
    fn integer_pools_zero_and_reuse() {
        recycle_i8(vec![5i8; 64]);
        let b = take_zeroed_i8(32);
        assert!(b.iter().all(|&v| v == 0), "stale i8 data leaked through");
        recycle_i8(b);

        recycle_i16(vec![9i16; 64]);
        let b = take_i16(64);
        assert_eq!(b.len(), 64);
        recycle_i16(b);

        recycle_i32(vec![-3i32; 64]);
        let b = take_zeroed_i32(16);
        assert!(b.iter().all(|&v| v == 0));
        recycle_i32(b);
    }
}
