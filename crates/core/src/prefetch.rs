//! Software prefetch: hints that memory will be read soon.
//!
//! Workloads that walk many small, scattered states (a fleet feeding one
//! point each to a million detectors) stall on one dependent cache miss
//! at a time. Issuing a prefetch a few items ahead lets those misses
//! overlap. Every function here is a hint only: it never reads the memory
//! it names into the program, never faults, and changes no state, so any
//! address is allowed. On targets other than x86_64 they compile to
//! nothing.

use std::collections::VecDeque;

/// Cache-line size [`prefetch`] steps by.
const LINE: usize = 64;

/// Hints that the cache line holding `p` will be read soon.
#[inline(always)]
fn prefetch_line(p: *const u8) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `prefetcht0` performs no architectural memory access: it
    // cannot fault and is dropped for an unmapped address, so any pointer
    // value is sound. SSE is part of the x86_64 baseline.
    unsafe {
        std::arch::x86_64::_mm_prefetch::<{ std::arch::x86_64::_MM_HINT_T0 }>(p.cast());
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

/// Hints that every cache line `value` occupies will be read soon. Only
/// the address and size are used; `value` itself is not read.
#[inline(always)]
pub fn prefetch<T: ?Sized>(value: &T) {
    let len = std::mem::size_of_val(value);
    if len == 0 {
        // an empty value may sit at a dangling address: name no line
        return;
    }
    let p: *const u8 = (value as *const T).cast();
    let end = p.wrapping_add(len);
    let mut line = p.wrapping_sub(p as usize % LINE);
    while line < end {
        prefetch_line(line);
        line = line.wrapping_add(LINE);
    }
}

/// Hints that a deque's front element and the slot after its front run
/// (where the next `push_back` lands unless the buffer wraps) will be
/// read soon: two lines, which cover the small queues of a streaming
/// detector; longer ones are scanned in order, which the hardware
/// prefetcher follows. Reads only the deque's own fields, never its
/// buffer.
#[inline(always)]
pub fn prefetch_deque<T>(q: &VecDeque<T>) {
    if q.capacity() == 0 {
        return;
    }
    let front = q.as_slices().0;
    prefetch_line(front.as_ptr().cast());
    prefetch_line(front.as_ptr_range().end.cast());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hints_leave_values_unchanged_at_any_address() {
        let xs: Vec<f64> = (0..100).map(f64::from).collect();
        prefetch(xs.as_slice());
        prefetch(&xs[3]);
        prefetch_line(std::ptr::null());
        prefetch_line(usize::MAX as *const u8);
        let mut q: VecDeque<f64> = VecDeque::new();
        prefetch_deque(&q);
        q.extend(xs.iter().copied());
        q.drain(..40);
        q.extend([1.0, 2.0]);
        prefetch_deque(&q);
        assert_eq!(xs, (0..100).map(f64::from).collect::<Vec<_>>());
        assert_eq!(q.len(), 62);
    }
}
