//! Zero-filled word memory on fresh anonymous pages.
//!
//! A program's memory image is sized for its largest input (4.3 MB for
//! compress at small scale) while most programs touch a fraction of it.
//! [`WordMem`] maps its words straight from the kernel (`mmap`, by raw FFI
//! as the `gsd` event loop does for epoll), so a page becomes resident only
//! when the program first writes it.  A heap `vec![0; n]` gives no such
//! guarantee: once glibc's dynamic mmap threshold has risen past the image
//! size, it is carved from recycled heap and `calloc` clears, and so
//! touches, every byte.

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::ptr::NonNull;

/// `len` zero-initialised `i64` words that deref to `[i64]`.
pub struct WordMem {
    ptr: NonNull<i64>,
    len: usize,
}

// SAFETY: `ptr` is the only pointer to its `len` words, which `WordMem`
// owns like a `Box<[i64]>`; moving it to another thread moves that
// ownership, and `len` is a plain count.
unsafe impl Send for WordMem {}
// SAFETY: `&WordMem` exposes the words only as `&[i64]`, and `ptr` and
// `len` never change after creation, so shared access is read-only.
unsafe impl Sync for WordMem {}

#[cfg(target_os = "linux")]
mod sys {
    use std::ffi::c_void;
    use std::os::raw::c_int;

    pub const PROT_READ: c_int = 0x1;
    pub const PROT_WRITE: c_int = 0x2;
    pub const MAP_PRIVATE: c_int = 0x02;
    pub const MAP_ANONYMOUS: c_int = 0x20;
    pub const MAP_FAILED: *mut c_void = !0usize as *mut c_void;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }
}

impl WordMem {
    /// `len` zero words.  Nothing is resident until it is written.
    pub fn zeroed(len: usize) -> WordMem {
        if len == 0 {
            return WordMem {
                ptr: NonNull::dangling(),
                len: 0,
            };
        }
        let layout = std::alloc::Layout::array::<i64>(len).expect("memory image too large");
        WordMem {
            ptr: NonNull::new(Self::map(layout))
                .unwrap_or_else(|| std::alloc::handle_alloc_error(layout)),
            len,
        }
    }

    /// Fresh private anonymous pages: zero-filled by the kernel, resident
    /// on first write.  Null on failure.
    #[cfg(target_os = "linux")]
    fn map(layout: std::alloc::Layout) -> *mut i64 {
        // SAFETY: a fresh private anonymous mapping aliases nothing.
        let p = unsafe {
            sys::mmap(
                std::ptr::null_mut(),
                layout.size(),
                sys::PROT_READ | sys::PROT_WRITE,
                sys::MAP_PRIVATE | sys::MAP_ANONYMOUS,
                -1,
                0,
            )
        };
        if p == sys::MAP_FAILED {
            std::ptr::null_mut()
        } else {
            p.cast()
        }
    }

    /// Elsewhere, a zeroed heap allocation.
    #[cfg(not(target_os = "linux"))]
    fn map(layout: std::alloc::Layout) -> *mut i64 {
        // SAFETY: `layout` has a non-zero size (`len > 0`).
        unsafe { std::alloc::alloc_zeroed(layout).cast() }
    }
}

impl Drop for WordMem {
    fn drop(&mut self) {
        if self.len == 0 {
            return;
        }
        let Ok(layout) = std::alloc::Layout::array::<i64>(self.len) else {
            return; // unreachable: `zeroed` built this layout
        };
        // SAFETY: `ptr` came from `map(layout)` and is released once.
        #[cfg(target_os = "linux")]
        unsafe {
            sys::munmap(self.ptr.as_ptr().cast(), layout.size());
        }
        // SAFETY: as above.
        #[cfg(not(target_os = "linux"))]
        unsafe {
            std::alloc::dealloc(self.ptr.as_ptr().cast(), layout);
        }
    }
}

impl Deref for WordMem {
    type Target = [i64];

    fn deref(&self) -> &[i64] {
        // SAFETY: `ptr` is valid for `len` initialised words (or dangling
        // and aligned for `len == 0`).
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }
}

impl DerefMut for WordMem {
    fn deref_mut(&mut self) -> &mut [i64] {
        // SAFETY: as for `deref`, and `&mut self` is exclusive.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.as_ptr(), self.len) }
    }
}

impl Clone for WordMem {
    fn clone(&self) -> WordMem {
        let mut copy = WordMem::zeroed(self.len);
        copy.copy_from_slice(self);
        copy
    }
}

impl PartialEq for WordMem {
    fn eq(&self, other: &WordMem) -> bool {
        **self == **other
    }
}

impl Eq for WordMem {}

impl fmt::Debug for WordMem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_zeroed_and_holds_writes() {
        let mut m = WordMem::zeroed(3000);
        assert_eq!(m.len(), 3000);
        assert!(m.iter().all(|&w| w == 0));
        m[0] = -7;
        m[2999] = i64::MAX;
        assert_eq!((m[0], m[1], m[2999]), (-7, 0, i64::MAX));
    }

    #[test]
    fn clones_are_independent() {
        let mut a = WordMem::zeroed(1024);
        a[5] = 42;
        let mut b = a.clone();
        assert_eq!(a, b);
        b[5] = 1;
        b[6] = 2;
        assert_eq!((a[5], a[6]), (42, 0));
        assert_ne!(a, b);
    }

    #[test]
    fn empty_image_works() {
        let m = WordMem::zeroed(0);
        assert!(m.is_empty());
        assert_eq!(m.first(), None);
        assert_eq!(m.clone(), m);
    }
}
