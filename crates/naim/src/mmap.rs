//! Read-only memory-mapped views of repository files.
//!
//! The repository's hot path is rehydrating offloaded pools, and the
//! paper's cost model only works out if that path avoids copying every
//! record through intermediate buffers. On Unix we map the backing file
//! `PROT_READ`/`MAP_PRIVATE` with a tiny vendored FFI shim (this
//! workspace carries no external crates, so there is no `libc` to lean
//! on); everywhere else — and whenever the kernel refuses the mapping —
//! the storage serves no view and the repository reads each record
//! into its fetch arena instead.
//!
//! A [`MapView`] is immutable for its whole life: the storage layer
//! drops and re-creates views when the underlying file grows or is
//! truncated, so a view never observes a file changing under it.

use std::ops::Deref;

#[cfg(unix)]
mod sys {
    use std::ffi::c_void;

    pub const PROT_READ: i32 = 1;
    pub const MAP_PRIVATE: i32 = 2;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> i32;
    }

    pub fn map_failed(ptr: *mut c_void) -> bool {
        ptr as isize == -1
    }
}

enum Inner {
    /// A live `mmap(2)` region; unmapped on drop.
    #[cfg(unix)]
    Mapped { ptr: *const u8, len: usize },
    /// Owned bytes standing in for a mapping.
    Copied(Vec<u8>),
}

/// An immutable byte view of a storage object: either a real read-only
/// memory mapping or an owned copy, indistinguishable to readers.
///
/// # Example
///
/// ```
/// use cmo_naim::MapView;
/// let view = MapView::copied(vec![1, 2, 3]);
/// assert_eq!(&view[..], &[1, 2, 3]);
/// assert!(!view.is_mapped());
/// ```
pub struct MapView {
    inner: Inner,
}

// SAFETY: the mapping is read-only (`PROT_READ`) and private, the file
// descriptor is not retained, and the region is never remapped or
// written through, so sharing the view across threads is sound.
unsafe impl Send for MapView {}
unsafe impl Sync for MapView {}

impl MapView {
    /// Wraps owned bytes as a view (the portable fallback path).
    #[must_use]
    pub fn copied(bytes: Vec<u8>) -> Self {
        MapView {
            inner: Inner::Copied(bytes),
        }
    }

    /// Memory-maps `file` read-only in its entirety.
    ///
    /// Empty files come back as an (empty) copied view — `mmap` with a
    /// zero length is an error on every platform. Returns the OS error
    /// when the kernel refuses the mapping so the caller can fall back
    /// to ordinary reads.
    #[cfg(unix)]
    pub fn map_file(file: &std::fs::File) -> std::io::Result<Self> {
        use std::os::fd::AsRawFd;

        let len = file.metadata()?.len() as usize;
        if len == 0 {
            return Ok(MapView::copied(Vec::new()));
        }
        // SAFETY: mapping an owned, open descriptor read-only; the call
        // either yields a page-aligned region of `len` bytes that stays
        // valid until `munmap`, or MAP_FAILED which we surface as Err.
        let ptr = unsafe {
            sys::mmap(
                std::ptr::null_mut(),
                len,
                sys::PROT_READ,
                sys::MAP_PRIVATE,
                file.as_raw_fd(),
                0,
            )
        };
        if sys::map_failed(ptr) {
            return Err(std::io::Error::last_os_error());
        }
        Ok(MapView {
            inner: Inner::Mapped {
                ptr: ptr as *const u8,
                len,
            },
        })
    }

    /// True when this view is a real memory mapping rather than a copy.
    #[must_use]
    pub fn is_mapped(&self) -> bool {
        match &self.inner {
            #[cfg(unix)]
            Inner::Mapped { .. } => true,
            Inner::Copied(_) => false,
        }
    }

    /// The viewed bytes.
    #[must_use]
    pub fn as_slice(&self) -> &[u8] {
        match &self.inner {
            #[cfg(unix)]
            Inner::Mapped { ptr, len } => {
                // SAFETY: the region [ptr, ptr+len) stays mapped and
                // read-only until Drop runs.
                unsafe { std::slice::from_raw_parts(*ptr, *len) }
            }
            Inner::Copied(bytes) => bytes,
        }
    }
}

impl Deref for MapView {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl std::fmt::Debug for MapView {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MapView")
            .field("mapped", &self.is_mapped())
            .field("len", &self.as_slice().len())
            .finish()
    }
}

impl Drop for MapView {
    fn drop(&mut self) {
        match &self.inner {
            #[cfg(unix)]
            Inner::Mapped { ptr, len } => {
                // SAFETY: exactly the region returned by mmap, unmapped
                // exactly once.
                unsafe {
                    sys::munmap(*ptr as *mut std::ffi::c_void, *len);
                }
            }
            Inner::Copied(_) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    #[test]
    fn copied_view_derefs_to_bytes() {
        let view = MapView::copied(vec![7; 40]);
        assert_eq!(view.len(), 40);
        assert!(view.iter().all(|&b| b == 7));
        assert!(!view.is_mapped());
    }

    #[cfg(unix)]
    #[test]
    fn mapped_view_sees_file_contents() {
        let dir = std::env::temp_dir().join(format!("cmo-mmap-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("blob");
        let payload: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        std::fs::File::create(&path)
            .unwrap()
            .write_all(&payload)
            .unwrap();
        let file = std::fs::File::open(&path).unwrap();
        let view = MapView::map_file(&file).unwrap();
        assert!(view.is_mapped());
        assert_eq!(&view[..], &payload[..]);
        drop(view);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[cfg(unix)]
    #[test]
    fn empty_file_maps_as_empty_copy() {
        let dir = std::env::temp_dir().join(format!("cmo-mmap-empty-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("empty");
        std::fs::File::create(&path).unwrap();
        let view = MapView::map_file(&std::fs::File::open(&path).unwrap()).unwrap();
        assert!(!view.is_mapped());
        assert!(view.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
