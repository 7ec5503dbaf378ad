//! Table storage behind the embedding-table API: owned or memory-mapped,
//! f32 or quantized.
//!
//! Embedding tables at serving time are read-only and dominated by
//! gathers, so they do not need to live as owned `f32` matrices. A
//! [`TableStorage`] is the set of representations the snapshot layer can
//! hand to the gather kernels:
//!
//! - [`TableStorage::F32`] — today's owned [`Matrix`] (what training and
//!   live capture produce).
//! - [`TableStorage::F32Bytes`] — little-endian `f32` rows viewed
//!   straight out of a byte region (typically a mapped v2 snapshot):
//!   zero-copy reload, full precision.
//! - [`TableStorage::F16`] — 2 bytes/element, dequantized on gather.
//! - [`TableStorage::I8`] — 1 byte/element + one `f32` scale per row,
//!   dequantized on gather.
//!
//! Byte-backed variants share their backing region through [`Bytes`],
//! which is either an owned buffer or a slice of a `Mmap`; cloning a
//! storage clones an `Arc`, never table bytes. The gather kernels
//! (`crate::ops::gather_concat2_assign`, [`crate::ops::nearest_centroids`])
//! are generic over [`RowSource`], so dequantization happens *inside*
//! the gather — fused, row at a time, straight into the destination
//! buffer — and quantized tables never materialize as `f32` matrices on
//! the serving path.
//!
//! All multi-byte values are little-endian; rows are decoded with
//! explicit `from_le_bytes` element loads (no pointer casts), so a
//! mapped region with any alignment is safe by construction — the v2
//! container still 64-byte-aligns every tensor for cache-line friendly
//! access.

use crate::quant::{f16_bits_to_f32, f32_to_f16_bits, quantize_row_i8};
use crate::Matrix;
use std::sync::Arc;

/// A read-only memory-mapped file region (whole file).
///
/// On unix this is a real `mmap(2)` (private, read-only) so reloading a
/// snapshot touches no table bytes until they are gathered, and the OS
/// page cache shares hot pages across processes. Elsewhere it degrades
/// to reading the file into memory (same API, no zero-copy).
///
/// The serving publish protocol only ever *renames* a new snapshot over
/// the old path; the mapped inode is never truncated in place, so an
/// established mapping stays valid for its lifetime.
#[derive(Debug)]
pub(crate) struct Mmap {
    #[cfg(unix)]
    ptr: *mut core::ffi::c_void,
    #[cfg(unix)]
    len: usize,
    #[cfg(not(unix))]
    buf: Vec<u8>,
}

#[cfg(unix)]
mod sys {
    use core::ffi::c_void;
    pub(crate) const PROT_READ: i32 = 1;
    pub(crate) const MAP_PRIVATE: i32 = 2;
    extern "C" {
        pub(crate) fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        pub(crate) fn munmap(addr: *mut c_void, len: usize) -> i32;
    }
}

impl Mmap {
    /// Maps `file` read-only in its entirety. Zero-length files map to an
    /// empty slice without calling `mmap` (which rejects length 0).
    #[cfg(unix)]
    pub(crate) fn map(file: &std::fs::File) -> std::io::Result<Self> {
        use std::os::unix::io::AsRawFd;
        let len = file.metadata()?.len();
        let len = usize::try_from(len).map_err(|_| {
            std::io::Error::new(std::io::ErrorKind::InvalidData, "file too large to map")
        })?;
        if len == 0 {
            return Ok(Self {
                ptr: std::ptr::null_mut(),
                len: 0,
            });
        }
        // SAFETY: a fresh private read-only mapping of a file we own a
        // handle to; the result is checked against MAP_FAILED below.
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
        if ptr as isize == -1 {
            return Err(std::io::Error::last_os_error());
        }
        Ok(Self { ptr, len })
    }

    /// Fallback for non-unix targets: reads the file into memory.
    #[cfg(not(unix))]
    pub(crate) fn map(file: &std::fs::File) -> std::io::Result<Self> {
        use std::io::Read;
        let mut buf = Vec::new();
        let mut f = file;
        f.read_to_end(&mut buf)?;
        Ok(Self { buf })
    }

    /// The mapped bytes.
    pub(crate) fn as_slice(&self) -> &[u8] {
        #[cfg(unix)]
        {
            if self.len == 0 {
                return &[];
            }
            // SAFETY: ptr/len come from a successful mmap that lives as
            // long as `self`; the mapping is never mutated or unmapped
            // before drop.
            unsafe { std::slice::from_raw_parts(self.ptr as *const u8, self.len) }
        }
        #[cfg(not(unix))]
        {
            &self.buf
        }
    }

    /// Mapped length in bytes.
    pub(crate) fn len(&self) -> usize {
        self.as_slice().len()
    }
}

#[cfg(unix)]
impl Drop for Mmap {
    fn drop(&mut self) {
        if !self.ptr.is_null() {
            // SAFETY: exact ptr/len pair returned by mmap.
            unsafe {
                sys::munmap(self.ptr, self.len);
            }
        }
    }
}

// SAFETY: the mapping is private and read-only for its entire lifetime;
// shared references to immutable bytes are Send + Sync.
#[cfg(unix)]
unsafe impl Send for Mmap {}
#[cfg(unix)]
unsafe impl Sync for Mmap {}

/// The backing allocation a [`Bytes`] region points into.
#[derive(Debug, Clone)]
enum BytesBacking {
    Owned(Arc<Vec<u8>>),
    Mapped(Arc<Mmap>),
}

/// A cheaply clonable view of a byte range inside a shared backing
/// buffer (owned or memory-mapped). This is how several tables in one
/// snapshot share a single mapping without lifetimes leaking into the
/// storage API.
#[derive(Debug, Clone)]
pub struct Bytes {
    backing: BytesBacking,
    offset: usize,
    len: usize,
}

impl Bytes {
    /// Wraps an owned buffer in full.
    pub fn from_vec(v: Vec<u8>) -> Self {
        let len = v.len();
        Self {
            backing: BytesBacking::Owned(Arc::new(v)),
            offset: 0,
            len,
        }
    }

    /// A sub-range of an owned shared buffer.
    ///
    /// # Panics
    /// Panics if the range is out of bounds.
    pub(crate) fn from_arc(buf: Arc<Vec<u8>>, offset: usize, len: usize) -> Self {
        assert!(offset.checked_add(len).is_some_and(|end| end <= buf.len()));
        Self {
            backing: BytesBacking::Owned(buf),
            offset,
            len,
        }
    }

    /// A sub-range of a shared mapping.
    ///
    /// # Panics
    /// Panics if the range is out of bounds.
    pub(crate) fn from_mmap(map: Arc<Mmap>, offset: usize, len: usize) -> Self {
        assert!(offset.checked_add(len).is_some_and(|end| end <= map.len()));
        Self {
            backing: BytesBacking::Mapped(map),
            offset,
            len,
        }
    }

    /// The viewed bytes.
    pub(crate) fn as_slice(&self) -> &[u8] {
        let full = match &self.backing {
            BytesBacking::Owned(v) => v.as_slice(),
            BytesBacking::Mapped(m) => m.as_slice(),
        };
        &full[self.offset..self.offset + self.len]
    }

    /// Length of the view in bytes.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// True when the view reads straight out of a memory-mapped file
    /// (zero-copy) rather than an owned buffer.
    pub(crate) fn is_mapped(&self) -> bool {
        matches!(self.backing, BytesBacking::Mapped(_))
    }
}

/// The on-disk (and in-memory) encoding of one table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StorageEncoding {
    /// 4 bytes/element, exact.
    F32,
    /// 2 bytes/element IEEE binary16.
    F16,
    /// 1 byte/element plus a 4-byte per-row scale.
    I8,
}

impl StorageEncoding {
    /// The container's one-byte encoding tag.
    pub fn code(self) -> u8 {
        match self {
            StorageEncoding::F32 => 0,
            StorageEncoding::F16 => 1,
            StorageEncoding::I8 => 2,
        }
    }

    /// Parses the container tag.
    pub fn from_code(code: u8) -> Option<Self> {
        match code {
            0 => Some(StorageEncoding::F32),
            1 => Some(StorageEncoding::F16),
            2 => Some(StorageEncoding::I8),
            _ => None,
        }
    }

    /// Bytes of element data per row of `cols` columns (excluding the
    /// per-row scale for [`StorageEncoding::I8`]).
    pub(crate) fn row_data_bytes(self, cols: usize) -> usize {
        match self {
            StorageEncoding::F32 => 4 * cols,
            StorageEncoding::F16 => 2 * cols,
            StorageEncoding::I8 => cols,
        }
    }
}

impl std::fmt::Display for StorageEncoding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            StorageEncoding::F32 => "f32",
            StorageEncoding::F16 => "f16",
            StorageEncoding::I8 => "int8",
        })
    }
}

impl std::str::FromStr for StorageEncoding {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "f32" => Ok(StorageEncoding::F32),
            "f16" => Ok(StorageEncoding::F16),
            "int8" | "i8" => Ok(StorageEncoding::I8),
            other => Err(format!(
                "unknown storage encoding '{other}' (expected f32, f16 or int8)"
            )),
        }
    }
}

/// Rows of `f32`s that a gather kernel can copy out, whatever the
/// underlying representation. Implemented by [`Matrix`] (plain copy) and
/// [`TableStorage`] (dequantize-on-read for quantized variants).
pub trait RowSource {
    /// Number of rows.
    fn rows(&self) -> usize;
    /// Row width.
    fn cols(&self) -> usize;
    /// Writes row `row` (decoded to `f32`) into `out`.
    ///
    /// # Panics
    /// Panics if `row` is out of range or `out.len() != self.cols()`.
    fn copy_row_into(&self, row: usize, out: &mut [f32]);
}

impl RowSource for Matrix {
    fn rows(&self) -> usize {
        Matrix::rows(self)
    }
    fn cols(&self) -> usize {
        Matrix::cols(self)
    }
    fn copy_row_into(&self, row: usize, out: &mut [f32]) {
        out.copy_from_slice(self.row(row));
    }
}

/// One embedding table in any supported representation. See the module
/// docs for the variants' trade-offs.
#[derive(Debug, Clone)]
pub enum TableStorage {
    /// Owned full-precision matrix (training capture).
    F32(Matrix),
    /// Little-endian `f32` rows viewed out of a shared byte region
    /// (mapped v2 snapshot): zero-copy, full precision.
    F32Bytes {
        /// Table height.
        rows: usize,
        /// Row width.
        cols: usize,
        /// `rows * cols * 4` little-endian bytes.
        data: Bytes,
    },
    /// IEEE binary16 elements, dequantized on gather.
    F16 {
        /// Table height.
        rows: usize,
        /// Row width.
        cols: usize,
        /// `rows * cols * 2` little-endian bytes.
        data: Bytes,
    },
    /// int8 elements with one `f32` scale per row, dequantized on
    /// gather.
    I8 {
        /// Table height.
        rows: usize,
        /// Row width.
        cols: usize,
        /// `rows * cols` bytes of quantized elements.
        data: Bytes,
        /// `rows * 4` little-endian bytes of per-row scales.
        scales: Bytes,
    },
}

impl TableStorage {
    /// Encodes a matrix into the requested representation (owned
    /// buffers). [`StorageEncoding::F32`] keeps the matrix as is.
    pub fn encode(m: &Matrix, encoding: StorageEncoding) -> Self {
        match encoding {
            StorageEncoding::F32 => TableStorage::F32(m.clone()),
            StorageEncoding::F16 => {
                let mut data = Vec::with_capacity(m.len() * 2);
                for &x in m.as_slice() {
                    data.extend_from_slice(&f32_to_f16_bits(x).to_le_bytes());
                }
                TableStorage::F16 {
                    rows: m.rows(),
                    cols: m.cols(),
                    data: Bytes::from_vec(data),
                }
            }
            StorageEncoding::I8 => {
                let (rows, cols) = m.shape();
                let mut data = vec![0u8; rows * cols];
                let mut scales = Vec::with_capacity(rows * 4);
                let mut qrow = vec![0i8; cols];
                for r in 0..rows {
                    let scale = quantize_row_i8(m.row(r), &mut qrow);
                    scales.extend_from_slice(&scale.to_le_bytes());
                    for (dst, &q) in data[r * cols..(r + 1) * cols].iter_mut().zip(&qrow) {
                        *dst = q as u8;
                    }
                }
                TableStorage::I8 {
                    rows,
                    cols,
                    data: Bytes::from_vec(data),
                    scales: Bytes::from_vec(scales),
                }
            }
        }
    }

    /// The table's encoding.
    pub fn encoding(&self) -> StorageEncoding {
        match self {
            TableStorage::F32(_) | TableStorage::F32Bytes { .. } => StorageEncoding::F32,
            TableStorage::F16 { .. } => StorageEncoding::F16,
            TableStorage::I8 { .. } => StorageEncoding::I8,
        }
    }

    /// Table height.
    pub(crate) fn rows(&self) -> usize {
        match self {
            TableStorage::F32(m) => m.rows(),
            TableStorage::F32Bytes { rows, .. }
            | TableStorage::F16 { rows, .. }
            | TableStorage::I8 { rows, .. } => *rows,
        }
    }

    /// Row width.
    pub fn cols(&self) -> usize {
        match self {
            TableStorage::F32(m) => m.cols(),
            TableStorage::F32Bytes { cols, .. }
            | TableStorage::F16 { cols, .. }
            | TableStorage::I8 { cols, .. } => *cols,
        }
    }

    /// Bytes of table storage held by this representation (element data
    /// plus per-row scales; excludes `Arc`/struct overhead).
    pub fn stored_bytes(&self) -> usize {
        match self {
            TableStorage::F32(m) => m.len() * 4,
            TableStorage::F32Bytes { data, .. } | TableStorage::F16 { data, .. } => data.len(),
            TableStorage::I8 { data, scales, .. } => data.len() + scales.len(),
        }
    }

    /// True when the bytes are served straight out of a memory-mapped
    /// snapshot (zero-copy reload).
    pub fn is_mapped(&self) -> bool {
        match self {
            TableStorage::F32(_) => false,
            TableStorage::F32Bytes { data, .. } | TableStorage::F16 { data, .. } => {
                data.is_mapped()
            }
            TableStorage::I8 { data, .. } => data.is_mapped(),
        }
    }

    /// Decodes the full table into an owned matrix (migration and
    /// differential-test path; the serving path gathers rows instead).
    pub fn to_matrix(&self) -> Matrix {
        match self {
            TableStorage::F32(m) => m.clone(),
            _ => {
                let (rows, cols) = (self.rows(), self.cols());
                let mut out = Matrix::zeros(rows, cols);
                for r in 0..rows {
                    self.copy_row_into(r, out.row_mut(r));
                }
                out
            }
        }
    }
}

impl RowSource for TableStorage {
    fn rows(&self) -> usize {
        TableStorage::rows(self)
    }

    fn cols(&self) -> usize {
        TableStorage::cols(self)
    }

    fn copy_row_into(&self, row: usize, out: &mut [f32]) {
        let cols = TableStorage::cols(self);
        assert!(
            row < TableStorage::rows(self),
            "row {row} out of {} rows",
            TableStorage::rows(self)
        );
        assert_eq!(out.len(), cols, "destination width mismatch");
        match self {
            TableStorage::F32(m) => out.copy_from_slice(m.row(row)),
            TableStorage::F32Bytes { data, .. } => {
                let raw = &data.as_slice()[row * cols * 4..(row + 1) * cols * 4];
                for (o, c) in out.iter_mut().zip(raw.chunks_exact(4)) {
                    *o = f32::from_le_bytes([c[0], c[1], c[2], c[3]]);
                }
            }
            TableStorage::F16 { data, .. } => {
                let raw = &data.as_slice()[row * cols * 2..(row + 1) * cols * 2];
                for (o, c) in out.iter_mut().zip(raw.chunks_exact(2)) {
                    *o = f16_bits_to_f32(u16::from_le_bytes([c[0], c[1]]));
                }
            }
            TableStorage::I8 { data, scales, .. } => {
                let raw = &data.as_slice()[row * cols..(row + 1) * cols];
                let s = &scales.as_slice()[row * 4..row * 4 + 4];
                let scale = f32::from_le_bytes([s[0], s[1], s[2], s[3]]);
                // Fused dequantize into the destination row: i8 -> f32
                // multiply, no intermediate buffer.
                for (o, &q) in out.iter_mut().zip(raw) {
                    *o = f32::from(q as i8) * scale;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quant::i8_row_error_bound;

    fn sample() -> Matrix {
        let mut v = Vec::new();
        for i in 0..6 * 5 {
            v.push(((i * 37 % 100) as f32 - 50.0) / 40.0);
        }
        Matrix::from_vec(6, 5, v)
    }

    #[test]
    fn f32_encoding_is_identity() {
        let m = sample();
        let s = TableStorage::encode(&m, StorageEncoding::F32);
        assert_eq!(s.encoding(), StorageEncoding::F32);
        assert_eq!(s.to_matrix(), m);
        assert_eq!(s.stored_bytes(), m.len() * 4);
    }

    #[test]
    fn f32_bytes_roundtrip_is_exact() {
        let m = sample();
        let mut raw = Vec::new();
        for &x in m.as_slice() {
            raw.extend_from_slice(&x.to_le_bytes());
        }
        let s = TableStorage::F32Bytes {
            rows: m.rows(),
            cols: m.cols(),
            data: Bytes::from_vec(raw),
        };
        assert_eq!(s.to_matrix(), m);
        assert!(!s.is_mapped());
    }

    #[test]
    fn quantized_roundtrips_within_bounds() {
        let m = sample();
        let f16 = TableStorage::encode(&m, StorageEncoding::F16).to_matrix();
        for (&x, &y) in m.as_slice().iter().zip(f16.as_slice()) {
            assert!((x - y).abs() <= x.abs() / 1024.0 + 1e-7, "f16 {x} -> {y}");
        }
        let i8t = TableStorage::encode(&m, StorageEncoding::I8);
        assert_eq!(i8t.stored_bytes(), m.len() + m.rows() * 4);
        let i8m = i8t.to_matrix();
        for r in 0..m.rows() {
            let max_abs = m.row(r).iter().fold(0.0f32, |a, &x| a.max(x.abs()));
            let bound = i8_row_error_bound(max_abs) * 1.0001 + 1e-9;
            for (&x, &y) in m.row(r).iter().zip(i8m.row(r)) {
                assert!((x - y).abs() <= bound, "i8 row {r}: {x} -> {y}");
            }
        }
    }

    #[test]
    fn bytes_per_row_accounting() {
        assert_eq!(StorageEncoding::F32.row_data_bytes(64), 256);
        assert_eq!(StorageEncoding::F16.row_data_bytes(64), 128);
        assert_eq!(StorageEncoding::I8.row_data_bytes(64), 64);
    }

    #[test]
    fn mmap_roundtrips_file_bytes() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("st-tensor-mmap-{}", std::process::id()));
        std::fs::write(&path, b"hello mapped world").unwrap();
        let map = Mmap::map(&std::fs::File::open(&path).unwrap()).unwrap();
        assert_eq!(map.as_slice(), b"hello mapped world");
        // Empty files map to an empty slice.
        std::fs::write(&path, b"").unwrap();
        let empty = Mmap::map(&std::fs::File::open(&path).unwrap()).unwrap();
        assert!(empty.as_slice().is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bytes_subranges_share_backing() {
        let buf = Arc::new((0u8..64).collect::<Vec<u8>>());
        let a = Bytes::from_arc(buf.clone(), 0, 16);
        let b = Bytes::from_arc(buf.clone(), 16, 48);
        assert_eq!(a.as_slice()[15], 15);
        assert_eq!(b.as_slice()[0], 16);
        assert_eq!(b.len(), 48);
    }
}
