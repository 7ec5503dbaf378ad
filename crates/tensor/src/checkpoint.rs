//! Parameter checkpointing: one memory-mappable container format.
//!
//! A [`ParamStore`] serializes to a self-describing, page-aligned,
//! checksummed container designed to be memory-mapped, so a snapshot
//! reload is [`map_params`] (validate the header + index, wrap byte
//! ranges) instead of parsing every float. The version field is `2`:
//! version 1 was a streaming format nothing writes any more, and a file
//! carrying it is refused like any other unknown version
//! ([`CheckpointError::Version`]).
//!
//! ```text
//! header (32 bytes):
//!   magic "STPK" | u32 version=2 | u32 count | u32 reserved=0 |
//!   u64 index_len | u64 index_checksum (FNV-1a 64 of the index region)
//! index region (immediately after the header):
//!   per param:
//!     u32 name_len | name bytes | u8 encoding | u32 rows | u32 cols |
//!     u64 data_offset | u64 data_len |
//!     u64 scales_offset | u64 scales_len |   (zeros unless int8)
//!     u64 checksum (FNV-1a 64 of data bytes then scales bytes)
//! data region (first 4096-byte page boundary after the index):
//!   per param: element data (64-byte aligned), then for int8 the
//!   per-row f32 scales (64-byte aligned)
//! ```
//!
//! Encodings are [`StorageEncoding`]: f32 (4 B/elem), f16 (2 B/elem), or
//! int8 (1 B/elem + one f32 scale per row). A lossy encoding applies
//! only to embedding tables — parameters whose name ends in `_emb`, the
//! repo-wide naming convention — while dense tower weights and biases
//! always stay f32 (see [`is_table_param`]).
//!
//! All integers are little-endian; offsets are absolute file offsets.
//! [`map_params`] validates the magic/version, the index checksum, and
//! every entry's bounds against the actual mapped length before any
//! byte range is handed out, so a truncated or damaged file yields a
//! clean error — never out-of-bounds reads from a bad mapping. Per-
//! tensor data checksums are verified by the owned read path
//! ([`load_params`]) and on demand via
//! [`MappedParams::verify_data_checksums`]; the mmap fast path skips
//! them by design (reload cost must stay O(header), and the atomic
//! temp+fsync+rename publish protocol already rules out torn files).
//!
//! A checkpoint is only ever *replaced by rename*
//! ([`save_params_atomic_as`]), never rewritten in place: a server maps
//! the file it serves from, and truncating a mapped inode turns the next
//! gather from it into a `SIGBUS`. Renaming a new file over the path
//! leaves the old inode whole until its last mapping drops.

use crate::storage::{Bytes, Mmap, StorageEncoding, TableStorage};
use crate::{Matrix, ParamStore};
use std::io::{Read, Write};
use std::path::Path;
use std::sync::Arc;

const MAGIC: &[u8; 4] = b"STPK";
const VERSION_V2: u32 = 2;
/// Fixed v2 header length in bytes.
const V2_HEADER_LEN: usize = 32;
/// The data region starts on a page boundary so mapped tensor data can
/// be given page-granular protections and never shares a page with
/// metadata.
const V2_PAGE_ALIGN: usize = 4096;
/// Every tensor (and scale vector) starts on a cache-line boundary.
const V2_TENSOR_ALIGN: usize = 64;

/// True for parameters that are embedding tables under the repo-wide
/// naming convention (`user_emb`, `poi_emb`, `word_emb`, ...): the ones
/// a lossy [`StorageEncoding`] applies to. Dense tower weights and
/// biases always serialize as f32 — they are tiny next to the tables
/// and matmul precision is worth more than their bytes.
pub fn is_table_param(name: &str) -> bool {
    name.ends_with("_emb")
}

/// Streaming FNV-1a 64 (dependency-free; not cryptographic — this
/// detects corruption, not tampering).
struct Fnv64(u64);

impl Fnv64 {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

fn align_up(x: usize, a: usize) -> usize {
    x.div_ceil(a) * a
}

/// Errors from checkpoint loading.
#[derive(Debug)]
pub enum CheckpointError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The stream is not a checkpoint or is damaged.
    Corrupt(String),
    /// A newer/older format version.
    Version(u32),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::Corrupt(m) => write!(f, "corrupt checkpoint: {m}"),
            CheckpointError::Version(v) => write!(f, "unsupported checkpoint version {v}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

impl From<CheckpointError> for std::io::Error {
    /// Collapses checkpoint failures into one `io::Error`, so callers on
    /// a serving path (hot-reload) handle every corruption mode through a
    /// single clean error type instead of a panic.
    fn from(e: CheckpointError) -> Self {
        match e {
            CheckpointError::Io(e) => e,
            other => std::io::Error::new(std::io::ErrorKind::InvalidData, other.to_string()),
        }
    }
}

/// Writes a checkpoint to `path` crash-safely in the v2 container with
/// the default f32 encoding: the bytes go to a uniquely named temporary
/// file in the *same directory* (rename is only atomic within one
/// filesystem), are flushed and fsynced, and the file is then atomically
/// renamed over `path`. A crash at any point leaves either the previous
/// checkpoint or a stray `.tmp-*` file — never a torn checkpoint a
/// serve-side watcher could load halfway written.
///
/// The rename-only publish protocol is also what keeps live [`Mmap`]s
/// of the previous checkpoint valid: the old inode is never truncated
/// in place, only unlinked once the last mapping drops.
pub fn save_params_atomic(store: &ParamStore, path: &Path) -> std::io::Result<()> {
    save_params_atomic_as(store, path, StorageEncoding::F32)
}

/// [`save_params_atomic`] with an explicit table encoding — the writer
/// the online publisher uses to produce whatever format the serving
/// tier requests. Lossy encodings apply to `*_emb` tables only (see
/// [`is_table_param`]).
pub fn save_params_atomic_as(
    store: &ParamStore,
    path: &Path,
    format: StorageEncoding,
) -> std::io::Result<()> {
    use std::sync::atomic::{AtomicU64, Ordering};
    static SEQ: AtomicU64 = AtomicU64::new(0);

    let dir = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    let base = path
        .file_name()
        .ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::InvalidInput, "path has no file name")
        })?
        .to_string_lossy()
        .into_owned();
    let tmp = dir.join(format!(
        ".{base}.tmp-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));

    let write = || -> std::io::Result<()> {
        let file = std::fs::File::create(&tmp)?;
        let mut out = std::io::BufWriter::new(file);
        save_params_v2(store, format, &mut out)?;
        out.flush()?;
        // Durability before visibility: the data must hit disk before the
        // rename makes it the checkpoint.
        out.get_ref().sync_all()?;
        std::fs::rename(&tmp, path)
    };
    let result = write();
    if result.is_err() {
        // Best-effort cleanup; the temp name is unique so a leftover can
        // never be mistaken for (or renamed over) a real checkpoint.
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

/// Encodes one parameter's (data, scales, checksum) for the v2 writer.
fn encode_param_v2(value: &Matrix, enc: StorageEncoding) -> (Vec<u8>, Vec<u8>, u64) {
    let mut data;
    let mut scales = Vec::new();
    match enc {
        StorageEncoding::F32 => {
            data = Vec::with_capacity(value.len() * 4);
            for &x in value.as_slice() {
                data.extend_from_slice(&x.to_le_bytes());
            }
        }
        StorageEncoding::F16 => {
            data = Vec::with_capacity(value.len() * 2);
            for &x in value.as_slice() {
                data.extend_from_slice(&crate::quant::f32_to_f16_bits(x).to_le_bytes());
            }
        }
        StorageEncoding::I8 => {
            let (rows, cols) = value.shape();
            data = vec![0u8; rows * cols];
            scales = Vec::with_capacity(rows * 4);
            let mut qrow = vec![0i8; cols];
            for r in 0..rows {
                let scale = crate::quant::quantize_row_i8(value.row(r), &mut qrow);
                scales.extend_from_slice(&scale.to_le_bytes());
                for (dst, &q) in data[r * cols..(r + 1) * cols].iter_mut().zip(&qrow) {
                    *dst = q as u8;
                }
            }
        }
    }
    let mut h = Fnv64::new();
    h.write(&data);
    h.write(&scales);
    let checksum = h.finish();
    (data, scales, checksum)
}

/// Writes the v2 container to `out`. `format` selects the encoding for
/// embedding tables (`*_emb` parameters); everything else stays f32.
/// The layout is computed up front, so this streams to any writer —
/// padding between regions is written as zeros.
pub fn save_params_v2<W: Write>(
    store: &ParamStore,
    format: StorageEncoding,
    mut out: W,
) -> std::io::Result<()> {
    struct Planned {
        name: String,
        enc: StorageEncoding,
        rows: usize,
        cols: usize,
        data: Vec<u8>,
        scales: Vec<u8>,
        data_off: usize,
        scales_off: usize,
        checksum: u64,
    }

    // Encode every parameter and lay out the data region.
    let mut planned: Vec<Planned> = Vec::with_capacity(store.len());
    let mut index_len = 0usize;
    for (_, name, value) in store.iter() {
        let enc = if is_table_param(name) {
            format
        } else {
            StorageEncoding::F32
        };
        let (data, scales, checksum) = encode_param_v2(value, enc);
        index_len += 4 + name.len() + 1 + 4 + 4 + 8 * 5;
        planned.push(Planned {
            name: name.to_string(),
            enc,
            rows: value.rows(),
            cols: value.cols(),
            data,
            scales,
            data_off: 0,
            scales_off: 0,
            checksum,
        });
    }
    let data_start = align_up(V2_HEADER_LEN + index_len, V2_PAGE_ALIGN);
    let mut cursor = data_start;
    for p in &mut planned {
        p.data_off = align_up(cursor, V2_TENSOR_ALIGN);
        cursor = p.data_off + p.data.len();
        if !p.scales.is_empty() {
            p.scales_off = align_up(cursor, V2_TENSOR_ALIGN);
            cursor = p.scales_off + p.scales.len();
        }
    }

    // Serialize the index and checksum it.
    let mut index = Vec::with_capacity(index_len);
    for p in &planned {
        index.extend_from_slice(&(p.name.len() as u32).to_le_bytes());
        index.extend_from_slice(p.name.as_bytes());
        index.push(p.enc.code());
        index.extend_from_slice(&(p.rows as u32).to_le_bytes());
        index.extend_from_slice(&(p.cols as u32).to_le_bytes());
        index.extend_from_slice(&(p.data_off as u64).to_le_bytes());
        index.extend_from_slice(&(p.data.len() as u64).to_le_bytes());
        index.extend_from_slice(&(p.scales_off as u64).to_le_bytes());
        index.extend_from_slice(&(p.scales.len() as u64).to_le_bytes());
        index.extend_from_slice(&p.checksum.to_le_bytes());
    }
    debug_assert_eq!(index.len(), index_len);
    let mut h = Fnv64::new();
    h.write(&index);

    // Header | index | zero padding | aligned tensor data.
    out.write_all(MAGIC)?;
    out.write_all(&VERSION_V2.to_le_bytes())?;
    out.write_all(&(store.len() as u32).to_le_bytes())?;
    out.write_all(&0u32.to_le_bytes())?;
    out.write_all(&(index_len as u64).to_le_bytes())?;
    out.write_all(&h.finish().to_le_bytes())?;
    out.write_all(&index)?;
    let mut written = V2_HEADER_LEN + index_len;
    let zeros = [0u8; 64];
    let pad_to = |out: &mut W, written: &mut usize, target: usize| -> std::io::Result<()> {
        while *written < target {
            let n = (target - *written).min(zeros.len());
            out.write_all(&zeros[..n])?;
            *written += n;
        }
        Ok(())
    };
    for p in &planned {
        pad_to(&mut out, &mut written, p.data_off)?;
        out.write_all(&p.data)?;
        written += p.data.len();
        if !p.scales.is_empty() {
            pad_to(&mut out, &mut written, p.scales_off)?;
            out.write_all(&p.scales)?;
            written += p.scales.len();
        }
    }
    Ok(())
}

/// Reads a checkpoint into a fresh [`ParamStore`], preserving parameter
/// order (so ids match the store that was saved): reads the container
/// into memory, verifies every checksum, and decodes all tensors
/// (quantized tables dequantize) into owned matrices. For zero-copy
/// access use [`map_params`] instead.
pub fn load_params<R: Read>(mut input: R) -> Result<ParamStore, CheckpointError> {
    let mut bytes = Vec::new();
    input.read_to_end(&mut bytes)?;
    let params = MappedParams::from_owned(bytes)?;
    params.verify_data_checksums()?;
    Ok(params.to_store())
}

/// One parsed v2 index entry (absolute offsets, already bounds-checked).
struct RawEntry {
    name: String,
    encoding: StorageEncoding,
    rows: usize,
    cols: usize,
    data_off: usize,
    data_len: usize,
    scales_off: usize,
    scales_len: usize,
    checksum: u64,
}

/// Parses and validates a v2 container image: magic, version, index
/// checksum, and — critically for the mmap path — every entry's offsets
/// and lengths against `bytes.len()`, so no later access can read out
/// of bounds whatever the file claims.
fn parse_v2(bytes: &[u8]) -> Result<Vec<RawEntry>, CheckpointError> {
    let corrupt = |m: &str| CheckpointError::Corrupt(m.into());
    if bytes.len() < V2_HEADER_LEN {
        return Err(corrupt("truncated header"));
    }
    if &bytes[..4] != MAGIC {
        return Err(corrupt("bad magic"));
    }
    let u32_at = |off: usize| u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap());
    let u64_at = |off: usize| u64::from_le_bytes(bytes[off..off + 8].try_into().unwrap());
    let version = u32_at(4);
    if version != VERSION_V2 {
        return Err(CheckpointError::Version(version));
    }
    let count = u32_at(8) as usize;
    if count > 1_000_000 {
        return Err(corrupt("implausible param count"));
    }
    if u32_at(12) != 0 {
        return Err(corrupt("reserved header field is not zero"));
    }
    let index_len = usize::try_from(u64_at(16)).map_err(|_| corrupt("index length overflow"))?;
    let index_end = V2_HEADER_LEN
        .checked_add(index_len)
        .ok_or_else(|| corrupt("index length overflow"))?;
    if index_end > bytes.len() {
        return Err(corrupt("truncated index"));
    }
    let index = &bytes[V2_HEADER_LEN..index_end];
    let mut h = Fnv64::new();
    h.write(index);
    if h.finish() != u64_at(24) {
        return Err(corrupt("index checksum mismatch"));
    }

    let mut entries = Vec::with_capacity(count);
    let mut pos = 0usize;
    let mut take = |n: usize| -> Result<&[u8], CheckpointError> {
        let end = pos
            .checked_add(n)
            .filter(|&e| e <= index.len())
            .ok_or_else(|| CheckpointError::Corrupt("index entry out of bounds".into()))?;
        let s = &index[pos..end];
        pos = end;
        Ok(s)
    };
    for _ in 0..count {
        let name_len = u32::from_le_bytes(take(4)?.try_into().unwrap()) as usize;
        if name_len > 4096 {
            return Err(corrupt("implausible name length"));
        }
        let name = String::from_utf8(take(name_len)?.to_vec())
            .map_err(|_| corrupt("non-UTF8 parameter name"))?;
        let encoding = StorageEncoding::from_code(take(1)?[0])
            .ok_or_else(|| corrupt("unknown storage encoding"))?;
        let rows = u32::from_le_bytes(take(4)?.try_into().unwrap()) as usize;
        let cols = u32::from_le_bytes(take(4)?.try_into().unwrap()) as usize;
        let len = rows
            .checked_mul(cols)
            .ok_or_else(|| corrupt("shape overflow"))?;
        if len > 1 << 30 {
            return Err(corrupt("implausible matrix size"));
        }
        let mut u64s = [0u64; 5];
        for slot in &mut u64s {
            *slot = u64::from_le_bytes(take(8)?.try_into().unwrap());
        }
        let [data_off, data_len, scales_off, scales_len, checksum] = u64s;
        let to_usize = |v: u64| usize::try_from(v).map_err(|_| corrupt("offset overflows usize"));
        let (data_off, data_len) = (to_usize(data_off)?, to_usize(data_len)?);
        let (scales_off, scales_len) = (to_usize(scales_off)?, to_usize(scales_len)?);
        // Lengths must match the declared shape exactly...
        if data_len != encoding.row_data_bytes(cols).saturating_mul(rows) {
            return Err(corrupt("data length does not match shape"));
        }
        let want_scales = match encoding {
            StorageEncoding::I8 => 4 * rows,
            _ => 0,
        };
        if scales_len != want_scales {
            return Err(corrupt("scale length does not match shape"));
        }
        // ...and every byte range must fall inside the file.
        let in_bounds = |off: usize, len: usize| {
            off >= index_end && off.checked_add(len).is_some_and(|end| end <= bytes.len())
        };
        if !in_bounds(data_off, data_len) || (scales_len > 0 && !in_bounds(scales_off, scales_len))
        {
            return Err(corrupt("tensor data out of bounds (truncated file?)"));
        }
        entries.push(RawEntry {
            name,
            encoding,
            rows,
            cols,
            data_off,
            data_len,
            scales_off,
            scales_len,
            checksum,
        });
    }
    if pos != index.len() {
        return Err(corrupt("trailing bytes in index"));
    }
    Ok(entries)
}

/// A parsed v2 checkpoint whose tensors are *views* into a shared byte
/// image — a memory-mapped file ([`map_params`]) or an owned buffer —
/// exposed as [`TableStorage`] values the snapshot layer gathers from
/// directly. No float is decoded until a row is actually read.
#[derive(Debug)]
pub struct MappedParams {
    entries: Vec<(String, TableStorage, u64)>,
    file_bytes: usize,
    mapped: bool,
}

impl MappedParams {
    fn build(
        raw: Vec<RawEntry>,
        file_bytes: usize,
        mapped: bool,
        mk: impl Fn(usize, usize) -> Bytes,
    ) -> Self {
        let entries = raw
            .into_iter()
            .map(|e| {
                let data = mk(e.data_off, e.data_len);
                let table = match e.encoding {
                    StorageEncoding::F32 => TableStorage::F32Bytes {
                        rows: e.rows,
                        cols: e.cols,
                        data,
                    },
                    StorageEncoding::F16 => TableStorage::F16 {
                        rows: e.rows,
                        cols: e.cols,
                        data,
                    },
                    StorageEncoding::I8 => TableStorage::I8 {
                        rows: e.rows,
                        cols: e.cols,
                        data,
                        scales: mk(e.scales_off, e.scales_len),
                    },
                };
                (e.name, table, e.checksum)
            })
            .collect();
        Self {
            entries,
            file_bytes,
            mapped,
        }
    }

    /// Parses a v2 image held in an owned buffer (the [`load_params`]
    /// path and the non-mmap fallback).
    pub fn from_owned(bytes: Vec<u8>) -> Result<Self, CheckpointError> {
        let raw = parse_v2(&bytes)?;
        let len = bytes.len();
        let buf = Arc::new(bytes);
        Ok(Self::build(raw, len, false, |off, n| {
            Bytes::from_arc(buf.clone(), off, n)
        }))
    }

    /// Number of parameters.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the checkpoint holds no parameters.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total container size in bytes (header + index + padding + data).
    pub fn file_bytes(&self) -> usize {
        self.file_bytes
    }

    /// True when tensors are served out of a memory-mapped file.
    pub fn is_mapped(&self) -> bool {
        self.mapped
    }

    /// Iterates `(name, storage)` in checkpoint order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &TableStorage)> {
        self.entries.iter().map(|(n, t, _)| (n.as_str(), t))
    }

    /// The storage view of parameter `name`, if present.
    pub fn get(&self, name: &str) -> Option<&TableStorage> {
        self.entries
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, t, _)| t)
    }

    /// Decodes parameter `name` to an owned matrix (dequantizing if
    /// needed), if present.
    pub fn matrix(&self, name: &str) -> Option<Matrix> {
        self.get(name).map(TableStorage::to_matrix)
    }

    /// Decodes every parameter into an owned [`ParamStore`], preserving
    /// checkpoint order — the way back to full-precision training
    /// state.
    pub fn to_store(&self) -> ParamStore {
        let mut store = ParamStore::new();
        for (name, table, _) in &self.entries {
            store.register_value(name.clone(), table.to_matrix());
        }
        store
    }

    /// Verifies every tensor's FNV-1a 64 data checksum (element data
    /// then scales). O(file size) — the owned read path always runs it;
    /// the serving mmap path skips it by design (see the module docs)
    /// but can invoke it explicitly, e.g. at startup.
    pub fn verify_data_checksums(&self) -> Result<(), CheckpointError> {
        for (name, table, want) in &self.entries {
            let mut h = Fnv64::new();
            match table {
                TableStorage::F32(_) => unreachable!("mapped params are byte-backed"),
                TableStorage::F32Bytes { data, .. } | TableStorage::F16 { data, .. } => {
                    h.write(data.as_slice());
                }
                TableStorage::I8 { data, scales, .. } => {
                    h.write(data.as_slice());
                    h.write(scales.as_slice());
                }
            }
            if h.finish() != *want {
                return Err(CheckpointError::Corrupt(format!(
                    "data checksum mismatch for parameter '{name}'"
                )));
            }
        }
        Ok(())
    }
}

/// Memory-maps the v2 checkpoint at `path` and returns zero-copy views
/// of its tensors. Cost is O(header + index): the magic, version, index
/// checksum and all entry bounds are validated, but tensor bytes are
/// not touched (and thus not paged in) until gathered.
pub fn map_params(path: &Path) -> Result<MappedParams, CheckpointError> {
    let file = std::fs::File::open(path)?;
    let map = Arc::new(Mmap::map(&file)?);
    let raw = parse_v2(map.as_slice())?;
    let len = map.len();
    Ok(MappedParams::build(raw, len, true, |off, n| {
        Bytes::from_mmap(map.clone(), off, n)
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Init;
    use rand::{rngs::SmallRng, SeedableRng};

    /// Version 1 (the retired streaming format) is refused exactly as an
    /// unknown version is, by the owned and the mapped read path alike.
    #[test]
    fn rejects_wrong_version() {
        let dir = std::env::temp_dir().join(format!("st-tensor-ver-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.bin");
        let mut buf = Vec::new();
        save_params_v2(&model_like_store(), StorageEncoding::F32, &mut buf).unwrap();
        for version in [1u8, 99] {
            buf[4] = version;
            let want = u32::from(version);
            let err = load_params(buf.as_slice()).unwrap_err();
            assert!(matches!(err, CheckpointError::Version(v) if v == want));
            std::fs::write(&path, &buf).unwrap();
            let err = map_params(&path).unwrap_err();
            assert!(matches!(err, CheckpointError::Version(v) if v == want));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn atomic_save_roundtrips_and_leaves_no_temp_files() {
        let dir = std::env::temp_dir().join(format!(
            "st-tensor-ckpt-atomic-{}-{}",
            std::process::id(),
            line!()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.bin");

        let store = model_like_store();
        save_params_atomic(&store, &path).unwrap();
        let loaded = load_params(std::fs::File::open(&path).unwrap()).unwrap();
        assert_eq!(loaded.len(), store.len());

        // Overwriting an existing checkpoint also goes through the
        // temp+rename path and replaces it completely.
        save_params_atomic(&store, &path).unwrap();
        let reloaded = load_params(std::fs::File::open(&path).unwrap()).unwrap();
        for ((_, name_a, val_a), (_, name_b, val_b)) in store.iter().zip(reloaded.iter()) {
            assert_eq!(name_a, name_b);
            assert_eq!(val_a, val_b);
        }

        // No stray temporaries after successful writes.
        let stray: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp-"))
            .collect();
        assert!(stray.is_empty(), "leftover temp files: {stray:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn atomic_save_into_missing_directory_fails_cleanly() {
        let path = std::env::temp_dir()
            .join(format!("st-tensor-ckpt-noexist-{}", std::process::id()))
            .join("sub")
            .join("model.bin");
        assert!(save_params_atomic(&model_like_store(), &path).is_err());
    }

    /// A store shaped like the model's: embedding tables (which lossy
    /// encodings apply to) plus dense tower weights (always f32).
    fn model_like_store() -> ParamStore {
        let mut rng = SmallRng::seed_from_u64(11);
        let mut store = ParamStore::new();
        store.register("user_emb", 17, 8, Init::Gaussian { std: 0.5 }, &mut rng);
        store.register("poi_emb", 23, 8, Init::Gaussian { std: 0.5 }, &mut rng);
        store.register("tower.0.w", 16, 4, Init::XavierUniform, &mut rng);
        store.register("tower.0.b", 1, 4, Init::Zeros, &mut rng);
        store
    }

    fn assert_stores_equal(a: &ParamStore, b: &ParamStore) {
        assert_eq!(a.len(), b.len());
        for ((_, na, va), (_, nb, vb)) in a.iter().zip(b.iter()) {
            assert_eq!(na, nb);
            assert_eq!(va, vb, "bit-exact weights for {na}");
        }
    }

    #[test]
    fn v2_f32_roundtrip_is_exact() {
        let store = model_like_store();
        let mut buf = Vec::new();
        save_params_v2(&store, StorageEncoding::F32, &mut buf).unwrap();
        let loaded = load_params(buf.as_slice()).unwrap();
        assert_stores_equal(&store, &loaded);
    }

    #[test]
    fn v2_lossy_encodings_touch_only_emb_tables() {
        let store = model_like_store();
        for format in [StorageEncoding::F16, StorageEncoding::I8] {
            let mut buf = Vec::new();
            save_params_v2(&store, format, &mut buf).unwrap();
            let mapped = MappedParams::from_owned(buf).unwrap();
            assert_eq!(mapped.get("user_emb").unwrap().encoding(), format);
            assert_eq!(mapped.get("poi_emb").unwrap().encoding(), format);
            // Dense layers stay f32 and decode bit-exactly.
            assert_eq!(
                mapped.get("tower.0.w").unwrap().encoding(),
                StorageEncoding::F32
            );
            let (_, _, w) = store.iter().nth(2).unwrap();
            assert_eq!(&mapped.matrix("tower.0.w").unwrap(), w);
        }
    }

    #[test]
    fn v2_map_params_matches_owned_parse() {
        let dir = std::env::temp_dir().join(format!("st-tensor-v2-map-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.v2");
        let store = model_like_store();
        save_params_atomic_as(&store, &path, StorageEncoding::I8).unwrap();

        let mapped = map_params(&path).unwrap();
        assert!(mapped.is_mapped());
        assert_eq!(mapped.len(), store.len());
        mapped.verify_data_checksums().unwrap();
        let via_map = mapped.to_store();
        let via_read = load_params(std::fs::File::open(&path).unwrap()).unwrap();
        assert_stores_equal(&via_map, &via_read);

        // Quantization error is bounded per row.
        let (_, _, orig) = store.iter().next().unwrap();
        let got = mapped.matrix("user_emb").unwrap();
        for r in 0..orig.rows() {
            let max_abs = orig.row(r).iter().fold(0.0f32, |a, &x| a.max(x.abs()));
            let bound = crate::quant::i8_row_error_bound(max_abs) * 1.0001 + 1e-9;
            for (&x, &y) in orig.row(r).iter().zip(got.row(r)) {
                assert!((x - y).abs() <= bound);
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn v2_layout_is_aligned() {
        let store = model_like_store();
        let mut buf = Vec::new();
        save_params_v2(&store, StorageEncoding::I8, &mut buf).unwrap();
        let entries = parse_v2(&buf).unwrap();
        for e in &entries {
            assert_eq!(
                e.data_off % V2_TENSOR_ALIGN,
                0,
                "{} data misaligned",
                e.name
            );
            assert!(e.data_off >= V2_PAGE_ALIGN, "data region not page-aligned");
            if e.scales_len > 0 {
                assert_eq!(e.scales_off % V2_TENSOR_ALIGN, 0);
            }
        }
    }

    #[test]
    fn v2_corruption_fails_cleanly() {
        let store = model_like_store();
        let mut buf = Vec::new();
        save_params_v2(&store, StorageEncoding::F16, &mut buf).unwrap();

        // Truncations at every region boundary (and mid-data) must error,
        // never panic or read out of bounds.
        for cut in [4, 16, V2_HEADER_LEN + 10, V2_PAGE_ALIGN + 3, buf.len() - 1] {
            let mut t = buf.clone();
            t.truncate(cut);
            assert!(
                MappedParams::from_owned(t).is_err(),
                "truncation at {cut} accepted"
            );
        }

        // Flipping a data byte passes structural parse but fails checksum
        // verification (and therefore load_params).
        let mut flipped = buf.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0xff;
        let parsed = MappedParams::from_owned(flipped.clone()).unwrap();
        assert!(matches!(
            parsed.verify_data_checksums(),
            Err(CheckpointError::Corrupt(_))
        ));
        assert!(load_params(flipped.as_slice()).is_err());

        // Flipping an index byte fails the index checksum immediately.
        let mut idx = buf.clone();
        idx[V2_HEADER_LEN + 2] ^= 0xff;
        assert!(matches!(
            MappedParams::from_owned(idx),
            Err(CheckpointError::Corrupt(_))
        ));

        // A clobbered magic is named as such.
        let mut magic = buf.clone();
        magic[..4].copy_from_slice(b"NOPE");
        let err = MappedParams::from_owned(magic).unwrap_err();
        assert!(matches!(err, CheckpointError::Corrupt(m) if m == "bad magic"));

        // Every failure converts to a clean io::Error for serving paths.
        let mut t = buf.clone();
        t.truncate(40);
        let e: std::io::Error = MappedParams::from_owned(t).unwrap_err().into();
        assert_eq!(e.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn v2_map_params_rejects_truncated_file() {
        let dir = std::env::temp_dir().join(format!("st-tensor-v2-trunc-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.v2");
        let store = model_like_store();
        let mut buf = Vec::new();
        save_params_v2(&store, StorageEncoding::I8, &mut buf).unwrap();
        buf.truncate(buf.len() - 16);
        std::fs::write(&path, &buf).unwrap();
        assert!(matches!(
            map_params(&path),
            Err(CheckpointError::Corrupt(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }
}
