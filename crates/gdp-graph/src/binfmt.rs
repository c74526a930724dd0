//! The workspace's versioned binary container format — the framing
//! layer under `.gda` release artifacts.
//!
//! A container is a 24-byte header, a section table, and one
//! contiguous byte payload per section:
//!
//! ```text
//! offset  size  field
//! 0       8     magic  b"GDPABIN\0"
//! 8       4     container format version (little-endian u32)
//! 12      4     section count (little-endian u32)
//! 16      8     XXH64 digest over bytes[0..16] ‖ bytes[24..EOF]
//!               (seed 0, little-endian u64)
//! 24      24×n  section table: {tag u32, reserved u32 = 0,
//!               absolute offset u64, length u64} per section
//! …             section payloads, each 8-byte aligned, zero-padded
//! ```
//!
//! Every multi-byte value is little-endian. The digest
//! ([`crate::io::xxh64`]) covers the first 16 header bytes (magic,
//! version, section count) followed by everything past the header —
//! section table, payloads, alignment padding — and is verified
//! **before** any section is decoded. Version 1 containers carried an
//! FNV-1a digest over the same bytes; they are refused by version. A bit
//! flip or truncation anywhere in the file is therefore a typed
//! [`GraphError::Binary`] without a single decoded value being
//! constructed: header flips land on the magic/version/digest checks,
//! and everything else fails the digest. There is no input for which
//! reading panics.
//!
//! What the sections *mean* is the caller's contract (tags are opaque
//! here); `gdp-core`'s artifact codec assigns them. [`ContainerWriter`]
//! lays a container out in one buffer, and [`ByteWriter`] /
//! [`ByteReader`] are the primitive layer for section payloads:
//! length-prefixed strings and arrays, 8-byte alignment kept
//! automatically so `u64`/`f64` array data can be decoded by straight
//! chunked reads.

use crate::error::GraphError;
use crate::io::Xxh64Writer;
use crate::Result;

/// The 8-byte magic every container starts with.
pub const MAGIC: [u8; 8] = *b"GDPABIN\0";

/// The container format version this build writes and reads.
pub const CONTAINER_VERSION: u32 = 2;

/// Fixed header size (magic + version + section count + digest).
pub const HEADER_LEN: usize = 24;

/// Size of one section-table entry.
pub const SECTION_ENTRY_LEN: usize = 24;

/// Upper bound on the section count — far above any real container,
/// low enough that a corrupted count can never drive a large
/// allocation before the table bounds-check fails.
pub const MAX_SECTIONS: usize = 64;

fn err(offset: usize, message: impl Into<String>) -> GraphError {
    GraphError::Binary {
        offset,
        message: message.into(),
    }
}

/// Rounds `n` up to the next multiple of 8.
fn align8(n: usize) -> usize {
    (n + 7) & !7
}

/// The file digest: header bytes 0..16 (magic, version, section count)
/// followed by everything past the 24-byte header. The digest field
/// itself (bytes 16..24) is the only span not covered — a flip there
/// disagrees with the recomputation instead.
fn container_digest(bytes: &[u8]) -> u64 {
    let mut h = Xxh64Writer::new();
    h.update(&bytes[..16]);
    h.update(&bytes[HEADER_LEN..]);
    h.digest()
}

/// Lays a container out in one buffer: header and section table first,
/// then each section's payload written in place by a [`ByteWriter`],
/// its table entry patched as it closes, and the digest patched last.
/// Declaring the payload lengths up front (measured with a
/// [`ByteCounter`]) sizes the buffer once.
#[derive(Debug)]
pub struct ContainerWriter {
    buf: Vec<u8>,
    section_count: usize,
    written: usize,
}

impl ContainerWriter {
    /// Starts a container of `payload_lens.len()` sections, reserving
    /// the exact file size those payloads take.
    ///
    /// # Errors
    ///
    /// [`GraphError::Binary`] when the section count exceeds
    /// [`MAX_SECTIONS`].
    pub fn new(payload_lens: &[usize]) -> Result<Self> {
        let section_count = payload_lens.len();
        if section_count > MAX_SECTIONS {
            return Err(err(
                HEADER_LEN,
                format!("{section_count} sections exceed the limit of {MAX_SECTIONS}"),
            ));
        }
        let table_end = HEADER_LEN + section_count * SECTION_ENTRY_LEN;
        let capacity = align8(table_end) + payload_lens.iter().map(|&n| align8(n)).sum::<usize>();
        let mut buf = Vec::with_capacity(capacity);
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&CONTAINER_VERSION.to_le_bytes());
        buf.extend_from_slice(&(section_count as u32).to_le_bytes());
        buf.resize(table_end, 0); // digest and table, patched later
        Ok(Self {
            buf,
            section_count,
            written: 0,
        })
    }

    /// Appends the next section: 8-byte alignment padding, then the
    /// payload `write` produces, then its table entry.
    ///
    /// # Errors
    ///
    /// [`GraphError::Binary`] when every declared section is already
    /// written or `tag` repeats an earlier one (both caller bugs,
    /// surfaced as typed errors to keep the writer panic-free like the
    /// reader).
    pub fn section(&mut self, tag: u32, write: impl FnOnce(&mut ByteWriter)) -> Result<()> {
        let entry = HEADER_LEN + self.written * SECTION_ENTRY_LEN;
        if self.written == self.section_count {
            return Err(err(
                entry,
                format!("all {} declared sections are written", self.section_count),
            ));
        }
        let repeated = (0..self.written).any(|i| {
            let at = HEADER_LEN + i * SECTION_ENTRY_LEN;
            self.buf[at..at + 4] == tag.to_le_bytes()
        });
        if repeated {
            return Err(err(entry, format!("duplicate section tag {tag}")));
        }
        self.buf.resize(align8(self.buf.len()), 0);
        let offset = self.buf.len();
        let mut w = ByteWriter::with_sink(std::mem::take(&mut self.buf));
        write(&mut w);
        self.buf = w.into_sink();
        let len = self.buf.len() - offset;
        let table = &mut self.buf[entry..entry + SECTION_ENTRY_LEN];
        table[..4].copy_from_slice(&tag.to_le_bytes());
        table[8..16].copy_from_slice(&(offset as u64).to_le_bytes());
        table[16..].copy_from_slice(&(len as u64).to_le_bytes());
        self.written += 1;
        Ok(())
    }

    /// Patches in the digest and returns the finished container.
    ///
    /// # Errors
    ///
    /// [`GraphError::Binary`] when fewer sections were written than
    /// declared.
    pub fn finish(mut self) -> Result<Vec<u8>> {
        if self.written != self.section_count {
            return Err(err(
                HEADER_LEN + self.written * SECTION_ENTRY_LEN,
                format!(
                    "{} of {} declared sections written",
                    self.written, self.section_count
                ),
            ));
        }
        let digest = container_digest(&self.buf);
        self.buf[16..24].copy_from_slice(&digest.to_le_bytes());
        Ok(self.buf)
    }
}

/// Parses a container's header and section table, verifying the magic,
/// version, section-count bound and the digest over everything past
/// the header **before** returning a single section. Sections come
/// back as `(tag, payload)` slices into `bytes` in table order.
///
/// # Errors
///
/// [`GraphError::Binary`] naming the failing byte offset for every
/// structural defect: short file, bad magic, foreign container
/// version, absurd section count, digest mismatch, reserved bits set,
/// unaligned or out-of-bounds section extents.
pub fn read_container(bytes: &[u8]) -> Result<Vec<(u32, &[u8])>> {
    if bytes.len() < HEADER_LEN {
        return Err(err(
            bytes.len(),
            format!(
                "file truncated: {} bytes, header needs {HEADER_LEN}",
                bytes.len()
            ),
        ));
    }
    if bytes[..8] != MAGIC {
        return Err(err(0, "bad magic: not a GDPABIN container"));
    }
    let u32_at = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
    let u64_at = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
    let version = u32_at(8);
    if version != CONTAINER_VERSION {
        return Err(err(
            8,
            format!(
                "unsupported container version {version} \
                 (this build reads version {CONTAINER_VERSION})"
            ),
        ));
    }
    let count = u32_at(12) as usize;
    if count > MAX_SECTIONS {
        return Err(err(
            12,
            format!("section count {count} exceeds the limit of {MAX_SECTIONS}"),
        ));
    }
    let table_end = HEADER_LEN + count * SECTION_ENTRY_LEN;
    if table_end > bytes.len() {
        return Err(err(
            12,
            format!(
                "section table needs {table_end} bytes, file holds {}",
                bytes.len()
            ),
        ));
    }
    let stored = u64_at(16);
    let computed = container_digest(bytes);
    if stored != computed {
        return Err(err(
            16,
            format!("container digest mismatch: header promises {stored:#018x}, bytes hash to {computed:#018x}"),
        ));
    }
    let mut sections = Vec::with_capacity(count);
    for i in 0..count {
        let at = HEADER_LEN + i * SECTION_ENTRY_LEN;
        let tag = u32_at(at);
        let reserved = u32_at(at + 4);
        if reserved != 0 {
            return Err(err(
                at + 4,
                format!("section {i}: reserved field is {reserved}, not 0"),
            ));
        }
        if sections.iter().any(|(t, _)| *t == tag) {
            return Err(err(at, format!("section {i}: duplicate tag {tag}")));
        }
        let offset = u64_at(at + 8);
        let len = u64_at(at + 16);
        if offset % 8 != 0 {
            return Err(err(
                at + 8,
                format!("section {i}: offset {offset} is not 8-byte aligned"),
            ));
        }
        let end = offset.checked_add(len).filter(|&e| e <= bytes.len() as u64);
        let Some(end) = end else {
            return Err(err(
                at + 8,
                format!(
                    "section {i}: extent {offset}+{len} exceeds the {}-byte file",
                    bytes.len()
                ),
            ));
        };
        if offset < table_end as u64 {
            return Err(err(
                at + 8,
                format!("section {i}: offset {offset} overlaps the header/table"),
            ));
        }
        sections.push((tag, &bytes[offset as usize..end as usize]));
    }
    Ok(sections)
}

/// Where a [`ByteWriter`] puts section bytes: a `Vec<u8>` (the payload
/// itself), an [`Xxh64Writer`] (the payload's digest, with no payload
/// built) or a [`ByteCounter`] (the payload's length). The array
/// methods default to one [`ByteSink::put_bytes`] per element; every
/// sink here overrides them with bulk work.
pub trait ByteSink {
    /// Appends raw bytes.
    fn put_bytes(&mut self, bytes: &[u8]);

    /// Appends `u32`s, little-endian.
    fn put_u32s(&mut self, vs: &[u32]) {
        for v in vs {
            self.put_bytes(&v.to_le_bytes());
        }
    }

    /// Appends `u64`s, little-endian.
    fn put_u64s(&mut self, vs: &[u64]) {
        for v in vs {
            self.put_bytes(&v.to_le_bytes());
        }
    }

    /// Appends `f64` bit patterns, little-endian.
    fn put_f64s(&mut self, vs: &[f64]) {
        for v in vs {
            self.put_bytes(&v.to_bits().to_le_bytes());
        }
    }
}

/// Grows `buf` by `vs.len() × N` bytes once, then fills the new tail
/// chunk by chunk.
fn bulk_write<T: Copy, const N: usize>(
    buf: &mut Vec<u8>,
    vs: &[T],
    le_bytes: impl Fn(T) -> [u8; N],
) {
    let start = buf.len();
    buf.resize(start + vs.len() * N, 0);
    for (chunk, &v) in buf[start..].chunks_exact_mut(N).zip(vs) {
        chunk.copy_from_slice(&le_bytes(v));
    }
}

impl ByteSink for Vec<u8> {
    fn put_bytes(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }

    fn put_u32s(&mut self, vs: &[u32]) {
        bulk_write(self, vs, u32::to_le_bytes);
    }

    fn put_u64s(&mut self, vs: &[u64]) {
        bulk_write(self, vs, u64::to_le_bytes);
    }

    fn put_f64s(&mut self, vs: &[f64]) {
        bulk_write(self, vs, |v: f64| v.to_bits().to_le_bytes());
    }
}

/// Hashes `vs` as little-endian bytes through a fixed stack buffer:
/// one hasher update per 4 KiB, not one per element.
fn hash_chunked<T: Copy, const N: usize>(
    h: &mut Xxh64Writer,
    vs: &[T],
    le_bytes: impl Fn(T) -> [u8; N],
) {
    let mut buf = [0u8; 4096];
    for chunk in vs.chunks(buf.len() / N) {
        let bytes = &mut buf[..chunk.len() * N];
        for (dst, &v) in bytes.chunks_exact_mut(N).zip(chunk) {
            dst.copy_from_slice(&le_bytes(v));
        }
        h.update(bytes);
    }
}

impl ByteSink for Xxh64Writer {
    fn put_bytes(&mut self, bytes: &[u8]) {
        self.update(bytes);
    }

    fn put_u32s(&mut self, vs: &[u32]) {
        hash_chunked(self, vs, u32::to_le_bytes);
    }

    fn put_u64s(&mut self, vs: &[u64]) {
        hash_chunked(self, vs, u64::to_le_bytes);
    }

    fn put_f64s(&mut self, vs: &[f64]) {
        hash_chunked(self, vs, |v: f64| v.to_bits().to_le_bytes());
    }
}

/// A [`ByteSink`] that only counts: what a section would take, in
/// O(1) per array, to size a [`ContainerWriter`] before writing.
#[derive(Debug, Default, Clone, Copy)]
pub struct ByteCounter {
    len: usize,
}

impl ByteCounter {
    /// Bytes counted so far.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether nothing was counted.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl ByteSink for ByteCounter {
    fn put_bytes(&mut self, bytes: &[u8]) {
        self.len += bytes.len();
    }

    fn put_u32s(&mut self, vs: &[u32]) {
        self.len += vs.len() * 4;
    }

    fn put_u64s(&mut self, vs: &[u64]) {
        self.len += vs.len() * 8;
    }

    fn put_f64s(&mut self, vs: &[f64]) {
        self.len += vs.len() * 8;
    }
}

/// Builds one section payload: little-endian primitives,
/// length-prefixed strings and arrays, 8-byte alignment restored
/// before every string/array body so the matching [`ByteReader`] can
/// decode array data with straight chunked reads.
///
/// The bytes go to a [`ByteSink`]: by default a `Vec<u8>`
/// ([`ByteWriter::new`] / [`ByteWriter::into_bytes`]); over an
/// [`Xxh64Writer`] ([`ByteWriter::with_sink`]) the same calls hash the
/// payload they would have built, and over a [`ByteCounter`] they
/// measure it. Alignment is counted from the start of the section,
/// whatever the sink already holds.
#[derive(Debug, Default)]
pub struct ByteWriter<S = Vec<u8>> {
    sink: S,
    len: usize,
}

impl ByteWriter {
    /// An empty payload.
    pub fn new() -> Self {
        Self::default()
    }

    /// The finished payload bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.sink
    }
}

impl<S: ByteSink> ByteWriter<S> {
    /// A writer that starts a section in `sink`.
    pub fn with_sink(sink: S) -> Self {
        Self { sink, len: 0 }
    }

    /// The sink, holding everything written.
    pub fn into_sink(self) -> S {
        self.sink
    }

    fn put(&mut self, bytes: &[u8]) {
        self.sink.put_bytes(bytes);
        self.len += bytes.len();
    }

    fn pad8(&mut self) {
        let pad = align8(self.len) - self.len;
        self.put(&[0; 8][..pad]);
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.put(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.put(&v.to_le_bytes());
    }

    /// Appends a little-endian IEEE-754 `f64` (bit pattern preserved
    /// exactly — NaN payloads and signed zeros round-trip).
    pub fn put_f64(&mut self, v: f64) {
        self.put(&v.to_bits().to_le_bytes());
    }

    /// Appends a UTF-8 string: `u64` byte length, the bytes, padding
    /// back to 8-byte alignment.
    pub fn put_str(&mut self, s: &str) {
        self.pad8();
        self.put_u64(s.len() as u64);
        self.put(s.as_bytes());
        self.pad8();
    }

    /// Appends a `u32` array: `u64` element count, then the elements,
    /// 8-byte aligned fore and aft.
    pub fn put_u32_slice(&mut self, vs: &[u32]) {
        self.pad8();
        self.put_u64(vs.len() as u64);
        self.sink.put_u32s(vs);
        self.len += vs.len() * 4;
        self.pad8();
    }

    /// Appends a `u64` array: `u64` element count, then the elements.
    pub fn put_u64_slice(&mut self, vs: &[u64]) {
        self.pad8();
        self.put_u64(vs.len() as u64);
        self.sink.put_u64s(vs);
        self.len += vs.len() * 8;
    }

    /// Appends an `f64` array: `u64` element count, then the bit
    /// patterns.
    pub fn put_f64_slice(&mut self, vs: &[f64]) {
        self.pad8();
        self.put_u64(vs.len() as u64);
        self.sink.put_f64s(vs);
        self.len += vs.len() * 8;
    }
}

/// Bounds-checked cursor over one section payload — the decoding twin
/// of [`ByteWriter`]. Every read validates the remaining length before
/// touching the bytes, and array reads validate `count × size` against
/// the remainder **before allocating**, so no input can provoke a
/// panic or an absurd allocation.
#[derive(Debug)]
pub struct ByteReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A cursor at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn skip_pad8(&mut self) {
        // A section that ends inside its own padding is fine here; the
        // next sized read reports the shortfall with its field name.
        self.pos = align8(self.pos).min(self.bytes.len());
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(err(
                self.pos,
                format!(
                    "{what} needs {n} bytes, section has {} left",
                    self.remaining()
                ),
            ));
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads a little-endian `u32`.
    pub fn take_u32(&mut self, what: &str) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn take_u64(&mut self, what: &str) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }

    /// Reads a little-endian `f64` bit pattern.
    pub fn take_f64(&mut self, what: &str) -> Result<f64> {
        Ok(f64::from_bits(u64::from_le_bytes(
            self.take(8, what)?.try_into().unwrap(),
        )))
    }

    /// Reads a string written by [`ByteWriter::put_str`].
    pub fn take_str(&mut self, what: &str) -> Result<String> {
        self.skip_pad8();
        let len = self.take_u64(what)?;
        if len > self.remaining() as u64 {
            return Err(err(
                self.pos,
                format!(
                    "{what}: declared length {len} exceeds the {} bytes left",
                    self.remaining()
                ),
            ));
        }
        let raw = self.take(len as usize, what)?;
        let s = std::str::from_utf8(raw)
            .map_err(|e| err(self.pos, format!("{what}: invalid UTF-8: {e}")))?
            .to_string();
        self.skip_pad8();
        Ok(s)
    }

    fn take_count(&mut self, elem_size: usize, what: &str) -> Result<usize> {
        self.skip_pad8();
        let count = self.take_u64(what)?;
        let need = count.checked_mul(elem_size as u64);
        if need.is_none() || need.unwrap() > self.remaining() as u64 {
            return Err(err(
                self.pos,
                format!(
                    "{what}: declared count {count} (×{elem_size} bytes) exceeds the {} bytes left",
                    self.remaining()
                ),
            ));
        }
        Ok(count as usize)
    }

    /// Reads a `u32` array written by [`ByteWriter::put_u32_slice`].
    pub fn take_u32_vec(&mut self, what: &str) -> Result<Vec<u32>> {
        let count = self.take_count(4, what)?;
        let raw = self.take(count * 4, what)?;
        let out = raw
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
            .collect();
        self.skip_pad8();
        Ok(out)
    }

    /// Reads a `u64` array written by [`ByteWriter::put_u64_slice`].
    pub fn take_u64_vec(&mut self, what: &str) -> Result<Vec<u64>> {
        let count = self.take_count(8, what)?;
        let raw = self.take(count * 8, what)?;
        Ok(raw
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }

    /// Reads an `f64` array written by [`ByteWriter::put_f64_slice`].
    pub fn take_f64_vec(&mut self, what: &str) -> Result<Vec<f64>> {
        let count = self.take_count(8, what)?;
        let raw = self.take(count * 8, what)?;
        Ok(raw
            .chunks_exact(8)
            .map(|c| f64::from_bits(u64::from_le_bytes(c.try_into().unwrap())))
            .collect())
    }

    /// Asserts the whole section was consumed (trailing padding
    /// excepted) — decoders call this last so extra bytes are a typed
    /// error, not silently ignored content.
    pub fn expect_end(&self, what: &str) -> Result<()> {
        if align8(self.pos) < self.bytes.len() {
            return Err(err(
                self.pos,
                format!("{what}: {} unconsumed trailing bytes", self.remaining()),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn section_a<S: ByteSink>(w: &mut ByteWriter<S>) {
        w.put_u32(7);
        w.put_str("dataset-α");
        w.put_f64_slice(&[1.5, -0.0, f64::NAN]);
    }

    fn section_b<S: ByteSink>(w: &mut ByteWriter<S>) {
        w.put_u64_slice(&[u64::MAX, 0, 42]);
        w.put_u32_slice(&[1, 2, 3, 4, 5]);
    }

    fn counted(write: impl FnOnce(&mut ByteWriter<ByteCounter>)) -> usize {
        let mut w = ByteWriter::with_sink(ByteCounter::default());
        write(&mut w);
        w.into_sink().len()
    }

    fn sample_container() -> Vec<u8> {
        let lens = [counted(section_a), counted(section_b)];
        let mut c = ContainerWriter::new(&lens).unwrap();
        c.section(1, section_a).unwrap();
        c.section(2, section_b).unwrap();
        let bytes = c.finish().unwrap();
        // The declared lengths sized the buffer exactly.
        assert_eq!(bytes.capacity(), bytes.len());
        bytes
    }

    #[test]
    fn layout_is_header_table_then_aligned_sections() {
        let bytes = sample_container();
        let u64_at = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
        assert_eq!(&bytes[..8], &MAGIC);
        assert_eq!(bytes[8..12], CONTAINER_VERSION.to_le_bytes());
        assert_eq!(bytes[12..16], 2u32.to_le_bytes());
        let (a_len, b_len) = (counted(section_a), counted(section_b));
        // Section a starts right after the two table entries; b at the
        // next 8-byte boundary after a; the file ends with b.
        let a_at = HEADER_LEN + 2 * SECTION_ENTRY_LEN;
        let b_at = align8(a_at + a_len);
        assert_eq!((u64_at(32), u64_at(40)), (a_at as u64, a_len as u64));
        assert_eq!((u64_at(56), u64_at(64)), (b_at as u64, b_len as u64));
        assert_eq!(bytes.len(), b_at + b_len);
        let mut built = ByteWriter::new();
        section_a(&mut built);
        assert_eq!(&bytes[a_at..a_at + a_len], built.into_bytes().as_slice());
        // The digest is XXH64 over everything but its own field.
        let mut covered = bytes[..16].to_vec();
        covered.extend_from_slice(&bytes[HEADER_LEN..]);
        assert_eq!(u64_at(16), crate::io::xxh64(&covered));
    }

    #[test]
    fn container_round_trips_with_aligned_sections() {
        let bytes = sample_container();
        let sections = read_container(&bytes).unwrap();
        assert_eq!(sections.len(), 2);
        assert_eq!(sections[0].0, 1);
        assert_eq!(sections[1].0, 2);

        let mut r = ByteReader::new(sections[0].1);
        assert_eq!(r.take_u32("v").unwrap(), 7);
        assert_eq!(r.take_str("s").unwrap(), "dataset-α");
        let fs = r.take_f64_vec("fs").unwrap();
        assert_eq!(fs[0].to_bits(), 1.5f64.to_bits());
        assert_eq!(
            fs[1].to_bits(),
            (-0.0f64).to_bits(),
            "signed zero preserved"
        );
        assert!(fs[2].is_nan());
        r.expect_end("a").unwrap();

        let mut r = ByteReader::new(sections[1].1);
        assert_eq!(r.take_u64_vec("us").unwrap(), vec![u64::MAX, 0, 42]);
        assert_eq!(r.take_u32_vec("u32s").unwrap(), vec![1, 2, 3, 4, 5]);
        r.expect_end("b").unwrap();
    }

    #[test]
    fn truncation_at_every_byte_is_a_typed_error() {
        let bytes = sample_container();
        for cut in 0..bytes.len() {
            let err = read_container(&bytes[..cut]).unwrap_err();
            assert!(matches!(err, GraphError::Binary { .. }), "cut {cut}: {err}");
        }
        assert!(read_container(&bytes).is_ok());
    }

    #[test]
    fn single_bit_flips_are_always_typed_errors() {
        let bytes = sample_container();
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                let mut doctored = bytes.clone();
                doctored[byte] ^= 1 << bit;
                let err = read_container(&doctored).unwrap_err();
                assert!(
                    matches!(err, GraphError::Binary { .. }),
                    "byte {byte} bit {bit}: {err}"
                );
            }
        }
    }

    #[test]
    fn header_defects_are_named() {
        let bytes = sample_container();
        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'X';
        assert!(read_container(&bad_magic)
            .unwrap_err()
            .to_string()
            .contains("magic"));

        // A foreign version is refused before the digest is consulted:
        // version 1 (an FNV-1a digest) as much as a future version 3.
        for version in [1u8, 3] {
            let mut foreign = bytes.clone();
            foreign[8] = version;
            let message = read_container(&foreign).unwrap_err().to_string();
            assert!(
                message.contains(&format!("container version {version}")),
                "{message}"
            );
        }

        // An absurd section count cannot drive a large allocation.
        let mut huge = bytes.clone();
        huge[12..16].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(read_container(&huge)
            .unwrap_err()
            .to_string()
            .contains("limit"));
    }

    #[test]
    fn writer_rejects_duplicate_tags_and_overflow() {
        let mut c = ContainerWriter::new(&[0, 0]).unwrap();
        c.section(1, |_| {}).unwrap();
        assert!(c.section(1, |_| {}).is_err(), "duplicate tag");
        // Fewer sections than declared cannot finish.
        assert!(ContainerWriter::new(&[0, 0]).unwrap().finish().is_err());
        // More than declared cannot be written.
        let mut c = ContainerWriter::new(&[0]).unwrap();
        c.section(1, |_| {}).unwrap();
        assert!(c.section(2, |_| {}).is_err());
        assert!(ContainerWriter::new(&[0; MAX_SECTIONS + 1]).is_err());
    }

    #[test]
    fn reader_bounds_checks_counts_before_allocating() {
        // A section claiming 2^60 elements in 8 bytes of payload.
        let mut c = ContainerWriter::new(&[8]).unwrap();
        c.section(1, |w| w.put_u64(1u64 << 60)).unwrap();
        let bytes = c.finish().unwrap();
        let sections = read_container(&bytes).unwrap();
        let mut r = ByteReader::new(sections[0].1);
        let err = r.take_f64_vec("vals").unwrap_err();
        assert!(err.to_string().contains("exceeds"), "{err}");
    }

    #[test]
    fn hashing_writer_digests_the_bytes_a_buffer_writer_builds() {
        fn fill<S: ByteSink>(w: &mut ByteWriter<S>) {
            w.put_u32(9);
            w.put_str("α");
            w.put_u32_slice(&[1, 2, 3]);
            w.put_u64_slice(&[u64::MAX, 7]);
            w.put_f64_slice(&[-0.0, 2.5]);
            w.put_u32_slice(&[]);
        }
        let mut built = ByteWriter::new();
        fill(&mut built);
        let bytes = built.into_bytes();
        // The bulk array copies lay out exactly what per-element
        // little-endian writes would.
        let mut expected = Vec::new();
        expected.extend_from_slice(&9u32.to_le_bytes());
        expected.extend_from_slice(&[0; 4]);
        expected.extend_from_slice(&2u64.to_le_bytes());
        expected.extend_from_slice("α".as_bytes());
        expected.extend_from_slice(&[0; 6]);
        expected.extend_from_slice(&3u64.to_le_bytes());
        for v in [1u32, 2, 3] {
            expected.extend_from_slice(&v.to_le_bytes());
        }
        expected.extend_from_slice(&[0; 4]);
        expected.extend_from_slice(&2u64.to_le_bytes());
        for v in [u64::MAX, 7] {
            expected.extend_from_slice(&v.to_le_bytes());
        }
        expected.extend_from_slice(&2u64.to_le_bytes());
        for v in [-0.0f64, 2.5] {
            expected.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        expected.extend_from_slice(&0u64.to_le_bytes());
        assert_eq!(bytes, expected);

        // Over a hasher that already holds bytes, alignment still counts
        // from the section start. The long arrays cross the hasher's
        // 4 KiB conversion buffer mid-array (1024 `u32`s or 512
        // `u64`/`f64`s per chunk) and leave partial stripes between
        // calls.
        fn fill_long<S: ByteSink>(w: &mut ByteWriter<S>) {
            fill(w);
            w.put_u32_slice(
                &(0..3001u32)
                    .map(|i| i.wrapping_mul(7919))
                    .collect::<Vec<_>>(),
            );
            w.put_u32(5);
            w.put_u64_slice(&(0..1025u64).map(|i| i << 29 | i).collect::<Vec<_>>());
            w.put_f64_slice(&(0..513).map(|i| f64::from(i) * -0.5).collect::<Vec<_>>());
        }
        let mut built = ByteWriter::new();
        fill_long(&mut built);
        let mut prefixed = b"xyz".to_vec();
        prefixed.extend_from_slice(&built.into_bytes());
        let mut sink = Xxh64Writer::new();
        sink.update(b"xyz");
        let mut hashed = ByteWriter::with_sink(sink);
        fill_long(&mut hashed);
        assert_eq!(hashed.into_sink().digest(), crate::io::xxh64(&prefixed));
        let mut counted = ByteWriter::with_sink(ByteCounter::default());
        fill_long(&mut counted);
        assert_eq!(counted.into_sink().len(), prefixed.len() - 3);
    }

    #[test]
    fn empty_container_round_trips() {
        let bytes = ContainerWriter::new(&[]).unwrap().finish().unwrap();
        assert_eq!(read_container(&bytes).unwrap(), Vec::new());
    }
}
