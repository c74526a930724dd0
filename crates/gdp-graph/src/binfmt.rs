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
//! 16      8     FNV-1a digest over bytes[24..EOF] (little-endian u64)
//! 24      24×n  section table: {tag u32, reserved u32 = 0,
//!               absolute offset u64, length u64} per section
//! …             section payloads, each 8-byte aligned, zero-padded
//! ```
//!
//! Every multi-byte value is little-endian. The digest covers the
//! first 16 header bytes (magic, version, section count) chained with
//! everything past the header — section table, payloads, alignment
//! padding — and is verified **before** any section is decoded. A bit
//! flip or truncation anywhere in the file is therefore a typed
//! [`GraphError::Binary`] without a single decoded value being
//! constructed: header flips land on the magic/version/digest checks,
//! and everything else fails the digest. There is no input for which
//! reading panics.
//!
//! What the sections *mean* is the caller's contract (tags are opaque
//! here); `gdp-core`'s artifact codec assigns them. [`ByteWriter`] /
//! [`ByteReader`] are the primitive layer for section payloads:
//! length-prefixed strings and arrays, 8-byte alignment kept
//! automatically so `u64`/`f64` array data can be decoded by straight
//! chunked reads.

use crate::error::GraphError;
use crate::io::{fnv1a_64, Fnv1aWriter};
use crate::Result;

/// The 8-byte magic every container starts with.
pub const MAGIC: [u8; 8] = *b"GDPABIN\0";

/// The container format version this build writes and reads.
pub const CONTAINER_VERSION: u32 = 1;

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
/// chained with everything past the 24-byte header. The digest field
/// itself (bytes 16..24) is the only span not covered — a flip there
/// disagrees with the recomputation instead.
fn container_digest(bytes: &[u8]) -> u64 {
    let head = fnv1a_64(&bytes[..16]);
    crate::io::fnv1a_64_with(head, &bytes[HEADER_LEN..])
}

/// Assembles a container from `(tag, payload)` sections: header,
/// section table, 8-byte-aligned payloads, digest patched in last.
///
/// # Errors
///
/// [`GraphError::Binary`] when `sections` exceeds [`MAX_SECTIONS`] or
/// repeats a tag (both are caller bugs, surfaced as typed errors to
/// keep the writer panic-free like the reader).
pub fn write_container(sections: &[(u32, Vec<u8>)]) -> Result<Vec<u8>> {
    if sections.len() > MAX_SECTIONS {
        return Err(err(
            HEADER_LEN,
            format!("{} sections exceed the limit of {MAX_SECTIONS}", sections.len()),
        ));
    }
    for (i, (tag, _)) in sections.iter().enumerate() {
        if sections[..i].iter().any(|(t, _)| t == tag) {
            return Err(err(HEADER_LEN, format!("duplicate section tag {tag}")));
        }
    }
    let table_len = sections.len() * SECTION_ENTRY_LEN;
    let mut offset = HEADER_LEN + table_len;
    let mut buf = Vec::with_capacity(
        align8(offset) + sections.iter().map(|(_, p)| align8(p.len())).sum::<usize>(),
    );
    buf.extend_from_slice(&MAGIC);
    buf.extend_from_slice(&CONTAINER_VERSION.to_le_bytes());
    buf.extend_from_slice(&(sections.len() as u32).to_le_bytes());
    buf.extend_from_slice(&0u64.to_le_bytes()); // digest, patched below
    for (tag, payload) in sections {
        offset = align8(offset);
        buf.extend_from_slice(&tag.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes()); // reserved
        buf.extend_from_slice(&(offset as u64).to_le_bytes());
        buf.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        offset += payload.len();
    }
    for (_, payload) in sections {
        while buf.len() % 8 != 0 {
            buf.push(0);
        }
        buf.extend_from_slice(payload);
    }
    let digest = container_digest(&buf);
    buf[16..24].copy_from_slice(&digest.to_le_bytes());
    Ok(buf)
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
            format!("file truncated: {} bytes, header needs {HEADER_LEN}", bytes.len()),
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
            return Err(err(at + 4, format!("section {i}: reserved field is {reserved}, not 0")));
        }
        if sections.iter().any(|(t, _)| *t == tag) {
            return Err(err(at, format!("section {i}: duplicate tag {tag}")));
        }
        let offset = u64_at(at + 8);
        let len = u64_at(at + 16);
        if offset % 8 != 0 {
            return Err(err(at + 8, format!("section {i}: offset {offset} is not 8-byte aligned")));
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
/// itself) or a [`Fnv1aWriter`] (the payload's digest, with no payload
/// built). The array methods default to one [`ByteSink::put_bytes`] per
/// element; `Vec<u8>` overrides them with one presized bulk copy.
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

impl ByteSink for Fnv1aWriter {
    fn put_bytes(&mut self, bytes: &[u8]) {
        self.update(bytes);
    }
}

/// Builds one section payload: little-endian primitives,
/// length-prefixed strings and arrays, 8-byte alignment restored
/// before every string/array body so the matching [`ByteReader`] can
/// decode array data with straight chunked reads.
///
/// The bytes go to a [`ByteSink`]: by default a `Vec<u8>`
/// ([`ByteWriter::new`] / [`ByteWriter::into_bytes`]); over a
/// [`Fnv1aWriter`] ([`ByteWriter::with_sink`]) the same calls hash the
/// payload they would have built. Alignment is counted from the start
/// of the section, whatever the sink already holds.
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
                format!("{what} needs {n} bytes, section has {} left", self.remaining()),
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
                format!("{what}: declared length {len} exceeds the {} bytes left", self.remaining()),
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

    fn sample_container() -> Vec<u8> {
        let mut a = ByteWriter::new();
        a.put_u32(7);
        a.put_str("dataset-α");
        a.put_f64_slice(&[1.5, -0.0, f64::NAN]);
        let mut b = ByteWriter::new();
        b.put_u64_slice(&[u64::MAX, 0, 42]);
        b.put_u32_slice(&[1, 2, 3, 4, 5]);
        write_container(&[(1, a.into_bytes()), (2, b.into_bytes())]).unwrap()
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
        assert_eq!(fs[1].to_bits(), (-0.0f64).to_bits(), "signed zero preserved");
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
        assert!(read_container(&bad_magic).unwrap_err().to_string().contains("magic"));

        // A foreign version is refused before the digest is consulted.
        let mut v2 = bytes.clone();
        v2[8] = 2;
        assert!(read_container(&v2).unwrap_err().to_string().contains("version 2"));

        // An absurd section count cannot drive a large allocation.
        let mut huge = bytes.clone();
        huge[12..16].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(read_container(&huge).unwrap_err().to_string().contains("limit"));
    }

    #[test]
    fn writer_rejects_duplicate_tags_and_overflow() {
        assert!(write_container(&[(1, vec![]), (1, vec![])]).is_err());
        let many: Vec<(u32, Vec<u8>)> = (0..MAX_SECTIONS as u32 + 1).map(|t| (t, vec![])).collect();
        assert!(write_container(&many).is_err());
    }

    #[test]
    fn reader_bounds_checks_counts_before_allocating() {
        // A section claiming 2^60 elements in 8 bytes of payload.
        let mut w = ByteWriter::new();
        w.put_u64(1u64 << 60);
        let bytes = write_container(&[(1, w.into_bytes())]).unwrap();
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
        // from the section start.
        let mut sink = Fnv1aWriter::new();
        sink.update(b"xyz");
        let mut hashed = ByteWriter::with_sink(sink);
        fill(&mut hashed);
        let mut prefixed = b"xyz".to_vec();
        prefixed.extend_from_slice(&bytes);
        assert_eq!(hashed.into_sink().digest(), fnv1a_64(&prefixed));
    }

    #[test]
    fn empty_container_round_trips() {
        let bytes = write_container(&[]).unwrap();
        assert_eq!(read_container(&bytes).unwrap(), Vec::new());
    }
}
