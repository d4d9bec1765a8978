//! The one bounded byte codec behind every persisted and wire format.
//!
//! Checkpoints, deltas, migrated users and `tgs-net` payloads are all
//! little-endian streams of the same few field kinds: `u64`s (a `usize`
//! widens losslessly), `f64`s by bit pattern, one-byte flags and tags, and
//! `u64`-length-prefixed strings, byte blobs and lists. [`Writer`] appends
//! them to a `Vec<u8>`; [`Reader`] reads them back from a `&[u8]` and owns
//! every safety rule in one place:
//!
//! * every read is bounds-checked, and `u64` → `usize` narrowing is checked;
//! * a list count is bounded against the bytes that remain, times a
//!   saturating per-element floor ([`Reader::count`]), so a lying count
//!   cannot trigger a large allocation;
//! * magic prefixes, bools and tags are checked against their domains;
//! * [`Reader::done`] requires the input to be consumed exactly;
//! * a `(kind, key, len, body)` record's body is bounded by its length
//!   before it is handed out ([`Reader::record`]);
//! * a run of fixed-width `(key, k × f64)` rows must fill its input
//!   exactly, and is cut from one slice in one pass ([`Reader::rows`]);
//! * an encoded matrix's header is checked against its length before the
//!   bytes are handed out for adoption ([`Reader::encoded_matrix`]).
//!
//! A failure is a [`CodecError`] naming the field; it converts into
//! [`TgsError::CorruptCheckpoint`].

use std::fmt;

use tgs_linalg::DenseMatrix;

use crate::error::TgsError;
use crate::store::{decode_matrix, encoded_shape};

/// A malformed field: which one, and what was wrong with it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError {
    /// The field being read.
    pub field: &'static str,
    /// What was wrong with it.
    pub kind: CodecErrorKind,
}

/// The ways a field can be malformed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecErrorKind {
    /// The field needs more bytes than remain.
    Truncated {
        /// Bytes the field needs.
        need: usize,
        /// Bytes that remain.
        have: usize,
    },
    /// A value too large for this platform's `usize`.
    TooLarge(u64),
    /// A list count whose elements cannot fit in the bytes that remain.
    Count {
        /// The declared count.
        count: usize,
        /// Bytes that remain after the count.
        have: usize,
    },
    /// The stream does not start with the expected magic prefix.
    Magic,
    /// A flag or tag byte outside its domain.
    Domain(u8),
    /// A string that is not UTF-8.
    Utf8,
    /// An encoded matrix whose header disagrees with its length.
    Shape,
    /// Bytes left over after the last field.
    Trailing(usize),
}

impl CodecError {
    /// An error of `kind` in `field`.
    pub fn new(field: &'static str, kind: CodecErrorKind) -> Self {
        Self { field, kind }
    }
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let field = self.field;
        match self.kind {
            CodecErrorKind::Truncated { need, have } => {
                write!(f, "truncated {field}: needs {need} bytes, {have} remain")
            }
            CodecErrorKind::TooLarge(v) => write!(f, "{field} {v} exceeds usize"),
            CodecErrorKind::Count { count, have } => write!(
                f,
                "implausible {field} {count}: more than the {have} bytes that remain can hold"
            ),
            CodecErrorKind::Magic => write!(
                f,
                "unrecognized magic header reading {field} (another format, or a newer version)"
            ),
            CodecErrorKind::Domain(v) => write!(f, "{field} byte {v} is out of range"),
            CodecErrorKind::Utf8 => write!(f, "{field} is not UTF-8"),
            CodecErrorKind::Shape => {
                write!(f, "{field}: matrix header disagrees with its length")
            }
            CodecErrorKind::Trailing(n) => write!(f, "{n} trailing bytes after {field}"),
        }
    }
}

impl std::error::Error for CodecError {}

impl From<CodecError> for TgsError {
    fn from(e: CodecError) -> Self {
        TgsError::corrupt(e.to_string())
    }
}

/// Decodes all of `buf` with `f`: the value, or an error when `f` fails
/// or leaves bytes unread.
pub fn decode<'a, T>(
    buf: &'a [u8],
    field: &'static str,
    f: impl FnOnce(&mut Reader<'a>) -> Result<T, CodecError>,
) -> Result<T, CodecError> {
    let mut r = Reader::new(buf);
    let value = f(&mut r)?;
    r.done(field)?;
    Ok(value)
}

/// A bounds-checked cursor over a byte slice. Every accessor names the
/// field it reads, and fails with a [`CodecError`] instead of panicking.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    /// A cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { rest: buf }
    }

    /// Bytes not yet read.
    pub fn remaining(&self) -> usize {
        self.rest.len()
    }

    fn truncated(&self, field: &'static str, need: usize) -> CodecError {
        CodecError::new(
            field,
            CodecErrorKind::Truncated {
                need,
                have: self.remaining(),
            },
        )
    }

    /// Fails unless every byte has been read; `field` names the last one.
    pub fn done(&self, field: &'static str) -> Result<(), CodecError> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(CodecError::new(field, CodecErrorKind::Trailing(n))),
        }
    }

    /// The next `n` raw bytes.
    fn take(&mut self, n: usize, field: &'static str) -> Result<&'a [u8], CodecError> {
        let (head, rest) = self
            .rest
            .split_at_checked(n)
            .ok_or_else(|| self.truncated(field, n))?;
        self.rest = rest;
        Ok(head)
    }

    fn array<const N: usize>(&mut self, field: &'static str) -> Result<[u8; N], CodecError> {
        let (head, rest) = self
            .rest
            .split_first_chunk::<N>()
            .ok_or_else(|| self.truncated(field, N))?;
        self.rest = rest;
        Ok(*head)
    }

    /// Checks and skips a magic prefix.
    pub fn magic(&mut self, magic: &[u8], field: &'static str) -> Result<(), CodecError> {
        match self.rest.strip_prefix(magic) {
            Some(rest) => {
                self.rest = rest;
                Ok(())
            }
            None => Err(CodecError::new(field, CodecErrorKind::Magic)),
        }
    }

    /// One raw byte.
    pub fn u8(&mut self, field: &'static str) -> Result<u8, CodecError> {
        self.array::<1>(field).map(|[b]| b)
    }

    /// A tag byte that must be at most `max`.
    pub fn tag(&mut self, max: u8, field: &'static str) -> Result<u8, CodecError> {
        match self.u8(field)? {
            t if t <= max => Ok(t),
            t => Err(CodecError::new(field, CodecErrorKind::Domain(t))),
        }
    }

    /// A flag byte: 0 or 1.
    pub fn bool(&mut self, field: &'static str) -> Result<bool, CodecError> {
        self.tag(1, field).map(|t| t == 1)
    }

    /// A little-endian `u64`.
    pub fn u64(&mut self, field: &'static str) -> Result<u64, CodecError> {
        self.array::<8>(field).map(u64::from_le_bytes)
    }

    /// A `u64` narrowed to `usize`.
    pub fn usize(&mut self, field: &'static str) -> Result<usize, CodecError> {
        let v = self.u64(field)?;
        usize::try_from(v).map_err(|_| CodecError::new(field, CodecErrorKind::TooLarge(v)))
    }

    /// An `f64` by bit pattern.
    pub fn f64(&mut self, field: &'static str) -> Result<f64, CodecError> {
        self.u64(field).map(f64::from_bits)
    }

    /// A list count whose elements each take at least `floor` bytes (a
    /// floor of 0 counts as 1): fails unless `count × floor` bytes remain.
    pub fn count(&mut self, floor: usize, field: &'static str) -> Result<usize, CodecError> {
        let count = self.usize(field)?;
        let have = self.remaining();
        if count.saturating_mul(floor.max(1)) > have {
            return Err(CodecError::new(
                field,
                CodecErrorKind::Count { count, have },
            ));
        }
        Ok(count)
    }

    /// A length-prefixed byte blob, borrowed from the input.
    pub fn bytes(&mut self, field: &'static str) -> Result<&'a [u8], CodecError> {
        let len = self.count(1, field)?;
        self.take(len, field)
    }

    /// A length-prefixed UTF-8 string, borrowed from the input.
    pub fn str(&mut self, field: &'static str) -> Result<&'a str, CodecError> {
        std::str::from_utf8(self.bytes(field)?)
            .map_err(|_| CodecError::new(field, CodecErrorKind::Utf8))
    }

    /// A length-prefixed list of `f64`s.
    pub fn f64s(&mut self, field: &'static str) -> Result<Vec<f64>, CodecError> {
        let n = self.count(8, field)?;
        Ok(f64_run(self.take(n * 8, field)?))
    }

    /// A length-prefixed list of `usize`s.
    pub fn usizes(&mut self, field: &'static str) -> Result<Vec<usize>, CodecError> {
        let n = self.count(8, field)?;
        (0..n).map(|_| self.usize(field)).collect()
    }

    /// A length-prefixed list of `(u64 key, length-prefixed f64s)` pairs
    /// — the mirror of [`Writer::keyed_f64s`].
    pub fn keyed_f64s(&mut self, field: &'static str) -> Result<Vec<(u64, Vec<f64>)>, CodecError> {
        let n = self.count(16, field)?;
        (0..n)
            .map(|_| Ok((self.u64(field)?, self.f64s(field)?)))
            .collect()
    }

    /// Fixed-width rows — a `u64` key (mapped through `key`) followed by
    /// `k` `f64`s — filling every remaining byte: the mirror of
    /// [`Writer::rows`]. The run has no count; its length must be a whole
    /// number of rows, which are cut from one slice in one pass.
    pub fn rows<K>(
        &mut self,
        k: usize,
        field: &'static str,
        key: impl Fn(u64) -> K,
    ) -> Result<Vec<(K, Vec<f64>)>, CodecError> {
        let width = k.saturating_add(1).saturating_mul(8);
        let rest = self.remaining() % width;
        if rest != 0 {
            return Err(CodecError::new(field, CodecErrorKind::Trailing(rest)));
        }
        let run = self.take(self.remaining(), field)?;
        Ok(run
            .chunks_exact(width)
            .map(|row| {
                let (head, values) = row.split_at(8);
                let head = u64::from_le_bytes(head.try_into().expect("8-byte key"));
                (key(head), f64_run(values))
            })
            .collect())
    }

    /// One `(kind: u8, key: u64, len: u64, body)` record — the mirror of
    /// [`Writer::record`]. The body is borrowed from the input after its
    /// length has been checked against the bytes that remain.
    pub fn record(&mut self, field: &'static str) -> Result<Record<'a>, CodecError> {
        let start = self.rest;
        let kind = self.u8(field)?;
        let key = self.u64(field)?;
        let body = self.bytes(field)?;
        Ok(Record {
            kind,
            key,
            body,
            raw: &start[..start.len() - self.remaining()],
        })
    }

    /// A length-prefixed `encode_matrix` buffer, borrowed from the input
    /// after its header has been checked against its length — safe to
    /// adopt as an encoded store entry.
    pub fn encoded_matrix(&mut self, field: &'static str) -> Result<&'a [u8], CodecError> {
        let bytes = self.bytes(field)?;
        encoded_shape(bytes).ok_or(CodecError::new(field, CodecErrorKind::Shape))?;
        Ok(bytes)
    }

    /// A length-prefixed `encode_matrix` buffer, decoded.
    pub fn matrix(&mut self, field: &'static str) -> Result<DenseMatrix, CodecError> {
        decode_matrix(self.encoded_matrix(field)?)
            .ok_or(CodecError::new(field, CodecErrorKind::Shape))
    }
}

/// One `(kind, key, len, body)` record, borrowed from its input: `raw`
/// is the whole record as stored, header included.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Record<'a> {
    pub kind: u8,
    pub key: u64,
    pub body: &'a [u8],
    pub raw: &'a [u8],
}

/// Little-endian `f64`s from a slice whose length is a multiple of 8.
fn f64_run(bytes: &[u8]) -> Vec<f64> {
    bytes
        .chunks_exact(8)
        .map(|v| f64::from_le_bytes(v.try_into().expect("8-byte chunk")))
        .collect()
}

/// An append-only little-endian encoder over a `Vec<u8>`: the writing
/// half of [`Reader`].
#[derive(Debug, Clone, Default)]
pub struct Writer(Vec<u8>);

impl Writer {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty writer with `cap` bytes reserved.
    pub fn with_capacity(cap: usize) -> Self {
        Self(Vec::with_capacity(cap))
    }

    /// The bytes written.
    pub fn finish(self) -> Vec<u8> {
        self.0
    }

    /// Raw bytes, without a length prefix (magic prefixes, adopted
    /// sections).
    pub fn raw(&mut self, v: &[u8]) {
        self.0.extend_from_slice(v);
    }

    /// One raw byte (a tag).
    pub fn u8(&mut self, v: u8) {
        self.0.push(v);
    }

    /// A flag byte: 0 or 1.
    pub fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }

    /// A little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.raw(&v.to_le_bytes());
    }

    /// A `usize` widened to `u64`.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// An `f64` by bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.raw(&v.to_le_bytes());
    }

    /// A length-prefixed byte blob.
    pub fn bytes(&mut self, v: &[u8]) {
        self.usize(v.len());
        self.raw(v);
    }

    /// A length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }

    /// A length-prefixed list of `f64`s.
    pub fn f64s(&mut self, v: &[f64]) {
        self.usize(v.len());
        v.iter().for_each(|&x| self.f64(x));
    }

    /// A length-prefixed list of `usize`s.
    pub fn usizes(&mut self, v: &[usize]) {
        self.usize(v.len());
        v.iter().for_each(|&x| self.usize(x));
    }

    /// A length-prefixed list of `(u64 key, length-prefixed f64s)` pairs.
    pub fn keyed_f64s(&mut self, v: &[(u64, Vec<f64>)]) {
        self.usize(v.len());
        for (key, values) in v {
            self.u64(*key);
            self.f64s(values);
        }
    }

    /// Fixed-width `(u64 key, f64s)` rows with no count: the reader
    /// supplies the width and takes every remaining byte ([`Reader::rows`]).
    pub fn rows<'r>(&mut self, rows: impl Iterator<Item = (u64, &'r [f64])>) {
        for (key, values) in rows {
            self.u64(key);
            values.iter().for_each(|&x| self.f64(x));
        }
    }

    /// A `(kind, key, len, body)` record whose body `body` writes; the
    /// length is filled in afterwards.
    pub fn record(&mut self, kind: u8, key: u64, body: impl FnOnce(&mut Writer)) {
        self.u8(kind);
        self.u64(key);
        let at = self.0.len();
        self.u64(0);
        body(self);
        let len = (self.0.len() - at - 8) as u64;
        self.0[at..at + 8].copy_from_slice(&len.to_le_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fields_roundtrip_through_writer_and_reader() {
        let mut w = Writer::new();
        w.raw(b"MAGIC");
        w.u8(2);
        w.bool(true);
        w.u64(u64::MAX);
        w.usize(7);
        w.f64(-0.0);
        w.str("héllo");
        w.f64s(&[0.5, 2.0]);
        w.usizes(&[3, 1]);
        w.keyed_f64s(&[(9, vec![1.5]), (10, vec![])]);
        w.rows([(4u64, &[0.25, 0.75][..]), (5, &[1.0, 0.0][..])].into_iter());
        let buf = w.finish();

        let mut r = Reader::new(&buf);
        r.magic(b"MAGIC", "magic").unwrap();
        assert_eq!(r.tag(2, "tag").unwrap(), 2);
        assert!(r.bool("flag").unwrap());
        assert_eq!(r.u64("u64").unwrap(), u64::MAX);
        assert_eq!(r.usize("usize").unwrap(), 7);
        assert_eq!(r.f64("f64").unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.str("str").unwrap(), "héllo");
        assert_eq!(r.f64s("f64s").unwrap(), vec![0.5, 2.0]);
        assert_eq!(r.usizes("usizes").unwrap(), vec![3, 1]);
        assert_eq!(
            r.keyed_f64s("keyed").unwrap(),
            vec![(9, vec![1.5]), (10, vec![])]
        );
        assert_eq!(
            r.rows(2, "rows", |k| k as i64).unwrap(),
            vec![(4, vec![0.25, 0.75]), (5, vec![1.0, 0.0])]
        );
        r.done("end").unwrap();
    }

    #[test]
    fn every_rule_fails_with_the_field_named() {
        let kind = |r: Result<_, CodecError>, field: &str| {
            let e = r.map(|_: ()| ()).unwrap_err();
            assert_eq!(e.field, field);
            e.kind
        };
        let mut r = Reader::new(&[7]);
        assert_eq!(
            kind(r.clone().u64("short").map(drop), "short"),
            CodecErrorKind::Truncated { need: 8, have: 1 }
        );
        assert_eq!(
            kind(r.clone().bool("flag").map(drop), "flag"),
            CodecErrorKind::Domain(7)
        );
        assert_eq!(
            kind(r.clone().magic(b"M", "magic"), "magic"),
            CodecErrorKind::Magic
        );
        assert_eq!(kind(r.done("end"), "end"), CodecErrorKind::Trailing(1));
        r.tag(7, "tag").unwrap();
        r.done("end").unwrap();

        let mut w = Writer::new();
        w.u64(u64::MAX);
        w.u64(2);
        let buf = w.finish();
        // A count of u64::MAX is refused before any allocation, whatever
        // the element floor (the product saturates instead of wrapping).
        for floor in [0, 1, 8, usize::MAX] {
            assert!(matches!(
                Reader::new(&buf).count(floor, "count"),
                Err(CodecError {
                    kind: CodecErrorKind::Count { .. } | CodecErrorKind::TooLarge(_),
                    ..
                })
            ));
        }
        // Two elements need at least 2 bytes; none follow the count.
        assert_eq!(
            kind(Reader::new(&buf[8..]).count(0, "count").map(drop), "count"),
            CodecErrorKind::Count { count: 2, have: 0 }
        );
        // A huge record width cannot overflow the row-run check.
        let mut w = Writer::new();
        w.u64(1);
        w.u64(0);
        let buf = w.finish();
        assert!(Reader::new(&buf).rows(usize::MAX, "rows", |k| k).is_err());

        let mut w = Writer::new();
        w.bytes(&[0xFF, 0xFE]);
        assert_eq!(
            kind(Reader::new(&w.finish()).str("text").map(drop), "text"),
            CodecErrorKind::Utf8
        );
    }

    #[test]
    fn records_frame_their_bodies() {
        let mut w = Writer::new();
        w.record(2, 7, |w| {
            w.rows([(1u64, &[0.5][..]), (2, &[1.5][..])].into_iter())
        });
        w.record(3, 0, |_| {});
        let buf = w.finish();
        let mut r = Reader::new(&buf);
        let first = r.record("record").unwrap();
        assert_eq!((first.kind, first.key, first.body.len()), (2, 7, 32));
        assert_eq!(first.raw, &buf[..17 + 32]);
        assert_eq!(
            Reader::new(first.body).rows(1, "rows", |k| k).unwrap(),
            vec![(1, vec![0.5]), (2, vec![1.5])]
        );
        assert_eq!(
            Reader::new(&first.body[..31])
                .rows(1, "rows", |k| k)
                .unwrap_err()
                .kind,
            CodecErrorKind::Trailing(15)
        );
        let last = r.record("record").unwrap();
        assert_eq!((last.kind, last.key, last.body), (3, 0, &[][..]));
        r.done("records").unwrap();

        // A body length one past the input is refused before the body.
        let mut lying = buf.clone();
        lying[9..17].copy_from_slice(&(buf.len() as u64 - 16).to_le_bytes());
        assert!(matches!(
            Reader::new(&lying).record("record").unwrap_err().kind,
            CodecErrorKind::Count { .. }
        ));
    }

    #[test]
    fn encoded_matrices_are_checked_against_their_length() {
        let m = DenseMatrix::from_vec(2, 1, vec![0.5, 1.5]).unwrap();
        let encoded = crate::store::encode_matrix(&m);
        let mut w = Writer::new();
        w.bytes(encoded.as_slice());
        let good = w.finish();
        let mut r = Reader::new(&good);
        assert_eq!(r.clone().encoded_matrix("m").unwrap(), encoded.as_slice());
        assert_eq!(r.matrix("m").unwrap().as_slice(), m.as_slice());

        let mut lying = good.clone();
        lying[8] = 3; // rows 2 → 3 without the data to match
        assert_eq!(
            Reader::new(&lying).encoded_matrix("m").unwrap_err().kind,
            CodecErrorKind::Shape
        );
    }

    #[test]
    fn decode_requires_the_whole_input() {
        let mut w = Writer::new();
        w.u64(5);
        w.u8(0);
        let buf = w.finish();
        assert_eq!(
            decode(&buf, "value", |r| r.u64("value")).unwrap_err().kind,
            CodecErrorKind::Trailing(1)
        );
        assert_eq!(decode(&buf[..8], "value", |r| r.u64("value")).unwrap(), 5);
        let e: TgsError = decode(&buf[..3], "value", |r| r.u64("value"))
            .unwrap_err()
            .into();
        assert!(matches!(e, TgsError::CorruptCheckpoint { .. }));
    }
}
