//! Bounded snapshot store: compact serialization of factor matrices.
//!
//! The paper stresses that the online algorithm runs with "limited memory
//! usage" — only the decayed window of past results is retained. This
//! store backs that claim operationally: factor snapshots are serialized
//! to compact byte buffers and evicted FIFO beyond a configurable budget,
//! so long streams cannot grow memory without bound.

use std::collections::VecDeque;

use bytes::Bytes;
use tgs_linalg::DenseMatrix;

use crate::codec::Writer;

/// Serializes a dense matrix: `rows: u64 | cols: u64 | data: f64-LE…`.
pub fn encode_matrix(m: &DenseMatrix) -> Bytes {
    let mut w = Writer::with_capacity(16 + 8 * m.as_slice().len());
    w.usize(m.rows());
    w.usize(m.cols());
    m.as_slice().iter().for_each(|&v| w.f64(v));
    Bytes::from(w.finish())
}

/// Validates an [`encode_matrix`] header against the buffer: returns the
/// declared `(rows, cols)` when `bytes` holds exactly one encoded matrix
/// of that shape, `None` otherwise. Lets a decoder adopt encoded bytes
/// as they are, with the same checks [`decode_matrix`] applies.
pub fn encoded_shape(bytes: &[u8]) -> Option<(usize, usize)> {
    let (header, data) = bytes.split_at_checked(16)?;
    let (rows, cols) = header.split_at(8);
    let rows = usize::try_from(u64::from_le_bytes(rows.try_into().ok()?)).ok()?;
    let cols = usize::try_from(u64::from_le_bytes(cols.try_into().ok()?)).ok()?;
    let expected = rows.checked_mul(cols)?.checked_mul(8)?;
    (data.len() == expected).then_some((rows, cols))
}

/// Inverse of [`encode_matrix`]. Returns `None` on malformed input.
pub fn decode_matrix(bytes: impl AsRef<[u8]>) -> Option<DenseMatrix> {
    let bytes = bytes.as_ref();
    let (rows, cols) = encoded_shape(bytes)?;
    let data = bytes[16..]
        .chunks_exact(8)
        .map(|v| f64::from_le_bytes(v.try_into().expect("8-byte chunk")))
        .collect();
    DenseMatrix::from_vec(rows, cols, data).ok()
}

/// A FIFO store of factor snapshots keyed by timestamp, bounded by a byte
/// budget.
#[derive(Debug, Clone)]
pub struct SnapshotStore {
    budget_bytes: usize,
    used_bytes: usize,
    entries: VecDeque<(u64, Bytes)>,
}

impl SnapshotStore {
    /// Creates a store with the given byte budget.
    pub fn new(budget_bytes: usize) -> Self {
        Self {
            budget_bytes,
            used_bytes: 0,
            entries: VecDeque::new(),
        }
    }

    /// Number of retained snapshots.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Bytes currently used.
    pub fn used_bytes(&self) -> usize {
        self.used_bytes
    }

    /// The configured byte budget.
    pub fn budget_bytes(&self) -> usize {
        self.budget_bytes
    }

    /// Stores a matrix under `timestamp`, evicting the oldest snapshots
    /// until the budget is met. Re-putting an existing timestamp
    /// *overwrites* it in place (the old entry's bytes are released, not
    /// double-counted). A single snapshot larger than the whole budget is
    /// still stored (the budget then holds exactly one entry).
    pub fn put(&mut self, timestamp: u64, matrix: &DenseMatrix) {
        self.push_encoded(timestamp, encode_matrix(matrix));
    }

    /// Retrieves and decodes the snapshot stored under `timestamp`.
    pub fn get(&self, timestamp: u64) -> Option<DenseMatrix> {
        self.entries
            .iter()
            .find(|(t, _)| *t == timestamp)
            .and_then(|(_, b)| decode_matrix(b.clone()))
    }

    /// Timestamps currently retained, in ascending timestamp order
    /// (insertion order governs eviction, not this listing).
    pub fn timestamps(&self) -> Vec<u64> {
        let mut ts: Vec<u64> = self.entries.iter().map(|(t, _)| *t).collect();
        ts.sort_unstable();
        ts
    }

    /// The most recent retained snapshot (largest timestamp), decoded.
    pub fn latest(&self) -> Option<(u64, DenseMatrix)> {
        self.entries
            .iter()
            .max_by_key(|(t, _)| *t)
            .and_then(|(t, b)| decode_matrix(b.clone()).map(|m| (*t, m)))
    }

    /// Iterates the retained `(timestamp, encoded bytes)` entries in
    /// insertion (eviction) order. `Bytes` clones are cheap reference
    /// bumps; decode on demand with [`decode_matrix`].
    pub fn iter(&self) -> impl Iterator<Item = (u64, Bytes)> + '_ {
        self.entries.iter().map(|(t, b)| (*t, b.clone()))
    }

    /// Stores pre-encoded snapshot bytes under `timestamp` with the same
    /// overwrite/eviction semantics as [`SnapshotStore::put`] (which
    /// delegates here) — the checkpoint decoder's store path, adopting
    /// bytes another store produced without a decode/encode round trip.
    /// The bytes are kept as given: callers validate them (see
    /// [`encoded_shape`]) and pass an owned buffer, not a view that would
    /// pin a larger one.
    pub fn push_encoded(&mut self, timestamp: u64, encoded: Bytes) {
        if let Some(slot) = self.entries.iter_mut().find(|(t, _)| *t == timestamp) {
            self.used_bytes -= slot.1.len();
            self.used_bytes += encoded.len();
            slot.1 = encoded;
        } else {
            self.used_bytes += encoded.len();
            self.entries.push_back((timestamp, encoded));
        }
        while self.used_bytes > self.budget_bytes && self.entries.len() > 1 {
            if let Some((_, old)) = self.entries.pop_front() {
                self.used_bytes -= old.len();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_exact() {
        let m = DenseMatrix::from_vec(2, 3, vec![1.5, -2.0, 0.0, 3.25, 1e-9, 7.0]).unwrap();
        let decoded = decode_matrix(encode_matrix(&m)).unwrap();
        assert_eq!(decoded, m);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(decode_matrix(Bytes::from_static(b"oops")).is_none());
        // header claims more data than present
        let mut w = Writer::new();
        w.u64(10);
        w.u64(10);
        w.f64(1.0);
        assert!(decode_matrix(w.finish()).is_none());
    }

    #[test]
    fn encoded_shape_checks_the_header_against_the_length() {
        let m = DenseMatrix::filled(3, 2, 0.5);
        let encoded = encode_matrix(&m);
        assert_eq!(encoded_shape(encoded.as_slice()), Some((3, 2)));
        let raw = encoded.as_slice();
        assert_eq!(encoded_shape(&raw[..raw.len() - 1]), None, "short data");
        assert_eq!(encoded_shape(&raw[..15]), None, "short header");
        let mut lying = raw.to_vec();
        lying[..8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(encoded_shape(&lying), None, "overflowing shape");
    }

    #[test]
    fn store_put_get() {
        let mut store = SnapshotStore::new(1 << 20);
        let m = DenseMatrix::filled(4, 3, 0.25);
        store.put(7, &m);
        assert_eq!(store.get(7).unwrap(), m);
        assert!(store.get(8).is_none());
    }

    #[test]
    fn store_evicts_oldest_beyond_budget() {
        // each 1×1 matrix costs 16 + 8 = 24 bytes
        let mut store = SnapshotStore::new(60);
        store.put(1, &DenseMatrix::filled(1, 1, 1.0));
        store.put(2, &DenseMatrix::filled(1, 1, 2.0));
        store.put(3, &DenseMatrix::filled(1, 1, 3.0));
        assert_eq!(store.timestamps(), vec![2, 3]);
        assert!(store.get(1).is_none());
        assert!(store.used_bytes() <= 60);
    }

    #[test]
    fn put_overwrites_existing_timestamp() {
        let mut store = SnapshotStore::new(1 << 20);
        store.put(5, &DenseMatrix::filled(1, 1, 1.0));
        let used_once = store.used_bytes();
        store.put(5, &DenseMatrix::filled(1, 1, 9.0));
        assert_eq!(store.len(), 1, "re-put must not duplicate the entry");
        assert_eq!(store.used_bytes(), used_once, "bytes must not double-count");
        assert_eq!(store.get(5).unwrap().get(0, 0), 9.0);
    }

    #[test]
    fn timestamps_sorted_latest_and_iter() {
        let mut store = SnapshotStore::new(1 << 20);
        store.put(9, &DenseMatrix::filled(1, 1, 9.0));
        store.put(3, &DenseMatrix::filled(1, 1, 3.0));
        store.put(6, &DenseMatrix::filled(1, 1, 6.0));
        assert_eq!(store.timestamps(), vec![3, 6, 9]);
        let (t, m) = store.latest().unwrap();
        assert_eq!(t, 9);
        assert_eq!(m.get(0, 0), 9.0);
        // iter preserves insertion order and round-trips through decode
        let decoded: Vec<(u64, f64)> = store
            .iter()
            .map(|(t, b)| (t, decode_matrix(b).unwrap().get(0, 0)))
            .collect();
        assert_eq!(decoded, vec![(9, 9.0), (3, 3.0), (6, 6.0)]);
    }

    #[test]
    fn push_encoded_evicts_like_put() {
        // each 1×1 matrix costs 16 + 8 = 24 bytes
        let mut store = SnapshotStore::new(60);
        for t in 1..=3u64 {
            store.push_encoded(t, encode_matrix(&DenseMatrix::filled(1, 1, t as f64)));
        }
        assert_eq!(store.timestamps(), vec![2, 3]);
        assert!(store.used_bytes() <= 60);
    }

    #[test]
    fn store_keeps_oversized_single_entry() {
        let mut store = SnapshotStore::new(8);
        store.put(1, &DenseMatrix::filled(10, 10, 1.0));
        assert_eq!(store.len(), 1);
        assert!(store.get(1).is_some());
    }
}
