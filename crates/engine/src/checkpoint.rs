//! Byte-level checkpointing of a whole engine session.
//!
//! The format is a versioned little-endian stream:
//! configuration → vocabulary → lexicon prior → solver temporal state
//! (`Sf` window, per-user history, step counter) → recorded timeline →
//! per-user observations → the bounded `Sf`/`Sp` factor stores. It is
//! written with [`tgs_core::codec::Writer`] and read with
//! [`tgs_core::codec::Reader`], which bounds-checks every field and every
//! count, so a structural violation surfaces as
//! [`TgsError::CorruptCheckpoint`], never a panic or a large allocation.
//!
//! Restoration is exact: matrices round-trip bit-for-bit (f64 ↔ LE bits),
//! so a restored engine produces identical results for identical
//! subsequent snapshots.
//!
//! **Single-pass decode.** The decoder reads straight from the
//! checkpoint's shared buffer (a multi-shard restore hands each section
//! over as a zero-copy [`Bytes`] view, and
//! `ShardedEngine::restore` decodes the sections concurrently, one
//! thread per shard). Fixed-width per-user records — solver history rows
//! and observation tracks — are cut in one pass ([`Reader::rows`]).
//! Factor-store entries are *adopted*, not decoded and re-encoded: each
//! entry's 16-byte matrix header is validated against its length
//! ([`Reader::encoded_matrix`]), then one owned copy of the bytes enters
//! the store — never a view that would pin the whole checkpoint.
//!
//! **Compaction (format v2).** The stores only ever hold what survived
//! their byte budgets, so budget-evicted factor snapshots are never
//! serialized; and the solver's `Sfw` window — whose matrices are
//! byte-identical to the newest retained `Sf`-store entries — is written
//! as *references* into the store section instead of re-serializing the
//! matrices (each entry falls back to inline bytes only when the store
//! already evicted its timestamp). Restoring a compacted checkpoint
//! yields identical query results for every retained timestamp and
//! bit-identical subsequent solves.

use bytes::Bytes;
use tgs_core::codec::{CodecError, Reader, Writer};
use tgs_core::{
    encode_matrix, InitStrategy, OnlineConfig, OnlineSolver, OnlineSolverState, SnapshotStore,
    TgsError,
};
use tgs_linalg::DenseMatrix;
use tgs_text::{TokenizerConfig, Vocabulary, Weighting};

use crate::builder::MAX_QUEUE_DEPTH;
use crate::engine::{EngineShared, EngineState};
use crate::query::TimelineEntry;

/// Magic + format version prefix (v2: window-into-store compaction).
const MAGIC: &[u8; 8] = b"TGSENG\x00\x02";

/// A serialized engine session. Obtain from
/// [`crate::SentimentEngine::checkpoint`]; rebuild with
/// [`crate::SentimentEngine::restore`]. The raw bytes are stable for a
/// given format version and safe to persist to disk or ship between
/// machines of any endianness.
#[derive(Debug, Clone)]
pub struct EngineCheckpoint {
    bytes: Bytes,
}

impl EngineCheckpoint {
    /// Wraps previously serialized checkpoint bytes (e.g. read back from
    /// disk). Validation happens at [`crate::SentimentEngine::restore`].
    pub fn from_bytes(data: Vec<u8>) -> Self {
        Self {
            bytes: Bytes::from(data),
        }
    }

    /// Wraps a view into a larger buffer (one section of a multi-shard
    /// checkpoint) without copying it.
    pub(crate) fn from_shared(bytes: Bytes) -> Self {
        Self { bytes }
    }

    /// The serialized bytes as a shareable buffer.
    pub(crate) fn into_shared(self) -> Bytes {
        self.bytes
    }

    /// The serialized byte stream.
    pub fn as_bytes(&self) -> &[u8] {
        self.bytes.as_slice()
    }

    /// Serialized size in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// True when the checkpoint holds no bytes (never produced by
    /// [`crate::SentimentEngine::checkpoint`]).
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }
}

// ---------------------------------------------------------------------
// Sections shared with the delta codec (`crate::delta`)
// ---------------------------------------------------------------------

/// Serializes one timeline entry — the per-snapshot layout shared by the
/// full checkpoint's timeline section and the delta's new-entry section.
pub(crate) fn wr_timeline_entry(w: &mut Writer, entry: &TimelineEntry) {
    w.u64(entry.timestamp);
    w.usize(entry.tweets);
    w.usize(entry.users);
    w.usize(entry.new_users);
    w.usize(entry.evolving_users);
    w.usize(entry.iterations);
    w.bool(entry.converged);
    w.f64(entry.objective);
    entry.tweet_counts.iter().for_each(|&v| w.usize(v));
    entry.user_counts.iter().for_each(|&v| w.usize(v));
}

/// Smallest serialized size of one timeline entry — the count floor for
/// timeline lists (saturating, so a corrupt `k` cannot wrap).
pub(crate) fn timeline_entry_floor(k: usize) -> usize {
    k.saturating_mul(2)
        .saturating_add(7)
        .saturating_mul(8)
        .saturating_add(1)
}

/// Inverse of [`wr_timeline_entry`].
pub(crate) fn rd_timeline_entry(r: &mut Reader<'_>, k: usize) -> Result<TimelineEntry, CodecError> {
    Ok(TimelineEntry {
        timestamp: r.u64("timeline timestamp")?,
        tweets: r.usize("timeline tweets")?,
        users: r.usize("timeline users")?,
        new_users: r.usize("timeline new users")?,
        evolving_users: r.usize("timeline evolving users")?,
        iterations: r.usize("timeline iterations")?,
        converged: r.bool("timeline converged")?,
        objective: r.f64("timeline objective")?,
        tweet_counts: (0..k)
            .map(|_| r.usize("timeline tweet count"))
            .collect::<Result<_, _>>()?,
        user_counts: (0..k)
            .map(|_| r.usize("timeline user count"))
            .collect::<Result<_, _>>()?,
    })
}

/// Serializes the solver's `Sf` window with compaction: each matrix is
/// the `Sf(t−i)` the solver pushed when it committed snapshot `t−i` —
/// byte-identical to that timestamp's `Sf`-store entry unless the budget
/// evicted it — so it is written as a back-reference (tag 1 + timestamp)
/// when the store still holds the bytes, and inline (tag 0) otherwise.
pub(crate) fn wr_window<'m>(
    w: &mut Writer,
    window: impl ExactSizeIterator<Item = &'m DenseMatrix>,
    sf_store: &SnapshotStore,
) {
    w.usize(window.len());
    for sf in window {
        let encoded = encode_matrix(sf);
        match sf_store
            .iter()
            .find(|(_, bytes)| bytes.as_slice() == encoded.as_slice())
        {
            Some((t, _)) => {
                w.u8(1);
                w.u64(t);
            }
            None => {
                w.u8(0);
                w.bytes(encoded.as_slice());
            }
        }
    }
}

/// One parsed `Sf` window entry. References resolve against the store,
/// which the stream carries later ([`resolve_window`]).
pub(crate) enum WindowEntry {
    Inline(DenseMatrix),
    Ref(u64),
}

/// Inverse of [`wr_window`], before the references are resolved.
pub(crate) fn rd_window(r: &mut Reader<'_>) -> Result<Vec<WindowEntry>, CodecError> {
    let len = r.count(9, "sf window length")?;
    (0..len)
        .map(|_| match r.tag(1, "sf window entry tag")? {
            0 => r.matrix("sf window snapshot").map(WindowEntry::Inline),
            _ => r.u64("sf window reference").map(WindowEntry::Ref),
        })
        .collect()
}

/// Resolves parsed window entries against `sf_store`. Every matrix must
/// aggregate against the `vocab × k` shape, or the first ingest after a
/// restore would fail inside the solver instead of failing the restore.
pub(crate) fn resolve_window(
    entries: Vec<WindowEntry>,
    sf_store: &SnapshotStore,
    (vocab, k): (usize, usize),
) -> Result<Vec<DenseMatrix>, TgsError> {
    entries
        .into_iter()
        .map(|entry| {
            let sf = match entry {
                WindowEntry::Inline(sf) => sf,
                WindowEntry::Ref(t) => sf_store.get(t).ok_or_else(|| {
                    TgsError::corrupt(format!(
                        "sf window references timestamp {t}, which the sf store does not retain"
                    ))
                })?,
            };
            if sf.shape() != (vocab, k) {
                return Err(TgsError::corrupt(format!(
                    "sf window snapshot is {}×{}, expected {vocab}×{k}",
                    sf.rows(),
                    sf.cols(),
                )));
            }
            Ok(sf)
        })
        .collect()
}

/// Reads count-prefixed `(timestamp, encoded matrix)` store entries,
/// each validated and copied out of the input so it never pins it.
pub(crate) fn rd_store_entries(
    r: &mut Reader<'_>,
    field: &'static str,
) -> Result<Vec<(u64, Bytes)>, CodecError> {
    let n = r.count(16, field)?;
    (0..n)
        .map(|_| {
            let t = r.u64(field)?;
            Ok((t, Bytes::copy_from_slice(r.encoded_matrix(field)?)))
        })
        .collect()
}

/// Reads one factor store: its byte budget, then its entries.
fn rd_store(r: &mut Reader<'_>, field: &'static str) -> Result<SnapshotStore, CodecError> {
    let mut store = SnapshotStore::new(r.usize(field)?);
    for (t, entry) in rd_store_entries(r, field)? {
        store.push_encoded(t, entry);
    }
    Ok(store)
}

// ---------------------------------------------------------------------
// Encode
// ---------------------------------------------------------------------

pub(crate) fn encode(
    shared: &EngineShared,
    solver: &OnlineSolver,
    state: &EngineState,
) -> EngineCheckpoint {
    let mut w = Writer::with_capacity(1 << 16);
    w.raw(MAGIC);

    // --- Configuration ---
    let c = &shared.config;
    w.usize(c.k);
    w.f64(c.alpha);
    w.f64(c.beta);
    w.f64(c.gamma);
    w.f64(c.tau);
    w.usize(c.window);
    w.bool(c.normalize_window);
    w.usize(c.max_iters);
    w.f64(c.tol);
    w.u64(c.seed);
    w.u8(match c.init {
        InitStrategy::Random => 0,
        InitStrategy::LexiconSeeded => 1,
    });
    w.bool(c.track_objective);
    w.usize(shared.queue_depth);
    w.usize(shared.tokenizer.min_token_len);
    w.bool(shared.tokenizer.keep_mentions);
    w.bool(shared.tokenizer.keep_numbers);
    w.u8(match shared.weighting {
        Weighting::Counts => 0,
        Weighting::Binary => 1,
        Weighting::TfIdf => 2,
    });

    // --- Vocabulary + prior ---
    w.usize(shared.vocab.len());
    shared.vocab.tokens().iter().for_each(|token| w.str(token));
    w.bytes(encode_matrix(&shared.sf0).as_slice());

    // --- Solver temporal state ---
    let solver_state = solver.export_state();
    w.u64(solver_state.steps);
    wr_window(&mut w, solver_state.sf_window.iter(), &state.sf_store);
    // History steps are signed (rebalance-migrated rows can predate a
    // young solver's step 0); two's-complement u64 round-trips them
    // exactly, and pre-elastic checkpoints only ever held non-negative
    // values, so old streams decode unchanged.
    w.u64(solver_state.history_step as u64);
    w.usize(solver_state.history_rows.len());
    for (user, entries) in &solver_state.history_rows {
        w.usize(*user);
        w.rows(
            entries
                .iter()
                .map(|(step, row)| (*step as u64, row.as_slice())),
        );
    }

    // --- Timeline ---
    w.usize(state.timeline.len());
    for entry in state.timeline.values() {
        wr_timeline_entry(&mut w, entry);
    }

    // --- Per-user observations (sorted by user id for determinism) ---
    let mut users: Vec<_> = state.user_track.iter().collect();
    users.sort_unstable_by_key(|(&u, _)| u);
    w.usize(users.len());
    for (&user, track) in users {
        w.usize(user);
        w.rows(track.iter().map(|(t, dist)| (*t, dist.as_slice())));
    }

    // --- Factor stores ---
    for store in [&state.sf_store, &state.sp_store] {
        w.usize(store.budget_bytes());
        w.usize(store.len());
        for (t, bytes) in store.iter() {
            w.u64(t);
            w.bytes(bytes.as_slice());
        }
    }

    EngineCheckpoint {
        bytes: Bytes::from(w.finish()),
    }
}

// ---------------------------------------------------------------------
// Decode
// ---------------------------------------------------------------------

pub(crate) fn decode(
    ckpt: &EngineCheckpoint,
) -> Result<(EngineShared, OnlineSolver, EngineState), TgsError> {
    let mut r = Reader::new(ckpt.as_bytes());
    r.magic(MAGIC, "tgs-engine checkpoint magic")?;

    // --- Configuration ---
    let k = r.usize("k")?;
    let config = OnlineConfig {
        k,
        alpha: r.f64("alpha")?,
        beta: r.f64("beta")?,
        gamma: r.f64("gamma")?,
        tau: r.f64("tau")?,
        window: r.usize("window")?,
        normalize_window: r.bool("normalize_window")?,
        max_iters: r.usize("max_iters")?,
        tol: r.f64("tol")?,
        seed: r.u64("seed")?,
        init: match r.tag(1, "init")? {
            0 => InitStrategy::Random,
            _ => InitStrategy::LexiconSeeded,
        },
        track_objective: r.bool("track_objective")?,
    };
    // A checkpoint only ever carries a configuration the builder
    // accepted, so an out-of-domain field means corrupt bytes.
    config
        .try_validate()
        .map_err(|e| TgsError::corrupt(format!("invalid configuration: {e}")))?;
    let queue_depth = r.usize("queue_depth")?.max(1);
    // The queue's slots are allocated up front: a corrupt depth must
    // fail the restore, not the allocator.
    if queue_depth > MAX_QUEUE_DEPTH {
        return Err(TgsError::corrupt(format!(
            "queue_depth {queue_depth} exceeds {MAX_QUEUE_DEPTH}"
        )));
    }
    let tokenizer = TokenizerConfig {
        min_token_len: r.usize("min_token_len")?,
        keep_mentions: r.bool("keep_mentions")?,
        keep_numbers: r.bool("keep_numbers")?,
    };
    let weighting = match r.tag(2, "weighting")? {
        0 => Weighting::Counts,
        1 => Weighting::Binary,
        _ => Weighting::TfIdf,
    };

    // --- Vocabulary + prior ---
    let vocab_len = r.count(8, "vocabulary length")?;
    let tokens = (0..vocab_len)
        .map(|_| r.str("vocabulary token").map(str::to_owned))
        .collect::<Result<Vec<_>, _>>()?;
    let vocab = Vocabulary::from_tokens(tokens);
    if vocab.len() != vocab_len {
        return Err(TgsError::corrupt("duplicate vocabulary tokens"));
    }
    let sf0 = r.matrix("sf0 prior")?;
    if sf0.shape() != (vocab.len(), k) {
        return Err(TgsError::corrupt(format!(
            "sf0 prior is {}×{}, expected {}×{k}",
            sf0.shape().0,
            sf0.shape().1,
            vocab.len()
        )));
    }

    // --- Solver temporal state ---
    // Window entries may back-reference Sf-store timestamps (compaction),
    // and the stores appear later in the stream — parse now, resolve
    // after the stores are decoded.
    let steps = r.u64("solver steps")?;
    let window_entries = rd_window(&mut r)?;
    // Signed via two's complement — see the encode side.
    let history_step = r.u64("history step")? as i64;
    let history_users = r.count(16, "history user count")?;
    let history_rows = (0..history_users)
        .map(|_| {
            let user = r.usize("history user id")?;
            Ok((user, r.rows(k, "history entry count", |step| step as i64)?))
        })
        .collect::<Result<Vec<_>, CodecError>>()?;

    // --- Timeline ---
    let timeline_len = r.count(timeline_entry_floor(k), "timeline length")?;
    let mut timeline = std::collections::BTreeMap::new();
    for _ in 0..timeline_len {
        let entry = rd_timeline_entry(&mut r, k)?;
        timeline.insert(entry.timestamp, entry);
    }

    // --- Per-user observations ---
    let track_users = r.count(16, "user track count")?;
    let mut user_track = std::collections::HashMap::with_capacity(track_users);
    for _ in 0..track_users {
        let user = r.usize("user track id")?;
        user_track.insert(user, r.rows(k, "user observation count", |t| t)?);
    }

    // --- Factor stores (validated bytes adopted as-is) ---
    let sf_store = rd_store(&mut r, "sf store")?;
    let sp_store = rd_store(&mut r, "sp store")?;
    r.done("the factor stores")?;

    // --- Resolve the (possibly compacted) Sf window against the store ---
    let sf_window = resolve_window(window_entries, &sf_store, (vocab.len(), k))?;
    let solver = OnlineSolver::from_state(
        config.clone(),
        OnlineSolverState {
            steps,
            sf_window,
            history_step,
            history_rows,
        },
    )?;

    let shared = EngineShared {
        vocab,
        sf0,
        config,
        tokenizer,
        weighting,
        queue_depth,
    };
    let state = EngineState {
        timeline,
        user_track,
        sf_store,
        sp_store,
        failures: std::collections::VecDeque::new(),
        tracker: crate::delta::DeltaTracker::default(),
    };
    Ok((shared, solver, state))
}

/// White-box walks of the serialized layout, shared by the codec tests
/// here and the multi-shard restore tests.
#[cfg(test)]
pub(crate) mod layout {
    use super::MAGIC;

    /// End of the fixed-width configuration header (magic → weighting).
    pub(crate) const CONFIG_END: usize = 8 + 8 + 4 * 8 + (8 + 1 + 8 + 8 + 8 + 2) + (8 + 8 + 3);

    /// Byte-offset cursor over a valid checkpoint.
    pub(crate) struct Walk<'a> {
        pub buf: &'a [u8],
        pub pos: usize,
    }

    /// Offsets of the fields a mutation test targets.
    #[derive(Debug, Default)]
    pub(crate) struct Fields {
        /// Every list count and byte length the decoder bounds with
        /// `Reader::count` (store-entry lengths included).
        pub counts: Vec<usize>,
        /// Factor-store entry lengths.
        pub entry_lens: Vec<usize>,
        /// 16-byte `rows | cols` matrix headers (prior, inline window
        /// entries, store entries).
        pub matrix_heads: Vec<usize>,
    }

    impl<'a> Walk<'a> {
        pub fn skip(&mut self, n: usize) {
            self.pos += n;
        }

        pub fn u64(&mut self) -> u64 {
            let v = u64::from_le_bytes(self.buf[self.pos..self.pos + 8].try_into().unwrap());
            self.pos += 8;
            v
        }

        pub fn u8(&mut self) -> u8 {
            let v = self.buf[self.pos];
            self.pos += 1;
            v
        }

        /// Reads a count field, recording its offset.
        fn count(&mut self, f: &mut Fields) -> usize {
            f.counts.push(self.pos);
            self.u64() as usize
        }

        /// Skips a length-prefixed matrix, recording both headers.
        fn matrix(&mut self, f: &mut Fields) {
            let len = self.count(f);
            f.matrix_heads.push(self.pos);
            self.skip(len);
        }

        /// Advances past the header up to the first Sf-window entry.
        pub fn seek_window(&mut self) -> usize {
            self.seek_window_recording(&mut Fields::default()).1
        }

        /// [`Walk::seek_window`], recording fields; also returns `k`.
        fn seek_window_recording(&mut self, f: &mut Fields) -> (usize, usize) {
            self.skip(MAGIC.len());
            let k = self.u64() as usize;
            self.skip(4 * 8); // alpha, beta, gamma, tau
            self.skip(8 + 1 + 8 + 8 + 8 + 2); // window..init+track flags
            self.skip(8 + 8 + 3); // queue_depth, min_token_len, tokenizer+weighting
            debug_assert_eq!(self.pos, CONFIG_END);
            let vocab_len = self.count(f);
            for _ in 0..vocab_len {
                let token_len = self.count(f);
                self.skip(token_len);
            }
            self.matrix(f); // sf0
            self.skip(8); // solver steps
            (k, self.count(f))
        }

        /// Skips `count`-prefixed `(u64 id, count, records)` user lists.
        fn user_rows(&mut self, f: &mut Fields, k: usize) {
            let users = self.count(f);
            for _ in 0..users {
                self.skip(8); // user id
                let records = self.count(f);
                self.skip(records * 8 * (k + 1));
            }
        }
    }

    /// Walks a whole valid single-engine checkpoint, listing its fields.
    pub(crate) fn fields(buf: &[u8]) -> Fields {
        let mut f = Fields::default();
        let mut w = Walk { buf, pos: 0 };
        let (k, window_len) = w.seek_window_recording(&mut f);
        for _ in 0..window_len {
            match w.u8() {
                1 => w.skip(8),
                _ => w.matrix(&mut f),
            }
        }
        w.skip(8); // history step
        w.user_rows(&mut f, k);
        let timeline_len = w.count(&mut f);
        w.skip(timeline_len * (8 * (7 + 2 * k) + 1));
        w.user_rows(&mut f, k);
        for _ in 0..2 {
            w.skip(8); // budget
            let entries = w.count(&mut f);
            for _ in 0..entries {
                w.skip(8); // timestamp
                f.entry_lens.push(w.pos);
                w.matrix(&mut f);
            }
        }
        assert_eq!(w.pos, buf.len(), "walk must end at the last byte");
        f
    }

    /// Deterministic offsets for seeded mutation cases (splitmix64).
    pub(crate) fn seeded_offsets(seed: u64, n: usize, len: usize) -> Vec<usize> {
        let mut z = seed;
        (0..n)
            .map(|_| {
                z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut x = z;
                x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                ((x ^ (x >> 31)) % len as u64) as usize
            })
            .collect()
    }

    /// The lies a mutation test writes over a count field at `at`:
    /// `u64::MAX`, and one more than the bytes that follow the field.
    pub(crate) fn count_lies(buf: &[u8], at: usize) -> [u64; 2] {
        [u64::MAX, (buf.len() - at - 8) as u64 + 1]
    }

    /// Matrix headers that cannot match their entry's length: a row too
    /// many, an overflowing row count, a column count with the top bit
    /// set. (A rows/cols swap keeps the length and may still decode.)
    pub(crate) fn head_lies(rows: u64, cols: u64) -> [(u64, u64); 3] {
        [(rows + 1, cols), (u64::MAX, cols), (rows, cols | 1 << 63)]
    }
}

#[cfg(test)]
mod tests {
    use super::layout::{self, Walk};
    use super::*;
    use tgs_core::decode_matrix;

    /// Walks a serialized checkpoint up to the Sf-window section and
    /// returns each entry's compaction tag (1 = store reference,
    /// 0 = inline matrix).
    fn window_tags(full: &[u8]) -> Vec<u8> {
        let mut w = Walk { buf: full, pos: 0 };
        let window_len = w.seek_window();
        let mut tags = Vec::with_capacity(window_len);
        for _ in 0..window_len {
            let tag = w.u8();
            tags.push(tag);
            match tag {
                1 => w.skip(8),
                0 => {
                    let len = w.u64() as usize;
                    w.skip(len);
                }
                other => panic!("unknown window tag {other}"),
            }
        }
        tags
    }

    fn streamed_engine(window: usize, store_budget: usize) -> crate::SentimentEngine {
        use crate::{EngineBuilder, EngineSnapshot};
        let corpus = tgs_data::generate(&tgs_data::presets::tiny(29));
        let engine = EngineBuilder::new()
            .k(3)
            .max_iters(4)
            .window(window)
            .store_budget_bytes(store_budget)
            .fit(&corpus)
            .unwrap();
        for (lo, hi) in tgs_data::day_windows(corpus.num_days, 1) {
            engine
                .ingest(EngineSnapshot::from_corpus_window(&corpus, lo, hi))
                .unwrap();
        }
        engine.flush().unwrap();
        engine
    }

    #[test]
    fn window_is_compacted_into_store_references() {
        // Default-sized store: every window matrix is still retained by
        // the Sf store, so the whole window serializes as references.
        let engine = streamed_engine(3, 64 << 20);
        let ckpt = engine.checkpoint().unwrap();
        let tags = window_tags(ckpt.as_bytes());
        assert_eq!(tags.len(), 2, "window = 3 keeps w − 1 = 2 snapshots");
        assert!(
            tags.iter().all(|&t| t == 1),
            "retained window matrices must be references, got {tags:?}"
        );
        // The references resolve on restore, bit-identically.
        let restored = crate::SentimentEngine::restore(&ckpt).unwrap();
        assert_eq!(restored.query().timeline(..), engine.query().timeline(..));
        let ckpt2 = restored.checkpoint().unwrap();
        assert_eq!(ckpt2.as_bytes(), ckpt.as_bytes(), "re-encode is stable");
    }

    #[test]
    fn evicted_window_matrices_fall_back_to_inline() {
        // A starving store budget keeps a single entry, so the older
        // window matrix is gone from the store and must inline.
        let engine = streamed_engine(3, 1);
        let ckpt = engine.checkpoint().unwrap();
        let tags = window_tags(ckpt.as_bytes());
        assert_eq!(tags.len(), 2);
        assert!(tags.contains(&0), "evicted matrix must inline: {tags:?}");
        let restored = crate::SentimentEngine::restore(&ckpt).unwrap();
        assert_eq!(restored.query().timeline(..), engine.query().timeline(..));
    }

    #[test]
    fn dangling_window_reference_is_rejected() {
        let engine = streamed_engine(2, 64 << 20);
        let full = engine.checkpoint().unwrap().as_bytes().to_vec();
        // Locate the single window entry (tag 1 + timestamp) and point it
        // at a timestamp the store never held.
        let tags = window_tags(&full);
        assert_eq!(tags, vec![1]);
        // Re-walk to the tag position; the referenced timestamp follows.
        let mut w = Walk { buf: &full, pos: 0 };
        w.seek_window();
        let tag_offset = w.pos;
        let mut tampered = full;
        tampered[tag_offset + 1..tag_offset + 9].copy_from_slice(&u64::MAX.to_le_bytes());
        let err = match decode(&EngineCheckpoint::from_bytes(tampered)) {
            Err(e) => e,
            Ok(_) => panic!("dangling window reference must fail decode"),
        };
        assert!(matches!(err, TgsError::CorruptCheckpoint { .. }));
    }

    /// A hand-built checkpoint head: a valid configuration with `k`
    /// clusters, an empty vocabulary, a `0×k` prior, no window, and the
    /// history step — everything up to the history user count.
    fn empty_vocab_head(k: u64) -> Writer {
        let mut buf = Writer::new();
        buf.raw(MAGIC);
        buf.u64(k);
        for v in [0.5, 0.5, 0.5, 0.5] {
            buf.f64(v); // alpha, beta, gamma, tau
        }
        buf.u64(3); // window
        buf.raw(&[1]); // normalize_window
        buf.u64(4); // max_iters
        buf.f64(0.0); // tol
        buf.u64(7); // seed
        buf.raw(&[1, 0]); // init, track_objective
        buf.u64(8); // queue_depth
        buf.u64(2); // min_token_len
        buf.raw(&[0, 0, 0]); // tokenizer flags, weighting
        buf.u64(0); // vocabulary length
        buf.u64(16); // prior: a 0×k matrix is just its header
        buf.u64(0);
        buf.u64(k);
        buf.u64(0); // solver steps
        buf.u64(0); // window length
        buf.u64(0); // history step
        buf
    }

    #[test]
    fn a_huge_k_cannot_overflow_the_record_size_checks() {
        // An empty vocabulary lets any `k` pass the prior's shape check,
        // so the per-record size arithmetic must not wrap on it.
        let k = 1u64 << 61;
        let mut history = empty_vocab_head(k);
        history.u64(1); // one history user...
        history.u64(0); // ...id 0...
        history.u64(1); // ...with one record of 8(k+1) bytes
        history.u64(0);
        let mut timeline = empty_vocab_head(k);
        timeline.u64(0); // no history users
        timeline.u64(1); // one timeline entry of 8(7+2k)+1 bytes
        timeline.u64(0);
        for (case, buf) in [("history", history), ("timeline", timeline)] {
            let bytes = buf.finish();
            match decode(&EngineCheckpoint::from_bytes(bytes)) {
                Err(TgsError::CorruptCheckpoint { .. }) => {}
                Err(e) => panic!("{case}: {e:?}"),
                Ok(_) => panic!("{case}: decoded"),
            }
        }
    }

    #[test]
    fn garbage_is_rejected_not_panicked() {
        for bad in [
            Vec::new(),
            b"short".to_vec(),
            b"NOTMAGIC________________".to_vec(),
            MAGIC.to_vec(), // header only, truncated body
        ] {
            let ckpt = EngineCheckpoint::from_bytes(bad);
            assert!(decode(&ckpt).is_err());
        }
    }

    #[test]
    fn truncations_of_a_valid_checkpoint_never_panic() {
        use crate::{EngineBuilder, EngineSnapshot};
        let corpus = tgs_data::generate(&tgs_data::presets::tiny(13));
        let engine = EngineBuilder::new().k(3).max_iters(4).fit(&corpus).unwrap();
        engine
            .ingest(EngineSnapshot::from_corpus_window(
                &corpus,
                0,
                corpus.num_days,
            ))
            .unwrap();
        engine.flush().unwrap();
        let full = engine.checkpoint().unwrap().as_bytes().to_vec();
        // Every prefix must either decode (only the full stream does) or
        // fail with a typed error — never panic.
        for cut in (0..full.len()).step_by(97).chain([full.len() - 1]) {
            let ckpt = EngineCheckpoint::from_bytes(full[..cut].to_vec());
            assert!(decode(&ckpt).is_err(), "prefix of {cut} bytes decoded");
        }
        assert!(decode(&EngineCheckpoint::from_bytes(full)).is_ok());
    }

    /// Restores mutated bytes: the outcome must be a `CorruptCheckpoint`
    /// error or an engine that answers queries and checkpoints again —
    /// never a panic. Returns whether it restored.
    fn restore_or_corrupt(bytes: Vec<u8>, case: &str) -> bool {
        match crate::SentimentEngine::restore(&EngineCheckpoint::from_bytes(bytes)) {
            Ok(engine) => {
                engine.query().timeline(..);
                engine.checkpoint().expect(case);
                true
            }
            Err(e) => {
                assert!(
                    matches!(e, TgsError::CorruptCheckpoint { .. }),
                    "{case}: {e:?}"
                );
                false
            }
        }
    }

    fn put_u64(buf: &mut [u8], at: usize, v: u64) {
        buf[at..at + 8].copy_from_slice(&v.to_le_bytes());
    }

    fn get_u64(buf: &[u8], at: usize) -> u64 {
        u64::from_le_bytes(buf[at..at + 8].try_into().unwrap())
    }

    #[test]
    fn mutated_checkpoints_fail_typed_or_restore() {
        // A generous budget (window as store references) and a starving
        // one (evictions, inline window) cover both window encodings.
        for (case, budget) in [("roomy", 64 << 20), ("evicting", 4 << 10)] {
            let full = streamed_engine(3, budget).checkpoint().unwrap();
            let full = full.as_bytes();
            let fields = layout::fields(full);
            assert!(fields.counts.len() > 50 && !fields.entry_lens.is_empty());

            for &at in &fields.counts {
                for lie in layout::count_lies(full, at) {
                    let mut bad = full.to_vec();
                    put_u64(&mut bad, at, lie);
                    assert!(
                        !restore_or_corrupt(bad, &format!("{case}: count @{at} = {lie}")),
                        "{case}: a count of {lie} @{at} restored"
                    );
                }
            }
            for &at in &fields.entry_lens {
                let len = get_u64(full, at);
                for lie in [len - 8, len - 1, len + 1, len + 8] {
                    let mut bad = full.to_vec();
                    put_u64(&mut bad, at, lie);
                    assert!(
                        !restore_or_corrupt(bad, &format!("{case}: entry length @{at}")),
                        "{case}: entry length {lie} (really {len}) @{at} restored"
                    );
                }
            }
            for &at in &fields.matrix_heads {
                let (rows, cols) = (get_u64(full, at), get_u64(full, at + 8));
                for (r, c) in layout::head_lies(rows, cols) {
                    let mut bad = full.to_vec();
                    put_u64(&mut bad, at, r);
                    put_u64(&mut bad, at + 8, c);
                    assert!(
                        !restore_or_corrupt(bad, &format!("{case}: matrix head @{at}")),
                        "{case}: matrix head {r}×{c} (really {rows}×{cols}) @{at} restored"
                    );
                }
                let mut swapped = full.to_vec();
                put_u64(&mut swapped, at, cols);
                put_u64(&mut swapped, at + 8, rows);
                restore_or_corrupt(swapped, &format!("{case}: swapped head @{at}"));
            }
            // Every bit of the configuration header (an out-of-domain
            // value is corruption too, not a config error or a huge queue).
            for at in MAGIC.len()..layout::CONFIG_END {
                for bit in 0..8 {
                    let mut bad = full.to_vec();
                    bad[at] ^= 1 << bit;
                    restore_or_corrupt(bad, &format!("{case}: config bit {bit} @{at}"));
                }
            }
            for (i, at) in layout::seeded_offsets(0xC0FFEE, 400, full.len())
                .into_iter()
                .enumerate()
            {
                let mut bad = full.to_vec();
                bad[at] ^= 1 << (i % 8);
                restore_or_corrupt(bad, &format!("{case}: bit {} @{at}", i % 8));
            }
        }
    }

    #[test]
    fn adopted_store_bytes_equal_the_decode_reencode_path() {
        // The decoder adopts store entries instead of decoding and
        // re-putting them; both paths must build the same stores.
        let ckpt = streamed_engine(3, 4 << 10).checkpoint().unwrap();
        let (_, _, state) = decode(&ckpt).unwrap();
        assert!(
            ckpt.bytes.is_unique(),
            "adopted entries must be copies, not views pinning the checkpoint"
        );
        for adopted in [&state.sf_store, &state.sp_store] {
            let mut reput = SnapshotStore::new(adopted.budget_bytes());
            for (t, bytes) in adopted.iter() {
                reput.put(t, &decode_matrix(bytes).unwrap());
            }
            assert!(!adopted.is_empty());
            assert_eq!(
                adopted.iter().collect::<Vec<_>>(),
                reput.iter().collect::<Vec<_>>()
            );
            assert_eq!(adopted.used_bytes(), reput.used_bytes());
        }
    }
}
