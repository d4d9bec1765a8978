//! Byte-level checkpointing of a whole engine session.
//!
//! The format is a versioned little-endian stream:
//! configuration → vocabulary → lexicon prior → solver temporal state
//! (`Sf` window, per-user history, step counter) → recorded timeline →
//! per-user observations → the bounded `Sf`/`Sp` factor stores. Every
//! read is bounds-checked; structural violations surface as
//! [`TgsError::CorruptCheckpoint`], never a panic.
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
//! and observation tracks — are parsed in one pass over a slice whose
//! length the record count has already been checked against. Factor-store
//! entries are *adopted*, not decoded and re-encoded: each entry's
//! 16-byte matrix header is validated against its length (the checks
//! [`decode_matrix`] applies), then one owned copy of the bytes enters
//! the store — byte-identical to what the old decode → re-encode path
//! produced, and never a view that would pin the whole checkpoint.
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

use bytes::{Buf, BufMut, Bytes, BytesMut};
use tgs_core::{
    decode_matrix, encode_matrix, encoded_shape, InitStrategy, OnlineConfig, OnlineSolver,
    OnlineSolverState, SnapshotStore, TgsError,
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
// Checked read/write helpers over the vendored `bytes` surface.
// ---------------------------------------------------------------------

fn corrupt(what: &str) -> TgsError {
    TgsError::corrupt(format!("truncated or malformed field: {what}"))
}

pub(crate) fn rd_u64(b: &mut Bytes, what: &str) -> Result<u64, TgsError> {
    let v = u64::from_le_bytes(*b.as_slice().first_chunk().ok_or_else(|| corrupt(what))?);
    b.advance(8);
    Ok(v)
}

pub(crate) fn rd_usize(b: &mut Bytes, what: &str) -> Result<usize, TgsError> {
    usize::try_from(rd_u64(b, what)?).map_err(|_| corrupt(what))
}

pub(crate) fn rd_f64(b: &mut Bytes, what: &str) -> Result<f64, TgsError> {
    rd_u64(b, what).map(f64::from_bits)
}

pub(crate) fn rd_u8(b: &mut Bytes, what: &str) -> Result<u8, TgsError> {
    let byte = *b.as_slice().first().ok_or_else(|| corrupt(what))?;
    b.advance(1);
    Ok(byte)
}

pub(crate) fn rd_bool(b: &mut Bytes, what: &str) -> Result<bool, TgsError> {
    match rd_u8(b, what)? {
        0 => Ok(false),
        1 => Ok(true),
        _ => Err(corrupt(what)),
    }
}

/// Guards list headers: each element needs at least `elem_bytes`, so a
/// corrupt count can't trigger a huge allocation.
pub(crate) fn rd_count(b: &mut Bytes, elem_bytes: usize, what: &str) -> Result<usize, TgsError> {
    let count = rd_usize(b, what)?;
    if count.saturating_mul(elem_bytes.max(1)) > b.remaining() {
        return Err(corrupt(what));
    }
    Ok(count)
}

fn wr_str(buf: &mut BytesMut, s: &str) {
    buf.put_u64_le(s.len() as u64);
    buf.put_slice(s.as_bytes());
}

/// Reads a `count`-prefixed list of fixed-width records — a `u64` key
/// (mapped through `key`) followed by `k` `f64`s — in one pass: the
/// count check proves the whole `count × 8(k+1)` run is present, so the
/// records are cut from that slice without per-field bounds checks.
pub(crate) fn rd_rows<K>(
    b: &mut Bytes,
    k: usize,
    what: &str,
    key: impl Fn(u64) -> K,
) -> Result<Vec<(K, Vec<f64>)>, TgsError> {
    let record = k.saturating_add(1).saturating_mul(8);
    let count = rd_count(b, record, what)?;
    let run = count * record;
    let rows = b.as_slice()[..run]
        .chunks_exact(record)
        .map(|rec| {
            let (head, values) = rec.split_at(8);
            let row = values
                .chunks_exact(8)
                .map(|v| f64::from_le_bytes(v.try_into().expect("8-byte chunk")))
                .collect();
            (
                key(u64::from_le_bytes(head.try_into().expect("8-byte key"))),
                row,
            )
        })
        .collect();
    b.advance(run);
    Ok(rows)
}

fn rd_str(b: &mut Bytes, what: &str) -> Result<String, TgsError> {
    let len = rd_count(b, 1, what)?;
    let s = std::str::from_utf8(&b.as_slice()[..len])
        .map_err(|_| corrupt(what))?
        .to_owned();
    b.advance(len);
    Ok(s)
}

fn wr_matrix(buf: &mut BytesMut, m: &DenseMatrix) {
    let encoded = encode_matrix(m);
    buf.put_u64_le(encoded.len() as u64);
    buf.put_slice(encoded.as_slice());
}

/// Reads a length-prefixed [`encode_matrix`] buffer as a view, after
/// validating its header against the length ([`encoded_shape`]).
pub(crate) fn rd_encoded(b: &mut Bytes, what: &str) -> Result<Bytes, TgsError> {
    let len = rd_count(b, 1, what)?;
    let view = b.slice(..len);
    b.advance(len);
    encoded_shape(view.as_slice()).ok_or_else(|| corrupt(what))?;
    Ok(view)
}

pub(crate) fn rd_matrix(b: &mut Bytes, what: &str) -> Result<DenseMatrix, TgsError> {
    decode_matrix(rd_encoded(b, what)?).ok_or_else(|| corrupt(what))
}

fn init_to_u8(init: InitStrategy) -> u8 {
    match init {
        InitStrategy::Random => 0,
        InitStrategy::LexiconSeeded => 1,
    }
}

fn init_from_u8(v: u8) -> Result<InitStrategy, TgsError> {
    match v {
        0 => Ok(InitStrategy::Random),
        1 => Ok(InitStrategy::LexiconSeeded),
        _ => Err(corrupt("init strategy")),
    }
}

fn weighting_to_u8(w: Weighting) -> u8 {
    match w {
        Weighting::Counts => 0,
        Weighting::Binary => 1,
        Weighting::TfIdf => 2,
    }
}

fn weighting_from_u8(v: u8) -> Result<Weighting, TgsError> {
    match v {
        0 => Ok(Weighting::Counts),
        1 => Ok(Weighting::Binary),
        2 => Ok(Weighting::TfIdf),
        _ => Err(corrupt("weighting")),
    }
}

/// Serializes one timeline entry — the per-snapshot layout shared by the
/// full checkpoint's timeline section and the delta codec's new-entry
/// section (`crate::delta`).
pub(crate) fn wr_timeline_entry(buf: &mut BytesMut, entry: &TimelineEntry) {
    buf.put_u64_le(entry.timestamp);
    buf.put_u64_le(entry.tweets as u64);
    buf.put_u64_le(entry.users as u64);
    buf.put_u64_le(entry.new_users as u64);
    buf.put_u64_le(entry.evolving_users as u64);
    buf.put_u64_le(entry.iterations as u64);
    buf.put_slice(&[entry.converged as u8]);
    buf.put_f64_le(entry.objective);
    for &v in &entry.tweet_counts {
        buf.put_u64_le(v as u64);
    }
    for &v in &entry.user_counts {
        buf.put_u64_le(v as u64);
    }
}

/// Smallest serialized size of one timeline entry — the `rd_count`
/// floor for timeline lists (saturating, so a corrupt `k` cannot wrap).
pub(crate) fn timeline_entry_floor(k: usize) -> usize {
    k.saturating_mul(2)
        .saturating_add(7)
        .saturating_mul(8)
        .saturating_add(1)
}

/// Inverse of [`wr_timeline_entry`].
pub(crate) fn rd_timeline_entry(b: &mut Bytes, k: usize) -> Result<TimelineEntry, TgsError> {
    let timestamp = rd_u64(b, "timeline timestamp")?;
    let tweets = rd_usize(b, "timeline tweets")?;
    let users = rd_usize(b, "timeline users")?;
    let new_users = rd_usize(b, "timeline new users")?;
    let evolving_users = rd_usize(b, "timeline evolving users")?;
    let iterations = rd_usize(b, "timeline iterations")?;
    let converged = rd_bool(b, "timeline converged")?;
    let objective = rd_f64(b, "timeline objective")?;
    let mut tweet_counts = Vec::with_capacity(k);
    for _ in 0..k {
        tweet_counts.push(rd_usize(b, "timeline tweet count")?);
    }
    let mut user_counts = Vec::with_capacity(k);
    for _ in 0..k {
        user_counts.push(rd_usize(b, "timeline user count")?);
    }
    Ok(TimelineEntry {
        timestamp,
        tweets,
        users,
        new_users,
        evolving_users,
        iterations,
        converged,
        objective,
        tweet_counts,
        user_counts,
    })
}

// ---------------------------------------------------------------------
// Encode
// ---------------------------------------------------------------------

pub(crate) fn encode(
    shared: &EngineShared,
    solver: &OnlineSolver,
    state: &EngineState,
) -> EngineCheckpoint {
    let mut buf = BytesMut::with_capacity(1 << 16);
    buf.put_slice(MAGIC);

    // --- Configuration ---
    let c = &shared.config;
    buf.put_u64_le(c.k as u64);
    buf.put_f64_le(c.alpha);
    buf.put_f64_le(c.beta);
    buf.put_f64_le(c.gamma);
    buf.put_f64_le(c.tau);
    buf.put_u64_le(c.window as u64);
    buf.put_slice(&[c.normalize_window as u8]);
    buf.put_u64_le(c.max_iters as u64);
    buf.put_f64_le(c.tol);
    buf.put_u64_le(c.seed);
    buf.put_slice(&[init_to_u8(c.init), c.track_objective as u8]);
    buf.put_u64_le(shared.queue_depth as u64);
    buf.put_u64_le(shared.tokenizer.min_token_len as u64);
    buf.put_slice(&[
        shared.tokenizer.keep_mentions as u8,
        shared.tokenizer.keep_numbers as u8,
        weighting_to_u8(shared.weighting),
    ]);

    // --- Vocabulary + prior ---
    buf.put_u64_le(shared.vocab.len() as u64);
    for token in shared.vocab.tokens() {
        wr_str(&mut buf, token);
    }
    wr_matrix(&mut buf, &shared.sf0);

    // --- Solver temporal state ---
    let solver_state = solver.export_state();
    buf.put_u64_le(solver_state.steps);
    buf.put_u64_le(solver_state.sf_window.len() as u64);
    for sf in &solver_state.sf_window {
        // Compaction: each window matrix is the Sf(t−i) the solver pushed
        // when it committed snapshot t−i — byte-identical to that
        // timestamp's Sf-store entry unless the budget evicted it. Write
        // a back-reference when the store still holds the bytes; inline
        // them only on eviction.
        let encoded = encode_matrix(sf);
        match state
            .sf_store
            .iter()
            .find(|(_, bytes)| bytes.as_slice() == encoded.as_slice())
        {
            Some((t, _)) => {
                buf.put_slice(&[1u8]);
                buf.put_u64_le(t);
            }
            None => {
                buf.put_slice(&[0u8]);
                buf.put_u64_le(encoded.len() as u64);
                buf.put_slice(encoded.as_slice());
            }
        }
    }
    // History steps are signed (rebalance-migrated rows can predate a
    // young solver's step 0); two's-complement u64 round-trips them
    // exactly, and pre-elastic checkpoints only ever held non-negative
    // values, so old streams decode unchanged.
    buf.put_u64_le(solver_state.history_step as u64);
    buf.put_u64_le(solver_state.history_rows.len() as u64);
    for (user, entries) in &solver_state.history_rows {
        buf.put_u64_le(*user as u64);
        buf.put_u64_le(entries.len() as u64);
        for (step, row) in entries {
            buf.put_u64_le(*step as u64);
            for &v in row {
                buf.put_f64_le(v);
            }
        }
    }

    // --- Timeline ---
    buf.put_u64_le(state.timeline.len() as u64);
    for entry in state.timeline.values() {
        wr_timeline_entry(&mut buf, entry);
    }

    // --- Per-user observations (sorted by user id for determinism) ---
    let mut users: Vec<_> = state.user_track.iter().collect();
    users.sort_unstable_by_key(|(&u, _)| u);
    buf.put_u64_le(users.len() as u64);
    for (&user, track) in users {
        buf.put_u64_le(user as u64);
        buf.put_u64_le(track.len() as u64);
        for (t, dist) in track {
            buf.put_u64_le(*t);
            for &v in dist {
                buf.put_f64_le(v);
            }
        }
    }

    // --- Factor stores ---
    for store in [&state.sf_store, &state.sp_store] {
        buf.put_u64_le(store.budget_bytes() as u64);
        buf.put_u64_le(store.len() as u64);
        for (t, bytes) in store.iter() {
            buf.put_u64_le(t);
            buf.put_u64_le(bytes.len() as u64);
            buf.put_slice(bytes.as_slice());
        }
    }

    EngineCheckpoint {
        bytes: buf.freeze(),
    }
}

// ---------------------------------------------------------------------
// Decode
// ---------------------------------------------------------------------

pub(crate) fn decode(
    ckpt: &EngineCheckpoint,
) -> Result<(EngineShared, OnlineSolver, EngineState), TgsError> {
    let mut b = ckpt.bytes.clone();
    if b.remaining() < MAGIC.len() {
        return Err(corrupt("magic header"));
    }
    if !b.as_slice().starts_with(MAGIC) {
        return Err(TgsError::corrupt(
            "unrecognized magic header (not a tgs-engine checkpoint, or a newer format version)",
        ));
    }
    b.advance(MAGIC.len());

    // --- Configuration ---
    let k = rd_usize(&mut b, "k")?;
    let config = OnlineConfig {
        k,
        alpha: rd_f64(&mut b, "alpha")?,
        beta: rd_f64(&mut b, "beta")?,
        gamma: rd_f64(&mut b, "gamma")?,
        tau: rd_f64(&mut b, "tau")?,
        window: rd_usize(&mut b, "window")?,
        normalize_window: rd_bool(&mut b, "normalize_window")?,
        max_iters: rd_usize(&mut b, "max_iters")?,
        tol: rd_f64(&mut b, "tol")?,
        seed: rd_u64(&mut b, "seed")?,
        init: init_from_u8(rd_u8(&mut b, "init")?)?,
        track_objective: rd_bool(&mut b, "track_objective")?,
    };
    // A checkpoint only ever carries a configuration the builder
    // accepted, so an out-of-domain field means corrupt bytes.
    config
        .try_validate()
        .map_err(|e| TgsError::corrupt(format!("invalid configuration: {e}")))?;
    let queue_depth = rd_usize(&mut b, "queue_depth")?.max(1);
    // The queue's slots are allocated up front: a corrupt depth must
    // fail the restore, not the allocator.
    if queue_depth > MAX_QUEUE_DEPTH {
        return Err(corrupt("queue_depth"));
    }
    let tokenizer = TokenizerConfig {
        min_token_len: rd_usize(&mut b, "min_token_len")?,
        keep_mentions: rd_bool(&mut b, "keep_mentions")?,
        keep_numbers: rd_bool(&mut b, "keep_numbers")?,
    };
    let weighting = weighting_from_u8(rd_u8(&mut b, "weighting")?)?;

    // --- Vocabulary + prior ---
    let vocab_len = rd_count(&mut b, 8, "vocabulary length")?;
    let mut tokens = Vec::with_capacity(vocab_len);
    for _ in 0..vocab_len {
        tokens.push(rd_str(&mut b, "vocabulary token")?);
    }
    let vocab = Vocabulary::from_tokens(tokens);
    if vocab.len() != vocab_len {
        return Err(TgsError::corrupt("duplicate vocabulary tokens"));
    }
    let sf0 = rd_matrix(&mut b, "sf0 prior")?;
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
    enum WindowEntry {
        Inline(DenseMatrix),
        Ref(u64),
    }
    let steps = rd_u64(&mut b, "solver steps")?;
    let window_len = rd_count(&mut b, 9, "sf window length")?;
    let mut window_entries = Vec::with_capacity(window_len);
    for _ in 0..window_len {
        match rd_u8(&mut b, "sf window entry tag")? {
            0 => window_entries.push(WindowEntry::Inline(rd_matrix(
                &mut b,
                "sf window snapshot",
            )?)),
            1 => window_entries.push(WindowEntry::Ref(rd_u64(&mut b, "sf window reference")?)),
            _ => return Err(corrupt("sf window entry tag")),
        }
    }
    // Signed via two's complement — see the encode side.
    let history_step = rd_u64(&mut b, "history step")? as i64;
    let history_users = rd_count(&mut b, 16, "history user count")?;
    let mut history_rows = Vec::with_capacity(history_users);
    for _ in 0..history_users {
        let user = rd_usize(&mut b, "history user id")?;
        history_rows.push((
            user,
            rd_rows(&mut b, k, "history entry count", |step| step as i64)?,
        ));
    }

    // --- Timeline ---
    let timeline_len = rd_count(&mut b, timeline_entry_floor(k), "timeline length")?;
    let mut timeline = std::collections::BTreeMap::new();
    for _ in 0..timeline_len {
        let entry = rd_timeline_entry(&mut b, k)?;
        timeline.insert(entry.timestamp, entry);
    }

    // --- Per-user observations ---
    let track_users = rd_count(&mut b, 16, "user track count")?;
    let mut user_track = std::collections::HashMap::with_capacity(track_users);
    for _ in 0..track_users {
        let user = rd_usize(&mut b, "user track id")?;
        user_track.insert(user, rd_rows(&mut b, k, "user observation count", |t| t)?);
    }

    // --- Factor stores (validated bytes adopted as-is) ---
    let mut stores = Vec::with_capacity(2);
    for name in ["sf store", "sp store"] {
        let budget = rd_usize(&mut b, name)?;
        let mut store = SnapshotStore::new(budget);
        let entries = rd_count(&mut b, 16, name)?;
        for _ in 0..entries {
            let t = rd_u64(&mut b, name)?;
            let entry = rd_encoded(&mut b, name)?;
            store.push_encoded(t, Bytes::copy_from_slice(entry.as_slice()));
        }
        stores.push(store);
    }
    let sp_store = stores.pop().expect("two stores decoded");
    let sf_store = stores.pop().expect("two stores decoded");

    if b.remaining() != 0 {
        return Err(TgsError::corrupt(format!(
            "{} trailing bytes after the final field",
            b.remaining()
        )));
    }

    // --- Resolve the (possibly compacted) Sf window against the store ---
    let mut sf_window = Vec::with_capacity(window_entries.len());
    for entry in window_entries {
        let sf = match entry {
            WindowEntry::Inline(sf) => sf,
            WindowEntry::Ref(t) => sf_store.get(t).ok_or_else(|| {
                TgsError::corrupt(format!(
                    "sf window references timestamp {t}, which the sf store does not retain"
                ))
            })?,
        };
        // Semantic check: the window must aggregate against this
        // vocabulary, or the first post-restore ingest would blow up
        // inside the solver instead of failing the restore.
        if sf.shape() != (vocab.len(), k) {
            return Err(TgsError::corrupt(format!(
                "sf window snapshot is {}×{}, expected {}×{k}",
                sf.rows(),
                sf.cols(),
                vocab.len()
            )));
        }
        sf_window.push(sf);
    }
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
        /// `rd_count` (store-entry lengths included).
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
    fn empty_vocab_head(k: u64) -> BytesMut {
        let mut buf = BytesMut::new();
        buf.put_slice(MAGIC);
        buf.put_u64_le(k);
        for v in [0.5, 0.5, 0.5, 0.5] {
            buf.put_f64_le(v); // alpha, beta, gamma, tau
        }
        buf.put_u64_le(3); // window
        buf.put_slice(&[1]); // normalize_window
        buf.put_u64_le(4); // max_iters
        buf.put_f64_le(0.0); // tol
        buf.put_u64_le(7); // seed
        buf.put_slice(&[1, 0]); // init, track_objective
        buf.put_u64_le(8); // queue_depth
        buf.put_u64_le(2); // min_token_len
        buf.put_slice(&[0, 0, 0]); // tokenizer flags, weighting
        buf.put_u64_le(0); // vocabulary length
        buf.put_u64_le(16); // prior: a 0×k matrix is just its header
        buf.put_u64_le(0);
        buf.put_u64_le(k);
        buf.put_u64_le(0); // solver steps
        buf.put_u64_le(0); // window length
        buf.put_u64_le(0); // history step
        buf
    }

    #[test]
    fn a_huge_k_cannot_overflow_the_record_size_checks() {
        // An empty vocabulary lets any `k` pass the prior's shape check,
        // so the per-record size arithmetic must not wrap on it.
        let k = 1u64 << 61;
        let mut history = empty_vocab_head(k);
        history.put_u64_le(1); // one history user...
        history.put_u64_le(0); // ...id 0...
        history.put_u64_le(1); // ...with one record of 8(k+1) bytes
        history.put_u64_le(0);
        let mut timeline = empty_vocab_head(k);
        timeline.put_u64_le(0); // no history users
        timeline.put_u64_le(1); // one timeline entry of 8(7+2k)+1 bytes
        timeline.put_u64_le(0);
        for (case, buf) in [("history", history), ("timeline", timeline)] {
            let bytes = buf.freeze().as_slice().to_vec();
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
