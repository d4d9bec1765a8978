//! Byte-level checkpointing of a whole engine session.
//!
//! **Format (v3): keyed records.** After the magic, a checkpoint is a run
//! of `(kind: u8, key: u64, len: u64, body)` records, strictly ascending
//! by `(kind, key)`:
//!
//! | kind | key | body |
//! |---|---|---|
//! | `HEAD` | 0 | configuration, vocabulary, `Sf0` prior |
//! | `SOLVER` | 0 | step counters and the `Sf` window |
//! | `HISTORY` | user | the solver's `(step, Su row)` rows, newest first |
//! | `TRACK` | user | the user's `(timestamp, distribution)` rows |
//! | `TIMELINE` | timestamp | one timeline entry |
//! | `SF_INDEX` / `SP_INDEX` | 0 | store budget, then timestamps in FIFO order |
//! | `SF_ENTRY` / `SP_ENTRY` | timestamp | one encoded factor matrix |
//!
//! Row bodies are headerless fixed-width `(key, k × f64)` runs, so rows
//! appended to a track concatenate onto its record. A delta checkpoint
//! ([`crate::delta`]) is the list of records that changed, written by the
//! same per-kind writers, and applying it is a merge of record streams.
//! Every body is read by its kind's reader over exactly its
//! bytes, so a structural violation surfaces as
//! [`TgsError::CorruptCheckpoint`], never a panic or a large allocation.
//!
//! Restoration is exact (f64 ↔ LE bits) and single-pass: the decoder
//! reads straight from the checkpoint's shared buffer (a multi-shard
//! restore decodes its sections concurrently from zero-copy views), cuts
//! row runs in one pass, and adopts each factor-store entry as one owned
//! copy after checking its matrix header against its length.
//!
//! **Compaction.** The stores only hold what survived their byte
//! budgets, and the solver's `Sf` window — whose matrices equal the
//! newest retained `Sf`-store entries — is written as references into
//! the `Sf` store, falling back to inline bytes only for a timestamp the
//! store already evicted.

use std::collections::{BTreeMap, HashMap};

use bytes::Bytes;
use tgs_core::codec::{self, CodecError, CodecErrorKind, Reader, Record, Writer};
use tgs_core::{
    encode_matrix, InitStrategy, OnlineConfig, OnlineSolver, OnlineSolverState, SnapshotStore,
    TgsError, UserHistoryRows,
};
use tgs_linalg::DenseMatrix;
use tgs_text::{TokenizerConfig, Vocabulary, Weighting};

use crate::builder::MAX_QUEUE_DEPTH;
use crate::engine::{EngineShared, EngineState};
use crate::query::TimelineEntry;

/// Magic + format version prefix (v3: keyed records).
pub(crate) const MAGIC: &[u8; 8] = b"TGSENG\x00\x03";

// Record kinds, in stream order (see the table above). `HEAD`, `SOLVER`
// and the two store indexes are singletons with key 0.
pub(crate) const HEAD: u8 = 0;
pub(crate) const SOLVER: u8 = 1;
pub(crate) const HISTORY: u8 = 2;
pub(crate) const TRACK: u8 = 3;
pub(crate) const TIMELINE: u8 = 4;
pub(crate) const SF_INDEX: u8 = 5;
pub(crate) const SF_ENTRY: u8 = 6;
pub(crate) const SP_INDEX: u8 = 7;
pub(crate) const SP_ENTRY: u8 = 8;

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

/// Fails unless `rec` sorts strictly after `last`, then advances `last`.
pub(crate) fn in_order(last: &mut Option<(u8, u64)>, rec: &Record<'_>) -> Result<(), TgsError> {
    let at = (rec.kind, rec.key);
    if last.is_some_and(|prev| prev >= at) {
        return Err(TgsError::corrupt(format!("record {at:?} is out of order")));
    }
    *last = Some(at);
    Ok(())
}

/// The records of a checkpoint, read in stream order.
pub(crate) struct Records<'a> {
    r: Reader<'a>,
    last: Option<(u8, u64)>,
}

impl<'a> Records<'a> {
    /// Checks the magic and positions at the first record.
    pub(crate) fn new(bytes: &'a [u8]) -> Result<Self, TgsError> {
        let mut r = Reader::new(bytes);
        r.magic(MAGIC, "tgs-engine checkpoint magic")?;
        Ok(Self { r, last: None })
    }

    /// The next record, or `None` at the end of the stream.
    pub(crate) fn next(&mut self) -> Result<Option<Record<'a>>, TgsError> {
        if self.r.remaining() == 0 {
            return Ok(None);
        }
        let rec = self.r.record("checkpoint record")?;
        in_order(&mut self.last, &rec)?;
        Ok(Some(rec))
    }

    /// The head record, which must come first, and its decoding.
    pub(crate) fn head(&mut self) -> Result<(Record<'a>, EngineShared), TgsError> {
        match self.next()? {
            Some(rec) if rec.kind == HEAD && rec.key == 0 => Ok((rec, rd_head(rec.body)?)),
            _ => Err(TgsError::corrupt("checkpoint lacks its head record")),
        }
    }
}

// ---------------------------------------------------------------------
// Per-kind writers and readers (shared with `crate::delta`)
// ---------------------------------------------------------------------

fn wr_head(w: &mut Writer, shared: &EngineShared) {
    w.record(HEAD, 0, |w| {
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
        w.usize(shared.vocab.len());
        shared.vocab.tokens().iter().for_each(|token| w.str(token));
        w.bytes(encode_matrix(&shared.sf0).as_slice());
    });
}

/// The solver record: step counters, then the `Sf` window, each matrix
/// as a reference (tag 1 + timestamp) to the identical `Sf`-store entry
/// when the store still holds one, inline (tag 0) otherwise.
pub(crate) fn wr_solver(w: &mut Writer, solver: &OnlineSolver, sf_store: &SnapshotStore) {
    w.record(SOLVER, 0, |w| {
        w.u64(solver.steps());
        // History steps are signed (rebalance-migrated rows can predate a
        // young solver's step 0); two's-complement u64 round-trips them.
        w.u64(solver.history().steps() as u64);
        w.usize(solver.sf_window_snapshots().count());
        for sf in solver.sf_window_snapshots() {
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
    });
}

/// A user's history (`(step, row)`, newest first) or track rows (all of
/// them, or in a delta's append the ones a span added). Signed history
/// steps are written as two's complement.
pub(crate) fn wr_rows<'r, K: Copy + 'r>(
    w: &mut Writer,
    kind: u8,
    user: usize,
    rows: impl IntoIterator<Item = &'r (K, Vec<f64>)>,
) where
    i128: From<K>,
{
    w.record(kind, user as u64, |w| {
        w.rows(
            rows.into_iter()
                .map(|(key, row)| (i128::from(*key) as u64, row.as_slice())),
        );
    });
}

/// One timeline entry, keyed by its timestamp.
pub(crate) fn wr_timeline(w: &mut Writer, entry: &TimelineEntry) {
    w.record(TIMELINE, entry.timestamp, |w| {
        w.usize(entry.tweets);
        w.usize(entry.users);
        w.usize(entry.new_users);
        w.usize(entry.evolving_users);
        w.usize(entry.iterations);
        w.bool(entry.converged);
        w.f64(entry.objective);
        entry.tweet_counts.iter().for_each(|&v| w.usize(v));
        entry.user_counts.iter().for_each(|&v| w.usize(v));
    });
}

/// A store's budget, then its timestamps in FIFO (eviction) order.
pub(crate) fn wr_index(w: &mut Writer, kind: u8, store: &SnapshotStore) {
    w.record(kind, 0, |w| {
        w.usize(store.budget_bytes());
        store.iter().for_each(|(t, _)| w.u64(t));
    });
}

fn rd_head(body: &[u8]) -> Result<EngineShared, TgsError> {
    let mut r = Reader::new(body);
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
    let vocab_len = r.count(8, "vocabulary length")?;
    let tokens = (0..vocab_len)
        .map(|_| r.str("vocabulary token").map(str::to_owned))
        .collect::<Result<Vec<_>, _>>()?;
    let vocab = Vocabulary::from_tokens(tokens);
    if vocab.len() != vocab_len {
        return Err(TgsError::corrupt("duplicate vocabulary tokens"));
    }
    let sf0 = r.matrix("sf0 prior")?;
    r.done("the head record")?;
    if sf0.shape() != (vocab.len(), k) {
        return Err(TgsError::corrupt(format!(
            "sf0 prior is {}×{}, expected {}×{k}",
            sf0.shape().0,
            sf0.shape().1,
            vocab.len()
        )));
    }
    Ok(EngineShared {
        vocab,
        sf0,
        config,
        tokenizer,
        weighting,
        queue_depth,
    })
}

/// One parsed `Sf` window entry; references resolve against the store.
pub(crate) enum WindowEntry {
    Inline(DenseMatrix),
    Ref(u64),
}

/// One decoded record body (the head is read by [`Records::head`]).
pub(crate) enum Body<'a> {
    /// Solver steps, history step and the parsed `Sf` window.
    Solver(u64, i64, Vec<WindowEntry>),
    History(usize, UserHistoryRows),
    Track(usize, Vec<(u64, Vec<f64>)>),
    Timeline(TimelineEntry),
    /// A store index: its budget and its timestamps in FIFO order.
    Index(usize, Vec<u64>),
    /// A store entry's validated encoded matrix.
    Entry(&'a [u8]),
}

/// Decodes one record body with its kind's reader, the check restore and
/// `apply_delta` share; singleton kinds must carry key 0.
pub(crate) fn rd_body<'a>(rec: &Record<'a>, k: usize) -> Result<Body<'a>, TgsError> {
    let user =
        || usize::try_from(rec.key).map_err(|_| TgsError::corrupt("record user id exceeds usize"));
    Ok(match rec.kind {
        SOLVER if rec.key == 0 => codec::decode(rec.body, "the solver record", |r| {
            Ok(Body::Solver(
                r.u64("solver steps")?,
                // Signed via two's complement — see the encode side.
                r.u64("history step")? as i64,
                (0..r.count(9, "sf window length")?)
                    .map(|_| match r.tag(1, "sf window entry tag")? {
                        0 => r.matrix("sf window snapshot").map(WindowEntry::Inline),
                        _ => r.u64("sf window reference").map(WindowEntry::Ref),
                    })
                    .collect::<Result<_, _>>()?,
            ))
        })?,
        // A user with history always keeps at least one row.
        HISTORY if !rec.body.is_empty() => Body::History(
            user()?,
            Reader::new(rec.body).rows(k, "history rows", |step| step as i64)?,
        ),
        TRACK => Body::Track(user()?, Reader::new(rec.body).rows(k, "track rows", |t| t)?),
        TIMELINE => codec::decode(rec.body, "the timeline record", |r| {
            Ok(Body::Timeline(TimelineEntry {
                timestamp: rec.key,
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
            }))
        })?,
        SF_INDEX | SP_INDEX if rec.key == 0 => {
            let mut r = Reader::new(rec.body);
            let budget = r.usize("store budget")?;
            let mut order = Vec::with_capacity(r.remaining() / 8);
            while r.remaining() > 0 {
                order.push(r.u64("store index timestamp")?);
            }
            Body::Index(budget, order)
        }
        SF_ENTRY | SP_ENTRY => match tgs_core::encoded_shape(rec.body) {
            Some(_) => Body::Entry(rec.body),
            None => return Err(CodecError::new("store entry", CodecErrorKind::Shape).into()),
        },
        kind => {
            return Err(TgsError::corrupt(format!(
                "unexpected record (kind {kind}, key {})",
                rec.key
            )))
        }
    })
}

/// Resolves parsed window entries against `sf_store`. Every matrix must
/// aggregate against the `vocab × k` shape, or the first ingest after a
/// restore would fail inside the solver instead of failing the restore.
fn resolve_window(
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

/// Rebuilds a store by pushing its entries in the index's FIFO order;
/// index and entries must list the same timestamps.
fn build_store(
    index: Option<(usize, Vec<u64>)>,
    mut entries: BTreeMap<u64, Bytes>,
) -> Result<SnapshotStore, TgsError> {
    let (budget, order) = index.ok_or_else(|| TgsError::corrupt("a store has no index record"))?;
    let mut store = SnapshotStore::new(budget);
    for t in order {
        let entry = entries.remove(&t).ok_or_else(|| {
            TgsError::corrupt(format!(
                "a store index names timestamp {t}, which has no entry"
            ))
        })?;
        store.push_encoded(t, entry);
    }
    match entries.keys().next() {
        Some(t) => Err(TgsError::corrupt(format!(
            "store entry {t} is missing from its index"
        ))),
        None => Ok(store),
    }
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
    wr_head(&mut w, shared);
    wr_solver(&mut w, solver, &state.sf_store);
    for (user, rows) in solver.history().sorted_rows() {
        wr_rows(&mut w, HISTORY, user, rows);
    }
    let mut users: Vec<_> = state.user_track.iter().collect();
    users.sort_unstable_by_key(|(&u, _)| u);
    for (&user, track) in users {
        wr_rows(&mut w, TRACK, user, track);
    }
    for entry in state.timeline.values() {
        wr_timeline(&mut w, entry);
    }
    for (index, entry, store) in [
        (SF_INDEX, SF_ENTRY, &state.sf_store),
        (SP_INDEX, SP_ENTRY, &state.sp_store),
    ] {
        wr_index(&mut w, index, store);
        let mut entries: Vec<_> = store.iter().collect();
        entries.sort_unstable_by_key(|(t, _)| *t);
        for (t, bytes) in entries {
            w.record(entry, t, |w| w.raw(bytes.as_slice()));
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
    let mut records = Records::new(ckpt.as_bytes())?;
    let (_, shared) = records.head()?;
    let k = shared.config.k;

    let mut solver = None;
    let mut history_rows = Vec::new();
    let mut user_track = HashMap::new();
    let mut timeline = BTreeMap::new();
    let mut indexes = [None, None];
    let mut entries = [BTreeMap::new(), BTreeMap::new()];
    while let Some(rec) = records.next()? {
        let store = usize::from(rec.kind >= SP_INDEX);
        match rd_body(&rec, k)? {
            Body::Solver(steps, history_step, window) => {
                solver = Some((steps, history_step, window));
            }
            Body::History(user, rows) => history_rows.push((user, rows)),
            Body::Track(user, rows) => {
                // Every tracked user has history, whose records came first.
                user_track.reserve(history_rows.len().saturating_sub(user_track.len()));
                user_track.insert(user, rows);
            }
            Body::Timeline(entry) => drop(timeline.insert(entry.timestamp, entry)),
            Body::Index(budget, order) => indexes[store] = Some((budget, order)),
            Body::Entry(bytes) => {
                drop(entries[store].insert(rec.key, Bytes::copy_from_slice(bytes)))
            }
        }
    }
    let (steps, history_step, window) =
        solver.ok_or_else(|| TgsError::corrupt("checkpoint has no solver record"))?;
    let [sf_index, sp_index] = indexes;
    let [sf_entries, sp_entries] = entries;
    let sf_store = build_store(sf_index, sf_entries)?;
    let sp_store = build_store(sp_index, sp_entries)?;

    // --- Resolve the (possibly compacted) Sf window against the store ---
    let sf_window = resolve_window(window, &sf_store, (shared.vocab.len(), k))?;
    let solver = OnlineSolver::from_state(
        shared.config.clone(),
        OnlineSolverState {
            steps,
            sf_window,
            history_step,
            history_rows,
        },
    )?;
    let state = EngineState {
        timeline,
        user_track,
        sf_store,
        sp_store,
        ..EngineState::new(0)
    };
    Ok((shared, solver, state))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tgs_core::decode_matrix;

    /// The solver record of a serialized checkpoint, and its body's
    /// offset in `full`.
    fn solver_record(full: &[u8]) -> (usize, &[u8]) {
        let mut records = Records::new(full).unwrap();
        while let Some(rec) = records.next().unwrap() {
            if rec.kind == SOLVER {
                return (
                    rec.body.as_ptr() as usize - full.as_ptr() as usize,
                    rec.body,
                );
            }
        }
        panic!("no solver record");
    }

    /// Each Sf-window entry's compaction tag (1 = store reference,
    /// 0 = inline matrix).
    fn window_tags(full: &[u8]) -> Vec<u8> {
        let mut r = Reader::new(solver_record(full).1);
        r.u64("steps").unwrap();
        r.u64("history step").unwrap();
        (0..r.usize("window length").unwrap())
            .map(|_| {
                let tag = r.u8("tag").unwrap();
                match tag {
                    1 => drop(r.u64("reference").unwrap()),
                    0 => drop(r.bytes("matrix").unwrap()),
                    other => panic!("unknown window tag {other}"),
                }
                tag
            })
            .collect()
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
        // The single window entry (tag 1 + timestamp) follows the two
        // counters and the window length; point it at a timestamp the
        // store never held.
        assert_eq!(window_tags(&full), vec![1]);
        let tag_offset = solver_record(&full).0 + 24;
        let mut tampered = full;
        tampered[tag_offset + 1..tag_offset + 9].copy_from_slice(&u64::MAX.to_le_bytes());
        let err = match decode(&EngineCheckpoint::from_bytes(tampered)) {
            Err(e) => e,
            Ok(_) => panic!("dangling window reference must fail decode"),
        };
        assert!(matches!(err, TgsError::CorruptCheckpoint { .. }));
    }

    /// A hand-built checkpoint: a head with a valid configuration, `k`
    /// clusters, an empty vocabulary and a `0×k` prior, then an empty
    /// solver record.
    fn empty_vocab_head(k: u64) -> Writer {
        let mut w = Writer::new();
        w.raw(MAGIC);
        w.record(HEAD, 0, |w| {
            w.u64(k);
            for v in [0.5, 0.5, 0.5, 0.5] {
                w.f64(v); // alpha, beta, gamma, tau
            }
            w.u64(3); // window
            w.raw(&[1]); // normalize_window
            w.u64(4); // max_iters
            w.f64(0.0); // tol
            w.u64(7); // seed
            w.raw(&[1, 0]); // init, track_objective
            w.u64(8); // queue_depth
            w.u64(2); // min_token_len
            w.raw(&[0, 0, 0]); // tokenizer flags, weighting
            w.u64(0); // vocabulary length
            w.u64(16); // prior: a 0×k matrix is just its header
            w.u64(0);
            w.u64(k);
        });
        // Solver steps, history step, window length.
        w.record(SOLVER, 0, |w| (0..3).for_each(|_| w.u64(0)));
        w
    }

    #[test]
    fn a_huge_k_cannot_overflow_the_record_size_checks() {
        // An empty vocabulary lets any `k` pass the prior's shape check,
        // so the per-record size arithmetic must not wrap on it.
        let k = 1u64 << 61;
        let mut history = empty_vocab_head(k);
        history.record(HISTORY, 0, |w| w.u64(0)); // one 8-byte "row"
        let mut timeline = empty_vocab_head(k);
        timeline.record(TIMELINE, 0, |w| w.u64(0));
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
