//! Delta-encoded incremental checkpoints: O(changes) snapshots.
//!
//! A full [`EngineCheckpoint`] costs O(state) on every call, but between
//! steps of the paper's online algorithm only the records of the users
//! and timestamps new documents touched change. So the engine can ship a
//! **base** plus per-step **deltas**:
//! [`SentimentEngine::checkpoint_base`](crate::SentimentEngine::checkpoint_base)
//! registers a full checkpoint as a *mark* (an engine-local `u64` id),
//! [`SentimentEngine::delta_since`](crate::SentimentEngine::delta_since)
//! encodes the records that changed since a mark as a [`CheckpointDelta`]
//! (registering its tip as the next mark), and
//! [`SentimentEngine::apply_delta`](crate::SentimentEngine::apply_delta)
//! folds it into the base, **byte-identical** to the full checkpoint at
//! the tip. A [`DeltaChain`] applies each delta as it arrives.
//!
//! **Format (v2).** After the magic and the `(base id, new id)` header, a
//! delta is a run of `(op: u8, record)` pairs strictly ascending by the
//! record's `(kind, key)` ([`crate::checkpoint`] lists the kinds): a
//! *put* replaces or inserts a record, a *remove* drops an evicted store
//! entry, and an *append* adds rows to a track. Each record is written by
//! the full checkpoint's per-kind writer, so applying is one merge pass:
//! untouched base records are copied as bytes, and each delta record is
//! checked by the per-kind reader restore uses. The delta carries every
//! record that changed: the solver record; the history of every user the
//! span touched *or* pruned (window pruning shortens silent users'
//! history too); a track append per touched user; a timeline entry per
//! step; and per store, its index and the entries that came or went.
//!
//! Deltas are *unavailable* (`Ok(None)`, not an error) when the engine
//! cannot prove coverage: an unknown or trimmed mark, or an epoch bump
//! (user migration or absorb rewrites state outside the append-only
//! stream). Callers fall back to a fresh base.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use bytes::Bytes;
use tgs_core::codec::{Reader, Writer};
use tgs_core::{OnlineSolver, SnapshotStore, TgsError};

use crate::checkpoint::{
    self, in_order, rd_body, wr_index, wr_rows, wr_solver, wr_timeline, EngineCheckpoint, Records,
    HISTORY, SF_ENTRY, SF_INDEX, SP_ENTRY, SP_INDEX, TRACK,
};
use crate::engine::EngineState;

/// Magic + format version prefix of a serialized delta (v2: record ops).
const MAGIC: &[u8; 8] = b"TGSDLT\x00\x02";

// Delta ops: replace or insert a record, drop one, append track rows.
const PUT: u8 = 0;
const REMOVE: u8 = 1;
const APPEND: u8 = 2;

/// Marks retained per engine: a delta can only be requested against one
/// of the last this-many bases/tips. Old marks age out silently (their
/// `delta_since` returns `None`), bounding the tracker's footprint.
const MAX_MARKS: usize = 8;

/// Change-log cap. If more steps than this commit between a mark and its
/// `delta_since`, the log is trimmed and the mark degrades to
/// unavailable — by then a delta would approach O(state) anyway.
const MAX_RECORDS: usize = 4096;

// ---------------------------------------------------------------------
// Dirty tracking
// ---------------------------------------------------------------------

/// One committed step's footprint: which timestamp landed, which
/// (non-ghost) users it touched, and which users' history lost rows to
/// the window pruning.
#[derive(Debug, Clone)]
struct ChangeRecord {
    /// Absolute commit sequence number (0-based over the engine's life).
    seq: u64,
    timestamp: u64,
    touched: Vec<usize>,
    pruned: Vec<usize>,
}

/// A registered base/tip: what a later delta needs to know of it.
#[derive(Debug, Clone)]
struct Mark {
    /// Commit count at registration: records with `seq >= this` are the
    /// steps the delta must cover.
    seq: u64,
    /// Structural epoch at registration (see [`DeltaTracker::bump_epoch`]).
    epoch: u64,
    /// The `Sf` and `Sp` stores' timestamps at registration.
    store_ts: [Vec<u64>; 2],
}

/// The engine's dirty-state log, fed by the ingest worker's commit path
/// and consumed by the delta encoder. Lives inside `EngineState`, so the
/// state lock covers it.
#[derive(Debug, Default)]
pub(crate) struct DeltaTracker {
    records: VecDeque<ChangeRecord>,
    /// Total commits ever logged (the next record's `seq`).
    next_seq: u64,
    marks: BTreeMap<u64, Mark>,
    next_id: u64,
    /// Bumped by any mutation outside the append-only stream (user
    /// migration, absorb): existing marks can no longer express the
    /// change as a delta and degrade to unavailable.
    epoch: u64,
}

impl DeltaTracker {
    /// Logs one committed step: its timestamp, the users it recorded and
    /// the users its window pruning shortened. Cheap with no live marks.
    pub(crate) fn record_commit(
        &mut self,
        timestamp: u64,
        touched: Vec<usize>,
        pruned: Vec<usize>,
    ) {
        let seq = self.next_seq;
        self.next_seq += 1;
        if self.marks.is_empty() {
            return;
        }
        self.records.push_back(ChangeRecord {
            seq,
            timestamp,
            touched,
            pruned,
        });
        while self.records.len() > MAX_RECORDS {
            self.records.pop_front();
        }
    }

    /// Invalidates every live mark: state was rewritten outside the
    /// append-only stream (rebalance migration, shard absorb), so no
    /// retained mark can serve a delta anymore.
    pub(crate) fn bump_epoch(&mut self) {
        self.epoch += 1;
        self.records.clear();
        self.marks.clear();
    }

    /// Registers the *current* state as a mark and returns its id.
    fn register_mark(&mut self, sf_store: &SnapshotStore, sp_store: &SnapshotStore) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.marks.insert(
            id,
            Mark {
                seq: self.next_seq,
                epoch: self.epoch,
                store_ts: [sf_store, sp_store].map(|s| s.iter().map(|(t, _)| t).collect()),
            },
        );
        while self.marks.len() > MAX_MARKS {
            let oldest = *self.marks.keys().next().expect("non-empty map");
            self.marks.remove(&oldest);
        }
        // Records older than every live mark can never be requested.
        let floor = self.marks.values().map(|m| m.seq).min();
        match floor {
            Some(floor) => {
                while self.records.front().is_some_and(|r| r.seq < floor) {
                    self.records.pop_front();
                }
            }
            None => self.records.clear(),
        }
        id
    }
}

// ---------------------------------------------------------------------
// The delta payload
// ---------------------------------------------------------------------

/// A serialized incremental checkpoint: every checkpoint record that
/// changed on one engine between a registered base (`base_id`) and the
/// registration of its own tip (`new_id`). Produced by
/// [`SentimentEngine::delta_since`](crate::SentimentEngine::delta_since);
/// folded into a base with
/// [`SentimentEngine::apply_delta`](crate::SentimentEngine::apply_delta).
/// The raw bytes are stable for a given format version and safe to
/// persist or ship between machines of any endianness.
#[derive(Debug, Clone)]
pub struct CheckpointDelta {
    bytes: Bytes,
}

impl CheckpointDelta {
    /// Wraps previously serialized delta bytes (e.g. read back from
    /// disk). Validation happens at apply time.
    pub fn from_bytes(data: Vec<u8>) -> Self {
        Self {
            bytes: Bytes::from(data),
        }
    }

    /// Wraps a view into a larger buffer (one slot of a multi-shard
    /// delta) without copying it.
    pub(crate) fn from_shared(bytes: Bytes) -> Self {
        Self { bytes }
    }

    /// The serialized byte stream.
    pub fn as_bytes(&self) -> &[u8] {
        self.bytes.as_slice()
    }

    /// Serialized size in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// True when the delta holds no bytes (never produced by the engine).
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// The `(base id, new id)` header, and a reader at the first op.
    fn header(&self) -> Result<(Reader<'_>, u64, u64), TgsError> {
        let mut r = Reader::new(self.as_bytes());
        r.magic(MAGIC, "tgs delta magic")?;
        let base_id = r.u64("base id")?;
        let new_id = r.u64("new id")?;
        Ok((r, base_id, new_id))
    }

    /// The mark id this delta applies on top of.
    pub fn base_id(&self) -> Result<u64, TgsError> {
        Ok(self.header()?.1)
    }

    /// The mark id of the state this delta produces — the next delta in
    /// a chain names this as its `base_id`.
    pub fn new_id(&self) -> Result<u64, TgsError> {
        Ok(self.header()?.2)
    }
}

// ---------------------------------------------------------------------
// Encode (engine side, under the state lock)
// ---------------------------------------------------------------------

/// Encodes the records changed since `base_id`, registering the tip as a
/// new mark; `Ok(None)` when the mark cannot serve a delta. Called with
/// the queue drained and both locks held.
pub(crate) fn encode_delta(
    solver: &OnlineSolver,
    state: &mut EngineState,
    base_id: u64,
) -> Result<Option<CheckpointDelta>, TgsError> {
    let EngineState {
        timeline,
        user_track,
        sf_store,
        sp_store,
        tracker,
        ..
    } = state;
    let Some(mark) = tracker.marks.get(&base_id).cloned() else {
        return Ok(None);
    };
    if mark.epoch != tracker.epoch {
        return Ok(None);
    }
    // The log must fully cover the span since the mark.
    let retained_floor = tracker.next_seq - tracker.records.len() as u64;
    if mark.seq < retained_floor {
        return Ok(None);
    }

    let mut history_users: BTreeSet<usize> = BTreeSet::new();
    let mut appends: BTreeMap<usize, usize> = BTreeMap::new();
    let mut new_timestamps = Vec::new();
    for r in tracker.records.iter().filter(|r| r.seq >= mark.seq) {
        new_timestamps.push(r.timestamp);
        history_users.extend(&r.pruned);
        for &u in &r.touched {
            history_users.insert(u);
            *appends.entry(u).or_insert(0) += 1;
        }
    }
    new_timestamps.sort_unstable();
    let new_id = tracker.register_mark(sf_store, sp_store);

    // Ops in (kind, key) order: solver, history, track, timeline, stores.
    let mut w = Writer::with_capacity(1 << 12);
    w.raw(MAGIC);
    w.u64(base_id);
    w.u64(new_id);
    w.u8(PUT);
    wr_solver(&mut w, solver, sf_store);
    for user in history_users {
        if let Some(rows) = solver.history().rows_of(user) {
            w.u8(PUT);
            wr_rows(&mut w, HISTORY, user, rows);
        }
    }
    // The commit path pushes exactly one observation per touched user
    // per step, so the last `n` entries of a user's track are precisely
    // the ones this span appended.
    for (&user, &n) in &appends {
        let track = user_track
            .get(&user)
            .filter(|track| track.len() >= n)
            .ok_or_else(|| TgsError::corrupt("delta: change log disagrees with a user's track"))?;
        w.u8(APPEND);
        wr_rows(&mut w, TRACK, user, &track[track.len() - n..]);
    }
    for t in &new_timestamps {
        let entry = timeline.get(t).ok_or_else(|| {
            TgsError::corrupt("delta: change log names a timestamp the timeline lacks")
        })?;
        w.u8(PUT);
        wr_timeline(&mut w, entry);
    }
    // Stores evict from the front and append at the back within an
    // epoch: entries that arrived since the mark are among the new
    // timestamps, and evicted ones are marked timestamps no longer live.
    let stores = [
        (SF_INDEX, SF_ENTRY, &*sf_store),
        (SP_INDEX, SP_ENTRY, &*sp_store),
    ];
    for ((index, entry, store), marked) in stores.into_iter().zip(&mark.store_ts) {
        let live: BTreeMap<u64, Bytes> = store.iter().collect();
        let mut changed: BTreeMap<u64, (u8, &[u8])> = marked
            .iter()
            .filter(|t| !live.contains_key(t))
            .map(|&t| (t, (REMOVE, &[][..])))
            .collect();
        changed.extend(
            new_timestamps
                .iter()
                .filter_map(|t| live.get(t).map(|bytes| (*t, (PUT, bytes.as_slice())))),
        );
        if !changed.is_empty() {
            w.u8(PUT);
            wr_index(&mut w, index, store);
        }
        for (t, (op, bytes)) in changed {
            w.u8(op);
            w.record(entry, t, |w| w.raw(bytes));
        }
    }

    Ok(Some(CheckpointDelta {
        bytes: Bytes::from(w.finish()),
    }))
}

/// Registers the current state as a base mark. Called by the engine with
/// the queue drained and the state lock held.
pub(crate) fn register_base(state: &mut EngineState) -> u64 {
    let EngineState {
        sf_store,
        sp_store,
        tracker,
        ..
    } = state;
    tracker.register_mark(sf_store, sp_store)
}

// ---------------------------------------------------------------------
// Apply
// ---------------------------------------------------------------------

/// Folds `delta` into `base`: the checkpoint at the delta's tip, byte for
/// byte. One merge pass copies the base records the delta does not name
/// and checks each delta record with the reader restore uses.
pub fn apply_delta(
    base: &EngineCheckpoint,
    delta: &CheckpointDelta,
) -> Result<EngineCheckpoint, TgsError> {
    let mut records = Records::new(base.as_bytes())?;
    let mut out = Writer::with_capacity(base.len() + delta.len());
    out.raw(checkpoint::MAGIC);
    let (head, shared) = records.head()?;
    let k = shared.config.k;
    out.raw(head.raw);

    let (mut ops, _, _) = delta.header()?;
    let mut next = records.next()?;
    let mut last = None;
    while ops.remaining() > 0 {
        let op = ops.tag(APPEND, "delta op")?;
        let rec = ops.record("delta record")?;
        in_order(&mut last, &rec)?;
        match (op, rec.kind) {
            (PUT, _) | (APPEND, TRACK) => drop(rd_body(&rec, k)?),
            (REMOVE, SF_ENTRY | SP_ENTRY) if rec.body.is_empty() => {}
            (op, kind) => {
                return Err(TgsError::corrupt(format!(
                    "a delta cannot apply op {op} to a record of kind {kind}"
                )))
            }
        }
        // Base records before this one are untouched.
        while let Some(b) = next.filter(|b| (b.kind, b.key) < (rec.kind, rec.key)) {
            out.raw(b.raw);
            next = records.next()?;
        }
        let hit = next.filter(|b| (b.kind, b.key) == (rec.kind, rec.key));
        if hit.is_some() {
            next = records.next()?;
        }
        match (op, hit) {
            (REMOVE, None) => {
                return Err(TgsError::corrupt(format!(
                    "a delta removes record (kind {}, key {}), which the base lacks",
                    rec.kind, rec.key
                )))
            }
            (REMOVE, Some(_)) => {}
            (APPEND, Some(b)) => out.record(rec.kind, rec.key, |w| {
                w.raw(b.body);
                w.raw(rec.body);
            }),
            _ => out.raw(rec.raw),
        }
    }
    while let Some(b) = next {
        out.raw(b.raw);
        next = records.next()?;
    }
    Ok(EngineCheckpoint::from_bytes(out.finish()))
}

// ---------------------------------------------------------------------
// Chains
// ---------------------------------------------------------------------

/// The materialized checkpoint at the tip of a delta chain: each pushed
/// delta is applied at once, so the tip is always ready to restore from.
/// The supervisor holds one per slot.
#[derive(Debug, Clone)]
pub struct DeltaChain {
    tip: u64,
    checkpoint: EngineCheckpoint,
}

impl DeltaChain {
    /// Starts a chain at a freshly taken base.
    pub fn new(base_id: u64, base: EngineCheckpoint) -> Self {
        Self {
            tip: base_id,
            checkpoint: base,
        }
    }

    /// The mark id the next delta must name as its base.
    pub fn tip(&self) -> u64 {
        self.tip
    }

    /// The full checkpoint at the tip, byte-identical to what the source
    /// engine wrote there.
    pub fn checkpoint(&self) -> &EngineCheckpoint {
        &self.checkpoint
    }

    /// Applies a delta that extends the tip. Atomic: a delta that names
    /// another base, or fails to apply, leaves the chain unchanged.
    pub fn push(&mut self, delta: CheckpointDelta) -> Result<(), TgsError> {
        let (_, base_id, new_id) = delta.header()?;
        if base_id != self.tip {
            return Err(TgsError::invalid_argument(format!(
                "delta extends mark {base_id}, but the chain tip is {}",
                self.tip
            )));
        }
        self.checkpoint = apply_delta(&self.checkpoint, &delta)?;
        self.tip = new_id;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EngineBuilder, EngineSnapshot, SentimentEngine};

    fn corpus() -> tgs_data::Corpus {
        tgs_data::generate(&tgs_data::GeneratorConfig {
            num_users: 24,
            total_tweets: 200,
            num_days: 10,
            ..Default::default()
        })
    }

    fn engine_over(c: &tgs_data::Corpus) -> SentimentEngine {
        EngineBuilder::new().k(3).max_iters(6).fit(c).unwrap()
    }

    #[test]
    fn delta_chain_matches_full_checkpoint_at_every_step() {
        let c = corpus();
        let engine = engine_over(&c);
        let windows = tgs_data::day_windows(c.num_days, 1);
        // Warm up two steps, then base.
        for &(lo, hi) in &windows[..2] {
            engine
                .ingest(EngineSnapshot::from_corpus_window(&c, lo, hi))
                .unwrap();
        }
        let (base_id, base) = engine.checkpoint_base().unwrap();
        assert_eq!(
            base.as_bytes(),
            engine.checkpoint().unwrap().as_bytes(),
            "a base is byte-identical to a plain checkpoint"
        );
        let mut chain = DeltaChain::new(base_id, base);
        for &(lo, hi) in &windows[2..] {
            engine
                .ingest(EngineSnapshot::from_corpus_window(&c, lo, hi))
                .unwrap();
            let delta = engine
                .delta_since(chain.tip())
                .unwrap()
                .expect("live mark must serve a delta");
            chain.push(delta).unwrap();
            assert_eq!(
                chain.checkpoint().as_bytes(),
                engine.checkpoint().unwrap().as_bytes(),
                "base + deltas must be byte-identical to the full checkpoint"
            );
        }
    }

    #[test]
    fn empty_delta_round_trips_to_the_base() {
        let c = corpus();
        let engine = engine_over(&c);
        engine
            .ingest(EngineSnapshot::from_corpus_window(&c, 0, c.num_days))
            .unwrap();
        let (base_id, base) = engine.checkpoint_base().unwrap();
        let delta = engine.delta_since(base_id).unwrap().unwrap();
        assert!(
            delta.len() < base.len() / 4,
            "an idle delta must be tiny: {} vs base {}",
            delta.len(),
            base.len()
        );
        let applied = SentimentEngine::apply_delta(&base, &delta).unwrap();
        assert_eq!(applied.as_bytes(), base.as_bytes());
    }

    #[test]
    fn unknown_or_invalidated_marks_are_unavailable_not_errors() {
        let c = corpus();
        let engine = engine_over(&c);
        engine
            .ingest(EngineSnapshot::from_corpus_window(&c, 0, c.num_days))
            .unwrap();
        engine.flush().unwrap();
        assert!(engine.delta_since(99).unwrap().is_none(), "unknown mark");
        let (base_id, _) = engine.checkpoint_base().unwrap();
        // A structural rewrite (user migration) invalidates live marks.
        let _ = engine.export_users_bytes(0, usize::MAX);
        assert!(
            engine.delta_since(base_id).unwrap().is_none(),
            "epoch bump must invalidate the mark"
        );
    }

    #[test]
    fn marks_age_out_beyond_the_retention_window() {
        let c = corpus();
        let engine = engine_over(&c);
        engine
            .ingest(EngineSnapshot::from_corpus_window(&c, 0, c.num_days))
            .unwrap();
        let (first_id, _) = engine.checkpoint_base().unwrap();
        for _ in 0..MAX_MARKS {
            engine.checkpoint_base().unwrap();
        }
        assert!(
            engine.delta_since(first_id).unwrap().is_none(),
            "aged-out mark must be unavailable"
        );
    }

    #[test]
    fn corrupt_deltas_fail_the_push_and_leave_the_chain_unchanged() {
        let c = corpus();
        let engine = engine_over(&c);
        let windows = tgs_data::day_windows(c.num_days, 2);
        engine
            .ingest(EngineSnapshot::from_corpus_window(
                &c,
                windows[0].0,
                windows[0].1,
            ))
            .unwrap();
        let (base_id, base) = engine.checkpoint_base().unwrap();
        engine
            .ingest(EngineSnapshot::from_corpus_window(
                &c,
                windows[1].0,
                windows[1].1,
            ))
            .unwrap();
        let delta = engine.delta_since(base_id).unwrap().unwrap();
        let full = delta.as_bytes().to_vec();
        // The first record's length: magic, two ids, op, kind, key.
        let len_at = 8 + 16 + 1 + 1 + 8;
        let mut lying = full.clone();
        let past_the_end = (full.len() - len_at - 8 + 1) as u64;
        lying[len_at..len_at + 8].copy_from_slice(&past_the_end.to_le_bytes());
        let mut chain = DeltaChain::new(base_id, base.clone());
        for (case, bad) in [
            ("truncated", full[..full.len() - 1].to_vec()),
            ("count", lying),
        ] {
            match chain.push(CheckpointDelta::from_bytes(bad)) {
                Err(TgsError::CorruptCheckpoint { .. }) => {}
                other => panic!("{case}: {other:?}"),
            }
            assert_eq!(chain.tip(), base_id, "{case}");
            assert!(chain.checkpoint().as_bytes() == base.as_bytes(), "{case}");
        }
        chain.push(delta.clone()).unwrap();
        assert_eq!(chain.tip(), delta.new_id().unwrap());
        assert!(chain.checkpoint().as_bytes() == engine.checkpoint().unwrap().as_bytes());
    }

    #[test]
    fn a_delta_carries_the_history_its_span_pruned() {
        // With window 3 the history keeps two steps, so a user seen at
        // steps 1 and 2 loses the older row at step 3 without being
        // touched: that user's history record must still ride along.
        let c = corpus();
        let engine = EngineBuilder::new()
            .k(3)
            .max_iters(4)
            .window(3)
            .fit(&c)
            .unwrap();
        let tokens: Vec<String> = engine.vocabulary().tokens()[..4].to_vec();
        let step = |ts: u64, users: &[usize]| {
            let mut snapshot = EngineSnapshot::new(ts);
            for &user in users {
                snapshot.push_tokens(user, tokens.clone());
            }
            engine.ingest(snapshot).unwrap();
        };
        step(0, &[1, 2]);
        step(1, &[1, 2]);
        let (base_id, base) = engine.checkpoint_base().unwrap();
        step(2, &[2, 3]);
        step(3, &[3, 4]);
        let delta = engine.delta_since(base_id).unwrap().unwrap();
        assert_eq!(
            SentimentEngine::apply_delta(&base, &delta)
                .unwrap()
                .as_bytes(),
            engine.checkpoint().unwrap().as_bytes()
        );
    }

    #[test]
    fn out_of_order_chain_pushes_are_rejected() {
        let c = corpus();
        let engine = engine_over(&c);
        let windows = tgs_data::day_windows(c.num_days, 2);
        engine
            .ingest(EngineSnapshot::from_corpus_window(
                &c,
                windows[0].0,
                windows[0].1,
            ))
            .unwrap();
        let (base_id, base) = engine.checkpoint_base().unwrap();
        engine
            .ingest(EngineSnapshot::from_corpus_window(
                &c,
                windows[1].0,
                windows[1].1,
            ))
            .unwrap();
        let d1 = engine.delta_since(base_id).unwrap().unwrap();
        engine
            .ingest(EngineSnapshot::from_corpus_window(
                &c,
                windows[2].0,
                windows[2].1,
            ))
            .unwrap();
        let d2 = engine.delta_since(d1.new_id().unwrap()).unwrap().unwrap();
        let mut chain = DeltaChain::new(base_id, base);
        assert!(chain.push(d2.clone()).is_err(), "gap in the chain");
        chain.push(d1).unwrap();
        chain.push(d2).unwrap();
    }

    #[test]
    fn corrupt_deltas_are_rejected_not_panicked() {
        let c = corpus();
        let engine = engine_over(&c);
        let windows = tgs_data::day_windows(c.num_days, 2);
        engine
            .ingest(EngineSnapshot::from_corpus_window(
                &c,
                windows[0].0,
                windows[0].1,
            ))
            .unwrap();
        let (base_id, base) = engine.checkpoint_base().unwrap();
        engine
            .ingest(EngineSnapshot::from_corpus_window(
                &c,
                windows[1].0,
                windows[1].1,
            ))
            .unwrap();
        let delta = engine.delta_since(base_id).unwrap().unwrap();
        let full = delta.as_bytes().to_vec();
        for cut in (0..full.len()).step_by(131).chain([full.len() - 1]) {
            let bad = CheckpointDelta::from_bytes(full[..cut].to_vec());
            assert!(
                apply_delta(&base, &bad).is_err(),
                "prefix of {cut} bytes applied"
            );
        }
        assert!(apply_delta(&base, &CheckpointDelta::from_bytes(b"garbage!".to_vec())).is_err());
        assert!(apply_delta(&base, &delta).is_ok());
    }

    #[test]
    fn restored_engines_serve_deltas_from_fresh_marks() {
        let c = corpus();
        let engine = engine_over(&c);
        let windows = tgs_data::day_windows(c.num_days, 2);
        engine
            .ingest(EngineSnapshot::from_corpus_window(
                &c,
                windows[0].0,
                windows[0].1,
            ))
            .unwrap();
        let ckpt = engine.checkpoint().unwrap();
        let restored = SentimentEngine::restore(&ckpt).unwrap();
        let (base_id, base) = restored.checkpoint_base().unwrap();
        restored
            .ingest(EngineSnapshot::from_corpus_window(
                &c,
                windows[1].0,
                windows[1].1,
            ))
            .unwrap();
        let delta = restored.delta_since(base_id).unwrap().unwrap();
        assert_eq!(
            apply_delta(&base, &delta).unwrap().as_bytes(),
            restored.checkpoint().unwrap().as_bytes()
        );
    }
}
