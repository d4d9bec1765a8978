//! The three phases of a round, and the record they fill.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use tgs_core::TgsError;
use tgs_data::{route_docs, PartitionMap};
use tgs_engine::{
    BatchPolicy, BatchingIngest, DocContent, EngineDoc, EngineRetweet, EngineSnapshot, IngestSink,
    LatencyHistogram, ShardTransport, ShardedEngine, ShardedQuery, TimelineEntry,
};
use tgs_load::{LoadConfig, LoadGen};
use tgs_net::TcpShard;

use crate::stats::Samples;
use crate::system::{net_config, Fleet, System};
use crate::trace;
use crate::workload::{Params, RESTORES_PER_CYCLE, SHARDS};

/// Named samples of one or more rounds, plus the output-check tally.
#[derive(Default)]
pub struct Rec {
    pub samples: BTreeMap<&'static str, Samples>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// Merged engine step-latency histogram of phase A.
    pub step_hist: LatencyHistogram,
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

impl Rec {
    /// Runs `f` inside a span named `name` and records its duration.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let _g = trace::span(name);
        let t = Instant::now();
        let out = f();
        self.add(name, ms_since(t));
        out
    }

    pub fn add(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }

    pub fn get(&self, name: &str) -> Samples {
        self.samples.get(name).cloned().unwrap_or_default()
    }

    /// Counts one attempted operation or output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(what());
            }
        }
    }

    /// Counts one operation whose error is not fatal to the run.
    pub fn op<T>(&mut self, what: &str, r: Result<T, TgsError>) -> Option<T> {
        match r {
            Ok(v) => {
                self.attempted += 1;
                Some(v)
            }
            Err(e) => {
                self.check(false, || format!("{what}: {e}"));
                None
            }
        }
    }

    pub fn merge(&mut self, other: Rec) {
        for (name, s) in other.samples {
            self.samples.entry(name).or_default().extend(&s);
        }
        self.attempted += other.attempted;
        self.failed += other.failed;
        for f in other.failures {
            if self.failures.len() < 20 {
                self.failures.push(f);
            }
        }
        self.step_hist = self.step_hist.merge(&other.step_hist);
    }
}

/// FNV-1a over every field of a timeline: equal digests mean equal
/// timelines, bit for bit.
pub fn timeline_digest(timeline: &[TimelineEntry]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for e in timeline {
        for x in [
            e.timestamp,
            e.tweets as u64,
            e.users as u64,
            e.new_users as u64,
            e.evolving_users as u64,
            e.iterations as u64,
            u64::from(e.converged),
            e.objective.to_bits(),
        ] {
            eat(x);
        }
        for &c in e.tweet_counts.iter().chain(&e.user_counts) {
            eat(c as u64);
        }
    }
    h
}

/// Bit-for-bit timeline equality (`==` would call two NaN objectives
/// different).
fn same_bits(a: &[TimelineEntry], b: &[TimelineEntry]) -> bool {
    a.len() == b.len() && timeline_digest(a) == timeline_digest(b)
}

fn tweets(timeline: &[TimelineEntry]) -> usize {
    timeline.iter().map(|e| e.tweets).sum()
}

/// Splits `snapshot` per shard exactly as the router does in drop mode:
/// each document follows its author, a re-tweet stays only when its user
/// lives on the document's shard.
pub fn split(map: &PartitionMap, snapshot: &EngineSnapshot) -> Vec<EngineSnapshot> {
    let authors: Vec<usize> = snapshot.docs.iter().map(|d| d.user).collect();
    let events: Vec<(usize, usize)> = snapshot.retweets.iter().map(|r| (r.user, r.doc)).collect();
    let routing = route_docs(map, &authors, &events);
    let mut subs: Vec<EngineSnapshot> = (0..map.shards())
        .map(|_| EngineSnapshot::new(snapshot.timestamp))
        .collect();
    for (doc, &shard) in snapshot.docs.iter().zip(&routing.doc_shard) {
        subs[shard].docs.push(doc.clone());
    }
    for (shard, kept) in routing.shard_retweets.iter().enumerate() {
        subs[shard].retweets = kept
            .iter()
            .map(|&(user, doc)| EngineRetweet { user, doc })
            .collect();
    }
    subs
}

/// The phase A sink: the engine, plus a copy of every accepted batch when
/// the round is replayed afterwards.
struct Recording<'a> {
    engine: &'a ShardedEngine,
    log: Option<RefCell<Vec<EngineSnapshot>>>,
}

impl Recording<'_> {
    /// Blocking ingest, waiting for queue space.
    fn ingest(&self, batch: EngineSnapshot) -> Result<(), TgsError> {
        if let Some(log) = &self.log {
            log.borrow_mut().push(batch.clone());
        }
        self.engine.ingest(batch)
    }
}

impl IngestSink for Recording<'_> {
    fn try_submit(&self, batch: EngineSnapshot) -> Result<Option<EngineSnapshot>, TgsError> {
        let copy = self.log.as_ref().map(|_| batch.clone());
        let back = self.engine.try_ingest(batch)?;
        if let (None, Some(log), Some(copy)) = (&back, &self.log, copy) {
            log.borrow_mut().push(copy);
        }
        Ok(back)
    }
}

/// Phase A: a fixed number of Zipf documents through `BatchingIngest`
/// into a 2-shard in-process engine restored from the set-up checkpoint.
/// Closed loop: a batch the engine sheds is resubmitted with the blocking
/// ingest, so the producer waits exactly as long as the queues are full.
/// Returns the timeline digest and, when `keep_batches`, the batches the
/// engine received.
pub fn ingest(
    sys: &System,
    p: &Params,
    seed: u64,
    rec: &mut Rec,
    keep_batches: bool,
) -> Result<(u64, Vec<EngineSnapshot>), TgsError> {
    let mut gen = LoadGen::new(
        LoadConfig {
            seed,
            users: p.users,
            docs_per_step: p.ingest_docs_per_snapshot,
            // Bucket-aligned, so no batch is stamped into the history.
            start_ts: sys.first_ts.next_multiple_of(p.batch_bucket),
            ts_stride: 1,
            ..LoadConfig::default()
        },
        sys.words.clone(),
    )?;
    // The generator runs ahead of the measured loop, so the loop times
    // the engine alone; its cost is reported as `load.fill_ms`.
    let fill = Instant::now();
    let mut snaps = Vec::with_capacity(p.ingest_docs / p.ingest_docs_per_snapshot + 1);
    let mut docs = 0;
    while docs < p.ingest_docs {
        let mut snap = EngineSnapshot::new(0);
        trace::timed("load.fill", || gen.fill(&mut snap));
        docs += snap.len();
        snaps.push(snap);
    }
    rec.add("load.fill", ms_since(fill));

    let engine = ShardedEngine::restore(&sys.ckpt0)?;
    let sink = Recording {
        engine: &engine,
        log: keep_batches.then(|| RefCell::new(Vec::new())),
    };
    let policy = BatchPolicy {
        bucket_width: p.batch_bucket,
        max_docs: 4096,
        max_delay: None,
    };
    let mut batcher = BatchingIngest::new(&sink, policy)?;
    // A batch the batcher could not hand over (full shard queue) goes
    // in with the blocking ingest: the producer waits for queue space.
    let mut blocked = 0.0;
    let mut resubmit = |shed: Option<EngineSnapshot>| -> Result<(), TgsError> {
        let Some(batch) = shed else {
            return Ok(());
        };
        let t = Instant::now();
        trace::timed("engine.ingest", || sink.ingest(batch))?;
        blocked += ms_since(t);
        Ok(())
    };
    let started = Instant::now();
    for snap in snaps {
        let shed = trace::timed("batch.submit", || batcher.submit(snap))?;
        resubmit(shed)?;
    }
    let shed = trace::timed("batch.flush", || batcher.flush())?;
    resubmit(shed)?;
    trace::timed("engine.flush", || engine.flush())?;
    let secs = started.elapsed().as_secs_f64();
    rec.add("ingest.docs_per_s", docs as f64 / secs);
    rec.add("engine.ingest_block", blocked);
    rec.add(
        "batch.coalesce_ratio",
        batcher.snapshots_coalesced() as f64 / batcher.batches_flushed().max(1) as f64,
    );
    rec.add("shard.load_skew", engine.load_skew());
    rec.step_hist = rec.step_hist.merge(&engine.stats().step_hist);

    let timeline = engine.query().timeline(..)?;
    let submitted = sys.history_docs + docs;
    rec.check(tweets(&timeline) == submitted, || {
        format!(
            "ingest: timeline holds {} tweets, {submitted} were submitted",
            tweets(&timeline)
        )
    });
    drop(batcher);
    let batches = sink.log.map(RefCell::into_inner).unwrap_or_default();
    engine.shutdown()?;
    Ok((timeline_digest(&timeline), batches))
}

/// Phase B: small raw-text snapshots with distinct timestamps sent
/// unbatched to the TCP fleet on a fixed schedule (open loop: a late send
/// does not move later due times). After each send a flush and a range
/// query confirm the snapshot queryable, then the query mix asks about it
/// before the next send is due. Freshness is timed from the moment a
/// snapshot was due, not sent, so a stall counts against every snapshot it
/// delays.
/// Returns the next free timestamp.
pub fn trickle(
    sys: &System,
    p: &Params,
    seed: u64,
    fleet: &Fleet,
    rec: &mut Rec,
) -> Result<u64, TgsError> {
    let mut gen = LoadGen::new(
        LoadConfig {
            seed: seed ^ 0x7121_c41e,
            users: p.users,
            docs_per_step: p.trickle_docs,
            start_ts: sys.first_ts,
            ts_stride: 1,
            ..LoadConfig::default()
        },
        sys.words.clone(),
    )?;
    let fill = Instant::now();
    let snaps: Vec<EngineSnapshot> = (0..p.trickle_snapshots)
        .map(|_| {
            let mut snap = trace::timed("load.fill", || gen.next_snapshot());
            // Raw text, so the worker's tokenizer runs on this path.
            for doc in &mut snap.docs {
                if let DocContent::Tokens(tokens) = &doc.content {
                    *doc = EngineDoc::from_text(doc.user, tokens.join(" "));
                }
            }
            snap
        })
        .collect();
    rec.add("load.fill", ms_since(fill));
    let meta: Vec<(u64, usize, usize)> = snaps
        .iter()
        .map(|s| (s.timestamp, s.len(), s.docs[0].user))
        .collect();
    let next_ts = meta.last().map_or(sys.first_ts, |m| m.0 + 1);

    let period = Duration::from_secs_f64(1.0 / p.trickle_rate_hz);
    let start = Instant::now() + Duration::from_millis(2);
    let engine = &fleet.engine;
    let query = engine.query();
    let k = query.k();
    for (i, snap) in snaps.into_iter().enumerate() {
        let due = start + period * i as u32;
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        rec.add(
            "gen.late",
            Instant::now().duration_since(due).as_secs_f64() * 1e3,
        );
        let sent = rec.time("net.ingest", || engine.ingest(snap));
        rec.op("trickle ingest", sent);
        // Flush drains both shard queues, so snapshot i is committed once
        // it returns; the range query then has to show it whole.
        let (ts, n, _) = meta[i];
        let flushed = rec.time("net.flush", || engine.flush());
        rec.op("trickle flush", flushed);
        let shown = rec.time("query.fresh", || query.timeline(ts..=ts));
        let whole = matches!(&shown, Ok(t) if t.len() == 1 && t[0].tweets == n);
        rec.check(whole, || {
            format!("trickle: snapshot {ts} not queryable whole after flush")
        });
        rec.add(
            "e2e.fresh",
            Instant::now().duration_since(due).as_secs_f64() * 1e3,
        );
        query_mix(&query, k, meta[i], rec);
        let pinged = rec.time("net.ping", || fleet.shards[i % SHARDS].probe());
        rec.op("trickle ping", pinged);
    }

    engine.flush()?;
    let timeline = query.timeline(..)?;
    let submitted = sys.history_docs + meta.iter().map(|m| m.1).sum::<usize>();
    rec.check(tweets(&timeline) == submitted, || {
        format!(
            "trickle: fleet timeline holds {} tweets, {submitted} were submitted",
            tweets(&timeline)
        )
    });
    Ok(next_ts)
}

/// `latest`, `user_sentiment`, a recent `timeline` range and `top_words`
/// about the confirmed snapshot `(ts, docs, user)`, each timed as one
/// `e2e.query` sample and checked.
fn query_mix(query: &ShardedQuery, k: usize, (ts, _, user): (u64, usize, usize), rec: &mut Rec) {
    let t = Instant::now();
    let latest = rec.time("query.latest", || query.latest());
    rec.add("e2e.query", ms_since(t));
    let ok = matches!(&latest, Ok(Some(e)) if e.timestamp >= ts);
    rec.check(ok, || {
        format!("trickle: latest() is behind {ts}: {latest:?}")
    });

    let t = Instant::now();
    let us = rec.time("query.user", || query.user_sentiment(user, ts));
    rec.add("e2e.query", ms_since(t));
    let ok = matches!(&us, Ok(u) if u.user == user && u.distribution.len() == k);
    rec.check(ok, || {
        format!("trickle: user_sentiment({user}, {ts}) = {us:?}")
    });

    let t = Instant::now();
    let range = rec.time("query.timeline", || {
        query.timeline(ts.saturating_sub(15)..=ts)
    });
    rec.add("e2e.query", ms_since(t));
    let ok = matches!(&range, Ok(r) if r.last().is_some_and(|e| e.timestamp == ts));
    rec.check(ok, || format!("trickle: timeline(..={ts}) misses {ts}"));

    let t = Instant::now();
    let top = rec.time("query.top_words", || query.top_words(ts, 5));
    rec.add("e2e.query", ms_since(t));
    let ok = matches!(&top, Ok(w) if w.len() == k);
    rec.check(ok, || format!("trickle: top_words({ts}) = {top:?}"));
}

/// The next of a low-discrepancy sequence of pauses spread over 0–25 ms.
fn accept_phase() -> Duration {
    static N: AtomicU64 = AtomicU64::new(1);
    let n = N.fetch_add(1, Ordering::Relaxed) as f64;
    Duration::from_secs_f64((n * 0.618_033_988_749_894_9).fract() * 0.025)
}

/// The `n`-th window: one Zipf-worded document for each of a set of
/// users spread evenly over the id space (so over both shards), shifted
/// by one id per window so windows touch different users.
fn window(gen: &mut LoadGen, users: usize, n: &mut usize) -> EngineSnapshot {
    let mut snap = trace::timed("load.fill", || gen.next_snapshot());
    let stride = (users / snap.len().max(1)).max(1);
    for (j, doc) in snap.docs.iter_mut().enumerate() {
        doc.user = (j * stride + *n) % users;
    }
    *n += 1;
    snap
}

/// Phase C: recover cycles on the fleet. Each cycle anchors a base,
/// ingests a window, lets the supervisor refresh its baselines, ingests a
/// second window (the replay journal), then
/// 1. encodes the delta since the base and applies it to the base,
/// 2. empties one server of its slot and has the supervisor rebuild it
///    (re-INIT from the baseline, replay the journal) until the fleet
///    answers with the full history again,
/// 3. checks `apply(base, delta)` against a full checkpoint byte for byte,
/// 4. restores an engine from the full checkpoint until it answers,
///    [`RESTORES_PER_CYCLE`] times.
///
/// Returns the digest of the final fleet timeline.
pub fn recover(
    sys: &System,
    p: &Params,
    seed: u64,
    fleet: &Fleet,
    first_ts: u64,
    rec: &mut Rec,
    replica: bool,
) -> Result<u64, TgsError> {
    let touched = ((p.users as f64 * p.touch_share) as usize).max(1);
    let mut gen = LoadGen::new(
        LoadConfig {
            seed: seed ^ 0x3ec0_7e35,
            users: p.users,
            docs_per_step: touched,
            start_ts: first_ts,
            ts_stride: 1,
            ..LoadConfig::default()
        },
        sys.words.clone(),
    )?;
    let engine = &fleet.engine;
    let generation = engine.map().generation();
    // Phase B has checked this total against what it submitted.
    let mut submitted = tweets(&engine.query().timeline(..)?);
    let mut windows = 0;
    for cycle in 0..p.recover_cycles {
        let (tips, base) = rec.time("ckpt.base", || engine.checkpoint_base())?;
        let first = window(&mut gen, p.users, &mut windows);
        let second = window(&mut gen, p.users, &mut windows);
        submitted += first.len() + second.len();
        let second_copy = replica.then(|| second.clone());

        rec.time("net.ingest_window", || engine.ingest(first))?;
        rec.time("net.flush_window", || engine.flush())?;
        let first_delta =
            match replica {
                true => Some(engine.delta_since(&tips)?.ok_or_else(|| {
                    TgsError::invalid_argument("fresh fleet tips were not servable")
                })?),
                false => None,
            };
        rec.time("supervise.refresh", || fleet.supervisor.tick());
        rec.time("net.ingest_window", || engine.ingest(second))?;
        rec.time("net.flush_window", || engine.flush())?;
        let expected = engine.query().timeline(..)?;
        rec.check(tweets(&expected) == submitted, || {
            format!(
                "recover: fleet timeline holds {} tweets, {submitted} were submitted",
                tweets(&expected)
            )
        });

        let delta = rec.time("ckpt.delta", || engine.delta_since(&tips))?;
        let delta = delta
            .ok_or_else(|| TgsError::invalid_argument("fresh fleet tips were not servable"))?;
        rec.add("ckpt.delta_bytes", delta.len() as f64);
        let applied = rec.time("ckpt.apply_delta", || {
            ShardedEngine::apply_delta(&base, &delta)
        })?;

        // Rebuild one slot on a server that no longer holds it. The
        // rebuild re-dials, and a server's accept loop polls every 25 ms:
        // a pause spread evenly over that period keeps the rebuilds of a
        // run from all landing on the same phase of it.
        std::thread::sleep(accept_phase());
        let victim = cycle % SHARDS;
        let shard = &fleet.shards[victim];
        trace::timed("net.shutdown_slot", || shard.endpoint().shutdown())?;
        let replayed = fleet.counters.replayed_docs.load(Ordering::Relaxed);
        let t = Instant::now();
        rec.time("supervise.recover", || shard.recover())?;
        let served = rec.time("query.full_timeline", || engine.query().timeline(..))?;
        rec.add("e2e.recover", ms_since(t));
        rec.check(same_bits(&served, &expected), || {
            format!("recover: rebuilt slot {victim} serves a different timeline")
        });
        let replayed = fleet.counters.replayed_docs.load(Ordering::Relaxed) - replayed;
        rec.add("supervise.replay_docs", replayed as f64);

        let full = rec.time("ckpt.full", || engine.checkpoint())?;
        rec.add("ckpt.full_bytes", full.len() as f64);
        rec.check(full.as_bytes() == applied.as_bytes(), || {
            format!("recover: apply(base, delta) differs from checkpoint() in cycle {cycle}")
        });

        for _ in 0..RESTORES_PER_CYCLE {
            let t = Instant::now();
            let restored = rec.time("ckpt.decode", || ShardedEngine::restore(&full))?;
            let answer = rec.time("query.full_timeline", || restored.query().timeline(..))?;
            rec.add("e2e.restore", ms_since(t));
            rec.check(same_bits(&answer, &expected), || {
                format!("recover: restored engine serves a different timeline in cycle {cycle}")
            });
            restored.shutdown()?;
        }

        if let (Some(first_delta), Some(second)) = (first_delta, second_copy) {
            replay_rebuild(sys, victim, generation, &base, &first_delta, &second, rec)?;
        }
    }
    let timeline = engine.query().timeline(..)?;
    Ok(timeline_digest(&timeline))
}

/// The rebuild of `slot`'s shard, call by call on a spare slot of the
/// same server, so its INIT and journal replay are timed apart: baseline
/// = base ⊕ first window's delta, journal = the second window.
fn replay_rebuild(
    sys: &System,
    shard: usize,
    generation: u64,
    base: &tgs_engine::ShardedCheckpoint,
    first_delta: &tgs_engine::ShardedDelta,
    journal: &EngineSnapshot,
    rec: &mut Rec,
) -> Result<(), TgsError> {
    const SPARE_SLOT: u64 = 1_000;
    let baseline = ShardedEngine::apply_delta(base, first_delta)?.sections()?;
    let spare = TcpShard::new(sys.addrs()[shard].clone(), SPARE_SLOT, net_config());
    rec.time("net.init", || spare.init(&baseline[shard]))?;
    spare.set_generation(generation)?;
    let sub = split(&sys.map, journal).swap_remove(shard);
    rec.time("supervise.replay", || -> Result<(), TgsError> {
        spare.ingest(generation, sub)?;
        spare.flush().map(drop)
    })?;
    spare.shutdown()
}
