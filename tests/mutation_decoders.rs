//! One seeded mutation harness over every decoder that reads bytes from
//! disk or the network: single-engine and multi-shard checkpoints and
//! deltas, the migrated-users payload, and every `tgs_net::wire` payload
//! decoder. Checkpoints and deltas share one record framing, so one
//! walker ([`Walk`]) finds the fields of both.
//!
//! Every input is mutated four ways:
//!
//! * each count or length field set to `u64::MAX` and to one more than
//!   the bytes that follow it (for wire payloads, which are small, every
//!   8-byte window is treated as a count);
//! * each matrix header made to lie about its length;
//! * prefixes cut at a fixed stride;
//! * seeded single-bit flips.
//!
//! Checkpoints and deltas also get record-level lies: two keys swapped
//! out of order, a duplicated key, an unknown kind, and (in a delta) a
//! row record one `u64` short of a whole row.
//!
//! Every case must end in a typed error or a valid value — never a panic
//! — and a count lie, a record lie or a truncation of a checkpoint, a
//! delta or a migration payload must be an error. The binary runs under a counting allocator: no
//! single allocation made while decoding a case may exceed
//! [`ALLOC_FACTOR`] times the bytes the decoder was handed, plus
//! [`ALLOC_SLACK`] for fixed-size scratch (the stats histogram, the
//! checkpoint encoder's initial buffer).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};

use tripartite_sentiment::core::{decode_matrix, TgsError};
use tripartite_sentiment::engine::{
    CheckpointDelta, ClusterSummary, EngineCheckpoint, EngineSnapshot, EngineStats,
    LatencyHistogram, SentimentEngine, ShardedCheckpoint, ShardedDelta, ShardedEngine,
    TimelineEntry, UserSentiment,
};
use tripartite_sentiment::net::wire;

/// Largest single allocation allowed per input byte.
const ALLOC_FACTOR: usize = 4;
/// Fixed allowance on top of [`ALLOC_FACTOR`].
const ALLOC_SLACK: usize = 64 << 10;

/// Records the largest allocation request made on a thread while armed.
struct Counting;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    let _ = ARMED.try_with(|armed| {
        if armed.get() {
            LARGEST.with(|l| l.set(l.get().max(size)));
        }
    });
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Runs `f`, returning its value and the largest allocation it made on
/// this thread.
fn largest_allocation<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST.with(|l| l.set(0));
    ARMED.with(|a| a.set(true));
    let out = f();
    ARMED.with(|a| a.set(false));
    (out, LARGEST.with(Cell::get))
}

fn fixture(name: &str) -> Vec<u8> {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/formats")
        .join(name);
    std::fs::read(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Deterministic offsets in `0..len` (splitmix64).
fn seeded_offsets(seed: u64, n: usize, len: usize) -> Vec<usize> {
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

/// Offsets of the fields a mutation targets in a valid input.
#[derive(Default)]
struct Fields {
    /// `(offset, end)` of every count or length field; `end` closes the
    /// buffer its decoder reads, so `end - offset - 8` bytes follow it.
    counts: Vec<(usize, usize)>,
    /// Offsets of 16-byte `rows | cols` matrix headers.
    heads: Vec<usize>,
    /// Every record of a checkpoint or delta stream.
    records: Vec<Rec>,
}

impl Fields {
    fn extend(&mut self, other: Fields) {
        self.counts.extend(other.counts);
        self.heads.extend(other.heads);
        self.records.extend(other.records);
    }
}

/// One `(kind, key, len, body)` record's offsets.
#[derive(Clone, Copy)]
struct Rec {
    /// The kind byte (after a delta's op byte).
    kind_at: usize,
    kind: u8,
    /// The body, which ends at `body + len`.
    body: usize,
    len: usize,
}

impl Rec {
    fn key_at(&self) -> usize {
        self.kind_at + 1
    }

    fn len_at(&self) -> usize {
        self.kind_at + 9
    }
}

/// Record kinds whose bodies the walker looks into (see
/// `tgs_engine::checkpoint`): the head, the solver, row runs and store
/// entries.
const HEAD: u8 = 0;
const SOLVER: u8 = 1;
const HISTORY: u8 = 2;
const TRACK: u8 = 3;
const SF_ENTRY: u8 = 6;
const SP_ENTRY: u8 = 8;

/// Bytes of the head record's fixed-width configuration.
const CONFIG_LEN: usize = 8 + 4 * 8 + (8 + 1 + 8 + 8 + 8 + 2) + (8 + 8 + 3);

/// Byte-offset walk over a valid input, recording its fields.
struct Walk<'a> {
    buf: &'a [u8],
    pos: usize,
    end: usize,
    fields: Fields,
}

impl<'a> Walk<'a> {
    fn new(buf: &'a [u8], pos: usize, end: usize) -> Self {
        Self {
            buf,
            pos,
            end,
            fields: Fields::default(),
        }
    }

    fn skip(&mut self, n: usize) {
        self.pos += n;
    }

    fn u64(&mut self) -> usize {
        let v = u64::from_le_bytes(self.buf[self.pos..self.pos + 8].try_into().unwrap());
        self.pos += 8;
        v as usize
    }

    fn u8(&mut self) -> u8 {
        self.pos += 1;
        self.buf[self.pos - 1]
    }

    fn count(&mut self) -> usize {
        self.fields.counts.push((self.pos, self.end));
        self.u64()
    }

    fn matrix(&mut self) {
        let len = self.count();
        self.fields.heads.push(self.pos);
        self.skip(len);
    }

    fn finish(self) -> Fields {
        assert_eq!(self.pos, self.end, "walk must end at the last byte");
        self.fields
    }

    /// A run of records up to the end, each after an op byte in a delta.
    fn records(mut self, ops: bool) -> Fields {
        while self.pos < self.end {
            if ops {
                self.skip(1);
            }
            let kind_at = self.pos;
            let kind = self.u8();
            self.skip(8); // key
            let len = self.count();
            let rec = Rec {
                kind_at,
                kind,
                body: self.pos,
                len,
            };
            let inner = Walk::new(self.buf, rec.body, rec.body + len).body(kind);
            self.fields.extend(inner);
            self.fields.records.push(rec);
            self.skip(len);
        }
        self.finish()
    }

    /// The fields inside one record body.
    fn body(mut self, kind: u8) -> Fields {
        match kind {
            HEAD => {
                self.skip(CONFIG_LEN);
                for _ in 0..self.count() {
                    let token = self.count();
                    self.skip(token);
                }
                self.matrix(); // the prior
            }
            SOLVER => {
                self.skip(16); // steps, history step
                for _ in 0..self.count() {
                    match self.u8() {
                        1 => self.skip(8),
                        _ => self.matrix(),
                    }
                }
            }
            // A store entry is an encoded matrix (empty when removed).
            SF_ENTRY | SP_ENTRY if self.end > self.pos => {
                self.fields.heads.push(self.pos);
                self.pos = self.end;
            }
            _ => self.pos = self.end,
        }
        self.finish()
    }

    /// A single-engine checkpoint.
    fn checkpoint(mut self) -> Fields {
        self.skip(8); // magic
        self.records(false)
    }

    /// A single-engine delta.
    fn delta(mut self) -> Fields {
        self.skip(8 + 16); // magic, base and new mark ids
        self.records(true)
    }

    /// A multi-shard checkpoint: its header, then each shard's section.
    fn fleet_checkpoint(mut self) -> Fields {
        self.skip(8);
        let shards = self.count();
        self.skip(8 + 1 + 8 * shards + 8); // universe, ghost flag, starts, fingerprint
        for _ in 0..shards {
            let len = self.count();
            let inner = Walk::new(self.buf, self.pos, self.pos + len).checkpoint();
            self.fields.extend(inner);
            self.skip(len);
        }
        self.finish()
    }

    /// A multi-shard delta: its header, then each slot's delta.
    fn fleet_delta(mut self) -> Fields {
        self.skip(8);
        let shards = self.count();
        self.skip(8); // fingerprint
        for _ in 0..shards {
            let tag = self.u8();
            if tag == 0 {
                self.skip(8); // base mark id
            }
            let len = self.count();
            if tag == 1 {
                let inner = Walk::new(self.buf, self.pos, self.pos + len).delta();
                self.fields.extend(inner);
            }
            self.skip(len);
        }
        self.finish()
    }

    /// A migrated-users payload.
    fn migration(mut self) -> Fields {
        let users = self.count() + self.count();
        for _ in 0..users {
            self.skip(8);
            for _ in 0..self.count() {
                self.skip(8);
                let k = self.count();
                self.skip(8 * k);
            }
        }
        self.finish()
    }
}

/// One mutated input, whether it must fail, and whether its allocations
/// are capped.
struct Case {
    name: String,
    bytes: Vec<u8>,
    must_fail: bool,
    capped: bool,
}

fn put_u64(buf: &[u8], at: usize, v: u64) -> Vec<u8> {
    let mut bad = buf.to_vec();
    bad[at..at + 8].copy_from_slice(&v.to_le_bytes());
    bad
}

/// Every mutation of `input`. `strict` marks formats in which every field
/// is required, so a count lie or a truncation must fail.
fn cases(input: &[u8], fields: &Fields, stride: usize, flips: usize, strict: bool) -> Vec<Case> {
    let mut out = Vec::new();
    for &(at, end) in &fields.counts {
        for lie in [u64::MAX, (end - at - 8) as u64 + 1] {
            out.push(Case {
                name: format!("count @{at} = {lie}"),
                bytes: put_u64(input, at, lie),
                must_fail: strict,
                capped: true,
            });
        }
    }
    for &at in &fields.heads {
        let rows = u64::from_le_bytes(input[at..at + 8].try_into().unwrap());
        for lie in [rows + 1, u64::MAX] {
            out.push(Case {
                name: format!("matrix rows @{at} = {lie}"),
                bytes: put_u64(input, at, lie),
                must_fail: true,
                capped: true,
            });
        }
    }
    for cut in (0..input.len()).step_by(stride).chain([input.len() - 1]) {
        out.push(Case {
            name: format!("prefix of {cut} bytes"),
            bytes: input[..cut].to_vec(),
            must_fail: strict,
            capped: true,
        });
    }
    for (i, at) in seeded_offsets(0x5EED ^ input.len() as u64, flips, input.len())
        .into_iter()
        .enumerate()
    {
        let mut bad = input.to_vec();
        bad[at] ^= 1 << (i % 8);
        out.push(Case {
            name: format!("bit {} @{at}", i % 8),
            bytes: bad,
            must_fail: false,
            capped: true,
        });
    }
    out
}

/// Record-level lies, each of which must fail: adjacent keys of one
/// kind swapped, a key duplicated, an unknown kind, and every row record
/// of a delta cut one `u64` short of a whole row (its length adjusted).
fn record_cases(input: &[u8], fields: &Fields, delta: bool) -> Vec<Case> {
    let key = |rec: &Rec| &input[rec.key_at()..rec.key_at() + 8];
    let mut out = Vec::new();
    for pair in fields.records.windows(2) {
        let (a, b) = (pair[0], pair[1]);
        if a.kind != b.kind {
            continue;
        }
        let mut swapped = input.to_vec();
        swapped[a.key_at()..a.key_at() + 8].copy_from_slice(key(&b));
        swapped[b.key_at()..b.key_at() + 8].copy_from_slice(key(&a));
        let mut duplicate = input.to_vec();
        duplicate[b.key_at()..b.key_at() + 8].copy_from_slice(key(&a));
        out.push(Case {
            name: format!("keys @{} and @{} swapped", a.kind_at, b.kind_at),
            bytes: swapped,
            must_fail: true,
            capped: true,
        });
        out.push(Case {
            name: format!("key @{} duplicated", b.kind_at),
            bytes: duplicate,
            must_fail: true,
            capped: true,
        });
    }
    for rec in &fields.records {
        let mut unknown = input.to_vec();
        unknown[rec.kind_at] = 0xEE;
        out.push(Case {
            name: format!("unknown kind @{}", rec.kind_at),
            bytes: unknown,
            must_fail: true,
            capped: true,
        });
        if delta && matches!(rec.kind, HISTORY | TRACK) {
            let end = rec.body + rec.len;
            let mut short = input[..end - 8].to_vec();
            short.extend_from_slice(&input[end..]);
            let short = put_u64(&short, rec.len_at(), rec.len as u64 - 8);
            out.push(Case {
                name: format!("row width @{}", rec.kind_at),
                bytes: short,
                must_fail: true,
                capped: true,
            });
        }
    }
    out
}

/// Runs every case through `decode`, which returns `Ok` for a valid
/// value and the typed error otherwise. `extra` is the length of any
/// other input the decoder reads (a delta's base checkpoint).
fn run(
    what: &str,
    cases: Vec<Case>,
    extra: usize,
    mut decode: impl FnMut(&[u8]) -> Result<(), TgsError>,
) {
    assert!(!cases.is_empty());
    for case in cases {
        let bound = ALLOC_FACTOR * (case.bytes.len() + extra) + ALLOC_SLACK;
        let (outcome, largest) =
            largest_allocation(|| catch_unwind(AssertUnwindSafe(|| decode(&case.bytes))));
        let outcome = outcome.unwrap_or_else(|_| panic!("{what}: {} panicked", case.name));
        assert!(
            !(case.must_fail && outcome.is_ok()),
            "{what}: {} decoded",
            case.name
        );
        assert!(
            !case.capped || largest <= bound,
            "{what}: {} allocated {largest} bytes at once (bound {bound})",
            case.name
        );
    }
}

/// A delta's apply must fail as `CorruptCheckpoint` or succeed.
fn corrupt_or_ok<T>(outcome: Result<T, TgsError>) -> Result<(), TgsError> {
    match outcome {
        Ok(_) => Ok(()),
        Err(e @ TgsError::CorruptCheckpoint { .. }) => Err(e),
        Err(e) => panic!("untyped delta failure: {e:?}"),
    }
}

/// A restore must fail as `CorruptCheckpoint` or yield an engine that
/// answers queries and checkpoints again.
fn restores_or_corrupt<E>(
    restored: Result<E, TgsError>,
    check: impl FnOnce(E) -> Result<(), TgsError>,
) -> Result<(), TgsError> {
    match restored {
        Ok(engine) => check(engine),
        Err(e @ TgsError::CorruptCheckpoint { .. }) => Err(e),
        Err(e) => panic!("untyped restore failure: {e:?}"),
    }
}

#[test]
fn single_engine_checkpoints() {
    let ckpt = fixture("engine_tip_v3.ckpt");
    let fields = Walk::new(&ckpt, 0, ckpt.len()).checkpoint();
    assert!(fields.records.len() > 50 && !fields.heads.is_empty());
    let mut mutated = cases(&ckpt, &fields, 397, 300, true);
    mutated.extend(record_cases(&ckpt, &fields, false));
    // Every bit of the configuration: an out-of-domain value is
    // corruption too, not a config error or a huge queue. These cases
    // are not capped: a restored engine allocates its ingest queue up
    // front, and a flipped queue-depth bit legitimately asks for up to
    // the builder's 65 536 slots.
    let config = fields.records[0].body;
    for at in config..config + CONFIG_LEN {
        for bit in 0..8 {
            let mut bad = ckpt.clone();
            bad[at] ^= 1 << bit;
            mutated.push(Case {
                name: format!("config bit {bit} @{at}"),
                bytes: bad,
                must_fail: false,
                capped: false,
            });
        }
    }
    run("checkpoint", mutated, 0, |bytes| {
        let restored = SentimentEngine::restore(&EngineCheckpoint::from_bytes(bytes.to_vec()));
        restores_or_corrupt(restored, |engine| {
            engine.query().timeline(..);
            engine.checkpoint().map(drop)
        })
    });
}

#[test]
fn multi_shard_checkpoints() {
    let ckpt = fixture("fleet_tip_v3.ckpt");
    let fields = Walk::new(&ckpt, 0, ckpt.len()).fleet_checkpoint();
    assert!(fields.records.len() > 80 && !fields.heads.is_empty());
    let mut mutated = cases(&ckpt, &fields, 613, 300, true);
    mutated.extend(record_cases(&ckpt, &fields, false));
    run("fleet checkpoint", mutated, 0, |bytes| {
        let restored = ShardedEngine::restore(&ShardedCheckpoint::from_bytes(bytes.to_vec()));
        restores_or_corrupt(restored, |fleet| {
            fleet.query().timeline(..)?;
            fleet.checkpoint()?;
            fleet.shutdown()
        })
    });
}

#[test]
fn single_engine_deltas() {
    let base = EngineCheckpoint::from_bytes(fixture("engine_base_v3.ckpt"));
    let delta = fixture("engine_v3.delta");
    let fields = Walk::new(&delta, 0, delta.len()).delta();
    assert!(fields.counts.len() > 20 && !fields.heads.is_empty());
    let mut mutated = cases(&delta, &fields, 211, 300, true);
    mutated.extend(record_cases(&delta, &fields, true));
    run("delta", mutated, base.len(), |bytes| {
        let delta = CheckpointDelta::from_bytes(bytes.to_vec());
        corrupt_or_ok(SentimentEngine::apply_delta(&base, &delta))
    });
}

#[test]
fn multi_shard_deltas() {
    let base = ShardedCheckpoint::from_bytes(fixture("fleet_base_v3.ckpt"));
    let delta = fixture("fleet_v3.delta");
    let fields = Walk::new(&delta, 0, delta.len()).fleet_delta();
    assert!(fields.counts.len() > 40 && !fields.heads.is_empty());
    let mut mutated = cases(&delta, &fields, 331, 300, true);
    mutated.extend(record_cases(&delta, &fields, true));
    run("fleet delta", mutated, base.len(), |bytes| {
        let delta = ShardedDelta::from_bytes(bytes.to_vec());
        corrupt_or_ok(ShardedEngine::apply_delta(&base, &delta))?;
        corrupt_or_ok(delta.tips())
    });
}

#[test]
fn migrated_users() {
    let users = fixture("users_0_6.migration");
    let fields = Walk::new(&users, 0, users.len()).migration();
    assert!(fields.counts.len() > 20);
    // An engine holding no users, so every valid import lands; each one
    // is exported again to leave the engine empty for the next case.
    let engine =
        SentimentEngine::restore(&EngineCheckpoint::from_bytes(fixture("engine_tip_v3.ckpt")))
            .unwrap();
    engine.export_users_bytes(0, usize::MAX);
    run(
        "migration",
        cases(&users, &fields, 7, 300, true),
        0,
        |bytes| {
            engine.import_users_bytes(bytes)?;
            engine.export_users_bytes(0, usize::MAX);
            Ok(())
        },
    );
}

/// A sample payload for every wire decoder, and the decoder.
type WireCase = (&'static str, Vec<u8>, fn(&[u8]) -> Result<(), TgsError>);

fn wire_cases() -> Vec<WireCase> {
    fn ok<T, E: Into<TgsError>>(r: Result<T, E>) -> Result<(), TgsError> {
        r.map(drop).map_err(Into::into)
    }
    let mut snapshot = EngineSnapshot::new(5);
    snapshot.push_text(1, "hi");
    snapshot.push_tokens(2, vec!["a".into(), "bc".into()]);
    snapshot.push_retweet(2, 0);
    snapshot.ghosts.push((3, vec![0.25, 0.75]));
    let entry = TimelineEntry {
        timestamp: 4,
        tweets: 3,
        users: 2,
        new_users: 1,
        evolving_users: 1,
        iterations: 6,
        converged: true,
        objective: 1.5,
        tweet_counts: vec![2, 1],
        user_counts: vec![1, 1],
    };
    let mut step_hist = LatencyHistogram::new();
    step_hist.record(1000);
    let stats = EngineStats {
        queued: 1,
        ingested: 2,
        dropped_capacity: 3,
        last_step_ns: 4,
        step_hist,
        ghost_edges: 5,
        dropped_cross_shard: 6,
        shard_unavailable: 7,
        simd: "avx2",
        threads: 2,
        pinned: false,
        respawns: 8,
        replayed_docs: 9,
        degraded_queries: 10,
    };
    let matrix = tripartite_sentiment::core::encode_matrix(
        &tripartite_sentiment::linalg::DenseMatrix::from_vec(2, 2, vec![0.5, 2.0, 1.0, 0.0])
            .unwrap(),
    );
    vec![
        ("u64", wire::enc_u64(7), |b| ok(wire::dec_u64(b))),
        ("pair", wire::enc_pair(3, 9), |b| ok(wire::dec_pair(b))),
        ("opt u64", wire::enc_opt_u64(Some(9)), |b| {
            ok(wire::dec_opt_u64(b))
        }),
        ("opt f64s", wire::enc_opt_f64s(&Some(vec![0.5, 1.0])), |b| {
            ok(wire::dec_opt_f64s(b))
        }),
        ("id bytes", wire::enc_id_bytes(7, b"section"), |b| {
            ok(wire::dec_id_bytes(b))
        }),
        ("opt bytes", wire::enc_opt_bytes(Some(b"delta")), |b| {
            ok(wire::dec_opt_bytes(b))
        }),
        ("u64s", wire::enc_u64s(&[1, 2, 3]), |b| {
            ok(wire::dec_u64s(b))
        }),
        (
            "strs",
            wire::enc_strs(&["ok".to_string(), "good".to_string()]),
            |b| ok(wire::dec_strs(b)),
        ),
        (
            "server info",
            wire::enc_server_info(Some((0, 50)), 2),
            |b| ok(wire::dec_server_info(b)),
        ),
        ("snapshot", wire::enc_snapshot(&snapshot), |b| {
            ok(wire::dec_snapshot(b))
        }),
        (
            "timeline",
            wire::enc_timeline(&[entry.clone(), entry]),
            |b| ok(wire::dec_timeline(b)),
        ),
        (
            "user sentiment",
            wire::enc_user_sentiment(&UserSentiment {
                user: 8,
                timestamp: 4,
                distribution: vec![0.75, 0.25],
            }),
            |b| ok(wire::dec_user_sentiment(b)),
        ),
        (
            "user timeline",
            wire::enc_user_timeline(&[(4, vec![1.0, 0.0]), (6, vec![0.5, 0.5])]),
            |b| ok(wire::dec_user_timeline(b)),
        ),
        (
            "cluster summary",
            wire::enc_cluster_summary(&ClusterSummary {
                timestamp: 4,
                tweet_counts: vec![2, 1],
                user_counts: vec![1, 1],
                tweet_shares: vec![0.5, 0.5],
            }),
            |b| ok(wire::dec_cluster_summary(b)),
        ),
        ("stats", wire::enc_stats(&stats), |b| ok(wire::dec_stats(b))),
        ("sf matrix", matrix.as_slice().to_vec(), |b| {
            decode_matrix(b)
                .map(drop)
                .ok_or(TgsError::corrupt("matrix"))
        }),
        (
            "error",
            wire::enc_error(&TgsError::net("peer", "refused")),
            |b| {
                // Always a value: a malformed error payload decodes as a
                // `Net` error against the peer.
                let _ = wire::dec_error(b, "peer");
                Ok(())
            },
        ),
    ]
}

#[test]
fn wire_payloads() {
    for (what, payload, decode) in wire_cases() {
        decode(&payload).unwrap_or_else(|e| panic!("{what}: the sample must decode: {e}"));
        // Small payloads: every 8-byte window stands in for a count.
        let fields = Fields {
            counts: (0..payload.len().saturating_sub(7))
                .map(|at| (at, payload.len()))
                .collect(),
            ..Fields::default()
        };
        run(what, cases(&payload, &fields, 1, 64, false), 0, decode);
    }
}
