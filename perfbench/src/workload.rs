//! The named workloads and their sizes.
//!
//! Every workload runs the same three phases on its own traffic and
//! state, so every end-to-end metric exists on every workload; the sizes
//! decide which layer dominates each figure.
//!
//! * phase A, ingest: Zipf `LoadGen` traffic through `BatchingIngest`
//!   into an in-process 2-shard `ShardedEngine`, closed loop, a fixed
//!   number of documents per round (`docs_per_s`);
//! * phase B, trickle: small raw-text snapshots with distinct timestamps
//!   sent unbatched to a 2-server loopback TCP fleet on a fixed schedule
//!   (open loop), each followed by a query mix (`fresh_*`, `query_*`);
//! * phase C, recover cycles on the same fleet: delta checkpoint, full
//!   checkpoint, restore, and the rebuild of one supervised slot
//!   (`restore_p50_ms`, `recover_p50_ms`).

/// Sizes of one workload.
#[derive(Debug, Clone)]
pub struct Params {
    pub name: &'static str,
    /// User-id universe of the fitted corpus and of every generator.
    pub users: usize,
    /// Corpus tweets streamed into the engine at set-up as per-user
    /// history (0: the engine starts with an empty history).
    pub history_tweets: usize,
    /// Solver iteration cap per step.
    pub max_iters: usize,
    /// Phase A: documents per round.
    pub ingest_docs: usize,
    /// Phase A: documents per generated snapshot.
    pub ingest_docs_per_snapshot: usize,
    /// Phase A: batch bucket width in timestamps (1: no coalescing, as
    /// every generated snapshot has its own timestamp).
    pub batch_bucket: u64,
    /// Phase B: snapshots per round.
    pub trickle_snapshots: usize,
    /// Phase B: send rate in snapshots per second.
    pub trickle_rate_hz: f64,
    /// Phase B: documents per snapshot.
    pub trickle_docs: usize,
    /// Phase C: recover cycles per round.
    pub recover_cycles: usize,
    /// Phase C: share of users each ingested window touches.
    pub touch_share: f64,
}

pub const NAMES: [&str; 3] = ["firehose", "trickle", "recover"];

/// Shards of the in-process engine and servers of the TCP fleet.
pub const SHARDS: usize = 2;

/// Phase C: restores of each cycle's full checkpoint. A restore is short
/// next to the rest of a cycle, so several per cycle give
/// `restore_p50_ms` enough samples per round to hold steady.
pub const RESTORES_PER_CYCLE: usize = 4;

/// The parameters of workload `name`; `smoke` shrinks every size so a
/// self-test finishes in seconds.
pub fn params(name: &str, smoke: bool) -> Option<Params> {
    let mut p = match name {
        // The per-document cost path: big coalesced steps, small state.
        "firehose" => Params {
            name: "firehose",
            users: 2_000,
            history_tweets: 0,
            max_iters: 20,
            ingest_docs: 196_608,
            ingest_docs_per_snapshot: 32,
            batch_bucket: 16,
            trickle_snapshots: 100,
            trickle_rate_hz: 50.0,
            trickle_docs: 16,
            recover_cycles: 10,
            touch_share: 0.05,
        },
        // Per-step fixed cost, wire round trips and query fan-out.
        "trickle" => Params {
            name: "trickle",
            users: 2_000,
            history_tweets: 0,
            max_iters: 20,
            ingest_docs: 8_192,
            ingest_docs_per_snapshot: 16,
            batch_bucket: 1,
            trickle_snapshots: 160,
            trickle_rate_hz: 50.0,
            trickle_docs: 16,
            recover_cycles: 6,
            touch_share: 0.05,
        },
        // State size: tens of thousands of users with streamed history.
        "recover" => Params {
            name: "recover",
            users: 20_000,
            history_tweets: 60_000,
            max_iters: 20,
            ingest_docs: 131_072,
            ingest_docs_per_snapshot: 32,
            batch_bucket: 16,
            trickle_snapshots: 50,
            trickle_rate_hz: 50.0,
            trickle_docs: 16,
            recover_cycles: 10,
            touch_share: 0.05,
        },
        _ => return None,
    };
    if smoke {
        p.users = p.users.min(400);
        p.history_tweets = p.history_tweets.min(1_200);
        p.ingest_docs = p.ingest_docs.min(512);
        p.trickle_snapshots = p.trickle_snapshots.min(20);
        p.recover_cycles = p.recover_cycles.min(2);
    }
    Some(p)
}
