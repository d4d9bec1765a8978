//! Byte-exact restore at every fleet shape.
//!
//! `ShardedEngine::restore` decodes its sections concurrently and adopts
//! factor-store bytes instead of decoding and re-encoding them. Neither
//! may change a byte: a restored fleet must checkpoint back to exactly
//! the checkpoint it came from, at 1, 2 and 4 shards, with cross-shard
//! edges dropped or kept as ghosts, after streamed history and after the
//! store budgets evicted old factor snapshots.

use tripartite_sentiment::prelude::*;

/// Small enough that every shard's factor stores evict their oldest
/// snapshots over the stream (asserted below).
const EVICTING_BUDGET: usize = 16 << 10;

fn streamed(c: &Corpus, shards: usize, ghost: bool) -> ShardedEngine {
    let engine = EngineBuilder::new()
        .k(3)
        .max_iters(8)
        .seed(42)
        .store_budget_bytes(EVICTING_BUDGET)
        .ghost_users(ghost)
        .fit_sharded(c, shards)
        .expect("valid configuration");
    for (lo, hi) in day_windows(c.num_days, 1) {
        engine
            .ingest(EngineSnapshot::from_corpus_window(c, lo, hi))
            .unwrap();
    }
    engine.flush().unwrap();
    engine
}

#[test]
fn restore_then_checkpoint_is_byte_identical_at_1_2_4_shards() {
    let c = generate(&presets::tiny(42));
    for ghost in [false, true] {
        for shards in [1, 2, 4] {
            let case = format!("{shards} shards, ghost {ghost}");
            let engine = streamed(&c, shards, ghost);
            let timeline = engine.query().timeline(..).unwrap();
            let (first, last) = (timeline[0].timestamp, timeline.last().unwrap().timestamp);
            assert!(
                matches!(
                    engine.query().top_words(first, 3),
                    Err(TgsError::SnapshotUnavailable { .. })
                ),
                "{case}: the budget must have evicted the first snapshot"
            );
            assert!(engine.query().top_words(last, 3).is_ok(), "{case}");

            let ckpt = engine.checkpoint().unwrap();
            let restored = ShardedEngine::restore(&ckpt).unwrap();
            assert_eq!(restored.shards(), shards, "{case}");
            assert_eq!(restored.ghost_mode(), ghost, "{case}");
            assert_eq!(restored.query().timeline(..).unwrap(), timeline, "{case}");
            assert_eq!(
                restored.checkpoint().unwrap().as_bytes(),
                ckpt.as_bytes(),
                "{case}: restore → checkpoint must reproduce every byte"
            );
            // The same holds one level down, for every section alone.
            for (i, section) in ckpt.sections().unwrap().into_iter().enumerate() {
                let one = SentimentEngine::restore(&EngineCheckpoint::from_bytes(section.clone()))
                    .unwrap();
                assert_eq!(
                    one.checkpoint().unwrap().as_bytes(),
                    section.as_slice(),
                    "{case}: section {i}"
                );
            }
            restored.shutdown().unwrap();
            engine.shutdown().unwrap();
        }
    }
}
