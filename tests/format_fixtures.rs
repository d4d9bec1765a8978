//! Byte-for-byte pins of every persisted format.
//!
//! `tests/fixtures/formats/` holds bytes written by the engine on a
//! `tiny(29)` corpus (k = 3, window 3, a 4 KB factor-store budget, so
//! budget evictions and inline window entries both occur; the base is
//! taken after six 1-day windows, the tip after all twelve): a
//! single-engine base checkpoint, the delta to the tip and the tip
//! checkpoint; the same triple for a 2-shard ghost-mode fleet; and one
//! migrated-users payload (users `0..6` exported from the single-engine
//! tip).
//!
//! The `*_v3` files are the current keyed-record formats (checkpoint v3,
//! delta v2). Each must decode and re-encode to identical bytes, and
//! `apply(base, delta)` must reproduce the tip exactly. The files without
//! a suffix hold the same states in the previous formats (checkpoint v2,
//! delta v1), which no reader accepts any more: every restore path and
//! `apply_delta` must refuse them with a typed error. Nothing here runs
//! the solver, so the outcome does not depend on the SIMD tier.

use tripartite_sentiment::core::TgsError;
use tripartite_sentiment::engine::{
    CheckpointDelta, EngineCheckpoint, SentimentEngine, ShardedCheckpoint, ShardedDelta,
    ShardedEngine,
};

fn fixture(name: &str) -> Vec<u8> {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/formats")
        .join(name);
    std::fs::read(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn engine_roundtrip(name: &str) -> SentimentEngine {
    let bytes = fixture(name);
    let engine = SentimentEngine::restore(&EngineCheckpoint::from_bytes(bytes.clone())).unwrap();
    assert!(
        engine.checkpoint().unwrap().as_bytes() == bytes.as_slice(),
        "{name}: restore → checkpoint changed the bytes"
    );
    engine
}

fn fleet_roundtrip(name: &str) -> ShardedEngine {
    let bytes = fixture(name);
    let fleet = ShardedEngine::restore(&ShardedCheckpoint::from_bytes(bytes.clone())).unwrap();
    assert!(
        fleet.checkpoint().unwrap().as_bytes() == bytes.as_slice(),
        "{name}: restore → checkpoint changed the bytes"
    );
    fleet
}

#[test]
fn single_engine_fixtures_restore_and_reencode_identically() {
    engine_roundtrip("engine_base_v3.ckpt");
    engine_roundtrip("engine_tip_v3.ckpt");
    let base = EngineCheckpoint::from_bytes(fixture("engine_base_v3.ckpt"));
    let delta = CheckpointDelta::from_bytes(fixture("engine_v3.delta"));
    let tip = SentimentEngine::apply_delta(&base, &delta).unwrap();
    assert!(tip.as_bytes() == fixture("engine_tip_v3.ckpt").as_slice());
}

#[test]
fn fleet_fixtures_restore_and_reencode_identically() {
    let fleet = fleet_roundtrip("fleet_base_v3.ckpt");
    assert_eq!(fleet.shards(), 2);
    assert!(fleet.ghost_mode());
    fleet_roundtrip("fleet_tip_v3.ckpt");
    let base = ShardedCheckpoint::from_bytes(fixture("fleet_base_v3.ckpt"));
    let delta = ShardedDelta::from_bytes(fixture("fleet_v3.delta"));
    assert!(ShardedDelta::sniff(delta.as_bytes()));
    let tip = ShardedEngine::apply_delta(&base, &delta).unwrap();
    assert!(tip.as_bytes() == fixture("fleet_tip_v3.ckpt").as_slice());
}

#[test]
fn migration_fixture_imports_and_reexports_identically() {
    let users = fixture("users_0_6.migration");
    assert!(users.len() > 16, "the fixture carries user rows");
    let engine = engine_roundtrip("engine_tip_v3.ckpt");
    // The fixture was exported from this state: a fresh export matches it,
    assert_eq!(engine.export_users_bytes(0, 6), users);
    // and importing it back and exporting again reproduces it too.
    engine.import_users_bytes(&users).unwrap();
    assert_eq!(engine.export_users_bytes(0, 6), users);
}

/// Fails unless `outcome` is a `CorruptCheckpoint` error.
fn assert_corrupt<T>(outcome: Result<T, TgsError>, case: &str) {
    match outcome {
        Err(TgsError::CorruptCheckpoint { .. }) => {}
        Err(e) => panic!("{case}: untyped failure {e:?}"),
        Ok(_) => panic!("{case}: accepted"),
    }
}

#[test]
fn previous_format_files_are_refused_typed() {
    for name in ["engine_base.ckpt", "engine_tip.ckpt"] {
        assert_corrupt(
            SentimentEngine::restore(&EngineCheckpoint::from_bytes(fixture(name))),
            name,
        );
        assert_corrupt(ShardedEngine::restore_any(fixture(name)), name);
    }
    for name in ["fleet_base.ckpt", "fleet_tip.ckpt"] {
        assert_corrupt(
            ShardedEngine::restore(&ShardedCheckpoint::from_bytes(fixture(name))),
            name,
        );
        assert_corrupt(ShardedEngine::restore_any(fixture(name)), name);
    }
    // Old deltas on either base, and new deltas on old bases.
    let engine_delta = |name| CheckpointDelta::from_bytes(fixture(name));
    let engine_base = |name| EngineCheckpoint::from_bytes(fixture(name));
    for (base, delta) in [
        ("engine_base.ckpt", "engine.delta"),
        ("engine_base_v3.ckpt", "engine.delta"),
        ("engine_base.ckpt", "engine_v3.delta"),
    ] {
        assert_corrupt(
            SentimentEngine::apply_delta(&engine_base(base), &engine_delta(delta)),
            &format!("{base} + {delta}"),
        );
    }
    let fleet_delta = |name| ShardedDelta::from_bytes(fixture(name));
    let fleet_base = |name| ShardedCheckpoint::from_bytes(fixture(name));
    for (base, delta) in [
        ("fleet_base.ckpt", "fleet.delta"),
        ("fleet_base_v3.ckpt", "fleet.delta"),
        ("fleet_base.ckpt", "fleet_v3.delta"),
    ] {
        assert_corrupt(
            ShardedEngine::apply_delta(&fleet_base(base), &fleet_delta(delta)),
            &format!("{base} + {delta}"),
        );
    }
}
