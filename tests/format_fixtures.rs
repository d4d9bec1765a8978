//! Byte-for-byte pins of every persisted format.
//!
//! `tests/fixtures/formats/` holds bytes written by the engine on a
//! `tiny(29)` corpus (k = 3, window 3, a 4 KB factor-store budget, so
//! budget evictions and inline window entries both occur): a single-engine
//! base checkpoint, the delta to the tip and the tip checkpoint; the same
//! triple for a 2-shard ghost-mode fleet; and one migrated-users payload
//! (users `0..6` exported from the single-engine tip).
//!
//! Each fixture must decode and re-encode to identical bytes, and
//! `apply(base, delta)` must reproduce the tip exactly. Nothing here runs
//! the solver, so the outcome does not depend on the SIMD tier.

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
    engine_roundtrip("engine_base.ckpt");
    engine_roundtrip("engine_tip.ckpt");
    let base = EngineCheckpoint::from_bytes(fixture("engine_base.ckpt"));
    let delta = CheckpointDelta::from_bytes(fixture("engine.delta"));
    let tip = SentimentEngine::apply_delta(&base, &delta).unwrap();
    assert!(tip.as_bytes() == fixture("engine_tip.ckpt").as_slice());
}

#[test]
fn fleet_fixtures_restore_and_reencode_identically() {
    let fleet = fleet_roundtrip("fleet_base.ckpt");
    assert_eq!(fleet.shards(), 2);
    assert!(fleet.ghost_mode());
    fleet_roundtrip("fleet_tip.ckpt");
    let base = ShardedCheckpoint::from_bytes(fixture("fleet_base.ckpt"));
    let delta = ShardedDelta::from_bytes(fixture("fleet.delta"));
    assert!(ShardedDelta::sniff(delta.as_bytes()));
    let tip = ShardedEngine::apply_delta(&base, &delta).unwrap();
    assert!(tip.as_bytes() == fixture("fleet_tip.ckpt").as_slice());
}

#[test]
fn migration_fixture_imports_and_reexports_identically() {
    let users = fixture("users_0_6.migration");
    assert!(users.len() > 16, "the fixture carries user rows");
    let engine = engine_roundtrip("engine_tip.ckpt");
    // The fixture was exported from this state: a fresh export matches it,
    assert_eq!(engine.export_users_bytes(0, 6), users);
    // and importing it back and exporting again reproduces it too.
    engine.import_users_bytes(&users).unwrap();
    assert_eq!(engine.export_users_bytes(0, 6), users);
}
