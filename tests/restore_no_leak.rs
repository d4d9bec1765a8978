//! A failed multi-shard restore leaves no engine worker behind.
//!
//! `ShardedEngine::restore` decodes sections concurrently, so by the time
//! a later section fails, earlier sections may already have started
//! their engines' ingest workers. Those engines must be dropped — and
//! their worker threads joined — before the error returns.
//!
//! The check counts this process's live `tgs-engine-worker` threads, so
//! it lives alone in its own test binary: no other test can start or
//! stop engines while it counts.

use tripartite_sentiment::prelude::*;

/// Live engine worker threads of this process (Linux: thread names are
/// in `/proc/self/task/*/comm`, truncated to 15 bytes).
#[cfg(target_os = "linux")]
fn engine_workers() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|name| name.trim_end() == "tgs-engine-work")
        .count()
}

#[cfg(not(target_os = "linux"))]
fn engine_workers() -> usize {
    0
}

/// Waits (briefly) for exited threads to leave the task list.
fn settled_workers(expect: usize) -> usize {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    loop {
        let n = engine_workers();
        if n == expect || std::time::Instant::now() > deadline {
            return n;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
}

#[test]
fn a_corrupt_second_section_joins_the_first_sections_worker() {
    let c = generate(&presets::tiny(7));
    let engine = EngineBuilder::new()
        .k(3)
        .max_iters(4)
        .fit_sharded(&c, 2)
        .unwrap();
    for (lo, hi) in day_windows(c.num_days, 2) {
        engine
            .ingest(EngineSnapshot::from_corpus_window(&c, lo, hi))
            .unwrap();
    }
    let ckpt = engine.checkpoint().unwrap();
    engine.shutdown().unwrap();
    let sections = ckpt.sections().unwrap();
    assert_eq!(settled_workers(0), 0, "the source fleet has shut down");

    // Truncate the second section by a byte and re-frame it: the first
    // section still restores (starting its worker), the second fails.
    let mut bad = ckpt.as_bytes().to_vec();
    let second = bad.len() - sections[1].len();
    bad[second - 8..second].copy_from_slice(&(sections[1].len() as u64 - 1).to_le_bytes());
    bad.pop();
    for _ in 0..20 {
        let err = ShardedEngine::restore(&ShardedCheckpoint::from_bytes(bad.clone()))
            .err()
            .expect("a corrupt second section must fail the restore");
        assert_eq!(err.kind(), TgsErrorKind::CorruptCheckpoint, "{err}");
    }
    assert_eq!(
        settled_workers(0),
        0,
        "a failed restore leaked engine workers"
    );

    // The intact checkpoint still restores: two workers, then none.
    let restored = ShardedEngine::restore(&ckpt).unwrap();
    assert_eq!(settled_workers(2), 2);
    restored.shutdown().unwrap();
    assert_eq!(settled_workers(0), 0);
}
