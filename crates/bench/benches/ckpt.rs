//! Checkpoint encoding benchmarks: full snapshots vs delta checkpoints
//! across activity rates — the quantitative case for the O(changes)
//! delta path. A full checkpoint re-encodes the entire session
//! (vocabulary, every user's history, all retained factors) no matter
//! how little changed; `delta_since` encodes only the users touched
//! since the base mark. The series pins down both the byte and the
//! latency ratio as the fraction of users touched per step shrinks.
//!
//! The decode side rides along at the 5% point: `apply_delta` and a
//! full `restore` of the fleet, at one and two shards.
//!
//! Measured sizes are embedded in the benchmark ids (`..._<N>B`) so the
//! `BENCH_ckpt.json` artifact carries bytes alongside nanoseconds.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use std::hint::black_box;
use tgs_data::{day_windows, generate, Corpus, GeneratorConfig};
use tgs_engine::{EngineBuilder, EngineSnapshot, ShardedEngine};

/// Users in the benchmark corpus; `BENCH_FAST=1` shrinks it 10× so the
/// smoke leg stays quick. The committed artifact uses the full size.
fn corpus_users() -> usize {
    let fast = std::env::var("BENCH_FAST").is_ok_and(|v| v == "1");
    if fast {
        4_000
    } else {
        40_000
    }
}

fn bench_corpus(users: usize) -> Corpus {
    generate(&GeneratorConfig {
        topic: format!("ckpt-{users}"),
        num_users: users,
        total_tweets: users * 3,
        num_days: 6,
        ..Default::default()
    })
}

/// Drives one engine "step": a snapshot touching exactly `touched`
/// users (rotating through the user space so no single user's history
/// balloons across setup repetitions), ingested and flushed.
struct StepDriver {
    users: usize,
    next_user: usize,
    next_ts: u64,
}

impl StepDriver {
    fn new(corpus: &Corpus) -> Self {
        Self {
            users: corpus.num_users(),
            next_user: 0,
            next_ts: corpus.num_days as u64,
        }
    }

    fn step(&mut self, engine: &ShardedEngine, touched: usize) {
        let mut snap = EngineSnapshot::new(self.next_ts);
        self.next_ts += 1;
        for _ in 0..touched {
            snap.push_text(
                self.next_user % self.users,
                "steady benchmark chatter good solid results today",
            );
            self.next_user += 1;
        }
        engine.ingest(snap).expect("ingest");
        engine.flush().expect("flush");
    }
}

/// One measured point: warm an engine, record the deterministic delta
/// and full sizes for a step touching `pct`% of users, then time full
/// encodes (freely repeatable) and delta encodes (each iteration
/// re-arms a fresh base mark and replays one step in untimed setup, so
/// the timed region is exactly the delta encoding of an r%-step).
/// `with_decode` adds the decode side: `apply_delta` (base + delta →
/// full checkpoint) and `restore` (full checkpoint → a running fleet
/// that has answered one query, the benchmark's restore figure).
fn bench_rate(c: &mut Criterion, corpus: &Corpus, shards: usize, pct: usize, with_decode: bool) {
    let users = corpus.num_users();
    let touched = (users * pct / 100).max(1);
    let engine = EngineBuilder::new()
        .k(3)
        .max_iters(4)
        .fit_sharded(corpus, shards)
        .expect("fit");
    // Stream the whole corpus through the live engine so every user
    // carries retained history — the state a long-running deployment
    // checkpoints. Without this, fitting alone leaves per-user state
    // near-empty and full snapshots unrealistically cheap.
    for (lo, hi) in day_windows(corpus.num_days, 2) {
        engine
            .ingest(EngineSnapshot::from_corpus_window(corpus, lo, hi))
            .expect("ingest window");
    }
    engine.flush().expect("flush");
    let mut driver = StepDriver::new(corpus);
    // Prime the vocabulary so measured deltas don't pay the one-off
    // cost of the synthetic step's first-seen tokens.
    driver.step(&engine, touched);

    let (tips, base) = engine.checkpoint_base().expect("base");
    driver.step(&engine, touched);
    let delta = engine
        .delta_since(&tips)
        .expect("delta encode")
        .expect("fresh tips must be servable");
    let full = engine.checkpoint().expect("full");
    let (delta_bytes, full_bytes) = (delta.len(), full.len());

    let mut group = c.benchmark_group(format!("ckpt_encode_n{users}_s{shards}"));
    group.sample_size(10);
    group.bench_with_input(
        BenchmarkId::new(format!("full_{full_bytes}B"), pct),
        &(),
        |b, _| b.iter(|| black_box(engine.checkpoint().expect("full"))),
    );
    group.bench_with_input(
        BenchmarkId::new(format!("delta_{delta_bytes}B"), pct),
        &(),
        |b, _| {
            b.iter_batched(
                || {
                    let (tips, _) = engine.checkpoint_base().expect("base");
                    driver.step(&engine, touched);
                    tips
                },
                |tips| {
                    black_box(
                        engine
                            .delta_since(&tips)
                            .expect("delta encode")
                            .expect("fresh tips must be servable"),
                    )
                },
                BatchSize::PerIteration,
            )
        },
    );
    if with_decode {
        group.bench_with_input(BenchmarkId::new("apply_delta", pct), &(), |b, _| {
            b.iter(|| black_box(ShardedEngine::apply_delta(&base, &delta).expect("apply")))
        });
        group.bench_with_input(BenchmarkId::new("restore", pct), &(), |b, _| {
            b.iter_batched(
                || (),
                |()| {
                    let restored = ShardedEngine::restore(&full).expect("restore");
                    black_box(restored.query().timeline(..).expect("query"));
                    restored
                },
                // Shutdown (joining the workers) happens outside the
                // timed region, when criterion drops the output.
                BatchSize::PerIteration,
            )
        });
    }
    group.finish();
    engine.shutdown().expect("shutdown");
}

fn bench_ckpt_encode(c: &mut Criterion) {
    let corpus = bench_corpus(corpus_users());
    // Single-shard series: the acceptance point is 5% (delta must be
    // ≥5× smaller and faster than full there); 1% and 20% bracket it
    // and 100% bounds the worst case (every user touched).
    for &pct in &[1usize, 5, 20, 100] {
        bench_rate(c, &corpus, 1, pct, pct == 5);
    }
    // Two sections: the section-parallel restore path.
    bench_rate(c, &corpus, 2, 5, true);
    // Multi-section assembly through the 4-shard router path.
    bench_rate(c, &corpus, 4, 5, false);
}

criterion_group!(benches, bench_ckpt_encode);
criterion_main!(benches);
