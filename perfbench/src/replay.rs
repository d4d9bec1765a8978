//! Single-threaded replay of phase A's solver steps, layer call by layer
//! call, on this thread: the per-step split of engine time into text,
//! data and core, and the single-threaded baseline of the same job.
//!
//! Each recorded batch is routed per shard like the router does, and each
//! shard slice goes through the calls the engine worker makes for one
//! step — `tokenize_features_into` / `Vocabulary::encode_into`,
//! `assemble_snapshot_matrices`, `OnlineSolver::try_step_with_ghosts` —
//! against one fresh solver per shard. The worker's commit (timeline,
//! per-user history, factor stores) is not replayed; it is part of
//! `engine.residual_ms`.

use std::collections::HashMap;
use std::time::Instant;

use tgs_core::{OnlineSolver, SnapshotData, TgsError, TriInput};
use tgs_data::{assemble_snapshot_matrices, SnapshotMatrices};
use tgs_engine::{DocContent, EngineSnapshot};
use tgs_text::tokenize_features_into;

use crate::phases::{split, Rec};
use crate::system::System;
use crate::trace;
use crate::workload::SHARDS;

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Replays `batches` and records per-step `text.encode`, `data.assemble`,
/// `core.solve`, `core.iters`, `core.converged` and `replay.step` samples,
/// plus `replay.docs_per_s`.
pub fn replay(sys: &System, batches: &[EngineSnapshot], rec: &mut Rec) -> Result<(), TgsError> {
    let k = sys.config.k;
    let sf0 = sys
        .corpus
        .lexicon
        .prior_matrix(&sys.vocab, k, sys.pipeline.lexicon_confidence);
    let mut solvers = (0..SHARDS)
        .map(|_| OnlineSolver::try_new(sys.config.clone()))
        .collect::<Result<Vec<_>, _>>()?;
    let mut tokens = Vec::new();
    let mut docs = 0usize;
    let started = Instant::now();
    for batch in batches {
        let subs = trace::timed("shard.route", || split(&sys.map, batch));
        for (shard, sub) in subs.into_iter().enumerate() {
            if sub.docs.is_empty() {
                continue;
            }
            let _step = trace::span("replay.step");
            let step_started = Instant::now();
            docs += sub.docs.len();

            let encoded = rec.time("text.encode", || {
                sub.docs
                    .iter()
                    .map(|doc| {
                        let mut ids = Vec::new();
                        match &doc.content {
                            DocContent::Raw(text) => {
                                tokenize_features_into(text, &sys.pipeline.tokenizer, &mut tokens);
                                sys.vocab
                                    .encode_into(tokens.iter().map(String::as_str), &mut ids);
                            }
                            DocContent::Tokens(toks) => {
                                sys.vocab
                                    .encode_into(toks.iter().map(String::as_str), &mut ids);
                            }
                        }
                        ids
                    })
                    .collect::<Vec<_>>()
            });
            let (user_ids, matrices) = rec.time("data.assemble", || {
                let mut user_ids: Vec<usize> = sub
                    .docs
                    .iter()
                    .map(|d| d.user)
                    .chain(sub.retweets.iter().map(|r| r.user))
                    .collect();
                user_ids.sort_unstable();
                user_ids.dedup();
                let local: HashMap<usize, usize> =
                    user_ids.iter().enumerate().map(|(i, &u)| (u, i)).collect();
                let doc_users: Vec<usize> = sub.docs.iter().map(|d| local[&d.user]).collect();
                let pairs: Vec<(usize, usize)> = sub
                    .retweets
                    .iter()
                    .map(|r| (local[&r.user], r.doc))
                    .collect();
                let m = user_ids.len();
                let matrices = assemble_snapshot_matrices(
                    &sys.vocab,
                    &encoded,
                    &doc_users,
                    m,
                    &pairs,
                    sys.pipeline.weighting,
                );
                (user_ids, matrices)
            });

            let SnapshotMatrices { xp, xu, xr, graph } = &matrices;
            let input = TriInput {
                xp,
                xu,
                xr,
                graph,
                sf0: &sf0,
            };
            let step = rec.time("core.solve", || {
                solvers[shard].try_step_with_ghosts(
                    &SnapshotData {
                        input,
                        user_ids: &user_ids,
                    },
                    &[],
                )
            })?;
            rec.add("core.iters", step.iterations as f64);
            rec.add("core.converged", f64::from(u8::from(step.converged)));
            rec.add("replay.step", ms(step_started));
        }
    }
    rec.add(
        "replay.docs_per_s",
        docs as f64 / started.elapsed().as_secs_f64().max(1e-9),
    );
    Ok(())
}
