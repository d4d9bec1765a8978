//! Set-up and tear-down of the system under test: the fitted engine
//! state every round starts from, and the loopback shard servers.

use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use tgs_core::{OnlineConfig, TgsError};
use tgs_data::{day_windows, generate, presets, Corpus, GeneratorConfig, PartitionMap};
use tgs_engine::{
    EngineBuilder, EngineSnapshot, RecoveryCounters, ShardTransport, ShardedCheckpoint,
    ShardedEngine,
};
use tgs_net::{NetConfig, ShardServer, SupervisedShard, Supervisor, SupervisorConfig, TcpShard};
use tgs_text::{PipelineConfig, Vocabulary};

use crate::trace;
use crate::workload::{Params, SHARDS};

/// What every round starts from.
pub struct System {
    pub corpus: Corpus,
    pub config: OnlineConfig,
    pub pipeline: PipelineConfig,
    /// The fitted engine (with any streamed history), checkpointed.
    pub ckpt0: ShardedCheckpoint,
    pub map: PartitionMap,
    pub vocab: Vocabulary,
    /// The vocabulary's tokens, the word pool of every generator.
    pub words: Vec<String>,
    /// First timestamp after the streamed history.
    pub first_ts: u64,
    /// Documents in the checkpointed history.
    pub history_docs: usize,
    servers: Vec<Server>,
}

struct Server {
    addr: String,
    thread: JoinHandle<Result<(), TgsError>>,
}

/// Client settings: no fault injection, whatever the environment says.
pub fn net_config() -> NetConfig {
    NetConfig {
        faults: None,
        ..NetConfig::default()
    }
}

/// Seed of the fitted corpus and of the solver's initialisation. Fixed,
/// like a deployed model: `--seed` draws the traffic, not the model, so
/// runs with different seeds do the same amount of work per document.
const MODEL_SEED: u64 = 42;

pub fn pipeline() -> PipelineConfig {
    let mut cfg = PipelineConfig::paper_defaults();
    cfg.vocab.min_count = 2;
    cfg
}

fn fit_corpus(p: &Params, seed: u64) -> Corpus {
    if p.history_tweets == 0 {
        let mut cfg = presets::tiny(seed);
        cfg.num_users = p.users;
        cfg.total_tweets = (2 * p.users).max(600);
        generate(&cfg)
    } else {
        generate(&GeneratorConfig {
            topic: format!("perfbench-{}", p.users),
            seed,
            num_users: p.users,
            total_tweets: p.history_tweets,
            num_days: 6,
            ..Default::default()
        })
    }
}

impl System {
    /// Fits the engine on the model corpus, streams its history, takes the
    /// checkpoint rounds restore from, and starts the shard servers.
    pub fn build(p: &Params) -> Result<Self, TgsError> {
        let corpus = fit_corpus(p, MODEL_SEED);
        let config = OnlineConfig {
            k: 3,
            max_iters: p.max_iters,
            seed: MODEL_SEED,
            ..Default::default()
        };
        let pipeline = pipeline();
        let engine = EngineBuilder::new()
            .online(config.clone())
            .pipeline(pipeline.clone())
            .fit_sharded(&corpus, SHARDS)?;
        let mut history_docs = 0;
        let mut first_ts = 0;
        if p.history_tweets > 0 {
            for (lo, hi) in day_windows(corpus.num_days, 2) {
                let snap = EngineSnapshot::from_corpus_window(&corpus, lo, hi);
                history_docs += snap.len();
                engine.ingest(snap)?;
            }
            engine.flush()?;
            first_ts = u64::from(corpus.num_days);
        }
        let ckpt0 = engine.checkpoint()?;
        let map = engine.map();
        let vocab = engine.vocabulary().clone();
        let words = vocab.tokens().to_vec();
        engine.shutdown()?;

        let mut servers = Vec::with_capacity(SHARDS);
        for _ in 0..SHARDS {
            let server = ShardServer::bind("127.0.0.1:0", None)?;
            let addr = server.local_addr()?.to_string();
            let thread = std::thread::Builder::new()
                .name("perfbench-shard-server".into())
                .spawn(move || server.run())
                .map_err(|e| TgsError::io("cannot spawn a shard server thread", e))?;
            servers.push(Server { addr, thread });
        }
        Ok(Self {
            corpus,
            config,
            pipeline,
            ckpt0,
            map,
            vocab,
            words,
            first_ts,
            history_docs,
            servers,
        })
    }

    pub fn addrs(&self) -> Vec<String> {
        self.servers.iter().map(|s| s.addr.clone()).collect()
    }

    /// Stops the shard servers and waits for their threads.
    pub fn stop(self) -> Result<(), TgsError> {
        for s in &self.servers {
            TcpShard::new(s.addr.clone(), 0, net_config()).terminate()?;
        }
        for s in self.servers {
            s.thread
                .join()
                .map_err(|_| TgsError::invalid_argument("a shard server thread panicked"))??;
        }
        Ok(())
    }
}

/// A supervised loopback fleet holding `System::ckpt0`.
pub struct Fleet {
    pub engine: ShardedEngine,
    pub supervisor: Arc<Supervisor>,
    pub shards: Vec<Arc<SupervisedShard>>,
    pub counters: Arc<RecoveryCounters>,
}

impl Fleet {
    /// Ships one checkpoint section to slot 0 of each server and wraps
    /// every handle in a `SupervisedShard` seeded with it: what
    /// `tgs_net::deploy_supervised` does, keeping the per-shard handles so
    /// a slot can be rebuilt on demand.
    pub fn deploy(sys: &System) -> Result<Self, TgsError> {
        let _g = trace::span("net.deploy");
        let sections = sys.ckpt0.sections()?;
        let counters = Arc::new(RecoveryCounters::default());
        let cfg = SupervisorConfig {
            checkpoint_every: 1,
            probe_interval: Duration::from_secs(3600),
            ..SupervisorConfig::default()
        };
        let mut shards = Vec::with_capacity(SHARDS);
        let mut transports: Vec<Arc<dyn ShardTransport>> = Vec::with_capacity(SHARDS);
        for (addr, section) in sys.addrs().into_iter().zip(sections) {
            let handle = Arc::new(TcpShard::new(addr, 0, net_config()));
            trace::timed("net.init", || handle.init(&section))?;
            let shard =
                SupervisedShard::new(handle, Some(section), Arc::clone(&counters), cfg.clone());
            shards.push(Arc::clone(&shard));
            transports.push(shard);
        }
        let mut engine = ShardedEngine::from_transports(sys.map.clone(), transports, false)?;
        engine.set_recovery_counters(Arc::clone(&counters));
        let supervisor = Supervisor::new(shards.clone(), Arc::clone(&counters), cfg);
        Ok(Self {
            engine,
            supervisor,
            shards,
            counters,
        })
    }

    /// Releases the server-side slots.
    pub fn shutdown(self) -> Result<(), TgsError> {
        self.supervisor.stop();
        self.engine.shutdown()
    }
}
