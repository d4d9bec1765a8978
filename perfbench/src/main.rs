//! End-to-end streaming benchmark of the tripartite sentiment engine.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload firehose|trickle|recover --seed N --seconds S --trace 0|1 [--smoke]
//! ```
//!
//! Sets the workload's system up several times (`setup_s` is the median),
//! then runs rounds of the three phases in `workload.rs` until `--seconds`
//! have passed, checking every output on the way. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` spends half the time untraced and half
//! traced, replays the traced round's steps on one thread, and reports
//! the per-layer metrics, each layer's self time and the tracing
//! overhead. The last line of standard output is the result object; a
//! fuller report and the spans go to `perfbench/out/`.

mod phases;
mod replay;
mod stats;
mod system;
mod trace;
mod workload;

use std::alloc::{GlobalAlloc, Layout, System as SystemAlloc};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use tgs_core::TgsError;

use phases::Rec;
use stats::{hist_mean_ms, hist_quantile_ms, Samples};
use system::{Fleet, System};
use workload::Params;

/// Live-heap accounting: every allocation of the process counts. The
/// high-water mark is reset when a round starts; `peak_heap_mb` is the
/// median of the rounds' marks.
struct Metered;

static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

fn grow(n: usize) {
    let now = LIVE.fetch_add(n as u64, Ordering::Relaxed) + n as u64;
    PEAK.fetch_max(now, Ordering::Relaxed);
}

// SAFETY: every method forwards to the system allocator with the caller's
// arguments unchanged; the counters never affect the returned pointers.
unsafe impl GlobalAlloc for Metered {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { SystemAlloc.alloc(layout) };
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: `ptr` came from this allocator with this `layout`.
        unsafe { SystemAlloc.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let p = unsafe { SystemAlloc.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
            grow(new_size);
        }
        p
    }
}

#[global_allocator]
static ALLOC: Metered = Metered;

/// Set-ups per run: at least `SETUP_MIN`, more while they have taken
/// under `SETUP_BUDGET` in all, at most `SETUP_MAX`; `setup_s` is their
/// median. A cheap set-up is repeated more, so its median is as steady as
/// an expensive one's.
const SETUP_MIN: usize = 3;
const SETUP_MAX: usize = 15;
const SETUP_BUDGET: Duration = Duration::from_secs(1);

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            args.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.seconds <= 0.0 || !args.seconds.is_finite() {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// Solver thread budget per engine worker. With two shard workers on a
/// two-core box, one pool thread each keeps the runs steady; the budget is
/// stamped on every result.
const POOL_THREADS: usize = 1;

fn main() -> ExitCode {
    tgs_linalg::set_pool_threads_override(Some(POOL_THREADS));
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(2),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

/// What one measuring stretch produced.
struct Measured {
    rec: Rec,
    rounds: usize,
    digests: Vec<u64>,
    batches: Vec<tgs_engine::EngineSnapshot>,
}

/// One round: phases A, B and C from the set-up state. Returns the
/// round's timeline digest and, when `keep_batches`, phase A's batches.
fn round(
    sys: &System,
    p: &Params,
    seed: u64,
    rec: &mut Rec,
    traced: bool,
    keep_batches: bool,
) -> Result<(u64, Vec<tgs_engine::EngineSnapshot>), TgsError> {
    let _round = trace::span("round");
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
    let (ingest_digest, batches) = phases::ingest(sys, p, seed, rec, keep_batches)?;
    let fleet = trace::timed("round.deploy", || Fleet::deploy(sys))?;
    let next_ts = phases::trickle(sys, p, seed, &fleet, rec)?;
    let fleet_digest = phases::recover(sys, p, seed, &fleet, next_ts, rec, traced)?;
    fleet.shutdown()?;
    let figures = [
        ("round.docs_per_s", rec.get("ingest.docs_per_s").p50()),
        ("round.fresh_p50_ms", rec.get("e2e.fresh").p50()),
        ("round.fresh_p99_ms", rec.get("e2e.fresh").p99()),
        ("round.query_p50_ms", rec.get("e2e.query").p50()),
        ("round.query_p99_ms", rec.get("e2e.query").p99()),
        ("round.restore_p50_ms", rec.get("e2e.restore").p50()),
        ("round.recover_p50_ms", rec.get("e2e.recover").p50()),
        (
            "round.peak_heap_mb",
            PEAK.load(Ordering::Relaxed) as f64 / (1024.0 * 1024.0),
        ),
    ];
    for (name, value) in figures {
        rec.add(name, value);
    }
    Ok((ingest_digest ^ fleet_digest.rotate_left(1), batches))
}

/// Runs rounds until `budget` has passed (at least one measured). Every
/// round starts from the same state and the same seeded inputs, so every
/// round must produce the same digest. With `warm_up`, a smoke-size round
/// first pays the process's first-touch costs (page faults, heap growth,
/// first connections); its outputs are checked and its samples dropped.
fn measure(
    sys: &System,
    p: &Params,
    seed: u64,
    budget: Duration,
    traced: bool,
    warm_up: bool,
) -> Result<Measured, TgsError> {
    let mut m = Measured {
        rec: Rec::default(),
        rounds: 0,
        digests: Vec::new(),
        batches: Vec::new(),
    };
    if warm_up {
        let mut warm = Rec::default();
        let small = workload::params(p.name, true).expect("a known workload");
        round(sys, &small, seed, &mut warm, false, false)?;
        m.rec.attempted = warm.attempted;
        m.rec.failed = warm.failed;
        m.rec.failures = warm.failures;
    }
    let started = Instant::now();
    while m.rounds == 0 || started.elapsed() < budget {
        let mut r = Rec::default();
        let keep = traced && m.rounds == 0;
        let (digest, batches) = round(sys, p, seed, &mut r, traced, keep)?;
        if keep {
            m.batches = batches;
        }
        m.rec.merge(r);
        m.digests.push(digest);
        m.rounds += 1;
    }
    Ok(m)
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    samples: usize,
}

fn metric(out: &mut Vec<Metric>, name: &str, value: f64, unit: &'static str, samples: usize) {
    out.push(Metric {
        name: name.to_string(),
        value,
        unit,
        samples,
    });
}

/// The end-to-end metrics, each the median over rounds of the round's
/// own figure. The latency figures of phase B go to `info`: printed with
/// unit and sample count, but not gated, because on a shared two-core
/// host their run-to-run spread is wider than any useful bound.
fn end_to_end(rec: &Rec, setups: &Samples, out: &mut Vec<Metric>, info: &mut Vec<Metric>) {
    metric(out, "setup_s", setups.p50(), "s", setups.len());
    for (name, unit, gated) in [
        ("docs_per_s", "1/s", true),
        ("restore_p50_ms", "ms", true),
        ("recover_p50_ms", "ms", true),
        ("peak_heap_mb", "MB", true),
        ("fresh_p50_ms", "ms", false),
        ("fresh_p99_ms", "ms", false),
        ("query_p50_ms", "ms", false),
        ("query_p99_ms", "ms", false),
    ] {
        let rounds = rec.get(&format!("round.{name}"));
        let samples = match name {
            "restore_p50_ms" => rec.get("e2e.restore").len(),
            "recover_p50_ms" => rec.get("e2e.recover").len(),
            "fresh_p50_ms" | "fresh_p99_ms" => rec.get("e2e.fresh").len(),
            "query_p50_ms" | "query_p99_ms" => rec.get("e2e.query").len(),
            _ => rounds.len(),
        };
        let list = if gated { &mut *out } else { &mut *info };
        metric(list, name, rounds.p50(), unit, samples);
    }
}

/// Layers whose self time a traced run reports.
const LAYERS: [&str; 11] = [
    "load",
    "batch",
    "engine",
    "shard",
    "text",
    "data",
    "core",
    "net",
    "query",
    "ckpt",
    "supervise",
];

fn per_layer(traced: &Measured, untraced: &Measured, spans: &[trace::Span], out: &mut Vec<Metric>) {
    let rec = &traced.rec;
    let rounds = traced.rounds as f64;
    let mean = |name: &str| rec.get(name).mean();
    let p50 = |name: &str| rec.get(name).p50();
    let n = |name: &str| rec.get(name).len();

    metric(
        out,
        "batch.coalesce_ratio",
        mean("batch.coalesce_ratio"),
        "ratio",
        n("batch.coalesce_ratio"),
    );
    metric(
        out,
        "engine.ingest_block_ms",
        mean("engine.ingest_block"),
        "ms",
        n("engine.ingest_block"),
    );
    let steps = rec.step_hist.count() as usize;
    metric(
        out,
        "engine.step_p50_ms",
        hist_quantile_ms(&rec.step_hist, 0.5),
        "ms",
        steps,
    );
    metric(
        out,
        "engine.step_p99_ms",
        hist_quantile_ms(&rec.step_hist, 0.99),
        "ms",
        steps,
    );
    metric(
        out,
        "shard.load_skew",
        mean("shard.load_skew"),
        "ratio",
        n("shard.load_skew"),
    );
    metric(
        out,
        "load.fill_ms",
        rec.get("load.fill").sum() / rounds,
        "ms",
        traced.rounds,
    );

    let replayed = n("replay.step");
    metric(out, "text.encode_ms", p50("text.encode"), "ms", replayed);
    metric(
        out,
        "data.assemble_ms",
        p50("data.assemble"),
        "ms",
        replayed,
    );
    metric(out, "core.solve_ms", p50("core.solve"), "ms", replayed);
    metric(
        out,
        "core.iters_per_step",
        mean("core.iters"),
        "count",
        replayed,
    );
    let iters = rec.get("core.iters").sum().max(1.0);
    metric(
        out,
        "core.ms_per_iter",
        rec.get("core.solve").sum() / iters,
        "ms",
        replayed,
    );
    metric(
        out,
        "core.converged_share",
        mean("core.converged"),
        "share",
        replayed,
    );
    let residual = hist_mean_ms(&rec.step_hist) - mean("replay.step");
    metric(out, "engine.residual_ms", residual, "ms", replayed);
    metric(
        out,
        "replay.docs_per_s",
        mean("replay.docs_per_s"),
        "1/s",
        1,
    );

    metric(
        out,
        "net.ingest_ms",
        p50("net.ingest"),
        "ms",
        n("net.ingest"),
    );
    metric(out, "net.flush_ms", p50("net.flush"), "ms", n("net.flush"));
    metric(out, "net.ping_ms", p50("net.ping"), "ms", n("net.ping"));
    metric(
        out,
        "gen.late_ms",
        rec.get("gen.late").p99(),
        "ms",
        n("gen.late"),
    );
    for (name, key) in [
        ("query.latest_ms", "query.latest"),
        ("query.user_ms", "query.user"),
        ("query.timeline_ms", "query.timeline"),
        ("query.top_words_ms", "query.top_words"),
    ] {
        metric(out, name, p50(key), "ms", n(key));
    }

    for (name, key, unit) in [
        ("ckpt.full_ms", "ckpt.full", "ms"),
        ("ckpt.full_bytes", "ckpt.full_bytes", "bytes"),
        ("ckpt.delta_ms", "ckpt.delta", "ms"),
        ("ckpt.delta_bytes", "ckpt.delta_bytes", "bytes"),
        ("ckpt.apply_delta_ms", "ckpt.apply_delta", "ms"),
        ("ckpt.decode_ms", "ckpt.decode", "ms"),
        ("net.init_ms", "net.init", "ms"),
        ("supervise.replay_docs", "supervise.replay_docs", "count"),
        ("supervise.replay_ms", "supervise.replay", "ms"),
        ("supervise.refresh_ms", "supervise.refresh", "ms"),
    ] {
        metric(out, name, p50(key), unit, n(key));
    }

    let self_ms = trace::self_ms_by_layer(spans);
    for layer in LAYERS {
        let v = self_ms.get(layer).copied().unwrap_or(0.0);
        metric(
            out,
            &format!("self.{layer}_ms"),
            v / rounds,
            "ms",
            traced.rounds,
        );
    }
    metric(out, "trace.spans", spans.len() as f64, "count", 1);

    // Tracing overhead: the traced half of the run against the untraced
    // half, as a share of the untraced value (positive: slower traced).
    let (t, u) = (&traced.rec, &untraced.rec);
    for (name, key, higher_is_better) in [
        ("trace.overhead_docs_per_s", "ingest.docs_per_s", true),
        ("trace.overhead_fresh_p50", "e2e.fresh", false),
        ("trace.overhead_query_p50", "e2e.query", false),
        ("trace.overhead_restore_p50", "e2e.restore", false),
        ("trace.overhead_recover_p50", "e2e.recover", false),
    ] {
        let (tv, uv) = (t.get(key).p50(), u.get(key).p50());
        let share = if higher_is_better {
            (uv - tv) / uv
        } else {
            (tv - uv) / uv
        };
        metric(out, name, share, "share", t.get(key).len());
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number; non-finite values (which no metric should take) print
/// as 0 so the line stays parseable.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// The repository root, one level above this package.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .map_or_else(|| PathBuf::from("."), Path::to_path_buf)
}

/// The commit of the checkout when it is a git work tree, else "unknown".
fn commit() -> String {
    std::process::Command::new("git")
        .arg("-C")
        .arg(repo_root())
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// FNV-1a over the paths and bytes of the engine sources: identifies the
/// code measured when the checkout is not a git work tree.
fn source_digest() -> String {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let path = e.path();
            if path.is_dir() {
                walk(&path, files);
            } else if path.extension().is_some_and(|x| x == "rs" || x == "toml") {
                files.push(path);
            }
        }
    }
    let root = repo_root();
    let mut files = Vec::new();
    walk(&root.join("crates"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        let rel = f
            .strip_prefix(&root)
            .unwrap_or(f)
            .to_string_lossy()
            .into_owned();
        let bytes = std::fs::read(f).unwrap_or_default();
        for b in rel.as_bytes().iter().chain(&bytes) {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

fn run(args: &Args) -> Result<bool, TgsError> {
    let p = workload::params(&args.workload, args.smoke).ok_or_else(|| {
        TgsError::invalid_argument(format!(
            "unknown workload {:?} (expected one of {:?})",
            args.workload,
            workload::NAMES
        ))
    })?;
    let seed = args.seed;

    let mut setups = Samples::default();
    let setup_started = Instant::now();
    let sys = loop {
        let t = Instant::now();
        let built = System::build(&p)?;
        setups.push(t.elapsed().as_secs_f64());
        let n = setups.len();
        if n >= SETUP_MIN && (n >= SETUP_MAX || setup_started.elapsed() >= SETUP_BUDGET) {
            break built;
        }
        built.stop()?;
    };

    let budget = Duration::from_secs_f64(args.seconds);
    let mut metrics = Vec::new();
    let mut info = Vec::new();
    let (mut rec, digests, rounds) = if args.trace {
        let untraced = measure(&sys, &p, seed, budget / 2, false, true)?;
        trace::enable(true);
        let mut traced = measure(&sys, &p, seed, budget / 2, true, false)?;
        let batches = std::mem::take(&mut traced.batches);
        replay::replay(&sys, &batches, &mut traced.rec)?;
        trace::enable(false);
        let spans = trace::drain();
        per_layer(&traced, &untraced, &spans, &mut metrics);
        let path = out_dir()?.join(format!("{}-seed{}.spans.jsonl", p.name, seed));
        trace::write_jsonl(&path, &spans)
            .map_err(|e| TgsError::io(format!("cannot write {}", path.display()), e))?;
        let mut rec = untraced.rec;
        rec.merge(traced.rec);
        let mut digests = untraced.digests;
        digests.extend(traced.digests);
        (rec, digests, untraced.rounds + traced.rounds)
    } else {
        let m = measure(&sys, &p, seed, budget, false, true)?;
        end_to_end(&m.rec, &setups, &mut metrics, &mut info);
        (m.rec, m.digests, m.rounds)
    };
    sys.stop()?;

    let first = digests[0];
    rec.check(digests.iter().all(|&d| d == first), || {
        format!("rounds disagree on the timeline digest: {digests:x?}")
    });
    let correct = rec.failed == 0;

    let stamp = format!(
        "{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"smoke\":{},\"rounds\":{},\
         \"nproc\":{},\"pool_threads\":{},\"simd\":{},\"commit\":{},\"source_digest\":{},\
         \"digest\":\"{:016x}\"}}",
        json_str(p.name),
        seed,
        json_num(args.seconds),
        u8::from(args.trace),
        args.smoke,
        rounds,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        tgs_linalg::pool_threads(),
        json_str(tgs_linalg::simd_tier_name()),
        json_str(&commit()),
        json_str(&source_digest()),
        first,
    );
    println!(
        "perfbench {} seed={} trace={} rounds={rounds}",
        p.name,
        seed,
        u8::from(args.trace)
    );
    println!("stamp {stamp}");
    for (kind, list) in [("metric", &metrics), ("info", &info)] {
        for m in list {
            let (value, unit, n) = (json_num(m.value), m.unit, m.samples);
            println!("{kind} {} {value} {unit} n={n}", m.name);
        }
    }
    let fail_share = rec.failed as f64 / rec.attempted.max(1) as f64;
    println!(
        "checks attempted={} failed={} fail_share={}",
        rec.attempted,
        rec.failed,
        json_num(fail_share)
    );
    for f in &rec.failures {
        println!("failure {f}");
    }
    println!("digest {first:016x}");

    // `{"name":{"value":v,"unit":u[,"samples":n]},...}`
    let entries = |list: &[Metric], samples: bool| -> String {
        let body: Vec<String> = list
            .iter()
            .map(|m| {
                let n = match samples {
                    true => format!(",\"samples\":{}", m.samples),
                    false => String::new(),
                };
                let (name, value, unit) = (json_str(&m.name), json_num(m.value), json_str(m.unit));
                format!("{name}:{{\"value\":{value},\"unit\":{unit}{n}}}")
            })
            .collect();
        format!("{{{}}}", body.join(","))
    };
    let per_round: Vec<String> = rec
        .samples
        .iter()
        .filter(|(name, _)| name.starts_with("round."))
        .map(|(name, samples)| {
            let values: Vec<String> = samples.values().iter().map(|v| json_num(*v)).collect();
            format!("{}:[{}]", json_str(name), values.join(","))
        })
        .collect();
    let failures: Vec<String> = rec.failures.iter().map(|f| json_str(f)).collect();
    let report = format!(
        "{{\"stamp\":{stamp},\"rounds\":{{{}}},\"metrics\":{},\"info\":{},\
         \"attempted\":{},\"failed\":{},\"fail_share\":{},\"failures\":[{}]}}\n",
        per_round.join(","),
        entries(&metrics, true),
        entries(&info, true),
        rec.attempted,
        rec.failed,
        json_num(fail_share),
        failures.join(",")
    );
    let path = out_dir()?.join(format!(
        "{}-seed{}-trace{}.json",
        p.name,
        seed,
        u8::from(args.trace)
    ));
    std::fs::write(&path, report)
        .map_err(|e| TgsError::io(format!("cannot write {}", path.display()), e))?;
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        rec.attempted,
        rec.failed,
        entries(&metrics, false)
    );
    Ok(correct)
}

fn out_dir() -> Result<PathBuf, TgsError> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)
        .map_err(|e| TgsError::io(format!("cannot create {}", dir.display()), e))?;
    Ok(dir)
}
