//! Smoke-size self-test of every workload: each metric named in
//! `BENCHMARK.json` is emitted with its unit and sample count, every
//! output check passes, and the same seed gives the same timeline digest.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

/// A parsed JSON value (just what this test reads).
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(m) => m.get(key).unwrap_or_else(|| panic!("missing key {key:?}")),
            other => panic!("not an object: {other:?}"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("not a string: {other:?}"),
        }
    }

    fn num(&self) -> f64 {
        match self {
            Json::Num(n) => *n,
            other => panic!("not a number: {other:?}"),
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(a) => a,
            other => panic!("not an array: {other:?}"),
        }
    }

    fn obj(&self) -> &BTreeMap<String, Json> {
        match self {
            Json::Obj(m) => m,
            other => panic!("not an object: {other:?}"),
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn parse(text: &str) -> Json {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value();
        p.ws();
        assert_eq!(p.i, p.s.len(), "trailing bytes after JSON value");
        v
    }

    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(
            self.s.get(self.i),
            Some(&c),
            "expected {:?} at {}",
            c as char,
            self.i
        );
        self.i += 1;
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.s[self.i] {
            b'{' => {
                self.i += 1;
                let mut m = BTreeMap::new();
                self.ws();
                if self.s[self.i] == b'}' {
                    self.i += 1;
                    return Json::Obj(m);
                }
                loop {
                    self.ws();
                    let Json::Str(k) = self.value() else {
                        panic!("object key must be a string")
                    };
                    self.eat(b':');
                    let v = self.value();
                    assert!(m.insert(k.clone(), v).is_none(), "duplicate key {k:?}");
                    self.ws();
                    self.i += 1;
                    match self.s[self.i - 1] {
                        b',' => continue,
                        b'}' => return Json::Obj(m),
                        c => panic!("unexpected {:?} in object", c as char),
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut a = Vec::new();
                self.ws();
                if self.s[self.i] == b']' {
                    self.i += 1;
                    return Json::Arr(a);
                }
                loop {
                    a.push(self.value());
                    self.ws();
                    self.i += 1;
                    match self.s[self.i - 1] {
                        b',' => continue,
                        b']' => return Json::Arr(a),
                        c => panic!("unexpected {:?} in array", c as char),
                    }
                }
            }
            b'"' => {
                self.i += 1;
                let mut out = String::new();
                loop {
                    let c = self.s[self.i];
                    self.i += 1;
                    match c {
                        b'"' => return Json::Str(out),
                        b'\\' => {
                            let e = self.s[self.i];
                            self.i += 1;
                            match e {
                                b'u' => {
                                    let hex = std::str::from_utf8(&self.s[self.i..self.i + 4])
                                        .expect("ascii escape");
                                    let code = u32::from_str_radix(hex, 16).expect("hex escape");
                                    out.push(char::from_u32(code).unwrap_or('?'));
                                    self.i += 4;
                                }
                                b'n' => out.push('\n'),
                                b't' => out.push('\t'),
                                other => out.push(other as char),
                            }
                        }
                        _ => {
                            let start = self.i - 1;
                            let mut end = self.i;
                            while end < self.s.len() && (self.s[end] & 0xC0) == 0x80 {
                                end += 1;
                            }
                            out.push_str(std::str::from_utf8(&self.s[start..end]).expect("utf-8"));
                            self.i = end;
                        }
                    }
                }
            }
            b't' => {
                self.i += 4;
                Json::Bool(true)
            }
            b'f' => {
                self.i += 5;
                Json::Bool(false)
            }
            b'n' => {
                self.i += 4;
                Json::Null
            }
            _ => {
                let start = self.i;
                while self.i < self.s.len() && b"+-0123456789.eE".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.i]).expect("ascii number");
                Json::Num(
                    text.parse()
                        .unwrap_or_else(|_| panic!("bad number {text:?}")),
                )
            }
        }
    }
}

fn benchmark() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    Parser::parse(&std::fs::read_to_string(&path).expect("read BENCHMARK.json"))
}

/// Metric name → unit, from one section of `BENCHMARK.json`.
fn declared(bench: &Json, section: &str) -> BTreeMap<String, String> {
    bench
        .get(section)
        .arr()
        .iter()
        .map(|m| {
            (
                m.get("name").str().to_string(),
                m.get("unit").str().to_string(),
            )
        })
        .collect()
}

struct Run {
    stdout: String,
    result: Json,
}

fn run(workload: &str, seed: u64, trace: u8) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "1", "--trace", &trace.to_string(), "--smoke"])
        .output()
        .expect("run the benchmark");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    assert!(
        out.status.success(),
        "{workload} trace {trace} exited with {}:\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("some output");
    Run {
        result: Parser::parse(last),
        stdout,
    }
}

fn digest(run: &Run) -> String {
    run.stdout
        .lines()
        .find_map(|l| l.strip_prefix("digest "))
        .expect("a digest line")
        .to_string()
}

/// The result object has exactly the contract's keys, every check
/// passed, and its metrics are exactly `expected`, with their units and a
/// `metric <name> <value> <unit> n=<samples>` line each.
fn assert_result(run: &Run, expected: &BTreeMap<String, String>, nonzero: bool) {
    let r = &run.result;
    let keys: Vec<&str> = r.obj().keys().map(String::as_str).collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    assert_eq!(r.get("correct"), &Json::Bool(true), "{}", run.stdout);
    assert_eq!(r.get("failed").num(), 0.0, "{}", run.stdout);
    assert!(r.get("attempted").num() >= 1.0);
    let metrics = r.get("metrics").obj();
    let got: Vec<&String> = metrics.keys().collect();
    let want: Vec<&String> = expected.keys().collect();
    assert_eq!(got, want, "emitted metrics differ from BENCHMARK.json");
    for (name, unit) in expected {
        let m = metrics[name].obj();
        assert_eq!(m.len(), 2, "{name}: value and unit only");
        assert_eq!(m["unit"].str(), unit, "{name}: unit");
        let v = m["value"].num();
        assert!(v.is_finite(), "{name} = {v}");
        if nonzero {
            assert!(v != 0.0, "{name} reads 0");
        }
        let line = run
            .stdout
            .lines()
            .find(|l| l.starts_with(&format!("metric {name} ")))
            .unwrap_or_else(|| panic!("no metric line for {name}"));
        let fields: Vec<&str> = line.split(' ').collect();
        assert_eq!(fields.len(), 5, "{line}");
        assert_eq!(fields[3], unit, "{line}");
        let n: usize = fields[4]
            .strip_prefix("n=")
            .and_then(|n| n.parse().ok())
            .unwrap_or_else(|| panic!("no sample count in {line}"));
        assert!(n >= 1, "{line}");
    }
}

/// The phase B latency figures, printed as `info` lines beside the gated
/// end-to-end metrics.
const INFO: [&str; 4] = [
    "fresh_p50_ms",
    "fresh_p99_ms",
    "query_p50_ms",
    "query_p99_ms",
];

/// Every workload the binary runs; `BENCHMARK.json` gates a subset.
const WORKLOADS: [&str; 3] = ["firehose", "trickle", "recover"];

#[test]
fn every_workload_emits_every_metric_and_passes_its_checks() {
    let bench = benchmark();
    let end_to_end = declared(&bench, "end_to_end");
    let per_layer = declared(&bench, "per_layer");
    for w in bench.get("workloads").arr() {
        let name = w.get("name").str();
        assert!(WORKLOADS.contains(&name), "unknown workload {name}");
    }
    for name in WORKLOADS {
        let untraced = run(name, 7, 0);
        assert_result(&untraced, &end_to_end, true);
        for info in INFO {
            let line = untraced
                .stdout
                .lines()
                .find(|l| l.starts_with(&format!("info {info} ")))
                .unwrap_or_else(|| panic!("{name}: no info line for {info}"));
            let fields: Vec<&str> = line.split(' ').collect();
            assert_eq!(fields.len(), 5, "{line}");
            assert_eq!(fields[3], "ms", "{line}");
            assert!(fields[4].starts_with("n="), "{line}");
        }
        assert_result(&run(name, 7, 1), &per_layer, false);
    }
}

#[test]
fn same_seed_same_digest() {
    let a = run("trickle", 11, 0);
    let b = run("trickle", 11, 0);
    let c = run("trickle", 12, 0);
    assert_eq!(digest(&a), digest(&b), "same seed, different outputs");
    assert_ne!(digest(&a), digest(&c), "the seed does not reach the inputs");
}

#[test]
fn rejects_bad_arguments_without_a_result() {
    for args in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &[
            "--workload",
            "firehose",
            "--seed",
            "x",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &[
            "--workload",
            "firehose",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2",
        ][..],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(args)
            .output()
            .expect("run the benchmark");
        assert!(!out.status.success(), "{args:?} succeeded");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
