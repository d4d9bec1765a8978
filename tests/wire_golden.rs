//! Golden byte vectors for every `tgs_net::wire` payload codec.
//!
//! Each case encodes a fixed, hand-built value and compares the bytes
//! with a hex literal, then decodes the literal and compares the value.
//! A change to any payload layout fails here before it reaches a peer.

use tripartite_sentiment::core::{decode_matrix, encode_matrix, TgsError, TgsErrorKind};
use tripartite_sentiment::engine::{
    ClusterSummary, DocContent, EngineRetweet, EngineSnapshot, EngineStats, LatencyHistogram,
    TimelineEntry, UserSentiment,
};
use tripartite_sentiment::linalg::DenseMatrix;
use tripartite_sentiment::net::wire;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(s: &str) -> Vec<u8> {
    assert!(s.len().is_multiple_of(2), "odd hex length");
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
        .collect()
}

#[test]
fn scalar_payloads() {
    let golden = "0807060504030201";
    assert_eq!(hex(&wire::enc_u64(0x0102_0304_0506_0708)), golden);
    assert_eq!(
        wire::dec_u64(&unhex(golden)).unwrap(),
        0x0102_0304_0506_0708
    );

    for (value, golden) in [(Some(9), "010900000000000000"), (None, "00")] {
        assert_eq!(hex(&wire::enc_opt_u64(value)), golden);
        assert_eq!(wire::dec_opt_u64(&unhex(golden)).unwrap(), value);
    }

    for (value, golden) in [
        (
            Some(vec![0.5, -2.0]),
            "010200000000000000000000000000e03f00000000000000c0",
        ),
        (None, "00"),
    ] {
        assert_eq!(hex(&wire::enc_opt_f64s(&value)), golden);
        assert_eq!(wire::dec_opt_f64s(&unhex(golden)).unwrap(), value);
    }

    let golden = "07000000000000000300000000000000616263";
    assert_eq!(hex(&wire::enc_id_bytes(7, b"abc")), golden);
    assert_eq!(
        wire::dec_id_bytes(&unhex(golden)).unwrap(),
        (7, b"abc".to_vec())
    );

    for (value, golden) in [(Some(&b"xy"[..]), "0102000000000000007879"), (None, "00")] {
        assert_eq!(hex(&wire::enc_opt_bytes(value)), golden);
        assert_eq!(
            wire::dec_opt_bytes(&unhex(golden)).unwrap(),
            value.map(<[u8]>::to_vec)
        );
    }

    let golden = "020000000000000001000000000000000200000000000000";
    assert_eq!(hex(&wire::enc_u64s(&[1, 2])), golden);
    assert_eq!(wire::dec_u64s(&unhex(golden)).unwrap(), vec![1, 2]);

    let words = vec!["ok".to_string(), "é".to_string()];
    let golden = "020000000000000002000000000000006f6b0200000000000000c3a9";
    assert_eq!(hex(&wire::enc_strs(&words)), golden);
    assert_eq!(wire::dec_strs(&unhex(golden)).unwrap(), words);
}

#[test]
fn snapshot_payload() {
    let mut s = EngineSnapshot::new(5);
    s.push_text(1, "hi");
    s.push_tokens(2, vec!["a".into(), "bc".into()]);
    s.push_retweet(2, 0);
    s.ghosts.push((3, vec![0.25]));
    let golden = concat!(
        "0500000000000000",     // timestamp
        "0200000000000000",     // two docs
        "0100000000000000",     // doc 0: user 1,
        "00",                   // raw text
        "02000000000000006869", // "hi"
        "0200000000000000",     // doc 1: user 2,
        "01",                   // tokens:
        "0200000000000000",     // two of them
        "010000000000000061",   // "a"
        "02000000000000006263", // "bc"
        "0100000000000000",     // one retweet:
        "0200000000000000",     // user 2
        "0000000000000000",     // of doc 0
        "0100000000000000",     // one ghost:
        "0300000000000000",     // user 3
        "0100000000000000",     // with factor
        "000000000000d03f",     // [0.25]
    );
    assert_eq!(hex(&wire::enc_snapshot(&s)), golden);
    let back = wire::dec_snapshot(&unhex(golden)).unwrap();
    assert_eq!(back.timestamp, 5);
    assert_eq!(back.docs.len(), 2);
    assert_eq!(back.docs[0].user, 1);
    assert!(matches!(&back.docs[0].content, DocContent::Raw(t) if t == "hi"));
    assert_eq!(back.docs[1].user, 2);
    assert!(matches!(&back.docs[1].content, DocContent::Tokens(t) if t == &["a", "bc"]));
    assert_eq!(back.retweets, vec![EngineRetweet { user: 2, doc: 0 }]);
    assert_eq!(back.ghosts, vec![(3, vec![0.25])]);
}

#[test]
fn query_payloads() {
    let entry = TimelineEntry {
        timestamp: 4,
        tweets: 3,
        users: 2,
        new_users: 1,
        evolving_users: 1,
        iterations: 6,
        converged: true,
        objective: 1.5,
        tweet_counts: vec![2, 1],
        user_counts: vec![1, 1],
    };
    let golden = concat!(
        "0100000000000000",
        "0400000000000000",
        "0300000000000000",
        "0200000000000000",
        "0100000000000000",
        "0100000000000000",
        "0600000000000000",
        "01",
        "000000000000f83f",
        "020000000000000002000000000000000100000000000000",
        "020000000000000001000000000000000100000000000000",
    );
    assert_eq!(
        hex(&wire::enc_timeline(std::slice::from_ref(&entry))),
        golden
    );
    assert_eq!(wire::dec_timeline(&unhex(golden)).unwrap(), vec![entry]);

    let sentiment = UserSentiment {
        user: 8,
        timestamp: 4,
        distribution: vec![0.75, 0.25],
    };
    let golden = "080000000000000004000000000000000200000000000000000000000000e83f000000000000d03f";
    assert_eq!(hex(&wire::enc_user_sentiment(&sentiment)), golden);
    assert_eq!(wire::dec_user_sentiment(&unhex(golden)).unwrap(), sentiment);

    let rows = vec![(4u64, vec![1.0]), (6, vec![])];
    let golden = concat!(
        "0200000000000000",
        "04000000000000000100000000000000000000000000f03f",
        "06000000000000000000000000000000",
    );
    assert_eq!(hex(&wire::enc_user_timeline(&rows)), golden);
    assert_eq!(wire::dec_user_timeline(&unhex(golden)).unwrap(), rows);

    let summary = ClusterSummary {
        timestamp: 4,
        tweet_counts: vec![2, 1],
        user_counts: vec![1, 1],
        tweet_shares: vec![0.5, 0.5],
    };
    let golden = concat!(
        "0400000000000000",
        "020000000000000002000000000000000100000000000000",
        "020000000000000001000000000000000100000000000000",
        "0200000000000000000000000000e03f000000000000e03f",
    );
    assert_eq!(hex(&wire::enc_cluster_summary(&summary)), golden);
    assert_eq!(wire::dec_cluster_summary(&unhex(golden)).unwrap(), summary);

    // The SF_AT payload: `rows | cols | row-major f64s`.
    let m = DenseMatrix::from_vec(1, 2, vec![0.5, 2.0]).unwrap();
    let golden = "01000000000000000200000000000000000000000000e03f0000000000000040";
    assert_eq!(hex(encode_matrix(&m).as_slice()), golden);
    let back = decode_matrix(unhex(golden)).unwrap();
    assert_eq!((back.rows(), back.cols()), (1, 2));
    assert_eq!(back.as_slice(), m.as_slice());
}

#[test]
fn stats_payload() {
    let mut step_hist = LatencyHistogram::new();
    step_hist.record(1000);
    step_hist.add_shed(2);
    let stats = EngineStats {
        queued: 1,
        ingested: 2,
        dropped_capacity: 3,
        last_step_ns: 4,
        step_hist,
        ghost_edges: 5,
        dropped_cross_shard: 6,
        shard_unavailable: 7,
        simd: "avx2",
        threads: 2,
        pinned: false,
        respawns: 8,
        replayed_docs: 9,
        degraded_queries: 10,
    };
    let zeros = |n: usize| "0000000000000000".repeat(n);
    let golden = [
        "0100000000000000",         // queued
        "0200000000000000",         // ingested
        "0300000000000000",         // dropped_capacity
        "0400000000000000",         // last_step_ns
        "0500000000000000",         // ghost_edges
        "0600000000000000",         // dropped_cross_shard
        "0700000000000000",         // shard_unavailable
        "0200000000000000",         // threads
        "00",                       // pinned
        "040000000000000061767832", // "avx2"
        "0200000000000000",         // histogram shed
        "3001000000000000",         // 304 buckets; 1 µs lands in bucket 63
        &zeros(63),
        "0100000000000000",
        &zeros(240),
        "0800000000000000", // respawns
        "0900000000000000", // replayed_docs
        "0a00000000000000", // degraded_queries
    ]
    .concat();
    assert_eq!(hex(&wire::enc_stats(&stats)), golden);
    assert_eq!(wire::dec_stats(&unhex(&golden)).unwrap(), stats);
}

#[test]
fn error_payloads() {
    let cases = [
        (
            TgsError::StaleTopology {
                have: 1,
                current: 2,
            },
            "0901000000000000000200000000000000",
        ),
        (TgsError::UnknownUser { user: 3 }, "040300000000000000"),
        (
            TgsError::SnapshotUnavailable { timestamp: 4 },
            "030400000000000000",
        ),
        (TgsError::corrupt("bad"), "050300000000000000626164"),
        (TgsError::invalid_argument("no"), "0702000000000000006e6f"),
        (
            TgsError::net("p", "d"),
            "08010000000000000070010000000000000064",
        ),
        (TgsError::EngineClosed, "02"),
    ];
    for (error, golden) in cases {
        assert_eq!(hex(&wire::enc_error(&error)), golden, "{error}");
        let back = wire::dec_error(&unhex(golden), "peer");
        assert_eq!(back.kind(), error.kind(), "{error}");
        assert_eq!(back.to_string(), error.to_string());
    }
    assert_eq!(
        wire::dec_error(&unhex("ff"), "peer").kind(),
        TgsErrorKind::Net
    );
}

#[test]
fn request_and_server_info_payloads() {
    // `(lo, hi)` for TIMELINE and EXPORT_USERS, `(user, at)` for
    // USER_SENTIMENT: two little-endian u64s.
    let golden = "03000000000000000900000000000000";
    assert_eq!(hex(&wire::enc_pair(3, 9)), golden);
    assert_eq!(wire::dec_pair(&unhex(golden)).unwrap(), (3, 9));

    for (range, slots, golden) in [
        (
            Some((0, 50)),
            2,
            "01000000000000000032000000000000000200000000000000",
        ),
        (None, 0, "000000000000000000"),
    ] {
        assert_eq!(hex(&wire::enc_server_info(range, slots)), golden);
        assert_eq!(
            wire::dec_server_info(&unhex(golden)).unwrap(),
            (range, slots)
        );
    }
}
