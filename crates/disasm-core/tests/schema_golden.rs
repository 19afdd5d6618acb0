//! Golden-file schema compatibility: the `metadis.trace.v6` encoding is
//! pinned byte-for-byte against a checked-in file, and stripping each
//! version's additions must reproduce the previous version's golden
//! exactly: v6 minus the `timeline_summary` object is the v5 golden, v5
//! minus the parallelism fields (per-phase `shards` / `merge_wall_ns` and
//! the top-level `threads`) is the v4 golden, v4 minus
//! `alloc_bytes`/`alloc_peak` is the v3 golden, v3 minus the `spans` array
//! is the v2 golden. This is the contract that lets older consumers read
//! newer records without changes.
//!
//! Regenerate the goldens after an *intentional* schema change with
//! `BLESS=1 cargo test -p disasm-core --test schema_golden`.

use std::collections::BTreeMap;

use disasm_core::trace::{merged_report_json, PhaseStat, PipelineTrace};
use disasm_core::{Degradation, LimitKind};

const V6_GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/data/trace_v6_golden.json"
);
const V5_GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/data/trace_v5_golden.json"
);
const V4_GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/data/trace_v4_golden.json"
);
const V3_GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/data/trace_v3_golden.json"
);
const V2_GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/data/trace_v2_golden.json"
);

/// A fully deterministic trace: fixed timings, one degradation, a two-span
/// tree with counters, fixed allocation totals, a phase with a 4-way shard
/// split (built literally: the pipeline always records one shard, but the
/// v5 fields must keep their encoding), a fixed timeline summary. No clocks
/// are read anywhere in this test.
fn sample_trace() -> PipelineTrace {
    let mut t = PipelineTrace::new();
    t.phases.push(PhaseStat {
        name: "superset",
        wall_ns: 2_000_000,
        bytes: 4096,
        items: 4000,
        shards: 4,
        merge_wall_ns: 250_000,
    });
    t.record("viability", 1_000_000, 4096, 1200);
    t.record("default", 50_000, 4096, 96);
    t.total_wall_ns = 4_000_000;
    t.text_bytes = 4096;
    t.viability_iterations = 321;
    t.corrections_by_priority = [1, 0, 5, 2, 0];
    t.runs = 1;
    t.degradations.push(Degradation {
        phase: "correct",
        limit: LimitKind::CorrectionSteps,
        completed: 17,
    });
    t.spans.push(obs::Span {
        id: 0,
        parent: None,
        name: "pipeline",
        start_ns: 0,
        wall_ns: 4_000_000,
        counters: Vec::new(),
    });
    t.spans.push(obs::Span {
        id: 1,
        parent: Some(0),
        name: "superset",
        start_ns: 100,
        wall_ns: 2_000_000,
        counters: vec![("bytes", 4096), ("candidates", 4000)],
    });
    t.alloc_bytes = 786_432;
    t.alloc_peak = 262_144;
    t.threads = 4;
    t.timeline.critical_path_ns = 2_600_000;
    t.timeline.worker_utilization = 83;
    t.timeline.shard_skew = 12;
    t
}

fn sample_report() -> String {
    let snapshot = obs::Snapshot {
        counters: BTreeMap::from([
            ("pipeline.runs".to_string(), 1),
            ("superset.candidates".to_string(), 4000),
        ]),
        histograms: BTreeMap::new(),
    };
    merged_report_json(
        "golden",
        &[("metadis (ours)".to_string(), sample_trace())],
        &snapshot,
    )
}

/// Remove a run of `,"key1":N[,"key2":N...]` members given the leading key.
/// Each key's value must be a bare unsigned integer.
fn strip_u64_fields(json: &str, keys: &[&str]) -> String {
    let first = format!(r#","{}":"#, keys[0]);
    let mut out = String::with_capacity(json.len());
    let mut rest = json;
    while let Some(at) = rest.find(&first) {
        out.push_str(&rest[..at]);
        let mut tail = &rest[at..];
        for key in keys {
            let lead = format!(r#","{key}":"#);
            assert!(tail.starts_with(&lead), "expected {key} field");
            let after = &tail[lead.len()..];
            let digits = after.chars().take_while(char::is_ascii_digit).count();
            assert!(digits > 0, "malformed {key} value");
            tail = &after[digits..];
        }
        rest = tail;
    }
    out.push_str(rest);
    out
}

/// Remove every `,"key":{...}` object-valued member from a serialized
/// report by brace counting (the stripped objects never contain braces
/// inside strings).
fn strip_obj_field(json: &str, key: &str) -> String {
    let lead = format!(r#","{key}":{{"#);
    let mut out = String::with_capacity(json.len());
    let mut rest = json;
    while let Some(at) = rest.find(&lead) {
        out.push_str(&rest[..at]);
        let tail = &rest[at + lead.len() - 1..];
        let mut depth = 0usize;
        let mut end = 0;
        for (i, c) in tail.char_indices() {
            match c {
                '{' => depth += 1,
                '}' => {
                    depth -= 1;
                    if depth == 0 {
                        end = i + 1;
                        break;
                    }
                }
                _ => {}
            }
        }
        assert!(end > 0, "unterminated {key} object");
        rest = &tail[end..];
    }
    out.push_str(rest);
    out
}

/// Remove every v6 `,"timeline_summary":{...}` object from a serialized
/// report.
fn strip_timeline(json: &str) -> String {
    strip_obj_field(json, "timeline_summary")
}

/// Remove every v5 parallelism field from a serialized report: the per-phase
/// `,"shards":N,"merge_wall_ns":N` pair (always emitted together, in that
/// order) and the top-level `,"threads":N`.
fn strip_parallel(json: &str) -> String {
    let stripped = strip_u64_fields(json, &["shards", "merge_wall_ns"]);
    strip_u64_fields(&stripped, &["threads"])
}

/// Remove every `,"alloc_bytes":N,"alloc_peak":N` pair from a serialized
/// report (the two fields are always emitted together, in that order).
fn strip_alloc(json: &str) -> String {
    strip_u64_fields(json, &["alloc_bytes", "alloc_peak"])
}

/// Remove the `,"spans":[...]` member from a serialized trace object by
/// bracket counting (span arrays never contain nested arrays or brackets
/// inside strings).
fn strip_spans(json: &str) -> String {
    let mut out = String::with_capacity(json.len());
    let mut rest = json;
    while let Some(at) = rest.find(r#","spans":["#) {
        out.push_str(&rest[..at]);
        let tail = &rest[at + r#","spans":"#.len()..];
        let mut depth = 0usize;
        let mut end = 0;
        for (i, c) in tail.char_indices() {
            match c {
                '[' => depth += 1,
                ']' => {
                    depth -= 1;
                    if depth == 0 {
                        end = i + 1;
                        break;
                    }
                }
                _ => {}
            }
        }
        assert!(end > 0, "unterminated spans array");
        rest = &tail[end..];
    }
    out.push_str(rest);
    out
}

/// What a v5 emitter would have produced for the same run: the v6 record
/// minus the `timeline_summary` objects, with the schema tag rewound.
fn downgrade_to_v5(v6: &str) -> String {
    strip_timeline(v6).replace(
        r#""schema":"metadis.trace.v6""#,
        r#""schema":"metadis.trace.v5""#,
    )
}

/// What a v4 emitter would have produced: the v5 record minus the
/// parallelism fields, with the schema tag rewound.
fn downgrade_to_v4(v5: &str) -> String {
    strip_parallel(v5).replace(
        r#""schema":"metadis.trace.v5""#,
        r#""schema":"metadis.trace.v4""#,
    )
}

/// What a v3 emitter would have produced: the v4 record minus the
/// `alloc_bytes`/`alloc_peak` fields, with the schema tag rewound.
fn downgrade_to_v3(v4: &str) -> String {
    strip_alloc(v4).replace(
        r#""schema":"metadis.trace.v4""#,
        r#""schema":"metadis.trace.v3""#,
    )
}

/// What a v2 emitter would have produced: v3 minus the `spans` arrays.
fn downgrade_to_v2(v3: &str) -> String {
    strip_spans(v3).replace(
        r#""schema":"metadis.trace.v3""#,
        r#""schema":"metadis.trace.v2""#,
    )
}

#[test]
fn v6_report_matches_golden_byte_for_byte() {
    let got = sample_report();
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(V6_GOLDEN, &got).unwrap();
    }
    let want = std::fs::read_to_string(V6_GOLDEN).unwrap();
    assert_eq!(got, want, "v6 encoding drifted; BLESS=1 if intentional");
}

#[test]
fn v5_fields_survive_in_v6_byte_for_byte() {
    let got = downgrade_to_v5(&sample_report());
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(V5_GOLDEN, &got).unwrap();
    }
    let want = std::fs::read_to_string(V5_GOLDEN).unwrap();
    assert_eq!(
        got, want,
        "a v5-era field changed encoding; v6 must keep every v5 field intact"
    );
}

#[test]
fn v4_fields_survive_in_v6_byte_for_byte() {
    let got = downgrade_to_v4(&downgrade_to_v5(&sample_report()));
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(V4_GOLDEN, &got).unwrap();
    }
    let want = std::fs::read_to_string(V4_GOLDEN).unwrap();
    assert_eq!(
        got, want,
        "a v4-era field changed encoding; v6 must keep every v4 field intact"
    );
}

#[test]
fn v3_fields_survive_in_v6_byte_for_byte() {
    let got = downgrade_to_v3(&downgrade_to_v4(&downgrade_to_v5(&sample_report())));
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(V3_GOLDEN, &got).unwrap();
    }
    let want = std::fs::read_to_string(V3_GOLDEN).unwrap();
    assert_eq!(
        got, want,
        "a v3-era field changed encoding; v6 must keep every v3 field intact"
    );
}

#[test]
fn v2_fields_survive_in_v6_byte_for_byte() {
    let got = downgrade_to_v2(&downgrade_to_v3(&downgrade_to_v4(&downgrade_to_v5(
        &sample_report(),
    ))));
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(V2_GOLDEN, &got).unwrap();
    }
    let want = std::fs::read_to_string(V2_GOLDEN).unwrap();
    assert_eq!(
        got, want,
        "a v2-era field changed encoding; v6 must keep every v2 field intact"
    );
}

#[test]
fn goldens_declare_their_schemas() {
    let v6 = std::fs::read_to_string(V6_GOLDEN).unwrap();
    let v5 = std::fs::read_to_string(V5_GOLDEN).unwrap();
    let v4 = std::fs::read_to_string(V4_GOLDEN).unwrap();
    let v3 = std::fs::read_to_string(V3_GOLDEN).unwrap();
    let v2 = std::fs::read_to_string(V2_GOLDEN).unwrap();
    assert!(v6.contains(r#""schema":"metadis.trace.v6""#));
    assert!(v6.contains(
        r#""timeline_summary":{"critical_path_ns":2600000,"worker_utilization":83,"shard_skew":12}"#
    ));
    assert!(v5.contains(r#""schema":"metadis.trace.v5""#));
    assert!(v5.contains(r#""shards":4"#));
    assert!(v5.contains(r#""merge_wall_ns":250000"#));
    assert!(v5.contains(r#""threads":4"#));
    assert!(!v5.contains(r#""timeline_summary""#));
    assert!(v4.contains(r#""schema":"metadis.trace.v4""#));
    assert!(v4.contains(r#""alloc_bytes":786432"#));
    assert!(v4.contains(r#""alloc_peak":262144"#));
    assert!(!v4.contains(r#""shards""#));
    assert!(!v4.contains(r#""threads""#));
    assert!(v3.contains(r#""schema":"metadis.trace.v3""#));
    assert!(v3.contains(r#""spans":[{"id":0"#));
    assert!(!v3.contains(r#""alloc_bytes""#));
    assert!(v2.contains(r#""schema":"metadis.trace.v2""#));
    assert!(!v2.contains(r#""spans""#));
    // every v2 top-level trace field appears in all five
    for key in [
        r#""text_bytes""#,
        r#""wall_ns""#,
        r#""viability_iterations""#,
        r#""corrections_by_priority""#,
        r#""phases""#,
        r#""degradations""#,
        r#""metrics""#,
    ] {
        assert!(v6.contains(key), "v6 missing {key}");
        assert!(v5.contains(key), "v5 missing {key}");
        assert!(v4.contains(key), "v4 missing {key}");
        assert!(v3.contains(key), "v3 missing {key}");
        assert!(v2.contains(key), "v2 missing {key}");
    }
}
