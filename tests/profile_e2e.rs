//! End-to-end flight-recorder tests: the `metadis profile` command driven
//! through the CLI on a seeded workload, its Chrome trace-event export
//! parsed back and checked for structural validity (balanced begin/end
//! pairs per lane), for the single-lane shape of a one-binary run at any
//! `--threads`, and for deterministic event counts across identical runs. The companion cost assertion — the
//! recorder must stay under 5% wall overhead — lives in the throughput
//! bench (`profiler-on` arm), which exits nonzero when the budget is blown.

use metadis::gen::{GenConfig, OptProfile, Workload};
use obs::json::JsonValue;
use std::collections::BTreeMap;
use std::sync::Mutex;

/// `metadis::cli::run` installs and tears down process-global observability
/// state (log sink, flight-recorder gate); tests that route through it must
/// not race each other.
static CLI_LOCK: Mutex<()> = Mutex::new(());

/// A seeded O2 workload of 64 functions (~20 KiB of text).
fn write_elf(path: &std::path::Path, seed: u64) {
    let workload = Workload::generate(&GenConfig::new(seed, OptProfile::O2, 64, 0.10));
    std::fs::write(path, workload.to_elf().to_bytes()).unwrap();
}

fn run_profile(elf: &str, threads: usize, trace_out: &str) -> String {
    let args: Vec<String> = [
        "profile",
        elf,
        "--threads",
        &threads.to_string(),
        "--chrome-trace",
        trace_out,
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let lane = obs::timeline::lane();
    let out = metadis::cli::run(&args).unwrap();
    // the command records its calling thread as `main` only for the run
    assert_eq!(obs::timeline::lane(), lane, "profile left its lane pinned");
    out
}

/// Count of each `(ph, name, tid)` combination — the deterministic shape of
/// a trace, with the timing stripped out.
fn event_shape(trace: &JsonValue) -> BTreeMap<(String, String, u64), usize> {
    let mut shape = BTreeMap::new();
    for e in trace.get("traceEvents").unwrap().as_arr().unwrap() {
        let key = (
            e.get("ph").unwrap().as_str().unwrap().to_string(),
            e.get("name").unwrap().as_str().unwrap().to_string(),
            e.get("tid").unwrap().as_u64().unwrap(),
        );
        *shape.entry(key).or_insert(0) += 1;
    }
    shape
}

#[test]
fn chrome_trace_is_valid_and_balanced_at_each_thread_count() {
    let dir = std::env::temp_dir().join(format!("metadis-profile-e2e-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let elf = dir.join("profile.elf");
    write_elf(&elf, 21);

    let _cli = CLI_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let mut shapes = Vec::new();
    for threads in [1usize, 2, 4] {
        let out_path = dir.join(format!("trace-t{threads}.json"));
        let text = run_profile(elf.to_str().unwrap(), threads, out_path.to_str().unwrap());
        assert!(text.contains("timeline events"), "{text}");
        assert!(text.contains("chrome trace written"), "{text}");

        let raw = std::fs::read_to_string(&out_path).unwrap();
        let trace = obs::json::parse(&raw).expect("chrome trace parses as JSON");
        let events = trace.get("traceEvents").unwrap().as_arr().unwrap();
        assert!(!events.is_empty(), "no events at threads={threads}");

        // B/E pairs balance per lane, and no E ever arrives on an empty
        // stack (events are emitted in per-lane order)
        let mut depth: BTreeMap<u64, i64> = BTreeMap::new();
        for e in events {
            let ph = e.get("ph").unwrap().as_str().unwrap();
            let tid = e.get("tid").unwrap().as_u64().unwrap();
            match ph {
                "B" => *depth.entry(tid).or_insert(0) += 1,
                "E" => {
                    let d = depth.entry(tid).or_insert(0);
                    *d -= 1;
                    assert!(*d >= 0, "E below depth 0 on lane {tid} (threads={threads})");
                }
                "M" | "i" => {}
                other => panic!("unexpected phase {other:?}"),
            }
        }
        for (tid, d) in &depth {
            assert_eq!(*d, 0, "unbalanced B/E on lane {tid} at threads={threads}");
        }

        // one binary runs on one thread: `--threads` sizes only the
        // file-level pools, so the only lane is `main`
        let lanes: Vec<&str> = events
            .iter()
            .filter(|e| e.get("ph").unwrap().as_str() == Some("M"))
            .map(|e| e.path("args.name").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(lanes, ["main"], "threads={threads}");
        shapes.push(event_shape(&trace));
        assert_eq!(
            trace
                .path("otherData.dropped_events")
                .unwrap()
                .as_u64()
                .unwrap(),
            0
        );
    }
    assert_eq!(shapes[1], shapes[0], "event shape at threads=2 vs 1");
    assert_eq!(shapes[2], shapes[0], "event shape at threads=4 vs 1");
}

#[test]
fn event_counts_are_stable_for_a_seeded_corpus() {
    let dir = std::env::temp_dir().join(format!("metadis-profile-det-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let elf = dir.join("det.elf");
    write_elf(&elf, 22);

    let _cli = CLI_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let mut shapes = Vec::new();
    for run in 0..2 {
        let out_path = dir.join(format!("det-{run}.json"));
        run_profile(elf.to_str().unwrap(), 2, out_path.to_str().unwrap());
        let raw = std::fs::read_to_string(&out_path).unwrap();
        shapes.push(event_shape(&obs::json::parse(&raw).unwrap()));
    }
    assert_eq!(
        shapes[0], shapes[1],
        "same seeded input, same thread count — the recorded event shape must match"
    );
}

#[test]
fn recorder_stays_off_outside_profile_mode() {
    let dir = std::env::temp_dir().join(format!("metadis-profile-off-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let elf = dir.join("off.elf");
    write_elf(&elf, 23);

    let _cli = CLI_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // drain anything earlier tests left behind, then run a plain command
    let _ = obs::timeline::take();
    let args: Vec<String> = ["disasm", elf.to_str().unwrap()]
        .iter()
        .map(|s| s.to_string())
        .collect();
    metadis::cli::run(&args).unwrap();
    assert!(
        !obs::timeline::enabled(),
        "disasm must not enable the recorder"
    );
    assert_eq!(
        obs::timeline::take().len(),
        0,
        "no timeline events outside profile/serve mode"
    );
}
