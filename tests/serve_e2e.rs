//! End-to-end batch-service test: a real TCP server answering `/metrics`
//! and `/healthz`, fed two disassembly requests, scraped with the same
//! client the `metadis scrape` command uses.

use metadis::core::{Config, Limits};
use metadis::gen::{GenConfig, Workload};
use metadis::serve::{scrape, Server};
use std::sync::Mutex;

/// `metadis::cli::run` installs and tears down the process-global log sink;
/// tests that route through it must not race each other.
static CLI_LOCK: Mutex<()> = Mutex::new(());

fn write_elf(path: &std::path::Path, seed: u64) {
    let workload = Workload::generate(&GenConfig::small(seed));
    std::fs::write(path, workload.to_elf().to_bytes()).unwrap();
}

#[test]
fn serve_answers_metrics_and_healthz_and_counts_requests() {
    let dir = std::env::temp_dir().join(format!("metadis-serve-e2e-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let elf = dir.join("serve.elf");
    write_elf(&elf, 11);

    obs::alloc::set_enabled(true);
    let server = Server::start("127.0.0.1:0").unwrap();
    let addr = server.addr().to_string();

    // health before any work
    assert_eq!(scrape(&addr, "/healthz").unwrap(), "ok\n");

    // two requests: one good ELF, twice
    let cfg = Config::default();
    let path = elf.to_str().unwrap();
    let a = server.process_path(path, &cfg).unwrap();
    let b = server.process_path(path, &cfg).unwrap();
    assert!(a.instructions > 0);
    assert_eq!(a.instructions, b.instructions, "same input, same result");

    // the exposition surface reflects both requests, labeled by endpoint
    let metrics = scrape(&addr, "/metrics").unwrap();
    assert!(
        metrics.contains(r#"metadis_requests_total{endpoint="batch"} 2"#),
        "{metrics}"
    );
    assert!(
        metrics.contains("metadis_request_errors_total 0"),
        "{metrics}"
    );
    // scrape() negotiates the OpenMetrics exposition, where a counter
    // family is declared without the _total suffix its samples carry and
    // the body ends with the mandatory EOF marker
    assert!(
        metrics.contains("# TYPE metadis_requests counter"),
        "{metrics}"
    );
    assert!(metrics.ends_with("# EOF\n"), "{metrics}");
    assert!(metrics.contains("metadis_up 1"), "{metrics}");
    // instructions accumulate across requests
    let want = format!("metadis_instructions_total {}", a.instructions * 2);
    assert!(metrics.contains(&want), "missing '{want}' in {metrics}");
    // with the count-alloc feature (default) the requests allocated
    if cfg!(feature = "count-alloc") {
        assert!(
            !metrics.contains("metadis_alloc_bytes_total 0\n"),
            "{metrics}"
        );
    }

    // a bad request is counted as an error, not a crash
    assert!(server
        .process_path(dir.join("missing.elf").to_str().unwrap(), &cfg)
        .is_err());
    let metrics = scrape(&addr, "/metrics").unwrap();
    assert!(
        metrics.contains("metadis_request_errors_total 1"),
        "{metrics}"
    );
    // the error is answered too, so the per-endpoint counter includes it
    // while the internal success counter does not
    assert!(
        metrics.contains(r#"metadis_requests_total{endpoint="batch"} 3"#),
        "{metrics}"
    );
    assert_eq!(server.requests(), 2);

    server.shutdown();
}

#[test]
fn serve_command_drains_a_request_file() {
    let dir = std::env::temp_dir().join(format!("metadis-serve-cmd-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let elf = dir.join("batch.elf");
    write_elf(&elf, 12);
    let list = dir.join("requests.txt");
    std::fs::write(
        &list,
        format!(
            "# comment lines and blanks are skipped\n\n{}\n{}\n",
            elf.display(),
            elf.display()
        ),
    )
    .unwrap();
    let log = dir.join("serve.log");

    let _cli = CLI_LOCK.lock().unwrap();
    let args: Vec<String> = [
        "serve",
        "--from",
        list.to_str().unwrap(),
        "--log",
        log.to_str().unwrap(),
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let out = metadis::cli::run(&args).unwrap();
    assert!(out.contains("served 2 request(s), 0 error(s)"), "{out}");
    assert!(
        out.contains(r#"metadis_requests_total{endpoint="batch"} 2"#),
        "{out}"
    );

    // the log stream recorded the lifecycle as metadis.log.v2 records
    let logged = std::fs::read_to_string(&log).unwrap();
    assert!(logged.contains(r#""schema":"metadis.log.v2""#), "{logged}");
    assert!(logged.contains(r#""msg":"listening""#), "{logged}");
    assert!(logged.contains(r#""msg":"request done""#), "{logged}");
}

#[test]
fn concurrent_clients_keep_per_request_capture_isolated() {
    let dir = std::env::temp_dir().join(format!("metadis-serve-conc-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut paths = Vec::new();
    for seed in 40u64..46 {
        let elf = dir.join(format!("conc-{seed}.elf"));
        write_elf(&elf, seed);
        paths.push(elf.to_str().unwrap().to_string());
    }
    let list = dir.join("requests.txt");
    std::fs::write(&list, paths.join("\n") + "\n").unwrap();
    let log = dir.join("conc.log");

    // sequential reference summaries for the same inputs
    let reference = Server::start("127.0.0.1:0").unwrap();
    let seq: Vec<_> = paths
        .iter()
        .map(|p| reference.process_path(p, &Config::default()).unwrap())
        .collect();
    reference.shutdown();

    // the serve command with a 4-wide worker pool over the same batch
    let _cli = CLI_LOCK.lock().unwrap();
    let args: Vec<String> = [
        "serve",
        "--from",
        list.to_str().unwrap(),
        "--threads",
        "4",
        "--log",
        log.to_str().unwrap(),
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let out = metadis::cli::run(&args).unwrap();
    assert!(out.contains("served 6 request(s), 0 error(s)"), "{out}");

    // every log line stays atomic under concurrency: well-formed, one
    // record per line, no interleaving mid-record
    let logged = std::fs::read_to_string(&log).unwrap();
    for line in logged.lines() {
        assert!(
            line.starts_with(r#"{"schema":"metadis.log.v2","ts_ns":"#),
            "interleaved or malformed log line: {line}"
        );
        assert!(line.ends_with('}'), "truncated log line: {line}");
    }
    // each request surfaced exactly one begin and one done record, carrying
    // the per-request instruction count measured by *its* worker
    for (p, s) in paths.iter().zip(&seq) {
        let begin = format!(r#""msg":"request begin","fields":{{"path":"{p}""#);
        let done_needle = format!(r#""path":"{p}","instructions":{}"#, s.instructions);
        assert_eq!(logged.matches(&begin).count(), 1, "{p} begin\n{logged}");
        assert_eq!(
            logged.matches(&done_needle).count(),
            1,
            "{p} done\n{logged}"
        );
        assert!(s.instructions > 0, "{p}");
    }
}

#[test]
fn deadline_degradations_still_fire_with_worker_threads() {
    let dir = std::env::temp_dir().join(format!("metadis-serve-ddl-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let elf = dir.join("deadline.elf");
    write_elf(&elf, 13);

    // an already-expired deadline on a multi-threaded config: the pool
    // width does not reach into the run, whose phases poll the deadline,
    // so it degrades (instead of hanging or panicking) and still
    // classifies every byte
    let cfg = Config {
        threads: 4,
        limits: Limits {
            deadline_ms: Some(0),
            ..Limits::default()
        },
        ..Config::default()
    };
    let server = Server::start("127.0.0.1:0").unwrap();
    let s = server.process_path(elf.to_str().unwrap(), &cfg).unwrap();
    assert!(s.degradations >= 1, "{s:?}");
    assert!(s.text_bytes > 0, "{s:?}");
    let metrics = server.render_metrics();
    assert!(metrics.contains("metadis_degradations_total"), "{metrics}");
    server.shutdown();
}

// ---------------------------------------------------------------------------
// Hostile-client coverage: the admission-controlled reactor must stay
// responsive (live /healthz, structured 503 sheds) under slowloris
// writers, mid-request disconnects, oversized requests, and a
// 100-connection mixed soak — never a panic, never a hang.
// ---------------------------------------------------------------------------

use metadis::http;
use metadis::serve::ServeOptions;
use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::time::Duration;

#[test]
fn slowloris_client_is_shed_while_healthz_stays_live() {
    let opts = ServeOptions {
        client_deadline_ms: 300,
        drain_ms: 200,
        ..ServeOptions::default()
    };
    let server = Server::start_with("127.0.0.1:0", opts, Config::default()).unwrap();
    let addr = server.addr().to_string();

    // one byte every 50ms: the request can never complete within the
    // 300ms client deadline
    let loris_addr = addr.clone();
    let loris = std::thread::spawn(move || {
        let mut s = TcpStream::connect(&loris_addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        for b in b"GET /analyze?path=/tmp/x HTTP/1.1\r\n" {
            if s.write_all(&[*b]).is_err() {
                break; // server already shed us and closed
            }
            std::thread::sleep(Duration::from_millis(50));
        }
        let mut resp = String::new();
        let _ = s.read_to_string(&mut resp);
        resp
    });

    // the reactor keeps answering everyone else the whole time
    for _ in 0..10 {
        assert_eq!(scrape(&addr, "/healthz").unwrap(), "ok\n");
        std::thread::sleep(Duration::from_millis(40));
    }

    let resp = loris.join().unwrap();
    assert!(
        resp.contains("503") && resp.contains(r#""reason":"deadline""#),
        "slowloris got: {resp:?}"
    );
    let metrics = server.render_metrics();
    assert!(
        metrics.contains("metadis_requests_shed_deadline_total 1"),
        "{metrics}"
    );
    server.shutdown();
}

#[test]
fn mid_header_disconnect_is_counted_not_fatal() {
    let server = Server::start("127.0.0.1:0").unwrap();
    let addr = server.addr().to_string();

    for _ in 0..5 {
        let mut s = TcpStream::connect(&addr).unwrap();
        s.write_all(b"GET /analyze?path=/tmp/x HTTP/1.1\r\nHost: half")
            .unwrap();
        drop(s); // hang up mid-header
    }
    // give the reactor a few ticks to observe the disconnects
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let metrics = server.render_metrics();
        if metrics.contains("metadis_client_disconnects_total 5") {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "disconnects never counted:\n{metrics}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(scrape(&addr, "/healthz").unwrap(), "ok\n");
    server.shutdown();
}

#[test]
fn oversized_request_line_is_rejected_without_buffering_it() {
    let server = Server::start("127.0.0.1:0").unwrap();
    let addr = server.addr().to_string();

    // a >1MiB request line: the framing layer rejects at its 8KiB cap,
    // long before the flood is buffered
    let mut s = TcpStream::connect(&addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let chunk = vec![b'a'; 64 * 1024];
    let mut sent = 0usize;
    let _ = s.write_all(b"GET /");
    while sent < 1024 * 1024 + chunk.len() {
        match s.write_all(&chunk) {
            Ok(()) => sent += chunk.len(),
            Err(_) => break, // server rejected and closed mid-flood
        }
    }
    let mut resp = String::new();
    let _ = s.read_to_string(&mut resp);
    // either we saw the 414 before the close, or the server reset us
    // mid-flood; both mean the line was refused, not buffered
    assert!(
        resp.is_empty() || resp.contains("414"),
        "unexpected response: {resp:?}"
    );
    assert_eq!(scrape(&addr, "/healthz").unwrap(), "ok\n");
    let metrics = server.render_metrics();
    assert!(
        metrics.contains("metadis_http_bad_requests_total 1"),
        "{metrics}"
    );
    server.shutdown();
}

#[test]
fn hundred_concurrent_clients_soak_with_injected_faults() {
    let dir = std::env::temp_dir().join(format!("metadis-serve-soak-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let elf = dir.join("soak.elf");
    write_elf(&elf, 77);
    let elf = elf.to_str().unwrap().to_string();

    let opts = ServeOptions {
        drain_ms: 500,
        ..ServeOptions::default()
    };
    let server = Server::start_with("127.0.0.1:0", opts, Config::default()).unwrap();
    let addr = server.addr().to_string();

    let barrier = std::sync::Arc::new(std::sync::Barrier::new(100));
    let mut clients = Vec::new();
    for i in 0..100usize {
        let addr = addr.clone();
        let elf = elf.clone();
        let barrier = std::sync::Arc::clone(&barrier);
        clients.push(std::thread::spawn(move || -> Result<(), String> {
            barrier.wait();
            match i % 4 {
                // the well-behaved majority: analyze a real ELF
                0 | 1 => {
                    let (status, body) =
                        http::request(&addr, "GET", &format!("/analyze?path={elf}"), None)
                            .map_err(|e| format!("client {i}: {e}"))?;
                    if status == 200 && body.contains("\"instructions\"") {
                        return Ok(());
                    }
                    if status == 503 && body.contains(r#""category":"overload""#) {
                        return Ok(()); // shed is a legal answer under load
                    }
                    Err(format!("client {i}: status {status}, body {body:?}"))
                }
                // fault injection: garbage bytes
                2 => {
                    let mut s = TcpStream::connect(&addr).map_err(|e| e.to_string())?;
                    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
                    let _ = s.write_all(b"\x00\xffnot http at all\r\n\r\n");
                    let mut resp = String::new();
                    let _ = s.read_to_string(&mut resp);
                    Ok(()) // any non-hang outcome is fine
                }
                // fault injection: connect, dribble, hang up
                _ => {
                    let mut s = TcpStream::connect(&addr).map_err(|e| e.to_string())?;
                    let _ = s.write_all(b"GET /he");
                    std::thread::sleep(Duration::from_millis(5));
                    drop(s);
                    Ok(())
                }
            }
        }));
    }
    for c in clients {
        c.join().expect("no client panicked").expect("soak client");
    }

    // the server survived 100 concurrent clients with injected faults and
    // still answers; its accounting is coherent
    assert_eq!(scrape(&addr, "/healthz").unwrap(), "ok\n");
    let metrics = server.render_metrics();
    assert!(metrics.contains("metadis_up 1"), "{metrics}");
    let analyzed = server.requests() + server.sheds();
    assert!(analyzed >= 50, "50 analyze clients, got {analyzed}");
    server.shutdown();
}

#[test]
fn queue_saturation_sheds_with_structured_503_and_some_still_succeed() {
    let dir = std::env::temp_dir().join(format!("metadis-serve-queue-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let elf = dir.join("queue.elf");
    write_elf(&elf, 78);
    let elf = elf.to_str().unwrap().to_string();

    // one worker, a two-deep queue, 24 simultaneous clients: the queue
    // must overflow, and overflow must shed — not stall
    let opts = ServeOptions {
        queue_depth: 2,
        drain_ms: 500,
        ..ServeOptions::default()
    };
    let cfg = Config {
        threads: 1,
        ..Config::default()
    };
    let server = Server::start_with("127.0.0.1:0", opts, cfg).unwrap();
    let addr = server.addr().to_string();

    let barrier = std::sync::Arc::new(std::sync::Barrier::new(24));
    let mut clients = Vec::new();
    for i in 0..24usize {
        let addr = addr.clone();
        let elf = elf.clone();
        let barrier = std::sync::Arc::clone(&barrier);
        clients.push(std::thread::spawn(move || {
            barrier.wait();
            http::request(&addr, "GET", &format!("/analyze?path={elf}"), None)
                .map_err(|e| format!("client {i}: {e}"))
        }));
    }
    let mut ok = 0u64;
    let mut shed = 0u64;
    for c in clients {
        let (status, body) = c.join().unwrap().unwrap();
        match status {
            200 => {
                assert!(body.contains("\"instructions\""), "{body}");
                ok += 1;
            }
            503 => {
                assert!(body.contains(r#""category":"overload""#), "{body}");
                assert!(body.contains(r#""reason":"queue-full""#), "{body}");
                shed += 1;
            }
            other => panic!("client got status {other}: {body}"),
        }
    }
    assert!(ok >= 1, "at least the queued requests must succeed");
    assert!(shed >= 1, "24 clients vs queue of 2 must shed");
    assert_eq!(server.sheds(), shed);
    assert_eq!(server.requests(), ok);
    server.shutdown();
}

#[test]
fn graceful_shutdown_answers_inflight_requests_first() {
    let dir = std::env::temp_dir().join(format!("metadis-serve-drain-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let elf = dir.join("drain.elf");
    write_elf(&elf, 79);
    let elf = elf.to_str().unwrap().to_string();

    let server = Server::start("127.0.0.1:0").unwrap();
    let addr = server.addr().to_string();

    // a client whose request races the shutdown
    let req_addr = addr.clone();
    let client = std::thread::spawn(move || {
        http::request(&req_addr, "GET", &format!("/analyze?path={elf}"), None)
    });
    std::thread::sleep(Duration::from_millis(20));
    server.shutdown(); // drains before dropping the listener

    let (status, body) = client.join().unwrap().unwrap();
    assert_eq!(status, 200, "in-flight request lost in shutdown: {body}");
    assert!(body.contains("\"instructions\""), "{body}");

    // the port is released and refuses new work
    assert!(http::request(&addr, "GET", "/healthz", None).is_err());
}

#[test]
fn serve_strict_exits_overload_when_requests_were_shed() {
    let dir = std::env::temp_dir().join(format!("metadis-serve-strict-{}", std::process::id()));
    let watch = dir.join("watch");
    std::fs::create_dir_all(&watch).unwrap();
    let log = dir.join("strict.log");

    let _cli = CLI_LOCK.lock().unwrap();
    // queue-depth 0 sheds every HTTP analyze request; --watch keeps the
    // server up until --max-requests batch paths have been processed
    let args: Vec<String> = [
        "serve",
        "--watch",
        watch.to_str().unwrap(),
        "--max-requests",
        "1",
        "--poll-ms",
        "20",
        "--queue-depth",
        "0",
        "--drain-ms",
        "200",
        "--strict",
        "--log",
        log.to_str().unwrap(),
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let serve = std::thread::spawn(move || metadis::cli::run(&args));

    // discover the ephemeral port from the 'listening' log event
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let addr = loop {
        if let Ok(text) = std::fs::read_to_string(&log) {
            if let Some(line) = text.lines().find(|l| l.contains(r#""msg":"listening""#)) {
                let json = obs::json::parse(line).unwrap();
                break json
                    .path("fields.addr")
                    .and_then(|v| v.as_str())
                    .unwrap()
                    .to_string();
            }
        }
        assert!(std::time::Instant::now() < deadline, "server never came up");
        std::thread::sleep(Duration::from_millis(10));
    };

    // an HTTP client gets shed (queue admits nothing)...
    let (status, body) = http::request(&addr, "GET", "/analyze?path=/tmp/x", None).unwrap();
    assert_eq!(status, 503, "{body}");
    assert!(body.contains(r#""category":"overload""#), "{body}");

    // ...then a watched file satisfies --max-requests and the command
    // exits — with category overload under --strict, exit code 6
    write_elf(&watch.join("work.elf"), 80);
    let err = serve.join().unwrap().unwrap_err();
    assert_eq!(err.category, metadis::cli::ErrorCategory::Overload, "{err}");
    assert_eq!(err.category.exit_code(), 6);
    assert!(err.message.contains("shed under overload"), "{err}");

    // the shed left its structured trail in the log
    let logged = std::fs::read_to_string(&log).unwrap();
    assert!(logged.contains(r#""msg":"request shed""#), "{logged}");
    assert!(logged.contains(r#""category":"overload""#), "{logged}");
    assert!(logged.contains(r#""msg":"draining""#), "{logged}");
    assert!(logged.contains(r#""msg":"shutdown complete""#), "{logged}");
}

// ---------------------------------------------------------------------------
// Time-series telemetry: the /debug/metrics/history endpoint, the SLO
// burn-rate engine under induced overload, and the `metadis top` console.
// ---------------------------------------------------------------------------

/// Poll the history endpoint until the sampler has accumulated at least
/// `want` snapshots, returning the first body that satisfies it.
fn wait_for_history(addr: &str, want: usize) -> String {
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let body = scrape(addr, "/debug/metrics/history").unwrap();
        let doc = obs::json::parse(&body).unwrap();
        if let Some(samples) = obs::series::samples_from_json(&doc) {
            if samples.len() >= want {
                break body;
            }
        }
        assert!(
            std::time::Instant::now() < deadline,
            "sampler never produced {want} snapshots: {body}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn history_endpoint_answers_the_pinned_series_schema() {
    let dir = std::env::temp_dir().join(format!("metadis-serve-hist-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let elf = dir.join("hist.elf");
    write_elf(&elf, 81);

    let opts = ServeOptions {
        series_interval_ms: 20,
        series_window: 50,
        ..ServeOptions::default()
    };
    let server = Server::start_with("127.0.0.1:0", opts, Config::default()).unwrap();
    let addr = server.addr().to_string();
    server
        .process_path(elf.to_str().unwrap(), &Config::default())
        .unwrap();

    let body = wait_for_history(&addr, 2);
    let doc = obs::json::parse(&body).unwrap();
    assert_eq!(
        doc.get("schema").and_then(|v| v.as_str()),
        Some(obs::series::SCHEMA),
        "{body}"
    );
    assert_eq!(doc.get("interval_ms").and_then(|v| v.as_u64()), Some(20));
    assert_eq!(doc.get("window").and_then(|v| v.as_u64()), Some(50));

    // the document round-trips through the typed representation byte-for-byte
    let samples = obs::series::samples_from_json(&doc).unwrap();
    assert_eq!(
        obs::series::write_history_json(20, 50, &samples),
        body,
        "history JSON must round-trip"
    );

    // samples are cumulative snapshots in time order carrying the counters,
    // gauges, and SLO verdicts the top console consumes
    assert!(
        samples.windows(2).all(|w| w[0].ts_ns < w[1].ts_ns),
        "timestamps must strictly increase"
    );
    let latest = samples.last().unwrap();
    assert!(latest.counter("requests") >= 1, "{body}");
    assert!(latest.counter("instructions") > 0, "{body}");
    let objectives: Vec<&str> = latest.slo.iter().map(|s| s.objective.as_str()).collect();
    assert_eq!(objectives, ["availability", "latency_p99"], "{body}");
    assert!(latest.slo.iter().all(|s| !s.breached), "{body}");
    server.shutdown();
}

#[test]
fn induced_overload_breaches_availability_slo_and_healthz_reports_it() {
    // queue-depth 0 sheds every HTTP analyze request; a fast sampler tick
    // lets the burn windows cross within the test budget
    let opts = ServeOptions {
        queue_depth: 0,
        series_interval_ms: 10,
        series_window: 64,
        drain_ms: 200,
        ..ServeOptions::default()
    };
    let server = Server::start_with("127.0.0.1:0", opts, Config::default()).unwrap();
    let addr = server.addr().to_string();

    // keep shedding across sampler ticks until both burn windows cross:
    // 100% of traffic shed against a 0.1% error budget is a burn of 1000
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let metrics = loop {
        let (status, body) = http::request(&addr, "GET", "/analyze?path=/tmp/x", None).unwrap();
        assert_eq!(status, 503, "{body}");
        assert!(body.contains(r#""category":"overload""#), "{body}");
        let metrics = scrape(&addr, "/metrics").unwrap();
        if metrics.contains(r#"metadis_slo_breached{objective="availability"} 1"#) {
            break metrics;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "availability SLO never breached:\n{metrics}"
        );
        std::thread::sleep(Duration::from_millis(15));
    };

    // the burn-rate gauge rose past the 1.0 alert threshold
    let burn_line = metrics
        .lines()
        .find(|l| l.starts_with(r#"metadis_slo_burn_rate{objective="availability",window="fast"}"#))
        .unwrap_or_else(|| panic!("no fast-window burn gauge:\n{metrics}"));
    let burn: f64 = burn_line.rsplit(' ').next().unwrap().parse().unwrap();
    assert!(burn > 1.0, "{burn_line}");

    // /healthz is saturated (queue depth 0) and its JSON detail names the
    // breached objective
    let (status, body) = http::request(&addr, "GET", "/healthz", None).unwrap();
    assert_eq!(status, 503, "{body}");
    let json = obs::json::parse(&body).unwrap();
    let slo = json
        .get("slo")
        .and_then(|v| v.as_arr())
        .unwrap_or_else(|| panic!("healthz JSON lacks slo block: {body}"));
    let avail = slo
        .iter()
        .find(|s| s.get("objective").and_then(|v| v.as_str()) == Some("availability"))
        .unwrap_or_else(|| panic!("no availability status: {body}"));
    assert!(avail.to_json().contains(r#""breached":true"#), "{body}");
    server.shutdown();
}

#[test]
fn top_once_renders_a_snapshot_from_a_live_server() {
    let dir = std::env::temp_dir().join(format!("metadis-serve-top-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let elf = dir.join("top.elf");
    write_elf(&elf, 82);

    let opts = ServeOptions {
        series_interval_ms: 20,
        series_window: 50,
        ..ServeOptions::default()
    };
    let server = Server::start_with("127.0.0.1:0", opts, Config::default()).unwrap();
    let addr = server.addr().to_string();
    server
        .process_path(elf.to_str().unwrap(), &Config::default())
        .unwrap();
    wait_for_history(&addr, 2);

    let _cli = CLI_LOCK.lock().unwrap();
    let args: Vec<String> = ["top", &addr, "--once"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let out = metadis::cli::run(&args).unwrap();
    assert!(out.contains("metadis top"), "{out}");
    assert!(out.contains(&addr), "{out}");
    // the SLO headline and every table column are present
    assert!(out.contains("availability"), "{out}");
    assert!(out.contains("latency_p99"), "{out}");
    for col in [
        "t(s)", "rps", "err/s", "shed/s", "queue", "inflight", "p50(ms)", "p99(ms)", "burn",
    ] {
        assert!(out.contains(col), "missing column {col}: {out}");
    }
    server.shutdown();
}

/// The tentpole contract end to end: one request id, supplied by the
/// client, shows up verbatim on every observability surface — the response
/// header, the structured log lines, the `/metrics` exemplars, and the
/// `/debug/requests/<id>` forensic bundle (timeline and log slice
/// included).
#[test]
fn one_request_id_correlates_every_surface() {
    // hold the CLI lock so no run()-based test tears down the global
    // logger while this request's log slice is being captured
    let _cli = CLI_LOCK.lock().unwrap();
    obs::log::set_level(Some(obs::log::Level::Info));

    let server = Server::start("127.0.0.1:0").unwrap();
    let addr = server.addr().to_string();
    let rid = "1badb002deadc0de";

    // an error request (nonexistent input) is always anomalous → retained
    let (status, headers, body) = http::request_full(
        &addr,
        "GET",
        "/analyze?path=/nonexistent/corr.elf",
        None,
        &[("X-Metadis-Request-Id", rid)],
    )
    .unwrap();
    assert_eq!(status, 422, "{body}");

    // 1. the response echoes the client's id verbatim
    let echoed = headers
        .iter()
        .find(|(k, _)| k.eq_ignore_ascii_case("x-metadis-request-id"))
        .map(|(_, v)| v.as_str());
    assert_eq!(echoed, Some(rid));

    // 2. the latency exemplar on /metrics names the same id
    let metrics = scrape(&addr, "/metrics").unwrap();
    assert!(
        metrics.contains(&format!("# {{req_id=\"{rid}\"}}")),
        "no exemplar for {rid}:\n{metrics}"
    );
    let exemplar_line = metrics
        .lines()
        .find(|l| l.contains("metadis_request_latency_histogram_ns_bucket") && l.contains(rid))
        .unwrap_or_else(|| panic!("exemplar not on a latency bucket:\n{metrics}"));
    assert!(exemplar_line.contains("le=\""), "{exemplar_line}");

    // 2b. a legacy scrape (no Accept header, as a version=0.0.4-only
    // Prometheus sends) gets the plain text exposition: correct content
    // type, no exemplar suffixes (a parse error in that format), no EOF
    let (status, headers, legacy) =
        http::request_full(&addr, "GET", "/metrics", None, &[]).unwrap();
    assert_eq!(status, 200);
    let ctype = headers
        .iter()
        .find(|(k, _)| k.eq_ignore_ascii_case("content-type"))
        .map(|(_, v)| v.as_str());
    assert_eq!(ctype, Some("text/plain; version=0.0.4"));
    assert!(!legacy.contains("# {req_id="), "{legacy}");
    assert!(!legacy.contains("# EOF"), "{legacy}");

    // 3. the retention index lists the id, and the bundle resolves
    let index = scrape(&addr, "/debug/requests").unwrap();
    assert!(index.contains(rid), "{index}");
    let bundle = scrape(&addr, &format!("/debug/requests/{rid}")).unwrap();
    let doc = obs::json::parse(&bundle).expect("bundle is valid JSON");
    assert_eq!(
        doc.get("schema").and_then(|v| v.as_str()),
        Some("metadis.request.v1")
    );
    assert_eq!(doc.get("req_id").and_then(|v| v.as_str()), Some(rid));
    assert_eq!(doc.get("outcome").and_then(|v| v.as_str()), Some("error"));
    assert!(doc
        .get("anomalies")
        .and_then(|v| v.as_arr())
        .is_some_and(|a| a.iter().any(|x| x.as_str() == Some("error"))));

    // 4. the embedded timeline slice is tagged with the id
    let events = doc
        .path("timeline.traceEvents")
        .and_then(|v| v.as_arr())
        .expect("bundle embeds a Chrome trace");
    assert!(
        events
            .iter()
            .any(|e| e.path("args.req_id").and_then(|v| v.as_str()) == Some(rid)),
        "{bundle}"
    );

    // 5. the correlated log slice carries the request lifecycle under the
    // same id
    let logs = doc.get("logs").and_then(|v| v.as_arr()).unwrap();
    assert!(!logs.is_empty(), "{bundle}");
    for line in logs {
        assert_eq!(
            line.get("schema").and_then(|v| v.as_str()),
            Some("metadis.log.v2"),
            "{bundle}"
        );
        assert_eq!(
            line.get("req_id").and_then(|v| v.as_str()),
            Some(rid),
            "{bundle}"
        );
    }
    assert!(
        logs.iter()
            .any(|l| l.get("msg").and_then(|v| v.as_str()) == Some("request failed")),
        "{bundle}"
    );
    server.shutdown();
}

/// Soak the sampler well past `--series-window`: the ring must wrap
/// (evicting oldest samples) while `/debug/metrics/history` stays a valid,
/// round-trippable `metadis.series.v1` document with strictly increasing
/// timestamps and exactly `window` retained samples.
#[test]
fn history_ring_stays_schema_valid_across_wraparound() {
    let window = 4usize;
    let opts = ServeOptions {
        series_interval_ms: 5,
        series_window: window,
        ..ServeOptions::default()
    };
    let server = Server::start_with("127.0.0.1:0", opts, Config::default()).unwrap();
    let addr = server.addr().to_string();

    // fill the ring, remember the oldest retained timestamp...
    let body = wait_for_history(&addr, window);
    let first = obs::series::samples_from_json(&obs::json::parse(&body).unwrap()).unwrap();
    let oldest_ts = first.first().unwrap().ts_ns;

    // ...then soak until eviction is provable: the ring stays at capacity
    // while its oldest sample is newer than the one we saw before
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let (body, samples) = loop {
        let body = scrape(&addr, "/debug/metrics/history").unwrap();
        let doc = obs::json::parse(&body).expect("history stays valid JSON");
        let samples = obs::series::samples_from_json(&doc).expect("history stays series.v1");
        if samples.len() == window && samples.first().unwrap().ts_ns > oldest_ts {
            break (body, samples);
        }
        assert!(
            samples.len() <= window,
            "ring exceeded its window: {} > {window}",
            samples.len()
        );
        assert!(
            std::time::Instant::now() < deadline,
            "ring never wrapped past its window:\n{body}"
        );
        std::thread::sleep(Duration::from_millis(5));
    };

    // after eviction the document still round-trips byte-for-byte and its
    // samples are still strictly time-ordered cumulative snapshots
    assert_eq!(
        obs::series::write_history_json(5, window, &samples),
        body,
        "post-wraparound history must round-trip"
    );
    assert!(
        samples.windows(2).all(|w| w[0].ts_ns < w[1].ts_ns),
        "{body}"
    );
    server.shutdown();
}
