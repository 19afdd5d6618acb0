//! serve-open: `GET /analyze` against an in-process [`Server`].
//!
//! Two phases share the run length:
//!
//! * **Fixed rate** (half the run): an open loop at [`RATE_RPS`] from
//!   [`SENDERS`] threads. Each request is timed from the moment it was due,
//!   so a stall also charges the requests queued behind it, and the
//!   generator reports how late it sent.
//! * **Capacity** (the other half): alternating slices against a fresh
//!   server configured with `threads = 1` or `threads = 2`, each driven by
//!   [`SENDERS`] closed-loop connections; the completed text bytes per
//!   second is the server's throughput at that thread count.
//!
//! Every 200 body is checked against the in-process threads=1 result for
//! the same ELF.

use crate::batch;
use crate::inputs::Input;
use crate::stats::{median, tail};
use crate::Metric;
use metadis::http;
use metadis::serve::{scrape, ServeOptions, Server};
use obs::json::JsonValue;
use obs::Stopwatch;
use std::path::Path;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Offered load of the fixed-rate phase.
const RATE_RPS: f64 = 200.0;

/// Load-generating threads (and so concurrent connections): one per core
/// of the two-core hosts this benchmark is calibrated on.
const SENDERS: usize = 2;

/// A request sent later than this after its due time counts as late.
const LATE_MS: f64 = 1.0;

/// Capacity slices per thread count.
const SLICES: usize = 3;

/// Write each input's ELF under `dir`; returns the request paths.
pub fn write_files(dir: &Path, inputs: &[Input]) -> Result<Vec<String>, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    inputs
        .iter()
        .enumerate()
        .map(|(i, input)| {
            let path = dir.join(format!("in-{i:02}.elf"));
            std::fs::write(&path, &input.elf)
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            Ok(path.to_string_lossy().into_owned())
        })
        .collect()
}

/// Start a server with default options and `threads` analysis workers,
/// and wait until `/healthz` answers `ok`.
pub fn start(threads: usize) -> Result<Server, String> {
    let server = Server::start_with(
        "127.0.0.1:0",
        ServeOptions::default(),
        batch::config(threads),
    )
    .map_err(|e| format!("cannot start server: {e}"))?;
    let addr = server.addr().to_string();
    let deadline = Instant::now() + Duration::from_secs(5);
    while !scrape(&addr, "/healthz").is_ok_and(|b| b == "ok\n") {
        if Instant::now() > deadline {
            return Err("server never became healthy".into());
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    Ok(server)
}

/// What one `/analyze` answered.
struct Answer {
    /// Client-side latency (from due time in the open loop).
    latency_ns: u64,
    /// How late the request was sent after its due time.
    lag_ns: u64,
    /// Server-reported pipeline wall and admission-queue wait.
    wall_ns: u64,
    queue_ns: u64,
    text_bytes: u64,
}

/// Send one request for input `i` and check the body against the
/// in-process reference. `Err` carries the reason the request failed.
fn analyze(addr: &str, path: &str, instructions: u64) -> Result<(u64, u64, u64), String> {
    let (status, body) = http::request(addr, "GET", &format!("/analyze?path={path}"), None)
        .map_err(|e| format!("{path}: transport error: {e}"))?;
    if status != 200 {
        return Err(format!("{path}: HTTP {status}: {}", body.trim()));
    }
    let v = obs::json::parse(&body).map_err(|e| format!("{path}: bad JSON body: {e}"))?;
    let field = |k: &str| v.get(k).and_then(JsonValue::as_u64);
    let (Some(got), Some(deg), Some(wall), Some(queue), Some(bytes)) = (
        field("instructions"),
        field("degradations"),
        field("wall_ns"),
        field("queue_wait_ns"),
        field("text_bytes"),
    ) else {
        return Err(format!("{path}: incomplete body: {body}"));
    };
    if deg != 0 {
        return Err(format!("{path}: {deg} degradation(s)"));
    }
    if got != instructions {
        return Err(format!(
            "{path}: served {got} instructions, in-process threads=1 gives {instructions}"
        ));
    }
    Ok((wall, queue, bytes))
}

/// Requests sent, their answers, and the failures.
#[derive(Default)]
struct Load {
    answers: Vec<Answer>,
    failures: Vec<String>,
    sheds: u64,
}

impl Load {
    fn record(&mut self, r: Result<(u64, u64, u64), String>, latency_ns: u64, lag_ns: u64) {
        match r {
            Ok((wall_ns, queue_ns, text_bytes)) => self.answers.push(Answer {
                latency_ns,
                lag_ns,
                wall_ns,
                queue_ns,
                text_bytes,
            }),
            Err(e) => {
                self.sheds += u64::from(e.contains("HTTP 503"));
                self.failures.push(e);
            }
        }
    }

    fn attempted(&self) -> u64 {
        (self.answers.len() + self.failures.len()) as u64
    }
}

/// Open loop: request `k` is due at `k / RATE_RPS` seconds after start and
/// goes to input `k % paths.len()`.
fn open_loop(addr: &str, paths: &[String], instructions: &[u64], count: usize) -> Load {
    let load = Mutex::new(Load::default());
    let start = Instant::now() + Duration::from_millis(20);
    let period = Duration::from_secs_f64(1.0 / RATE_RPS);
    std::thread::scope(|s| {
        for sender in 0..SENDERS {
            let load = &load;
            s.spawn(move || {
                for k in (sender..count).step_by(SENDERS) {
                    let due = start + period * k as u32;
                    if let Some(wait) = due.checked_duration_since(Instant::now()) {
                        std::thread::sleep(wait);
                    }
                    let lag_ns = due.elapsed().as_nanos() as u64;
                    let i = k % paths.len();
                    let r = analyze(addr, &paths[i], instructions[i]);
                    let latency_ns = due.elapsed().as_nanos() as u64;
                    load.lock()
                        .expect("a sender panicked")
                        .record(r, latency_ns, lag_ns);
                }
            });
        }
    });
    load.into_inner().expect("a sender panicked")
}

/// Closed loop for `seconds`: each sender issues its next request as soon
/// as the previous one answers. Returns the load and its wall time.
fn closed_loop(addr: &str, paths: &[String], instructions: &[u64], seconds: f64) -> (Load, f64) {
    let load = Mutex::new(Load::default());
    let clock = Stopwatch::start();
    std::thread::scope(|s| {
        for sender in 0..SENDERS {
            let (load, clock) = (&load, &clock);
            s.spawn(move || {
                let mut k = sender;
                while clock.elapsed_secs() < seconds {
                    let i = k % paths.len();
                    let sw = Stopwatch::start();
                    let r = analyze(addr, &paths[i], instructions[i]);
                    let latency_ns = sw.elapsed_ns();
                    load.lock()
                        .expect("a sender panicked")
                        .record(r, latency_ns, 0);
                    k += SENDERS;
                }
            });
        }
    });
    let wall = clock.elapsed_secs();
    (load.into_inner().expect("a sender panicked"), wall)
}

/// Result of the serve-open measurement.
pub struct ServeRun {
    pub end_to_end: Vec<Metric>,
    pub frontend: Vec<Metric>,
    /// Lines for the human-readable report.
    pub notes: Vec<String>,
    pub attempted: u64,
    pub failures: Vec<String>,
}

/// Run both phases for `seconds` in total. `instructions` holds the
/// in-process threads=1 instruction count per input.
pub fn run(paths: &[String], instructions: &[u64], seconds: f64) -> Result<ServeRun, String> {
    let server = start(2)?;
    let addr = server.addr().to_string();
    // warm the listener, the worker pool and the page cache
    let (warm, _) = closed_loop(&addr, paths, instructions, 0.2);
    let count = ((seconds / 2.0) * RATE_RPS).max(1.0) as usize;
    let fixed = open_loop(&addr, paths, instructions, count);
    let offered_s = count as f64 / RATE_RPS;
    server.shutdown();

    let mut capacity = [Vec::new(), Vec::new()];
    let mut capacity_rps = [Vec::new(), Vec::new()];
    let mut attempted = warm.attempted() + fixed.attempted();
    let mut sheds = warm.sheds + fixed.sheds;
    let mut failures = warm.failures;
    failures.extend(fixed.failures);
    let slice_s = seconds / 2.0 / (2 * SLICES) as f64;
    for slice in 0..2 * SLICES {
        // alternate which thread count goes first in each round
        let t = (slice + slice / 2) % 2;
        let server = start(t + 1)?;
        let addr = server.addr().to_string();
        let (load, wall) = closed_loop(&addr, paths, instructions, slice_s);
        server.shutdown();
        let bytes: u64 = load.answers.iter().map(|a| a.text_bytes).sum();
        capacity[t].push((bytes as f64 / 1e6, wall));
        capacity_rps[t].push(load.answers.len() as f64 / wall);
        attempted += load.attempted();
        sheds += load.sheds;
        failures.extend(load.failures);
    }

    let a = &fixed.answers;
    let latency: Vec<f64> = a.iter().map(|x| x.latency_ns as f64 / 1e6).collect();
    let sum = |f: fn(&Answer) -> u64| a.iter().map(f).sum::<u64>() as f64;
    let (lat, wall, queue) = (
        sum(|x| x.latency_ns),
        sum(|x| x.wall_ns),
        sum(|x| x.queue_ns),
    );
    let lag: Vec<f64> = a.iter().map(|x| x.lag_ns as f64 / 1e6).collect();
    let late = lag.iter().filter(|&&l| l > LATE_MS).count();
    let pct = |part: f64, whole: f64| 100.0 * part / whole.max(1.0);

    let mut notes = vec![
        format!(
            "fixed rate: {} of {count} requests answered at {RATE_RPS} rps offered, {:.1} rps achieved",
            a.len(),
            a.len() as f64 / offered_s
        ),
        format!(
            "fixed rate: latency tail {} over {} samples",
            tail(&latency).map_or("n/a".into(), |(p, v)| format!("p{p} = {v:.3} ms")),
            latency.len()
        ),
        format!(
            "fixed rate: generator lag p50 {:.3} ms, tail {}",
            median(&lag).unwrap_or(0.0),
            tail(&lag).map_or("n/a".into(), |(p, v)| format!("p{p} = {v:.3} ms"))
        ),
    ];
    for (t, rps) in capacity_rps.iter().enumerate() {
        notes.push(format!(
            "capacity threads={}: {:.1} rps median over {SLICES} slices of {slice_s:.2} s",
            t + 1,
            median(rps).unwrap_or(0.0)
        ));
    }
    Ok(ServeRun {
        end_to_end: vec![
            Metric::rate("analyze_mbps_t1", "MB/s", &capacity[0]),
            Metric::rate("analyze_mbps_t2", "MB/s", &capacity[1]),
            Metric::sampled("latency_ms_p50", "ms", &latency),
            batch::latency_tail(&latency),
        ],
        frontend: vec![
            Metric::new("frontend.overhead_pct", "%", pct(lat - wall - queue, lat)),
            Metric::new("serve.queue_wait_pct", "%", pct(queue, lat)),
            Metric::new("serve.sheds", "count", sheds as f64),
            Metric::new("loadgen.late_pct", "%", pct(late as f64, lag.len() as f64)),
        ],
        notes,
        attempted,
        failures,
    })
}
