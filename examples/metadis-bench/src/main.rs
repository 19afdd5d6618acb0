//! metadis-bench: end-to-end and per-layer performance of metadis on four
//! seeded workloads, with correctness gates on every output.
//!
//! ```text
//! metadis-bench --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]
//! metadis-bench --seed N [--seconds S] --out DIR
//! metadis-bench --compare PARENT.json[,...] CHANGE.json[,...]
//! ```
//!
//! The first form runs one workload and prints `workload metric value unit`
//! lines, then one JSON object `{correct, attempted, failed, metrics}` as
//! the last line: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. The second form runs every workload twice
//! (`--trace 0`, then `--trace 1`), each in a fresh process of this binary
//! so peak RSS and process-wide recorder state stay per workload, and
//! writes `DIR/results.json`. The third compares result files against the
//! bounds in `BENCHMARK.json` and exits 5 on a regression. See README.md.

mod batch;
mod compare;
mod inputs;
mod serve_open;
mod stats;

use obs::json::{JsonValue, JsonWriter};
use obs::Stopwatch;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

/// End-to-end metrics, reported by every workload with `--trace 0`.
pub const END_TO_END: [&str; 6] = [
    "analyze_mbps_t1",
    "analyze_mbps_t2",
    "latency_ms_p50",
    "latency_ms_tail",
    "peak_rss_mb",
    "setup_s",
];

/// Per-layer metrics, reported by every workload with `--trace 1`.
pub const PER_LAYER: [&str; 36] = [
    "elfobj.parse_ms",
    "superset.build_ms",
    "superset.candidates",
    "viability.compute_ms",
    "viability.iterations",
    "viability.eliminated",
    "phase.anchor_ms",
    "jumptable.detect_ms",
    "jumptable.anchors_scanned",
    "jumptable.tables",
    "jumptable.tables_per_1k_anchors",
    "jumptable.redecode",
    "phase.structural_ms",
    "phase.stats_train_ms",
    "phase.stats_classify_ms",
    "stats.decisions",
    "phase.padding_ms",
    "phase.default_ms",
    "pipeline.unattributed_ms",
    "pipeline.unattributed_pct",
    "superset.build_sharded_ms_t2",
    "viability.compute_sharded_ms_t2",
    "phase.stats_classify_ms_t2",
    "par.merge_pct_t2",
    "par.shards_t2",
    "par.speedup_t2",
    "obs.trace_overhead_pct",
    "alloc.peak_mb",
    "alloc.bytes_mb",
    "accuracy.inst_errors",
    "accuracy.byte_errors",
    "accuracy.table_errors",
    "frontend.overhead_pct",
    "serve.queue_wait_pct",
    "serve.sheds",
    "loadgen.late_pct",
];

/// Run length when none is given (the value in `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 30.0;

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 7;

/// Fewest (threads=1, threads=2) pass pairs a batch run times.
const MIN_PAIRS: usize = 3;

/// One measured value.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// `(q1, q3)` of the samples `value` is the median of, if any.
    pub quartiles: Option<(f64, f64)>,
}

impl Metric {
    pub fn new(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric {
            name,
            unit,
            value,
            quartiles: None,
        }
    }

    /// Work per second over all `(work, seconds)` samples: total work over
    /// total time, carrying the quartiles of the per-sample rates.
    pub fn rate(name: &'static str, unit: &'static str, samples: &[(f64, f64)]) -> Metric {
        let rates: Vec<f64> = samples.iter().map(|(w, s)| w / s).collect();
        let (work, secs) = samples
            .iter()
            .fold((0.0, 0.0), |(w, s), (dw, ds)| (w + dw, s + ds));
        Metric {
            value: work / secs,
            ..Metric::sampled(name, unit, &rates)
        }
    }

    /// The median of `samples`, carrying their quartiles.
    pub fn sampled(name: &'static str, unit: &'static str, samples: &[f64]) -> Metric {
        let (q1, m, q3) = stats::quartiles(samples).unwrap_or((0.0, 0.0, 0.0));
        Metric {
            quartiles: Some((q1, q3)),
            ..Metric::new(name, unit, m)
        }
    }
}

/// What one workload run reports.
struct Report {
    /// Every metric measured, for the human-readable lines.
    metrics: Vec<Metric>,
    /// Extra human-readable context (sample counts, rates).
    notes: Vec<String>,
    attempted: u64,
    failed: u64,
    /// Correctness-gate failures, one line each.
    failures: Vec<String>,
}

/// Run workload `name` once.
fn run_one(name: &str, seed: u64, seconds: f64, trace: bool) -> Result<Report, String> {
    let serve = name == "serve-open";
    // serve-open reads its inputs from files; they (and anything the server
    // writes to the temporary directory) stay inside the working directory
    let work = std::env::current_dir()
        .map_err(|e| format!("no working directory: {e}"))?
        .join("target")
        .join("metadis-bench")
        .join(std::process::id().to_string());
    if serve {
        std::fs::create_dir_all(&work)
            .map_err(|e| format!("cannot create {}: {e}", work.display()))?;
        std::env::set_var("TMPDIR", &work);
    }
    let result = measure_workload(name, seed, seconds, trace, serve, &work);
    if serve {
        let _ = std::fs::remove_dir_all(&work);
        // leave no empty directories behind either
        let _ = work.parent().map(std::fs::remove_dir);
        let _ = work
            .parent()
            .and_then(Path::parent)
            .map(std::fs::remove_dir);
    }
    result
}

fn measure_workload(
    name: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    serve: bool,
    work: &Path,
) -> Result<Report, String> {
    // Set-up: generate the inputs, then what the program needs before its
    // first request (the disassemblers; a healthy server for serve-open).
    let mut setups = Vec::new();
    let mut generated = None;
    for _ in 0..SETUP_REPS {
        let sw = Stopwatch::start();
        let inputs = inputs::generate(name, seed)?;
        let paths = if serve {
            let paths = serve_open::write_files(work, &inputs)?;
            let server = serve_open::start(2)?;
            setups.push(sw.elapsed_secs());
            server.shutdown();
            paths
        } else {
            std::hint::black_box([
                metadis::core::Disassembler::new(batch::config(1)),
                metadis::core::Disassembler::new(batch::config(2)),
            ]);
            setups.push(sw.elapsed_secs());
            Vec::new()
        };
        generated = Some((inputs, paths));
    }
    let (inputs, paths) = generated.expect("SETUP_REPS > 0");
    let setup = Metric::sampled("setup_s", "s", &setups);
    // a server turns the flight recorder on for the whole process; the
    // in-process passes below must run with it off unless traced
    obs::timeline::set_enabled(false);
    drop(obs::timeline::take());

    let reps: Vec<String> = setups.iter().map(|s| format!("{:.1}", s * 1e3)).collect();
    let mut notes = vec![
        format!(
            "{} input(s), {} text bytes",
            inputs.len(),
            inputs::text_bytes(&inputs)
        ),
        format!("set-up reps (ms): {}", reps.join(" ")),
    ];
    // serve-open's in-process passes give the reference the served results
    // must match (and, when traced, the pipeline's per-layer numbers); its
    // run length goes to the HTTP phases
    let clock = Stopwatch::start();
    let (s, pairs) = match (serve, trace) {
        (false, _) => (seconds, MIN_PAIRS),
        (true, false) => (0.0, 0),
        (true, true) => (seconds / 10.0, MIN_PAIRS),
    };
    let mut m = batch::measure(&inputs, s, pairs, trace)?;
    let mut metrics = if serve {
        let left = (seconds - clock.elapsed_secs()).max(seconds / 2.0);
        let run = serve_open::run(&paths, &m.instructions, left)?;
        notes.extend(run.notes);
        m.attempted += run.attempted;
        m.failed += run.failures.len() as u64;
        m.failures.extend(run.failures);
        let mut metrics = run.end_to_end;
        metrics.extend(run.frontend);
        metrics
    } else {
        notes.push(format!(
            "{} pass pair(s), {} latency samples at threads=1",
            m.t1.len(),
            m.t1.iter().map(|p| p.input_ns.len()).sum::<usize>()
        ));
        for (t, passes) in [(1, &m.t1), (2, &m.t2)] {
            let walls: Vec<String> = passes
                .iter()
                .map(|p| format!("{:.0}", p.wall_ns() as f64 / 1e6))
                .collect();
            notes.push(format!("threads={t} pass walls (ms): {}", walls.join(" ")));
        }
        let mut metrics = batch::end_to_end(&m, &inputs);
        metrics.extend(batch::frontend(&m));
        metrics
    };
    let (i, b, t) = batch::error_rates(&m.score);
    notes.push(format!(
        "error rates vs ground truth: instructions {:.3}%, bytes {:.3}%, jump tables {:.3}%",
        i * 100.0,
        b * 100.0,
        t * 100.0
    ));
    if trace {
        metrics.extend(batch::per_layer(&m));
    } else {
        let rss = stats::peak_rss_bytes()? as f64 / 1e6;
        metrics.push(Metric::new("peak_rss_mb", "MB", rss));
        metrics.push(setup);
    }
    Ok(Report {
        metrics,
        notes,
        attempted: m.attempted,
        failed: m.failed,
        failures: m.failures,
    })
}

/// The metrics `--trace` selects, in the order of the exported list; an
/// error names any the run did not produce.
fn exported(report: &Report, trace: bool) -> Result<Vec<&Metric>, String> {
    let names: &[&str] = if trace { &PER_LAYER } else { &END_TO_END };
    names
        .iter()
        .map(|n| {
            report
                .metrics
                .iter()
                .find(|m| m.name == *n && m.value.is_finite())
                .ok_or_else(|| format!("metric {n} was not measured"))
        })
        .collect()
}

/// Write `metrics` as one JSON object keyed by name: `{value, unit}`, plus
/// `q1`/`q3` when `quartiles` is set.
fn write_metrics(w: &mut JsonWriter, metrics: &[&Metric], quartiles: bool) {
    w.key("metrics");
    w.begin_obj();
    for m in metrics {
        w.key(m.name);
        w.begin_obj();
        w.field_f64("value", m.value);
        w.field_str("unit", m.unit);
        if quartiles {
            let (q1, q3) = m.quartiles.unwrap_or((m.value, m.value));
            w.field_f64("q1", q1);
            w.field_f64("q3", q3);
        }
        w.end_obj();
    }
    w.end_obj();
}

/// The last line of a run: `{correct, attempted, failed, metrics}`.
fn result_line(report: &Report, metrics: &[&Metric]) -> String {
    let mut w = JsonWriter::new();
    w.begin_obj();
    w.field_bool("correct", report.failures.is_empty());
    w.field_u64("attempted", report.attempted);
    w.field_u64("failed", report.failed);
    write_metrics(&mut w, metrics, false);
    w.end_obj();
    w.finish()
}

/// The per-run record `--out` keeps: the result line's fields with
/// quartiles, plus the failures and the run's wall time.
fn run_record(name: &str, seed: u64, wall_s: f64, report: &Report, metrics: &[&Metric]) -> String {
    let mut w = JsonWriter::new();
    w.begin_obj();
    w.field_str("workload", name);
    w.field_u64("seed", seed);
    w.field_f64("wall_s", wall_s);
    w.field_bool("correct", report.failures.is_empty());
    w.field_u64("attempted", report.attempted);
    w.field_u64("failed", report.failed);
    w.key("failures");
    w.begin_arr();
    for f in &report.failures {
        w.str_val(f);
    }
    w.end_arr();
    write_metrics(&mut w, metrics, true);
    w.end_obj();
    w.finish()
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// `--workload` mode. Exit 0 only when every output passed its gate.
fn one(name: &str, seed: u64, seconds: f64, trace: bool, out: Option<&Path>) -> ExitCode {
    let clock = Stopwatch::start();
    let report = match run_one(name, seed, seconds, trace) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("metadis-bench: {name}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let metrics = match exported(&report, trace) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("metadis-bench: {name}: {e}");
            return ExitCode::FAILURE;
        }
    };
    for note in &report.notes {
        println!("# {name}: {note}");
    }
    for m in &report.metrics {
        println!("{name} {} {} {}", m.name, m.value, m.unit);
    }
    for f in &report.failures {
        eprintln!("metadis-bench: {name}: FAIL {f}");
    }
    if let Some(dir) = out {
        let written = std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))
            .and_then(|()| {
                let record = run_record(name, seed, clock.elapsed_secs(), &report, &metrics);
                write_file(
                    &dir.join(format!("{name}.t{}.json", u8::from(trace))),
                    &record,
                )?;
                if trace {
                    let events = obs::timeline::take();
                    write_file(
                        &dir.join(format!("trace-{name}.json")),
                        &obs::chrome::write_chrome_trace(&events),
                    )?;
                }
                Ok(())
            });
        if let Err(e) = written {
            eprintln!("metadis-bench: {e}");
            return ExitCode::FAILURE;
        }
    }
    println!("{}", result_line(&report, &metrics));
    if report.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Every workload, each in a child process at `--trace 0` then `--trace 1`;
/// merges the per-run records into `DIR/results.json`.
fn all(seed: u64, seconds: f64, out: &Path) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let mut ok = true;
    let mut w = JsonWriter::new();
    w.begin_obj();
    w.field_str("schema", "metadis-bench.results.v1");
    w.field_u64("seed", seed);
    w.field_f64("seconds", seconds);
    w.field_u64(
        "nproc",
        std::thread::available_parallelism().map_or(1, |n| n.get()) as u64,
    );
    w.key("workloads");
    w.begin_arr();
    for name in inputs::WORKLOADS {
        let clock = Stopwatch::start();
        let mut records = Vec::new();
        for trace in ["0", "1"] {
            let mut child = Command::new(&exe)
                .args(["--workload", name, "--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string(), "--trace", trace])
                .arg("--out")
                .arg(out)
                .stdout(Stdio::piped())
                .spawn()
                .map_err(|e| format!("cannot run {}: {e}", exe.display()))?;
            let stdout = child.stdout.take().expect("stdout is piped");
            for line in BufReader::new(stdout).lines() {
                println!("{}", line.map_err(|e| format!("{name}: {e}"))?);
            }
            let status = child.wait().map_err(|e| format!("{name}: {e}"))?;
            ok &= status.success();
            let path = out.join(format!("{name}.t{trace}.json"));
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            records.push(obs::json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?);
        }
        let wall_s = clock.elapsed_secs();
        println!("# {name}: total wall {wall_s:.1} s");
        w.begin_obj();
        w.field_str("name", name);
        w.field_f64("wall_s", wall_s);
        let count = |k: &str| records.iter().filter_map(|r| r.get(k)?.as_u64()).sum();
        w.field_bool(
            "correct",
            records
                .iter()
                .all(|r| r.get("correct") == Some(&JsonValue::Bool(true))),
        );
        w.field_u64("attempted", count("attempted"));
        w.field_u64("failed", count("failed"));
        w.key("metrics");
        w.begin_obj();
        for (k, v) in records
            .iter()
            .filter_map(|r| r.get("metrics")?.as_obj())
            .flatten()
        {
            w.key(k);
            w.raw_val(&v.to_json());
        }
        w.end_obj();
        w.end_obj();
    }
    w.end_arr();
    w.end_obj();
    write_file(&out.join("results.json"), &w.finish())?;
    println!(
        "# results written to {}",
        out.join("results.json").display()
    );
    Ok(ok)
}

const USAGE: &str = "usage:
  metadis-bench --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]
  metadis-bench --seed N [--seconds S] --out DIR
  metadis-bench --compare PARENT.json[,...] CHANGE.json[,...]
workloads: switch-heavy data-heavy small-batch serve-open";

/// Parsed command line.
enum Mode {
    One {
        workload: String,
        seed: u64,
        seconds: f64,
        trace: bool,
        out: Option<PathBuf>,
    },
    All {
        seed: u64,
        seconds: f64,
        out: PathBuf,
    },
    Compare {
        parent: String,
        change: String,
    },
}

fn parse_args(args: &[String]) -> Result<Mode, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = DEFAULT_SECONDS;
    let mut trace = false;
    let mut out = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !inputs::WORKLOADS.contains(&w.as_str()) {
                    return Err(format!("unknown workload '{w}'"));
                }
                workload = Some(w.clone());
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                seconds = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds.is_finite() && seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not '{other}'")),
                }
            }
            "--out" => out = Some(PathBuf::from(value()?)),
            "--compare" => {
                let parent = value()?.clone();
                let change = it
                    .next()
                    .ok_or("--compare needs PARENT and CHANGE")?
                    .clone();
                return Ok(Mode::Compare { parent, change });
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    let seed = seed.ok_or("--seed is required")?;
    match (workload, out) {
        (Some(workload), out) => Ok(Mode::One {
            workload,
            seed,
            seconds,
            trace,
            out,
        }),
        (None, Some(out)) => Ok(Mode::All { seed, seconds, out }),
        (None, None) => Err("give --workload NAME, or --out DIR to run every workload".into()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    match parse_args(&args) {
        Err(e) => {
            eprintln!("metadis-bench: {e}\n{USAGE}");
            ExitCode::from(2)
        }
        Ok(Mode::One {
            workload,
            seed,
            seconds,
            trace,
            out,
        }) => one(&workload, seed, seconds, trace, out.as_deref()),
        Ok(Mode::All { seed, seconds, out }) => match all(seed, seconds, &out) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("metadis-bench: {e}");
                ExitCode::FAILURE
            }
        },
        Ok(Mode::Compare { parent, change }) => compare::main(&parent, &change),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_lists_what_the_bench_reports() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let doc = obs::json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let names = |k: &str| -> Vec<String> {
            doc.get(k)
                .and_then(JsonValue::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    m.get("name")
                        .and_then(JsonValue::as_str)
                        .unwrap()
                        .to_string()
                })
                .collect()
        };
        assert_eq!(names("workloads"), inputs::WORKLOADS);
        assert_eq!(names("end_to_end"), END_TO_END);
        assert_eq!(names("per_layer"), PER_LAYER);
        let run_seconds = doc.get("run_seconds").and_then(JsonValue::as_f64);
        assert_eq!(run_seconds, Some(DEFAULT_SECONDS));
    }

    #[test]
    fn arguments_select_the_mode() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let one = parse_args(&args(
            "--workload serve-open --seed 7 --seconds 2.5 --trace 1",
        ));
        assert!(matches!(
            one,
            Ok(Mode::One {
                seed: 7,
                trace: true,
                out: None,
                ..
            })
        ));
        assert!(matches!(
            parse_args(&args("--seed 7 --out d")),
            Ok(Mode::All { seed: 7, .. })
        ));
        for bad in [
            "--workload nope --seed 1",
            "--workload small-batch",
            "--seed 1",
            "--seed 1 --workload small-batch --trace 2",
            "--seed 1 --workload small-batch --seconds 0",
            "--seed x --workload small-batch",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad}");
        }
    }
}
