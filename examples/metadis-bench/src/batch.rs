//! In-process analysis: each input's ELF bytes go through `Elf::parse` →
//! `Image::from_elf` → `Disassembler::disassemble`, the path the CLI takes.
//!
//! A measurement is one reference pass per thread count (outputs scored
//! against ground truth and fingerprinted), then interleaved (t1, t2) pass
//! pairs for the run length. Every timed output must match the reference
//! fingerprint, so thread count and repetition never change results.

use crate::inputs::{self, Input};
use crate::stats::{median, tail};
use crate::Metric;
use metadis::core::{Config, Disassembler, Disassembly, Image, PipelineTrace};
use metadis::elf::Elf;
use metadis::eval::metrics::{score, WorkloadScore};
use obs::Stopwatch;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// The analysis configuration every workload uses: the CLI's defaults
/// (self-trained statistical model) with an explicit thread count.
pub fn config(threads: usize) -> Config {
    Config {
        threads,
        ..Config::default()
    }
}

/// One pass over every input at one thread count.
pub struct Pass {
    /// User-visible wall of each input: parse, image build, disassembly.
    pub input_ns: Vec<u64>,
    /// Time spent in `Elf::parse` + `Image::from_elf`, summed over inputs.
    pub parse_ns: u64,
    /// The program's own phase records, merged over inputs.
    pub trace: PipelineTrace,
}

impl Pass {
    /// Wall of the whole pass (inputs back to back).
    pub fn wall_ns(&self) -> u64 {
        self.input_ns.iter().sum()
    }

    fn phase_ns(&self, name: &str) -> u64 {
        self.trace.phase(name).map_or(0, |p| p.wall_ns)
    }
}

/// Analyze every input with `dis`, handing each result to `inspect`
/// outside the timed region.
fn run_pass(
    dis: &Disassembler,
    inputs: &[Input],
    mut inspect: impl FnMut(usize, &Disassembly),
) -> Result<Pass, String> {
    let mut pass = Pass {
        input_ns: Vec::with_capacity(inputs.len()),
        parse_ns: 0,
        trace: PipelineTrace::new(),
    };
    for (i, input) in inputs.iter().enumerate() {
        // Bench-side spans around each public call; they record only while
        // the flight recorder is on (the traced pass).
        obs::timeline::begin("bench.input");
        let sw = Stopwatch::start();
        obs::timeline::begin("elfobj.parse");
        let elf = Elf::parse(std::hint::black_box(&input.elf))
            .map_err(|e| format!("input {i}: cannot parse ELF: {e}"));
        let image = elf.and_then(|elf| {
            Image::from_elf(&elf).ok_or_else(|| format!("input {i}: no executable section"))
        });
        obs::timeline::end("elfobj.parse");
        let parse_ns = sw.elapsed_ns();
        let image = image?;
        obs::timeline::begin("bench.disassemble");
        let mut d = dis.disassemble(&image);
        obs::timeline::end("bench.disassemble");
        let wall_ns = sw.elapsed_ns();
        obs::timeline::end("bench.input");
        inspect(i, &d);
        pass.input_ns.push(wall_ns);
        pass.parse_ns += parse_ns;
        d.trace.spans.clear();
        pass.trace.merge(&d.trace);
    }
    Ok(pass)
}

/// Digest of everything the output contract covers: byte classes,
/// instruction and function starts, jump tables and the correction log.
fn fingerprint(d: &Disassembly) -> u64 {
    let mut h = DefaultHasher::new();
    let classes: Vec<u8> = d.byte_class.iter().map(|&c| c as u8).collect();
    classes.hash(&mut h);
    d.inst_starts.hash(&mut h);
    d.func_starts.hash(&mut h);
    for t in &d.jump_tables {
        (t.table_off, t.table_va, t.in_text, t.entry_size).hash(&mut h);
        (&t.targets, t.lea_off, t.jmp_off, t.bounded, t.capped).hash(&mut h);
    }
    for c in &d.corrections {
        (c.offset, c.loser, c.winner, c.to_code).hash(&mut h);
    }
    h.finish()
}

/// Why a result must not be timed: a budget hit or the linear-sweep
/// fallback means the run did not do the work it reports.
fn degraded(d: &Disassembly) -> Option<String> {
    if d.trace.phase("fallback.linear").is_some() {
        Some("pipeline fell back to linear sweep".into())
    } else if d.trace.is_degraded() {
        Some(format!("{} budget hit(s)", d.trace.degradations.len()))
    } else {
        None
    }
}

/// Highest error rates against ground truth that still count as a correct
/// disassembly: instruction starts (misses plus false starts, padding
/// excluded) per true instruction, misclassified bytes per scored byte,
/// and missed or spurious jump tables per true table.
const MAX_INST_ERROR_RATE: f64 = 0.05;
const MAX_BYTE_ERROR_RATE: f64 = 0.05;
const MAX_TABLE_ERROR_RATE: f64 = 0.01;

/// The error rates of `s`: (instruction, byte, table).
pub fn error_rates(s: &WorkloadScore) -> (f64, f64, f64) {
    let b = &s.bytes;
    let scored = b.code_ok + b.code_as_data + b.data_ok + b.data_as_code;
    let rate = |errors: usize, total: usize| errors as f64 / total.max(1) as f64;
    (
        rate(s.inst.errors(), s.inst.tp + s.inst.fn_),
        rate(b.code_as_data + b.data_as_code, scored),
        rate(s.tables.errors(), s.tables.tp + s.tables.fn_),
    )
}

/// One failure line per error rate above its ceiling.
fn accuracy_failures(s: &WorkloadScore) -> Vec<String> {
    let (inst, bytes, tables) = error_rates(s);
    [
        ("instruction", inst, MAX_INST_ERROR_RATE),
        ("byte", bytes, MAX_BYTE_ERROR_RATE),
        ("jump-table", tables, MAX_TABLE_ERROR_RATE),
    ]
    .into_iter()
    .filter(|&(_, rate, max)| rate > max)
    .map(|(what, rate, max)| {
        format!(
            "{what} error rate {:.2}% against ground truth exceeds {:.0}%",
            rate * 100.0,
            max * 100.0
        )
    })
    .collect()
}

/// Everything an in-process measurement produced.
pub struct Measurement {
    /// Reference fingerprint per input (threads = 1).
    fingerprints: Vec<u64>,
    /// Accepted instruction count per input (threads = 1).
    pub instructions: Vec<u64>,
    /// Reference output scored against ground truth.
    pub score: WorkloadScore,
    /// Reference pass at threads = 1 (deterministic counts).
    reference: Pass,
    /// Timed passes at threads = 1 and 2.
    pub t1: Vec<Pass>,
    pub t2: Vec<Pass>,
    /// Traced passes (t1, t2) and the `jumptable.redecode` counter delta
    /// over the traced t1 pass.
    traced: Option<(Pass, Pass, u64)>,
    /// Input analyses run and how many failed a gate.
    pub attempted: u64,
    pub failed: u64,
    /// Correctness-gate failures, one line each.
    pub failures: Vec<String>,
}

/// Reference passes, then (t1, t2) pairs (at least `min_pairs`), then,
/// when `traced`, one traced pass per thread count with the flight
/// recorder, allocation accounting and global counters on; all of it in
/// about `seconds`. Chrome trace events stay in the recorder for the
/// caller.
pub fn measure(
    inputs: &[Input],
    seconds: f64,
    min_pairs: usize,
    traced: bool,
) -> Result<Measurement, String> {
    let clock = Stopwatch::start();
    let dis = [Disassembler::new(config(1)), Disassembler::new(config(2))];
    let n = inputs.len();
    let mut fingerprints = vec![0; n];
    let mut instructions = vec![0; n];
    let mut score_sum = WorkloadScore::default();
    let mut failures = Vec::new();
    let reference = run_pass(&dis[0], inputs, |i, d| {
        fingerprints[i] = fingerprint(d);
        instructions[i] = d.inst_starts.len() as u64;
        score_sum.add(score(&inputs[i].truth, d));
        if let Some(why) = degraded(d) {
            failures.push(format!("input {i} at threads=1: {why}"));
        }
    })?;
    let failed = failures.len() as u64;
    failures.extend(accuracy_failures(&score_sum));
    let mut m = Measurement {
        fingerprints,
        instructions,
        score: score_sum,
        reference,
        t1: Vec::new(),
        t2: Vec::new(),
        traced: None,
        attempted: n as u64,
        failed,
        failures,
    };

    // Every later pass, traced or not and at either thread count, must
    // reproduce the reference output exactly.
    let check = |m: &mut Measurement, dis: &Disassembler, threads: usize| {
        let mut bad = Vec::new();
        let pass = run_pass(dis, inputs, |i, d| {
            if let Some(why) = degraded(d) {
                bad.push(format!("input {i} at threads={threads}: {why}"));
            } else if fingerprint(d) != m.fingerprints[i] {
                bad.push(format!(
                    "input {i}: output at threads={threads} differs from threads=1"
                ));
            }
        })?;
        m.attempted += n as u64;
        m.failed += bad.len() as u64;
        m.failures.extend(bad);
        Ok::<Pass, String>(pass)
    };
    // The threads=2 reference doubles as its warm-up.
    check(&mut m, &dis[1], 2)?;

    // The run length covers the reference passes and, when traced, the
    // traced pair: stop when one more timed pair would overrun it.
    let timed_from = clock.elapsed_secs();
    let mut pair = 0usize;
    loop {
        let spent = clock.elapsed_secs();
        let pair_s = if pair == 0 {
            timed_from
        } else {
            (spent - timed_from) / pair as f64
        };
        let reserve = if traced { pair_s } else { 0.0 };
        if pair >= min_pairs && spent + pair_s + reserve > seconds {
            break;
        }
        // Alternate which thread count goes first so slow drift in the
        // host's speed does not favour one of them.
        let order = if pair.is_multiple_of(2) {
            [0, 1]
        } else {
            [1, 0]
        };
        for k in order {
            let pass = check(&mut m, &dis[k], k + 1)?;
            if k == 0 {
                m.t1.push(pass);
            } else {
                m.t2.push(pass);
            }
        }
        pair += 1;
    }

    if traced {
        obs::set_enabled(true);
        obs::alloc::set_enabled(true);
        obs::timeline::set_enabled(true);
        let redecode = obs::global().counter("jumptable.redecode");
        let before = redecode.get();
        let t1 = check(&mut m, &dis[0], 1)?;
        let redecodes = redecode.get() - before;
        let t2 = check(&mut m, &dis[1], 2)?;
        obs::timeline::set_enabled(false);
        obs::alloc::set_enabled(false);
        obs::set_enabled(false);
        m.traced = Some((t1, t2, redecodes));
    }
    Ok(m)
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Median over passes of `f(pass)`.
fn median_of(passes: &[Pass], f: impl Fn(&Pass) -> f64) -> f64 {
    median(&passes.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
}

/// Throughput of `passes` in 10^6 text bytes per second.
fn mbps(name: &'static str, bytes: u64, passes: &[Pass]) -> Metric {
    let work: Vec<(f64, f64)> = passes
        .iter()
        .map(|p| (bytes as f64 / 1e6, p.wall_ns() as f64 / 1e9))
        .collect();
    Metric::rate(name, "MB/s", &work)
}

/// End-to-end metrics of a batch workload: throughput at threads 1 and 2,
/// and the per-binary latency distribution at threads = 1.
pub fn end_to_end(m: &Measurement, inputs: &[Input]) -> Vec<Metric> {
    let bytes = inputs::text_bytes(inputs);
    let latencies: Vec<f64> =
        m.t1.iter()
            .flat_map(|p| p.input_ns.iter().map(|&ns| ms(ns)))
            .collect();
    vec![
        mbps("analyze_mbps_t1", bytes, &m.t1),
        mbps("analyze_mbps_t2", bytes, &m.t2),
        Metric::sampled("latency_ms_p50", "ms", &latencies),
        latency_tail(&latencies),
    ]
}

/// The tail latency metric: the highest percentile with ten samples
/// beyond it. One large binary per pass gives too few samples for any
/// tail percentile; the metric then reads the median, since the slowest
/// of a handful of passes measures the host, not the program.
pub fn latency_tail(latencies: &[f64]) -> Metric {
    let value = match tail(latencies) {
        Some((_, v)) => v,
        None => median(latencies).unwrap_or(0.0),
    };
    Metric::new("latency_ms_tail", "ms", value)
}

/// Per-layer metrics: phase times are medians over the timed passes (the
/// program records them on every run); allocation, counter and overhead
/// figures come from the traced passes.
pub fn per_layer(m: &Measurement) -> Vec<Metric> {
    let phase_ms = |passes: &[Pass], name: &str| median_of(passes, |p| ms(p.phase_ns(name)));
    let phases_ns = |p: &Pass| p.trace.phases.iter().map(|ph| ph.wall_ns).sum::<u64>();
    let r = &m.reference.trace;
    let items = |name: &str| r.phase(name).map_or(0, |p| p.items) as f64;
    let candidates = items("superset");
    let eliminated = items("viability");
    let anchors = candidates - eliminated;
    let tables = items("jumptable");
    let (t1_wall, t2_wall) = (
        median_of(&m.t1, |p| p.wall_ns() as f64),
        median_of(&m.t2, |p| p.wall_ns() as f64),
    );
    let (traced_t1, _, redecodes) = m
        .traced
        .as_ref()
        .expect("per-layer metrics need the traced passes");
    let shards_t2 = m.t2[0].trace.phases.iter().map(|p| p.shards).sum::<u64>();
    vec![
        Metric::new(
            "elfobj.parse_ms",
            "ms",
            median_of(&m.t1, |p| ms(p.parse_ns)),
        ),
        Metric::new("superset.build_ms", "ms", phase_ms(&m.t1, "superset")),
        Metric::new("superset.candidates", "count", candidates),
        Metric::new("viability.compute_ms", "ms", phase_ms(&m.t1, "viability")),
        Metric::new(
            "viability.iterations",
            "count",
            r.viability_iterations as f64,
        ),
        Metric::new("viability.eliminated", "count", eliminated),
        Metric::new("phase.anchor_ms", "ms", phase_ms(&m.t1, "anchor")),
        Metric::new("jumptable.detect_ms", "ms", phase_ms(&m.t1, "jumptable")),
        Metric::new("jumptable.anchors_scanned", "count", anchors),
        Metric::new("jumptable.tables", "count", tables),
        Metric::new(
            "jumptable.tables_per_1k_anchors",
            "ratio",
            if anchors > 0.0 {
                tables * 1e3 / anchors
            } else {
                0.0
            },
        ),
        Metric::new("jumptable.redecode", "count", *redecodes as f64),
        Metric::new("phase.structural_ms", "ms", phase_ms(&m.t1, "structural")),
        Metric::new("phase.stats_train_ms", "ms", phase_ms(&m.t1, "stats.train")),
        Metric::new(
            "phase.stats_classify_ms",
            "ms",
            phase_ms(&m.t1, "stats.classify"),
        ),
        Metric::new("stats.decisions", "count", items("stats.classify")),
        Metric::new("phase.padding_ms", "ms", phase_ms(&m.t1, "padding")),
        Metric::new("phase.default_ms", "ms", phase_ms(&m.t1, "default")),
        Metric::new(
            "pipeline.unattributed_ms",
            "ms",
            median_of(&m.t1, |p| {
                ms(p.trace.total_wall_ns.saturating_sub(phases_ns(p)))
            }),
        ),
        Metric::new(
            "pipeline.unattributed_pct",
            "%",
            median_of(&m.t1, |p| {
                100.0 * p.trace.total_wall_ns.saturating_sub(phases_ns(p)) as f64
                    / p.trace.total_wall_ns.max(1) as f64
            }),
        ),
        Metric::new(
            "superset.build_sharded_ms_t2",
            "ms",
            phase_ms(&m.t2, "superset"),
        ),
        Metric::new(
            "viability.compute_sharded_ms_t2",
            "ms",
            phase_ms(&m.t2, "viability"),
        ),
        Metric::new(
            "phase.stats_classify_ms_t2",
            "ms",
            phase_ms(&m.t2, "stats.classify"),
        ),
        Metric::new(
            "par.merge_pct_t2",
            "%",
            median_of(&m.t2, |p| {
                let merge: u64 = p.trace.phases.iter().map(|ph| ph.merge_wall_ns).sum();
                100.0 * merge as f64 / p.trace.total_wall_ns.max(1) as f64
            }),
        ),
        Metric::new("par.shards_t2", "count", shards_t2 as f64),
        Metric::new("par.speedup_t2", "x", t1_wall / t2_wall),
        Metric::new(
            "obs.trace_overhead_pct",
            "%",
            100.0 * (traced_t1.wall_ns() as f64 / t1_wall - 1.0),
        ),
        Metric::new(
            "alloc.peak_mb",
            "MB",
            traced_t1.trace.alloc_peak as f64 / 1e6,
        ),
        Metric::new(
            "alloc.bytes_mb",
            "MB",
            traced_t1.trace.alloc_bytes as f64 / 1e6,
        ),
        Metric::new(
            "accuracy.inst_errors",
            "count",
            m.score.inst.errors() as f64,
        ),
        Metric::new(
            "accuracy.byte_errors",
            "count",
            (m.score.bytes.code_as_data + m.score.bytes.data_as_code) as f64,
        ),
        Metric::new(
            "accuracy.table_errors",
            "count",
            m.score.tables.errors() as f64,
        ),
    ]
}

/// Front-end metrics of a batch workload: the share of each binary's wall
/// spent outside the pipeline's own timer (ELF parse, image build, result
/// assembly). There is no serve front-end or load generator here, so those
/// layers read zero.
pub fn frontend(m: &Measurement) -> Vec<Metric> {
    vec![
        Metric::new(
            "frontend.overhead_pct",
            "%",
            median_of(&m.t1, |p| {
                100.0 * p.wall_ns().saturating_sub(p.trace.total_wall_ns) as f64
                    / p.wall_ns().max(1) as f64
            }),
        ),
        Metric::new("serve.queue_wait_pct", "%", 0.0),
        Metric::new("serve.sheds", "count", 0.0),
        Metric::new("loadgen.late_pct", "%", 0.0),
    ]
}
