//! Self-timed throughput benchmark (no external harness).
//!
//! Times the raw decode loop, the superset/viability stages, every baseline,
//! and the full pipeline on one 200-function workload, prints a throughput
//! table, and writes the measurements as a `metadis.trace.v6` record
//! (`BENCH_throughput.json`) — the same schema the CLI's `--trace-json`
//! emits. Set `QUICK=1` for a reduced iteration count.
//!
//! The scaling arm runs the full pipeline on a ≥1 MiB corpus and prints
//! its end-to-end `pipeline bytes/sec(threads=1) = N` and
//! `jumptable share(threads=1) = X.X%` (jump-table detection wall over
//! pipeline wall). The file-level arm runs a fixed batch of small binaries
//! through `par::run_jobs` at 1 and 2 workers and prints
//! `batch speedup(2) = X.XXx`. The superset-build figure is the best of
//! arms spread over the whole run (before the tool arms, between the
//! scaling arms, after the telemetry arms), so one slow host phase cannot
//! decide it. `scripts/bench-check.sh` gates all four.
//!
//! Three extra arms run the full pipeline with runtime telemetry off, with
//! telemetry (allocation accounting + Info-level ring logging) on, and with
//! the flight recorder (timeline events) on; the run fails (exit 1) if
//! either instrumented arm costs more than 5% wall time over the off arm.

use disasm_baselines::Baseline;
use disasm_core::superset::Superset;
use disasm_core::trace::merged_report_json;
use disasm_core::viability::Viability;
use disasm_core::{Config, Disassembler, Image, PipelineTrace};
use disasm_eval::table::TextTable;
use disasm_eval::{image_of, train_standard_model};
use obs::Stopwatch;

fn workload() -> bingen::Workload {
    bingen::Workload::generate(&bingen::GenConfig::new(
        55_000,
        bingen::OptProfile::O2,
        if bench::quick() { 40 } else { 200 },
        0.10,
    ))
}

/// Separate, much larger corpus for the end-to-end pipeline arm: the main
/// workload (~14 KB in QUICK mode) is too small for per-phase shares to
/// mean anything, so the pipeline gates read a ≥1 MiB text section.
fn scaling_workload() -> bingen::Workload {
    let mut functions = 3_000;
    loop {
        let w = bingen::Workload::generate(&bingen::GenConfig::new(
            77_000,
            bingen::OptProfile::O2,
            functions,
            0.10,
        ));
        if w.text.len() >= 1 << 20 {
            return w;
        }
        functions *= 2;
    }
}

/// Binaries in the file-level arm's batch.
const BATCH_BINARIES: u64 = 48;

/// The file-level arm's fixed batch, shaped like metadis-bench's
/// small-batch workload: 8–40 functions each, O0–O3 cycled, 10% data.
fn batch_images() -> Vec<Image> {
    let mut rng = bingen::rng::Rng::seed_from_u64(93_000);
    (0..BATCH_BINARIES)
        .map(|i| {
            let functions: usize = rng.gen_range(8..=40);
            let profile = bingen::OptProfile::ALL[(i % 4) as usize];
            image_of(&bingen::Workload::generate(&bingen::GenConfig::new(
                93_000 + i,
                profile,
                functions,
                0.10,
            )))
        })
        .collect()
}

/// Run `f` `iters` times and return the best-of wall time in nanoseconds.
fn best_of<T>(iters: usize, mut f: impl FnMut() -> T) -> u64 {
    let mut best = u64::MAX;
    for _ in 0..iters {
        let sw = Stopwatch::start();
        std::hint::black_box(f());
        best = best.min(sw.elapsed_ns());
    }
    best
}

/// One coarse-phase trace for a stage that processed `bytes` in `wall_ns`.
fn stage_trace(name: &'static str, wall_ns: u64, bytes: u64, items: u64) -> PipelineTrace {
    let mut t = PipelineTrace::new();
    t.record(name, wall_ns, bytes, items);
    t.total_wall_ns = wall_ns;
    t.text_bytes = bytes;
    t.runs = 1;
    t
}

/// Best-of-`iters` full-tool run; returns the trace of the fastest run.
fn bench_tool(
    iters: usize,
    image: &Image,
    run: impl Fn(&Image) -> disasm_core::Disassembly,
) -> PipelineTrace {
    let mut best: Option<PipelineTrace> = None;
    for _ in 0..iters {
        let d = std::hint::black_box(run(image));
        if best
            .as_ref()
            .map(|b| d.trace.total_wall_ns < b.total_wall_ns)
            .unwrap_or(true)
        {
            best = Some(d.trace);
        }
    }
    best.unwrap()
}

fn main() {
    bench::banner(
        "throughput",
        "per-stage and per-tool wall time on a 200-function O2 workload",
        "superset-based tools pay a constant factor over linear sweep",
    );
    obs::set_enabled(true);
    let iters = if bench::quick() { 2 } else { 5 };
    let w = workload();
    let image = image_of(&w);
    let nb = w.text.len() as u64;
    let model = train_standard_model(if bench::quick() { 2 } else { 4 });

    let mut tools: Vec<(String, PipelineTrace)> = Vec::new();

    // raw stage timings
    let decode_ns = best_of(iters, || {
        let mut pos = 0usize;
        let mut count = 0usize;
        while pos < w.text.len() {
            match x86_isa::decode(&w.text[pos..]) {
                Ok(i) => {
                    pos += i.len as usize;
                    count += 1;
                }
                Err(_) => pos += 1,
            }
        }
        count
    });
    tools.push((
        "linear-decode".into(),
        stage_trace("decode", decode_ns, nb, 0),
    ));
    // superset arm 1 of 3; the figure is the best over all three
    let mut superset_ns = best_of(iters, || Superset::build(&w.text));
    let ss = Superset::build(&w.text);
    let candidates = ss.valid().count() as u64;
    let viability_ns = best_of(iters, || Viability::compute(&ss));
    tools.push((
        "viability-fixpoint".into(),
        stage_trace(
            "viability",
            viability_ns,
            nb,
            Viability::compute(&ss).iterations(),
        ),
    ));

    // whole tools, each carrying its own per-phase trace
    for b in Baseline::ALL {
        tools.push((
            b.name().into(),
            bench_tool(iters, &image, |img| b.disassemble(img)),
        ));
    }
    let full = Disassembler::new(Config {
        model: Some(model.clone()),
        ..Config::default()
    });
    tools.push((
        "metadis (ours)".into(),
        bench_tool(iters, &image, |img| full.disassemble(img)),
    ));
    let self_train = Disassembler::new(Config::default());
    tools.push((
        "metadis (self-trained)".into(),
        bench_tool(iters, &image, |img| self_train.disassemble(img)),
    ));

    // scaling arm: the full pipeline on the dedicated ≥1 MiB corpus. One
    // binary always runs on one thread; its trace carries the per-phase
    // split into the perf record.
    let scale_w = scaling_workload();
    let scale_image = image_of(&scale_w);
    let scale_iters = if bench::quick() { 1 } else { 3 };
    let scale_tool = Disassembler::new(Config {
        model: Some(model.clone()),
        threads: 1,
        ..Config::default()
    });
    let scale = bench_tool(scale_iters, &scale_image, |img| scale_tool.disassemble(img));
    let scale_ns = scale.total_wall_ns;
    let jumptable_ns = scale.phase("jumptable").map_or(0, |p| p.wall_ns);
    let jumptable_share = jumptable_ns as f64 * 100.0 / scale_ns.max(1) as f64;
    tools.push(("metadis (threads=1)".into(), scale));

    // superset arm 2 of 3
    superset_ns = superset_ns.min(best_of(iters, || Superset::build(&w.text)));

    // file-level arm: the batch through the run_jobs pool serve uses, at 1
    // and 2 workers, best of 5 walls per arm with the order alternating.
    // Each job is a whole self-trained pipeline run, as in serve.
    let batch = batch_images();
    let batch_bytes: usize = batch.iter().map(|img| img.text.len()).sum();
    let batch_tool = Disassembler::new(Config {
        threads: 1,
        ..Config::default()
    });
    let mut batch_ns = [u64::MAX; 2];
    for rep in 0..5 {
        for arm in [rep % 2, 1 - rep % 2] {
            let sw = Stopwatch::start();
            std::hint::black_box(disasm_core::par::run_jobs(
                "bench.batch",
                batch.len(),
                arm + 1,
                |j| batch_tool.disassemble(&batch[j]).inst_starts.len(),
            ));
            batch_ns[arm] = batch_ns[arm].min(sw.elapsed_ns());
        }
    }

    // telemetry-cost arms: the identical full-pipeline run with runtime
    // telemetry (allocation accounting + Info-level ring logging) off, then
    // on. Extra iterations because this pair feeds a <5% overhead assertion.
    let cost_iters = iters.max(5);
    obs::alloc::set_enabled(false);
    obs::log::reset();
    let off = bench_tool(cost_iters, &image, |img| full.disassemble(img));
    obs::alloc::set_enabled(true);
    obs::log::set_level(Some(obs::log::Level::Info));
    let on = bench_tool(cost_iters, &image, |img| full.disassemble(img));
    obs::log::set_level(None);
    obs::alloc::set_enabled(false);
    let (off_ns, on_ns) = (off.total_wall_ns, on.total_wall_ns);
    tools.push(("telemetry-off".into(), off));
    tools.push(("telemetry-on".into(), on));

    // flight-recorder cost arm: the same run with the timeline recorder on
    // (allocation accounting and logging stay off, isolating the recorder).
    // Its trace carries a populated timeline_summary into the perf record.
    obs::timeline::set_enabled(true);
    let prof = bench_tool(cost_iters, &image, |img| full.disassemble(img));
    obs::timeline::set_enabled(false);
    let recorded = obs::timeline::take().len();
    let prof_ns = prof.total_wall_ns;
    tools.push(("profiler-on".into(), prof));

    // superset arm 3 of 3; the record keeps the stage next to linear-decode
    superset_ns = superset_ns.min(best_of(iters, || Superset::build(&w.text)));
    tools.insert(
        1,
        (
            "superset-build".into(),
            stage_trace("superset", superset_ns, nb, candidates),
        ),
    );

    let mut t = TextTable::new(["stage/tool", "wall ms", "MiB/s"]);
    for (name, tr) in &tools {
        t.row([
            name.clone(),
            format!("{:.3}", tr.total_wall_ns as f64 / 1e6),
            format!("{:.1}", tr.bytes_per_sec() / (1024.0 * 1024.0)),
        ]);
    }
    print!("{}", t.render());
    println!(
        "\n(best of {iters} runs over {nb} text bytes; superset-build best of {} over three arms)",
        3 * iters
    );

    // Parseable stage/scaling summaries (consumed by scripts/bench-check.sh)
    // plus counters in the perf record so the JSON carries them too.
    let superset_bps = nb as f64 * 1e9 / superset_ns.max(1) as f64;
    println!("superset-build bytes/sec = {superset_bps:.0}");
    obs::global().add("bench.superset_bytes_per_sec", superset_bps as u64);
    println!("scaling corpus: {} bytes", scale_w.text.len());
    let pipeline_bps = scale_w.text.len() as f64 * 1e9 / scale_ns.max(1) as f64;
    println!("pipeline bytes/sec(threads=1) = {pipeline_bps:.0}");
    println!("jumptable share(threads=1) = {jumptable_share:.1}%");
    println!(
        "batch corpus: {} binaries, {batch_bytes} bytes; best wall {:.1} ms at 1 worker, {:.1} ms at 2",
        batch.len(),
        batch_ns[0] as f64 / 1e6,
        batch_ns[1] as f64 / 1e6
    );
    let batch_speedup = batch_ns[0] as f64 / batch_ns[1].max(1) as f64;
    println!("batch speedup(2) = {batch_speedup:.2}x");

    let overhead = on_ns as f64 / off_ns as f64 - 1.0;
    println!(
        "telemetry overhead: {:+.2}% (off {:.3} ms, on {:.3} ms)",
        overhead * 100.0,
        off_ns as f64 / 1e6,
        on_ns as f64 / 1e6
    );
    let prof_overhead = prof_ns as f64 / off_ns as f64 - 1.0;
    println!(
        "flight recorder overhead: {:+.2}% (on {:.3} ms, {recorded} events buffered)",
        prof_overhead * 100.0,
        prof_ns as f64 / 1e6
    );

    let json = merged_report_json("bench.throughput", &tools, &obs::global().snapshot());
    bench::emit_bench_json("throughput", &json).expect("write perf record");

    // the telemetry layer must stay effectively free: <5% wall overhead,
    // with a small absolute floor so micro-runs don't fail on timer noise
    if on_ns > off_ns + off_ns / 20 + 500_000 {
        eprintln!(
            "FAIL: telemetry overhead {:.2}% exceeds the 5% budget",
            overhead * 100.0
        );
        std::process::exit(1);
    }
    // same budget for the flight recorder: profiling must be cheap enough
    // to leave on in production serve mode
    if prof_ns > off_ns + off_ns / 20 + 500_000 {
        eprintln!(
            "FAIL: flight recorder overhead {:.2}% exceeds the 5% budget",
            prof_overhead * 100.0
        );
        std::process::exit(1);
    }
}
