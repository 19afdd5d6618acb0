//! The `metadis` command-line interface.
//!
//! Subcommands:
//!
//! * `disasm <elf>` — disassemble a stripped ELF and print a report or an
//!   annotated listing (`--listing`).
//! * `gen -o <path>` — emit a synthetic test executable (plus `.truth`
//!   sidecar listing ground-truth instruction offsets).
//! * `compare <elf>` — run every tool on the same binary and print summary
//!   statistics side by side.
//! * `cfg <elf>` — reconstruct and summarize the control-flow graph.
//! * `explain <elf> <offset|range>` — print the causal evidence chain
//!   behind one byte's (or range's) classification; `--json` emits the
//!   stable `metadis.explain.v1` record.
//! * `trace-diff <baseline.json> <new.json>` — compare two trace records
//!   against regression thresholds; exits non-zero on drift.
//! * `serve` — batch-service mode: disassemble ELF paths from stdin, a
//!   file, or a watched directory while exposing Prometheus `/metrics` and
//!   `/healthz` over HTTP (see [`crate::serve`]).
//! * `scrape <host:port>` — fetch and print a serve-mode endpoint.
//! * `top <host:port>` — live service console: poll the serve-mode
//!   `/debug/metrics/history` ring and render rates, windowed latency
//!   quantiles, and SLO burn rates as an auto-refreshing table.
//! * `forensics <host:port>` — snapshot a running instance's `/metrics`,
//!   metric history, and retained `metadis.request.v1` bundles into an
//!   on-disk support bundle for incident review.
//!
//! Every analysis command also accepts `--threads N` (the width of the
//! file-level worker pools `serve` runs whole binaries on; one binary
//! always runs on one thread, so the output never depends on it) and the
//! observability flags:
//! `--metrics` appends per-phase timing tables, the event-span tree, and
//! the global counter/histogram snapshot to the output, `--trace-json
//! <path>` writes a machine-readable trace record (schema
//! `metadis.trace.v6`, see the README "Observability" section), `--log
//! <path|->` / `--log-level <level>` stream structured `metadis.log.v2`
//! JSON lines to a file or stderr (each carrying the invocation's minted
//! `req_id`), and
//! `--provenance` collects the per-byte evidence ledger (`explain` turns
//! it on automatically), plus the robustness flags:
//! `--deadline-ms` / `--max-iterations` bound the pipeline's resource use
//! (budget hits are recorded as trace degradations) and `--strict` turns
//! any degradation into a hard `analysis-degraded` error.
//!
//! Failures carry an [`ErrorCategory`] mapped to a stable exit code
//! (`usage` = 2, `io` = 3, `parse` = 4, `analysis-degraded` = 5,
//! `overload` = 6).
//!
//! All output goes to the returned `String` so the CLI is fully testable.

use bingen::{GenConfig, OptProfile, Workload};
use disasm_baselines::Baseline;
use disasm_core::{cfg::Cfg, Config, Disassembler, Disassembly, Image, ListingOptions};
use std::fmt::Write as _;

/// What kind of failure a [`CliError`] represents. Each category maps to a
/// stable process exit code and a stable machine-readable name, so scripts
/// can branch on failures without scraping message text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCategory {
    /// Bad command line: unknown command, missing argument, bad flag value.
    Usage,
    /// The OS said no: unreadable input, unwritable output.
    Io,
    /// The input file exists but is not a usable ELF.
    Parse,
    /// Analysis completed but hit a resource budget under `--strict`.
    Degraded,
    /// The service shed load under admission control: requests were
    /// refused (queue full, connection cap, deadline spent) rather than
    /// processed. Distinct from [`ErrorCategory::Degraded`], which means
    /// analysis *ran* but hit a budget.
    Overload,
}

impl ErrorCategory {
    /// Stable category name, printed as `error[{name}]: ...` by the binary.
    pub fn name(self) -> &'static str {
        match self {
            ErrorCategory::Usage => "usage",
            ErrorCategory::Io => "io",
            ErrorCategory::Parse => "parse",
            ErrorCategory::Degraded => "analysis-degraded",
            ErrorCategory::Overload => "overload",
        }
    }

    /// Stable process exit code for this category.
    pub fn exit_code(self) -> i32 {
        match self {
            ErrorCategory::Usage => 2,
            ErrorCategory::Io => 3,
            ErrorCategory::Parse => 4,
            ErrorCategory::Degraded => 5,
            ErrorCategory::Overload => 6,
        }
    }
}

/// CLI error: a category (exit code + stable name) plus a message already
/// formatted for the user.
#[derive(Debug)]
pub struct CliError {
    /// Failure class; decides the exit code.
    pub category: ErrorCategory,
    /// User-facing message.
    pub message: String,
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for CliError {}

fn err(msg: impl Into<String>) -> CliError {
    CliError {
        category: ErrorCategory::Usage,
        message: msg.into(),
    }
}

fn io_err(msg: impl Into<String>) -> CliError {
    CliError {
        category: ErrorCategory::Io,
        message: msg.into(),
    }
}

fn parse_err(msg: impl Into<String>) -> CliError {
    CliError {
        category: ErrorCategory::Parse,
        message: msg.into(),
    }
}

/// Usage text.
pub const USAGE: &str = "\
metadis — metadata-free disassembly of stripped x86-64 binaries

USAGE:
    metadis disasm <elf> [--listing] [--max-lines N] [--train N]
    metadis profile <elf> [--chrome-trace PATH] [--profile-summary]
    metadis gen -o <path> [--seed N] [--profile O0|O1|O2|O3]
                [--functions N] [--density F] [--adversarial]
    metadis compare <elf> [--train N]
    metadis cfg <elf> [--train N]
    metadis report <elf> [--train N]
    metadis diff <elf> [--train N]
    metadis score <elf> <truth-file> [--train N]
    metadis explain <elf> <offset|start..end> [--json] [--train N]
    metadis trace-diff <baseline.json> <new.json> [--max-wall-ratio F]
                [--max-count-ratio F] [--allow-degradations]
    metadis serve [--addr HOST:PORT] [--from FILE | --watch DIR]
                [--max-requests N] [--poll-ms N] [--max-inflight N]
                [--queue-depth N] [--client-deadline-ms N] [--drain-ms N]
                [--series-interval-ms N] [--series-window N]
                [--flight-capacity N]
    metadis scrape <host:port> [--path /metrics]
    metadis top <host:port> [--once] [--interval-ms N] [--count N]
                [--rows N]
    metadis forensics <host:port> [--id REQ_ID] [-o DIR]

OPTIONS:
    --listing       print a full annotated listing instead of the summary
    --max-lines N   cap listing length (default 200; 0 = unlimited)
    --train N       train the statistical model on N generated binaries
                    (default: self-train from the input binary)
    --seed N        generator seed (default 0)
    --profile P     generator profile (default O2)
    --functions N   generated function count (default 25)
    --density F     embedded-data fraction 0.0-0.5 (default 0.1)
    --adversarial   lace the generated binary with anti-disassembly junk

PARALLELISM (any analysis command; only serve has several binaries to run):
    --threads N        width of the file-level worker pools: serve analyzes
                       up to N binaries at once (batch intake and /analyze).
                       One binary always runs on one thread, so results
                       never depend on N (default: the METADIS_THREADS env
                       var if set, else the machine's available parallelism)

OBSERVABILITY (any analysis command):
    --metrics          append per-phase timing tables, the event-span tree
                       and the global counter/histogram snapshot
    --trace-json PATH  write a machine-readable trace record
                       (schema metadis.trace.v6) to PATH
    --log DEST         stream structured metadis.log.v2 JSON lines to DEST
                       (a file path, or '-' for stderr); every line carries
                       the invocation's req_id for cross-artifact correlation
    --log-level L      keep records at level L and above: trace, debug,
                       info, warn, error (default info when --log is given)
    --provenance       collect the per-byte evidence ledger (the explain
                       command enables this automatically; off by default
                       because it costs memory proportional to decisions)

PROFILE (runs the pipeline with the flight recorder on):
    --chrome-trace PATH  write the run's timeline as Chrome trace-event
                         JSON (load in Perfetto or chrome://tracing: the
                         pipeline phases as nested spans on the main lane)
    --profile-summary    print the full critical-path / worker-utilization
                         / shard-duration report instead of the one-line
                         headline

SERVE:
    --addr HOST:PORT   bind address for /metrics, /healthz, /debug/timeline
                       and /debug/requests
                       (default 127.0.0.1:0 — an ephemeral port, logged at
                       startup as a metadis.log.v2 'listening' event)
    --from FILE        read ELF paths (one per line) from FILE instead of
                       stdin
    --watch DIR        poll DIR for new files and disassemble each once
    --max-requests N   stop after N processed requests
    --poll-ms N        watch-mode poll interval (default 200)
    --max-inflight N   connection cap: accepts beyond N concurrently held
                       client connections are shed with a structured 503
                       (default 256)
    --queue-depth N    admission-queue bound for HTTP /analyze requests;
                       a full queue sheds with 503 category=overload and
                       drives /healthz to 503 (default 64; 0 admits
                       nothing — maintenance mode)
    --client-deadline-ms N
                       per-client budget covering read + queue wait +
                       analysis + write; queue wait is subtracted from the
                       analysis deadline (default 10000; 0 = unlimited)
    --drain-ms N       graceful-shutdown drain bound for in-flight work
                       (default 2000)
    --series-interval-ms N
                       metric time-series sampler tick feeding
                       /debug/metrics/history and the SLO burn gauges
                       (default 1000; 0 disables sampling)
    --series-window N  samples the history ring retains; also scales the
                       SLO burn windows (default 300, minimum 2)
    --flight-capacity N
                       retained request records for /debug/requests; tail
                       retention keeps anomalous requests preferentially
                       (default 8, minimum 1)

SCRAPE:
    --path P           endpoint to fetch (default /metrics)

TOP (live console over /debug/metrics/history; rates and windowed
quantiles are derived client-side from adjacent samples):
    --once             print one frame and exit instead of refreshing
    --interval-ms N    refresh interval (default 1000)
    --count N          stop after N refreshes (default: run until ^C)
    --rows N           table rows to show, newest last (default 10)

FORENSICS (snapshot a running instance into an on-disk support bundle:
/metrics, /debug/metrics/history, the /debug/requests index, and one
metadis.request.v1 bundle per retained request):
    --id REQ_ID        fetch only the bundle for REQ_ID (16-hex request id)
    -o DIR             output directory (default metadis-forensics-<addr>)

EXPLAIN:
    --json             emit the metadis.explain.v1 JSON record instead of
                       the human-readable causal chain

TRACE-DIFF:
    --max-wall-ratio F   allowed new/old wall-time ratio (default 2.0)
    --max-count-ratio F  allowed new/old ratio for deterministic counts
                         (default 1.25)
    --allow-degradations accept new budget degradations instead of
                         flagging them as regressions

ROBUSTNESS (any analysis command):
    --deadline-ms N      abort analysis phases after N milliseconds of wall
                         clock; the run degrades to a partial (still fully
                         byte-classified) result instead of hanging
    --max-iterations N   cap the viability fixpoint and the correction
                         engine at N iterations/steps each
    --strict             exit with error category 'analysis-degraded' (code
                         5) if any resource budget was hit; the trace
                         record, if requested, is still written first.
                         Under serve: exit with category 'overload' (code
                         6) if any request was shed by admission control
";

/// What a subcommand produced: the user-facing text, plus every disassembly
/// it ran (name → result). The observability flags consume the latter.
struct CmdOutput {
    text: String,
    tools: Vec<(String, Disassembly)>,
}

impl CmdOutput {
    fn text_only(text: String) -> CmdOutput {
        CmdOutput {
            text,
            tools: Vec::new(),
        }
    }
}

/// Run the CLI with `args` (without the program name). Returns the text to
/// print on success.
///
/// # Errors
///
/// Returns a [`CliError`] with a user-facing message on bad arguments or
/// I/O / parse failures.
pub fn run(args: &[String]) -> Result<String, CliError> {
    let r = run_inner(args);
    // a failing invocation lands in the structured stream too, while the
    // sink is still attached (the binary prints the human-facing line)
    if let Err(e) = &r {
        obs::log::error(
            "cli",
            "command failed",
            &[
                ("category", e.category.name().into()),
                ("error", e.message.as_str().into()),
            ],
        );
    }
    // per-invocation logger teardown, so in-process callers (tests, the
    // eval harness) don't leak a sink or level into the next invocation
    obs::log::clear_sink();
    obs::log::set_level(None);
    r
}

fn run_inner(args: &[String]) -> Result<String, CliError> {
    let mut it = args.iter();
    let cmd = it.next().ok_or_else(|| err(USAGE))?;
    let rest: Vec<&String> = it.collect();
    let metrics = has_flag(&rest, "--metrics");
    let trace_json = flag_value(&rest, "--trace-json").map(str::to_string);
    if metrics || trace_json.is_some() {
        obs::set_enabled(true);
    }
    // allocation accounting is on for every CLI invocation; without the
    // `count-alloc` feature no allocator feeds it and the fields read 0
    obs::alloc::set_enabled(true);
    // each invocation is its own measurement window: zero the global
    // registry so repeated in-process runs (tests, the eval harness) don't
    // accumulate stale counters across invocations
    obs::global().reset();
    obs::log::reset();
    // one invocation = one request: mint a correlation id so every log
    // line, timeline event, and exemplar this run produces carries the
    // same req_id a served request would (explain/profile output included)
    let _req = obs::ctx::scope(obs::ctx::RequestId::mint());
    configure_logging(&rest)?;
    let mut out = match cmd.as_str() {
        "disasm" => cmd_disasm(&rest)?,
        "profile" => cmd_profile(&rest)?,
        "gen" => cmd_gen(&rest)?,
        "compare" => cmd_compare(&rest)?,
        "cfg" => cmd_cfg(&rest)?,
        "report" => cmd_report(&rest)?,
        "diff" => cmd_diff(&rest)?,
        "score" => cmd_score(&rest)?,
        "explain" => cmd_explain(&rest)?,
        "trace-diff" => cmd_trace_diff(&rest)?,
        "serve" => cmd_serve(&rest)?,
        "scrape" => cmd_scrape(&rest)?,
        "top" => cmd_top(&rest)?,
        "forensics" => cmd_forensics(&rest)?,
        "help" | "--help" | "-h" => CmdOutput::text_only(USAGE.to_string()),
        other => return Err(err(format!("unknown command '{other}'\n\n{USAGE}"))),
    };
    if metrics {
        append_metrics(&mut out);
    }
    if let Some(path) = trace_json {
        let json =
            disasm_core::trace::trace_report_json(cmd, &out.tools, &obs::global().snapshot());
        std::fs::write(&path, &json).map_err(|e| io_err(format!("cannot write '{path}': {e}")))?;
        let _ = writeln!(out.text, "trace record written to {path}");
    }
    // --strict turns degraded (budget-limited) analyses into a hard error —
    // after the trace record is on disk, so the evidence survives the abort.
    if has_flag(&rest, "--strict") {
        let degraded: u64 = out
            .tools
            .iter()
            .map(|(_, d)| d.trace.degradations.len() as u64)
            .sum();
        if degraded > 0 {
            return Err(CliError {
                category: ErrorCategory::Degraded,
                message: format!(
                    "analysis degraded: {degraded} budget(s) hit (rerun without --strict, \
                     or raise --deadline-ms / --max-iterations)"
                ),
            });
        }
    }
    Ok(out.text)
}

/// Apply `--log` / `--log-level`: install the sink and set the level. With
/// neither flag the logger stays off (records cost one atomic load).
fn configure_logging(rest: &[&String]) -> Result<(), CliError> {
    let dest = flag_value(rest, "--log");
    let level = match flag_value(rest, "--log-level") {
        Some(s) => Some(
            obs::log::Level::parse(s)
                .ok_or_else(|| err(format!("--log-level: unknown level '{s}'")))?,
        ),
        None => None,
    };
    if dest.is_none() && level.is_none() {
        return Ok(());
    }
    obs::log::set_level(Some(level.unwrap_or(obs::log::Level::Info)));
    match dest {
        Some("-") => obs::log::to_stderr(),
        Some(path) => {
            obs::log::to_file(path).map_err(|e| io_err(format!("cannot open log '{path}': {e}")))?
        }
        None => obs::log::clear_sink(), // level only: ring-buffer capture
    }
    Ok(())
}

/// Append each tool's per-phase table plus the global metric snapshot.
fn append_metrics(out: &mut CmdOutput) {
    for (name, d) in &out.tools {
        let _ = writeln!(
            out.text,
            "\n[{name}] phase timing — {} corrections, {} viability iterations, {} thread(s)",
            d.trace.corrections_total(),
            d.trace.viability_iterations,
            d.trace.threads.max(1)
        );
        if d.trace.alloc_bytes > 0 || d.trace.alloc_peak > 0 {
            let _ = writeln!(
                out.text,
                "[{name}] heap: {} bytes allocated, {} bytes peak",
                d.trace.alloc_bytes, d.trace.alloc_peak
            );
        }
        out.text.push_str(&d.trace.render_table());
        for g in &d.trace.degradations {
            let _ = writeln!(
                out.text,
                "  degraded: phase {} hit {} after {} unit(s)",
                g.phase,
                g.limit.name(),
                g.completed
            );
        }
        if !d.trace.spans.is_empty() {
            let _ = writeln!(out.text, "\n[{name}] span tree:");
            out.text.push_str(&obs::span::render_tree(&d.trace.spans));
        }
    }
    let _ = writeln!(out.text, "\nglobal metrics:");
    out.text.push_str(&obs::global().snapshot().render_table());
}

fn cmd_score(rest: &[&String]) -> Result<CmdOutput, CliError> {
    // two positionals: the ELF and the .truth sidecar written by `gen`
    let pos = positionals(rest);
    let path = *pos
        .first()
        .ok_or_else(|| err(format!("score: missing <elf>\n\n{USAGE}")))?;
    let truth_path = *pos
        .get(1)
        .ok_or_else(|| err(format!("score: missing <truth-file>\n\n{USAGE}")))?;
    let image = load_image(path)?;
    let truth_text = std::fs::read_to_string(truth_path)
        .map_err(|e| io_err(format!("cannot read '{truth_path}': {e}")))?;
    let truth: std::collections::BTreeSet<u32> = truth_text
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| {
            l.trim()
                .parse()
                .map_err(|_| parse_err(format!("bad offset '{l}' in {truth_path}")))
        })
        .collect::<Result<_, _>>()?;
    let cfg = build_config(rest)?;
    let d = Disassembler::new(cfg).disassemble(&image);
    let pred: std::collections::BTreeSet<u32> = d.inst_starts.iter().copied().collect();
    let tp = truth.intersection(&pred).count();
    let fn_ = truth.difference(&pred).count();
    let fp = pred.difference(&truth).count();
    let precision = tp as f64 / (tp + fp).max(1) as f64;
    let recall = tp as f64 / (tp + fn_).max(1) as f64;
    let f1 = 2.0 * tp as f64 / (2 * tp + fp + fn_).max(1) as f64;
    let text = format!(
        "{path}: {} truth instructions\n  precision {precision:.4}  recall {recall:.4}  F1 {f1:.4}\n  TP {tp}  FP {fp} (may include padding)  FN {fn_}\n",
        truth.len()
    );
    Ok(CmdOutput {
        text,
        tools: vec![("metadis (ours)".to_string(), d)],
    })
}

fn cmd_diff(rest: &[&String]) -> Result<CmdOutput, CliError> {
    let path = positional(rest).ok_or_else(|| err(format!("diff: missing <elf>\n\n{USAGE}")))?;
    let cfg = build_config(rest)?;
    let image = load_image(path)?;
    let ours = Disassembler::new(cfg).disassemble(&image);
    let mut out = format!("{path}: metadis vs each baseline\n");
    let mut tools = Vec::new();
    for b in Baseline::ALL {
        let other = b.disassemble(&image);
        let d = disasm_core::diff(&ours, &other);
        let _ = writeln!(out, "  vs {:<15} {}", b.name(), d);
        tools.push((b.name().to_string(), other));
    }
    tools.push(("metadis (ours)".to_string(), ours));
    Ok(CmdOutput { text: out, tools })
}

fn cmd_report(rest: &[&String]) -> Result<CmdOutput, CliError> {
    let path = positional(rest).ok_or_else(|| err(format!("report: missing <elf>\n\n{USAGE}")))?;
    let cfg = build_config(rest)?;
    let image = load_image(path)?;
    let d = Disassembler::new(cfg).disassemble(&image);
    let r = disasm_core::Report::build(&image, &d);
    let mut out = format!("{path}:\n{r}\n\nlargest functions:\n");
    let mut by_size: Vec<_> = r.functions.iter().collect();
    by_size.sort_by_key(|f| std::cmp::Reverse(f.len()));
    for f in by_size.iter().take(10) {
        let _ = writeln!(
            out,
            "  {:#06x}..{:#06x}  {:5} bytes  {:4} insts  {:3} blocks",
            f.start,
            f.end,
            f.len(),
            f.instructions,
            f.blocks
        );
    }
    Ok(CmdOutput {
        text: out,
        tools: vec![("metadis (ours)".to_string(), d)],
    })
}

fn flag_value<'a>(rest: &'a [&String], name: &str) -> Option<&'a str> {
    rest.iter()
        .position(|a| a.as_str() == name)
        .and_then(|i| rest.get(i + 1))
        .map(|s| s.as_str())
}

fn has_flag(rest: &[&String], name: &str) -> bool {
    rest.iter().any(|a| a.as_str() == name)
}

/// Arguments that are not flags (or flag values), in order.
fn positionals<'a>(rest: &'a [&String]) -> Vec<&'a str> {
    let mut out = Vec::new();
    let mut skip_next = false;
    for a in rest {
        if skip_next {
            skip_next = false;
            continue;
        }
        if let Some(stripped) = a.strip_prefix("--") {
            skip_next = !matches!(
                stripped,
                "listing"
                    | "adversarial"
                    | "metrics"
                    | "strict"
                    | "provenance"
                    | "json"
                    | "allow-degradations"
                    | "profile-summary"
                    | "once"
            );
            continue;
        }
        if a.as_str() == "-o" {
            skip_next = true;
            continue;
        }
        out.push(a.as_str());
    }
    out
}

fn positional<'a>(rest: &'a [&String]) -> Option<&'a str> {
    positionals(rest).first().copied()
}

fn load_image(path: &str) -> Result<Image, CliError> {
    let bytes = std::fs::read(path).map_err(|e| io_err(format!("cannot read '{path}': {e}")))?;
    let elf =
        elfobj::Elf::parse(&bytes).map_err(|e| parse_err(format!("cannot parse '{path}': {e}")))?;
    Image::from_elf(&elf).ok_or_else(|| parse_err(format!("'{path}' has no executable section")))
}

fn build_config(rest: &[&String]) -> Result<Config, CliError> {
    let mut cfg = Config::default();
    if let Some(n) = flag_value(rest, "--train") {
        let n: usize = n.parse().map_err(|_| err("--train expects a number"))?;
        cfg.model = Some(disasm_eval::train_standard_model(n));
    }
    if let Some(ms) = flag_value(rest, "--deadline-ms") {
        let ms: u64 = ms
            .parse()
            .map_err(|_| err("--deadline-ms expects a number"))?;
        cfg.limits.deadline_ms = Some(ms);
    }
    if let Some(n) = flag_value(rest, "--max-iterations") {
        let n: u64 = n
            .parse()
            .map_err(|_| err("--max-iterations expects a number"))?;
        cfg.limits.max_viability_iterations = Some(n);
        cfg.limits.max_correction_steps = Some(n);
    }
    if let Some(n) = flag_value(rest, "--threads") {
        let n: usize = n
            .parse()
            .ok()
            .filter(|&n| n >= 1)
            .ok_or_else(|| err("--threads expects a positive integer"))?;
        cfg.threads = n;
    }
    if has_flag(rest, "--provenance") {
        cfg.collect_provenance = true;
    }
    Ok(cfg)
}

fn cmd_disasm(rest: &[&String]) -> Result<CmdOutput, CliError> {
    let path = positional(rest).ok_or_else(|| err(format!("disasm: missing <elf>\n\n{USAGE}")))?;
    let cfg = build_config(rest)?;
    let image = load_image(path)?;
    let d = Disassembler::new(cfg).disassemble(&image);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{path}: {} text bytes at {:#x}",
        image.text.len(),
        image.text_va
    );
    let _ = writeln!(out, "  {d}");
    if has_flag(rest, "--listing") {
        let max_lines = flag_value(rest, "--max-lines")
            .map(|v| v.parse().map_err(|_| err("--max-lines expects a number")))
            .transpose()?
            .unwrap_or(200);
        let opts = ListingOptions {
            max_lines,
            ..ListingOptions::default()
        };
        out.push('\n');
        out.push_str(&disasm_core::render_listing(&image, &d, &opts));
    } else {
        let _ = writeln!(
            out,
            "  functions at: {:?}{}",
            &d.func_starts[..d.func_starts.len().min(16)],
            if d.func_starts.len() > 16 { " ..." } else { "" }
        );
        for t in d.jump_tables.iter().take(8) {
            let _ = writeln!(
                out,
                "  jump table at {:#x}: {} x {}B entries",
                t.table_off,
                t.entries(),
                t.entry_size
            );
        }
    }
    Ok(CmdOutput {
        text: out,
        tools: vec![("metadis (ours)".to_string(), d)],
    })
}

fn cmd_profile(rest: &[&String]) -> Result<CmdOutput, CliError> {
    let path = positional(rest).ok_or_else(|| err(format!("profile: missing <elf>\n\n{USAGE}")))?;
    let cfg = build_config(rest)?;
    let image = load_image(path)?;
    // The flight recorder is the whole point of this command: turn it on
    // for the run, drain exactly this run's events, then restore the
    // previous state so in-process callers aren't left recording. The
    // calling thread coordinates the run, so it records on lane 0 (`main`)
    // and gets its own lane back afterwards.
    let was_recording = obs::timeline::enabled();
    let prev_lane = obs::timeline::lane();
    obs::timeline::set_lane(0);
    obs::timeline::set_enabled(true);
    let tl_mark = obs::timeline::mark();
    let d = Disassembler::new(cfg).disassemble(&image);
    let events = obs::timeline::take_since(tl_mark);
    obs::timeline::set_enabled(was_recording);
    obs::timeline::set_lane(prev_lane);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{path}: profiled {} text bytes — {} timeline events",
        image.text.len(),
        events.len()
    );
    if let Some(trace_path) = flag_value(rest, "--chrome-trace") {
        let json = obs::chrome::write_chrome_trace(&events);
        std::fs::write(trace_path, &json)
            .map_err(|e| io_err(format!("cannot write '{trace_path}': {e}")))?;
        let _ = writeln!(
            out,
            "chrome trace written to {trace_path} (load in Perfetto or chrome://tracing)"
        );
    }
    if has_flag(rest, "--profile-summary") {
        out.push('\n');
        out.push_str(&obs::chrome::render_summary(&events));
    } else {
        // one binary runs on one thread, so the worker and shard figures
        // of the full report have nothing to say here
        let _ = writeln!(
            out,
            "critical path {:.3} ms (use --profile-summary for the full report)",
            d.trace.timeline.critical_path_ns as f64 / 1e6
        );
    }
    Ok(CmdOutput {
        text: out,
        tools: vec![("metadis (ours)".to_string(), d)],
    })
}

fn cmd_gen(rest: &[&String]) -> Result<CmdOutput, CliError> {
    let out_path =
        flag_value(rest, "-o").ok_or_else(|| err(format!("gen: missing -o <path>\n\n{USAGE}")))?;
    let seed: u64 = flag_value(rest, "--seed")
        .map(|v| v.parse().map_err(|_| err("--seed expects a number")))
        .transpose()?
        .unwrap_or(0);
    let functions: usize = flag_value(rest, "--functions")
        .map(|v| v.parse().map_err(|_| err("--functions expects a number")))
        .transpose()?
        .unwrap_or(25);
    let density: f64 = flag_value(rest, "--density")
        .map(|v| v.parse().map_err(|_| err("--density expects a float")))
        .transpose()?
        .unwrap_or(0.1);
    let profile = match flag_value(rest, "--profile").unwrap_or("O2") {
        "O0" | "o0" => OptProfile::O0,
        "O1" | "o1" => OptProfile::O1,
        "O2" | "o2" => OptProfile::O2,
        "O3" | "o3" => OptProfile::O3,
        other => return Err(err(format!("unknown profile '{other}'"))),
    };
    if !(0.0..=0.5).contains(&density) {
        return Err(err("--density must be within 0.0..=0.5"));
    }
    let mut gen_cfg = GenConfig::new(seed, profile, functions, density);
    gen_cfg.adversarial = has_flag(rest, "--adversarial");
    let w = Workload::generate(&gen_cfg);
    let elf = w.to_elf().to_bytes();
    std::fs::write(out_path, &elf)
        .map_err(|e| io_err(format!("cannot write '{out_path}': {e}")))?;
    let truth_path = format!("{out_path}.truth");
    let mut truth = String::new();
    for &o in &w.truth.inst_starts {
        let _ = writeln!(truth, "{o}");
    }
    std::fs::write(&truth_path, truth)
        .map_err(|e| io_err(format!("cannot write '{truth_path}': {e}")))?;
    Ok(CmdOutput::text_only(format!(
        "wrote {out_path} ({} bytes, {} instructions, {:.1}% embedded data) and {truth_path}\n",
        elf.len(),
        w.truth.inst_starts.len(),
        w.actual_data_density() * 100.0
    )))
}

fn cmd_compare(rest: &[&String]) -> Result<CmdOutput, CliError> {
    let path = positional(rest).ok_or_else(|| err(format!("compare: missing <elf>\n\n{USAGE}")))?;
    let cfg = build_config(rest)?;
    let image = load_image(path)?;
    // per-tool warn counts need the logger at least tallying warns; leave a
    // user-chosen level alone (run() tears the level down per invocation)
    if obs::log::level().is_none() {
        obs::log::set_level(Some(obs::log::Level::Warn));
    }
    let mut t = disasm_eval::table::TextTable::new([
        "tool",
        "instructions",
        "code bytes",
        "data bytes",
        "functions",
        "tables",
        "wall ms",
        "MiB/s",
        "threads",
        "alloc_peak",
        "log_warn_count",
        "degraded_runs",
        "degradation_count",
    ]);
    let run_tool = |name: &str, f: &dyn Fn() -> Disassembly| -> (String, Disassembly, u64) {
        let warns_before = obs::log::warn_count();
        let d = f();
        (name.to_string(), d, obs::log::warn_count() - warns_before)
    };
    let mut runs: Vec<(String, Disassembly, u64)> = Baseline::ALL
        .iter()
        .map(|b| run_tool(b.name(), &|| b.disassemble(&image)))
        .collect();
    runs.push(run_tool("metadis (ours)", &|| {
        Disassembler::new(cfg.clone()).disassemble(&image)
    }));
    for (name, d, warns) in &runs {
        use disasm_core::ByteClass;
        t.row([
            name.clone(),
            d.inst_starts.len().to_string(),
            (d.count(ByteClass::InstStart) + d.count(ByteClass::InstBody)).to_string(),
            d.count(ByteClass::Data).to_string(),
            d.func_starts.len().to_string(),
            d.jump_tables.len().to_string(),
            format!("{:.3}", d.trace.total_wall_ns as f64 / 1e6),
            format!("{:.1}", d.trace.bytes_per_sec() / (1024.0 * 1024.0)),
            d.trace.threads.max(1).to_string(),
            d.trace.alloc_peak.to_string(),
            warns.to_string(),
            u64::from(d.trace.is_degraded()).to_string(),
            d.trace.degradations.len().to_string(),
        ]);
    }
    let tools: Vec<(String, Disassembly)> = runs.into_iter().map(|(n, d, _)| (n, d)).collect();
    let mut out = t.render();
    // where ours spends its time, phase by phase
    if let Some((name, d)) = tools.last() {
        let _ = writeln!(out, "\n[{name}] phase timing:");
        out.push_str(&d.trace.render_table());
    }
    Ok(CmdOutput { text: out, tools })
}

fn cmd_cfg(rest: &[&String]) -> Result<CmdOutput, CliError> {
    let path = positional(rest).ok_or_else(|| err(format!("cfg: missing <elf>\n\n{USAGE}")))?;
    let cfg = build_config(rest)?;
    let image = load_image(path)?;
    let mut d = Disassembler::new(cfg).disassemble(&image);
    let sw = obs::Stopwatch::start();
    let g = Cfg::build(&image, &d);
    d.trace.record(
        "cfg",
        sw.elapsed_ns(),
        image.text.len() as u64,
        g.len() as u64,
    );
    let mut out = String::new();
    let edges: usize = g.blocks().map(|b| b.succs.len()).sum();
    let _ = writeln!(
        out,
        "{path}: {} basic blocks, {} edges, {} call edges, {} functions",
        g.len(),
        edges,
        g.call_edges().len(),
        d.func_starts.len()
    );
    for b in g.blocks().take(12) {
        let _ = writeln!(
            out,
            "  block {:#06x}..{:#06x}: {} insts -> {:?}{}",
            b.start,
            b.end,
            b.insts.len(),
            b.succs,
            if b.returns { " (ret)" } else { "" }
        );
    }
    if g.len() > 12 {
        let _ = writeln!(out, "  ... ({} more blocks)", g.len() - 12);
    }
    Ok(CmdOutput {
        text: out,
        tools: vec![("metadis (ours)".to_string(), d)],
    })
}

/// Parse `0x`-prefixed hex or decimal; values at or above the text base are
/// treated as virtual addresses and rebased to text offsets.
fn parse_offset(spec: &str, image: &Image) -> Result<u32, CliError> {
    let v: u64 = match spec.strip_prefix("0x").or_else(|| spec.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => spec.parse(),
    }
    .map_err(|_| err(format!("bad offset '{spec}' (expected hex or decimal)")))?;
    let off = if v >= image.text_va {
        v - image.text_va
    } else {
        v
    };
    u32::try_from(off)
        .ok()
        .filter(|&o| (o as usize) < image.text.len())
        .ok_or_else(|| {
            err(format!(
                "offset '{spec}' is outside the text section (0..{:#x}, va {:#x}..{:#x})",
                image.text.len(),
                image.text_va,
                image.text_va + image.text.len() as u64
            ))
        })
}

/// Render one explanation as the human-readable causal chain.
fn render_explanation(e: &disasm_core::Explanation, image: &Image) -> String {
    use disasm_core::provenance::{class_name, NO_CLASS};
    let mut out = String::new();
    let _ = write!(
        out,
        "offset {:#06x} (va {:#x}): {}",
        e.offset,
        image.text_va + e.offset as u64,
        e.class_label()
    );
    match e.owner {
        Some(o) if o != e.offset => {
            let _ = writeln!(out, " (body of instruction at {o:#06x})");
        }
        _ => out.push('\n'),
    }
    let _ = writeln!(out, "  causal chain (most direct first):");
    for s in &e.chain {
        let indent = "  ".repeat(s.depth + 2);
        let _ = write!(
            out,
            "{indent}{}/{} {:#06x}..{:#06x}",
            s.phase, s.kind, s.start, s.end
        );
        if s.class != NO_CLASS {
            let _ = write!(out, " class={}", class_name(s.class));
        }
        if s.aux != NO_CLASS {
            let _ = write!(out, " displaced={}", class_name(s.aux));
        }
        if s.weight != 0.0 {
            let _ = write!(out, " weight={:.3}", s.weight);
        }
        if let Some(c) = s.cause {
            let _ = write!(out, " cause={c:#06x}");
        }
        out.push('\n');
    }
    if e.dropped > 0 {
        let _ = writeln!(
            out,
            "  ({} ledger event(s) dropped at the cap; chain may be incomplete)",
            e.dropped
        );
    }
    let _ = writeln!(out, "  => final label: {}", e.class_label());
    out
}

/// Write one explanation as a JSON object (an element of the
/// `metadis.explain.v1` `explanations` array).
fn write_explanation_json(w: &mut obs::json::JsonWriter, e: &disasm_core::Explanation) {
    use disasm_core::provenance::class_name;
    w.begin_obj();
    w.field_u64("offset", e.offset as u64);
    w.field_str("class", e.class_label());
    match e.owner {
        Some(o) => w.field_u64("owner", o as u64),
        None => {
            w.key("owner");
            w.null_val();
        }
    }
    w.field_u64("dropped", e.dropped);
    w.key("chain");
    w.begin_arr();
    for s in &e.chain {
        w.begin_obj();
        w.field_u64("seq", s.seq as u64);
        w.field_u64("depth", s.depth as u64);
        w.field_str("phase", s.phase);
        w.field_str("kind", s.kind);
        w.field_u64("start", s.start as u64);
        w.field_u64("end", s.end as u64);
        w.field_str("class", class_name(s.class));
        w.field_str("aux", class_name(s.aux));
        w.field_f64("weight", s.weight as f64);
        match s.cause {
            Some(c) => w.field_u64("cause", c as u64),
            None => {
                w.key("cause");
                w.null_val();
            }
        }
        w.end_obj();
    }
    w.end_arr();
    w.end_obj();
}

/// Cap on distinct decision units a range query will explain.
const EXPLAIN_RANGE_CAP: usize = 32;

fn cmd_explain(rest: &[&String]) -> Result<CmdOutput, CliError> {
    let pos = positionals(rest);
    let path = *pos
        .first()
        .ok_or_else(|| err(format!("explain: missing <elf>\n\n{USAGE}")))?;
    let spec = *pos
        .get(1)
        .ok_or_else(|| err(format!("explain: missing <offset|start..end>\n\n{USAGE}")))?;
    let mut cfg = build_config(rest)?;
    cfg.collect_provenance = true; // explain is pointless without the ledger
    let image = load_image(path)?;
    let (start, end) = match spec.split_once("..") {
        Some((a, b)) => {
            let s = parse_offset(a, &image)?;
            let e = parse_offset(b, &image)?;
            if s >= e {
                return Err(err(format!("empty range '{spec}'")));
            }
            (s, e)
        }
        None => {
            let s = parse_offset(spec, &image)?;
            (s, s + 1)
        }
    };
    let d = Disassembler::new(cfg).disassemble(&image);

    // one explanation per decision unit: consecutive bytes owned by the
    // same instruction (or covered by the same data explanation) collapse
    let mut explanations = Vec::new();
    let mut truncated = false;
    let mut last_owner: Option<u32> = None;
    let mut o = start;
    while o < end {
        let e = disasm_core::explain(&d, o)
            .ok_or_else(|| err(format!("offset {o:#x}: no provenance collected")))?;
        let unit = e.owner.unwrap_or(o);
        if last_owner != Some(unit) {
            if explanations.len() >= EXPLAIN_RANGE_CAP {
                truncated = true;
                break;
            }
            last_owner = Some(unit);
            explanations.push(e);
        }
        o += 1;
    }

    let text = if has_flag(rest, "--json") {
        let mut w = obs::json::JsonWriter::new();
        w.begin_obj();
        w.field_str("schema", "metadis.explain.v1");
        w.field_str("binary", path);
        w.field_u64("text_va", image.text_va);
        w.field_u64("start", start as u64);
        w.field_u64("end", end as u64);
        w.field_bool("truncated", truncated);
        w.key("explanations");
        w.begin_arr();
        for e in &explanations {
            write_explanation_json(&mut w, e);
        }
        w.end_arr();
        w.end_obj();
        let mut s = w.finish();
        s.push('\n');
        s
    } else {
        let mut s = String::new();
        for e in &explanations {
            s.push_str(&render_explanation(e, &image));
        }
        if truncated {
            let _ = writeln!(
                s,
                "(range truncated after {EXPLAIN_RANGE_CAP} decision units)"
            );
        }
        s
    };
    Ok(CmdOutput {
        text,
        tools: vec![("metadis (ours)".to_string(), d)],
    })
}

fn cmd_trace_diff(rest: &[&String]) -> Result<CmdOutput, CliError> {
    let pos = positionals(rest);
    let old_path = *pos
        .first()
        .ok_or_else(|| err(format!("trace-diff: missing <baseline.json>\n\n{USAGE}")))?;
    let new_path = *pos
        .get(1)
        .ok_or_else(|| err(format!("trace-diff: missing <new.json>\n\n{USAGE}")))?;
    let mut cfg = disasm_core::TraceDiffConfig::default();
    if let Some(v) = flag_value(rest, "--max-wall-ratio") {
        cfg.max_wall_ratio = v
            .parse()
            .map_err(|_| err("--max-wall-ratio expects a float"))?;
    }
    if let Some(v) = flag_value(rest, "--max-count-ratio") {
        cfg.max_count_ratio = v
            .parse()
            .map_err(|_| err("--max-count-ratio expects a float"))?;
    }
    cfg.allow_new_degradations = has_flag(rest, "--allow-degradations");

    let load = |p: &str| -> Result<obs::json::JsonValue, CliError> {
        let text =
            std::fs::read_to_string(p).map_err(|e| io_err(format!("cannot read '{p}': {e}")))?;
        obs::json::parse(&text).map_err(|e| parse_err(format!("cannot parse '{p}': {e}")))
    };
    let old = load(old_path)?;
    let new = load(new_path)?;
    let report = disasm_core::diff_trace_reports(&old, &new, &cfg)
        .map_err(|e| parse_err(format!("trace-diff: {e}")))?;
    let text = report.render_table();
    if report.is_regression() {
        return Err(CliError {
            category: ErrorCategory::Degraded,
            message: format!(
                "{text}trace regression: {} threshold violation(s) vs {old_path}",
                report.regressions.len()
            ),
        });
    }
    Ok(CmdOutput::text_only(text))
}

fn cmd_serve(rest: &[&String]) -> Result<CmdOutput, CliError> {
    // the bound (possibly ephemeral) port is announced via the logger; make
    // sure that announcement goes somewhere when the user didn't pick a sink
    if obs::log::level().is_none() {
        obs::log::set_level(Some(obs::log::Level::Info));
        obs::log::to_stderr();
    }
    let cfg = build_config(rest)?;
    let addr = flag_value(rest, "--addr").unwrap_or("127.0.0.1:0");
    let max_requests: u64 = match flag_value(rest, "--max-requests") {
        Some(v) => v
            .parse()
            .map_err(|_| err("--max-requests expects an integer"))?,
        None => u64::MAX,
    };
    let poll_ms: u64 = match flag_value(rest, "--poll-ms") {
        Some(v) => v.parse().map_err(|_| err("--poll-ms expects an integer"))?,
        None => 200,
    };
    let mut opts = crate::serve::ServeOptions::default();
    if let Some(v) = flag_value(rest, "--max-inflight") {
        opts.max_inflight = v
            .parse()
            .ok()
            .filter(|n| *n > 0)
            .ok_or_else(|| err("--max-inflight expects a positive integer"))?;
    }
    if let Some(v) = flag_value(rest, "--queue-depth") {
        opts.queue_depth = v
            .parse()
            .map_err(|_| err("--queue-depth expects an integer"))?;
    }
    if let Some(v) = flag_value(rest, "--client-deadline-ms") {
        opts.client_deadline_ms = v
            .parse()
            .map_err(|_| err("--client-deadline-ms expects an integer"))?;
    }
    if let Some(v) = flag_value(rest, "--drain-ms") {
        opts.drain_ms = v
            .parse()
            .map_err(|_| err("--drain-ms expects an integer"))?;
    }
    if let Some(v) = flag_value(rest, "--series-interval-ms") {
        opts.series_interval_ms = v
            .parse()
            .map_err(|_| err("--series-interval-ms expects an integer"))?;
    }
    if let Some(v) = flag_value(rest, "--series-window") {
        opts.series_window = v
            .parse()
            .ok()
            .filter(|n| *n >= 2)
            .ok_or_else(|| err("--series-window expects an integer >= 2"))?;
    }
    if let Some(v) = flag_value(rest, "--flight-capacity") {
        opts.flight_capacity = v
            .parse()
            .ok()
            .filter(|n| *n >= 1)
            .ok_or_else(|| err("--flight-capacity expects a positive integer"))?;
    }
    let server = crate::serve::Server::start_with(addr, opts, cfg.clone())
        .map_err(|e| io_err(format!("cannot bind '{addr}': {e}")))?;

    let mut processed: u64 = 0;
    let batch_cap = cfg.threads.max(1) as u64;
    // Drain paths from `lines`, fanning each full batch (one worker pool's
    // worth) out via `process_batch`. Per-request failures are service
    // events (logged + counted by the server), not fatal CLI errors: a
    // batch keeps going past bad inputs. Returns `false` once the
    // `--max-requests` budget is exhausted.
    let drain = |server: &crate::serve::Server,
                 lines: &mut dyn Iterator<Item = String>,
                 processed: &mut u64|
     -> bool {
        let mut pending: Vec<String> = Vec::new();
        while *processed + (pending.len() as u64) < max_requests {
            match lines.next() {
                Some(line) => {
                    let path = line.trim();
                    if path.is_empty() || path.starts_with('#') {
                        continue;
                    }
                    pending.push(path.to_string());
                    if (pending.len() as u64) >= batch_cap {
                        let _ = server.process_batch(&pending, &cfg);
                        *processed += pending.len() as u64;
                        pending.clear();
                    }
                }
                None => break,
            }
        }
        if !pending.is_empty() {
            let _ = server.process_batch(&pending, &cfg);
            *processed += pending.len() as u64;
        }
        *processed < max_requests
    };

    if let Some(list) = flag_value(rest, "--from") {
        let text = std::fs::read_to_string(list)
            .map_err(|e| io_err(format!("cannot read '{list}': {e}")))?;
        drain(
            &server,
            &mut text.lines().map(str::to_string),
            &mut processed,
        );
    } else if let Some(dir) = flag_value(rest, "--watch") {
        let mut seen = std::collections::BTreeSet::new();
        loop {
            let entries = std::fs::read_dir(dir)
                .map_err(|e| io_err(format!("cannot read dir '{dir}': {e}")))?;
            let mut fresh: Vec<String> = entries
                .filter_map(|e| e.ok())
                .filter(|e| e.file_type().map(|t| t.is_file()).unwrap_or(false))
                .filter_map(|e| e.path().to_str().map(str::to_string))
                .filter(|p| !seen.contains(p))
                .collect();
            fresh.sort();
            seen.extend(fresh.iter().cloned());
            if !drain(&server, &mut fresh.into_iter(), &mut processed) {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(poll_ms));
        }
    } else {
        let stdin = std::io::stdin();
        let mut lines = stdin.lines().map_while(Result::ok);
        drain(&server, &mut lines, &mut processed);
    }

    let requests = server.requests();
    let errors = server.errors();
    let sheds = server.sheds();
    let text = format!(
        "served {requests} request(s), {errors} error(s), {sheds} shed\n{}",
        server.render_metrics()
    );
    server.shutdown();
    if has_flag(rest, "--strict") && sheds > 0 {
        return Err(CliError {
            category: ErrorCategory::Overload,
            message: format!("{text}{sheds} request(s) shed under overload (--strict)"),
        });
    }
    Ok(CmdOutput::text_only(text))
}

fn cmd_scrape(rest: &[&String]) -> Result<CmdOutput, CliError> {
    let addr =
        positional(rest).ok_or_else(|| err(format!("scrape: missing <host:port>\n\n{USAGE}")))?;
    let path = flag_value(rest, "--path").unwrap_or("/metrics");
    let body = crate::serve::scrape(addr, path)
        .map_err(|e| io_err(format!("scrape {addr}{path}: {e}")))?;
    Ok(CmdOutput::text_only(body))
}

/// Live service console: poll `/debug/metrics/history`, derive rates and
/// windowed quantiles from adjacent samples *client-side*, and render an
/// auto-refreshing table. Works against any running instance — the server
/// only ever ships cumulative snapshots.
fn cmd_top(rest: &[&String]) -> Result<CmdOutput, CliError> {
    let addr =
        positional(rest).ok_or_else(|| err(format!("top: missing <host:port>\n\n{USAGE}")))?;
    let addr = addr
        .strip_prefix("http://")
        .unwrap_or(addr)
        .trim_end_matches('/');
    let once = has_flag(rest, "--once");
    let interval_ms: u64 = match flag_value(rest, "--interval-ms") {
        Some(v) => v
            .parse()
            .map_err(|_| err("--interval-ms expects an integer"))?,
        None => 1000,
    };
    let count: u64 = match flag_value(rest, "--count") {
        Some(v) => v.parse().map_err(|_| err("--count expects an integer"))?,
        None => 0,
    };
    let rows: usize = match flag_value(rest, "--rows") {
        Some(v) => v
            .parse()
            .ok()
            .filter(|n| *n > 0)
            .ok_or_else(|| err("--rows expects a positive integer"))?,
        None => 10,
    };
    let refreshes = match (once, count) {
        (true, _) => 1,
        (false, 0) => u64::MAX,
        (false, n) => n,
    };
    let mut frame;
    let mut done = 0u64;
    loop {
        let body = crate::http::fetch(addr, "/debug/metrics/history")
            .map_err(|e| io_err(format!("top {addr}/debug/metrics/history: {e}")))?;
        frame = render_top(addr, &body, rows)?;
        done += 1;
        if done >= refreshes {
            break;
        }
        // Live mode: repaint in place (clear screen + home), then sleep
        // until the next poll. The final frame is returned as the command
        // output so `--once` behaves like any other one-shot command.
        use std::io::Write as _;
        let mut out = std::io::stdout().lock();
        let _ = write!(out, "\x1b[2J\x1b[H{frame}");
        let _ = out.flush();
        std::thread::sleep(std::time::Duration::from_millis(interval_ms));
    }
    Ok(CmdOutput::text_only(frame))
}

/// Snapshot a running instance's forensic surface into an on-disk support
/// bundle: the `/metrics` exposition, the `/debug/metrics/history` series
/// ring, the `/debug/requests` retention index, and every retained
/// `metadis.request.v1` bundle (or just the one named by `--id`). The
/// result is a directory an operator can attach to an incident report —
/// correlation ids make the files cross-reference each other.
fn cmd_forensics(rest: &[&String]) -> Result<CmdOutput, CliError> {
    let addr = positional(rest)
        .ok_or_else(|| err(format!("forensics: missing <host:port>\n\n{USAGE}")))?;
    let addr = addr
        .strip_prefix("http://")
        .unwrap_or(addr)
        .trim_end_matches('/');
    let out_dir = match flag_value(rest, "-o") {
        Some(d) => std::path::PathBuf::from(d),
        None => std::path::PathBuf::from(format!(
            "metadis-forensics-{}",
            addr.replace([':', '/'], "-")
        )),
    };
    std::fs::create_dir_all(&out_dir)
        .map_err(|e| io_err(format!("cannot create '{}': {e}", out_dir.display())))?;
    let fetch = |path: &str| -> Result<String, CliError> {
        crate::serve::scrape(addr, path).map_err(|e| io_err(format!("forensics {addr}{path}: {e}")))
    };
    let save = |name: &str, body: &str| -> Result<(), CliError> {
        let p = out_dir.join(name);
        std::fs::write(&p, body).map_err(|e| io_err(format!("cannot write '{}': {e}", p.display())))
    };
    let mut text = format!("forensics bundle from {addr} -> {}\n", out_dir.display());
    let metrics = fetch("/metrics")?;
    save("metrics.prom", &metrics)?;
    text.push_str("  metrics.prom\n");
    let history = fetch("/debug/metrics/history")?;
    save("history.json", &history)?;
    text.push_str("  history.json\n");
    let index = fetch("/debug/requests")?;
    save("requests.json", &index)?;
    text.push_str("  requests.json\n");
    // Which request bundles to pull: one (--id) or every retained id.
    // Every id — flag or remote index — must parse as a RequestId before
    // it is interpolated into a URL or an output filename: the index
    // comes from the network, and an unvalidated string like
    // `../../.bashrc` would otherwise name a file outside the bundle
    // directory. The canonical 16-hex rendering is used from here on.
    let mut invalid = 0usize;
    let ids: Vec<obs::ctx::RequestId> = match flag_value(rest, "--id") {
        Some(id) => vec![obs::ctx::RequestId::parse(id).ok_or_else(|| {
            err(format!(
                "forensics: --id '{id}' is not a request id (1-16 hex digits, nonzero)"
            ))
        })?],
        None => {
            let doc = obs::json::parse(&index)
                .map_err(|e| parse_err(format!("forensics: bad /debug/requests JSON: {e}")))?;
            doc.get("retained")
                .and_then(|v| v.as_arr())
                .map(|records| {
                    records
                        .iter()
                        .filter_map(|r| r.path("req_id").and_then(|v| v.as_str()))
                        .filter_map(|s| {
                            let rid = obs::ctx::RequestId::parse(s);
                            invalid += usize::from(rid.is_none());
                            rid
                        })
                        .collect()
                })
                .unwrap_or_default()
        }
    };
    if invalid > 0 {
        let _ = writeln!(
            text,
            "  skipped {invalid} index entr{} with invalid request ids",
            if invalid == 1 { "y" } else { "ies" }
        );
    }
    let mut saved = 0usize;
    for rid in &ids {
        let id = rid.to_string();
        // a record can race out of the buffer between the index fetch and
        // this one; a missing id is a note, not a failure
        match fetch(&format!("/debug/requests/{id}")) {
            Ok(bundle) => {
                save(&format!("request-{id}.json"), &bundle)?;
                let _ = writeln!(text, "  request-{id}.json");
                saved += 1;
            }
            Err(e) => {
                let _ = writeln!(text, "  request-{id}.json: skipped ({})", e.message);
            }
        }
    }
    let _ = writeln!(text, "saved {saved} request bundle(s)");
    Ok(CmdOutput::text_only(text))
}

/// Render one `top` frame from a `metadis.series.v1` body: an SLO
/// headline off the newest sample plus one table row per adjacent sample
/// pair (newest last), capped at `rows`.
fn render_top(addr: &str, body: &str, rows: usize) -> Result<String, CliError> {
    let doc = obs::json::parse(body)
        .map_err(|e| parse_err(format!("top: history endpoint answered invalid JSON: {e}")))?;
    let samples = obs::series::samples_from_json(&doc).ok_or_else(|| {
        parse_err("top: server did not answer a metadis.series.v1 document (old build?)")
    })?;
    let interval_ms = doc.get("interval_ms").and_then(|v| v.as_u64()).unwrap_or(0);
    let window = doc.get("window").and_then(|v| v.as_u64()).unwrap_or(0);
    let mut out = format!(
        "metadis top — {addr}  interval={interval_ms}ms  window={window}  samples={}\n",
        samples.len()
    );
    if samples.len() < 2 {
        out.push_str("warming up: need two samples to derive rates (is the sampler enabled?)\n");
        return Ok(out);
    }
    let newest = samples.last().expect("checked non-empty");
    if !newest.slo.is_empty() {
        out.push_str("slo:");
        for s in &newest.slo {
            out.push_str(&format!(
                " {} fast={} slow={}{}",
                s.objective,
                s.burn_fast,
                s.burn_slow,
                if s.breached { " [BREACHED]" } else { "" }
            ));
        }
        out.push('\n');
    }
    let mut t = obs::TextTable::new([
        "t(s)", "rps", "err/s", "shed/s", "queue", "inflight", "p50(ms)", "p99(ms)", "burn",
    ]);
    let lo = samples.len().saturating_sub(rows + 1);
    for pair in samples[lo..].windows(2) {
        let (a, b) = (&pair[0], &pair[1]);
        let lat = obs::series::window_summary(b, a, "latency_ns");
        let (p50, p99) = if lat.count == 0 {
            (0.0, 0.0)
        } else {
            (
                lat.quantile(0.5) as f64 / 1e6,
                lat.quantile(0.99) as f64 / 1e6,
            )
        };
        let burn = b.slo.iter().map(|s| s.burn_fast).fold(0.0, f64::max);
        t.row([
            format!("{:.1}", b.ts_ns as f64 / 1e9),
            format!("{:.1}", obs::series::rate_per_sec(b, a, "requests")),
            format!("{:.1}", obs::series::rate_per_sec(b, a, "errors")),
            format!("{:.1}", obs::series::rate_per_sec(b, a, "sheds")),
            b.gauge("queue_depth").to_string(),
            b.gauge("inflight").to_string(),
            format!("{p50:.2}"),
            format!("{p99:.2}"),
            format!("{burn}"),
        ]);
    }
    out.push_str(&t.render());
    Ok(out)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard};

    /// Serialises the tests that call [`run`]: every invocation resets the
    /// process-wide log level and sink and the global metric registry, so
    /// concurrent runs wipe each other's output.
    static CLI_LOCK: Mutex<()> = Mutex::new(());

    pub(crate) fn cli_lock() -> MutexGuard<'static, ()> {
        CLI_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    fn tmpdir() -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("metadis-cli-{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn help_and_unknown() {
        let _cli = cli_lock();
        assert!(run(&args(&["help"])).unwrap().contains("USAGE"));
        assert!(run(&args(&["frobnicate"])).is_err());
        assert!(run(&[]).is_err());
    }

    #[test]
    fn top_rates_stay_non_negative_across_a_counter_reset() {
        // a server restart resets cumulative counters to zero mid-series;
        // deltas must saturate, never render as negative rates
        let h = obs::metrics::Histogram::new();
        for v in [1_000u64, 2_000, 4_000] {
            h.record(v);
        }
        let mut before = obs::series::Sample {
            ts_ns: 1_000_000_000,
            ..obs::series::Sample::default()
        };
        before.counters.insert("requests".into(), 500);
        before.counters.insert("errors".into(), 40);
        before.counters.insert("sheds".into(), 10);
        before.summaries.insert("latency_ns".into(), h.summary());
        // restarted: every cumulative value dropped below its predecessor
        let mut after = obs::series::Sample {
            ts_ns: 2_000_000_000,
            ..obs::series::Sample::default()
        };
        after.counters.insert("requests".into(), 3);
        after.counters.insert("errors".into(), 0);
        after.counters.insert("sheds".into(), 0);
        after.summaries.insert(
            "latency_ns".into(),
            obs::metrics::Histogram::new().summary(),
        );
        let body = obs::series::write_history_json(1000, 300, &[before, after]);
        let out = render_top("127.0.0.1:1", &body, 10).unwrap();
        // the data row derived across the reset carries only finite,
        // non-negative numbers (the separator rule is the only dashed line)
        let row = out
            .lines()
            .last()
            .unwrap_or_else(|| panic!("no table row: {out}"));
        for cell in row.split_whitespace().skip(1) {
            let v: f64 = cell
                .parse()
                .unwrap_or_else(|_| panic!("non-numeric cell '{cell}': {out}"));
            assert!(v >= 0.0 && v.is_finite(), "negative rate '{cell}': {out}");
        }
    }

    #[test]
    fn gen_then_disasm_then_compare_then_cfg() {
        let _cli = cli_lock();
        let dir = tmpdir();
        let elf = dir.join("t.elf");
        let elf_s = elf.to_str().unwrap();
        let msg = run(&args(&[
            "gen",
            "-o",
            elf_s,
            "--seed",
            "9",
            "--functions",
            "10",
            "--density",
            "0.1",
        ]))
        .unwrap();
        assert!(msg.contains("wrote"), "{msg}");
        assert!(elf.exists());
        assert!(dir.join("t.elf.truth").exists());

        let report = run(&args(&["disasm", elf_s])).unwrap();
        assert!(report.contains("instructions"), "{report}");

        let listing = run(&args(&["disasm", elf_s, "--listing", "--max-lines", "40"])).unwrap();
        assert!(
            listing.contains("push") || listing.contains("mov"),
            "{listing}"
        );

        let cmp = run(&args(&["compare", elf_s])).unwrap();
        assert!(cmp.contains("linear-sweep"), "{cmp}");
        assert!(cmp.contains("metadis (ours)"), "{cmp}");

        let cfg = run(&args(&["cfg", elf_s])).unwrap();
        assert!(cfg.contains("basic blocks"), "{cfg}");

        let rep = run(&args(&["report", elf_s])).unwrap();
        assert!(rep.contains("largest functions"), "{rep}");
        assert!(rep.contains("jump tables"), "{rep}");

        let df = run(&args(&["diff", elf_s])).unwrap();
        assert!(df.contains("vs linear-sweep"), "{df}");
        assert!(df.contains("agreement"), "{df}");

        let truth_path = format!("{elf_s}.truth");
        let sc = run(&args(&["score", elf_s, &truth_path])).unwrap();
        assert!(sc.contains("precision"), "{sc}");
        // the self-trained pipeline should still be highly accurate
        let recall: f64 = sc
            .split("recall ")
            .nth(1)
            .and_then(|v| v.split_whitespace().next())
            .and_then(|v| v.parse().ok())
            .unwrap();
        assert!(recall > 0.9, "{sc}");
    }

    #[test]
    fn observability_flags() {
        let _cli = cli_lock();
        let dir = tmpdir();
        let elf = dir.join("obs.elf");
        let elf_s = elf.to_str().unwrap();
        run(&args(&[
            "gen",
            "-o",
            elf_s,
            "--seed",
            "3",
            "--functions",
            "8",
        ]))
        .unwrap();

        // --metrics appends the phase table, the span tree and the snapshot
        let out = run(&args(&["disasm", elf_s, "--metrics"])).unwrap();
        assert!(out.contains("phase timing"), "{out}");
        assert!(out.contains("superset"), "{out}");
        assert!(out.contains("viability"), "{out}");
        assert!(out.contains("span tree"), "{out}");
        assert!(out.contains("pipeline"), "{out}");
        assert!(out.contains("global metrics"), "{out}");
        assert!(out.contains("pipeline.runs"), "{out}");

        // --trace-json writes a metadis.trace.v6 record
        let json_path = dir.join("trace.json");
        let json_s = json_path.to_str().unwrap();
        let out = run(&args(&["disasm", elf_s, "--trace-json", json_s])).unwrap();
        assert!(out.contains("trace record written"), "{out}");
        let json = std::fs::read_to_string(&json_path).unwrap();
        assert!(
            json.starts_with(r#"{"schema":"metadis.trace.v6","command":"disasm""#),
            "{json}"
        );
        for key in [
            r#""tool":"metadis (ours)""#,
            r#""viability_iterations""#,
            r#""corrections_by_priority""#,
            r#""degradations""#,
            r#""bytes_per_sec""#,
            r#""phases":[{"name":"superset""#,
            r#""metrics":{"counters""#,
            r#""alloc_bytes""#,
            r#""alloc_peak""#,
            r#""shards""#,
            r#""merge_wall_ns""#,
            r#""threads""#,
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }

        // compare always shows per-tool timing plus ours' phase table, and
        // surfaces degradation status per tool
        let cmp = run(&args(&["compare", elf_s])).unwrap();
        assert!(cmp.contains("wall ms"), "{cmp}");
        assert!(cmp.contains("MiB/s"), "{cmp}");
        assert!(cmp.contains("phase timing"), "{cmp}");
        assert!(cmp.contains("degraded_runs"), "{cmp}");
        assert!(cmp.contains("degradation_count"), "{cmp}");
        assert!(cmp.contains("alloc_peak"), "{cmp}");
        assert!(cmp.contains("log_warn_count"), "{cmp}");
        assert!(cmp.contains("threads"), "{cmp}");
        assert!(cmp.contains("merge ms"), "{cmp}");

        // cfg records its own phase in the trace record
        let cfg_json = dir.join("cfg-trace.json");
        let cfg_json_s = cfg_json.to_str().unwrap();
        run(&args(&["cfg", elf_s, "--trace-json", cfg_json_s])).unwrap();
        let json = std::fs::read_to_string(&cfg_json).unwrap();
        assert!(json.contains(r#""command":"cfg""#), "{json}");
        assert!(json.contains(r#""name":"cfg""#), "{json}");

        // compare --trace-json carries one entry per tool
        let cmp_json = dir.join("cmp-trace.json");
        let cmp_json_s = cmp_json.to_str().unwrap();
        run(&args(&["compare", elf_s, "--trace-json", cmp_json_s])).unwrap();
        let json = std::fs::read_to_string(&cmp_json).unwrap();
        for tool in [
            r#""tool":"linear-sweep""#,
            r#""tool":"recursive""#,
            r#""tool":"metadis (ours)""#,
        ] {
            assert!(json.contains(tool), "missing {tool} in {json}");
        }
    }

    #[test]
    fn explain_prints_causal_chain() {
        let _cli = cli_lock();
        let dir = tmpdir();
        let elf = dir.join("explain.elf");
        let elf_s = elf.to_str().unwrap();
        run(&args(&[
            "gen",
            "-o",
            elf_s,
            "--seed",
            "11",
            "--functions",
            "6",
        ]))
        .unwrap();

        // a single offset: human-readable chain ending in the final label
        let out = run(&args(&["explain", elf_s, "0x0"])).unwrap();
        assert!(out.contains("offset 0x0000"), "{out}");
        assert!(out.contains("causal chain"), "{out}");
        assert!(out.contains("=> final label:"), "{out}");
        // at least one evidence record must mention a pipeline phase
        assert!(
            out.contains("superset/") || out.contains("anchor/") || out.contains("default/"),
            "{out}"
        );

        // a range query collapses to decision units and stays bounded
        let out = run(&args(&["explain", elf_s, "0x0..0x10"])).unwrap();
        assert!(out.matches("=> final label:").count() >= 1, "{out}");

        // --json emits a stable metadis.explain.v1 record
        let out = run(&args(&["explain", elf_s, "0x0", "--json"])).unwrap();
        assert!(
            out.starts_with(r#"{"schema":"metadis.explain.v1""#),
            "{out}"
        );
        for key in [
            r#""binary":"#,
            r#""text_va":"#,
            r#""truncated":false"#,
            r#""explanations":[{"offset":0"#,
            r#""chain":[{"seq":"#,
            r#""phase":"#,
            r#""kind":"#,
            r#""weight":"#,
        ] {
            assert!(out.contains(key), "missing {key} in {out}");
        }

        // a VA inside .text is rebased to a text offset
        let out = run(&args(&["explain", elf_s, "0x401000"])).unwrap();
        assert!(out.contains("offset 0x0000"), "{out}");

        // out-of-range offsets are usage errors, not panics
        let e = run(&args(&["explain", elf_s, "0xffffff"])).unwrap_err();
        assert_eq!(e.category, ErrorCategory::Usage, "{e}");
        let e = run(&args(&["explain", elf_s, "12..4"])).unwrap_err();
        assert_eq!(e.category, ErrorCategory::Usage, "{e}");
    }

    #[test]
    fn trace_diff_detects_regressions() {
        let _cli = cli_lock();
        let dir = tmpdir();
        let elf = dir.join("td.elf");
        let elf_s = elf.to_str().unwrap();
        run(&args(&[
            "gen",
            "-o",
            elf_s,
            "--seed",
            "21",
            "--functions",
            "6",
        ]))
        .unwrap();
        let base = dir.join("td-base.json");
        let base_s = base.to_str().unwrap();
        run(&args(&["disasm", elf_s, "--trace-json", base_s])).unwrap();

        // identical traces: OK, exit success
        let out = run(&args(&["trace-diff", base_s, base_s])).unwrap();
        assert!(out.contains("trace-diff: OK"), "{out}");

        // a trace that lost a tool is a regression => Degraded category
        let doctored = dir.join("td-doctored.json");
        let body = std::fs::read_to_string(&base).unwrap();
        std::fs::write(
            &doctored,
            body.replace(r#""tool":"metadis (ours)""#, r#""tool":"renamed""#),
        )
        .unwrap();
        let e = run(&args(&["trace-diff", base_s, doctored.to_str().unwrap()])).unwrap_err();
        assert_eq!(e.category, ErrorCategory::Degraded, "{e}");
        assert!(e.message.contains("trace-diff: REGRESSION"), "{e}");
        assert!(e.message.contains("trace regression"), "{e}");

        // unreadable / non-trace inputs are IO / parse errors
        let e = run(&args(&["trace-diff", "/nonexistent.json", base_s])).unwrap_err();
        assert_eq!(e.category, ErrorCategory::Io, "{e}");
        let junk = dir.join("junk.json");
        std::fs::write(&junk, "{not json").unwrap();
        let e = run(&args(&["trace-diff", base_s, junk.to_str().unwrap()])).unwrap_err();
        assert_eq!(e.category, ErrorCategory::Parse, "{e}");
    }

    #[test]
    fn provenance_flag_enables_ledger_in_disasm() {
        let _cli = cli_lock();
        let dir = tmpdir();
        let elf = dir.join("prov.elf");
        let elf_s = elf.to_str().unwrap();
        run(&args(&[
            "gen",
            "-o",
            elf_s,
            "--seed",
            "5",
            "--functions",
            "4",
        ]))
        .unwrap();
        // --provenance is accepted and the run still reports normally
        let out = run(&args(&["disasm", elf_s, "--provenance"])).unwrap();
        assert!(out.contains("instructions"), "{out}");
    }

    #[test]
    fn gen_validates_arguments() {
        let _cli = cli_lock();
        let dir = tmpdir();
        let elf = dir.join("bad.elf");
        assert!(run(&args(&["gen"])).is_err());
        assert!(run(&args(&[
            "gen",
            "-o",
            elf.to_str().unwrap(),
            "--density",
            "0.9"
        ]))
        .is_err());
        assert!(run(&args(&[
            "gen",
            "-o",
            elf.to_str().unwrap(),
            "--profile",
            "O9"
        ]))
        .is_err());
    }

    #[test]
    fn disasm_rejects_garbage_input() {
        let _cli = cli_lock();
        let dir = tmpdir();
        let junk = dir.join("junk.bin");
        std::fs::write(&junk, b"not an elf").unwrap();
        let e = run(&args(&["disasm", junk.to_str().unwrap()])).unwrap_err();
        assert!(e.message.contains("cannot parse"), "{e}");
        assert!(run(&args(&["disasm", "/nonexistent/x.elf"])).is_err());
    }

    #[test]
    fn error_categories_map_to_stable_exit_codes() {
        let _cli = cli_lock();
        let dir = tmpdir();

        // usage: unknown command, missing args, bad flag value
        for bad in [
            args(&["frobnicate"]),
            args(&["disasm"]),
            args(&["disasm", "x.elf", "--max-iterations", "lots"]),
            args(&["disasm", "x.elf", "--deadline-ms", "soon"]),
            args(&["disasm", "x.elf", "--threads", "0"]),
            args(&["disasm", "x.elf", "--threads", "many"]),
        ] {
            let e = run(&bad).unwrap_err();
            assert_eq!(e.category, ErrorCategory::Usage, "{bad:?}: {e}");
        }

        // io: unreadable input
        let e = run(&args(&["disasm", "/nonexistent/x.elf"])).unwrap_err();
        assert_eq!(e.category, ErrorCategory::Io, "{e}");

        // parse: file exists but is not an ELF
        let junk = dir.join("cat.bin");
        std::fs::write(&junk, b"\x7fELF but not really").unwrap();
        let e = run(&args(&["disasm", junk.to_str().unwrap()])).unwrap_err();
        assert_eq!(e.category, ErrorCategory::Parse, "{e}");

        // the code/name mapping is a stable contract
        assert_eq!(ErrorCategory::Usage.exit_code(), 2);
        assert_eq!(ErrorCategory::Io.exit_code(), 3);
        assert_eq!(ErrorCategory::Parse.exit_code(), 4);
        assert_eq!(ErrorCategory::Degraded.exit_code(), 5);
        assert_eq!(ErrorCategory::Degraded.name(), "analysis-degraded");
        assert_eq!(ErrorCategory::Overload.exit_code(), 6);
        assert_eq!(ErrorCategory::Overload.name(), "overload");
    }

    #[test]
    fn robustness_flags_degrade_and_strict_escalates() {
        let _cli = cli_lock();
        let dir = tmpdir();
        let elf = dir.join("robust.elf");
        let elf_s = elf.to_str().unwrap();
        run(&args(&[
            "gen",
            "-o",
            elf_s,
            "--seed",
            "11",
            "--functions",
            "8",
        ]))
        .unwrap();

        // a starvation-level iteration budget degrades but still succeeds,
        // and --metrics reports which budget was hit
        let out = run(&args(&[
            "disasm",
            elf_s,
            "--max-iterations",
            "1",
            "--metrics",
        ]))
        .unwrap();
        assert!(out.contains("degraded: phase"), "{out}");

        // the same run under --strict becomes an analysis-degraded error...
        let json_path = dir.join("strict-trace.json");
        let json_s = json_path.to_str().unwrap();
        let e = run(&args(&[
            "disasm",
            elf_s,
            "--max-iterations",
            "1",
            "--strict",
            "--trace-json",
            json_s,
        ]))
        .unwrap_err();
        assert_eq!(e.category, ErrorCategory::Degraded, "{e}");
        // ...but the trace record was still written, with the degradations
        let json = std::fs::read_to_string(&json_path).unwrap();
        assert!(json.contains(r#""schema":"metadis.trace.v6""#), "{json}");
        assert!(json.contains(r#""limit":"correction_steps""#), "{json}");

        // an unconstrained strict run passes
        let out = run(&args(&["disasm", elf_s, "--strict"])).unwrap();
        assert!(out.contains("instructions"), "{out}");
    }

    #[test]
    fn log_flags_stream_structured_lines() {
        let _cli = cli_lock();
        let dir = tmpdir();
        let elf = dir.join("log.elf");
        let elf_s = elf.to_str().unwrap();
        run(&args(&[
            "gen",
            "-o",
            elf_s,
            "--seed",
            "5",
            "--functions",
            "8",
        ]))
        .unwrap();

        // --log FILE streams metadis.log.v2 JSON lines covering the run
        let log = dir.join("run.log");
        let log_s = log.to_str().unwrap();
        run(&args(&["disasm", elf_s, "--log", log_s])).unwrap();
        let text = std::fs::read_to_string(&log).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines.len() >= 8, "expected a line per phase, got:\n{text}");
        for line in &lines {
            assert!(
                line.starts_with(r#"{"schema":"metadis.log.v2","ts_ns":"#),
                "{line}"
            );
            assert!(line.ends_with('}'), "{line}");
        }
        // one invocation = one request id: every line carries the same one
        assert!(
            text.contains(r#""req_id":""#),
            "expected req_id on log lines:\n{text}"
        );
        for needle in [
            r#""msg":"run begin""#,
            r#""phase":"superset""#,
            r#""phase":"viability""#,
            r#""msg":"run done""#,
            r#""level":"info""#,
        ] {
            assert!(text.contains(needle), "missing {needle} in:\n{text}");
        }

        // --log-level warn filters the info-level phase chatter out
        let quiet = dir.join("quiet.log");
        let quiet_s = quiet.to_str().unwrap();
        run(&args(&[
            "disasm",
            elf_s,
            "--log",
            quiet_s,
            "--log-level",
            "warn",
        ]))
        .unwrap();
        let text = std::fs::read_to_string(&quiet).unwrap();
        assert!(!text.contains(r#""level":"info""#), "{text}");

        // a budget-limited run emits warn-level budget-hit records
        let warn = dir.join("warn.log");
        let warn_s = warn.to_str().unwrap();
        run(&args(&[
            "disasm",
            elf_s,
            "--max-iterations",
            "1",
            "--log",
            warn_s,
            "--log-level",
            "warn",
        ]))
        .unwrap();
        let text = std::fs::read_to_string(&warn).unwrap();
        assert!(text.contains(r#""msg":"budget hit""#), "{text}");
        assert!(text.contains(r#""limit":"#), "{text}");

        // an unknown level is a usage error
        let e = run(&args(&["disasm", elf_s, "--log-level", "loud"])).unwrap_err();
        assert_eq!(e.category, ErrorCategory::Usage, "{e}");
    }

    #[test]
    fn scrape_without_server_is_io_error() {
        let _cli = cli_lock();
        // a port nobody listens on: bind-then-drop reserves a dead address
        let dead = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = dead.local_addr().unwrap().to_string();
        drop(dead);
        let e = run(&args(&["scrape", &addr])).unwrap_err();
        assert_eq!(e.category, ErrorCategory::Io, "{e}");
    }

    #[test]
    fn forensics_validates_request_ids_from_flag_and_remote_index() {
        let _cli = cli_lock();
        use std::io::{Read as _, Write as _};
        // A hostile/compromised server whose retention index names a
        // path-traversal "id". The CLI must validate every id before
        // interpolating it into a fetch URL or an output filename.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        // exactly 7 requests cross the wire: 4 for the clean run
        // (metrics, history, index, one valid bundle) and 3 for the
        // --id run, which fails validation after the index fetch
        let server = std::thread::spawn(move || {
            for _ in 0..7 {
                let Ok((mut s, _)) = listener.accept() else {
                    return;
                };
                let mut buf = Vec::new();
                let mut chunk = [0u8; 1024];
                while !buf.windows(4).any(|w| w == b"\r\n\r\n") {
                    match s.read(&mut chunk) {
                        Ok(0) | Err(_) => break,
                        Ok(n) => buf.extend_from_slice(&chunk[..n]),
                    }
                }
                let req = String::from_utf8_lossy(&buf).into_owned();
                let target = req.split_whitespace().nth(1).unwrap_or("").to_string();
                let body = match target.as_str() {
                    "/debug/requests" => {
                        r#"{"retained":[{"req_id":"../../evil"},{"req_id":"000000000000dead"}]}"#
                    }
                    t if t.starts_with("/debug/requests/") => r#"{"schema":"metadis.request.v1"}"#,
                    _ => "{}",
                };
                let _ = write!(
                    s,
                    "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
                    body.len()
                );
            }
        });

        let dir = tmpdir().join("forensics-hostile");
        let _ = std::fs::remove_dir_all(&dir);
        let dir_s = dir.to_str().unwrap().to_string();
        let out = run(&args(&["forensics", &addr, "-o", &dir_s])).unwrap();
        // the traversal entry is reported, not fetched or written...
        assert!(
            out.contains("skipped 1 index entry with invalid request ids"),
            "{out}"
        );
        assert!(out.contains("request-000000000000dead.json"), "{out}");
        assert!(out.contains("saved 1 request bundle(s)"), "{out}");
        // ...and the bundle directory holds exactly the expected files,
        // all inside the directory
        let mut names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        assert_eq!(
            names,
            [
                "history.json",
                "metrics.prom",
                "request-000000000000dead.json",
                "requests.json"
            ]
        );

        // an invalid --id is a usage error before any fetch loop runs
        let e = run(&args(&[
            "forensics",
            &addr,
            "--id",
            "../../etc/passwd",
            "-o",
            &dir_s,
        ]))
        .unwrap_err();
        assert!(e.to_string().contains("not a request id"), "{e}");
        server.join().unwrap();
    }
}
