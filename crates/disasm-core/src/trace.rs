//! Pipeline phase tracing.
//!
//! Every [`Disassembly`] carries a [`PipelineTrace`] describing where the
//! wall time of [`crate::correct`] went: one [`PhaseStat`] per pipeline
//! phase, the viability fixpoint iteration count, and the number of
//! corrections applied per [`Priority`] class. Tracing is always on — it is
//! a handful of monotonic clock reads per run — while the heavier global
//! counters/histograms in [`obs`] stay behind [`obs::enabled`].
//!
//! Phase names are a stable, documented contract (consumed by the CLI's
//! `--trace-json` schema `metadis.trace.v6` and by the bench JSON records):
//!
//! | phase | meaning |
//! |-------|---------|
//! | `superset`       | candidate decode at every text offset |
//! | `viability`      | invalid-fall-through backward fixpoint |
//! | `anchor`         | entry-point recursive closure |
//! | `jumptable`      | jump-table scan |
//! | `structural`     | table extents/targets + address-taken hints |
//! | `stats.train`    | statistical model self-training |
//! | `stats.classify` | likelihood-ratio classification of undecided gaps |
//! | `padding`        | padding-run sweep |
//! | `default`        | leftover-bytes-are-data rule |
//!
//! Baseline tools record a single coarse phase named after the tool, and
//! the CLI appends a `cfg` phase when it builds a control-flow graph. A
//! `fallback.linear` phase appears only when a pipeline phase panicked and
//! the run degraded to the linear-sweep fallback.
//!
//! ## Schema history
//!
//! * `metadis.trace.v1` — phases, totals, viability iterations,
//!   corrections per priority.
//! * `metadis.trace.v2` — everything in v1, plus a `degradations` array
//!   (`{phase, limit, completed}` per budget hit, see
//!   [`crate::limits::Degradation`]) on every trace object.
//! * `metadis.trace.v3` — everything in v2, plus a `spans` array on every
//!   trace object: structured begin/end event spans with parent IDs,
//!   monotonic start offsets, and per-span counters ([`obs::span::Span`]).
//!   The flat `phases` array is retained verbatim for v2 consumers; spans
//!   carry the same phase names with nesting and extra counters on top.
//! * `metadis.trace.v4` — everything in v3, plus `alloc_bytes` and
//!   `alloc_peak` on every trace object: bytes allocated during the run and
//!   the high-water mark of live bytes above the run's starting level, fed
//!   by the counting allocator ([`obs::alloc`]). Both are 0 when allocation
//!   accounting is inactive. When active, spans additionally carry
//!   `alloc_bytes`/`alloc_peak` counters per phase.
//! * `metadis.trace.v5` — everything in v4, plus a `threads` field on every
//!   trace object (worker threads the run was configured with; 0 when not
//!   recorded) and `shards`/`merge_wall_ns` on every phase entry. Those two
//!   once reported how many shards a phase split one binary into and how
//!   long merging them took. Every phase now runs on one thread, so they
//!   always read 1 and 0; they stay so v5 and v6 consumers keep parsing.
//!   `threads` sizes only the file-level pools ([`crate::par`]).
//! * `metadis.trace.v6` — everything in v5, plus a `timeline_summary`
//!   object on every trace object, fed by the flight recorder
//!   ([`obs::timeline`]): `critical_path_ns` (longest dependency chain
//!   through the phases — slowest shard plus merge wait per sharded phase,
//!   full wall per serial phase), `worker_utilization` (mean busy
//!   percentage across worker lanes, 0–100) and `shard_skew` (worst
//!   `(max-min)*100/max` shard-duration imbalance). All three are 0 when
//!   the recorder was off for the run.

use crate::correct::Priority;
use crate::limits::Degradation;
use crate::Disassembly;
use obs::json::JsonWriter;
use obs::TextTable;

/// Schema tag of the trace report JSON ([`trace_report_json`] /
/// [`merged_report_json`]).
pub const SCHEMA: &str = "metadis.trace.v6";

/// Timing and volume of one pipeline phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseStat {
    /// Stable phase name (see the module table).
    pub name: &'static str,
    /// Wall time spent in the phase, nanoseconds.
    pub wall_ns: u64,
    /// Bytes the phase processed (usually the text size).
    pub bytes: u64,
    /// Phase-specific item count: candidates decoded, candidates
    /// eliminated, tables found, decisions applied, ...
    pub items: u64,
    /// Shards the phase decomposed into. Every pipeline phase runs on one
    /// thread, so [`PipelineTrace::record`] writes 1; the field stays for
    /// the v5 schema.
    pub shards: u64,
    /// Wall time spent merging shard results, nanoseconds; 0 for the same
    /// reason. Included in — not additional to — `wall_ns`.
    pub merge_wall_ns: u64,
}

impl PhaseStat {
    /// Throughput of the phase in bytes per second (0 when the phase was
    /// too fast to time).
    pub fn bytes_per_sec(&self) -> f64 {
        if self.wall_ns == 0 {
            return 0.0;
        }
        self.bytes as f64 / (self.wall_ns as f64 / 1e9)
    }
}

/// Where the time of one (or several merged) pipeline runs went.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PipelineTrace {
    /// Per-phase statistics, in execution order.
    pub phases: Vec<PhaseStat>,
    /// Total wall time of the run(s), nanoseconds.
    pub total_wall_ns: u64,
    /// Text bytes disassembled.
    pub text_bytes: u64,
    /// Worklist pops performed by the viability fixpoint (0 when the
    /// behavioral analysis is disabled).
    pub viability_iterations: u64,
    /// Corrections applied, indexed by the *winning* [`Priority`].
    pub corrections_by_priority: [u64; Priority::COUNT],
    /// Number of pipeline runs merged into this trace (1 for a single
    /// disassembly; >1 after [`PipelineTrace::merge`]).
    pub runs: u64,
    /// Budget hits recorded by the run(s): empty means the result is
    /// complete; non-empty means it is partial but honestly labeled.
    pub degradations: Vec<Degradation>,
    /// Structured event spans of the run: a begin/end tree with parent IDs
    /// and per-span counters, in begin order. Supersedes the flat `phases`
    /// timers (which are retained for `metadis.trace.v2` compatibility).
    pub spans: Vec<obs::Span>,
    /// Bytes allocated during the run(s) (0 when allocation accounting is
    /// inactive — see [`obs::alloc`]).
    pub alloc_bytes: u64,
    /// High-water mark of live heap bytes above the run's starting level
    /// (max across runs after [`PipelineTrace::merge`]; 0 when accounting
    /// is inactive).
    pub alloc_peak: u64,
    /// Worker threads the run was configured with
    /// ([`crate::Config::threads`]; max across runs after
    /// [`PipelineTrace::merge`]; 0 when not recorded).
    pub threads: u64,
    /// Flight-recorder analysis of the run (all zeros when the recorder
    /// was off — see [`obs::timeline`]). After [`PipelineTrace::merge`],
    /// durations accumulate and the percentages keep the worst case.
    pub timeline: obs::TimelineSummary,
}

impl PipelineTrace {
    /// An empty trace (no runs).
    pub fn new() -> PipelineTrace {
        PipelineTrace::default()
    }

    /// Append a phase measurement. Every phase runs on one thread, so it
    /// records one shard and no merge cost.
    pub fn record(&mut self, name: &'static str, wall_ns: u64, bytes: u64, items: u64) {
        self.phases.push(PhaseStat {
            name,
            wall_ns,
            bytes,
            items,
            shards: 1,
            merge_wall_ns: 0,
        });
    }

    /// Look up a phase by name.
    pub fn phase(&self, name: &str) -> Option<&PhaseStat> {
        self.phases.iter().find(|p| p.name == name)
    }

    /// Overall throughput in bytes per second.
    pub fn bytes_per_sec(&self) -> f64 {
        if self.total_wall_ns == 0 {
            return 0.0;
        }
        self.text_bytes as f64 / (self.total_wall_ns as f64 / 1e9)
    }

    /// Total corrections across all priority classes.
    pub fn corrections_total(&self) -> u64 {
        self.corrections_by_priority.iter().sum()
    }

    /// Fold another trace into this one: phases are matched by name and
    /// summed (unmatched phases are appended in order), scalar fields add.
    /// Used by the evaluation harness to aggregate per-workload traces into
    /// one per-tool trace.
    pub fn merge(&mut self, other: &PipelineTrace) {
        for p in &other.phases {
            match self.phases.iter_mut().find(|q| q.name == p.name) {
                Some(q) => {
                    q.wall_ns += p.wall_ns;
                    q.bytes += p.bytes;
                    q.items += p.items;
                    // merge cost accumulates like wall time; the shard
                    // count is a configuration, so keep the widest split
                    q.merge_wall_ns += p.merge_wall_ns;
                    q.shards = q.shards.max(p.shards);
                }
                None => self.phases.push(*p),
            }
        }
        self.total_wall_ns += other.total_wall_ns;
        self.text_bytes += other.text_bytes;
        self.viability_iterations += other.viability_iterations;
        for (a, b) in self
            .corrections_by_priority
            .iter_mut()
            .zip(&other.corrections_by_priority)
        {
            *a += b;
        }
        self.runs += other.runs;
        self.degradations.extend_from_slice(&other.degradations);
        self.alloc_bytes += other.alloc_bytes;
        // peaks don't add across sequential runs — the high-water mark of
        // the aggregate is the worst single run
        self.alloc_peak = self.alloc_peak.max(other.alloc_peak);
        self.threads = self.threads.max(other.threads);
        // durations chain across sequential runs; the percentage fields
        // keep the worst case (lowest utilization, highest skew)
        self.timeline.critical_path_ns += other.timeline.critical_path_ns;
        self.timeline.merge_wait_ns += other.timeline.merge_wait_ns;
        self.timeline.total_wall_ns += other.timeline.total_wall_ns;
        self.timeline.workers = self.timeline.workers.max(other.timeline.workers);
        self.timeline.shard_skew = self.timeline.shard_skew.max(other.timeline.shard_skew);
        self.timeline.worker_utilization = if self.runs == other.runs {
            // merging into an empty trace: adopt the other side's value
            other.timeline.worker_utilization
        } else {
            self.timeline
                .worker_utilization
                .min(other.timeline.worker_utilization)
        };
        // Keep span IDs unique across the merged trace: re-base the other
        // trace's IDs past our current maximum so parent links stay intact.
        let base = self.spans.iter().map(|s| s.id + 1).max().unwrap_or(0);
        for s in &other.spans {
            let mut s = s.clone();
            s.id += base;
            s.parent = s.parent.map(|p| p + base);
            self.spans.push(s);
        }
    }

    /// `true` when any phase hit a budget (the result is partial).
    pub fn is_degraded(&self) -> bool {
        !self.degradations.is_empty()
    }

    /// Render the per-phase table (phase, wall ms, share of total, bytes,
    /// items, MiB/s) as aligned text.
    pub fn render_table(&self) -> String {
        let mut t = TextTable::new([
            "phase", "wall ms", "%", "bytes", "items", "MiB/s", "shards", "merge ms",
        ]);
        let phase_total: u64 = self.phases.iter().map(|p| p.wall_ns).sum();
        for p in &self.phases {
            let pct = if phase_total == 0 {
                0.0
            } else {
                100.0 * p.wall_ns as f64 / phase_total as f64
            };
            t.row([
                p.name.to_string(),
                format!("{:.3}", p.wall_ns as f64 / 1e6),
                format!("{pct:.1}"),
                p.bytes.to_string(),
                p.items.to_string(),
                format!("{:.1}", p.bytes_per_sec() / (1024.0 * 1024.0)),
                p.shards.to_string(),
                format!("{:.3}", p.merge_wall_ns as f64 / 1e6),
            ]);
        }
        t.row([
            "total".to_string(),
            format!("{:.3}", self.total_wall_ns as f64 / 1e6),
            "100.0".to_string(),
            self.text_bytes.to_string(),
            String::new(),
            format!("{:.1}", self.bytes_per_sec() / (1024.0 * 1024.0)),
            String::new(),
            String::new(),
        ]);
        t.render()
    }

    /// Write the trace fields into the *currently open* JSON object:
    /// `text_bytes`, `wall_ns`, `bytes_per_sec`, `viability_iterations`,
    /// `corrections`, `corrections_by_priority`, `runs`, `phases`,
    /// `degradations`, `spans`, `alloc_bytes`, `alloc_peak`, `threads`,
    /// `timeline_summary`.
    /// Each schema generation's additions are serialized strictly *after*
    /// the previous generation's fields of their enclosing object — the
    /// v5 `threads` after the v4 alloc fields, the v6 `timeline_summary`
    /// object last of all — so stripping them yields a byte-identical
    /// older document (golden-pinned by the schema downgrade tests).
    pub fn write_json_fields(&self, w: &mut JsonWriter) {
        w.field_u64("text_bytes", self.text_bytes);
        w.field_u64("wall_ns", self.total_wall_ns);
        w.field_f64("bytes_per_sec", self.bytes_per_sec());
        w.field_u64("viability_iterations", self.viability_iterations);
        w.field_u64("corrections", self.corrections_total());
        w.key("corrections_by_priority");
        w.begin_obj();
        for (i, &c) in self.corrections_by_priority.iter().enumerate() {
            w.field_u64(priority_name(i), c);
        }
        w.end_obj();
        w.field_u64("runs", self.runs);
        w.key("phases");
        w.begin_arr();
        for p in &self.phases {
            w.begin_obj();
            w.field_str("name", p.name);
            w.field_u64("wall_ns", p.wall_ns);
            w.field_u64("bytes", p.bytes);
            w.field_u64("items", p.items);
            w.field_f64("bytes_per_sec", p.bytes_per_sec());
            w.field_u64("shards", p.shards);
            w.field_u64("merge_wall_ns", p.merge_wall_ns);
            w.end_obj();
        }
        w.end_arr();
        w.key("degradations");
        w.begin_arr();
        for d in &self.degradations {
            w.begin_obj();
            w.field_str("phase", d.phase);
            w.field_str("limit", d.limit.name());
            w.field_u64("completed", d.completed);
            w.end_obj();
        }
        w.end_arr();
        w.key("spans");
        obs::span::write_spans_json(w, &self.spans);
        w.field_u64("alloc_bytes", self.alloc_bytes);
        w.field_u64("alloc_peak", self.alloc_peak);
        w.field_u64("threads", self.threads);
        w.key("timeline_summary");
        w.begin_obj();
        w.field_u64("critical_path_ns", self.timeline.critical_path_ns);
        w.field_u64("worker_utilization", self.timeline.worker_utilization);
        w.field_u64("shard_skew", self.timeline.shard_skew);
        w.end_obj();
    }

    /// Copy the `alloc_bytes`/`alloc_peak` counters off the root span (the
    /// pipeline's whole-run attribution window) into the trace's own
    /// fields. No-op when there is no root span or it carries no
    /// allocation counters (accounting inactive).
    pub fn adopt_root_alloc(&mut self) {
        let Some(root) = self.spans.first() else {
            return;
        };
        for (name, v) in &root.counters {
            match *name {
                "alloc_bytes" => self.alloc_bytes = *v,
                "alloc_peak" => self.alloc_peak = *v,
                _ => {}
            }
        }
    }
}

/// Stable lowercase name of a priority class index (`anchor`, `behavioral`,
/// `structural`, `statistical`, `default`).
pub fn priority_name(i: usize) -> &'static str {
    match i {
        0 => "anchor",
        1 => "behavioral",
        2 => "structural",
        3 => "statistical",
        _ => "default",
    }
}

/// Write one tool's complete trace object `{tool, <trace fields>,
/// decisions_by_priority, instructions, functions, jump_tables}` — the
/// per-tool entry of the `metadis.trace.v6` schema.
pub fn write_tool_json(w: &mut JsonWriter, tool: &str, d: &Disassembly) {
    w.begin_obj();
    w.field_str("tool", tool);
    d.trace.write_json_fields(w);
    w.key("decisions_by_priority");
    w.begin_obj();
    for (i, &n) in d.decisions_by_priority.iter().enumerate() {
        w.field_u64(priority_name(i), n as u64);
    }
    w.end_obj();
    w.field_u64("instructions", d.inst_starts.len() as u64);
    w.field_u64("functions", d.func_starts.len() as u64);
    w.field_u64("jump_tables", d.jump_tables.len() as u64);
    w.end_obj();
}

/// Render a complete `metadis.trace.v6` report: `{schema, command,
/// tools: [...], metrics: {...}}`. The CLI's `--trace-json` and the bench
/// binaries both emit exactly this shape, so one consumer reads either.
/// Every `metadis.trace.v4` field is still present with identical encoding;
/// v5 only adds the per-tool `threads` field and the per-phase
/// `shards`/`merge_wall_ns` fields.
pub fn trace_report_json(
    command: &str,
    tools: &[(String, Disassembly)],
    metrics: &obs::Snapshot,
) -> String {
    let mut w = JsonWriter::new();
    w.begin_obj();
    w.field_str("schema", SCHEMA);
    w.field_str("command", command);
    w.key("tools");
    w.begin_arr();
    for (name, d) in tools {
        write_tool_json(&mut w, name, d);
    }
    w.end_arr();
    w.key("metrics");
    metrics.write_json(&mut w);
    w.end_obj();
    w.finish()
}

/// Like [`trace_report_json`] but from bare traces: the per-tool objects
/// carry only the trace fields, no per-disassembly decision counts. The
/// bench binaries use this after aggregating traces across whole corpora
/// with [`PipelineTrace::merge`].
pub fn merged_report_json(
    command: &str,
    tools: &[(String, PipelineTrace)],
    metrics: &obs::Snapshot,
) -> String {
    let mut w = JsonWriter::new();
    w.begin_obj();
    w.field_str("schema", SCHEMA);
    w.field_str("command", command);
    w.key("tools");
    w.begin_arr();
    for (name, t) in tools {
        w.begin_obj();
        w.field_str("tool", name);
        t.write_json_fields(&mut w);
        w.end_obj();
    }
    w.end_arr();
    w.key("metrics");
    metrics.write_json(&mut w);
    w.end_obj();
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> PipelineTrace {
        let mut t = PipelineTrace::new();
        t.record("superset", 2_000_000, 4096, 4000);
        t.record("viability", 1_000_000, 4096, 1200);
        t.total_wall_ns = 4_000_000;
        t.text_bytes = 4096;
        t.viability_iterations = 321;
        t.corrections_by_priority = [0, 0, 5, 2, 0];
        t.runs = 1;
        t
    }

    #[test]
    fn merge_sums_by_phase_name() {
        let mut a = sample();
        let mut b = sample();
        b.record("padding", 500, 4096, 3);
        a.merge(&b);
        assert_eq!(a.runs, 2);
        assert_eq!(a.phase("superset").unwrap().wall_ns, 4_000_000);
        assert_eq!(a.phase("padding").unwrap().items, 3);
        assert_eq!(a.corrections_by_priority[2], 10);
        assert_eq!(a.viability_iterations, 642);
        assert_eq!(a.text_bytes, 8192);
    }

    #[test]
    fn table_lists_every_phase_and_total() {
        let t = sample();
        let table = t.render_table();
        for name in ["superset", "viability", "total"] {
            assert!(table.contains(name), "missing {name}:\n{table}");
        }
    }

    #[test]
    fn json_fields_golden() {
        let t = sample();
        let mut w = JsonWriter::new();
        w.begin_obj();
        t.write_json_fields(&mut w);
        w.end_obj();
        let s = w.finish();
        assert!(
            s.starts_with(r#"{"text_bytes":4096,"wall_ns":4000000,"#),
            "{s}"
        );
        assert!(s.contains(r#""viability_iterations":321"#), "{s}");
        assert!(s.contains(r#""corrections":7"#), "{s}");
        assert!(
            s.contains(
                r#""corrections_by_priority":{"anchor":0,"behavioral":0,"structural":5,"statistical":2,"default":0}"#
            ),
            "{s}"
        );
        assert!(
            s.contains(
                r#""phases":[{"name":"superset","wall_ns":2000000,"bytes":4096,"items":4000,"#
            ),
            "{s}"
        );
    }

    #[test]
    fn merge_rebases_span_ids() {
        let mut a = sample();
        a.spans.push(obs::Span {
            id: 0,
            parent: None,
            name: "pipeline",
            start_ns: 0,
            wall_ns: 10,
            counters: Vec::new(),
        });
        let mut b = sample();
        b.spans.push(obs::Span {
            id: 0,
            parent: None,
            name: "pipeline",
            start_ns: 0,
            wall_ns: 20,
            counters: Vec::new(),
        });
        b.spans.push(obs::Span {
            id: 1,
            parent: Some(0),
            name: "superset",
            start_ns: 1,
            wall_ns: 5,
            counters: Vec::new(),
        });
        a.merge(&b);
        let ids: Vec<u32> = a.spans.iter().map(|s| s.id).collect();
        assert_eq!(ids, vec![0, 1, 2]);
        assert_eq!(a.spans[2].parent, Some(1));
    }

    #[test]
    fn json_fields_include_spans() {
        let mut t = sample();
        t.spans.push(obs::Span {
            id: 0,
            parent: None,
            name: "pipeline",
            start_ns: 0,
            wall_ns: 42,
            counters: vec![("items", 7)],
        });
        let mut w = JsonWriter::new();
        w.begin_obj();
        t.write_json_fields(&mut w);
        w.end_obj();
        let s = w.finish();
        assert!(
            s.contains(r#""spans":[{"id":0,"parent":"none","name":"pipeline""#),
            "{s}"
        );
        assert!(s.contains(r#""counters":{"items":7}"#), "{s}");
    }

    #[test]
    fn alloc_fields_serialize_and_merge() {
        let mut a = sample();
        a.alloc_bytes = 1000;
        a.alloc_peak = 600;
        let mut b = sample();
        b.alloc_bytes = 500;
        b.alloc_peak = 800;
        a.merge(&b);
        assert_eq!(a.alloc_bytes, 1500);
        assert_eq!(a.alloc_peak, 800); // max, not sum
        let mut w = JsonWriter::new();
        w.begin_obj();
        a.write_json_fields(&mut w);
        w.end_obj();
        let s = w.finish();
        // each generation's additions come last so stripping them walks
        // the schema back one version at a time
        assert!(
            s.ends_with(
                r#","alloc_bytes":1500,"alloc_peak":800,"threads":0,"timeline_summary":{"critical_path_ns":0,"worker_utilization":0,"shard_skew":0}}"#
            ),
            "{s}"
        );
    }

    #[test]
    fn sharded_phases_serialize_and_merge() {
        // pipeline phases always record one shard; a split phase built by
        // hand pins the v5 field encoding and the merge rule
        let sharded = |wall_ns, shards, merge_wall_ns| PhaseStat {
            name: "superset.par",
            wall_ns,
            bytes: 8192,
            items: 8000,
            shards,
            merge_wall_ns,
        };
        let mut a = sample();
        a.threads = 4;
        a.phases.push(sharded(3_000_000, 4, 12_345));
        let mut b = sample();
        b.threads = 2;
        b.phases.push(sharded(1_000_000, 2, 655));
        a.merge(&b);
        let p = a.phase("superset.par").unwrap();
        assert_eq!(p.shards, 4); // widest split, not a sum
        assert_eq!(p.merge_wall_ns, 13_000); // merge cost accumulates
        assert_eq!(a.threads, 4);
        // sequential phases report one shard and no merge cost
        assert_eq!(a.phase("superset").unwrap().shards, 1);
        assert_eq!(a.phase("superset").unwrap().merge_wall_ns, 0);
        let mut w = JsonWriter::new();
        w.begin_obj();
        a.write_json_fields(&mut w);
        w.end_obj();
        let s = w.finish();
        assert!(s.contains(r#""shards":4,"merge_wall_ns":13000}"#), "{s}");
        assert!(s.contains(r#""threads":4,"timeline_summary":"#), "{s}");
    }

    #[test]
    fn adopt_root_alloc_reads_root_span_counters() {
        let mut t = sample();
        t.adopt_root_alloc(); // no spans: no-op
        assert_eq!(t.alloc_bytes, 0);
        t.spans.push(obs::Span {
            id: 0,
            parent: None,
            name: "pipeline",
            start_ns: 0,
            wall_ns: 42,
            counters: vec![("items", 7), ("alloc_bytes", 4096), ("alloc_peak", 2048)],
        });
        t.adopt_root_alloc();
        assert_eq!(t.alloc_bytes, 4096);
        assert_eq!(t.alloc_peak, 2048);
    }

    #[test]
    fn timeline_summary_serializes_and_merges() {
        let mut a = sample();
        a.timeline = obs::TimelineSummary {
            critical_path_ns: 1000,
            worker_utilization: 80,
            shard_skew: 10,
            merge_wait_ns: 50,
            total_wall_ns: 1500,
            workers: 4,
        };
        let mut b = sample();
        b.timeline = obs::TimelineSummary {
            critical_path_ns: 500,
            worker_utilization: 60,
            shard_skew: 30,
            merge_wait_ns: 25,
            total_wall_ns: 700,
            workers: 2,
        };
        a.merge(&b);
        // durations chain, percentages keep the worst case
        assert_eq!(a.timeline.critical_path_ns, 1500);
        assert_eq!(a.timeline.merge_wait_ns, 75);
        assert_eq!(a.timeline.total_wall_ns, 2200);
        assert_eq!(a.timeline.worker_utilization, 60);
        assert_eq!(a.timeline.shard_skew, 30);
        assert_eq!(a.timeline.workers, 4);
        // merging into an empty trace adopts the incoming values
        let mut empty = PipelineTrace::new();
        empty.merge(&a);
        assert_eq!(empty.timeline.worker_utilization, 60);
        let mut w = JsonWriter::new();
        w.begin_obj();
        a.write_json_fields(&mut w);
        w.end_obj();
        let s = w.finish();
        assert!(
            s.ends_with(
                r#""timeline_summary":{"critical_path_ns":1500,"worker_utilization":60,"shard_skew":30}}"#
            ),
            "{s}"
        );
    }

    #[test]
    fn zero_time_throughput_is_zero() {
        let p = PhaseStat {
            name: "superset",
            wall_ns: 0,
            bytes: 100,
            items: 0,
            shards: 1,
            merge_wall_ns: 0,
        };
        assert_eq!(p.bytes_per_sec(), 0.0);
        assert_eq!(PipelineTrace::new().bytes_per_sec(), 0.0);
    }
}
