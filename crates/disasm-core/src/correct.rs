//! The prioritized error correction algorithm.
//!
//! All evidence about a byte arrives as *hints* of different strengths:
//!
//! | Priority | Source |
//! |----------|--------|
//! | `Anchor` | the entry point and everything recursively reachable from it |
//! | `Behavioral` | viability kills (bookkeeping only — candidates, not bytes) |
//! | `Structural` | jump tables, address-taken constants, control-flow propagation out of weaker acceptances |
//! | `Statistical` | likelihood-ratio classification of undecided regions |
//! | `Default` | the final "leftover bytes are data" rule |
//!
//! Decisions are tentative: a later, *stronger* hint overrides a weaker
//! earlier decision, erasing the losing instruction(s) and logging a
//! [`Correction`]. The key propagation rule is that control flow out of an
//! accepted instruction is stronger evidence than the statistics that
//! accepted it: a statistically accepted chain promotes its direct targets
//! to `Structural`, letting one confident region repair earlier mistakes in
//! regions it references.

use crate::jumptable;
use crate::limits::{Deadline, Degradation, LimitKind};
use crate::padding;
use crate::provenance::{kind, Prov, NO_CLASS};
use crate::stats::{StatModel, StatModelBuilder};
use crate::superset::{CandFlow, Superset};
use crate::trace::PipelineTrace;
use crate::viability::Viability;
use crate::{ByteClass, Config, Disassembly, Image};
use obs::log::{Level, Value};
use obs::provenance::NO_CAUSE;
use obs::{SpanSet, Stopwatch};
use std::collections::{BTreeMap, BTreeSet};
use x86_isa::OpClass;

/// Hint strength classes, strongest first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// Entry point and its recursive closure.
    Anchor = 0,
    /// Behavioral candidate elimination (viability).
    Behavioral = 1,
    /// Structural facts: jump tables, address-taken targets, control-flow
    /// propagation.
    Structural = 2,
    /// Statistical classification.
    Statistical = 3,
    /// Leftover-bytes-are-data default.
    Default = 4,
}

impl Priority {
    /// Number of priority classes.
    pub const COUNT: usize = 5;

    fn from_u8(v: u8) -> Priority {
        match v {
            0 => Priority::Anchor,
            1 => Priority::Behavioral,
            2 => Priority::Structural,
            3 => Priority::Statistical,
            _ => Priority::Default,
        }
    }
}

/// One applied override: a stronger hint displaced a weaker decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Correction {
    /// Text offset where the losing decision lived.
    pub offset: u32,
    /// Priority of the displaced decision.
    pub loser: Priority,
    /// Priority of the decision that displaced it.
    pub winner: Priority,
    /// `true` if the byte flipped from data-ish to code (else code→data).
    pub to_code: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CellKind {
    Un,
    /// Byte belongs to the accepted instruction starting at the payload.
    Owner(u32),
    Data,
    Pad,
}

#[derive(Debug, Clone, Copy)]
struct Cell {
    kind: CellKind,
    prio: u8,
}

const FREE: Cell = Cell {
    kind: CellKind::Un,
    prio: u8::MAX,
};

/// Run the full pipeline over an image.
///
/// Phase timing is recorded unconditionally into the result's
/// [`PipelineTrace`] (a few clock reads per run); global counters and
/// histograms only fire when [`obs::enabled`].
pub(crate) fn run(cfg: &Config, image: &Image) -> Disassembly {
    let total = Stopwatch::start();
    let deadline = Deadline::start(&cfg.limits);
    let mut trace = PipelineTrace::new();
    trace.threads = cfg.threads.max(1) as u64;
    // Flight-recorder window for this run: spans mirror into the timeline
    // via SpanSet, and the closing analysis below reads back exactly this
    // run's events.
    let tl_mark = obs::timeline::mark();
    let mut spans = SpanSet::new();
    let root = spans.begin("pipeline");
    let text = &image.text;
    let n = text.len();
    let nb = n as u64;
    obs::log::emit(
        Level::Info,
        "pipeline",
        Some(root),
        "run begin",
        &[("bytes", nb.into())],
    );

    if cfg.inject_panic {
        panic!("injected pipeline panic (test hook)");
    }

    let mut prov = Prov::new(cfg.collect_provenance);

    let sp = spans.begin("superset");
    let sw = Stopwatch::start();
    let (ss, deg) = Superset::build_limited(text, cfg.limits.max_superset_candidates, &deadline);
    trace.degradations.extend(deg);
    let candidates = ss.valid().count() as u64;
    trace.record("superset", sw.elapsed_ns(), nb, candidates);
    spans.counter(sp, "bytes", nb);
    spans.counter(sp, "candidates", candidates);
    spans.end(sp);
    obs::log::emit(
        Level::Info,
        "superset",
        Some(sp),
        "phase done",
        &[("bytes", nb.into()), ("candidates", candidates.into())],
    );
    if prov.enabled() {
        prov.emit(
            "superset",
            kind::DECODED,
            0,
            n as u32,
            NO_CLASS,
            NO_CLASS,
            candidates as f32,
            NO_CAUSE,
        );
        emit_runs(&mut prov, "superset", kind::INVALID, n, 0.0, |o| {
            !ss.at(o as u32).is_valid()
        });
    }

    let sp = spans.begin("viability");
    let sw = Stopwatch::start();
    let viab = if cfg.enable_viability {
        let (v, deg) =
            Viability::compute_limited(&ss, cfg.limits.max_viability_iterations, &deadline);
        trace.degradations.extend(deg);
        v
    } else {
        Viability::trivial(&ss)
    };
    trace.viability_iterations = viab.iterations();
    trace.record("viability", sw.elapsed_ns(), nb, viab.eliminated() as u64);
    spans.counter(sp, "eliminated", viab.eliminated() as u64);
    spans.counter(sp, "iterations", viab.iterations());
    spans.end(sp);
    obs::log::emit(
        Level::Info,
        "viability",
        Some(sp),
        "phase done",
        &[
            ("eliminated", (viab.eliminated() as u64).into()),
            ("iterations", viab.iterations().into()),
        ],
    );
    if prov.enabled() {
        emit_runs(
            &mut prov,
            "viability",
            kind::NONVIABLE,
            n,
            viab.iterations() as f32,
            |o| ss.at(o as u32).is_valid() && !viab.is_viable(o as u32),
        );
    }

    let mut eng = Engine {
        cfg,
        ss: &ss,
        viab: &viab,
        cells: vec![FREE; n],
        corrections: Vec::new(),
        decisions: [0; Priority::COUNT],
        func_starts: BTreeSet::new(),
        jt_targets: BTreeSet::new(),
        deadline,
        steps: 0,
        step_cap: cfg.limits.max_correction_steps.unwrap_or(u64::MAX),
        exhausted: None,
        prov,
        cur_phase: "anchor",
    };
    eng.decisions[Priority::Behavioral as usize] = viab.eliminated();

    // ---- P0: anchor (entry point) + recursive closure
    let sp = spans.begin("anchor");
    let sw = Stopwatch::start();
    if let Some(entry) = image.entry {
        eng.func_starts.insert(entry);
        eng.accept_and_propagate(entry, Priority::Anchor as u8, NO_CAUSE);
    }
    let anchor_items = eng.decisions[Priority::Anchor as usize] as u64;
    trace.record("anchor", sw.elapsed_ns(), nb, anchor_items);
    spans.counter(sp, "accepted", anchor_items);
    spans.end(sp);
    obs::log::emit(
        Level::Info,
        "anchor",
        Some(sp),
        "phase done",
        &[("accepted", anchor_items.into())],
    );

    // ---- P2: structural — jump tables and address-taken constants
    let sp = spans.begin("jumptable");
    let sw = Stopwatch::start();
    let tables = if cfg.enable_jump_tables {
        let out = jumptable::detect_budgeted(
            text,
            image.text_va,
            &image.data_regions,
            &ss,
            &viab,
            cfg.limits.max_table_entries,
            &deadline,
        );
        trace.degradations.extend(out.degradations);
        out.tables
    } else {
        Vec::new()
    };
    trace.record("jumptable", sw.elapsed_ns(), nb, tables.len() as u64);
    spans.counter(sp, "tables", tables.len() as u64);
    spans.end(sp);
    obs::log::emit(
        Level::Info,
        "jumptable",
        Some(sp),
        "phase done",
        &[("tables", (tables.len() as u64).into())],
    );
    for t in &tables {
        eng.jt_targets.extend(t.targets.iter().copied());
    }

    // Hint arrival order is configurable: the default applies the stronger
    // structural phase first; `stats_first` simulates the adversarial order
    // in which the whole byte stream is statistically classified before any
    // structural fact arrives. With `prioritized` enabled the correction
    // machinery repairs the early statistical mistakes either way; with it
    // disabled (first-decision-wins) the adversarial order reproduces the
    // behavior of naive tools.
    if cfg.stats_first || !cfg.prioritized {
        eng.statistical_phase(cfg, text, &mut trace, &mut spans);
        eng.structural_phase(cfg, image, &tables, &mut trace, &mut spans);
    } else {
        eng.structural_phase(cfg, image, &tables, &mut trace, &mut spans);
        eng.statistical_phase(cfg, text, &mut trace, &mut spans);
    }
    // padding sweep (also applies when stats are disabled)
    let sp = spans.begin("padding");
    let sw = Stopwatch::start();
    eng.cur_phase = "padding";
    eng.padding_pass();
    trace.record("padding", sw.elapsed_ns(), nb, 0);
    spans.end(sp);
    obs::log::emit(Level::Info, "padding", Some(sp), "phase done", &[]);

    // ---- P4: leftovers are data
    let sp = spans.begin("default");
    let sw = Stopwatch::start();
    eng.cur_phase = "default";
    let default_before = eng.decisions[Priority::Default as usize];
    let mut run_start: Option<usize> = None;
    for o in 0..=n {
        let undecided = o < n && eng.cells[o].kind == CellKind::Un;
        if undecided {
            run_start.get_or_insert(o);
            eng.cells[o] = Cell {
                kind: CellKind::Data,
                prio: Priority::Default as u8,
            };
            eng.decisions[Priority::Default as usize] += 1;
        } else if let Some(s) = run_start.take() {
            eng.prov.emit(
                "default",
                kind::DEFAULT_DATA,
                s as u32,
                o as u32,
                Priority::Default as u8,
                NO_CLASS,
                0.0,
                NO_CAUSE,
            );
        }
    }
    let default_items = (eng.decisions[Priority::Default as usize] - default_before) as u64;
    trace.record("default", sw.elapsed_ns(), nb, default_items);
    spans.counter(sp, "bytes", default_items);
    spans.end(sp);
    obs::log::emit(
        Level::Info,
        "default",
        Some(sp),
        "phase done",
        &[("bytes", default_items.into())],
    );

    if let Some(kind) = eng.exhausted {
        trace.degradations.push(Degradation {
            phase: "correct",
            limit: kind,
            completed: eng.steps,
        });
    }
    if eng.prov.enabled() {
        for deg in &trace.degradations {
            eng.prov.emit(
                deg.phase,
                kind::DEGRADED,
                0,
                n as u32,
                NO_CLASS,
                NO_CLASS,
                deg.completed as f32,
                NO_CAUSE,
            );
        }
    }
    if obs::log::enabled(Level::Warn) {
        for deg in &trace.degradations {
            obs::log::emit(
                Level::Warn,
                deg.phase,
                Some(root),
                "budget hit",
                &[
                    ("limit", deg.limit.name().into()),
                    ("completed", deg.completed.into()),
                ],
            );
        }
    }

    trace.total_wall_ns = total.elapsed_ns();
    trace.text_bytes = nb;
    trace.runs = 1;
    spans.end(root);
    trace.spans = spans.finish();
    trace.adopt_root_alloc();
    if obs::timeline::enabled() {
        trace.timeline = obs::chrome::summarize(&obs::timeline::snapshot_since(tl_mark));
    }
    obs::log::emit(
        Level::Info,
        "pipeline",
        Some(root),
        "run done",
        &[
            ("wall_ns", trace.total_wall_ns.into()),
            ("corrections", (eng.corrections.len() as u64).into()),
            ("degradations", (trace.degradations.len() as u64).into()),
            ("alloc_bytes", trace.alloc_bytes.into()),
            ("alloc_peak", trace.alloc_peak.into()),
        ],
    );
    let d = eng.finish(tables, trace);

    if obs::enabled() {
        let g = obs::global();
        g.add("pipeline.runs", 1);
        g.add("pipeline.bytes", nb);
        g.add("superset.candidates", candidates);
        g.add("viability.eliminated", viab.eliminated() as u64);
        g.add("viability.iterations", viab.iterations());
        g.add("corrections.applied", d.corrections.len() as u64);
        g.record("pipeline.wall_ns", d.trace.total_wall_ns);
        for p in &d.trace.phases {
            g.add(&format!("phase.{}.ns", p.name), p.wall_ns);
        }
    }
    d
}

struct Engine<'a> {
    cfg: &'a Config,
    ss: &'a Superset,
    viab: &'a Viability,
    cells: Vec<Cell>,
    corrections: Vec<Correction>,
    decisions: [usize; Priority::COUNT],
    func_starts: BTreeSet<u32>,
    jt_targets: BTreeSet<u32>,
    deadline: Deadline,
    /// Acceptance/propagation steps taken so far (anchor, structural and
    /// statistical phases share the budget).
    steps: u64,
    step_cap: u64,
    /// Set once the step budget or deadline is hit; all further hint
    /// application stops and undecided bytes fall to the data default.
    exhausted: Option<LimitKind>,
    /// Evidence recorder (no-op unless [`Config::collect_provenance`]).
    prov: Prov,
    /// Phase name stamped onto emitted evidence (tracks the trace contract).
    cur_phase: &'static str,
}

/// Emit one ledger event per maximal run of offsets satisfying `pred`;
/// the first run carries `first_weight`, the rest weight 0.
fn emit_runs(
    prov: &mut Prov,
    phase: &'static str,
    kind_name: &'static str,
    n: usize,
    first_weight: f32,
    mut pred: impl FnMut(usize) -> bool,
) {
    let mut run_start: Option<usize> = None;
    let mut first = true;
    for o in 0..=n {
        if o < n && pred(o) {
            run_start.get_or_insert(o);
        } else if let Some(s) = run_start.take() {
            let w = if first { first_weight } else { 0.0 };
            first = false;
            prov.emit(
                phase, kind_name, s as u32, o as u32, NO_CLASS, NO_CLASS, w, NO_CAUSE,
            );
        }
    }
}

impl<'a> Engine<'a> {
    /// Account for one correction-engine step; `false` once a budget is
    /// hit. The deadline is polled every 1024 steps to keep the clock read
    /// off the hot path.
    fn step_ok(&mut self) -> bool {
        if self.exhausted.is_some() {
            return false;
        }
        if self.steps >= self.step_cap {
            self.exhausted = Some(LimitKind::CorrectionSteps);
            return false;
        }
        if self.steps.is_multiple_of(1024) && self.deadline.exceeded() {
            self.exhausted = Some(LimitKind::Deadline);
            return false;
        }
        self.steps += 1;
        true
    }

    /// Structural hints: jump-table extents (data) and targets (code), the
    /// dispatch sequences, and address-taken constants.
    fn structural_phase(
        &mut self,
        cfg: &Config,
        image: &Image,
        tables: &[jumptable::DetectedTable],
        trace: &mut PipelineTrace,
        spans: &mut SpanSet,
    ) {
        let sp = spans.begin("structural");
        let sw = Stopwatch::start();
        self.cur_phase = "structural";
        let before = self.decisions[Priority::Structural as usize];
        for t in tables {
            if t.in_text {
                self.prov.emit(
                    "structural",
                    kind::TABLE_EXTENT,
                    t.table_off,
                    t.table_off + t.byte_len(),
                    Priority::Structural as u8,
                    NO_CLASS,
                    t.targets.len() as f32,
                    t.lea_off,
                );
                self.mark_range(
                    t.table_off,
                    t.table_off + t.byte_len(),
                    CellKind::Data,
                    Priority::Structural as u8,
                    t.lea_off,
                );
            }
            for &target in &t.targets {
                self.accept_and_propagate(target, Priority::Structural as u8, t.table_off);
            }
            // the dispatch sequence itself is certainly code
            self.accept_and_propagate(t.lea_off, Priority::Structural as u8, NO_CAUSE);
        }
        if cfg.enable_address_taken {
            for (target, site) in address_taken(image, self.viab) {
                let cause = site.unwrap_or(NO_CAUSE);
                self.prov.emit(
                    "structural",
                    kind::ADDRESS_TAKEN,
                    target,
                    target + 1,
                    Priority::Structural as u8,
                    NO_CLASS,
                    0.0,
                    cause,
                );
                if self.accept_and_propagate(target, Priority::Structural as u8, cause)
                    && !self.jt_targets.contains(&target)
                {
                    self.func_starts.insert(target);
                }
            }
        }
        let items = (self.decisions[Priority::Structural as usize] - before) as u64;
        trace.record(
            "structural",
            sw.elapsed_ns(),
            image.text.len() as u64,
            items,
        );
        spans.counter(sp, "decisions", items);
        spans.end(sp);
        obs::log::emit(
            Level::Info,
            "structural",
            Some(sp),
            "phase done",
            &[("decisions", items.into())],
        );
    }

    /// Statistical hints over every still-undecided region.
    fn statistical_phase(
        &mut self,
        cfg: &Config,
        text: &[u8],
        trace: &mut PipelineTrace,
        spans: &mut SpanSet,
    ) {
        if !cfg.enable_stats {
            return;
        }
        if self.deadline.exceeded() {
            trace.degradations.push(Degradation {
                phase: "stats.train",
                limit: LimitKind::Deadline,
                completed: 0,
            });
            return;
        }
        let nb = text.len() as u64;
        let sp = spans.begin("stats.train");
        let sw = Stopwatch::start();
        let (model, train_deg) = match &cfg.model {
            Some(m) => (Some(m.clone()), None),
            None => self_train(text, self.viab, &self.cells, cfg.limits.max_train_tokens),
        };
        trace.degradations.extend(train_deg);
        trace.record("stats.train", sw.elapsed_ns(), nb, model.is_some() as u64);
        spans.counter(sp, "trained", model.is_some() as u64);
        spans.end(sp);
        obs::log::emit(
            Level::Info,
            "stats.train",
            Some(sp),
            "phase done",
            &[("trained", Value::Bool(model.is_some()))],
        );
        if let Some(model) = model {
            let sp = spans.begin("stats.classify");
            let sw = Stopwatch::start();
            self.cur_phase = "stats.classify";
            let before = self.decisions[Priority::Statistical as usize];
            self.statistical_pass(&model, text, cfg.llr_threshold, cfg.enable_defuse);
            let items = (self.decisions[Priority::Statistical as usize] - before) as u64;
            trace.record("stats.classify", sw.elapsed_ns(), nb, items);
            spans.counter(sp, "decisions", items);
            spans.end(sp);
            obs::log::emit(
                Level::Info,
                "stats.classify",
                Some(sp),
                "phase done",
                &[("decisions", items.into())],
            );
        }
    }

    fn effective(&self, p: u8) -> u8 {
        if self.cfg.prioritized {
            p
        } else {
            Priority::Structural as u8
        }
    }

    /// Accept the candidate at `start` and everything its control flow
    /// forces, at the given priority. Control flow *out of* accepted code is
    /// promoted to `Structural` strength even when the root acceptance was
    /// only `Statistical` — this is what lets a confident region repair
    /// earlier mistakes in regions it references. Returns `true` if `start`
    /// itself ended up accepted (now or previously). `cause` is the evidence
    /// address recorded for `start`'s acceptance (a predecessor, jump-table
    /// offset, or constant site; [`NO_CAUSE`] for roots like the entry) —
    /// propagated acceptances record the predecessor they flowed from.
    fn accept_and_propagate(&mut self, start: u32, prio: u8, cause: u32) -> bool {
        let mut work = vec![(start, prio, cause)];
        let mut accepted_root = false;
        while let Some((off, p, cz)) = work.pop() {
            if !self.step_ok() {
                break;
            }
            let child_prio = p.min(Priority::Structural as u8);
            match self.try_accept(off, p) {
                Accept::New => {
                    if off == start {
                        accepted_root = true;
                    }
                    let c = self.ss.at(off);
                    self.prov.emit(
                        self.cur_phase,
                        kind::ACCEPT,
                        off,
                        off + c.len as u32,
                        p.min(4),
                        NO_CLASS,
                        0.0,
                        cz,
                    );
                    if let Some(next) = self.ss.fallthrough(off) {
                        work.push((next, child_prio, off));
                    }
                    if matches!(c.flow, CandFlow::Jmp | CandFlow::Cond | CandFlow::Call)
                        && c.target != crate::superset::NO_TARGET
                    {
                        if c.flow == CandFlow::Call {
                            self.func_starts.insert(c.target);
                        }
                        work.push((c.target, child_prio, off));
                    }
                }
                Accept::Already => {
                    if off == start {
                        accepted_root = true;
                    }
                }
                Accept::Rejected => {}
            }
        }
        accepted_root
    }

    /// Try to accept a single candidate at `start`.
    fn try_accept(&mut self, start: u32, prio_raw: u8) -> Accept {
        let prio = self.effective(prio_raw);
        let s = start as usize;
        if s >= self.cells.len() {
            return Accept::Rejected;
        }
        let cand = self.ss.at(start);
        if !cand.is_valid() || !self.viab.is_viable(start) {
            return Accept::Rejected;
        }
        if self.cells[s].kind == CellKind::Owner(start) {
            return Accept::Already;
        }
        let end = s + cand.len as usize;
        if end > self.cells.len() {
            return Accept::Rejected;
        }
        // Conflict scan: every byte must be free or strictly weaker.
        for b in s..end {
            let cell = self.cells[b];
            match cell.kind {
                CellKind::Un => {}
                _ => {
                    if cell.prio <= prio {
                        return Accept::Rejected;
                    }
                }
            }
        }
        // Evict weaker owners / data.
        for b in s..end {
            let cell = self.cells[b];
            match cell.kind {
                CellKind::Un => {}
                CellKind::Owner(owner) => {
                    let len = self.ss.at(owner).len as u32;
                    self.erase_inst(owner);
                    self.corrections.push(Correction {
                        offset: owner,
                        loser: Priority::from_u8(cell.prio),
                        winner: Priority::from_u8(prio),
                        to_code: true,
                    });
                    self.prov.emit(
                        self.cur_phase,
                        kind::CORRECTION,
                        owner,
                        owner + len,
                        prio,
                        cell.prio,
                        1.0,
                        start,
                    );
                }
                CellKind::Data | CellKind::Pad => {
                    self.cells[b] = FREE;
                    self.corrections.push(Correction {
                        offset: b as u32,
                        loser: Priority::from_u8(cell.prio),
                        winner: Priority::from_u8(prio),
                        to_code: true,
                    });
                    self.prov.emit(
                        self.cur_phase,
                        kind::CORRECTION,
                        b as u32,
                        b as u32 + 1,
                        prio,
                        cell.prio,
                        1.0,
                        start,
                    );
                }
            }
        }
        for b in s..end {
            self.cells[b] = Cell {
                kind: CellKind::Owner(start),
                prio,
            };
        }
        self.decisions[prio_raw.min(4) as usize] += 1;
        Accept::New
    }

    fn erase_inst(&mut self, owner: u32) {
        let len = self.ss.at(owner).len as usize;
        for b in owner as usize..(owner as usize + len).min(self.cells.len()) {
            if self.cells[b].kind == CellKind::Owner(owner) {
                self.cells[b] = FREE;
            }
        }
    }

    /// Mark `[start, end)` as data/padding at `prio`, byte-wise: stronger
    /// existing decisions survive, weaker ones are evicted and logged.
    /// `cause` is the evidence address recorded on correction events.
    fn mark_range(&mut self, start: u32, end: u32, kind: CellKind, prio_raw: u8, cause: u32) {
        let prio = self.effective(prio_raw);
        let end = (end as usize).min(self.cells.len());
        for b in start as usize..end {
            let cell = self.cells[b];
            match cell.kind {
                CellKind::Un => {
                    self.cells[b] = Cell { kind, prio };
                }
                CellKind::Owner(owner) => {
                    if cell.prio > prio {
                        let len = self.ss.at(owner).len as u32;
                        self.erase_inst(owner);
                        self.corrections.push(Correction {
                            offset: owner,
                            loser: Priority::from_u8(cell.prio),
                            winner: Priority::from_u8(prio),
                            to_code: false,
                        });
                        self.prov.emit(
                            self.cur_phase,
                            crate::provenance::kind::CORRECTION,
                            owner,
                            owner + len,
                            prio,
                            cell.prio,
                            0.0,
                            cause,
                        );
                        self.cells[b] = Cell { kind, prio };
                    }
                }
                CellKind::Data | CellKind::Pad => {
                    if cell.prio > prio {
                        self.cells[b] = Cell { kind, prio };
                    }
                }
            }
        }
        self.decisions[prio_raw.min(4) as usize] += 1;
    }

    /// End of the undecided gap that starts at `o`.
    fn gap_end(&self, o: u32) -> u32 {
        let mut e = o as usize;
        while e < self.cells.len() && self.cells[e].kind == CellKind::Un {
            e += 1;
        }
        e as u32
    }

    /// Statistical classification of every remaining undecided region.
    fn statistical_pass(&mut self, model: &StatModel, text: &[u8], threshold: f64, defuse: bool) {
        let n = self.cells.len();
        let mut o = 0u32;
        while (o as usize) < n {
            if self.cells[o as usize].kind != CellKind::Un {
                o += 1;
                continue;
            }
            // each undecided region evaluated counts against the shared
            // correction-step budget; leftovers fall to the data default
            if !self.step_ok() {
                break;
            }
            let gap_end = self.gap_end(o);
            // padding run: a maximal NOP/int3 tiling that fills the gap or
            // reaches an alignment boundary
            if let Some(pe) = self.padding_prefix(o, gap_end) {
                self.prov.emit(
                    self.cur_phase,
                    kind::PADDING,
                    o,
                    pe,
                    Priority::Statistical as u8,
                    NO_CLASS,
                    0.0,
                    NO_CAUSE,
                );
                self.mark_range(o, pe, CellKind::Pad, Priority::Statistical as u8, NO_CAUSE);
                o = pe;
                continue;
            }
            let cand = self.ss.at(o);
            if !cand.is_valid() || !self.viab.is_viable(o) {
                self.mark_range(o, o + 1, CellKind::Data, Priority::Default as u8, NO_CAUSE);
                o += 1;
                continue;
            }
            // maximal undecided fall-through chain from o
            let chain = self.undecided_chain(o, 256);
            let classes: Vec<OpClass> = chain.iter().map(|&c| self.ss.at(c).opclass).collect();
            let mut score = model.score_chain(&classes);
            if defuse {
                let (links, pairs) = crate::behavior::count_links(text, &chain);
                score += model.defuse_chain_score(links, pairs);
            }
            let chain_len = chain.len();
            let chain_end = chain
                .last()
                .map(|&c| c + self.ss.at(c).len as u32)
                .unwrap_or(o + 1);
            // Long viable chains are themselves strong evidence: random
            // data almost never survives 16+ consecutive decodes without
            // hitting an invalid encoding, so the score bar drops for them.
            let long_chain = chain_len >= 16;
            let accept =
                chain_len > 0 && (score >= threshold || (long_chain && score >= threshold / 3.0));
            if accept {
                self.prov.emit(
                    self.cur_phase,
                    kind::STAT_ACCEPT,
                    o,
                    chain_end,
                    Priority::Statistical as u8,
                    NO_CLASS,
                    score as f32,
                    NO_CAUSE,
                );
                self.accept_and_propagate(o, Priority::Statistical as u8, NO_CAUSE);
            } else {
                self.prov.emit(
                    self.cur_phase,
                    kind::STAT_REJECT,
                    o,
                    o + 1,
                    Priority::Default as u8,
                    NO_CLASS,
                    score as f32,
                    NO_CAUSE,
                );
                self.mark_range(o, o + 1, CellKind::Data, Priority::Default as u8, NO_CAUSE);
            }
            o += 1;
        }
    }

    /// Fall-through chain from `off` staying entirely within undecided
    /// bytes.
    fn undecided_chain(&self, off: u32, cap: usize) -> Vec<u32> {
        let mut out = Vec::new();
        let mut cur = off;
        while out.len() < cap {
            let c = match self.ss.get(cur) {
                Some(c) if c.is_valid() && self.viab.is_viable(cur) => c,
                _ => break,
            };
            let end = cur as usize + c.len as usize;
            if end > self.cells.len()
                || self.cells[cur as usize..end]
                    .iter()
                    .any(|cell| cell.kind != CellKind::Un)
            {
                break;
            }
            out.push(cur);
            match self.ss.fallthrough(cur) {
                Some(next) => cur = next,
                None => break,
            }
        }
        out
    }

    /// A padding tiling starting at `o` counts as real padding when it
    /// either fills the whole undecided gap or ends on a 16-byte alignment
    /// boundary (where the next function would start).
    fn padding_prefix(&self, o: u32, gap_end: u32) -> Option<u32> {
        let pe = padding::padding_prefix_end(self.ss, o, gap_end);
        (pe > o && (pe == gap_end || pe.is_multiple_of(16))).then_some(pe)
    }

    /// Classify remaining undecided padding runs (needed when statistics are
    /// disabled in ablations).
    fn padding_pass(&mut self) {
        let n = self.cells.len();
        let mut o = 0u32;
        while (o as usize) < n {
            if self.cells[o as usize].kind != CellKind::Un {
                o += 1;
                continue;
            }
            let gap_end = self.gap_end(o);
            if let Some(pe) = self.padding_prefix(o, gap_end) {
                self.prov.emit(
                    self.cur_phase,
                    kind::PADDING,
                    o,
                    pe,
                    Priority::Statistical as u8,
                    NO_CLASS,
                    0.0,
                    NO_CAUSE,
                );
                self.mark_range(o, pe, CellKind::Pad, Priority::Statistical as u8, NO_CAUSE);
                o = pe;
            } else {
                o = gap_end.max(o + 1);
            }
        }
    }

    fn finish(
        self,
        tables: Vec<jumptable::DetectedTable>,
        mut trace: PipelineTrace,
    ) -> Disassembly {
        let n = self.cells.len();
        let mut byte_class = Vec::with_capacity(n);
        let mut inst_starts = Vec::new();
        for (i, cell) in self.cells.iter().enumerate() {
            let bc = match cell.kind {
                CellKind::Owner(owner) => {
                    if owner as usize == i {
                        inst_starts.push(owner);
                        ByteClass::InstStart
                    } else {
                        ByteClass::InstBody
                    }
                }
                CellKind::Data | CellKind::Un => ByteClass::Data,
                CellKind::Pad => ByteClass::Padding,
            };
            byte_class.push(bc);
        }
        // A function start only counts if the instruction there actually
        // survived error correction (its candidate may have been rejected
        // outright or displaced by a stronger hint later).
        let func_starts = self
            .func_starts
            .into_iter()
            .filter(|&f| {
                self.cells
                    .get(f as usize)
                    .is_some_and(|c| c.kind == CellKind::Owner(f))
            })
            .collect();
        for c in &self.corrections {
            trace.corrections_by_priority[c.winner as usize] += 1;
        }
        Disassembly {
            byte_class,
            inst_starts,
            func_starts,
            jump_tables: tables,
            corrections: self.corrections,
            decisions_by_priority: self.decisions,
            trace,
            provenance: self.prov,
        }
    }
}

enum Accept {
    New,
    Already,
    Rejected,
}

/// Scan data regions and the text itself for 8-byte constants that decode to
/// viable text offsets ("address taken" hints). Each target carries the
/// in-text offset of the constant that named it (`None` when the constant
/// sat in a data region), recorded as the provenance cause.
fn address_taken(image: &Image, viab: &Viability) -> Vec<(u32, Option<u32>)> {
    let lo = image.text_va;
    let hi = image.text_va + image.text.len() as u64;
    let mut out: BTreeMap<u32, Option<u32>> = BTreeMap::new();
    let mut scan = |bytes: &[u8], in_text: bool| {
        if bytes.len() < 8 {
            return;
        }
        for w in 0..=bytes.len() - 8 {
            let v = u64::from_le_bytes(bytes[w..w + 8].try_into().unwrap());
            if v >= lo && v < hi {
                let off = (v - lo) as u32;
                if viab.is_viable(off) {
                    let site = in_text.then_some(w as u32);
                    out.entry(off).or_insert(site);
                }
            }
        }
    };
    scan(&image.text, true);
    for (_, bytes) in &image.data_regions {
        scan(bytes, false);
    }
    out.into_iter().collect()
}

/// Self-training fallback: learn the code model from the already-accepted
/// (anchor-reachable) instructions and the data model from long runs of
/// non-viable bytes, ingesting at most `max_tokens` training tokens. The
/// model is `None` when the input provides too little signal; the
/// [`Degradation`] is `Some` when the token budget truncated training.
fn self_train(
    text: &[u8],
    viab: &Viability,
    cells: &[Cell],
    max_tokens: Option<u64>,
) -> (Option<StatModel>, Option<Degradation>) {
    let mut b = StatModelBuilder::new();
    b.set_token_budget(max_tokens);
    // code: the accepted (anchor-reachable) instruction stream
    let starts: Vec<u32> = cells
        .iter()
        .enumerate()
        .filter_map(|(i, cell)| match cell.kind {
            CellKind::Owner(owner) if owner as usize == i => Some(owner),
            _ => None,
        })
        .collect();
    b.add_code_stream(text, &starts);
    // data: long maximal runs of non-viable offsets
    let mut run_start = None;
    for o in 0..=text.len() {
        let nonviable = o < text.len() && !viab.is_viable(o as u32);
        match (nonviable, run_start) {
            (true, None) => run_start = Some(o),
            (false, Some(s)) => {
                if o - s >= 16 {
                    b.add_data_tokens(&crate::stats::linear_class_stream(&text[s..o]));
                }
                run_start = None;
            }
            _ => {}
        }
    }
    let deg = b.budget_exhausted().then(|| Degradation {
        phase: "stats.train",
        limit: LimitKind::TrainTokens,
        completed: b.tokens_ingested(),
    });
    let model = b.build();
    (model.is_adequately_trained().then_some(model), deg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use x86_isa::{Asm, Cond, Gp, Mem, OpSize};

    fn disasm(text: Vec<u8>) -> Disassembly {
        let image = Image::new(0x401000, text);
        crate::Disassembler::new(Config::default()).disassemble(&image)
    }

    #[test]
    fn straight_line_code_fully_accepted() {
        let mut a = Asm::new();
        a.push_r(Gp::RBP);
        a.mov_rr(OpSize::Q, Gp::RBP, Gp::RSP);
        a.mov_ri32(Gp::RAX, 7);
        a.pop_r(Gp::RBP);
        a.ret();
        let text = a.finish().unwrap();
        let d = disasm(text);
        assert_eq!(d.inst_starts, vec![0, 1, 4, 9, 10]);
        assert_eq!(d.count(ByteClass::Data), 0);
    }

    #[test]
    fn trailing_garbage_is_data() {
        let mut a = Asm::new();
        a.mov_ri32(Gp::RAX, 0);
        a.ret();
        let mut text = a.finish().unwrap();
        let code_len = text.len();
        text.extend_from_slice(&[0x06, 0x07, 0x06, 0x07, 0xff, 0xff, 0x06, 0x07]);
        let d = disasm(text);
        assert!(d.is_inst_start(0));
        for b in code_len..code_len + 8 {
            assert!(d.byte_class[b].is_data(), "byte {b} should be data");
        }
    }

    #[test]
    fn call_targets_become_function_starts() {
        let mut a = Asm::new();
        let f = a.label();
        a.call_label(f);
        a.ret();
        a.bind(f);
        a.mov_ri32(Gp::RAX, 1);
        a.ret();
        let text = a.finish().unwrap();
        let d = disasm(text);
        assert!(d.func_starts.contains(&6), "{:?}", d.func_starts);
    }

    #[test]
    fn jump_over_embedded_blob() {
        // entry: jmp over 16 junk bytes, then real code — the blob must be
        // data, the code after it accepted via the anchor jump edge.
        let mut a = Asm::new();
        let skip = a.label();
        a.jmp_short(skip);
        a.bytes(&[0x06; 16]);
        a.bind(skip);
        a.mov_ri32(Gp::RAX, 3);
        a.ret();
        let text = a.finish().unwrap();
        let d = disasm(text);
        assert!(d.is_inst_start(0));
        assert!(d.is_inst_start(18));
        for b in 2..18 {
            assert!(d.byte_class[b].is_data(), "byte {b}");
        }
    }

    #[test]
    fn padding_between_functions_recognized() {
        let mut a = Asm::new();
        a.mov_ri32(Gp::RAX, 0);
        a.ret();
        while !a.len().is_multiple_of(16) {
            a.nop(1);
        }
        let pad_end = a.len();
        a.mov_ri32(Gp::RAX, 1);
        a.ret();
        let text = a.finish().unwrap();
        let d = disasm(text);
        for b in 6..pad_end {
            assert_eq!(d.byte_class[b], ByteClass::Padding, "byte {b}");
        }
    }

    #[test]
    fn jump_table_bytes_marked_data_and_cases_code() {
        let mut a = Asm::new();
        let l_table = a.label();
        let l_default = a.label();
        let l_end = a.label();
        let cases: Vec<_> = (0..4).map(|_| a.label()).collect();
        a.cmp_ri(OpSize::Q, Gp::RDI, 3);
        a.jcc_label(Cond::A, l_default);
        a.lea_rip_label(Gp::RAX, l_table);
        a.movsxd_load(Gp::RCX, Mem::base_index(Gp::RAX, Gp::RDI, 4, 0));
        a.add_rr(OpSize::Q, Gp::RCX, Gp::RAX);
        a.jmp_ind(Gp::RCX);
        a.bind(l_table);
        let t0 = a.len();
        for &c in &cases {
            a.dd_label_diff(c, l_table);
        }
        let t1 = a.len();
        let mut case_offs = vec![];
        for &c in &cases {
            a.bind(c);
            case_offs.push(a.len() as u32);
            a.mov_ri32(Gp::RAX, 5);
            a.jmp_label(l_end);
        }
        a.bind(l_default);
        a.mov_ri32(Gp::RAX, 0);
        a.bind(l_end);
        a.ret();
        let text = a.finish().unwrap();
        let d = disasm(text);
        assert_eq!(d.jump_tables.len(), 1);
        for b in t0..t1 {
            assert!(d.byte_class[b].is_data(), "table byte {b}");
        }
        for &c in &case_offs {
            assert!(d.is_inst_start(c), "case at {c}");
        }
    }

    #[test]
    fn address_taken_function_found_via_data_region() {
        // A function NOT reachable from the entry, but whose address sits in
        // .rodata. Entry just returns.
        let mut a = Asm::new();
        a.ret();
        a.bytes(&[0x06; 7]); // filler so the target isn't adjacent
        let f_off = a.len() as u32;
        a.push_r(Gp::RBP);
        a.mov_rr(OpSize::Q, Gp::RBP, Gp::RSP);
        a.pop_r(Gp::RBP);
        a.ret();
        let text = a.finish().unwrap();
        let va = 0x401000u64;
        let image = Image::new(va, text)
            .with_data_region(0x500000, (va + f_off as u64).to_le_bytes().to_vec());
        let d = crate::Disassembler::new(Config::default()).disassemble(&image);
        assert!(d.is_inst_start(f_off));
        assert!(d.func_starts.contains(&f_off));
    }

    #[test]
    fn decisions_counted_per_priority() {
        let mut a = Asm::new();
        a.mov_ri32(Gp::RAX, 1);
        a.ret();
        let d = disasm(a.finish().unwrap());
        assert!(d.decisions_by_priority[Priority::Anchor as usize] >= 2);
    }

    #[test]
    fn ablation_flags_do_not_crash() {
        let mut a = Asm::new();
        a.mov_ri32(Gp::RAX, 1);
        a.ret();
        a.bytes(&[0xaa; 32]);
        let text = a.finish().unwrap();
        for (v, j, at, st, pr) in [
            (false, true, true, true, true),
            (true, false, true, true, true),
            (true, true, false, true, true),
            (true, true, true, false, true),
            (true, true, true, true, false),
        ] {
            let cfg = Config {
                enable_viability: v,
                enable_jump_tables: j,
                enable_address_taken: at,
                enable_stats: st,
                prioritized: pr,
                ..Config::default()
            };
            let d = crate::Disassembler::new(cfg).disassemble(&Image::new(0x1000, text.clone()));
            assert!(d.is_inst_start(0));
        }
    }
}
