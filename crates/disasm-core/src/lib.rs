//! # disasm-core
//!
//! Metadata-free disassembly of complex x86-64 binaries — the primary
//! contribution of the reproduced paper.
//!
//! The pipeline combines three ingredient families, then fuses them with a
//! **prioritized error correction** fixpoint:
//!
//! 1. **Superset disassembly** ([`superset`]): decode a candidate instruction
//!    at *every* byte offset of the text section.
//! 2. **Behavioral properties of code to flag data** ([`viability`],
//!    [`jumptable`], [`padding`]): candidates whose required successors run
//!    into invalid bytes cannot be real code; structurally detected jump
//!    tables prove their bytes are data; padding runs are recognized from
//!    layout.
//! 3. **Statistical properties of data to detect code** ([`stats`]): an
//!    order-2 Markov model over coarse opcode classes separates
//!    compiler-emitted instruction streams from decoded garbage.
//!
//! The [`correct`] module implements the prioritized error correction
//! algorithm that arbitrates between conflicting hints, strongest first,
//! recording every override it performs.
//!
//! ## Example
//!
//! ```
//! use disasm_core::{Config, Disassembler, Image};
//!
//! // 'push rbp; mov rbp,rsp; pop rbp; ret' followed by 4 data bytes that
//! // happen to decode as garbage.
//! let text = vec![0x55, 0x48, 0x89, 0xe5, 0x5d, 0xc3, 0x06, 0x06, 0x06, 0x06];
//! let image = Image::new(0x1000, text);
//! let result = Disassembler::new(Config::default()).disassemble(&image);
//! assert!(result.inst_starts.contains(&0));
//! assert!(result.byte_class[6].is_data());
//! ```

#![forbid(unsafe_code)]
#![allow(clippy::needless_range_loop)] // indexed loops over parallel arrays are intentional
#![warn(missing_docs)]

pub mod behavior;
pub mod cfg;
pub mod correct;
pub mod datatype;
pub mod diff;
pub mod jumptable;
pub mod limits;
pub mod listing;
pub mod padding;
pub mod par;
pub mod provenance;
pub mod report;
pub mod stats;
pub mod superset;
pub mod trace;
pub mod viability;

pub use cfg::{BasicBlock, Cfg};
pub use correct::{Correction, Priority};
pub use datatype::{classify_data_regions, DataKind, DataRegion};
pub use diff::{
    diff, diff_trace_reports, DisasmDiff, TraceDiffConfig, TraceDiffReport, TraceRegression,
};
pub use jumptable::DetectedTable;
pub use limits::{Deadline, Degradation, LimitKind, Limits};
pub use listing::{render as render_listing, ListingOptions};
pub use provenance::{explain, Explanation, Prov};
pub use report::{FunctionExtent, Report};
pub use stats::StatModel;
pub use superset::Superset;
pub use trace::{PhaseStat, PipelineTrace};

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Analysis input: one executable text region plus optional non-executable
/// data regions (used only for address-taken scanning — no symbols, no
/// relocations, no unwind info, per the paper's threat model).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Image {
    /// Virtual address of the first text byte.
    pub text_va: u64,
    /// Text bytes.
    pub text: Vec<u8>,
    /// Entry point as an offset into `text`, if known.
    pub entry: Option<u32>,
    /// Non-executable data regions `(va, bytes)`.
    pub data_regions: Vec<(u64, Vec<u8>)>,
}

impl Image {
    /// New image with an entry point at the first text byte.
    pub fn new(text_va: u64, text: Vec<u8>) -> Image {
        Image {
            text_va,
            text,
            entry: Some(0),
            data_regions: Vec::new(),
        }
    }

    /// Set the entry-point offset.
    pub fn with_entry(mut self, entry: u32) -> Image {
        self.entry = Some(entry);
        self
    }

    /// Add a non-executable data region.
    pub fn with_data_region(mut self, va: u64, bytes: Vec<u8>) -> Image {
        self.data_regions.push((va, bytes));
        self
    }

    /// Build an image from a parsed ELF: the first executable section
    /// becomes the text region; allocatable non-executable PROGBITS sections
    /// become data regions.
    ///
    /// Returns `None` if the ELF has no executable section.
    pub fn from_elf(elf: &elfobj::Elf) -> Option<Image> {
        let text_sec = elf.exec_sections().next()?;
        let entry = if text_sec.contains(elf.entry) {
            Some((elf.entry - text_sec.addr) as u32)
        } else {
            None
        };
        let mut img = Image {
            text_va: text_sec.addr,
            text: text_sec.data.clone(),
            entry,
            data_regions: Vec::new(),
        };
        for s in &elf.sections {
            if !s.is_exec() && s.flags & elfobj::SHF_ALLOC != 0 && !s.data.is_empty() {
                img.data_regions.push((s.addr, s.data.clone()));
            }
        }
        Some(img)
    }

    /// Number of text bytes.
    pub fn len(&self) -> usize {
        self.text.len()
    }

    /// `true` if the text region is empty.
    pub fn is_empty(&self) -> bool {
        self.text.is_empty()
    }
}

/// Final classification of one text byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ByteClass {
    /// First byte of an accepted instruction.
    InstStart,
    /// Interior byte of an accepted instruction.
    InstBody,
    /// Data.
    Data,
    /// Alignment or inter-function padding.
    Padding,
}

impl ByteClass {
    /// `true` for `InstStart` / `InstBody` / `Padding` (executable bytes).
    pub fn is_code(self) -> bool {
        !self.is_data()
    }

    /// `true` for `Data`.
    pub fn is_data(self) -> bool {
        matches!(self, ByteClass::Data)
    }
}

/// Pipeline configuration. The boolean switches exist for the ablation study
/// (Table 4); defaults enable everything.
#[derive(Debug, Clone)]
pub struct Config {
    /// Statistical model; when `None` the disassembler self-trains a model
    /// from high-confidence regions of the input (recursive traversal from
    /// the entry point for code, non-viable bytes for data).
    pub model: Option<StatModel>,
    /// Log-likelihood-ratio decision threshold for statistical hints.
    /// Long viable chains (16+ instructions) are accepted at a third of
    /// this bar, which keeps recall insensitive to the threshold; the
    /// default (2.5) sits at the error minimum of the training corpora
    /// (figure 5 reports the sensitivity).
    pub llr_threshold: f64,
    /// Behavioral analysis: invalid-fall-through viability closure.
    pub enable_viability: bool,
    /// Structural analysis: jump-table detection.
    pub enable_jump_tables: bool,
    /// Structural analysis: address-taken constant scanning.
    pub enable_address_taken: bool,
    /// Statistical classification of undecided regions.
    pub enable_stats: bool,
    /// Fold the register def-use link rate into the statistical score.
    pub enable_defuse: bool,
    /// Prioritized correction: stronger hints may override weaker earlier
    /// decisions. `false` degrades to first-decision-wins (ablation).
    pub prioritized: bool,
    /// Hint arrival order: `false` (default) applies structural hints before
    /// statistical ones; `true` simulates the adversarial arrival order
    /// (statistics first). With `prioritized` on, the error correction
    /// repairs the early statistical mistakes — this is what figure 4
    /// measures; with `prioritized` off it reproduces the naive tools.
    pub stats_first: bool,
    /// Resource budgets: phase iteration caps, jump-table entry cap, and
    /// the wall-clock deadline. Fully permissive by default; every budget
    /// hit is recorded as a [`Degradation`] in the result's trace.
    pub limits: Limits,
    /// Collect the per-byte evidence ledger ([`provenance`]) so
    /// [`explain`] can reconstruct why each byte got its final label.
    /// Off by default: disabled collection costs one branch per emission
    /// site, keeping the bench overhead budget intact.
    pub collect_provenance: bool,
    /// Width of the file-level worker pools that run whole binaries in
    /// parallel ([`par::run_jobs`]: the `serve` dispatcher and batch
    /// intake, the evaluation harness). One binary's pipeline always runs
    /// on one thread, so its output never depends on this value; the trace
    /// records it as `threads`. Defaults to [`par::default_threads`] (the
    /// `METADIS_THREADS` environment variable, else the machine's
    /// available parallelism).
    pub threads: usize,
    /// Test hook: panic inside the pipeline to exercise the
    /// `catch_unwind` → linear-sweep fallback path. Not part of the public
    /// contract.
    #[doc(hidden)]
    pub inject_panic: bool,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            model: None,
            llr_threshold: 2.5,
            enable_viability: true,
            enable_jump_tables: true,
            enable_address_taken: true,
            enable_stats: true,
            enable_defuse: true,
            prioritized: true,
            stats_first: false,
            limits: Limits::default(),
            collect_provenance: false,
            threads: par::default_threads(),
            inject_panic: false,
        }
    }
}

/// The result of disassembling an [`Image`].
#[derive(Debug, Clone)]
pub struct Disassembly {
    /// Per-byte classification of the text region.
    pub byte_class: Vec<ByteClass>,
    /// Sorted offsets of accepted instruction starts (excluding padding).
    pub inst_starts: Vec<u32>,
    /// Sorted offsets of identified function entry points.
    pub func_starts: Vec<u32>,
    /// Structurally detected jump tables.
    pub jump_tables: Vec<DetectedTable>,
    /// Error-correction log: every decision override, in application order.
    pub corrections: Vec<Correction>,
    /// Count of decisions applied per priority class (for the convergence
    /// figure).
    pub decisions_by_priority: [usize; Priority::COUNT],
    /// Where the wall time went: per-phase timing, viability fixpoint
    /// iterations, corrections per priority class.
    pub trace: PipelineTrace,
    /// Per-byte evidence ledger (empty unless
    /// [`Config::collect_provenance`] was set; query with [`explain`]).
    pub provenance: Prov,
}

impl Disassembly {
    /// `true` if offset `off` was accepted as an instruction start.
    pub fn is_inst_start(&self, off: u32) -> bool {
        self.inst_starts.binary_search(&off).is_ok()
    }

    /// Count of text bytes classified as the given class.
    pub fn count(&self, class: ByteClass) -> usize {
        self.byte_class.iter().filter(|&&c| c == class).count()
    }
}

impl fmt::Display for Disassembly {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} instructions, {} functions, {} jump tables, {} data bytes, {} corrections",
            self.inst_starts.len(),
            self.func_starts.len(),
            self.jump_tables.len(),
            self.count(ByteClass::Data),
            self.corrections.len()
        )
    }
}

/// The disassembler: construct once (optionally with a pre-trained
/// [`StatModel`]), then run on any number of images.
#[derive(Debug, Clone, Default)]
pub struct Disassembler {
    config: Config,
}

impl Disassembler {
    /// Create a disassembler with the given configuration.
    pub fn new(config: Config) -> Disassembler {
        Disassembler { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &Config {
        &self.config
    }

    /// Disassemble an image: superset decode, behavioral and statistical
    /// hint generation, prioritized error correction.
    ///
    /// The pipeline runs behind a panic boundary: a bug in any phase
    /// degrades the run to a plain linear-sweep disassembly whose trace
    /// carries a [`LimitKind::PhasePanicked`] degradation record, instead
    /// of unwinding into the caller.
    pub fn disassemble(&self, image: &Image) -> Disassembly {
        match catch_unwind(AssertUnwindSafe(|| correct::run(&self.config, image))) {
            Ok(d) => d,
            Err(_) => {
                obs::log::error(
                    "pipeline",
                    "phase panicked, degrading to linear sweep",
                    &[("bytes", (image.text.len() as u64).into())],
                );
                fallback_linear(image, self.config.collect_provenance)
            }
        }
    }
}

/// Last-resort disassembly used when a pipeline phase panics: a linear
/// sweep from the first byte, skipping one byte on invalid encodings.
/// Produces a fully classified (if unsophisticated) result so callers
/// always receive a [`Disassembly`] covering every text byte.
fn fallback_linear(image: &Image, collect_provenance: bool) -> Disassembly {
    let sw = obs::Stopwatch::start();
    let text = &image.text;
    let mut byte_class = vec![ByteClass::Data; text.len()];
    let mut inst_starts = Vec::new();
    let mut pos = 0usize;
    while pos < text.len() {
        match x86_isa::decode(&text[pos..]) {
            Ok(inst) => {
                let end = pos + inst.len as usize;
                byte_class[pos] = ByteClass::InstStart;
                inst_starts.push(pos as u32);
                for b in &mut byte_class[pos + 1..end] {
                    *b = ByteClass::InstBody;
                }
                pos = end;
            }
            Err(_) => pos += 1,
        }
    }
    let mut trace = PipelineTrace::new();
    trace.record(
        "fallback.linear",
        sw.elapsed_ns(),
        text.len() as u64,
        inst_starts.len() as u64,
    );
    trace.degradations.push(Degradation {
        phase: "pipeline",
        limit: LimitKind::PhasePanicked,
        completed: 0,
    });
    trace.total_wall_ns = sw.elapsed_ns();
    trace.text_bytes = text.len() as u64;
    trace.runs = 1;
    let mut spans = obs::SpanSet::new();
    let root = spans.begin("pipeline");
    let fb = spans.begin("fallback.linear");
    spans.counter(fb, "items", inst_starts.len() as u64);
    spans.end(fb);
    spans.end(root);
    trace.spans = spans.finish();
    trace.adopt_root_alloc();
    obs::log::warn(
        "fallback.linear",
        "linear-sweep fallback complete",
        &[("instructions", (inst_starts.len() as u64).into())],
    );
    let mut prov = Prov::new(collect_provenance);
    prov.emit(
        "fallback.linear",
        provenance::kind::FALLBACK,
        0,
        text.len() as u32,
        provenance::NO_CLASS,
        0,
        inst_starts.len() as f32,
        obs::provenance::NO_CAUSE,
    );
    let func_starts = image
        .entry
        .filter(|&e| inst_starts.binary_search(&e).is_ok())
        .into_iter()
        .collect();
    Disassembly {
        byte_class,
        inst_starts,
        func_starts,
        jump_tables: Vec::new(),
        corrections: Vec::new(),
        decisions_by_priority: [0; Priority::COUNT],
        trace,
        provenance: prov,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_image() {
        let d = Disassembler::new(Config::default()).disassemble(&Image::new(0x1000, vec![]));
        assert!(d.inst_starts.is_empty());
        assert!(d.byte_class.is_empty());
    }

    #[test]
    fn byte_class_predicates() {
        assert!(ByteClass::InstStart.is_code());
        assert!(ByteClass::Padding.is_code());
        assert!(ByteClass::Data.is_data());
        assert!(!ByteClass::Data.is_code());
    }

    #[test]
    fn image_from_elf() {
        let mut elf = elfobj::Elf::new(0x401002);
        elf.push_section(elfobj::Section::progbits(
            ".text",
            0x401000,
            vec![0x90, 0x90, 0xc3],
            true,
        ));
        elf.push_section(elfobj::Section::progbits(
            ".rodata",
            0x402000,
            vec![1, 2, 3],
            false,
        ));
        let img = Image::from_elf(&elf).unwrap();
        assert_eq!(img.text_va, 0x401000);
        assert_eq!(img.entry, Some(2));
        assert_eq!(img.data_regions.len(), 1);
    }

    #[test]
    fn image_from_elf_without_text() {
        let elf = elfobj::Elf::new(0);
        assert!(Image::from_elf(&elf).is_none());
    }
}
