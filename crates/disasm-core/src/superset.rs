//! Superset disassembly: one candidate instruction per byte offset.
//!
//! This is the universe over which all later analyses operate. The candidate
//! table stores a compact summary per offset; analyses that need full operand
//! detail (jump-table detection) re-decode the handful of offsets they care
//! about.
//!
//! Two layers keep construction fast:
//!
//! * decoding goes through [`x86_isa::prescan`] — a length/class-only
//!   projection of the full decoder that never materializes an `Inst` or
//!   heap operands (the full `decode()` stays the slow path for offsets
//!   later phases re-inspect);
//! * storage is a struct-of-arrays arena: one packed `u16` of
//!   length/class/flow/flag bits per offset, plus a sparse sorted
//!   `(offset, target)` table holding only the in-section direct-branch
//!   targets. The [`Candidate`] accessor API is unchanged — callers see the
//!   same by-value candidates the old `Vec<Candidate>` produced.

use crate::limits::{Deadline, Degradation, LimitKind};
use x86_isa::{prescan, Flow, OpClass, Scan};

/// Sentinel for "no direct successor".
pub const NO_TARGET: u32 = u32::MAX;

/// Compact control-flow kind of a candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CandFlow {
    /// Falls through only.
    Seq,
    /// Unconditional direct jump.
    Jmp,
    /// Conditional direct jump (falls through too).
    Cond,
    /// Direct call (falls through).
    Call,
    /// Indirect jump.
    JmpInd,
    /// Indirect call (falls through).
    CallInd,
    /// Return.
    Ret,
    /// Trap / halt.
    Term,
}

/// One superset candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Candidate {
    /// Encoded length (0 ⇒ invalid decode at this offset).
    pub len: u8,
    /// Statistical opcode class.
    pub opclass: OpClass,
    /// Control-flow kind.
    pub flow: CandFlow,
    /// Direct-branch target offset ([`NO_TARGET`] if none or out of
    /// section).
    pub target: u32,
    /// Target fell outside the section (direct branch escaping text).
    pub target_escapes: bool,
    /// Privileged / wildly improbable instruction.
    pub suspicious: bool,
    /// NOP/int3-style padding instruction.
    pub padding: bool,
}

impl Candidate {
    /// `true` if this offset decodes to an instruction at all.
    pub fn is_valid(&self) -> bool {
        self.len > 0
    }

    #[cfg(test)]
    const INVALID: Candidate = Candidate {
        len: 0,
        opclass: OpClass::Other,
        flow: CandFlow::Term,
        target: NO_TARGET,
        target_escapes: false,
        suspicious: false,
        padding: false,
    };
}

// ----- packed storage -----------------------------------------------------
//
// Per-offset meta word: bits 0-3 length (0 ⇒ invalid), 4-9 OpClass index
// (37 classes fit in 6 bits), 10-12 CandFlow, 13 target_escapes,
// 14 suspicious, 15 padding. Direct-branch targets live in a separate
// sorted sparse table — most offsets have none, so a dense 4-byte column
// would waste ~2x the meta table's footprint.

const LEN_MASK: u16 = 0xf;
const CLASS_SHIFT: u16 = 4;
const FLOW_SHIFT: u16 = 10;
const ESCAPES_BIT: u16 = 1 << 13;
const SUSPICIOUS_BIT: u16 = 1 << 14;
const PADDING_BIT: u16 = 1 << 15;

/// Packed form of [`Candidate::INVALID`]: len 0, class `Other` (36), flow
/// `Term` (7), no flags.
const INVALID_META: u16 = (36 << CLASS_SHIFT) | (7 << FLOW_SHIFT);

#[cfg(test)]
fn flow_bits(f: CandFlow) -> u16 {
    match f {
        CandFlow::Seq => 0,
        CandFlow::Jmp => 1,
        CandFlow::Cond => 2,
        CandFlow::Call => 3,
        CandFlow::JmpInd => 4,
        CandFlow::CallInd => 5,
        CandFlow::Ret => 6,
        CandFlow::Term => 7,
    }
}

fn flow_from_bits(b: u16) -> CandFlow {
    match b {
        0 => CandFlow::Seq,
        1 => CandFlow::Jmp,
        2 => CandFlow::Cond,
        3 => CandFlow::Call,
        4 => CandFlow::JmpInd,
        5 => CandFlow::CallInd,
        6 => CandFlow::Ret,
        _ => CandFlow::Term,
    }
}

#[cfg(test)]
fn pack(c: &Candidate) -> u16 {
    u16::from(c.len)
        | ((c.opclass.index() as u16) << CLASS_SHIFT)
        | (flow_bits(c.flow) << FLOW_SHIFT)
        | (u16::from(c.target_escapes) * ESCAPES_BIT)
        | (u16::from(c.suspicious) * SUSPICIOUS_BIT)
        | (u16::from(c.padding) * PADDING_BIT)
}

/// Rebuild a candidate from its meta word and (already looked-up) target.
fn unpack(m: u16, target: u32) -> Candidate {
    Candidate {
        len: (m & LEN_MASK) as u8,
        opclass: OpClass::from_index(((m >> CLASS_SHIFT) & 0x3f) as usize),
        flow: flow_from_bits((m >> FLOW_SHIFT) & 7),
        target,
        target_escapes: m & ESCAPES_BIT != 0,
        suspicious: m & SUSPICIOUS_BIT != 0,
        padding: m & PADDING_BIT != 0,
    }
}

/// `true` if this meta word's flow kind carries an in-section target when
/// the escapes bit is clear (Jmp / Cond / Call).
fn has_direct_target(m: u16) -> bool {
    matches!((m >> FLOW_SHIFT) & 7, 1..=3) && m & ESCAPES_BIT == 0
}

/// Presize estimate for the sparse target table: count the direct-branch
/// lead bytes (Jcc rel8, loop/jrcxz, call/jmp rel, 0F-prefixed Jcc rel32)
/// plus a small slack for prefix-shifted branch opcodes the byte histogram
/// cannot see. Overshoot only costs a few spare slots; undershoot costs one
/// amortized regrow.
fn estimate_targets(text: &[u8]) -> usize {
    let mut n = 0usize;
    let mut prev_0f = false;
    for &b in text {
        n += usize::from(matches!(b, 0x70..=0x7f | 0xe0..=0xe3 | 0xe8 | 0xe9 | 0xeb));
        if prev_0f && (0x80..=0x8f).contains(&b) {
            n += 1;
        }
        prev_0f = b == 0x0f;
    }
    (n + text.len() / 64 + 8).min(text.len())
}

/// The superset table: one [`Candidate`] per text offset, stored as a
/// struct-of-arrays arena (packed meta word + sparse target table).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Superset {
    meta: Vec<u16>,
    /// `(offset, target)` for every valid candidate whose flow is a direct
    /// branch with an in-section target, sorted by offset.
    targets: Vec<(u32, u32)>,
}

impl Superset {
    /// Decode a candidate at every offset of `text`.
    pub fn build(text: &[u8]) -> Superset {
        let (ss, _) = Superset::build_limited(text, None, &Deadline::unlimited());
        ss
    }

    /// Decode candidates under a budget. At most `max_candidates` *valid*
    /// candidates are produced and the deadline is polled every few thousand
    /// offsets; offsets past the cutoff become invalid decodes, which later
    /// phases already treat conservatively (an invalid candidate can never
    /// be accepted as code, so the default data rule still covers its byte).
    pub fn build_limited(
        text: &[u8],
        max_candidates: Option<u64>,
        deadline: &Deadline,
    ) -> (Superset, Option<Degradation>) {
        let n = text.len();
        let mut meta = vec![INVALID_META; n];
        let mut targets = Vec::with_capacity(estimate_targets(text));
        let mut degradation = None;
        if let Some(cap) = max_candidates {
            // the cap counts valid candidates in offset order and stops at
            // an exact offset, which the chunked bulk scan cannot do
            let mut valid: u64 = 0;
            for off in 0..n {
                if valid >= cap {
                    degradation = Some(Degradation {
                        phase: "superset",
                        limit: LimitKind::SupersetCandidates,
                        completed: off as u64,
                    });
                    break;
                }
                if off % POLL == 0 && deadline.exceeded() {
                    degradation = Some(Degradation {
                        phase: "superset",
                        limit: LimitKind::Deadline,
                        completed: off as u64,
                    });
                    break;
                }
                if let Ok(scan) = prescan(&text[off..]) {
                    valid += 1;
                    let (m, target) = scan_meta(off, &scan, n);
                    meta[off] = m;
                    if target != NO_TARGET {
                        targets.push((off as u32, target));
                    }
                }
            }
        } else if let Some(stop) = scan_range(text, &mut meta, &mut targets, deadline) {
            degradation = Some(Degradation {
                phase: "superset",
                limit: LimitKind::Deadline,
                completed: stop as u64,
            });
        }
        (Superset { meta, targets }, degradation)
    }

    /// Candidate at `off`.
    ///
    /// # Panics
    ///
    /// Panics if `off` is out of range.
    pub fn at(&self, off: u32) -> Candidate {
        let m = self.meta[off as usize];
        unpack(m, self.target_of(off, m))
    }

    /// Candidate at `off`, or `None` out of range.
    pub fn get(&self, off: u32) -> Option<Candidate> {
        let m = *self.meta.get(off as usize)?;
        Some(unpack(m, self.target_of(off, m)))
    }

    fn target_of(&self, off: u32, m: u16) -> u32 {
        if !has_direct_target(m) {
            return NO_TARGET;
        }
        match self.targets.binary_search_by_key(&off, |&(o, _)| o) {
            Ok(i) => self.targets[i].1,
            Err(_) => NO_TARGET,
        }
    }

    /// Number of offsets (== text length).
    pub fn len(&self) -> usize {
        self.meta.len()
    }

    /// `true` if the table is empty.
    pub fn is_empty(&self) -> bool {
        self.meta.is_empty()
    }

    /// Iterate `(offset, candidate)` over valid candidates. The sparse
    /// target table is walked with a moving cursor, so a full iteration is
    /// O(offsets + branches) with no per-candidate search.
    pub fn valid(&self) -> impl Iterator<Item = (u32, Candidate)> + '_ {
        let mut cursor = 0usize;
        self.meta.iter().enumerate().filter_map(move |(i, &m)| {
            if m & LEN_MASK == 0 {
                return None;
            }
            let off = i as u32;
            while cursor < self.targets.len() && self.targets[cursor].0 < off {
                cursor += 1;
            }
            let target = match self.targets.get(cursor) {
                Some(&(o, t)) if o == off => t,
                _ => NO_TARGET,
            };
            Some((off, unpack(m, target)))
        })
    }

    /// Fall-through successor of the candidate at `off`, when it has one and
    /// it stays in-section.
    pub fn fallthrough(&self, off: u32) -> Option<u32> {
        let m = self.meta[off as usize];
        let len = m & LEN_MASK;
        if len == 0 {
            return None;
        }
        match flow_from_bits((m >> FLOW_SHIFT) & 7) {
            CandFlow::Seq | CandFlow::Cond | CandFlow::Call | CandFlow::CallInd => {
                let next = off + u32::from(len);
                if (next as usize) < self.meta.len() {
                    Some(next)
                } else {
                    None
                }
            }
            _ => None,
        }
    }

    /// Walk the fall-through chain starting at `off`, yielding each
    /// candidate offset including `off` itself, stopping at control-flow
    /// breaks, invalid decodes or `max` steps.
    pub fn chain(&self, off: u32, max: usize) -> Vec<u32> {
        let mut out = Vec::new();
        let mut cur = off;
        while out.len() < max {
            match self.get(cur) {
                Some(c) if c.is_valid() => {}
                _ => break,
            }
            out.push(cur);
            match self.fallthrough(cur) {
                Some(next) => cur = next,
                None => break,
            }
        }
        out
    }
}

/// Pack a scan into its meta word *without* target resolution (no escapes
/// bit yet) plus the raw branch displacement — the form the chunked builder
/// buffers before its branchless target-extraction pass.
#[inline]
fn scan_parts(scan: &Scan) -> (u16, i32) {
    let base = u16::from(scan.len)
        | ((scan.opclass.index() as u16) << CLASS_SHIFT)
        | (u16::from(scan.suspicious) * SUSPICIOUS_BIT)
        | (u16::from(scan.padding) * PADDING_BIT);
    let (fb, rel) = match scan.flow {
        Flow::Seq => (0u16, 0),
        Flow::JmpRel(r) => (1, r),
        Flow::CondRel(r) => (2, r),
        Flow::CallRel(r) => (3, r),
        Flow::JmpInd => (4, 0),
        Flow::CallInd => (5, 0),
        Flow::Ret => (6, 0),
        Flow::Term => (7, 0),
    };
    (base | (fb << FLOW_SHIFT), rel)
}

/// Resolve a partial meta word's direct-branch target against the section:
/// in-section targets are returned, escaping ones set [`ESCAPES_BIT`].
#[inline]
fn finish_meta(off: usize, m: u16, rel: i32, section_len: usize) -> (u16, u32) {
    let fb = (m >> FLOW_SHIFT) & 7;
    if !(1..=3).contains(&fb) {
        return (m, NO_TARGET);
    }
    let tgt = off as i64 + (m & LEN_MASK) as i64 + rel as i64;
    if tgt >= 0 && (tgt as usize) < section_len {
        (m, tgt as u32)
    } else {
        (m | ESCAPES_BIT, NO_TARGET)
    }
}

/// Pack a scan straight into its meta word and direct-branch target — the
/// per-offset slow path. Equivalent to `pack(&summarize(..))` (the unit
/// tests pin that) without materializing the intermediate [`Candidate`].
#[inline]
fn scan_meta(off: usize, scan: &Scan, section_len: usize) -> (u16, u32) {
    let (m, rel) = scan_parts(scan);
    finish_meta(off, m, rel, section_len)
}

/// Offsets per deadline poll; also the bulk-scan chunk length. Must match
/// the legacy sequential loop's `off % 4096 == 0` poll cadence so degraded
/// runs cut at identical offsets.
const POLL: usize = 4096;

/// Decode every offset of `text` — each against the full remaining slice,
/// exactly like the per-offset reference loop — writing meta words into
/// `meta_out[off]` (pre-filled with [`INVALID_META`]) and appending
/// in-section direct-branch `(off, target)` pairs to `targets` in ascending
/// offset order.
///
/// The text is processed in [`POLL`]-aligned chunks of three passes:
///
/// 1. a branch-free bulk pass over [`x86_isa::prescan_window`] that settles
///    every fast-shape offset *completely* — meta word, escape bit, pending
///    target pair — and reserves a worklist entry plus a sentinel slot in
///    the pending-target buffer for the rest, all with arithmetic appends
///    (superset bytes are adversarially random — any data-dependent branch
///    here is a mispredict, and mispredicts are the entire cost of this
///    phase);
/// 2. a worklist pass running full [`prescan`] on the few offsets with
///    prefix chains, escape maps or handler opcodes, writing each one's
///    target straight into its reserved slot;
/// 3. a compaction sweep over the pending pairs that squeezes the sentinel
///    slots out — offset order is preserved (the targets vec is
///    binary-searched, so order is part of the contract).
///
/// The deadline is polled at offsets ≡ 0 (mod [`POLL`]); on expiry the
/// first unprocessed offset is returned and everything from there on is
/// left invalid, matching the legacy loop's degradation contract bit for
/// bit.
fn scan_range(
    text: &[u8],
    meta_out: &mut [u16],
    targets: &mut Vec<(u32, u32)>,
    deadline: &Deadline,
) -> Option<usize> {
    use x86_isa::{prescan_window, PRESCAN_WIN, WORD_REL_BIT, WORD_SPECIAL};
    // the no-select meta store above relies on the window's sentinel words
    // carrying the invalid-candidate pattern in their low half
    const _: () = assert!(x86_isa::WORD_INVALID as u16 == INVALID_META);
    const _: () = assert!(WORD_SPECIAL as u16 == INVALID_META);
    let n = text.len();
    // last offset the fixed-size window can serve; the remainder (the final
    // few offsets of the text) takes per-offset prescan
    let bulk_end = n.saturating_sub(PRESCAN_WIN - 1);
    // chunk-local scratch, reused across chunks: the slow-path worklist
    // (chunk offset in the low half, reserved pending-target slot in the
    // high half) and the pending target pairs. Only written prefixes are
    // ever read, so no per-chunk clearing happens.
    let mut wlts = [0u64; POLL];
    let mut tbuf = [0u64; POLL];
    let mut base = 0;
    while base < n {
        if base.is_multiple_of(POLL) && deadline.exceeded() {
            return Some(base);
        }
        let lim = ((base / POLL + 1) * POLL).min(n);
        let nf = lim.min(bulk_end).saturating_sub(base);
        // pass 1: branchless bulk scan + arithmetic appends. The loop body
        // must also be free of *bounds-check* branches: the windows/zip
        // iterators make the text and meta accesses provably in-range, and
        // the scratch appends mask their data-dependent indices with the
        // power-of-two scratch size (k and t never actually exceed nf, but
        // that invariant is inductive — the mask proves it to the compiler
        // for one AND each).
        let mut k = 0usize;
        let mut t = 0usize;
        if nf > 0 {
            // in-range: nf > 0 implies base + nf <= bulk_end = n - (WIN - 1)
            let ts = &text[base..base + nf + PRESCAN_WIN - 1];
            let mo = &mut meta_out[base..base + nf];
            for (i, (w, m)) in ts.windows(PRESCAN_WIN).zip(mo.iter_mut()).enumerate() {
                let win: &[u8; PRESCAN_WIN] = w.try_into().unwrap();
                let (word, rel) = prescan_window(win);
                let off = base + i;
                // one unsigned compare covers both escape directions:
                // negative targets wrap far past any section length
                let tgt = (off as u64)
                    .wrapping_add((word & 0xf) as u64)
                    .wrapping_add(rel as i64 as u64);
                let inb = tgt < n as u64;
                let isrel = word & WORD_REL_BIT != 0;
                // the word's low half *is* the candidate meta word — the
                // window contract emits [`CandFlow`] numbering at the meta
                // positions, leaves bit 13 clear for the escape flag, and
                // parks invalid *and* special words as the [`INVALID_META`]
                // pattern (pass 2 overwrites specials), so no final select
                *m = word as u16 | (u16::from(isrel & !inb) * ESCAPES_BIT);
                let special = word == WORD_SPECIAL;
                wlts[k & (POLL - 1)] = i as u64 | ((t as u64) << 32);
                k += usize::from(special);
                // pending-target append (offset low, target high — one
                // store): a resolved pair for every in-section fast branch,
                // a sentinel slot for every slow offset
                let keep = isrel & inb;
                let tsel = 0u64.wrapping_sub(u64::from(keep));
                tbuf[t & (POLL - 1)] =
                    off as u64 | ((tgt << 32) & tsel) | (((NO_TARGET as u64) << 32) & !tsel);
                t += usize::from(keep | special);
            }
        }
        // pass 2: full prescan for the worklist (prefixes, escapes,
        // handlers), each target written in place into its reserved slot
        for j in 0..k {
            let e = wlts[j];
            let off = base + e as u32 as usize;
            if let Ok(scan) = prescan(&text[off..]) {
                let (m, target) = scan_meta(off, &scan, n);
                meta_out[off] = m;
                tbuf[(e >> 32) as usize] = off as u64 | ((target as u64) << 32);
            }
        }
        // pass 3: compact the sentinels out (branchless; tt trails j, so
        // the forward copy is safe) and bulk-append the survivors
        let mut tt = 0usize;
        for j in 0..t {
            tbuf[tt] = tbuf[j];
            tt += usize::from((tbuf[j] >> 32) as u32 != NO_TARGET);
        }
        targets.extend(tbuf[..tt].iter().map(|&e| (e as u32, (e >> 32) as u32)));
        // text tail: windows would run off the buffer, scan one at a time
        for off in (base + nf)..lim {
            if let Ok(scan) = prescan(&text[off..]) {
                let (m, target) = scan_meta(off, &scan, n);
                meta_out[off] = m;
                if target != NO_TARGET {
                    targets.push((off as u32, target));
                }
            }
        }
        base = lim;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn candidates_at_every_offset() {
        // mov rbp,rsp ; ret — offsets 1 and 2 decode to *something else*
        let text = vec![0x48, 0x89, 0xe5, 0xc3];
        let ss = Superset::build(&text);
        assert_eq!(ss.len(), 4);
        assert!(ss.at(0).is_valid());
        assert_eq!(ss.at(0).len, 3);
        // offset 1: 89 e5 = mov ebp, esp (valid overlap)
        assert!(ss.at(1).is_valid());
        assert_eq!(ss.at(1).len, 2);
        assert_eq!(ss.at(3).flow, CandFlow::Ret);
    }

    #[test]
    fn branch_targets_resolved_to_offsets() {
        // jmp +2 ; nop ; nop ; ret
        let text = vec![0xeb, 0x02, 0x90, 0x90, 0xc3];
        let ss = Superset::build(&text);
        assert_eq!(ss.at(0).flow, CandFlow::Jmp);
        assert_eq!(ss.at(0).target, 4);
    }

    #[test]
    fn escaping_branch_flagged() {
        let text = vec![0xeb, 0x7f]; // jmp +127 — exits the 2-byte section
        let ss = Superset::build(&text);
        assert!(ss.at(0).target_escapes);
        assert_eq!(ss.at(0).target, NO_TARGET);
    }

    #[test]
    fn invalid_offsets_are_invalid() {
        let text = vec![0x06, 0x07]; // both invalid in 64-bit mode
        let ss = Superset::build(&text);
        assert!(!ss.at(0).is_valid());
        assert!(!ss.at(1).is_valid());
    }

    #[test]
    fn fallthrough_and_chain() {
        // nop; nop; ret
        let text = vec![0x90, 0x90, 0xc3];
        let ss = Superset::build(&text);
        assert_eq!(ss.fallthrough(0), Some(1));
        assert_eq!(ss.fallthrough(2), None); // ret
        assert_eq!(ss.chain(0, 10), vec![0, 1, 2]);
        assert_eq!(ss.chain(0, 2), vec![0, 1]);
    }

    #[test]
    fn truncated_tail_is_invalid() {
        // e8 = call rel32 but only 3 bytes follow
        let text = vec![0xe8, 0x00, 0x00, 0x00];
        let ss = Superset::build(&text);
        assert!(!ss.at(0).is_valid());
    }

    #[test]
    fn packed_invalid_meta_matches_candidate() {
        assert_eq!(pack(&Candidate::INVALID), INVALID_META);
        assert_eq!(unpack(INVALID_META, NO_TARGET), Candidate::INVALID);
    }

    #[test]
    fn pack_roundtrips_every_field() {
        for class in OpClass::all() {
            for flow in [
                CandFlow::Seq,
                CandFlow::Jmp,
                CandFlow::Cond,
                CandFlow::Call,
                CandFlow::JmpInd,
                CandFlow::CallInd,
                CandFlow::Ret,
                CandFlow::Term,
            ] {
                for bits in 0..8u8 {
                    let c = Candidate {
                        len: 11,
                        opclass: class,
                        flow,
                        target: NO_TARGET,
                        target_escapes: bits & 1 != 0,
                        suspicious: bits & 2 != 0,
                        padding: bits & 4 != 0,
                    };
                    assert_eq!(unpack(pack(&c), NO_TARGET), c);
                }
            }
        }
    }

    #[test]
    fn candidate_cap_truncates_but_preserves_length() {
        let text = vec![0x90; 16];
        let (ss, deg) = Superset::build_limited(&text, Some(4), &Deadline::unlimited());
        assert_eq!(ss.len(), 16);
        let deg = deg.expect("cap should trip");
        assert_eq!(deg.phase, "superset");
        assert_eq!(deg.limit, LimitKind::SupersetCandidates);
        assert_eq!(deg.completed, 4);
        assert_eq!(ss.valid().count(), 4);
        assert!(!ss.at(8).is_valid());
    }

    #[test]
    fn unlimited_build_limited_matches_build() {
        let text = vec![0x48, 0x89, 0xe5, 0x90, 0xc3];
        let (ss, deg) = Superset::build_limited(&text, None, &Deadline::unlimited());
        assert!(deg.is_none());
        let plain = Superset::build(&text);
        assert_eq!(ss.valid().count(), plain.valid().count());
    }

    #[test]
    fn expired_deadline_degrades() {
        let text = vec![0x90; 2 * POLL];
        let deadline = Deadline::start(&crate::limits::Limits::with_deadline_ms(0));
        let (ss, deg) = Superset::build_limited(&text, None, &deadline);
        assert_eq!(ss.len(), text.len());
        let deg = deg.expect("expired deadline must degrade");
        assert_eq!(deg.phase, "superset");
        assert_eq!(deg.limit, LimitKind::Deadline);
        // everything from the stop offset on is invalid
        assert!((deg.completed as u32..ss.len() as u32).all(|off| !ss.at(off).is_valid()));
    }

    #[test]
    fn padding_and_suspicious_flags() {
        let text = vec![0x90, 0xf4, 0xc3]; // nop, hlt, ret
        let ss = Superset::build(&text);
        assert!(ss.at(0).padding);
        assert!(ss.at(1).suspicious);
        assert!(!ss.at(2).suspicious);
    }

    #[test]
    fn valid_iterator_matches_at() {
        // includes in-section branches, escaping branches, invalid bytes
        let text = vec![
            0xeb, 0x02, 0x90, 0x90, 0x74, 0xfc, 0x06, 0xe8, 0x7f, 0x00, 0x00, 0x00, 0xc3,
        ];
        let ss = Superset::build(&text);
        let mut seen = 0usize;
        for (off, c) in ss.valid() {
            assert_eq!(c, ss.at(off), "off={off}");
            seen += 1;
        }
        assert_eq!(seen, ss.valid().count());
    }
}
