//! Behavioral viability analysis: the invalid-fall-through closure.
//!
//! Real code cannot execute into invalid bytes. A superset candidate is
//! *viable* only if every successor that execution is forced to reach is
//! itself viable:
//!
//! * sequential instructions, conditional jumps, and calls must have a viable
//!   fall-through successor inside the section;
//! * direct jumps, conditional jumps and direct calls must have a viable,
//!   in-section target (a direct branch that escapes the only text section of
//!   a stripped executable is treated as behavioral evidence of data).
//!
//! The closure is computed as a backward worklist fixpoint over the superset
//! table and is the single most effective data-flagging device: on random
//! data, decode chains almost surely run into an invalid encoding within a
//! few steps, killing the whole chain.

use crate::limits::{Deadline, Degradation, LimitKind};
use crate::superset::{CandFlow, Superset, NO_TARGET};

/// Required successors of the candidate at `off` (at most two). Returns
/// `k == usize::MAX` when the requirement is unsatisfiable (fall-through
/// off the section end, or a direct branch escaping the section).
fn required(ss: &Superset, off: u32) -> ([u32; 2], usize) {
    let c = ss.at(off);
    let mut out = [0u32; 2];
    let mut k = 0;
    match c.flow {
        CandFlow::Seq | CandFlow::Cond | CandFlow::Call | CandFlow::CallInd => {
            match ss.fallthrough(off) {
                Some(next) => {
                    out[k] = next;
                    k += 1;
                }
                // falls off the end of the section: unsatisfiable —
                // signalled with an always-dead pseudo-successor
                None => return ([u32::MAX, 0], usize::MAX),
            }
        }
        _ => {}
    }
    match c.flow {
        CandFlow::Jmp | CandFlow::Cond | CandFlow::Call => {
            if c.target != NO_TARGET {
                out[k] = c.target;
                k += 1;
            } else {
                // direct branch escaping the section
                return ([u32::MAX, 0], usize::MAX);
            }
        }
        _ => {}
    }
    (out, k)
}

/// Result of the viability closure.
#[derive(Debug, Clone)]
pub struct Viability {
    viable: Vec<bool>,
    eliminated: usize,
    iterations: u64,
}

impl Viability {
    /// `true` if the candidate at `off` survived the closure.
    pub fn is_viable(&self, off: u32) -> bool {
        self.viable.get(off as usize).copied().unwrap_or(false)
    }

    /// Number of *valid-decoding* candidates eliminated by the closure.
    pub fn eliminated(&self) -> usize {
        self.eliminated
    }

    /// Worklist pops performed by the backward fixpoint (0 for
    /// [`Viability::trivial`]). A direct measure of how much propagation the
    /// closure needed, reported in pipeline traces.
    pub fn iterations(&self) -> u64 {
        self.iterations
    }

    /// Borrow the raw table.
    pub fn as_slice(&self) -> &[bool] {
        &self.viable
    }

    /// A trivial table treating every valid candidate as viable (used by
    /// the ablation that disables the behavioral analysis).
    pub fn trivial(ss: &Superset) -> Viability {
        Viability {
            viable: (0..ss.len() as u32).map(|i| ss.at(i).is_valid()).collect(),
            eliminated: 0,
            iterations: 0,
        }
    }

    /// Compute the closure over a superset table.
    pub fn compute(ss: &Superset) -> Viability {
        let (v, _) = Viability::compute_limited(ss, None, &Deadline::unlimited());
        v
    }

    /// Compute the closure under a budget. Stopping propagation early is
    /// conservative: candidates the fixpoint never reached simply *stay
    /// viable*, so the analysis under-reports data evidence but never kills
    /// a genuine instruction. If the deadline is already spent on entry the
    /// trivial (everything-viable) table is returned.
    pub fn compute_limited(
        ss: &Superset,
        max_iterations: Option<u64>,
        deadline: &Deadline,
    ) -> (Viability, Option<Degradation>) {
        if deadline.exceeded() {
            return (
                Viability::trivial(ss),
                Some(Degradation {
                    phase: "viability",
                    limit: LimitKind::Deadline,
                    completed: 0,
                }),
            );
        }
        let cap = max_iterations.unwrap_or(u64::MAX);
        let n = ss.len();
        let mut viable: Vec<bool> = (0..n as u32).map(|i| ss.at(i).is_valid()).collect();

        // Reverse adjacency (CSR): which candidates require offset j?
        let mut deg = vec![0u32; n + 1];
        for (off, _) in ss.valid() {
            let (succs, k) = required(ss, off);
            if k == usize::MAX {
                continue;
            }
            for &s in &succs[..k] {
                deg[s as usize] += 1;
            }
        }
        let mut starts = vec![0u32; n + 1];
        let mut acc = 0u32;
        for i in 0..=n {
            starts[i] = acc;
            acc += deg.get(i).copied().unwrap_or(0);
        }
        let mut rev = vec![0u32; acc as usize];
        let mut cursor = starts.clone();
        for (off, _) in ss.valid() {
            let (succs, k) = required(ss, off);
            if k == usize::MAX {
                continue;
            }
            for &s in &succs[..k] {
                rev[cursor[s as usize] as usize] = off;
                cursor[s as usize] += 1;
            }
        }

        // Seed the worklist with immediately-dead candidates.
        let mut work: Vec<u32> = Vec::new();
        for (off, _) in ss.valid() {
            let (succs, k) = required(ss, off);
            let dead = if k == usize::MAX {
                true
            } else {
                succs[..k].iter().any(|&s| !viable[s as usize])
            };
            if dead {
                viable[off as usize] = false;
                work.push(off);
            }
        }

        // Backward propagation, budgeted on worklist pops.
        let mut iterations = 0u64;
        let mut degradation = None;
        while let Some(dead) = work.pop() {
            if iterations >= cap {
                degradation = Some(Degradation {
                    phase: "viability",
                    limit: LimitKind::ViabilityIterations,
                    completed: iterations,
                });
                break;
            }
            if iterations.is_multiple_of(4096) && iterations > 0 && deadline.exceeded() {
                degradation = Some(Degradation {
                    phase: "viability",
                    limit: LimitKind::Deadline,
                    completed: iterations,
                });
                break;
            }
            iterations += 1;
            let d = dead as usize;
            for &p in &rev[starts[d] as usize..starts[d + 1] as usize] {
                if viable[p as usize] {
                    viable[p as usize] = false;
                    work.push(p);
                }
            }
        }

        let eliminated = (0..n as u32)
            .filter(|&i| ss.at(i).is_valid() && !viable[i as usize])
            .count();
        (
            Viability {
                viable,
                eliminated,
                iterations,
            },
            degradation,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn viability(text: &[u8]) -> Viability {
        Viability::compute(&Superset::build(text))
    }

    #[test]
    fn chain_into_invalid_dies() {
        // nop; nop; 0x06 (invalid) — both nops must die, they flow into it.
        let v = viability(&[0x90, 0x90, 0x06]);
        assert!(!v.is_viable(0));
        assert!(!v.is_viable(1));
        assert!(!v.is_viable(2));
        assert_eq!(v.eliminated(), 2);
    }

    #[test]
    fn terminated_chain_survives() {
        // nop; nop; ret; 0x06 — the ret terminates the chain before the junk.
        let v = viability(&[0x90, 0x90, 0xc3, 0x06]);
        assert!(v.is_viable(0));
        assert!(v.is_viable(1));
        assert!(v.is_viable(2));
        assert!(!v.is_viable(3));
    }

    #[test]
    fn jump_to_invalid_target_dies() {
        // jmp +1 (lands mid-section at a valid nop) vs jmp into invalid
        let ok = viability(&[0xeb, 0x01, 0x06, 0x90, 0xc3]);
        // offset 0: jmp over the 0x06 to nop;ret — viable
        assert!(ok.is_viable(0));
        // jmp to an invalid byte: eb 00 points at 0x06
        let bad = viability(&[0xeb, 0x00, 0x06]);
        assert!(!bad.is_viable(0));
    }

    #[test]
    fn escaping_branch_dies() {
        // call rel32 with a target far outside the section
        let mut text = vec![0xe8];
        text.extend_from_slice(&0x1000i32.to_le_bytes());
        text.push(0xc3);
        let v = viability(&text);
        assert!(!v.is_viable(0));
        assert!(v.is_viable(5)); // the ret
    }

    #[test]
    fn fallthrough_off_section_end_dies() {
        // a lone nop at the very end has no successor
        let v = viability(&[0xc3, 0x90]);
        assert!(v.is_viable(0));
        assert!(!v.is_viable(1));
    }

    #[test]
    fn conditional_requires_both_edges() {
        // je +1 over an invalid byte, then ret: fallthrough hits 0x06 → dead
        let v = viability(&[0x74, 0x01, 0x06, 0xc3]);
        assert!(!v.is_viable(0));
        // je +1 over a nop to ret, fallthrough nop; ret: viable
        let v2 = viability(&[0x74, 0x01, 0x90, 0xc3]);
        assert!(v2.is_viable(0));
    }

    #[test]
    fn random_data_mostly_dies() {
        // Deterministic pseudo-random bytes: the closure should kill the
        // overwhelming majority of valid-decoding candidates.
        let mut x: u64 = 0x12345678;
        let text: Vec<u8> = (0..4096)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (x >> 33) as u8
            })
            .collect();
        let ss = Superset::build(&text);
        let valid = ss.valid().count();
        let v = Viability::compute(&ss);
        let surviving = (0..text.len() as u32).filter(|&i| v.is_viable(i)).count();
        assert!(
            (surviving as f64) < 0.5 * valid as f64,
            "viability should kill most of random data: {surviving}/{valid} survived"
        );
    }

    #[test]
    fn iteration_cap_under_kills_but_never_over_kills() {
        // A long nop chain into an invalid byte: full propagation kills the
        // whole chain, a capped run kills only a prefix of the worklist.
        let mut text = vec![0x90u8; 64];
        text.push(0x06);
        let ss = Superset::build(&text);
        let (full, deg) = Viability::compute_limited(&ss, None, &Deadline::unlimited());
        assert!(deg.is_none());
        let (capped, deg) = Viability::compute_limited(&ss, Some(3), &Deadline::unlimited());
        let deg = deg.expect("cap should trip");
        assert_eq!(deg.phase, "viability");
        assert_eq!(deg.limit, LimitKind::ViabilityIterations);
        assert_eq!(deg.completed, 3);
        assert!(capped.eliminated() <= full.eliminated());
        // Every candidate the capped run killed, the full run killed too.
        for off in 0..text.len() as u32 {
            if !capped.is_viable(off) {
                assert!(!full.is_viable(off) || !ss.at(off).is_valid());
            }
        }
    }

    #[test]
    fn expired_deadline_returns_trivial() {
        let ss = Superset::build(&[0x90, 0x90, 0x06]);
        let d = Deadline::start(&crate::limits::Limits::with_deadline_ms(0));
        let (v, deg) = Viability::compute_limited(&ss, None, &d);
        assert_eq!(deg.unwrap().limit, LimitKind::Deadline);
        assert_eq!(v.eliminated(), 0);
        // valid candidates stay viable under the trivial table
        assert!(v.is_viable(0));
    }

    #[test]
    fn empty_section() {
        let v = viability(&[]);
        assert_eq!(v.eliminated(), 0);
        assert!(!v.is_viable(0));
    }

    /// Deterministic byte soup with a long nop sled ending in junk, so the
    /// fixpoint runs a long kill chain as well as many short ones.
    fn kill_chain_corpus() -> Vec<u8> {
        let mut x: u64 = 0xfeed;
        let mut text: Vec<u8> = (0..3 * 4096)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (x >> 33) as u8
            })
            .collect();
        text[4096 - 512..4096 + 512].fill(0x90);
        text[4096 + 512] = 0x06;
        text
    }

    #[test]
    fn sequential_iterations_equal_total_kills() {
        // in an unbudgeted run every eliminated candidate is pushed once
        // and popped once, so the trace's iteration count is the kill count
        let ss = Superset::build(&kill_chain_corpus());
        let (v, _) = Viability::compute_limited(&ss, None, &Deadline::unlimited());
        assert_eq!(v.iterations(), v.eliminated() as u64);
    }
}
