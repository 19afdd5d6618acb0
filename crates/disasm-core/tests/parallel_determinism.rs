//! Determinism property: `Config::threads` sizes only the file-level worker
//! pools, so it never changes one binary's result. For seeded generated
//! corpora — including adversarial binaries and raw byte soup — a run at
//! `threads = N` must produce *bit-identical* results to `threads = 1`:
//! the same byte classification, instruction starts, function starts,
//! correction counts, viability iteration count, and degradation list.
//!
//! Wired into `scripts/ci.sh` as a release-mode gate.

use disasm_core::{Config, Disassembler, Disassembly, Image, Limits};

fn disasm(image: &Image, threads: usize, limits: Limits) -> Disassembly {
    let cfg = Config {
        threads,
        limits,
        ..Config::default()
    };
    Disassembler::new(cfg).disassemble(image)
}

/// Assert every user-visible output of `par` matches `seq` exactly.
fn assert_identical(seq: &Disassembly, par: &Disassembly, what: &str) {
    assert_eq!(seq.byte_class, par.byte_class, "{what}: byte_class");
    assert_eq!(seq.inst_starts, par.inst_starts, "{what}: inst_starts");
    assert_eq!(seq.func_starts, par.func_starts, "{what}: func_starts");
    assert_eq!(
        seq.trace.corrections_by_priority, par.trace.corrections_by_priority,
        "{what}: corrections"
    );
    assert_eq!(
        seq.trace.viability_iterations, par.trace.viability_iterations,
        "{what}: viability iterations"
    );
    assert_eq!(
        seq.trace.degradations, par.trace.degradations,
        "{what}: degradations"
    );
    // one binary runs on one thread whatever the pool width
    for p in &par.trace.phases {
        assert_eq!(
            (p.shards, p.merge_wall_ns),
            (1, 0),
            "{what}: phase {} was split",
            p.name
        );
    }
}

/// Generated workloads across seeds and generator shapes, plus the
/// adversarial generator.
fn corpus() -> Vec<(String, Image)> {
    let mut out = Vec::new();
    for seed in [3u64, 17, 99] {
        let w = bingen::Workload::generate(&bingen::GenConfig::small(seed));
        out.push((
            format!("small-{seed}"),
            Image::new(w.text_base(), w.text.clone()).with_entry(w.entry_off),
        ));
    }
    for seed in [5u64, 23] {
        let cfg = bingen::GenConfig::new(seed, bingen::OptProfile::O2, 60, 0.15);
        let w = bingen::Workload::generate(&cfg);
        out.push((
            format!("large-{seed}"),
            Image::new(w.text_base(), w.text.clone()).with_entry(w.entry_off),
        ));
    }
    let mut adv = bingen::GenConfig::new(7, bingen::OptProfile::O2, 40, 0.2);
    adv.adversarial = true;
    let w = bingen::Workload::generate(&adv);
    out.push((
        "adversarial-7".to_string(),
        Image::new(w.text_base(), w.text.clone()).with_entry(w.entry_off),
    ));
    // raw byte soup: no structure for the pipeline to anchor on, maximal
    // load on superset decode and the viability fixpoint
    let mut soup = vec![0u8; 3 * 4096 + 123];
    let mut state = 0x2545F491_4F6CDD1Du64;
    for b in soup.iter_mut() {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        *b = (state >> 33) as u8;
    }
    out.push(("soup".to_string(), Image::new(0x401000, soup)));
    out
}

#[test]
fn threaded_runs_are_bit_identical_to_sequential() {
    for (name, image) in corpus() {
        let seq = disasm(&image, 1, Limits::default());
        for threads in [2usize, 4, 8] {
            let par = disasm(&image, threads, Limits::default());
            assert_identical(&seq, &par, &format!("{name} @ {threads} threads"));
        }
    }
}

#[test]
fn threaded_runs_match_under_iteration_budgets() {
    // The contract must hold under iteration caps too, including the
    // recorded budget degradations.
    for (name, image) in corpus().into_iter().take(3) {
        let limits = Limits {
            max_viability_iterations: Some(64),
            max_correction_steps: Some(128),
            ..Limits::default()
        };
        let seq = disasm(&image, 1, limits.clone());
        let par = disasm(&image, 4, limits);
        assert_identical(&seq, &par, &format!("{name} budgeted"));
    }
}

#[test]
fn explicit_thread_count_overrides_environment() {
    // `Config::threads` set explicitly always wins; the METADIS_THREADS
    // env override only feeds the default.
    let (_, image) = corpus().remove(0);
    let seq = disasm(&image, 1, Limits::default());
    let par = disasm(&image, 6, Limits::default());
    assert_identical(&seq, &par, "explicit threads");
}
