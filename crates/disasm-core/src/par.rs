//! Zero-dependency deterministic fork/join over independent jobs.
//!
//! Parallelism in metadis is file-level: one pipeline run over one binary
//! is sequential, and [`run_jobs`] spreads *whole binaries* over workers —
//! the `serve` dispatcher, `Server::process_batch` and the evaluation
//! harness's `evaluate_threads`. [`crate::Config::threads`] sizes those
//! pools and nothing else. Independent binaries share nothing, so they
//! scale where splitting one binary's phases into shards did not (see
//! DESIGN.md, "Parallel execution").
//!
//! [`run_jobs`] keeps `threads = N` output *identical* to `threads = 1`:
//!
//! * a scoped fork/join ([`std::thread::scope`]) with *static* job
//!   assignment: worker `w` takes jobs `w, w+T, w+2T, …`. Results are
//!   returned tagged with their job index and reassembled in index order,
//!   so the caller observes the same sequence a sequential loop would
//!   produce;
//! * allocation absorption — worker threads have fresh thread-local
//!   allocation counters ([`obs::alloc`]); on join the parent folds each
//!   worker's final counters back into its own via [`obs::alloc::absorb`],
//!   in worker-index order, so open span attribution windows still see the
//!   bytes the jobs allocated.
//!
//! Thread count resolution: [`default_threads`] honors the
//! `METADIS_THREADS` environment variable, then falls back to
//! [`std::thread::available_parallelism`]. [`crate::Config::threads`]
//! defaults to this value.

/// Resolve the default worker-thread count: the `METADIS_THREADS`
/// environment variable when set to a positive integer, otherwise the
/// machine's available parallelism (1 if unknown).
pub fn default_threads() -> usize {
    if let Ok(v) = std::env::var("METADIS_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Run `jobs` independent jobs on at most `threads` scoped worker threads
/// and return the results in job order.
///
/// Assignment is static (worker `w` runs jobs `w, w+T, …`), so the set of
/// jobs each worker executes — and therefore each worker's allocation
/// tally — is deterministic. With `threads <= 1` (or fewer than two jobs)
/// everything runs inline on the calling thread: no spawn, no absorption,
/// byte-for-byte the sequential path.
///
/// `name` labels the work in the flight recorder: every job records a
/// `begin_shard`/`end_shard` pair named `name` (on the worker's pinned
/// lane `w + 1`, or the calling thread inline), and the coordinator
/// records an [`obs::timeline::MERGE_WAIT_NAME`] span covering the join
/// barrier plus result/alloc/event folding. Workers drain their event
/// rings on exit and the parent absorbs them in worker order — the same
/// deterministic fold as allocation absorption. With the recorder off
/// this costs two relaxed atomic loads per job.
///
/// Worker panics propagate to the caller (the pipeline's `catch_unwind`
/// boundary turns them into the linear-sweep fallback, same as a
/// sequential phase panic).
pub fn run_jobs<T, F>(name: &'static str, jobs: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = threads.max(1).min(jobs);
    let shard = |j: usize, f: &F| {
        obs::timeline::begin_shard(name, j as u32, 0);
        let out = f(j);
        obs::timeline::end_shard(name, j as u32);
        out
    };
    if threads <= 1 {
        return (0..jobs).map(|j| shard(j, &f)).collect();
    }
    let f = &f;
    let shard = &shard;
    // workers are fresh threads with empty request context; propagate the
    // caller's so a request served in parallel stays correlated end to end
    let ctx = obs::ctx::current();
    let mut slots: Vec<Option<T>> = Vec::with_capacity(jobs);
    slots.resize_with(jobs, || None);
    let mut worker_allocs = Vec::with_capacity(threads);
    let mut worker_events = Vec::with_capacity(threads);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|w| {
                s.spawn(move || {
                    obs::timeline::set_lane(w as u32 + 1);
                    obs::ctx::set(ctx);
                    let mut out = Vec::new();
                    let mut j = w;
                    while j < jobs {
                        out.push((j, shard(j, f)));
                        j += threads;
                    }
                    (out, obs::alloc::stats(), obs::timeline::take())
                })
            })
            .collect();
        obs::timeline::begin(obs::timeline::MERGE_WAIT_NAME);
        for h in handles {
            let (out, alloc, events) = match h.join() {
                Ok(r) => r,
                Err(p) => std::panic::resume_unwind(p),
            };
            worker_allocs.push(alloc);
            worker_events.push(events);
            for (j, t) in out {
                slots[j] = Some(t);
            }
        }
    });
    // fold worker allocations and timeline events into the parent's
    // thread-local state in worker order, so the fold is deterministic
    for a in worker_allocs {
        obs::alloc::absorb(a);
    }
    for e in worker_events {
        obs::timeline::absorb(e);
    }
    obs::timeline::end(obs::timeline::MERGE_WAIT_NAME);
    slots
        .into_iter()
        .map(|o| o.expect("static assignment covers every job"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_jobs_matches_sequential_in_any_thread_count() {
        let f = |j: usize| j * j + 1;
        let want: Vec<usize> = (0..37).map(f).collect();
        for threads in [1usize, 2, 3, 4, 8, 64] {
            assert_eq!(
                run_jobs("par.test", 37, threads, f),
                want,
                "threads={threads}"
            );
        }
        assert_eq!(run_jobs("par.test", 0, 4, f), Vec::<usize>::new());
        assert_eq!(run_jobs("par.test", 1, 4, f), vec![1]);
    }

    #[test]
    fn recorder_pins_worker_lanes_and_one_merge_wait() {
        use obs::timeline::{self, EventKind, MERGE_WAIT_NAME};
        use std::collections::BTreeMap;
        // the ring is per-thread, so this test only sees its own events;
        // nothing else in this crate's tests turns the recorder off
        let was = timeline::enabled();
        timeline::set_enabled(true);
        let caller = timeline::lane();
        let mark = timeline::mark();
        let out = run_jobs("par.test.tl", 6, 2, |j| j + 1);
        let events = timeline::take_since(mark);
        timeline::set_enabled(was);
        assert_eq!(out, vec![1, 2, 3, 4, 5, 6]);

        // every job ran on worker lane w + 1 under static assignment
        let mut job_lanes = BTreeMap::new();
        for e in events.iter().filter(|e| e.name == "par.test.tl") {
            if e.kind == EventKind::Begin {
                job_lanes.insert(e.shard, e.tid);
            }
        }
        let want: BTreeMap<u32, u32> = (0..6).map(|j| (j, j % 2 + 1)).collect();
        assert_eq!(job_lanes, want, "{events:?}");

        // begin/end balance per lane, never closing an unopened region
        let mut depth: BTreeMap<u32, i64> = BTreeMap::new();
        for e in &events {
            let d = depth.entry(e.tid).or_insert(0);
            match e.kind {
                EventKind::Begin => *d += 1,
                EventKind::End => *d -= 1,
                EventKind::Instant => {}
            }
            assert!(*d >= 0, "E below depth 0 on lane {}", e.tid);
        }
        assert!(depth.values().all(|&d| d == 0), "{depth:?}");
        assert_eq!(
            depth.keys().copied().collect::<Vec<_>>(),
            vec![1, 2, caller]
        );

        // the join barrier: exactly one merge-wait span, on the caller
        let merges: Vec<_> = events
            .iter()
            .filter(|e| e.name == MERGE_WAIT_NAME)
            .collect();
        assert_eq!(merges.len(), 2, "{merges:?}");
        assert!(merges.iter().all(|e| e.tid == caller));
        assert_eq!(merges[0].kind, EventKind::Begin);
        assert_eq!(merges[1].kind, EventKind::End);
    }

    #[test]
    fn workers_inherit_the_request_context() {
        let id = obs::ctx::RequestId::mint();
        let _scope = obs::ctx::scope(id);
        let got = run_jobs("par.test.ctx", 8, 4, |_| obs::ctx::current());
        assert!(got.iter().all(|c| *c == Some(id)), "{got:?}");
    }

    #[test]
    fn env_override_wins() {
        // avoid racing other tests on the env var: set, read, restore
        let saved = std::env::var("METADIS_THREADS").ok();
        std::env::set_var("METADIS_THREADS", "3");
        assert_eq!(default_threads(), 3);
        std::env::set_var("METADIS_THREADS", "0");
        assert_eq!(default_threads(), 1);
        match saved {
            Some(v) => std::env::set_var("METADIS_THREADS", v),
            None => std::env::remove_var("METADIS_THREADS"),
        }
    }
}
