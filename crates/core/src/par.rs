//! Deterministic fan-out primitive shared by every parallel stage of the
//! solver (greedy passes, multi-seed restarts, per-cluster candidate
//! search and the intra-round operator fan-out).
//!
//! [`run_parallel`] is a *steal-free* chunked map: the job→worker
//! assignment is a pure function of `(jobs, threads)` — worker `w` owns
//! one contiguous chunk — and results land in job order, so the reduction
//! a caller performs over the returned `Vec` visits candidates in exactly
//! the order the serial loop would. That, plus per-job derived seeds
//! ([`pass_seed`]), is what makes every solve bit-identical across thread
//! counts.
//!
//! Nested dispatch is flattened rather than multiplied: workers (and the
//! caller while it executes its own chunk) set a thread-local in-pool
//! flag, and any [`run_parallel`] call made from inside a chunk runs
//! serially inline. The outermost fan-out therefore owns all the
//! hardware, and inner stages (e.g. the per-cluster candidate search
//! inside a greedy pass that is itself one job of a best-of-N fan-out)
//! stay cheap serial loops — with results identical either way.

use std::cell::Cell;

use cloudalloc_telemetry as telemetry;

thread_local! {
    /// Set while the current thread is executing a chunk of a
    /// [`run_parallel`] dispatch (worker threads *and* the caller).
    static IN_POOL: Cell<bool> = const { Cell::new(false) };
}

/// `true` while the calling thread is executing jobs on behalf of an
/// enclosing [`run_parallel`] dispatch. Parallel entry points check this
/// to fall back to their serial path instead of spawning nested pools.
pub fn in_worker() -> bool {
    IN_POOL.with(Cell::get)
}

/// Clears the in-pool flag on drop, so a panicking job cannot leave the
/// caller thread permanently marked as a worker.
struct PoolGuard;

impl PoolGuard {
    fn enter() -> Self {
        IN_POOL.with(|flag| flag.set(true));
        PoolGuard
    }
}

impl Drop for PoolGuard {
    fn drop(&mut self) {
        IN_POOL.with(|flag| flag.set(false));
    }
}

/// Decorrelates per-job RNG streams (SplitMix64 finalizer over the
/// golden-ratio-striped job index). Job 0 keeps the raw seed so a
/// single-job run and the first job of a multi-job run draw the same
/// stream.
pub fn pass_seed(seed: u64, pass: u64) -> u64 {
    if pass == 0 {
        return seed;
    }
    let mut z = seed ^ pass.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Runs `jobs` independent tasks on up to `threads` scoped workers and
/// returns the results in job order.
///
/// Scheduling is static: worker `w` owns one contiguous chunk of the job
/// range (sizes differ by at most one), with no work stealing, so the
/// mapping of jobs to workers — and therefore any per-thread state the
/// jobs touch — is deterministic. `f` must be a pure function of its job
/// index for the solver's reproducibility guarantee; under that contract
/// the returned `Vec` is identical for every `threads >= 1`.
///
/// Falls back to a serial inline loop when one worker suffices or when
/// the calling thread is already a pool worker (see [`in_worker`]), so
/// nested dispatches never over-subscribe the machine.
pub fn run_parallel<T, F>(jobs: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = threads.min(jobs).max(1);
    if threads == 1 || in_worker() {
        return (0..jobs).map(f).collect();
    }
    telemetry::counter!("par.dispatches").incr();
    telemetry::counter!("par.tasks").add(jobs as u64);
    // Flight recorder: the dispatch span is the causal parent of every
    // worker lane — the handle rides into each chunk so per-worker spans
    // nest under it instead of starting new roots on their threads.
    let _dispatch = telemetry::span!("par.dispatch");
    let parent = telemetry::current_span();
    let mut slots: Vec<Option<T>> = (0..jobs).map(|_| None).collect();
    {
        // Split the result buffer into one contiguous chunk per worker:
        // `extra` leftover jobs go one apiece to the lowest-index workers.
        let base = jobs / threads;
        let extra = jobs % threads;
        let mut chunks: Vec<(usize, &mut [Option<T>])> = Vec::with_capacity(threads);
        let mut rest = slots.as_mut_slice();
        let mut start = 0;
        for w in 0..threads {
            let len = base + usize::from(w < extra);
            let (head, tail) = rest.split_at_mut(len);
            chunks.push((start, head));
            rest = tail;
            start += len;
        }
        let f = &f;
        std::thread::scope(|scope| {
            let mut chunks = chunks.into_iter();
            let own = chunks.next().expect("threads >= 1");
            for (chunk_start, chunk) in chunks {
                scope.spawn(move || run_chunk(chunk_start, chunk, f, parent));
            }
            // The caller is worker 0: it pays for its own share instead of
            // blocking on the join.
            run_chunk(own.0, own.1, f, parent);
        });
    }
    slots.into_iter().map(|slot| slot.expect("every job ran")).collect()
}

/// Executes one worker's chunk, filling `chunk[i]` with `f(start + i)`.
fn run_chunk<T, F>(start: usize, chunk: &mut [Option<T>], f: &F, parent: telemetry::SpanHandle)
where
    F: Fn(usize) -> T,
{
    let _guard = PoolGuard::enter();
    // Nest this worker's lane (and everything inside it) under the
    // dispatching span, even though it runs on a different thread.
    let _adopt = telemetry::adopt_parent(parent);
    let _lane = telemetry::span!("par.lane");
    telemetry::histogram!("par.chunk_size").record(chunk.len() as u64);
    for (offset, slot) in chunk.iter_mut().enumerate() {
        let _span = telemetry::span!("par.task");
        *slot = Some(f(start + offset));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Mutex;

    #[test]
    fn results_arrive_in_job_order_for_every_thread_count() {
        for threads in [1, 2, 3, 8, 17] {
            let got = run_parallel(13, threads, |job| job * job);
            let want: Vec<usize> = (0..13).map(|job| job * job).collect();
            assert_eq!(got, want, "threads={threads}");
        }
    }

    #[test]
    fn zero_jobs_yield_an_empty_vec() {
        let got: Vec<usize> = run_parallel(0, 4, |job| job);
        assert!(got.is_empty());
    }

    #[test]
    fn every_job_runs_exactly_once() {
        let seen = Mutex::new(Vec::new());
        run_parallel(57, 5, |job| seen.lock().unwrap().push(job));
        let mut seen = seen.into_inner().unwrap();
        seen.sort_unstable();
        assert_eq!(seen, (0..57).collect::<Vec<_>>());
    }

    #[test]
    fn chunks_are_contiguous_and_balanced() {
        // Record which thread ran each job; a steal-free contiguous
        // chunking means each thread's job set is an interval and sizes
        // differ by at most one.
        let owners = Mutex::new(vec![None; 23]);
        run_parallel(23, 4, |job| {
            owners.lock().unwrap()[job] = Some(std::thread::current().id());
        });
        let owners = owners.into_inner().unwrap();
        let mut sizes = Vec::new();
        let mut distinct = HashSet::new();
        let mut run = 1;
        for pair in owners.windows(2) {
            if pair[0] == pair[1] {
                run += 1;
            } else {
                sizes.push(run);
                run = 1;
            }
        }
        sizes.push(run);
        for owner in owners {
            distinct.insert(owner.expect("job ran"));
        }
        assert_eq!(sizes.len(), 4, "each worker owns exactly one interval");
        assert_eq!(distinct.len(), 4);
        let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
        assert!(max - min <= 1, "chunk sizes {sizes:?} are unbalanced");
    }

    #[test]
    fn nested_dispatch_runs_serially_inline() {
        let outer = run_parallel(4, 4, |job| {
            assert!(in_worker(), "chunk bodies must be flagged as pool work");
            // The nested call must not spawn: it runs on this thread.
            let inner_threads: HashSet<_> =
                run_parallel(6, 4, |_| std::thread::current().id()).into_iter().collect();
            assert_eq!(inner_threads.len(), 1, "nested dispatch spawned workers");
            job
        });
        assert!(!in_worker(), "flag must clear once the dispatch returns");
        assert_eq!(outer, vec![0, 1, 2, 3]);
    }

    #[test]
    fn pass_seed_is_stable_and_keeps_the_raw_seed_for_pass_zero() {
        assert_eq!(pass_seed(42, 0), 42);
        assert_ne!(pass_seed(42, 1), pass_seed(42, 2));
        assert_eq!(pass_seed(7, 3), pass_seed(7, 3));
    }
}
