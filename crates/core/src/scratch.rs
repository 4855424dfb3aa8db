//! Reusable scratch arenas for the candidate search and the local-search
//! operators.
//!
//! The inner loop of the solver — `assign_distribute` and the operators in
//! [`crate::ops`] — used to allocate a handful of `Vec`s per call (value
//! curves, the DP `choice` matrix, snapshot copies of placements and
//! resident lists). [`CandidateScratch`] owns all of those buffers as flat
//! arrays that are *cleared, never reallocated*, so after warm-up a search
//! performs zero heap allocations.
//!
//! # Lifecycle
//!
//! `SolverCtx` is shared by reference across the scoped threads of the
//! parallel best-of-N construction, so the scratch cannot live inside it.
//! Instead each thread keeps a pool of boxed arenas:
//! [`acquire`] (reached via [`crate::ctx::SolverCtx::scratch`]) pops one —
//! or creates one on first use — and the returned [`ScratchGuard`] pushes
//! it back on drop. Nested acquisitions (e.g. `turn_off_servers` →
//! `evacuate` → `assign_distribute_excluding`) simply pop distinct arenas,
//! so re-entrancy is safe by construction and no state leaks between
//! concurrent users. Thread-locality also keeps results bit-identical and
//! thread-count-invariant: an arena never carries data across threads,
//! only capacity.
//!
//! # Cross-dispatch reuse
//!
//! [`crate::par::run_parallel`] spawns *fresh* scoped workers per
//! dispatch, so a worker's thread-local pool — and every warmed-up arena
//! in it — used to die with the thread, making each of the thousands of
//! dispatches in a solve re-allocate its arenas from scratch. The pools
//! now drain into a bounded process-wide free list on thread exit, and
//! [`acquire`] falls back to that list before allocating. Migrating
//! arenas carry **capacity only**: their cached level-constant tables are
//! invalidated at migration (`level_key = None`), preserving the
//! bit-identity contract above. The telemetry counters
//! `scratch.pool_hits` (arena reused from the global list) vs
//! `scratch.allocs` (fresh heap allocation) expose the reuse rate under
//! fan-out.

use std::cell::RefCell;
use std::ops::{Deref, DerefMut};
use std::sync::Mutex;

use cloudalloc_model::{ClientId, Placement, ServerId};

use crate::assign::Level;
use crate::dispersion::DispersionBranch;
use crate::kkt::ShareDemand;

/// One run of consecutive feasible servers sharing a curve signature; the
/// unit the deduplicated DP iterates over (see `assign.rs`).
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct Run {
    /// Index of the first member in [`CandidateScratch::servers`].
    pub members_start: usize,
    /// Number of consecutive same-signature servers in the run.
    pub members_len: usize,
    /// Offset of the run's shared value curve in
    /// [`CandidateScratch::curves`] (length `granularity + 1`).
    pub curve_start: usize,
    /// Offset of the run's first stored DP choice row in
    /// [`CandidateScratch::choice`].
    pub rows_start: usize,
    /// Number of stored choice rows (`≤ members_len`; the DP stops storing
    /// rows once it reaches a fixpoint, later members reuse the last row).
    pub rows_len: usize,
}

/// Load-independent per-(class, grid-level) constants of one candidate
/// search, precomputed once per hardware class and reused by every curve
/// of that class (see `assign.rs`). All fields are produced by the exact
/// floating-point expressions the per-server curve used to evaluate, so
/// reading them back is bit-identical to recomputation.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct LevelConst {
    /// Grid fraction `g/G`.
    pub alpha: f64,
    /// Processing stability floor `max(σ^p, MIN_SHARE)` — weakly
    /// nondecreasing in `g`, which powers the monotone infeasibility
    /// early-exit.
    pub lo_p: f64,
    /// Communication stability floor `max(σ^c, MIN_SHARE)`.
    pub lo_c: f64,
    /// Critical share `a/m^p` (first term of the closed-form share).
    pub base_p: f64,
    /// Critical share `a/m^c`.
    pub base_c: f64,
    /// Shadow-priced term `√(w·α/(ψ·m^p))`.
    pub sqrt_p: f64,
    /// Shadow-priced term `√(w·α/(ψ·m^c))`.
    pub sqrt_c: f64,
    /// Utilization power cost `P1·a·t̄^p/C^p` of carrying this level.
    pub power: f64,
    /// Delay-cost slope `−w·α` multiplying the sojourn time.
    pub neg_weight: f64,
}

/// The flat, reusable buffers of one candidate search / operator call.
#[derive(Debug, Default)]
pub(crate) struct CandidateScratch {
    // --- assign_distribute: run-deduplicated DP ---
    /// Feasible servers of the cluster, in cluster order, grouped in runs.
    pub servers: Vec<ServerId>,
    /// Per-(class, level) constant tables, `granularity + 1` entries per
    /// hardware class, built lazily per class (see [`LevelConst`]).
    pub level_consts: Vec<LevelConst>,
    /// Which classes' [`Self::level_consts`] blocks are built for the
    /// current [`Self::level_key`].
    pub level_built: Vec<bool>,
    /// `(context token, client index)` the cached level tables belong to.
    /// The tables are load-independent, so they stay valid across the
    /// per-cluster searches of one `best_cluster` sweep; a key mismatch
    /// (different client, or an arena reused under another context)
    /// invalidates them wholesale.
    pub level_key: Option<(u64, usize)>,
    /// Run descriptors, in cluster order.
    pub runs: Vec<Run>,
    /// Value curves, one `granularity + 1` block per run.
    pub curves: Vec<Option<Level>>,
    /// DP state `dp[u]` = best value dispatching `u` grid units so far.
    pub dp: Vec<f64>,
    /// DP state being built for the next server.
    pub next: Vec<f64>,
    /// Stored choice rows, `granularity + 1` entries each.
    pub choice: Vec<usize>,
    // --- operators: snapshots and KKT/dispersion work areas ---
    /// Snapshot of one client's `(server, placement)` list.
    pub held: Vec<(ServerId, Placement)>,
    /// Snapshot of one server's resident clients.
    pub residents: Vec<ClientId>,
    /// Dispersion branches handed to `optimal_dispersion_into`.
    pub branches: Vec<DispersionBranch>,
    /// Output α vector of `optimal_dispersion_into`.
    pub alphas: Vec<f64>,
    /// Per-branch α upper bounds (internal to the dispersion solver).
    pub alpha_maxes: Vec<f64>,
    /// Processing-share demands handed to `optimal_shares_into`.
    pub demands_p: Vec<ShareDemand>,
    /// Communication-share demands handed to `optimal_shares_into`.
    pub demands_c: Vec<ShareDemand>,
    /// Output processing shares.
    pub shares_p: Vec<f64>,
    /// Output communication shares.
    pub shares_c: Vec<f64>,
    /// Stability floors (internal to the shares solver).
    pub floors: Vec<f64>,
    /// Active-set pin flags (internal to the shares solver).
    pub pinned: Vec<bool>,
    /// Placement snapshot for tentative share rewrites.
    pub old_placements: Vec<Placement>,
    /// Generic server-id work list (candidate targets, active servers).
    pub server_ids: Vec<ServerId>,
    /// Servers ranked by a score, for deterministic ordering.
    pub ranked: Vec<(f64, ServerId)>,
    /// Per-server-class "already tried" flags.
    pub seen_class: Vec<bool>,
}

/// Process-wide overflow free list, fed by thread-local pools as their
/// threads exit (see the module docs). Bounded so a pathological burst of
/// short-lived workers cannot pin unbounded capacity. Boxed for the same
/// reason as [`LocalPool`]: migration is a pointer move.
#[allow(clippy::vec_box)]
static GLOBAL_POOL: Mutex<Vec<Box<CandidateScratch>>> = Mutex::new(Vec::new());

/// Upper bound on [`GLOBAL_POOL`]'s size; arenas beyond it are simply
/// dropped. Far above the worker count of any dispatch.
const GLOBAL_POOL_CAP: usize = 64;

/// A thread's arena pool; on thread exit the warmed arenas migrate to
/// [`GLOBAL_POOL`] instead of dying with the thread.
#[derive(Default)]
struct LocalPool {
    #[allow(clippy::vec_box)]
    arenas: Vec<Box<CandidateScratch>>,
}

impl Drop for LocalPool {
    fn drop(&mut self) {
        if self.arenas.is_empty() {
            return;
        }
        // A poisoned lock only costs the reuse, never correctness.
        if let Ok(mut global) = GLOBAL_POOL.lock() {
            for mut arena in self.arenas.drain(..) {
                if global.len() >= GLOBAL_POOL_CAP {
                    break;
                }
                // Only capacity may cross threads: the level-constant
                // cache is keyed per (context, client) and must not be
                // trusted by whoever inherits this arena.
                arena.level_key = None;
                global.push(arena);
            }
        }
    }
}

thread_local! {
    /// Per-thread arena pool; depth equals the maximum nesting of live
    /// searches (≤ 4 in practice), so the pool stays tiny. Boxing keeps
    /// acquire/release a pointer move instead of copying ~20 `Vec`
    /// headers per candidate search.
    static POOL: RefCell<LocalPool> = RefCell::new(LocalPool::default());
}

/// Borrows an arena: from the current thread's pool, else from the
/// process-wide free list of exited workers, else freshly allocated.
/// Buffers may hold stale data from the previous user — callers clear
/// what they use.
pub(crate) fn acquire() -> ScratchGuard {
    cloudalloc_telemetry::counter!("scratch.acquires").incr();
    let inner = POOL
        .with(|pool| pool.borrow_mut().arenas.pop())
        .or_else(|| {
            let migrated = GLOBAL_POOL.lock().ok().and_then(|mut global| global.pop());
            if migrated.is_some() {
                // A cross-dispatch reuse: this arena was warmed by a
                // worker that has since exited.
                cloudalloc_telemetry::counter!("scratch.pool_hits").incr();
            }
            migrated
        })
        .unwrap_or_else(|| {
            // A miss means a fresh heap allocation; the acquires/allocs
            // ratio is the pool's overall reuse rate.
            cloudalloc_telemetry::counter!("scratch.allocs").incr();
            Box::default()
        });
    ScratchGuard { inner: Some(inner) }
}

/// Owning handle to a pooled [`CandidateScratch`]; returns it on drop.
#[derive(Debug)]
pub(crate) struct ScratchGuard {
    inner: Option<Box<CandidateScratch>>,
}

impl Deref for ScratchGuard {
    type Target = CandidateScratch;

    fn deref(&self) -> &CandidateScratch {
        self.inner.as_ref().expect("scratch present until drop")
    }
}

impl DerefMut for ScratchGuard {
    fn deref_mut(&mut self) -> &mut CandidateScratch {
        self.inner.as_mut().expect("scratch present until drop")
    }
}

impl Drop for ScratchGuard {
    fn drop(&mut self) {
        if let Some(inner) = self.inner.take() {
            POOL.with(|pool| pool.borrow_mut().arenas.push(inner));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_acquisitions_hand_out_distinct_arenas() {
        // Arenas may come back dirty (see `acquire`), so each guard clears
        // what it uses; a shared arena would let the inner write leak out.
        let mut outer = acquire();
        outer.servers.clear();
        outer.servers.push(ServerId(7));
        {
            let mut inner = acquire();
            inner.servers.clear();
            inner.servers.push(ServerId(9));
        }
        assert_eq!(outer.servers, vec![ServerId(7)]);
    }

    #[test]
    fn arenas_keep_capacity_across_reuse() {
        {
            let mut g = acquire();
            g.dp.clear();
            g.dp.resize(64, 0.0);
        }
        let g = acquire();
        // Same thread: the pooled arena comes back with its capacity.
        assert!(g.dp.capacity() >= 64);
    }

    #[test]
    fn exiting_threads_migrate_capacity_with_level_keys_cleared() {
        // Warm an arena on a short-lived worker; its pool drains into the
        // global free list on thread exit with the level cache
        // invalidated.
        let mut arena = Box::<CandidateScratch>::default();
        arena.level_key = Some((42, 7));
        arena.dp.reserve(128);
        drop(LocalPool { arenas: vec![arena] });
        let all_invalidated =
            GLOBAL_POOL.lock().unwrap().iter().all(|arena| arena.level_key.is_none());
        assert!(all_invalidated, "a migrated arena kept its level-table key");
    }

    #[test]
    fn fresh_threads_inherit_arenas_from_exited_workers() {
        // A worker warms an arena and exits...
        std::thread::spawn(|| {
            let mut g = acquire();
            g.level_key = Some((1, 1));
            g.dp.reserve(64);
        })
        .join()
        .unwrap();
        // ...and whichever arena a brand-new thread acquires — migrated
        // or fresh — must never carry a trusted level cache.
        let key = std::thread::spawn(|| {
            let g = acquire();
            g.level_key
        })
        .join()
        .unwrap();
        assert!(key.is_none(), "cached level tables crossed a thread boundary");
    }
}
