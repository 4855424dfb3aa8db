//! Tuning knobs of the `Resource_Alloc` heuristic.

use serde::{Deserialize, Serialize};

/// Configuration of the multi-stage heuristic.
///
/// Defaults reproduce the paper's setup: three randomized initial
/// solutions, a dispersion grid of ten levels, and a local search that
/// runs every operator until the profit stops improving.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SolverConfig {
    /// Number of randomized greedy initial solutions; the best one seeds
    /// the local search (paper: 3).
    pub num_init_solns: usize,
    /// Granularity `G` of the dispersion grid: `α ∈ {1/G, 2/G, …, 1}` in
    /// the greedy construction's dynamic program (paper's `g`).
    pub alpha_granularity: usize,
    /// Shadow price `ψ` charged per unit of GPS share during greedy
    /// insertion (the reconstruction of paper Eq. (16); see DESIGN.md).
    /// `None` auto-calibrates to the mean `λ̃·slope` of the client
    /// population.
    pub shadow_price: Option<f64>,
    /// Maximum local-search rounds; each round runs every enabled
    /// operator once over the whole system.
    pub max_rounds: usize,
    /// Relative profit improvement below which the search is "steady".
    pub steady_tol: f64,
    /// Enable the `Adjust_ResourceShares` operator.
    pub adjust_shares: bool,
    /// Enable the `Adjust_DispersionRates` operator.
    pub adjust_dispersion: bool,
    /// Enable the `TurnON_servers` operator.
    pub turn_on: bool,
    /// Enable the `TurnOFF_servers` operator.
    pub turn_off: bool,
    /// Enable the inter-cluster `Reassign_Clients` operator.
    pub reassign: bool,
    /// Enable the pairwise `Swap_Clients` operator, an extension beyond
    /// the paper's operator set (escapes optima where two full clusters
    /// block single-client moves). Off by default to match the paper.
    pub swap: bool,
    /// Relative stability margin: service rates must exceed arrival rates
    /// by this factor so response times stay bounded.
    pub stability_margin: f64,
    /// Serve every client even at a loss, mirroring the paper's
    /// constraint (6) strictly. When `false` (default) the greedy
    /// construction declines clients whose best placement has a negative
    /// profit contribution; the reassignment operator keeps re-testing
    /// them each round and admits them as soon as they turn profitable.
    pub require_service: bool,
    /// Worker threads for every fan-out of the solve: the best-of-N
    /// construction, multi-seed restarts, the per-cluster candidate
    /// search, the cluster-local operator phases and the reassignment
    /// proposals. `None` (default) consults the `CLOUDALLOC_THREADS`
    /// environment variable, then falls back to all available cores.
    /// Results are identical for every thread count — each greedy pass
    /// owns an independent seeded RNG stream, and every fan-out reduces
    /// in fixed job order.
    pub num_threads: Option<usize>,
}

impl SolverConfig {
    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics on the first out-of-domain field.
    pub fn validate(&self) {
        assert!(self.num_init_solns >= 1, "need at least one initial solution");
        assert!(
            (2..=1000).contains(&self.alpha_granularity),
            "alpha granularity must lie in [2, 1000], got {}",
            self.alpha_granularity
        );
        if let Some(psi) = self.shadow_price {
            assert!(psi.is_finite() && psi > 0.0, "shadow price must be positive, got {psi}");
        }
        assert!(self.max_rounds >= 1, "need at least one local-search round");
        assert!(
            self.steady_tol.is_finite() && self.steady_tol >= 0.0,
            "steady_tol must be non-negative"
        );
        assert!(
            self.stability_margin.is_finite() && self.stability_margin > 0.0,
            "stability margin must be positive"
        );
        if let Some(t) = self.num_threads {
            assert!(t >= 1, "need at least one worker thread");
        }
    }

    /// Resolves the worker-thread count: the explicit config value, else
    /// the `CLOUDALLOC_THREADS` environment variable, else every
    /// available core. An unparsable or zero environment value falls
    /// back to all cores *with a warning* (once per process) — silently
    /// eating a typo like `CLOUDALLOC_THREADS=two` used to hide that the
    /// run was not pinned at all.
    ///
    /// Requested counts are clamped to the machine's available
    /// parallelism: the solve schedule is identical for every worker
    /// count, so extra workers beyond the core count can only add spawn
    /// and contention overhead (on a one-core box an eight-worker request
    /// used to *quadruple* wall-clock at identical profit). The core count
    /// is resolved once per process.
    pub fn effective_threads(&self) -> usize {
        let all_cores = available_cores();
        if let Some(t) = self.num_threads.filter(|&t| t >= 1) {
            return t.min(all_cores);
        }
        match std::env::var("CLOUDALLOC_THREADS") {
            Err(std::env::VarError::NotPresent) => all_cores,
            Err(std::env::VarError::NotUnicode(_)) => {
                warn_threads_once("CLOUDALLOC_THREADS is not valid unicode");
                all_cores
            }
            Ok(raw) => match parse_threads_var(&raw) {
                Ok(t) => t.min(all_cores),
                Err(msg) => {
                    warn_threads_once(&msg);
                    all_cores
                }
            },
        }
    }

    /// A fast configuration for tests: one initial solution, coarse grid,
    /// few rounds.
    pub fn fast() -> Self {
        Self { num_init_solns: 1, alpha_granularity: 4, max_rounds: 3, ..Self::default() }
    }
}

/// Validates one `CLOUDALLOC_THREADS` value: the worker count on
/// success, a diagnostic for garbage text or the invalid `0`.
pub(crate) fn parse_threads_var(raw: &str) -> Result<usize, String> {
    match raw.trim().parse::<usize>() {
        Ok(0) => Err("CLOUDALLOC_THREADS=0 requests zero worker threads (need >= 1)".to_owned()),
        Ok(t) => Ok(t),
        Err(_) => Err(format!("CLOUDALLOC_THREADS={raw:?} is not a thread count")),
    }
}

/// The machine's available parallelism, queried once per process:
/// `effective_threads` runs on every `SolverCtx::new`, i.e. on every solve
/// and every served request, and the query reads cgroup and affinity
/// state from the OS each time.
fn available_cores() -> usize {
    static CORES: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1))
}

/// Prints one `warning:` line per process for a bad `CLOUDALLOC_THREADS`
/// value; `effective_threads` is called on every solve, so repeating it
/// would swamp stderr.
fn warn_threads_once(msg: &str) {
    static WARNED: std::sync::Once = std::sync::Once::new();
    WARNED.call_once(|| {
        eprintln!("warning: {msg}; falling back to all available cores");
    });
}

impl Default for SolverConfig {
    fn default() -> Self {
        Self {
            num_init_solns: 3,
            alpha_granularity: 10,
            shadow_price: None,
            max_rounds: 25,
            steady_tol: 1e-6,
            adjust_shares: true,
            adjust_dispersion: true,
            turn_on: true,
            turn_off: true,
            reassign: true,
            swap: false,
            stability_margin: 1e-3,
            require_service: false,
            num_threads: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper() {
        let c = SolverConfig::default();
        c.validate();
        assert_eq!(c.num_init_solns, 3);
        assert_eq!(c.alpha_granularity, 10);
        assert!(c.adjust_shares && c.adjust_dispersion && c.turn_on && c.turn_off && c.reassign);
    }

    #[test]
    fn fast_preset_validates() {
        SolverConfig::fast().validate();
    }

    #[test]
    #[should_panic(expected = "alpha granularity")]
    fn rejects_degenerate_grid() {
        let c = SolverConfig { alpha_granularity: 1, ..Default::default() };
        c.validate();
    }

    #[test]
    #[should_panic(expected = "shadow price")]
    fn rejects_non_positive_shadow_price() {
        let c = SolverConfig { shadow_price: Some(0.0), ..Default::default() };
        c.validate();
    }

    #[test]
    fn threads_var_parses_counts_with_whitespace() {
        assert_eq!(parse_threads_var("4"), Ok(4));
        assert_eq!(parse_threads_var("  16\n"), Ok(16));
    }

    #[test]
    fn threads_var_rejects_zero_with_a_diagnostic() {
        let err = parse_threads_var("0").unwrap_err();
        assert!(err.contains("zero worker threads"), "unhelpful diagnostic: {err}");
    }

    #[test]
    fn threads_var_rejects_garbage_with_a_diagnostic() {
        for bad in ["two", "", "4.5", "-2", "4x"] {
            let err = parse_threads_var(bad).expect_err("garbage thread counts must not parse");
            assert!(err.contains("CLOUDALLOC_THREADS"), "diagnostic lacks the var name: {err}");
        }
    }

    #[test]
    fn explicit_config_thread_count_wins_over_environment() {
        // CI pins CLOUDALLOC_THREADS=2; an explicit config value must
        // override whatever the environment says, without warnings. The
        // request is still clamped to the machine's core count — workers
        // beyond the hardware only add spawn overhead for an identical
        // schedule.
        let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        let c = SolverConfig { num_threads: Some(3), ..Default::default() };
        assert_eq!(c.effective_threads(), 3.min(cores));
    }

    #[test]
    fn requested_workers_are_clamped_to_available_cores() {
        let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        let c = SolverConfig { num_threads: Some(usize::MAX), ..Default::default() };
        assert_eq!(c.effective_threads(), cores);
        // A request at or below the core count passes through untouched.
        let c = SolverConfig { num_threads: Some(1), ..Default::default() };
        assert_eq!(c.effective_threads(), 1);
    }
}
