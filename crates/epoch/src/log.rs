//! Accumulated epoch history: the operator's view of how the allocator
//! performed over a day/week of epochs.

use serde::{Deserialize, Serialize};

use crate::manager::EpochReport;

/// A rolling log of epoch reports with summary statistics.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct OperationsLog {
    reports: Vec<EpochReport>,
}

/// Aggregate view over a span of epochs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OperationsSummary {
    /// Epochs recorded.
    pub epochs: usize,
    /// Total realized profit.
    pub total_profit: f64,
    /// Mean per-epoch gap between planned and realized profit,
    /// relative to the planned magnitude (`(planned − realized)/|planned|`);
    /// positive means systematic over-promising.
    pub mean_plan_gap: f64,
    /// Fraction of epochs that needed a full re-solve.
    pub replan_rate: f64,
    /// Fraction of (client, epoch) pairs whose SLA blew up
    /// (served-but-unstable under realized rates).
    pub instability_rate: f64,
    /// Mean absolute relative prediction error across epochs.
    pub mean_prediction_error: f64,
    /// Fraction of epochs that needed a mid-epoch fault repair.
    pub repair_rate: f64,
    /// Clients shed across all repairs (victims without a profitable
    /// rescue plus admission-control sheds).
    pub total_shed: usize,
    /// Repairs that escalated to full re-solves.
    pub escalations: usize,
}

impl OperationsLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one epoch's report.
    pub fn record(&mut self, report: EpochReport) {
        self.reports.push(report);
    }

    /// The raw reports, in arrival order.
    pub fn reports(&self) -> &[EpochReport] {
        &self.reports
    }

    /// Number of recorded epochs.
    pub fn len(&self) -> usize {
        self.reports.len()
    }

    /// True when nothing was recorded yet.
    pub fn is_empty(&self) -> bool {
        self.reports.is_empty()
    }

    /// Summarizes the recorded span for `num_clients` clients.
    ///
    /// # Panics
    ///
    /// Panics when the log is empty or `num_clients == 0`.
    pub fn summary(&self, num_clients: usize) -> OperationsSummary {
        assert!(!self.reports.is_empty(), "cannot summarize an empty log");
        assert!(num_clients > 0, "need at least one client");
        let n = self.reports.len() as f64;
        let total_profit: f64 = self.reports.iter().map(|r| r.actual_profit).sum();
        let mean_plan_gap = self
            .reports
            .iter()
            .map(|r| (r.predicted_profit - r.actual_profit) / r.predicted_profit.abs().max(1e-9))
            .sum::<f64>()
            / n;
        let replan_rate = self.reports.iter().filter(|r| r.resolved_fully).count() as f64 / n;
        let instability_rate = self
            .reports
            .iter()
            .map(|r| r.unstable_clients as f64 / num_clients as f64)
            .sum::<f64>()
            / n;
        let mean_prediction_error =
            self.reports.iter().map(|r| r.prediction_error).sum::<f64>() / n;
        let repairs: Vec<_> = self.reports.iter().filter_map(|r| r.repair.as_ref()).collect();
        let repair_rate = repairs.len() as f64 / n;
        let total_shed = repairs.iter().map(|r| r.shed + r.shed_low_utility).sum();
        let escalations = repairs.iter().filter(|r| r.escalated).count();
        OperationsSummary {
            epochs: self.reports.len(),
            total_profit,
            mean_plan_gap,
            replan_rate,
            instability_rate,
            mean_prediction_error,
            repair_rate,
            total_shed,
            escalations,
        }
    }
}

impl Extend<EpochReport> for OperationsLog {
    fn extend<I: IntoIterator<Item = EpochReport>>(&mut self, iter: I) {
        self.reports.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(epoch: usize, planned: f64, actual: f64, unstable: usize, full: bool) -> EpochReport {
        EpochReport {
            epoch,
            resolved_fully: full,
            predicted_profit: planned,
            actual_profit: actual,
            unstable_clients: unstable,
            active_servers: 10,
            prediction_error: 0.1,
            repair: None,
        }
    }

    #[test]
    fn summary_aggregates_the_span() {
        let mut log = OperationsLog::new();
        log.extend([report(0, 10.0, 8.0, 1, false), report(1, 10.0, 12.0, 0, true)]);
        let s = log.summary(10);
        assert_eq!(s.epochs, 2);
        assert!((s.total_profit - 20.0).abs() < 1e-12);
        // Gaps: (10−8)/10 = 0.2 and (10−12)/10 = −0.2 → mean 0.
        assert!(s.mean_plan_gap.abs() < 1e-12);
        assert!((s.replan_rate - 0.5).abs() < 1e-12);
        assert!((s.instability_rate - 0.05).abs() < 1e-12);
        assert!((s.mean_prediction_error - 0.1).abs() < 1e-12);
        assert_eq!(s.repair_rate, 0.0);
        assert_eq!((s.total_shed, s.escalations), (0, 0));
    }

    #[test]
    fn summary_aggregates_repairs() {
        use crate::repair::RepairReport;
        let mut log = OperationsLog::new();
        let mut faulted = report(0, 10.0, 8.0, 0, false);
        faulted.repair = Some(RepairReport {
            failed_servers: 2,
            victims: 3,
            evicted: 4,
            redispersed: 1,
            replaced: 1,
            shed: 1,
            shed_low_utility: 2,
            stale_profit: 3.0,
            naive_profit: 5.0,
            repaired_profit: 7.0,
            used_naive_fallback: false,
            escalated: true,
            resolve_retries: 1,
        });
        log.extend([faulted, report(1, 10.0, 9.0, 0, false)]);
        let s = log.summary(10);
        assert!((s.repair_rate - 0.5).abs() < 1e-12);
        assert_eq!(s.total_shed, 3);
        assert_eq!(s.escalations, 1);
    }

    #[test]
    fn log_tracks_length() {
        let mut log = OperationsLog::new();
        assert!(log.is_empty());
        log.record(report(0, 1.0, 1.0, 0, false));
        assert_eq!(log.len(), 1);
        assert_eq!(log.reports()[0].epoch, 0);
    }

    #[test]
    #[should_panic(expected = "empty log")]
    fn empty_summary_panics() {
        OperationsLog::new().summary(5);
    }

    #[test]
    fn serde_round_trip() {
        let mut log = OperationsLog::new();
        log.record(report(0, 2.0, 1.5, 2, true));
        let json = serde_json::to_string(&log).unwrap();
        assert_eq!(serde_json::from_str::<OperationsLog>(&json).unwrap(), log);
    }
}
