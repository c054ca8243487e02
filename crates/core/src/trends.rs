//! Longitudinal trends — the extension direction the paper motivates.
//!
//! §2 frames the study against a decade-long consolidation trend, and the
//! related work (Kumar et al. 2023) tracks third-party dependency
//! longitudinally, finding dependencies *increasing* year over year. This
//! module runs the full pipeline over a sequence of world snapshots
//! (generated with increasing [`GenParams::third_party_drift`]) and
//! reports how the paper's headline metrics move.
//!
//! [`GenParams::third_party_drift`]: govhost_worldgen::GenParams

use crate::dataset::{BuildOptions, GovDataset};
use crate::measure::BuildMetrics;
use govhost_worldgen::{GenParams, World};

/// One measured snapshot of the sweep.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Label (e.g. a year).
    pub label: String,
    /// Drift parameter that produced the snapshot.
    pub drift: f64,
    /// The snapshot's build, measured.
    pub metrics: BuildMetrics,
}

/// A longitudinal run over several snapshots.
#[derive(Debug, Clone)]
pub struct TrendAnalysis {
    /// Per-snapshot metrics, in input order.
    pub snapshots: Vec<Snapshot>,
}

impl TrendAnalysis {
    /// Generate `labels.len()` snapshots with the given drift values and
    /// measure each through the full pipeline. Base parameters (seed,
    /// scale, coverage knobs) are shared, so the only difference between
    /// snapshots is the hosting drift — a controlled experiment.
    pub fn run(base: &GenParams, steps: &[(String, f64)], options: &BuildOptions) -> TrendAnalysis {
        let snapshots = steps
            .iter()
            .map(|(label, drift)| {
                let params = GenParams { third_party_drift: *drift, ..*base };
                let world = World::generate(&params);
                let dataset = GovDataset::build(&world, options);
                Snapshot {
                    label: label.clone(),
                    drift: *drift,
                    metrics: BuildMetrics::measure(&dataset),
                }
            })
            .collect();
        TrendAnalysis { snapshots }
    }

    /// Change in third-party URL share from the first to the last
    /// snapshot.
    pub fn third_party_delta(&self) -> f64 {
        match (self.snapshots.first(), self.snapshots.last()) {
            (Some(a), Some(b)) => b.metrics.third_party_urls - a.metrics.third_party_urls,
            _ => f64::NAN,
        }
    }

    /// Whether the third-party share is monotone non-decreasing across
    /// snapshots — the consolidation claim of the longitudinal related
    /// work.
    pub fn consolidation_is_monotone(&self) -> bool {
        self.snapshots
            .windows(2)
            .all(|w| w[1].metrics.third_party_urls >= w[0].metrics.third_party_urls - 0.02)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run() -> TrendAnalysis {
        let base = GenParams::tiny();
        let steps = vec![
            ("2024".to_string(), 0.0),
            ("2026".to_string(), 0.15),
            ("2028".to_string(), 0.30),
        ];
        TrendAnalysis::run(&base, &steps, &BuildOptions::default())
    }

    #[test]
    fn drift_increases_third_party_share() {
        let trend = run();
        assert_eq!(trend.snapshots.len(), 3);
        assert!(trend.consolidation_is_monotone(), "{:?}", trend.snapshots);
        assert!(
            trend.third_party_delta() > 0.05,
            "30% drift must visibly consolidate: Δ = {}",
            trend.third_party_delta()
        );
    }

    #[test]
    fn drift_erodes_domestic_serving_and_state_led_count() {
        let trend = run();
        let first = &trend.snapshots[0].metrics;
        let last = &trend.snapshots[2].metrics;
        assert!(
            last.domestic_serving < first.domestic_serving + 0.01,
            "domestic serving must not grow under consolidation: {} -> {}",
            first.domestic_serving,
            last.domestic_serving
        );
        assert!(
            last.state_led <= first.state_led,
            "state-led countries shrink: {} -> {}",
            first.state_led,
            last.state_led
        );
    }

    #[test]
    fn drift_and_share_are_strongly_correlated() {
        let base = GenParams::tiny();
        let steps: Vec<(String, f64)> =
            [0.0, 0.1, 0.2, 0.3].iter().map(|d| (format!("d{d}"), *d)).collect();
        let trend = TrendAnalysis::run(&base, &steps, &BuildOptions::default());
        let drifts: Vec<f64> = trend.snapshots.iter().map(|s| s.drift).collect();
        let shares: Vec<f64> =
            trend.snapshots.iter().map(|s| s.metrics.third_party_urls).collect();
        let r = govhost_stats::correlation::pearson(&drifts, &shares);
        assert!(r > 0.9, "drift strongly drives consolidation, r = {r}");
    }

    #[test]
    fn zero_drift_snapshot_matches_direct_build() {
        let base = GenParams::tiny();
        let world = World::generate(&base);
        let dataset = GovDataset::build(&world, &BuildOptions::default());
        let direct = BuildMetrics::measure(&dataset);
        let via_run = TrendAnalysis::run(
            &base,
            &[("2024".to_string(), 0.0)],
            &BuildOptions::default(),
        );
        let snap = &via_run.snapshots[0].metrics;
        assert!((snap.third_party_urls - direct.third_party_urls).abs() < 1e-12);
        assert_eq!(snap.leader_countries(), direct.leader_countries());
    }
}
