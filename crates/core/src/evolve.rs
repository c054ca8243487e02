//! Longitudinal evolution: tick the world, rebuild incrementally, and
//! measure the headline metrics per simulated year.
//!
//! Where [`crate::trends`] regenerates a fresh world per drift step (a
//! controlled experiment over one parameter), this module advances *one*
//! world through deterministic yearly ticks
//! ([`govhost_worldgen::tick`]) and rebuilds the dataset after each via
//! [`GovDataset::rebuild_incremental`] — the revisit-study design: the
//! same corpus re-measured as its hosting drifts. The per-year
//! [`YearMetrics`] snapshots assemble into a [`Timeline`], which
//! `govhost-serve` exposes through the `/hhi/history`,
//! `/country/{iso}/history` and `/providers/{name}/history` routes.
//!
//! Everything is a pure function of `(params, years, tick systems)`:
//! the same seed yields a bit-identical timeline at every thread count
//! (`tests/evolve.rs` pins 10 years across 1/2/4 threads).

use crate::dataset::{BuildError, BuildOptions, BuildReport, GovDataset};
use crate::measure::BuildMetrics;
use govhost_types::CountryCode;
use govhost_worldgen::tick::{self, TickSystem, UnknownTickError};
use govhost_worldgen::World;
use std::time::Duration;

/// The measured state of the world in one simulated year.
#[derive(Debug, Clone, PartialEq)]
pub struct YearMetrics {
    /// Simulated year (0 = the freshly generated world).
    pub year: u32,
    /// Countries the year's tick re-pointed (empty for year 0).
    pub dirty: Vec<CountryCode>,
    /// The year's build, measured.
    pub metrics: BuildMetrics,
}

/// Per-year snapshots of an evolving world, year 0 first.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Timeline {
    /// One entry per measured year, in year order.
    pub years: Vec<YearMetrics>,
}

impl Timeline {
    /// A single-year timeline: one measured build as year 0 — what
    /// `govhost-serve` uses when no evolution ran, so the history routes
    /// always have (one year of) data.
    pub fn snapshot(metrics: BuildMetrics) -> Timeline {
        Timeline { years: vec![YearMetrics { year: 0, dirty: Vec::new(), metrics }] }
    }

    /// The most recent year, if any.
    pub fn latest(&self) -> Option<&YearMetrics> {
        self.years.last()
    }
}

/// Bookkeeping for one applied tick.
#[derive(Debug, Clone)]
pub struct TickSummary {
    /// The simulated year.
    pub year: u32,
    /// Countries the tick re-pointed.
    pub dirty: Vec<CountryCode>,
    /// The tick systems' event log.
    pub events: Vec<String>,
    /// Wall time of the incremental rebuild that followed.
    pub rebuild: Duration,
}

/// Everything an evolve run produces.
#[derive(Debug)]
pub struct EvolveOutcome {
    /// Per-year metric snapshots (years 0..=N).
    pub timeline: Timeline,
    /// The dataset after the final year.
    pub dataset: GovDataset,
    /// The report of the final rebuild.
    pub report: BuildReport,
    /// One summary per applied tick, in year order.
    pub ticks: Vec<TickSummary>,
}

/// Why an [`evolve`] run could not complete.
#[derive(Debug)]
pub enum EvolveError {
    /// A yearly (re)build failed.
    Build(BuildError),
    /// The `GOVHOST_TICKS` roster named a system that does not exist.
    Ticks(UnknownTickError),
}

impl std::fmt::Display for EvolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EvolveError::Build(e) => write!(f, "{e}"),
            EvolveError::Ticks(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for EvolveError {}

impl From<BuildError> for EvolveError {
    fn from(e: BuildError) -> Self {
        EvolveError::Build(e)
    }
}

impl From<UnknownTickError> for EvolveError {
    fn from(e: UnknownTickError) -> Self {
        EvolveError::Ticks(e)
    }
}

/// Evolve `world` through `years` ticks with the standard systems
/// (filtered by the `GOVHOST_TICKS` environment variable — see
/// [`govhost_worldgen::tick::systems_from_env`]), rebuilding and
/// measuring after each. A `GOVHOST_TICKS` value naming an unknown
/// system is a typed [`EvolveError::Ticks`], never a silently smaller
/// roster.
pub fn evolve(
    world: &mut World,
    years: u32,
    options: &BuildOptions,
) -> Result<EvolveOutcome, EvolveError> {
    let systems = tick::systems_from_env()?;
    Ok(evolve_with_systems(world, years, options, &systems)?)
}

/// [`evolve`] with an explicit system list.
///
/// Builds year 0 with [`GovDataset::build_cached`], then for each year:
/// run the tick, rebuild just its dirty set with
/// [`GovDataset::rebuild_incremental`], and measure. The outcome's final
/// dataset is byte-identical to a from-scratch build against the final
/// world state.
pub fn evolve_with_systems(
    world: &mut World,
    years: u32,
    options: &BuildOptions,
    systems: &[Box<dyn TickSystem>],
) -> Result<EvolveOutcome, BuildError> {
    let (mut dataset, mut report, mut cache) = GovDataset::build_cached(world, options)?;
    let mut timeline = Timeline::snapshot(BuildMetrics::measure(&dataset));
    let mut ticks = Vec::new();
    for year in 1..=years {
        let tick_report = tick::run_year(world, year, systems);
        let start = std::time::Instant::now();
        let (ds, rep) =
            GovDataset::rebuild_incremental(world, options, &mut cache, &tick_report.dirty)?;
        let rebuild = start.elapsed();
        dataset = ds;
        report = rep;
        let dirty: Vec<CountryCode> = tick_report.dirty.into_iter().collect();
        let metrics = BuildMetrics::measure(&dataset);
        timeline.years.push(YearMetrics { year, dirty: dirty.clone(), metrics });
        ticks.push(TickSummary {
            year,
            dirty,
            events: tick_report.events,
            rebuild,
        });
    }
    Ok(EvolveOutcome { timeline, dataset, report, ticks })
}

#[cfg(test)]
mod tests {
    use super::*;
    use govhost_worldgen::GenParams;

    #[test]
    fn evolve_produces_one_snapshot_per_year() {
        let mut world = World::generate(&GenParams::tiny());
        let outcome =
            evolve(&mut world, 3, &BuildOptions::default()).expect("tiny world evolves");
        assert_eq!(outcome.timeline.years.len(), 4, "year 0 + 3 ticks");
        assert_eq!(outcome.ticks.len(), 3);
        for (i, year) in outcome.timeline.years.iter().enumerate() {
            assert_eq!(year.year, i as u32);
            assert!(!year.metrics.countries.is_empty());
        }
        assert_eq!(outcome.timeline.latest().unwrap().year, 3);
    }

    #[test]
    fn snapshot_timeline_is_year_zero_of_evolve() {
        let params = GenParams::tiny();
        let world = World::generate(&params);
        let dataset = GovDataset::build(&world, &BuildOptions::default());
        let snap = Timeline::snapshot(BuildMetrics::measure(&dataset));

        let mut evolved_world = World::generate(&params);
        let outcome =
            evolve(&mut evolved_world, 1, &BuildOptions::default()).expect("evolves");
        assert_eq!(snap.years[0], outcome.timeline.years[0]);
    }

    #[test]
    fn ticks_move_the_metrics() {
        let mut world = World::generate(&GenParams::tiny());
        let outcome =
            evolve(&mut world, 4, &BuildOptions::default()).expect("tiny world evolves");
        let moved = outcome.timeline.years.windows(2).any(|w| {
            w[0].metrics.countries != w[1].metrics.countries
                || w[0].metrics.providers != w[1].metrics.providers
        });
        assert!(moved, "four ticks must visibly change at least one year's metrics");
    }
}
