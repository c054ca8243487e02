//! Prerendered scenario routes: report cards and diffs as byte-pinned
//! slabs.
//!
//! A [`ScenarioIndex`] is built once from evaluated
//! [`ScenarioRun`]s — usually the CLI's `serve --scenario FILE` path —
//! and travels inside the served [`QueryIndex`](crate::QueryIndex), so
//! a hot swap replaces it together with every other slab. Every
//! `/scenario/{name}` and `/scenario/{name}/diff` answer is a
//! [`RouteSlab`] rendered here at build time: ETag included,
//! `304`-able, and byte-identical across workers and runs because the
//! JSON is a pure fold over the run's already-deterministic structures
//! (report cards in country order, insights in rank order, diff rows in
//! fixed label order).

use crate::index::{jf, js, RouteSlab};
use govhost_scenario::{report_cards, DiffReport, MetricRow, ScenarioRun};
use std::collections::BTreeMap;

/// One scenario's two prerendered answers.
#[derive(Debug, Clone)]
struct ScenarioSlabs {
    /// `/scenario/{name}`: report cards plus ranked insights.
    report: RouteSlab,
    /// `/scenario/{name}/diff`: baseline vs shocked, row by row.
    diff: RouteSlab,
}

/// Every declared scenario, prerendered for serving inside a
/// [`QueryIndex`](crate::QueryIndex).
#[derive(Debug, Clone, Default)]
pub struct ScenarioIndex {
    entries: BTreeMap<String, ScenarioSlabs>,
}

impl ScenarioIndex {
    /// Render slabs for every run, keyed by scenario name.
    pub fn build(runs: &[ScenarioRun]) -> ScenarioIndex {
        let mut entries = BTreeMap::new();
        for run in runs {
            entries.insert(
                run.name.clone(),
                ScenarioSlabs {
                    report: RouteSlab::json(render_report(run)),
                    diff: RouteSlab::json(render_diff(&run.name, &run.diff())),
                },
            );
        }
        ScenarioIndex { entries }
    }

    /// How many scenarios are served.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no scenarios are served.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Scenario names in sorted order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.entries.keys().map(String::as_str)
    }

    pub(crate) fn report_slab(&self, name: &str) -> Option<&RouteSlab> {
        self.entries.get(name).map(|s| &s.report)
    }

    pub(crate) fn diff_slab(&self, name: &str) -> Option<&RouteSlab> {
        self.entries.get(name).map(|s| &s.diff)
    }
}

fn render_report(run: &ScenarioRun) -> String {
    let cards: Vec<String> = report_cards(run)
        .iter()
        .map(|c| {
            let offshore = c.offshore_percent.map_or_else(|| "null".to_string(), jf);
            format!(
                "{{\"country\":{},\"overall\":{},\"concentration\":{},\"exposure\":{},\
                 \"resilience\":{},\"hhi_bytes\":{},\"offshore_percent\":{},\
                 \"dark_percent\":{},\"ns_only_percent\":{}}}",
                js(c.country.as_str()),
                js(&c.overall.to_string()),
                js(&c.concentration.to_string()),
                js(&c.exposure.to_string()),
                js(&c.resilience.to_string()),
                jf(c.hhi_bytes),
                offshore,
                jf(c.dark_percent),
                jf(c.ns_only_percent),
            )
        })
        .collect();
    let insights: Vec<String> =
        run.insights().iter().map(|i| js(&i.text)).collect();
    let dirty: Vec<String> = run.dirty.iter().map(|c| js(c.as_str())).collect();
    format!(
        "{{\"scenario\":{},\"events\":{},\"dirty\":[{}],\"dark_percent\":{},\
         \"cards\":[{}],\"insights\":[{}]}}",
        js(&run.name),
        run.events.len(),
        dirty.join(","),
        jf(run.shocked_metrics.dark_percent),
        cards.join(","),
        insights.join(","),
    )
}

fn render_row(r: &MetricRow) -> String {
    format!(
        "{{\"label\":{},\"a\":{},\"b\":{},\"delta\":{},\"diff_pct\":{},\
         \"winner\":{},\"lower_is_better\":{}}}",
        js(&r.label),
        jf(r.a),
        jf(r.b),
        jf(r.delta),
        jf(r.diff_pct),
        js(r.winner.label()),
        r.lower_is_better,
    )
}

fn render_diff(name: &str, diff: &DiffReport) -> String {
    let global: Vec<String> = diff.global.iter().map(render_row).collect();
    let countries: Vec<String> = diff
        .countries
        .iter()
        .map(|c| {
            let rows: Vec<String> = c.rows.iter().map(render_row).collect();
            format!(
                "{{\"country\":{},\"rows\":[{}]}}",
                js(c.country.as_str()),
                rows.join(",")
            )
        })
        .collect();
    format!(
        "{{\"scenario\":{},\"global\":[{}],\"countries\":[{}]}}",
        js(name),
        global.join(","),
        countries.join(","),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use govhost_core::prelude::*;
    use govhost_scenario::{dsl, run_file};
    use govhost_worldgen::GenParams;

    fn runs() -> Vec<ScenarioRun> {
        let file = dsl::parse("scenario quake\noutage provider AS13335\n").unwrap();
        run_file(&GenParams::tiny(), &file, &BuildOptions::default()).unwrap()
    }

    #[test]
    fn slabs_are_valid_json_shaped_and_byte_stable() {
        let runs = runs();
        let a = ScenarioIndex::build(&runs);
        let b = ScenarioIndex::build(&runs);
        assert_eq!(a.len(), 1);
        assert_eq!(a.names().collect::<Vec<_>>(), ["quake"]);
        for name in a.names() {
            let ra = a.report_slab(name).unwrap();
            let rb = b.report_slab(name).unwrap();
            assert_eq!(ra.body_str(), rb.body_str(), "report bytes pinned");
            assert_eq!(
                a.diff_slab(name).unwrap().body_str(),
                b.diff_slab(name).unwrap().body_str(),
                "diff bytes pinned"
            );
            assert!(ra.body_str().starts_with("{\"scenario\":\"quake\""), "{}", ra.body_str());
            assert!(ra.body_str().contains("\"cards\":["));
            assert!(a.diff_slab(name).unwrap().body_str().contains("\"global\":["));
        }
        assert!(a.report_slab("nope").is_none());
    }
}
