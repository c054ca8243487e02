//! The timeline index behind the history routes: per-year series
//! prerendered from an evolved [`Timeline`].
//!
//! Three routes read it — `/hhi/history` (the global concentration
//! series), `/country/{iso}/history` (one country's per-year metrics),
//! and `/providers/{name}/history` (one global provider's footprint,
//! addressable by AS number or by org name). Like every other served
//! body, the series are rendered once at index-build time: the
//! parameterless answer is a precomputed [`RouteSlab`] (ETag and all),
//! and a parameterized request (`from`/`to`/`limit`/`offset`) slices
//! the same prerendered per-year rows into the shared query envelope,
//! so response bytes stay pure functions of the timeline at any worker
//! count.
//!
//! When the server starts without an evolution run, the index is built
//! from [`Timeline::snapshot`] — a single year 0 — so the history
//! routes always answer.

use crate::index::{jf, js, RouteSlab};
use crate::query::{envelope, page, HistoryParams};
use govhost_core::evolve::{Timeline, YearMetrics};
use govhost_types::CountryCode;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write;

/// One history series: the precomputed full-series slab plus the
/// per-year rows the parameterized engine slices.
#[derive(Debug, Clone)]
pub(crate) struct Series {
    pub(crate) slab: RouteSlab,
    /// `(year, rendered row)` pairs in year order.
    rows: Vec<(u32, String)>,
}

impl Series {
    /// Wrap prerendered rows, rendering the parameterless base body via
    /// `base` (which receives the joined rows and their count).
    fn new(rows: Vec<(u32, String)>, base: impl FnOnce(usize, String) -> String) -> Series {
        let joined =
            rows.iter().map(|(_, row)| row.as_str()).collect::<Vec<_>>().join(",");
        Series { slab: RouteSlab::json(base(rows.len(), joined)), rows }
    }

    /// Execute a parameterized request: filter the year window, then
    /// paginate — rendering into the shared query envelope under the
    /// concrete `route` path.
    pub(crate) fn execute(&self, route: &str, params: &HistoryParams) -> String {
        let matched: Vec<&String> = self
            .rows
            .iter()
            .filter(|(year, _)| params.contains_year(*year))
            .map(|(_, row)| row)
            .collect();
        let rows: Vec<String> = page(&matched, params.offset(), params.limit())
            .iter()
            .map(|row| (*row).clone())
            .collect();
        envelope(
            route,
            &params.canonical(),
            matched.len(),
            params.offset(),
            params.limit(),
            &rows,
        )
    }
}

/// One provider's history series plus its display identity.
#[derive(Debug, Clone)]
pub(crate) struct ProviderSeries {
    pub(crate) org: String,
    pub(crate) series: Series,
}

/// Per-year history series for every target the history routes can
/// name, prerendered once from a [`Timeline`].
#[derive(Debug, Clone)]
pub struct TimelineIndex {
    hhi: Series,
    /// Keyed by exact uppercase ISO code.
    countries: BTreeMap<String, Series>,
    providers: BTreeMap<u32, ProviderSeries>,
    /// Case-folded org name -> AS number, for name-addressed lookups.
    by_org: BTreeMap<String, u32>,
    years: usize,
}

impl TimelineIndex {
    /// Prerender every series from a timeline.
    pub fn build(timeline: &Timeline) -> TimelineIndex {
        let hhi = Series::new(
            timeline.years.iter().map(|y| (y.year, render_hhi_row(y))).collect(),
            |count, joined| format!("{{\"count\":{count},\"years\":[{joined}]}}"),
        );

        let mut codes: BTreeSet<CountryCode> = BTreeSet::new();
        let mut asns: BTreeMap<u32, String> = BTreeMap::new();
        for year in &timeline.years {
            codes.extend(year.metrics.countries.keys().copied());
            for (asn, p) in &year.metrics.providers {
                asns.entry(*asn).or_insert_with(|| p.org.clone());
            }
        }

        let mut countries = BTreeMap::new();
        for code in codes {
            let rows: Vec<(u32, String)> = timeline
                .years
                .iter()
                .filter_map(|y| {
                    y.metrics.countries.get(&code).map(|c| {
                        let dirty = y.dirty.contains(&code);
                        let mut row = format!(
                            "{{\"year\":{},\"dirty\":{},\"urls\":{},\"bytes\":{},\"hostnames\":{}",
                            y.year, dirty, c.urls, c.bytes, c.hostnames
                        );
                        let _ = write!(
                            row,
                            ",\"hhi_urls\":{},\"hhi_bytes\":{},\"dominant\":{},\"offshore_percent\":{}}}",
                            jf(c.hhi_urls),
                            jf(c.hhi_bytes),
                            c.dominant.map_or("null".to_string(), |d| js(d.label())),
                            c.offshore_percent.map_or("null".to_string(), jf)
                        );
                        (y.year, row)
                    })
                })
                .collect();
            let iso = code.as_str().to_string();
            let header = iso.clone();
            countries.insert(
                iso,
                Series::new(rows, move |count, joined| {
                    format!(
                        "{{\"code\":{},\"count\":{count},\"years\":[{joined}]}}",
                        js(&header)
                    )
                }),
            );
        }

        let mut providers = BTreeMap::new();
        let mut by_org = BTreeMap::new();
        for (asn, org) in asns {
            let rows: Vec<(u32, String)> = timeline
                .years
                .iter()
                .filter_map(|y| {
                    y.metrics.providers.get(&asn).map(|p| {
                        (
                            y.year,
                            format!(
                                "{{\"year\":{},\"countries\":{}}}",
                                y.year, p.countries
                            ),
                        )
                    })
                })
                .collect();
            let base_org = org.clone();
            let series = Series::new(rows, move |count, joined| {
                format!(
                    "{{\"asn\":{asn},\"org\":{},\"count\":{count},\"years\":[{joined}]}}",
                    js(&base_org)
                )
            });
            by_org.insert(org.to_ascii_lowercase(), asn);
            providers.insert(asn, ProviderSeries { org, series });
        }

        TimelineIndex {
            hhi,
            countries,
            providers,
            by_org,
            years: timeline.years.len(),
        }
    }

    /// The `/hhi/history` series.
    pub(crate) fn hhi(&self) -> &Series {
        &self.hhi
    }

    /// One country's series, by exact uppercase ISO code.
    pub(crate) fn country(&self, iso: &str) -> Option<&Series> {
        self.countries.get(iso)
    }

    /// One provider's series, addressed by AS number (`AS13335` or
    /// `13335`) or by case-insensitive org name.
    pub(crate) fn provider(&self, name: &str) -> Option<(u32, &ProviderSeries)> {
        if let Ok(asn) = name.parse::<govhost_types::Asn>() {
            return self.providers.get(&asn.value()).map(|p| (asn.value(), p));
        }
        let asn = *self.by_org.get(&name.to_ascii_lowercase())?;
        self.providers.get(&asn).map(|p| (asn, p))
    }

    /// How many years the timeline covers.
    pub fn year_count(&self) -> usize {
        self.years
    }

    /// How many providers have a history series.
    pub fn provider_count(&self) -> usize {
        self.providers.len()
    }

    /// The org name behind a provider series, by AS number.
    pub fn provider_org(&self, asn: u32) -> Option<&str> {
        self.providers.get(&asn).map(|p| p.org.as_str())
    }
}

/// Render one `/hhi/history` per-year row.
fn render_hhi_row(y: &YearMetrics) -> String {
    let dirty =
        y.dirty.iter().map(|c| js(c.as_str())).collect::<Vec<_>>().join(",");
    format!(
        "{{\"year\":{},\"dirty\":[{}],\"mean_hhi_urls\":{},\"mean_hhi_bytes\":{},\"state_led\":{},\"third_party_urls\":{}}}",
        y.year,
        dirty,
        jf(y.metrics.mean_hhi_urls),
        jf(y.metrics.mean_hhi_bytes),
        y.metrics.state_led,
        jf(y.metrics.third_party_urls)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use govhost_core::prelude::*;
    use govhost_worldgen::prelude::*;

    fn timeline() -> Timeline {
        let mut world = World::generate(&GenParams::tiny());
        govhost_core::evolve::evolve(&mut world, 2, &BuildOptions::default())
            .expect("tiny world evolves")
            .timeline
    }

    #[test]
    fn series_cover_every_year_country_and_provider() {
        let tl = timeline();
        let idx = TimelineIndex::build(&tl);
        assert_eq!(idx.year_count(), 3);
        assert!(idx.hhi().slab.body_str().starts_with("{\"count\":3"));
        for code in tl.years[0].metrics.countries.keys() {
            let series = idx.country(code.as_str()).expect("every country has a series");
            assert!(series.slab.body_str().contains("\"year\":0"));
            assert!(series.slab.body_str().contains("\"year\":2"));
        }
        assert!(idx.country("ZZ").is_none());
        assert!(idx.provider_count() > 0);
    }

    #[test]
    fn providers_resolve_by_asn_and_by_name() {
        let idx = TimelineIndex::build(&timeline());
        let (asn, by_asn) = idx.provider("AS13335").expect("Cloudflare is always global");
        assert_eq!(asn, 13335);
        let (_, bare) = idx.provider("13335").unwrap();
        assert_eq!(bare.series.slab.etag(), by_asn.series.slab.etag());
        let (named_asn, by_name) =
            idx.provider(&by_asn.org.to_ascii_uppercase()).expect("org names fold case");
        assert_eq!(named_asn, 13335);
        assert_eq!(by_name.series.slab.etag(), by_asn.series.slab.etag());
        assert!(idx.provider("No Such Provider").is_none());
        assert!(idx.provider("AS99999").is_none());
    }

    #[test]
    fn execute_windows_and_paginates() {
        let idx = TimelineIndex::build(&timeline());
        let all = HistoryParams::parse("").unwrap();
        let body = idx.hhi().execute("/hhi/history", &all);
        assert!(body.contains("\"total\":3"), "{body}");
        let windowed = HistoryParams::parse("from=1&to=1").unwrap();
        let body = idx.hhi().execute("/hhi/history", &windowed);
        assert!(body.contains("\"total\":1"), "{body}");
        assert!(body.contains("\"year\":1"), "{body}");
        assert!(!body.contains("\"year\":0"), "{body}");
        let paged = HistoryParams::parse("limit=1&offset=2").unwrap();
        let body = idx.hhi().execute("/hhi/history", &paged);
        assert!(body.contains("\"total\":3"), "{body}");
        assert!(body.contains("\"count\":1"), "{body}");
        assert!(body.contains("\"year\":2"), "{body}");
    }
}
