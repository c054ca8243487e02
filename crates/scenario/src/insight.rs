//! The insight engine: turn a diff into a short, ranked list of
//! deterministic English findings.
//!
//! Every candidate insight is scored by how much the underlying metric
//! moved; candidates with no movement (|delta| below float noise) are
//! never emitted, so the diff of a build against itself yields *zero*
//! insights. Ranking is score-descending with the sentence text as the
//! tiebreak — two runs over the same diff always print the same words
//! in the same order.

use crate::diff::DiffReport;
use govhost_types::CountryCode;
use std::collections::BTreeMap;

/// Movement below this is float noise, not a finding.
const EPSILON: f64 = 1e-9;

/// How many insights a report keeps after ranking.
const MAX_INSIGHTS: usize = 12;

/// One ranked finding.
#[derive(Debug, Clone, PartialEq)]
pub struct Insight {
    /// Ranking weight (larger = more important).
    pub score: f64,
    /// The finding, as a complete deterministic sentence.
    pub text: String,
}

/// Scenario context the diff alone cannot carry.
#[derive(Debug, Clone, Default)]
pub struct InsightContext {
    /// Providers taken down, as `(asn, org)` pairs.
    pub outages: Vec<(u32, String)>,
    /// Per-country share of URLs dark only through the shared-NS
    /// cascade, in percent.
    pub ns_only_percent: BTreeMap<CountryCode, f64>,
}

fn push(out: &mut Vec<Insight>, score: f64, text: String) {
    if score > EPSILON {
        out.push(Insight { score, text });
    }
}

/// Rank what changed between the diff's two sides. Side A is read as
/// "before", side B as "after".
pub fn insights_for(diff: &DiffReport, ctx: &InsightContext) -> Vec<Insight> {
    let mut out = Vec::new();
    // Outage headlines: one sentence per darkened country, scored by
    // how much of its web went dark.
    let outage_label = match ctx.outages.as_slice() {
        [] => None,
        [(asn, org)] => Some(format!("an AS{asn} ({org}) outage")),
        many => {
            let names: Vec<String> =
                many.iter().map(|(asn, _)| format!("AS{asn}")).collect();
            Some(format!("a combined {} outage", names.join("+")))
        }
    };
    for country in &diff.countries {
        let cc = country.country;
        if let Some(label) = &outage_label {
            if let Some(dark) = country.rows.iter().find(|r| r.label == "dark %") {
                if dark.delta > EPSILON {
                    let ns_only = ctx.ns_only_percent.get(&cc).copied().unwrap_or(0.0);
                    let mut text = format!(
                        "{label} darkens {:.1}% of {cc}'s government web",
                        dark.b
                    );
                    if ns_only > EPSILON {
                        text.push_str(&format!(
                            "; {ns_only:.1}% is NS-only exposure (healthy servers behind dead nameservers)"
                        ));
                    }
                    push(&mut out, dark.delta * 2.0, text);
                }
            }
        }
        for r in &country.rows {
            match r.label.as_str() {
                "hhi (bytes)" => {
                    let direction = if r.delta > 0.0 { "rises" } else { "falls" };
                    push(
                        &mut out,
                        r.delta.abs() * 100.0,
                        format!(
                            "{cc}'s byte concentration {direction} from HHI {:.3} to {:.3}",
                            r.a, r.b
                        ),
                    );
                }
                "offshore %" => {
                    let direction = if r.delta > 0.0 { "rises" } else { "falls" };
                    push(
                        &mut out,
                        r.delta.abs(),
                        format!(
                            "{cc}'s offshore share {direction} from {:.1}% to {:.1}% of URLs",
                            r.a, r.b
                        ),
                    );
                }
                _ => {}
            }
        }
    }
    for r in &diff.global {
        if r.label == "dark urls %" && r.delta > EPSILON {
            push(
                &mut out,
                r.delta,
                format!("study-wide, {:.1}% of all government URLs go dark", r.b),
            );
        }
    }
    // Highest score first; sentence text breaks ties deterministically.
    out.sort_by(|a, b| {
        b.score.partial_cmp(&a.score).unwrap_or(std::cmp::Ordering::Equal).then_with(|| {
            a.text.cmp(&b.text)
        })
    });
    out.truncate(MAX_INSIGHTS);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diff::{diff, BuildMetrics, CountryMetrics};

    fn metrics(dark: f64, hhi: f64, offshore: f64) -> BuildMetrics {
        BuildMetrics {
            countries: BTreeMap::from([(
                "NL".parse().unwrap(),
                CountryMetrics {
                    urls: 100,
                    bytes: 1000,
                    hostnames: 9,
                    hhi_urls: hhi,
                    hhi_bytes: hhi,
                    dominant: None,
                    offshore_percent: Some(offshore),
                    dark_percent: dark,
                },
            )]),
            providers: BTreeMap::new(),
            mean_hhi_urls: hhi,
            mean_hhi_bytes: hhi,
            state_led: 0,
            third_party_urls: 0.5,
            third_party_bytes: 0.5,
            domestic_serving: 1.0 - offshore / 100.0,
            dark_percent: dark,
        }
    }

    #[test]
    fn self_diff_yields_zero_insights() {
        let m = metrics(0.0, 0.35, 20.0);
        let found = insights_for(&diff(&m, &m), &InsightContext::default());
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn outage_sentence_names_provider_dark_share_and_ns_exposure() {
        let a = metrics(0.0, 0.35, 20.0);
        let b = metrics(41.0, 0.55, 20.0);
        let ctx = InsightContext {
            outages: vec![(16509, "Amazon.com, Inc.".to_string())],
            ns_only_percent: BTreeMap::from([("NL".parse().unwrap(), 9.0)]),
        };
        let found = insights_for(&diff(&a, &b), &ctx);
        let headline = &found[0].text;
        assert!(headline.contains("AS16509 (Amazon.com, Inc.) outage"), "{headline}");
        assert!(headline.contains("darkens 41.0% of NL's government web"), "{headline}");
        assert!(headline.contains("9.0% is NS-only exposure"), "{headline}");
    }

    #[test]
    fn ranking_is_deterministic_and_bounded() {
        let a = metrics(0.0, 0.35, 60.0);
        let b = metrics(0.0, 0.20, 5.0);
        let first = insights_for(&diff(&a, &b), &InsightContext::default());
        let second = insights_for(&diff(&a, &b), &InsightContext::default());
        assert_eq!(first, second);
        assert!(!first.is_empty() && first.len() <= MAX_INSIGHTS);
        assert!(first.windows(2).all(|w| w[0].score >= w[1].score), "sorted by score");
        // Localization reads as a fall in offshore share.
        assert!(first.iter().any(|i| i.text.contains("offshore share falls")), "{first:?}");
    }
}
