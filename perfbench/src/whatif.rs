//! `whatif`: what-if answers over a cached scale-1 build, alternating a
//! wide answer with a narrow one.
//!
//! An answer is: apply the shock to the world, `rebuild_incremental`
//! over the countries it dirtied, `BuildMetrics::measure` the result,
//! `diff` it against the baseline and rank `insights_for` the diff.
//!
//! One operation is a round of two answers:
//!
//! - the wide answer takes AS16509 down, which dirties about 60
//!   countries: the all-dirty rebuild path, where replay saves nothing;
//! - the narrow answer then onshores one country of that shocked world
//!   (a different one each round, in a seeded order), so its rebuild
//!   recomputes exactly one country and replays the rest.
//!
//! Before each round after the first the world is generated afresh
//! (outside the timed region): the world type has no cheaper way back to
//! the baseline, and re-applying the outage to an already dark world
//! would dirty fewer countries. Every wide answer therefore does the
//! same work and gives the same result.

use crate::build::stage_metrics;
use crate::mix::{fnv1a, Rng};
use crate::trace::Tracer;
use crate::{repeat_setup, stats, Args, Outcome};
use govhost::core::*;
use govhost::scenario::{diff, insights_for, BuildMetrics, InsightContext};
use govhost::types::CountryCode;
use govhost::worldgen::prelude::*;
use govhost::worldgen::{provider_by_asn, shock};
use std::collections::BTreeSet;
use std::time::Instant;

/// World scale (scale 1: about 1.04M URLs).
pub const SCALE: f64 = 1.0;

/// The provider the wide answer takes down.
pub const WIDE_PROVIDER: u32 = 16509;

/// The cached baseline every answer starts from.
struct State {
    world: World,
    cache: BuildCache,
    baseline: BuildMetrics,
    /// Countries with at least one host served from abroad: the ones an
    /// onshore shock changes.
    offshore: Vec<CountryCode>,
}

fn setup(params: &GenParams, options: &BuildOptions, t: &mut Tracer) -> Result<State, BuildError> {
    t.span("whatif.setup", |t| {
        let world = t.span("worldgen.generate", |_| World::generate(params));
        let (dataset, _report, cache) = t.span("core.build_cached", |_| {
            GovDataset::build_cached(&world, options)
        })?;
        let baseline = t.span("scenario.measure", |_| BuildMetrics::measure(&dataset));
        let offshore: BTreeSet<CountryCode> = dataset
            .hosts
            .iter()
            .filter(|h| h.server_country.is_some_and(|s| s != h.country))
            .map(|h| h.country)
            .collect();
        Ok(State {
            world,
            cache,
            baseline,
            offshore: offshore.into_iter().collect(),
        })
    })
}

/// One answered what-if.
struct Answer {
    secs: f64,
    /// Countries the shock dirtied.
    dirty: BTreeSet<CountryCode>,
    /// Countries handed to the rebuild: the shock's plus those the
    /// cache lagged by.
    rebuilt: BTreeSet<CountryCode>,
    /// Countries the rebuild recomputed, by the build's own counters.
    recomputed: usize,
    fingerprint: u64,
    dataset: GovDataset,
}

/// Answer one what-if. `rebuild_span` names the rebuild's span, so the
/// narrow and wide rebuilds are told apart.
fn answer(
    state: &mut State,
    options: &BuildOptions,
    apply: impl FnOnce(&mut World) -> shock::ShockReport,
    pending: &mut BTreeSet<CountryCode>,
    ctx: &InsightContext,
    rebuild_span: &'static str,
    t: &mut Tracer,
) -> Result<Answer, BuildError> {
    let started = Instant::now();
    let (report, rebuilt, dataset, fingerprint) = t.span("whatif.answer", |t| {
        let report = t.span("worldgen.shock", |_| apply(&mut state.world));
        // The cache may lag the world by the shocks of a world that was
        // since regenerated; those countries are rebuilt too.
        let mut dirty = std::mem::take(pending);
        dirty.extend(report.dirty.iter().copied());
        let (dataset, _report) = t.span(rebuild_span, |_| {
            GovDataset::rebuild_incremental(&state.world, options, &mut state.cache, &dirty)
        })?;
        let metrics = t.span("scenario.measure", |_| BuildMetrics::measure(&dataset));
        let fingerprint = t.span("scenario.diff_insights", |_| {
            let d = diff(&state.baseline, &metrics);
            let insights = insights_for(&d, ctx);
            let text: Vec<&str> = insights.iter().map(|i| i.text.as_str()).collect();
            fnv1a(format!("{:?}|{}", d, text.join("\n")).as_bytes())
        });
        Ok::<_, BuildError>((report, dirty, dataset, fingerprint))
    })?;
    let secs = started.elapsed().as_secs_f64();
    let recomputed = dataset
        .telemetry
        .registry
        .counters_named("identify.hosts")
        .count();
    Ok(Answer {
        secs,
        dirty: report.dirty,
        rebuilt,
        recomputed,
        fingerprint,
        dataset,
    })
}

fn export_hash(dataset: &GovDataset) -> u64 {
    let csv = export_csv(dataset);
    fnv1a(csv.hosts.as_bytes())
        ^ fnv1a(csv.urls.as_bytes()).rotate_left(1)
        ^ fnv1a(csv.meta.as_bytes()).rotate_left(2)
}

/// The traced run's check step, right after a wide answer: the
/// incremental answer and a from-scratch build of the same shocked world
/// export identical bytes. Returns the wide rebuild's time over the full
/// build's.
fn check_full_rebuild(
    out: &mut Outcome,
    state: &State,
    wide: &Answer,
    options: &BuildOptions,
    t: &mut Tracer,
) -> Result<f64, String> {
    let incremental = t.span("core.export_csv", |_| export_hash(&wide.dataset));
    let rebuild_ns = t.last_ns("core.rebuild_wide");
    let (full, _report) = t
        .span("core.try_build", |_| {
            GovDataset::try_build(&state.world, options)
        })
        .map_err(|e| format!("full rebuild failed: {e}"))?;
    let full_hash = t.span("core.export_csv", |_| export_hash(&full));
    out.check(incremental == full_hash, || {
        format!("incremental ({incremental:016x}) and full ({full_hash:016x}) rebuilds export different bytes")
    });
    Ok(rebuild_ns / t.last_ns("core.try_build"))
}

/// Run the workload.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let scale = if args.smoke { 0.05 } else { SCALE };
    let params = GenParams {
        seed: args.world_seed(),
        scale,
        ..GenParams::default()
    };
    let options = BuildOptions::default();
    let provider =
        provider_by_asn(WIDE_PROVIDER).ok_or("the outage provider is not on the roster")?;
    let wide_ctx = InsightContext {
        outages: vec![(provider.asn, provider.org.to_string())],
        ..InsightContext::default()
    };
    let mut out = Outcome {
        correct: true,
        scale,
        ..Outcome::default()
    };
    let origin = Instant::now();
    let mut t = Tracer::new(args.trace, origin);

    let (state, setup_s) = repeat_setup(|| setup(&params, &options, &mut t));
    let mut state = state.map_err(|e| format!("baseline build failed: {e}"))?;
    out.set("setup_s", setup_s);

    let mut order = state.offshore.clone();
    if order.is_empty() {
        return Err("no country is served from abroad; nothing to onshore".into());
    }
    Rng::stream(args.seed, "onshore-order").shuffle(&mut order);
    let mut pending = BTreeSet::new();
    // Round times (wide + narrow answer), untraced and traced.
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let mut wide_s = Vec::new();
    let mut narrow_s = Vec::new();
    let mut first_fingerprint = None;
    let mut replay_overhead = None;
    let mut narrow_recomputed = 0usize;
    let mut last_timings = None;
    let mut rebuild_ns = f64::NAN;
    t.set_on(false);
    let started = Instant::now();
    let mut round = 0usize;
    while plain.is_empty() || started.elapsed() < args.seconds || (args.trace && traced.is_empty())
    {
        t.set_on(args.trace && !plain.is_empty());
        if round > 0 {
            state.world = World::generate(&params);
        }
        let country = order[round % order.len()];
        round += 1;

        out.attempted += 1;
        let wide = match answer(
            &mut state,
            &options,
            |w| shock::provider_outage(w, provider),
            &mut pending,
            &wide_ctx,
            "core.rebuild_wide",
            &mut t,
        ) {
            Ok(a) => a,
            Err(e) => {
                out.failed += 1;
                out.notes.push(format!("wide answer failed: {e}"));
                break;
            }
        };
        // The next regenerated world differs from the cache exactly where
        // this round's shocks struck.
        pending = wide.rebuilt.clone();
        let first = *first_fingerprint.get_or_insert(wide.fingerprint);
        out.check(wide.fingerprint == first, || {
            "wide answers differ between rounds".into()
        });
        out.check(wide.recomputed == wide.rebuilt.len(), || {
            format!(
                "wide answer rebuilt {} but recomputed {} countries",
                wide.rebuilt.len(),
                wide.recomputed
            )
        });
        if t.on() && replay_overhead.is_none() {
            replay_overhead = Some(check_full_rebuild(
                &mut out, &state, &wide, &options, &mut t,
            )?);
        }
        let wide_secs = wide.secs;
        drop(wide);

        let narrow = match answer(
            &mut state,
            &options,
            |w| shock::onshore(w, Some(country)),
            &mut BTreeSet::new(),
            &InsightContext::default(),
            "core.rebuild_narrow",
            &mut t,
        ) {
            Ok(a) => a,
            Err(e) => {
                out.failed += 1;
                out.notes.push(format!("narrow answer failed: {e}"));
                break;
            }
        };
        pending.extend(narrow.dirty.iter().copied());
        if narrow.dirty.is_empty() {
            // An onshore shock that moved nothing is no answer; a shock
            // this workload chose from offshore-served countries should
            // never do that.
            out.failed += 1;
            out.notes
                .push(format!("onshoring {country} dirtied no country"));
            if out.failed > 3 {
                break;
            }
            continue;
        }
        out.check(narrow.dirty.len() == 1 && narrow.recomputed == 1, || {
            format!(
                "narrow answer dirtied {} and recomputed {} countries",
                narrow.dirty.len(),
                narrow.recomputed
            )
        });
        narrow_recomputed = narrow.recomputed;
        last_timings = Some(narrow.dataset.timings);
        rebuild_ns = t.last_ns("core.rebuild_narrow");
        wide_s.push(wide_secs);
        narrow_s.push(narrow.secs);
        if t.on() {
            traced.push(wide_secs + narrow.secs)
        } else {
            plain.push(wide_secs + narrow.secs)
        }
    }
    if plain.is_empty() || (args.trace && traced.is_empty()) {
        return Err("too few what-if rounds completed".into());
    }
    let rounds = plain.len() + traced.len();
    out.notes.push(format!(
        "{rounds} rounds ({} traced): median wide answer {:.3} s, median narrow answer {:.3} s",
        traced.len(),
        stats::median(&wide_s),
        stats::median(&narrow_s),
    ));

    if !args.trace {
        out.set("op_ms", stats::interquartile_mean(&plain) * 1e3);
        out.set("wide_s", stats::interquartile_mean(&wide_s));
        out.set("narrow_s", stats::interquartile_mean(&narrow_s));
        return Ok(out);
    }

    out.set(
        "worldgen.generate_s",
        t.self_s_per_call("worldgen.generate"),
    );
    out.set("worldgen.shock_s", t.self_s_per_call("worldgen.shock"));
    out.set(
        "core.rebuild_narrow_s",
        t.self_s_per_call("core.rebuild_narrow"),
    );
    out.set(
        "core.rebuild_wide_s",
        t.self_s_per_call("core.rebuild_wide"),
    );
    out.set("core.rebuild_recomputed", narrow_recomputed as f64);
    out.set(
        "core.replay_overhead",
        replay_overhead.ok_or("the full-rebuild check did not run")?,
    );
    out.set("core.try_build_s", t.self_s_per_call("core.try_build"));
    out.set("core.export_csv_s", t.self_s_per_call("core.export_csv"));
    out.set("scenario.measure_s", t.self_s_per_call("scenario.measure"));
    out.set(
        "scenario.diff_insights_s",
        t.self_s_per_call("scenario.diff_insights"),
    );
    // Stage busy time of the last narrow rebuild: geolocation reruns in
    // full, the per-country stages only for the one dirty country.
    let timings = last_timings.ok_or("no narrow answer completed")?;
    stage_metrics(&mut out, &timings, rebuild_ns);
    out.set(
        "trace.overhead_share",
        stats::median(&traced) / stats::median(&plain) - 1.0,
    );
    out.spans = Some(t);
    Ok(out)
}
