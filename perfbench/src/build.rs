//! `build`: cold scale-1 reproductions — generate the world, build the
//! dataset, run the five paper analyses and export the CSVs, again and
//! again until the run time is spent.

use crate::mix::fnv1a;
use crate::trace::Tracer;
use crate::{repeat_setup, stats, Args, Outcome};
use govhost::core::*;
use govhost::worldgen::prelude::*;
use std::time::Instant;

/// World scale of one reproduction (scale 1: about 1.04M URLs).
pub const SCALE: f64 = 1.0;

/// World scale of the warm-up reproduction that forms the set-up.
pub const WARMUP_SCALE: f64 = 0.25;

/// What one reproduction left behind for the checks and the per-layer
/// numbers.
struct Repro {
    export_hash: u64,
    timings: StageTimings,
    countries: usize,
}

/// One reproduction, with a span around each call into a layer.
fn reproduce(
    params: &GenParams,
    options: &BuildOptions,
    t: &mut Tracer,
) -> Result<Repro, BuildError> {
    t.span("build.repro", |t| {
        let world = t.span("worldgen.generate", |_| World::generate(params));
        let (dataset, _report) =
            t.span("core.try_build", |_| GovDataset::try_build(&world, options))?;
        let countries = t.span("core.analyses", |_| {
            let hosting = HostingAnalysis::compute(&dataset);
            let location = LocationAnalysis::compute(&dataset);
            let providers = ProviderAnalysis::compute(&dataset);
            let crossborder = CrossBorderAnalysis::compute(&dataset);
            let diversification = DiversificationAnalysis::compute(&dataset, &hosting);
            std::hint::black_box((&location, &providers, &crossborder, &diversification));
            hosting.per_country.len()
        });
        let csv = t.span("core.export_csv", |_| export_csv(&dataset));
        let mut h = fnv1a(csv.hosts.as_bytes());
        h ^= fnv1a(csv.urls.as_bytes()).rotate_left(1);
        h ^= fnv1a(csv.meta.as_bytes()).rotate_left(2);
        Ok(Repro {
            export_hash: h,
            timings: dataset.timings,
            countries,
        })
    })
}

/// Run the workload.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let scale = if args.smoke { 0.02 } else { SCALE };
    let warmup = if args.smoke { 0.01 } else { WARMUP_SCALE };
    let params = GenParams {
        seed: args.world_seed(),
        scale,
        ..GenParams::default()
    };
    let options = BuildOptions::default();
    let mut out = Outcome {
        correct: true,
        scale,
        ..Outcome::default()
    };
    let origin = Instant::now();
    let mut t = Tracer::new(false, origin);

    // Set-up: a small warm-up reproduction, so lazy initialisation and
    // the allocator's first growth are not charged to the first op.
    let warm = GenParams {
        scale: warmup,
        ..params
    };
    let (warm_result, setup_s) =
        repeat_setup(|| reproduce(&warm, &options, &mut Tracer::new(false, origin)));
    warm_result.map_err(|e| format!("warm-up build failed: {e}"))?;
    out.set("setup_s", setup_s);

    // Measure. The traced run spends its first op untraced, then traces
    // the rest, so the two can be compared.
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let mut reference: Option<u64> = None;
    let mut last: Option<Repro> = None;
    let started = Instant::now();
    while (plain.len() + traced.len()) == 0
        || started.elapsed() < args.seconds
        || (args.trace && traced.is_empty())
    {
        t.set_on(args.trace && !plain.is_empty());
        out.attempted += 1;
        let op = Instant::now();
        let repro = match reproduce(&params, &options, &mut t) {
            Ok(r) => r,
            Err(e) => {
                out.failed += 1;
                out.notes.push(format!("build failed: {e}"));
                if out.failed > 3 {
                    break;
                }
                continue;
            }
        };
        let secs = op.elapsed().as_secs_f64();
        if t.on() {
            traced.push(secs)
        } else {
            plain.push(secs)
        }
        let expected = *reference.get_or_insert(repro.export_hash);
        out.check(repro.export_hash == expected, || {
            format!(
                "export_csv bytes differ between repetitions ({:016x} vs {expected:016x})",
                repro.export_hash
            )
        });
        out.check(repro.countries > 0, || {
            "the hosting analysis covers no country".into()
        });
        last = Some(repro);
    }
    let last = last.ok_or("every reproduction failed")?;
    if plain.is_empty() || (args.trace && traced.is_empty()) {
        return Err("too few reproductions completed".into());
    }
    let ops = plain.len() + traced.len();
    out.notes.push(format!(
        "{ops} reproductions ({} traced), median {:.3} s",
        traced.len(),
        stats::median(&[plain.clone(), traced.clone()].concat())
    ));

    if !args.trace {
        out.set("op_ms", stats::interquartile_mean(&plain) * 1e3);
    } else {
        layer_metrics(&mut out, &t, &last.timings);
        out.set(
            "trace.overhead_share",
            stats::median(&traced) / stats::median(&plain) - 1.0,
        );
        out.spans = Some(t);
    }
    Ok(out)
}

/// Per-layer numbers from the traced reproductions: self time per call
/// from the spans, stage busy time and item counts from the build's
/// own [`StageTimings`].
fn layer_metrics(out: &mut Outcome, t: &Tracer, timings: &StageTimings) {
    out.set(
        "worldgen.generate_s",
        t.self_s_per_call("worldgen.generate"),
    );
    out.set("core.try_build_s", t.self_s_per_call("core.try_build"));
    out.set("core.analyses_s", t.self_s_per_call("core.analyses"));
    out.set("core.export_csv_s", t.self_s_per_call("core.export_csv"));
    // `timings` belong to the last reproduction, so compare them with
    // the last `try_build` span.
    let wall_ns = t.last_ns("core.try_build");
    stage_metrics(out, timings, wall_ns);
}

/// The build's [`StageTimings`] as per-layer metrics, plus the
/// cross-check that its own build span fits inside the benchmark's.
pub fn stage_metrics(out: &mut Outcome, timings: &StageTimings, outer_wall_ns: f64) {
    out.set("web.crawl_busy_s", timings.crawl.nanos as f64 / 1e9);
    out.set("web.crawl_pages", timings.crawl.items as f64);
    out.set("core.classify_busy_s", timings.classify.nanos as f64 / 1e9);
    out.set("core.classify_urls", timings.classify.items as f64);
    out.set("core.identify_busy_s", timings.identify.nanos as f64 / 1e9);
    out.set("core.identify_hosts", timings.identify.items as f64);
    out.set("geoloc.locate_busy_s", timings.geolocate.nanos as f64 / 1e9);
    out.set("geoloc.tasks", timings.geolocate.items as f64);
    let busy: u64 = timings.stages().iter().map(|(_, s)| s.nanos).sum();
    out.set("core.build_parallelism", busy as f64 / outer_wall_ns);
    out.check(timings.build_nanos > 0 && timings.build_nanos as f64 <= outer_wall_ns, || {
        format!(
            "StageTimings build span ({} ns) does not fit the benchmark's span ({outer_wall_ns} ns)",
            timings.build_nanos
        )
    });
    out.notes
        .push(format!("stage timings:\n{}", timings.render()));
}
