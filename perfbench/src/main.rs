//! The govhost benchmark: one command, four workloads, end-to-end and
//! per-layer metrics. See `README.md` beside this crate for what each
//! workload measures and why.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload build --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`,
//! holding every end-to-end metric with `--trace 0` and every per-layer
//! metric with `--trace 1`. A human-readable summary goes to standard
//! error, and a provenance-stamped record plus the run's spans go to
//! `perfbench/out/`.

mod build;
mod client;
mod mix;
mod procfs;
mod serve;
mod stats;
mod trace;
mod whatif;

use govhost_harness::mem;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// End-to-end metrics, reported by every workload with `--trace 0`.
pub const END_TO_END: [(&str, &str); 3] =
    [("setup_s", "s"), ("op_ms", "ms"), ("peak_rss_mb", "MB")];

/// Per-layer metrics, reported by every workload with `--trace 1`. A
/// layer the workload never calls reports zero work and zero time.
pub const PER_LAYER: [(&str, &str); 35] = [
    ("worldgen.generate_s", "s"),
    ("worldgen.shock_s", "s"),
    ("core.try_build_s", "s"),
    ("core.build_parallelism", "ratio"),
    ("web.crawl_busy_s", "s"),
    ("web.crawl_pages", "count"),
    ("core.classify_busy_s", "s"),
    ("core.classify_urls", "count"),
    ("core.identify_busy_s", "s"),
    ("core.identify_hosts", "count"),
    ("geoloc.locate_busy_s", "s"),
    ("geoloc.tasks", "count"),
    ("core.analyses_s", "s"),
    ("core.export_csv_s", "s"),
    ("core.rebuild_narrow_s", "s"),
    ("core.rebuild_wide_s", "s"),
    ("core.rebuild_recomputed", "count"),
    ("core.replay_overhead", "ratio"),
    ("scenario.measure_s", "s"),
    ("scenario.diff_insights_s", "s"),
    ("serve.parse_ns", "ns"),
    ("serve.respond_ns", "ns"),
    ("serve.encode_ns", "ns"),
    ("serve.query_execute_ns", "ns"),
    ("serve.not_modified_share", "ratio"),
    ("serve.wait_us", "us"),
    ("serve.connect_us", "us"),
    ("serve.reconnects", "count"),
    ("serve.query_cache_hit_ratio", "ratio"),
    ("serve.bytes_per_req", "B"),
    ("serve.swap_s", "s"),
    ("serve.cpu_us_per_req", "us"),
    ("serve.sys_share", "ratio"),
    ("serve.roundtrip_p99_us", "us"),
    ("trace.overhead_share", "ratio"),
];

/// Each workload sets up at least this many times; `setup_s` is the
/// median.
pub const SETUP_MIN_REPEATS: usize = 3;

/// Set-up repeats until this much set-up time is timed (or
/// [`SETUP_MAX_REPEATS`] is reached): a set-up of about a second is
/// noisier than one of several, so it gets more samples.
pub const SETUP_MIN_SECONDS: f64 = 5.0;

/// Most set-ups one run times.
pub const SETUP_MAX_REPEATS: usize = 7;

/// The workloads, by command-line name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Cold scale-1 reproductions.
    Build,
    /// Rounds of a provider-outage what-if answer that dirties nearly
    /// every country and a one-country answer, over a cached build.
    Whatif,
    /// Prerendered routes over loopback TCP.
    ServeSlab,
    /// Parameterized queries over loopback TCP, with index hot swaps.
    ServeQuery,
}

impl Workload {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Workload; 4] = [
        Workload::Build,
        Workload::Whatif,
        Workload::ServeSlab,
        Workload::ServeQuery,
    ];

    /// The command-line name.
    pub fn name(&self) -> &'static str {
        match self {
            Workload::Build => "build",
            Workload::Whatif => "whatif",
            Workload::ServeSlab => "serve_slab",
            Workload::ServeQuery => "serve_query",
        }
    }

    fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// The workload to run.
    pub workload: Workload,
    /// Input seed: the world and the request mix derive from it.
    pub seed: u64,
    /// Measured run length.
    pub seconds: Duration,
    /// The traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Tiny inputs, for checking the benchmark itself.
    pub smoke: bool,
}

impl Args {
    /// The world-generation seed of this run.
    pub fn world_seed(&self) -> u64 {
        mix::Rng::stream(self.seed, "world").next_u64()
    }
}

/// What one workload measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Measured values by metric name (end-to-end or per-layer,
    /// depending on the run).
    pub metrics: BTreeMap<&'static str, f64>,
    /// The world scale the workload ran at.
    pub scale: f64,
    /// Lines for the human-readable summary.
    pub notes: Vec<String>,
    /// The run's spans (empty unless traced).
    pub spans: Option<trace::Tracer>,
}

impl Outcome {
    /// Record a failed output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.correct = false;
            let what = what();
            eprintln!("perfbench: CHECK FAILED: {what}");
            self.notes.push(format!("check failed: {what}"));
        }
    }

    /// Set a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }
}

/// Run `f` at least [`SETUP_MIN_REPEATS`] times and until
/// [`SETUP_MIN_SECONDS`] are spent (at most [`SETUP_MAX_REPEATS`]
/// times), keep the last result, and return it with the median set-up
/// time in seconds. Earlier results are dropped before the next set-up
/// starts, outside the timed region.
pub fn repeat_setup<T>(mut f: impl FnMut() -> T) -> (T, f64) {
    let mut kept = None;
    let mut times = Vec::with_capacity(SETUP_MAX_REPEATS);
    while times.len() < SETUP_MIN_REPEATS
        || (times.iter().sum::<f64>() < SETUP_MIN_SECONDS && times.len() < SETUP_MAX_REPEATS)
    {
        drop(kept.take());
        let started = Instant::now();
        let value = f();
        times.push(started.elapsed().as_secs_f64());
        kept = Some(value);
    }
    (kept.expect("at least one set-up"), stats::median(&times))
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <build|whatif|serve_slab|serve_query|all> \
         --seed <n> --seconds <n> --trace <0|1> [--smoke]"
    );
    std::process::exit(2);
}

fn parse_args() -> (Vec<Workload>, Args) {
    let mut workloads = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut smoke = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--workload" => {
                let v = value();
                workloads = Some(if v == "all" {
                    Workload::ALL.to_vec()
                } else {
                    vec![Workload::parse(&v)
                        .unwrap_or_else(|| usage(&format!("unknown workload {v}")))]
                });
            }
            "--seed" => seed = Some(value().parse().unwrap_or_else(|_| usage("bad --seed"))),
            "--seconds" => {
                let s: f64 = value().parse().unwrap_or_else(|_| usage("bad --seconds"));
                if !(s > 0.0 && s <= 600.0) {
                    usage("--seconds must be in (0, 600]");
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = Some(match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                })
            }
            "--smoke" => smoke = true,
            other => usage(&format!("unknown argument {other}")),
        }
    }
    let workloads = workloads.unwrap_or_else(|| usage("--workload is required"));
    let args = Args {
        workload: workloads[0],
        seed: seed.unwrap_or_else(|| usage("--seed is required")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds is required")),
        trace: trace.unwrap_or_else(|| usage("--trace is required")),
        smoke,
    };
    (workloads, args)
}

/// Where records and spans go: `out/` beside this crate's manifest.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The git revision and dirty flag of the working directory, when it
/// is a git checkout (`unknown` otherwise: the benchmark also runs from
/// exported trees).
fn revision() -> (String, Option<bool>) {
    if !std::path::Path::new(".git").exists() {
        return ("unknown".to_string(), None);
    }
    let git = |args: &[&str]| {
        std::process::Command::new("git")
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    match git(&["rev-parse", "HEAD"]) {
        Some(rev) => {
            let dirty =
                git(&["status", "--porcelain", "--untracked-files=no"]).map(|s| !s.is_empty());
            (rev, dirty)
        }
        None => ("unknown".to_string(), None),
    }
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", govhost::obs::export::escape_json(s))
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// The metric table this run reports.
fn table(trace: bool) -> &'static [(&'static str, &'static str)] {
    if trace {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

fn metrics_json(metrics: &BTreeMap<String, (f64, &'static str)>) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, (value, unit))| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(*value),
                json_str(unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The per-workload names of the end-to-end numbers, for the summary.
fn aliases(w: Workload, out: &Outcome) -> Vec<(String, f64, &'static str)> {
    let get = |k: &str| out.metrics.get(k).copied().unwrap_or(f64::NAN);
    let failed_share = if out.attempted == 0 {
        0.0
    } else {
        out.failed as f64 / out.attempted as f64
    };
    let mut rows = vec![
        ("setup_s".to_string(), get("setup_s"), "s"),
        ("failed_share".to_string(), failed_share, "ratio"),
    ];
    match w {
        Workload::Build => {
            rows.push(("build_s".into(), get("op_ms") / 1e3, "s"));
            rows.push(("build_peak_rss_mb".into(), get("peak_rss_mb"), "MB"));
        }
        Workload::Whatif => {
            rows.push(("whatif_narrow_s".into(), get("narrow_s"), "s"));
            rows.push(("whatif_wide_s".into(), get("wide_s"), "s"));
        }
        Workload::ServeSlab | Workload::ServeQuery => {
            let p = if w == Workload::ServeSlab {
                "slab"
            } else {
                "query"
            };
            rows.push((format!("{p}_rps"), get("rps"), "req/s"));
            rows.push((format!("{p}_p50_us"), get("op_ms") * 1e3, "us"));
            rows.push((format!("{p}_p99_us"), get("p99_ms") * 1e3, "us"));
        }
    }
    rows
}

fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = match args.workload {
        Workload::Build => build::run(args),
        Workload::Whatif => whatif::run(args),
        Workload::ServeSlab => serve::run(args, serve::Kind::Slab),
        Workload::ServeQuery => serve::run(args, serve::Kind::Query),
    }?;
    if !args.trace {
        if let Some(bytes) = mem::peak_rss_bytes() {
            out.set("peak_rss_mb", bytes as f64 / (1024.0 * 1024.0));
        }
    }
    Ok(out)
}

/// Print the summary, write the record, and return the result line's
/// metric map (with units) for this workload.
fn report(args: &Args, out: &mut Outcome) -> BTreeMap<String, (f64, &'static str)> {
    let (rev, dirty) = revision();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let build_threads = govhost::core::BuildOptions::default().threads;
    let provenance = format!(
        "{{\"revision\": {}, \"dirty\": {}, \"nproc\": {nproc}, \"build_threads\": {build_threads}, \
         \"serve_workers\": {}, \"scale\": {}, \"seed\": {}, \"seconds\": {}, \"smoke\": {}, \"traced\": {}}}",
        json_str(&rev),
        dirty.map_or("null".to_string(), |d| d.to_string()),
        serve::WORKERS,
        json_num(out.scale),
        args.seed,
        json_num(args.seconds.as_secs_f64()),
        args.smoke,
        args.trace,
    );
    let name = args.workload.name();
    eprintln!("perfbench: {name} provenance {provenance}");
    for note in &out.notes {
        eprintln!("perfbench: {name} {note}");
    }
    let mut metrics = BTreeMap::new();
    for (metric, unit) in table(args.trace) {
        let value = match out.metrics.get(metric) {
            Some(v) => *v,
            // Per-layer: a layer this workload never calls did no work.
            None if args.trace => 0.0,
            None => {
                out.check(false, || {
                    format!("end-to-end metric {metric} was not measured")
                });
                f64::NAN
            }
        };
        eprintln!("perfbench: {name} {metric} = {value} {unit}");
        metrics.insert(metric.to_string(), (value, *unit));
    }
    if !args.trace {
        for (alias, value, unit) in aliases(args.workload, out) {
            eprintln!("perfbench: {name} [{alias}] = {value} {unit}");
        }
    }
    let record =
        format!(
        "{{\"workload\": {}, \"provenance\": {provenance}, \"correct\": {}, \"attempted\": {}, \
         \"failed\": {}, \"metrics\": {}, \"notes\": [{}]}}\n",
        json_str(name),
        out.correct,
        out.attempted,
        out.failed,
        metrics_json(&metrics),
        out.notes.iter().map(|n| json_str(n)).collect::<Vec<_>>().join(", ")
    );
    let dir = out_dir();
    let suffix = if args.trace { "traced" } else { "plain" };
    let written = std::fs::create_dir_all(&dir)
        .and_then(|_| std::fs::write(dir.join(format!("{name}-{suffix}.json")), record));
    if let Err(e) = written {
        eprintln!("perfbench: could not write the run record: {e}");
    }
    if let Some(spans) = &out.spans {
        if let Err(e) = spans.write(&dir.join(format!("{name}-spans.tsv"))) {
            eprintln!("perfbench: could not write spans: {e}");
        }
    }
    metrics
}

fn main() {
    let (workloads, base) = parse_args();
    let mut correct = true;
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut all = BTreeMap::new();
    for w in &workloads {
        let args = Args {
            workload: *w,
            ..base.clone()
        };
        // Each workload of `--workload all` reports its own peak.
        mem::reset_peak_rss();
        let mut out = match run(&args) {
            Ok(out) => out,
            Err(reason) => {
                eprintln!("perfbench: {} unavailable: {reason}", w.name());
                std::process::exit(3);
            }
        };
        let metrics = report(&args, &mut out);
        correct &= out.correct;
        attempted += out.attempted;
        failed += out.failed;
        let prefix = if workloads.len() > 1 {
            format!("{}.", w.name())
        } else {
            String::new()
        };
        all.extend(
            metrics
                .into_iter()
                .map(|(k, v)| (format!("{prefix}{k}"), v)),
        );
    }
    if attempted == 0 {
        eprintln!("perfbench: no operation was attempted");
        std::process::exit(3);
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics_json(&all)
    );
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric tables here and in `BENCHMARK.json` name the same
    /// metrics with the same units, in the same order.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let spec = include_str!("../../BENCHMARK.json");
        let section = |key: &str| -> Vec<(String, String)> {
            let start = spec.find(&format!("\"{key}\"")).expect("section present");
            let end = spec[start..].find(']').expect("section closes") + start;
            spec[start..end]
                .split('{')
                .skip(1)
                .map(|entry| {
                    let field = |f: &str| {
                        let at = entry.find(&format!("\"{f}\"")).expect("field") + f.len() + 2;
                        let rest = &entry[at..];
                        let open = rest.find('"').expect("value opens") + 1;
                        let close = rest[open..].find('"').expect("value closes") + open;
                        rest[open..close].to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(section("end_to_end"), own(&END_TO_END));
        assert_eq!(section("per_layer"), own(&PER_LAYER));
        for w in Workload::ALL {
            assert!(
                spec.contains(&format!("\"name\": \"{}\"", w.name())),
                "{} listed",
                w.name()
            );
        }
    }

    #[test]
    fn setup_reports_the_median_and_keeps_the_last() {
        let mut n = 0;
        let (last, median) = repeat_setup(|| {
            n += 1;
            n
        });
        // Instant set-ups never reach the time target.
        assert_eq!(last, SETUP_MAX_REPEATS);
        assert!(median >= 0.0);
    }
}
