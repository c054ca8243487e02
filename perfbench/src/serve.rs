//! `serve_slab` and `serve_query`: closed-loop HTTP load over real
//! loopback TCP against `Server::bind`.
//!
//! One client thread keeps a request in flight on each of
//! [`CONNECTIONS`] keep-alive connections and sends the next one as soon
//! as the previous response is framed.
//! The server closes a connection after its per-connection request cap;
//! the client honours `Connection: close`, reconnects and counts it.
//! Refused connects, short reads, timeouts and unexpected statuses are
//! failed operations. Every [`SAMPLE_EVERY`]th response is checked
//! against what `ServeState::respond` answers in-process on a second,
//! cache-less state built from the same dataset.

use crate::build::stage_metrics;
use crate::client::{get, wait_readable, Conn, Failure, Frame, Framer, READ_TIMEOUT};
use crate::mix::{fnv1a, QueryMix, Rng, SlabMix};
use crate::procfs::{self, CpuTimes};
use crate::trace::Tracer;
use crate::{repeat_setup, stats, Args, Outcome};
use govhost::core::*;
use govhost::obs::export::TimeMode;
use govhost::serve::{
    Limits, QueryIndex, RequestParser, RouteQuery, ServeState, Server, ServerConfig,
    DEFAULT_RESULT_CACHE,
};
use govhost::worldgen::prelude::*;
use std::collections::{BTreeMap, HashMap};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Server event-loop workers.
pub const WORKERS: usize = 2;

/// Keep-alive connections the load generator keeps busy.
pub const CONNECTIONS: usize = 2;

/// World scale: every studied country, at a fraction of the URLs.
pub const SCALE: f64 = 0.3;

/// Distinct parameterized queries: past the server's 128-entry result
/// cache, as the workload requires. The factor of 8 is an assumption.
pub const QUERY_KEYS: usize = 1024;

/// Requests between two hot swaps of the query index. The workload
/// requires swaps at a fixed count; this count is an assumption (about
/// one swap a second at the measured rates).
pub const SWAP_EVERY: u64 = 32_768;

/// Every this-many responses per client is checked against the
/// in-process answer.
pub const SAMPLE_EVERY: u64 = 97;

/// Requests the traced run replays in-process to split the server's
/// own time into parse, respond and encode.
pub const IN_PROCESS_REQUESTS: usize = 50_000;

/// Uncached query executions the traced run times.
pub const EXECUTE_SAMPLES: usize = 2_000;

/// Which traffic the workload sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Prerendered routes, a quarter of them conditional.
    Slab,
    /// Zipf-drawn parameterized queries, with index hot swaps.
    Query,
}

/// A request the load generator can send, with the status it expects.
struct Target {
    bytes: Vec<u8>,
    expect: u16,
}

/// A running server and what it was built from.
struct Served {
    dataset: GovDataset,
    state: Arc<ServeState>,
    server: Server,
    /// A prebuilt index identical to the served one, for hot swaps.
    spare: Option<QueryIndex>,
}

fn setup(params: &GenParams, kind: Kind, t: &mut Tracer) -> Result<Served, String> {
    t.span("serve.setup", |t| {
        let world = t.span("worldgen.generate", |_| World::generate(params));
        let (dataset, _report) = t
            .span("core.try_build", |_| {
                GovDataset::try_build(&world, &BuildOptions::default())
            })
            .map_err(|e| format!("dataset build failed: {e}"))?;
        drop(world);
        let state = t.span("serve.state", |_| {
            Arc::new(ServeState::with_config(
                &dataset,
                TimeMode::Deterministic,
                DEFAULT_RESULT_CACHE,
            ))
        });
        let config = ServerConfig {
            threads: WORKERS,
            ..ServerConfig::default()
        };
        let server = t
            .span("serve.bind", |_| {
                Server::bind(Arc::clone(&state), "127.0.0.1:0", config)
            })
            .map_err(|e| {
                format!("loopback TCP is not available ({e}); no socket numbers to report")
            })?;
        let spare =
            (kind == Kind::Query).then(|| t.span("serve.index", |_| QueryIndex::build(&dataset)));
        Ok(Served {
            dataset,
            state,
            server,
            spare,
        })
    })
}

/// The status, entity tag and body fingerprint of one framed response.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Seen {
    status: u16,
    etag: Option<Vec<u8>>,
    body: (u64, usize),
}

fn seen(framer: &Framer, frame: &Frame) -> Seen {
    let body = framer.slice(frame.body);
    Seen {
        status: frame.status,
        etag: frame.etag.map(|r| framer.slice(r).to_vec()),
        body: (fnv1a(body), body.len()),
    }
}

/// What `state` answers in-process for one raw request.
fn in_process(state: &ServeState, request: &[u8]) -> Result<Seen, String> {
    let mut parser = RequestParser::new(Limits::default());
    parser.push(request);
    let req = match parser.next_request() {
        Ok(Some(req)) => req,
        other => return Err(format!("request does not parse: {other:?}")),
    };
    let wire = state.respond(Ok(&req)).encode(true);
    let mut framer = Framer::default();
    framer.push(&wire);
    match framer.next() {
        Ok(Some(frame)) => Ok(seen(&framer, &frame)),
        other => Err(format!("in-process response does not frame: {other:?}")),
    }
}

/// The request table and the draw over it.
struct Plan {
    targets: Vec<Target>,
    pick: Box<dyn Fn(&mut Rng) -> usize>,
}

fn plan(kind: Kind, seed: u64, served: &Served, reference: &ServeState) -> Result<Plan, String> {
    let countries: Vec<String> = served
        .dataset
        .countries()
        .iter()
        .map(|c| c.as_str().to_string())
        .collect();
    match kind {
        Kind::Slab => {
            let mix = SlabMix::new(&countries);
            let mut targets = Vec::with_capacity(mix.targets.len() * 2);
            for path in &mix.targets {
                let plain = get(path, None);
                let first = in_process(reference, &plain)?;
                let etag = first
                    .etag
                    .clone()
                    .ok_or_else(|| format!("{path} carries no ETag"))?;
                let etag =
                    String::from_utf8(etag).map_err(|_| format!("{path}: ETag is not UTF-8"))?;
                if first.status != 200 {
                    return Err(format!("{path} answers {} in-process", first.status));
                }
                targets.push(Target {
                    bytes: plain,
                    expect: 200,
                });
                targets.push(Target {
                    bytes: get(path, Some(&etag)),
                    expect: 304,
                });
            }
            let pick = move |rng: &mut Rng| {
                let p = mix.next(rng);
                2 * p.target + usize::from(p.conditional)
            };
            Ok(Plan {
                targets,
                pick: Box::new(pick),
            })
        }
        Kind::Query => {
            let mix = QueryMix::new(seed, &countries, QUERY_KEYS, |route, raw| {
                RouteQuery::parse(route, raw).ok().map(|q| q.canonical())
            });
            let mut targets = Vec::new();
            let mut first = Vec::with_capacity(mix.keys.len());
            for key in &mix.keys {
                first.push(targets.len());
                for spelling in &key.spellings {
                    targets.push(Target {
                        bytes: get(spelling, None),
                        expect: 200,
                    });
                }
            }
            let pick = move |rng: &mut Rng| {
                let (key, spelling) = mix.next(rng);
                first[key] + spelling
            };
            Ok(Plan {
                targets,
                pick: Box::new(pick),
            })
        }
    }
}

/// One socket phase's measurements.
#[derive(Default)]
struct Load {
    attempted: u64,
    ok: u64,
    failures: BTreeMap<Failure, u64>,
    latencies_ns: Vec<f64>,
    connect_ns: Vec<f64>,
    reconnects: u64,
    bytes: u64,
    not_modified: u64,
    samples: Vec<(usize, Seen)>,
    swap_ns: Vec<f64>,
    wall_s: f64,
    cpu: CpuTimes,
}

impl Load {
    fn failed(&self) -> u64 {
        self.failures.values().sum()
    }

    fn absorb(&mut self, other: Load) {
        self.attempted += other.attempted;
        self.ok += other.ok;
        for (k, v) in other.failures {
            *self.failures.entry(k).or_default() += v;
        }
        self.latencies_ns.extend(other.latencies_ns);
        self.connect_ns.extend(other.connect_ns);
        self.reconnects += other.reconnects;
        self.bytes += other.bytes;
        self.not_modified += other.not_modified;
        self.samples.extend(other.samples);
        self.swap_ns.extend(other.swap_ns);
    }
}

/// The hot swap: replace the served index with a copy of the spare.
type Swap<'a> = &'a dyn Fn() -> Duration;

/// Drive `duration` of closed-loop load: one client thread keeps one
/// request in flight on each of [`CONNECTIONS`] keep-alive connections:
/// it sends on all of them, then takes each response as soon as its own
/// bytes arrive, and starts the next round when all have.
///
/// Connections are (re)opened in a fixed order. Both reach the server's
/// per-connection request cap in the same round and reconnect in the
/// same order, so the server's round-robin placement hands connection
/// `i` to the same worker for the whole run.
fn drive(
    addr: SocketAddr,
    plan: &Plan,
    rng: &mut Rng,
    duration: Duration,
    swap: Option<Swap<'_>>,
    t: &mut Tracer,
) -> Load {
    let mut load = Load::default();
    let mut conns: [Option<Conn>; CONNECTIONS] = Default::default();
    let mut opened = 0u64;
    let mut next_swap = SWAP_EVERY;
    let mut inflight: [Option<(usize, Instant)>; CONNECTIONS] = [None; CONNECTIONS];
    let cpu_before = procfs::cpu_times().unwrap_or_default();
    let started = Instant::now();
    let deadline = started + duration;
    while Instant::now() < deadline {
        for slot in conns.iter_mut().filter(|c| c.is_none()) {
            let began = Instant::now();
            match Conn::open(addr) {
                Ok(c) => {
                    load.connect_ns.push(began.elapsed().as_nanos() as f64);
                    load.reconnects += u64::from(opened >= CONNECTIONS as u64);
                    opened += 1;
                    *slot = Some(c);
                }
                Err(f) => {
                    load.attempted += 1;
                    *load.failures.entry(f).or_default() += 1;
                    std::thread::sleep(Duration::from_millis(1));
                    break;
                }
            }
        }
        if conns.iter().any(Option::is_none) {
            continue;
        }
        for (slot, pending) in conns.iter_mut().zip(inflight.iter_mut()) {
            let c = slot.as_mut().expect("every connection is open");
            let id = (plan.pick)(rng);
            load.attempted += 1;
            let began = Instant::now();
            match c.send(&plan.targets[id].bytes) {
                Ok(()) => *pending = Some((id, began)),
                Err(f) => {
                    *load.failures.entry(f).or_default() += 1;
                    *slot = None;
                }
            }
        }
        // Take each response when its own bytes arrive, so that neither
        // connection's round trip includes the wait on the other.
        let read_deadline = Instant::now() + READ_TIMEOUT;
        let mut arrived = Instant::now();
        loop {
            for (slot, pending) in conns.iter_mut().zip(inflight.iter_mut()) {
                let (Some(c), Some((id, began))) = (slot.as_mut(), *pending) else {
                    continue;
                };
                let framed = match c.frame() {
                    Ok(None) => continue,
                    Ok(Some(frame)) => Ok(frame),
                    Err(f) => Err(f),
                };
                *pending = None;
                if !take_response(&mut load, t, plan, c, id, began, arrived, framed) {
                    *slot = None;
                }
            }
            let waiting: Vec<usize> = (0..CONNECTIONS)
                .filter(|&i| conns[i].is_some() && inflight[i].is_some())
                .collect();
            if waiting.is_empty() {
                break;
            }
            let now = Instant::now();
            if now >= read_deadline {
                for i in waiting {
                    *load.failures.entry(Failure::Timeout).or_default() += 1;
                    conns[i] = None;
                    inflight[i] = None;
                }
                break;
            }
            let open: Vec<&Conn> = waiting
                .iter()
                .map(|&i| conns[i].as_ref().expect("waiting connections are open"))
                .collect();
            let ready = wait_readable(&open, read_deadline - now);
            arrived = Instant::now();
            for (k, &i) in waiting.iter().enumerate() {
                if ready.get(k) != Some(&true) {
                    continue;
                }
                let c = conns[i].as_mut().expect("waiting connections are open");
                if let Err(f) = c.fill() {
                    *load.failures.entry(f).or_default() += 1;
                    conns[i] = None;
                    inflight[i] = None;
                }
            }
        }
        if let Some(swap) = swap {
            if load.attempted >= next_swap {
                next_swap += SWAP_EVERY;
                let began = Instant::now();
                let took = swap();
                t.record("serve.swap_index", began, Instant::now());
                load.swap_ns.push(took.as_nanos() as f64);
            }
        }
    }
    load.wall_s = started.elapsed().as_secs_f64();
    load.cpu = procfs::cpu_times().unwrap_or_default().since(&cpu_before);
    load
}

/// Account for one framed (or unframeable) response to request `id`,
/// sent at `began` and complete at `done`. Returns whether the
/// connection stays open.
#[allow(clippy::too_many_arguments)]
fn take_response(
    load: &mut Load,
    t: &mut Tracer,
    plan: &Plan,
    c: &mut Conn,
    id: usize,
    began: Instant,
    done: Instant,
    framed: Result<Frame, Failure>,
) -> bool {
    match framed {
        Ok(frame) if frame.status == plan.targets[id].expect => {
            t.record("serve.roundtrip", began, done);
            load.ok += 1;
            load.latencies_ns
                .push(done.duration_since(began).as_nanos() as f64);
            load.bytes += frame.len as u64;
            load.not_modified += u64::from(frame.status == 304);
            if load.ok.is_multiple_of(SAMPLE_EVERY) {
                load.samples.push((id, seen(c.framer(), &frame)));
            }
            c.consume(&frame);
            !frame.close
        }
        Ok(_) => {
            *load.failures.entry(Failure::BadStatus).or_default() += 1;
            false
        }
        Err(f) => {
            *load.failures.entry(f).or_default() += 1;
            false
        }
    }
}

/// Check every sampled socket response against the in-process answer
/// for the same request. Returns how many were checked.
fn check_samples(out: &mut Outcome, load: &Load, plan: &Plan, reference: &ServeState) -> usize {
    let mut expected: HashMap<usize, Result<Seen, String>> = HashMap::new();
    let mut bad = 0usize;
    for (id, got) in &load.samples {
        let want = expected
            .entry(*id)
            .or_insert_with(|| in_process(reference, &plan.targets[*id].bytes));
        if want.as_ref().ok() != Some(got) {
            bad += 1;
            if bad <= 3 {
                let request = String::from_utf8_lossy(&plan.targets[*id].bytes)
                    .lines()
                    .next()
                    .unwrap_or("")
                    .to_string();
                out.notes.push(format!(
                    "socket vs in-process mismatch on {request}: {got:?} vs {want:?}"
                ));
            }
        }
    }
    out.check(bad == 0, || {
        format!(
            "{bad} of {} sampled responses differ from ServeState::respond",
            load.samples.len()
        )
    });
    load.samples.len()
}

fn cache_counters(state: &ServeState) -> (u64, u64) {
    let snap = state.telemetry_snapshot();
    let get = |outcome| {
        snap.registry
            .counter_filtered("http.query_cache", &[("outcome", outcome)])
    };
    (get("hit"), get("miss"))
}

/// Run the workload.
pub fn run(args: &Args, kind: Kind) -> Result<Outcome, String> {
    let scale = if args.smoke { 0.05 } else { SCALE };
    let params = GenParams {
        seed: args.world_seed(),
        scale,
        ..GenParams::default()
    };
    let mut out = Outcome {
        correct: true,
        scale,
        ..Outcome::default()
    };
    let origin = Instant::now();
    let mut t = Tracer::new(args.trace, origin);

    let (served, setup_s) = repeat_setup(|| setup(&params, kind, &mut t));
    let served = served?;
    out.set("setup_s", setup_s);
    let setup_timings = served.dataset.timings;
    let reference = ServeState::with_config(&served.dataset, TimeMode::Deterministic, 0);
    let plan = plan(kind, args.seed, &served, &reference)?;
    let addr = served.server.local_addr();
    let state = Arc::clone(&served.state);
    let spare = served.spare.as_ref();
    let swap_fn = move || {
        let next = spare.expect("query workload has a spare index").clone();
        let began = Instant::now();
        state.swap_index(next);
        began.elapsed()
    };
    let swap: Option<Swap<'_>> = (kind == Kind::Query).then_some(&swap_fn as Swap<'_>);

    t.set_on(false);
    let (hits0, misses0) = cache_counters(&served.state);
    let half = if args.trace {
        args.seconds / 2
    } else {
        args.seconds
    };
    let mut rng = Rng::stream(args.seed, "load");
    let plain = drive(addr, &plan, &mut rng, half, swap, &mut t);
    let mut all = Load::default();
    let traced = if args.trace {
        t.set_on(true);
        let traced = drive(addr, &plan, &mut rng, half, swap, &mut t);
        t.set_on(false);
        Some(traced)
    } else {
        None
    };
    let (hits1, misses1) = cache_counters(&served.state);

    let lat = stats::sorted(plain.latencies_ns.clone());
    if lat.is_empty() {
        return Err(format!(
            "no request succeeded; failures {:?}",
            plain.failures
        ));
    }
    let p50_ns = stats::percentile(&lat, 50.0);
    let p99_ns = stats::percentile(&lat, 99.0);
    out.check(stats::supports(lat.len(), 99.0), || {
        format!("{} samples cannot support a p99", lat.len())
    });
    let tail = stats::highest_supported(lat.len()).unwrap_or(50.0);
    out.notes.push(format!(
        "{} requests in {:.2} s: p50 {:.1} us, p99 {:.1} us, p{tail} {:.1} us (highest percentile with >= {} samples beyond)",
        lat.len(),
        plain.wall_s,
        p50_ns / 1e3,
        p99_ns / 1e3,
        stats::percentile(&lat, tail) / 1e3,
        stats::MIN_BEYOND
    ));
    let rps_plain = plain.ok as f64 / plain.wall_s;
    let cpu_us = plain.cpu.total_s() / plain.ok as f64 * 1e6;
    let sys_share = if plain.cpu.total_s() > 0.0 {
        plain.cpu.sys_s / plain.cpu.total_s()
    } else {
        0.0
    };
    let rps_traced = traced.as_ref().map(|l| l.ok as f64 / l.wall_s);
    // Each phase counts its own requests towards the next swap.
    let longest_phase = plain
        .attempted
        .max(traced.as_ref().map_or(0, |l| l.attempted));
    all.absorb(plain);
    if let Some(l) = traced {
        all.absorb(l);
    }
    out.attempted = all.attempted;
    out.failed = all.failed();
    out.notes.push(format!(
        "{} attempted, {} failed {:?}, {} reconnects, {} swaps",
        all.attempted,
        out.failed,
        all.failures,
        all.reconnects,
        all.swap_ns.len()
    ));
    let checked = check_samples(&mut out, &all, &plan, &reference);
    out.notes.push(format!(
        "{checked} sampled responses match ServeState::respond in-process"
    ));
    out.check(checked > 0, || "no response was sampled".into());
    if kind == Kind::Query {
        out.check(
            !all.swap_ns.is_empty() || longest_phase < SWAP_EVERY,
            || "no hot swap happened".into(),
        );
    }

    if !args.trace {
        out.set("op_ms", p50_ns / 1e6);
        out.set("rps", rps_plain);
        out.set("p99_ms", p99_ns / 1e6);
        return Ok(out);
    }

    // In-process split of the server's own work over the same mix.
    t.set_on(true);
    let mut rng = Rng::stream(args.seed, "in-process");
    let mut parser = RequestParser::new(Limits::default());
    let mut wrong = 0usize;
    let n = if args.smoke {
        IN_PROCESS_REQUESTS / 10
    } else {
        IN_PROCESS_REQUESTS
    };
    for _ in 0..n {
        let target = &plan.targets[(plan.pick)(&mut rng)];
        t.span("serve.in_process", |t| {
            let parsed = t.span("serve.parse", |_| {
                parser.push(&target.bytes);
                parser.next_request()
            });
            let Ok(Some(req)) = parsed else {
                wrong += 1;
                return;
            };
            let response = t.span("serve.respond", |_| served.state.respond(Ok(&req)));
            let wire = t.span("serve.encode", |_| response.encode(req.keep_alive()));
            wrong += usize::from(response.status != target.expect || wire.is_empty());
        });
    }
    out.check(wrong == 0, || format!("{wrong} in-process requests failed"));
    if kind == Kind::Query {
        let index = served.state.index();
        let mut rng = Rng::stream(args.seed, "execute");
        for _ in 0..EXECUTE_SAMPLES {
            let target = &plan.targets[rng.below(plan.targets.len())];
            let line = std::str::from_utf8(&target.bytes).expect("ASCII request");
            let uri = line.split(' ').nth(1).expect("request line has a target");
            let (route, raw) = uri.split_once('?').expect("parameterized");
            let body = t.span("serve.query_execute", |_| {
                RouteQuery::parse(route, raw).map(|q| q.execute(&index))
            });
            out.check(body.is_ok(), || format!("{uri} does not parse"));
        }
        let hits = (hits1 - hits0) as f64;
        let misses = (misses1 - misses0) as f64;
        out.set(
            "serve.query_cache_hit_ratio",
            hits / (hits + misses).max(1.0),
        );
        out.set(
            "serve.query_execute_ns",
            stats::median(&t.durations("serve.query_execute")),
        );
        out.set(
            "serve.swap_s",
            if all.swap_ns.is_empty() {
                0.0
            } else {
                stats::median(&all.swap_ns) / 1e9
            },
        );
    }
    t.set_on(false);
    let parse = stats::median(&t.durations("serve.parse"));
    let respond = stats::median(&t.durations("serve.respond"));
    let encode = stats::median(&t.durations("serve.encode"));
    out.set("serve.parse_ns", parse);
    out.set("serve.respond_ns", respond);
    out.set("serve.encode_ns", encode);
    out.set("serve.wait_us", (p50_ns - parse - respond - encode) / 1e3);
    out.set(
        "serve.not_modified_share",
        all.not_modified as f64 / all.ok.max(1) as f64,
    );
    out.set("serve.connect_us", stats::median(&all.connect_ns) / 1e3);
    out.set("serve.reconnects", all.reconnects as f64);
    out.set(
        "serve.bytes_per_req",
        all.bytes as f64 / all.ok.max(1) as f64,
    );
    out.set("serve.cpu_us_per_req", cpu_us);
    out.set("serve.sys_share", sys_share);
    out.set("serve.roundtrip_p99_us", p99_ns / 1e3);
    out.set(
        "trace.overhead_share",
        rps_plain / rps_traced.expect("traced phase ran") - 1.0,
    );

    // The build layers ran during set-up.
    out.set(
        "worldgen.generate_s",
        t.self_s_per_call("worldgen.generate"),
    );
    out.set("core.try_build_s", t.self_s_per_call("core.try_build"));
    let last_build_ns = t.last_ns("core.try_build");
    stage_metrics(&mut out, &setup_timings, last_build_ns);
    out.spans = Some(t);
    Ok(out)
}
