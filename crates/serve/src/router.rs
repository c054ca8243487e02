//! Route dispatch, zero-copy response encoding, and per-request
//! instrumentation.
//!
//! Routing is one declarative table: each row maps a path pattern —
//! which doubles as the `route` metric label — to the source it answers
//! from in the served [`QueryIndex`], which implies its parameter
//! grammar (none, a [`RouteQuery`] grammar, or [`HistoryParams`]). A
//! request path is matched against the table exactly once; [`ROUTES`]
//! and [`route_label`] are derived from it.
//!
//! [`ServeState`] is the shared immutable heart of the server: the
//! precomputed [`QueryIndex`], the dataset's build-time telemetry, and
//! a mutex-guarded request-telemetry capture that every response is
//! accounted into — per-route request counters, status-class counters,
//! response-byte / latency histograms, and the shed counter — all
//! through the `govhost-obs` registry. `/metrics` renders the merged
//! capture with [`metrics_text`], whose deterministic mode keeps the
//! exposition byte-stable across runs and worker counts.
//!
//! Responses are **zero-copy**: a [`Response`] is two immutable
//! [`Bytes`] segments — a precomputed header slab (status line through
//! the last fixed header, `ETag` included) and the body slab — plus a
//! static `Connection:` fragment chosen at send time. For the
//! precomputed routes both slabs come straight out of the
//! [`QueryIndex`], so answering a request is three `Arc` bumps and a
//! vectored write; nothing is re-rendered or copied per request.
//!
//! Accounting order matters for determinism under sequential clients:
//! a request's arrival counter is recorded *before* its handler runs
//! (so `/metrics` sees itself), and its status/size/latency series
//! *after* — visible to every later request regardless of which worker
//! served this one.

use crate::history::Series;
use crate::http::{HttpError, Request};
use crate::index::{QueryIndex, RouteSlab};
use crate::query::{reject_params, HistoryParams, IndexHandle, ResultCache, RouteQuery};
use govhost_core::prelude::*;
use govhost_obs::export::{metrics_text, TimeMode};
use govhost_obs::{Labels, Telemetry};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// An immutable byte payload that can be handed around without copying:
/// either a `'static` fragment (the canned `Connection:` lines) or a
/// shared slab (`Arc<[u8]>` — precomputed route heads and bodies).
#[derive(Debug, Clone)]
pub enum Bytes {
    /// Borrowed from static storage.
    Static(&'static [u8]),
    /// A shared immutable slab; cloning bumps a refcount.
    Shared(Arc<[u8]>),
}

impl Bytes {
    /// The payload as a slice.
    pub fn as_slice(&self) -> &[u8] {
        match self {
            Bytes::Static(b) => b,
            Bytes::Shared(b) => b,
        }
    }

    /// Payload length in bytes.
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// Whether the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.as_slice().is_empty()
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Bytes {
        Bytes::Shared(Arc::from(v))
    }
}

impl From<String> for Bytes {
    fn from(s: String) -> Bytes {
        Bytes::from(s.into_bytes())
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(b: &'static [u8]) -> Bytes {
        Bytes::Static(b)
    }
}

/// The static `Connection:` fragment that terminates every header block.
const CONN_KEEP_ALIVE: &[u8] = b"Connection: keep-alive\r\n\r\n";
const CONN_CLOSE: &[u8] = b"Connection: close\r\n\r\n";

/// Everything that goes into a rendered header slab.
pub(crate) struct HeadSpec<'a> {
    pub status: u16,
    pub reason: &'static str,
    pub content_type: &'a str,
    /// `Content-Length` to declare; `None` omits the header entirely.
    /// `304`s omit it: per RFC 9110 §8.6 a Content-Length there would
    /// describe the `200` representation, and a literal `0` misleads
    /// caches that update stored metadata from `304` headers.
    pub content_length: Option<usize>,
    /// Emitted as an `ETag` header when present.
    pub etag: Option<&'a str>,
    /// Whether to advertise `Allow: GET, HEAD` (405 responses).
    pub allow_get: bool,
    /// Whether to advertise `Retry-After: 1` (503 shed responses).
    pub retry_after: bool,
}

/// Render the header slab: status line through the last fixed header
/// (ending in `\r\n`), *excluding* the `Connection:` line — that is a
/// static fragment appended at send time. The server never emits a
/// `Date` header: responses must be byte-stable across runs.
pub(crate) fn render_head(spec: &HeadSpec<'_>) -> String {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\nServer: govhost-serve\r\nContent-Type: {}\r\n",
        spec.status, spec.reason, spec.content_type
    );
    if let Some(length) = spec.content_length {
        head.push_str(&format!("Content-Length: {length}\r\n"));
    }
    if let Some(etag) = spec.etag {
        head.push_str("ETag: ");
        head.push_str(etag);
        head.push_str("\r\n");
    }
    if spec.allow_get {
        head.push_str("Allow: GET, HEAD\r\n");
    }
    if spec.retry_after {
        head.push_str("Retry-After: 1\r\n");
    }
    head
}

/// One response: a precomputed header slab plus the body slab. Cloning
/// is cheap (`Arc` bumps), so the precomputed route responses are
/// cloned out of the [`QueryIndex`] per request without copying bytes.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Canonical reason phrase.
    pub reason: &'static str,
    head: Bytes,
    body: Bytes,
}

impl Response {
    /// Assemble a response from a rendered head and a body slab. The
    /// head must be what [`render_head`] produced for this body.
    pub(crate) fn from_parts(status: u16, reason: &'static str, head: Bytes, body: Bytes) -> Response {
        Response { status, reason, head, body }
    }

    /// Render a dynamic response (errors, `/metrics`): the head is
    /// built here, the body is the given bytes.
    pub(crate) fn dynamic(spec: &HeadSpec<'_>, body: Vec<u8>) -> Response {
        debug_assert_eq!(spec.content_length, Some(body.len()));
        Response {
            status: spec.status,
            reason: spec.reason,
            head: Bytes::from(render_head(spec).into_bytes()),
            body: Bytes::from(body),
        }
    }

    /// The JSON error representation of a typed [`HttpError`].
    pub fn from_error(err: &HttpError) -> Response {
        let body = format!(
            "{{\"error\":{},\"reason\":\"{}\",\"detail\":\"{}\"}}",
            err.status(),
            err.reason(),
            govhost_obs::export::escape_json(err.detail())
        )
        .into_bytes();
        Response::dynamic(
            &HeadSpec {
                status: err.status(),
                reason: err.reason(),
                content_type: "application/json",
                content_length: Some(body.len()),
                etag: None,
                allow_get: matches!(err, HttpError::MethodNotAllowed),
                retry_after: matches!(err, HttpError::Overloaded),
            },
            body,
        )
    }

    /// The body bytes.
    pub fn body(&self) -> &[u8] {
        self.body.as_slice()
    }

    /// Strip the body for a `HEAD` answer. The head slab is untouched,
    /// so `Content-Length` and `ETag` still describe the `GET`
    /// representation — exactly what RFC 9110 §9.3.2 requires — while
    /// zero body bytes go on the wire.
    pub(crate) fn into_head_only(mut self) -> Response {
        self.body = Bytes::Static(b"");
        self
    }

    /// The three wire segments of this response — header slab,
    /// `Connection:` fragment, body slab — ready for a vectored write.
    /// No byte is copied: the slabs are shared and the fragment is
    /// static.
    pub fn segments(&self, keep_alive: bool) -> [Bytes; 3] {
        let conn = if keep_alive { CONN_KEEP_ALIVE } else { CONN_CLOSE };
        [self.head.clone(), Bytes::Static(conn), self.body.clone()]
    }

    /// Serialize status line, headers, and body into one owned buffer
    /// (the copying convenience for tests; the serving paths use
    /// [`Response::segments`]).
    pub fn encode(&self, keep_alive: bool) -> Vec<u8> {
        let segs = self.segments(keep_alive);
        let mut out = Vec::with_capacity(segs.iter().map(Bytes::len).sum());
        for seg in &segs {
            out.extend_from_slice(seg.as_slice());
        }
        out
    }
}

/// What a pattern's `{…}` placeholder accepts: the text between the
/// literal prefix before it and the literal suffix after it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Capture {
    /// The pattern has no placeholder: the path equals it.
    Exact,
    /// Any text, the empty one included.
    Any,
    /// Non-empty text; a path whose text is empty is left to the rows
    /// below.
    NonEmpty,
    /// Non-empty text; a path whose text is empty is unrouted, whatever
    /// the rows below would say.
    NonEmptyOrUnrouted,
}

/// Parses one route's [`RouteQuery`] grammar from a raw query string.
type QueryParser = fn(&str) -> Result<RouteQuery, HttpError>;

/// Looks a route's slab up in one index snapshot by the text its
/// placeholder captured (routes without one ignore it).
type SlabOf = for<'i> fn(&'i QueryIndex, &str) -> Option<&'i RouteSlab>;

/// Looks a route's history series up in one index snapshot by the text
/// its placeholder captured, with the concrete route its variants echo.
type SeriesOf = for<'i> fn(&'i QueryIndex, &str) -> Option<(String, &'i Series)>;

/// Where a route's representation comes from in the served
/// [`QueryIndex`]; each source implies the parameters it accepts.
#[derive(Clone, Copy)]
enum Source {
    /// A prerendered slab taking no parameters: any is a typed `400`
    /// naming it, never a silent alias onto the base representation.
    Slab(SlabOf),
    /// A prerendered slab and the [`RouteQuery`] grammar (filter, sort,
    /// paginate) of its variants.
    Query(SlabOf, QueryParser),
    /// A per-year series, taking [`HistoryParams`] (year window,
    /// paginate).
    Series(SeriesOf),
    /// The telemetry exposition, rendered per request (no ETag, no
    /// parameters).
    Metrics,
}

/// One row of the route table.
struct Route {
    /// The path pattern, used verbatim as the `route` label on every
    /// HTTP metric (bounded cardinality by construction).
    pattern: &'static str,
    /// The pattern's literal text before its placeholder (all of it
    /// when it has none) and after it, split once at compile time.
    prefix: &'static str,
    suffix: &'static str,
    capture: Capture,
    source: Source,
}

/// A table row, its pattern split around the `{…}` placeholder.
const fn row(pattern: &'static str, capture: Capture, source: Source) -> Route {
    let bytes = pattern.as_bytes();
    let (mut open, mut close, mut i) = (bytes.len(), bytes.len(), 0);
    while i < bytes.len() {
        match bytes[i] {
            b'{' => open = i,
            b'}' => close = i + 1,
            _ => {}
        }
        i += 1;
    }
    let (Ok(prefix), Ok(suffix)) = (
        std::str::from_utf8(bytes.split_at(open).0),
        std::str::from_utf8(bytes.split_at(close).1),
    ) else {
        panic!("route patterns are ASCII")
    };
    Route { pattern, prefix, suffix, capture, source }
}

/// Every route the server answers. Rows are tried top to bottom and
/// the first match serves the request, so a `…/{x}/suffix` row sits
/// above its `…/{x}` row.
const TABLE: [Route; 12] = {
    use {Capture::*, Source::*};
    [
        row("/healthz", Exact, Slab(|i, _| Some(i.healthz_slab()))),
        row("/countries", Exact, Query(|i, _| Some(i.countries_slab()), RouteQuery::countries)),
        row("/country/{iso}/history", NonEmpty, Series(country_series)),
        row("/country/{iso}", Any, Slab(country_slab)),
        row("/flows", Exact, Query(|i, _| Some(i.flows_slab()), RouteQuery::flows)),
        row("/providers", Exact, Query(|i, _| Some(i.providers_slab()), RouteQuery::providers)),
        row("/providers/{name}/history", NonEmpty, Series(provider_series)),
        row("/hhi", Exact, Slab(|i, _| Some(i.hhi_slab()))),
        row(
            "/hhi/history",
            Exact,
            Series(|i, _| Some(("/hhi/history".into(), i.timeline().hhi()))),
        ),
        row("/scenario/{name}/diff", NonEmptyOrUnrouted, Slab(|i, n| i.scenarios().diff_slab(n))),
        row("/scenario/{name}", NonEmpty, Slab(|i, n| i.scenarios().report_slab(n))),
        row("/metrics", Exact, Metrics),
    ]
};

/// The route patterns the server exposes, in table order — also the
/// `route` label values of every HTTP metric (plus `other` for
/// unrouted paths, `error` for unparseable requests and `shed`).
pub const ROUTES: [&str; TABLE.len()] = {
    let mut patterns = [""; TABLE.len()];
    let mut i = 0;
    while i < TABLE.len() {
        patterns[i] = TABLE[i].pattern;
        i += 1;
    }
    patterns
};

/// The row serving `path` and the text its placeholder captured, or
/// `None` for an unrouted path. The only place paths are matched.
fn lookup(path: &str) -> Option<(&'static Route, &str)> {
    for route in &TABLE {
        let Some(rest) = path.strip_prefix(route.prefix) else { continue };
        let Some(captured) = rest.strip_suffix(route.suffix) else { continue };
        match route.capture {
            Capture::Exact if !captured.is_empty() => continue,
            Capture::NonEmpty if captured.is_empty() => continue,
            Capture::NonEmptyOrUnrouted if captured.is_empty() => return None,
            _ => return Some((route, captured)),
        }
    }
    None
}

/// The route label a path falls under (`"other"` for unrouted paths,
/// bounding metric cardinality no matter what clients request).
pub fn route_label(path: &str) -> &'static str {
    lookup(path).map_or("other", |(route, _)| route.pattern)
}

/// The [`RouteQuery`] grammar of the route at `path`, when it has one.
pub(crate) fn query_grammar(path: &str) -> Option<QueryParser> {
    match lookup(path)?.0.source {
        Source::Query(_, parse) => Some(parse),
        _ => None,
    }
}

/// Fold a two-letter country code to ASCII uppercase in `buf`. Only
/// ASCII bytes are folded, so multibyte lookalikes (U+212A KELVIN SIGN
/// folds to 'k' under Unicode rules) never match, and nothing is
/// allocated per request.
fn fold_iso<'b>(raw: &str, buf: &'b mut [u8; 2]) -> Option<&'b str> {
    let &[a, b] = raw.as_bytes() else { return None };
    *buf = [a.to_ascii_uppercase(), b.to_ascii_uppercase()];
    std::str::from_utf8(buf).ok()
}

/// A country's slab, by ASCII-folded ISO code.
fn country_slab<'i>(index: &'i QueryIndex, iso: &str) -> Option<&'i RouteSlab> {
    index.country_slab(fold_iso(iso, &mut [0u8; 2])?)
}

/// A country's series, by ASCII-folded ISO code.
fn country_series<'i>(index: &'i QueryIndex, iso: &str) -> Option<(String, &'i Series)> {
    let mut buf = [0u8; 2];
    let code = fold_iso(iso, &mut buf)?;
    let series = index.timeline().country(code)?;
    Some((format!("/country/{code}/history"), series))
}

/// A provider's series, by AS number or org name.
fn provider_series<'i>(index: &'i QueryIndex, name: &str) -> Option<(String, &'i Series)> {
    let (asn, provider) = index.timeline().provider(name)?;
    Some((format!("/providers/AS{asn}/history"), &provider.series))
}

/// Refuse parameters on a route (or unrouted path) that takes none.
fn no_params(raw: Option<&str>) -> Result<(), HttpError> {
    raw.map_or(Ok(()), reject_params)
}

/// Whether an `If-None-Match` header value matches `etag`: the
/// wildcard `*`, or any comma-separated entry equal to the (strong)
/// entity tag, with an optional `W/` weak prefix tolerated. Garbage
/// values simply fail to match and the full body is served.
pub fn if_none_match(header: &str, etag: &str) -> bool {
    header.split(',').map(str::trim).any(|candidate| {
        candidate == "*" || candidate == etag || candidate.strip_prefix("W/") == Some(etag)
    })
}

/// Everything a worker needs to answer requests: the hot-swappable
/// index handle, the bounded result cache for parameterized queries,
/// and the telemetry accounting.
#[derive(Debug)]
pub struct ServeState {
    index: IndexHandle,
    /// Rendered parameterized results, keyed by canonical query.
    cache: ResultCache,
    /// The dataset's build capture plus the index's country count —
    /// the baseline `/metrics` starts from.
    base: Telemetry,
    /// Request-side telemetry, accumulated under a mutex (merge-based,
    /// so the capture is order-blind like the build-side shards).
    requests: Mutex<Telemetry>,
    /// The canned 503 sent when a connection is shed (prebuilt once:
    /// shedding must not allocate under load).
    overloaded: Response,
    mode: TimeMode,
}

impl ServeState {
    /// Build the index from `dataset` and serve it with an explicit
    /// `/metrics` time mode (tests pin the deterministic one; the CLI
    /// passes `trace_level().time_mode()`) and result-cache capacity
    /// (`--query-cache` on the CLI; zero disables caching).
    pub fn with_config(dataset: &GovDataset, mode: TimeMode, cache_capacity: usize) -> ServeState {
        ServeState::with_index(dataset, QueryIndex::build(dataset), mode, cache_capacity)
    }

    /// Serve a prebuilt `index` — say one with an evolved timeline and
    /// scenario slabs (`govhost serve --years/--scenario`) — over the
    /// `dataset` it was built from, whose build telemetry `/metrics`
    /// starts from.
    pub fn with_index(
        dataset: &GovDataset,
        index: QueryIndex,
        mode: TimeMode,
        cache_capacity: usize,
    ) -> ServeState {
        let mut base = dataset.telemetry.clone();
        base.registry.add_counter(
            "serve.index.countries",
            Labels::empty(),
            index.country_count() as u64,
        );
        let mut requests = Telemetry::new();
        // Declare the shed and cache counters up front so `/metrics`
        // always shows them — a zero there is a meaningful signal, not
        // a missing series.
        requests.registry.declare_counter("http.shed", Labels::empty());
        for outcome in ["hit", "miss", "eviction"] {
            requests
                .registry
                .declare_counter("http.query_cache", Labels::new(&[("outcome", outcome)]));
        }
        ServeState {
            index: IndexHandle::new(index),
            cache: ResultCache::new(cache_capacity),
            base,
            requests: Mutex::new(requests),
            overloaded: Response::from_error(&HttpError::Overloaded),
            mode,
        }
    }

    /// The `/metrics` time mode in effect.
    pub fn time_mode(&self) -> TimeMode {
        self.mode
    }

    /// A snapshot of the currently-served query index (an `Arc` bump;
    /// a concurrent [`ServeState::swap_index`] does not disturb it).
    pub fn index(&self) -> Arc<QueryIndex> {
        self.index.load()
    }

    /// The parameterized-query result cache.
    pub fn result_cache(&self) -> &ResultCache {
        &self.cache
    }

    /// Hot-swap the served index — every slab, timeline and scenario
    /// included — with zero downtime: in-flight requests finish against
    /// the index they snapshotted, new requests see `next`, and the
    /// result cache is atomically invalidated (its epoch bump also
    /// drops in-flight renders against the old index).
    pub fn swap_index(&self, next: QueryIndex) {
        self.index.swap(next);
        self.cache.invalidate();
    }

    /// A merged snapshot of build-time and request-time telemetry.
    pub fn telemetry_snapshot(&self) -> Telemetry {
        let mut snap = self.base.clone();
        let requests = self.requests.lock().expect("telemetry lock");
        snap.merge(&requests);
        snap
    }

    /// Account one shed connection and hand back the canned
    /// `503 Retry-After` response to write before hanging up. The shed
    /// count lands in `/metrics` as `http_shed` plus a `5xx` response
    /// under the reserved `shed` route label, and the response-byte /
    /// latency histograms observe the shed like any other response —
    /// they must not undercount exactly when the server is overloaded.
    pub fn shed(&self) -> Response {
        let mut t = self.requests.lock().expect("telemetry lock");
        t.registry.add_counter("http.shed", Labels::empty(), 1);
        t.registry.add_counter(
            "http.responses",
            Labels::new(&[("route", "shed"), ("class", "5xx")]),
            1,
        );
        let labels = Labels::new(&[("route", "shed")]);
        t.registry.observe(
            "http.response_bytes",
            labels.clone(),
            self.overloaded.body().len() as u64,
        );
        // The canned 503 is prebuilt, so its serving latency is the
        // write itself; observe zero rather than invent a number.
        t.registry.observe("http.latency_ns", labels, 0);
        self.overloaded.clone()
    }

    /// How many connections have been shed so far.
    pub fn shed_count(&self) -> u64 {
        self.requests.lock().expect("telemetry lock").registry.counter_total("http.shed")
    }

    /// Answer one parse outcome: match the route table once, handle,
    /// and account the exchange into the request telemetry.
    pub fn respond(&self, parsed: Result<&Request, &HttpError>) -> Response {
        let start = Instant::now();
        let (matched, route) = match parsed {
            Ok(req) => {
                let matched = lookup(req.path());
                (matched, matched.map_or("other", |(route, _)| route.pattern))
            }
            Err(_) => (None, "error"),
        };
        {
            let mut t = self.requests.lock().expect("telemetry lock");
            t.registry.add_counter("http.requests", Labels::new(&[("route", route)]), 1);
        }
        let response = match parsed {
            Err(err) => Response::from_error(err),
            Ok(req) if req.method != "GET" && req.method != "HEAD" => {
                Response::from_error(&HttpError::MethodNotAllowed)
            }
            Ok(req) => {
                let response =
                    self.handle(req, matched).unwrap_or_else(|err| Response::from_error(&err));
                // HEAD runs the full GET pipeline (routing, conditionals,
                // accounting), then drops the body: the head slab already
                // describes the 200 representation (RFC 9110 §9.3.2).
                if req.method == "HEAD" {
                    response.into_head_only()
                } else {
                    response
                }
            }
        };
        let latency_ns = start.elapsed().as_nanos() as u64;
        let class = match response.status {
            200..=299 => "2xx",
            300..=399 => "3xx",
            400..=499 => "4xx",
            _ => "5xx",
        };
        let mut t = self.requests.lock().expect("telemetry lock");
        let labels = Labels::new(&[("route", route)]);
        t.registry.add_counter(
            "http.responses",
            Labels::new(&[("route", route), ("class", class)]),
            1,
        );
        t.registry.observe("http.response_bytes", labels.clone(), response.body().len() as u64);
        t.registry.observe("http.latency_ns", labels, latency_ns);
        response
    }

    /// Serve a slab, honouring `If-None-Match`: a matching entity tag
    /// answers `304 Not Modified` with an empty body.
    fn conditional(&self, req: &Request, slab: &RouteSlab) -> Response {
        match req.header("if-none-match") {
            Some(header) if if_none_match(header, slab.etag()) => slab.not_modified(),
            _ => slab.ok(),
        }
    }

    /// Answer a `GET` (or `HEAD`, body-stripped by the caller) for the
    /// row its path matched. Parameters are parsed before the target is
    /// resolved, so a bad query is a `400` even on an unknown target;
    /// parameterless requests (no query, a bare `?` or stray `&`s)
    /// answer the base slab, parameterized ones go through the result
    /// cache.
    fn handle(
        &self,
        req: &Request,
        matched: Option<(&Route, &str)>,
    ) -> Result<Response, HttpError> {
        let raw = req.query().filter(|raw| !raw.split('&').all(str::is_empty));
        let Some((route, captured)) = matched else {
            no_params(raw)?;
            return Err(HttpError::NotFound);
        };
        // In the parameterized arms the epoch is read before the
        // snapshot: a swap between the two bumps the epoch, so a render
        // against the displaced index cannot repopulate the cache.
        match (route.source, raw) {
            (Source::Metrics, raw) => {
                no_params(raw)?;
                Ok(self.metrics())
            }
            (Source::Query(_, parse), Some(raw)) => {
                let query = parse(raw)?;
                let epoch = self.cache.epoch();
                let index = self.index.load();
                Ok(self.cached(req, epoch, query.cache_key(), || query.execute(&index)))
            }
            (Source::Slab(slab) | Source::Query(slab, _), raw) => {
                no_params(raw)?;
                let index = self.index.load();
                Ok(self.conditional(req, slab(&index, captured).ok_or(HttpError::NotFound)?))
            }
            (Source::Series(series), None) => {
                let index = self.index.load();
                let (_, series) = series(&index, captured).ok_or(HttpError::NotFound)?;
                Ok(self.conditional(req, &series.slab))
            }
            (Source::Series(series), Some(raw)) => {
                let params = HistoryParams::parse(raw)?;
                let epoch = self.cache.epoch();
                let index = self.index.load();
                let (name, series) = series(&index, captured).ok_or(HttpError::NotFound)?;
                let key = format!("{name}?{}", params.canonical());
                Ok(self.cached(req, epoch, key, || series.execute(&name, &params)))
            }
        }
    }

    /// Serve a parameterized variant through the result cache: a hit
    /// is the cached slab, a miss renders, inserts (unless a swap bumped
    /// the cache past `epoch`) and counts an eviction if one happened.
    fn cached(
        &self,
        req: &Request,
        epoch: u64,
        key: String,
        render: impl FnOnce() -> String,
    ) -> Response {
        if let Some(slab) = self.cache.get(&key) {
            self.count_cache_outcome("hit");
            return self.conditional(req, &slab);
        }
        self.count_cache_outcome("miss");
        let slab = Arc::new(RouteSlab::json(render()));
        if self.cache.insert(key, slab.clone(), epoch) {
            self.count_cache_outcome("eviction");
        }
        self.conditional(req, &slab)
    }

    /// The `/metrics` exposition of the merged telemetry.
    fn metrics(&self) -> Response {
        let body = metrics_text(&self.telemetry_snapshot(), self.mode).into_bytes();
        Response::dynamic(
            &HeadSpec {
                status: 200,
                reason: "OK",
                content_type: "text/plain; charset=utf-8",
                content_length: Some(body.len()),
                etag: None,
                allow_get: false,
                retry_after: false,
            },
            body,
        )
    }

    fn count_cache_outcome(&self, outcome: &str) {
        let mut t = self.requests.lock().expect("telemetry lock");
        t.registry.add_counter("http.query_cache", Labels::new(&[("outcome", outcome)]), 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::{Limits, RequestParser};
    use crate::query::DEFAULT_RESULT_CACHE;
    use crate::scenario::ScenarioIndex;
    use govhost_worldgen::prelude::*;

    fn state() -> ServeState {
        let world = World::generate(&GenParams::tiny());
        let dataset = GovDataset::build(&world, &BuildOptions::default());
        ServeState::with_config(&dataset, TimeMode::Deterministic, DEFAULT_RESULT_CACHE)
    }

    fn get(state: &ServeState, path: &str) -> Response {
        let raw = format!("GET {path} HTTP/1.1\r\n\r\n");
        let mut parser = RequestParser::new(Limits::default());
        parser.push(raw.as_bytes());
        let req = parser.next_request().unwrap().unwrap();
        state.respond(Ok(&req))
    }

    #[test]
    fn every_route_answers_200() {
        let state = state();
        for path in ["/healthz", "/countries", "/flows", "/providers", "/hhi", "/metrics"] {
            assert_eq!(get(&state, path).status, 200, "{path}");
        }
    }

    #[test]
    fn country_lookup_is_case_insensitive_and_404s_unknowns() {
        let state = state();
        let world = World::generate(&GenParams::tiny());
        let dataset = GovDataset::build(&world, &BuildOptions::default());
        let code = dataset.countries()[0];
        let lower = code.as_str().to_ascii_lowercase();
        assert_eq!(get(&state, &format!("/country/{code}")).status, 200);
        assert_eq!(get(&state, &format!("/country/{lower}")).status, 200);
        assert_eq!(get(&state, "/country/ZZ").status, 404);
        assert_eq!(get(&state, "/nope").status, 404);
        // ASCII-only folding: Unicode lookalikes that case-fold into an
        // ASCII letter (U+212A KELVIN SIGN → 'k', U+017F LONG S → 's')
        // must stay 404 for every served country code.
        for code in dataset.countries() {
            let folded: String = code
                .as_str()
                .chars()
                .map(|c| match c {
                    'K' => '\u{212A}',
                    'S' => '\u{017F}',
                    c => c,
                })
                .collect();
            if folded.as_str() != code.as_str() {
                assert_eq!(get(&state, &format!("/country/{folded}")).status, 404, "{code}");
            }
        }
    }

    #[test]
    fn non_get_methods_are_405_with_allow() {
        let state = state();
        let mut parser = RequestParser::new(Limits::default());
        parser.push(b"POST /hhi HTTP/1.1\r\nContent-Length: 0\r\n\r\n");
        let req = parser.next_request().unwrap().unwrap();
        let resp = state.respond(Ok(&req));
        assert_eq!(resp.status, 405);
        let encoded = String::from_utf8(resp.encode(false)).unwrap();
        assert!(encoded.contains("Allow: GET, HEAD\r\n"));
        assert!(encoded.contains("Connection: close\r\n"));
    }

    #[test]
    fn head_serves_the_get_head_slab_with_no_body() {
        let state = state();
        let get_resp = get(&state, "/hhi");
        let mut parser = RequestParser::new(Limits::default());
        parser.push(b"HEAD /hhi HTTP/1.1\r\n\r\n");
        let req = parser.next_request().unwrap().unwrap();
        let head_resp = state.respond(Ok(&req));
        assert_eq!(head_resp.status, 200);
        assert!(head_resp.body().is_empty(), "HEAD sends zero body bytes");
        let get_encoded = get_resp.encode(true);
        let head_encoded = head_resp.encode(true);
        let get_head = &get_encoded[..get_encoded.len() - get_resp.body().len()];
        assert_eq!(
            head_encoded, get_head,
            "HEAD headers are byte-identical to GET's, Content-Length included"
        );
    }

    #[test]
    fn query_strings_on_fixed_routes_are_typed_400s() {
        let state = state();
        let resp = get(&state, "/hhi?verbose=1");
        assert_eq!(resp.status, 400);
        let body = String::from_utf8(resp.body().to_vec()).unwrap();
        assert!(body.contains("verbose"), "names the parameter: {body}");
        // A bare '?' carries no parameters and serves the base slab.
        assert_eq!(get(&state, "/hhi?").status, 200);
        assert_eq!(get(&state, "/metrics?x=1").status, 400);
    }

    #[test]
    fn parameterized_queries_hit_the_cache_and_count_outcomes() {
        let state = state();
        let miss = get(&state, "/flows?sort=share&limit=5");
        let hit = get(&state, "/flows?limit=5&sort=share");
        assert_eq!(miss.status, 200);
        assert_eq!(
            miss.encode(true),
            hit.encode(true),
            "hit and miss are byte-identical for one canonical query"
        );
        let snap = state.telemetry_snapshot();
        assert_eq!(
            snap.registry.counter_filtered("http.query_cache", &[("outcome", "miss")]),
            1
        );
        assert_eq!(
            snap.registry.counter_filtered("http.query_cache", &[("outcome", "hit")]),
            1
        );
        assert_eq!(state.result_cache().len(), 1);
    }

    #[test]
    fn metrics_declares_cache_counters_at_zero() {
        let state = state();
        let metrics = String::from_utf8(get(&state, "/metrics").body().to_vec()).unwrap();
        for outcome in ["hit", "miss", "eviction"] {
            assert!(
                metrics.contains(&format!("http_query_cache{{outcome=\"{outcome}\"}} 0")),
                "{outcome} declared at zero: {metrics}"
            );
        }
    }

    #[test]
    fn swap_invalidates_the_result_cache() {
        let world = World::generate(&GenParams::tiny());
        let dataset = GovDataset::build(&world, &BuildOptions::default());
        let state =
            ServeState::with_config(&dataset, TimeMode::Deterministic, DEFAULT_RESULT_CACHE);
        let before = get(&state, "/providers?sort=asn");
        assert_eq!(state.result_cache().len(), 1);
        state.swap_index(QueryIndex::build(&dataset));
        assert!(state.result_cache().is_empty(), "swap clears cached results");
        let after = get(&state, "/providers?sort=asn");
        assert_eq!(
            before.encode(true),
            after.encode(true),
            "identical-input swap leaves response bytes unchanged"
        );
    }

    #[test]
    fn encode_equals_concatenated_segments() {
        let state = state();
        let resp = get(&state, "/healthz");
        for keep in [true, false] {
            let mut joined = Vec::new();
            for seg in resp.segments(keep) {
                joined.extend_from_slice(seg.as_slice());
            }
            assert_eq!(joined, resp.encode(keep));
        }
    }

    #[test]
    fn conditional_get_answers_304_with_the_same_etag() {
        let state = state();
        let full = get(&state, "/hhi");
        let encoded = String::from_utf8(full.encode(false)).unwrap();
        let etag = encoded
            .lines()
            .find_map(|l| l.strip_prefix("ETag: "))
            .expect("precomputed routes carry an ETag")
            .to_string();
        let raw = format!("GET /hhi HTTP/1.1\r\nIf-None-Match: {etag}\r\n\r\n");
        let mut parser = RequestParser::new(Limits::default());
        parser.push(raw.as_bytes());
        let req = parser.next_request().unwrap().unwrap();
        let resp = state.respond(Ok(&req));
        assert_eq!(resp.status, 304);
        assert!(resp.body().is_empty(), "304 has no body");
        let encoded304 = String::from_utf8(resp.encode(false)).unwrap();
        assert!(encoded304.contains(&format!("ETag: {etag}\r\n")), "{encoded304}");
    }

    #[test]
    fn if_none_match_handles_lists_wildcards_and_garbage() {
        assert!(if_none_match("*", "\"abc\""));
        assert!(if_none_match("\"x\", \"abc\"", "\"abc\""));
        assert!(if_none_match("W/\"abc\"", "\"abc\""));
        assert!(!if_none_match("\"x\", \"y\"", "\"abc\""));
        assert!(!if_none_match("garbage", "\"abc\""));
        assert!(!if_none_match("", "\"abc\""));
    }

    #[test]
    fn shed_is_a_typed_503_with_retry_after_and_is_counted() {
        let state = state();
        assert_eq!(state.shed_count(), 0);
        let resp = state.shed();
        assert_eq!(resp.status, 503);
        let encoded = String::from_utf8(resp.encode(false)).unwrap();
        assert!(encoded.starts_with("HTTP/1.1 503 Service Unavailable"), "{encoded}");
        assert!(encoded.contains("Retry-After: 1\r\n"), "{encoded}");
        assert!(encoded.contains("server overloaded"), "{encoded}");
        assert_eq!(state.shed_count(), 1);
        let metrics = String::from_utf8(get(&state, "/metrics").body().to_vec()).unwrap();
        assert!(metrics.contains("http_shed 1"), "{metrics}");
        assert!(
            metrics.contains("http_responses{class=\"5xx\",route=\"shed\"} 1"),
            "{metrics}"
        );
    }

    #[test]
    fn metrics_always_exposes_the_shed_counter() {
        let state = state();
        let metrics = String::from_utf8(get(&state, "/metrics").body().to_vec()).unwrap();
        assert!(metrics.contains("http_shed 0"), "declared at zero: {metrics}");
    }

    #[test]
    fn requests_are_accounted_per_route_and_class() {
        let state = state();
        let _ = get(&state, "/hhi");
        let _ = get(&state, "/hhi");
        let _ = get(&state, "/nope");
        let snap = state.telemetry_snapshot();
        assert_eq!(
            snap.registry.counter_filtered("http.requests", &[("route", "/hhi")]),
            2
        );
        assert_eq!(
            snap.registry.counter_filtered("http.responses", &[("class", "4xx")]),
            1
        );
        assert_eq!(snap.registry.counter_total("http.latency_ns"), 0, "latency is a histogram");
    }

    #[test]
    fn history_routes_answer_with_etag_slabs_and_use_the_cache() {
        let state = state();
        // Parameterless: the precomputed slab, ETag included, 304-able.
        let full = get(&state, "/hhi/history");
        assert_eq!(full.status, 200);
        let encoded = String::from_utf8(full.encode(false)).unwrap();
        let etag = encoded
            .lines()
            .find_map(|l| l.strip_prefix("ETag: "))
            .expect("history slabs carry an ETag")
            .to_string();
        let raw = format!("GET /hhi/history HTTP/1.1\r\nIf-None-Match: {etag}\r\n\r\n");
        let mut parser = RequestParser::new(Limits::default());
        parser.push(raw.as_bytes());
        let req = parser.next_request().unwrap().unwrap();
        assert_eq!(state.respond(Ok(&req)).status, 304);
        // Parameterized: lands in the result cache like /flows does.
        let miss = get(&state, "/hhi/history?from=0&limit=10");
        let hit = get(&state, "/hhi/history?limit=10&from=0");
        assert_eq!(miss.status, 200);
        assert_eq!(miss.encode(true), hit.encode(true), "one canonical query, one entry");
        assert_eq!(state.result_cache().len(), 1);
    }

    #[test]
    fn history_targets_resolve_fold_and_404() {
        let state = state();
        let world = World::generate(&GenParams::tiny());
        let dataset = GovDataset::build(&world, &BuildOptions::default());
        let code = dataset.countries()[0];
        let lower = code.as_str().to_ascii_lowercase();
        assert_eq!(get(&state, &format!("/country/{code}/history")).status, 200);
        assert_eq!(get(&state, &format!("/country/{lower}/history")).status, 200);
        assert_eq!(get(&state, "/country/ZZ/history").status, 404);
        assert_eq!(get(&state, "/providers/AS13335/history").status, 200);
        assert_eq!(get(&state, "/providers/13335/history").status, 200);
        assert_eq!(get(&state, "/providers/AS99999/history").status, 404);
        assert_eq!(get(&state, "/providers/Nobody%20Inc./history").status, 404);
        // By org name, case-folded, percent-encoded on the wire.
        let body = String::from_utf8(get(&state, "/providers/AS13335/history").body().to_vec())
            .unwrap();
        assert!(body.contains("\"org\":\"Cloudflare, Inc.\""), "{body}");
        assert_eq!(get(&state, "/providers/cloudflare,%20inc./history").status, 200);
    }

    #[test]
    fn history_validates_before_resolving() {
        let state = state();
        // 400 before 404: a bad parameter on an unknown target is a 400.
        let resp = get(&state, "/country/ZZ/history?from=x");
        assert_eq!(resp.status, 400);
        let body = String::from_utf8(resp.body().to_vec()).unwrap();
        assert!(body.contains("parameter \\\"from\\\""), "names the parameter: {body}");
        assert_eq!(get(&state, "/hhi/history?verbose=1").status, 400);
    }

    #[test]
    fn every_path_keeps_its_route_label() {
        for (path, label) in [
            ("/hhi/history", "/hhi/history"),
            ("/country/US/history", "/country/{iso}/history"),
            ("/providers/AS13335/history", "/providers/{name}/history"),
            ("/country//history", "/country/{iso}"),
            ("/providers//history", "other"),
            ("/scenario/quake", "/scenario/{name}"),
            ("/scenario/quake/diff", "/scenario/{name}/diff"),
            ("/scenario/", "other"),
            ("/scenario", "other"),
            ("/healthz", "/healthz"),
            ("/healthz/", "other"),
            ("/", "other"),
            ("/country/", "/country/{iso}"),
            ("/country/a/b", "/country/{iso}"),
            ("/country/US/history/", "/country/{iso}"),
            ("/countries/US", "other"),
            ("/providers/a/b/history", "/providers/{name}/history"),
            ("/providers/AS1", "other"),
            ("/hhi/history/", "other"),
            ("/scenario/diff", "/scenario/{name}"),
            ("/scenario/a/b", "/scenario/{name}"),
            ("/scenario//x", "/scenario/{name}"),
            ("/scenario/a/diff/diff", "/scenario/{name}/diff"),
            ("/scenario//diff", "other"),
            ("/metrics/", "other"),
        ] {
            assert_eq!(route_label(path), label, "{path}");
        }
    }

    #[test]
    fn the_table_is_consistent_with_itself() {
        assert_eq!(ROUTES.len(), TABLE.len());
        for (i, route) in TABLE.iter().enumerate() {
            assert_eq!(ROUTES[i], route.pattern);
            assert!(!TABLE[..i].iter().any(|r| r.pattern == route.pattern), "{}", route.pattern);
            assert_eq!(
                route.capture == Capture::Exact,
                !route.pattern.contains('{'),
                "{}: exact rows have no placeholder",
                route.pattern
            );
            // Every pattern routes to itself, placeholder text and all.
            assert_eq!(route_label(route.pattern), route.pattern);
        }
    }

    #[test]
    fn scenario_routes_serve_slabs_400_params_and_404_unknowns() {
        let world = World::generate(&GenParams::tiny());
        let dataset = GovDataset::build(&world, &BuildOptions::default());
        // No scenarios attached: everything under /scenario/ is a 404,
        // but a bad query is still a 400 (400-before-404).
        let bare =
            ServeState::with_config(&dataset, TimeMode::Deterministic, DEFAULT_RESULT_CACHE);
        assert_eq!(get(&bare, "/scenario/quake").status, 404);
        assert_eq!(get(&bare, "/scenario/quake?x=1").status, 400);
        let file = govhost_scenario::parse("scenario quake\noutage provider AS13335\n").unwrap();
        let runs = govhost_scenario::run_file(
            &GenParams::tiny(),
            &file,
            &BuildOptions::default(),
        )
        .unwrap();
        let index = QueryIndex::build(&dataset).with_scenarios(ScenarioIndex::build(&runs));
        let state =
            ServeState::with_index(&dataset, index, TimeMode::Deterministic, DEFAULT_RESULT_CACHE);
        let report = get(&state, "/scenario/quake");
        assert_eq!(report.status, 200);
        let body = String::from_utf8(report.body().to_vec()).unwrap();
        assert!(body.starts_with("{\"scenario\":\"quake\""), "{body}");
        assert!(body.contains("\"cards\":["), "{body}");
        let diff = get(&state, "/scenario/quake/diff");
        assert_eq!(diff.status, 200);
        let diff_body = String::from_utf8(diff.body().to_vec()).unwrap();
        assert!(diff_body.contains("\"global\":["), "{diff_body}");
        // Unknowns, empty names, and parameters.
        assert_eq!(get(&state, "/scenario/nope").status, 404);
        assert_eq!(get(&state, "/scenario/nope/diff").status, 404);
        assert_eq!(get(&state, "/scenario/").status, 404);
        assert_eq!(get(&state, "/scenario").status, 404);
        let bad = get(&state, "/scenario/quake?verbose=1");
        assert_eq!(bad.status, 400);
        let bad_body = String::from_utf8(bad.body().to_vec()).unwrap();
        assert!(bad_body.contains("verbose"), "names the parameter: {bad_body}");
        // Conditional GET against the slab's ETag.
        let encoded = String::from_utf8(report.encode(false)).unwrap();
        let etag = encoded
            .lines()
            .find_map(|l| l.strip_prefix("ETag: "))
            .expect("scenario slabs carry an ETag")
            .to_string();
        let raw = format!("GET /scenario/quake HTTP/1.1\r\nIf-None-Match: {etag}\r\n\r\n");
        let mut parser = RequestParser::new(Limits::default());
        parser.push(raw.as_bytes());
        let req = parser.next_request().unwrap().unwrap();
        assert_eq!(state.respond(Ok(&req)).status, 304);
    }

    #[test]
    fn metrics_route_sees_its_own_arrival() {
        let state = state();
        let body = String::from_utf8(get(&state, "/metrics").body().to_vec()).unwrap();
        assert!(
            body.contains("http_requests{route=\"/metrics\"} 1"),
            "arrival counter precedes rendering: {body}"
        );
        assert!(body.contains("# TYPE serve_index_countries counter"));
    }
}
