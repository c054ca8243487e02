//! HTTP/1.1 conformance suite for the serving stack, run entirely
//! in-process: every case drives the real parser → router → encoder
//! path through the event loop ([`serve_in_memory`]) over a
//! [`MemConn`], so the suite needs no sockets and pins the exact wire
//! behaviour — which malformed inputs map to which status codes, when
//! connections close, and how pipelining behaves.

mod common;

use common::{serve_trickled, state};
use govhost_core::prelude::*;
use govhost_serve::{
    serve_in_memory, ConnPolicy, EventLoop, FakeClock, FakeReadiness, Limits, MemConn, Pool,
    ServerConfig,
};
use govhost_worldgen::prelude::*;
use std::io::{Read, Write};
use std::sync::atomic::AtomicBool;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// The `ETag:` value of the first response in `out`.
fn first_etag(out: &str) -> String {
    out.lines()
        .find_map(|l| l.strip_prefix("ETag: "))
        .expect("response carries an ETag")
        .to_string()
}

fn roundtrip_with(input: &[u8], limits: &Limits) -> String {
    let policy = ConnPolicy { limits: limits.clone(), ..ConnPolicy::default() };
    let conn = serve_in_memory(&state(), &policy, MemConn::new(input));
    String::from_utf8_lossy(conn.output()).into_owned()
}

fn roundtrip(input: &[u8]) -> String {
    roundtrip_with(input, &Limits::default())
}

/// Responses are counted by the `Server:` header — status lines never
/// appear inside the JSON bodies, but this is unambiguous either way.
fn response_count(out: &str) -> usize {
    out.matches("\r\nServer: govhost-serve\r\n").count()
}

#[test]
fn malformed_request_lines_are_400_and_close() {
    for bad in [
        &b"GET /\r\n\r\n"[..],                  // missing version
        b"GET / HTTP/2.0\r\n\r\n",              // unsupported version
        b"GET / HTTP/1.1 extra\r\n\r\n",        // four parts
        b"GET  / HTTP/1.1\r\n\r\n",             // double space
        b"G{}T / HTTP/1.1\r\n\r\n",             // non-tchar method
        b"GET nopath HTTP/1.1\r\n\r\n",         // not origin-form
        b"GET /\x01 HTTP/1.1\r\n\r\n",          // control byte in target
        b"GET / HTTP/1.1\nHost: a\r\n\r\n",     // bare LF line ending
        b"\r\nGET / HTTP/1.1\r\n\r\n",          // leading empty line
    ] {
        let out = roundtrip(bad);
        assert!(
            out.starts_with("HTTP/1.1 400 Bad Request"),
            "expected 400 for {:?}, got: {out}",
            String::from_utf8_lossy(bad)
        );
        assert!(out.contains("Connection: close\r\n"), "parse errors close: {out}");
        assert_eq!(response_count(&out), 1);
    }
}

#[test]
fn malformed_headers_are_400() {
    for bad in [
        &b"GET / HTTP/1.1\r\nNoColon\r\n\r\n"[..],
        b"GET / HTTP/1.1\r\n: empty-name\r\n\r\n",
        b"GET / HTTP/1.1\r\nBad Name: x\r\n\r\n",
        b"GET / HTTP/1.1\r\nA: 1\r\n B: folded\r\n\r\n",
        b"GET / HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\n",
        b"GET / HTTP/1.1\r\nContent-Length: -1\r\n\r\n",
        b"GET / HTTP/1.1\r\nContent-Length: 1x\r\n\r\n",
        b"GET / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
    ] {
        let out = roundtrip(bad);
        assert!(
            out.starts_with("HTTP/1.1 400 Bad Request"),
            "expected 400 for {:?}, got: {out}",
            String::from_utf8_lossy(bad)
        );
    }
}

#[test]
fn oversized_request_line_is_414() {
    let mut raw = b"GET /".to_vec();
    raw.extend(std::iter::repeat_n(b'a', 9000));
    raw.extend_from_slice(b" HTTP/1.1\r\n\r\n");
    let out = roundtrip(&raw);
    assert!(out.starts_with("HTTP/1.1 414 URI Too Long"), "{out}");
}

#[test]
fn unterminated_request_line_is_rejected_incrementally() {
    // No CRLF ever arrives; the limit still fires instead of buffering.
    let out = roundtrip(&[b'A'; 10_000]);
    assert!(out.starts_with("HTTP/1.1 414 URI Too Long"), "{out}");
}

#[test]
fn oversized_header_block_is_431() {
    let mut raw = b"GET / HTTP/1.1\r\nX-Big: ".to_vec();
    raw.extend(std::iter::repeat_n(b'y', 20_000));
    raw.extend_from_slice(b"\r\n\r\n");
    let out = roundtrip(&raw);
    assert!(
        out.starts_with("HTTP/1.1 431 Request Header Fields Too Large"),
        "{out}"
    );
}

#[test]
fn too_many_header_fields_is_431() {
    let mut raw = b"GET / HTTP/1.1\r\n".to_vec();
    for i in 0..80 {
        raw.extend_from_slice(format!("X-{i}: v\r\n").as_bytes());
    }
    raw.extend_from_slice(b"\r\n");
    let out = roundtrip(&raw);
    assert!(
        out.starts_with("HTTP/1.1 431 Request Header Fields Too Large"),
        "{out}"
    );
    assert!(out.contains("too many header fields"), "{out}");
}

#[test]
fn truncated_body_is_400_on_eof() {
    let out = roundtrip(b"POST /hhi HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc");
    assert!(out.starts_with("HTTP/1.1 400 Bad Request"), "{out}");
    assert!(out.contains("truncated request"), "{out}");
}

#[test]
fn truncated_header_block_is_400_on_eof() {
    let out = roundtrip(b"GET /hhi HTTP/1.1\r\nHost: exam");
    assert!(out.starts_with("HTTP/1.1 400 Bad Request"), "{out}");
    assert!(out.contains("truncated request"), "{out}");
}

#[test]
fn declared_body_over_the_limit_is_400() {
    let out = roundtrip(b"POST / HTTP/1.1\r\nContent-Length: 70000\r\n\r\n");
    assert!(out.starts_with("HTTP/1.1 400 Bad Request"), "{out}");
    assert!(out.contains("body exceeds the size limit"), "{out}");
}

#[test]
fn non_get_methods_are_405_with_allow() {
    for raw in [
        &b"POST /hhi HTTP/1.1\r\nContent-Length: 2\r\n\r\nhi"[..],
        b"PUT /hhi HTTP/1.1\r\nContent-Length: 0\r\n\r\n",
        b"DELETE /hhi HTTP/1.1\r\n\r\n",
    ] {
        let out = roundtrip(raw);
        assert!(out.starts_with("HTTP/1.1 405 Method Not Allowed"), "{out}");
        assert!(out.contains("Allow: GET, HEAD\r\n"), "{out}");
        assert!(out.contains("only GET and HEAD are served"), "{out}");
    }
}

// ---- HEAD support (RFC 9110 §9.1 makes GET and HEAD mandatory) ----

#[test]
fn head_answers_with_the_get_head_slab_and_zero_body() {
    for route in ["/healthz", "/countries", "/flows", "/providers", "/hhi"] {
        let get_out =
            roundtrip(format!("GET {route} HTTP/1.1\r\nConnection: close\r\n\r\n").as_bytes());
        let head_out =
            roundtrip(format!("HEAD {route} HTTP/1.1\r\nConnection: close\r\n\r\n").as_bytes());
        let (get_head, get_body) = get_out.split_once("\r\n\r\n").expect("head/body split");
        let (head_head, head_body) = head_out.split_once("\r\n\r\n").expect("head/body split");
        assert!(head_body.is_empty(), "{route}: HEAD puts zero body bytes on the wire");
        assert_eq!(
            head_head, get_head,
            "{route}: HEAD headers match GET's byte-for-byte"
        );
        // In particular Content-Length still describes the 200
        // representation that GET would have sent.
        let declared: usize = head_head
            .lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .expect("Content-Length on HEAD")
            .parse()
            .unwrap();
        assert_eq!(declared, get_body.len(), "{route}");
    }
}

#[test]
fn head_supports_conditionals_errors_and_parameterized_queries() {
    // HEAD /metrics: 200, no body (the head-compare is skipped — the
    // telemetry body mutates between requests).
    let out = roundtrip(b"HEAD /metrics HTTP/1.1\r\nConnection: close\r\n\r\n");
    let (head, body) = out.split_once("\r\n\r\n").unwrap();
    assert!(head.starts_with("HTTP/1.1 200 OK"), "{out}");
    assert!(body.is_empty(), "{out}");
    // HEAD on an unknown route is a bodyless 404.
    let out = roundtrip(b"HEAD /nope HTTP/1.1\r\nConnection: close\r\n\r\n");
    let (head, body) = out.split_once("\r\n\r\n").unwrap();
    assert!(head.starts_with("HTTP/1.1 404 Not Found"), "{out}");
    assert!(body.is_empty(), "{out}");
    // HEAD honours If-None-Match like GET.
    let etag = first_etag(&roundtrip(b"GET /hhi HTTP/1.1\r\nConnection: close\r\n\r\n"));
    let out = roundtrip(
        format!("HEAD /hhi HTTP/1.1\r\nIf-None-Match: {etag}\r\nConnection: close\r\n\r\n")
            .as_bytes(),
    );
    assert!(out.starts_with("HTTP/1.1 304 Not Modified"), "{out}");
    // HEAD runs the query engine too.
    let get_out =
        roundtrip(b"GET /flows?limit=3 HTTP/1.1\r\nConnection: close\r\n\r\n");
    let head_out =
        roundtrip(b"HEAD /flows?limit=3 HTTP/1.1\r\nConnection: close\r\n\r\n");
    let (get_head, _) = get_out.split_once("\r\n\r\n").unwrap();
    let (head_head, head_body) = head_out.split_once("\r\n\r\n").unwrap();
    assert_eq!(get_head, head_head, "parameterized HEAD matches GET headers");
    assert!(head_body.is_empty());
}

// ---- percent-decoding (strict, before route dispatch) ----

#[test]
fn percent_encoded_paths_decode_before_dispatch() {
    let world = World::generate(&GenParams::tiny());
    let dataset = GovDataset::build(&world, &BuildOptions::default());
    let code = dataset.countries()[0];
    let plain = roundtrip(
        format!("GET /country/{code} HTTP/1.1\r\nConnection: close\r\n\r\n").as_bytes(),
    );
    assert!(plain.starts_with("HTTP/1.1 200 OK"), "{plain}");
    // Fully percent-encoded (e.g. /country/%55%53 for US) must reach
    // the same resource with the same ETag.
    let encoded: String = code.as_str().bytes().map(|b| format!("%{b:02X}")).collect();
    let out = roundtrip(
        format!("GET /country/{encoded} HTTP/1.1\r\nConnection: close\r\n\r\n").as_bytes(),
    );
    assert!(out.starts_with("HTTP/1.1 200 OK"), "{out}");
    assert_eq!(first_etag(&out), first_etag(&plain), "one resource, one ETag");
    // Lowercase hex digits decode too.
    let lower: String = code.as_str().bytes().map(|b| format!("%{b:02x}")).collect();
    let out = roundtrip(
        format!("GET /country/{lower} HTTP/1.1\r\nConnection: close\r\n\r\n").as_bytes(),
    );
    assert!(out.starts_with("HTTP/1.1 200 OK"), "{out}");
}

#[test]
fn hostile_percent_encodings_are_400_and_close() {
    for bad in [
        &b"GET /x% HTTP/1.1\r\n\r\n"[..],      // bare %
        b"GET /x%2 HTTP/1.1\r\n\r\n",          // truncated escape
        b"GET /x%zz HTTP/1.1\r\n\r\n",         // non-hex digits
        b"GET /x%00 HTTP/1.1\r\n\r\n",         // NUL
        b"GET /x%0d%0aSet-Cookie: HTTP/1.1\r\n\r\n", // CRLF smuggling
        b"GET /x%7F HTTP/1.1\r\n\r\n",         // DEL
        b"GET /x%FF HTTP/1.1\r\n\r\n",         // invalid UTF-8
        b"GET /%80%80 HTTP/1.1\r\n\r\n",       // bare continuation bytes
    ] {
        let out = roundtrip(bad);
        assert!(
            out.starts_with("HTTP/1.1 400 Bad Request"),
            "expected 400 for {:?}, got: {out}",
            String::from_utf8_lossy(bad)
        );
        assert!(out.contains("Connection: close\r\n"), "parse errors close: {out}");
        assert_eq!(response_count(&out), 1);
    }
}

#[test]
fn unknown_routes_404_but_keep_the_connection() {
    // A 404 is an application answer, not a framing error: the pipelined
    // follow-up is still served.
    let out = roundtrip(
        b"GET /nope HTTP/1.1\r\n\r\nGET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
    );
    assert_eq!(response_count(&out), 2, "{out}");
    let first = out.find("HTTP/1.1 404 Not Found").expect("404 first");
    let second = out.find("HTTP/1.1 200 OK").expect("200 second");
    assert!(first < second, "{out}");
}

#[test]
fn pipelined_requests_are_answered_in_order() {
    let out = roundtrip(
        b"GET /healthz HTTP/1.1\r\n\r\n\
          GET /hhi HTTP/1.1\r\n\r\n\
          GET /countries HTTP/1.1\r\nConnection: close\r\n\r\n",
    );
    assert_eq!(response_count(&out), 3, "{out}");
    assert_eq!(out.matches("HTTP/1.1 200 OK").count(), 3, "{out}");
    // The first two stay keep-alive; only the last closes.
    assert_eq!(out.matches("Connection: keep-alive\r\n").count(), 2, "{out}");
    assert_eq!(out.matches("Connection: close\r\n").count(), 1, "{out}");
}

#[test]
fn a_parse_error_stops_the_pipeline() {
    // Everything after the malformed request is untrusted framing; the
    // server answers the error and closes instead of resynchronizing.
    let out = roundtrip(b"BAD\r\n\r\nGET /healthz HTTP/1.1\r\n\r\n");
    assert!(out.starts_with("HTTP/1.1 400 Bad Request"), "{out}");
    assert_eq!(response_count(&out), 1, "{out}");
}

#[test]
fn http10_closes_by_default_and_ignores_later_requests() {
    let out = roundtrip(b"GET /healthz HTTP/1.0\r\n\r\nGET /hhi HTTP/1.0\r\n\r\n");
    assert_eq!(response_count(&out), 1, "{out}");
    assert!(out.contains("Connection: close\r\n"), "{out}");
}

#[test]
fn query_strings_on_fixed_routes_are_typed_400s_not_aliases() {
    // Pre-PR-7 the query string was silently stripped, so /hhi?verbose=1
    // aliased /hhi (same ETag, surprise cache hits). Now fixed routes
    // reject parameters with a typed 400 naming the offender...
    for (wire, param) in [
        (&b"GET /hhi?verbose=1&x=%20 HTTP/1.1\r\n\r\n"[..], "verbose"),
        (b"GET /healthz?x HTTP/1.1\r\n\r\n", "x"),
        (b"GET /metrics?token=abc HTTP/1.1\r\n\r\n", "token"),
        (b"GET /country/ZZ?full=1 HTTP/1.1\r\n\r\n", "full"),
    ] {
        let out = roundtrip(wire);
        assert!(out.starts_with("HTTP/1.1 400 Bad Request"), "{out}");
        assert!(out.contains(&format!("\\\"{param}\\\"")), "names the parameter: {out}");
        // A query 400 is a routing answer, not a parse failure: the
        // connection stays usable.
        assert!(!out.contains("Connection: close\r\n"), "{out}");
    }
    // ...while a bare "?" (empty query) still serves the route.
    let out = roundtrip(b"GET /hhi? HTTP/1.1\r\nConnection: close\r\n\r\n");
    assert!(out.starts_with("HTTP/1.1 200 OK"), "{out}");
    assert_eq!(
        first_etag(&out),
        first_etag(&roundtrip(b"GET /hhi HTTP/1.1\r\nConnection: close\r\n\r\n")),
        "empty query is the same resource"
    );
}

#[test]
fn parameterized_variants_carry_distinct_etags() {
    let base = roundtrip(b"GET /flows HTTP/1.1\r\nConnection: close\r\n\r\n");
    let one = roundtrip(b"GET /flows?limit=1 HTTP/1.1\r\nConnection: close\r\n\r\n");
    let two = roundtrip(b"GET /flows?limit=2 HTTP/1.1\r\nConnection: close\r\n\r\n");
    for out in [&base, &one, &two] {
        assert!(out.starts_with("HTTP/1.1 200 OK"), "{out}");
    }
    let (e_base, e_one, e_two) = (first_etag(&base), first_etag(&one), first_etag(&two));
    assert_ne!(e_base, e_one, "query variants are distinct representations");
    assert_ne!(e_one, e_two);
    assert_ne!(e_base, e_two);
    // Equivalent spellings canonicalize to one representation: the ETag
    // is stable across parameter order and a repeat (cache-hit) fetch.
    let spelled =
        roundtrip(b"GET /flows?offset=0&limit=1 HTTP/1.1\r\nConnection: close\r\n\r\n");
    assert_eq!(first_etag(&spelled), e_one, "canonicalization unifies spellings");
    let again = roundtrip(b"GET /flows?limit=1 HTTP/1.1\r\nConnection: close\r\n\r\n");
    assert_eq!(again, one, "cache hit is byte-identical to the miss");
    // And If-None-Match revalidates the parameterized representation.
    let cond = roundtrip(
        format!("GET /flows?limit=1 HTTP/1.1\r\nIf-None-Match: {e_one}\r\nConnection: close\r\n\r\n")
            .as_bytes(),
    );
    assert!(cond.starts_with("HTTP/1.1 304 Not Modified"), "{cond}");
}

#[test]
fn responses_declare_exact_content_length() {
    let out = roundtrip(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n");
    let (head, body) = out.split_once("\r\n\r\n").expect("header/body split");
    let declared: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .expect("Content-Length header")
        .parse()
        .expect("numeric");
    assert_eq!(declared, body.len(), "{out}");
    assert!(!head.contains("Date:"), "no Date header: responses are byte-stable");
}

#[test]
fn tight_limits_apply_per_connection() {
    let limits = Limits { max_request_line: 16, ..Limits::default() };
    let out = roundtrip_with(b"GET /a-rather-long-target HTTP/1.1\r\n\r\n", &limits);
    assert!(out.starts_with("HTTP/1.1 414"), "{out}");
    // The same input passes under the defaults.
    let out = roundtrip(b"GET /a-rather-long-target HTTP/1.1\r\n\r\n");
    assert!(out.starts_with("HTTP/1.1 404"), "{out}");
}

// ---- keep-alive scheduling, conditional GETs, shedding, eviction ----

#[test]
fn pipelined_burst_survives_single_byte_chunking() {
    let wire = b"GET /healthz HTTP/1.1\r\n\r\n\
                 GET /hhi HTTP/1.1\r\n\r\n\
                 GET /countries HTTP/1.1\r\nConnection: close\r\n\r\n";
    let whole = roundtrip(wire);
    for chunk in [1, 2, 3, 7] {
        let out = String::from_utf8_lossy(&serve_trickled(&wire[..], chunk)).into_owned();
        assert_eq!(out, whole, "chunk size {chunk} changed the bytes");
        assert_eq!(response_count(&out), 3);
    }
}

#[test]
fn request_split_mid_header_name_still_parses() {
    // The CRLFCRLF boundary lands mid-chunk and the header name is cut
    // between reads; the incremental parser must reassemble both.
    let wire = b"GET /flows HTTP/1.1\r\nConn\
                 ection: close\r\nX-Pad: 1\r\n\r\n";
    let out = String::from_utf8_lossy(&serve_trickled(&wire[..], 4)).into_owned();
    assert!(out.starts_with("HTTP/1.1 200 OK"), "{out}");
    assert!(out.contains("Connection: close\r\n"), "{out}");
}

#[test]
fn connection_close_is_case_insensitive() {
    let out = roundtrip(
        b"GET /healthz HTTP/1.1\r\nConnection: CLOSE\r\n\r\nGET /hhi HTTP/1.1\r\n\r\n",
    );
    assert_eq!(response_count(&out), 1, "CLOSE ends the connection: {out}");
    assert!(out.contains("Connection: close\r\n"), "{out}");
}

#[test]
fn http10_with_explicit_keep_alive_stays_open() {
    let out = roundtrip(
        b"GET /healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n\
          GET /hhi HTTP/1.0\r\n\r\n",
    );
    assert_eq!(response_count(&out), 2, "{out}");
    assert!(out.contains("Connection: keep-alive\r\n"), "{out}");
}

#[test]
fn unknown_connection_token_falls_back_to_version_default() {
    let out = roundtrip(
        b"GET /healthz HTTP/1.1\r\nConnection: upgrade\r\n\r\n\
          GET /hhi HTTP/1.1\r\nConnection: close\r\n\r\n",
    );
    assert_eq!(response_count(&out), 2, "HTTP/1.1 default is keep-alive: {out}");
}

#[test]
fn good_then_bad_answers_the_good_request_first() {
    // The valid request is served before the framing error closes the
    // connection; the trailing valid request is never reached.
    let out = roundtrip(
        b"GET /healthz HTTP/1.1\r\n\r\nBAD\r\n\r\nGET /hhi HTTP/1.1\r\n\r\n",
    );
    assert_eq!(response_count(&out), 2, "{out}");
    let ok = out.find("HTTP/1.1 200 OK").expect("good request served");
    let bad = out.find("HTTP/1.1 400 Bad Request").expect("error answered");
    assert!(ok < bad, "{out}");
    assert!(out.contains("Connection: close\r\n"), "the framing error closes: {out}");
}

#[test]
fn matching_if_none_match_is_304_with_the_same_etag() {
    let full = roundtrip(b"GET /hhi HTTP/1.1\r\nConnection: close\r\n\r\n");
    let etag = first_etag(&full);
    let wire =
        format!("GET /hhi HTTP/1.1\r\nIf-None-Match: {etag}\r\nConnection: close\r\n\r\n");
    let out = roundtrip(wire.as_bytes());
    assert!(out.starts_with("HTTP/1.1 304 Not Modified"), "{out}");
    assert_eq!(first_etag(&out), etag, "304 revalidates the same ETag");
}

#[test]
fn a_304_has_no_body_and_no_content_length() {
    let full = roundtrip(b"GET /countries HTTP/1.1\r\nConnection: close\r\n\r\n");
    let etag = first_etag(&full);
    let wire = format!(
        "GET /countries HTTP/1.1\r\nIf-None-Match: {etag}\r\nConnection: close\r\n\r\n"
    );
    let out = roundtrip(wire.as_bytes());
    let (head, body) = out.split_once("\r\n\r\n").expect("head/body split");
    // RFC 9110 §8.6: a Content-Length on a 304 would describe the 200
    // representation, so the header is omitted entirely.
    assert!(!head.contains("Content-Length:"), "{out}");
    assert!(body.is_empty(), "304 carries no body: {out:?}");
}

#[test]
fn stale_if_none_match_serves_the_full_body() {
    let out = roundtrip(
        b"GET /hhi HTTP/1.1\r\nIf-None-Match: \"0000000000000000\"\r\nConnection: close\r\n\r\n",
    );
    assert!(out.starts_with("HTTP/1.1 200 OK"), "{out}");
    let (_, body) = out.split_once("\r\n\r\n").unwrap();
    assert!(!body.is_empty(), "{out}");
}

#[test]
fn garbage_if_none_match_serves_the_full_body() {
    for garbage in ["not-even-quoted", "\"", ",,,", "W/", "\u{1F980}"] {
        let wire = format!(
            "GET /hhi HTTP/1.1\r\nIf-None-Match: {garbage}\r\nConnection: close\r\n\r\n"
        );
        let out = roundtrip(wire.as_bytes());
        assert!(out.starts_with("HTTP/1.1 200 OK"), "garbage {garbage:?}: {out}");
    }
}

#[test]
fn wildcard_if_none_match_is_304() {
    let out = roundtrip(b"GET /hhi HTTP/1.1\r\nIf-None-Match: *\r\nConnection: close\r\n\r\n");
    assert!(out.starts_with("HTTP/1.1 304 Not Modified"), "{out}");
}

#[test]
fn if_none_match_lists_and_weak_validators_match() {
    let full = roundtrip(b"GET /providers HTTP/1.1\r\nConnection: close\r\n\r\n");
    let etag = first_etag(&full);
    for header in
        [format!("\"miss\", {etag}, \"other\""), format!("W/{etag}"), format!("  {etag}  ")]
    {
        let wire = format!(
            "GET /providers HTTP/1.1\r\nIf-None-Match: {header}\r\nConnection: close\r\n\r\n"
        );
        let out = roundtrip(wire.as_bytes());
        assert!(out.starts_with("HTTP/1.1 304"), "header {header:?}: {out}");
    }
}

#[test]
fn every_data_route_carries_a_stable_etag_but_metrics_does_not() {
    for route in ["/healthz", "/countries", "/flows", "/providers", "/hhi"] {
        let wire = format!("GET {route} HTTP/1.1\r\nConnection: close\r\n\r\n");
        let a = first_etag(&roundtrip(wire.as_bytes()));
        let b = first_etag(&roundtrip(wire.as_bytes()));
        assert_eq!(a, b, "{route} ETag is deterministic");
        assert!(a.starts_with('"') && a.ends_with('"'), "{route}: quoted validator {a}");
    }
    let metrics = roundtrip(b"GET /metrics HTTP/1.1\r\nConnection: close\r\n\r\n");
    let (head, _) = metrics.split_once("\r\n\r\n").unwrap();
    assert!(!head.contains("ETag:"), "/metrics mutates per request: {head}");
}

#[test]
fn shed_connections_get_a_503_with_retry_after_on_the_wire() {
    /// A connection that never produces a request: it holds its pool
    /// slot until the idle deadline.
    struct Stuck(Arc<Mutex<Vec<u8>>>);
    impl Read for Stuck {
        fn read(&mut self, _buf: &mut [u8]) -> std::io::Result<usize> {
            Err(std::io::ErrorKind::WouldBlock.into())
        }
    }
    impl Write for Stuck {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    let state = state();
    let before = state.shed_count();
    let policy =
        ConnPolicy { idle_timeout: Duration::from_millis(50), ..ConnPolicy::default() };
    let pool = Pool::start(Arc::clone(&state), ServerConfig { threads: 1, max_conns: 1, policy });
    let stuck_out = Arc::new(Mutex::new(Vec::new()));
    assert!(pool.submit(Box::new(Stuck(Arc::clone(&stuck_out)))));
    // The slot is taken synchronously, so the next submission sheds.
    let (conn, rx) = MemConn::scripted(&b"GET /healthz HTTP/1.1\r\n\r\n"[..]);
    assert!(pool.submit(Box::new(conn)), "shed connections are still handled");
    let out = String::from_utf8(rx.recv().unwrap()).unwrap();
    assert!(out.starts_with("HTTP/1.1 503 Service Unavailable"), "{out}");
    assert!(out.contains("Retry-After: 1\r\n"), "{out}");
    assert!(out.contains("Connection: close\r\n"), "{out}");
    assert!(out.contains("server overloaded, retry shortly"), "{out}");
    assert_eq!(state.shed_count(), before + 1);
    pool.shutdown();
    assert!(stuck_out.lock().unwrap().is_empty(), "idle eviction closes silently");
}

#[test]
fn idle_timeout_evicts_a_half_request_with_400_on_the_wire() {
    let clock = Arc::new(FakeClock::new());
    let policy =
        ConnPolicy { idle_timeout: Duration::from_millis(200), ..ConnPolicy::default() };
    let mut el = EventLoop::new(
        state(),
        Box::new(FakeReadiness::always()),
        Arc::clone(&clock) as Arc<dyn govhost_serve::Clock>,
        policy,
        Arc::new(AtomicBool::new(false)),
    );
    let conn = MemConn::new(&b"GET /hhi HTTP/1.1\r\nHos"[..]);
    // MemConn EOFs after its input; wrap so the loop sees WouldBlock
    // instead (the peer is just slow, not gone).
    struct NoEof(MemConn, Arc<Mutex<Vec<u8>>>);
    impl Read for NoEof {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            match self.0.read(buf) {
                Ok(0) => Err(std::io::ErrorKind::WouldBlock.into()),
                other => other,
            }
        }
    }
    impl Write for NoEof {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.1.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }
    let out = Arc::new(Mutex::new(Vec::new()));
    el.register(Box::new(NoEof(conn, Arc::clone(&out))), None);
    el.turn(Some(Duration::from_millis(1))).unwrap();
    assert_eq!(el.len(), 1, "partial request keeps the connection before the deadline");
    clock.advance(Duration::from_millis(500));
    el.turn(Some(Duration::from_millis(1))).unwrap();
    assert!(el.is_empty(), "the idle deadline evicts");
    let text = String::from_utf8(out.lock().unwrap().clone()).unwrap();
    assert!(text.starts_with("HTTP/1.1 400 Bad Request"), "{text}");
    assert!(text.contains("read timeout"), "{text}");
    assert!(text.contains("Connection: close\r\n"), "{text}");
}

/// A peer that sends its final request and then never reads a byte of
/// the response — a deliberate slow-reader, or a client whose network
/// silently dropped.
struct NeverReads {
    input: Vec<u8>,
    pos: usize,
}

impl Read for NeverReads {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.pos == self.input.len() {
            return Err(std::io::ErrorKind::WouldBlock.into());
        }
        let n = buf.len().min(self.input.len() - self.pos);
        buf[..n].copy_from_slice(&self.input[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

impl Write for NeverReads {
    fn write(&mut self, _buf: &[u8]) -> std::io::Result<usize> {
        Err(std::io::ErrorKind::WouldBlock.into())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// The drain deadline: a closing connection whose peer never takes its
/// final response is abandoned after one idle window instead of
/// pinning its event-loop slot forever (which would permanently eat
/// into `max_conns` and turn the server into a 503 generator).
#[test]
fn a_closing_peer_that_never_reads_is_abandoned_at_the_drain_deadline() {
    let clock = Arc::new(FakeClock::new());
    let policy =
        ConnPolicy { idle_timeout: Duration::from_millis(200), ..ConnPolicy::default() };
    let mut el = EventLoop::new(
        state(),
        Box::new(FakeReadiness::always()),
        Arc::clone(&clock) as Arc<dyn govhost_serve::Clock>,
        policy,
        Arc::new(AtomicBool::new(false)),
    );
    el.register(
        Box::new(NeverReads {
            input: b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n".to_vec(),
            pos: 0,
        }),
        None,
    );
    el.turn(Some(Duration::from_millis(1))).unwrap();
    assert_eq!(el.len(), 1, "the queued final response holds the slot for now");
    clock.advance(Duration::from_millis(150));
    el.turn(Some(Duration::from_millis(1))).unwrap();
    assert_eq!(el.len(), 1, "still inside the drain window");
    clock.advance(Duration::from_millis(150));
    el.turn(Some(Duration::from_millis(1))).unwrap();
    assert!(el.is_empty(), "the drain deadline reaps the stuck connection");
}

#[test]
fn max_requests_per_conn_closes_after_the_cap() {
    let policy = ConnPolicy { max_requests_per_conn: 3, ..ConnPolicy::default() };
    let mut wire = Vec::new();
    for _ in 0..5 {
        wire.extend_from_slice(b"GET /healthz HTTP/1.1\r\n\r\n");
    }
    let conn = serve_in_memory(&state(), &policy, MemConn::new(wire));
    let out = String::from_utf8_lossy(conn.output()).into_owned();
    assert_eq!(response_count(&out), 3, "requests beyond the cap are not served: {out}");
    assert_eq!(out.matches("Connection: keep-alive\r\n").count(), 2, "{out}");
    assert_eq!(out.matches("Connection: close\r\n").count(), 1, "{out}");
}
