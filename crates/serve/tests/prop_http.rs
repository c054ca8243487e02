//! Property tests for the serving stack on the in-repo harness: the
//! parser and the full connection loop must never panic on arbitrary
//! bytes delivered in arbitrary chunkings, and well-formed pipelines
//! must get exactly one response per request with bytes that do not
//! depend on how the input was framed into reads. Counterexamples are
//! persisted in `tests/regressions/prop_http.txt`.

mod common;

use common::{serve_trickled as serve, state};
use govhost_harness::{gens, prop_assert, prop_assert_eq, Config, Gen};
use govhost_serve::{serve_in_memory, ConnPolicy, Limits, MemConn};

const REGRESSIONS: &str = "tests/regressions/prop_http.txt";

fn cfg(name: &str) -> Config {
    Config::new(name).cases(256).regressions(REGRESSIONS)
}

/// Arbitrary bytes, biased toward HTTP-ish characters so the generator
/// reaches deep into the parser instead of failing on byte one.
fn arb_bytes() -> Gen<Vec<u8>> {
    let httpish: Vec<u64> = b"GET / HTTP/1.\r\n:0".iter().map(|b| *b as u64).collect();
    let byte = gens::one_of(vec![gens::u64_range(0, 256), gens::select(httpish)]);
    gens::vec(byte, 0, 200).map(|v| v.into_iter().map(|b| b as u8).collect())
}

/// Request paths for well-formed pipelines. `/metrics` is deliberately
/// absent: its body reflects accumulated request counters, so it is the
/// one route whose bytes depend on suite-global request history (the
/// determinism pin in `tests/serve_http.rs` covers it with a controlled
/// sequence instead).
fn arb_paths() -> Gen<Vec<&'static str>> {
    let route = gens::select(vec![
        "/healthz",
        "/countries",
        "/flows",
        "/providers",
        "/hhi",
        "/country/ZZ",
        "/country/%5A%5A",
        "/nope",
        "/flows?limit=2",
        "/flows?sort=share&min_share=0.1",
        "/providers?sort=asn",
        "/countries?sort=hhi",
        "/hhi?x=1",
    ]);
    gens::vec(route, 1, 6)
}

/// Query-string fragments biased toward the engine's grammar, salted
/// with hostile percent-escapes and separator abuse.
fn arb_query() -> Gen<String> {
    let frag = gens::select(vec![
        "limit=1",
        "limit=500",
        "limit=junk",
        "limit=999999999999999999999",
        "offset=3",
        "sort=share",
        "sort=hhi",
        "from=EU",
        "from=*",
        "to=%55%53",
        "category=3p_global",
        "category=",
        "min_share=0.5",
        "min_share=nan",
        "region=na",
        "country=us",
        "min_countries=2",
        "lens=registration",
        "x=1",
        "limit",
        "=",
        "%",
        "%2",
        "%zz",
        "a=%00",
        "a=%ff",
        "a%3db",
        "&",
    ]);
    gens::vec(frag, 0, 4).map(|v| v.join("&"))
}

fn pipeline_bytes(paths: &[&str]) -> Vec<u8> {
    let mut input = String::new();
    for (i, path) in paths.iter().enumerate() {
        let close = if i + 1 == paths.len() { "Connection: close\r\n" } else { "" };
        input.push_str(&format!("GET {path} HTTP/1.1\r\n{close}\r\n"));
    }
    input.into_bytes()
}

#[test]
fn parser_never_panics_on_arbitrary_bytes() {
    let inputs = arb_bytes().zip(gens::usize_range(1, 9));
    cfg("parser_never_panics_on_arbitrary_bytes").run(&inputs, |(bytes, chunk)| {
        let mut parser = govhost_serve::RequestParser::new(Limits::default());
        for piece in bytes.chunks(*chunk) {
            parser.push(piece);
            loop {
                match parser.next_request() {
                    Ok(Some(_)) => continue,
                    Ok(None) => break,
                    // A typed rejection is a valid outcome; a panic is not.
                    Err(_) => return Ok(()),
                }
            }
        }
        Ok(())
    });
}

#[test]
fn well_formed_pipelines_get_one_response_per_request() {
    let inputs = arb_paths().zip(gens::usize_range(1, 9));
    cfg("well_formed_pipelines_get_one_response_per_request").run(&inputs, |(paths, chunk)| {
        let out = String::from_utf8_lossy(&serve(pipeline_bytes(paths), *chunk)).into_owned();
        prop_assert_eq!(
            out.matches("\r\nServer: govhost-serve\r\n").count(),
            paths.len(),
            "one response per pipelined request"
        );
        prop_assert!(!out.contains("HTTP/1.1 5"), "the server never 5xxs");
        Ok(())
    });
}

#[test]
fn response_bytes_do_not_depend_on_read_chunking() {
    let inputs = arb_paths().zip(gens::usize_range(1, 9));
    cfg("response_bytes_do_not_depend_on_read_chunking").run(&inputs, |(paths, chunk)| {
        let bytes = pipeline_bytes(paths);
        let whole = serve_in_memory(&state(), &ConnPolicy::default(), MemConn::new(bytes.clone()));
        prop_assert_eq!(
            whole.output(),
            &serve(bytes, *chunk)[..],
            "framing of reads must not change the response bytes"
        );
        Ok(())
    });
}

#[test]
fn arbitrary_query_strings_never_panic_and_answer_200_or_400() {
    let route = gens::select(vec!["/flows", "/providers", "/countries", "/hhi", "/healthz"]);
    let inputs = route.zip(arb_query()).zip(gens::usize_range(1, 9));
    cfg("arbitrary_query_strings_never_panic_and_answer_200_or_400").run(
        &inputs,
        |((route, query), chunk)| {
            let wire =
                format!("GET {route}?{query} HTTP/1.1\r\nConnection: close\r\n\r\n").into_bytes();
            let out = String::from_utf8_lossy(&serve(wire, *chunk)).into_owned();
            prop_assert!(
                out.starts_with("HTTP/1.1 200 OK") || out.starts_with("HTTP/1.1 400 Bad Request"),
                "a query is answered 200 or a typed 400, never anything else"
            );
            prop_assert_eq!(
                out.matches("\r\nServer: govhost-serve\r\n").count(),
                1,
                "exactly one response"
            );
            Ok(())
        },
    );
}

#[test]
fn arbitrary_percent_escapes_in_paths_never_panic() {
    let seg = gens::select(vec![
        "%55%53", "%2e%2e", "%2F", "%", "%2", "%zz", "%00", "%ff", "%C3%A9", "%0d%0a", "%7f",
        "US", "a",
    ]);
    let inputs = gens::vec(seg, 1, 4).zip(gens::usize_range(1, 9));
    cfg("arbitrary_percent_escapes_in_paths_never_panic").run(&inputs, |(segs, chunk)| {
        let path: String = segs.concat();
        let wire =
            format!("GET /country/{path} HTTP/1.1\r\nConnection: close\r\n\r\n").into_bytes();
        let out = String::from_utf8_lossy(&serve(wire, *chunk)).into_owned();
        prop_assert!(
            out.starts_with("HTTP/1.1 200 OK")
                || out.starts_with("HTTP/1.1 400 Bad Request")
                || out.starts_with("HTTP/1.1 404 Not Found"),
            "percent-laden paths resolve, reject, or miss — never crash"
        );
        prop_assert_eq!(
            out.matches("\r\nServer: govhost-serve\r\n").count(),
            1,
            "exactly one response"
        );
        Ok(())
    });
}

#[test]
fn event_loop_never_panics_on_arbitrary_bytes() {
    let inputs = arb_bytes().zip(gens::usize_range(1, 9));
    cfg("event_loop_never_panics_on_arbitrary_bytes").run(&inputs, |(bytes, chunk)| {
        let out = serve(bytes.clone(), *chunk);
        prop_assert!(
            out.is_empty() || out.starts_with(b"HTTP/1.1 "),
            "output must start with a status line"
        );
        Ok(())
    });
}

/// Drop the `Connection:` response header, the one line that
/// legitimately depends on how requests were packed into connections
/// (each connection's final response closes; earlier ones keep alive).
fn strip_connection_lines(out: &[u8]) -> String {
    String::from_utf8_lossy(out)
        .replace("Connection: keep-alive\r\n", "")
        .replace("Connection: close\r\n", "")
}

#[test]
fn response_bytes_do_not_depend_on_connection_packing() {
    // `splits[i]` opens a new connection before request `i + 1`.
    let inputs = arb_paths()
        .zip(gens::vec(gens::bool_any(), 5, 5))
        .zip(gens::usize_range(1, 9));
    cfg("response_bytes_do_not_depend_on_connection_packing").run(
        &inputs,
        |((paths, splits), chunk)| {
            let one_conn = MemConn::new(pipeline_bytes(paths));
            let one_conn = serve_in_memory(&state(), &ConnPolicy::default(), one_conn);

            let mut groups: Vec<Vec<&str>> = vec![vec![paths[0]]];
            for (i, path) in paths.iter().enumerate().skip(1) {
                if splits[(i - 1) % splits.len()] {
                    groups.push(Vec::new());
                }
                groups.last_mut().expect("non-empty").push(path);
            }
            let mut packed = Vec::new();
            for group in &groups {
                packed.extend_from_slice(&serve(pipeline_bytes(group), *chunk));
            }
            prop_assert_eq!(
                strip_connection_lines(one_conn.output()),
                strip_connection_lines(&packed),
                "packing requests into connections must not change response bytes"
            );
            Ok(())
        },
    );
}
