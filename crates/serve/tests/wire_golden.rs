//! The wire bytes of one fixed pipeline over the tiny world, pinned by
//! digest across commits. The other byte pins compare worker counts,
//! thread counts and read chunkings with each other; this one catches a
//! change that moves bytes the same way everywhere. The pipeline covers
//! every fixed route and `/country/{iso}`, a parameterized miss and its
//! hit, the three history routes, both scenario routes, a `304`, a
//! `HEAD`, typed `400`s, `404`s, and `/metrics` last, whose body
//! accounts for the whole sequence.
//!
//! A second case pins that a hot swap replaces the scenario slabs along
//! with the rest of the served index.

use govhost_core::prelude::*;
use govhost_obs::TimeMode;
use govhost_scenario::ScenarioRun;
use govhost_serve::{
    serve_in_memory, ConnPolicy, MemConn, QueryIndex, ScenarioIndex, ServeState,
    DEFAULT_RESULT_CACHE,
};
use govhost_worldgen::prelude::*;
use std::sync::{Arc, OnceLock};

/// FNV-1a-64 of the whole pipeline's response bytes.
const WIRE_DIGEST: u64 = 0xb237_e6ba_020d_86d4;

/// Length of the whole pipeline's response bytes.
const WIRE_LEN: usize = 129_736;

/// The tiny world's dataset plus two evaluated scenarios, `quake` (an
/// AS13335 outage) and `shore` (every country onshored).
fn fixture() -> &'static (GovDataset, Vec<ScenarioRun>) {
    static FIXTURE: OnceLock<(GovDataset, Vec<ScenarioRun>)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let params = GenParams::tiny();
        let world = World::generate(&params);
        let dataset = GovDataset::build(&world, &BuildOptions::default());
        let file = govhost_scenario::parse(
            "scenario quake\noutage provider AS13335\n\nscenario shore\nonshore *\n",
        )
        .expect("scenario file parses");
        let runs = govhost_scenario::run_file(&params, &file, &BuildOptions::default())
            .expect("scenarios run");
        (dataset, runs)
    })
}

/// A fresh state serving the fixture's dataset with `runs` as its
/// scenarios.
fn state_with(runs: &[ScenarioRun]) -> Arc<ServeState> {
    let dataset = &fixture().0;
    let index = QueryIndex::build(dataset).with_scenarios(ScenarioIndex::build(runs));
    Arc::new(ServeState::with_index(dataset, index, TimeMode::Deterministic, DEFAULT_RESULT_CACHE))
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn serve(state: &Arc<ServeState>, wire: String) -> String {
    let conn = serve_in_memory(state, &ConnPolicy::default(), MemConn::new(wire.into_bytes()));
    String::from_utf8_lossy(conn.output()).into_owned()
}

fn get(state: &Arc<ServeState>, target: &str) -> String {
    serve(state, format!("GET {target} HTTP/1.1\r\nConnection: close\r\n\r\n"))
}

#[test]
fn wire_bytes_match_the_recorded_digest() {
    let (dataset, runs) = fixture();
    let state = state_with(&runs[..1]);
    let cc = dataset.countries()[0];
    let etag = state.index().hhi_slab().etag().to_string();
    let mut wire = String::new();
    for target in [
        "/healthz".to_string(),
        "/countries".to_string(),
        format!("/country/{cc}"),
        "/flows".to_string(),
        "/providers".to_string(),
        "/hhi".to_string(),
        "/flows?limit=5".to_string(),
        "/flows?offset=0&limit=5".to_string(),
        "/hhi/history".to_string(),
        format!("/country/{cc}/history"),
        "/providers/AS13335/history".to_string(),
        format!("/country/{cc}/history?limit=1"),
        "/scenario/quake".to_string(),
        "/scenario/quake/diff".to_string(),
    ] {
        wire.push_str(&format!("GET {target} HTTP/1.1\r\n\r\n"));
    }
    wire.push_str(&format!("GET /hhi HTTP/1.1\r\nIf-None-Match: {etag}\r\n\r\n"));
    wire.push_str("HEAD /hhi HTTP/1.1\r\n\r\n");
    for target in [
        "/flows?bogus=1",
        "/country/ZZ/history?from=x",
        "/scenario/nope?x=1",
        "/nope",
        "/scenario/nope",
    ] {
        wire.push_str(&format!("GET {target} HTTP/1.1\r\n\r\n"));
    }
    wire.push_str("GET /metrics HTTP/1.1\r\nConnection: close\r\n\r\n");
    let out = serve(&state, wire);

    let statuses: Vec<&str> = out
        .split("HTTP/1.1 ")
        .skip(1)
        .map(|response| &response[..3])
        .filter(|code| code.bytes().all(|b| b.is_ascii_digit()))
        .collect();
    let mut expected = vec!["200"; 14];
    expected.extend(["304", "200", "400", "400", "400", "404", "404", "200"]);
    assert_eq!(statuses, expected, "one answer per request, in order");
    assert!(out.contains("http_query_cache{outcome=\"hit\"} 1"), "{out}");
    assert_eq!(
        (fnv1a(out.as_bytes()), out.len()),
        (WIRE_DIGEST, WIRE_LEN),
        "the wire bytes moved: digest {:#018x}, {} bytes",
        fnv1a(out.as_bytes()),
        out.len()
    );
}

#[test]
fn a_swap_replaces_the_scenario_slabs_with_the_rest_of_the_index() {
    let (dataset, runs) = fixture();
    let state = state_with(&runs[..1]);
    assert!(get(&state, "/scenario/quake").starts_with("HTTP/1.1 200 OK"));
    assert!(get(&state, "/scenario/shore").starts_with("HTTP/1.1 404 Not Found"));

    let next = QueryIndex::build(dataset).with_scenarios(ScenarioIndex::build(&runs[1..]));
    state.swap_index(next);
    assert!(get(&state, "/scenario/quake").starts_with("HTTP/1.1 404 Not Found"));
    assert!(get(&state, "/scenario/quake/diff").starts_with("HTTP/1.1 404 Not Found"));
    let shore = get(&state, "/scenario/shore");
    assert!(shore.starts_with("HTTP/1.1 200 OK"), "{shore}");
    assert!(shore.contains("{\"scenario\":\"shore\""), "{shore}");
}
