//! Support shared by the serve integration tests: one tiny-world state
//! and a transport whose input arrives in small pieces.

use govhost_core::prelude::*;
use govhost_obs::TimeMode;
use govhost_serve::{serve_in_memory, ConnPolicy, MemConn, ServeState, DEFAULT_RESULT_CACHE};
use govhost_worldgen::prelude::*;
use std::io::{Read, Write};
use std::sync::{Arc, OnceLock};

/// One shared state per test binary: the index is immutable and the
/// request telemetry only accumulates, so cases cannot interfere.
pub fn state() -> Arc<ServeState> {
    static STATE: OnceLock<Arc<ServeState>> = OnceLock::new();
    Arc::clone(STATE.get_or_init(|| {
        let world = World::generate(&GenParams::tiny());
        let dataset = GovDataset::build(&world, &BuildOptions::default());
        Arc::new(ServeState::with_config(&dataset, TimeMode::Deterministic, DEFAULT_RESULT_CACHE))
    }))
}

/// A [`MemConn`] handing out at most `step` input bytes (at least one)
/// per read: the wire arriving in arbitrary small pieces.
struct Trickle {
    conn: MemConn,
    step: usize,
}

impl Read for Trickle {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = buf.len().min(self.step);
        self.conn.read(&mut buf[..n])
    }
}

impl Write for Trickle {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.conn.write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.conn.flush()
    }
}

/// Serve `input` on the shared state through the event loop, at most
/// `step` bytes per read, and return everything the server wrote.
pub fn serve_trickled(input: impl Into<Vec<u8>>, step: usize) -> Vec<u8> {
    let conn = Trickle { conn: MemConn::new(input), step: step.max(1) };
    serve_in_memory(&state(), &ConnPolicy::default(), conn).conn.output().to_vec()
}
