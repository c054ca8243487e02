//! The transport layer: a connection trait, the event-loop worker
//! pool, the TCP acceptor, and the in-memory connection tests drive it
//! with.
//!
//! Transport is abstracted behind [`Connection`] (`Read + Write +
//! Send`), so the one [`EventLoop`] serves a real
//! [`std::net::TcpStream`] and the in-process [`MemConn`] alike.
//! [`serve_in_memory`] turns that loop over a single in-memory
//! connection (always-ready [`FakeReadiness`], a [`FakeClock`]) until
//! it finishes — which is how the conformance, determinism and load
//! tests drive the server without sockets.
//!
//! The pool runs one [`EventLoop`] per worker thread: accepted sockets
//! are switched to non-blocking mode and distributed round-robin, each
//! worker multiplexes its share with `poll(2)` readiness (a blocked or
//! slow connection never pins the thread), and a per-worker wake pipe
//! lets the acceptor interrupt a sleeping poll when new work arrives.
//! Admission control happens before the queue: past
//! [`ServerConfig::max_conns`] in-flight connections the acceptor sheds
//! with a canned `503 Retry-After` instead of queueing unboundedly —
//! written while the socket is still in blocking mode (bounded by a
//! short write timeout), so the 503 actually reaches the peer under
//! the very overload that triggers it. A failing `accept` (say `EMFILE`
//! once `--max-conns` outgrows the descriptor limit) pauses the
//! acceptor briefly instead of spinning on the error.
//!
//! Shutdown is graceful: the drain flag stops keep-alive after the
//! in-flight request, queued connections are still served, quiet
//! keep-alive peers are closed immediately instead of waiting out
//! their idle timeout, and every thread is joined.

use crate::event::{ConnPolicy, EventLoop, FakeClock, FakeReadiness, PollReadiness, SysClock};
use crate::router::{Response, ServeState};
use std::io::{IoSlice, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// A bidirectional byte stream the server can answer on. Blanket-implemented
/// for every `Read + Write + Send` type ([`TcpStream`], [`MemConn`], ...).
pub trait Connection: Read + Write + Send {}

impl<T: Read + Write + Send> Connection for T {}

/// How long an event-loop worker sleeps in `poll(2)` with no readiness:
/// the fallback intake latency when the wake pipe is unavailable.
const WORKER_TICK: Duration = Duration::from_millis(25);

/// Write-timeout bound on the acceptor's blocking shed write: a shed
/// peer that refuses to read its `503` cannot hold the accept loop for
/// longer than this.
const SHED_WRITE_TIMEOUT: Duration = Duration::from_millis(100);

type BoxConn = Box<dyn Connection>;
type Job = (BoxConn, Option<i32>);

/// A fixed set of event-loop workers, each multiplexing its share of
/// connections with readiness polling.
pub struct Pool {
    state: Arc<ServeState>,
    senders: Option<Vec<Sender<Job>>>,
    wakers: Vec<Option<std::io::PipeWriter>>,
    workers: Vec<JoinHandle<()>>,
    next: AtomicUsize,
    active: Arc<AtomicUsize>,
    max_conns: usize,
    draining: Arc<AtomicBool>,
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool")
            .field("workers", &self.workers.len())
            .field("active", &self.active.load(Ordering::SeqCst))
            .field("max_conns", &self.max_conns)
            .finish_non_exhaustive()
    }
}

impl Pool {
    /// Start `config.threads` event-loop workers (at least one)
    /// serving `state`, admitting at most `config.max_conns`
    /// connections (at least one) at a time.
    pub fn start(state: Arc<ServeState>, config: ServerConfig) -> Pool {
        let threads = config.threads.max(1);
        let draining = Arc::new(AtomicBool::new(false));
        let active = Arc::new(AtomicUsize::new(0));
        let mut senders = Vec::with_capacity(threads);
        let mut wakers = Vec::with_capacity(threads);
        let mut workers = Vec::with_capacity(threads);
        for i in 0..threads {
            let (tx, rx) = channel::<Job>();
            let (wake_reader, wake_writer) = match std::io::pipe() {
                Ok((r, w)) => (Some(r), Some(w)),
                Err(_) => (None, None), // WORKER_TICK bounds intake latency
            };
            senders.push(tx);
            wakers.push(wake_writer);
            let state = Arc::clone(&state);
            let draining = Arc::clone(&draining);
            let active = Arc::clone(&active);
            let policy = config.policy.clone();
            workers.push(
                std::thread::Builder::new()
                    .name(format!("govhost-serve-{i}"))
                    .spawn(move || worker_loop(state, rx, wake_reader, policy, draining, active))
                    .expect("spawn serve worker"),
            );
        }
        Pool {
            state,
            senders: Some(senders),
            wakers,
            workers,
            next: AtomicUsize::new(0),
            active,
            max_conns: config.max_conns.max(1),
            draining,
        }
    }

    /// Queue a connection (no descriptor: treated as always ready);
    /// `false` once the pool is shutting down.
    pub fn submit(&self, conn: BoxConn) -> bool {
        self.submit_with_fd(conn, None)
    }

    /// Whether a new submission would be shed right now.
    pub fn is_saturated(&self) -> bool {
        self.active.load(Ordering::SeqCst) >= self.max_conns
    }

    /// Write the canned, accounted `503 Retry-After` shed response to a
    /// connection that will not be served. Best effort — the peer may
    /// already be gone — but a transiently full non-blocking socket is
    /// retried briefly instead of truncating the 503 mid-header.
    pub fn shed(&self, conn: &mut dyn Write) {
        write_shed(conn, &self.state.shed());
    }

    /// Queue a connection together with its raw descriptor so the
    /// worker's readiness loop can poll it. Past
    /// [`ServerConfig::max_conns`] in-flight connections the submission
    /// is shed — answered directly with the canned `503 Retry-After`
    /// and counted in `/metrics` — which still returns `true`: the
    /// connection was handled, just not served. (The acceptor sheds
    /// before switching sockets non-blocking; this in-submit path is
    /// the backstop for the race between that check and the queue.)
    pub fn submit_with_fd(&self, mut conn: BoxConn, fd: Option<i32>) -> bool {
        let Some(senders) = &self.senders else { return false };
        if self.is_saturated() {
            self.shed(&mut *conn);
            return true;
        }
        self.active.fetch_add(1, Ordering::SeqCst);
        let slot = self.next.fetch_add(1, Ordering::SeqCst) % senders.len();
        if senders[slot].send((conn, fd)).is_err() {
            self.active.fetch_sub(1, Ordering::SeqCst);
            return false;
        }
        if let Some(mut writer) = self.wakers[slot].as_ref() {
            let _ = writer.write(&[1u8]); // `impl Write for &PipeWriter`
        }
        true
    }

    /// Connections currently queued or being served.
    pub fn active_conns(&self) -> usize {
        self.active.load(Ordering::SeqCst)
    }

    /// Flip the drain flag: keep-alive loops close after their current
    /// request. Already-queued connections are still served.
    pub fn begin_drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
    }

    /// Drain and join every worker (also what `Drop` does).
    pub fn shutdown(self) {
        drop(self);
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.begin_drain();
        self.senders = None; // close the queues: workers exit once drained
        for mut writer in self.wakers.iter().flatten() {
            let _ = writer.write(&[1u8]); // interrupt sleeping polls
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// Write every segment of a shed `response`, tolerating partial writes
/// and retrying a transiently full socket a handful of times (1 ms
/// apart) — under overload, a bare connection close where the client
/// expected `503 Retry-After` would defeat the point of shedding. Any
/// persistent error gives up: the peer is gone or not reading.
fn write_shed(conn: &mut dyn Write, response: &Response) {
    const WOULD_BLOCK_RETRIES: u32 = 20;
    let mut retries = 0u32;
    for seg in response.segments(false) {
        let mut buf = seg.as_slice();
        while !buf.is_empty() {
            match conn.write(buf) {
                Ok(0) => return,
                Ok(n) => buf = &buf[n..],
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        && retries < WOULD_BLOCK_RETRIES =>
                {
                    retries += 1;
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(_) => return,
            }
        }
    }
    let _ = conn.flush();
}

/// One event-loop worker: adopt submitted connections, spin
/// [`EventLoop::turn`]s, keep the shared in-flight count honest.
fn worker_loop(
    state: Arc<ServeState>,
    rx: Receiver<Job>,
    wake_reader: Option<std::io::PipeReader>,
    policy: ConnPolicy,
    draining: Arc<AtomicBool>,
    active: Arc<AtomicUsize>,
) {
    let mut el = EventLoop::new(
        state,
        Box::new(PollReadiness::new()),
        Arc::new(SysClock::new()),
        policy,
        Arc::clone(&draining),
    );
    let mut wake_reader = wake_reader;
    #[cfg(unix)]
    if let Some(reader) = &wake_reader {
        use std::os::fd::AsRawFd;
        el.set_wake_fd(Some(reader.as_raw_fd()));
    }
    #[cfg(not(unix))]
    {
        wake_reader = None; // no raw fd to poll; rely on WORKER_TICK
    }
    loop {
        if el.is_empty() {
            // Nothing to poll: block on the queue until work or close.
            match rx.recv() {
                Ok((conn, fd)) => el.register(conn, fd),
                Err(_) => return,
            }
        }
        while let Ok((conn, fd)) = rx.try_recv() {
            el.register(conn, fd);
        }
        let before = el.len();
        match el.turn(Some(WORKER_TICK)) {
            Ok(report) => {
                if report.woken {
                    if let Some(reader) = &mut wake_reader {
                        let mut sink = [0u8; 64];
                        let _ = reader.read(&mut sink);
                    }
                }
            }
            Err(_) => std::thread::sleep(WORKER_TICK), // poll failure: back off
        }
        if draining.load(Ordering::SeqCst) {
            el.close_idle_now();
        }
        let after = el.len();
        if before > after {
            active.fetch_sub(before - after, Ordering::SeqCst);
        }
    }
}

/// Configuration for [`Server::bind`] and [`Pool::start`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads ([`crate::resolve_serve_threads`] by default).
    pub threads: usize,
    /// Most in-flight connections (at least one; 0 admits one) before
    /// the acceptor sheds with `503 Retry-After`.
    pub max_conns: usize,
    /// Per-connection serving policy: parser limits, keep-alive cap,
    /// idle timeout, backpressure bound.
    pub policy: ConnPolicy,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            threads: crate::resolve_serve_threads(),
            max_conns: 1024,
            policy: ConnPolicy::default(),
        }
    }
}

/// The pause before the acceptor retries after `accept` failed with
/// `err`, if any. An interrupted call or a peer that aborted before
/// being accepted is retried at once; anything else — `EMFILE` and its
/// kin persist until a descriptor frees — waits one [`WORKER_TICK`]
/// instead of spinning a core on the error.
fn accept_backoff(err: &std::io::Error) -> Option<Duration> {
    match err.kind() {
        std::io::ErrorKind::Interrupted | std::io::ErrorKind::ConnectionAborted => None,
        _ => Some(WORKER_TICK),
    }
}

/// A TCP acceptor feeding the event-loop worker pool.
#[derive(Debug)]
pub struct Server {
    local: SocketAddr,
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
    pool: Option<Arc<Pool>>,
}

impl Server {
    /// Bind `addr` and start accepting. The returned server runs in the
    /// background until [`Server::shutdown`] (or drop).
    pub fn bind<A: ToSocketAddrs>(
        state: Arc<ServeState>,
        addr: A,
        config: ServerConfig,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let pool = Arc::new(Pool::start(state, config));
        let stop = Arc::new(AtomicBool::new(false));
        let acceptor = {
            let stop = Arc::clone(&stop);
            let pool = Arc::clone(&pool);
            std::thread::Builder::new()
                .name("govhost-serve-accept".to_string())
                .spawn(move || {
                    for stream in listener.incoming() {
                        if stop.load(Ordering::SeqCst) {
                            break;
                        }
                        let mut stream = match stream {
                            Ok(stream) => stream,
                            Err(err) => {
                                if let Some(pause) = accept_backoff(&err) {
                                    std::thread::sleep(pause);
                                }
                                continue;
                            }
                        };
                        let _ = stream.set_nodelay(true);
                        if pool.is_saturated() {
                            // Shed while the socket still blocks, so
                            // the 503 is not truncated by WouldBlock on
                            // a full buffer — the exact condition
                            // shedding exists for. The write timeout
                            // bounds a peer that never reads.
                            let _ = stream.set_write_timeout(Some(SHED_WRITE_TIMEOUT));
                            pool.shed(&mut stream);
                            continue;
                        }
                        // The readiness loop owns scheduling; the
                        // socket itself must never block a worker.
                        if stream.set_nonblocking(true).is_err() {
                            continue;
                        }
                        #[cfg(unix)]
                        let fd = {
                            use std::os::fd::AsRawFd;
                            let fd = stream.as_raw_fd();
                            crate::event::enable_tcp_keepalive(fd);
                            Some(fd)
                        };
                        #[cfg(not(unix))]
                        let fd = None;
                        if !pool.submit_with_fd(Box::new(stream), fd) {
                            break;
                        }
                    }
                })
                .expect("spawn acceptor")
        };
        Ok(Server { local, stop, acceptor: Some(acceptor), pool: Some(pool) })
    }

    /// The bound address (useful after binding port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local
    }

    /// Graceful shutdown: stop accepting, drain in-flight and queued
    /// connections, join every thread (also what `Drop` does).
    pub fn shutdown(self) {
        drop(self);
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(pool) = &self.pool {
            pool.begin_drain();
        }
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.local);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        self.pool = None; // Pool::drop drains the queues and joins workers
    }
}

/// An in-process [`Connection`]: a scripted input buffer plus a
/// captured output buffer, with an optional completion channel for
/// driving the real [`Pool`] without sockets.
#[derive(Debug)]
pub struct MemConn {
    input: std::io::Cursor<Vec<u8>>,
    output: Vec<u8>,
    done: Option<Sender<Vec<u8>>>,
}

impl MemConn {
    /// A connection that will replay `input` and record the response
    /// bytes (read them back with [`MemConn::output`]).
    pub fn new(input: impl Into<Vec<u8>>) -> MemConn {
        MemConn { input: std::io::Cursor::new(input.into()), output: Vec::new(), done: None }
    }

    /// Like [`MemConn::new`], plus a receiver that yields the response
    /// bytes when the connection is dropped — i.e. when a pool worker
    /// finishes serving it.
    pub fn scripted(input: impl Into<Vec<u8>>) -> (MemConn, Receiver<Vec<u8>>) {
        let (tx, rx) = channel();
        let mut conn = MemConn::new(input);
        conn.done = Some(tx);
        (conn, rx)
    }

    /// The bytes written by the server so far.
    pub fn output(&self) -> &[u8] {
        &self.output
    }
}

impl Read for MemConn {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.input.read(buf)
    }
}

impl Write for MemConn {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.output.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl Drop for MemConn {
    fn drop(&mut self) {
        if let Some(tx) = self.done.take() {
            let _ = tx.send(std::mem::take(&mut self.output));
        }
    }
}

/// A connection lent to an [`EventLoop`], which owns what it serves:
/// the lender keeps the other handle, watches the count of bytes that
/// crossed it, and takes the transport back once the loop has dropped
/// its own.
struct Lent<C>(Arc<Mutex<(C, usize)>>);

impl<C> Lent<C> {
    /// Run one transfer on the transport and count the bytes it moved.
    fn count(&self, io: impl FnOnce(&mut C) -> std::io::Result<usize>) -> std::io::Result<usize> {
        let mut lent = self.0.lock().expect("lent connection");
        let n = io(&mut lent.0)?;
        lent.1 += n;
        Ok(n)
    }
}

impl<C: Read> Read for Lent<C> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.count(|conn| conn.read(buf))
    }
}

impl<C: Write> Write for Lent<C> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.count(|conn| conn.write(buf))
    }

    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
        self.count(|conn| conn.write_vectored(bufs))
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.0.lock().expect("lent connection").0.flush()
    }
}

/// How many turns in a row may move no byte before [`serve_in_memory`]
/// gives up on its connection: with readiness always granted and the
/// clock frozen, nothing but the transport can move the loop on.
const STALLED_TURNS: usize = 16;

/// Serve one in-process connection to completion on the calling thread
/// and hand the transport back: a fresh [`EventLoop`] over `state`
/// under `policy` — always-ready [`FakeReadiness`], a [`FakeClock`]
/// that never advances, no drain — turns until the connection
/// finishes. The transport has to end the exchange itself, by EOF (as
/// [`MemConn`] does) or with a request that closes.
///
/// # Panics
///
/// With `event loop did not converge` once the loop has turned 16
/// times in a row without a byte crossing the transport (one answering
/// `WouldBlock`, say, or a loop bug): such a connection would otherwise
/// never finish.
pub fn serve_in_memory<C: Connection + 'static>(
    state: &Arc<ServeState>,
    policy: &ConnPolicy,
    conn: C,
) -> C {
    let lent = Arc::new(Mutex::new((conn, 0)));
    let mut el = EventLoop::new(
        Arc::clone(state),
        Box::new(FakeReadiness::always()),
        Arc::new(FakeClock::new()),
        policy.clone(),
        Arc::new(AtomicBool::new(false)),
    );
    el.register(Box::new(Lent(Arc::clone(&lent))), None);
    let (mut moved, mut stalled) = (0, 0);
    while !el.is_empty() {
        el.turn(None).expect("always-ready readiness cannot fail");
        let now = lent.lock().expect("lent connection").1;
        stalled = if now == moved { stalled + 1 } else { 0 };
        moved = now;
        assert!(stalled < STALLED_TURNS, "event loop did not converge");
    }
    drop(el);
    let lent = Arc::try_unwrap(lent).ok().expect("the finished loop released the connection");
    lent.into_inner().expect("lent connection").0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::DEFAULT_RESULT_CACHE;
    use govhost_core::prelude::*;
    use govhost_obs::TimeMode;
    use govhost_worldgen::prelude::*;

    fn state() -> Arc<ServeState> {
        let world = World::generate(&GenParams::tiny());
        let dataset = GovDataset::build(&world, &BuildOptions::default());
        Arc::new(ServeState::with_config(&dataset, TimeMode::Deterministic, DEFAULT_RESULT_CACHE))
    }

    fn roundtrip(state: &Arc<ServeState>, input: &[u8]) -> String {
        let conn = serve_in_memory(state, &ConnPolicy::default(), MemConn::new(input));
        String::from_utf8_lossy(conn.output()).into_owned()
    }

    fn config(threads: usize) -> ServerConfig {
        ServerConfig { threads, ..ServerConfig::default() }
    }

    #[test]
    fn keep_alive_pipelining_answers_in_order() {
        let state = state();
        let out = roundtrip(
            &state,
            b"GET /healthz HTTP/1.1\r\n\r\nGET /hhi HTTP/1.1\r\nConnection: close\r\n\r\n",
        );
        assert_eq!(out.matches("HTTP/1.1 200 OK").count(), 2);
        let first = out.find("Connection: keep-alive").unwrap();
        let second = out.find("Connection: close").unwrap();
        assert!(first < second);
    }

    #[test]
    fn truncated_request_is_answered_400_on_eof() {
        let state = state();
        let out = roundtrip(&state, b"GET /hhi HTTP/1.1\r\nHost");
        assert!(out.starts_with("HTTP/1.1 400 Bad Request"), "{out}");
        assert!(out.contains("truncated request"));
    }

    #[test]
    fn pool_serves_queued_connections_through_shutdown() {
        let pool = Pool::start(state(), config(2));
        let receivers: Vec<_> = (0..8)
            .map(|_| {
                let (conn, rx) = MemConn::scripted(&b"GET /countries HTTP/1.1\r\n\r\n"[..]);
                assert!(pool.submit(Box::new(conn)));
                rx
            })
            .collect();
        pool.shutdown(); // drains the queue before joining
        for rx in receivers {
            let out = rx.recv().expect("connection was served");
            assert!(out.starts_with(b"HTTP/1.1 200 OK"));
        }
    }

    #[test]
    fn draining_pool_closes_keep_alive_after_inflight_request() {
        let pool = Pool::start(state(), config(1));
        pool.begin_drain();
        let (conn, rx) = MemConn::scripted(&b"GET /healthz HTTP/1.1\r\n\r\n"[..]);
        assert!(pool.submit(Box::new(conn)));
        let out = String::from_utf8(rx.recv().unwrap()).unwrap();
        assert!(out.contains("Connection: close"), "drain closes keep-alive: {out}");
        pool.shutdown();
    }

    #[test]
    fn saturated_pool_sheds_with_503_retry_after() {
        let state = state();
        let pool = Pool::start(Arc::clone(&state), ServerConfig { max_conns: 1, ..config(1) });
        // Artificially saturate: claim the only slot without a worker
        // ever seeing it, then submit a real connection.
        pool.active.fetch_add(1, Ordering::SeqCst);
        let (conn, rx) = MemConn::scripted(&b"GET /healthz HTTP/1.1\r\n\r\n"[..]);
        assert!(pool.submit(Box::new(conn)), "shed connections are handled");
        let out = String::from_utf8(rx.recv().unwrap()).unwrap();
        assert!(out.starts_with("HTTP/1.1 503 Service Unavailable"), "{out}");
        assert!(out.contains("Retry-After: 1"), "{out}");
        assert!(out.contains("Connection: close"), "{out}");
        assert_eq!(state.shed_count(), 1);
        pool.active.fetch_sub(1, Ordering::SeqCst);
        pool.shutdown();
    }

    #[test]
    fn zero_max_conns_still_admits_one_connection() {
        let pool = Pool::start(state(), ServerConfig { max_conns: 0, ..config(1) });
        let (conn, rx) = MemConn::scripted(&b"GET /healthz HTTP/1.1\r\n\r\n"[..]);
        assert!(pool.submit(Box::new(conn)));
        assert!(rx.recv().unwrap().starts_with(b"HTTP/1.1 200 OK"));
        pool.shutdown();
    }

    #[test]
    fn pool_tracks_active_connections_back_to_zero() {
        let pool = Pool::start(state(), config(2));
        let receivers: Vec<_> = (0..4)
            .map(|_| {
                let (conn, rx) = MemConn::scripted(&b"GET /hhi HTTP/1.1\r\n\r\n"[..]);
                assert!(pool.submit(Box::new(conn)));
                rx
            })
            .collect();
        for rx in receivers {
            let _ = rx.recv().expect("served");
        }
        // Workers decrement after reaping; give the loops a beat.
        for _ in 0..200 {
            if pool.active_conns() == 0 {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(pool.active_conns(), 0);
        pool.shutdown();
    }

    #[test]
    fn accept_errors_back_off_unless_retrying_at_once_is_right() {
        use std::io::{Error, ErrorKind};
        // EMFILE: the process is out of descriptors until one frees.
        assert_eq!(accept_backoff(&Error::from_raw_os_error(24)), Some(WORKER_TICK));
        assert_eq!(accept_backoff(&Error::from(ErrorKind::OutOfMemory)), Some(WORKER_TICK));
        assert_eq!(accept_backoff(&Error::from(ErrorKind::Interrupted)), None);
        assert_eq!(accept_backoff(&Error::from(ErrorKind::ConnectionAborted)), None);
    }

    #[test]
    #[cfg(unix)]
    #[should_panic(expected = "event loop did not converge")]
    fn a_connection_that_never_moves_a_byte_fails_instead_of_hanging() {
        // Non-blocking, with the peer kept open: every read is WouldBlock.
        let (conn, _peer) = std::os::unix::net::UnixStream::pair().unwrap();
        conn.set_nonblocking(true).unwrap();
        serve_in_memory(&state(), &ConnPolicy::default(), conn);
    }
}
