//! The non-blocking readiness loop: N event-loop workers replace
//! one-thread-per-connection.
//!
//! Three small abstractions keep the loop deterministic and
//! unit-testable without sockets:
//!
//! - [`Clock`] — monotonic nanoseconds. [`SysClock`] wraps
//!   [`Instant`]; [`FakeClock`] is a hand-advanced counter, so idle
//!   eviction can be tested to the nanosecond.
//! - [`Readiness`] — "which of these sources can make progress?".
//!   [`PollReadiness`] is the production implementation, a thin shim
//!   over `poll(2)` (declared directly against the libc that `std`
//!   already links — the workspace stays zero-dependency). Sources
//!   without a file descriptor (in-memory test connections) are always
//!   ready. [`FakeReadiness`] replays a script or reports everything
//!   ready, so scheduling is test-controlled.
//! - `OutQueue` — the per-connection outbound segment queue. Response
//!   slabs enter as shared [`Bytes`] and leave through vectored writes;
//!   nothing is copied between the [`QueryIndex`](crate::QueryIndex)
//!   and the socket.
//!
//! The loop itself ([`EventLoop`]) owns a set of connections and
//! advances them one [`EventLoop::turn`] at a time: wait for readiness,
//! pump readable connections through the incremental parser and the
//! router, flush writable ones, evict idle ones. Fairness is
//! structural: reads are capped per connection per turn, and a
//! connection whose peer reads slowly (its outbound queue is full past
//! [`ConnPolicy::max_pending_out`]) simply stops being polled for
//! reads — it cannot stall any other connection's responses.
//!
//! "Activity" for the idle deadline means progress in *either*
//! direction: reads refresh it, and so does every successful write, so
//! a peer steadily draining a large response is never mistaken for an
//! idle one. The same window doubles as a **drain deadline** for
//! closing connections — a peer that takes its final response and then
//! never reads a byte is abandoned after one idle window instead of
//! pinning its slot (and the pool's shared in-flight count) forever.

use crate::http::{HttpError, RequestParser};
use crate::router::{Bytes, ServeState};
use crate::server::Connection;
use std::collections::VecDeque;
use std::io::{IoSlice, Read};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Most bytes read from one connection in one turn — the fairness cap:
/// a firehosing client cannot monopolise a worker's turn.
const READ_BURST: usize = 64 * 1024;

/// Per-connection serving policy of the [`EventLoop`], set through
/// [`ServerConfig::policy`](crate::ServerConfig::policy).
#[derive(Debug, Clone)]
pub struct ConnPolicy {
    /// Parser limits (per request).
    pub limits: crate::http::Limits,
    /// Most requests served on one keep-alive connection; the final
    /// response closes with `Connection: close`.
    pub max_requests_per_conn: usize,
    /// A connection with no byte activity (in either direction) for
    /// this long is evicted: a half-received request is answered `400`
    /// first, a quiet keep-alive connection is closed silently, and a
    /// closing connection whose peer stopped draining its final
    /// response is abandoned.
    pub idle_timeout: Duration,
    /// Backpressure bound: once this many response bytes are queued on
    /// a connection, the loop stops reading (and parsing) from it until
    /// the peer drains some output.
    pub max_pending_out: usize,
}

impl Default for ConnPolicy {
    fn default() -> ConnPolicy {
        ConnPolicy {
            limits: crate::http::Limits::default(),
            max_requests_per_conn: 1024,
            idle_timeout: Duration::from_secs(5),
            max_pending_out: 256 * 1024,
        }
    }
}

/// A monotonic nanosecond clock. The event loop never reads time
/// directly — it asks the clock, so tests can own time.
pub trait Clock: Send + Sync {
    /// Nanoseconds since an arbitrary fixed origin.
    fn now_ns(&self) -> u64;
}

/// The production clock: [`Instant`] against a process-start origin.
#[derive(Debug)]
pub struct SysClock {
    origin: Instant,
}

impl SysClock {
    /// A clock anchored now.
    pub fn new() -> SysClock {
        SysClock { origin: Instant::now() }
    }
}

impl Default for SysClock {
    fn default() -> SysClock {
        SysClock::new()
    }
}

impl Clock for SysClock {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

/// A hand-advanced test clock; share one `Arc<FakeClock>` between the
/// test and the loop.
#[derive(Debug, Default)]
pub struct FakeClock {
    ns: AtomicU64,
}

impl FakeClock {
    /// A clock at zero.
    pub fn new() -> FakeClock {
        FakeClock::default()
    }

    /// Advance by `delta`.
    pub fn advance(&self, delta: Duration) {
        self.ns.fetch_add(delta.as_nanos() as u64, Ordering::SeqCst);
    }
}

impl Clock for FakeClock {
    fn now_ns(&self) -> u64 {
        self.ns.load(Ordering::SeqCst)
    }
}

/// One source the loop wants readiness for. `fd: None` marks an
/// in-memory connection, which every [`Readiness`] implementation must
/// treat as immediately ready for its declared interests.
#[derive(Debug, Clone, Copy)]
pub struct PollSource {
    /// The raw file descriptor, when the transport has one.
    pub fd: Option<i32>,
    /// Whether the loop wants to read from this source.
    pub want_read: bool,
    /// Whether the loop has queued output to write.
    pub want_write: bool,
}

/// One readiness verdict, indexed into the `sources` slice passed to
/// [`Readiness::wait`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadyEvent {
    /// Index into the waited-on sources.
    pub index: usize,
    /// The source can be read without blocking.
    pub readable: bool,
    /// The source can be written without blocking.
    pub writable: bool,
    /// The peer hung up or the descriptor errored; reading will
    /// observe EOF or the error.
    pub hangup: bool,
}

/// The waiting primitive behind the event loop. Implementations decide
/// *when* sources are ready; the loop decides *what to do* about it —
/// which is exactly the seam that makes the loop testable with a
/// deterministic fake.
pub trait Readiness: Send {
    /// Block until at least one source is ready or `timeout` elapses
    /// (`None` = wait as long as the implementation likes). Returning
    /// an empty vec is a timeout; `ErrorKind::Interrupted` is treated
    /// as one by the caller.
    fn wait(
        &mut self,
        sources: &[PollSource],
        timeout: Option<Duration>,
    ) -> std::io::Result<Vec<ReadyEvent>>;
}

/// The `poll(2)` shim. Linux only needs a declaration against the libc
/// `std` already links; the struct layout is fixed ABI.
#[cfg(target_os = "linux")]
mod sys {
    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct PollFd {
        pub fd: i32,
        pub events: i16,
        pub revents: i16,
    }

    pub const POLLIN: i16 = 0x001;
    pub const POLLOUT: i16 = 0x004;
    pub const POLLERR: i16 = 0x008;
    pub const POLLHUP: i16 = 0x010;
    pub const POLLNVAL: i16 = 0x020;

    pub const SOL_SOCKET: i32 = 1;
    pub const SO_KEEPALIVE: i32 = 9;

    extern "C" {
        pub fn poll(fds: *mut PollFd, nfds: core::ffi::c_ulong, timeout: i32) -> i32;
        pub fn setsockopt(
            fd: i32,
            level: i32,
            optname: i32,
            optval: *const core::ffi::c_void,
            optlen: u32,
        ) -> i32;
    }
}

/// Best-effort `SO_KEEPALIVE` on an accepted socket: a peer that
/// vanished without FIN/RST is eventually noticed by the kernel's
/// probes instead of holding the descriptor open indefinitely. The
/// drain deadline in [`EventLoop::turn`] already bounds how long such a
/// peer can pin its slot; this lets the kernel reclaim the socket too.
pub(crate) fn enable_tcp_keepalive(fd: i32) {
    #[cfg(target_os = "linux")]
    unsafe {
        let on: core::ffi::c_int = 1;
        let _ = sys::setsockopt(
            fd,
            sys::SOL_SOCKET,
            sys::SO_KEEPALIVE,
            (&on as *const core::ffi::c_int).cast(),
            core::mem::size_of::<core::ffi::c_int>() as u32,
        );
    }
    #[cfg(not(target_os = "linux"))]
    let _ = fd;
}

/// Production readiness over `poll(2)`.
///
/// - Sources without a descriptor are reported ready immediately (and
///   force a zero timeout on the syscall, so mixed sets still make
///   progress).
/// - On non-Linux targets there is no shim; descriptor sources are
///   assumed ready and a short sleep bounds the resulting spin. The
///   workspace's tests and benches run entirely over in-memory
///   connections, so only real-socket serving on exotic hosts takes
///   the degraded path.
#[derive(Debug, Default)]
pub struct PollReadiness;

impl PollReadiness {
    /// A fresh (stateless) instance.
    pub fn new() -> PollReadiness {
        PollReadiness
    }
}

impl Readiness for PollReadiness {
    fn wait(
        &mut self,
        sources: &[PollSource],
        timeout: Option<Duration>,
    ) -> std::io::Result<Vec<ReadyEvent>> {
        let mut ready = Vec::new();
        let mut fd_sources: Vec<(usize, i32, bool, bool)> = Vec::new();
        for (index, s) in sources.iter().enumerate() {
            match s.fd {
                None if s.want_read || s.want_write => ready.push(ReadyEvent {
                    index,
                    readable: s.want_read,
                    writable: s.want_write,
                    hangup: false,
                }),
                None => {}
                Some(fd) => fd_sources.push((index, fd, s.want_read, s.want_write)),
            }
        }
        if fd_sources.is_empty() {
            if ready.is_empty() {
                // Nothing can make progress; honour (a bounded slice
                // of) the timeout instead of spinning.
                std::thread::sleep(
                    timeout.unwrap_or(Duration::from_millis(25)).min(Duration::from_millis(25)),
                );
            }
            return Ok(ready);
        }
        #[cfg(target_os = "linux")]
        {
            let mut fds: Vec<sys::PollFd> = fd_sources
                .iter()
                .map(|&(_, fd, r, w)| sys::PollFd {
                    fd,
                    events: if r { sys::POLLIN } else { 0 } | if w { sys::POLLOUT } else { 0 },
                    revents: 0,
                })
                .collect();
            let timeout_ms: i32 = if !ready.is_empty() {
                0 // fd-less sources are already ready; just sample the fds
            } else {
                match timeout {
                    None => -1,
                    Some(d) => {
                        let ms = d.as_nanos().div_ceil(1_000_000);
                        ms.min(i32::MAX as u128) as i32
                    }
                }
            };
            let rc = unsafe {
                sys::poll(fds.as_mut_ptr(), fds.len() as core::ffi::c_ulong, timeout_ms)
            };
            if rc < 0 {
                return Err(std::io::Error::last_os_error());
            }
            for (slot, fd) in fd_sources.iter().zip(&fds) {
                let revents = fd.revents;
                if revents == 0 {
                    continue;
                }
                ready.push(ReadyEvent {
                    index: slot.0,
                    readable: revents & sys::POLLIN != 0,
                    writable: revents & sys::POLLOUT != 0,
                    hangup: revents & (sys::POLLERR | sys::POLLHUP | sys::POLLNVAL) != 0,
                });
            }
            ready.sort_by_key(|e| e.index);
            Ok(ready)
        }
        #[cfg(not(target_os = "linux"))]
        {
            // Degraded portable fallback: assume descriptor sources are
            // ready; WouldBlock on the actual read/write corrects us.
            for &(index, _, r, w) in &fd_sources {
                ready.push(ReadyEvent { index, readable: r, writable: w, hangup: false });
            }
            ready.sort_by_key(|e| e.index);
            std::thread::sleep(Duration::from_millis(1));
            Ok(ready)
        }
    }
}

/// Deterministic readiness for tests.
#[derive(Debug)]
pub enum FakeReadiness {
    /// Report every source ready for its declared interests.
    AlwaysReady,
    /// Pop one scripted step per [`Readiness::wait`] call; an exhausted
    /// script reports nothing ready (a timeout, from the loop's view).
    Script(VecDeque<Vec<ReadyEvent>>),
}

impl FakeReadiness {
    /// Everything is always ready.
    pub fn always() -> FakeReadiness {
        FakeReadiness::AlwaysReady
    }

    /// Replay `steps`, one per wait call.
    pub fn script(steps: Vec<Vec<ReadyEvent>>) -> FakeReadiness {
        FakeReadiness::Script(steps.into())
    }
}

impl Readiness for FakeReadiness {
    fn wait(
        &mut self,
        sources: &[PollSource],
        _timeout: Option<Duration>,
    ) -> std::io::Result<Vec<ReadyEvent>> {
        match self {
            FakeReadiness::AlwaysReady => Ok(sources
                .iter()
                .enumerate()
                .filter(|(_, s)| s.want_read || s.want_write)
                .map(|(index, s)| ReadyEvent {
                    index,
                    readable: s.want_read,
                    writable: s.want_write,
                    hangup: false,
                })
                .collect()),
            FakeReadiness::Script(steps) => Ok(steps.pop_front().unwrap_or_default()),
        }
    }
}

/// The outbound segment queue of one connection: shared slabs in,
/// vectored writes out, a running byte count for backpressure.
#[derive(Debug, Default)]
pub(crate) struct OutQueue {
    segs: VecDeque<Bytes>,
    /// Bytes of the front segment already written.
    offset: usize,
    bytes: usize,
}

impl OutQueue {
    pub(crate) fn push(&mut self, segs: [Bytes; 3]) {
        for seg in segs {
            if !seg.is_empty() {
                self.bytes += seg.len();
                self.segs.push_back(seg);
            }
        }
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.segs.is_empty()
    }

    pub(crate) fn byte_len(&self) -> usize {
        self.bytes
    }

    /// Write as much as the transport accepts right now, vectored over
    /// up to eight segments per call, returning how many bytes moved.
    /// `WouldBlock` returns `Ok` with the remainder queued; other
    /// errors surface.
    pub(crate) fn flush<C: Connection + ?Sized>(&mut self, conn: &mut C) -> std::io::Result<usize> {
        let mut written = 0usize;
        while !self.segs.is_empty() {
            let slices: Vec<IoSlice<'_>> = self
                .segs
                .iter()
                .take(8)
                .enumerate()
                .map(|(i, seg)| {
                    let raw = seg.as_slice();
                    IoSlice::new(if i == 0 { &raw[self.offset..] } else { raw })
                })
                .collect();
            match conn.write_vectored(&slices) {
                Ok(0) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::WriteZero,
                        "connection accepted no bytes",
                    ))
                }
                Ok(n) => {
                    self.consume(n);
                    written += n;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(written),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(written)
    }

    fn consume(&mut self, mut n: usize) {
        self.bytes = self.bytes.saturating_sub(n);
        while n > 0 {
            let front_remaining = self.segs[0].len() - self.offset;
            if n >= front_remaining {
                n -= front_remaining;
                self.segs.pop_front();
                self.offset = 0;
            } else {
                self.offset += n;
                n = 0;
            }
        }
    }
}

/// One connection owned by the loop.
struct ConnSlot {
    conn: Box<dyn Connection>,
    fd: Option<i32>,
    parser: RequestParser,
    out: OutQueue,
    served: usize,
    last_activity_ns: u64,
    /// No further requests will be served; close once `out` drains.
    closing: bool,
    /// The read side saw EOF (or a fatal error).
    read_closed: bool,
    /// The transport errored; drop without flushing.
    io_error: bool,
}

impl ConnSlot {
    fn finished(&self) -> bool {
        self.io_error || (self.closing && self.out.is_empty())
    }

    fn flush(&mut self, now: u64) {
        if self.io_error || self.out.is_empty() {
            return;
        }
        match self.out.flush(&mut *self.conn) {
            Ok(written) => {
                if written > 0 {
                    // Write progress is activity: a peer steadily
                    // draining a large response is alive, not idle.
                    self.last_activity_ns = now;
                }
            }
            Err(_) => {
                // Nobody left to answer: the peer disconnected mid-write.
                self.io_error = true;
                self.closing = true;
            }
        }
    }
}

/// What one [`EventLoop::turn`] did.
#[derive(Debug, Clone, Copy, Default)]
pub struct TurnReport {
    /// Connection events handled this turn.
    pub events: usize,
    /// The wake descriptor fired (new work was submitted).
    pub woken: bool,
}

/// A single-threaded readiness-driven serving loop over a set of
/// [`Connection`]s. The worker [`Pool`](crate::Pool) runs one per
/// thread; tests run one directly with fakes.
pub struct EventLoop {
    state: Arc<ServeState>,
    readiness: Box<dyn Readiness>,
    clock: Arc<dyn Clock>,
    policy: ConnPolicy,
    draining: Arc<AtomicBool>,
    wake_fd: Option<i32>,
    conns: Vec<ConnSlot>,
}

impl std::fmt::Debug for EventLoop {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventLoop")
            .field("conns", &self.conns.len())
            .field("policy", &self.policy)
            .finish_non_exhaustive()
    }
}

impl EventLoop {
    /// A loop serving `state` under `policy`, waiting through
    /// `readiness`, reading time from `clock`, and winding down
    /// keep-alive when `draining` flips.
    pub fn new(
        state: Arc<ServeState>,
        readiness: Box<dyn Readiness>,
        clock: Arc<dyn Clock>,
        policy: ConnPolicy,
        draining: Arc<AtomicBool>,
    ) -> EventLoop {
        EventLoop { state, readiness, clock, policy, draining, wake_fd: None, conns: Vec::new() }
    }

    /// Also poll `fd` for readability; its events are reported as
    /// [`TurnReport::woken`] instead of being served (the worker drains
    /// its wake pipe and takes new connections off its queue).
    pub fn set_wake_fd(&mut self, fd: Option<i32>) {
        self.wake_fd = fd;
    }

    /// Adopt a connection. `fd` is its raw descriptor when the
    /// transport has one (`None` for in-memory connections, which are
    /// treated as always ready).
    pub fn register(&mut self, conn: Box<dyn Connection>, fd: Option<i32>) {
        let now = self.clock.now_ns();
        self.conns.push(ConnSlot {
            conn,
            fd,
            parser: RequestParser::new(self.policy.limits.clone()),
            out: OutQueue::default(),
            served: 0,
            last_activity_ns: now,
            closing: false,
            read_closed: false,
            io_error: false,
        });
    }

    /// Active connections.
    pub fn len(&self) -> usize {
        self.conns.len()
    }

    /// Whether no connections are registered.
    pub fn is_empty(&self) -> bool {
        self.conns.is_empty()
    }

    /// One scheduling turn: evict idle connections, wait for readiness
    /// (at most `max_wait`, sooner if an idle deadline is nearer), pump
    /// every ready connection, flush pending output, reap finished
    /// connections.
    pub fn turn(&mut self, max_wait: Option<Duration>) -> std::io::Result<TurnReport> {
        let now = self.clock.now_ns();
        self.evict_idle(now);

        let mut sources: Vec<PollSource> = self
            .conns
            .iter()
            .map(|c| PollSource {
                fd: c.fd,
                want_read: !c.closing
                    && !c.read_closed
                    && c.out.byte_len() < self.policy.max_pending_out,
                want_write: !c.out.is_empty(),
            })
            .collect();
        let wake_index = sources.len();
        if let Some(fd) = self.wake_fd {
            sources.push(PollSource { fd: Some(fd), want_read: true, want_write: false });
        }

        let timeout = self.next_deadline(now, max_wait);
        let events = match self.readiness.wait(&sources, timeout) {
            Ok(events) => events,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => Vec::new(),
            Err(e) => return Err(e),
        };

        let now = self.clock.now_ns();
        let mut report = TurnReport::default();
        for event in &events {
            if event.index == wake_index {
                report.woken = true;
                continue;
            }
            let Some(slot) = self.conns.get_mut(event.index) else { continue };
            report.events += 1;
            if event.writable {
                slot.flush(now);
            }
            if event.readable || event.hangup {
                Self::pump(&self.state, &self.policy, &self.draining, slot, now);
            }
        }

        // Opportunistic pass: flush whatever the peers will take, then
        // serve any requests that were parked behind backpressure.
        for slot in &mut self.conns {
            slot.flush(now);
            if !slot.closing && slot.out.byte_len() < self.policy.max_pending_out {
                Self::drain_requests(&self.state, &self.policy, &self.draining, slot);
                slot.flush(now);
            }
        }
        let now = self.clock.now_ns();
        self.evict_idle(now);
        self.conns.retain(|c| !c.finished());
        Ok(report)
    }

    /// The poll timeout: the nearest idle (or closing-drain) deadline,
    /// capped by `max_wait`.
    fn next_deadline(&self, now: u64, max_wait: Option<Duration>) -> Option<Duration> {
        let idle_ns = u64::try_from(self.policy.idle_timeout.as_nanos()).unwrap_or(u64::MAX);
        let nearest = self
            .conns
            .iter()
            .filter(|c| !c.closing || !c.out.is_empty())
            .map(|c| c.last_activity_ns.saturating_add(idle_ns))
            .min()
            .map(|deadline| Duration::from_nanos(deadline.saturating_sub(now)));
        match (nearest, max_wait) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (Some(a), None) => Some(a),
            (None, b) => b,
        }
    }

    /// Read what the transport has (bounded by [`READ_BURST`]), feed
    /// the parser, serve complete requests, queue responses.
    fn pump(
        state: &ServeState,
        policy: &ConnPolicy,
        draining: &AtomicBool,
        slot: &mut ConnSlot,
        now: u64,
    ) {
        let mut chunk = [0u8; 4096];
        let mut read_bytes = 0usize;
        while !slot.closing
            && !slot.read_closed
            && read_bytes < READ_BURST
            && slot.out.byte_len() < policy.max_pending_out
        {
            match slot.conn.read(&mut chunk) {
                Ok(0) => slot.read_closed = true,
                Ok(n) => {
                    slot.parser.push(&chunk[..n]);
                    read_bytes += n;
                    slot.last_activity_ns = now;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    slot.io_error = true;
                    slot.closing = true;
                    return;
                }
            }
            Self::drain_requests(state, policy, draining, slot);
        }
        if slot.read_closed && !slot.closing {
            if slot.parser.has_partial() {
                let error = HttpError::BadRequest("truncated request");
                let response = state.respond(Err(&error));
                slot.out.push(response.segments(false));
            }
            slot.closing = true;
        }
    }

    /// Serve every complete buffered request, stopping at the
    /// backpressure bound or the first close-worthy outcome.
    fn drain_requests(
        state: &ServeState,
        policy: &ConnPolicy,
        draining: &AtomicBool,
        slot: &mut ConnSlot,
    ) {
        while !slot.closing && slot.out.byte_len() < policy.max_pending_out {
            match slot.parser.next_request() {
                Ok(Some(request)) => {
                    slot.served += 1;
                    let response = state.respond(Ok(&request));
                    let keep = request.keep_alive()
                        && !draining.load(Ordering::SeqCst)
                        && slot.served < policy.max_requests_per_conn;
                    slot.out.push(response.segments(keep));
                    if !keep {
                        slot.closing = true;
                    }
                }
                Ok(None) => break,
                Err(error) => {
                    let response = state.respond(Err(&error));
                    slot.out.push(response.segments(false));
                    slot.closing = true;
                }
            }
        }
    }

    /// Drain helper: close every connection with nothing in flight (no
    /// half-received request, no queued output) so shutdown does not
    /// have to wait out the idle timeout of quiet keep-alive peers.
    pub fn close_idle_now(&mut self) {
        for slot in &mut self.conns {
            if !slot.parser.has_partial() && slot.out.is_empty() {
                slot.closing = true;
                slot.read_closed = true;
            }
        }
        self.conns.retain(|c| !c.finished());
    }

    /// Close connections whose idle deadline passed: half-received
    /// requests are answered `400 read timeout` first, quiet keep-alive
    /// connections close silently. Closing connections get the same
    /// window as a drain deadline — a peer that has not taken a byte of
    /// its final response for a whole idle window is abandoned, so a
    /// never-reading (or silently vanished) peer cannot pin its slot
    /// and the pool's shared in-flight count forever.
    fn evict_idle(&mut self, now: u64) {
        let idle_ns = u64::try_from(self.policy.idle_timeout.as_nanos()).unwrap_or(u64::MAX);
        for slot in &mut self.conns {
            if slot.io_error || now.saturating_sub(slot.last_activity_ns) < idle_ns {
                continue;
            }
            if slot.closing {
                slot.io_error = true;
                continue;
            }
            if slot.parser.has_partial() {
                let error = HttpError::BadRequest("read timeout");
                let response = self.state.respond(Err(&error));
                slot.out.push(response.segments(false));
            }
            slot.closing = true;
            slot.read_closed = true;
            // The close answer gets its own full window to drain.
            slot.last_activity_ns = now;
        }
        for slot in &mut self.conns {
            slot.flush(now);
        }
        self.conns.retain(|c| !c.finished());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::MemConn;
    use std::io::Write;
    use govhost_core::prelude::*;
    use govhost_obs::TimeMode;
    use govhost_worldgen::prelude::*;
    use std::sync::Mutex;

    fn state() -> Arc<ServeState> {
        let world = World::generate(&GenParams::tiny());
        let dataset = GovDataset::build(&world, &BuildOptions::default());
        Arc::new(ServeState::with_config(
            &dataset,
            TimeMode::Deterministic,
            crate::DEFAULT_RESULT_CACHE,
        ))
    }

    /// A transport with a script of read chunks (then `WouldBlock`, or
    /// EOF once `eof` is set) and a shared output capture.
    struct ScriptConn {
        chunks: VecDeque<Vec<u8>>,
        eof: bool,
        out: Arc<Mutex<Vec<u8>>>,
    }

    impl ScriptConn {
        fn new(chunks: Vec<&[u8]>, eof: bool) -> (ScriptConn, Arc<Mutex<Vec<u8>>>) {
            let out = Arc::new(Mutex::new(Vec::new()));
            let conn = ScriptConn {
                chunks: chunks.into_iter().map(|c| c.to_vec()).collect(),
                eof,
                out: Arc::clone(&out),
            };
            (conn, out)
        }
    }

    impl Read for ScriptConn {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            match self.chunks.pop_front() {
                Some(chunk) => {
                    let n = chunk.len().min(buf.len());
                    buf[..n].copy_from_slice(&chunk[..n]);
                    if n < chunk.len() {
                        self.chunks.push_front(chunk[n..].to_vec());
                    }
                    Ok(n)
                }
                None if self.eof => Ok(0),
                None => Err(std::io::ErrorKind::WouldBlock.into()),
            }
        }
    }

    impl Write for ScriptConn {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.out.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn evloop(readiness: FakeReadiness, clock: Arc<FakeClock>, policy: ConnPolicy) -> EventLoop {
        EventLoop::new(
            state(),
            Box::new(readiness),
            clock,
            policy,
            Arc::new(AtomicBool::new(false)),
        )
    }

    #[test]
    fn keep_alive_pipeline_is_served_and_closed_on_eof() {
        let clock = Arc::new(FakeClock::new());
        let mut el = evloop(FakeReadiness::always(), Arc::clone(&clock), ConnPolicy::default());
        let (conn, out) = ScriptConn::new(
            vec![b"GET /healthz HTTP/1.1\r\n\r\nGET /hhi HTTP/1.1\r\nConnection: close\r\n\r\n"],
            true,
        );
        el.register(Box::new(conn), None);
        while !el.is_empty() {
            el.turn(Some(Duration::from_millis(1))).unwrap();
        }
        let text = String::from_utf8(out.lock().unwrap().clone()).unwrap();
        assert_eq!(text.matches("HTTP/1.1 200 OK").count(), 2, "{text}");
        assert!(text.contains("Connection: keep-alive"), "{text}");
        assert!(text.contains("Connection: close"), "{text}");
    }

    #[test]
    fn idle_partial_request_is_answered_400_read_timeout() {
        let clock = Arc::new(FakeClock::new());
        let policy = ConnPolicy { idle_timeout: Duration::from_secs(1), ..ConnPolicy::default() };
        let mut el = evloop(FakeReadiness::always(), Arc::clone(&clock), policy);
        let (conn, out) = ScriptConn::new(vec![b"GET /hhi HTTP/1.1\r\nHos"], false);
        el.register(Box::new(conn), None);
        el.turn(Some(Duration::from_millis(1))).unwrap();
        assert_eq!(el.len(), 1, "half a request keeps the connection");
        clock.advance(Duration::from_secs(2));
        el.turn(Some(Duration::from_millis(1))).unwrap();
        assert!(el.is_empty(), "idle deadline evicts");
        let text = String::from_utf8(out.lock().unwrap().clone()).unwrap();
        assert!(text.starts_with("HTTP/1.1 400 Bad Request"), "{text}");
        assert!(text.contains("read timeout"), "{text}");
        assert!(text.contains("Connection: close"), "{text}");
    }

    #[test]
    fn idle_quiet_keep_alive_connection_closes_silently() {
        let clock = Arc::new(FakeClock::new());
        let policy = ConnPolicy { idle_timeout: Duration::from_secs(1), ..ConnPolicy::default() };
        let mut el = evloop(FakeReadiness::always(), Arc::clone(&clock), policy);
        let (conn, out) = ScriptConn::new(vec![b"GET /healthz HTTP/1.1\r\n\r\n"], false);
        el.register(Box::new(conn), None);
        el.turn(Some(Duration::from_millis(1))).unwrap();
        assert_eq!(el.len(), 1, "keep-alive holds the connection open");
        clock.advance(Duration::from_secs(2));
        el.turn(Some(Duration::from_millis(1))).unwrap();
        assert!(el.is_empty());
        let text = String::from_utf8(out.lock().unwrap().clone()).unwrap();
        assert_eq!(text.matches("HTTP/1.1").count(), 1, "no 400 for a clean idle: {text}");
    }

    #[test]
    fn max_requests_per_conn_closes_the_pipeline_early() {
        let clock = Arc::new(FakeClock::new());
        let policy = ConnPolicy { max_requests_per_conn: 2, ..ConnPolicy::default() };
        let mut el = evloop(FakeReadiness::always(), Arc::clone(&clock), policy);
        let (conn, out) = ScriptConn::new(
            vec![b"GET /healthz HTTP/1.1\r\n\r\nGET /hhi HTTP/1.1\r\n\r\nGET /flows HTTP/1.1\r\n\r\n"],
            true,
        );
        el.register(Box::new(conn), None);
        while !el.is_empty() {
            el.turn(Some(Duration::from_millis(1))).unwrap();
        }
        let text = String::from_utf8(out.lock().unwrap().clone()).unwrap();
        assert_eq!(text.matches("HTTP/1.1 200 OK").count(), 2, "third request unserved: {text}");
        assert_eq!(text.matches("Connection: keep-alive").count(), 1, "{text}");
        assert_eq!(text.matches("Connection: close").count(), 1, "{text}");
    }

    #[test]
    fn scripted_readiness_defers_reads_until_ready() {
        let clock = Arc::new(FakeClock::new());
        let script = FakeReadiness::script(vec![
            vec![], // first turn: nothing ready, nothing read
            vec![ReadyEvent { index: 0, readable: true, writable: false, hangup: false }],
        ]);
        let mut el = evloop(script, Arc::clone(&clock), ConnPolicy::default());
        let (conn, out) = ScriptConn::new(
            vec![b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n"],
            true,
        );
        el.register(Box::new(conn), None);
        el.turn(Some(Duration::from_millis(1))).unwrap();
        assert!(out.lock().unwrap().is_empty(), "not ready yet: no bytes served");
        el.turn(Some(Duration::from_millis(1))).unwrap();
        let text = String::from_utf8(out.lock().unwrap().clone()).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK"), "{text}");
    }

    #[test]
    fn memconn_roundtrips_through_the_loop() {
        let clock = Arc::new(FakeClock::new());
        let mut el = evloop(FakeReadiness::always(), Arc::clone(&clock), ConnPolicy::default());
        let (conn, rx) = MemConn::scripted(&b"GET /countries HTTP/1.1\r\n\r\n"[..]);
        el.register(Box::new(conn), None);
        while !el.is_empty() {
            el.turn(Some(Duration::from_millis(1))).unwrap();
        }
        let out = rx.recv().expect("served and dropped");
        assert!(out.starts_with(b"HTTP/1.1 200 OK"));
    }

    /// A transport whose peer never reads: every write would block.
    struct NeverDrains {
        chunks: VecDeque<Vec<u8>>,
    }

    impl Read for NeverDrains {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            match self.chunks.pop_front() {
                Some(chunk) => {
                    let n = chunk.len().min(buf.len());
                    buf[..n].copy_from_slice(&chunk[..n]);
                    if n < chunk.len() {
                        self.chunks.push_front(chunk[n..].to_vec());
                    }
                    Ok(n)
                }
                None => Err(std::io::ErrorKind::WouldBlock.into()),
            }
        }
    }

    impl Write for NeverDrains {
        fn write(&mut self, _buf: &[u8]) -> std::io::Result<usize> {
            Err(std::io::ErrorKind::WouldBlock.into())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn stuck_closing_connection_is_reaped_at_the_drain_deadline() {
        let clock = Arc::new(FakeClock::new());
        let policy = ConnPolicy { idle_timeout: Duration::from_secs(1), ..ConnPolicy::default() };
        let mut el = evloop(FakeReadiness::always(), Arc::clone(&clock), policy);
        let conn = NeverDrains {
            chunks: [b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n".to_vec()].into(),
        };
        el.register(Box::new(conn), None);
        el.turn(Some(Duration::from_millis(1))).unwrap();
        assert_eq!(el.len(), 1, "response queued, peer yet to drain");
        clock.advance(Duration::from_millis(900));
        el.turn(Some(Duration::from_millis(1))).unwrap();
        assert_eq!(el.len(), 1, "still inside the drain window");
        clock.advance(Duration::from_secs(2));
        el.turn(Some(Duration::from_millis(1))).unwrap();
        assert!(el.is_empty(), "an undrained closing connection is abandoned");
    }

    /// A transport that drains slowly but steadily: every other write
    /// call accepts up to eight bytes, the rest would block.
    struct Drip {
        chunks: VecDeque<Vec<u8>>,
        out: Arc<Mutex<Vec<u8>>>,
        writes: usize,
    }

    impl Read for Drip {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            match self.chunks.pop_front() {
                Some(chunk) => {
                    let n = chunk.len().min(buf.len());
                    buf[..n].copy_from_slice(&chunk[..n]);
                    if n < chunk.len() {
                        self.chunks.push_front(chunk[n..].to_vec());
                    }
                    Ok(n)
                }
                None => Err(std::io::ErrorKind::WouldBlock.into()),
            }
        }
    }

    impl Write for Drip {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            if self.writes.is_multiple_of(2) {
                return Err(std::io::ErrorKind::WouldBlock.into());
            }
            let n = buf.len().min(8);
            self.out.lock().unwrap().extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn steady_write_progress_defers_idle_eviction() {
        let st = state();
        let expected = st.index().countries_slab().ok().encode(true);
        let clock = Arc::new(FakeClock::new());
        let policy = ConnPolicy { idle_timeout: Duration::from_secs(1), ..ConnPolicy::default() };
        let mut el = EventLoop::new(
            Arc::clone(&st),
            Box::new(FakeReadiness::always()),
            Arc::clone(&clock) as Arc<dyn Clock>,
            policy,
            Arc::new(AtomicBool::new(false)),
        );
        let out = Arc::new(Mutex::new(Vec::new()));
        let conn = Drip {
            chunks: [b"GET /countries HTTP/1.1\r\n\r\n".to_vec()].into(),
            out: Arc::clone(&out),
            writes: 0,
        };
        el.register(Box::new(conn), None);
        let mut turns = 0usize;
        while out.lock().unwrap().len() < expected.len() {
            // Three quarters of the idle window pass between each drip
            // of progress: without write-side activity refresh the
            // connection would be evicted mid-response.
            clock.advance(Duration::from_millis(750));
            el.turn(Some(Duration::from_millis(1))).unwrap();
            assert_eq!(el.len(), 1, "write progress keeps the connection alive");
            turns += 1;
            assert!(turns < 10_000, "response never finished draining");
        }
        assert_eq!(*out.lock().unwrap(), expected, "the full keep-alive response arrived");
        assert!(turns > 2, "the drain really did outlive a naive idle deadline");
    }

    #[test]
    fn out_queue_consumes_across_segment_boundaries() {
        let mut q = OutQueue::default();
        q.push([
            Bytes::Static(b"abc"),
            Bytes::from(b"defg".to_vec()),
            Bytes::Static(b"hi"),
        ]);
        assert_eq!(q.byte_len(), 9);
        q.consume(4); // "abc" + "d"
        assert_eq!(q.byte_len(), 5);
        q.consume(5);
        assert!(q.is_empty());
    }
}
