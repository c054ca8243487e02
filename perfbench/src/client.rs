//! The load generator's HTTP/1.1 client: a response framer that
//! survives split and coalesced reads, and a keep-alive connection that
//! honours `Connection: close` and classifies every failure.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// How long a request may wait for its response before it counts as a
/// timeout.
pub const READ_TIMEOUT: Duration = Duration::from_secs(2);

/// Largest response head the framer accepts.
const MAX_HEAD: usize = 16 * 1024;

/// One framed response. Offsets index the framer's buffer and stay
/// valid until [`Framer::consume`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Status code.
    pub status: u16,
    /// `ETag` header value, as offsets into the buffer.
    pub etag: Option<(usize, usize)>,
    /// The server will close after this response.
    pub close: bool,
    /// Body offsets.
    pub body: (usize, usize),
    /// Head plus body bytes.
    pub len: usize,
}

/// Why a response could not be framed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The status line or a header is malformed.
    Malformed(&'static str),
    /// The head grew past [`MAX_HEAD`] bytes.
    HeadTooLarge,
}

/// Incremental response framer: push bytes as they arrive, take
/// responses as they complete. Responses are delimited by
/// `Content-Length` (absent means an empty body, as on a `304`).
#[derive(Debug, Default)]
pub struct Framer {
    buf: Vec<u8>,
    start: usize,
}

impl Framer {
    /// Append received bytes.
    pub fn push(&mut self, bytes: &[u8]) {
        if self.start > 0 && self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// The next complete response, if the buffer holds one.
    pub fn next(&mut self) -> Result<Option<Frame>, FrameError> {
        let data = &self.buf[self.start..];
        let Some(head_end) = data.windows(4).position(|w| w == b"\r\n\r\n") else {
            return if data.len() > MAX_HEAD {
                Err(FrameError::HeadTooLarge)
            } else {
                Ok(None)
            };
        };
        let head = std::str::from_utf8(&data[..head_end])
            .map_err(|_| FrameError::Malformed("head is not UTF-8"))?;
        let mut lines = head.split("\r\n");
        let status_line = lines.next().unwrap_or("");
        let mut parts = status_line.splitn(3, ' ');
        if !parts.next().is_some_and(|v| v.starts_with("HTTP/1.")) {
            return Err(FrameError::Malformed("status line"));
        }
        let status: u16 = parts
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or(FrameError::Malformed("status code"))?;
        let mut content_length = 0usize;
        let mut etag = None;
        let mut close = false;
        let mut offset = status_line.len() + 2;
        for line in lines {
            let (name, value) = line
                .split_once(':')
                .ok_or(FrameError::Malformed("header line"))?;
            let value_trim = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value_trim
                    .parse()
                    .map_err(|_| FrameError::Malformed("content-length"))?;
            } else if name.eq_ignore_ascii_case("etag") {
                let lead = value.len() - value.trim_start().len();
                let from = self.start + offset + name.len() + 1 + lead;
                etag = Some((from, from + value_trim.len()));
            } else if name.eq_ignore_ascii_case("connection") {
                close = value_trim.eq_ignore_ascii_case("close");
            }
            offset += line.len() + 2;
        }
        let body_from = head_end + 4;
        let len = body_from + content_length;
        if data.len() < len {
            return Ok(None);
        }
        let base = self.start;
        Ok(Some(Frame {
            status,
            etag,
            close,
            body: (base + body_from, base + len),
            len,
        }))
    }

    /// The bytes at `range` (offsets from a [`Frame`]).
    pub fn slice(&self, range: (usize, usize)) -> &[u8] {
        &self.buf[range.0..range.1]
    }

    /// Drop a framed response from the buffer.
    pub fn consume(&mut self, frame: &Frame) {
        self.start += frame.len;
        if self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
        } else if self.start > 64 * 1024 {
            self.buf.drain(..self.start);
            self.start = 0;
        }
    }
}

/// Why an exchange failed; each counts as one failed operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Failure {
    /// The connection was refused or could not be made.
    Refused,
    /// The peer closed or reset mid-response.
    ShortRead,
    /// No complete response within [`READ_TIMEOUT`].
    Timeout,
    /// The response was framed but not a status the request expects,
    /// or could not be framed.
    BadStatus,
}

/// A keep-alive client connection.
#[derive(Debug)]
pub struct Conn {
    stream: TcpStream,
    framer: Framer,
    scratch: Vec<u8>,
}

impl Conn {
    /// Connect to `addr`.
    pub fn open(addr: SocketAddr) -> Result<Conn, Failure> {
        let stream =
            TcpStream::connect_timeout(&addr, READ_TIMEOUT).map_err(|_| Failure::Refused)?;
        stream.set_nodelay(true).map_err(|_| Failure::Refused)?;
        stream
            .set_read_timeout(Some(READ_TIMEOUT))
            .map_err(|_| Failure::Refused)?;
        stream
            .set_write_timeout(Some(READ_TIMEOUT))
            .map_err(|_| Failure::Refused)?;
        Ok(Conn {
            stream,
            framer: Framer::default(),
            scratch: vec![0; 64 * 1024],
        })
    }

    /// Send one request.
    pub fn send(&mut self, request: &[u8]) -> Result<(), Failure> {
        self.stream.write_all(request).map_err(classify)
    }

    /// The next complete response already received, if any. The
    /// returned frame's offsets index [`Conn::framer`] until
    /// [`Conn::consume`].
    pub fn frame(&mut self) -> Result<Option<Frame>, Failure> {
        self.framer.next().map_err(|_| Failure::BadStatus)
    }

    /// Read once and keep what arrived. Blocks unless [`wait_readable`]
    /// said the connection is readable.
    pub fn fill(&mut self) -> Result<(), Failure> {
        let n = self.stream.read(&mut self.scratch).map_err(classify)?;
        if n == 0 {
            return Err(Failure::ShortRead);
        }
        self.framer.push(&self.scratch[..n]);
        Ok(())
    }

    /// The framer holding the last response.
    pub fn framer(&self) -> &Framer {
        &self.framer
    }

    /// Release the last response's bytes.
    pub fn consume(&mut self, frame: &Frame) {
        self.framer.consume(frame);
    }
}

#[repr(C)]
struct PollFd {
    fd: core::ffi::c_int,
    events: core::ffi::c_short,
    revents: core::ffi::c_short,
}

extern "C" {
    fn poll(
        fds: *mut PollFd,
        nfds: core::ffi::c_ulong,
        timeout: core::ffi::c_int,
    ) -> core::ffi::c_int;
}

const POLLIN: core::ffi::c_short = 0x1;

/// Wait up to `timeout` until one of `conns` has bytes (or an error or
/// hang-up) to read, and say which. An empty result means the time ran
/// out or the wait was interrupted.
pub fn wait_readable(conns: &[&Conn], timeout: Duration) -> Vec<bool> {
    use std::os::fd::AsRawFd;
    let mut fds: Vec<PollFd> = conns
        .iter()
        .map(|c| PollFd {
            fd: c.stream.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        })
        .collect();
    let ms = timeout.as_millis().clamp(1, i32::MAX as u128) as core::ffi::c_int;
    // SAFETY: `fds` is a live, exclusively borrowed array of `fds.len()`
    // pollfd records laid out as the C struct, and every descriptor in
    // it belongs to a stream that outlives the call.
    let ready = unsafe { poll(fds.as_mut_ptr(), fds.len() as core::ffi::c_ulong, ms) };
    if ready <= 0 {
        return Vec::new();
    }
    fds.iter().map(|f| f.revents != 0).collect()
}

fn classify(err: std::io::Error) -> Failure {
    use std::io::ErrorKind::*;
    match err.kind() {
        WouldBlock | TimedOut => Failure::Timeout,
        _ => Failure::ShortRead,
    }
}

/// A `GET` request for `target`, optionally conditional on `etag`.
pub fn get(target: &str, if_none_match: Option<&str>) -> Vec<u8> {
    let mut req = format!("GET {target} HTTP/1.1\r\nHost: bench\r\n");
    if let Some(etag) = if_none_match {
        req.push_str(&format!("If-None-Match: {etag}\r\n"));
    }
    req.push_str("\r\n");
    req.into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;

    const OK: &[u8] =
        b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 5\r\nETag: \"abc\"\r\nConnection: keep-alive\r\n\r\nhello";
    const NOT_MODIFIED: &[u8] =
        b"HTTP/1.1 304 Not Modified\r\nETag: \"abc\"\r\nConnection: close\r\n\r\n";

    #[test]
    fn frames_a_response_split_at_every_byte() {
        for cut in 0..=OK.len() {
            let mut f = Framer::default();
            f.push(&OK[..cut]);
            let early = f.next().expect("no error");
            if cut < OK.len() {
                assert_eq!(early, None, "cut at {cut}");
                f.push(&OK[cut..]);
            }
            let frame = f.next().expect("no error").expect("complete");
            assert_eq!(frame.status, 200);
            assert_eq!(f.slice(frame.body), b"hello");
            assert_eq!(f.slice(frame.etag.expect("etag")), b"\"abc\"");
            assert!(!frame.close);
            assert_eq!(frame.len, OK.len());
            f.consume(&frame);
            assert_eq!(f.next(), Ok(None), "nothing left after the response");
        }
    }

    #[test]
    fn frames_back_to_back_responses_from_one_read() {
        let mut wire = OK.to_vec();
        wire.extend_from_slice(NOT_MODIFIED);
        wire.extend_from_slice(&OK[..20]);
        let mut f = Framer::default();
        f.push(&wire);
        let first = f.next().unwrap().unwrap();
        assert_eq!((first.status, f.slice(first.body)), (200, &b"hello"[..]));
        f.consume(&first);
        let second = f.next().unwrap().unwrap();
        assert_eq!(second.status, 304);
        assert_eq!(f.slice(second.body), b"", "a 304 has no body");
        assert_eq!(f.slice(second.etag.unwrap()), b"\"abc\"");
        assert!(second.close);
        f.consume(&second);
        assert_eq!(f.next().unwrap(), None, "the third head is incomplete");
        f.push(&OK[20..]);
        let third = f.next().unwrap().unwrap();
        assert_eq!(f.slice(third.body), b"hello");
    }

    #[test]
    fn rejects_malformed_and_oversized_heads() {
        let mut f = Framer::default();
        f.push(b"SSH-2.0-OpenSSH\r\n\r\n");
        assert_eq!(f.next(), Err(FrameError::Malformed("status line")));
        let mut f = Framer::default();
        f.push(b"HTTP/1.1 200 OK\r\nContent-Length: x\r\n\r\n");
        assert_eq!(f.next(), Err(FrameError::Malformed("content-length")));
        let mut f = Framer::default();
        f.push(&vec![b'a'; MAX_HEAD + 1]);
        assert_eq!(f.next(), Err(FrameError::HeadTooLarge));
    }

    #[test]
    fn requests_carry_the_validator() {
        assert_eq!(
            get("/hhi", None),
            b"GET /hhi HTTP/1.1\r\nHost: bench\r\n\r\n"
        );
        let conditional = String::from_utf8(get("/hhi", Some("\"e\""))).unwrap();
        assert!(conditional.contains("\r\nIf-None-Match: \"e\"\r\n\r\n"));
    }
}
