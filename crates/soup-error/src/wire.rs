//! The one frame codec behind every socket in the workspace: serve
//! requests and responses (`soup-serve::proto`), halo FETCH/ROWS and the
//! shard control channel (`soup-distrib::halo`).
//!
//! ```text
//! frame := len:u32-LE  op:u8  payload[len-1]
//! ```
//!
//! `len` counts the opcode byte plus the payload. Every use passes its own
//! *cap* on `len`, so a protocol states its largest legal frame once and
//! both ends enforce the same number. The failure contract is the same for
//! every reader in this module:
//!
//! | input | result |
//! |---|---|
//! | clean EOF before a frame's first byte | `Ok(None)` (the peer hung up between frames) |
//! | EOF inside a frame | [`SoupError::Io`] with `UnexpectedEof` |
//! | `len == 0` | [`SoupError::Parse`]; the length bytes are consumed, so the stream stays in sync |
//! | `len > cap` | [`SoupError::Corrupt`], before any allocation; the stream cannot be resynchronised |
//!
//! Writers refuse a frame whose `len` exceeds the cap with
//! [`SoupError::Usage`], in release builds too, and put each frame on the
//! wire with a single `write_all`.

use crate::{Result, SoupError};
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Bytes in front of the payload: the `u32` length and the opcode.
const HEADER: usize = 5;

/// Encode one frame whose payload `fill` appends to the buffer it is
/// given; `payload_len` only sizes the allocation. Builders write straight
/// into the outgoing frame, so large payloads are never copied.
pub fn encode_with(
    op: u8,
    cap: usize,
    payload_len: usize,
    fill: impl FnOnce(&mut Vec<u8>),
) -> Result<Vec<u8>> {
    let mut frame = Vec::with_capacity(HEADER + payload_len);
    frame.extend_from_slice(&[0, 0, 0, 0, op]);
    fill(&mut frame);
    let len = frame.len() - 4;
    match u32::try_from(len) {
        Ok(prefix) if len <= cap => {
            frame[..4].copy_from_slice(&prefix.to_le_bytes());
            Ok(frame)
        }
        _ => Err(SoupError::usage(format!(
            "frame length {len} exceeds cap {cap}"
        ))),
    }
}

/// Encode one `op + payload` frame.
pub fn encode(op: u8, payload: &[u8], cap: usize) -> Result<Vec<u8>> {
    encode_with(op, cap, payload.len(), |buf| buf.extend_from_slice(payload))
}

/// Put an encoded frame on the wire with one `write_all`, then flush.
pub fn send(w: &mut impl Write, frame: &[u8]) -> Result<()> {
    w.write_all(frame)?;
    w.flush().map_err(SoupError::from)
}

/// Encode and [`send`] one frame.
pub fn write_frame(w: &mut impl Write, op: u8, payload: &[u8], cap: usize) -> Result<()> {
    send(w, &encode(op, payload, cap)?)
}

/// Write an encoded frame to a nonblocking stream. Partial writes are
/// tracked byte by byte, because re-sending a whole frame after a partial
/// write would desync the stream. `on_block` runs on every `WouldBlock`
/// and holds the caller's retry policy: `Ok` tries again, `Err` gives up.
pub fn send_nonblocking(
    w: &mut impl Write,
    frame: &[u8],
    mut on_block: impl FnMut() -> Result<()>,
) -> Result<()> {
    let mut off = 0;
    while off < frame.len() {
        match w.write(&frame[off..]) {
            Ok(0) => return Err(io(ErrorKind::WriteZero)),
            Ok(n) => off += n,
            Err(e) if e.kind() == ErrorKind::WouldBlock => on_block()?,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    Ok(())
}

fn io(kind: ErrorKind) -> SoupError {
    std::io::Error::from(kind).into()
}

/// Check a decoded length prefix against the contract in the module docs.
fn frame_len(prefix: [u8; 4], cap: usize) -> Result<usize> {
    match u32::from_le_bytes(prefix) as usize {
        0 => Err(SoupError::parse("empty frame (length 0)")),
        len if len > cap => Err(SoupError::corrupt(format!(
            "frame length {len} exceeds cap {cap}"
        ))),
        len => Ok(len),
    }
}

/// Read one frame as `(op, payload)`; `Ok(None)` on clean EOF at a frame
/// boundary.
pub fn read_frame(r: &mut impl Read, cap: usize) -> Result<Option<(u8, Vec<u8>)>> {
    let mut prefix = [0u8; 4];
    let mut got = 0;
    while got < 4 {
        match r.read(&mut prefix[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => return Err(io(ErrorKind::UnexpectedEof)),
            Ok(n) => got += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    let len = frame_len(prefix, cap)?;
    let mut op = [0u8; 1];
    r.read_exact(&mut op)?;
    let mut payload = vec![0u8; len - 1];
    r.read_exact(&mut payload)?;
    Ok(Some((op[0], payload)))
}

/// Read the next frame, which must exist and carry opcode `want`.
pub fn expect_frame(r: &mut impl Read, want: u8, cap: usize) -> Result<Vec<u8>> {
    match read_frame(r, cap)? {
        Some((op, payload)) if op == want => Ok(payload),
        Some((op, _)) => Err(SoupError::corrupt(format!(
            "expected opcode {want}, got {op}"
        ))),
        None => Err(SoupError::corrupt(format!(
            "peer closed while waiting for opcode {want}"
        ))),
    }
}

/// What [`read_frame_deadline`] found.
#[derive(Debug, PartialEq, Eq)]
pub enum Polled {
    /// A complete frame: opcode and payload.
    Frame(u8, Vec<u8>),
    /// No byte arrived within the idle budget: the peer is parked
    /// between frames.
    Idle,
    /// Clean EOF at a frame boundary.
    Closed,
}

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
}

/// Read one frame with an idle/stall budget, telling apart the two ways
/// a peer can go quiet:
///
/// - **idle**: no byte of a new frame arrives within `idle`. The
///   connection is parked between requests: [`Polled::Idle`].
/// - **stalled**: a frame *started* but did not complete within one
///   further `idle` budget, as from a crashed or slow-loris client. This
///   is a [`SoupError::Io`] with `TimedOut`, so a drip-feeding peer holds
///   the reader for at most about 2× `idle`.
pub fn read_frame_deadline(stream: &mut TcpStream, idle: Duration, cap: usize) -> Result<Polled> {
    stream.set_read_timeout(Some(idle))?;
    loop {
        match stream.peek(&mut [0u8]) {
            Ok(0) => return Ok(Polled::Closed),
            Ok(_) => break,
            Err(e) if is_timeout(&e) => return Ok(Polled::Idle),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    // A frame has begun: the rest must land before one overall deadline,
    // however many partial reads it takes.
    let mut r = Deadline {
        stream,
        at: Instant::now() + idle,
    };
    let (op, payload) = read_frame(&mut r, cap)?.ok_or_else(|| io(ErrorKind::UnexpectedEof))?;
    Ok(Polled::Frame(op, payload))
}

/// A reader whose every read fails with `TimedOut` once `at` has passed.
struct Deadline<'a> {
    stream: &'a mut TcpStream,
    at: Instant,
}

impl Read for Deadline<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let stalled = || std::io::Error::new(ErrorKind::TimedOut, "peer stalled mid-frame");
        let remaining = self.at.saturating_duration_since(Instant::now());
        if remaining.is_zero() {
            return Err(stalled());
        }
        self.stream.set_read_timeout(Some(remaining))?;
        self.stream
            .read(buf)
            .map_err(|e| if is_timeout(&e) { stalled() } else { e })
    }
}

/// Incremental frame accumulator for nonblocking readers: fill it with
/// whatever bytes have arrived and pop complete frames as they form. One
/// poll loop can drive many connections this way, and a peer that writes
/// half a frame and stalls never blocks it.
#[derive(Debug)]
pub struct FrameBuf {
    buf: Vec<u8>,
    cap: usize,
}

impl FrameBuf {
    /// An empty accumulator enforcing `cap` on every frame it assembles.
    pub fn new(cap: usize) -> Self {
        Self {
            buf: Vec::new(),
            cap,
        }
    }

    /// Read everything available on a nonblocking stream; `true` once the
    /// peer has closed its end.
    pub fn fill(&mut self, r: &mut impl Read) -> Result<bool> {
        let mut chunk = [0u8; 4096];
        loop {
            match r.read(&mut chunk) {
                Ok(0) => return Ok(true),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// Pop the next complete frame, `Ok(None)` if more bytes are needed.
    /// A length above the cap poisons the buffer: every later pop repeats
    /// the error, since nothing can resynchronise a corrupt prefix.
    pub fn pop(&mut self) -> Result<Option<(u8, Vec<u8>)>> {
        let Some(&prefix) = self.buf.first_chunk::<4>() else {
            return Ok(None);
        };
        if prefix == [0; 4] {
            self.buf.drain(..4); // an empty frame leaves the stream in sync
        }
        let len = frame_len(prefix, self.cap)?;
        if self.buf.len() < 4 + len {
            return Ok(None);
        }
        let op = self.buf[4];
        let payload = self.buf[HEADER..4 + len].to_vec();
        self.buf.drain(..4 + len);
        Ok(Some((op, payload)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::os::unix::net::UnixStream;

    const CAP: usize = 64;

    #[test]
    fn frames_round_trip_and_eof_at_a_boundary_is_none() {
        let mut wire = encode(10, &7u32.to_le_bytes(), CAP).unwrap();
        write_frame(&mut wire, 11, &[], CAP).unwrap();
        let mut r = &wire[..];
        assert_eq!(
            read_frame(&mut r, CAP).unwrap(),
            Some((10, 7u32.to_le_bytes().to_vec()))
        );
        assert_eq!(read_frame(&mut r, CAP).unwrap(), Some((11, vec![])));
        assert_eq!(read_frame(&mut r, CAP).unwrap(), None);
    }

    #[test]
    fn encode_with_matches_encode() {
        let a = encode_with(3, CAP, 2, |b| b.extend_from_slice(&[9, 8])).unwrap();
        assert_eq!(a, encode(3, &[9, 8], CAP).unwrap());
        assert_eq!(a, [3, 0, 0, 0, 3, 9, 8]);
    }

    #[test]
    fn length_zero_is_a_parse_error_that_keeps_the_stream_in_sync() {
        let mut wire = 0u32.to_le_bytes().to_vec();
        wire.extend(encode(4, b"ok", CAP).unwrap());
        let mut r = &wire[..];
        assert_eq!(read_frame(&mut r, CAP).unwrap_err().kind(), "parse");
        assert_eq!(read_frame(&mut r, CAP).unwrap(), Some((4, b"ok".to_vec())));
    }

    #[test]
    fn cap_is_inclusive_on_read_and_write() {
        // A frame of exactly `cap` (op + payload) is legal; one more byte is not.
        let at_cap = encode(1, &[0xab; CAP - 1], CAP).unwrap();
        assert_eq!(at_cap.len(), 4 + CAP);
        let (op, payload) = read_frame(&mut &at_cap[..], CAP).unwrap().unwrap();
        assert_eq!((op, payload.len()), (1, CAP - 1));
        assert_eq!(encode(1, &[0; CAP], CAP).unwrap_err().kind(), "usage");
    }

    #[test]
    fn oversized_frame_is_rejected_before_allocation() {
        let wire = (CAP as u32 + 1).to_le_bytes();
        let err = read_frame(&mut &wire[..], CAP).unwrap_err();
        assert_eq!(err.kind(), "corrupt");
        assert!(err.to_string().contains("exceeds cap"), "{err}");
        // A length near u32::MAX must not allocate either.
        let huge = u32::MAX.to_le_bytes();
        assert_eq!(
            read_frame(&mut &huge[..], CAP).unwrap_err().kind(),
            "corrupt"
        );
    }

    #[test]
    fn truncated_frame_is_a_clean_io_error() {
        // Declares 100 bytes, carries 3.
        let mut wire = 100u32.to_le_bytes().to_vec();
        wire.extend_from_slice(b"abc");
        assert_eq!(read_frame(&mut &wire[..], 128).unwrap_err().kind(), "io");
        // EOF inside the length prefix is not a clean hang-up either.
        assert_eq!(
            read_frame(&mut &[5u8, 0][..], CAP).unwrap_err().kind(),
            "io"
        );
    }

    #[test]
    fn expect_frame_checks_the_opcode_and_presence() {
        let wire = encode(2, b"x", CAP).unwrap();
        assert_eq!(expect_frame(&mut &wire[..], 2, CAP).unwrap(), b"x");
        assert_eq!(
            expect_frame(&mut &wire[..], 3, CAP).unwrap_err().kind(),
            "corrupt"
        );
        assert_eq!(
            expect_frame(&mut &[][..], 3, CAP).unwrap_err().kind(),
            "corrupt"
        );
    }

    #[test]
    fn frame_buf_fed_one_byte_at_a_time() {
        let mut wire = encode(10, &[1, 2, 3, 4, 5, 6, 7, 8], CAP).unwrap();
        wire.extend(encode(16, &[], CAP).unwrap());
        let mut fb = FrameBuf::new(CAP);
        let mut got = Vec::new();
        for b in wire.chunks(1) {
            fb.fill(&mut &b[..]).unwrap();
            while let Some(frame) = fb.pop().unwrap() {
                got.push(frame);
            }
        }
        assert_eq!(got, vec![(10, vec![1, 2, 3, 4, 5, 6, 7, 8]), (16, vec![])]);
    }

    #[test]
    fn frame_buf_applies_the_same_length_contract() {
        let mut fb = FrameBuf::new(CAP);
        fb.fill(&mut &0u32.to_le_bytes()[..]).unwrap();
        fb.fill(&mut &encode(7, &[], CAP).unwrap()[..]).unwrap();
        assert_eq!(fb.pop().unwrap_err().kind(), "parse");
        assert_eq!(fb.pop().unwrap(), Some((7, vec![])));

        let mut fb = FrameBuf::new(CAP);
        fb.fill(&mut &(CAP as u32).to_le_bytes()[..]).unwrap();
        assert_eq!(fb.pop().unwrap(), None, "a frame at the cap is legal");
        let mut fb = FrameBuf::new(CAP);
        fb.fill(&mut &(CAP as u32 + 1).to_le_bytes()[..]).unwrap();
        assert_eq!(fb.pop().unwrap_err().kind(), "corrupt");
        assert_eq!(fb.pop().unwrap_err().kind(), "corrupt", "poisoned for good");
    }

    #[test]
    fn frame_buf_fills_from_a_nonblocking_socket() {
        let (mut a, mut b) = UnixStream::pair().unwrap();
        b.set_nonblocking(true).unwrap();
        let wire = encode(10, &[1, 0, 0, 0, 0, 0, 0, 0], CAP).unwrap();
        let mut fb = FrameBuf::new(CAP);
        assert!(!fb.fill(&mut b).unwrap());
        // First half now, second half later.
        a.write_all(&wire[..wire.len() / 2]).unwrap();
        assert!(!fb.fill(&mut b).unwrap());
        assert_eq!(fb.pop().unwrap(), None, "half a frame is no frame");
        a.write_all(&wire[wire.len() / 2..]).unwrap();
        assert!(!fb.fill(&mut b).unwrap());
        assert_eq!(fb.pop().unwrap(), Some((10, vec![1, 0, 0, 0, 0, 0, 0, 0])));
        drop(a);
        assert!(fb.fill(&mut b).unwrap(), "peer closed");
    }

    #[test]
    fn send_nonblocking_resumes_partial_writes() {
        // A writer that takes at most 3 bytes per call and blocks every
        // other call.
        struct Trickle {
            out: Vec<u8>,
            block: bool,
        }
        impl Write for Trickle {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.block = !self.block;
                if self.block {
                    return Err(ErrorKind::WouldBlock.into());
                }
                let n = buf.len().min(3);
                self.out.extend_from_slice(&buf[..n]);
                Ok(n)
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let frame = encode(12, b"hello", CAP).unwrap();
        let mut w = Trickle {
            out: Vec::new(),
            block: false,
        };
        let mut blocked = 0;
        send_nonblocking(&mut w, &frame, || {
            blocked += 1;
            Ok(())
        })
        .unwrap();
        assert_eq!(w.out, frame);
        assert!(blocked > 0);
        // The policy may give up.
        let mut w = Trickle {
            out: Vec::new(),
            block: false,
        };
        let err = send_nonblocking(&mut w, &frame, || Err(SoupError::usage("gave up")));
        assert_eq!(err.unwrap_err().kind(), "usage");
    }

    #[test]
    fn deadline_read_reports_frames_idle_closed_and_stalls() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (mut server, _) = listener.accept().unwrap();
        let idle = Duration::from_millis(100);
        assert_eq!(
            read_frame_deadline(&mut server, idle, CAP).unwrap(),
            Polled::Idle
        );
        write_frame(&mut client, 1, b"hi", CAP).unwrap();
        assert_eq!(
            read_frame_deadline(&mut server, idle, CAP).unwrap(),
            Polled::Frame(1, b"hi".to_vec())
        );
        // Half a length prefix, then silence: a stall, not an idle.
        client.write_all(&[3, 0]).unwrap();
        let err = read_frame_deadline(&mut server, idle, CAP).unwrap_err();
        match err {
            SoupError::Io { source, .. } => assert_eq!(source.kind(), ErrorKind::TimedOut),
            other => panic!("expected a stall, got {other}"),
        }
        let (mut client, mut server) = {
            let c = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
            (c, listener.accept().unwrap().0)
        };
        client.write_all(&0u32.to_le_bytes()).unwrap();
        assert_eq!(
            read_frame_deadline(&mut server, idle, CAP)
                .unwrap_err()
                .kind(),
            "parse"
        );
        drop(client);
        assert_eq!(
            read_frame_deadline(&mut server, idle, CAP).unwrap(),
            Polled::Closed
        );
    }
}
