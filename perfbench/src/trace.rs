//! Client-side instrumentation that lives entirely in the benchmark: timing
//! wrappers around the stream and the datagram conduit the public sync
//! drivers are handed, the seeded loss conduit of `udp_lossy`, and the
//! in-memory span store the traced run writes out once at the end.
//!
//! The wrappers forward every call one to one, so the program issues the
//! same system calls traced and untraced; they only add two clock reads per
//! call.

use std::io::{self, Read, Write};
use std::time::{Duration, Instant};

use reconcile_core::framing::LENGTH_PREFIX_BYTES;
use reconcile_core::handshake::HELLO_BYTES;
use riblt_hash::{splitmix64, XorShift64Star};
use statesync::DatagramConduit;

/// What a span covers. Every span of one sync shares its sync id, and the
/// `Sync` root is the parent of all the others.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// Connect (or socket bind) to the returned differences.
    Sync,
    /// Connect to the server hello (TCP) or the `HelloAck` (UDP) read.
    Handshake,
    /// Hello read to the first `Open`/`Request` sent: partitioning and the
    /// client's own-set encode.
    Prepare,
    /// One blocking `read`/`recv` call after the handshake.
    ReadWait,
    /// One `write`/`send` call after the handshake.
    Write,
    /// Client compute between two I/O calls after `Prepare`.
    Compute,
}

impl SpanKind {
    fn name(self) -> &'static str {
        match self {
            SpanKind::Sync => "sync",
            SpanKind::Handshake => "handshake",
            SpanKind::Prepare => "prepare",
            SpanKind::ReadWait => "read_wait",
            SpanKind::Write => "write",
            SpanKind::Compute => "compute",
        }
    }
}

/// One closed span, in nanoseconds since the run's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub sync: u64,
    pub kind: SpanKind,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Counts length-prefixed frames in one direction of a byte stream by
/// following the 4-byte little-endian length prefixes as bytes pass by.
#[derive(Debug, Default)]
struct FrameCounter {
    prefix: [u8; LENGTH_PREFIX_BYTES],
    prefix_len: usize,
    body_left: u64,
    frames: u64,
}

impl FrameCounter {
    fn feed(&mut self, mut bytes: &[u8]) {
        while !bytes.is_empty() {
            if self.body_left > 0 {
                let take = bytes.len().min(self.body_left as usize);
                self.body_left -= take as u64;
                bytes = &bytes[take..];
                continue;
            }
            self.prefix[self.prefix_len] = bytes[0];
            self.prefix_len += 1;
            bytes = &bytes[1..];
            if self.prefix_len == LENGTH_PREFIX_BYTES {
                self.prefix_len = 0;
                self.frames += 1;
                self.body_left = u64::from(u32::from_le_bytes(self.prefix));
            }
        }
    }
}

/// The raw I/O record of one traced sync, turned into spans by
/// [`SyncRecorder::finish`].
#[derive(Debug)]
pub struct SyncRecorder {
    epoch: Instant,
    sync: u64,
    start_ns: u64,
    /// End of the read that completed the server's hello.
    hello_end_ns: Option<u64>,
    io: Vec<(SpanKind, u64, u64)>,
    bytes_in: u64,
    bytes_out: u64,
    frames_in: FrameCounter,
    frames_out: FrameCounter,
    datagrams_in: u64,
    datagrams_out: u64,
}

/// Per-sync totals derived from a finished recorder.
#[derive(Debug, Default, Clone, Copy)]
pub struct SyncBreakdown {
    pub wall_ms: f64,
    pub handshake_ms: f64,
    pub prepare_ms: f64,
    pub read_wait_ms: f64,
    pub write_ms: f64,
    pub write_calls: u64,
    pub compute_ms: f64,
    pub frames_in: u64,
    pub frames_out: u64,
    pub bytes_in: u64,
    pub bytes_out: u64,
}

impl SyncRecorder {
    /// Opens the root span of sync `sync` now.
    pub fn start(epoch: Instant, sync: u64) -> SyncRecorder {
        SyncRecorder {
            epoch,
            sync,
            start_ns: nanos_since(epoch),
            hello_end_ns: None,
            io: Vec::new(),
            bytes_in: 0,
            bytes_out: 0,
            frames_in: FrameCounter::default(),
            frames_out: FrameCounter::default(),
            datagrams_in: 0,
            datagrams_out: 0,
        }
    }

    fn now(&self) -> u64 {
        nanos_since(self.epoch)
    }

    /// Closes the root span and derives the child spans: handshake, prepare,
    /// every post-handshake read wait and write, and the compute gaps
    /// between them. Appends them to `out` and returns the totals.
    pub fn finish(self, out: &mut Vec<Span>) -> SyncBreakdown {
        let end_ns = self.now();
        let sync = self.sync;
        let span = |kind, start_ns, end_ns| Span {
            sync,
            kind,
            start_ns,
            end_ns,
        };
        out.push(span(SpanKind::Sync, self.start_ns, end_ns));
        let mut b = SyncBreakdown {
            wall_ms: (end_ns - self.start_ns) as f64 / 1e6,
            bytes_in: self.bytes_in,
            bytes_out: self.bytes_out,
            frames_in: self.frames_in.frames + self.datagrams_in,
            frames_out: self.frames_out.frames + self.datagrams_out,
            ..SyncBreakdown::default()
        };
        let Some(hello_end) = self.hello_end_ns else {
            // The sync failed before the handshake finished.
            b.handshake_ms = b.wall_ms;
            return b;
        };
        out.push(span(SpanKind::Handshake, self.start_ns, hello_end));
        b.handshake_ms = (hello_end - self.start_ns) as f64 / 1e6;
        let after: Vec<_> = self
            .io
            .iter()
            .filter(|(_, start, _)| *start >= hello_end)
            .copied()
            .collect();
        let prepare_end = after
            .iter()
            .find(|(kind, _, _)| *kind == SpanKind::Write)
            .map_or(end_ns, |(_, start, _)| *start);
        out.push(span(SpanKind::Prepare, hello_end, prepare_end));
        b.prepare_ms = (prepare_end - hello_end) as f64 / 1e6;
        let mut cursor = prepare_end;
        for (kind, start, stop) in after {
            if start > cursor {
                out.push(span(SpanKind::Compute, cursor, start));
                b.compute_ms += (start - cursor) as f64 / 1e6;
            }
            let s = span(kind, start, stop);
            out.push(s);
            match kind {
                SpanKind::ReadWait => b.read_wait_ms += s.ms(),
                _ => {
                    b.write_ms += s.ms();
                    b.write_calls += 1;
                }
            }
            cursor = cursor.max(stop);
        }
        if end_ns > cursor {
            out.push(span(SpanKind::Compute, cursor, end_ns));
            b.compute_ms += (end_ns - cursor) as f64 / 1e6;
        }
        b
    }
}

fn nanos_since(epoch: Instant) -> u64 {
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Times every `read`/`write` the TCP sync driver makes on its stream.
pub struct TracedStream<'a, T> {
    pub inner: &'a mut T,
    pub rec: &'a mut SyncRecorder,
}

impl<T: Read> Read for TracedStream<'_, T> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let start = self.rec.now();
        let result = self.inner.read(buf);
        let end = self.rec.now();
        self.rec.io.push((SpanKind::ReadWait, start, end));
        if let Ok(n) = result {
            self.rec.bytes_in += n as u64;
            self.rec.frames_in.feed(&buf[..n]);
            let hello = (LENGTH_PREFIX_BYTES + HELLO_BYTES) as u64;
            if self.rec.hello_end_ns.is_none() && self.rec.bytes_in >= hello {
                self.rec.hello_end_ns = Some(end);
            }
        }
        result
    }
}

impl<T: Write> Write for TracedStream<'_, T> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let start = self.rec.now();
        let result = self.inner.write(buf);
        let end = self.rec.now();
        self.rec.io.push((SpanKind::Write, start, end));
        if let Ok(n) = result {
            self.rec.bytes_out += n as u64;
            self.rec.frames_out.feed(&buf[..n]);
        }
        result
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// Times every `send`/`recv` the UDP sync driver makes on its conduit.
pub struct TracedConduit<'a, C> {
    pub inner: &'a mut C,
    pub rec: &'a mut SyncRecorder,
}

impl<C: DatagramConduit> DatagramConduit for TracedConduit<'_, C> {
    fn send(&mut self, datagram: &[u8]) -> io::Result<()> {
        let start = self.rec.now();
        let result = self.inner.send(datagram);
        let end = self.rec.now();
        self.rec.io.push((SpanKind::Write, start, end));
        self.rec.bytes_out += datagram.len() as u64;
        self.rec.datagrams_out += 1;
        result
    }

    fn recv(&mut self, timeout: Duration) -> io::Result<Option<Vec<u8>>> {
        let start = self.rec.now();
        let result = self.inner.recv(timeout);
        let end = self.rec.now();
        self.rec.io.push((SpanKind::ReadWait, start, end));
        if let Ok(Some(datagram)) = &result {
            self.rec.bytes_in += datagram.len() as u64;
            self.rec.datagrams_in += 1;
            // The first datagram the client accepts is the HelloAck.
            if self.rec.hello_end_ns.is_none() {
                self.rec.hello_end_ns = Some(end);
            }
        }
        result
    }
}

/// Drops a seeded share of datagrams in each direction and counts what it
/// dropped. Kernel loopback never loses a datagram, so without this the
/// reliability layer would go unexercised.
pub struct DropConduit<C> {
    inner: C,
    rng: XorShift64Star,
    loss: f64,
    /// Datagrams dropped, both directions.
    pub drops: u64,
    /// Bytes of inbound datagrams dropped after they crossed the socket.
    pub dropped_in_bytes: u64,
}

impl<C> DropConduit<C> {
    pub fn new(inner: C, loss: f64, seed: u64) -> Self {
        DropConduit {
            inner,
            rng: XorShift64Star::new(splitmix64(seed).max(1)),
            loss,
            drops: 0,
            dropped_in_bytes: 0,
        }
    }

    fn roll(&mut self) -> bool {
        self.rng.next_f64() < self.loss
    }
}

impl<C: DatagramConduit> DatagramConduit for DropConduit<C> {
    fn send(&mut self, datagram: &[u8]) -> io::Result<()> {
        if self.roll() {
            self.drops += 1;
            return Ok(());
        }
        self.inner.send(datagram)
    }

    fn recv(&mut self, timeout: Duration) -> io::Result<Option<Vec<u8>>> {
        let deadline = Instant::now() + timeout;
        loop {
            let remaining = deadline.saturating_duration_since(Instant::now());
            let Some(datagram) = self.inner.recv(remaining)? else {
                return Ok(None);
            };
            if !self.roll() {
                return Ok(Some(datagram));
            }
            self.drops += 1;
            self.dropped_in_bytes += datagram.len() as u64;
        }
    }
}

/// Writes every span as one CSV line (`sync,span,start_ns,end_ns`).
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "sync,span,start_ns,end_ns")?;
    for s in spans {
        writeln!(
            out,
            "{},{},{},{}",
            s.sync,
            s.kind.name(),
            s.start_ns,
            s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_counter_follows_prefixes_across_splits() {
        let mut stream = Vec::new();
        for body in [&b"abc"[..], &b""[..], &b"0123456789"[..]] {
            stream.extend_from_slice(&(body.len() as u32).to_le_bytes());
            stream.extend_from_slice(body);
        }
        for split in 0..stream.len() {
            let mut counter = FrameCounter::default();
            counter.feed(&stream[..split]);
            counter.feed(&stream[split..]);
            assert_eq!(counter.frames, 3, "split at {split}");
        }
    }
}
