//! Per-connection state for the event-loop shards.
//!
//! A [`Conn`] is one slab slot: the nonblocking stream, the incremental
//! [`RequestParser`], the outgoing [`WriteBuf`], and the bookkeeping the
//! readiness state machine needs (in-flight flag, generation stamp, read
//! deadline). The event loop owns all transitions; this module only
//! holds the data and the one self-contained algorithm — partial-write
//! resume over a queue of owned or `Arc`-shared byte segments, flushed
//! with one vectored write per call, so a response's head and body
//! leave in one write.
//!
//! The shared segments are the zero-copy half of the hot-response path:
//! a cache hit pushes the `Arc`'d rendered body straight into the write
//! queue, so a 100k-connection fan-out of the same popular response
//! shares one allocation.

use crate::http::RequestParser;
use crate::poll::Interest;
use std::collections::VecDeque;
use std::io::{self, ErrorKind, IoSlice, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Instant;

/// One queued chunk of outgoing bytes.
#[derive(Debug)]
pub enum Segment {
    /// Bytes owned by this connection (response heads, error payloads,
    /// uncached bodies).
    Owned(Vec<u8>),
    /// Bytes shared with the hot-response cache; written without copying.
    Shared(Arc<Vec<u8>>),
}

impl Segment {
    fn as_bytes(&self) -> &[u8] {
        match self {
            Segment::Owned(v) => v,
            Segment::Shared(v) => v,
        }
    }
}

/// Most segments one vectored write hands the kernel (a response is
/// two: head and body).
const MAX_IOV: usize = 16;

/// The outgoing byte queue with partial-write resume.
///
/// Responses are pushed as segments (head, body, head, body, …);
/// [`write_to`](WriteBuf::write_to) passes the queued segments to one
/// `write_vectored` call, so a response's head and body go out in a
/// single `writev(2)` rather than two writes the client may wake for
/// twice. It advances across segment boundaries by the bytes the
/// socket took and remembers the offset into the front segment, so a
/// short write resumes exactly where the kernel stopped — the mechanism
/// behind write-interest-driven flushing.
#[derive(Debug, Default)]
pub struct WriteBuf {
    segments: VecDeque<Segment>,
    /// Bytes of the front segment already written.
    offset: usize,
}

impl WriteBuf {
    /// An empty queue.
    pub fn new() -> WriteBuf {
        WriteBuf::default()
    }

    /// Queues connection-owned bytes (empty chunks are dropped).
    pub fn push_owned(&mut self, bytes: Vec<u8>) {
        if !bytes.is_empty() {
            self.segments.push_back(Segment::Owned(bytes));
        }
    }

    /// Queues cache-shared bytes without copying them.
    pub fn push_shared(&mut self, bytes: Arc<Vec<u8>>) {
        if !bytes.is_empty() {
            self.segments.push_back(Segment::Shared(bytes));
        }
    }

    /// True when everything queued has been written.
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }

    /// Bytes still waiting to go out.
    pub fn pending_bytes(&self) -> usize {
        self.segments
            .iter()
            .map(|s| s.as_bytes().len())
            .sum::<usize>()
            - self.offset
    }

    /// Writes as much as the sink accepts. Returns `Ok(true)` when the
    /// queue drained, `Ok(false)` when the sink would block (the caller
    /// arms write interest), and `Err` on transport failure.
    pub fn write_to(&mut self, w: &mut impl Write) -> io::Result<bool> {
        while !self.segments.is_empty() {
            let mut iov = [IoSlice::new(&[]); MAX_IOV];
            let mut n = 0;
            for (slot, segment) in iov.iter_mut().zip(&self.segments) {
                let skip = if n == 0 { self.offset } else { 0 };
                *slot = IoSlice::new(&segment.as_bytes()[skip..]);
                n += 1;
            }
            match w.write_vectored(&iov[..n]) {
                Ok(0) => {
                    return Err(io::Error::new(
                        ErrorKind::WriteZero,
                        "peer accepted zero bytes",
                    ))
                }
                Ok(written) => self.advance(written),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(false),
                Err(e) => return Err(e),
            }
        }
        Ok(true)
    }

    /// Drops `written` bytes off the front of the queue: every segment
    /// they cover in full, then an offset into the next.
    fn advance(&mut self, mut written: usize) {
        while let Some(front) = self.segments.front() {
            let left = front.as_bytes().len() - self.offset;
            if written < left {
                self.offset += written;
                return;
            }
            written -= left;
            self.segments.pop_front();
            self.offset = 0;
        }
    }
}

/// One live connection on an event-loop shard.
#[derive(Debug)]
pub struct Conn {
    /// The nonblocking stream (kept for its fd and I/O calls; the slab
    /// index, not the fd, is the epoll token).
    pub stream: TcpStream,
    /// Incremental request parser fed by readiness-driven reads.
    pub parser: RequestParser,
    /// Outgoing bytes with partial-write resume.
    pub out: WriteBuf,
    /// Stamp checked against worker completions: a completion whose
    /// generation does not match the slot's current value belongs to a
    /// previous occupant and is dropped.
    pub generation: u64,
    /// A request is at the worker pool; reads are paused (one outstanding
    /// request per connection keeps pipelined responses ordered).
    pub busy: bool,
    /// The connection ends once the write queue drains (protocol errors,
    /// `Connection: close`, shutdown drain).
    pub close_after_flush: bool,
    /// The interest currently armed in epoll (tracked so the loop only
    /// issues `epoll_ctl` when the desired interest actually changes).
    pub armed: Interest,
    /// The last flush hit `EWOULDBLOCK`; write interest should be armed
    /// until the queue drains.
    pub write_blocked: bool,
    /// When the current write stall began (deadline bookkeeping for
    /// peers that stop reading mid-response). Cleared on any progress.
    pub write_blocked_since: Option<Instant>,
    /// Deadline for the bytes of the request in flight: armed at the
    /// first byte, cleared when the request completes. A slow-loris peer
    /// trips it and is dropped; idle keep-alive connections have none.
    pub read_deadline: Option<Instant>,
    /// The peer's write side is closed (EOF or `EPOLLRDHUP`): no more
    /// request bytes will ever arrive. A response still owed (busy at
    /// the workers, unflushed output) is delivered first; the slot is
    /// torn down once the write queue drains.
    pub read_closed: bool,
}

impl Conn {
    /// Wraps a freshly accepted stream (already set nonblocking).
    pub fn new(stream: TcpStream, max_body: usize, generation: u64) -> Conn {
        Conn {
            stream,
            parser: RequestParser::new(max_body),
            out: WriteBuf::new(),
            generation,
            busy: false,
            close_after_flush: false,
            armed: Interest::READ,
            write_blocked: false,
            write_blocked_since: None,
            read_deadline: None,
            read_closed: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A sink that accepts at most `cap` bytes per write, then blocks.
    struct Throttled {
        accepted: Vec<u8>,
        cap: usize,
        budget: usize,
    }

    impl Write for Throttled {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.budget == 0 {
                return Err(ErrorKind::WouldBlock.into());
            }
            let n = buf.len().min(self.cap).min(self.budget);
            self.accepted.extend_from_slice(&buf[..n]);
            self.budget -= n;
            Ok(n)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn partial_writes_resume_across_segments() {
        let mut buf = WriteBuf::new();
        buf.push_owned(b"HEAD".to_vec());
        buf.push_shared(Arc::new(b"shared-body".to_vec()));
        buf.push_owned(b"tail".to_vec());
        assert_eq!(buf.pending_bytes(), 19);

        // Drip 3 bytes at a time with a budget that stops mid-segment.
        let mut sink = Throttled {
            accepted: Vec::new(),
            cap: 3,
            budget: 7,
        };
        assert!(!buf.write_to(&mut sink).unwrap(), "blocked mid-way");
        assert_eq!(sink.accepted, b"HEADsha");
        assert_eq!(buf.pending_bytes(), 12);

        // More budget: the queue resumes at the exact offset and drains.
        sink.budget = usize::MAX;
        assert!(buf.write_to(&mut sink).unwrap());
        assert_eq!(sink.accepted, b"HEADshared-bodytail");
        assert!(buf.is_empty());
        assert_eq!(buf.pending_bytes(), 0);
    }

    /// A sink that takes at most `cap` bytes per `write_vectored`,
    /// across as many slices as that covers, and counts its calls.
    struct Vectored {
        accepted: Vec<u8>,
        cap: usize,
        calls: usize,
    }

    impl Write for Vectored {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }
        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            self.calls += 1;
            let mut n = 0;
            for buf in bufs {
                let take = buf.len().min(self.cap - n);
                self.accepted.extend_from_slice(&buf[..take]);
                n += take;
                if n == self.cap {
                    break;
                }
            }
            Ok(n)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn vectored_writes_deliver_exactly_the_queued_bytes() {
        let segments: [&[u8]; 5] = [
            b"HTTP/1.1 200 OK\r\n\r\n",
            b"{}",
            b"x",
            b"head-2",
            b"body-two",
        ];
        let queued: Vec<u8> = segments.concat();
        for cap in 1..=queued.len() + 1 {
            let mut buf = WriteBuf::new();
            for (i, s) in segments.iter().enumerate() {
                if i % 2 == 0 {
                    buf.push_owned(s.to_vec());
                } else {
                    buf.push_shared(Arc::new(s.to_vec()));
                }
            }
            let mut sink = Vectored {
                accepted: Vec::new(),
                cap,
                calls: 0,
            };
            assert!(buf.write_to(&mut sink).unwrap());
            assert_eq!(sink.accepted, queued, "cap {cap}");
            assert_eq!(sink.calls, queued.len().div_ceil(cap), "cap {cap}");
            assert!(buf.is_empty());
            assert_eq!(buf.pending_bytes(), 0);
        }
    }

    #[test]
    fn a_response_head_and_body_leave_in_one_write() {
        let mut buf = WriteBuf::new();
        buf.push_owned(b"HEAD".to_vec());
        buf.push_shared(Arc::new(b"body".to_vec()));
        let mut sink = Vectored {
            accepted: Vec::new(),
            cap: usize::MAX,
            calls: 0,
        };
        assert!(buf.write_to(&mut sink).unwrap());
        assert_eq!(
            (sink.calls, sink.accepted.as_slice()),
            (1, &b"HEADbody"[..])
        );
    }

    #[test]
    fn shared_segments_do_not_copy() {
        let body = Arc::new(vec![7u8; 64]);
        let mut buf = WriteBuf::new();
        buf.push_shared(Arc::clone(&body));
        // The queue holds a refcount, not a copy.
        assert_eq!(Arc::strong_count(&body), 2);
        let mut sink = Vec::new();
        assert!(buf.write_to(&mut sink).unwrap());
        assert_eq!(sink.len(), 64);
        assert_eq!(Arc::strong_count(&body), 1, "dropped after the write");
    }

    #[test]
    fn empty_segments_are_dropped_and_zero_write_is_an_error() {
        let mut buf = WriteBuf::new();
        buf.push_owned(Vec::new());
        buf.push_shared(Arc::new(Vec::new()));
        assert!(buf.is_empty());

        struct Zero;
        impl Write for Zero {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Ok(0)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        buf.push_owned(b"x".to_vec());
        assert!(buf.write_to(&mut Zero).is_err());
    }
}
