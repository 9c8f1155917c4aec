//! Client side of the serving workloads: one connection per tenant,
//! driven open-loop (requests leave at scheduled times, latency is
//! measured from the schedule) or closed-loop (a fixed number of
//! requests in flight).
//!
//! Requests are framed with `server::protocol::encode_request`, and
//! responses are cut from a receive buffer and decoded with
//! `server::protocol::read_response` once complete.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use codecs::DecodeLimits;
use server::protocol::{self, Op, Request, Response, Status, WireError};

use crate::stats::Samples;

/// One step of a tenant's request sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Compress item `k`.
    Write(usize),
    /// Decompress item `k`'s frame and compare it with the item.
    Read(usize),
}

/// A tenant's traffic: its items and the order they are written and
/// read in. The same seed gives the same traffic.
#[derive(Debug, Clone)]
pub struct Tenant {
    pub name: &'static str,
    pub items: Vec<Vec<u8>>,
    pub steps: Vec<Step>,
}

/// What one connection observed.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Per-request latency, every op; failures as misses.
    pub lat: Samples,
    pub lat_write: Samples,
    pub lat_read: Samples,
    /// How late each request left the generator.
    pub lag: Samples,
    pub attempted: u64,
    pub failed: u64,
    /// Round trips whose decompressed bytes differ from the item.
    pub mismatches: u64,
    /// Uncompressed bytes of successful writes and the frame bytes they
    /// produced.
    pub write_bytes: u64,
    pub frame_bytes: u64,
    /// Verified uncompressed bytes of successful reads.
    pub read_bytes: u64,
    /// Summed latency per direction, for per-direction rates.
    pub write_ns: u64,
    pub read_ns: u64,
    /// Frames returned for each item (`None` when the write failed).
    pub frames: Vec<Option<Vec<u8>>>,
    /// `(start, end)` of each step in nanoseconds since the run epoch,
    /// `(0, 0)` for a failed step; kept only when tracing.
    pub spans: Vec<(u64, u64)>,
    /// Every successful request, in completion order.
    pub done: Vec<Done>,
}

/// A successful request: when it completed (nanoseconds since the run
/// epoch), its direction, verified uncompressed bytes and latency.
#[derive(Debug, Clone, Copy)]
pub struct Done {
    pub at_ns: u64,
    pub write: bool,
    pub bytes: u64,
    pub lat_ns: u64,
}

impl Outcome {
    /// Sized for every step up front, so no buffer grows (and copies)
    /// while requests are timed.
    fn new(tenant: &Tenant, trace: bool) -> Self {
        let n = tenant.steps.len();
        Self {
            lat: Samples::with_capacity(n),
            lat_write: Samples::with_capacity(n),
            lat_read: Samples::with_capacity(n),
            lag: Samples::with_capacity(n),
            done: Vec::with_capacity(n),
            frames: vec![None; tenant.items.len()],
            spans: if trace {
                vec![(0, 0); tenant.steps.len()]
            } else {
                Vec::new()
            },
            ..Self::default()
        }
    }

    fn fail(&mut self, step: Step) {
        self.attempted += 1;
        self.failed += 1;
        self.lat.push_failed();
        match step {
            Step::Write(_) => self.lat_write.push_failed(),
            Step::Read(_) => self.lat_read.push_failed(),
        }
    }

    /// Books a response to `step` that arrived at `at_ns`, `ns` after
    /// the request was due, verifying read payloads against the item.
    fn complete(&mut self, tenant: &Tenant, step: Step, resp: Response, at_ns: u64, ns: u64) {
        if resp.status != Status::Ok {
            self.fail(step);
            return;
        }
        match step {
            Step::Write(k) => {
                self.write_bytes += tenant.items[k].len() as u64;
                self.frame_bytes += resp.payload.len() as u64;
                self.write_ns += ns;
                self.lat_write.push(ns);
                self.frames[k] = Some(resp.payload);
            }
            Step::Read(k) => {
                if resp.payload != tenant.items[k] {
                    self.mismatches += 1;
                    self.fail(step);
                    return;
                }
                self.read_bytes += resp.payload.len() as u64;
                self.read_ns += ns;
                self.lat_read.push(ns);
            }
        }
        self.attempted += 1;
        self.lat.push(ns);
        let (write, k) = match step {
            Step::Write(k) => (true, k),
            Step::Read(k) => (false, k),
        };
        self.done.push(Done {
            at_ns,
            write,
            bytes: tenant.items[k].len() as u64,
            lat_ns: ns,
        });
    }

    pub fn merge(&mut self, o: &Outcome) {
        self.lat.extend(&o.lat);
        self.lat_write.extend(&o.lat_write);
        self.lat_read.extend(&o.lat_read);
        self.lag.extend(&o.lag);
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.mismatches += o.mismatches;
        self.write_bytes += o.write_bytes;
        self.frame_bytes += o.frame_bytes;
        self.read_bytes += o.read_bytes;
        self.write_ns += o.write_ns;
        self.read_ns += o.read_ns;
        self.done.extend_from_slice(&o.done);
    }
}

/// A protocol connection with a receive buffer.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    pos: usize,
    wire: Vec<u8>,
    limits: DecodeLimits,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Self {
            stream,
            buf: Vec::with_capacity(1 << 16),
            pos: 0,
            wire: Vec::new(),
            limits: DecodeLimits::default(),
        })
    }

    /// Frames a request into the send buffer (not yet sent).
    pub fn stage(&mut self, op: Op, tenant: &str, payload: &[u8]) -> Result<(), WireError> {
        self.wire.clear();
        protocol::encode_request(
            &mut self.wire,
            &Request {
                op,
                tenant: tenant.to_string(),
                use_case: tenant.to_string(),
                payload: payload.to_vec(),
            },
        )
    }

    /// Sends the staged request.
    pub fn flush(&mut self) -> std::io::Result<()> {
        self.stream.write_all(&self.wire)
    }

    /// A complete response already in the buffer, if any.
    fn take_buffered(&mut self) -> Result<Option<Response>, WireError> {
        let avail = &self.buf[self.pos..];
        let Some(len) = avail
            .first_chunk::<4>()
            .map(|b| u32::from_le_bytes(*b) as usize)
        else {
            return Ok(None);
        };
        if avail.len() < 4 + len {
            return Ok(None);
        }
        let mut frame = &avail[..4 + len];
        let resp = protocol::read_response(&mut frame, &self.limits)?;
        self.pos += 4 + len;
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        }
        Ok(Some(resp))
    }

    /// The next response, blocking until it is complete.
    pub fn recv(&mut self) -> Result<Response, WireError> {
        loop {
            if let Some(resp) = self.take_buffered()? {
                return Ok(resp);
            }
            if self.pos > 0 && self.pos * 2 > self.buf.len() {
                self.buf.drain(..self.pos);
                self.pos = 0;
            }
            let old = self.buf.len();
            self.buf.resize(old + (1 << 16), 0);
            let got = self.stream.read(&mut self.buf[old..]);
            self.buf.truncate(old + *got.as_ref().unwrap_or(&0));
            match got {
                Ok(0) => return Err(WireError::Io(std::io::ErrorKind::UnexpectedEof.into())),
                Ok(_) => {}
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// One blocking round trip.
    pub fn roundtrip(
        &mut self,
        op: Op,
        tenant: &str,
        payload: &[u8],
    ) -> Result<Response, WireError> {
        self.stage(op, tenant, payload)?;
        self.flush()?;
        self.recv()
    }
}

fn ns_between(a: Instant, b: Instant) -> u64 {
    b.saturating_duration_since(a).as_nanos() as u64
}

/// The request a step sends, or `None` when a read's write failed (the
/// read is then a failure without a round trip).
fn payload_of<'a>(tenant: &'a Tenant, out: &'a Outcome, step: Step) -> Option<(Op, &'a [u8])> {
    match step {
        Step::Write(k) => Some((Op::Compress, &tenant.items[k])),
        Step::Read(k) => out.frames[k].as_deref().map(|f| (Op::Decompress, f)),
    }
}

/// Closed loop: up to `depth` requests in flight, the next sent as soon
/// as an answer frees a slot. Latency is send to receive; lag is the
/// gap from the answer that freed the slot to the next send.
pub fn closed_loop(
    conn: &mut Conn,
    tenant: &Tenant,
    epoch: Instant,
    trace: bool,
    depth: usize,
) -> Outcome {
    let mut out = Outcome::new(tenant, trace);
    let n = tenant.steps.len();
    let mut inflight: VecDeque<(usize, Step, Instant)> = VecDeque::new();
    let mut next = 0;
    let mut last = Instant::now();
    while next < n || !inflight.is_empty() {
        while inflight.len() < depth.max(1) && next < n {
            let step = tenant.steps[next];
            if matches!(step, Step::Read(k) if inflight.iter().any(|&(_, s, _)| s == Step::Write(k)))
            {
                break; // its frame is still in flight
            }
            next += 1;
            let staged = payload_of(tenant, &out, step)
                .is_some_and(|(op, payload)| conn.stage(op, tenant.name, payload).is_ok());
            if !staged {
                out.fail(step);
                continue;
            }
            let sent = Instant::now();
            out.lag.push(ns_between(last, sent));
            // A failed send surfaces as a failed receive below.
            let _ = conn.flush();
            inflight.push_back((next - 1, step, sent));
        }
        let Some((i, step, sent)) = inflight.pop_front() else {
            continue;
        };
        let resp = conn.recv();
        let done = Instant::now();
        last = done;
        match resp {
            Ok(resp) => {
                if trace {
                    out.spans[i] = (ns_between(epoch, sent), ns_between(epoch, done));
                }
                out.complete(
                    tenant,
                    step,
                    resp,
                    ns_between(epoch, done),
                    ns_between(sent, done),
                );
            }
            Err(_) => {
                // The connection is gone: fail what is outstanding and
                // what was never sent.
                out.fail(step);
                inflight.drain(..).for_each(|(_, s, _)| out.fail(s));
                tenant.steps[next..].iter().for_each(|&s| out.fail(s));
                break;
            }
        }
    }
    out
}

/// Schedule arithmetic of the open loop: step `i` is due at
/// `start + i * interval`, and its latency runs from that time, however
/// late the generator actually sent it. Fixed gaps, not Poisson ones:
/// the server does not set `TCP_NODELAY`, and a burst that puts two
/// answers in flight makes the second wait for the client's delayed
/// ACK, which made Poisson latencies track the machine's speed 2:1.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    pub start: Instant,
    pub interval: Duration,
}

impl Schedule {
    pub fn due(&self, i: usize) -> Instant {
        self.start + self.interval.mul_f64(i as f64)
    }

    /// Latency of step `i` answered at `done`.
    pub fn latency_ns(&self, i: usize, done: Instant) -> u64 {
        ns_between(self.due(i), done)
    }
}

/// Open loop at a fixed rate. The generator thread sends each step at
/// its due time; a receiver thread blocks on the socket and stamps each
/// answer as it lands (a socket read timeout is too coarse to schedule
/// with). A read whose frame has not come back yet waits for it, and
/// its latency still counts from its due time.
pub fn open_loop(
    conn: &mut Conn,
    tenant: &Tenant,
    sched: Schedule,
    epoch: Instant,
    trace: bool,
) -> Outcome {
    use std::sync::mpsc;
    enum Sent {
        Request(usize, Step),
        Skipped(Step),
    }
    let (sent_tx, sent_rx) = mpsc::channel::<Sent>();
    let (frame_tx, frame_rx) = mpsc::channel::<(usize, Option<Vec<u8>>)>();
    let Ok(stream) = conn.stream.try_clone() else {
        let mut out = Outcome::new(tenant, trace);
        tenant.steps.iter().for_each(|&s| out.fail(s));
        return out;
    };
    let mut rx_conn = Conn {
        stream,
        buf: std::mem::take(&mut conn.buf),
        pos: conn.pos,
        wire: Vec::new(),
        limits: conn.limits,
    };
    std::thread::scope(|s| {
        let receiver = s.spawn(move || {
            let mut out = Outcome::new(tenant, trace);
            let mut broken = false;
            for msg in sent_rx {
                let (i, step) = match msg {
                    Sent::Skipped(step) => {
                        out.fail(step);
                        continue;
                    }
                    Sent::Request(i, step) => (i, step),
                };
                let resp = if broken { None } else { rx_conn.recv().ok() };
                let done = Instant::now();
                match resp {
                    Some(resp) => {
                        if trace {
                            out.spans[i] =
                                (ns_between(epoch, sched.due(i)), ns_between(epoch, done));
                        }
                        out.complete(
                            tenant,
                            step,
                            resp,
                            ns_between(epoch, done),
                            sched.latency_ns(i, done),
                        );
                    }
                    None => {
                        broken = true;
                        out.fail(step);
                    }
                }
                if let Step::Write(k) = step {
                    let _ = frame_tx.send((k, out.frames[k].clone()));
                }
            }
            (out, rx_conn)
        });
        let mut frames: Vec<Option<Option<Vec<u8>>>> = vec![None; tenant.items.len()];
        let mut lag = Samples::default();
        for (i, &step) in tenant.steps.iter().enumerate() {
            let due = sched.due(i);
            std::thread::sleep(due.saturating_duration_since(Instant::now()));
            let payload: Option<(Op, &[u8])> = match step {
                Step::Write(k) => Some((Op::Compress, &tenant.items[k])),
                Step::Read(k) => {
                    while frames[k].is_none() {
                        match frame_rx.recv() {
                            Ok((j, f)) => frames[j] = Some(f),
                            Err(_) => break,
                        }
                    }
                    frames[k]
                        .as_ref()
                        .and_then(|f| f.as_deref())
                        .map(|f| (Op::Decompress, f))
                }
            };
            let staged = payload.is_some_and(|(op, p)| conn.stage(op, tenant.name, p).is_ok());
            let now = Instant::now();
            if !staged {
                let _ = sent_tx.send(Sent::Skipped(step));
                continue;
            }
            lag.push(sched.latency_ns(i, now));
            let _ = sent_tx.send(Sent::Request(i, step));
            if conn.flush().is_err() {
                // The receiver finds the socket broken and fails the
                // rest as they are booked.
                continue;
            }
        }
        drop(sent_tx);
        let (mut out, rx_conn) = receiver.join().expect("receiver thread panicked");
        conn.buf = rx_conn.buf;
        conn.pos = rx_conn.pos;
        out.lag = lag;
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_loop_latency_counts_from_the_schedule() {
        let start = Instant::now();
        let sched = Schedule {
            start,
            interval: Duration::from_micros(100),
        };
        assert_eq!(sched.due(3), start + Duration::from_micros(300));
        // Step 3 was due at 300 µs; even if the generator only sent it
        // at 900 µs, an answer at 1000 µs is 700 µs of latency, not 100.
        let done = start + Duration::from_micros(1000);
        assert_eq!(sched.latency_ns(3, done), 700_000);
        // An answer before the due time (impossible, but clamped).
        assert_eq!(sched.latency_ns(20, done), 0);
    }

    #[test]
    fn failed_write_fails_its_reads_without_a_round_trip() {
        let tenant = Tenant {
            name: "t",
            items: vec![b"abc".to_vec()],
            steps: vec![Step::Write(0), Step::Read(0)],
        };
        let mut out = Outcome::new(&tenant, false);
        out.complete(
            &tenant,
            Step::Write(0),
            Response::err(Status::Shed, "overloaded"),
            10,
            10,
        );
        assert!(payload_of(&tenant, &out, Step::Read(0)).is_none());
        out.fail(Step::Read(0));
        assert_eq!((out.attempted, out.failed), (2, 2));
        assert_eq!(out.lat.failures(), 2);
    }

    #[test]
    fn read_mismatch_is_a_failure() {
        let tenant = Tenant {
            name: "t",
            items: vec![b"abc".to_vec()],
            steps: vec![Step::Read(0)],
        };
        let mut out = Outcome::new(&tenant, false);
        let wrong = Response {
            status: Status::Ok,
            payload: b"abd".to_vec(),
        };
        out.complete(&tenant, Step::Read(0), wrong, 5, 5);
        assert_eq!((out.attempted, out.failed, out.mismatches), (1, 1, 1));
        let right = Response {
            status: Status::Ok,
            payload: b"abc".to_vec(),
        };
        out.complete(&tenant, Step::Read(0), right, 5, 5);
        assert_eq!((out.attempted, out.failed, out.read_bytes), (2, 1, 3));
    }
}
