//! The load generator: closed and open loops over the daemon's TCP line
//! protocol, one thread and one connection per client, at most two of each.
//!
//! Client sockets set `TCP_NODELAY`, so the generator itself never holds a
//! request back; whatever Nagle delay shows is the daemon's.

use crate::workload::{read_line, Op, Rng, Spec};
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

/// How long a closed-loop client waits for one reply before counting a
/// timeout and dropping the connection.
const REPLY_TIMEOUT: Duration = Duration::from_secs(10);

/// Replies at most this long are kept verbatim (write acks, short reads).
const KEEP_REPLY: usize = 256;

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
}

/// Whether `stream` became readable (or hung up) within `timeout`.
fn wait_readable(stream: &TcpStream, timeout: Duration) -> std::io::Result<bool> {
    const POLLIN: i16 = 1;
    let mut fd = PollFd {
        fd: stream.as_raw_fd(),
        events: POLLIN,
        revents: 0,
    };
    let ts = Timespec {
        sec: i64::try_from(timeout.as_secs()).unwrap_or(i64::MAX),
        nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `fd` and `ts` are live for the call and laid out as the
    // kernel's `struct pollfd` and 64-bit `struct timespec`; one entry is
    // passed, and a null signal mask leaves the mask unchanged.
    let r = unsafe { ppoll(&mut fd, 1, &ts, std::ptr::null()) };
    match r {
        0 => Ok(false),
        r if r > 0 => Ok(true),
        _ => {
            let e = std::io::Error::last_os_error();
            if e.kind() == ErrorKind::Interrupted {
                Ok(false)
            } else {
                Err(e)
            }
        }
    }
}

/// One request as the generator saw it. Times are offsets from the start
/// of the phase.
pub struct Record {
    pub op: Op,
    pub line: String,
    /// When the request was due; equals `sent` in a closed loop.
    pub sched: Duration,
    pub sent: Duration,
    /// `None`: timed out, or the connection dropped before the reply.
    pub done: Option<Duration>,
    pub reply: Option<Reply>,
}

impl Record {
    /// Latency in microseconds from the due time; `+inf` for a request
    /// that failed.
    pub fn latency_us(&self) -> f64 {
        match (&self.reply, self.done) {
            (Some(r), Some(done)) if !r.error => (done - self.sched).as_secs_f64() * 1e6,
            _ => f64::INFINITY,
        }
    }

    pub fn failed(&self) -> bool {
        !self.latency_us().is_finite()
    }
}

/// What came back for one request.
pub struct Reply {
    pub hash: u64,
    pub len: usize,
    pub error: bool,
    /// Load shed by admission control or the worker pool.
    pub shed: bool,
    pub text: Option<String>,
}

impl Reply {
    fn new(bytes: &[u8]) -> Reply {
        let text = String::from_utf8_lossy(bytes);
        let error = text.contains(" -> error:") || text.starts_with("error");
        Reply {
            hash: fnv1a(bytes),
            len: bytes.len(),
            error,
            shed: error && text.contains("resource exhausted"),
            text: (bytes.len() <= KEEP_REPLY).then(|| text.into_owned()),
        }
    }
}

/// FNV-1a over a reply line: replies are checked by hash so that ~10⁴
/// replies of up to tens of KB need not be kept.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The result of one loop over all its clients.
pub struct Phase {
    pub name: &'static str,
    pub records: Vec<Record>,
    pub duration: Duration,
    pub dropped_connections: u64,
    /// Highest number of requests in flight on one connection.
    pub max_outstanding: usize,
    /// Mean in-flight count seen at each send.
    pub mean_outstanding: f64,
    /// Time from the last due send to the last reply (open loop).
    pub drain: Duration,
    /// The backlog did not drain: latency is not reported as a number.
    pub saturated: bool,
}

impl Phase {
    pub fn attempted(&self) -> u64 {
        self.records.len() as u64
    }

    pub fn failed(&self) -> u64 {
        self.records.iter().filter(|r| r.failed()).count() as u64
    }

    pub fn count(&self, pred: impl Fn(&Record) -> bool) -> u64 {
        self.records.iter().filter(|r| pred(r)).count() as u64
    }

    pub fn latencies_us(&self, write: bool) -> Vec<f64> {
        self.records
            .iter()
            .filter(|r| r.op.is_write() == write)
            .map(Record::latency_us)
            .collect()
    }

    /// Generator lateness against its schedule, in milliseconds.
    pub fn lags_ms(&self) -> Vec<f64> {
        self.records
            .iter()
            .map(|r| (r.sent - r.sched).as_secs_f64() * 1e3)
            .collect()
    }

    /// One summary line for the report.
    pub fn summary(&self) -> String {
        let err = self.count(|r| r.reply.as_ref().is_some_and(|x| x.error && !x.shed));
        let shed = self.count(|r| r.reply.as_ref().is_some_and(|x| x.shed));
        let timeouts = self.count(|r| r.reply.is_none());
        let lag = crate::stats::percentile(&self.lags_ms(), 0.99).unwrap_or(0.0);
        format!(
            "{:<7} attempted {:>6} ok {:>6} errors {err} shed {shed} timeouts {timeouts} \
             dropped_conns {} failed_share {:.6} | outstanding max {} mean {:.2} | \
             lag_p99 {lag:.3} ms | drain {:.1} ms{}",
            self.name,
            self.attempted(),
            self.attempted() - self.failed(),
            self.dropped_connections,
            crate::stats::ratio(self.failed() as f64, self.attempted() as f64),
            self.max_outstanding,
            self.mean_outstanding,
            self.drain.as_secs_f64() * 1e3,
            if self.saturated { " | SATURATED" } else { "" },
        )
    }
}

/// What one client sends.
pub enum Gen<'a> {
    /// Reads over ids `0..floor`, a number of objects the daemon holds
    /// throughout the phase.
    Reads {
        spec: &'a Spec,
        rng: Rng,
        floor: u64,
    },
    /// Writes planned ahead of the phase (see
    /// [`crate::workload::Model::plan`]), in order.
    Writes(std::vec::IntoIter<(Op, String)>),
}

impl Gen<'_> {
    /// The next request, or `None` when a writer's plan is used up.
    pub fn next(&mut self) -> Option<(Op, String)> {
        match self {
            Gen::Reads { spec, rng, floor } => Some((Op::Read, read_line(rng, spec.dims, *floor))),
            Gen::Writes(plan) => plan.next(),
        }
    }
}

/// A client connection that splits replies into lines.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            stream,
            buf: Vec::new(),
        })
    }

    pub fn send(&mut self, line: &str) -> std::io::Result<()> {
        let mut bytes = Vec::with_capacity(line.len() + 1);
        bytes.extend_from_slice(line.as_bytes());
        bytes.push(b'\n');
        self.stream.write_all(&bytes)
    }

    /// Wait up to `timeout` for data and hand every complete reply line to
    /// `each`. `Ok(false)`: nothing arrived in time. An error means the
    /// connection is gone. The wait is a `ppoll`: a socket read timeout
    /// rounds up to whole scheduler ticks (up to 10 ms), far coarser than
    /// the open loop's inter-arrival gap.
    pub fn poll_lines(
        &mut self,
        timeout: Duration,
        mut each: impl FnMut(&[u8]),
    ) -> std::io::Result<bool> {
        if !wait_readable(&self.stream, timeout)? {
            return Ok(false);
        }
        self.stream.set_nonblocking(true)?;
        let mut chunk = [0u8; 64 * 1024];
        let read = self.stream.read(&mut chunk);
        self.stream.set_nonblocking(false)?;
        let n = match read {
            Ok(0) => return Err(ErrorKind::UnexpectedEof.into()),
            Ok(n) => n,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {
                return Ok(false)
            }
            Err(e) => return Err(e),
        };
        self.buf.extend_from_slice(&chunk[..n]);
        let mut start = 0;
        while let Some(at) = self.buf[start..].iter().position(|&b| b == b'\n') {
            let end = start + at;
            let line = &self.buf[start..end];
            each(line.strip_suffix(b"\r").unwrap_or(line));
            start = end + 1;
        }
        self.buf.drain(..start);
        Ok(true)
    }

    /// Block (up to [`REPLY_TIMEOUT`]) for exactly one reply line.
    pub fn recv_line(&mut self) -> std::io::Result<Vec<u8>> {
        let deadline = Instant::now() + REPLY_TIMEOUT;
        loop {
            if let Some(at) = self.buf.iter().position(|&b| b == b'\n') {
                let mut line: Vec<u8> = self.buf.drain(..=at).collect();
                line.pop();
                if line.last() == Some(&b'\r') {
                    line.pop();
                }
                return Ok(line);
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(ErrorKind::TimedOut.into());
            }
            self.stream.set_read_timeout(Some(left))?;
            let mut chunk = [0u8; 64 * 1024];
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err(ErrorKind::UnexpectedEof.into()),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// One round trip.
    pub fn request(&mut self, line: &str) -> std::io::Result<Vec<u8>> {
        self.send(line)?;
        self.recv_line()
    }
}

/// Closed loop: `gens.len()` clients, each sending its next request only
/// after the previous reply, for `duration`.
pub fn closed_loop(addr: SocketAddr, gens: Vec<Gen<'_>>, duration: Duration) -> Phase {
    let start = Instant::now();
    let end = start + duration;
    let results: Vec<(Vec<Record>, bool)> = std::thread::scope(|s| {
        let handles: Vec<_> = gens
            .into_iter()
            .map(|mut gen| {
                s.spawn(move || {
                    let mut records = Vec::new();
                    let Ok(mut conn) = Conn::connect(addr) else {
                        return (records, true);
                    };
                    while Instant::now() < end {
                        let Some((op, line)) = gen.next() else {
                            break;
                        };
                        let sent = start.elapsed();
                        let result = conn.request(&line);
                        let done = start.elapsed();
                        let ok = result.is_ok();
                        let reply = result.ok().map(|bytes| Reply::new(&bytes));
                        records.push(Record {
                            op,
                            line,
                            sched: sent,
                            sent,
                            done: ok.then_some(done),
                            reply,
                        });
                        if !ok {
                            return (records, true);
                        }
                    }
                    (records, false)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("closed-loop client panicked"))
            .collect()
    });
    let mut phase = Phase {
        name: "closed",
        records: Vec::new(),
        duration: start.elapsed(),
        dropped_connections: 0,
        max_outstanding: 1,
        mean_outstanding: 1.0,
        drain: Duration::ZERO,
        saturated: false,
    };
    for (records, dropped) in results {
        phase.records.extend(records);
        phase.dropped_connections += u64::from(dropped);
    }
    phase
}

/// Open loop: each client sends requests due at its own fixed rate,
/// evenly spaced, for `duration`, and reads replies while it waits for the
/// next due time. Latency is taken from the due time, so a stall also
/// charges the requests queued behind it.
pub fn open_loop(
    name: &'static str,
    addr: SocketAddr,
    clients: Vec<(Gen<'_>, f64)>,
    duration: Duration,
) -> Phase {
    let n = clients.len() as f64;
    // A backlog still draining this long after the last due send means the
    // daemon did not keep up with the rate.
    let drain_limit = Duration::from_secs_f64((0.1 * duration.as_secs_f64()).max(0.5));
    let give_up = drain_limit + Duration::from_secs(2);
    let start = Instant::now();
    let results: Vec<Client> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(i, (gen, rate))| {
                let interval = Duration::from_secs_f64(1.0 / rate);
                let offset = interval.mul_f64(i as f64 / n);
                let total = (duration.as_secs_f64() * rate).floor() as u64;
                s.spawn(move || open_client(addr, gen, start, offset, interval, total, give_up))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("open-loop client panicked"))
            .collect()
    });
    let last_due = results
        .iter()
        .flat_map(|c| c.records.last().map(|r| r.sched))
        .max()
        .unwrap_or_default();
    let last_done = results
        .iter()
        .flat_map(|c| c.records.iter().filter_map(|r| r.done))
        .max()
        .unwrap_or_default();
    let drain = last_done.saturating_sub(last_due);
    let sends: usize = results.iter().map(|c| c.records.len()).sum();
    let mut phase = Phase {
        name,
        records: Vec::new(),
        duration: start.elapsed(),
        dropped_connections: 0,
        max_outstanding: results.iter().map(|c| c.max_outstanding).max().unwrap_or(0),
        mean_outstanding: crate::stats::ratio(
            results.iter().map(|c| c.outstanding_sum).sum::<u64>() as f64,
            sends as f64,
        ),
        drain,
        saturated: drain > drain_limit,
    };
    for c in results {
        phase.dropped_connections += u64::from(c.dropped);
        phase.records.extend(c.records);
    }
    phase
}

struct Client {
    records: Vec<Record>,
    dropped: bool,
    max_outstanding: usize,
    outstanding_sum: u64,
}

fn open_client(
    addr: SocketAddr,
    mut gen: Gen<'_>,
    start: Instant,
    offset: Duration,
    interval: Duration,
    total: u64,
    give_up: Duration,
) -> Client {
    let mut c = Client {
        records: Vec::with_capacity(total as usize),
        dropped: false,
        max_outstanding: 0,
        outstanding_sum: 0,
    };
    let Ok(mut conn) = Conn::connect(addr) else {
        c.dropped = true;
        return c;
    };
    let due = |k: u64| offset + interval.mul_f64(k as f64);
    let mut pending: VecDeque<usize> = VecDeque::new();
    let mut next = 0u64;
    loop {
        let now = start.elapsed();
        if next < total && now >= due(next) {
            let Some((op, line)) = gen.next() else {
                next = total;
                continue;
            };
            let sent = start.elapsed();
            let ok = conn.send(&line).is_ok();
            c.records.push(Record {
                op,
                line,
                sched: due(next),
                sent,
                done: None,
                reply: None,
            });
            next += 1;
            if !ok {
                c.dropped = true;
                break;
            }
            pending.push_back(c.records.len() - 1);
            c.outstanding_sum += pending.len() as u64;
            c.max_outstanding = c.max_outstanding.max(pending.len());
            continue;
        }
        if next == total && pending.is_empty() {
            break;
        }
        let until = if next < total {
            due(next)
        } else {
            due(total.saturating_sub(1)) + give_up
        };
        if next == total && now >= until {
            break;
        }
        let records = &mut c.records;
        let polled = conn.poll_lines(until.saturating_sub(now), |line| {
            let done = start.elapsed();
            let Some(i) = pending.pop_front() else {
                return;
            };
            let reply = Reply::new(line);
            records[i].done = Some(done);
            records[i].reply = Some(reply);
        });
        if polled.is_err() {
            c.dropped = true;
            break;
        }
    }
    c
}
