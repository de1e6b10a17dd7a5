//! The load generator: one thread, two nonblocking connections, exact
//! latency.
//!
//! Unlike `tsad_ingest::loadgen` (one blocking thread per connection,
//! closed loop, log2 latency buckets), this generator drives both
//! connections from the calling thread, keeps every latency sample, and
//! in the open-loop phase times each request from its *scheduled* send
//! time, so a server stall is charged to every request it delays. It also
//! records how late each request actually left, so a generator that fell
//! behind its own schedule is visible rather than hidden in the latency.
//!
//! Connection `c` only ever sends ids `≡ c (mod 2)`, so the two streams
//! touch disjoint series and each series sees its points in a fixed order
//! whatever the interleaving at the server.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use tsad_ingest::frame::{self, HEADER_LEN, T_ACK, T_INGEST};

/// Client connections per workload.
pub const CONNS: usize = 2;

/// How long a phase may go without a single byte of progress before the
/// generator gives up on the server.
const STALL_LIMIT: Duration = Duration::from_secs(30);

/// Wire format of the generated requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wire {
    /// Binary `INGEST` frames, answered by `ACK` frames.
    Binary,
    /// HTTP/1.1 `POST /score` with a text body, answered with JSON scores.
    Http,
}

/// Which series the points after the warm pass address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ids {
    /// Cycle through the connection's half of the id space.
    RoundRobin,
    /// Uniformly random ids in the connection's half, seeded.
    Random,
}

/// The traffic a workload sends.
#[derive(Debug, Clone, Copy)]
pub struct Load {
    /// Wire format.
    pub wire: Wire,
    /// Series across both connections (even).
    pub series: u64,
    /// Points per request.
    pub batch: usize,
    /// Id order after the warm pass.
    pub ids: Ids,
    /// Input seed.
    pub seed: u64,
}

/// Rounds through the id space, in id order, before [`Load::ids`] applies:
/// the warm round and the settle rounds. Each detector has then had its
/// training points and one more.
pub const ORDERED_ROUNDS: u64 = crate::TRAIN as u64 + 1;

impl Load {
    /// Requests per connection in the warm pass: each series once.
    pub fn warm_requests(&self) -> u64 {
        (self.series / CONNS as u64).div_ceil(self.batch as u64)
    }

    /// Requests per connection after the warm pass that complete the
    /// ordered rounds.
    pub fn settle_requests(&self) -> u64 {
        (self.series / CONNS as u64 * ORDERED_ROUNDS).div_ceil(self.batch as u64)
            - self.warm_requests()
    }
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The value of the `k`-th point a connection sends to series `id`: a
/// finite decimal with at most two fractional digits, so its text form
/// parses back to the same bits.
pub fn value(seed: u64, id: u64, k: u64) -> f64 {
    let mut x = seed
        .wrapping_add(id.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(k.wrapping_mul(0xbf58_476d_1ce4_e5b9));
    x ^= x >> 30;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    (x % 4000) as f64 / 100.0 - 20.0
}

/// The deterministic point stream of one connection. The first
/// [`ORDERED_ROUNDS`] × `series / 2` points visit the connection's series
/// in id order, round after round (warm and settle); later points follow
/// [`Load::ids`].
#[derive(Debug, Clone)]
pub struct Points {
    seed: u64,
    ids: Ids,
    conn: u64,
    half: u64,
    sent: u64,
    rng: u64,
}

impl Points {
    /// The stream of connection `conn`.
    pub fn new(load: &Load, conn: usize) -> Self {
        Self {
            seed: load.seed,
            ids: load.ids,
            conn: conn as u64,
            half: (load.series / CONNS as u64).max(1),
            sent: 0,
            rng: load.seed ^ (conn as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F),
        }
    }

    /// The next `(series id, value)`.
    pub fn next_point(&mut self) -> (u64, f64) {
        let k = self.sent;
        self.sent += 1;
        let slot = if k < self.half * ORDERED_ROUNDS || self.ids == Ids::RoundRobin {
            k % self.half
        } else {
            splitmix(&mut self.rng) % self.half
        };
        let id = slot * CONNS as u64 + self.conn;
        (id, value(self.seed, id, k))
    }
}

/// Renders the next request of `points` into `out` (appended).
pub fn render(load: &Load, points: &mut Points, out: &mut Vec<u8>, body: &mut Vec<u8>) {
    match load.wire {
        Wire::Binary => {
            frame::write_header(out, T_INGEST, load.batch * frame::POINT_BYTES);
            for _ in 0..load.batch {
                let (id, v) = points.next_point();
                frame::write_point(out, id, v);
            }
        }
        Wire::Http => {
            body.clear();
            for _ in 0..load.batch {
                let (id, v) = points.next_point();
                let _ = writeln!(body, "{id} {v}");
            }
            let _ = write!(
                out,
                "POST /score HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
                body.len()
            );
            out.extend_from_slice(body);
        }
    }
}

/// One answered request. Times are nanoseconds since the generator's
/// epoch.
#[derive(Debug, Clone, Copy)]
pub struct Done {
    /// Connection index.
    pub conn: u32,
    /// Request number on that connection.
    pub seq: u64,
    /// When the request was due.
    pub sched: u64,
    /// When its first byte was written.
    pub sent: u64,
    /// When the last byte of its response was read.
    pub acked: u64,
    /// Whether the response was a success that passed the inline checks.
    pub ok: bool,
}

#[derive(Debug, Clone, Copy)]
struct Req {
    seq: u64,
    start: usize,
    sched: u64,
    sent: u64,
}

struct Client {
    stream: TcpStream,
    points: Points,
    out: Vec<u8>,
    out_pos: usize,
    unsent: VecDeque<Req>,
    inflight: VecDeque<Req>,
    inbuf: Vec<u8>,
    next_seq: u64,
    /// Response bodies of the first requests, kept for the score check.
    kept: Vec<Vec<u8>>,
}

impl Client {
    fn outstanding(&self) -> usize {
        self.unsent.len() + self.inflight.len()
    }
}

/// Counts of what the server answered.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Requests sent.
    pub attempted: u64,
    /// Requests answered with anything but a clean success.
    pub failed: u64,
    /// The first few failures, described.
    pub failures: Vec<String>,
}

/// The generator. All methods run on the calling thread.
pub struct Gen {
    load: Load,
    clients: Vec<Client>,
    epoch: Instant,
    keep: usize,
    body: Vec<u8>,
    readbuf: Vec<u8>,
    done: Vec<Done>,
    /// What the server answered so far.
    pub tally: Tally,
}

impl Gen {
    /// Connects both clients to `addr`. The first `keep` response bodies
    /// per connection are kept (HTTP only).
    pub fn connect(addr: SocketAddr, load: Load, keep: usize) -> io::Result<Self> {
        let mut clients = Vec::with_capacity(CONNS);
        for c in 0..CONNS {
            let stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true)?;
            stream.set_nonblocking(true)?;
            clients.push(Client {
                stream,
                points: Points::new(&load, c),
                out: Vec::new(),
                out_pos: 0,
                unsent: VecDeque::new(),
                inflight: VecDeque::new(),
                inbuf: Vec::new(),
                next_seq: 0,
                kept: Vec::new(),
            });
        }
        Ok(Self {
            load,
            clients,
            epoch: Instant::now(),
            keep,
            body: Vec::new(),
            readbuf: vec![0; 1 << 16],
            done: Vec::new(),
            tally: Tally::default(),
        })
    }

    /// Nanoseconds since the generator's epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// The instant all of the generator's times count from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// The kept response bodies of connection `conn`.
    pub fn kept(&self, conn: usize) -> &[Vec<u8>] {
        &self.clients[conn].kept
    }

    fn queue(&mut self, conn: usize, sched: u64) {
        let c = &mut self.clients[conn];
        let start = c.out.len();
        render(&self.load, &mut c.points, &mut c.out, &mut self.body);
        c.unsent.push_back(Req {
            seq: c.next_seq,
            start,
            sched,
            sent: 0,
        });
        c.next_seq += 1;
        self.tally.attempted += 1;
    }

    /// Writes pending bytes and reads every available response on both
    /// connections. Returns whether any byte moved.
    fn pump(&mut self) -> io::Result<bool> {
        let mut progressed = false;
        for ci in 0..self.clients.len() {
            progressed |= self.flush(ci)?;
            progressed |= self.receive(ci)?;
        }
        Ok(progressed)
    }

    fn flush(&mut self, ci: usize) -> io::Result<bool> {
        let c = &mut self.clients[ci];
        let mut progressed = false;
        while c.out_pos < c.out.len() {
            // A request leaves when the write carrying its first byte
            // starts; the syscall's own cost is server-bound latency.
            let started = self.epoch.elapsed().as_nanos() as u64;
            match c.stream.write(&c.out[c.out_pos..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => {
                    c.out_pos += n;
                    progressed = true;
                    while c.unsent.front().is_some_and(|r| r.start < c.out_pos) {
                        let mut r = c.unsent.pop_front().expect("checked front");
                        r.sent = started;
                        c.inflight.push_back(r);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        if c.out_pos == c.out.len() && c.out_pos > 0 {
            c.out.clear();
            c.out_pos = 0;
        }
        Ok(progressed)
    }

    fn receive(&mut self, ci: usize) -> io::Result<bool> {
        let mut progressed = false;
        loop {
            let n = match self.clients[ci].stream.read(&mut self.readbuf) {
                Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(n) => n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            progressed = true;
            let acked = self.now();
            self.clients[ci].inbuf.extend_from_slice(&self.readbuf[..n]);
            self.parse_replies(ci, acked)?;
        }
        Ok(progressed)
    }

    fn parse_replies(&mut self, ci: usize, acked: u64) -> io::Result<()> {
        let inbuf = std::mem::take(&mut self.clients[ci].inbuf);
        let mut pos = 0;
        let result = loop {
            let buf = &inbuf[pos..];
            let (len, reply) = match parse_reply(self.load.wire, buf) {
                Ok(Some(r)) => r,
                Ok(None) => break Ok(()),
                Err(e) => break Err(e),
            };
            let batch = self.load.batch as u64;
            let ok =
                reply.success && matches!(reply.counts, Some((points, _, 0, 0)) if points == batch);
            let c = &mut self.clients[ci];
            let Some(req) = c.inflight.pop_front() else {
                break Err(io::Error::other("response without an outstanding request"));
            };
            if self.load.wire == Wire::Http && (req.seq as usize) < self.keep {
                c.kept.push(buf[reply.body.clone()].to_vec());
            }
            if !ok {
                self.tally.failed += 1;
                if self.tally.failures.len() < 8 {
                    self.tally.failures.push(format!(
                        "conn {ci} request {}: {}",
                        req.seq,
                        String::from_utf8_lossy(&buf[..len.min(160)])
                    ));
                }
            }
            self.done.push(Done {
                conn: ci as u32,
                seq: req.seq,
                sched: req.sched,
                sent: req.sent,
                acked,
                ok,
            });
            pos += len;
        };
        let c = &mut self.clients[ci];
        c.inbuf = inbuf;
        c.inbuf.drain(..pos);
        result
    }

    fn idle(&self) -> bool {
        self.clients.iter().all(|c| c.outstanding() == 0)
    }

    /// One pass of [`Gen::pump`]. When nothing moved, yields the core
    /// rather than spinning: a spinning generator delays the kernel work
    /// (loopback, fsync completion) queued behind it. `last` is when a
    /// byte last moved; a server silent for `STALL_LIMIT` is an error.
    fn step(&mut self, last: &mut Instant) -> io::Result<()> {
        if self.pump()? {
            *last = Instant::now();
        } else if last.elapsed() > STALL_LIMIT {
            return Err(io::Error::new(io::ErrorKind::TimedOut, "server stalled"));
        } else {
            std::thread::yield_now();
        }
        Ok(())
    }

    /// Pumps until every outstanding request is answered.
    pub fn drain(&mut self) -> io::Result<()> {
        let mut last = Instant::now();
        while !self.idle() {
            self.step(&mut last)?;
        }
        Ok(())
    }

    /// The warm pass: one request at a time, alternating connections, so
    /// the server sees the same order on every run. Every series gets one
    /// point, in id order.
    pub fn warm(&mut self) -> io::Result<()> {
        for _ in 0..self.load.warm_requests() {
            for c in 0..CONNS {
                let now = self.now();
                self.queue(c, now);
                self.drain()?;
            }
        }
        self.done.clear();
        Ok(())
    }

    /// Closed loop, `depth` outstanding per connection, until every series
    /// has had [`ORDERED_ROUNDS`] points in id order: each detector is
    /// then past its training, so the phases after this one measure the
    /// steady state.
    pub fn settle(&mut self, depth: usize) -> io::Result<()> {
        let mut left = [self.load.settle_requests(); CONNS];
        let mut last = Instant::now();
        while left.iter().any(|&n| n > 0) || !self.idle() {
            let now = self.now();
            for (c, left) in left.iter_mut().enumerate() {
                while *left > 0 && self.clients[c].outstanding() < depth {
                    self.queue(c, now);
                    *left -= 1;
                }
            }
            self.step(&mut last)?;
            self.done.clear();
        }
        Ok(())
    }

    /// Closed loop for `dur`: each connection keeps `depth` requests
    /// outstanding. Returns when each successful request that was answered
    /// within `dur` was acknowledged, in nanoseconds from the start.
    pub fn saturate(&mut self, dur: Duration, depth: usize) -> io::Result<Vec<u64>> {
        let start = self.now();
        let end = start + dur.as_nanos() as u64;
        let mut acks = Vec::new();
        let mut last = Instant::now();
        loop {
            let now = self.now();
            if now < end {
                for c in 0..CONNS {
                    while self.clients[c].outstanding() < depth {
                        self.queue(c, now);
                    }
                }
            } else if self.idle() {
                break;
            }
            self.step(&mut last)?;
            acks.extend(
                self.done
                    .drain(..)
                    .filter(|d| d.ok && d.acked < end)
                    .map(|d| d.acked - start),
            );
        }
        Ok(acks)
    }

    /// Open loop for `dur` at `rate` requests/s across both connections,
    /// request `k` due at `start + k / rate` on connection `k % 2`.
    /// Returns every answered request.
    pub fn paced(&mut self, dur: Duration, rate: f64) -> io::Result<Vec<Done>> {
        let total = (dur.as_secs_f64() * rate).round().max(1.0) as u64;
        let interval = 1e9 / rate;
        let start = self.now() + 1_000_000;
        let mut out = Vec::with_capacity(total as usize);
        let mut k = 0u64;
        let mut last = Instant::now();
        while k < total || !self.idle() {
            let now = self.now();
            while k < total {
                let due = start + (k as f64 * interval) as u64;
                if due > now {
                    break;
                }
                self.queue(k as usize % CONNS, due);
                k += 1;
            }
            self.step(&mut last)?;
            out.append(&mut self.done);
        }
        Ok(out)
    }
}

/// A parsed response: where its body sits, whether the status was a
/// success, and the four counts every batch response carries.
struct Reply {
    body: std::ops::Range<usize>,
    success: bool,
    /// `(points, spawned, quarantined, evicted)`.
    counts: Option<(u64, u64, u64, u64)>,
}

/// Parses one complete response from the front of `buf`: `Ok(None)` when
/// more bytes are needed, otherwise its length and contents.
fn parse_reply(wire: Wire, buf: &[u8]) -> io::Result<Option<(usize, Reply)>> {
    match wire {
        Wire::Binary => {
            if buf.len() < HEADER_LEN {
                return Ok(None);
            }
            let len = u32::from_le_bytes(buf[4..8].try_into().expect("4 bytes")) as usize;
            if buf.len() < HEADER_LEN + len {
                return Ok(None);
            }
            let payload = &buf[HEADER_LEN..HEADER_LEN + len];
            let success = buf[2] == T_ACK && len == 32;
            let counts = success.then(|| {
                let w = |i: usize| {
                    u64::from_le_bytes(payload[i * 8..i * 8 + 8].try_into().expect("8 bytes"))
                };
                (w(0), w(1), w(2), w(3))
            });
            Ok(Some((
                HEADER_LEN + len,
                Reply {
                    body: HEADER_LEN..HEADER_LEN + len,
                    success,
                    counts,
                },
            )))
        }
        Wire::Http => {
            let Some(head_len) = buf.windows(4).position(|w| w == b"\r\n\r\n").map(|i| i + 4)
            else {
                return Ok(None);
            };
            let head = std::str::from_utf8(&buf[..head_len])
                .map_err(|_| io::Error::other("response head is not UTF-8"))?;
            let status: u16 = head.get(9..12).and_then(|s| s.parse().ok()).unwrap_or(0);
            let content_length: usize = head
                .split("\r\n")
                .find_map(|l| l.strip_prefix("Content-Length: "))
                .and_then(|v| v.trim().parse().ok())
                .ok_or_else(|| io::Error::other("response without Content-Length"))?;
            if buf.len() < head_len + content_length {
                return Ok(None);
            }
            let body = head_len..head_len + content_length;
            let counts = (status == 200)
                .then(|| batch_counts(&buf[body.clone()]))
                .flatten();
            Ok(Some((
                head_len + content_length,
                Reply {
                    body,
                    success: status == 200,
                    counts,
                },
            )))
        }
    }
}

/// Reads `{"points":P,"spawned":S,"quarantined":Q,"evicted":E,...` from
/// the front of a batch response body.
fn batch_counts(body: &[u8]) -> Option<(u64, u64, u64, u64)> {
    let mut rest = body.strip_prefix(b"{")?;
    let mut field = |name: &[u8]| -> Option<u64> {
        rest = rest
            .strip_prefix(b"\"")?
            .strip_prefix(name)?
            .strip_prefix(b"\":")?;
        let digits = rest.iter().take_while(|b| b.is_ascii_digit()).count();
        let v = std::str::from_utf8(&rest[..digits]).ok()?.parse().ok()?;
        rest = &rest[digits..];
        rest = rest.strip_prefix(b",").unwrap_or(rest);
        Some(v)
    };
    Some((
        field(b"points")?,
        field(b"spawned")?,
        field(b"quarantined")?,
        field(b"evicted")?,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn load(ids: Ids) -> Load {
        Load {
            wire: Wire::Binary,
            series: 8,
            batch: 2,
            ids,
            seed: 1,
        }
    }

    #[test]
    fn warm_and_settle_rounds_visit_each_series_of_the_half_in_order() {
        let load = load(Ids::Random);
        let mut p = Points::new(&load, 1);
        for _ in 0..ORDERED_ROUNDS {
            let ids: Vec<u64> = (0..4).map(|_| p.next_point().0).collect();
            assert_eq!(ids, [1, 3, 5, 7]);
        }
        // afterwards random, but still odd and in range
        for _ in 0..100 {
            let id = p.next_point().0;
            assert!(id % 2 == 1 && id < 8, "{id}");
        }
        let sent = (load.warm_requests() + load.settle_requests()) * load.batch as u64;
        assert_eq!(sent, 4 * ORDERED_ROUNDS);
    }

    #[test]
    fn values_survive_their_text_form() {
        for k in 0..10_000 {
            let v = value(42, k % 97, k);
            assert_eq!(
                format!("{v}").parse::<f64>().unwrap().to_bits(),
                v.to_bits()
            );
        }
    }

    #[test]
    fn batch_counts_read_the_response_prefix() {
        let body = br#"{"points":32,"spawned":4,"quarantined":0,"evicted":0,"scores":[]}"#;
        assert_eq!(batch_counts(body), Some((32, 4, 0, 0)));
        assert_eq!(batch_counts(b"{\"error\":\"x\"}"), None);
    }
}
