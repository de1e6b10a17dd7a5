//! Built-in load generator: drives a running server over real sockets.
//!
//! One blocking client connection per thread, optional request pacing
//! (`rps` split evenly across connections), either transport, and a
//! client-observed latency histogram (log2 buckets, same shape as
//! `tsad-obs`) merged across connections into a [`LoadReport`].
//!
//! This is the measurement harness behind `repro -- loadgen` and the
//! throughput section of `BENCH_ingest.json` — it lives in the library so
//! tests and the bench harness drive the exact same client.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use crate::frame::{self, HEADER_LEN, T_ACK, T_INGEST, T_RETRY, T_SCORE};

/// Which wire format the generated load speaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// `POST /ingest` or `POST /score` over HTTP/1.1 keep-alive.
    Http,
    /// Length-prefixed binary frames.
    Tcp,
}

impl std::str::FromStr for Transport {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "http" => Ok(Self::Http),
            "tcp" => Ok(Self::Tcp),
            other => Err(format!("unknown transport `{other}` (use http|tcp)")),
        }
    }
}

impl Transport {
    /// The lowercase flag spelling.
    pub fn name(self) -> &'static str {
        match self {
            Self::Http => "http",
            Self::Tcp => "tcp",
        }
    }
}

/// Load shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoadGenConfig {
    /// Series-id space: ids cycle through `0..series`.
    pub series: u64,
    /// Target requests/second across all connections (0 = unpaced).
    pub rps: u64,
    /// Concurrent client connections (one thread each).
    pub conns: usize,
    /// Wire format.
    pub transport: Transport,
    /// Points per request batch.
    pub batch_points: usize,
    /// Total requests across all connections (0 = run for `duration`).
    pub requests: u64,
    /// Wall-clock run length when `requests == 0`.
    pub duration: Duration,
    /// Ask for per-point scores (`/score` / `SCORE`) instead of bare
    /// ingest acks.
    pub score: bool,
    /// Seed for the generated values.
    pub seed: u64,
}

impl Default for LoadGenConfig {
    fn default() -> Self {
        Self {
            series: 10_000,
            rps: 0,
            conns: 4,
            transport: Transport::Http,
            batch_points: 64,
            requests: 10_000,
            duration: Duration::from_secs(5),
            score: false,
            seed: 42,
        }
    }
}

/// Retry budget for backpressure responses: a 503 / `RETRY` answer is
/// resent after an exponential backoff of `1ms << (attempt - 1)`, capped
/// at [`BACKOFF_CAP`], for at most this many attempts total.
pub const MAX_ATTEMPTS: u32 = 8;
/// Longest single backoff sleep between resends.
pub const BACKOFF_CAP: Duration = Duration::from_millis(64);

/// What the clients observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LoadReport {
    /// Requests answered with a success response.
    pub requests: u64,
    /// Requests still answered with backpressure (503 / `RETRY`) after
    /// the bounded retry budget was exhausted.
    pub retried: u64,
    /// Backoff resends triggered by 503 / `RETRY` responses (one request
    /// can contribute up to [`MAX_ATTEMPTS`]` - 1`).
    pub retries: u64,
    /// Requests that failed (I/O error, unexpected response, timeout).
    pub errors: u64,
    /// Points carried by successful requests.
    pub points: u64,
    /// Wall-clock nanoseconds for the whole run.
    pub elapsed_ns: u64,
    /// Client-observed request latency quantiles, nanoseconds (log2
    /// bucket upper bounds) and exact max.
    pub p50_ns: u64,
    /// 95th percentile.
    pub p95_ns: u64,
    /// 99th percentile.
    pub p99_ns: u64,
    /// Exact slowest request.
    pub max_ns: u64,
}

impl LoadReport {
    /// Successful requests per second.
    pub fn rps(&self) -> f64 {
        if self.elapsed_ns == 0 {
            return 0.0;
        }
        self.requests as f64 * 1e9 / self.elapsed_ns as f64
    }

    /// Points per second through successful requests.
    pub fn points_per_sec(&self) -> f64 {
        if self.elapsed_ns == 0 {
            return 0.0;
        }
        self.points as f64 * 1e9 / self.elapsed_ns as f64
    }
}

/// Per-thread tally merged into the final report.
#[derive(Debug, Clone)]
struct ClientTally {
    requests: u64,
    retried: u64,
    retries: u64,
    errors: u64,
    points: u64,
    buckets: [u64; 64],
    max_ns: u64,
}

impl ClientTally {
    fn new() -> Self {
        Self {
            requests: 0,
            retried: 0,
            retries: 0,
            errors: 0,
            points: 0,
            buckets: [0; 64],
            max_ns: 0,
        }
    }

    fn record_latency(&mut self, ns: u64) {
        self.buckets[tsad_obs::bucket_index(ns)] += 1;
        self.max_ns = self.max_ns.max(ns);
    }
}

/// Tiny deterministic generator for load values (SplitMix64 core).
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Runs the configured load against `addr` and reports what the clients
/// saw. Connections run on scoped threads; the call blocks until done.
pub fn run(addr: SocketAddr, cfg: &LoadGenConfig) -> LoadReport {
    let conns = cfg.conns.max(1);
    let per_conn_requests = if cfg.requests == 0 {
        0
    } else {
        cfg.requests.div_ceil(conns as u64)
    };
    // Pacing: each connection fires every `conns / rps` seconds.
    let interval_ns = if cfg.rps == 0 {
        0
    } else {
        (1_000_000_000u64 * conns as u64) / cfg.rps.max(1)
    };

    let start = Instant::now();
    let mut tallies: Vec<ClientTally> = Vec::new();
    tsad_parallel::scope(|s| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                s.spawn(move || client_loop(addr, cfg, c as u64, per_conn_requests, interval_ns))
            })
            .collect();
        for h in handles {
            tallies.push(h.join().unwrap_or_else(|_| ClientTally::new()));
        }
    });
    let elapsed_ns = start.elapsed().as_nanos().min(u64::MAX as u128) as u64;

    let mut merged = ClientTally::new();
    for t in &tallies {
        merged.requests += t.requests;
        merged.retried += t.retried;
        merged.retries += t.retries;
        merged.errors += t.errors;
        merged.points += t.points;
        merged.max_ns = merged.max_ns.max(t.max_ns);
        for (m, b) in merged.buckets.iter_mut().zip(&t.buckets) {
            *m += b;
        }
    }
    LoadReport {
        requests: merged.requests,
        retried: merged.retried,
        retries: merged.retries,
        errors: merged.errors,
        points: merged.points,
        elapsed_ns,
        p50_ns: tsad_obs::quantile_from_buckets(&merged.buckets, 0.50),
        p95_ns: tsad_obs::quantile_from_buckets(&merged.buckets, 0.95),
        p99_ns: tsad_obs::quantile_from_buckets(&merged.buckets, 0.99),
        max_ns: merged.max_ns,
    }
}

/// One client connection's request loop.
fn client_loop(
    addr: SocketAddr,
    cfg: &LoadGenConfig,
    conn_index: u64,
    per_conn_requests: u64,
    interval_ns: u64,
) -> ClientTally {
    let mut tally = ClientTally::new();
    let Ok(mut stream) = TcpStream::connect(addr) else {
        tally.errors += 1;
        return tally;
    };
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));

    let mut rng = Rng(cfg.seed ^ (conn_index.wrapping_mul(0x9E37_79B9_7F4A_7C15)));
    let mut next_id = conn_index; // interleave the id space across conns
    let mut req_buf: Vec<u8> = Vec::new();
    let mut body_buf: Vec<u8> = Vec::new();
    let mut resp_buf: Vec<u8> = Vec::new();

    let started = Instant::now();
    let mut sent = 0u64;
    loop {
        if per_conn_requests > 0 {
            if sent >= per_conn_requests {
                break;
            }
        } else if started.elapsed() >= cfg.duration {
            break;
        }
        if interval_ns > 0 {
            let due = Duration::from_nanos(sent.saturating_mul(interval_ns));
            let now = started.elapsed();
            if due > now {
                std::thread::sleep(due - now);
            }
        }

        // Build the batch: round-robin ids, pseudo-random values.
        req_buf.clear();
        body_buf.clear();
        let batch_points = cfg.batch_points.max(1);
        match cfg.transport {
            Transport::Http => {
                for _ in 0..batch_points {
                    let id = next_id % cfg.series.max(1);
                    next_id = next_id.wrapping_add(cfg.conns as u64);
                    let _ = writeln!(body_buf, "{} {}", id, rng.next_f64());
                }
                let path = if cfg.score { "/score" } else { "/ingest" };
                let _ = write!(
                    req_buf,
                    "POST {path} HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
                    body_buf.len()
                );
                req_buf.extend_from_slice(&body_buf);
            }
            Transport::Tcp => {
                for _ in 0..batch_points {
                    let id = next_id % cfg.series.max(1);
                    next_id = next_id.wrapping_add(cfg.conns as u64);
                    frame::write_point(&mut body_buf, id, rng.next_f64());
                }
                let ftype = if cfg.score { T_SCORE } else { T_INGEST };
                frame::write_frame(&mut req_buf, ftype, &body_buf);
            }
        }

        // Honor backpressure: resend the same request after a bounded
        // exponential backoff instead of dropping it on the floor.
        let mut attempt = 1u32;
        let mut ns = 0u64;
        let outcome = loop {
            let t0 = Instant::now();
            if stream.write_all(&req_buf).is_err() {
                break Err(std::io::Error::from(std::io::ErrorKind::BrokenPipe));
            }
            let r = match cfg.transport {
                Transport::Http => read_http_response(&mut stream, &mut resp_buf),
                Transport::Tcp => read_frame_response(&mut stream, &mut resp_buf),
            };
            // latency of the last attempt only: backoff sleeps are the
            // client's choice, not server time
            ns = t0.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            match r {
                Ok(Outcome::Retry) if attempt < MAX_ATTEMPTS => {
                    tally.retries += 1;
                    std::thread::sleep(backoff(attempt));
                    attempt += 1;
                }
                other => break other,
            }
        };
        sent += 1;
        match outcome {
            Ok(Outcome::Ok) => {
                tally.requests += 1;
                tally.points += batch_points as u64;
                tally.record_latency(ns);
            }
            Ok(Outcome::Retry) => {
                // still shedding after the whole budget: give up on this
                // request and move on
                tally.retried += 1;
                tally.record_latency(ns);
            }
            Ok(Outcome::Error) | Err(_) => {
                tally.errors += 1;
                break; // the server closes after error responses
            }
        }
    }
    tally
}

/// Backoff before resend number `attempt + 1`: `1ms << (attempt - 1)`,
/// capped at [`BACKOFF_CAP`] (1ms, 2ms, 4ms, … 64ms).
fn backoff(attempt: u32) -> Duration {
    let ms = 1u64 << (attempt - 1).min(63);
    Duration::from_millis(ms).min(BACKOFF_CAP)
}

/// How the server answered one request.
enum Outcome {
    Ok,
    Retry,
    Error,
}

/// Reads one HTTP/1.1 response (head + `Content-Length` body).
fn read_http_response(stream: &mut TcpStream, buf: &mut Vec<u8>) -> std::io::Result<Outcome> {
    buf.clear();
    let mut chunk = [0u8; 4096];
    let (head_len, content_length, status) = loop {
        if let Some(head_len) = find_head_end(buf) {
            let status = parse_status(buf);
            let content_length = parse_content_length(&buf[..head_len]);
            break (head_len, content_length, status);
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    while buf.len() < head_len + content_length {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        buf.extend_from_slice(&chunk[..n]);
    }
    Ok(match status {
        200 => Outcome::Ok,
        503 => Outcome::Retry,
        _ => Outcome::Error,
    })
}

/// Reads one binary frame response.
fn read_frame_response(stream: &mut TcpStream, buf: &mut Vec<u8>) -> std::io::Result<Outcome> {
    buf.clear();
    buf.resize(HEADER_LEN, 0);
    stream.read_exact(buf)?;
    let len = u32::from_le_bytes(buf[4..8].try_into().expect("4-byte slice")) as usize;
    let ftype = buf[2];
    buf.resize(HEADER_LEN + len, 0);
    stream.read_exact(&mut buf[HEADER_LEN..])?;
    Ok(match ftype {
        T_RETRY => Outcome::Retry,
        frame::T_ERROR => Outcome::Error,
        T_ACK | frame::T_SCORES => Outcome::Ok,
        _ => Outcome::Ok, // pong/query/snapshot responses
    })
}

/// Index just past the first blank line, if buffered.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n").map(|i| i + 4)
}

/// The status code from `HTTP/1.1 NNN ...` (0 when malformed).
fn parse_status(buf: &[u8]) -> u16 {
    buf.get(9..12)
        .and_then(|b| std::str::from_utf8(b).ok())
        .and_then(|t| t.parse().ok())
        .unwrap_or(0)
}

/// `Content-Length` from a response head (0 when absent).
fn parse_content_length(head: &[u8]) -> usize {
    let Ok(text) = std::str::from_utf8(head) else {
        return 0;
    };
    for line in text.split("\r\n") {
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                return value.trim().parse().unwrap_or(0);
            }
        }
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_quantiles_walk_the_merged_histogram() {
        let mut b = [0u64; 64];
        b[tsad_obs::bucket_index(100)] = 90;
        b[tsad_obs::bucket_index(10_000)] = 10;
        assert_eq!(
            tsad_obs::quantile_from_buckets(&b, 0.5),
            tsad_obs::bucket_upper_bound(7)
        );
        assert_eq!(
            tsad_obs::quantile_from_buckets(&b, 0.99),
            tsad_obs::bucket_upper_bound(tsad_obs::bucket_index(10_000))
        );
        assert_eq!(tsad_obs::quantile_from_buckets(&[0; 64], 0.5), 0);
    }

    #[test]
    fn response_head_helpers() {
        let head = b"HTTP/1.1 503 Service Unavailable\r\nContent-Length: 12\r\n\r\n";
        assert_eq!(parse_status(head), 503);
        assert_eq!(parse_content_length(head), 12);
        assert_eq!(find_head_end(head), Some(head.len()));
    }

    #[test]
    fn transport_parses_from_flags() {
        assert_eq!("http".parse::<Transport>().unwrap(), Transport::Http);
        assert_eq!("tcp".parse::<Transport>().unwrap(), Transport::Tcp);
        assert!("udp".parse::<Transport>().is_err());
    }
}
