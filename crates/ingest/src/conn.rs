//! The sans-IO connection state machine.
//!
//! [`Conn::feed`] is the whole protocol: bytes from the peer go in,
//! response bytes accumulate in the connection's output buffer, and the
//! socket layer (or a test, or a fuzzer) shovels both ends. No sockets,
//! no waiting, no spawning — which is what makes slowloris a unit test
//! ("feed one byte at a time") and the zero-allocation claim measurable
//! (wrap `feed` in the counting allocator; see
//! `crates/bench/tests/ingest_gates.rs`).
//!
//! The first byte of a connection selects the transport: `0xB5`
//! ([`frame::FRAME_MAGIC`]) is not a valid first byte of an HTTP method,
//! so binary framing and HTTP/1.1 share a port unambiguously.
//!
//! All buffers (`in_buf`, `out`, the decoded point batch, the fleet's
//! [`BatchOutput`], the response-body scratch) are owned by the
//! connection and reused across requests: they grow to their high-water
//! mark on the first few requests and never allocate again in steady
//! state.

use std::io::Write as _;
use std::time::Instant;

use tsad_fleet::{BatchOutput, SeriesId};
use tsad_stream::DetectorFactory;

use crate::engine::{BatchLog, Engine, SubmitError, SubmitTiming};
use crate::frame::{
    self, FrameError, FRAME_MAGIC, HEADER_LEN, T_ACK, T_ERROR, T_INGEST, T_PING, T_PONG, T_QUERY,
    T_QUERY_RESP, T_RETRY, T_SCORE, T_SCORES, T_SNAPSHOT, T_SNAP_RESP,
};
use crate::http::{parse_head, query_param, HttpError};
use crate::{
    INGEST_ERRORS, INGEST_OVERHEAD_NS, INGEST_PARSE_NS, INGEST_REQUESTS, INGEST_REQUEST_NS,
    INGEST_RESPOND_NS, INGEST_ROUTE_NS,
};

/// Per-connection bounds. Both caps are enforced *before* buffering: a
/// declared length over the cap is refused without growing anything.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConnConfig {
    /// Largest accepted HTTP head (request line + headers).
    pub max_head_bytes: usize,
    /// Largest accepted HTTP body / binary frame payload.
    pub max_body_bytes: usize,
}

impl Default for ConnConfig {
    fn default() -> Self {
        Self {
            max_head_bytes: 8 * 1024,
            max_body_bytes: 1 << 20,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// No bytes seen yet; the first byte picks the transport.
    Sniff,
    Http,
    Binary,
}

/// An HTTP request reduced to owned routing data (so the borrow of the
/// input buffer can end before buffers are mutated).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum HttpRoute {
    /// `POST /ingest` (`score=false`) or `POST /score` (`score=true`).
    Batch {
        score: bool,
    },
    Query {
        id: Option<u64>,
    },
    Stats,
    Snapshot,
    Healthz,
    NotFound,
    MethodNotAllowed,
}

/// One connection's protocol state and reusable buffers.
pub struct Conn {
    cfg: ConnConfig,
    mode: Mode,
    in_buf: Vec<u8>,
    out: Vec<u8>,
    batch: Vec<(SeriesId, f64)>,
    bout: BatchOutput,
    body_scratch: Vec<u8>,
    /// Parse time accumulated across feeds for the request in progress.
    pending_parse_ns: u64,
    closing: bool,
    requests: u64,
}

impl Conn {
    /// A fresh connection in sniffing state.
    pub fn new(cfg: ConnConfig) -> Self {
        Self {
            cfg,
            mode: Mode::Sniff,
            in_buf: Vec::new(),
            out: Vec::new(),
            batch: Vec::new(),
            bout: BatchOutput::new(),
            body_scratch: Vec::new(),
            pending_parse_ns: 0,
            closing: false,
            requests: 0,
        }
    }

    /// Feeds bytes from the peer and processes every complete request in
    /// the buffer (pipelining works). Responses accumulate in
    /// [`Conn::output`].
    pub fn feed<F, L>(&mut self, bytes: &[u8], engine: &Engine<F, L>)
    where
        F: DetectorFactory,
        F::Detector: Sync,
        L: BatchLog,
    {
        if self.closing {
            return; // a closing connection reads nothing more
        }
        self.in_buf.extend_from_slice(bytes);
        if self.mode == Mode::Sniff {
            match self.in_buf.first() {
                Some(&b) if b == FRAME_MAGIC => self.mode = Mode::Binary,
                Some(_) => self.mode = Mode::Http,
                None => return,
            }
        }
        while !self.closing {
            let progressed = match self.mode {
                Mode::Http => self.step_http(engine),
                Mode::Binary => self.step_binary(engine),
                Mode::Sniff => false,
            };
            if !progressed {
                break;
            }
        }
    }

    /// Response bytes awaiting the socket layer.
    pub fn output(&self) -> &[u8] {
        &self.out
    }

    /// Marks `n` output bytes as written to the peer.
    pub fn consume_output(&mut self, n: usize) {
        self.out.drain(..n);
    }

    /// True once the connection should close after the output drains.
    pub fn wants_close(&self) -> bool {
        self.closing
    }

    /// True while a partially received request sits in the input buffer
    /// (the server applies the idle deadline to exactly these).
    pub fn has_partial(&self) -> bool {
        !self.closing && !self.in_buf.is_empty()
    }

    /// Requests answered so far (progress marker for deadline tracking).
    pub fn requests(&self) -> u64 {
        self.requests
    }

    // ------------------------------------------------------------------
    // HTTP transport
    // ------------------------------------------------------------------

    /// Tries to process one HTTP request from the buffer. Returns true
    /// when it consumed input (try again for pipelined requests).
    fn step_http<F, L>(&mut self, engine: &Engine<F, L>) -> bool
    where
        F: DetectorFactory,
        F::Detector: Sync,
        L: BatchLog,
    {
        if self.in_buf.is_empty() {
            return false;
        }
        let obs = tsad_obs::enabled();
        let t_parse = obs.then(Instant::now);

        let head = match parse_head(&self.in_buf, self.cfg.max_head_bytes) {
            Ok(Some(head)) => head,
            Ok(None) => {
                self.accumulate_parse(t_parse);
                return false;
            }
            Err(err) => {
                self.accumulate_parse(t_parse);
                let (status, reason) = match err {
                    HttpError::BadRequest(_) => (400, "Bad Request"),
                    HttpError::HeadTooLarge => (431, "Request Header Fields Too Large"),
                    HttpError::VersionUnsupported => (505, "HTTP Version Not Supported"),
                };
                let detail = match err {
                    HttpError::BadRequest(d) => d,
                    HttpError::HeadTooLarge => "request head too large",
                    HttpError::VersionUnsupported => "only HTTP/1.0 and 1.1 are supported",
                };
                self.http_error(status, reason, detail, false);
                return false;
            }
        };

        let head_len = head.head_len;
        let content_length = head.content_length;
        let keep_alive = head.keep_alive;
        let route = route_http(head.method, head.path, head.query);

        if content_length > self.cfg.max_body_bytes {
            self.accumulate_parse(t_parse);
            self.http_error(
                413,
                "Payload Too Large",
                "body exceeds the configured cap",
                false,
            );
            return false;
        }
        let total = head_len + content_length;
        if self.in_buf.len() < total {
            self.accumulate_parse(t_parse);
            return false; // waiting for the body
        }

        // The head is fully parsed and the body is buffered: decode it.
        let body_ok = match route {
            HttpRoute::Batch { .. } => {
                decode_text_body(&self.in_buf[head_len..total], &mut self.batch)
            }
            _ => Ok(()),
        };
        self.in_buf.drain(..total);
        let parse_ns = self.take_parse(t_parse);

        let mut timing = SubmitTiming::default();
        let mut status_err = None;
        let mut t_route_ns = 0u64;
        match (&route, body_ok) {
            (_, Err(detail)) => status_err = Some((400, "Bad Request", detail)),
            (HttpRoute::Batch { .. }, Ok(())) => {
                match engine.submit(&self.batch, &mut self.bout, &mut timing) {
                    Ok(()) => {}
                    Err(SubmitError::Busy) => {
                        status_err = Some((503, "Service Unavailable", "over capacity, retry"))
                    }
                    Err(SubmitError::TooLarge) => {
                        status_err = Some((413, "Payload Too Large", "batch exceeds max points"))
                    }
                    Err(SubmitError::Internal) => {
                        status_err = Some((
                            500,
                            "Internal Server Error",
                            "durability failure, batch not applied",
                        ))
                    }
                }
            }
            (other, Ok(())) => {
                // Non-batch endpoints: the route stage is the handler.
                let t_route = obs.then(Instant::now);
                match other {
                    HttpRoute::Query { id: Some(_) } => {}
                    HttpRoute::Query { id: None } => {
                        status_err = Some((400, "Bad Request", "missing or bad id parameter"))
                    }
                    HttpRoute::NotFound => {
                        status_err = Some((404, "Not Found", "no such endpoint"))
                    }
                    HttpRoute::MethodNotAllowed => {
                        status_err = Some((405, "Method Not Allowed", "wrong method"))
                    }
                    _ => {}
                }
                if let Some(t) = t_route {
                    t_route_ns = elapsed_ns(t);
                    INGEST_ROUTE_NS.record(t_route_ns);
                }
            }
        }

        let t_respond = obs.then(Instant::now);
        match status_err {
            Some((status, reason, detail)) => {
                // Parse/body errors and durability failures close;
                // semantic refusals keep alive.
                let ka = keep_alive && status != 400 && status != 413 && status != 500;
                self.http_error_keep(status, reason, detail, ka, status == 503);
                if status != 503 {
                    INGEST_ERRORS.inc(); // 503 is backpressure, not an error
                }
            }
            None => match route {
                HttpRoute::Batch { score } => self.http_batch_response(score, keep_alive),
                HttpRoute::Query { id: Some(id) } => {
                    let (resident, shard) = engine.query(SeriesId(id));
                    self.body_scratch.clear();
                    let _ = write!(
                        self.body_scratch,
                        "{{\"id\":{id},\"resident\":{resident},\"shard\":{shard}}}"
                    );
                    let status = if resident {
                        (200, "OK")
                    } else {
                        (404, "Not Found")
                    };
                    self.http_response(status.0, status.1, "application/json", keep_alive, false);
                }
                HttpRoute::Stats => {
                    let totals = engine.totals();
                    let (series, bytes, batches) = engine.fleet_stats();
                    self.body_scratch.clear();
                    let _ = write!(
                        self.body_scratch,
                        "{{\"series\":{series},\"bytes\":{bytes},\"fleet_batches\":{batches},\
                         \"batches\":{},\"points\":{},\"scores\":{},\"spawned\":{},\
                         \"quarantined\":{},\"evicted\":{},\"rejected\":{}}}",
                        totals.batches,
                        totals.points,
                        totals.scores,
                        totals.spawned,
                        totals.quarantined,
                        totals.evicted,
                        totals.rejected,
                    );
                    self.http_response(200, "OK", "application/json", keep_alive, false);
                }
                HttpRoute::Snapshot => {
                    let (bytes, segments, series) = engine.snapshot_info();
                    self.body_scratch.clear();
                    let _ = write!(
                        self.body_scratch,
                        "{{\"bytes\":{bytes},\"segments\":{segments},\"series\":{series}}}"
                    );
                    self.http_response(200, "OK", "application/json", keep_alive, false);
                }
                HttpRoute::Healthz => {
                    self.body_scratch.clear();
                    let (status, reason, body): (u16, &str, &[u8]) = if engine.healthy() {
                        (200, "OK", b"ok\n")
                    } else {
                        (503, "Service Unavailable", b"engine unavailable\n")
                    };
                    self.body_scratch.extend_from_slice(body);
                    self.http_response(status, reason, "text/plain", keep_alive, false);
                }
                HttpRoute::Query { id: None }
                | HttpRoute::NotFound
                | HttpRoute::MethodNotAllowed => unreachable!("handled as status_err"),
            },
        }
        self.finish_request(obs, parse_ns, t_route_ns, &timing, t_respond);
        true
    }

    /// Formats the `POST /ingest` / `POST /score` success response from
    /// the fleet's batch output.
    fn http_batch_response(&mut self, score: bool, keep_alive: bool) {
        self.body_scratch.clear();
        let b = &mut self.body_scratch;
        let _ = write!(
            b,
            "{{\"points\":{},\"spawned\":{},\"quarantined\":{},\"evicted\":{}",
            self.bout.points,
            self.bout.spawned,
            self.bout.quarantined.len(),
            self.bout.evicted.len(),
        );
        if score {
            b.extend_from_slice(b",\"scores\":[");
            for (i, s) in self.bout.scores.iter().enumerate() {
                if i > 0 {
                    b.push(b',');
                }
                let _ = write!(
                    b,
                    "{{\"index\":{},\"id\":{},\"score\":",
                    s.batch_index, s.id.0
                );
                if s.score.is_finite() {
                    let _ = write!(b, "{}", s.score);
                } else {
                    b.extend_from_slice(b"null"); // JSON has no NaN/Infinity
                }
                b.push(b'}');
            }
            b.push(b']');
        } else {
            let _ = write!(b, ",\"scores\":{}", self.bout.scores.len());
        }
        b.push(b'}');
        self.http_response(200, "OK", "application/json", keep_alive, false);
    }

    /// Writes status line + headers + the body in `body_scratch`.
    fn http_response(
        &mut self,
        status: u16,
        reason: &str,
        content_type: &str,
        keep_alive: bool,
        retry_after: bool,
    ) {
        let out = &mut self.out;
        let _ = write!(
            out,
            "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\n"
        );
        let _ = write!(out, "Content-Length: {}\r\n", self.body_scratch.len());
        if retry_after {
            out.extend_from_slice(b"Retry-After: 1\r\n");
        }
        out.extend_from_slice(if keep_alive {
            b"Connection: keep-alive\r\n\r\n"
        } else {
            b"Connection: close\r\n\r\n"
        });
        out.extend_from_slice(&self.body_scratch);
        if !keep_alive {
            self.closing = true;
        }
    }

    /// A parse-failure response: always closes and accounts the request
    /// here (the caller returns without reaching `finish_request`).
    fn http_error(&mut self, status: u16, reason: &str, detail: &str, retry_after: bool) {
        self.http_error_keep(status, reason, detail, false, retry_after);
        INGEST_ERRORS.inc();
        INGEST_REQUESTS.inc();
        self.requests += 1;
    }

    /// Formats an error response (no accounting — callers differ).
    fn http_error_keep(
        &mut self,
        status: u16,
        reason: &str,
        detail: &str,
        keep_alive: bool,
        retry_after: bool,
    ) {
        self.body_scratch.clear();
        let _ = write!(self.body_scratch, "{{\"error\":\"{detail}\"}}");
        self.http_response(status, reason, "application/json", keep_alive, retry_after);
    }

    // ------------------------------------------------------------------
    // Binary transport
    // ------------------------------------------------------------------

    /// Tries to process one binary frame from the buffer. Returns true
    /// when it consumed input.
    fn step_binary<F, L>(&mut self, engine: &Engine<F, L>) -> bool
    where
        F: DetectorFactory,
        F::Detector: Sync,
        L: BatchLog,
    {
        if self.in_buf.is_empty() {
            return false;
        }
        let obs = tsad_obs::enabled();
        let t_parse = obs.then(Instant::now);

        let header = match frame::parse_header(&self.in_buf, self.cfg.max_body_bytes) {
            Ok(Some(h)) => h,
            Ok(None) => {
                self.accumulate_parse(t_parse);
                return false;
            }
            Err(err) => {
                self.accumulate_parse(t_parse);
                let detail = match err {
                    FrameError::BadMagic => "bad frame magic",
                    FrameError::BadVersion => "unsupported frame version",
                    FrameError::BadReserved => "nonzero reserved byte",
                    FrameError::Oversized => "declared payload exceeds the cap",
                };
                self.binary_error(400, detail);
                return false;
            }
        };
        // Unknown types are rejected from the header alone — no point
        // waiting for (or buffering) a payload we will discard.
        if !matches!(
            header.ftype,
            T_INGEST | T_SCORE | T_QUERY | T_SNAPSHOT | T_PING
        ) {
            self.accumulate_parse(t_parse);
            self.binary_error(400, "unknown frame type");
            return false;
        }
        let total = HEADER_LEN + header.len;
        if self.in_buf.len() < total {
            self.accumulate_parse(t_parse);
            return false; // waiting for the payload
        }

        let payload = &self.in_buf[HEADER_LEN..total];
        let decode = match header.ftype {
            T_INGEST | T_SCORE => frame::decode_points(payload, &mut self.batch),
            T_QUERY if payload.len() != 8 => Err("query payload must be 8 bytes"),
            T_SNAPSHOT | T_PING if !payload.is_empty() => Err("unexpected payload"),
            _ => Ok(()),
        };
        let query_id = if header.ftype == T_QUERY && decode.is_ok() {
            u64::from_le_bytes(payload[..8].try_into().expect("8-byte slice"))
        } else {
            0
        };
        self.in_buf.drain(..total);
        let parse_ns = self.take_parse(t_parse);

        if let Err(detail) = decode {
            let t_respond = obs.then(Instant::now);
            self.binary_error_no_count(400, detail);
            INGEST_ERRORS.inc();
            self.finish_request(obs, parse_ns, 0, &SubmitTiming::default(), t_respond);
            return false;
        }

        let mut timing = SubmitTiming::default();
        let mut busy = false;
        let mut too_large = false;
        let mut internal = false;
        if matches!(header.ftype, T_INGEST | T_SCORE) {
            match engine.submit(&self.batch, &mut self.bout, &mut timing) {
                Ok(()) => {}
                Err(SubmitError::Busy) => busy = true,
                Err(SubmitError::TooLarge) => too_large = true,
                Err(SubmitError::Internal) => internal = true,
            }
        }

        let t_respond = obs.then(Instant::now);
        if busy {
            frame::write_frame(&mut self.out, T_RETRY, &[]);
        } else if too_large {
            self.binary_error_no_count(413, "batch exceeds max points");
        } else if internal {
            self.binary_error_no_count(500, "durability failure, batch not applied");
        } else {
            match header.ftype {
                T_INGEST => {
                    let mut payload = [0u8; 32];
                    payload[..8].copy_from_slice(&self.bout.points.to_le_bytes());
                    payload[8..16].copy_from_slice(&self.bout.spawned.to_le_bytes());
                    payload[16..24]
                        .copy_from_slice(&(self.bout.quarantined.len() as u64).to_le_bytes());
                    payload[24..32]
                        .copy_from_slice(&(self.bout.evicted.len() as u64).to_le_bytes());
                    frame::write_frame(&mut self.out, T_ACK, &payload);
                }
                T_SCORE => {
                    let n = self.bout.scores.len();
                    frame::write_header(&mut self.out, T_SCORES, 8 + n * frame::SCORE_BYTES);
                    self.out.extend_from_slice(&(n as u64).to_le_bytes());
                    for s in &self.bout.scores {
                        self.out
                            .extend_from_slice(&(s.batch_index as u32).to_le_bytes());
                        self.out.extend_from_slice(&s.id.0.to_le_bytes());
                        self.out.extend_from_slice(&s.score.to_bits().to_le_bytes());
                    }
                }
                T_QUERY => {
                    let (resident, shard) = engine.query(SeriesId(query_id));
                    let mut payload = [0u8; 17];
                    payload[..8].copy_from_slice(&query_id.to_le_bytes());
                    payload[8] = resident as u8;
                    payload[9..17].copy_from_slice(&(shard as u64).to_le_bytes());
                    frame::write_frame(&mut self.out, T_QUERY_RESP, &payload);
                }
                T_SNAPSHOT => {
                    let (bytes, segments, series) = engine.snapshot_info();
                    let mut payload = [0u8; 24];
                    payload[..8].copy_from_slice(&(bytes as u64).to_le_bytes());
                    payload[8..16].copy_from_slice(&(segments as u64).to_le_bytes());
                    payload[16..24].copy_from_slice(&(series as u64).to_le_bytes());
                    frame::write_frame(&mut self.out, T_SNAP_RESP, &payload);
                }
                T_PING => frame::write_frame(&mut self.out, T_PONG, &[]),
                _ => unreachable!("validated above"),
            }
        }
        self.finish_request(obs, parse_ns, 0, &timing, t_respond);
        if too_large || internal {
            INGEST_ERRORS.inc();
        }
        true
    }

    /// Emits an `ERROR` frame and closes, counting the request.
    fn binary_error(&mut self, code: u16, detail: &str) {
        self.binary_error_no_count(code, detail);
        INGEST_REQUESTS.inc();
        self.requests += 1;
        INGEST_ERRORS.inc();
    }

    /// Emits an `ERROR` frame and closes (no request accounting — the
    /// caller records the request through `finish_request`).
    fn binary_error_no_count(&mut self, code: u16, detail: &str) {
        self.body_scratch.clear();
        self.body_scratch.extend_from_slice(&code.to_le_bytes());
        self.body_scratch.extend_from_slice(detail.as_bytes());
        let (out, payload) = (&mut self.out, &self.body_scratch);
        frame::write_frame(out, T_ERROR, payload);
        self.closing = true;
    }

    // ------------------------------------------------------------------
    // Stage accounting
    // ------------------------------------------------------------------

    /// Adds an incomplete parse attempt's time to the pending request.
    fn accumulate_parse(&mut self, t: Option<Instant>) {
        if let Some(t) = t {
            self.pending_parse_ns += elapsed_ns(t);
        }
    }

    /// Total parse time for the completed request (accumulated + final).
    fn take_parse(&mut self, t: Option<Instant>) -> u64 {
        let mut ns = self.pending_parse_ns;
        self.pending_parse_ns = 0;
        if let Some(t) = t {
            ns += elapsed_ns(t);
        }
        ns
    }

    /// Records the per-request histograms once a response is written.
    fn finish_request(
        &mut self,
        obs: bool,
        parse_ns: u64,
        route_ns: u64,
        timing: &SubmitTiming,
        t_respond: Option<Instant>,
    ) {
        self.requests += 1;
        INGEST_REQUESTS.inc();
        if !obs {
            return;
        }
        let respond_ns = t_respond.map_or(0, elapsed_ns);
        INGEST_PARSE_NS.record(parse_ns);
        INGEST_RESPOND_NS.record(respond_ns);
        let route = route_ns.max(timing.route_ns);
        let request_ns = parse_ns + route + timing.push_ns + respond_ns;
        INGEST_REQUEST_NS.record(request_ns);
        INGEST_OVERHEAD_NS.record(request_ns - timing.push_ns);
    }
}

/// Nanoseconds since `t`, saturating.
fn elapsed_ns(t: Instant) -> u64 {
    t.elapsed().as_nanos().min(u64::MAX as u128) as u64
}

/// Maps an HTTP method + path to a route.
fn route_http(method: &str, path: &str, query: &str) -> HttpRoute {
    match path {
        "/ingest" if method == "POST" => HttpRoute::Batch { score: false },
        "/score" if method == "POST" => HttpRoute::Batch { score: true },
        "/query" if method == "GET" => HttpRoute::Query {
            id: query_param(query, "id").and_then(|v| v.parse().ok()),
        },
        "/stats" if method == "GET" => HttpRoute::Stats,
        "/snapshot" if method == "POST" => HttpRoute::Snapshot,
        "/healthz" if method == "GET" => HttpRoute::Healthz,
        "/ingest" | "/score" | "/query" | "/stats" | "/snapshot" | "/healthz" => {
            HttpRoute::MethodNotAllowed
        }
        _ => HttpRoute::NotFound,
    }
}

/// Decodes the text batch body: one `<id> <value>` pair per line. Blank
/// lines are skipped; `\r` line endings are tolerated. `value` accepts
/// anything `f64::from_str` does, including `NaN` and `inf` — non-finite
/// values are the *fleet's* quarantine decision, not a wire error.
///
/// The common shape (`decimal-id SP decimal-value`) takes a byte-level
/// fast path that never validates UTF-8 or touches `FromStr`; anything
/// it cannot handle exactly (exponents, `inf`/`NaN`, Unicode whitespace,
/// `+` signs, > 2^53 mantissas) falls back per line to the `str`-based
/// parse, so accepted grammar and error details are unchanged.
fn decode_text_body(body: &[u8], batch: &mut Vec<(SeriesId, f64)>) -> Result<(), &'static str> {
    batch.clear();
    let n = body.len();
    let mut i = 0;
    while i < n {
        // Leading ASCII whitespace covers blank lines, `\r\n` endings,
        // and indentation in one skip.
        while i < n && body[i].is_ascii_whitespace() {
            i += 1;
        }
        if i >= n {
            break;
        }
        let line_start = i;
        match decode_pair_at(body, &mut i) {
            Some(pair) => batch.push(pair),
            None => {
                let end = body[line_start..]
                    .iter()
                    .position(|&b| b == b'\n')
                    .map_or(n, |p| line_start + p);
                decode_line_slow(&body[line_start..end], batch)?;
                i = end + 1;
            }
        }
    }
    Ok(())
}

/// Parses one `<id> <value>` pair starting at `*i`, leaving `*i` on the
/// line's `\n` (or at end of input). `None` means "not provably this
/// exact value the cheap way" — never "malformed"; the caller re-parses
/// the whole line through [`decode_line_slow`], whose grammar and error
/// details are authoritative.
#[inline]
fn decode_pair_at(body: &[u8], i: &mut usize) -> Option<(SeriesId, f64)> {
    let n = body.len();
    // Series id: plain decimal. 19 digits always fit in a u64; longer
    // (or signed, or non-ASCII) ids take the fallback.
    let mut id: u64 = 0;
    let id_start = *i;
    while *i < n && body[*i].is_ascii_digit() {
        if *i - id_start >= 19 {
            return None;
        }
        id = id * 10 + u64::from(body[*i] - b'0');
        *i += 1;
    }
    if *i == id_start {
        return None;
    }
    // At least one space/tab between id and value.
    if *i >= n || !matches!(body[*i], b' ' | b'\t') {
        return None;
    }
    while *i < n && matches!(body[*i], b' ' | b'\t') {
        *i += 1;
    }
    // Value: exact decimal fast path (Clinger). When the mantissa fits
    // in 2^53 and the fractional scale is an exact power of ten,
    // `m as f64 / 10^k` rounds once and matches `f64::from_str`
    // bit-for-bit. Exponents, `inf`/`NaN`, `+` signs, and overlong
    // mantissas all bail to the fallback.
    let neg = if *i < n && body[*i] == b'-' {
        *i += 1;
        true
    } else {
        false
    };
    let mut mantissa: u64 = 0;
    let mut ndigits = 0u32;
    let mut frac_digits = 0u32;
    let mut seen_dot = false;
    while *i < n {
        match body[*i] {
            b @ b'0'..=b'9' => {
                mantissa = mantissa.checked_mul(10)?.checked_add(u64::from(b - b'0'))?;
                ndigits += 1;
                if seen_dot {
                    frac_digits += 1;
                }
            }
            b'.' if !seen_dot => seen_dot = true,
            _ => break,
        }
        *i += 1;
    }
    if ndigits == 0 || mantissa > (1u64 << 53) || frac_digits as usize >= POW10.len() {
        return None;
    }
    let v = mantissa as f64 / POW10[frac_digits as usize];
    // Only trailing spaces (and `\r`) may follow before the line ends.
    while *i < n && matches!(body[*i], b' ' | b'\t' | b'\r') {
        *i += 1;
    }
    if *i < n && body[*i] != b'\n' {
        return None;
    }
    Some((SeriesId(id), if neg { -v } else { v }))
}

fn decode_line_slow(raw: &[u8], batch: &mut Vec<(SeriesId, f64)>) -> Result<(), &'static str> {
    let line = std::str::from_utf8(raw).map_err(|_| "body is not UTF-8")?;
    let line = line.strip_suffix('\r').unwrap_or(line).trim();
    if line.is_empty() {
        return Ok(());
    }
    let (id, value) = line
        .split_once(char::is_whitespace)
        .ok_or("expected `<id> <value>` per line")?;
    let id: u64 = id.trim().parse().map_err(|_| "unparseable series id")?;
    let value: f64 = value.trim().parse().map_err(|_| "unparseable value")?;
    batch.push((SeriesId(id), value));
    Ok(())
}

/// Powers of ten exactly representable in an f64 (10^23 is not).
const POW10: [f64; 23] = [
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16,
    1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use tsad_fleet::{Fleet, FleetConfig};
    use tsad_stream::{FnFactory, StreamingGlobalZScore};

    type TestFactory = FnFactory<fn(u64) -> StreamingGlobalZScore>;

    fn engine(cfg: EngineConfig) -> Engine<TestFactory> {
        fn spawn(_id: u64) -> StreamingGlobalZScore {
            StreamingGlobalZScore::new(2).unwrap()
        }
        Engine::new(
            Fleet::new(
                FnFactory(spawn as fn(u64) -> StreamingGlobalZScore),
                FleetConfig {
                    shards: 2,
                    ..FleetConfig::default()
                },
            ),
            cfg,
        )
    }

    fn default_engine() -> Engine<TestFactory> {
        engine(EngineConfig::default())
    }

    fn response_string(conn: &Conn) -> String {
        String::from_utf8_lossy(conn.output()).into_owned()
    }

    #[test]
    fn http_ingest_roundtrip() {
        let e = default_engine();
        let mut conn = Conn::new(ConnConfig::default());
        let body = "1 0.5\n2 1.5\n1 2.5\n";
        let req = format!(
            "POST /ingest HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        conn.feed(req.as_bytes(), &e);
        let resp = response_string(&conn);
        assert!(resp.starts_with("HTTP/1.1 200 OK"), "{resp}");
        assert!(resp.contains("\"points\":3"), "{resp}");
        assert!(resp.contains("\"spawned\":2"), "{resp}");
        assert!(!conn.wants_close());
        assert_eq!(conn.requests(), 1);
        assert_eq!(e.totals().points, 3);
    }

    #[test]
    fn http_score_reports_scores_with_null_for_nonfinite() {
        let e = default_engine();
        let mut conn = Conn::new(ConnConfig::default());
        let body = "7 1.0\n7 NaN\n7 2.0\n";
        let req = format!(
            "POST /score HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        conn.feed(req.as_bytes(), &e);
        let resp = response_string(&conn);
        assert!(resp.contains("\"quarantined\":1"), "{resp}");
        assert!(resp.contains("\"scores\":["), "{resp}");
    }

    #[test]
    fn http_pipelined_requests_in_one_feed() {
        let e = default_engine();
        let mut conn = Conn::new(ConnConfig::default());
        let one = "POST /ingest HTTP/1.1\r\nContent-Length: 6\r\n\r\n1 1.0\n";
        let two = "GET /stats HTTP/1.1\r\n\r\n";
        conn.feed(format!("{one}{two}").as_bytes(), &e);
        let resp = response_string(&conn);
        assert_eq!(resp.matches("HTTP/1.1 200 OK").count(), 2, "{resp}");
        assert_eq!(conn.requests(), 2);
    }

    #[test]
    fn http_byte_by_byte_feed_still_parses() {
        let e = default_engine();
        let mut conn = Conn::new(ConnConfig::default());
        let req = b"POST /ingest HTTP/1.1\r\nContent-Length: 6\r\n\r\n5 1.0\n";
        for &b in req.iter() {
            conn.feed(&[b], &e);
        }
        assert!(response_string(&conn).starts_with("HTTP/1.1 200 OK"));
        assert!(!conn.has_partial());
    }

    #[test]
    fn http_query_and_404_and_405() {
        let e = default_engine();
        let mut conn = Conn::new(ConnConfig::default());
        conn.feed(
            b"POST /ingest HTTP/1.1\r\nContent-Length: 6\r\n\r\n9 1.0\n",
            &e,
        );
        conn.consume_output(conn.output().len());
        conn.feed(b"GET /query?id=9 HTTP/1.1\r\n\r\n", &e);
        assert!(response_string(&conn).contains("\"resident\":true"));
        conn.consume_output(conn.output().len());
        conn.feed(b"GET /query?id=1234 HTTP/1.1\r\n\r\n", &e);
        assert!(response_string(&conn).starts_with("HTTP/1.1 404"));
        conn.consume_output(conn.output().len());
        conn.feed(b"GET /nope HTTP/1.1\r\n\r\n", &e);
        assert!(response_string(&conn).starts_with("HTTP/1.1 404"));
        conn.consume_output(conn.output().len());
        conn.feed(b"GET /ingest HTTP/1.1\r\n\r\n", &e);
        assert!(response_string(&conn).starts_with("HTTP/1.1 405"));
        assert!(!conn.wants_close(), "semantic refusals keep the conn");
    }

    #[test]
    fn http_malformed_head_closes_with_400() {
        let e = default_engine();
        let mut conn = Conn::new(ConnConfig::default());
        conn.feed(b"QQQ111 /x HTTP/1.1\r\n\r\n", &e);
        assert!(response_string(&conn).starts_with("HTTP/1.1 400"));
        assert!(conn.wants_close());
        // further input is ignored once closing
        let before = conn.output().len();
        conn.feed(b"GET /stats HTTP/1.1\r\n\r\n", &e);
        assert_eq!(conn.output().len(), before);
    }

    #[test]
    fn http_busy_gets_503_with_retry_after() {
        let e = engine(EngineConfig {
            max_inflight_points: 0,
            ..EngineConfig::default()
        });
        let mut conn = Conn::new(ConnConfig::default());
        conn.feed(
            b"POST /ingest HTTP/1.1\r\nContent-Length: 6\r\n\r\n1 1.0\n",
            &e,
        );
        let resp = response_string(&conn);
        assert!(resp.starts_with("HTTP/1.1 503"), "{resp}");
        assert!(resp.contains("Retry-After: 1"), "{resp}");
        assert!(!conn.wants_close(), "backpressure keeps the conn open");
    }

    #[test]
    fn http_oversized_declared_body_is_413_before_buffering() {
        let e = default_engine();
        let mut conn = Conn::new(ConnConfig {
            max_body_bytes: 64,
            ..ConnConfig::default()
        });
        conn.feed(
            b"POST /ingest HTTP/1.1\r\nContent-Length: 1000000\r\n\r\n",
            &e,
        );
        assert!(response_string(&conn).starts_with("HTTP/1.1 413"));
        assert!(conn.wants_close());
    }

    #[test]
    fn http_connection_close_is_honored() {
        let e = default_engine();
        let mut conn = Conn::new(ConnConfig::default());
        conn.feed(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n", &e);
        let resp = response_string(&conn);
        assert!(resp.contains("Connection: close"), "{resp}");
        assert!(conn.wants_close());
    }

    #[test]
    fn binary_ping_ingest_score_query_roundtrip() {
        let e = default_engine();
        let mut conn = Conn::new(ConnConfig::default());
        let mut req = Vec::new();
        frame::write_frame(&mut req, T_PING, &[]);
        let mut payload = Vec::new();
        for (id, v) in [(3u64, 1.0f64), (4, f64::NAN), (3, 2.0)] {
            frame::write_point(&mut payload, id, v);
        }
        frame::write_frame(&mut req, T_INGEST, &payload);
        frame::write_frame(&mut req, T_SCORE, &payload);
        let mut qp = Vec::new();
        qp.extend_from_slice(&3u64.to_le_bytes());
        frame::write_frame(&mut req, T_QUERY, &qp);
        conn.feed(&req, &e);

        let out = conn.output().to_vec();
        // PONG
        assert_eq!(out[2], T_PONG);
        // ACK: points=2, spawned=1, quarantined=1
        let ack = &out[HEADER_LEN..];
        assert_eq!(ack[2], T_ACK);
        let body = &ack[HEADER_LEN..HEADER_LEN + 32];
        assert_eq!(u64::from_le_bytes(body[..8].try_into().unwrap()), 2);
        assert_eq!(u64::from_le_bytes(body[16..24].try_into().unwrap()), 1);
        // SCORES next, then QUERY_RESP with resident=1
        let scores_at = 2 * HEADER_LEN + 32;
        assert_eq!(out[scores_at + 2], T_SCORES);
        let resp_len =
            u32::from_le_bytes(out[scores_at + 4..scores_at + 8].try_into().unwrap()) as usize;
        let qr_at = scores_at + HEADER_LEN + resp_len;
        assert_eq!(out[qr_at + 2], T_QUERY_RESP);
        assert_eq!(out[qr_at + HEADER_LEN + 8], 1, "series 3 is resident");
        assert_eq!(conn.requests(), 4);
        assert!(!conn.wants_close());
    }

    #[test]
    fn binary_unknown_type_errors_and_closes() {
        let e = default_engine();
        let mut conn = Conn::new(ConnConfig::default());
        let mut req = Vec::new();
        frame::write_frame(&mut req, 0x40, &[]);
        conn.feed(&req, &e);
        assert_eq!(conn.output()[2], T_ERROR);
        assert!(conn.wants_close());
    }

    #[test]
    fn binary_ragged_payload_errors() {
        let e = default_engine();
        let mut conn = Conn::new(ConnConfig::default());
        let mut req = Vec::new();
        frame::write_frame(&mut req, T_INGEST, &[0u8; frame::POINT_BYTES - 1]);
        conn.feed(&req, &e);
        assert_eq!(conn.output()[2], T_ERROR);
        assert!(conn.wants_close());
    }

    #[test]
    fn binary_busy_gets_retry_frame_and_stays_open() {
        let e = engine(EngineConfig {
            max_inflight_points: 0,
            ..EngineConfig::default()
        });
        let mut conn = Conn::new(ConnConfig::default());
        let mut payload = Vec::new();
        frame::write_point(&mut payload, 1, 1.0);
        let mut req = Vec::new();
        frame::write_frame(&mut req, T_INGEST, &payload);
        conn.feed(&req, &e);
        assert_eq!(conn.output()[2], T_RETRY);
        assert!(!conn.wants_close());
    }

    #[test]
    fn binary_byte_by_byte_feed() {
        let e = default_engine();
        let mut conn = Conn::new(ConnConfig::default());
        let mut payload = Vec::new();
        frame::write_point(&mut payload, 1, 1.0);
        let mut req = Vec::new();
        frame::write_frame(&mut req, T_INGEST, &payload);
        for &b in &req {
            conn.feed(&[b], &e);
        }
        assert_eq!(conn.output()[2], T_ACK);
    }

    #[test]
    fn text_body_decoding_rules() {
        let mut batch = Vec::new();
        decode_text_body(b"1 1.5\r\n\r\n 2\t-3.5 \n", &mut batch).unwrap();
        assert_eq!(batch, vec![(SeriesId(1), 1.5), (SeriesId(2), -3.5)]);
        assert!(decode_text_body(b"x 1.0\n", &mut batch).is_err());
        assert!(decode_text_body(b"1\n", &mut batch).is_err());
        assert!(decode_text_body(b"1 one\n", &mut batch).is_err());
        assert!(decode_text_body(&[0xFF, 0xFE], &mut batch).is_err());
        decode_text_body(b"5 inf\n", &mut batch).unwrap();
        assert!(batch[0].1.is_infinite(), "non-finite is the fleet's call");
    }

    /// Decodes one value through the full body path (fast path or
    /// fallback — whichever fires) for comparison against `FromStr`.
    fn decode_one(text: &str) -> f64 {
        let mut batch = Vec::new();
        decode_text_body(format!("0 {text}\n").as_bytes(), &mut batch).unwrap();
        assert_eq!(batch.len(), 1, "{text:?}");
        batch[0].1
    }

    #[test]
    fn decoded_values_match_from_str_bitwise() {
        // Deterministic sweep over signed decimals with up to 15
        // significant digits — the shapes the fast path claims.
        let mut x = 0x243f_6a88_85a3_08d3u64; // splitmix-ish
        for _ in 0..20_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let mantissa = x % 1_000_000_000_000_000;
            let frac = (x >> 40) % 12 + 1;
            let whole = mantissa / 10u64.pow(frac as u32);
            let part = mantissa % 10u64.pow(frac as u32);
            for text in [
                format!("{mantissa}"),
                format!("-{mantissa}"),
                format!("{whole}.{part:0width$}", width = frac as usize),
                format!("-{whole}.{part:0width$}", width = frac as usize),
            ] {
                let got = decode_one(&text);
                let std: f64 = text.parse().unwrap();
                assert_eq!(
                    got.to_bits(),
                    std.to_bits(),
                    "decode diverges from FromStr on {text:?}"
                );
            }
        }
        // Boundary shapes and fallback-only grammar: every accepted text
        // must agree with FromStr bit-for-bit, fast path or not.
        for text in [
            "0",
            "-0",
            "0.5",
            ".5",
            "1.",
            "9007199254740992",
            "9007199254740993",
            "0.0000000000000000000001",
            "1e3",
            "-1.5e-7",
            "+1.5",
            "inf",
            "17.976931348623157",
            "2.2250738585072014e-308",
        ] {
            let std: f64 = text.parse().unwrap();
            assert_eq!(decode_one(text).to_bits(), std.to_bits(), "{text:?}");
        }
        assert!(decode_one("NaN").is_nan());
        // Malformed values still error through the fallback.
        let mut batch = Vec::new();
        for text in ["1.2.3", "-", ".", "1e", "0x10"] {
            assert!(
                decode_text_body(format!("0 {text}\n").as_bytes(), &mut batch).is_err(),
                "{text:?} should not decode"
            );
        }
    }

    #[test]
    fn fallback_keeps_the_full_from_str_grammar() {
        // Exotic-but-legal values flow through the slow path unchanged.
        let mut batch = Vec::new();
        decode_text_body(
            b"1 1e3\n2 +0.5\n3 -inf\n18446744073709551615 2\n",
            &mut batch,
        )
        .unwrap();
        assert_eq!(batch[0], (SeriesId(1), 1000.0));
        assert_eq!(batch[1], (SeriesId(2), 0.5));
        assert!(batch[2].1 == f64::NEG_INFINITY);
        assert_eq!(batch[3].0, SeriesId(u64::MAX));
        // Unicode whitespace separators still work via the fallback.
        decode_text_body("7\u{a0}2.5\n".as_bytes(), &mut batch).unwrap();
        assert_eq!(batch, vec![(SeriesId(7), 2.5)]);
    }

    #[test]
    fn warm_connection_buffers_do_not_grow() {
        let e = default_engine();
        let mut conn = Conn::new(ConnConfig::default());
        let body = "1 0.5\n2 1.5\n";
        let req = format!(
            "POST /score HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        // warm up
        for _ in 0..3 {
            conn.feed(req.as_bytes(), &e);
            conn.consume_output(conn.output().len());
        }
        let caps = (
            conn.in_buf.capacity(),
            conn.out.capacity(),
            conn.batch.capacity(),
            conn.body_scratch.capacity(),
        );
        for _ in 0..50 {
            conn.feed(req.as_bytes(), &e);
            conn.consume_output(conn.output().len());
        }
        assert_eq!(
            caps,
            (
                conn.in_buf.capacity(),
                conn.out.capacity(),
                conn.batch.capacity(),
                conn.body_scratch.capacity(),
            ),
            "warm request handling must reuse buffers"
        );
    }
}
