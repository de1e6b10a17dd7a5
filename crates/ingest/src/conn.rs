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
//! so binary framing and HTTP/1.1 share a port unambiguously. After that,
//! each request runs decode → handle → encode: the transport decodes its
//! framing into one `Request`, `Conn::handle` answers it the same way
//! for both (and counts it), and the transport's writer encodes the
//! outcome with its own close rule.
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

use crate::engine::{BatchLog, Engine, EngineTotals, SubmitError, SubmitTiming};
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

/// One request, decoded from either transport.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Request {
    /// `POST /ingest` / `INGEST` (`score=false`) or `POST /score` /
    /// `SCORE` (`score=true`); the points are in `Conn::batch`.
    Batch { score: bool },
    /// `GET /query?id=` / `QUERY`; `None` when the id parameter is
    /// missing or not a number.
    Query(Option<u64>),
    /// `GET /stats`.
    Stats,
    /// `POST /snapshot` / `SNAPSHOT`.
    Snapshot,
    /// `GET /healthz`.
    Healthz,
    /// `PING`.
    Ping,
    /// An HTTP path no endpoint serves.
    NotFound,
    /// A known HTTP path under the wrong method.
    MethodNotAllowed,
}

/// What the handler answered, for a transport writer to encode.
#[derive(Debug, Clone, Copy)]
enum Reply {
    /// The batch was applied; the fleet's report is in `Conn::bout`.
    Batch {
        score: bool,
    },
    /// The id and `Engine::query`'s `(resident, shard)`.
    Query(u64, (bool, usize)),
    /// `Engine::totals` and `Engine::fleet_stats`.
    Stats(EngineTotals, (usize, usize, u64)),
    /// `Engine::snapshot_info`.
    Snapshot((usize, usize, usize)),
    /// `Engine::healthy`.
    Health(bool),
    Pong,
}

/// Why a request was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Refusal {
    /// Over the in-flight cap: backpressure, never an error.
    Busy,
    /// The batch exceeds `max_batch_points`.
    TooLarge,
    /// The durability hook failed; the batch was not applied.
    Internal,
    /// A malformed head, frame or body.
    BadRequest(&'static str),
    NotFound,
    MethodNotAllowed,
    /// The declared HTTP body exceeds `max_body_bytes`.
    BodyTooLarge,
    /// The HTTP head exceeds `max_head_bytes`.
    HeadTooLarge,
    /// Not HTTP/1.0 or 1.1.
    VersionUnsupported,
}

impl Refusal {
    /// HTTP status, reason phrase and error detail. A binary `ERROR`
    /// frame carries the same status as its code (`Busy` is `RETRY`).
    fn status(self) -> (u16, &'static str, &'static str) {
        match self {
            Self::Busy => (503, "Service Unavailable", "over capacity, retry"),
            Self::TooLarge => (413, "Payload Too Large", "batch exceeds max points"),
            Self::Internal => (
                500,
                "Internal Server Error",
                "durability failure, batch not applied",
            ),
            Self::BadRequest(detail) => (400, "Bad Request", detail),
            Self::NotFound => (404, "Not Found", "no such endpoint"),
            Self::MethodNotAllowed => (405, "Method Not Allowed", "wrong method"),
            Self::BodyTooLarge => (413, "Payload Too Large", "body exceeds the configured cap"),
            Self::HeadTooLarge => (
                431,
                "Request Header Fields Too Large",
                "request head too large",
            ),
            Self::VersionUnsupported => (
                505,
                "HTTP Version Not Supported",
                "only HTTP/1.0 and 1.1 are supported",
            ),
        }
    }
}

/// One decode attempt: `None` until the buffer holds a whole request,
/// then the request (`Err` when decoding refused it) and whether HTTP
/// keeps the connection alive after it.
type Decoded = Option<(Result<Request, Refusal>, bool)>;

/// Broken framing: the rest of the input cannot be trusted, so the
/// refusal closes the connection (binary closes on any refusal but
/// `Busy`).
fn fatal(refusal: Refusal) -> Decoded {
    Some((Err(refusal), false))
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
        while !self.closing && self.step(engine) {}
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

    /// Decodes, handles and answers one request from the buffer. Returns
    /// true when it answered one (try again for pipelined requests).
    fn step<F, L>(&mut self, engine: &Engine<F, L>) -> bool
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
        let decoded = match self.mode {
            Mode::Http => self.decode_http(),
            Mode::Binary => self.decode_binary(),
            Mode::Sniff => None,
        };
        let Some((request, keep_alive)) = decoded else {
            self.accumulate_parse(t_parse);
            return false;
        };
        let parse_ns = self.take_parse(t_parse);
        let mut timing = SubmitTiming::default();
        let outcome = self.handle(request, engine, &mut timing);
        let t_respond = obs.then(Instant::now);
        match self.mode {
            Mode::Http => self.encode_http(outcome, keep_alive),
            Mode::Binary | Mode::Sniff => self.encode_binary(outcome),
        }
        if let Some(t) = t_respond {
            record_stages(parse_ns, &timing, elapsed_ns(t));
        }
        true
    }

    // ------------------------------------------------------------------
    // Decode: each transport's framing into one `Request`
    // ------------------------------------------------------------------

    /// Decodes one HTTP request: head, route, and for a batch the body.
    fn decode_http(&mut self) -> Decoded {
        let head = match parse_head(&self.in_buf, self.cfg.max_head_bytes) {
            Ok(Some(head)) => head,
            Ok(None) => return None,
            Err(HttpError::BadRequest(detail)) => return fatal(Refusal::BadRequest(detail)),
            Err(HttpError::HeadTooLarge) => return fatal(Refusal::HeadTooLarge),
            Err(HttpError::VersionUnsupported) => return fatal(Refusal::VersionUnsupported),
        };
        if head.content_length > self.cfg.max_body_bytes {
            return fatal(Refusal::BodyTooLarge);
        }
        let total = head.head_len + head.content_length;
        if self.in_buf.len() < total {
            return None; // waiting for the body
        }
        let (head_len, keep_alive) = (head.head_len, head.keep_alive);
        let mut request = Ok(route_http(head.method, head.path, head.query));
        if let Ok(Request::Batch { .. }) = request {
            if let Err(detail) = decode_text_body(&self.in_buf[head_len..total], &mut self.batch) {
                request = Err(Refusal::BadRequest(detail));
            }
        }
        self.in_buf.drain(..total);
        Some((request, keep_alive))
    }

    /// Decodes one binary frame: header, type, payload.
    fn decode_binary(&mut self) -> Decoded {
        let header = match frame::parse_header(&self.in_buf, self.cfg.max_body_bytes) {
            Ok(Some(h)) => h,
            Ok(None) => return None,
            Err(err) => {
                return fatal(Refusal::BadRequest(match err {
                    FrameError::BadMagic => "bad frame magic",
                    FrameError::BadVersion => "unsupported frame version",
                    FrameError::BadReserved => "nonzero reserved byte",
                    FrameError::Oversized => "declared payload exceeds the cap",
                }))
            }
        };
        // Unknown types are rejected from the header alone — no point
        // waiting for (or buffering) a payload we will discard.
        if !matches!(
            header.ftype,
            T_INGEST | T_SCORE | T_QUERY | T_SNAPSHOT | T_PING
        ) {
            return fatal(Refusal::BadRequest("unknown frame type"));
        }
        let total = HEADER_LEN + header.len;
        if self.in_buf.len() < total {
            return None; // waiting for the payload
        }
        let payload = &self.in_buf[HEADER_LEN..total];
        let request = match header.ftype {
            T_INGEST | T_SCORE => {
                frame::decode_points(payload, &mut self.batch).map(|()| Request::Batch {
                    score: header.ftype == T_SCORE,
                })
            }
            T_QUERY => <[u8; 8]>::try_from(payload)
                .map(|id| Request::Query(Some(u64::from_le_bytes(id))))
                .map_err(|_| "query payload must be 8 bytes"),
            _ if !payload.is_empty() => Err("unexpected payload"),
            T_SNAPSHOT => Ok(Request::Snapshot),
            _ => Ok(Request::Ping),
        };
        self.in_buf.drain(..total);
        Some((request.map_err(Refusal::BadRequest), true))
    }

    // ------------------------------------------------------------------
    // Handle: one path for both transports
    // ------------------------------------------------------------------

    /// Answers one request (or passes its refusal through) and counts
    /// it. This is the only caller of `engine.submit` and the only place
    /// `ingest.requests` and `ingest.errors` move: every refusal is an
    /// error except `Busy`, which is backpressure (503/`RETRY`).
    fn handle<F, L>(
        &mut self,
        request: Result<Request, Refusal>,
        engine: &Engine<F, L>,
        timing: &mut SubmitTiming,
    ) -> Result<Reply, Refusal>
    where
        F: DetectorFactory,
        F::Detector: Sync,
        L: BatchLog,
    {
        // The route stage of a batch is the engine's admission, which
        // `submit` times; for any other request it is this handler.
        let routed = matches!(request, Ok(r) if !matches!(r, Request::Batch { .. }));
        let t_route = (routed && tsad_obs::enabled()).then(Instant::now);
        let outcome = match request {
            Err(refusal) => Err(refusal),
            Ok(Request::Batch { score }) => engine
                .submit(&self.batch, &mut self.bout, timing)
                .map(|()| Reply::Batch { score })
                .map_err(|err| match err {
                    SubmitError::Busy => Refusal::Busy,
                    SubmitError::TooLarge => Refusal::TooLarge,
                    SubmitError::Internal => Refusal::Internal,
                }),
            Ok(Request::Query(Some(id))) => Ok(Reply::Query(id, engine.query(SeriesId(id)))),
            Ok(Request::Query(None)) => Err(Refusal::BadRequest("missing or bad id parameter")),
            Ok(Request::Stats) => Ok(Reply::Stats(engine.totals(), engine.fleet_stats())),
            Ok(Request::Snapshot) => Ok(Reply::Snapshot(engine.snapshot_info())),
            Ok(Request::Healthz) => Ok(Reply::Health(engine.healthy())),
            Ok(Request::Ping) => Ok(Reply::Pong),
            Ok(Request::NotFound) => Err(Refusal::NotFound),
            Ok(Request::MethodNotAllowed) => Err(Refusal::MethodNotAllowed),
        };
        if let Some(t) = t_route {
            timing.route_ns = elapsed_ns(t);
            INGEST_ROUTE_NS.record(timing.route_ns);
        }
        self.requests += 1;
        INGEST_REQUESTS.inc();
        if matches!(outcome, Err(refusal) if refusal != Refusal::Busy) {
            INGEST_ERRORS.inc();
        }
        outcome
    }

    // ------------------------------------------------------------------
    // Encode: one writer per transport
    // ------------------------------------------------------------------

    /// Writes an HTTP response. It closes the connection on 400, 413 and
    /// 500, and when the request did not keep the connection alive (a
    /// fatal parse error never does).
    fn encode_http(&mut self, outcome: Result<Reply, Refusal>, keep_alive: bool) {
        const JSON: &str = "application/json";
        let b = &mut self.body_scratch;
        b.clear();
        let (status, reason, content_type) = match outcome {
            Ok(Reply::Batch { score }) => {
                write_batch_json(b, &self.bout, score);
                (200, "OK", JSON)
            }
            Ok(Reply::Query(id, (resident, shard))) => {
                let _ = write!(
                    b,
                    "{{\"id\":{id},\"resident\":{resident},\"shard\":{shard}}}"
                );
                if resident {
                    (200, "OK", JSON)
                } else {
                    (404, "Not Found", JSON)
                }
            }
            Ok(Reply::Stats(totals, (series, bytes, batches))) => {
                let _ = write!(
                    b,
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
                (200, "OK", JSON)
            }
            Ok(Reply::Snapshot((bytes, segments, series))) => {
                let _ = write!(
                    b,
                    "{{\"bytes\":{bytes},\"segments\":{segments},\"series\":{series}}}"
                );
                (200, "OK", JSON)
            }
            Ok(Reply::Health(true)) => {
                b.extend_from_slice(b"ok\n");
                (200, "OK", "text/plain")
            }
            Ok(Reply::Health(false)) => {
                b.extend_from_slice(b"engine unavailable\n");
                (503, "Service Unavailable", "text/plain")
            }
            Ok(Reply::Pong) => unreachable!("HTTP decodes no ping"),
            Err(refusal) => {
                let (status, reason, detail) = refusal.status();
                let _ = write!(b, "{{\"error\":\"{detail}\"}}");
                (status, reason, JSON)
            }
        };
        let keep_alive = keep_alive && !matches!(status, 400 | 413 | 500);
        let out = &mut self.out;
        let _ = write!(
            out,
            "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\n"
        );
        let _ = write!(out, "Content-Length: {}\r\n", b.len());
        if matches!(outcome, Err(Refusal::Busy)) {
            out.extend_from_slice(b"Retry-After: 1\r\n");
        }
        out.extend_from_slice(if keep_alive {
            b"Connection: keep-alive\r\n\r\n"
        } else {
            b"Connection: close\r\n\r\n"
        });
        out.extend_from_slice(b);
        if !keep_alive {
            self.closing = true;
        }
    }

    /// Writes a binary response frame. Every `ERROR` frame closes the
    /// connection; `RETRY` (backpressure) does not.
    fn encode_binary(&mut self, outcome: Result<Reply, Refusal>) {
        let out = &mut self.out;
        match outcome {
            Ok(Reply::Batch { score: false }) => {
                let mut payload = [0u8; 32];
                payload[..8].copy_from_slice(&self.bout.points.to_le_bytes());
                payload[8..16].copy_from_slice(&self.bout.spawned.to_le_bytes());
                payload[16..24]
                    .copy_from_slice(&(self.bout.quarantined.len() as u64).to_le_bytes());
                payload[24..32].copy_from_slice(&(self.bout.evicted.len() as u64).to_le_bytes());
                frame::write_frame(out, T_ACK, &payload);
            }
            Ok(Reply::Batch { score: true }) => {
                let n = self.bout.scores.len();
                frame::write_header(out, T_SCORES, 8 + n * frame::SCORE_BYTES);
                out.extend_from_slice(&(n as u64).to_le_bytes());
                for s in &self.bout.scores {
                    out.extend_from_slice(&(s.batch_index as u32).to_le_bytes());
                    out.extend_from_slice(&s.id.0.to_le_bytes());
                    out.extend_from_slice(&s.score.to_bits().to_le_bytes());
                }
            }
            Ok(Reply::Query(id, (resident, shard))) => {
                let mut payload = [0u8; 17];
                payload[..8].copy_from_slice(&id.to_le_bytes());
                payload[8] = resident as u8;
                payload[9..17].copy_from_slice(&(shard as u64).to_le_bytes());
                frame::write_frame(out, T_QUERY_RESP, &payload);
            }
            Ok(Reply::Snapshot((bytes, segments, series))) => {
                let mut payload = [0u8; 24];
                payload[..8].copy_from_slice(&(bytes as u64).to_le_bytes());
                payload[8..16].copy_from_slice(&(segments as u64).to_le_bytes());
                payload[16..24].copy_from_slice(&(series as u64).to_le_bytes());
                frame::write_frame(out, T_SNAP_RESP, &payload);
            }
            Ok(Reply::Pong) => frame::write_frame(out, T_PONG, &[]),
            Ok(Reply::Stats(..) | Reply::Health(_)) => {
                unreachable!("the binary transport decodes no stats or health request")
            }
            Err(Refusal::Busy) => frame::write_frame(out, T_RETRY, &[]),
            Err(refusal) => {
                let (code, _, detail) = refusal.status();
                frame::write_header(out, T_ERROR, 2 + detail.len());
                out.extend_from_slice(&code.to_le_bytes());
                out.extend_from_slice(detail.as_bytes());
                self.closing = true;
            }
        }
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
}

/// Records one answered request's stage histograms.
fn record_stages(parse_ns: u64, timing: &SubmitTiming, respond_ns: u64) {
    INGEST_PARSE_NS.record(parse_ns);
    INGEST_RESPOND_NS.record(respond_ns);
    let request_ns = parse_ns + timing.route_ns + timing.push_ns + respond_ns;
    INGEST_REQUEST_NS.record(request_ns);
    INGEST_OVERHEAD_NS.record(request_ns - timing.push_ns);
}

/// Nanoseconds since `t`, saturating.
fn elapsed_ns(t: Instant) -> u64 {
    t.elapsed().as_nanos().min(u64::MAX as u128) as u64
}

/// Maps an HTTP method + path to a request.
fn route_http(method: &str, path: &str, query: &str) -> Request {
    match path {
        "/ingest" if method == "POST" => Request::Batch { score: false },
        "/score" if method == "POST" => Request::Batch { score: true },
        "/query" if method == "GET" => {
            Request::Query(query_param(query, "id").and_then(|v| v.parse().ok()))
        }
        "/stats" if method == "GET" => Request::Stats,
        "/snapshot" if method == "POST" => Request::Snapshot,
        "/healthz" if method == "GET" => Request::Healthz,
        "/ingest" | "/score" | "/query" | "/stats" | "/snapshot" | "/healthz" => {
            Request::MethodNotAllowed
        }
        _ => Request::NotFound,
    }
}

/// Formats the `POST /ingest` / `POST /score` JSON body from the fleet's
/// batch output.
fn write_batch_json(b: &mut Vec<u8>, bout: &BatchOutput, score: bool) {
    let _ = write!(
        b,
        "{{\"points\":{},\"spawned\":{},\"quarantined\":{},\"evicted\":{}",
        bout.points,
        bout.spawned,
        bout.quarantined.len(),
        bout.evicted.len(),
    );
    if score {
        b.extend_from_slice(b",\"scores\":[");
        for (i, s) in bout.scores.iter().enumerate() {
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
        let _ = write!(b, ",\"scores\":{}", bout.scores.len());
    }
    b.push(b'}');
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

    /// A log that refuses every append: the engine answers `Internal`.
    struct FailLog;

    impl BatchLog for FailLog {
        fn append(&self, _batch: &[(SeriesId, f64)]) -> std::io::Result<u64> {
            Err(std::io::Error::other("disk gone"))
        }
    }

    fn failing_engine() -> Engine<TestFactory, FailLog> {
        fn spawn(_id: u64) -> StreamingGlobalZScore {
            StreamingGlobalZScore::new(2).unwrap()
        }
        Engine::with_log(
            Fleet::new(
                FnFactory(spawn as fn(u64) -> StreamingGlobalZScore),
                FleetConfig::default(),
            ),
            EngineConfig::default(),
            FailLog,
        )
    }

    /// Feeds `req` to a fresh connection: `(response bytes, wants_close)`.
    fn answer<L: BatchLog>(e: &Engine<TestFactory, L>, req: &[u8]) -> (Vec<u8>, bool) {
        let mut conn = Conn::new(ConnConfig::default());
        conn.feed(req, e);
        assert_eq!(conn.requests(), 1);
        (conn.output().to_vec(), conn.wants_close())
    }

    #[test]
    fn http_busy_gets_503_with_retry_after() {
        let req = b"POST /ingest HTTP/1.1\r\nContent-Length: 12\r\n\r\n1 1.0\n2 2.0\n";
        let busy = engine(EngineConfig {
            max_inflight_points: 0,
            ..EngineConfig::default()
        });
        let (resp, close) = answer(&busy, req);
        assert_eq!(
            String::from_utf8(resp).unwrap(),
            "HTTP/1.1 503 Service Unavailable\r\nContent-Type: application/json\r\n\
             Content-Length: 32\r\nRetry-After: 1\r\nConnection: keep-alive\r\n\r\n\
             {\"error\":\"over capacity, retry\"}"
        );
        assert!(!close, "backpressure keeps the conn open");

        // the engine's other two refusals close the connection
        let too_large = engine(EngineConfig {
            max_batch_points: 1,
            ..EngineConfig::default()
        });
        let (resp, close) = answer(&too_large, req);
        assert_eq!(
            String::from_utf8(resp).unwrap(),
            "HTTP/1.1 413 Payload Too Large\r\nContent-Type: application/json\r\n\
             Content-Length: 36\r\nConnection: close\r\n\r\n\
             {\"error\":\"batch exceeds max points\"}"
        );
        assert!(close);
        let (resp, close) = answer(&failing_engine(), req);
        assert_eq!(
            String::from_utf8(resp).unwrap(),
            "HTTP/1.1 500 Internal Server Error\r\nContent-Type: application/json\r\n\
             Content-Length: 49\r\nConnection: close\r\n\r\n\
             {\"error\":\"durability failure, batch not applied\"}"
        );
        assert!(close);
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
        let mut payload = Vec::new();
        frame::write_point(&mut payload, 1, 1.0);
        frame::write_point(&mut payload, 2, 2.0);
        let mut req = Vec::new();
        frame::write_frame(&mut req, T_INGEST, &payload);
        let busy = engine(EngineConfig {
            max_inflight_points: 0,
            ..EngineConfig::default()
        });
        let (resp, close) = answer(&busy, &req);
        assert_eq!(resp, [0xB5, 1, T_RETRY, 0, 0, 0, 0, 0]);
        assert!(!close);

        // the engine's other two refusals are ERROR frames, which close
        let error_frame = |code: u16, detail: &str| {
            let mut f = vec![0xB5, 1, T_ERROR, 0];
            f.extend_from_slice(&(2 + detail.len() as u32).to_le_bytes());
            f.extend_from_slice(&code.to_le_bytes());
            f.extend_from_slice(detail.as_bytes());
            f
        };
        let too_large = engine(EngineConfig {
            max_batch_points: 1,
            ..EngineConfig::default()
        });
        let (resp, close) = answer(&too_large, &req);
        assert_eq!(resp, error_frame(413, "batch exceeds max points"));
        assert!(close);
        let (resp, close) = answer(&failing_engine(), &req);
        assert_eq!(
            resp,
            error_frame(500, "durability failure, batch not applied")
        );
        assert!(close);
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
