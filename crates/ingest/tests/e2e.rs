//! End-to-end socket tests: a real server on a loopback port, driven by
//! raw sockets and the built-in load generator.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use tsad_fleet::{Fleet, FleetConfig};
use tsad_ingest::{
    frame, Engine, EngineConfig, LoadGenConfig, ServerConfig, ServerHandle, Transport,
};
use tsad_stream::{FnFactory, StreamingGlobalZScore};

type TestFactory = FnFactory<fn(u64) -> StreamingGlobalZScore>;

fn spawn_detector(_id: u64) -> StreamingGlobalZScore {
    StreamingGlobalZScore::new(4).expect("window >= 2")
}

fn start_server(
    engine_cfg: EngineConfig,
    server_cfg: ServerConfig,
) -> (Arc<Engine<TestFactory>>, ServerHandle) {
    let fleet = Fleet::new(
        FnFactory(spawn_detector as fn(u64) -> StreamingGlobalZScore),
        FleetConfig {
            shards: 4,
            ..FleetConfig::default()
        },
    );
    let engine = Arc::new(Engine::new(fleet, engine_cfg));
    let handle =
        tsad_ingest::start(Arc::clone(&engine), server_cfg, "127.0.0.1:0").expect("bind loopback");
    (engine, handle)
}

fn send_recv(stream: &mut TcpStream, req: &[u8]) -> String {
    stream.write_all(req).expect("write request");
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        let n = stream.read(&mut chunk).expect("read response");
        if n == 0 {
            break;
        }
        buf.extend_from_slice(&chunk[..n]);
        // head complete and body buffered?
        if let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            let head = String::from_utf8_lossy(&buf[..head_end]);
            let cl: usize = head
                .lines()
                .find_map(|l| l.strip_prefix("Content-Length: "))
                .and_then(|v| v.parse().ok())
                .unwrap_or(0);
            if buf.len() >= head_end + 4 + cl {
                break;
            }
        }
    }
    String::from_utf8_lossy(&buf).into_owned()
}

#[test]
fn http_requests_over_a_real_socket() {
    let (engine, handle) = start_server(EngineConfig::default(), ServerConfig::default());
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();

    let body = "1 0.5\n2 1.5\n1 2.5\n";
    let req = format!(
        "POST /ingest HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    let resp = send_recv(&mut stream, req.as_bytes());
    assert!(resp.starts_with("HTTP/1.1 200 OK"), "{resp}");
    assert!(resp.contains("\"points\":3"), "{resp}");

    // keep-alive: same socket serves the next request
    let resp = send_recv(&mut stream, b"GET /query?id=1 HTTP/1.1\r\n\r\n");
    assert!(resp.contains("\"resident\":true"), "{resp}");
    let resp = send_recv(&mut stream, b"GET /stats HTTP/1.1\r\n\r\n");
    assert!(resp.contains("\"points\":3"), "{resp}");

    assert_eq!(engine.totals().points, 3);
    handle.stop().expect("clean shutdown");
}

#[test]
fn binary_frames_over_the_same_port() {
    let (engine, handle) = start_server(EngineConfig::default(), ServerConfig::default());
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();

    let mut payload = Vec::new();
    for (id, v) in [(10u64, 1.0f64), (11, 2.0), (10, 3.0)] {
        frame::write_point(&mut payload, id, v);
    }
    let mut req = Vec::new();
    frame::write_frame(&mut req, frame::T_INGEST, &payload);
    stream.write_all(&req).expect("write frame");

    let mut header = [0u8; frame::HEADER_LEN];
    stream.read_exact(&mut header).expect("ack header");
    assert_eq!(header[2], frame::T_ACK);
    let len = u32::from_le_bytes(header[4..8].try_into().unwrap()) as usize;
    let mut ack = vec![0u8; len];
    stream.read_exact(&mut ack).expect("ack payload");
    assert_eq!(u64::from_le_bytes(ack[..8].try_into().unwrap()), 3);

    assert_eq!(engine.totals().points, 3);
    handle.stop().expect("clean shutdown");
}

#[test]
fn loadgen_drives_both_transports() {
    let (engine, handle) = start_server(EngineConfig::default(), ServerConfig::default());
    for transport in [Transport::Http, Transport::Tcp] {
        let report = tsad_ingest::loadgen::run(
            handle.addr(),
            &LoadGenConfig {
                series: 100,
                conns: 2,
                batch_points: 8,
                requests: 40,
                transport,
                ..LoadGenConfig::default()
            },
        );
        assert_eq!(report.errors, 0, "{transport:?}: {report:?}");
        assert_eq!(report.requests, 40, "{transport:?}: {report:?}");
        assert_eq!(report.points, 320, "{transport:?}: {report:?}");
        assert!(report.p50_ns > 0, "{transport:?}: {report:?}");
    }
    // both transports fed the same fleet
    assert_eq!(engine.totals().points, 2 * 320);
    handle.stop().expect("clean shutdown");
}

#[test]
fn backpressure_reaches_the_client_as_retries() {
    let (engine, handle) = start_server(
        EngineConfig {
            max_inflight_points: 0,
            ..EngineConfig::default()
        },
        ServerConfig::default(),
    );
    let report = tsad_ingest::loadgen::run(
        handle.addr(),
        &LoadGenConfig {
            series: 10,
            conns: 1,
            batch_points: 4,
            requests: 10,
            transport: Transport::Tcp,
            ..LoadGenConfig::default()
        },
    );
    assert_eq!(report.requests, 0, "{report:?}");
    // every request exhausted its bounded backoff budget
    assert_eq!(report.retried, 10, "{report:?}");
    assert_eq!(
        report.retries,
        10 * (tsad_ingest::loadgen::MAX_ATTEMPTS as u64 - 1),
        "{report:?}"
    );
    assert_eq!(engine.totals().points, 0);
    assert_eq!(
        engine.totals().rejected,
        10 * tsad_ingest::loadgen::MAX_ATTEMPTS as u64
    );
    handle.stop().expect("clean shutdown");
}

#[test]
fn slowloris_is_timed_out_without_stalling_neighbours() {
    let (_engine, handle) = start_server(
        EngineConfig::default(),
        ServerConfig {
            idle_timeout: Duration::from_millis(200),
            ..ServerConfig::default()
        },
    );

    // A client that sends half a request head and then goes quiet.
    let mut slow = TcpStream::connect(handle.addr()).expect("connect slow");
    slow.write_all(b"POST /ingest HTTP/1.1\r\nContent-Le")
        .unwrap();
    slow.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();

    // Meanwhile real traffic flows unimpeded.
    let report = tsad_ingest::loadgen::run(
        handle.addr(),
        &LoadGenConfig {
            series: 10,
            conns: 2,
            batch_points: 4,
            requests: 50,
            ..LoadGenConfig::default()
        },
    );
    assert_eq!(report.errors, 0, "{report:?}");
    assert_eq!(report.requests, 50, "{report:?}");

    // The dribbler gets closed by the idle deadline (EOF on read).
    let mut buf = [0u8; 16];
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        match slow.read(&mut buf) {
            Ok(0) => break, // closed, as required
            Ok(_) => panic!("server answered an incomplete request"),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                assert!(std::time::Instant::now() < deadline, "never timed out");
            }
            Err(_) => break, // reset also counts as closed
        }
    }
    handle.stop().expect("clean shutdown");
}

#[test]
fn http10_connection_close_semantics() {
    let (_engine, handle) = start_server(EngineConfig::default(), ServerConfig::default());
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(b"GET /healthz HTTP/1.0\r\n\r\n").unwrap();
    let mut resp = Vec::new();
    stream.read_to_end(&mut resp).expect("read until close");
    let text = String::from_utf8_lossy(&resp);
    assert!(text.starts_with("HTTP/1.1 200 OK"), "{text}");
    assert!(text.contains("Connection: close"), "{text}");
    handle.stop().expect("clean shutdown");
}

#[test]
fn stop_wakes_workers_blocked_on_idle_keep_alive_connections() {
    let (_engine, handle) = start_server(
        EngineConfig::default(),
        ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        },
    );
    // Four accepted connections, each answered once and then left idle:
    // every worker then blocks until the 30 s keep-alive deadline unless
    // shutdown wakes it.
    let mut conns = Vec::new();
    for _ in 0..4 {
        let mut stream = TcpStream::connect(handle.addr()).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let resp = send_recv(&mut stream, b"GET /healthz HTTP/1.1\r\n\r\n");
        assert!(resp.starts_with("HTTP/1.1 200 OK"), "{resp}");
        conns.push(stream);
    }
    std::thread::sleep(Duration::from_millis(20));

    let t = std::time::Instant::now();
    handle.stop().expect("clean shutdown");
    let took = t.elapsed();
    assert!(took < Duration::from_secs(1), "stop took {took:?}");
    drop(conns);
}
