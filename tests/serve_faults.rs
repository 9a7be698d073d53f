//! Fault injection against the event-driven serve layer over real
//! sockets: slowloris, oversized requests, mid-request disconnects,
//! stalled readers, malformed pipelines, and sweeps that panic inside
//! the engine. Every scenario must
//! leave the server fully answering — the final probe in each test
//! proves no shard or worker was wedged.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use bpred_serve::server::{Server, ServerConfig, ServerHandle};

/// Compute workers in the test server.
const WORKERS: usize = 2;

/// A server with aggressive timeouts so fault tests run in seconds.
fn start() -> ServerHandle {
    Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        shards: 2,
        workers: WORKERS,
        cache_dir: None,
        max_branches: 2_000_000,
        read_timeout: Duration::from_millis(400),
        write_timeout: Duration::from_millis(400),
        idle_timeout: Duration::from_millis(800),
        ..ServerConfig::default()
    })
    .expect("server starts")
}

/// One full exchange on a fresh connection; reads to EOF. A server
/// that never answers fails the read rather than hanging the test.
fn get(addr: SocketAddr, target: &str) -> (String, Vec<u8>) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    write!(
        stream,
        "GET {target} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
    )
    .expect("send");
    let mut response = Vec::new();
    stream.read_to_end(&mut response).expect("read");
    let split = response
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("head/body boundary");
    let status = String::from_utf8_lossy(&response[..split])
        .lines()
        .next()
        .expect("status line")
        .to_owned();
    (status, response[split + 4..].to_vec())
}

/// The server still answers normally — the liveness probe every
/// fault test ends with.
fn assert_alive(addr: SocketAddr) {
    let (status, body) = get(addr, "/healthz");
    assert!(status.contains("200"), "server wedged: {status}");
    assert_eq!(body, b"ok\n");
    let (status, body) = get(
        addr,
        "/sweep?workload=espresso&branches=2000&configs=gshare:h=5,c=2",
    );
    assert!(status.contains("200"), "sweep path wedged: {status}");
    assert!(!body.is_empty());
}

#[test]
fn slowloris_header_drip_hits_the_read_timeout() {
    let server = start();
    let addr = server.addr();

    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let started = Instant::now();
    // Drip one byte at a time, never completing the request. The read
    // deadline is armed at the first byte and NOT refreshed per byte,
    // so the drip cannot hold the connection open indefinitely.
    let drip = b"GET /healthz HTTP/1.1\r\nHost: slow\r\nX-Drip: ";
    let mut cut = false;
    for byte in drip.iter().cycle().take(200) {
        if stream.write_all(std::slice::from_ref(byte)).is_err() {
            cut = true; // server already closed on us
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    if !cut {
        // Writes may succeed into buffers after close; EOF on read is
        // the definitive signal.
        let mut scratch = [0u8; 64];
        let n = stream.read(&mut scratch).expect("read after timeout");
        assert_eq!(n, 0, "server must close, not answer, a slowloris");
    }
    assert!(
        started.elapsed() < Duration::from_secs(8),
        "connection was cut by the read timeout, not held to the drip's end"
    );
    assert_alive(addr);
    server.shutdown();
}

#[test]
fn oversized_request_line_gets_431_not_a_hang() {
    let server = start();
    let addr = server.addr();

    let mut stream = TcpStream::connect(addr).expect("connect");
    let huge = format!("GET /{} HTTP/1.1\r\n", "x".repeat(64 * 1024));
    // The server may cut us off mid-write (it answers 431 and closes
    // as soon as the head cap trips); keep writing best-effort.
    let _ = stream.write_all(huge.as_bytes());
    let mut response = Vec::new();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let _ = stream.read_to_end(&mut response);
    let head = String::from_utf8_lossy(&response);
    assert!(
        head.starts_with("HTTP/1.1 431"),
        "oversized head must be 431, got {:?}",
        head.lines().next().unwrap_or("<empty>")
    );
    assert_alive(addr);
    server.shutdown();
}

#[test]
fn oversized_body_declaration_gets_413() {
    let server = start();
    let addr = server.addr();

    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(
        stream,
        "POST /sweep HTTP/1.1\r\nHost: t\r\nContent-Length: 999999999\r\n\r\n"
    )
    .expect("send head");
    let mut response = Vec::new();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let _ = stream.read_to_end(&mut response);
    let head = String::from_utf8_lossy(&response);
    assert!(
        head.starts_with("HTTP/1.1 413"),
        "oversized body must be 413, got {:?}",
        head.lines().next().unwrap_or("<empty>")
    );
    assert_alive(addr);
    server.shutdown();
}

#[test]
fn mid_request_disconnect_does_not_wedge_a_worker() {
    let server = start();
    let addr = server.addr();

    // Half a request, then vanish — ×8, more than the worker count.
    for _ in 0..8 {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .write_all(b"GET /sweep?workload=espresso HTT")
            .expect("partial send");
        stream.shutdown(Shutdown::Both).expect("abandon");
    }
    // Full request dispatched to compute, then vanish before reading
    // the response — the completion must be dropped, not delivered to
    // a recycled connection.
    for _ in 0..4 {
        let mut stream = TcpStream::connect(addr).expect("connect");
        write!(
            stream,
            "GET /sweep?workload=espresso&branches=2000&configs=gshare:h=5,c=2 HTTP/1.1\r\nHost: t\r\n\r\n"
        )
        .expect("send");
        drop(stream);
    }
    std::thread::sleep(Duration::from_millis(100));
    assert_alive(addr);
    server.shutdown();
}

#[test]
fn stalled_reader_hits_the_write_timeout() {
    let server = start();
    let addr = server.addr();

    // Ask for a large response (metrics is small; use a sweep with
    // many configs) and then never read it. With TCP buffers full the
    // server parks in Writing until the write deadline cuts it loose.
    let configs: Vec<String> = (2..10)
        .flat_map(|h| (1..=4).map(move |c| format!("gshare:h={h},c={c}")))
        .collect();
    let target = format!(
        "/sweep?workload=espresso&branches=2000&configs={}",
        configs.join(";")
    );
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(stream, "GET {target} HTTP/1.1\r\nHost: t\r\n\r\n").expect("send");
    // Do not read. Give the server time to compute, fill buffers, and
    // time out the write; it must not block a shard forever.
    std::thread::sleep(Duration::from_millis(900));
    assert_alive(addr);
    drop(stream);
    server.shutdown();
}

#[test]
fn malformed_pipelined_request_closes_cleanly() {
    let server = start();
    let addr = server.addr();

    let mut stream = TcpStream::connect(addr).expect("connect");
    // A valid request pipelined ahead of garbage: the first answers,
    // the malformed tail turns into one 400 and a close — not a
    // parse loop or a crash.
    stream
        .write_all(
            b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n\
              THIS IS NOT HTTP\0\x01\x02\r\n\r\n",
        )
        .expect("send");
    let mut response = Vec::new();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    stream.read_to_end(&mut response).expect("read to close");
    let text = String::from_utf8_lossy(&response);
    assert!(
        text.starts_with("HTTP/1.1 200"),
        "first pipelined request answered"
    );
    assert!(
        text.contains("HTTP/1.1 400"),
        "malformed tail answered with 400: {text}"
    );
    assert_alive(addr);
    server.shutdown();
}

#[test]
fn idle_keepalive_connection_is_reaped() {
    let server = start();
    let addr = server.addr();

    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(stream, "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n").expect("send");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut buf = [0u8; 1024];
    let n = stream.read(&mut buf).expect("response");
    assert!(String::from_utf8_lossy(&buf[..n]).starts_with("HTTP/1.1 200"));

    // Now go quiet past the idle timeout; the server reaps us (EOF).
    let started = Instant::now();
    let mut tail = Vec::new();
    stream.read_to_end(&mut tail).expect("EOF when reaped");
    assert!(tail.is_empty(), "no bytes after the response");
    assert!(
        started.elapsed() < Duration::from_secs(4),
        "idle reap happened on the idle timeout"
    );
    assert_alive(addr);
    server.shutdown();
}

#[test]
fn engine_panic_answers_500_and_the_worker_survives() {
    let server = start();
    let addr = server.addr();

    // 2^40 history rows cannot be sized: the engine panics while
    // building the lanes. One more such sweep than there are compute
    // workers, so a worker that died with its panic would leave the
    // last one unanswered.
    let sent = WORKERS + 1;
    for _ in 0..sent {
        let (status, _) = get(
            addr,
            "/sweep?workload=espresso&branches=2000&configs=gshare:h=40,c=2",
        );
        assert!(status.contains("500"), "engine panic answered {status}");
    }
    assert_alive(addr);

    let (status, body) = get(addr, "/metrics");
    assert!(status.contains("200"));
    let metrics = String::from_utf8(body).expect("metrics are text");
    assert!(
        metrics.lines().any(|l| l == "bpred_inflight_batches 0"),
        "a panicked batch left the inflight gauge raised"
    );
    let counted = format!("bpred_serve_requests_total{{status=\"500\"}} {sent}");
    assert!(
        metrics.lines().any(|l| l == counted),
        "every panic counted as a 500"
    );
    server.shutdown();
}
