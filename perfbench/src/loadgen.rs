//! Open-loop HTTP load: one thread sends every request when it falls
//! due, whatever is still outstanding, over a few keep-alive
//! connections, and collects the responses in order. Latency is timed
//! from the request's due time, so a stall also charges the requests
//! that queued behind it.
//!
//! Between events the thread blocks in `ppoll` on its connections,
//! until a response arrives or the next request falls due. It does not
//! spin: on a two-core machine a spinning generator takes a core from
//! the server, whose two threads then share the other one, and the
//! run measures the scheduler instead of the server. The wake-up delay
//! is charged to the request, as lateness and latency both.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

/// One scheduled request.
#[derive(Debug, Clone)]
pub struct Planned {
    /// Offset of its due time from the start of the schedule.
    pub due: Duration,
    /// Request target, e.g. `/sweep?...`.
    pub target: String,
    /// Index of the body it must return.
    pub expected: usize,
    /// Whether it needs fresh computation.
    pub cold: bool,
}

/// What happened to one request.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Whether it needed fresh computation.
    pub cold: bool,
    /// From due time to the last byte of the response, in ms (to the
    /// moment it was given up on, for a request with no response).
    pub latency_ms: f64,
    /// How late the generator sent it, in ms.
    pub late_ms: f64,
    /// HTTP status; 0 when no response arrived.
    pub status: u16,
    /// Status 200 and the expected body.
    pub ok: bool,
}

fn invalid(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.to_owned())
}

/// Parses one complete response with a `Content-Length` body from the
/// front of `buf`: status, body and the bytes it took, or `None` while
/// it is incomplete.
pub fn parse_response(buf: &[u8]) -> io::Result<Option<(u16, Vec<u8>, usize)>> {
    let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| invalid("non-UTF-8 head"))?;
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|line| line.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| invalid("bad status line"))?;
    let mut length = 0usize;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                length = value
                    .trim()
                    .parse()
                    .map_err(|_| invalid("bad content-length"))?;
            }
        }
    }
    let total = head_end + 4 + length;
    if buf.len() < total {
        return Ok(None);
    }
    Ok(Some((status, buf[head_end + 4..total].to_vec(), total)))
}

/// Reads one response from a blocking stream with nothing else in
/// flight.
pub fn read_response(stream: &mut impl Read) -> io::Result<(u16, Vec<u8>)> {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        if let Some((status, body, _)) = parse_response(&buf)? {
            return Ok((status, body));
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed",
            ));
        }
        buf.extend_from_slice(&chunk[..n]);
    }
}

/// The request line and headers for `target`.
pub fn request_bytes(target: &str) -> Vec<u8> {
    format!("GET {target} HTTP/1.1\r\nHost: perfbench\r\n\r\n").into_bytes()
}

/// A request sent and not yet answered.
struct Waiting {
    index: usize,
    due: Instant,
    sent: Instant,
    late_ms: f64,
}

/// One keep-alive connection of the open loop.
struct Conn {
    stream: TcpStream,
    /// Request bytes the socket has not taken yet.
    outbox: Vec<u8>,
    /// Response bytes not parsed yet.
    inbox: Vec<u8>,
    /// Requests awaiting a response, oldest first.
    waiting: VecDeque<Waiting>,
    broken: bool,
}

impl Conn {
    /// Moves bytes both ways without blocking; false once the
    /// connection has failed.
    fn pump(&mut self, scratch: &mut [u8]) -> bool {
        while !self.broken && !self.outbox.is_empty() {
            match self.stream.write(&self.outbox) {
                Ok(n) => {
                    self.outbox.drain(..n);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(_) => self.broken = true,
            }
        }
        while !self.broken {
            match self.stream.read(scratch) {
                Ok(0) => self.broken = true,
                Ok(n) => self.inbox.extend_from_slice(&scratch[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(_) => self.broken = true,
            }
        }
        !self.broken
    }
}

/// Longest single wait, so that a stalled connection is noticed soon
/// after its patience runs out.
const MAX_WAIT: Duration = Duration::from_millis(10);

/// Blocks until a live connection has bytes to read, or room for the
/// request bytes it holds, or until `until`, whichever comes first.
fn wait(conns: &[Conn], until: Instant) {
    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, mask: *const u8) -> i32;
    }
    const POLLIN: i16 = 0x1;
    const POLLOUT: i16 = 0x4;
    let mut fds: Vec<PollFd> = conns
        .iter()
        .filter(|c| !c.broken)
        .map(|c| PollFd {
            fd: c.stream.as_raw_fd(),
            events: if c.outbox.is_empty() {
                POLLIN
            } else {
                POLLIN | POLLOUT
            },
            revents: 0,
        })
        .collect();
    let left = until
        .saturating_duration_since(Instant::now())
        .min(MAX_WAIT);
    let timeout = Timespec {
        tv_sec: left.as_secs() as i64,
        tv_nsec: i64::from(left.subsec_nanos()),
    };
    // SAFETY: `fds` holds `fds.len()` initialised pollfd records and
    // `timeout` a timespec, both alive for the call; a null mask leaves
    // the signal mask as it is. A failed or interrupted call only ends
    // the wait early.
    unsafe {
        ppoll(
            fds.as_mut_ptr(),
            fds.len() as u64,
            &timeout,
            std::ptr::null(),
        );
    }
}

/// Runs `plan` open-loop against `addr` over `connections` keep-alive
/// connections, each request going to the connection with the fewest
/// outstanding. A request with no response within `patience` of being
/// sent fails, and so does everything behind it on its connection.
/// Outcomes come back in plan order.
pub fn run(
    addr: SocketAddr,
    plan: &[Planned],
    bodies: &[String],
    connections: usize,
    patience: Duration,
) -> io::Result<Vec<Outcome>> {
    let mut conns = Vec::new();
    for _ in 0..connections.max(1) {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        conns.push(Conn {
            stream,
            outbox: Vec::new(),
            inbox: Vec::new(),
            waiting: VecDeque::new(),
            broken: false,
        });
    }
    let mut outcomes: Vec<Option<Outcome>> = vec![None; plan.len()];
    let mut scratch = vec![0u8; 1 << 16];
    let (mut next, mut finished) = (0, 0);
    let start = Instant::now();
    let finish = |outcomes: &mut Vec<Option<Outcome>>, w: &Waiting, status, ok| {
        outcomes[w.index] = Some(Outcome {
            cold: plan[w.index].cold,
            latency_ms: w.due.elapsed().as_secs_f64() * 1e3,
            late_ms: w.late_ms,
            status,
            ok,
        });
    };
    while finished < plan.len() {
        let now = Instant::now();
        while next < plan.len() && start + plan[next].due <= now {
            let due = start + plan[next].due;
            let waiting = Waiting {
                index: next,
                due,
                sent: now,
                late_ms: (now - due).as_secs_f64() * 1e3,
            };
            match conns
                .iter_mut()
                .filter(|c| !c.broken)
                .min_by_key(|c| c.waiting.len())
            {
                Some(conn) => {
                    conn.outbox.extend(request_bytes(&plan[next].target));
                    conn.waiting.push_back(waiting);
                }
                None => {
                    finish(&mut outcomes, &waiting, 0, false);
                    finished += 1;
                }
            }
            next += 1;
        }
        for conn in &mut conns {
            if conn.pump(&mut scratch) {
                while let Some((status, body, used)) = parse_response(&conn.inbox)? {
                    conn.inbox.drain(..used);
                    let Some(w) = conn.waiting.pop_front() else {
                        return Err(invalid("response without a request"));
                    };
                    let ok = status == 200 && body == bodies[plan[w.index].expected].as_bytes();
                    finish(&mut outcomes, &w, status, ok);
                    finished += 1;
                }
            }
            let stalled = conn
                .waiting
                .front()
                .is_some_and(|w| w.sent.elapsed() > patience);
            if conn.broken || stalled {
                conn.broken = true;
                for w in conn.waiting.drain(..) {
                    finish(&mut outcomes, &w, 0, false);
                    finished += 1;
                }
            }
        }
        if finished < plan.len() {
            let due = plan
                .get(next)
                .map_or(Instant::now() + MAX_WAIT, |p| start + p.due);
            wait(&conns, due);
        }
    }
    Ok(outcomes
        .into_iter()
        .map(|o| o.expect("every request has an outcome"))
        .collect())
}

/// Latencies as the limit sees them: a failed request counts as
/// missing it, at no less than `limit_ms` plus one millisecond.
pub fn effective_latencies<'a>(
    outcomes: impl IntoIterator<Item = &'a Outcome>,
    limit_ms: f64,
) -> Vec<f64> {
    outcomes
        .into_iter()
        .map(|o| {
            if o.ok {
                o.latency_ms
            } else {
                o.latency_ms.max(limit_ms + 1.0)
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};
    use std::net::TcpListener;

    /// A one-connection server answering each request after `delay`
    /// with the status and body `answer` gives for its index.
    fn fake_server(
        delay: Duration,
        answer: impl Fn(usize) -> (u16, String) + Send + 'static,
    ) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut writer = stream;
            let mut line = String::new();
            let mut index = 0;
            loop {
                line.clear();
                if reader.read_line(&mut line).unwrap_or(0) == 0 {
                    return;
                }
                if line.trim().is_empty() {
                    std::thread::sleep(delay);
                    let (status, body) = answer(index);
                    let response = format!(
                        "HTTP/1.1 {status} X\r\nContent-Length: {}\r\n\r\n{body}",
                        body.len()
                    );
                    writer.write_all(response.as_bytes()).unwrap();
                    index += 1;
                }
            }
        });
        (addr, handle)
    }

    fn plan(dues_ms: &[u64]) -> Vec<Planned> {
        dues_ms
            .iter()
            .map(|&ms| Planned {
                due: Duration::from_millis(ms),
                target: "/x".to_owned(),
                expected: 0,
                cold: false,
            })
            .collect()
    }

    #[test]
    fn latency_runs_from_the_due_time_not_the_send() {
        // Each answer takes 100 ms and the server is serial, so the
        // second request, due 10 ms after the first, waits ~90 ms
        // behind it before its own 100 ms.
        let (addr, server) = fake_server(Duration::from_millis(100), |_| (200, "ok".into()));
        let outcomes = run(
            addr,
            &plan(&[0, 10]),
            &["ok".to_owned()],
            1,
            Duration::from_secs(5),
        )
        .unwrap();
        server.join().unwrap();
        assert!(outcomes.iter().all(|o| o.ok));
        assert!(outcomes[0].latency_ms >= 100.0, "{outcomes:?}");
        assert!(outcomes[1].latency_ms >= 180.0, "{outcomes:?}");
        // The generator itself kept to the schedule.
        assert!(outcomes[1].late_ms < 50.0, "{outcomes:?}");
    }

    #[test]
    fn refusals_and_wrong_bodies_fail_and_miss_the_limit() {
        let (addr, server) = fake_server(Duration::ZERO, |i| match i {
            0 => (200, "ok".into()),
            1 => (429, "busy".into()),
            _ => (200, "stale".into()),
        });
        let outcomes = run(
            addr,
            &plan(&[0, 1, 2]),
            &["ok".to_owned()],
            1,
            Duration::from_secs(5),
        )
        .unwrap();
        server.join().unwrap();
        let ok: Vec<bool> = outcomes.iter().map(|o| o.ok).collect();
        assert_eq!(ok, [true, false, false]);
        assert_eq!(outcomes[1].status, 429);
        let limit = 50.0;
        let effective = effective_latencies(&outcomes, limit);
        assert!(effective[0] < limit);
        assert!(effective[1] > limit && effective[2] > limit);
    }

    #[test]
    fn a_request_never_answered_fails() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let outcomes = run(
            addr,
            &plan(&[0]),
            &["ok".to_owned()],
            1,
            Duration::from_millis(200),
        )
        .unwrap();
        drop(listener);
        assert_eq!(outcomes[0].status, 0);
        assert!(!outcomes[0].ok);
        assert!(outcomes[0].latency_ms >= 190.0);
    }
}
