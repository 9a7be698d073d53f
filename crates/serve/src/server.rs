//! The HTTP server: sharded event loops, keep-alive connections, a
//! bounded compute handoff with load shedding.
//!
//! The connection layer is an event-driven readiness loop on
//! nonblocking `std::net` (see [`crate::reactor`]): each
//! **shard** thread polls a cloned listener, its wake channel, and
//! its connections, and drives per-connection state machines through
//! `Reading → Computing → Writing → Reading` with HTTP/1.1
//! keep-alive and pipelining. Cheap routes (`/healthz`, `/metrics`,
//! parse failures) are answered inline on the event loop; sweep
//! requests are handed to a fixed **compute pool** over a bounded
//! queue. When the queue is full the request is **shed** with `429
//! Too Many Requests` + `Retry-After` instead of queueing
//! unboundedly — in-flight work always completes, new work is
//! refused at the door.
//!
//! Timeouts, all enforced by the shard's poll deadline:
//!
//! * **read** — a request (first byte to blank line + body) must
//!   complete within `read_timeout`; a byte-at-a-time slowloris dies
//!   here.
//! * **write** — a queued response must drain within
//!   `write_timeout`; a client that stops reading cannot pin a
//!   connection.
//! * **idle** — a keep-alive connection with no pending request is
//!   dropped after `idle_timeout`.
//!
//! Timed-out connections are closed without a response (the peer
//! has, by definition, stopped participating). Compute time is
//! exempt: a dispatched request finishes regardless of how long the
//! batch takes.
//!
//! Routes:
//!
//! | method & path       | response                                    |
//! |---------------------|---------------------------------------------|
//! | `GET /healthz`      | `200 ok`                                    |
//! | `GET /metrics`      | Prometheus text exposition                  |
//! | `GET /sweep?…`      | sweep JSON (parameters in the query)        |
//! | `POST /sweep`       | sweep JSON (parameters form-encoded body)   |
//! | `GET /cell/<digest>`| raw stored cell object (peer exchange)      |
//! | `PUT /cell/<digest>`| store a verified cell object (peer exchange)|
//!
//! The `/cell` routes are the peer protocol: a node configured with
//! `BPRED_SERVE_PEERS` fetches cells it misses from its peers by
//! digest before computing them. GETs answer from local tiers only
//! (never recursing into this node's own peers), and PUTs verify the
//! object's checksum and that its embedded key hashes to the digest
//! before storing — peers can prime a cache but never poison it.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::http::{self, parse_request, Parsed, Request};
use crate::metrics::Metrics;
use crate::reactor::{self, Entry, Interest, WakeChannel, Waker};
use crate::service::{SweepRequest, SweepService};
use crate::store::{ResultStore, StoreOptions};

/// Server construction parameters.
///
/// [`Default`] reads the env knobs: `BPRED_SERVE_QUEUE` (compute
/// queue depth), `BPRED_SERVE_TIMEOUT_MS` (read and write timeout),
/// `BPRED_SERVE_IDLE_MS` (keep-alive idle timeout). Invalid values
/// warn and fall back.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Event-loop shards (acceptor + connection reactors).
    pub shards: usize,
    /// Compute-pool threads executing sweep requests.
    pub workers: usize,
    /// Result-store directory; `None` serves uncached.
    pub cache_dir: Option<std::path::PathBuf>,
    /// Per-request cap on replay length (conditional branches).
    pub max_branches: usize,
    /// Bounded handoff queue between shards and the compute pool;
    /// a full queue sheds with `429 + Retry-After`.
    pub queue_depth: usize,
    /// A request must arrive completely within this window.
    pub read_timeout: Duration,
    /// A response must drain completely within this window.
    pub write_timeout: Duration,
    /// Idle keep-alive connections are closed after this window.
    pub idle_timeout: Duration,
    /// Result-store tuning (tiers, seal threshold, peers); the
    /// default honours the `BPRED_STORE_*` / `BPRED_SERVE_PEERS`
    /// environment.
    pub store: StoreOptions,
}

fn env_parse<T: std::str::FromStr>(name: &str) -> Option<T> {
    let raw = std::env::var(name).ok()?;
    if raw.trim().is_empty() {
        return None;
    }
    match raw.trim().parse() {
        Ok(v) => Some(v),
        Err(_) => {
            eprintln!("warning: ignoring invalid {name}={raw:?}");
            None
        }
    }
}

impl Default for ServerConfig {
    fn default() -> Self {
        let timeout = Duration::from_millis(env_parse("BPRED_SERVE_TIMEOUT_MS").unwrap_or(10_000));
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            shards: 2,
            workers: 4,
            cache_dir: None,
            max_branches: 2_000_000,
            queue_depth: env_parse("BPRED_SERVE_QUEUE").unwrap_or(64),
            read_timeout: timeout,
            write_timeout: timeout,
            idle_timeout: Duration::from_millis(env_parse("BPRED_SERVE_IDLE_MS").unwrap_or(30_000)),
            store: StoreOptions::from_env(),
        }
    }
}

/// The server entry point.
#[derive(Debug)]
pub struct Server;

/// A sweep request in flight from a shard to the compute pool.
struct Job {
    shard: usize,
    token: usize,
    gen: u64,
    keep_alive: bool,
    sweep: SweepRequest,
}

/// A computed response on its way back to a shard.
struct Completion {
    token: usize,
    gen: u64,
    bytes: Vec<u8>,
    close: bool,
}

/// Per-shard inbox for compute completions plus the waker that
/// breaks the shard out of `poll` when one lands.
struct Mailbox {
    completions: Mutex<Vec<Completion>>,
    waker: Waker,
}

impl std::fmt::Debug for Mailbox {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mailbox").finish_non_exhaustive()
    }
}

fn lock_recover<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|e| e.into_inner())
}

impl Server {
    /// Binds, spawns the shard and compute threads, and returns a
    /// handle. Fails if the address cannot be bound or the store
    /// cannot be opened.
    pub fn start(config: ServerConfig) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let store = match &config.cache_dir {
            Some(dir) => Some(Arc::new(ResultStore::open_with(dir, config.store.clone())?)),
            None => None,
        };
        let metrics = Arc::new(Metrics::new());
        if let Some(store) = &store {
            metrics.attach_store(store.stats());
        }
        let service = Arc::new(SweepService::new(
            store.clone(),
            metrics.clone(),
            config.max_branches,
        ));

        let stopping = Arc::new(AtomicBool::new(false));
        let shard_count = config.shards.max(1);
        let (job_tx, job_rx): (SyncSender<Job>, Receiver<Job>) =
            sync_channel(config.queue_depth.max(1));
        let job_rx = Arc::new(Mutex::new(job_rx));

        let mut mailboxes = Vec::with_capacity(shard_count);
        let mut channels = Vec::with_capacity(shard_count);
        for _ in 0..shard_count {
            let (waker, channel) = WakeChannel::new()?;
            mailboxes.push(Mailbox {
                completions: Mutex::new(Vec::new()),
                waker,
            });
            channels.push(channel);
        }
        let mailboxes = Arc::new(mailboxes);

        let mut workers = Vec::with_capacity(config.workers.max(1));
        for i in 0..config.workers.max(1) {
            let job_rx = job_rx.clone();
            let service = service.clone();
            let metrics = metrics.clone();
            let mailboxes = mailboxes.clone();
            workers.push(
                std::thread::Builder::new()
                    .name(format!("bpred-serve-worker-{i}"))
                    .spawn(move || worker_loop(&job_rx, &service, &metrics, &mailboxes))?,
            );
        }
        drop(job_rx);

        let mut shards = Vec::with_capacity(shard_count);
        for (id, channel) in channels.into_iter().enumerate() {
            let shard = Shard {
                id,
                listener: listener.try_clone()?,
                wake: channel,
                mailboxes: mailboxes.clone(),
                jobs: job_tx.clone(),
                metrics: metrics.clone(),
                store: store.clone(),
                read_timeout: config.read_timeout,
                write_timeout: config.write_timeout,
                idle_timeout: config.idle_timeout,
                stopping: stopping.clone(),
                conns: Vec::new(),
                free: Vec::new(),
                next_gen: 0,
            };
            shards.push(
                std::thread::Builder::new()
                    .name(format!("bpred-serve-shard-{id}"))
                    .spawn(move || shard.run())?,
            );
        }
        drop(job_tx); // workers retire once every shard exits

        Ok(ServerHandle {
            addr,
            metrics,
            store,
            stopping,
            mailboxes,
            shards,
            workers,
        })
    }
}

/// A running server; dropping it without [`shutdown`](Self::shutdown)
/// detaches the threads (the process exit reaps them).
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    metrics: Arc<Metrics>,
    store: Option<Arc<ResultStore>>,
    stopping: Arc<AtomicBool>,
    mailboxes: Arc<Vec<Mailbox>>,
    shards: Vec<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server's metrics.
    pub fn metrics(&self) -> &Arc<Metrics> {
        &self.metrics
    }

    /// The result store, when the server persists.
    pub fn store(&self) -> Option<&Arc<ResultStore>> {
        self.store.as_ref()
    }

    /// Stops the shards, lets queued compute finish, and joins every
    /// thread. Connections are closed; responses already queued to
    /// the compute pool are discarded at delivery.
    pub fn shutdown(mut self) {
        self.stopping.store(true, Ordering::SeqCst);
        for mailbox in self.mailboxes.iter() {
            mailbox.waker.wake();
        }
        for shard in self.shards.drain(..) {
            let _ = shard.join();
        }
        // Every shard has exited and dropped its job sender, so the
        // workers' `recv` returns Err and they retire.
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

fn worker_loop(
    job_rx: &Arc<Mutex<Receiver<Job>>>,
    service: &SweepService,
    metrics: &Metrics,
    mailboxes: &[Mailbox],
) {
    loop {
        // Hold the receiver lock only for the take.
        let job = { lock_recover(job_rx).recv() };
        let Ok(job) = job else { return }; // channel closed: shutdown
        metrics.queue_depth.fetch_sub(1, Ordering::Relaxed);
        // A panic inside the engine (say, a configuration whose tables
        // cannot be sized) answers 500 and leaves this worker running.
        // The service's shared state stays consistent across the
        // unwind: flight entries abort on drop, locks recover from
        // poisoning, and the inflight gauge is a drop guard.
        let executed = panic::catch_unwind(AssertUnwindSafe(|| service.execute(&job.sweep)));
        let (status, bytes) = match executed {
            Ok(Ok((body, provenance))) => (
                200,
                http::response(
                    200,
                    "application/json",
                    &[format!("X-Bpred-Provenance: {}", provenance.header_value())],
                    body.as_bytes(),
                    job.keep_alive,
                ),
            ),
            Ok(Err(bad)) => {
                Metrics::inc(&metrics.bad_requests);
                (
                    bad.status,
                    http::response(
                        bad.status,
                        "text/plain; charset=utf-8",
                        &[],
                        format!("{}\n", bad.message).as_bytes(),
                        job.keep_alive,
                    ),
                )
            }
            Err(_) => (
                500,
                http::response(
                    500,
                    "text/plain; charset=utf-8",
                    &[],
                    b"sweep failed inside the engine\n",
                    job.keep_alive,
                ),
            ),
        };
        metrics.observe_status(status);
        let mailbox = &mailboxes[job.shard];
        lock_recover(&mailbox.completions).push(Completion {
            token: job.token,
            gen: job.gen,
            bytes,
            close: !job.keep_alive,
        });
        mailbox.waker.wake();
    }
}

/// Per-connection state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ConnState {
    /// Accumulating request bytes.
    Reading,
    /// A sweep is in the compute pool; no timeout applies.
    Computing,
    /// Draining a queued response.
    Writing,
}

struct Conn {
    stream: TcpStream,
    state: ConnState,
    /// Unparsed inbound bytes (may hold pipelined requests).
    buf: Vec<u8>,
    /// Queued outbound bytes and the drain cursor.
    out: Vec<u8>,
    out_pos: usize,
    /// When the current state must have made progress.
    deadline: Option<Instant>,
    /// Guards completions against token reuse.
    gen: u64,
    close_after_write: bool,
    /// Read side saw EOF (client closed or half-closed).
    peer_gone: bool,
}

const READ_CHUNK: usize = 16 * 1024;
/// Backpressure cap on buffered inbound bytes: one max-size request
/// plus pipelined follow-on headroom. Beyond this the shard stops
/// reading and TCP flow control takes over.
const MAX_BUFFER: usize = http::MAX_HEAD_BYTES + http::MAX_BODY_BYTES + 16 * 1024;

/// What `flush` left behind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Flush {
    /// Response fully written; connection is back in `Reading`.
    Done,
    /// Bytes remain; waiting for write readiness.
    Pending,
    /// The connection died and was closed.
    Closed,
}

struct Shard {
    id: usize,
    listener: TcpListener,
    wake: WakeChannel,
    mailboxes: Arc<Vec<Mailbox>>,
    jobs: SyncSender<Job>,
    metrics: Arc<Metrics>,
    store: Option<Arc<ResultStore>>,
    read_timeout: Duration,
    write_timeout: Duration,
    idle_timeout: Duration,
    stopping: Arc<AtomicBool>,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    next_gen: u64,
}

/// What a poll entry maps back to.
#[derive(Debug, Clone, Copy)]
enum Slot {
    Wake,
    Listener,
    Conn(usize),
}

impl Shard {
    fn run(mut self) {
        let mut entries: Vec<Entry> = Vec::new();
        let mut slots: Vec<Slot> = Vec::new();
        loop {
            if self.stopping.load(Ordering::SeqCst) {
                break;
            }
            entries.clear();
            slots.clear();
            entries.push(Entry::new(self.wake.fd(), Interest::READ));
            slots.push(Slot::Wake);
            entries.push(Entry::new(self.listener.as_raw_fd(), Interest::READ));
            slots.push(Slot::Listener);

            let now = Instant::now();
            let mut next_deadline: Option<Instant> = None;
            for (i, conn) in self.conns.iter().enumerate() {
                let Some(conn) = conn else { continue };
                let interest = match conn.state {
                    ConnState::Reading if !conn.peer_gone && conn.buf.len() < MAX_BUFFER => {
                        Some(Interest::READ)
                    }
                    ConnState::Writing => Some(Interest::WRITE),
                    _ => None,
                };
                if let Some(interest) = interest {
                    entries.push(Entry::new(conn.stream.as_raw_fd(), interest));
                    slots.push(Slot::Conn(i));
                }
                if let Some(d) = conn.deadline {
                    next_deadline = Some(next_deadline.map_or(d, |n: Instant| n.min(d)));
                }
            }
            let timeout = next_deadline
                .map(|d| d.saturating_duration_since(now))
                .unwrap_or(Duration::from_millis(500))
                .min(Duration::from_millis(500));
            let _ = reactor::poll(&mut entries, timeout);

            self.wake.drain();
            let completions =
                std::mem::take(&mut *lock_recover(&self.mailboxes[self.id].completions));
            for completion in completions {
                self.deliver(completion);
            }

            for (slot, entry) in slots.iter().zip(entries.iter()) {
                match *slot {
                    Slot::Wake => {}
                    Slot::Listener => {
                        if entry.readiness.readable {
                            self.accept_ready();
                        }
                    }
                    Slot::Conn(i) => {
                        if self.conns.get(i).is_none_or(Option::is_none) {
                            continue;
                        }
                        if entry.readiness.readable {
                            self.on_readable(i);
                        }
                        if self.conns[i].is_some() && entry.readiness.writable {
                            self.on_writable(i);
                        }
                        if self.conns[i].is_some()
                            && entry.readiness.failed
                            && !entry.readiness.readable
                            && !entry.readiness.writable
                        {
                            self.close(i);
                        }
                    }
                }
            }

            // Deadlines: a connection that failed to make progress in
            // time is closed without ceremony.
            let now = Instant::now();
            for i in 0..self.conns.len() {
                let expired = self.conns[i]
                    .as_ref()
                    .and_then(|c| c.deadline)
                    .is_some_and(|d| d <= now);
                if expired {
                    self.close(i);
                }
            }
        }
        // Shutdown: close every connection (the gauge must land back
        // at zero) and drop the listener clone and job sender.
        for i in 0..self.conns.len() {
            if self.conns[i].is_some() {
                self.close(i);
            }
        }
    }

    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    self.next_gen += 1;
                    let conn = Conn {
                        stream,
                        state: ConnState::Reading,
                        buf: Vec::new(),
                        out: Vec::new(),
                        out_pos: 0,
                        deadline: Some(Instant::now() + self.read_timeout),
                        gen: self.next_gen,
                        close_after_write: false,
                        peer_gone: false,
                    };
                    let token = match self.free.pop() {
                        Some(token) => {
                            self.conns[token] = Some(conn);
                            token
                        }
                        None => {
                            self.conns.push(Some(conn));
                            self.conns.len() - 1
                        }
                    };
                    let _ = token;
                    self.metrics
                        .connections_open
                        .fetch_add(1, Ordering::Relaxed);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
    }

    fn close(&mut self, token: usize) {
        if self.conns[token].take().is_some() {
            self.free.push(token);
            self.metrics
                .connections_open
                .fetch_sub(1, Ordering::Relaxed);
        }
    }

    fn on_readable(&mut self, token: usize) {
        let Some(conn) = self.conns[token].as_mut() else {
            return;
        };
        let was_empty = conn.buf.is_empty();
        let mut scratch = [0u8; READ_CHUNK];
        loop {
            if conn.buf.len() >= MAX_BUFFER {
                break;
            }
            match conn.stream.read(&mut scratch) {
                Ok(0) => {
                    conn.peer_gone = true;
                    break;
                }
                Ok(n) => conn.buf.extend_from_slice(&scratch[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close(token);
                    return;
                }
            }
        }
        // A fresh request starting on an idle keep-alive connection
        // re-arms the (stricter) read deadline.
        if was_empty && !conn.buf.is_empty() && conn.state == ConnState::Reading {
            conn.deadline = Some(Instant::now() + self.read_timeout);
        }
        if conn.state == ConnState::Reading {
            self.advance(token);
        }
    }

    fn on_writable(&mut self, token: usize) {
        if self.flush(token) == Flush::Done {
            self.advance(token);
        }
    }

    /// Applies a compute completion to its connection, unless the
    /// connection died (or was recycled) in the meantime.
    fn deliver(&mut self, completion: Completion) {
        let alive = self.conns.get(completion.token).is_some_and(|slot| {
            slot.as_ref()
                .is_some_and(|c| c.gen == completion.gen && c.state == ConnState::Computing)
        });
        if !alive {
            return;
        }
        {
            let conn = self.conns[completion.token]
                .as_mut()
                .expect("checked above");
            conn.out = completion.bytes;
            conn.out_pos = 0;
            conn.close_after_write |= completion.close;
            conn.state = ConnState::Writing;
            conn.deadline = Some(Instant::now() + self.write_timeout);
        }
        if self.flush(completion.token) == Flush::Done {
            self.advance(completion.token);
        }
    }

    /// Parses and answers as many buffered requests as possible.
    /// Returns with the connection `Reading` (idle or mid-request),
    /// `Writing` (response pending write readiness), `Computing`
    /// (sweep dispatched), or closed.
    fn advance(&mut self, token: usize) {
        loop {
            let Some(conn) = self.conns[token].as_mut() else {
                return;
            };
            if conn.state != ConnState::Reading {
                return;
            }
            match parse_request(&conn.buf) {
                Parsed::Incomplete => {
                    if conn.peer_gone {
                        // Mid-request disconnect (or clean idle EOF):
                        // nothing more will arrive.
                        self.close(token);
                    }
                    return;
                }
                Parsed::Error(error) => {
                    Metrics::inc(&self.metrics.bad_requests);
                    self.metrics.observe_status(error.status());
                    let conn = self.conns[token].as_mut().expect("checked above");
                    conn.buf.clear();
                    conn.out = http::error_response(error, false);
                    conn.out_pos = 0;
                    conn.close_after_write = true;
                    conn.state = ConnState::Writing;
                    conn.deadline = Some(Instant::now() + self.write_timeout);
                    let _ = self.flush(token);
                    return;
                }
                Parsed::Request(request, consumed) => {
                    conn.buf.drain(..consumed);
                    Metrics::inc(&self.metrics.http_requests);
                    match self.handle(token, request) {
                        Flush::Done => continue, // next pipelined request
                        Flush::Pending | Flush::Closed => return,
                    }
                }
            }
        }
    }

    /// Routes one parsed request. Inline routes queue their response
    /// and return the flush outcome; a dispatched sweep returns
    /// `Pending` (the connection is `Computing`).
    fn handle(&mut self, token: usize, request: Request) -> Flush {
        let keep_alive = request.keep_alive;
        let inline: Option<(u16, Vec<u8>)> = match (request.method.as_str(), request.path.as_str())
        {
            ("GET", "/healthz") => Some((
                200,
                http::response(200, "text/plain; charset=utf-8", &[], b"ok\n", keep_alive),
            )),
            ("GET", "/metrics") => {
                let body = self.metrics.render_prometheus();
                Some((
                    200,
                    http::response(
                        200,
                        "text/plain; version=0.0.4; charset=utf-8",
                        &[],
                        body.as_bytes(),
                        keep_alive,
                    ),
                ))
            }
            // Peer cell exchange: raw stored objects by digest,
            // answered inline (tier reads are a map probe or one
            // small pread — far cheaper than a sweep).
            ("GET", path) if path.starts_with("/cell/") => {
                let digest = &path["/cell/".len()..];
                Some(
                    match self.store.as_deref().and_then(|s| s.get_raw(digest)) {
                        Some(bytes) => (
                            200,
                            http::response(
                                200,
                                "application/octet-stream",
                                &[],
                                &bytes,
                                keep_alive,
                            ),
                        ),
                        None => {
                            let digest_ok =
                                digest.len() == 32 && digest.bytes().all(|b| b.is_ascii_hexdigit());
                            let (status, message): (u16, &[u8]) = if self.store.is_none() {
                                (404, b"no result store\n")
                            } else if !digest_ok {
                                (400, b"digest must be 32 hex digits\n")
                            } else {
                                (404, b"cell not stored here\n")
                            };
                            if status == 400 {
                                Metrics::inc(&self.metrics.bad_requests);
                            }
                            (
                                status,
                                http::response(
                                    status,
                                    "text/plain; charset=utf-8",
                                    &[],
                                    message,
                                    keep_alive,
                                ),
                            )
                        }
                    },
                )
            }
            ("PUT", path) if path.starts_with("/cell/") => {
                let digest = &path["/cell/".len()..];
                Some(match self.store.as_deref() {
                    None => (
                        404,
                        http::response(
                            404,
                            "text/plain; charset=utf-8",
                            &[],
                            b"no result store\n",
                            keep_alive,
                        ),
                    ),
                    Some(store) => match store.put_raw(digest, &request.body) {
                        Ok(()) => (
                            200,
                            http::response(
                                200,
                                "text/plain; charset=utf-8",
                                &[],
                                b"stored\n",
                                keep_alive,
                            ),
                        ),
                        Err(message) => {
                            Metrics::inc(&self.metrics.bad_requests);
                            (
                                400,
                                http::response(
                                    400,
                                    "text/plain; charset=utf-8",
                                    &[],
                                    format!("{message}\n").as_bytes(),
                                    keep_alive,
                                ),
                            )
                        }
                    },
                })
            }
            ("GET", "/sweep") | ("POST", "/sweep") => {
                let params = if request.method == "POST" {
                    String::from_utf8_lossy(&request.body).into_owned()
                } else {
                    request.query.clone()
                };
                match SweepRequest::parse(&params) {
                    Ok(sweep) => {
                        let conn = self.conns[token].as_ref().expect("caller checked");
                        let job = Job {
                            shard: self.id,
                            token,
                            gen: conn.gen,
                            keep_alive,
                            sweep,
                        };
                        match self.jobs.try_send(job) {
                            Ok(()) => {
                                self.metrics.queue_depth.fetch_add(1, Ordering::Relaxed);
                                let conn = self.conns[token].as_mut().expect("caller checked");
                                conn.state = ConnState::Computing;
                                conn.deadline = None;
                                return Flush::Pending;
                            }
                            Err(TrySendError::Full(_)) => {
                                // Load shed: refuse at the door, tell
                                // the client when to come back.
                                Metrics::inc(&self.metrics.shed_total);
                                Some((
                                    429,
                                    http::response(
                                        429,
                                        "text/plain; charset=utf-8",
                                        &["Retry-After: 1".to_owned()],
                                        b"compute queue full, retry shortly\n",
                                        keep_alive,
                                    ),
                                ))
                            }
                            Err(TrySendError::Disconnected(_)) => Some((
                                500,
                                http::response(
                                    500,
                                    "text/plain; charset=utf-8",
                                    &[],
                                    b"compute pool unavailable\n",
                                    false,
                                ),
                            )),
                        }
                    }
                    Err(bad) => {
                        Metrics::inc(&self.metrics.bad_requests);
                        Some((
                            bad.status,
                            http::response(
                                bad.status,
                                "text/plain; charset=utf-8",
                                &[],
                                format!("{}\n", bad.message).as_bytes(),
                                keep_alive,
                            ),
                        ))
                    }
                }
            }
            _ => {
                Metrics::inc(&self.metrics.bad_requests);
                Some((
                    404,
                    http::response(
                        404,
                        "text/plain; charset=utf-8",
                        &[],
                        b"not found\n",
                        keep_alive,
                    ),
                ))
            }
        };

        let (status, bytes) = inline.expect("dispatched sweeps returned above");
        self.metrics.observe_status(status);
        let close = !keep_alive || status == 500;
        let conn = self.conns[token].as_mut().expect("caller checked");
        conn.out = bytes;
        conn.out_pos = 0;
        conn.close_after_write |= close;
        conn.state = ConnState::Writing;
        conn.deadline = Some(Instant::now() + self.write_timeout);
        self.flush(token)
    }

    /// Drains the outbound buffer as far as the socket allows and
    /// performs the post-response transition when it empties.
    fn flush(&mut self, token: usize) -> Flush {
        let Some(conn) = self.conns[token].as_mut() else {
            return Flush::Closed;
        };
        while conn.out_pos < conn.out.len() {
            match conn.stream.write(&conn.out[conn.out_pos..]) {
                Ok(0) => {
                    self.close(token);
                    return Flush::Closed;
                }
                Ok(n) => conn.out_pos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    conn.state = ConnState::Writing;
                    return Flush::Pending;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close(token);
                    return Flush::Closed;
                }
            }
        }
        conn.out.clear();
        conn.out_pos = 0;
        if conn.close_after_write {
            self.close(token);
            return Flush::Closed;
        }
        conn.state = ConnState::Reading;
        conn.deadline = Some(
            Instant::now() + {
                if conn.buf.is_empty() {
                    self.idle_timeout
                } else {
                    self.read_timeout
                }
            },
        );
        Flush::Done
    }
}
