//! The `serve_mix` workload: the release `serve` binary on a scratch
//! store, driven open-loop by independent explorers. Seven requests in
//! eight are warm (their cells sit in the hot tier); the eighth asks
//! for a fresh trace seed, so it pays generation, replay and a pack
//! append. The schedule runs at a few fixed offered rates.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bpred_core::PredictorConfig;
use bpred_serve::{sweep_body, Metrics, ResultStore, SweepRequest, SweepService};
use bpred_sim::cache::CellKey;
use bpred_sim::experiments::Table3Scheme;
use bpred_sim::{run_configs, SimResult, Simulator};
use bpred_workloads::{suite, WorkloadModel, WorkloadSource};

use crate::host::{self, HostSpeed};
use crate::loadgen::{self, Outcome, Planned};
use crate::report::Report;
use crate::stats::{self, cpu_seconds, median, peak_rss_mb, Tail};
use crate::sweeps::{self, SimCounts, SpanNames};
use crate::trace::Tracer;
use crate::Cli;

/// Conditional branches every request replays: the length of the
/// `/sweep` the CI smoke step and the server tests send.
pub const BRANCHES: usize = 20_000;

/// Counter budgets (log2) an explorer sweeps: the budgets of the
/// paper's Table 3, as `all` renders it.
pub const BUDGETS: [u32; 3] = [9, 12, 15];

/// Distinct warm requests the explorers draw from: two per model, so
/// the mix of model build costs (0.04 to 3 ms) is the same under every
/// seed.
pub const WARM_REQUESTS: usize = 28;

/// One request in this many is cold.
pub const COLD_EVERY: usize = 8;

/// Offered rates, requests per second. The one compute worker
/// saturates between the top two (near 400/s here), well clear of
/// both, so the rate test does not flip from run to run; the top one
/// leaves room for a server several times faster. The middle one is a
/// light load.
pub const RATES: [f64; 5] = [25.0, 50.0, 100.0, 200.0, 3000.0];

/// Requests sent at any one rate at most: past capacity the backlog
/// then drains within a few seconds, well inside [`PATIENCE`].
const MAX_REQUESTS_PER_RATE: usize = 2_000;

/// The middle rate, at which the cold and warm latencies are reported.
/// It gets half of the run. A light load keeps queueing from
/// amplifying scheduling noise: at 300 requests/s the warm p99 spread
/// across runs was 1.5× its median, at 100 it was 0.18×.
pub const REPORT_RATE: usize = 2;

/// Seconds of the schedule at rate `rate` out of a run of `seconds`.
fn seconds_at(rate: usize, seconds: f64) -> f64 {
    if rate == REPORT_RATE {
        seconds / 2.0
    } else {
        seconds / 2.0 / (RATES.len() - 1) as f64
    }
}

/// The latency limit on the all-request tail percentile, ms: an
/// interactive explorer's perception threshold.
pub const LIMIT_MS: f64 = 100.0;

/// Keep-alive connections the generator spreads requests over.
pub const CONNECTIONS: usize = 2;

/// Open-loop segments the reporting rate's schedule runs in, with
/// host reference rounds between them (see [`crate::host`]).
const REPORT_SEGMENTS: usize = 5;

/// Server spawns whose median start-up time is `setup_s`.
const SETUP_SPAWNS: usize = 101;

/// A request still unanswered this long after it was sent fails.
const PATIENCE: Duration = Duration::from_secs(10);

/// `splitmix64`: the benchmark's own seeded generator, so its inputs
/// depend only on `--seed`.
pub fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One explorer's sweep: one cell of the paper's Table 3, i.e. every
/// row/column split of one scheme at one counter budget, on one model
/// and trace seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Benchmark model.
    pub workload: String,
    /// Trace seed.
    pub seed: u64,
    /// Configurations.
    pub configs: Vec<PredictorConfig>,
}

impl Request {
    /// The `/sweep` request target.
    pub fn target(&self) -> String {
        let configs: Vec<String> = self.configs.iter().map(|c| c.config_id()).collect();
        format!(
            "/sweep?workload={}&seed={}&branches={BRANCHES}&configs={}",
            self.workload,
            self.seed,
            configs.join(";")
        )
    }

    fn query(&self) -> String {
        self.target()
            .split_once('?')
            .map(|(_, q)| q.to_owned())
            .expect("targets carry a query")
    }
}

/// Request shapes: every (Table 3 scheme, budget) pair.
fn shapes() -> Vec<(Table3Scheme, u32)> {
    Table3Scheme::all()
        .into_iter()
        .flat_map(|scheme| BUDGETS.map(|bits| (scheme, bits)))
        .collect()
}

/// Explorer request `k` on trace seed `trace_seed`. Models and shapes
/// are dealt out in turn, from a per-seed starting shape, so every run
/// sends the same mix of request costs.
fn explorer_request(k: usize, rotation: usize, trace_seed: u64) -> Request {
    let models = suite::all_specs();
    let workload = models[k % models.len()].name.clone();
    let shapes = shapes();
    let (scheme, bits) = shapes[(k + rotation) % shapes.len()];
    let configs = (0..=bits)
        .rev()
        .map(|c| sweeps::table3_config(scheme, bits - c, c))
        .collect();
    Request {
        workload,
        seed: trace_seed,
        configs,
    }
}

/// Every input of one run, made from `--seed` alone.
#[derive(Debug, Clone, PartialEq)]
pub struct Inputs {
    /// The warm set: distinct requests whose cells are stored before
    /// the run.
    pub warm: Vec<Request>,
    /// Per offered rate, the schedule: due offset and request.
    pub schedules: Vec<Vec<(Duration, Request, bool)>>,
}

/// A trace seed no warm request and no other cold request uses.
fn cold_seed(seed: u64, rate: usize, k: usize) -> u64 {
    (1 << 63) | (seed << 28) | ((rate as u64) << 24) | k as u64
}

/// The inputs of a run under `seed` whose schedules last `seconds` in
/// all.
pub fn inputs(seed: u64, seconds: f64) -> Inputs {
    let mut state = seed;
    let rotation = (mix(&mut state) % shapes().len() as u64) as usize;
    let warm: Vec<Request> = (0..WARM_REQUESTS)
        .map(|j| explorer_request(j, rotation, seed))
        .collect();
    let schedules = RATES
        .iter()
        .enumerate()
        .map(|(r, &rate)| {
            let count = ((rate * seconds_at(r, seconds)) as usize).min(MAX_REQUESTS_PER_RATE);
            (0..count)
                .map(|i| {
                    let due = Duration::from_secs_f64(i as f64 / rate);
                    if i % COLD_EVERY == COLD_EVERY - 1 {
                        let k = i / COLD_EVERY;
                        let request = explorer_request(k, rotation, cold_seed(seed, r, i));
                        (due, request, true)
                    } else {
                        let pick = (mix(&mut state) % warm.len() as u64) as usize;
                        (due, warm[pick].clone(), false)
                    }
                })
                .collect()
        })
        .collect();
    Inputs { warm, schedules }
}

/// Builds each model once.
#[derive(Default)]
struct Models(BTreeMap<String, WorkloadModel>);

impl Models {
    fn source(&mut self, request: &Request) -> WorkloadSource {
        let model = self
            .0
            .entry(request.workload.clone())
            .or_insert_with(|| suite::by_name(&request.workload).expect("suite model"));
        WorkloadSource::with_length(model.clone(), request.seed, BRANCHES)
    }
}

/// Simulates `request` directly and renders the body the service must
/// return, with its cells.
fn expected(models: &mut Models, request: &Request) -> (String, Vec<(CellKey, SimResult)>) {
    let source = models.source(request);
    let simulator = Simulator::with_warmup(0);
    let results = run_configs(&request.configs, &source, simulator);
    let parsed = SweepRequest::parse(&request.query()).expect("benchmark requests parse");
    let id = source.cache_id();
    let body = sweep_body(&parsed, source.conditionals(), &id, &results);
    let cells = request
        .configs
        .iter()
        .zip(results)
        .map(|(config, result)| (CellKey::new(&id, config, &simulator), result))
        .collect();
    (body, cells)
}

/// A running `serve` process, killed and reaped on drop.
struct Server {
    child: Child,
    addr: SocketAddr,
    /// Held open: `serve` writes start-up notes after its address, and
    /// a closed pipe would fail those writes.
    _stdout: BufReader<ChildStdout>,
}

impl Server {
    /// Spawns `serve` on `store_dir` and waits until `/healthz`
    /// answers; returns it with the time that took.
    fn start(bin: &Path, store_dir: &Path) -> Result<(Server, f64), String> {
        let start = Instant::now();
        // One compute worker replaying on one thread, one event loop.
        let mut child = Command::new(bin)
            .args(["--addr", "127.0.0.1:0", "--shards", "1", "--workers", "1"])
            .arg("--max-branches")
            .arg(BRANCHES.to_string())
            .arg("--cache-dir")
            .arg(store_dir)
            .env("BPRED_THREADS", "1")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let mut line = String::new();
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let read = stdout.read_line(&mut line);
        let addr = line
            .trim()
            .rsplit("http://")
            .next()
            .and_then(|a| a.parse().ok());
        let mut server = match (read, addr) {
            (Ok(_), Some(addr)) => Server {
                child,
                addr,
                _stdout: stdout,
            },
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("serve did not report its address: {line:?}"));
            }
        };
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            if server.get("/healthz").map(|(s, _)| s) == Ok(200) {
                return Ok((server, start.elapsed().as_secs_f64()));
            }
            if Instant::now() > deadline {
                server.stop();
                return Err("serve never answered /healthz".to_owned());
            }
            std::thread::sleep(Duration::from_micros(50));
        }
    }

    /// One request on a fresh connection.
    fn get(&self, target: &str) -> Result<(u16, Vec<u8>), String> {
        let mut stream = TcpStream::connect(self.addr).map_err(|e| e.to_string())?;
        stream
            .write_all(&loadgen::request_bytes(target))
            .map_err(|e| e.to_string())?;
        loadgen::read_response(&mut stream).map_err(|e| e.to_string())
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    fn stop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

/// A keep-alive client connection for closed-loop requests.
struct Conn(TcpStream);

impl Conn {
    fn open(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        Ok(Conn(stream))
    }

    fn call(&mut self, target: &str) -> Result<(u16, Vec<u8>), String> {
        self.0
            .write_all(&loadgen::request_bytes(target))
            .map_err(|e| e.to_string())?;
        loadgen::read_response(&mut self.0).map_err(|e| e.to_string())
    }
}

/// Everything a run needs before its timed phase.
struct Prepared {
    inputs: Inputs,
    /// Expected body per distinct request target.
    bodies: Vec<String>,
    index: BTreeMap<String, usize>,
    warm_cells: Vec<(CellKey, SimResult)>,
    store_dir: PathBuf,
}

fn prepare(cli: &Cli) -> Result<Prepared, String> {
    let inputs = inputs(cli.seed, cli.seconds);
    let mut models = Models::default();
    let (mut bodies, mut index, mut warm_cells) = (Vec::new(), BTreeMap::new(), Vec::new());
    let requests = inputs.warm.iter().map(|r| (r, true)).chain(
        inputs
            .schedules
            .iter()
            .flatten()
            .map(|(_, r, _)| (r, false)),
    );
    for (request, warm) in requests {
        let target = request.target();
        if index.contains_key(&target) {
            continue;
        }
        let (body, cells) = expected(&mut models, request);
        index.insert(target, bodies.len());
        bodies.push(body);
        if warm {
            warm_cells.extend(cells);
        }
    }
    let store_dir = cli.scratch.join("store-serve");
    drop(crate::filled_store(&store_dir, &warm_cells)?);
    Ok(Prepared {
        inputs,
        bodies,
        index,
        warm_cells,
        store_dir,
    })
}

impl Prepared {
    fn plan(&self, rate: usize) -> Vec<Planned> {
        self.inputs.schedules[rate]
            .iter()
            .map(|(due, request, cold)| {
                let target = request.target();
                Planned {
                    due: *due,
                    expected: self.index[&target],
                    target,
                    cold: *cold,
                }
            })
            .collect()
    }

    /// Closed-loop pass over the warm set: loads every warm cell into
    /// the server's hot tier and checks its body.
    fn warm_up(&self, server: &Server) -> Result<u64, String> {
        let mut conn = Conn::open(server.addr)?;
        let mut failed = 0;
        for request in &self.inputs.warm {
            let target = request.target();
            let (status, body) = conn.call(&target)?;
            if status != 200 || body != self.bodies[self.index[&target]].as_bytes() {
                failed += 1;
            }
        }
        Ok(failed)
    }
}

/// Stamps the lane census of the cold requests at the reporting rate,
/// grouped as the server's one replay thread groups them.
fn stamp_cold_census(prepared: &Prepared, report: &mut Report) {
    let cold = prepared.inputs.schedules[REPORT_RATE]
        .iter()
        .filter(|(_, _, cold)| *cold)
        .map(|(_, r, _)| r.configs.as_slice());
    crate::stamp_census(cold, 1, report);
}

fn bin(cli: &Cli) -> Result<&Path, String> {
    cli.serve_bin
        .as_deref()
        .ok_or_else(|| "serve_mix needs --serve-bin".to_owned())
}

/// Whether a rate met the limit: tail latency within it and no growing
/// backlog (the last tenth of the schedule still within it at its
/// median).
fn meets_limit(outcomes: &[Outcome]) -> (bool, f64) {
    let all = loadgen::effective_latencies(outcomes, LIMIT_MS);
    let tail = Tail::of(&all).map_or(f64::INFINITY, |t| t.tail);
    let last = &all[all.len() - all.len() / 10..];
    let backlog = median(last).unwrap_or(f64::INFINITY) > LIMIT_MS;
    (tail <= LIMIT_MS && !backlog, tail)
}

/// The highest offered rate meeting the limit. Between it and the
/// first rate that misses, the estimate is the rate the server answered
/// at that missed rate, kept between the two: overloaded, the server
/// answers at its capacity, and past capacity the backlog grows. Below
/// the lowest rate, that rate scaled by limit / tail.
pub fn slo_rps(rates: &[f64], tails: &[f64], meets: &[bool], answered: &[f64]) -> f64 {
    let Some(best) = (0..rates.len()).rev().find(|&i| meets[i]) else {
        return rates[0] * (LIMIT_MS / tails[0]).min(1.0);
    };
    if best + 1 == rates.len() {
        return rates[best];
    }
    answered[best + 1].clamp(rates[best], rates[best + 1])
}

/// Requests answered per second over a schedule: from the first send
/// to the last answer.
pub fn answered_rps(plan: &[Planned], outcomes: &[Outcome]) -> f64 {
    let (first, last) = plan.iter().zip(outcomes).fold(
        (f64::INFINITY, f64::NEG_INFINITY),
        |(first, last), (p, o)| {
            let due = p.due.as_secs_f64() * 1e3;
            (first.min(due + o.late_ms), last.max(due + o.latency_ms))
        },
    );
    outcomes.len() as f64 / ((last - first) / 1e3)
}

/// Time at least one request of a schedule was in flight, in s: the
/// union of every request's interval from sending to its answer. Open
/// loop at a light load, this is the server's work on the schedule
/// rather than the schedule's length.
pub fn busy_s(plan: &[Planned], outcomes: &[Outcome]) -> f64 {
    let mut spans: Vec<(f64, f64)> = plan
        .iter()
        .zip(outcomes)
        .map(|(p, o)| {
            let due = p.due.as_secs_f64() * 1e3;
            (due + o.late_ms, due + o.latency_ms)
        })
        .collect();
    spans.sort_by(|a, b| a.0.total_cmp(&b.0));
    let (mut busy, mut covered) = (0.0, f64::NEG_INFINITY);
    for (sent, answered) in spans {
        if answered > covered {
            busy += answered - sent.max(covered);
            covered = answered;
        }
    }
    busy / 1e3
}

/// The schedule `plan` in `segments` consecutive parts, each open loop
/// from its own start, with host reference rounds after each part:
/// outcomes in plan order, each part's busy seconds and requests
/// answered per second over the parts.
fn run_segments(
    server: &Server,
    plan: &[Planned],
    bodies: &[String],
    segments: usize,
    host: &mut HostSpeed,
) -> Result<(Vec<Outcome>, Vec<f64>, f64), String> {
    let (mut outcomes, mut busy, mut span) = (Vec::new(), Vec::new(), 0.0);
    for part in plan.chunks(plan.len().div_ceil(segments).max(1)) {
        let origin = part[0].due;
        let part: Vec<Planned> = part
            .iter()
            .map(|p| Planned {
                due: p.due - origin,
                ..p.clone()
            })
            .collect();
        let start = Instant::now();
        let done = loadgen::run(server.addr, &part, bodies, CONNECTIONS, PATIENCE)
            .map_err(|e| format!("load: {e}"))?;
        host.sample_for(host::SHARE * start.elapsed().as_secs_f64());
        busy.push(busy_s(&part, &done));
        span += done.len() as f64 / answered_rps(&part, &done);
        outcomes.extend(done);
    }
    let answered = outcomes.len() as f64 / span;
    Ok((outcomes, busy, answered))
}

/// Pins the calling thread, and so every thread and process it starts
/// afterwards, to the lowest-numbered CPU it may run on. Returns that
/// CPU, or `None` when the affinity calls fail and nothing changed.
fn pin_to_one_cpu() -> Option<usize> {
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; 16];
    // SAFETY: `mask` is a writable buffer of exactly the size passed,
    // and pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = (0..64 * mask.len()).find(|&i| (mask[i / 64] >> (i % 64)) & 1 == 1)?;
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of exactly the size passed,
    // and pid 0 names the calling thread.
    let pinned = unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) };
    (pinned == 0).then_some(cpu)
}

/// A thread that spins at the lowest scheduling priority (`SCHED_IDLE`)
/// until dropped, so that its CPU never goes idle: any other thread
/// that wakes there takes the CPU at once, and no wake-up waits for the
/// host to run an idle virtual CPU again.
struct IdleKeeper {
    stop: Arc<AtomicBool>,
    spinning: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl IdleKeeper {
    fn start() -> IdleKeeper {
        let stop = Arc::new(AtomicBool::new(false));
        let spinning = Arc::new(AtomicBool::new(false));
        let (flag, spins) = (Arc::clone(&stop), Arc::clone(&spinning));
        let thread = std::thread::spawn(move || {
            extern "C" {
                fn sched_setscheduler(pid: i32, policy: i32, param: *const i32) -> i32;
            }
            const SCHED_IDLE: i32 = 5;
            let priority = 0i32;
            // SAFETY: `priority` is a readable `sched_param` (one int)
            // for the call, and pid 0 names the calling thread.
            if unsafe { sched_setscheduler(0, SCHED_IDLE, &priority) } != 0 {
                return; // never spin at normal priority
            }
            spins.store(true, Ordering::Relaxed);
            while !flag.load(Ordering::Relaxed) {
                std::hint::spin_loop();
            }
        });
        IdleKeeper {
            stop,
            spinning,
            thread: Some(thread),
        }
    }

    /// Whether the thread got the idle priority and is spinning.
    fn spinning(&self) -> bool {
        self.spinning.load(Ordering::Relaxed)
    }
}

impl Drop for IdleKeeper {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// The untraced run. Host reference rounds follow the server spawns
/// and every part of the schedules, so `host` samples the whole run.
///
/// The server, the load generator and the reference all run on one
/// CPU, which an [`IdleKeeper`] keeps from going idle while the
/// schedules run. Otherwise each
/// request waits at every hand-off between threads for the host to run
/// an idle virtual CPU again, and on a loaded host that wait varies from
/// run to run: warm latency spread by 0.65 of its median over ten runs
/// with no change in the server's CPU time.
pub fn run(cli: &Cli, report: &mut Report, host: &mut HostSpeed) -> Result<(), String> {
    let prepared = prepare(cli)?;
    let bin = bin(cli)?;
    stamp_cold_census(&prepared, report);
    let cpu = pin_to_one_cpu();
    report.stamp(
        "pinned_cpu",
        cpu.map_or("null".to_owned(), |c| c.to_string()),
    );

    let mut setups = Vec::new();
    let mut server = None;
    for _ in 0..SETUP_SPAWNS {
        drop(server.take());
        let (s, t) = Server::start(bin, &prepared.store_dir)?;
        setups.push(t);
        server = Some(s);
    }
    host.sample_for(host::SHARE * setups.iter().sum::<f64>());
    let mut server = server.expect("spawned");
    let mut wrong = prepared.warm_up(&server)?;
    let mut failed = wrong;
    let mut attempted = prepared.inputs.warm.len() as u64;

    // Not during the spawns: with the spinner running, the median
    // start-up time doubled in some runs and not in others.
    let keeper = IdleKeeper::start();
    let (mut tails, mut meets, mut answered) = (Vec::new(), Vec::new(), Vec::new());
    for (rate, offered) in RATES.iter().enumerate() {
        let plan = prepared.plan(rate);
        let segments = if rate == REPORT_RATE {
            REPORT_SEGMENTS
        } else {
            1
        };
        let cpu0 = cpu_seconds(&server.pid());
        let start = Instant::now();
        let (outcomes, busy, served) =
            run_segments(&server, &plan, &prepared.bodies, segments, host)?;
        let wall = start.elapsed().as_secs_f64();
        let cpu = cpu_seconds(&server.pid()) - cpu0;
        attempted += outcomes.len() as u64;
        failed += outcomes.iter().filter(|o| !o.ok).count() as u64;
        wrong += outcomes.iter().filter(|o| o.status == 200 && !o.ok).count() as u64;
        let (ok, tail) = meets_limit(&outcomes);
        tails.push(tail);
        meets.push(ok);
        answered.push(served);
        let lateness: Vec<f64> = outcomes.iter().map(|o| o.late_ms).collect();
        report.stamp(
            &format!("rate_{offered}"),
            format!(
                "{{\"sent\":{},\"failed\":{},\"tail_ms\":{},\"meets\":{ok},\"answered_rps\":{},\"late_p50_ms\":{},\"late_p99_ms\":{}}}",
                outcomes.len(),
                outcomes.iter().filter(|o| !o.ok).count(),
                stats::num(tail),
                stats::num(served),
                stats::num(median(&lateness).unwrap_or(0.0)),
                stats::num(Tail::of(&lateness).map_or(0.0, |t| t.tail)),
            ),
        );
        if rate == REPORT_RATE {
            let split = |cold: bool| {
                let v = loadgen::effective_latencies(
                    outcomes.iter().filter(|o| o.cold == cold),
                    LIMIT_MS,
                );
                Tail::of(&v)
            };
            let cold = split(true).ok_or("too few cold requests")?;
            let warm = split(false).ok_or("too few warm requests")?;
            report.set("cold_p50_ms", cold.p50);
            report.set("warm_p50_ms", warm.p50);
            report.set("wall_s", busy.iter().sum());
            report.stamp("segment_busy_s", crate::list(&busy));
            report.set("cpu_s", cpu);
            // Pairs of the cold requests over the time from sending
            // each to its answer: the cold path's own rate.
            let cold_pairs: u64 = prepared.inputs.schedules[rate]
                .iter()
                .filter(|(_, _, cold)| *cold)
                .map(|(_, r, _)| (r.configs.len() * BRANCHES) as u64)
                .sum();
            let cold_service_s: f64 = outcomes
                .iter()
                .filter(|o| o.cold)
                .map(|o| (o.latency_ms - o.late_ms) / 1e3)
                .sum();
            report.set("pairs_per_s", cold_pairs as f64 / cold_service_s);
            report.stamp("schedule_wall_s", stats::num(wall));
            report.stamp("cold_latency", cold.stamp());
            report.stamp("warm_latency", warm.stamp());
        }
        std::thread::sleep(Duration::from_millis(100));
    }
    report.stamp("idle_keeper", keeper.spinning().to_string());
    drop(keeper);
    report.set("peak_rss_mb", peak_rss_mb(&server.pid()));
    report.set("setup_s", median(&setups).expect("spawns"));
    report.set("slo_rps", slo_rps(&RATES, &tails, &meets, &answered));
    report.stamp("limit_ms", stats::num(LIMIT_MS));
    server.stop();
    let _ = std::fs::remove_dir_all(&prepared.store_dir);
    report.attempted = attempted;
    report.failed = failed;
    if wrong > 0 {
        report.mismatch(format!("{wrong} responses differ from direct results"));
    }
    Ok(())
}

/// In-process copies of the populated store: one behind a
/// `SweepService`, one the decomposition reads and writes.
fn open_copy(
    t: &mut Tracer,
    cli: &Cli,
    name: &str,
    cells: &[(CellKey, SimResult)],
) -> Result<Arc<ResultStore>, String> {
    let dir = cli.scratch.join(name);
    drop(crate::filled_store(&dir, cells)?);
    let store = t
        .span("store.open", 0, |_| ResultStore::open(&dir))
        .map_err(|e| format!("store: {e}"))?;
    // Into the hot tier, as the server's warm-up pass does.
    for (key, _) in cells {
        store.get(key);
    }
    Ok(Arc::new(store))
}

/// Hot and pack hits a store has answered so far.
fn hits(store: &ResultStore) -> (u64, u64) {
    let stats = store.stats();
    let load = |c: &std::sync::atomic::AtomicU64| c.load(std::sync::atomic::Ordering::Relaxed);
    (load(&stats.hot_hits), load(&stats.pack_hits))
}

/// The traced run: each request parsed and executed in process on one
/// copy of the store, decomposed into model build, store reads, replay
/// and encoding on another, and sent over HTTP to the server for the
/// socket time.
pub fn run_traced(cli: &Cli, report: &mut Report) -> Result<(), String> {
    let prepared = prepare(cli)?;
    let bin = bin(cli)?;
    stamp_cold_census(&prepared, report);
    let (server, _) = Server::start(bin, &prepared.store_dir)?;
    let mut mismatches = prepared.warm_up(&server)?;

    // Two passes over the start of the reporting schedule, untraced then
    // traced; each pass's cold requests get seeds of their own.
    let sample: Vec<(Request, bool)> = prepared.inputs.schedules[REPORT_RATE]
        .iter()
        .take(128)
        .map(|(_, r, cold)| (r.clone(), *cold))
        .collect();
    let mut models = Models::default();
    let mut walls = [0.0; 2];
    let mut traced = Tracer::new(true);
    let mut counts = SimCounts::default();
    let mut socket = Vec::new();
    let names = SpanNames::new();
    for (pass, enabled) in [false, true].into_iter().enumerate() {
        let mut t = Tracer::new(enabled);
        let service_store = open_copy(&mut t, cli, "store-service", &prepared.warm_cells)?;
        let store = open_copy(&mut t, cli, "store-decomposed", &prepared.warm_cells)?;
        let hits_before = hits(&service_store);
        let service = SweepService::new(
            Some(service_store.clone()),
            Arc::new(Metrics::new()),
            BRANCHES,
        );
        let mut c = SimCounts::default();
        let requests: Vec<(Request, bool)> = sample
            .iter()
            .enumerate()
            .map(|(k, (r, cold))| {
                let mut r = r.clone();
                if *cold {
                    r.seed = cold_seed(cli.seed, RATES.len() + pass, k);
                }
                (r, *cold)
            })
            .collect();
        let mut plans = BTreeMap::new();
        for (r, _) in &requests {
            for config in &r.configs {
                plans
                    .entry(config.config_id())
                    .or_insert_with(|| sweeps::plan_of(config));
            }
        }
        let bodies: Vec<String> = requests
            .iter()
            .map(|(r, _)| expected(&mut models, r).0)
            .collect();
        let mut conn = Conn::open(server.addr)?;
        let mut in_process = 0.0;
        for (id, ((request, cold), body)) in requests.iter().zip(&bodies).enumerate() {
            let id = id as u64;
            let query = request.query();
            let execute_name = if *cold {
                "serve.execute.cold"
            } else {
                "serve.execute.warm"
            };
            let started_request = Instant::now();
            let (executed, executed_s, decomposed) = t.span("request", id, |t| {
                let parsed = t
                    .span("serve.parse", id, |_| SweepRequest::parse(&query))
                    .expect("benchmark requests parse");
                let started = Instant::now();
                let executed = t.span(execute_name, id, |_| service.execute(&parsed));
                let executed_s = started.elapsed().as_secs_f64();
                let model = t.span("workloads.model_build", id, |_| {
                    suite::by_name(&parsed.workload).expect("suite model")
                });
                let source = WorkloadSource::with_length(model, parsed.seed, BRANCHES);
                let simulator = Simulator::with_warmup(0);
                let (id_str, keys) = t.span("serve.keys", id, |_| {
                    let id_str = source.cache_id();
                    let keys: Vec<CellKey> = parsed
                        .configs
                        .iter()
                        .map(|config| CellKey::new(&id_str, config, &simulator))
                        .collect();
                    (id_str, keys)
                });
                let mut results: Vec<Option<SimResult>> = keys
                    .iter()
                    .map(|key| t.span("store.get", id, |_| store.get(key)))
                    .collect();
                let missing: Vec<usize> =
                    (0..keys.len()).filter(|&i| results[i].is_none()).collect();
                if !missing.is_empty() {
                    let configs: Vec<PredictorConfig> =
                        missing.iter().map(|&i| parsed.configs[i]).collect();
                    let computed =
                        sweeps::replay_traced(t, &names, id, &source, &configs, &plans, &mut c);
                    for (&i, result) in missing.iter().zip(computed) {
                        t.span("store.put", id, |_| store.put(&keys[i], &result))
                            .expect("scratch store accepts puts");
                        results[i] = Some(result);
                    }
                }
                let results: Vec<SimResult> =
                    results.into_iter().map(|r| r.expect("resolved")).collect();
                let decomposed = t.span("serve.encode", id, |_| {
                    sweep_body(&parsed, source.conditionals(), &id_str, &results)
                });
                (executed, executed_s, decomposed)
            });
            in_process += started_request.elapsed().as_secs_f64();
            if executed.map(|(b, _)| b).as_ref() != Ok(body) || decomposed != *body {
                mismatches += 1;
            }
            if enabled {
                let sent = Instant::now();
                let (status, got) = conn.call(&request.target())?;
                let socket_s = sent.elapsed().as_secs_f64();
                if status != 200 || got != body.as_bytes() {
                    mismatches += 1;
                }
                socket.push((status, (socket_s - executed_s).max(0.0)));
            }
        }
        walls[pass] = in_process;
        if enabled {
            let (hot, pack) = hits(&service_store);
            let (hot, pack) = (hot - hits_before.0, pack - hits_before.1);
            let misses: usize = requests
                .iter()
                .filter(|(_, cold)| *cold)
                .map(|(r, _)| r.configs.len())
                .sum();
            report.set("store.hits.hot", hot as f64);
            report.set("store.hits.pack", pack as f64);
            report.set("store.misses", misses as f64);
            let total = (hot + pack + misses as u64).max(1);
            report.set("store.hit_ratio", (hot + pack) as f64 / total as f64);
            traced = t;
            counts = c;
        }
    }
    let _ = std::fs::remove_dir_all(cli.scratch.join("store-service"));
    let _ = std::fs::remove_dir_all(cli.scratch.join("store-decomposed"));

    // The open loop at the reporting rate, for the generator's own
    // health.
    let plan = prepared.plan(REPORT_RATE);
    let outcomes = loadgen::run(server.addr, &plan, &prepared.bodies, CONNECTIONS, PATIENCE)
        .map_err(|e| format!("load: {e}"))?;
    let lateness: Vec<f64> = outcomes.iter().map(|o| o.late_ms).collect();
    report.set(
        "loadgen.late_ms",
        Tail::of(&lateness).map_or(0.0, |t| t.tail),
    );
    report.set("loadgen.sent", outcomes.len() as f64);
    let shed = socket.iter().filter(|(s, _)| *s == 429).count()
        + outcomes.iter().filter(|o| o.status == 429).count();
    report.set("serve.shed", shed as f64);
    mismatches += outcomes.iter().filter(|o| !o.ok).count() as u64;
    drop(server);
    let _ = std::fs::remove_dir_all(&prepared.store_dir);

    // Per-request means.
    let n = sample.len() as f64;
    let cold_n = sample.iter().filter(|(_, c)| *c).count() as f64;
    let layers = traced.by_name();
    let own = |name: &str| layers.get(name).map_or(0.0, |&(s, _)| s);
    crate::layer_metrics(&traced, &counts, n, report);
    report.set("serve.parse_s", own("serve.parse") / n);
    report.set("serve.execute_s.cold", own("serve.execute.cold") / cold_n);
    report.set(
        "serve.execute_s.warm",
        own("serve.execute.warm") / (n - cold_n),
    );
    report.set("serve.encode_s", own("serve.encode") / n);
    report.set("serve.http_s", socket_total(&socket) / n);
    report.set("store.get_s", own("store.get") / n);
    report.set("store.put_s", own("store.put") / cold_n);
    report.set("store.open_s", own("store.open") / 2.0);
    report.set("trace.coverage", traced.coverage());
    report.set("trace.overhead", walls[1] / walls[0] - 1.0);
    report.stamp("per_request", "true".to_owned());
    let path = cli
        .scratch
        .join(format!("spans-serve_mix-{}.jsonl", cli.seed));
    traced
        .write_jsonl(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    report.attempted = (2.0 * n) as u64 + outcomes.len() as u64;
    report.failed = mismatches;
    if mismatches > 0 {
        report.mismatch(format!(
            "{mismatches} serve_mix responses differ from direct results"
        ));
    }
    Ok(())
}

fn socket_total(socket: &[(u16, f64)]) -> f64 {
    socket.iter().map(|&(_, s)| s).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_seed_changes_the_inputs_and_only_the_seed_does() {
        let a = inputs(1, 1.0);
        assert_eq!(a, inputs(1, 1.0));
        let b = inputs(2, 1.0);
        assert_ne!(a.warm, b.warm);
        assert_ne!(a.schedules, b.schedules);
        // Cold requests never reuse a warm or another cold trace seed.
        let mut seeds: Vec<u64> = a
            .schedules
            .iter()
            .flatten()
            .filter(|(_, _, cold)| *cold)
            .map(|(_, r, _)| r.seed)
            .collect();
        let cold = seeds.len();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), cold);
        assert!(a.warm.iter().all(|w| !seeds.contains(&w.seed)));
        // One request in eight is cold.
        let expected: usize = a.schedules.iter().map(|s| s.len() / COLD_EVERY).sum();
        assert_eq!(cold, expected);
    }

    #[test]
    fn the_sweep_workloads_follow_the_seed() {
        let a = crate::sweeps::reproduce_options(1);
        let b = crate::sweeps::reproduce_options(2);
        assert_ne!(a, b);
        let model = suite::by_name("espresso").unwrap();
        let (x, y) = (
            crate::sweeps::source_of(&model, 1, 100),
            crate::sweeps::source_of(&model, 2, 100),
        );
        use bpred_trace::TraceSource;
        assert_ne!(x.collect_trace(), y.collect_trace());
        assert_eq!(
            x.collect_trace(),
            crate::sweeps::source_of(&model, 1, 100).collect_trace()
        );
    }

    #[test]
    fn slo_rate_lies_between_the_last_rate_met_and_the_first_missed() {
        let rates = [100.0, 200.0, 400.0];
        let limit = LIMIT_MS;
        let tails = [1.0, limit / 2.0, 1.5 * limit];
        let met = [true, true, false];
        // Met at 200, missed at 400 where the server answered 300/s.
        let slo = slo_rps(&rates, &tails, &met, &[100.0, 200.0, 300.0]);
        assert!((slo - 300.0).abs() < 1e-9, "{slo}");
        // The answered rate is kept between the two offered rates.
        let slo = slo_rps(&rates, &tails, &met, &[100.0, 200.0, 150.0]);
        assert!((slo - 200.0).abs() < 1e-9, "{slo}");
        let slo = slo_rps(&rates, &tails, &met, &[100.0, 200.0, 900.0]);
        assert!((slo - 400.0).abs() < 1e-9, "{slo}");
        // Nothing met: below the lowest rate.
        let slo = slo_rps(
            &rates,
            &[2.0 * limit, 3.0 * limit, 4.0 * limit],
            &[false; 3],
            &rates,
        );
        assert!((slo - 50.0).abs() < 1e-9, "{slo}");
    }

    #[test]
    fn busy_time_is_the_union_of_in_flight_intervals() {
        let planned = |ms: u64| Planned {
            due: Duration::from_millis(ms),
            target: String::new(),
            expected: 0,
            cold: false,
        };
        let answered = |late_ms: f64, latency_ms: f64| Outcome {
            cold: false,
            latency_ms,
            late_ms,
            status: 200,
            ok: true,
        };
        // [0, 4] and [2, 6] overlap into 6 ms; [10.5, 12] adds 1.5 ms;
        // [11, 11.5] lies inside it.
        let plan = [planned(0), planned(2), planned(10), planned(11)];
        let outcomes = [
            answered(0.0, 4.0),
            answered(0.0, 4.0),
            answered(0.5, 2.0),
            answered(0.0, 0.5),
        ];
        let busy = busy_s(&plan, &outcomes);
        assert!((busy - 0.0075).abs() < 1e-12, "{busy}");
    }

    #[test]
    fn a_failed_request_misses_the_limit_in_the_rate_test() {
        let fast = |ok: bool| Outcome {
            cold: false,
            latency_ms: 1.0,
            late_ms: 0.0,
            status: if ok { 200 } else { 429 },
            ok,
        };
        let mut outcomes: Vec<Outcome> = (0..1000).map(|_| fast(true)).collect();
        assert!(meets_limit(&outcomes).0);
        // Eleven refusals put the p99 over the limit, fast as they were.
        for o in outcomes.iter_mut().take(11) {
            *o = fast(false);
        }
        let (ok, tail) = meets_limit(&outcomes);
        assert!(!ok && tail > LIMIT_MS, "{tail}");
    }
}
