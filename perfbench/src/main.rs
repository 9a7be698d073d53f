//! Benchmark of the reproduction harness and the sweep service.
//!
//! ```text
//! perfbench --workload reproduce|long_trace|serve_mix --seed N --seconds S --trace 0|1
//!           --scratch DIR [--serve-bin PATH] [--pin FILE]
//! ```
//!
//! Prints a `stamp` line recording the code path that produced the
//! numbers, then one JSON result line. `perfbench/run.py` builds the
//! program and this package and is the command to run; see
//! `perfbench/README.md` for the workloads and metrics.

mod host;
mod loadgen;
mod report;
mod serve_mix;
mod stats;
mod sweeps;
mod trace;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bpred_core::PredictorConfig;
use bpred_serve::ResultStore;
use bpred_sim::cache::CellKey;
use bpred_sim::experiments::ExperimentOptions;
use bpred_sim::{
    dispatch_tier, LaneSet, SimResult, Simulator, DEFAULT_SHARD_SIZE, LANE_TIER_LABELS,
};
use bpred_workloads::suite;

use host::HostSpeed;
use report::{Report, PLANS};
use stats::{cpu_seconds, median, peak_rss_mb, Tail};
use sweeps::{Probe, Step};
use trace::Tracer;

/// Model builds before the timed passes of a sweep workload. One more
/// follows each timed pass, so that the set-up samples span the run;
/// `setup_s` is the median of them all.
const SETUP_REPEATS: usize = 5;

/// Untraced/traced pass pairs of a traced sweep run, whose medians
/// give `trace.overhead`.
const OVERHEAD_PAIRS: usize = 3;

/// Per-sweep latency samples the warm phase of a sweep workload
/// gathers: enough for a true p99 (ten samples beyond it).
const WARM_SAMPLES: usize = 1_000;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Cli {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced (per-layer) run.
    pub trace: bool,
    /// Directory for stores and span files, inside the checkout.
    pub scratch: PathBuf,
    /// The release `serve` binary.
    pub serve_bin: Option<PathBuf>,
    /// Compare the full-length reproduction with this file instead of
    /// running a workload.
    pub pin: Option<PathBuf>,
    /// Print the output digest of the workload and exit.
    pub oracle: bool,
}

fn parse_cli() -> Result<Cli, String> {
    let mut cli = Cli {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        scratch: PathBuf::from(".bench_build/perfbench-scratch"),
        serve_bin: None,
        pin: None,
        oracle: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--oracle" {
            cli.oracle = true;
            continue;
        }
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let number = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: {v:?} is not a number"))
        };
        match flag.as_str() {
            "--workload" => cli.workload = value,
            "--seed" => cli.seed = number(&value)?,
            "--seconds" => cli.seconds = number(&value)? as f64,
            "--trace" => cli.trace = number(&value)? != 0,
            "--scratch" => cli.scratch = value.into(),
            "--serve-bin" => cli.serve_bin = Some(value.into()),
            "--pin" => cli.pin = Some(value.into()),
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    if cli.pin.is_none()
        && !["reproduce", "long_trace", "serve_mix"].contains(&cli.workload.as_str())
    {
        return Err(format!("unknown workload {:?}", cli.workload));
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let cli = match parse_cli() {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // The reproduction runs at the machine's parallelism, as `all`
    // does by default; pinned here so the stamp can name it.
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    if std::env::var_os("BPRED_THREADS").is_none() {
        std::env::set_var("BPRED_THREADS", threads.to_string());
    }
    if let Some(pin) = &cli.pin {
        return check_full(pin);
    }
    if cli.oracle {
        println!("{}", oracle_output(&cli));
        return ExitCode::SUCCESS;
    }
    if let Err(e) = std::fs::create_dir_all(&cli.scratch) {
        eprintln!("perfbench: cannot create {}: {e}", cli.scratch.display());
        return ExitCode::FAILURE;
    }
    let mut report = Report::default();
    report.stamp("workload", format!("\"{}\"", cli.workload));
    report.stamp("seed", cli.seed.to_string());
    report.stamp("threads", threads.to_string());
    report.stamp("dispatch_tier", format!("\"{}\"", dispatch_tier()));
    // The host reference runs on as many threads as the timed work keeps
    // busy: the program driver's workers on `reproduce`; one on `long_trace`,
    // whose one configuration replays inline, and on `serve_mix`, whose
    // server has one compute worker.
    let mut host = HostSpeed::new(if cli.workload == "reproduce" {
        driver_threads()
    } else {
        1
    });
    let outcome = match cli.workload.as_str() {
        "reproduce" | "long_trace" if cli.trace => traced_sweeps(&cli, &mut report),
        "reproduce" | "long_trace" => sweep_workload(&cli, &mut report, &mut host),
        _ if cli.trace => serve_mix::run_traced(&cli, &mut report),
        _ => serve_mix::run(&cli, &mut report, &mut host),
    };
    if let Err(e) = outcome {
        eprintln!("perfbench: {e}");
        return ExitCode::FAILURE;
    }
    if !cli.trace {
        report.normalize(&host);
    }
    println!("{}", report.render(cli.trace));
    if let Some(m) = &report.mismatch {
        eprintln!("perfbench: output mismatch: {m}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// Pinned outputs of the sweep workloads: `<workload> <seed> <digest>`
/// per line, made by `--oracle` under `BPRED_FORCE_SCALAR=1` for the
/// development and held-out seeds.
const PINS: &str = include_str!("../pins.txt");

/// The pinned digest of `workload` under `seed`, if one is committed.
fn pinned(workload: &str, seed: u64) -> Option<String> {
    PINS.lines()
        .filter(|line| !line.starts_with('#'))
        .map(|line| line.split_whitespace().collect::<Vec<_>>())
        .find(|f| f.len() == 3 && f[0] == workload && f[1] == seed.to_string())
        .map(|f| f[2].to_owned())
}

/// The output digest of a sweep workload: FNV-128 of the rendered
/// tables for `reproduce`, of every `SimResult` for `long_trace`. Run
/// in a child process under `BPRED_FORCE_SCALAR=1`, it comes from the
/// scalar kernels rather than the fused groups being measured.
fn oracle_output(cli: &Cli) -> String {
    if cli.workload == "reproduce" {
        let text = sweeps::render_all(&sweeps::reproduce_options(cli.seed));
        bpred_trace::fnv::fnv128_hex(text.as_bytes())
    } else {
        sweeps::digest(&sweeps::run_long_trace(&suite::all(), cli.seed))
    }
}

/// The digest every pass must reproduce: the committed pin for the
/// seed, or for an unpinned seed the scalar-kernel oracle. Stamps which
/// one it was.
fn expected_output(cli: &Cli, report: &mut Report) -> Result<String, String> {
    if let Some(pin) = pinned(&cli.workload, cli.seed) {
        report.stamp("output_check", "\"pin\"".to_owned());
        return Ok(pin);
    }
    report.stamp("output_check", "\"scalar_oracle\"".to_owned());
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args([
            "--oracle",
            "--workload",
            &cli.workload,
            "--seed",
            &cli.seed.to_string(),
        ])
        .env("BPRED_FORCE_SCALAR", "1")
        .env("BPRED_THREADS", "1")
        .stdin(Stdio::null())
        .output()
        .map_err(|e| format!("oracle: {e}"))?;
    if !out.status.success() {
        return Err(format!("oracle exited with {}", out.status));
    }
    let text = String::from_utf8(out.stdout).map_err(|e| e.to_string())?;
    Ok(text.trim().to_owned())
}

/// Renders the full-length reproduction (the defaults of `all`) and
/// compares it byte for byte with `pin`.
fn check_full(pin: &std::path::Path) -> ExitCode {
    let expected = match std::fs::read_to_string(pin) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("perfbench: cannot read {}: {e}", pin.display());
            return ExitCode::FAILURE;
        }
    };
    let start = Instant::now();
    let text = sweeps::render_all(&ExperimentOptions::default());
    let wall = start.elapsed().as_secs_f64();
    if text == expected {
        println!(
            "full-length reproduction matches {} ({wall:.1} s)",
            pin.display()
        );
        ExitCode::SUCCESS
    } else {
        let line = text
            .lines()
            .zip(expected.lines())
            .position(|(a, b)| a != b)
            .map_or("length".to_owned(), |i| format!("line {}", i + 1));
        eprintln!(
            "perfbench: full-length reproduction differs from {} at {line}",
            pin.display()
        );
        ExitCode::FAILURE
    }
}

/// One pass of a sweep workload through the program's own entry
/// points; returns the output digest to compare with the pin.
struct SweepWorkload {
    reproduce: bool,
    seed: u64,
    steps: Vec<Step>,
    branches: usize,
    models: Vec<bpred_workloads::WorkloadModel>,
}

impl SweepWorkload {
    fn new(cli: &Cli, models: Vec<bpred_workloads::WorkloadModel>) -> SweepWorkload {
        let reproduce = cli.workload == "reproduce";
        let (steps, branches) = if reproduce {
            let opts = sweeps::reproduce_options(cli.seed);
            (sweeps::reproduce_steps(&opts), sweeps::REPRODUCE_BRANCHES)
        } else {
            (sweeps::long_trace_steps(), sweeps::LONG_TRACE_BRANCHES)
        };
        SweepWorkload {
            reproduce,
            seed: cli.seed,
            steps,
            branches,
            models,
        }
    }

    fn pass(&self) -> String {
        if self.reproduce {
            let text = sweeps::render_all(&sweeps::reproduce_options(self.seed));
            bpred_trace::fnv::fnv128_hex(text.as_bytes())
        } else {
            sweeps::digest(&sweeps::run_long_trace(&self.models, self.seed))
        }
    }

    fn sizes(&self) -> Vec<usize> {
        sweeps::sweeps_of(&self.steps)
            .iter()
            .map(|s| s.configs.len())
            .collect()
    }
}

/// Builds every benchmark model: the time that took, and the models.
fn build_models() -> (f64, Vec<bpred_workloads::WorkloadModel>) {
    let start = Instant::now();
    let models = std::hint::black_box(suite::all());
    (start.elapsed().as_secs_f64(), models)
}

/// Lane census, prefetch resolution and scalar-tier count of `sweeps`,
/// from `LaneSet`s grouped the way the program's driver groups them at
/// `threads` workers: one set over a whole sweep when one worker runs
/// it, one per `DEFAULT_SHARD_SIZE` slice otherwise.
pub fn stamp_census<'a>(
    sweeps: impl IntoIterator<Item = &'a [PredictorConfig]>,
    threads: usize,
    report: &mut Report,
) {
    let mut census = [0u64; LANE_TIER_LABELS.len()];
    let (mut prefetch, mut groups) = (0usize, 0usize);
    for configs in sweeps {
        let shards = configs.len().div_ceil(DEFAULT_SHARD_SIZE);
        let sets: Vec<&[PredictorConfig]> = if threads.min(shards) <= 1 {
            vec![configs]
        } else {
            configs.chunks(DEFAULT_SHARD_SIZE).collect()
        };
        for slice in sets {
            let set = LaneSet::new(slice, Simulator::new());
            for (total, count) in census.iter_mut().zip(set.lane_tier_counts()) {
                *total += count;
            }
            prefetch += set.prefetch_groups();
            groups += 1;
        }
    }
    let fields: Vec<String> = LANE_TIER_LABELS
        .iter()
        .zip(census)
        .filter(|&(_, n)| n > 0)
        .map(|(label, n)| format!("\"{label}\":{n}"))
        .collect();
    report.stamp("lane_census", format!("{{{}}}", fields.join(",")));
    report.stamp(
        "scalar_lanes",
        census[LANE_TIER_LABELS.len() - 1].to_string(),
    );
    report.stamp(
        "census_grouping",
        format!("\"{groups} lane sets at {threads} worker(s), shards of {DEFAULT_SHARD_SIZE}\""),
    );
    report.stamp("prefetch_on_groups", prefetch.to_string());
}

/// The worker count the program's driver reads from `BPRED_THREADS`,
/// which `main` pins when it is unset.
fn driver_threads() -> usize {
    std::env::var("BPRED_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .map_or_else(
            || std::thread::available_parallelism().map_or(1, |n| n.get()),
            |n| n.max(1),
        )
}

fn sweep_census(steps: &[Step], report: &mut Report) {
    let sweeps = sweeps::sweeps_of(steps);
    stamp_census(
        sweeps.iter().map(|s| s.configs.as_slice()),
        driver_threads(),
        report,
    );
}

fn fresh_dir(path: &std::path::Path) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(path);
    std::fs::create_dir_all(path).map_err(|e| format!("{}: {e}", path.display()))
}

/// Opens a fresh store at `dir` holding `cells`.
fn filled_store(
    dir: &std::path::Path,
    cells: &[(CellKey, SimResult)],
) -> Result<ResultStore, String> {
    fresh_dir(dir)?;
    let store = ResultStore::open(dir).map_err(|e| format!("store: {e}"))?;
    for (key, result) in cells {
        store
            .put(key, result)
            .map_err(|e| format!("store put: {e}"))?;
    }
    Ok(store)
}

/// The untraced run of `reproduce` or `long_trace`. Reference rounds
/// follow every timed pass, so `host` samples the whole run.
fn sweep_workload(cli: &Cli, report: &mut Report, host: &mut HostSpeed) -> Result<(), String> {
    let (mut setups, mut models) = (Vec::new(), Vec::new());
    for _ in 0..SETUP_REPEATS {
        let (t, built) = build_models();
        setups.push(t);
        models = built;
    }
    let work = SweepWorkload::new(cli, models);
    let sizes = work.sizes();
    let pairs = sweeps::pairs_of(&work.steps, work.branches) as f64;
    sweep_census(&work.steps, report);
    let expected = expected_output(cli, report)?;

    // Untimed first pass: fills caches and lazy state, records every
    // cell the program stores, and checks the sweep list against it.
    let recorder = Probe::new(None, true);
    let first = sweeps::with_probe(&recorder, || work.pass());
    let mut attempted = sizes.len() as u64;
    let mut failed = 0u64;
    if first != expected {
        report.mismatch("first pass differs from the expected output".to_owned());
    }
    let cells = recorder.take_cells();
    if let Err(e) = sweeps::check_sweep_list(&work.steps, &cells, work.seed, work.branches) {
        report.mismatch(e);
    }

    // Timed cold passes simulate every sweep. Warm passes answer the
    // same sweeps from a filled store, as with `BPRED_CACHE_DIR` set;
    // they are interleaved with the cold ones so that both sample the
    // whole run.
    let store_dir = cli.scratch.join(format!("store-{}", cli.workload));
    let store = Arc::new(filled_store(&store_dir, &cells)?);
    let (mut walls, mut cpus) = (Vec::new(), Vec::new());
    let (mut cold, mut warm, mut warm_passes) = (Vec::new(), Vec::new(), 0);
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(cli.seconds);
    loop {
        let timing = walls.len() < 3 || Instant::now() < deadline;
        if timing {
            let probe = Probe::new(None, false);
            let cpu0 = cpu_seconds("self");
            let pass_start = Instant::now();
            let out = sweeps::with_probe(&probe, || work.pass());
            walls.push(pass_start.elapsed().as_secs_f64());
            cpus.push(cpu_seconds("self") - cpu0);
            setups.push(build_models().0);
            host.sample_for(host::SHARE * walls[walls.len() - 1]);
            cold.extend(probe.sweep_latencies(&sizes));
            attempted += sizes.len() as u64;
            if out != expected {
                failed += sizes.len() as u64;
                report.mismatch(format!(
                    "cold pass {} differs from the expected output",
                    walls.len()
                ));
            }
        }
        let share = if timing {
            (start.elapsed().as_secs_f64() / cli.seconds).min(1.0)
        } else {
            1.0
        };
        while (warm.len() as f64) < WARM_SAMPLES as f64 * share {
            let probe = Probe::new(Some(store.clone()), false);
            let out = sweeps::with_probe(&probe, || work.pass());
            warm.extend(probe.sweep_latencies(&sizes));
            warm_passes += 1;
            attempted += sizes.len() as u64;
            if out != expected {
                failed += sizes.len() as u64;
                report.mismatch("warm pass differs from the expected output".to_owned());
            }
        }
        if !timing {
            break;
        }
    }
    drop(store);
    let _ = std::fs::remove_dir_all(&store_dir);

    let wall = median(&walls).expect("passes");
    let cold = Tail::of(&cold).ok_or("too few cold sweeps")?;
    let warm = Tail::of(&warm).ok_or("too few warm sweeps")?;
    report.set("wall_s", wall);
    report.set("pairs_per_s", pairs / wall);
    report.set("cpu_s", median(&cpus).expect("passes"));
    report.set("peak_rss_mb", peak_rss_mb("self"));
    report.set("setup_s", median(&setups).expect("builds"));
    report.set("cold_p50_ms", cold.p50);
    report.set("warm_p50_ms", warm.p50);
    report.set("slo_rps", sizes.len() as f64 / wall);
    report.stamp("passes", walls.len().to_string());
    report.stamp("pass_walls_s", list(&walls));
    report.stamp("pass_cpus_s", list(&cpus));
    report.stamp("setup_samples", setups.len().to_string());
    report.stamp("warm_passes", warm_passes.to_string());
    report.stamp("pairs_per_pass", format!("{pairs}"));
    report.stamp("cold_latency", cold.stamp());
    report.stamp("warm_latency", warm.stamp());
    report.attempted = attempted;
    report.failed = failed;
    Ok(())
}

/// `values` as a JSON list, for the stamp.
pub fn list(values: &[f64]) -> String {
    let items: Vec<String> = values.iter().map(|&x| stats::num(x)).collect();
    format!("[{}]", items.join(","))
}

/// Per-plan and per-layer numbers from one traced pass.
/// Times are divided by `per`: 1 for a pass total, the request count
/// for per-request means.
fn layer_metrics(t: &Tracer, counts: &sweeps::SimCounts, per: f64, report: &mut Report) {
    let layers = t.by_name();
    let own = |name: &str| layers.get(name).map_or(0.0, |&(s, _)| s / per);
    let gen = own("workloads.gen");
    report.set("workloads.model_build_s", own("workloads.model_build"));
    report.set("workloads.gen_s", gen);
    if gen > 0.0 {
        report.set(
            "workloads.records_per_s",
            counts.records as f64 / (gen * per),
        );
    }
    report.set("trace.stats_s", own("trace.stats"));
    report.set("sim.laneset_new_s", own("sim.laneset_new"));
    report.set("sim.finish_s", own("sim.finish"));
    let mut plan_share = Vec::new();
    for (i, label) in LANE_TIER_LABELS.iter().enumerate() {
        let replay = own(&format!("sim.replay.{label}"));
        let lane_records = counts.lane_records[i];
        if lane_records > 0 {
            plan_share.push(format!("\"{label}\":{}", stats::num(replay * per)));
        }
        if PLANS.contains(label) {
            report.set(&format!("sim.replay_s.{label}"), replay);
            report.set(&format!("sim.lane_records.{label}"), lane_records as f64);
            report.set(&format!("sim.lanes.{label}"), counts.lanes[i] as f64);
            if lane_records > 0 {
                report.set(
                    &format!("sim.ns_per_lane_record.{label}"),
                    replay * per * 1e9 / lane_records as f64,
                );
            }
        }
    }
    report.stamp("replay_s_by_plan", format!("{{{}}}", plan_share.join(",")));
    // The traced replay groups lanes by plan, not as the driver does,
    // so its prefetch resolution is stamped apart from the census.
    report.stamp(
        "traced_prefetch_on_groups",
        counts.prefetch_groups.to_string(),
    );
    let self_times: Vec<String> = layers
        .iter()
        .map(|(name, (s, n))| format!("\"{name}\":{{\"self_s\":{},\"spans\":{n}}}", stats::num(*s)))
        .collect();
    report.stamp("spans", format!("{{{}}}", self_times.join(",")));
}

/// The traced run of `reproduce` or `long_trace`: a threaded pass
/// through the program's entry points for CPU per pair, then the same
/// sweeps replayed at one thread untraced and traced.
fn traced_sweeps(cli: &Cli, report: &mut Report) -> Result<(), String> {
    let (_, models) = build_models();
    let work = SweepWorkload::new(cli, models);
    let pairs = sweeps::pairs_of(&work.steps, work.branches) as f64;
    sweep_census(&work.steps, report);
    let expected = expected_output(cli, report)?;

    let recorder = Probe::new(None, true);
    let cpu0 = cpu_seconds("self");
    let out = sweeps::with_probe(&recorder, || work.pass());
    report.set(
        "sim.cpu_per_pair_ns",
        (cpu_seconds("self") - cpu0) * 1e9 / pairs,
    );
    if out != expected {
        report.mismatch("threaded pass differs from the expected output".to_owned());
    }
    let cells = recorder.take_cells();
    if let Err(e) = sweeps::check_sweep_list(&work.steps, &cells, work.seed, work.branches) {
        report.mismatch(e);
    }

    let plans = sweeps::plans_of(&work.steps);
    // Untraced and traced passes alternate, so that drift in the host's
    // speed falls on both sides of the overhead ratio.
    let (mut untraced_walls, mut traced_walls, mut single_cpus) =
        (Vec::new(), Vec::new(), Vec::new());
    let mut traced = Tracer::new(true);
    let mut counts = sweeps::SimCounts::default();
    let stored: Vec<&SimResult> = cells.iter().map(|(_, r)| r).collect();
    for enabled in [false, true].repeat(OVERHEAD_PAIRS) {
        let mut t = Tracer::new(enabled);
        let mut c = sweeps::SimCounts::default();
        let cpu0 = cpu_seconds("self");
        let start = Instant::now();
        let results = sweeps::traced_pass(
            &mut t,
            &work.steps,
            work.seed,
            work.branches,
            &work.models,
            &plans,
            &mut c,
        );
        let wall = start.elapsed().as_secs_f64();
        if enabled {
            traced_walls.push(wall);
            traced = t;
            counts = c;
        } else {
            untraced_walls.push(wall);
            single_cpus.push(cpu_seconds("self") - cpu0);
        }
        if results.iter().flatten().collect::<Vec<_>>() != stored {
            report.mismatch("traced replay differs from the program's sweep results".to_owned());
        }
    }
    report.set(
        "sim.cpu_per_pair_ns.single",
        median(&single_cpus).expect("passes") * 1e9 / pairs,
    );
    let walls = [
        median(&untraced_walls).expect("passes"),
        median(&traced_walls).expect("passes"),
    ];

    // The store layer, as the warm passes use it: open, fill, read.
    let dir = cli.scratch.join(format!("store-{}", cli.workload));
    fresh_dir(&dir)?;
    let mut hits = 0u64;
    traced.span("store", 0, |t| -> Result<(), String> {
        let store = t
            .span("store.open", 0, |_| ResultStore::open(&dir))
            .map_err(|e| format!("store: {e}"))?;
        for (i, (key, result)) in cells.iter().enumerate() {
            t.span("store.put", i as u64, |_| store.put(key, result))
                .map_err(|e| format!("store put: {e}"))?;
        }
        for (i, (key, result)) in cells.iter().enumerate() {
            if t.span("store.get", i as u64, |_| store.get(key)).as_ref() == Some(result) {
                hits += 1;
            }
        }
        let s = store.stats();
        let hot = s.hot_hits.load(std::sync::atomic::Ordering::Relaxed);
        let pack = s.pack_hits.load(std::sync::atomic::Ordering::Relaxed);
        report.set("store.hits.hot", hot as f64);
        report.set("store.hits.pack", pack as f64);
        Ok(())
    })?;
    let _ = std::fs::remove_dir_all(&dir);
    let misses = cells.len() as u64 - hits;
    if misses > 0 {
        report.mismatch(format!("{misses} stored cells did not read back"));
    }
    report.set("store.misses", misses as f64);
    report.set("store.hit_ratio", hits as f64 / cells.len().max(1) as f64);
    let layers = traced.by_name();
    let own = |name: &str| layers.get(name).map_or(0.0, |&(s, _)| s);
    report.set("store.open_s", own("store.open"));
    report.set("store.get_s", own("store.get"));
    report.set("store.put_s", own("store.put"));

    layer_metrics(&traced, &counts, 1.0, report);
    // ROADMAP aim 1: the layers must account for the traced wall time
    // to within 5%.
    report.set("trace.coverage", traced.coverage());
    report.stamp(
        "coverage_within_5pct",
        (traced.coverage() >= 0.95).to_string(),
    );
    report.set("trace.overhead", walls[1] / walls[0] - 1.0);
    report.stamp("traced_walls_s", list(&traced_walls));
    report.stamp("untraced_walls_s", list(&untraced_walls));
    let path = cli
        .scratch
        .join(format!("spans-{}-{}.jsonl", cli.workload, cli.seed));
    traced
        .write_jsonl(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    report.attempted = (2 * sweeps::sweeps_of(&work.steps).len() + cells.len()) as u64;
    Ok(())
}
