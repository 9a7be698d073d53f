//! The two sweep workloads: `reproduce` (every sweep `all` runs) and
//! `long_trace` (one configuration per sweep over long traces).
//!
//! The untraced runs call the program exactly as its users do —
//! `bpred_sim::experiments` for the reproduction, `run_configs_keyed`
//! for a single-configuration simulation. The traced runs replay the
//! same `(source, configs)` sweeps through `chunk_feeder` and one
//! `LaneSet` per plan, so generation and each plan's replay get their
//! own spans.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use bpred_core::PredictorConfig;
use bpred_serve::ResultStore;
use bpred_sim::cache::{self, CellKey, ResultCache};
use bpred_sim::experiments::{self, render_difference, render_size_series, ExperimentOptions};
use bpred_sim::report::{percent, render_surface, render_tier};
use bpred_sim::{LaneSet, SimResult, Simulator, LANE_TIER_LABELS};
use bpred_trace::stats::TraceStats;
use bpred_trace::{TraceChunk, TraceSource};
use bpred_workloads::{suite, WorkloadModel, WorkloadSource};

use crate::trace::Tracer;

/// Trace length (conditional branches) of every `reproduce` sweep:
/// the full design space of `all` at a length one pass of which takes
/// a few seconds on two cores.
pub const REPRODUCE_BRANCHES: usize = 50_000;

/// Trace length of every `long_trace` sweep: long enough that trace
/// generation, not per-sweep set-up, dominates.
pub const LONG_TRACE_BRANCHES: usize = 1_000_000;

/// The one configuration every `long_trace` sweep simulates.
pub const LONG_TRACE_CONFIG: PredictorConfig = PredictorConfig::Gshare {
    history_bits: 12,
    col_bits: 2,
};

/// The experiment options of `reproduce` under `seed`.
pub fn reproduce_options(seed: u64) -> ExperimentOptions {
    ExperimentOptions {
        branches: Some(REPRODUCE_BRANCHES),
        seed,
        ..ExperimentOptions::default()
    }
}

/// One sweep: every configuration replayed over one model's stream.
#[derive(Debug, Clone)]
pub struct Sweep {
    /// Benchmark model name.
    pub model: String,
    /// Configurations, in the order the driver passes them.
    pub configs: Vec<PredictorConfig>,
}

/// One step of a workload pass, in the order the program runs them.
#[derive(Debug, Clone)]
pub enum Step {
    /// Tables 1–2: generate each model's trace and measure it.
    Characterize(Vec<String>),
    /// Build these models, then run these sweeps.
    Sweeps(Vec<String>, Vec<Sweep>),
}

fn names(models: &[WorkloadModel]) -> Vec<String> {
    models.iter().map(|m| m.name().to_owned()).collect()
}

fn surface_configs(
    opts: &ExperimentOptions,
    make: impl Fn(u32, u32) -> PredictorConfig,
) -> Vec<PredictorConfig> {
    let mut configs = Vec::new();
    for total in opts.min_bits..=opts.max_bits {
        for col in (0..=total).rev() {
            configs.push(make(total - col, col));
        }
    }
    configs
}

fn on(model: &str, configs: Vec<PredictorConfig>) -> Sweep {
    Sweep {
        model: model.to_owned(),
        configs,
    }
}

/// Every step `all` runs, in its order: the same models built and the
/// same `(source, configs)` sweeps. [`check_sweep_list`] checks this list
/// against the sweeps `bpred_sim::experiments` actually issues.
pub fn reproduce_steps(opts: &ExperimentOptions) -> Vec<Step> {
    let all = names(&suite::all());
    let focus = names(&suite::focus());
    let sizes = |make: fn(u32) -> PredictorConfig| -> Vec<Sweep> {
        let configs: Vec<PredictorConfig> = (opts.min_bits..=opts.max_bits).map(make).collect();
        all.iter().map(|m| on(m, configs.clone())).collect()
    };
    let surfaces = |models: &[String], make: fn(u32, u32) -> PredictorConfig| -> Vec<Sweep> {
        models
            .iter()
            .map(|m| on(m, surface_configs(opts, make)))
            .collect()
    };
    let mpeg = vec!["mpeg_play".to_owned()];
    let gas: fn(u32, u32) -> PredictorConfig = |r, c| PredictorConfig::Gas {
        history_bits: r,
        col_bits: c,
    };
    let gshare: fn(u32, u32) -> PredictorConfig = |r, c| PredictorConfig::Gshare {
        history_bits: r,
        col_bits: c,
    };
    let path: fn(u32, u32) -> PredictorConfig = |r, c| PredictorConfig::Path {
        row_bits: r,
        col_bits: c,
        bits_per_target: 2,
    };
    let pas_inf: fn(u32, u32) -> PredictorConfig = |r, c| PredictorConfig::PasInfinite {
        history_bits: r,
        col_bits: c,
    };
    let finite = |entries: u32| {
        move |r, c| PredictorConfig::PasFinite {
            history_bits: r,
            col_bits: c,
            entries,
            ways: 4,
        }
    };
    let mut steps = vec![
        Step::Characterize(all.clone()),
        Step::Characterize(focus.clone()),
        Step::Sweeps(
            all.clone(),
            sizes(|n| PredictorConfig::AddressIndexed { addr_bits: n }),
        ),
        Step::Sweeps(
            all.clone(),
            sizes(|n| PredictorConfig::Gas {
                history_bits: n,
                col_bits: 0,
            }),
        ),
        Step::Sweeps(focus.clone(), surfaces(&focus, gas)),
        Step::Sweeps(focus.clone(), surfaces(&focus, gshare)),
    ];
    for second in [gshare, path] {
        // Figures 7 and 8 each build mpeg_play once per surface.
        steps.push(Step::Sweeps(mpeg.clone(), surfaces(&mpeg, gas)));
        steps.push(Step::Sweeps(mpeg.clone(), surfaces(&mpeg, second)));
    }
    steps.push(Step::Sweeps(focus.clone(), surfaces(&focus, pas_inf)));
    for entries in [128u32, 1024, 2048] {
        let configs = surface_configs(opts, finite(entries));
        steps.push(Step::Sweeps(mpeg.clone(), vec![on("mpeg_play", configs)]));
    }
    let mut table3 = Vec::new();
    let budgets: Vec<u32> = [9u32, 12, 15]
        .into_iter()
        .filter(|&b| b >= opts.min_bits && b <= opts.max_bits)
        .collect();
    for model in &focus {
        for scheme in experiments::Table3Scheme::all() {
            for &bits in &budgets {
                let configs = (0..=bits)
                    .rev()
                    .map(|c| table3_config(scheme, bits - c, c))
                    .collect();
                table3.push(on(model, configs));
            }
        }
    }
    steps.push(Step::Sweeps(focus, table3));
    steps
}

/// The Table 3 configuration of `scheme` with `r` row and `c` column
/// bits, as `best_config` explores it.
pub fn table3_config(scheme: experiments::Table3Scheme, r: u32, c: u32) -> PredictorConfig {
    use experiments::Table3Scheme as S;
    match scheme {
        S::Gas => PredictorConfig::Gas {
            history_bits: r,
            col_bits: c,
        },
        S::Gshare => PredictorConfig::Gshare {
            history_bits: r,
            col_bits: c,
        },
        S::PasInfinite => PredictorConfig::PasInfinite {
            history_bits: r,
            col_bits: c,
        },
        S::PasFinite(entries) => PredictorConfig::PasFinite {
            history_bits: r,
            col_bits: c,
            entries: entries as u32,
            ways: 4,
        },
    }
}

/// The `long_trace` pass: one sweep of [`LONG_TRACE_CONFIG`] per model.
pub fn long_trace_steps() -> Vec<Step> {
    let all = names(&suite::all());
    let sweeps = all.iter().map(|m| on(m, vec![LONG_TRACE_CONFIG])).collect();
    vec![Step::Sweeps(Vec::new(), sweeps)]
}

/// Every sweep of `steps`, in order.
pub fn sweeps_of(steps: &[Step]) -> Vec<&Sweep> {
    steps
        .iter()
        .flat_map(|step| match step {
            Step::Characterize(_) => [].iter(),
            Step::Sweeps(_, sweeps) => sweeps.iter(),
        })
        .collect()
}

/// Predict+update pairs of one pass: configurations × conditionals,
/// from the benchmark's own inputs.
pub fn pairs_of(steps: &[Step], branches: usize) -> u64 {
    sweeps_of(steps)
        .iter()
        .map(|s| (s.configs.len() * branches) as u64)
        .sum()
}

/// Renders every table and figure exactly as `bpred-bench --bin all`
/// prints them.
pub fn render_all(opts: &ExperimentOptions) -> String {
    let mut out = String::new();
    let o = &mut out;
    let _ = writeln!(o, "================ Table 1 ================\n");
    o.push_str(&experiments::table1(opts).render());
    let _ = writeln!(o, "\n================ Table 2 ================\n");
    o.push_str(&experiments::table2(opts).render());
    let _ = writeln!(
        o,
        "\n================ Figure 2 (address-indexed) ================\n"
    );
    o.push_str(&render_size_series(&experiments::fig2(opts)).render());
    let _ = writeln!(o, "\n================ Figure 3 (GAg) ================\n");
    o.push_str(&render_size_series(&experiments::fig3(opts)).render());
    let _ = writeln!(
        o,
        "\n================ Figure 4 (GAs surfaces) ================\n"
    );
    let gas_surfaces = experiments::fig4(opts);
    for surface in &gas_surfaces {
        let _ = writeln!(o, "{}", render_surface(surface));
    }
    let _ = writeln!(
        o,
        "================ Figure 5 (GAs aliasing) ================\n"
    );
    for surface in &gas_surfaces {
        let _ = writeln!(o, "GAs aliasing on {}", surface.workload);
        for tier in &surface.tiers {
            let _ = writeln!(o, "{}", render_tier(tier, |p| p.result.alias_rate()));
        }
        if let Some(tier) = surface.tiers.last() {
            let (conflicts, harmless) = tier
                .points
                .iter()
                .filter_map(|p| p.result.alias)
                .fold((0u64, 0u64), |(c, h), a| {
                    (c + a.conflicts, h + a.harmless_conflicts)
                });
            if conflicts > 0 {
                let _ = writeln!(
                    o,
                    "harmless share in 2^{} tier: {}",
                    tier.total_bits,
                    percent(harmless as f64 / conflicts as f64)
                );
            }
        }
        let _ = writeln!(o);
    }
    let _ = writeln!(
        o,
        "================ Figure 6 (gshare surfaces) ================\n"
    );
    for surface in experiments::fig6(opts) {
        let _ = writeln!(o, "{}", render_surface(&surface));
    }
    let _ = writeln!(
        o,
        "================ Figure 7 (gshare - GAs, mpeg_play) ================\n"
    );
    o.push_str(&render_difference(&experiments::fig7(opts)).render());
    let _ = writeln!(
        o,
        "\n================ Figure 8 (path - GAs, mpeg_play) ================\n"
    );
    o.push_str(&render_difference(&experiments::fig8(opts)).render());
    let _ = writeln!(
        o,
        "\n================ Figure 9 (PAs perfect histories) ================\n"
    );
    for surface in experiments::fig9(opts) {
        let _ = writeln!(o, "{}", render_surface(&surface));
    }
    let _ = writeln!(
        o,
        "================ Figure 10 (PAs finite BHTs, mpeg_play) ================\n"
    );
    for surface in experiments::fig10(opts, &[128, 1024, 2048]) {
        let _ = writeln!(o, "{}", render_surface(&surface));
    }
    let _ = writeln!(o, "================ Table 3 ================\n");
    let budgets: Vec<u32> = [9u32, 12, 15]
        .into_iter()
        .filter(|&b| b >= opts.min_bits && b <= opts.max_bits)
        .collect();
    o.push_str(&experiments::table3(opts, &budgets, &experiments::Table3Scheme::all()).render());
    out
}

/// The source a sweep replays, as the experiment drivers build it.
pub fn source_of(model: &WorkloadModel, seed: u64, branches: usize) -> WorkloadSource {
    WorkloadSource::with_length(model.clone(), seed, branches)
}

/// Runs the `long_trace` pass through the single-configuration path
/// users take, returning every result in model order.
pub fn run_long_trace(models: &[WorkloadModel], seed: u64) -> Vec<SimResult> {
    models
        .iter()
        .flat_map(|model| {
            let source = source_of(model, seed, LONG_TRACE_BRANCHES);
            cache::run_configs_keyed(
                &[LONG_TRACE_CONFIG],
                &source,
                Simulator::new(),
                Some(&source.cache_id()),
            )
        })
        .collect()
}

/// Digest of a result list: FNV-128 over every field of every result.
pub fn digest(results: &[SimResult]) -> String {
    let text: String = results.iter().map(|r| format!("{r:?}\n")).collect();
    bpred_trace::fnv::fnv128_hex(text.as_bytes())
}

/// A timing probe installed as the process-wide result cache: it
/// timestamps every lookup and store the sweep drivers make, so each
/// sweep's latency is measured from outside the program. Over a
/// backing store it answers from it; without one it never hits, so
/// every sweep is simulated.
pub struct Probe {
    store: Option<Arc<ResultStore>>,
    log: Mutex<ProbeLog>,
}

#[derive(Default)]
struct ProbeLog {
    /// (lookup start, lookup end) per `get`.
    gets: Vec<(Instant, Instant)>,
    /// Completion time per `put`.
    puts: Vec<Instant>,
    /// Cells stored, when recording.
    cells: Option<Vec<(CellKey, SimResult)>>,
}

impl Probe {
    /// A probe over `store` (`None`: every lookup misses); `record`
    /// keeps every stored cell.
    pub fn new(store: Option<Arc<ResultStore>>, record: bool) -> Arc<Probe> {
        Arc::new(Probe {
            store,
            log: Mutex::new(ProbeLog {
                cells: record.then(Vec::new),
                ..ProbeLog::default()
            }),
        })
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, ProbeLog> {
        self.log.lock().expect("probe log poisoned")
    }

    /// Per-sweep latencies in ms, given each sweep's cell count in
    /// issue order: from a sweep's first lookup to its last store (or
    /// its last lookup when every cell hit).
    pub fn sweep_latencies(&self, sizes: &[usize]) -> Vec<f64> {
        let log = self.lock();
        let (mut first, mut latencies) = (0usize, Vec::with_capacity(sizes.len()));
        let mut puts = log.puts.iter();
        for &size in sizes {
            let start = log.gets[first].0;
            let end = if log.puts.is_empty() {
                log.gets[first + size - 1].1
            } else {
                *puts.by_ref().nth(size - 1).expect("a store per cell")
            };
            latencies.push((end - start).as_secs_f64() * 1e3);
            first += size;
        }
        latencies
    }

    /// The recorded cells, in store order.
    pub fn take_cells(&self) -> Vec<(CellKey, SimResult)> {
        self.lock().cells.take().unwrap_or_default()
    }
}

impl ResultCache for Probe {
    fn get(&self, key: &CellKey) -> Option<SimResult> {
        let start = Instant::now();
        let hit = self.store.as_ref().and_then(|s| s.get(key));
        let end = Instant::now();
        self.lock().gets.push((start, end));
        hit
    }

    fn put(&self, key: &CellKey, result: &SimResult) {
        let mut log = self.lock();
        log.puts.push(Instant::now());
        if let Some(cells) = &mut log.cells {
            cells.push((key.clone(), result.clone()));
        }
    }
}

/// Runs `pass` with `probe` installed as the process-wide cache.
pub fn with_probe<T>(probe: &Arc<Probe>, pass: impl FnOnce() -> T) -> T {
    cache::install(probe.clone());
    let out = pass();
    cache::uninstall();
    out
}

/// Checks that the cells the program stored, in order, are exactly the
/// sweeps of `steps` under `seed`/`branches`: the benchmark's sweep list
/// is the one the program runs. Returns the first mismatch.
pub fn check_sweep_list(
    steps: &[Step],
    cells: &[(CellKey, SimResult)],
    seed: u64,
    branches: usize,
) -> Result<(), String> {
    let mut models: BTreeMap<String, WorkloadModel> = BTreeMap::new();
    let mut expected = Vec::new();
    for sweep in sweeps_of(steps) {
        let model = models
            .entry(sweep.model.clone())
            .or_insert_with(|| suite::by_name(&sweep.model).expect("suite model"));
        let id = source_of(model, seed, branches).cache_id();
        for config in &sweep.configs {
            expected.push(CellKey::new(&id, config, &Simulator::new()).canonical());
        }
    }
    if expected.len() != cells.len() {
        return Err(format!(
            "sweep list has {} cells, the program stored {}",
            expected.len(),
            cells.len()
        ));
    }
    for (i, (want, (got, _))) in expected.iter().zip(cells).enumerate() {
        if *want != got.canonical() {
            return Err(format!(
                "cell {i}: expected {want}, program stored {}",
                got.canonical()
            ));
        }
    }
    Ok(())
}

/// Plan label index (into [`LANE_TIER_LABELS`]) each configuration
/// dispatches to, read from the lane census of a one-lane set.
pub fn plan_of(config: &PredictorConfig) -> usize {
    let counts = LaneSet::new(std::slice::from_ref(config), Simulator::new()).lane_tier_counts();
    counts
        .iter()
        .position(|&c| c == 1)
        .expect("one lane lands on one tier")
}

/// Work counted by the traced replay.
#[derive(Debug, Default, Clone)]
pub struct SimCounts {
    /// Records generated.
    pub records: u64,
    /// Per plan: lanes built.
    pub lanes: [u64; LANE_TIER_LABELS.len()],
    /// Per plan: records × lanes replayed.
    pub lane_records: [u64; LANE_TIER_LABELS.len()],
    /// Per-plan lane sets whose prefetch gate resolved on.
    pub prefetch_groups: u64,
}

/// Span names, built once so tracing allocates only the span records.
pub struct SpanNames {
    replay: Vec<String>,
}

impl SpanNames {
    /// Names for every plan.
    pub fn new() -> SpanNames {
        SpanNames {
            replay: LANE_TIER_LABELS
                .iter()
                .map(|l| format!("sim.replay.{l}"))
                .collect(),
        }
    }
}

/// Replays one sweep through `chunk_feeder` and one `LaneSet` per plan,
/// spans around every call. Results come back in configuration order.
pub fn replay_traced(
    t: &mut Tracer,
    names: &SpanNames,
    id: u64,
    source: &WorkloadSource,
    configs: &[PredictorConfig],
    plans: &BTreeMap<String, usize>,
    counts: &mut SimCounts,
) -> Vec<SimResult> {
    let mut by_plan: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for (i, config) in configs.iter().enumerate() {
        by_plan
            .entry(plans[&config.config_id()])
            .or_default()
            .push(i);
    }
    let mut sets: Vec<(usize, Vec<usize>, LaneSet)> = t.span("sim.laneset_new", id, |_| {
        by_plan
            .into_iter()
            .map(|(plan, indices)| {
                let lane_configs: Vec<PredictorConfig> =
                    indices.iter().map(|&i| configs[i]).collect();
                (plan, indices, LaneSet::new(&lane_configs, Simulator::new()))
            })
            .collect()
    });
    for (plan, indices, set) in &sets {
        counts.lanes[*plan] += indices.len() as u64;
        counts.prefetch_groups += set.prefetch_groups() as u64;
    }
    let mut chunk = TraceChunk::with_capacity(TraceChunk::DEFAULT_LEN);
    let mut feeder = t.span("workloads.gen", id, |_| source.chunk_feeder());
    loop {
        let n = t.span("workloads.gen", id, |_| {
            feeder.refill(&mut chunk, TraceChunk::DEFAULT_LEN)
        });
        if n == 0 {
            break;
        }
        counts.records += n as u64;
        for (plan, indices, set) in &mut sets {
            t.span(&names.replay[*plan], id, |_| set.replay_chunk(&chunk));
            counts.lane_records[*plan] += (n * indices.len()) as u64;
        }
    }
    drop(feeder);
    t.span("sim.finish", id, |_| {
        let mut results: Vec<Option<SimResult>> = vec![None; configs.len()];
        for (_, indices, set) in sets {
            for (i, result) in indices.into_iter().zip(set.finish()) {
                results[i] = Some(result);
            }
        }
        results
            .into_iter()
            .map(|r| r.expect("every lane finished"))
            .collect()
    })
}

/// One traced pass over `steps`: model builds, trace characterisation
/// and every sweep, each under its own span, all inside one root span.
/// Returns every sweep's results in order.
pub fn traced_pass(
    t: &mut Tracer,
    steps: &[Step],
    seed: u64,
    branches: usize,
    prebuilt: &[WorkloadModel],
    plans: &BTreeMap<String, usize>,
    counts: &mut SimCounts,
) -> Vec<Vec<SimResult>> {
    let names = SpanNames::new();
    t.span("pass", 0, |t| {
        let mut out = Vec::new();
        let mut sweep_id = 0u64;
        for step in steps {
            match step {
                Step::Characterize(models) => {
                    for name in models {
                        let model = t.span("workloads.model_build", 0, |_| {
                            suite::by_name(name).expect("suite model")
                        });
                        let trace = t.span("workloads.gen", 0, |_| {
                            model.trace_of_length(seed, branches)
                        });
                        counts.records += trace.len() as u64;
                        std::hint::black_box(
                            t.span("trace.stats", 0, |_| TraceStats::measure(&trace)),
                        );
                    }
                }
                Step::Sweeps(build, sweeps) => {
                    let built: Vec<WorkloadModel> = build
                        .iter()
                        .map(|name| {
                            t.span("workloads.model_build", 0, |_| {
                                suite::by_name(name).expect("suite model")
                            })
                        })
                        .collect();
                    for sweep in sweeps {
                        sweep_id += 1;
                        let model = built
                            .iter()
                            .chain(prebuilt)
                            .find(|m| m.name() == sweep.model)
                            .expect("sweep model is built");
                        let source = source_of(model, seed, branches);
                        out.push(replay_traced(
                            t,
                            &names,
                            sweep_id,
                            &source,
                            &sweep.configs,
                            plans,
                            counts,
                        ));
                    }
                }
            }
        }
        out
    })
}

/// Plan of every configuration in `steps`, keyed by config id.
pub fn plans_of(steps: &[Step]) -> BTreeMap<String, usize> {
    let mut plans = BTreeMap::new();
    for sweep in sweeps_of(steps) {
        for config in &sweep.configs {
            plans
                .entry(config.config_id())
                .or_insert_with(|| plan_of(config));
        }
    }
    plans
}
