//! The sweep driver: N configurations × one shared chunk stream.
//!
//! A per-configuration sweep ([`run_config`] in a loop) replays the
//! whole trace once *per predictor*. [`run_configs`] instead generates
//! (or decodes) the trace into structure-of-arrays [`TraceChunk`]s
//! **exactly once per sweep** and feeds every chunk to
//! [`LaneSet`]s, which step each configuration through its fused lane
//! group (see [`crate::multilane`]). Results are *bit-identical* to
//! running each configuration alone through [`Simulator::run`], which
//! `tests/determinism.rs` at the workspace root enforces for every
//! configuration variant.
//!
//! # Workers and shards
//!
//! With one worker the chunks are produced inline into one reused
//! buffer, one [`LaneSet`] covers every configuration, and no thread
//! is spawned. With more, a producer thread publishes chunks into a
//! bounded ref-counted ring (see [`crate::ring`]) and each worker
//! replays them through the shards it owns: consecutive
//! [`DEFAULT_SHARD_SIZE`]-configuration slices, one [`LaneSet`] each,
//! assigned round-robin. Either way production happens once per
//! sweep, overlapping replay when threaded.
//!
//! # Thread count
//!
//! Shards are distributed over `min(available parallelism, shards)`
//! workers. Set `BPRED_THREADS` to pin the worker count (clamped to
//! at least 1) for reproducible CI and benchmark runs; values that do
//! not parse as a decimal count are rejected with a one-time warning
//! on stderr. Thread count never changes results, only wall-clock
//! time.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, Once};
use std::time::Instant;

use bpred_core::PredictorConfig;
use bpred_trace::{Trace, TraceChunk, TraceSource};

use crate::multilane::LANE_TIER_LABELS;
use crate::ring::{ChunkRing, DetachGuard, FinishGuard, RING_CAPACITY};
use crate::{LaneSet, SimResult, Simulator};

/// Configurations per shard — one [`LaneSet`] each — when a sweep runs
/// on more than one worker.
pub const DEFAULT_SHARD_SIZE: usize = 8;

/// Records replayed through the sweep driver, process-wide.
static RECORDS_REPLAYED: AtomicU64 = AtomicU64::new(0);

/// Bit pattern of the last sweep's predict+update pairs per second
/// (an `f64` stored through `to_bits`; 0 until a sweep runs).
static REPLAY_PAIRS_PER_SEC: AtomicU64 = AtomicU64::new(0);

/// Lanes of the last sweep on the scalar replay tier (0 until a sweep
/// runs).
static REPLAY_SCALAR_LANES: AtomicU64 = AtomicU64::new(0);

/// Per-plan-family lane counts of the last sweep, indexed like
/// [`LANE_TIER_LABELS`] (all zero until a sweep runs).
static REPLAY_GROUP_LANES: [AtomicU64; LANE_TIER_LABELS.len()] =
    [const { AtomicU64::new(0) }; LANE_TIER_LABELS.len()];

/// Groups of the last sweep whose arena footprint turned the
/// prefetching loop on (0 until a sweep runs).
static REPLAY_PREFETCH_GROUPS: AtomicU64 = AtomicU64::new(0);

/// Warns at most once per process about an unparsable `BPRED_THREADS`.
static BPRED_THREADS_WARNING: Once = Once::new();

/// Total lane-records replayed through the sweep driver since process
/// start (each record counts once per lane that consumed it).
/// Monotonic; backs the `bpred_records_replayed_total` counter
/// exported by `bpred-serve`'s `/metrics` endpoint.
pub fn records_replayed_total() -> u64 {
    RECORDS_REPLAYED.load(Ordering::Relaxed)
}

/// Predict+update pairs per second of the most recent sweep in this
/// process (0.0 before any sweep). Wall-clock observability only — it
/// never influences results; backs the `bpred_replay_pairs_per_sec`
/// gauge exported by `bpred-serve`'s `/metrics` endpoint, labelled
/// with [`dispatch_tier`](crate::dispatch_tier).
pub fn replay_pairs_per_sec() -> f64 {
    f64::from_bits(REPLAY_PAIRS_PER_SEC.load(Ordering::Relaxed))
}

/// Number of lanes in the most recent sweep on the scalar replay tier
/// ([`LaneSet::scalar_lanes`] summed over the sweep's lane sets): 0
/// before the first sweep and, outside `BPRED_FORCE_SCALAR`, after
/// every sweep. Backs the `bpred_replay_scalar_lanes` gauge exported
/// by `bpred-serve`'s `/metrics` endpoint.
pub fn replay_scalar_lanes() -> u64 {
    REPLAY_SCALAR_LANES.load(Ordering::Relaxed)
}

/// Per-plan-family lane counts of the most recent sweep, indexed like
/// [`LANE_TIER_LABELS`] (all zero before the first sweep). Backs the
/// `bpred_replay_group_lanes{plan=...}` gauge exported by
/// `bpred-serve`'s `/metrics` endpoint, so the plan families a sweep
/// actually dispatched to are observable.
pub fn replay_group_lanes() -> [u64; LANE_TIER_LABELS.len()] {
    std::array::from_fn(|i| REPLAY_GROUP_LANES[i].load(Ordering::Relaxed))
}

/// Number of groups in the most recent sweep whose arena footprint
/// turned the prefetching loop on ([`LaneSet::prefetch_groups`]); 0
/// before the first sweep. Lets benches and `/metrics` record which
/// loop a sweep actually ran.
pub fn replay_prefetch_groups() -> u64 {
    REPLAY_PREFETCH_GROUPS.load(Ordering::Relaxed)
}

/// Adds one [`LaneSet`]'s tier census to the sweep-wide gauges.
fn record_lane_census(lanes: &LaneSet) {
    REPLAY_SCALAR_LANES.fetch_add(lanes.scalar_lanes() as u64, Ordering::Relaxed);
    REPLAY_PREFETCH_GROUPS.fetch_add(lanes.prefetch_groups() as u64, Ordering::Relaxed);
    for (slot, count) in REPLAY_GROUP_LANES.iter().zip(lanes.lane_tier_counts()) {
        slot.fetch_add(count, Ordering::Relaxed);
    }
}

/// Number of worker threads: the `BPRED_THREADS` environment override
/// (clamped ≥ 1) when set and numeric, otherwise the available
/// parallelism; always capped by the number of jobs. A set-but-invalid
/// override (e.g. `"0x8"` or an empty string) falls back to available
/// parallelism and reports the rejected value once on stderr instead
/// of silently ignoring it.
fn worker_count(jobs: usize) -> usize {
    let cores = match std::env::var("BPRED_THREADS") {
        Ok(raw) => match raw.parse::<usize>() {
            Ok(n) => n.max(1),
            Err(_) => {
                BPRED_THREADS_WARNING.call_once(|| {
                    eprintln!(
                        "bpred-sim: ignoring invalid BPRED_THREADS value {raw:?} \
                         (expected a decimal thread count); \
                         using available parallelism"
                    );
                });
                available_parallelism_or_one()
            }
        },
        Err(_) => available_parallelism_or_one(),
    };
    cores.min(jobs).max(1)
}

fn available_parallelism_or_one() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Locks `mutex` even when another worker's panic poisoned it: every
/// slot is written at most once by the worker that computed it, so the
/// data is consistent regardless, and swallowing the poison lets the
/// *original* panic (a predictor bug surfaced by `thread::scope`)
/// propagate instead of an opaque secondary "lock poisoned" panic.
pub(crate) fn lock_ignoring_poison<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Simulates every configuration against `source` in one decode pass,
/// returning results in the same order as `configs`, bit-identical to
/// running [`Simulator::run`] per configuration.
///
/// With one worker a single [`LaneSet`]
/// covers every configuration and no thread is spawned; with more,
/// each worker owns round-robin [`DEFAULT_SHARD_SIZE`]-configuration
/// shards and a producer thread shares the chunks between them.
/// Worker count is `min(BPRED_THREADS or available parallelism,
/// shards)`; it never changes results.
///
/// # Examples
///
/// ```
/// use bpred_core::PredictorConfig;
/// use bpred_sim::{run_configs, Simulator};
/// use bpred_trace::{BranchRecord, Outcome, Trace};
///
/// let trace: Trace = (0..200)
///     .map(|i| BranchRecord::conditional(0x40 + 4 * (i % 8), 0x20, Outcome::from(i % 3 == 0)))
///     .collect();
/// let configs = vec![
///     PredictorConfig::AddressIndexed { addr_bits: 4 },
///     PredictorConfig::Gshare { history_bits: 4, col_bits: 2 },
/// ];
/// let results = run_configs(&configs, &trace, Simulator::new());
/// assert_eq!(results.len(), 2);
/// assert_eq!(results[1].conditionals, 200);
/// assert!(results[0].predictor.starts_with("address-indexed"));
/// ```
pub fn run_configs<S>(
    configs: &[PredictorConfig],
    source: &S,
    simulator: Simulator,
) -> Vec<SimResult>
where
    S: TraceSource + Sync + ?Sized,
{
    let workers = worker_count(configs.len().div_ceil(DEFAULT_SHARD_SIZE));
    run_chunked(configs, source, simulator, TraceChunk::DEFAULT_LEN, workers)
}

/// Simulates one configuration on the scalar oracle: the predictor
/// [`PredictorConfig::build`] returns, replayed record by record. The
/// fused groups are tested against this.
pub fn run_config(config: PredictorConfig, trace: &Trace, simulator: Simulator) -> SimResult {
    simulator.run(&mut config.build(), trace)
}

/// The driver behind [`run_configs`]: decodes `source` into chunks of
/// up to `chunk_len` records once and replays them through one
/// [`LaneSet`] inline (`workers == 1`) or through
/// [`DEFAULT_SHARD_SIZE`] shards spread round-robin over `workers`
/// threads fed from a [`ChunkRing`]. Maintains the sweep gauges.
///
/// # Panics
///
/// Panics if `chunk_len` is zero.
fn run_chunked<S>(
    configs: &[PredictorConfig],
    source: &S,
    simulator: Simulator,
    chunk_len: usize,
    workers: usize,
) -> Vec<SimResult>
where
    S: TraceSource + Sync + ?Sized,
{
    assert!(chunk_len > 0, "chunk length must be positive");
    if configs.is_empty() {
        return Vec::new();
    }
    let before = records_replayed_total();
    REPLAY_SCALAR_LANES.store(0, Ordering::Relaxed);
    REPLAY_PREFETCH_GROUPS.store(0, Ordering::Relaxed);
    for slot in &REPLAY_GROUP_LANES {
        slot.store(0, Ordering::Relaxed);
    }
    let start = Instant::now();
    let results: Mutex<Vec<Option<SimResult>>> = Mutex::new(vec![None; configs.len()]);
    if workers == 1 {
        // One generator pass through a single reused buffer: with no
        // other worker to share with, the whole replay runs out of one
        // chunk's worth of memory.
        replay_owned(&[(0, configs)], simulator, &results, |feed| {
            let mut feeder = source.chunk_feeder();
            let mut chunk = TraceChunk::with_capacity(chunk_len);
            while feeder.refill(&mut chunk, chunk_len) > 0 {
                feed(&chunk);
            }
        });
    } else {
        let shards: Vec<(usize, &[PredictorConfig])> = configs
            .chunks(DEFAULT_SHARD_SIZE)
            .enumerate()
            .map(|(shard, slice)| (shard * DEFAULT_SHARD_SIZE, slice))
            .collect();
        let ring = ChunkRing::new(RING_CAPACITY, workers);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                // The guard finishes the stream even if the source's
                // iterator panics mid-sweep.
                let _finish = FinishGuard(&ring);
                for chunk in source.chunks(chunk_len) {
                    if !ring.publish(chunk) {
                        return; // every consumer is gone
                    }
                }
            });
            for worker in 0..workers {
                let (ring, results, shards) = (&ring, &results, &shards);
                scope.spawn(move || {
                    let _detach = DetachGuard {
                        ring,
                        consumer: worker,
                    };
                    let owned: Vec<_> = shards
                        .iter()
                        .skip(worker)
                        .step_by(workers)
                        .copied()
                        .collect();
                    replay_owned(&owned, simulator, results, |feed| {
                        while let Some(chunk) = ring.next(worker) {
                            feed(&chunk);
                        }
                    });
                });
            }
        });
    }
    let pairs = records_replayed_total() - before;
    let elapsed = start.elapsed().as_secs_f64();
    if pairs > 0 && elapsed > 0.0 {
        REPLAY_PAIRS_PER_SEC.store((pairs as f64 / elapsed).to_bits(), Ordering::Relaxed);
    }
    results
        .into_inner()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
        .into_iter()
        .map(|r| r.expect("every configuration simulated"))
        .collect()
}

/// One worker's share of a sweep: builds a [`LaneSet`] per owned
/// `(first result slot, configurations)` shard, feeds it every chunk
/// `chunks` produces, and writes the results. A worker that owns no
/// shard returns without reading a chunk.
fn replay_owned(
    owned: &[(usize, &[PredictorConfig])],
    simulator: Simulator,
    results: &Mutex<Vec<Option<SimResult>>>,
    chunks: impl FnOnce(&mut dyn FnMut(&TraceChunk)),
) {
    if owned.is_empty() {
        return;
    }
    let mut sets: Vec<(usize, LaneSet)> = owned
        .iter()
        .map(|&(base, slice)| (base, LaneSet::new(slice, simulator)))
        .collect();
    for (_, set) in &sets {
        record_lane_census(set);
    }
    let lanes: usize = sets.iter().map(|(_, set)| set.len()).sum();
    chunks(&mut |chunk| {
        RECORDS_REPLAYED.fetch_add((chunk.len() * lanes) as u64, Ordering::Relaxed);
        for (_, set) in &mut sets {
            set.replay_chunk(chunk);
        }
    });
    let mut results = lock_ignoring_poison(results);
    for (base, set) in sets {
        for (offset, result) in set.finish().into_iter().enumerate() {
            results[base + offset] = Some(result);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpred_trace::{BranchRecord, Outcome};

    fn trace(n: usize) -> Trace {
        (0..n)
            .map(|i| {
                BranchRecord::conditional(
                    0x400 + 4 * (i as u64 % 32),
                    0x100,
                    Outcome::from(i % 7 < 4),
                )
            })
            .collect()
    }

    fn mixed_configs() -> Vec<PredictorConfig> {
        vec![
            PredictorConfig::AlwaysTaken,
            PredictorConfig::AddressIndexed { addr_bits: 4 },
            PredictorConfig::Gshare {
                history_bits: 6,
                col_bits: 2,
            },
            PredictorConfig::Gas {
                history_bits: 4,
                col_bits: 4,
            },
            PredictorConfig::PasInfinite {
                history_bits: 5,
                col_bits: 1,
            },
        ]
    }

    /// Three shards' worth: `mixed_configs` plus a gshare size range.
    fn sharded_configs() -> Vec<PredictorConfig> {
        let mut configs = mixed_configs();
        configs.extend((2..17).map(|n| PredictorConfig::Gshare {
            history_bits: n,
            col_bits: n % 3,
        }));
        assert_eq!(configs.len().div_ceil(DEFAULT_SHARD_SIZE), 3);
        configs
    }

    fn serial(configs: &[PredictorConfig], t: &Trace, simulator: Simulator) -> Vec<SimResult> {
        configs
            .iter()
            .map(|&config| run_config(config, t, simulator))
            .collect()
    }

    #[test]
    fn chunk_boundaries_never_change_results() {
        let n = 3_000;
        let t = trace(n);
        let configs = mixed_configs();
        let want = serial(&configs, &t, Simulator::new());
        for chunk_len in [1, 7, n - 1, n, n + 1] {
            let got = run_chunked(&configs, &t, Simulator::new(), chunk_len, 1);
            assert_eq!(want, got, "chunk_len {chunk_len}");
        }
    }

    #[test]
    fn worker_count_never_changes_results() {
        // 3 shards: 2 workers own unequal shares, 3 one each, 7 leave
        // four workers with nothing to replay.
        let t = trace(4_000);
        let configs = sharded_configs();
        let want = serial(&configs, &t, Simulator::with_warmup(500));
        for workers in [1, 2, 3, 7] {
            let got = run_chunked(&configs, &t, Simulator::with_warmup(500), 64, workers);
            assert_eq!(want, got, "{workers} workers");
        }
    }

    #[test]
    fn streaming_source_matches_materialised() {
        use bpred_workloads::{suite, WorkloadSource};
        let model = suite::espresso().scaled(3_000);
        let source = WorkloadSource::new(model.clone(), 23);
        let configs = sharded_configs();
        let want = serial(&configs, &model.trace(23), Simulator::new());
        for workers in [1, 2] {
            let streamed = run_chunked(&configs, &source, Simulator::new(), 256, workers);
            assert_eq!(want, streamed, "{workers} workers");
        }
        assert_eq!(want, run_configs(&configs, &source, Simulator::new()));
    }

    #[test]
    fn results_preserve_config_order() {
        let configs: Vec<PredictorConfig> = (0..13)
            .map(|n| PredictorConfig::AddressIndexed { addr_bits: n })
            .collect();
        let results = run_configs(&configs, &trace(400), Simulator::new());
        assert_eq!(results.len(), 13);
        for (cfg, r) in configs.iter().zip(&results) {
            assert_eq!(r.predictor, cfg.build().name());
        }
    }

    #[test]
    fn warmup_is_honoured_per_lane() {
        let configs = vec![PredictorConfig::AlwaysTaken, PredictorConfig::Btfn];
        let results = run_configs(&configs, &trace(100), Simulator::with_warmup(40));
        assert!(results.iter().all(|r| r.conditionals == 60));
    }

    #[test]
    fn empty_config_list_is_empty_result() {
        assert!(run_configs(&[], &trace(10), Simulator::new()).is_empty());
    }

    #[test]
    #[should_panic(expected = "chunk length must be positive")]
    fn zero_chunk_len_panics() {
        let _ = run_chunked(&mixed_configs(), &trace(10), Simulator::new(), 0, 1);
    }

    #[test]
    fn replayed_records_counter_advances_by_lanes_times_records() {
        let configs = mixed_configs();
        let before = records_replayed_total();
        let _ = run_configs(&configs, &trace(1_000), Simulator::new());
        let grew = records_replayed_total() - before;
        // Other tests may replay concurrently, so the counter can only
        // be bounded from below by this run's contribution.
        assert!(
            grew >= (1_000 * configs.len()) as u64,
            "counter grew by {grew}"
        );
    }

    #[test]
    fn bpred_threads_pins_the_worker_count() {
        // Serialised via the env var itself: this test owns the name.
        std::env::set_var("BPRED_THREADS", "2");
        assert_eq!(worker_count(8), 2);
        assert_eq!(worker_count(1), 1); // still capped by jobs
        std::env::set_var("BPRED_THREADS", "0");
        assert_eq!(worker_count(8), 1); // clamped to at least one
        std::env::set_var("BPRED_THREADS", "not-a-number");
        assert!(worker_count(8) >= 1); // garbage falls back (with a warning)
        std::env::set_var("BPRED_THREADS", "0x8");
        assert!(worker_count(8) >= 1); // hex is rejected, not misread as 0 or 8
        std::env::set_var("BPRED_THREADS", "");
        assert!(worker_count(8) >= 1); // empty string likewise
        std::env::remove_var("BPRED_THREADS");
        assert!(worker_count(64) >= 1);

        // Thread count never changes results.
        std::env::set_var("BPRED_THREADS", "1");
        let pinned = run_configs(&sharded_configs(), &trace(500), Simulator::new());
        std::env::remove_var("BPRED_THREADS");
        let free = run_configs(&sharded_configs(), &trace(500), Simulator::new());
        assert_eq!(pinned, free);
    }

    #[test]
    fn poisoned_results_lock_is_recovered_not_repanicked() {
        let mutex = Mutex::new(vec![0u32]);
        std::thread::scope(|scope| {
            let _ = scope
                .spawn(|| {
                    let _guard = mutex.lock().expect("first lock");
                    panic!("lane panic while holding the lock");
                })
                .join();
        });
        assert!(mutex.is_poisoned());
        lock_ignoring_poison(&mutex)[0] = 7;
        assert_eq!(mutex.into_inner().unwrap_or_else(|p| p.into_inner())[0], 7);
    }
}
