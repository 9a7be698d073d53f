//! Host-speed reference: a fixed kernel of the benchmark's own, timed
//! in slices between the measured work, so that every run can report
//! its times at one nominal host speed.
//!
//! On a shared host the speed of the same binary drifts by up to a
//! third over minutes, as other tenants' load comes and goes, and every
//! kind of CPU work drifts with it. A run's times are therefore divided
//! by its host factor: the median time of a reference round during the
//! run over [`NOMINAL_SLICE_S`]. A round runs one slice on each of as
//! many threads as the timed work keeps busy, started together, and
//! lasts until the slowest ends. The thread count matters: when the
//! host squeezes a two-core machine onto one core, work on both cores
//! takes twice as long and single-thread work does not slow at all, and
//! the reference must see what the timed work sees. The kernel is the
//! same kind of work
//! as the program's — generate a chunk of synthetic branch records,
//! then replay it through a table of 2-bit counters indexed by address
//! and global history — but it is the benchmark's code, so no change to
//! the program moves it. The raw times and the factor are stamped
//! beside the normalised ones.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::Instant;

use crate::stats::{self, median};

/// Branch records one reference slice generates and replays.
const SLICE_RECORDS: usize = 1 << 20;

/// Records per generated chunk.
const CHUNK: usize = 4096;

/// Distinct branch sites the generator draws from.
const SITES: usize = 4096;

/// Counter table entries (log2).
const TABLE_BITS: u32 = 14;

/// Nominal seconds of one slice: near its median, alone on one core, on
/// the two-core virtual machine `perfbench/README.md` describes. It only
/// fixes the scale of the normalised times.
pub const NOMINAL_SLICE_S: f64 = 0.0089;

/// Reference time sampled per second of measured work.
pub const SHARE: f64 = 0.1;

/// One reference slice; returns its mispredictions, so the work cannot
/// be optimised away.
pub fn slice() -> u64 {
    // Per site: taken threshold and local history.
    let mut sites: Vec<(u32, u16)> = (0..SITES)
        .map(|i| ((i as u32).wrapping_mul(2_654_435_761), 0))
        .collect();
    let mut table = vec![1u8; 1 << TABLE_BITS];
    let mut chunk = vec![(0u64, false); CHUNK];
    let (mut x, mut history, mut misses) = (0x9E37_79B9_7F4A_7C15u64, 0u64, 0u64);
    for _ in 0..SLICE_RECORDS / CHUNK {
        for record in chunk.iter_mut() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let site = (x >> 20) as usize % SITES;
            let (threshold, local) = sites[site];
            let taken = ((x as u32) < threshold) ^ (local & 0b101 == 0b101);
            sites[site].1 = (local << 1) | u16::from(taken);
            *record = (0x40_0000 + 4 * site as u64, taken);
        }
        for &(pc, taken) in chunk.iter() {
            let i = ((pc >> 2) ^ history) as usize & ((1 << TABLE_BITS) - 1);
            let counter = table[i];
            misses += u64::from((counter >= 2) != taken);
            table[i] = if taken {
                (counter + 1).min(3)
            } else {
                counter.saturating_sub(1)
            };
            history = (history << 1) | u64::from(taken);
        }
    }
    misses
}

/// The reference rounds timed during one run.
#[derive(Debug)]
pub struct HostSpeed {
    threads: usize,
    /// Seconds per round.
    rounds: Vec<f64>,
}

impl HostSpeed {
    /// A reference whose rounds run a slice on each of `threads`
    /// threads.
    pub fn new(threads: usize) -> HostSpeed {
        HostSpeed {
            threads: threads.max(1),
            rounds: Vec::new(),
        }
    }

    /// Times rounds for at least `seconds`, and at least three.
    pub fn sample_for(&mut self, seconds: f64) {
        let start = Instant::now();
        let barrier = Barrier::new(self.threads);
        let done = AtomicBool::new(false);
        let run = || {
            let mut times = Vec::new();
            loop {
                let t = Instant::now();
                black_box(slice());
                times.push(t.elapsed().as_secs_f64());
                // Every thread has ended the round; one decides whether
                // another follows, and all start it together.
                if barrier.wait().is_leader() {
                    let enough = times.len() >= 3 && start.elapsed().as_secs_f64() >= seconds;
                    done.store(enough, Ordering::SeqCst);
                }
                barrier.wait();
                if done.load(Ordering::SeqCst) {
                    return times;
                }
            }
        };
        let per_thread: Vec<Vec<f64>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..self.threads).map(|_| scope.spawn(run)).collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("a reference slice does not panic"))
                .collect()
        });
        for round in 0..per_thread[0].len() {
            let slowest = per_thread.iter().map(|t| t[round]).fold(0.0, f64::max);
            self.rounds.push(slowest);
        }
    }

    /// Median round time over [`NOMINAL_SLICE_S`]: above 1 on a host
    /// slower than the baseline machine. 1 before any round ran.
    pub fn factor(&self) -> f64 {
        median(&self.rounds).map_or(1.0, |m| m / NOMINAL_SLICE_S)
    }

    /// JSON stamp: threads, round count, median round and factor.
    pub fn stamp(&self) -> String {
        format!(
            "{{\"threads\":{},\"rounds\":{},\"median_round_s\":{},\"factor\":{}}}",
            self.threads,
            self.rounds.len(),
            stats::num(median(&self.rounds).unwrap_or(f64::NAN)),
            stats::num(self.factor())
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_reference_slice_is_fixed_work() {
        assert_eq!(slice(), slice());
    }

    #[test]
    fn the_factor_is_the_median_round_over_the_nominal_slice() {
        let mut host = HostSpeed::new(1);
        assert_eq!(host.factor(), 1.0);
        host.rounds = vec![NOMINAL_SLICE_S, 2.0 * NOMINAL_SLICE_S, 9.0];
        assert!((host.factor() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn every_sample_times_at_least_three_rounds() {
        let mut host = HostSpeed::new(2);
        host.sample_for(0.0);
        assert_eq!(host.rounds.len(), 3);
        assert!(host.rounds.iter().all(|&r| r > 0.0));
    }
}
