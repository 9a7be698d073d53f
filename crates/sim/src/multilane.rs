//! Multi-lane replay: many predictor configurations advance through
//! one record stream in fused lane groups.
//!
//! The scalar replay core walks a whole chunk through one lane's
//! serial predict/update chain at a time, so throughput is bounded by
//! the latency of that chain and every lane re-decodes the chunk.
//! [`LaneSet`] instead decodes each chunk once into shared columns and
//! regroups the lanes:
//!
//! * **Record-parallel statics** — always-taken, always-not-taken and
//!   BTFN have no state, so whole chunks collapse into popcounts over
//!   the [`TraceChunk`] metadata words (sixteen records per `u64` op)
//!   and one branchless pass over the pc/target columns.
//! * **Fused lane groups** — every other configuration reduces to a
//!   [`WalkPlan`] (a first-level history read, one to three counter
//!   reads over a shared arena, and a combine/update rule). Lanes of
//!   the same [`PlanKind`] share a group of up to 32 lanes, and each
//!   group runs one monomorphic lane-major loop over the chunk's dense
//!   `(pc, taken)` conditional column, with every lane parameter,
//!   history register and accumulator held in locals. Each lane owns
//!   power-of-two regions of the group's arena, placed in descending
//!   size order, and lanes are iterated in that same order, so
//!   consecutive lanes walk adjacent regions. A group whose arena
//!   outgrows [`PREFETCH_SPILL_BYTES`] runs the single-read loop in a
//!   blocked form that touches the upcoming arena slots before the
//!   counter read-modify-write consumes them.
//! * **Scalar lanes** — under `BPRED_FORCE_SCALAR` every lane replays
//!   through the hoisted [`ReplayCore`] dispatch instead. The scalar
//!   kernels are the oracle: fused results are bit-identical by
//!   construction and by test (`tests/multilane.rs` at the workspace
//!   root runs under both settings in CI).
//!
//! # Environment knobs
//!
//! * `BPRED_FORCE_SCALAR` — any value other than empty/`0` pins every
//!   lane to the scalar tier. It changes the code path, never the
//!   results.

use std::cmp::Reverse;
use std::collections::HashMap;

use bpred_core::{
    cell, reset_pattern, AliasStats, BhtStats, HistoryTable, IndexFn, Level1Read, PlanKind,
    PredictorConfig, PredictorKernel, SetAssocBht, TableRead, TwoBitCounter, WalkPlan,
    SKEW_BANK_MULTIPLIERS,
};
use bpred_trace::{Outcome, TraceChunk};

use crate::{ReplayCore, SimResult, Simulator};

/// Mask of the low bit of every 4-bit metadata field in a chunk
/// metadata word.
const NIBBLE_LO: u64 = 0x1111_1111_1111_1111;

/// Records per block of the prefetching form of the single-read loop:
/// long enough to cover the load latency the touch pass hides, short
/// enough that the touched lines are still resident when the
/// read-modify-write pass consumes them.
const PREFETCH_WINDOW: usize = 16;

/// Most lanes one group holds; larger same-kind sets split into
/// several groups.
const GROUP_LANES: usize = 32;

/// The empty-entry tag of a YAGS direction-cache cell, matching the
/// scalar cache's `u16::MAX` sentinel (partial tags are at most 8
/// bits, so the sentinel is unreachable).
const YAGS_EMPTY_TAG: u64 = u16::MAX as u64;

/// Arena footprint (bytes) above which a single-read group runs its
/// prefetching loop: the point where the arena has outgrown a typical
/// L2 and the gather starts missing. Prefetch costs ~4% while arenas
/// stay cache-resident and gains ~26% once they spill
/// (EXPERIMENTS.md, "Spill-scale sweeps").
pub const PREFETCH_SPILL_BYTES: u64 = 4 << 20;

/// `bits` low ones for any width `0..=64` (gskew history registers may
/// be up to 64 bits wide).
#[inline]
fn wide_low_mask(bits: u32) -> u64 {
    match bits {
        0 => 0,
        64 => u64::MAX,
        b => (1u64 << b) - 1,
    }
}

/// The value a lane's history register equals exactly when its
/// pattern is all-taken, or the `u64::MAX` sentinel when the register
/// is absent/zero-width (the register then never leaves zero, which
/// cannot reach the sentinel; a genuine 64-bit all-ones history *is*
/// the sentinel value, consistently).
#[inline]
fn all_taken_reference(history_bits: u32) -> u64 {
    if history_bits > 0 {
        wide_low_mask(history_bits)
    } else {
        u64::MAX
    }
}

/// Whether `BPRED_FORCE_SCALAR` pins every lane to the scalar tier.
fn force_scalar() -> bool {
    matches!(std::env::var("BPRED_FORCE_SCALAR"), Ok(v) if !v.is_empty() && v != "0")
}

/// The dispatch tier the next [`LaneSet`] will use for groupable
/// configurations: `"scalar"` under `BPRED_FORCE_SCALAR`, `"fused"`
/// otherwise. Exported (with this label) as the
/// `bpred_replay_pairs_per_sec` gauge's `tier` by `bpred-serve`.
pub fn dispatch_tier() -> &'static str {
    if force_scalar() {
        "scalar"
    } else {
        "fused"
    }
}

/// Stable labels of every dispatch tier / plan family a lane can land
/// on, in [`LaneSet::lane_tier_counts`] order. Exported as the
/// `plan` label values of the `bpred_replay_group_lanes` gauge.
pub const LANE_TIER_LABELS: [&str; 13] = [
    "direct",
    "pas-perfect",
    "pas-finite",
    "per-set",
    "agree",
    "bimode",
    "gskew",
    "tournament",
    "yags",
    "path",
    "last-time",
    "static",
    "scalar",
];

/// Index of the census slot for the static tier.
const STATIC_TIER: usize = 11;
/// Index of the census slot for the scalar tier.
const SCALAR_TIER: usize = 12;

/// The [`LANE_TIER_LABELS`] slot of a plan kind. Groups are also built
/// in this order.
fn tier_of(kind: PlanKind) -> usize {
    match kind {
        PlanKind::Direct => 0,
        PlanKind::PerAddressPerfect => 1,
        PlanKind::PerAddressFinite => 2,
        PlanKind::PerSet => 3,
        PlanKind::AgreeBias => 4,
        PlanKind::BiModeChoice => 5,
        PlanKind::SkewedMajority => 6,
        PlanKind::TournamentChooser => 7,
        PlanKind::TaggedChoice => 8,
        PlanKind::PathHistory => 9,
        PlanKind::LastOutcome => 10,
    }
}

/// Conditional/taken-conditional counts of a chunk, sixteen records
/// per word op: a record is conditional when its three kind bits are
/// zero, and the taken bit sits below them.
fn conditional_counts(chunk: &TraceChunk) -> (u64, u64) {
    let len = chunk.len();
    let words = chunk.meta_words();
    let tail = len % TraceChunk::META_RECORDS_PER_WORD;
    let mut conditionals = 0u64;
    let mut taken = 0u64;
    for (i, &word) in words.iter().enumerate() {
        // Zeroed high fields of the final word would read as
        // conditional-not-taken; mask them off.
        let valid = if i + 1 == words.len() && tail != 0 {
            (1u64 << (4 * tail)) - 1
        } else {
            !0
        };
        let word = word & valid;
        let kind = (word >> 1) | (word >> 2) | (word >> 3);
        let cond = !kind & NIBBLE_LO & valid;
        conditionals += cond.count_ones() as u64;
        taken += (cond & word).count_ones() as u64;
    }
    (conditionals, taken)
}

/// Extracts a chunk's dense conditional stream into the reused
/// scratch column: element `i` is `(pc << 1) | taken` of the i-th
/// conditional (addresses fit 62 bits, see [`cell::EMPTY_OWNER`]).
/// Decoded once per chunk and shared by every lane group, so the
/// group kernels stream a single dense column with no metadata
/// re-decoding and no branch on record kind.
fn collect_conditionals(chunk: &TraceChunk, stream_out: &mut Vec<u64>) {
    stream_out.clear();
    let mut meta = chunk.meta_words().iter();
    let mut word_bits = 0u64;
    let mut in_word = 0u32;
    for &pc in chunk.pcs() {
        if in_word == 0 {
            word_bits = meta.next().copied().unwrap_or(0);
            in_word = TraceChunk::META_RECORDS_PER_WORD as u32;
        }
        let bits = word_bits & 0xF;
        word_bits >>= TraceChunk::META_BITS_PER_RECORD;
        in_word -= 1;
        if bits & 0b1110 == 0 {
            stream_out.push((pc << 1) | (bits & 1));
        }
    }
}

/// The three stateless schemes the record-parallel tier covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StaticScheme {
    AlwaysTaken,
    AlwaysNotTaken,
    Btfn,
}

/// One record-parallel static lane.
#[derive(Debug)]
struct StaticUnit {
    /// Result slot in the caller's configuration order.
    index: usize,
    scheme: StaticScheme,
    mispredictions: u64,
}

impl StaticUnit {
    /// Scores a whole chunk. `conditionals`/`taken` are the chunk's
    /// shared counts; the bulk word paths apply once the warmup prefix
    /// is consumed, with a per-record fallback for the (rare) chunk
    /// that crosses the warmup boundary.
    fn replay_chunk(
        &mut self,
        chunk: &TraceChunk,
        seen: u64,
        warmup: u64,
        conditionals: u64,
        taken: u64,
    ) {
        if seen >= warmup {
            self.mispredictions += match self.scheme {
                StaticScheme::AlwaysTaken => conditionals - taken,
                StaticScheme::AlwaysNotTaken => taken,
                StaticScheme::Btfn => btfn_wrong(chunk),
            };
        } else {
            self.replay_chunk_scalar(chunk, seen, warmup);
        }
    }

    /// Per-record path for chunks that straddle the warmup boundary.
    fn replay_chunk_scalar(&mut self, chunk: &TraceChunk, mut seen: u64, warmup: u64) {
        for record in chunk.iter() {
            if !record.is_conditional() {
                continue;
            }
            let scored = seen >= warmup;
            seen += 1;
            if !scored {
                continue;
            }
            let predicted = match self.scheme {
                StaticScheme::AlwaysTaken => Outcome::Taken,
                StaticScheme::AlwaysNotTaken => Outcome::NotTaken,
                StaticScheme::Btfn => Outcome::from(record.target < record.pc),
            };
            self.mispredictions += (predicted != record.outcome) as u64;
        }
    }

    fn finish(self, scored: u64) -> SimResult {
        SimResult {
            predictor: match self.scheme {
                StaticScheme::AlwaysTaken => "always-taken".to_owned(),
                StaticScheme::AlwaysNotTaken => "always-not-taken".to_owned(),
                StaticScheme::Btfn => "btfn".to_owned(),
            },
            state_bits: 0,
            conditionals: scored,
            mispredictions: self.mispredictions,
            alias: None,
            bht: None,
        }
    }
}

/// BTFN mispredictions over a whole chunk: one branchless pass over
/// the pc/target columns with the conditional/outcome flags decoded
/// straight from the metadata nibbles.
fn btfn_wrong(chunk: &TraceChunk) -> u64 {
    let pcs = chunk.pcs();
    let targets = chunk.targets();
    let words = chunk.meta_words();
    let mut wrong = 0u64;
    for i in 0..pcs.len() {
        let bits = (words[i / TraceChunk::META_RECORDS_PER_WORD]
            >> (TraceChunk::META_BITS_PER_RECORD * (i % TraceChunk::META_RECORDS_PER_WORD)))
            & 0xF;
        let conditional = (bits & 0b1110 == 0) as u64;
        let predicted_taken = (targets[i] < pcs[i]) as u64;
        wrong += conditional & (predicted_taken ^ (bits & 1));
    }
    wrong
}

/// One groupable lane: its result slot, the display name and *static*
/// state cost captured from the kernel at build time (dynamic
/// per-branch state — perfect-BHT histories, agree bias bits — is
/// added at finish from the shared distinct-pc count), and its
/// [`WalkPlan`].
struct PlanSpec {
    index: usize,
    name: String,
    state_bits: u64,
    plan: WalkPlan,
}

/// Places power-of-two regions into one arena: regions are assigned
/// bases in descending size order (ties by original position), so each
/// base is aligned to its own region's size and `base | idx` is exact
/// addition. Returns the bases in original order plus the
/// (power-of-two) arena length.
fn place_regions(sizes: &[u64]) -> (Vec<u64>, usize) {
    let mut order: Vec<usize> = (0..sizes.len()).collect();
    order.sort_by(|&a, &b| sizes[b].cmp(&sizes[a]).then(a.cmp(&b)));
    let mut bases = vec![0u64; sizes.len()];
    let mut next = 0u64;
    for i in order {
        bases[i] = next;
        next += sizes[i];
    }
    (bases, next.next_power_of_two().max(1) as usize)
}

/// The first-level row source of a two-level group — the part of a
/// per-address/per-set plan that differs between PAs(inf), finite PAs
/// and SAs while the counter step stays shared.
///
/// The protocol per conditional record mirrors the scalar
/// [`RowSelector`](bpred_core::RowSelector): one
/// [`row`](RowSource::row) before the counter read-modify-write, one
/// [`advance`](RowSource::advance) after it.
trait RowSource {
    /// Whether [`row`](RowSource::row)/[`advance`](RowSource::advance)
    /// consume the dense per-record branch ids the [`LaneSet`]
    /// pre-pass assigns (first-appearance order over the conditional
    /// stream).
    const NEEDS_IDS: bool;

    /// The history pattern selecting this record's row.
    fn row(&mut self, lane: usize, pc: u64, id: u32) -> u64;

    /// Shifts the outcome into the first level after the counter step.
    fn advance(&mut self, lane: usize, pc: u64, id: u32, row: u64, taken: u64);
}

/// Unbounded per-address histories ([`bpred_core::PerfectBht`]):
/// id-indexed dense vectors instead of hash lookups, grown lazily in
/// first-appearance order — ids are assigned sequentially, so a new id
/// always equals the vector's length, exactly when the scalar table
/// would insert the reset pattern.
#[derive(Debug)]
struct PerfectRows {
    widths: Vec<u32>,
    masks: Vec<u64>,
    hists: Vec<Vec<u64>>,
}

impl PerfectRows {
    fn new(specs: &[PlanSpec]) -> Self {
        let widths: Vec<u32> = specs.iter().map(|s| s.plan.history_bits).collect();
        PerfectRows {
            masks: widths.iter().map(|&w| wide_low_mask(w)).collect(),
            hists: specs.iter().map(|_| Vec::new()).collect(),
            widths,
        }
    }
}

impl RowSource for PerfectRows {
    const NEEDS_IDS: bool = true;

    #[inline]
    fn row(&mut self, lane: usize, _pc: u64, id: u32) -> u64 {
        let v = &mut self.hists[lane];
        if id as usize == v.len() {
            v.push(reset_pattern(self.widths[lane]));
        }
        v[id as usize]
    }

    #[inline]
    fn advance(&mut self, lane: usize, _pc: u64, id: u32, row: u64, taken: u64) {
        // Width-0 masks to zero, matching the scalar no-op record.
        self.hists[lane][id as usize] = ((row << 1) | taken) & self.masks[lane];
    }
}

/// Finite tagged per-address histories: each lane embeds the real
/// [`SetAssocBht`] and drives it through the same lookup/record calls
/// the scalar selector makes, so LRU clocks, evictions and miss
/// statistics are exact by construction.
#[derive(Debug)]
struct FiniteRows {
    bhts: Vec<SetAssocBht>,
}

impl FiniteRows {
    fn new(specs: &[PlanSpec]) -> Self {
        FiniteRows {
            bhts: specs
                .iter()
                .map(|s| match s.plan.level1 {
                    Level1Read::SetAssocBht { entries, ways } => {
                        SetAssocBht::new(entries, ways, s.plan.history_bits)
                    }
                    ref other => unreachable!("finite rows from {other:?}"),
                })
                .collect(),
        }
    }
}

impl RowSource for FiniteRows {
    const NEEDS_IDS: bool = false;

    #[inline]
    fn row(&mut self, lane: usize, pc: u64, _id: u32) -> u64 {
        self.bhts[lane].lookup(pc)
    }

    #[inline]
    fn advance(&mut self, lane: usize, pc: u64, _id: u32, _row: u64, taken: u64) {
        self.bhts[lane].record(pc, Outcome::from_bit(taken));
    }
}

/// Per-set histories ([`bpred_core::SetSelector`]): a flat register
/// file per lane indexed by low word-address bits. Registers start at
/// zero (not the reset pattern — set registers are never "missing").
#[derive(Debug)]
struct SetRows {
    set_masks: Vec<u64>,
    width_masks: Vec<u64>,
    sets: Vec<Vec<u64>>,
}

impl SetRows {
    fn new(specs: &[PlanSpec]) -> Self {
        let mut rows = SetRows {
            set_masks: Vec::with_capacity(specs.len()),
            width_masks: Vec::with_capacity(specs.len()),
            sets: Vec::with_capacity(specs.len()),
        };
        for spec in specs {
            let set_bits = match spec.plan.level1 {
                Level1Read::SetHistories { set_bits } => set_bits,
                ref other => unreachable!("set rows from {other:?}"),
            };
            rows.set_masks.push(wide_low_mask(set_bits));
            rows.width_masks.push(wide_low_mask(spec.plan.history_bits));
            rows.sets.push(vec![0u64; 1usize << set_bits]);
        }
        rows
    }
}

impl RowSource for SetRows {
    const NEEDS_IDS: bool = false;

    #[inline]
    fn row(&mut self, lane: usize, pc: u64, _id: u32) -> u64 {
        self.sets[lane][((pc >> 2) & self.set_masks[lane]) as usize]
    }

    #[inline]
    fn advance(&mut self, lane: usize, pc: u64, _id: u32, row: u64, taken: u64) {
        let set = ((pc >> 2) & self.set_masks[lane]) as usize;
        self.sets[lane][set] = ((row << 1) | taken) & self.width_masks[lane];
    }
}

/// The state every group keeps per lane, whatever its kind, one
/// array per field indexed by lane. (Separate accumulator arrays keep
/// the compiler from packing a kernel's register accumulators into
/// one vector, which measured ~40% slower on tournament and YAGS.)
#[derive(Debug)]
struct LaneHeaders {
    /// Result slot in the caller's configuration order.
    index: Vec<usize>,
    name: Vec<String>,
    state_bits: Vec<u64>,
    conflicts: Vec<u64>,
    harmless: Vec<u64>,
    mispredictions: Vec<u64>,
}

impl LaneHeaders {
    fn len(&self) -> usize {
        self.index.len()
    }

    /// Adds one chunk's accumulators to lane `lane`.
    #[inline]
    fn add(&mut self, lane: usize, conflicts: u64, harmless: u64, mispredictions: u64) {
        self.conflicts[lane] += conflicts;
        self.harmless[lane] += harmless;
        self.mispredictions[lane] += mispredictions;
    }
}

/// A lane's global history register.
#[derive(Debug, Clone, Copy)]
struct History {
    value: u64,
    mask: u64,
    /// What `value` equals exactly when the pattern is all-taken (see
    /// [`all_taken_reference`]).
    all_taken: u64,
}

impl History {
    fn new(bits: u32) -> Self {
        History {
            value: 0,
            mask: wide_low_mask(bits),
            all_taken: all_taken_reference(bits),
        }
    }
}

/// One unified-index counter read placed in the arena:
/// `base | ((row & row_mask) << col_shift) | (word & col_mask)`.
#[derive(Debug, Clone, Copy)]
struct UnifiedRead {
    base: u64,
    row_mask: u64,
    col_shift: u64,
    col_mask: u64,
}

impl UnifiedRead {
    fn new(read: TableRead, base: u64) -> Self {
        UnifiedRead {
            base,
            row_mask: wide_low_mask(read.row_bits),
            col_shift: u64::from(read.col_bits),
            col_mask: wide_low_mask(read.col_bits),
        }
    }
}

/// [`PlanKind::Direct`] lane: address-indexed, GAg/GAs or gshare.
#[derive(Debug)]
struct DirectLane {
    hist: History,
    read: UnifiedRead,
    /// gshare XORs row-address bits into the history row.
    xor_mask: u64,
}

/// A two-level lane: the unified counter read, selected by a
/// [`RowSource`] pattern.
#[derive(Debug)]
struct TwoLevel<R> {
    reads: Vec<UnifiedRead>,
    /// Per lane, the row pattern that counts as all-taken.
    all_taken: Vec<u64>,
    rows: R,
}

/// [`PlanKind::AgreeBias`] lane.
#[derive(Debug)]
struct AgreeLane {
    hist: History,
    row_mask: u64,
    base: u64,
}

/// [`PlanKind::BiModeChoice`] lane.
#[derive(Debug)]
struct BiModeLane {
    hist: History,
    dir_mask: u64,
    choice_mask: u64,
    taken_base: u64,
    not_taken_base: u64,
    choice_base: u64,
}

/// [`PlanKind::SkewedMajority`] lane.
#[derive(Debug)]
struct GskewLane {
    hist: History,
    /// `64 - bank_bits`, the hash down-shift (the parser guarantees
    /// `bank_bits >= 1`).
    shift: u64,
    bases: [u64; 3],
}

/// [`PlanKind::TournamentChooser`] lane.
#[derive(Debug)]
struct TournamentLane {
    hist: History,
    addr_mask: u64,
    gshare_mask: u64,
    chooser_mask: u64,
    addr_base: u64,
    gshare_base: u64,
    chooser_base: u64,
}

/// [`PlanKind::TaggedChoice`] (YAGS) lane.
#[derive(Debug)]
struct YagsLane {
    hist: History,
    choice_mask: u64,
    cache_mask: u64,
    tag_mask: u64,
    choice_base: u64,
    taken_base: u64,
    not_taken_base: u64,
}

/// [`PlanKind::PathHistory`] lane.
#[derive(Debug)]
struct PathLane {
    read: UnifiedRead,
    /// The path register, kept masked to its width.
    reg: u64,
    reg_mask: u64,
    /// Bits contributed per control transfer (the `q` parameter).
    bpt: u64,
    bpt_mask: u64,
}

/// [`PlanKind::LastOutcome`] lane.
#[derive(Debug)]
struct LastLane {
    addr_mask: u64,
    /// Last-outcome table, one byte per entry (0 = not-taken, the
    /// initial state, 1 = taken).
    table: Vec<u8>,
}

/// The per-kind half of a [`Group`]: lane parameters and the fused
/// loop they select.
#[derive(Debug)]
enum Kernel {
    /// Single unified read off global (or no) history. `prefetch`
    /// selects the blocked loop for spilled arenas.
    Direct {
        lanes: Vec<DirectLane>,
        prefetch: bool,
    },
    PerAddressPerfect(TwoLevel<PerfectRows>),
    PerAddressFinite(TwoLevel<FiniteRows>),
    PerSet(TwoLevel<SetRows>),
    Agree(Vec<AgreeLane>),
    BiMode(Vec<BiModeLane>),
    Gskew(Vec<GskewLane>),
    Tournament(Vec<TournamentLane>),
    Yags(Vec<YagsLane>),
    Path(Vec<PathLane>),
    LastTime(Vec<LastLane>),
}

/// One chunk's shared columns, decoded once by the [`LaneSet`]
/// pre-pass and read by every group.
struct Columns<'a> {
    /// Dense conditional stream, `(pc << 1) | taken`.
    stream: &'a [u64],
    /// Dense branch id per conditional (perfect-BHT and agree groups).
    ids: &'a [u32],
    /// Pre-latch (bit 0) / post-latch (bit 1) agree bias per
    /// conditional.
    bias_bits: &'a [u8],
    /// One element per record for path groups,
    /// `(dest_word << 1) | is_conditional`.
    events: &'a [u64],
    /// Conditionals fed before this chunk.
    seen: u64,
    warmup: u64,
}

/// A fused lane group: up to [`GROUP_LANES`] lanes of one
/// [`PlanKind`], their shared counter arena, and the kernel that
/// steps them.
#[derive(Debug)]
struct Group {
    /// The [`LANE_TIER_LABELS`] slot of the group's kind.
    tier: usize,
    lanes: LaneHeaders,
    /// Every lane's packed counter cells (empty for last-time lanes,
    /// whose tables are byte-per-entry).
    arena: Vec<u64>,
    kernel: Kernel,
}

impl Group {
    /// Builds a group from same-kind specs, already in row-blocked
    /// order.
    fn new(specs: &[PlanSpec]) -> Self {
        debug_assert!(!specs.is_empty() && specs.len() <= GROUP_LANES);
        let kind = specs[0].plan.kind();
        let lanes = LaneHeaders {
            index: specs.iter().map(|s| s.index).collect(),
            name: specs.iter().map(|s| s.name.clone()).collect(),
            state_bits: specs.iter().map(|s| s.state_bits).collect(),
            conflicts: vec![0; specs.len()],
            harmless: vec![0; specs.len()],
            mispredictions: vec![0; specs.len()],
        };
        // Every read of every lane gets its own arena region;
        // `bases[reads * lane + r]` is lane `lane`'s read `r`.
        let reads = specs[0].plan.reads.len();
        let (bases, mut arena) = if kind == PlanKind::LastOutcome {
            (Vec::new(), Vec::new())
        } else {
            let sizes: Vec<u64> = specs
                .iter()
                .flat_map(|s| s.plan.reads.iter().map(TableRead::cells))
                .collect();
            let (bases, len) = place_regions(&sizes);
            let fresh = cell::fresh(TwoBitCounter::default().state().bits());
            (bases, vec![fresh; len])
        };
        let base = |lane: usize, read: usize| bases[reads * lane + read];
        let two_level = |specs: &[PlanSpec]| -> (Vec<UnifiedRead>, Vec<u64>) {
            specs
                .iter()
                .enumerate()
                .map(|(lane, s)| {
                    (
                        UnifiedRead::new(s.plan.reads[0], base(lane, 0)),
                        all_taken_reference(s.plan.history_bits),
                    )
                })
                .unzip()
        };
        let lane_specs = specs.iter().enumerate();
        let kernel = match kind {
            PlanKind::Direct => Kernel::Direct {
                lanes: lane_specs
                    .map(|(lane, s)| {
                        let read = s.plan.reads[0];
                        let xor = matches!(read.index, IndexFn::Unified { xor: true });
                        DirectLane {
                            hist: History::new(s.plan.history_bits),
                            read: UnifiedRead::new(read, base(lane, 0)),
                            xor_mask: if xor { wide_low_mask(read.row_bits) } else { 0 },
                        }
                    })
                    .collect(),
                // 8 bytes per packed cell.
                prefetch: 8 * arena.len() as u64 > PREFETCH_SPILL_BYTES,
            },
            PlanKind::PerAddressPerfect => {
                let (reads, all_taken) = two_level(specs);
                Kernel::PerAddressPerfect(TwoLevel {
                    reads,
                    all_taken,
                    rows: PerfectRows::new(specs),
                })
            }
            PlanKind::PerAddressFinite => {
                let (reads, all_taken) = two_level(specs);
                Kernel::PerAddressFinite(TwoLevel {
                    reads,
                    all_taken,
                    rows: FiniteRows::new(specs),
                })
            }
            PlanKind::PerSet => {
                let (reads, all_taken) = two_level(specs);
                Kernel::PerSet(TwoLevel {
                    reads,
                    all_taken,
                    rows: SetRows::new(specs),
                })
            }
            PlanKind::AgreeBias => Kernel::Agree(
                lane_specs
                    .map(|(lane, s)| AgreeLane {
                        hist: History::new(s.plan.history_bits),
                        row_mask: wide_low_mask(s.plan.reads[0].row_bits),
                        base: base(lane, 0),
                    })
                    .collect(),
            ),
            // Reads: taken, not-taken, choice.
            PlanKind::BiModeChoice => Kernel::BiMode(
                lane_specs
                    .map(|(lane, s)| BiModeLane {
                        hist: History::new(s.plan.history_bits),
                        dir_mask: wide_low_mask(s.plan.reads[0].row_bits),
                        choice_mask: wide_low_mask(s.plan.reads[2].col_bits),
                        taken_base: base(lane, 0),
                        not_taken_base: base(lane, 1),
                        choice_base: base(lane, 2),
                    })
                    .collect(),
            ),
            PlanKind::SkewedMajority => Kernel::Gskew(
                lane_specs
                    .map(|(lane, s)| GskewLane {
                        hist: History::new(s.plan.history_bits),
                        shift: u64::from(64 - s.plan.reads[0].row_bits),
                        bases: std::array::from_fn(|bank| base(lane, bank)),
                    })
                    .collect(),
            ),
            // Reads: address-indexed, gshare, chooser.
            PlanKind::TournamentChooser => Kernel::Tournament(
                lane_specs
                    .map(|(lane, s)| {
                        let chooser_base = base(lane, 2);
                        // The scalar chooser starts weakly-not-taken
                        // ("trust the first component"), unlike the
                        // arena's weakly-taken default.
                        let chooser_cells = s.plan.reads[2].cells();
                        arena[chooser_base as usize..(chooser_base + chooser_cells) as usize]
                            .fill(cell::fresh(1));
                        TournamentLane {
                            hist: History::new(s.plan.history_bits),
                            addr_mask: wide_low_mask(s.plan.reads[0].col_bits),
                            gshare_mask: wide_low_mask(s.plan.reads[1].row_bits),
                            chooser_mask: wide_low_mask(s.plan.reads[2].col_bits),
                            addr_base: base(lane, 0),
                            gshare_base: base(lane, 1),
                            chooser_base,
                        }
                    })
                    .collect(),
            ),
            // Reads: choice, taken-cache, not-taken-cache.
            PlanKind::TaggedChoice => Kernel::Yags(
                lane_specs
                    .map(|(lane, s)| {
                        let (taken_base, not_taken_base) = (base(lane, 1), base(lane, 2));
                        // Empty cache entries: sentinel tag, weakly-taken
                        // counter in the taken cache / weakly-not-taken
                        // in the not-taken cache (the scalar caches'
                        // initial counters — never observable before an
                        // allocation overwrites them, kept identical
                        // anyway).
                        let cache_cells = s.plan.reads[1].cells();
                        let region = |base: u64| base as usize..(base + cache_cells) as usize;
                        arena[region(taken_base)].fill((YAGS_EMPTY_TAG << 2) | 2);
                        arena[region(not_taken_base)].fill((YAGS_EMPTY_TAG << 2) | 1);
                        YagsLane {
                            hist: History::new(s.plan.history_bits),
                            choice_mask: wide_low_mask(s.plan.reads[0].col_bits),
                            cache_mask: wide_low_mask(s.plan.reads[1].row_bits),
                            tag_mask: wide_low_mask(s.plan.reads[1].tag_bits),
                            choice_base: base(lane, 0),
                            taken_base,
                            not_taken_base,
                        }
                    })
                    .collect(),
            ),
            PlanKind::PathHistory => Kernel::Path(
                lane_specs
                    .map(|(lane, s)| {
                        let bits_per_target = match s.plan.level1 {
                            Level1Read::PathHistory { bits_per_target } => bits_per_target,
                            ref other => unreachable!("path group from {other:?}"),
                        };
                        PathLane {
                            read: UnifiedRead::new(s.plan.reads[0], base(lane, 0)),
                            reg: 0,
                            // A zero-width register is inert: the mask
                            // pins it to zero, matching the scalar
                            // push's width-0 no-op.
                            reg_mask: wide_low_mask(s.plan.history_bits),
                            bpt: u64::from(bits_per_target),
                            bpt_mask: wide_low_mask(bits_per_target),
                        }
                    })
                    .collect(),
            ),
            PlanKind::LastOutcome => Kernel::LastTime(
                specs
                    .iter()
                    .map(|s| {
                        let read = s.plan.reads[0];
                        LastLane {
                            addr_mask: wide_low_mask(read.col_bits),
                            table: vec![0u8; read.cells() as usize],
                        }
                    })
                    .collect(),
            ),
        };
        Group {
            tier: tier_of(kind),
            lanes,
            arena,
            kernel,
        }
    }

    /// Whether the group reads [`Columns::ids`].
    fn needs_ids(&self) -> bool {
        matches!(self.kernel, Kernel::PerAddressPerfect(_) | Kernel::Agree(_))
    }

    /// Feeds one chunk's columns through every lane of the group.
    fn replay(&mut self, cols: &Columns) {
        let Group {
            lanes,
            arena,
            kernel,
            ..
        } = self;
        match kernel {
            Kernel::Direct {
                lanes: params,
                prefetch: false,
            } => replay_direct(lanes, params, arena, cols),
            Kernel::Direct {
                lanes: params,
                prefetch: true,
            } => replay_direct_prefetch(lanes, params, arena, cols),
            Kernel::PerAddressPerfect(g) => replay_two_level(lanes, g, arena, cols),
            Kernel::PerAddressFinite(g) => replay_two_level(lanes, g, arena, cols),
            Kernel::PerSet(g) => replay_two_level(lanes, g, arena, cols),
            Kernel::Agree(params) => replay_agree(lanes, params, arena, cols),
            Kernel::BiMode(params) => replay_bimode(lanes, params, arena, cols),
            Kernel::Gskew(params) => replay_gskew(lanes, params, arena, cols),
            Kernel::Tournament(params) => replay_tournament(lanes, params, arena, cols),
            Kernel::Yags(params) => replay_yags(lanes, params, arena, cols),
            Kernel::Path(params) => replay_path(lanes, params, arena, cols),
            Kernel::LastTime(params) => replay_last_time(lanes, params, cols),
        }
    }

    /// Drains the group into per-lane results. `seen` is the shared
    /// access count (every conditional fed), `scored` the shared
    /// post-warmup count, `distinct` the shared distinct-pc count.
    fn finish(self, seen: u64, scored: u64, distinct: u64, results: &mut [Option<SimResult>]) {
        let Group { lanes, kernel, .. } = self;
        // Table accesses per conditional, as the scalar kernels count
        // them: gskew touches three banks and tournament both
        // components; choice and chooser tables are peeked, never
        // accessed; last-time keeps no alias statistics.
        let accesses = match kernel {
            Kernel::Gskew(_) => Some(3 * seen),
            Kernel::Tournament(_) => Some(2 * seen),
            Kernel::LastTime(_) => None,
            _ => Some(seen),
        };
        let names = lanes.name.into_iter();
        for (lane, (&index, predictor)) in lanes.index.iter().zip(names).enumerate() {
            let (dynamic_bits, bht) = match &kernel {
                Kernel::PerAddressPerfect(g) => (
                    distinct * u64::from(g.rows.widths[lane]),
                    Some(BhtStats {
                        accesses: seen,
                        misses: 0,
                    }),
                ),
                Kernel::PerAddressFinite(g) => (0, Some(g.rows.bhts[lane].stats())),
                // One BTB-resident bias bit per distinct branch.
                Kernel::Agree(_) => (distinct, None),
                _ => (0, None),
            };
            results[index] = Some(SimResult {
                predictor,
                state_bits: lanes.state_bits[lane] + dynamic_bits,
                conditionals: scored,
                mispredictions: lanes.mispredictions[lane],
                alias: accesses.map(|accesses| AliasStats {
                    accesses,
                    conflicts: lanes.conflicts[lane],
                    harmless_conflicts: lanes.harmless[lane],
                }),
                bht,
            });
        }
    }
}

/// [`PlanKind::Direct`]: lane-major over the conditional stream with
/// every lane parameter, the history register, and all three
/// accumulators held in locals, so the inner loop touches memory only
/// for the (shared, cache-hot) conditional column and the lane's own
/// arena region. The cell step is fused and branch-free, semantically
/// [`cell::step`].
fn replay_direct(
    lanes: &mut LaneHeaders,
    params: &mut [DirectLane],
    arena: &mut [u64],
    cols: &Columns,
) {
    let (stream, seen, warmup) = (cols.stream, cols.seen, cols.warmup);
    // Masking by `len - 1` (a power of two) also elides the bounds
    // check.
    let mask = arena.len() - 1;
    for (lane, p) in params.iter_mut().enumerate() {
        let UnifiedRead {
            base,
            row_mask,
            col_shift,
            col_mask,
        } = p.read;
        let xor_mask = p.xor_mask;
        let (hist_mask, all_taken_ref) = (p.hist.mask, p.hist.all_taken);
        let mut hist = p.hist.value;
        let (mut conflicts, mut harmless, mut wrong) = (0u64, 0u64, 0u64);
        for (i, &packed) in stream.iter().enumerate() {
            let scored = (seen + i as u64 >= warmup) as u64;
            let taken = packed & 1;
            let word = packed >> 3;
            let tag = (packed >> 1) & cell::EMPTY_OWNER;
            let row = (hist ^ ((word >> col_shift) & xor_mask)) & row_mask;
            let idx = (row << col_shift) | (word & col_mask);
            let slot = ((base | idx) as usize) & mask;
            let cell_word = arena[slot];
            let owner = cell_word >> 2;
            let bits = cell_word & 0b11;
            let conflict = ((owner != cell::EMPTY_OWNER) & (owner != tag)) as u64;
            conflicts += conflict;
            harmless += conflict & ((hist == all_taken_ref) as u64);
            wrong += scored & ((bits >= 2) as u64 ^ taken);
            hist = ((hist << 1) | taken) & hist_mask;
            // Saturating two-bit step: +1 below strong taken when
            // taken, -1 above strong not-taken otherwise.
            let inc = ((bits < 3) as u64) & taken;
            let dec = ((bits > 0) as u64) & (1 - taken);
            arena[slot] = (tag << 2) | (bits + inc - dec);
        }
        p.hist.value = hist;
        lanes.add(lane, conflicts, harmless, wrong);
    }
}

/// [`replay_direct`] in blocked two-phase form, for arenas past
/// [`PREFETCH_SPILL_BYTES`]: per window of [`PREFETCH_WINDOW`]
/// records, an address-generation pass runs the (arena-independent)
/// index and history recurrence, touches each upcoming arena slot —
/// the gather is the loop's one data-dependent load — and parks
/// `(slot << 1) | all_taken` in scratch; the second pass then performs
/// the identical counter read-modify-write and scoring. Bit-identical
/// to [`replay_direct`] (the touch reads are value-discarded, and the
/// read-modify-write pass is sequential).
fn replay_direct_prefetch(
    lanes: &mut LaneHeaders,
    params: &mut [DirectLane],
    arena: &mut [u64],
    cols: &Columns,
) {
    let (stream, seen, warmup) = (cols.stream, cols.seen, cols.warmup);
    let mask = arena.len() - 1;
    for (lane, p) in params.iter_mut().enumerate() {
        let UnifiedRead {
            base,
            row_mask,
            col_shift,
            col_mask,
        } = p.read;
        let xor_mask = p.xor_mask;
        let (hist_mask, all_taken_ref) = (p.hist.mask, p.hist.all_taken);
        let mut hist = p.hist.value;
        let (mut conflicts, mut harmless, mut wrong) = (0u64, 0u64, 0u64);
        let mut scratch = [0u64; PREFETCH_WINDOW];
        let mut start = 0usize;
        while start < stream.len() {
            let end = stream.len().min(start + PREFETCH_WINDOW);
            let block = &stream[start..end];
            let mut h = hist;
            for (j, &packed) in block.iter().enumerate() {
                let taken = packed & 1;
                let word = packed >> 3;
                let row = (h ^ ((word >> col_shift) & xor_mask)) & row_mask;
                let idx = (row << col_shift) | (word & col_mask);
                let slot = ((base | idx) as usize) & mask;
                scratch[j] = ((slot as u64) << 1) | ((h == all_taken_ref) as u64);
                // Safe-code prefetch: pull the cell's line now, drop
                // the value.
                std::hint::black_box(arena[slot]);
                h = ((h << 1) | taken) & hist_mask;
            }
            for (j, &packed) in block.iter().enumerate() {
                let scored = (seen + (start + j) as u64 >= warmup) as u64;
                let taken = packed & 1;
                let tag = (packed >> 1) & cell::EMPTY_OWNER;
                let slot = (scratch[j] >> 1) as usize;
                let all_taken = scratch[j] & 1;
                let cell_word = arena[slot];
                let owner = cell_word >> 2;
                let bits = cell_word & 0b11;
                let conflict = ((owner != cell::EMPTY_OWNER) & (owner != tag)) as u64;
                conflicts += conflict;
                harmless += conflict & all_taken;
                wrong += scored & ((bits >= 2) as u64 ^ taken);
                let inc = ((bits < 3) as u64) & taken;
                let dec = ((bits > 0) as u64) & (1 - taken);
                arena[slot] = (tag << 2) | (bits + inc - dec);
            }
            hist = h;
            start = end;
        }
        p.hist.value = hist;
        lanes.add(lane, conflicts, harmless, wrong);
    }
}

/// The per-address/per-set two-level plans
/// ([`PlanKind::PerAddressPerfect`], [`PlanKind::PerAddressFinite`],
/// [`PlanKind::PerSet`]): the direct counter step with a [`RowSource`]
/// first-level read in front. Per record and lane this is the scalar
/// sequence select → fused counter access-train → selector train,
/// branch-free.
fn replay_two_level<R: RowSource>(
    lanes: &mut LaneHeaders,
    group: &mut TwoLevel<R>,
    arena: &mut [u64],
    cols: &Columns,
) {
    let (stream, ids, seen, warmup) = (cols.stream, cols.ids, cols.seen, cols.warmup);
    debug_assert!(!R::NEEDS_IDS || ids.len() == stream.len());
    let mask = arena.len() - 1;
    let rows = &mut group.rows;
    for lane in 0..lanes.len() {
        let UnifiedRead {
            base,
            row_mask,
            col_shift,
            col_mask,
        } = group.reads[lane];
        let all_taken_ref = group.all_taken[lane];
        let (mut conflicts, mut harmless, mut wrong) = (0u64, 0u64, 0u64);
        for (i, &packed) in stream.iter().enumerate() {
            let scored = (seen + i as u64 >= warmup) as u64;
            let taken = packed & 1;
            let pc = packed >> 1;
            let word = packed >> 3;
            let tag = pc & cell::EMPTY_OWNER;
            let id = if R::NEEDS_IDS { ids[i] } else { 0 };
            let row = rows.row(lane, pc, id);
            let idx = ((row & row_mask) << col_shift) | (word & col_mask);
            let slot = ((base | idx) as usize) & mask;
            let cell_word = arena[slot];
            let owner = cell_word >> 2;
            let bits = cell_word & 0b11;
            let conflict = ((owner != cell::EMPTY_OWNER) & (owner != tag)) as u64;
            conflicts += conflict;
            harmless += conflict & ((row == all_taken_ref) as u64);
            wrong += scored & ((bits >= 2) as u64 ^ taken);
            let inc = ((bits < 3) as u64) & taken;
            let dec = ((bits > 0) as u64) & (1 - taken);
            arena[slot] = (tag << 2) | (bits + inc - dec);
            rows.advance(lane, pc, id, row, taken);
        }
        lanes.add(lane, conflicts, harmless, wrong);
    }
}

/// [`PlanKind::AgreeBias`]: counters predict *agreement* with a
/// per-branch bias bit latched at first execution. The bias latch
/// sequence depends only on the shared (pc, outcome) stream —
/// identical across every agree lane — so the [`LaneSet`] pre-pass
/// latches it once, record-major, and parks each record's pre/post-
/// latch bias in [`Columns::bias_bits`] (a naive shared latch array
/// would corrupt pre-latch reads once the first lane had latched).
fn replay_agree(
    lanes: &mut LaneHeaders,
    params: &mut [AgreeLane],
    arena: &mut [u64],
    cols: &Columns,
) {
    let (stream, bias_bits, seen, warmup) = (cols.stream, cols.bias_bits, cols.seen, cols.warmup);
    debug_assert_eq!(bias_bits.len(), stream.len());
    let mask = arena.len() - 1;
    for (lane, p) in params.iter_mut().enumerate() {
        let (row_mask, base) = (p.row_mask, p.base);
        let (hist_mask, all_taken_ref) = (p.hist.mask, p.hist.all_taken);
        let mut hist = p.hist.value;
        let (mut conflicts, mut harmless, mut wrong) = (0u64, 0u64, 0u64);
        for (i, &packed) in stream.iter().enumerate() {
            let scored = (seen + i as u64 >= warmup) as u64;
            let taken = packed & 1;
            let word = packed >> 3;
            let tag = (packed >> 1) & cell::EMPTY_OWNER;
            let pre = u64::from(bias_bits[i] & 1);
            let post = u64::from((bias_bits[i] >> 1) & 1);
            let row = (hist ^ (word & row_mask)) & row_mask;
            let slot = ((base | row) as usize) & mask;
            let cell_word = arena[slot];
            let owner = cell_word >> 2;
            let bits = cell_word & 0b11;
            let conflict = ((owner != cell::EMPTY_OWNER) & (owner != tag)) as u64;
            conflicts += conflict;
            harmless += conflict & ((hist == all_taken_ref) as u64);
            // Prediction: bias if the counter says "agree", its
            // complement otherwise — an XNOR of the two bits.
            let agree = (bits >= 2) as u64;
            wrong += scored & ((1 ^ agree ^ pre) ^ taken);
            // Training direction is agreement with the *post-latch*
            // bias, not the raw outcome.
            let agreement = 1 ^ taken ^ post;
            let inc = ((bits < 3) as u64) & agreement;
            let dec = ((bits > 0) as u64) & (1 - agreement);
            arena[slot] = (tag << 2) | (bits + inc - dec);
            hist = ((hist << 1) | taken) & hist_mask;
        }
        p.hist.value = hist;
        lanes.add(lane, conflicts, harmless, wrong);
    }
}

/// [`PlanKind::BiModeChoice`]: a peeked choice read steers each record
/// to one of two direction regions; the selected counter trains toward
/// the outcome and the choice counter trains too unless the bi-mode
/// exception holds (choice disagreed but the selected counter was
/// right). The choice cells are only ever peeked and retrained, so
/// their owner tags stay empty and they contribute no alias accounting
/// — exactly the scalar tables' split.
fn replay_bimode(
    lanes: &mut LaneHeaders,
    params: &mut [BiModeLane],
    arena: &mut [u64],
    cols: &Columns,
) {
    let (stream, seen, warmup) = (cols.stream, cols.seen, cols.warmup);
    let mask = arena.len() - 1;
    for (lane, p) in params.iter_mut().enumerate() {
        let (dir_mask, choice_mask) = (p.dir_mask, p.choice_mask);
        let (taken_base, not_taken_base, choice_base) =
            (p.taken_base, p.not_taken_base, p.choice_base);
        let (hist_mask, all_taken_ref) = (p.hist.mask, p.hist.all_taken);
        let mut hist = p.hist.value;
        let (mut conflicts, mut harmless, mut wrong) = (0u64, 0u64, 0u64);
        for (i, &packed) in stream.iter().enumerate() {
            let scored = (seen + i as u64 >= warmup) as u64;
            let taken = packed & 1;
            let word = packed >> 3;
            let tag = (packed >> 1) & cell::EMPTY_OWNER;
            let row = (hist ^ (word & dir_mask)) & dir_mask;
            let choice_slot = ((choice_base | (word & choice_mask)) as usize) & mask;
            let choice_cell = arena[choice_slot];
            let ch_bits = choice_cell & 0b11;
            let use_taken = (ch_bits >= 2) as u64;
            // Branchless region select between the two direction
            // tables.
            let dir_base =
                not_taken_base ^ ((taken_base ^ not_taken_base) & use_taken.wrapping_neg());
            let slot = ((dir_base | row) as usize) & mask;
            let cell_word = arena[slot];
            let owner = cell_word >> 2;
            let bits = cell_word & 0b11;
            let conflict = ((owner != cell::EMPTY_OWNER) & (owner != tag)) as u64;
            conflicts += conflict;
            harmless += conflict & ((hist == all_taken_ref) as u64);
            let predicted = (bits >= 2) as u64;
            wrong += scored & (predicted ^ taken);
            // Selected direction counter trains toward the outcome.
            let inc = ((bits < 3) as u64) & taken;
            let dec = ((bits > 0) as u64) & (1 - taken);
            arena[slot] = (tag << 2) | (bits + inc - dec);
            // Choice trains toward the outcome except on the bi-mode
            // exception; its owner (empty) is preserved — peek and
            // retrain never tag.
            let exception = (use_taken ^ taken) & (1 - (predicted ^ taken));
            let train = 1 - exception;
            let cinc = ((ch_bits < 3) as u64) & taken & train;
            let cdec = ((ch_bits > 0) as u64) & (1 - taken) & train;
            arena[choice_slot] = (choice_cell & !0b11u64) | (ch_bits + cinc - cdec);
            hist = ((hist << 1) | taken) & hist_mask;
        }
        p.hist.value = hist;
        lanes.add(lane, conflicts, harmless, wrong);
    }
}

/// [`PlanKind::SkewedMajority`]: three skewed bank reads per record,
/// majority vote, total-update training. Each lane owns three disjoint
/// bank regions, so the scalar access-access-access /
/// train-train-train sequence fuses into one read-modify-write per
/// bank.
fn replay_gskew(
    lanes: &mut LaneHeaders,
    params: &mut [GskewLane],
    arena: &mut [u64],
    cols: &Columns,
) {
    let (stream, seen, warmup) = (cols.stream, cols.seen, cols.warmup);
    let mask = arena.len() - 1;
    for (lane, p) in params.iter_mut().enumerate() {
        let shift = p.shift;
        let [base0, base1, base2] = p.bases;
        let (hist_mask, all_taken_ref) = (p.hist.mask, p.hist.all_taken);
        let mut hist = p.hist.value;
        let (mut conflicts, mut harmless, mut wrong) = (0u64, 0u64, 0u64);
        for (i, &packed) in stream.iter().enumerate() {
            let scored = (seen + i as u64 >= warmup) as u64;
            let taken = packed & 1;
            let word = packed >> 3;
            let tag = (packed >> 1) & cell::EMPTY_OWNER;
            let key = (word << 20) ^ hist;
            let all_taken = (hist == all_taken_ref) as u64;
            // Unrolled banks, all three loads issued before any store:
            // the bank regions are disjoint, but an interleaved
            // read-modify-write would force the compiler to order
            // every load after the previous bank's store (it cannot
            // prove the slots don't alias). The scalar
            // predict-all-banks-then-train-all-banks sequence is
            // equivalent to one fused RMW per bank either way.
            let slot0 =
                ((base0 | (key.wrapping_mul(SKEW_BANK_MULTIPLIERS[0]) >> shift)) as usize) & mask;
            let slot1 =
                ((base1 | (key.wrapping_mul(SKEW_BANK_MULTIPLIERS[1]) >> shift)) as usize) & mask;
            let slot2 =
                ((base2 | (key.wrapping_mul(SKEW_BANK_MULTIPLIERS[2]) >> shift)) as usize) & mask;
            let (cell0, cell1, cell2) = (arena[slot0], arena[slot1], arena[slot2]);
            let step = |cell_word: u64| {
                let owner = cell_word >> 2;
                let bits = cell_word & 0b11;
                let conflict = ((owner != cell::EMPTY_OWNER) & (owner != tag)) as u64;
                let vote = (bits >= 2) as u64;
                let inc = ((bits < 3) as u64) & taken;
                let dec = ((bits > 0) as u64) & (1 - taken);
                ((tag << 2) | (bits + inc - dec), conflict, vote)
            };
            let (next0, conflict0, vote0) = step(cell0);
            let (next1, conflict1, vote1) = step(cell1);
            let (next2, conflict2, vote2) = step(cell2);
            arena[slot0] = next0;
            arena[slot1] = next1;
            arena[slot2] = next2;
            let conflict = conflict0 + conflict1 + conflict2;
            conflicts += conflict;
            harmless += conflict & all_taken.wrapping_neg();
            wrong += scored & ((vote0 + vote1 + vote2 >= 2) as u64 ^ taken);
            hist = ((hist << 1) | taken) & hist_mask;
        }
        p.hist.value = hist;
        lanes.add(lane, conflicts, harmless, wrong);
    }
}

/// [`PlanKind::TournamentChooser`]: a per-address chooser read steers
/// between two component reads — an address-indexed table (read 0)
/// and a gshare table (read 1) — per the
/// [`Combining`](bpred_core::Combining) kernel. Both components
/// access-then-train exactly like the scalar [`cell::step`]; the
/// chooser is the scalar kernel's bare counter vector, so its cells
/// are peeked and retrained with their owner preserved (never tagged,
/// no alias accounting) and train toward "the second component was
/// right" only when the components disagreed.
fn replay_tournament(
    lanes: &mut LaneHeaders,
    params: &mut [TournamentLane],
    arena: &mut [u64],
    cols: &Columns,
) {
    let (stream, seen, warmup) = (cols.stream, cols.seen, cols.warmup);
    let mask = arena.len() - 1;
    for (lane, p) in params.iter_mut().enumerate() {
        let (addr_mask, gshare_mask, chooser_mask) = (p.addr_mask, p.gshare_mask, p.chooser_mask);
        let (addr_base, gshare_base, chooser_base) = (p.addr_base, p.gshare_base, p.chooser_base);
        let (hist_mask, all_taken_ref) = (p.hist.mask, p.hist.all_taken);
        let mut hist = p.hist.value;
        let (mut conflicts, mut harmless, mut wrong) = (0u64, 0u64, 0u64);
        for (i, &packed) in stream.iter().enumerate() {
            let scored = (seen + i as u64 >= warmup) as u64;
            let taken = packed & 1;
            let word = packed >> 3;
            let tag = (packed >> 1) & cell::EMPTY_OWNER;
            // Component 0: address-indexed (row always zero, so never
            // an all-taken pattern).
            let a_slot = ((addr_base | (word & addr_mask)) as usize) & mask;
            let a_cell = arena[a_slot];
            let a_owner = a_cell >> 2;
            let a_bits = a_cell & 0b11;
            let a_conflict = ((a_owner != cell::EMPTY_OWNER) & (a_owner != tag)) as u64;
            // Component 1: gshare (column-free — the read is
            // `history_bits` rows wide).
            let g_row = (hist ^ (word & gshare_mask)) & gshare_mask;
            let g_slot = ((gshare_base | g_row) as usize) & mask;
            let g_cell = arena[g_slot];
            let g_owner = g_cell >> 2;
            let g_bits = g_cell & 0b11;
            let g_conflict = ((g_owner != cell::EMPTY_OWNER) & (g_owner != tag)) as u64;
            conflicts += a_conflict + g_conflict;
            harmless += g_conflict & ((hist == all_taken_ref) as u64);
            let a_pred = (a_bits >= 2) as u64;
            let g_pred = (g_bits >= 2) as u64;
            let chooser_slot = ((chooser_base | (word & chooser_mask)) as usize) & mask;
            let chooser_cell = arena[chooser_slot];
            let ch_bits = chooser_cell & 0b11;
            let use_second = (ch_bits >= 2) as u64;
            let predicted = a_pred ^ ((a_pred ^ g_pred) & use_second.wrapping_neg());
            wrong += scored & (predicted ^ taken);
            // Chooser trains toward "the second component was right",
            // only on disagreement; its owner (empty) is preserved —
            // the scalar chooser is untagged.
            let train = a_pred ^ g_pred;
            let toward_second = 1 ^ g_pred ^ taken;
            let cinc = ((ch_bits < 3) as u64) & toward_second & train;
            let cdec = ((ch_bits > 0) as u64) & (1 - toward_second) & train;
            arena[chooser_slot] = (chooser_cell & !0b11u64) | (ch_bits + cinc - cdec);
            // Both components train toward the outcome, owner
            // re-tagged — the scalar access-then-retrain pair, fused
            // as in [`cell::step`].
            let a_inc = ((a_bits < 3) as u64) & taken;
            let a_dec = ((a_bits > 0) as u64) & (1 - taken);
            arena[a_slot] = (tag << 2) | (a_bits + a_inc - a_dec);
            let g_inc = ((g_bits < 3) as u64) & taken;
            let g_dec = ((g_bits > 0) as u64) & (1 - taken);
            arena[g_slot] = (tag << 2) | (g_bits + g_inc - g_dec);
            hist = ((hist << 1) | taken) & hist_mask;
        }
        p.hist.value = hist;
        lanes.add(lane, conflicts, harmless, wrong);
    }
}

/// [`PlanKind::TaggedChoice`] (YAGS): an untagged choice read gives
/// the bias; the opposite direction cache — a tagged exception store —
/// is probed at `history ^ address`, and a tag hit overrides the bias.
/// Training steps the probed entry on a hit, allocates (unconditional
/// eviction, tag + weak counter) on a wrong-bias miss, and retrains
/// the choice unless a hit already captured the anti-bias outcome —
/// exactly the [`Yags`](bpred_core::Yags) sequence. Cache entries live
/// in the shared arena with the partial tag in the owner bits and
/// [`YAGS_EMPTY_TAG`] for empty entries.
fn replay_yags(
    lanes: &mut LaneHeaders,
    params: &mut [YagsLane],
    arena: &mut [u64],
    cols: &Columns,
) {
    let (stream, seen, warmup) = (cols.stream, cols.seen, cols.warmup);
    let mask = arena.len() - 1;
    for (lane, p) in params.iter_mut().enumerate() {
        let (choice_mask, cache_mask, tag_mask) = (p.choice_mask, p.cache_mask, p.tag_mask);
        let (choice_base, taken_base, not_taken_base) =
            (p.choice_base, p.taken_base, p.not_taken_base);
        let (hist_mask, all_taken_ref) = (p.hist.mask, p.hist.all_taken);
        let mut hist = p.hist.value;
        let (mut conflicts, mut harmless, mut wrong) = (0u64, 0u64, 0u64);
        for (i, &packed) in stream.iter().enumerate() {
            let scored = (seen + i as u64 >= warmup) as u64;
            let taken = packed & 1;
            let word = packed >> 3;
            let tag = (packed >> 1) & cell::EMPTY_OWNER;
            let all_taken = (hist == all_taken_ref) as u64;
            // The choice access: bias prediction plus the lane's only
            // alias accounting (the scalar caches are uninstrumented).
            let choice_slot = ((choice_base | (word & choice_mask)) as usize) & mask;
            let choice_cell = arena[choice_slot];
            let owner = choice_cell >> 2;
            let c_bits = choice_cell & 0b11;
            let conflict = ((owner != cell::EMPTY_OWNER) & (owner != tag)) as u64;
            conflicts += conflict;
            harmless += conflict & all_taken;
            let bias = (c_bits >= 2) as u64;
            // Probe the cache opposite the bias for an exception.
            let cache_base = taken_base ^ ((not_taken_base ^ taken_base) & bias.wrapping_neg());
            let entry_slot = ((cache_base | ((hist ^ word) & cache_mask)) as usize) & mask;
            let entry = arena[entry_slot];
            let entry_tag = entry >> 2;
            let entry_bits = entry & 0b11;
            let partial = word & tag_mask;
            let hit = (entry_tag == partial) as u64;
            let entry_pred = (entry_bits >= 2) as u64;
            let predicted = bias ^ ((bias ^ entry_pred) & hit.wrapping_neg());
            wrong += scored & (predicted ^ taken);
            // Cache entry: train on a hit, allocate (evict) on a
            // wrong-bias miss, leave untouched otherwise.
            let inc = ((entry_bits < 3) as u64) & taken;
            let dec = ((entry_bits > 0) as u64) & (1 - taken);
            let trained = (entry_tag << 2) | (entry_bits + inc - dec);
            let allocated = (partial << 2) | (1 + taken);
            let hit_m = hit.wrapping_neg();
            let alloc_m = ((1 - hit) & (taken ^ bias)).wrapping_neg();
            arena[entry_slot] =
                (trained & hit_m) | (allocated & alloc_m) | (entry & !(hit_m | alloc_m));
            // Choice: retrain toward the outcome unless a hit already
            // captured the anti-bias outcome; owner is re-tagged
            // either way (the scalar access touched it).
            let train = 1 - (hit & (taken ^ bias));
            let cinc = ((c_bits < 3) as u64) & taken & train;
            let cdec = ((c_bits > 0) as u64) & (1 - taken) & train;
            arena[choice_slot] = (tag << 2) | (c_bits + cinc - cdec);
            hist = ((hist << 1) | taken) & hist_mask;
        }
        p.hist.value = hist;
        lanes.add(lane, conflicts, harmless, wrong);
    }
}

/// [`PlanKind::PathHistory`]: the unified counter read with its row
/// selected by a global path register of hashed control-transfer
/// targets. The register shifts on *every* control transfer
/// (conditionals push their resolved destination, non-conditionals
/// their target), so this kernel walks [`Columns::events`] — one
/// element per record — with a cursor into the conditional stream:
/// conditionals read-modify-write their counter before the register
/// shifts in their destination. Path row selections never count as
/// all-taken patterns, so harmless conflicts are structurally zero, as
/// in the scalar selector.
fn replay_path(
    lanes: &mut LaneHeaders,
    params: &mut [PathLane],
    arena: &mut [u64],
    cols: &Columns,
) {
    let (stream, events, seen, warmup) = (cols.stream, cols.events, cols.seen, cols.warmup);
    let mask = arena.len() - 1;
    for (lane, p) in params.iter_mut().enumerate() {
        let UnifiedRead {
            base,
            row_mask,
            col_shift,
            col_mask,
        } = p.read;
        let (reg_mask, bpt, bpt_mask) = (p.reg_mask, p.bpt, p.bpt_mask);
        let mut reg = p.reg;
        let (mut conflicts, mut wrong) = (0u64, 0u64);
        let mut ci = 0usize;
        for &event in events {
            if event & 1 == 1 {
                let packed = stream[ci];
                let scored = (seen + ci as u64 >= warmup) as u64;
                ci += 1;
                let taken = packed & 1;
                let word = packed >> 3;
                let tag = (packed >> 1) & cell::EMPTY_OWNER;
                let idx = ((reg & row_mask) << col_shift) | (word & col_mask);
                let slot = ((base | idx) as usize) & mask;
                let cell_word = arena[slot];
                let owner = cell_word >> 2;
                let bits = cell_word & 0b11;
                conflicts += ((owner != cell::EMPTY_OWNER) & (owner != tag)) as u64;
                wrong += scored & ((bits >= 2) as u64 ^ taken);
                let inc = ((bits < 3) as u64) & taken;
                let dec = ((bits > 0) as u64) & (1 - taken);
                arena[slot] = (tag << 2) | (bits + inc - dec);
            }
            reg = ((reg << bpt) | ((event >> 1) & bpt_mask)) & reg_mask;
        }
        debug_assert_eq!(ci, stream.len());
        p.reg = reg;
        lanes.add(lane, conflicts, 0, wrong);
    }
}

/// [`PlanKind::LastOutcome`]: LastTime's degenerate one-bit table,
/// predicting whatever outcome the indexed entry last stored. Each
/// lane is a flat byte-per-entry table (no counters to pack, no owner
/// tags to account), updated with a blind store so no
/// read-modify-write chain serializes the walk.
fn replay_last_time(lanes: &mut LaneHeaders, params: &mut [LastLane], cols: &Columns) {
    let (stream, seen, warmup) = (cols.stream, cols.seen, cols.warmup);
    // Split the chunk at the warmup boundary once instead of testing
    // `seen >= warmup` per record: warmup records update the table
    // without scoring, scored records pay one load + xor + blind store
    // each. Lanes walk the stream in blocks of eight and four so the
    // shared record decode amortizes and same-entry store-to-load
    // chains from different lanes overlap.
    let boundary = warmup.saturating_sub(seen).min(stream.len() as u64) as usize;
    let (unscored, rest) = stream.split_at(boundary);
    let mut lane = 0;
    while lane + 8 <= params.len() {
        let masks: [u64; 8] = std::array::from_fn(|k| params[lane + k].addr_mask);
        let mut wrong = [0u64; 8];
        if let [t0, t1, t2, t3, t4, t5, t6, t7] = &mut params[lane..lane + 8] {
            let tables: [&mut [u8]; 8] = [
                &mut t0.table[..=(masks[0] as usize)],
                &mut t1.table[..=(masks[1] as usize)],
                &mut t2.table[..=(masks[2] as usize)],
                &mut t3.table[..=(masks[3] as usize)],
                &mut t4.table[..=(masks[4] as usize)],
                &mut t5.table[..=(masks[5] as usize)],
                &mut t6.table[..=(masks[6] as usize)],
                &mut t7.table[..=(masks[7] as usize)],
            ];
            for &packed in unscored {
                let taken = (packed & 1) as u8;
                let key = packed >> 3;
                for k in 0..8 {
                    tables[k][(key & masks[k]) as usize] = taken;
                }
            }
            for &packed in rest {
                let taken = (packed & 1) as u8;
                let key = packed >> 3;
                for k in 0..8 {
                    let idx = (key & masks[k]) as usize;
                    wrong[k] += (tables[k][idx] ^ taken) as u64;
                    tables[k][idx] = taken;
                }
            }
        }
        for (k, wrong) in wrong.into_iter().enumerate() {
            lanes.mispredictions[lane + k] += wrong;
        }
        lane += 8;
    }
    while lane + 4 <= params.len() {
        let mut wrong = [0u64; 4];
        if let [p0, p1, p2, p3] = &mut params[lane..lane + 4] {
            let [m0, m1, m2, m3] = [p0.addr_mask, p1.addr_mask, p2.addr_mask, p3.addr_mask];
            // Reslice each table to exactly `mask + 1` entries (its
            // full length) so the masked index is provably in bounds
            // and the inner loops stay check-free.
            let (t0, t1, t2, t3) = (
                &mut p0.table[..=(m0 as usize)],
                &mut p1.table[..=(m1 as usize)],
                &mut p2.table[..=(m2 as usize)],
                &mut p3.table[..=(m3 as usize)],
            );
            for &packed in unscored {
                let taken = (packed & 1) as u8;
                let key = packed >> 3;
                t0[(key & m0) as usize] = taken;
                t1[(key & m1) as usize] = taken;
                t2[(key & m2) as usize] = taken;
                t3[(key & m3) as usize] = taken;
            }
            for &packed in rest {
                let taken = (packed & 1) as u8;
                let key = packed >> 3;
                let (i0, i1, i2, i3) = (
                    (key & m0) as usize,
                    (key & m1) as usize,
                    (key & m2) as usize,
                    (key & m3) as usize,
                );
                wrong[0] += (t0[i0] ^ taken) as u64;
                t0[i0] = taken;
                wrong[1] += (t1[i1] ^ taken) as u64;
                t1[i1] = taken;
                wrong[2] += (t2[i2] ^ taken) as u64;
                t2[i2] = taken;
                wrong[3] += (t3[i3] ^ taken) as u64;
                t3[i3] = taken;
            }
        }
        for (k, wrong) in wrong.into_iter().enumerate() {
            lanes.mispredictions[lane + k] += wrong;
        }
        lane += 4;
    }
    for (lane, p) in params.iter_mut().enumerate().skip(lane) {
        let addr_mask = p.addr_mask;
        let table = &mut p.table[..=(addr_mask as usize)];
        let mut wrong = 0u64;
        for &packed in unscored {
            table[((packed >> 3) & addr_mask) as usize] = (packed & 1) as u8;
        }
        for &packed in rest {
            let taken = (packed & 1) as u8;
            let idx = ((packed >> 3) & addr_mask) as usize;
            wrong += (table[idx] ^ taken) as u64;
            table[idx] = taken;
        }
        lanes.mispredictions[lane] += wrong;
    }
}

/// A set of predictor lanes advancing together through one chunk
/// stream, each on its fastest applicable dispatch tier.
///
/// Build one over a configuration list, feed it chunks in stream
/// order with [`replay_chunk`](LaneSet::replay_chunk), and close it
/// with [`finish`](LaneSet::finish); results come back in
/// configuration order and are bit-identical to running
/// [`Simulator::run`] per configuration (the workspace determinism
/// and multilane suites enforce this).
///
/// # Examples
///
/// ```
/// use bpred_core::PredictorConfig;
/// use bpred_sim::{LaneSet, Simulator};
/// use bpred_trace::{BranchRecord, Outcome, TraceChunk};
///
/// let chunk: TraceChunk = (0..100)
///     .map(|i| BranchRecord::conditional(0x40 + 4 * (i % 8), 0x20, Outcome::from(i % 3 != 0)))
///     .collect();
/// let configs = [
///     PredictorConfig::AlwaysTaken,
///     PredictorConfig::Gshare { history_bits: 6, col_bits: 2 },
/// ];
/// let mut lanes = LaneSet::new(&configs, Simulator::new());
/// lanes.replay_chunk(&chunk);
/// let results = lanes.finish();
/// assert_eq!(results.len(), 2);
/// assert_eq!(results[0].conditionals, 100);
/// ```
#[derive(Debug)]
pub struct LaneSet {
    len: usize,
    warmup: u64,
    /// Conditionals fed so far (the shared table-access count).
    seen: u64,
    /// Conditionals scored so far (past the warmup prefix).
    scored: u64,
    groups: Vec<Group>,
    statics: Vec<StaticUnit>,
    scalars: Vec<(usize, ReplayCore<PredictorKernel>)>,
    /// Per-chunk scratch: the dense conditional stream shared by every
    /// lane group (`(pc << 1) | taken`, non-conditionals dropped).
    conditionals: Vec<u64>,
    /// Per-chunk scratch for path lanes: one element per record,
    /// `(dest_word << 1) | is_conditional` — the resolved destination
    /// word every control transfer shifts into a path register.
    events: Vec<u64>,
    /// Persistent dense branch ids (first-appearance order), shared by
    /// the perfect-BHT row source and the agree bias column.
    id_map: HashMap<u64, u32>,
    /// Per-chunk scratch: `conditionals[i]`'s dense id.
    ids: Vec<u32>,
    /// Shared agree bias latch per dense id: 0 unset (reads as taken,
    /// the scalar default), 1 latched taken, 2 latched not-taken.
    bias: Vec<u8>,
    /// Per-chunk scratch: pre-latch (bit 0) / post-latch (bit 1)
    /// bias-is-taken flags per conditional.
    bias_bits: Vec<u8>,
}

impl LaneSet {
    /// Partitions `configs` into dispatch tiers (honouring
    /// `BPRED_FORCE_SCALAR`) and builds the lanes. Scoring follows
    /// `simulator`'s warmup policy, shared by every tier.
    pub fn new(configs: &[PredictorConfig], simulator: Simulator) -> Self {
        let force_scalar = force_scalar();
        let mut specs: Vec<PlanSpec> = Vec::new();
        let mut statics = Vec::new();
        let mut scalars = Vec::new();
        for (index, config) in configs.iter().enumerate() {
            if force_scalar {
                scalars.push((index, ReplayCore::from_config(config, simulator)));
                continue;
            }
            let scheme = match config {
                PredictorConfig::AlwaysTaken => StaticScheme::AlwaysTaken,
                PredictorConfig::AlwaysNotTaken => StaticScheme::AlwaysNotTaken,
                PredictorConfig::Btfn => StaticScheme::Btfn,
                _ => {
                    let plan = WalkPlan::of(config).expect("every stateful scheme has a plan");
                    // Name and state cost come from the kernel itself
                    // — the single source of the describe() rules —
                    // captured once at build and the kernel dropped.
                    let kernel = config.kernel();
                    specs.push(PlanSpec {
                        index,
                        name: kernel.name(),
                        state_bits: kernel.state_bits(),
                        plan,
                    });
                    continue;
                }
            };
            statics.push(StaticUnit {
                index,
                scheme,
                mispredictions: 0,
            });
        }
        // Row-blocked lane order: within each kind, descending arena
        // footprint (ties by configuration position) — the order
        // `place_regions` assigns bases in — so consecutive lanes walk
        // adjacent arena regions. Results are written through each
        // lane's index, so this changes iteration order only.
        specs.sort_by_key(|s| (tier_of(s.plan.kind()), Reverse(s.plan.cells()), s.index));
        let groups = specs
            .chunk_by(|a, b| a.plan.kind() == b.plan.kind())
            .flat_map(|kind| kind.chunks(GROUP_LANES))
            .map(Group::new)
            .collect();
        LaneSet {
            len: configs.len(),
            warmup: simulator.warmup() as u64,
            seen: 0,
            scored: 0,
            groups,
            statics,
            scalars,
            conditionals: Vec::new(),
            events: Vec::new(),
            id_map: HashMap::new(),
            ids: Vec::new(),
            bias: Vec::new(),
            bias_bits: Vec::new(),
        }
    }

    /// Number of lanes (configurations) in the set.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set holds no lanes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of lanes on the scalar tier.
    pub fn scalar_lanes(&self) -> usize {
        self.scalars.len()
    }

    /// Lane counts per dispatch tier / plan family, aligned with
    /// [`LANE_TIER_LABELS`] — the raw material of the
    /// `bpred_replay_group_lanes{plan=...}` gauge.
    pub fn lane_tier_counts(&self) -> [u64; LANE_TIER_LABELS.len()] {
        let mut counts = [0u64; LANE_TIER_LABELS.len()];
        for group in &self.groups {
            counts[group.tier] += group.lanes.len() as u64;
        }
        counts[STATIC_TIER] = self.statics.len() as u64;
        counts[SCALAR_TIER] = self.scalars.len() as u64;
        counts
    }

    /// Number of groups whose arena exceeds [`PREFETCH_SPILL_BYTES`]
    /// and so run the prefetching single-read loop.
    pub fn prefetch_groups(&self) -> usize {
        self.groups
            .iter()
            .filter(|g| matches!(g.kernel, Kernel::Direct { prefetch: true, .. }))
            .count()
    }

    /// Feeds one chunk through every lane. Chunks must arrive in
    /// stream order; record semantics per lane are identical to
    /// [`ReplayCore::feed`] over the same records.
    pub fn replay_chunk(&mut self, chunk: &TraceChunk) {
        let (conditionals, taken) = conditional_counts(chunk);
        if !self.groups.is_empty() {
            collect_conditionals(chunk, &mut self.conditionals);
            if self
                .groups
                .iter()
                .any(|g| matches!(g.kernel, Kernel::Path(_)))
            {
                // Path lanes shift on every record: build the shared
                // per-record event column once — the destination a
                // path register would hash (conditionals resolve to
                // target or fall-through by outcome, everything else
                // to its target) plus the is-conditional flag.
                self.events.clear();
                let pcs = chunk.pcs();
                let targets = chunk.targets();
                let words = chunk.meta_words();
                for i in 0..pcs.len() {
                    let bits = (words[i / TraceChunk::META_RECORDS_PER_WORD]
                        >> (TraceChunk::META_BITS_PER_RECORD
                            * (i % TraceChunk::META_RECORDS_PER_WORD)))
                        & 0xF;
                    let cond = (bits & 0b1110 == 0) as u64;
                    let fallthrough = cond & (1 - (bits & 1));
                    let dest = if fallthrough == 1 {
                        pcs[i].wrapping_add(4)
                    } else {
                        targets[i]
                    };
                    self.events.push(((dest >> 2) << 1) | cond);
                }
            }
            if self.groups.iter().any(Group::needs_ids) {
                // One shared pre-pass: dense ids in first-appearance
                // order (serving the perfect-BHT allocation and the
                // agree bias store) and, when agree lanes exist, the
                // record-major bias latch column.
                let needs_bias = self
                    .groups
                    .iter()
                    .any(|g| matches!(g.kernel, Kernel::Agree(_)));
                self.ids.clear();
                self.bias_bits.clear();
                for &packed in &self.conditionals {
                    let pc = packed >> 1;
                    let next = self.id_map.len() as u32;
                    let id = *self.id_map.entry(pc).or_insert(next);
                    self.ids.push(id);
                    if needs_bias {
                        let taken = (packed & 1) as u8;
                        if id as usize == self.bias.len() {
                            self.bias.push(0);
                        }
                        let b = &mut self.bias[id as usize];
                        let pre = (*b != 2) as u8;
                        if *b == 0 {
                            *b = 2 - taken;
                        }
                        let post = (*b != 2) as u8;
                        self.bias_bits.push(pre | (post << 1));
                    }
                }
            }
            let cols = Columns {
                stream: &self.conditionals,
                ids: &self.ids,
                bias_bits: &self.bias_bits,
                events: &self.events,
                seen: self.seen,
                warmup: self.warmup,
            };
            for group in &mut self.groups {
                group.replay(&cols);
            }
        }
        for unit in &mut self.statics {
            unit.replay_chunk(chunk, self.seen, self.warmup, conditionals, taken);
        }
        for (_, lane) in &mut self.scalars {
            lane.replay_chunk_dispatched(chunk);
        }
        let unscored = conditionals.min(self.warmup.saturating_sub(self.seen));
        self.scored += conditionals - unscored;
        self.seen += conditionals;
    }

    /// Closes every lane into its [`SimResult`], in configuration
    /// order.
    pub fn finish(self) -> Vec<SimResult> {
        let mut results: Vec<Option<SimResult>> = (0..self.len).map(|_| None).collect();
        let distinct = self.id_map.len() as u64;
        for group in self.groups {
            group.finish(self.seen, self.scored, distinct, &mut results);
        }
        for unit in self.statics {
            let slot = unit.index;
            results[slot] = Some(unit.finish(self.scored));
        }
        for (index, lane) in self.scalars {
            results[index] = Some(lane.finish());
        }
        results
            .into_iter()
            .map(|r| r.expect("every lane finished"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpred_trace::{BranchRecord, Trace, TraceSource};

    fn trace(n: usize) -> Trace {
        let mut t = Trace::new();
        for i in 0..n as u64 {
            if i % 17 == 0 {
                t.push(BranchRecord::jump(0x900 + 4 * (i % 5), 0x40));
            }
            t.push(BranchRecord::conditional(
                0x400 + 4 * (i % 23),
                if i % 4 == 0 { 0x100 } else { 0x900 },
                Outcome::from((i * 7) % 5 < 3),
            ));
        }
        t
    }

    fn grouped_configs() -> Vec<PredictorConfig> {
        vec![
            PredictorConfig::AlwaysTaken,
            PredictorConfig::AlwaysNotTaken,
            PredictorConfig::Btfn,
            PredictorConfig::AddressIndexed { addr_bits: 4 },
            PredictorConfig::AddressIndexed { addr_bits: 0 },
            PredictorConfig::Gas {
                history_bits: 0,
                col_bits: 3,
            },
            PredictorConfig::Gas {
                history_bits: 5,
                col_bits: 0,
            },
            PredictorConfig::Gas {
                history_bits: 4,
                col_bits: 3,
            },
            PredictorConfig::Gshare {
                history_bits: 0,
                col_bits: 4,
            },
            PredictorConfig::Gshare {
                history_bits: 6,
                col_bits: 2,
            },
            PredictorConfig::Gshare {
                history_bits: 8,
                col_bits: 0,
            },
        ]
    }

    /// One [`LaneSet`] over `t` in default-length chunks.
    fn replay(configs: &[PredictorConfig], t: &Trace, simulator: Simulator) -> Vec<SimResult> {
        let mut lanes = LaneSet::new(configs, simulator);
        for chunk in t.chunks(TraceChunk::DEFAULT_LEN) {
            lanes.replay_chunk(&chunk);
        }
        lanes.finish()
    }

    fn assert_matches_serial(configs: &[PredictorConfig], t: &Trace, simulator: Simulator) {
        let multilane = replay(configs, t, simulator);
        for (config, got) in configs.iter().zip(&multilane) {
            let want = simulator.run(&mut config.kernel(), t);
            assert_eq!(&want, got, "{config}");
        }
    }

    #[test]
    fn grouped_tiers_match_serial_replay() {
        assert_matches_serial(&grouped_configs(), &trace(3_000), Simulator::new());
    }

    #[test]
    fn warmup_is_honoured_on_every_tier() {
        for warmup in [1, 100, 2_999, 3_000, 10_000] {
            assert_matches_serial(
                &grouped_configs(),
                &trace(3_000),
                Simulator::with_warmup(warmup),
            );
        }
    }

    #[test]
    fn scalar_tier_configs_match_serial_replay() {
        // The families that used to pin lanes to the scalar fallback
        // (multi-structure schemes) now all group; the mix still
        // replays bit-identically alongside every other tier.
        let configs = vec![
            PredictorConfig::LastTime { addr_bits: 4 },
            PredictorConfig::Path {
                row_bits: 5,
                col_bits: 2,
                bits_per_target: 2,
            },
            PredictorConfig::Tournament {
                addr_bits: 4,
                history_bits: 4,
                chooser_bits: 4,
            },
            PredictorConfig::Gshare {
                history_bits: 5,
                col_bits: 1,
            },
        ];
        let lanes = LaneSet::new(&configs, Simulator::new());
        if !force_scalar() {
            assert_eq!(lanes.scalar_lanes(), 0);
        }
        assert_matches_serial(&configs, &trace(2_000), Simulator::new());
    }

    #[test]
    fn groups_split_at_the_lane_limit() {
        let configs: Vec<PredictorConfig> = (0..(GROUP_LANES as u32 + 9))
            .map(|i| PredictorConfig::Gshare {
                history_bits: 2 + (i % 7),
                col_bits: i % 4,
            })
            .collect();
        let lanes = LaneSet::new(&configs, Simulator::new());
        if force_scalar() {
            // The CI matrix re-runs this suite under
            // BPRED_FORCE_SCALAR=1, where every lane is scalar-tier.
            assert!(lanes.groups.is_empty());
            assert_eq!(lanes.scalar_lanes(), configs.len());
        } else {
            assert_eq!(lanes.groups.len(), 2);
            assert_eq!(lanes.scalar_lanes(), 0);
        }
        assert_matches_serial(&configs, &trace(1_500), Simulator::new());
    }

    #[test]
    fn duplicate_configs_get_independent_lanes() {
        let configs = vec![
            PredictorConfig::Gshare {
                history_bits: 5,
                col_bits: 2,
            };
            3
        ];
        let results = replay(&configs, &trace(1_000), Simulator::new());
        assert_eq!(results[0], results[1]);
        assert_eq!(results[1], results[2]);
    }

    /// The table-walk-plan families (everything groupable beyond the
    /// single-read Direct shape), with degenerate shapes included.
    fn plan_configs() -> Vec<PredictorConfig> {
        vec![
            PredictorConfig::PasInfinite {
                history_bits: 5,
                col_bits: 2,
            },
            PredictorConfig::PasInfinite {
                history_bits: 1,
                col_bits: 0,
            },
            PredictorConfig::PasFinite {
                history_bits: 5,
                col_bits: 2,
                entries: 64,
                ways: 2,
            },
            PredictorConfig::PasFinite {
                history_bits: 3,
                col_bits: 1,
                entries: 8,
                ways: 8,
            },
            PredictorConfig::Sas {
                history_bits: 5,
                set_bits: 3,
                col_bits: 2,
            },
            PredictorConfig::Sas {
                history_bits: 1,
                set_bits: 0,
                col_bits: 0,
            },
            PredictorConfig::Agree {
                history_bits: 6,
                index_bits: 8,
            },
            PredictorConfig::Agree {
                history_bits: 0,
                index_bits: 3,
            },
            PredictorConfig::BiMode {
                history_bits: 6,
                direction_bits: 7,
                choice_bits: 7,
            },
            PredictorConfig::BiMode {
                history_bits: 0,
                direction_bits: 2,
                choice_bits: 0,
            },
            PredictorConfig::Gskew {
                history_bits: 6,
                bank_bits: 7,
            },
            PredictorConfig::Gskew {
                history_bits: 40,
                bank_bits: 9,
            },
            PredictorConfig::Tournament {
                addr_bits: 5,
                history_bits: 6,
                chooser_bits: 4,
            },
            PredictorConfig::Tournament {
                addr_bits: 0,
                history_bits: 0,
                chooser_bits: 0,
            },
            PredictorConfig::Yags {
                choice_bits: 6,
                cache_bits: 5,
                tag_bits: 4,
            },
            PredictorConfig::Yags {
                choice_bits: 0,
                cache_bits: 0,
                tag_bits: 1,
            },
            PredictorConfig::Path {
                row_bits: 6,
                col_bits: 2,
                bits_per_target: 3,
            },
            PredictorConfig::Path {
                row_bits: 0,
                col_bits: 2,
                bits_per_target: 1,
            },
            PredictorConfig::LastTime { addr_bits: 5 },
            PredictorConfig::LastTime { addr_bits: 0 },
        ]
    }

    #[test]
    fn plan_families_replay_on_the_grouped_tier() {
        let configs = plan_configs();
        let lanes = LaneSet::new(&configs, Simulator::new());
        if force_scalar() {
            assert_eq!(lanes.scalar_lanes(), configs.len());
        } else {
            // Every family lands in exactly one group of its own kind,
            // in tier order, none on the scalar tier.
            assert_eq!(lanes.scalar_lanes(), 0);
            let tiers: Vec<usize> = lanes.groups.iter().map(|g| g.tier).collect();
            assert_eq!(tiers, (1..=10).collect::<Vec<_>>());
        }
        assert_matches_serial(&configs, &trace(3_000), Simulator::new());
    }

    #[test]
    fn plan_families_honour_warmup() {
        for warmup in [1, 100, 2_999, 3_000] {
            assert_matches_serial(
                &plan_configs(),
                &trace(3_000),
                Simulator::with_warmup(warmup),
            );
        }
    }

    #[test]
    fn duplicate_plan_configs_get_independent_lanes() {
        let mut configs = vec![
            PredictorConfig::Agree {
                history_bits: 5,
                index_bits: 7,
            };
            3
        ];
        configs.extend(vec![
            PredictorConfig::PasInfinite {
                history_bits: 4,
                col_bits: 1,
            };
            3
        ]);
        let results = replay(&configs, &trace(1_200), Simulator::new());
        assert_eq!(results[0], results[1]);
        assert_eq!(results[1], results[2]);
        assert_eq!(results[3], results[4]);
        assert_eq!(results[4], results[5]);
    }

    #[test]
    fn duplicate_multi_structure_configs_get_independent_lanes() {
        let mut configs = vec![
            PredictorConfig::Yags {
                choice_bits: 5,
                cache_bits: 4,
                tag_bits: 3,
            };
            3
        ];
        configs.extend(vec![
            PredictorConfig::Tournament {
                addr_bits: 4,
                history_bits: 5,
                chooser_bits: 3,
            };
            3
        ]);
        configs.extend(vec![
            PredictorConfig::Path {
                row_bits: 4,
                col_bits: 1,
                bits_per_target: 2,
            };
            3
        ]);
        let results = replay(&configs, &trace(1_200), Simulator::new());
        for k in [0, 3, 6] {
            assert_eq!(results[k], results[k + 1]);
            assert_eq!(results[k + 1], results[k + 2]);
        }
    }

    #[test]
    fn lane_tier_counts_label_every_lane() {
        let mut configs = plan_configs();
        configs.extend(grouped_configs());
        let lanes = LaneSet::new(&configs, Simulator::new());
        let counts = lanes.lane_tier_counts();
        assert_eq!(counts.iter().sum::<u64>() as usize, configs.len());
        let of = |label: &str| {
            counts[LANE_TIER_LABELS
                .iter()
                .position(|&l| l == label)
                .expect("known label")]
        };
        if force_scalar() {
            assert_eq!(of("scalar") as usize, configs.len());
            assert_eq!(of("static"), 0, "statics force-scalar too");
        } else {
            assert_eq!(of("scalar"), 0);
            assert_eq!(of("static"), 3);
            for label in ["tournament", "yags", "path", "last-time"] {
                assert_eq!(of(label), 2, "{label}");
            }
        }
    }

    #[test]
    fn spilled_arenas_prefetch_and_match_the_scalar_oracle() {
        // A 2^20-cell gshare arena is 8 MiB, past the spill threshold;
        // 2^19 cells is exactly 4 MiB, which is not.
        let spilled = [PredictorConfig::Gshare {
            history_bits: 20,
            col_bits: 0,
        }];
        let resident = [PredictorConfig::Gshare {
            history_bits: 19,
            col_bits: 0,
        }];
        let on = if force_scalar() { 0 } else { 1 };
        assert_eq!(
            LaneSet::new(&spilled, Simulator::new()).prefetch_groups(),
            on
        );
        assert_eq!(
            LaneSet::new(&resident, Simulator::new()).prefetch_groups(),
            0
        );
        assert_matches_serial(&spilled, &trace(2_500), Simulator::with_warmup(100));
    }

    #[test]
    fn empty_inputs_are_empty_results() {
        assert!(replay(&[], &trace(10), Simulator::new()).is_empty());
        let results = replay(&grouped_configs(), &Trace::new(), Simulator::new());
        assert!(results.iter().all(|r| r.conditionals == 0));
    }

    #[test]
    fn conditional_counts_match_record_decode() {
        let t = trace(501);
        for chunk_len in [1, 7, 16, 500, 501, 502] {
            for chunk in t.chunks(chunk_len) {
                let (cond, taken) = conditional_counts(&chunk);
                let want_cond = chunk.iter().filter(|r| r.is_conditional()).count() as u64;
                let want_taken = chunk
                    .iter()
                    .filter(|r| r.is_conditional() && r.outcome.is_taken())
                    .count() as u64;
                assert_eq!((cond, taken), (want_cond, want_taken));
            }
        }
    }
}
