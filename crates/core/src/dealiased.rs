//! Dealiased predictors — the designs the paper's conclusion calls
//! for ("controlling aliasing will be the key to improving prediction
//! accuracy and taking advantage of inter-branch correlations").
//!
//! Three post-1996 schemes built directly on that observation:
//!
//! * [`Agree`] (Sprangle, Chappell, Alsup & Patt, ISCA 1997): counters
//!   record *agreement with a per-branch bias bit* instead of a
//!   direction, converting destructive aliasing between opposite-bias
//!   branches into neutral aliasing.
//! * [`BiMode`] (Lee, Chen & Mudge — this paper's own group —
//!   MICRO 1997): two gshare-indexed direction tables ("mostly taken"
//!   and "mostly not-taken") with a per-address choice table, so
//!   branches of opposite bias never share a counter.
//! * [`Gskew`] (Michaud, Seznec & Uhlig, ISCA 1997): three counter
//!   banks indexed by different hashes of (address, history) with a
//!   majority vote; two branches rarely collide in two banks at once.
//!
//! All three are evaluated by the `ablation_dealiased` harness against
//! gshare at equal state.

use std::collections::HashMap;

use bpred_trace::Outcome;

use crate::history::low_mask;
use crate::plan::SKEW_BANK_MULTIPLIERS;
use crate::{AliasStats, BranchPredictor, CounterTable, HistoryRegister, TableGeometry};

/// The agree predictor: a gshare-indexed table of two-bit counters
/// that predict whether the branch will *agree* with its bias bit.
///
/// The bias bit is per-branch and set once, from the first observed
/// outcome — Sprangle et al. keep it in the BTB, which is tagged, so
/// it does not alias; we model that with a map. Aliasing between two
/// branches that both mostly agree with their own biases trains the
/// shared *counter* in the same direction — harmless — even when the
/// branches go opposite ways.
///
/// # Examples
///
/// ```
/// use bpred_core::{Agree, BranchPredictor};
/// use bpred_trace::Outcome;
///
/// let mut p = Agree::new(8, 10);
/// let _ = p.predict(0x400, 0x100);
/// p.update(0x400, 0x100, Outcome::Taken);
/// assert_eq!(p.name(), "agree(h=8, 2^10)");
/// ```
#[derive(Debug, Clone)]
pub struct Agree {
    history: HistoryRegister,
    table: CounterTable,
    /// BTB-resident per-branch bias bits, latched at first execution.
    bias: HashMap<u64, Outcome>,
}

impl Agree {
    /// Creates an agree predictor with `history_bits` of global
    /// history and a `2^index_bits`-counter agreement table.
    pub fn new(history_bits: u32, index_bits: u32) -> Self {
        assert!(
            history_bits <= index_bits,
            "history ({history_bits}) must fit in the index ({index_bits})"
        );
        Agree {
            history: HistoryRegister::new(history_bits),
            table: CounterTable::new(TableGeometry::new(index_bits, 0)),
            bias: HashMap::new(),
        }
    }

    fn index(&self, pc: u64) -> u64 {
        let word = pc >> 2;
        self.history.bits() ^ (word & low_mask(self.table.geometry().row_bits()))
    }

    fn bias_for(&self, pc: u64) -> Outcome {
        // An unseen branch defaults to taken (most branches are).
        self.bias.get(&pc).copied().unwrap_or(Outcome::Taken)
    }
}

impl BranchPredictor for Agree {
    fn predict(&mut self, pc: u64, _target: u64) -> Outcome {
        let agree = self
            .table
            .access(self.index(pc), 0, pc, self.history.is_all_taken());
        let bias = self.bias_for(pc);
        if agree.is_taken() {
            bias
        } else {
            !bias
        }
    }

    fn update(&mut self, pc: u64, _target: u64, outcome: Outcome) {
        self.bias.entry(pc).or_insert(outcome);
        let bias = self.bias_for(pc);
        let agreement = Outcome::from(outcome == bias);
        self.table.train(self.index(pc), 0, agreement);
        self.history.push(outcome);
    }

    fn name(&self) -> String {
        format!(
            "agree(h={}, 2^{})",
            self.history.width(),
            self.table.geometry().row_bits()
        )
    }

    fn state_bits(&self) -> u64 {
        // One BTB-resident bias bit per tracked branch.
        self.table.state_bits() + self.bias.len() as u64 + u64::from(self.history.width())
    }

    fn alias_stats(&self) -> Option<AliasStats> {
        Some(self.table.alias_stats())
    }
}

/// The bi-mode predictor: a per-address choice table steers each
/// branch to one of two gshare-indexed direction tables, so
/// taken-leaning and not-taken-leaning branches never share counters.
///
/// # Examples
///
/// ```
/// use bpred_core::{BiMode, BranchPredictor};
///
/// let mut p = BiMode::new(9, 9, 9);
/// assert_eq!(p.name(), "bimode(h=9, 2x2^9 + choice 2^9)");
/// let _ = p.predict(0x400, 0x100);
/// ```
#[derive(Debug, Clone)]
pub struct BiMode {
    history: HistoryRegister,
    taken_table: CounterTable,
    not_taken_table: CounterTable,
    choice: CounterTable,
}

impl BiMode {
    /// Creates a bi-mode predictor: `history_bits` of global history,
    /// two `2^direction_bits`-counter direction tables, and a
    /// `2^choice_bits`-counter address-indexed choice table.
    pub fn new(history_bits: u32, direction_bits: u32, choice_bits: u32) -> Self {
        assert!(
            history_bits <= direction_bits,
            "history ({history_bits}) must fit in the direction index ({direction_bits})"
        );
        BiMode {
            history: HistoryRegister::new(history_bits),
            taken_table: CounterTable::new(TableGeometry::new(direction_bits, 0)),
            not_taken_table: CounterTable::new(TableGeometry::new(direction_bits, 0)),
            choice: CounterTable::new(TableGeometry::new(0, choice_bits)),
        }
    }

    fn direction_index(&self, pc: u64) -> u64 {
        let word = pc >> 2;
        self.history.bits() ^ (word & low_mask(self.taken_table.geometry().row_bits()))
    }

    fn choose_taken_table(&self, pc: u64) -> bool {
        self.choice.peek(0, pc >> 2).is_taken()
    }
}

impl BranchPredictor for BiMode {
    fn predict(&mut self, pc: u64, _target: u64) -> Outcome {
        let idx = self.direction_index(pc);
        let all_taken = self.history.is_all_taken();
        if self.choose_taken_table(pc) {
            self.taken_table.access(idx, 0, pc, all_taken)
        } else {
            self.not_taken_table.access(idx, 0, pc, all_taken)
        }
    }

    fn update(&mut self, pc: u64, _target: u64, outcome: Outcome) {
        let idx = self.direction_index(pc);
        let use_taken = self.choose_taken_table(pc);
        let selected_prediction = if use_taken {
            self.taken_table.peek(idx, 0)
        } else {
            self.not_taken_table.peek(idx, 0)
        };
        // Train the selected direction table.
        if use_taken {
            self.taken_table.train(idx, 0, outcome);
        } else {
            self.not_taken_table.train(idx, 0, outcome);
        }
        // Train the choice table towards the outcome, except when the
        // choice disagreed with the outcome but the selected table
        // still predicted correctly (the classic bi-mode exception).
        let choice_direction = Outcome::from(use_taken);
        let exception = choice_direction != outcome && selected_prediction == outcome;
        if !exception {
            self.choice.train(0, pc >> 2, outcome);
        }
        self.history.push(outcome);
    }

    fn name(&self) -> String {
        format!(
            "bimode(h={}, 2x2^{} + choice 2^{})",
            self.history.width(),
            self.taken_table.geometry().row_bits(),
            self.choice.geometry().col_bits()
        )
    }

    fn state_bits(&self) -> u64 {
        self.taken_table.state_bits()
            + self.not_taken_table.state_bits()
            + self.choice.state_bits()
            + u64::from(self.history.width())
    }

    fn alias_stats(&self) -> Option<AliasStats> {
        let mut total = self.taken_table.alias_stats();
        total += self.not_taken_table.alias_stats();
        Some(total)
    }
}

/// The gskew predictor: three counter banks indexed by different
/// hashes of the (address, history) pair; the prediction is the
/// majority vote. Two branches that collide in one bank almost never
/// collide in the other two, so the vote masks single-bank aliasing.
///
/// The per-bank hashes are odd-multiplier mixes rather than Michaud et
/// al.'s exact skewing matrices; what matters for the dealiasing
/// argument is that the three index functions are pairwise
/// independent, which multiplicative hashing provides.
///
/// # Examples
///
/// ```
/// use bpred_core::{BranchPredictor, Gskew};
///
/// let mut p = Gskew::new(8, 9);
/// assert_eq!(p.name(), "gskew(h=8, 3x2^9)");
/// let _ = p.predict(0x400, 0x100);
/// ```
#[derive(Debug, Clone)]
pub struct Gskew {
    history: HistoryRegister,
    banks: [CounterTable; 3],
}

impl Gskew {
    /// Creates a gskew predictor: `history_bits` of global history and
    /// three `2^bank_bits`-counter banks.
    pub fn new(history_bits: u32, bank_bits: u32) -> Self {
        assert!(
            (1..=24).contains(&bank_bits),
            "gskew banks need 1..=24 index bits, got {bank_bits}"
        );
        let geometry = TableGeometry::new(bank_bits, 0);
        Gskew {
            history: HistoryRegister::new(history_bits),
            banks: [
                CounterTable::new(geometry),
                CounterTable::new(geometry),
                CounterTable::new(geometry),
            ],
        }
    }

    fn bank_index(&self, bank: usize, pc: u64) -> u64 {
        let bits = self.banks[bank].geometry().row_bits();
        let key = ((pc >> 2) << 20) ^ self.history.bits();
        (key.wrapping_mul(SKEW_BANK_MULTIPLIERS[bank])) >> (64 - bits)
    }
}

impl BranchPredictor for Gskew {
    fn predict(&mut self, pc: u64, _target: u64) -> Outcome {
        let all_taken = self.history.is_all_taken();
        let mut votes = 0u32;
        for bank in 0..3 {
            let idx = self.bank_index(bank, pc);
            if self.banks[bank].access(idx, 0, pc, all_taken).is_taken() {
                votes += 1;
            }
        }
        Outcome::from(votes >= 2)
    }

    fn update(&mut self, pc: u64, _target: u64, outcome: Outcome) {
        // Total update policy: every bank trains on every branch.
        for bank in 0..3 {
            let idx = self.bank_index(bank, pc);
            self.banks[bank].train(idx, 0, outcome);
        }
        self.history.push(outcome);
    }

    fn name(&self) -> String {
        format!(
            "gskew(h={}, 3x2^{})",
            self.history.width(),
            self.banks[0].geometry().row_bits()
        )
    }

    fn state_bits(&self) -> u64 {
        self.banks.iter().map(CounterTable::state_bits).sum::<u64>()
            + u64::from(self.history.width())
    }

    fn alias_stats(&self) -> Option<AliasStats> {
        let mut total = AliasStats::default();
        for bank in &self.banks {
            total += bank.alias_stats();
        }
        Some(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step<P: BranchPredictor + ?Sized>(p: &mut P, pc: u64, outcome: Outcome) -> Outcome {
        let predicted = p.predict(pc, 0x100);
        p.update(pc, 0x100, outcome);
        predicted
    }

    /// Two strongly opposite branches forced onto the same gshare
    /// counter thrash; each dealiased scheme must survive the overlap.
    fn opposed_pair_misses<P: BranchPredictor>(p: &mut P) -> u32 {
        let mut wrong = 0;
        for i in 0..600u32 {
            // Identical low address bits & shared history pattern.
            for (pc, out) in [
                (0x1000u64, Outcome::Taken),
                (0x1000 + (1 << 14), Outcome::NotTaken),
            ] {
                if i >= 50 && step(p, pc, out) != out {
                    wrong += 1;
                }
            }
        }
        wrong
    }

    #[test]
    fn agree_learns_opposite_biases_under_aliasing() {
        let mut agree = Agree::new(0, 4); // tiny table, heavy aliasing
        let wrong = opposed_pair_misses(&mut agree);
        // Both branches agree with their own bias bits; the shared
        // counter trains toward "agree" for both.
        assert!(wrong < 20, "agree mispredicted {wrong}");
    }

    #[test]
    fn agree_infers_bias_from_first_outcome() {
        let mut p = Agree::new(2, 6);
        step(&mut p, 0x40, Outcome::NotTaken);
        // Bias latched to not-taken; agreement keeps predicting it.
        for _ in 0..10 {
            assert_eq!(step(&mut p, 0x40, Outcome::NotTaken), Outcome::NotTaken);
        }
    }

    #[test]
    fn bimode_separates_opposite_bias_branches() {
        let mut bimode = BiMode::new(4, 4, 8);
        let wrong = opposed_pair_misses(&mut bimode);
        assert!(wrong < 60, "bimode mispredicted {wrong}");
    }

    #[test]
    fn bimode_choice_table_routes_by_address() {
        let mut p = BiMode::new(2, 4, 4);
        for _ in 0..30 {
            step(&mut p, 0x40, Outcome::Taken);
            step(&mut p, 0x44, Outcome::NotTaken);
        }
        assert!(p.choose_taken_table(0x40));
        assert!(!p.choose_taken_table(0x44));
    }

    #[test]
    fn gskew_majority_masks_single_bank_aliasing() {
        let mut gskew = Gskew::new(4, 6);
        let mut gshare = crate::Gshare::new(4, 2); // matched 3*64 vs 64... comparable scale
        let skew_wrong = opposed_pair_misses(&mut gskew);
        let share_wrong = opposed_pair_misses(&mut gshare);
        // The vote should not do worse than the aliased single table.
        assert!(
            skew_wrong <= share_wrong + 10,
            "{skew_wrong} vs {share_wrong}"
        );
    }

    #[test]
    fn gskew_banks_use_distinct_indices() {
        let p = Gskew::new(6, 8);
        let (a, b, c) = (
            p.bank_index(0, 0x1234),
            p.bank_index(1, 0x1234),
            p.bank_index(2, 0x1234),
        );
        assert!(a != b || b != c, "degenerate bank hashing");
        for bank in 0..3 {
            assert!(p.bank_index(bank, 0x1234) < 256);
        }
    }

    #[test]
    fn all_learn_a_simple_biased_branch() {
        let mut agree = Agree::new(4, 8);
        let mut bimode = BiMode::new(4, 8, 8);
        let mut gskew = Gskew::new(4, 8);
        for p in [
            &mut agree as &mut dyn BranchPredictor,
            &mut bimode,
            &mut gskew,
        ] {
            let mut wrong = 0;
            for i in 0..200u32 {
                if step(p, 0x80, Outcome::Taken) != Outcome::Taken && i > 4 {
                    wrong += 1;
                }
            }
            assert_eq!(wrong, 0, "{}", p.name());
        }
    }

    #[test]
    fn state_bits_account_all_tables() {
        assert_eq!(Agree::new(4, 6).state_bits(), 2 * 64 + 4);
        assert_eq!(BiMode::new(4, 6, 5).state_bits(), 2 * 64 * 2 + 2 * 32 + 4);
        assert_eq!(Gskew::new(4, 6).state_bits(), 3 * 2 * 64 + 4);
    }

    #[test]
    fn alias_stats_are_reported() {
        let mut p = Gskew::new(2, 4);
        step(&mut p, 0x40, Outcome::Taken);
        step(&mut p, 0x44, Outcome::Taken);
        let stats = BranchPredictor::alias_stats(&p).unwrap();
        assert_eq!(stats.accesses, 6); // 3 banks x 2 branches
    }

    #[test]
    fn names_describe_configuration() {
        assert_eq!(Agree::new(8, 10).name(), "agree(h=8, 2^10)");
        assert_eq!(
            BiMode::new(9, 10, 11).name(),
            "bimode(h=9, 2x2^10 + choice 2^11)"
        );
        assert_eq!(Gskew::new(7, 9).name(), "gskew(h=7, 3x2^9)");
    }
}
