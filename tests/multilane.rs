//! Bit-identity harness for the multilane replay kernels.
//!
//! [`LaneSet`] (and `bpred::sim::run_configs`, which drives it)
//! promises results bit-identical to the scalar oracle —
//! `Simulator::run` once per configuration — for every
//! `PredictorConfig` variant, every dispatch tier, any lane mix, and
//! any chunking of the stream. These tests enforce that
//! promise; the CI matrix re-runs the whole suite under
//! `BPRED_FORCE_SCALAR=1` so the forced-fallback partition gets the
//! same coverage.

use proptest::prelude::*;

use bpred::core::PredictorConfig;
use bpred::sim::{run_configs, LaneSet, SimResult, Simulator};
use bpred::trace::{BranchKind, BranchRecord, Outcome, Trace, TraceChunk, TraceSource};
use bpred::workloads::suite;

/// One configuration of every `PredictorConfig` variant: the three
/// static schemes ride the record-parallel tier and every dynamic
/// scheme — including the multi-structure tournament/YAGS/path/
/// last-time plans — dispatches to a fused group.
fn every_variant() -> Vec<PredictorConfig> {
    vec![
        PredictorConfig::AlwaysTaken,
        PredictorConfig::AlwaysNotTaken,
        PredictorConfig::Btfn,
        PredictorConfig::LastTime { addr_bits: 6 },
        PredictorConfig::AddressIndexed { addr_bits: 6 },
        PredictorConfig::Gas {
            history_bits: 6,
            col_bits: 2,
        },
        PredictorConfig::Gshare {
            history_bits: 7,
            col_bits: 2,
        },
        PredictorConfig::Path {
            row_bits: 6,
            col_bits: 2,
            bits_per_target: 3,
        },
        PredictorConfig::PasInfinite {
            history_bits: 5,
            col_bits: 2,
        },
        PredictorConfig::PasFinite {
            history_bits: 5,
            col_bits: 2,
            entries: 64,
            ways: 2,
        },
        PredictorConfig::Tournament {
            addr_bits: 6,
            history_bits: 6,
            chooser_bits: 6,
        },
        PredictorConfig::Sas {
            history_bits: 5,
            set_bits: 3,
            col_bits: 2,
        },
        PredictorConfig::Agree {
            history_bits: 6,
            index_bits: 8,
        },
        PredictorConfig::BiMode {
            history_bits: 6,
            direction_bits: 7,
            choice_bits: 7,
        },
        PredictorConfig::Gskew {
            history_bits: 6,
            bank_bits: 7,
        },
        PredictorConfig::Yags {
            choice_bits: 7,
            cache_bits: 6,
            tag_bits: 6,
        },
    ]
}

fn serial_reference(
    configs: &[PredictorConfig],
    trace: &Trace,
    simulator: Simulator,
) -> Vec<SimResult> {
    configs
        .iter()
        .map(|config| simulator.run(&mut config.build(), trace))
        .collect()
}

/// One [`LaneSet`] fed `trace.chunks(chunk_len)`.
fn chunked(
    configs: &[PredictorConfig],
    trace: &Trace,
    simulator: Simulator,
    chunk_len: usize,
) -> Vec<SimResult> {
    let mut lanes = LaneSet::new(configs, simulator);
    for chunk in trace.chunks(chunk_len) {
        lanes.replay_chunk(&chunk);
    }
    lanes.finish()
}

#[test]
fn every_variant_matches_the_scalar_oracle() {
    let trace = suite::espresso().scaled(8_000).trace(1996);
    let configs = every_variant();
    let serial = serial_reference(&configs, &trace, Simulator::new());
    let multilane = run_configs(&configs, &trace, Simulator::new());
    assert_eq!(serial, multilane);
}

#[test]
fn every_variant_matches_with_a_mid_stream_warmup() {
    let trace = suite::mpeg_play().scaled(6_000).trace(7);
    let configs = every_variant();
    let simulator = Simulator::with_warmup(1_000);
    let serial = serial_reference(&configs, &trace, simulator);
    let multilane = run_configs(&configs, &trace, simulator);
    assert_eq!(serial, multilane);
}

#[test]
fn chunk_boundaries_never_change_results() {
    // The driver feeds LaneSet chunk by chunk; cover single-record
    // chunks, a coprime length, and the off-by-one
    // straddles of the trace length.
    let trace = suite::mpeg_play().scaled(3_000).trace(11);
    let len = trace.len();
    let configs = every_variant();
    let serial = serial_reference(&configs, &trace, Simulator::new());
    for chunk_len in [1, 7, len - 1, len, len + 1] {
        let chunked = chunked(&configs, &trace, Simulator::new(), chunk_len);
        assert_eq!(serial, chunked, "chunk_len {chunk_len}");
    }
}

#[test]
fn a_group_wider_than_the_packed_lane_limit_splits_cleanly() {
    // 41 direct lanes force a second direct group (the limit is 32
    // lanes), mixed with statics and other plan kinds on both sides
    // of the split.
    let mut configs = vec![PredictorConfig::AlwaysTaken];
    configs.extend((1..=20u32).map(|n| PredictorConfig::Gshare {
        history_bits: n % 9 + 1,
        col_bits: n % 3 + 1,
    }));
    configs.push(PredictorConfig::PasInfinite {
        history_bits: 4,
        col_bits: 2,
    });
    configs.extend((1..=21u32).map(|n| PredictorConfig::Gas {
        history_bits: n % 7 + 1,
        col_bits: n % 4 + 1,
    }));
    configs.push(PredictorConfig::Btfn);
    let trace = suite::sdet().scaled(5_000).trace(3);
    let serial = serial_reference(&configs, &trace, Simulator::new());
    let multilane = run_configs(&configs, &trace, Simulator::new());
    assert_eq!(serial, multilane);
}

#[test]
fn duplicate_configurations_stay_independent() {
    let configs = vec![
        PredictorConfig::Gshare {
            history_bits: 5,
            col_bits: 2,
        };
        5
    ];
    let trace = suite::espresso().scaled(2_000).trace(9);
    let serial = serial_reference(&configs, &trace, Simulator::new());
    let multilane = run_configs(&configs, &trace, Simulator::new());
    assert_eq!(serial, multilane);
    assert!(multilane.windows(2).all(|w| w[0] == w[1]));
}

#[test]
fn lane_set_streams_one_chunk_at_a_time() {
    // Drive LaneSet directly with a reused chunk buffer, as the
    // single-worker driver does.
    let trace = suite::real_gcc().scaled(4_000).trace(17);
    let configs = every_variant();
    let mut lanes = LaneSet::new(&configs, Simulator::new());
    let mut feeder = trace.chunk_feeder();
    let mut chunk = TraceChunk::with_capacity(333);
    while feeder.refill(&mut chunk, 333) > 0 {
        lanes.replay_chunk(&chunk);
    }
    assert_eq!(
        lanes.finish(),
        serial_reference(&configs, &trace, Simulator::new())
    );
}

/// One groupable configuration per table-walk-plan family beyond the
/// single-read Direct shape (Pas perfect/finite, SAs, agree, bi-mode,
/// gskew, and the multi-structure tournament/YAGS/path/last-time
/// plans).
fn plan_family_variants() -> Vec<PredictorConfig> {
    vec![
        PredictorConfig::Tournament {
            addr_bits: 6,
            history_bits: 7,
            chooser_bits: 5,
        },
        PredictorConfig::Yags {
            choice_bits: 7,
            cache_bits: 6,
            tag_bits: 5,
        },
        PredictorConfig::Path {
            row_bits: 7,
            col_bits: 2,
            bits_per_target: 3,
        },
        PredictorConfig::LastTime { addr_bits: 7 },
        PredictorConfig::PasInfinite {
            history_bits: 6,
            col_bits: 2,
        },
        PredictorConfig::PasFinite {
            history_bits: 6,
            col_bits: 2,
            entries: 128,
            ways: 4,
        },
        PredictorConfig::Sas {
            history_bits: 6,
            set_bits: 4,
            col_bits: 2,
        },
        PredictorConfig::Agree {
            history_bits: 7,
            index_bits: 9,
        },
        PredictorConfig::BiMode {
            history_bits: 7,
            direction_bits: 8,
            choice_bits: 8,
        },
        PredictorConfig::Gskew {
            history_bits: 8,
            bank_bits: 8,
        },
    ]
}

#[test]
fn each_plan_family_matches_the_scalar_oracle_alone() {
    // One lane at a time: a failure pins the family instead of the
    // mix.
    let trace = suite::espresso().scaled(6_000).trace(23);
    for config in plan_family_variants() {
        let configs = [config];
        let serial = serial_reference(&configs, &trace, Simulator::new());
        let multilane = run_configs(&configs, &trace, Simulator::new());
        assert_eq!(serial, multilane, "{config}");
    }
}

#[test]
fn plan_families_match_with_warmups_and_chunking() {
    let trace = suite::real_gcc().scaled(4_000).trace(31);
    let len = trace.len();
    let configs = plan_family_variants();
    for warmup in [0, 1, 500, len] {
        let simulator = Simulator::with_warmup(warmup);
        let serial = serial_reference(&configs, &trace, simulator);
        for chunk_len in [1, 13, len - 1, len + 1] {
            let chunked = chunked(&configs, &trace, simulator, chunk_len);
            assert_eq!(serial, chunked, "warmup {warmup} chunk_len {chunk_len}");
        }
    }
}

#[test]
fn a_plan_group_wider_than_the_packed_lane_limit_splits_cleanly() {
    // 41 agree lanes force a second agree group (the limit is 32
    // lanes), interleaved with the other plan
    // families and a multi-structure lane on both sides of the split.
    let mut configs = vec![PredictorConfig::LastTime { addr_bits: 5 }];
    configs.extend((1..=41u32).map(|n| PredictorConfig::Agree {
        history_bits: n % 6,
        index_bits: n % 6 + 3,
    }));
    configs.extend(plan_family_variants());
    configs.push(PredictorConfig::Yags {
        choice_bits: 6,
        cache_bits: 5,
        tag_bits: 6,
    });
    let trace = suite::sdet().scaled(4_000).trace(41);
    let serial = serial_reference(&configs, &trace, Simulator::new());
    let multilane = run_configs(&configs, &trace, Simulator::new());
    assert_eq!(serial, multilane);
}

#[test]
fn duplicate_plan_configurations_stay_independent() {
    let mut configs = vec![
        PredictorConfig::Gskew {
            history_bits: 6,
            bank_bits: 7,
        };
        3
    ];
    configs.extend(vec![
        PredictorConfig::PasInfinite {
            history_bits: 5,
            col_bits: 2,
        };
        3
    ]);
    let trace = suite::espresso().scaled(2_000).trace(13);
    let serial = serial_reference(&configs, &trace, Simulator::new());
    let multilane = run_configs(&configs, &trace, Simulator::new());
    assert_eq!(serial, multilane);
    assert_eq!(multilane[0], multilane[1]);
    assert_eq!(multilane[1], multilane[2]);
    assert_eq!(multilane[3], multilane[4]);
    assert_eq!(multilane[4], multilane[5]);
}

/// A small pool of branch addresses so random traces still alias.
fn arb_record() -> impl Strategy<Value = BranchRecord> {
    (
        0u64..24,
        0u64..8,
        prop::sample::select(vec![
            BranchKind::Conditional,
            BranchKind::Conditional,
            BranchKind::Conditional,
            BranchKind::Unconditional,
            BranchKind::Call,
            BranchKind::Return,
            BranchKind::Indirect,
        ]),
        any::<bool>(),
    )
        .prop_map(|(pc_idx, target_idx, kind, taken)| {
            BranchRecord::new(
                0x1000 + 4 * pc_idx,
                0x2000 + 4 * target_idx,
                kind,
                Outcome::from(taken),
            )
        })
}

/// A configuration drawn from every dispatch tier, with degenerate
/// shapes (zero history, zero columns) included.
fn arb_config() -> impl Strategy<Value = PredictorConfig> {
    prop_oneof![
        Just(PredictorConfig::AlwaysTaken),
        Just(PredictorConfig::AlwaysNotTaken),
        Just(PredictorConfig::Btfn),
        (0u32..8, 0u32..4).prop_map(|(history_bits, col_bits)| PredictorConfig::Gshare {
            history_bits,
            col_bits
        }),
        (0u32..8, 0u32..4).prop_map(|(history_bits, col_bits)| PredictorConfig::Gas {
            history_bits,
            col_bits
        }),
        (0u32..8).prop_map(|addr_bits| PredictorConfig::AddressIndexed { addr_bits }),
        (1u32..6, 1u32..3).prop_map(|(history_bits, col_bits)| PredictorConfig::PasInfinite {
            history_bits,
            col_bits
        }),
        (2u32..6, 2u32..6, 2u32..6).prop_map(|(addr_bits, history_bits, chooser_bits)| {
            PredictorConfig::Tournament {
                addr_bits,
                history_bits,
                chooser_bits,
            }
        }),
        (
            1u32..6,
            0u32..3,
            prop::sample::select(vec![(8u32, 1u32), (16, 2), (16, 16)])
        )
            .prop_map(|(history_bits, col_bits, (entries, ways))| {
                PredictorConfig::PasFinite {
                    history_bits,
                    col_bits,
                    entries,
                    ways,
                }
            }),
        (1u32..6, 0u32..4, 0u32..3).prop_map(|(history_bits, set_bits, col_bits)| {
            PredictorConfig::Sas {
                history_bits,
                set_bits,
                col_bits,
            }
        }),
        // history <= index/direction bits is asserted by the scalar
        // kernels; derive the history from the table shape.
        (1u32..8, 0u32..3).prop_map(|(index_bits, h_back)| PredictorConfig::Agree {
            history_bits: index_bits.saturating_sub(h_back),
            index_bits,
        }),
        (1u32..7, 0u32..3, 0u32..6).prop_map(|(direction_bits, h_back, choice_bits)| {
            PredictorConfig::BiMode {
                history_bits: direction_bits.saturating_sub(h_back),
                direction_bits,
                choice_bits,
            }
        }),
        (0u32..10, 1u32..8).prop_map(|(history_bits, bank_bits)| PredictorConfig::Gskew {
            history_bits,
            bank_bits,
        }),
        (0u32..8).prop_map(|addr_bits| PredictorConfig::LastTime { addr_bits }),
        // bits_per_target is asserted 1..=16 by the path register.
        (0u32..8, 0u32..3, 1u32..5).prop_map(|(row_bits, col_bits, bits_per_target)| {
            PredictorConfig::Path {
                row_bits,
                col_bits,
                bits_per_target,
            }
        }),
        // tag_bits is asserted 1..=8 by the scalar kernel.
        (0u32..7, 0u32..7, 1u32..=8).prop_map(|(choice_bits, cache_bits, tag_bits)| {
            PredictorConfig::Yags {
                choice_bits,
                cache_bits,
                tag_bits,
            }
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any trace, any lane mix, any warmup, any chunking: the
    /// multilane kernels are bit-identical to the scalar oracle.
    #[test]
    fn multilane_matches_serial_on_arbitrary_lane_mixes(
        records in prop::collection::vec(arb_record(), 1..200),
        configs in prop::collection::vec(arb_config(), 1..12),
        warmup in 0usize..150,
        chunk_extra in 0usize..4,
    ) {
        let trace: Trace = records.into_iter().collect();
        let len = trace.len();
        let simulator = Simulator::with_warmup(warmup);
        let serial = serial_reference(&configs, &trace, simulator);
        prop_assert_eq!(
            &serial,
            &run_configs(&configs, &trace, simulator),
            "run_configs"
        );
        for chunk_len in [1, 7, len.max(2) - 1, len + chunk_extra] {
            if chunk_len == 0 {
                continue;
            }
            let chunked = chunked(&configs, &trace, simulator, chunk_len);
            prop_assert_eq!(&serial, &chunked, "chunk_len {}", chunk_len);
        }
    }

    /// Every configuration the grammar can produce has a fused group:
    /// only `BPRED_FORCE_SCALAR` puts lanes on the scalar tier.
    #[test]
    fn no_config_falls_back_to_the_scalar_tier(config in arb_config()) {
        let lanes = LaneSet::new(&[config], Simulator::new());
        let forced = usize::from(bpred::sim::dispatch_tier() == "scalar");
        prop_assert_eq!(lanes.scalar_lanes(), forced, "{}", config);
    }
}
