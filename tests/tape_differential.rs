//! Differential torture suite for the compiled instruction-tape engines.
//!
//! The tape is the workspace's one lane-parallel engine. It claims
//! bit-identical semantics with the serial graph engine
//! (`pe_sim::Simulator`, the golden reference) at every lane width — the
//! serial tape is literally the 1-lane (`bool` lane word) instantiation
//! of the wide interpreter, and the same compiled program must run
//! bit-identically at 64, 128, and 256 lanes. The graph reference at
//! width `W` is `W` fresh serial graph runs, lane `l` replaying stimulus
//! shard `l`. This suite enforces the claim:
//!
//! * serial tape vs serial graph on every output, every cycle, for the
//!   full seven-design benchmark suite;
//! * wide tape (plain and optimized) vs the graph reference on every
//!   lane of seeded per-lane stimulus shards, at 1, 64, 128, and 256
//!   lanes;
//! * gate-level switching energy and gate/LUT outputs with tape lanes
//!   supplying the stimulus (bit-exact f64 on spot lanes, at every
//!   width);
//! * instrumented `read_energy_fj` per lane through the generic readout
//!   (wide tape vs serial graph runs, at every width);
//! * the two-state defect designs (uninitialized registers) compile and
//!   match the graph reference at every width;
//! * structurally broken designs are rejected at compile time with the
//!   same diagnosed reason the lint engine reports.
//!
//! Cycle budgets scale down with lane width so each width instantiation
//! does comparable total work. Every assertion names the design,
//! signal, width, lane, and first diverging cycle, so a red run points
//! straight at the divergence.

use pe_util::lanes::LaneWord;
use power_emulation::designs::defects::{
    defect_benchmark, structural_defect_design, DEFECT_NAMES, STRUCTURAL_DEFECT_NAMES,
};
use power_emulation::designs::suite::{all_benchmarks, benchmark, Benchmark, Scale};
use power_emulation::fpga::emulate::LutSimulator;
use power_emulation::fpga::lut::map_to_luts;
use power_emulation::gate::cells::CellLibrary;
use power_emulation::gate::expand::expand_design;
use power_emulation::gate::GateSimulator;
use power_emulation::sim::Simulator;
use power_emulation::tape::{Tape, TapeSimulator, WideTapeSimulator};

/// Cycles compared per design (MPEG4 is the expensive one), scaled down
/// for the wider lane words so each width costs roughly the same wall
/// clock.
fn budget(name: &str, lanes: usize) -> u64 {
    let base = match name {
        "MPEG4" => 250,
        _ => 600,
    };
    base / (lanes as u64 / 64).max(1)
}

/// Spot lanes probing both ends and the middle of a word, deduplicated
/// for narrow words.
fn spot_lanes(lanes: usize) -> Vec<usize> {
    let mut spots = vec![0usize, lanes / 4, lanes - 1];
    spots.dedup();
    spots
}

/// The design's output ports as `(name, signal)` pairs.
fn outputs(bench: &Benchmark) -> Vec<(String, power_emulation::rtl::SignalId)> {
    bench
        .design
        .outputs()
        .iter()
        .map(|p| (p.name().to_string(), p.signal()))
        .collect()
}

/// Input ports as `(name, signal)` pairs.
fn inputs(bench: &Benchmark) -> Vec<(String, power_emulation::rtl::SignalId)> {
    bench
        .design
        .inputs()
        .iter()
        .map(|p| (p.name().to_string(), p.signal()))
        .collect()
}

/// Runs `tape` at width `W` beside the graph reference — one fresh
/// serial graph run per lane, lane `l` replaying shard `l` — and asserts
/// every output of every lane on every cycle. `what` names the tape in
/// failure messages.
fn assert_tape_lanes_match_serial<W: LaneWord>(
    bench: &Benchmark,
    tape: &Tape,
    cycles: u64,
    what: &str,
) {
    let outs = outputs(bench);
    let mut taped = WideTapeSimulator::<W>::new(tape);
    let mut serials: Vec<Simulator<'_>> = (0..W::LANES)
        .map(|_| Simulator::new(&bench.design).expect("serial sim"))
        .collect();
    let mut tape_tbs = bench.testbench_shards(cycles, W::LANES);
    let mut serial_tbs = bench.testbench_shards(cycles, W::LANES);

    for cycle in 0..cycles {
        for lane in 0..W::LANES {
            tape_tbs[lane].apply(cycle, &mut taped.lane(lane));
            serial_tbs[lane].apply(cycle, &mut serials[lane]);
        }
        for lane in 0..W::LANES {
            tape_tbs[lane].observe(cycle, &mut taped.lane(lane));
            serial_tbs[lane].observe(cycle, &mut serials[lane]);
        }
        for (name, sig) in &outs {
            for (lane, serial) in serials.iter_mut().enumerate() {
                let got = taped.value_lane(*sig, lane);
                let want = serial.value(*sig);
                assert_eq!(
                    got,
                    want,
                    "{}::{name} diverged on the {what}: width {}, lane {lane}, \
                     first at cycle {cycle} (tape {got:#x}, serial {want:#x})",
                    bench.name,
                    W::LANES
                );
            }
        }
        taped.step();
        for s in &mut serials {
            s.step();
        }
    }
}

/// The serial tape interpreter reproduces the serial graph engine on
/// every output, every cycle, across the whole suite.
#[test]
fn serial_tape_matches_serial_graph_on_every_output() {
    for bench in all_benchmarks() {
        let cycles = budget(bench.name, 64).min(bench.cycles(Scale::Test));
        let outs = outputs(&bench);
        let tape = Tape::compile(&bench.design).expect("tape compiles");

        let mut graph = Simulator::new(&bench.design).expect("serial sim");
        let mut taped = TapeSimulator::new(&tape);
        let mut graph_tb = bench.testbench(cycles);
        let mut tape_tb = bench.testbench(cycles);

        for cycle in 0..cycles {
            graph_tb.apply(cycle, &mut graph);
            tape_tb.apply(cycle, &mut taped);
            graph_tb.observe(cycle, &mut graph);
            tape_tb.observe(cycle, &mut taped);
            for (name, sig) in &outs {
                let got = taped.value(*sig);
                let want = graph.value(*sig);
                assert_eq!(
                    got, want,
                    "{}::{name} diverged: first at cycle {cycle} \
                     (tape {got:#x}, graph {want:#x})",
                    bench.name
                );
            }
            graph.step();
            taped.step();
        }
    }
}

/// Every lane of the wide tape interpreter reproduces a fresh serial
/// graph run of its stimulus shard, output for output, cycle for cycle —
/// on the *same* compiled tape at each width.
fn wide_tape_matches_wide_graph_at<W: LaneWord>() {
    for bench in all_benchmarks() {
        let cycles = budget(bench.name, W::LANES).min(bench.cycles(Scale::Test));
        let tape = Tape::compile(&bench.design).expect("tape compiles");
        assert_tape_lanes_match_serial::<W>(&bench, &tape, cycles, "tape");
    }
}

#[test]
fn wide_tape_matches_wide_graph_at_1_lane() {
    wide_tape_matches_wide_graph_at::<bool>();
}

#[test]
fn wide_tape_matches_wide_graph_at_64_lanes() {
    wide_tape_matches_wide_graph_at::<u64>();
}

#[test]
fn wide_tape_matches_wide_graph_at_128_lanes() {
    wide_tape_matches_wide_graph_at::<[u64; 2]>();
}

#[test]
fn wide_tape_matches_wide_graph_at_256_lanes() {
    wide_tape_matches_wide_graph_at::<[u64; 4]>();
}

/// Gate-level switching energy is bit-exact when the stimulus comes
/// through tape lanes: on spot lanes, a serial gate engine fed by the
/// wide tape's settled input lanes matches one fed by a fresh serial
/// graph run of the same shard, energy for energy. The tape-fed gate-
/// and LUT-level engines also reproduce the tape lane's outputs, so the
/// synthesis path preserves behaviour on non-canonical shards too.
fn gate_energy_from_tape_lanes_at<W: LaneWord>() {
    let cells = CellLibrary::cmos130();
    for name in ["Bubble_Sort", "Vld", "DCT"] {
        let bench = benchmark(name).unwrap();
        let cycles = 200 / (W::LANES as u64 / 64).max(1);
        let expanded = expand_design(&bench.design);
        let mapped = map_to_luts(&expanded.netlist);
        let ins = inputs(&bench);
        let outs = outputs(&bench);
        let tape = Tape::compile(&bench.design).expect("tape compiles");

        let mut rtl = WideTapeSimulator::<W>::new(&tape);
        let mut tbs = bench.testbench_shards(cycles, W::LANES);
        let spots = spot_lanes(W::LANES);
        let mut tape_gates: Vec<GateSimulator<'_>> = spots
            .iter()
            .map(|_| GateSimulator::new(&expanded, &cells))
            .collect();
        let mut luts: Vec<LutSimulator<'_>> =
            spots.iter().map(|_| LutSimulator::new(&mapped)).collect();
        let mut serials: Vec<Simulator<'_>> = spots
            .iter()
            .map(|_| Simulator::new(&bench.design).expect("serial sim"))
            .collect();
        let mut serial_tbs: Vec<_> = spots
            .iter()
            .map(|&lane| bench.testbench_shard(cycles, lane as u64))
            .collect();
        let mut serial_gates: Vec<GateSimulator<'_>> = spots
            .iter()
            .map(|_| GateSimulator::new(&expanded, &cells))
            .collect();

        for cycle in 0..cycles {
            for (lane, tb) in tbs.iter_mut().enumerate() {
                tb.apply(cycle, &mut rtl.lane(lane));
                tb.observe(cycle, &mut rtl.lane(lane));
            }
            for (si, &lane) in spots.iter().enumerate() {
                serial_tbs[si].apply(cycle, &mut serials[si]);
                serial_tbs[si].observe(cycle, &mut serials[si]);
                for (pname, sig) in &ins {
                    let v = rtl.value_lane(*sig, lane);
                    tape_gates[si].try_set_input(pname, v).unwrap();
                    luts[si].set_input(pname, v);
                    serial_gates[si]
                        .try_set_input(pname, serials[si].value(*sig))
                        .unwrap();
                }
                for (pname, sig) in &outs {
                    let want = rtl.value_lane(*sig, lane);
                    assert_eq!(
                        tape_gates[si].try_output(pname).unwrap(),
                        want,
                        "{name}::{pname} diverged at gate level: width {}, lane {lane}, \
                         first at cycle {cycle}",
                        W::LANES
                    );
                    assert_eq!(
                        luts[si].output(pname),
                        want,
                        "{name}::{pname} diverged at LUT level: width {}, lane {lane}, \
                         first at cycle {cycle}",
                        W::LANES
                    );
                }
            }
            rtl.step();
            for (si, &lane) in spots.iter().enumerate() {
                serials[si].step();
                luts[si].step();
                let got = tape_gates[si].step();
                let want = serial_gates[si].step();
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "{name} gate energy diverged: width {}, lane {lane}, \
                     first at cycle {cycle} (tape-fed {got} fJ, serial {want} fJ)",
                    W::LANES
                );
            }
        }
        for (si, &lane) in spots.iter().enumerate() {
            assert_eq!(
                tape_gates[si].total_energy_fj().to_bits(),
                serial_gates[si].total_energy_fj().to_bits(),
                "{name} total gate energy diverged: width {}, lane {lane}",
                W::LANES
            );
        }
    }
}

#[test]
fn gate_energy_from_tape_lanes_is_bit_exact_at_1_lane() {
    gate_energy_from_tape_lanes_at::<bool>();
}

#[test]
fn gate_energy_from_tape_lanes_is_bit_exact_at_64_lanes() {
    gate_energy_from_tape_lanes_at::<u64>();
}

#[test]
fn gate_energy_from_tape_lanes_is_bit_exact_at_128_lanes() {
    gate_energy_from_tape_lanes_at::<[u64; 2]>();
}

#[test]
fn gate_energy_from_tape_lanes_is_bit_exact_at_256_lanes() {
    gate_energy_from_tape_lanes_at::<[u64; 4]>();
}

/// The instrumented design's hardware energy readout is bit-exactly
/// equal per lane between a wide tape run and fresh serial graph runs —
/// the same generic readout drives both engines at every width.
fn instrumented_readout_on_tape_at<W: LaneWord>() {
    use power_emulation::core::PowerEmulationFlow;
    use power_emulation::power::CharacterizeConfig;

    for name in ["Bubble_Sort", "HVPeakF"] {
        let bench = benchmark(name).unwrap();
        let cycles = 200 / (W::LANES as u64 / 64).max(1);
        let flow = PowerEmulationFlow::new().with_characterize(CharacterizeConfig::fast());
        flow.prepare_models(&bench.design).expect("characterize");
        let (instrumented, _) = flow.stage_instrument(&bench.design).expect("instrument");
        let tape = Tape::compile(&instrumented.design).expect("instrumented tape compiles");

        let mut wide = WideTapeSimulator::<W>::new(&tape);
        let mut serials: Vec<Simulator<'_>> = (0..W::LANES)
            .map(|_| Simulator::new(&instrumented.design).expect("serial sim"))
            .collect();
        let mut wide_tbs = bench.testbench_shards(cycles, W::LANES);
        let mut serial_tbs = bench.testbench_shards(cycles, W::LANES);

        for cycle in 0..cycles {
            for lane in 0..W::LANES {
                wide_tbs[lane].apply(cycle, &mut wide.lane(lane));
                serial_tbs[lane].apply(cycle, &mut serials[lane]);
            }
            wide.step();
            for s in &mut serials {
                s.step();
            }
            if cycle % 50 != 49 {
                continue;
            }
            for (lane, serial) in serials.iter_mut().enumerate() {
                let got = instrumented.read_energy_fj_lane(&mut wide, lane);
                let want = instrumented.read_energy_fj(serial);
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "{name} instrumented energy diverged: width {}, lane {lane}, \
                     first at cycle {cycle} (tape {got} fJ, serial {want} fJ)",
                    W::LANES
                );
            }
        }
    }
}

#[test]
fn instrumented_energy_readout_matches_per_lane_on_tape_at_1_lane() {
    instrumented_readout_on_tape_at::<bool>();
}

#[test]
fn instrumented_energy_readout_matches_per_lane_on_tape_at_64_lanes() {
    instrumented_readout_on_tape_at::<u64>();
}

#[test]
fn instrumented_energy_readout_matches_per_lane_on_tape_at_128_lanes() {
    instrumented_readout_on_tape_at::<[u64; 2]>();
}

#[test]
fn instrumented_energy_readout_matches_per_lane_on_tape_at_256_lanes() {
    instrumented_readout_on_tape_at::<[u64; 4]>();
}

/// The serial tape also matches the graph engine through the
/// instrumented serial readout path (same `SimControl` generic).
#[test]
fn instrumented_serial_readout_matches_on_tape() {
    use power_emulation::core::PowerEmulationFlow;
    use power_emulation::power::CharacterizeConfig;

    let bench = benchmark("Bubble_Sort").unwrap();
    let cycles = 200;
    let flow = PowerEmulationFlow::new().with_characterize(CharacterizeConfig::fast());
    flow.prepare_models(&bench.design).expect("characterize");
    let (instrumented, _) = flow.stage_instrument(&bench.design).expect("instrument");
    let tape = Tape::compile(&instrumented.design).expect("instrumented tape compiles");

    let mut graph = Simulator::new(&instrumented.design).expect("serial sim");
    let mut taped = TapeSimulator::new(&tape);
    let mut graph_tb = bench.testbench(cycles);
    let mut tape_tb = bench.testbench(cycles);

    for cycle in 0..cycles {
        graph_tb.apply(cycle, &mut graph);
        tape_tb.apply(cycle, &mut taped);
        graph.step();
        taped.step();
        if cycle % 50 != 49 {
            continue;
        }
        let got = instrumented.read_energy_fj(&mut taped);
        let want = instrumented.read_energy_fj(&mut graph);
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "Bubble_Sort instrumented energy diverged on the serial tape at cycle {cycle} \
             (tape {got} fJ, graph {want} fJ)"
        );
    }
}

/// The two-state defect designs (uninitialized registers, X-steered
/// muxes) compile to tapes and match the graph reference at every lane
/// width — the tape honors two-state power-on semantics.
fn two_state_defects_match_at<W: LaneWord>() {
    for name in DEFECT_NAMES {
        let bench = defect_benchmark(name).unwrap();
        let cycles = 100 / (W::LANES as u64 / 64).max(1);
        let tape = Tape::compile(&bench.design)
            .unwrap_or_else(|e| panic!("{name} must compile under two-state semantics: {e}"));
        assert_tape_lanes_match_serial::<W>(&bench, &tape, cycles, "tape");
    }
}

/// Serial leg of the two-state defect matrix: the `TapeSimulator`
/// wrapper (the 1-lane instantiation) against the serial graph engine.
#[test]
fn two_state_defect_designs_match_on_serial_tape() {
    for name in DEFECT_NAMES {
        let bench = defect_benchmark(name).unwrap();
        let cycles = 100;
        let outs = outputs(&bench);
        let tape = Tape::compile(&bench.design)
            .unwrap_or_else(|e| panic!("{name} must compile under two-state semantics: {e}"));

        let mut graph = Simulator::new(&bench.design).expect("serial sim");
        let mut taped = TapeSimulator::new(&tape);
        let mut graph_tb = bench.testbench(cycles);
        let mut tape_tb = bench.testbench(cycles);
        for cycle in 0..cycles {
            graph_tb.apply(cycle, &mut graph);
            tape_tb.apply(cycle, &mut taped);
            for (pname, sig) in &outs {
                assert_eq!(
                    taped.value(*sig),
                    graph.value(*sig),
                    "{name}::{pname} diverged: first at cycle {cycle}"
                );
            }
            graph.step();
            taped.step();
        }
    }
}

#[test]
fn two_state_defect_designs_match_on_tape_at_1_lane() {
    two_state_defects_match_at::<bool>();
}

#[test]
fn two_state_defect_designs_match_on_tape_at_64_lanes() {
    two_state_defects_match_at::<u64>();
}

#[test]
fn two_state_defect_designs_match_on_tape_at_128_lanes() {
    two_state_defects_match_at::<[u64; 2]>();
}

#[test]
fn two_state_defect_designs_match_on_tape_at_256_lanes() {
    two_state_defects_match_at::<[u64; 4]>();
}

/// Structurally broken designs fail tape compilation with the same
/// diagnosed reason the lint engine reports — not a panic, not a
/// miscompiled tape.
#[test]
fn structural_defects_fail_tape_compilation_with_diagnosed_reason() {
    use power_emulation::rtl::DesignError;

    for name in STRUCTURAL_DEFECT_NAMES {
        let design = structural_defect_design(name).unwrap();
        let err = Tape::compile(&design)
            .map(|_| ())
            .expect_err(&format!("{name} must be rejected by the tape compiler"));
        match *name {
            "Defect_Comb_Cycle" => {
                assert_eq!(err.rule(), "comb-cycle", "{name}: {err}");
                assert!(
                    matches!(err.cause, DesignError::CombinationalCycle { .. }),
                    "{name}: wrong cause {:?}",
                    err.cause
                );
            }
            "Defect_Undriven" => {
                assert_eq!(err.rule(), "undriven-signal", "{name}: {err}");
                assert!(
                    matches!(err.cause, DesignError::UndrivenSignal { .. }),
                    "{name}: wrong cause {:?}",
                    err.cause
                );
            }
            other => panic!("unknown structural defect {other}"),
        }
        // The graph engine rejects the same designs with the same cause
        // (the tape adds no new admission holes).
        let graph_err = Simulator::new(&design).expect_err("graph engine must also reject");
        assert_eq!(format!("{graph_err}"), format!("{}", err.cause), "{name}");
    }
}

/// The *optimized* tape (after the verified pass pipeline) reproduces
/// the graph reference on every lane of seeded per-lane stimulus shards
/// — the translation validator's probe-based proof is backed by the same
/// full differential matrix the unoptimized tape passes, on the same
/// compiled-once program at each width.
fn optimized_tape_matches_wide_graph_at<W: LaneWord>() {
    for bench in all_benchmarks() {
        let cycles = budget(bench.name, W::LANES).min(bench.cycles(Scale::Test));
        let (tape, cert) = Tape::compile_optimized(&bench.design).expect("tape compiles");
        assert!(
            cert.validated,
            "{}: optimized tape failed translation validation: {:?}",
            bench.name, cert.reason
        );
        assert!(
            cert.post_instructions < cert.pre_instructions,
            "{}: pass pipeline removed no instructions ({} -> {})",
            bench.name,
            cert.pre_instructions,
            cert.post_instructions
        );
        assert_tape_lanes_match_serial::<W>(&bench, &tape, cycles, "optimized tape");
    }
}

#[test]
fn optimized_tape_matches_wide_graph_at_1_lane() {
    optimized_tape_matches_wide_graph_at::<bool>();
}

#[test]
fn optimized_tape_matches_wide_graph_at_64_lanes() {
    optimized_tape_matches_wide_graph_at::<u64>();
}

#[test]
fn optimized_tape_matches_wide_graph_at_128_lanes() {
    optimized_tape_matches_wide_graph_at::<[u64; 2]>();
}

#[test]
fn optimized_tape_matches_wide_graph_at_256_lanes() {
    optimized_tape_matches_wide_graph_at::<[u64; 4]>();
}

/// Every suite design's certificate carries consistent bookkeeping:
/// digests present, per-pass deltas that chain from the pre-count to
/// the post-count, and the probe configuration that proved equivalence.
#[test]
fn certificates_chain_pass_stats_and_carry_digests() {
    for bench in all_benchmarks() {
        let (tape, cert) = Tape::compile_optimized(&bench.design).expect("tape compiles");
        assert_eq!(
            cert.design,
            bench.design.name(),
            "certificate names the design"
        );
        assert_eq!(cert.netlist_fnv128.len(), 32, "{}", bench.name);
        assert_eq!(cert.ir_fnv128.len(), 32, "{}", bench.name);
        assert_eq!(
            cert.post_instructions,
            tape.wide_instructions() as u64,
            "{}: certificate post-count matches the tape",
            bench.name
        );
        assert!(
            cert.probe_rounds > 0 && cert.probe_cycles > 0,
            "{}",
            bench.name
        );
        let mut instrs = cert.pre_instructions;
        for stat in &cert.passes {
            assert_eq!(
                stat.instructions_before, instrs,
                "{}: pass `{}` does not chain from the previous pass",
                bench.name, stat.pass
            );
            instrs = stat.instructions_after;
        }
        assert_eq!(
            instrs, cert.post_instructions,
            "{}: pass chain does not end at the certified post-count",
            bench.name
        );
        assert_eq!(
            cert.instructions_removed(),
            cert.pre_instructions - cert.post_instructions,
            "{}",
            bench.name
        );
    }
}
