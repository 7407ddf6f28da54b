//! Differential testing of the serving path's wide engine against the
//! serial reference, at every supported width.
//!
//! `pe-serve` packs requests into lanes of the compiled instruction tape:
//! each lane carries its own stimulus seed and its own cycle count, the
//! batch steps to the longest request, and each lane's energy is read
//! from the *optimized* tape of the instrumented design. This suite holds
//! both halves of that shape to fresh serial `pe_sim::Simulator` runs on
//! the seven-design benchmark suite:
//!
//! * wide RTL (the tape) vs fresh serial RTL runs, lanes packed as a
//!   serve batch packs them (arbitrary seeds, ragged lengths), every
//!   output of every running lane, every cycle, at every lane width;
//! * instrumented `read_energy_fj` per lane on the optimized,
//!   translation-validated tape vs serial instrumented runs (at every
//!   width).
//!
//! Cycle budgets scale down with lane width so each width instantiation
//! does comparable total work. Every assertion names the design,
//! signal, width, lane, and first diverging cycle, so a red run points
//! straight at the divergence.

use pe_util::lanes::LaneWord;
use power_emulation::designs::suite::{all_benchmarks, benchmark, Benchmark, Scale};
use power_emulation::sim::Simulator;
use power_emulation::tape::{Tape, WideTapeSimulator};

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

/// The design's output ports as `(name, signal)` pairs.
fn outputs(bench: &Benchmark) -> Vec<(String, power_emulation::rtl::SignalId)> {
    bench
        .design
        .outputs()
        .iter()
        .map(|p| (p.name().to_string(), p.signal()))
        .collect()
}

/// Every lane of the wide RTL engine reproduces a fresh serial RTL run
/// of the same stimulus, output for output, cycle for cycle — with the
/// lanes packed the way a serve batch packs them: lane `l` runs an
/// arbitrary stimulus seed for its own cycle count, and lanes that have
/// finished sit idle while the rest keep stepping.
fn wide_rtl_matches_serial_rtl_at<W: LaneWord>() {
    for bench in all_benchmarks() {
        let longest = budget(bench.name, W::LANES).min(bench.cycles(Scale::Test));
        let outs = outputs(&bench);
        let tape = Tape::compile(&bench.design).expect("tape compiles");
        let jobs: Vec<(u64, u64)> = (0..W::LANES as u64)
            .map(|l| {
                (
                    l.wrapping_mul(0x9E37_79B9) ^ 0x5EED,
                    longest - (l % 4) * longest / 8,
                )
            })
            .collect();

        let mut wide = WideTapeSimulator::<W>::new(&tape);
        let mut serials: Vec<Simulator<'_>> = (0..W::LANES)
            .map(|_| Simulator::new(&bench.design).expect("serial sim"))
            .collect();
        let mut wide_tbs: Vec<_> = jobs
            .iter()
            .map(|&(seed, cycles)| bench.testbench_shard(cycles, seed))
            .collect();
        let mut serial_tbs: Vec<_> = jobs
            .iter()
            .map(|&(seed, cycles)| bench.testbench_shard(cycles, seed))
            .collect();

        for cycle in 0..longest {
            let running: Vec<usize> = (0..W::LANES).filter(|&l| cycle < jobs[l].1).collect();
            for &lane in &running {
                wide_tbs[lane].apply(cycle, &mut wide.lane(lane));
                serial_tbs[lane].apply(cycle, &mut serials[lane]);
            }
            for &lane in &running {
                wide_tbs[lane].observe(cycle, &mut wide.lane(lane));
                serial_tbs[lane].observe(cycle, &mut serials[lane]);
            }
            for (name, sig) in &outs {
                for &lane in &running {
                    let got = wide.value_lane(*sig, lane);
                    let want = serials[lane].value(*sig);
                    assert_eq!(
                        got,
                        want,
                        "{}::{name} diverged: width {}, lane {lane} (seed {:#x}), first at \
                         cycle {cycle} (wide {got:#x}, serial {want:#x})",
                        bench.name,
                        W::LANES,
                        jobs[lane].0
                    );
                }
            }
            wide.step();
            for &lane in &running {
                serials[lane].step();
            }
        }
    }
}

#[test]
fn wide_rtl_matches_serial_rtl_at_1_lane() {
    wide_rtl_matches_serial_rtl_at::<bool>();
}

#[test]
fn wide_rtl_matches_serial_rtl_at_64_lanes() {
    wide_rtl_matches_serial_rtl_at::<u64>();
}

#[test]
fn wide_rtl_matches_serial_rtl_at_128_lanes() {
    wide_rtl_matches_serial_rtl_at::<[u64; 2]>();
}

#[test]
fn wide_rtl_matches_serial_rtl_at_256_lanes() {
    wide_rtl_matches_serial_rtl_at::<[u64; 4]>();
}

/// The instrumented design's hardware energy readout is bit-exactly
/// equal per lane between a run of its optimized, translation-validated
/// tape — the engine `pe-serve` answers from — and fresh serial runs.
fn instrumented_readout_matches_at<W: LaneWord>() {
    use power_emulation::core::PowerEmulationFlow;
    use power_emulation::power::CharacterizeConfig;

    for name in ["Bubble_Sort", "HVPeakF"] {
        let bench = benchmark(name).unwrap();
        let cycles = 200 / (W::LANES as u64 / 64).max(1);
        let flow = PowerEmulationFlow::new().with_characterize(CharacterizeConfig::fast());
        flow.prepare_models(&bench.design).expect("characterize");
        let (instrumented, _) = flow.stage_instrument(&bench.design).expect("instrument");
        let (tape, cert) =
            Tape::compile_optimized(&instrumented.design).expect("instrumented tape compiles");
        assert!(cert.validated, "{name}: {:?}", cert.reason);

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
                     first at cycle {cycle} (optimized tape {got} fJ, serial {want} fJ)",
                    W::LANES
                );
            }
        }
    }
}

#[test]
fn instrumented_energy_readout_matches_per_lane_at_1_lane() {
    instrumented_readout_matches_at::<bool>();
}

#[test]
fn instrumented_energy_readout_matches_per_lane_at_64_lanes() {
    instrumented_readout_matches_at::<u64>();
}

#[test]
fn instrumented_energy_readout_matches_per_lane_at_128_lanes() {
    instrumented_readout_matches_at::<[u64; 2]>();
}

#[test]
fn instrumented_energy_readout_matches_per_lane_at_256_lanes() {
    instrumented_readout_matches_at::<[u64; 4]>();
}
