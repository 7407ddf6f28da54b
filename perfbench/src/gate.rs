//! The energy correctness gate.
//!
//! Every served energy must sit at or below its static certificate, and
//! a deterministic sample — per design, the narrowest and the widest
//! batch plus a few seeded picks — must equal a fresh serial
//! `pe_sim::Simulator` run of the same (design, cycles, seed) bit for
//! bit.

use crate::load::Served;
use crate::stream::Workload;
use pe_core::PowerEmulationFlow;
use pe_designs::defects::benchmark_or_defect;
use pe_designs::suite::Benchmark;
use pe_harness::{obtain_library, NullSink};
use pe_instrument::InstrumentedDesign;
use pe_power::CharacterizeConfig;
use pe_sim::Simulator;
use pe_util::rng::Xoshiro;
use std::collections::BTreeMap;

/// A design resolved the way the scheduler resolves it: the `fast`
/// model, characterized without a cache, then instrumented.
pub struct Reference {
    /// The suite benchmark (design plus testbench factory).
    pub bench: Benchmark,
    /// The instrumented design the served energies come from.
    pub inst: InstrumentedDesign,
}

/// The serving flow configuration (`model=fast`).
pub fn flow() -> PowerEmulationFlow {
    PowerEmulationFlow::new().with_characterize(CharacterizeConfig::fast())
}

/// Resolves `design` to its instrumented form, untimed.
pub fn reference(design: &str) -> Result<Reference, String> {
    let bench = benchmark_or_defect(design).ok_or_else(|| format!("unknown design `{design}`"))?;
    let flow = flow();
    let library = obtain_library(
        &bench.design,
        flow.characterize_config(),
        None,
        bench.name,
        &NullSink,
    )
    .map_err(|e| format!("characterize {design}: {e}"))?;
    let inst = pe_instrument::instrument(&bench.design, &library, flow.instrument_config())
        .map_err(|e| format!("instrument {design}: {e}"))?;
    Ok(Reference { bench, inst })
}

/// The serial reference energy of one request.
pub fn serial_energy(r: &Reference, cycles: u64, seed: u64) -> Result<f64, String> {
    let mut sim = Simulator::new(&r.inst.design).map_err(|e| e.to_string())?;
    let mut tb = r.bench.testbench_shard(cycles, seed);
    for cycle in 0..cycles {
        tb.apply(cycle, &mut sim);
        tb.observe(cycle, &mut sim);
        sim.step();
    }
    r.inst
        .try_read_energy_fj(&mut sim)
        .map_err(|e| e.to_string())
}

/// Which results the serial reference re-runs: for each design, lane 0
/// of its narrowest batch, the last lane of its widest batch, and
/// `wl.gate_extra` more chosen by `seed`.
pub fn sample<'a>(served: &'a [Served], wl: &Workload, seed: u64) -> Vec<&'a Served> {
    let mut picks: Vec<&Served> = Vec::new();
    let mut rng = Xoshiro::new(seed ^ 0x6a7e_5eed);
    for design in wl.designs {
        // Sorted by (batch, lane): the first result of the narrowest
        // batch is its lowest lane, the last of the widest its highest.
        let mut of: Vec<&Served> = served.iter().filter(|s| s.req.design == *design).collect();
        if of.is_empty() {
            continue;
        }
        of.sort_by_key(|s| (s.body.batch, s.body.lane));
        let narrow = of
            .iter()
            .min_by_key(|s| (s.body.occupancy, s.body.batch))
            .expect("non-empty");
        let wide_batch = of
            .iter()
            .max_by_key(|s| (s.body.occupancy, std::cmp::Reverse(s.body.batch)))
            .expect("non-empty")
            .body
            .batch;
        let wide = of
            .iter()
            .rev()
            .find(|s| s.body.batch == wide_batch)
            .expect("the widest batch has results");
        let mut chosen = vec![*narrow, *wide];
        for _ in 0..wl.gate_extra.min(of.len()) {
            chosen.push(of[rng.below(of.len() as u64) as usize]);
        }
        for s in chosen {
            if !picks.iter().any(|p| p.req.id == s.req.id) {
                picks.push(s);
            }
        }
    }
    picks
}

/// The gate's verdict.
pub struct Verdict {
    /// Results checked against their certificate.
    pub cert_checked: usize,
    /// Results re-run on the serial reference.
    pub serial_checked: usize,
    /// Request ids that failed, with why (each counts toward
    /// `error_rate`).
    pub failures: BTreeMap<String, String>,
}

/// Runs the gate over every served result of a run.
pub fn check(
    served: &[Served],
    refs: &BTreeMap<&'static str, &Reference>,
    wl: &Workload,
    seed: u64,
) -> Result<Verdict, String> {
    let mut failures = BTreeMap::new();
    for s in served {
        let (e, cert) = (s.body.energy_fj(), s.body.cert_fj());
        if !(e.is_finite() && cert.is_finite() && e <= cert) {
            failures.insert(
                s.req.id.clone(),
                format!(
                    "{} cycles={} seed={}: energy {e:e} fJ above certificate {cert:e} fJ",
                    s.req.design, s.req.cycles, s.req.seed
                ),
            );
        }
    }
    let picks = sample(served, wl, seed);
    for s in &picks {
        let r = refs
            .get(s.req.design)
            .ok_or_else(|| format!("no reference for {}", s.req.design))?;
        let serial = serial_energy(r, s.req.cycles, s.req.seed)?;
        if serial.to_bits() != s.body.energy_bits {
            failures.insert(
                s.req.id.clone(),
                format!(
                    "{} cycles={} seed={} batch={} lane={}: served {:016x} vs serial {:016x}",
                    s.req.design,
                    s.req.cycles,
                    s.req.seed,
                    s.body.batch,
                    s.body.lane,
                    s.body.energy_bits,
                    serial.to_bits()
                ),
            );
        }
    }
    Ok(Verdict {
        cert_checked: served.len(),
        serial_checked: picks.len(),
        failures,
    })
}
