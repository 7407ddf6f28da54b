//! The traced run's per-layer measurements, taken from the benchmark's
//! own side by timing calls into each crate's public functions:
//!
//! * admission — `benchmark_or_defect`, `obtain_library`, `instrument`,
//!   `lint_instrumented`, `Tape::compile_optimized`, and, to split the
//!   last, `Tape::compile` and `validate_against` on their own;
//! * replay — every served batch, rebuilt from the results' `batch` and
//!   `lane` fields and run again through `testbench_shard`,
//!   `WideTapeSimulator::new`, `apply`, `observe`, `step` and
//!   `try_read_energy_fj_lane` at the lane width the scheduler picks for
//!   that occupancy. Each replayed lane must reproduce its served
//!   `energy_bits`.

use crate::gate::{flow, Reference};
use crate::load::{Failure, Served};
use pe_designs::defects::benchmark_or_defect;
use pe_harness::{obtain_library, NullSink};
use pe_lint::lint_instrumented;
use pe_tape::{
    validate_against, Tape, WideTapeSimulator, DEFAULT_PROBE_CYCLES, DEFAULT_PROBE_ROUNDS,
};
use pe_trace::Profiler;
use pe_util::lanes::LaneWord;
use std::time::{Duration, Instant};

/// Timed `benchmark_or_defect` calls per design; `designs.lookup_ms` is
/// their median.
const LOOKUP_CALLS: usize = 15;

/// One design's admission, re-run stage by stage.
pub struct Admission {
    /// The design and instrumented netlist (also the gate's reference).
    pub reference: Reference,
    /// The optimized, validated tape the batches replay on.
    pub tape: Tape,
    /// Median `benchmark_or_defect` call.
    pub lookup: Duration,
    /// `obtain_library` without a cache.
    pub characterize: Duration,
    /// `pe_instrument::instrument`.
    pub instrument: Duration,
    /// `lint_instrumented`.
    pub lint: Duration,
    /// `Tape::compile`, alone.
    pub compile: Duration,
    /// `validate_against` on the optimized tape, alone.
    pub validate: Duration,
    /// `Tape::compile_optimized`: compile, passes and validate.
    pub compile_optimized: Duration,
    /// Tape instructions before and after the pass pipeline.
    pub instrs: (u64, u64),
}

impl Admission {
    /// The pass pipeline's share of `compile_optimized`.
    pub fn passes(&self) -> f64 {
        self.compile_optimized.as_secs_f64()
            - self.compile.as_secs_f64()
            - self.validate.as_secs_f64()
    }

    /// The stages a cold submit runs before its first batch: the
    /// design lookup twice (once to admit the request, once to prepare
    /// the design), then each admission stage once.
    pub fn cold_path(&self) -> Duration {
        2 * self.lookup + self.characterize + self.instrument + self.lint + self.compile_optimized
    }
}

fn timed<T>(prof: &Profiler, span: &str, design: &str, f: impl FnOnce() -> T) -> (T, Duration) {
    let t = Instant::now();
    let out = prof.time(span, design, f);
    (out, t.elapsed())
}

/// Re-runs `design`'s admission under spans.
pub fn admit(design: &str, prof: &Profiler) -> Result<Admission, String> {
    let mut lookups: Vec<Duration> = (0..LOOKUP_CALLS)
        .map(|_| {
            timed(prof, "designs.lookup", design, || {
                benchmark_or_defect(design)
            })
            .1
        })
        .collect();
    lookups.sort();
    let (bench, _) = timed(prof, "designs.lookup", design, || {
        benchmark_or_defect(design)
    });
    let bench = bench.ok_or_else(|| format!("unknown design `{design}`"))?;
    let flow = flow();
    let (library, characterize) = timed(prof, "power.characterize", design, || {
        obtain_library(
            &bench.design,
            flow.characterize_config(),
            None,
            bench.name,
            &NullSink,
        )
    });
    let library = library.map_err(|e| format!("characterize {design}: {e}"))?;
    let (inst, instrument) = timed(prof, "instrument.instrument", design, || {
        pe_instrument::instrument(&bench.design, &library, flow.instrument_config())
    });
    let inst = inst.map_err(|e| format!("instrument {design}: {e}"))?;
    let (_report, lint) = timed(prof, "lint.lint", design, || lint_instrumented(&inst, None));
    let (optimized, compile_optimized) = timed(prof, "tape.compile_optimized", design, || {
        Tape::compile_optimized(&inst.design)
    });
    let (tape, cert) = optimized.map_err(|e| format!("compile {design}: {e}"))?;
    if !cert.validated {
        return Err(format!("{design}: tape not validated: {:?}", cert.reason));
    }
    let (plain, compile) = timed(prof, "tape.compile", design, || Tape::compile(&inst.design));
    plain.map_err(|e| format!("compile {design}: {e}"))?;
    let (valid, validate) = timed(prof, "tape.validate", design, || {
        validate_against(
            &inst.design,
            &tape,
            DEFAULT_PROBE_ROUNDS,
            DEFAULT_PROBE_CYCLES,
        )
    });
    valid.map_err(|e| format!("validate {design}: {e:?}"))?;
    Ok(Admission {
        reference: Reference { bench, inst },
        tape,
        lookup: lookups[lookups.len() / 2],
        characterize,
        instrument,
        lint,
        compile,
        validate,
        compile_optimized,
        instrs: (cert.pre_instructions, cert.post_instructions),
    })
}

/// One replayed batch.
#[derive(Debug, Default, Clone)]
pub struct Replay {
    /// The batch's design.
    pub design: &'static str,
    /// Engine lanes (64, 128 or 256).
    pub width: usize,
    /// Jobs in the batch.
    pub occupancy: usize,
    /// Cycles stepped (the batch's longest request).
    pub cycles: u64,
    /// Σ requested cycles over the batch's jobs.
    pub request_cycles: u64,
    /// Whole replay, build to last readout.
    pub wall: Duration,
    /// `WideTapeSimulator::new`.
    pub build: Duration,
    /// `testbench_shard`, `apply` and `observe` (an `observe` port read
    /// may trigger the lazy settle; its time lands here).
    pub stimulus: Duration,
    /// `step`.
    pub step: Duration,
    /// Each `try_read_energy_fj_lane` call.
    pub readouts: Vec<Duration>,
    /// `settle_count` at the end of the batch.
    pub settles: u64,
    /// Lanes whose replayed energy differs from the served bits.
    pub mismatches: Vec<Failure>,
}

/// The engine width the scheduler runs `occupancy` jobs at: the
/// narrowest lane word that holds the batch.
pub fn lane_width(occupancy: usize) -> usize {
    match occupancy {
        0..=64 => 64,
        65..=128 => 128,
        _ => 256,
    }
}

/// Replays one served batch; `lanes` are its results sorted by lane.
/// Spans go to `prof`, whose creation instant is `epoch`.
pub fn replay(
    adm: &Admission,
    lanes: &[&Served],
    prof: &Profiler,
    epoch: Instant,
) -> Result<Replay, String> {
    for (i, s) in lanes.iter().enumerate() {
        if s.body.lane != i as u64 || s.body.occupancy != lanes.len() as u64 {
            return Err(format!(
                "batch {} is incomplete: lane {} of occupancy {} at position {i} of {}",
                s.body.batch,
                s.body.lane,
                s.body.occupancy,
                lanes.len()
            ));
        }
    }
    let design = lanes[0].req.design;
    let t = Instant::now();
    let mut r = match lane_width(lanes.len()) {
        64 => replay_at::<u64>(adm, lanes),
        128 => replay_at::<[u64; 2]>(adm, lanes),
        _ => replay_at::<[u64; 4]>(adm, lanes),
    }?;
    r.wall = t.elapsed();
    let start = t.duration_since(epoch);
    for (span, wall) in [
        ("tape.build", r.build),
        ("designs.stimulus", r.stimulus),
        ("tape.step", r.step),
        ("instrument.readout", r.readouts.iter().sum()),
        ("serve.batch_replay", r.wall),
    ] {
        prof.record(span, design, start, wall);
    }
    Ok(r)
}

fn replay_at<W: LaneWord>(adm: &Admission, jobs: &[&Served]) -> Result<Replay, String> {
    let bench = &adm.reference.bench;
    let inst = &adm.reference.inst;
    let mut r = Replay {
        design: jobs[0].req.design,
        width: W::LANES,
        occupancy: jobs.len(),
        cycles: jobs.iter().map(|j| j.req.cycles).max().unwrap_or(0),
        request_cycles: jobs.iter().map(|j| j.req.cycles).sum(),
        ..Replay::default()
    };
    let t = Instant::now();
    let mut tbs: Vec<_> = jobs
        .iter()
        .map(|j| bench.testbench_shard(j.req.cycles, j.req.seed))
        .collect();
    r.stimulus += t.elapsed();
    let t = Instant::now();
    let mut sim = WideTapeSimulator::<W>::new(&adm.tape);
    r.build = t.elapsed();
    for cycle in 0..r.cycles {
        let t = Instant::now();
        for (lane, tb) in tbs.iter_mut().enumerate() {
            if cycle < jobs[lane].req.cycles {
                tb.apply(cycle, &mut sim.lane(lane));
            }
        }
        for (lane, tb) in tbs.iter_mut().enumerate() {
            if cycle < jobs[lane].req.cycles {
                tb.observe(cycle, &mut sim.lane(lane));
            }
        }
        r.stimulus += t.elapsed();
        let t = Instant::now();
        sim.step();
        r.step += t.elapsed();
        for (lane, job) in jobs.iter().enumerate() {
            if cycle + 1 == job.req.cycles {
                let t = Instant::now();
                let energy = inst
                    .try_read_energy_fj_lane(&mut sim, lane)
                    .map_err(|e| e.to_string())?;
                r.readouts.push(t.elapsed());
                if energy.to_bits() != job.body.energy_bits {
                    r.mismatches.push((job.req.id.clone(), format!(
                        "{} cycles={} seed={} batch={} lane={lane}: served {:016x} vs replay {:016x}",
                        job.req.design,
                        job.req.cycles,
                        job.req.seed,
                        job.body.batch,
                        job.body.energy_bits,
                        energy.to_bits()
                    )));
                }
            }
        }
    }
    r.settles = sim.settle_count();
    Ok(r)
}
