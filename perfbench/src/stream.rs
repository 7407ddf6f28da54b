//! The three workloads and the seeded request streams they send.
//!
//! Everything a run sends is a pure function of the workload and the
//! `--seed`: designs, cycle counts, stimulus seeds and (open loop)
//! arrival times. The program under test only ever sees the generated
//! requests.

use pe_util::rng::Xoshiro;
use std::time::Duration;

/// How a workload offers load.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Shape {
    /// `clients` logical clients, each keeping `depth` requests
    /// outstanding, all sent from one generator thread calling
    /// `Scheduler::submit` in-process.
    Closed { clients: usize, depth: usize },
    /// Poisson arrivals at `rate` requests per second, sent over one
    /// loopback TCP connection to `serve_tcp`.
    Open { rate: f64 },
}

/// How many cycles each request asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cycles {
    /// Every request runs this many cycles.
    Fixed(u64),
    /// Uniform over the inclusive range.
    Uniform(u64, u64),
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// The suite designs the workload's requests use.
    pub designs: &'static [&'static str],
    /// Cycle count per request.
    pub cycles: Cycles,
    /// Closed or open loop.
    pub shape: Shape,
    /// Cold setups per run; `setup_s` is their median. One for a design
    /// whose single cold prepare takes tens of seconds.
    pub setup_reps: usize,
    /// Results per design re-run on the serial reference beyond the
    /// narrowest- and widest-batch picks every design gets.
    pub gate_extra: usize,
}

/// Every workload, in the order `--workload all` runs them.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "small_closed",
        designs: &["Bubble_Sort"],
        cycles: Cycles::Fixed(2000),
        shape: Shape::Closed {
            clients: 32,
            depth: 2,
        },
        setup_reps: 15,
        gate_extra: 6,
    },
    // Run by hand, not listed in BENCHMARK.json: its engine-bound warm
    // window spreads too far run to run on a shared host (README).
    Workload {
        name: "dct_closed",
        designs: &["DCT"],
        cycles: Cycles::Fixed(1024),
        // 320 = 2.5 full 128-lane batches: while one batch runs, the
        // next is already queued with 64 to spare, so a slow resubmit of
        // the last batch's clients never shortens a batch.
        shape: Shape::Closed {
            clients: 320,
            depth: 1,
        },
        setup_reps: 1,
        gate_extra: 0,
    },
    Workload {
        name: "mixed_open",
        designs: &["Bubble_Sort", "HVPeakF", "Ispq", "Vld"],
        cycles: Cycles::Uniform(256, 4096),
        // Well below the rate at which admission saturates, even when the
        // host runs 2.5x slower than its best (README).
        shape: Shape::Open { rate: 40.0 },
        setup_reps: 15,
        gate_extra: 2,
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// One generated request.
#[derive(Debug, Clone, PartialEq)]
pub struct Req {
    /// Request token, unique within a run.
    pub id: String,
    /// Suite design name.
    pub design: &'static str,
    /// Cycles to simulate.
    pub cycles: u64,
    /// Stimulus shard seed.
    pub seed: u64,
    /// Open loop: when the request is due, from the start of the
    /// schedule. `None` in closed loops, where a completion frees the
    /// slot.
    pub at: Option<Duration>,
}

/// Independent sub-streams of one run seed.
fn rng(seed: u64, stream: u64) -> Xoshiro {
    Xoshiro::new(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

fn draw_cycles(spec: Cycles, rng: &mut Xoshiro) -> u64 {
    match spec {
        Cycles::Fixed(n) => n,
        Cycles::Uniform(lo, hi) => rng.range(lo, hi),
    }
}

/// The cold-setup requests: one per design, at the workload's shortest
/// cycle count, so the cold path and not the length drawn for the first
/// request sets `setup_s`.
pub fn setup_requests(wl: &Workload, seed: u64) -> Vec<Req> {
    let mut r = rng(seed, 1);
    let cycles = match wl.cycles {
        Cycles::Fixed(n) | Cycles::Uniform(n, _) => n,
    };
    wl.designs
        .iter()
        .enumerate()
        .map(|(i, &design)| Req {
            id: format!("s{i}"),
            design,
            cycles,
            seed: r.next_u64(),
            at: None,
        })
        .collect()
}

/// The endless closed-loop stream: the generator takes the next request
/// whenever a client slot frees. Designs rotate in workload order.
pub struct ClosedStream {
    wl: &'static Workload,
    rng: Xoshiro,
    next: u64,
}

impl ClosedStream {
    /// The stream for `wl` under `seed`.
    pub fn new(wl: &'static Workload, seed: u64) -> Self {
        Self {
            wl,
            rng: rng(seed, 2),
            next: 0,
        }
    }
}

impl Iterator for ClosedStream {
    type Item = Req;

    fn next(&mut self) -> Option<Req> {
        let k = self.next;
        self.next += 1;
        let design = self.wl.designs[(k % self.wl.designs.len() as u64) as usize];
        Some(Req {
            id: format!("r{k}"),
            design,
            cycles: draw_cycles(self.wl.cycles, &mut self.rng),
            seed: self.rng.next_u64(),
            at: None,
        })
    }
}

/// The open-loop schedule for `seconds` at the workload's rate; empty
/// for a closed-loop workload.
///
/// Arrivals are a Poisson process conditioned on its count: exactly
/// `round(rate × seconds)` requests, at sorted uniform times over the
/// window. Designs and cycle counts are drawn stratified — every design
/// gets an equal share in seeded order, and cycle counts take one value
/// from each of `n` equal slices of the range in seeded order — so each
/// request is still uniform over designs and lengths, but one run's
/// total work does not swing with the seed.
pub fn open_schedule(wl: &Workload, seed: u64, seconds: f64) -> Vec<Req> {
    let Shape::Open { rate } = wl.shape else {
        return Vec::new();
    };
    let n = (rate * seconds).round().max(1.0) as usize;
    let mut r = rng(seed, 3);
    let mut times: Vec<f64> = (0..n).map(|_| r.unit_f64() * seconds).collect();
    times.sort_by(f64::total_cmp);
    let mut designs: Vec<&'static str> = (0..n).map(|i| wl.designs[i % wl.designs.len()]).collect();
    r.shuffle(&mut designs);
    let mut strata: Vec<usize> = (0..n).collect();
    r.shuffle(&mut strata);
    times
        .into_iter()
        .zip(designs)
        .zip(strata)
        .enumerate()
        .map(|(k, ((t, design), stratum))| {
            let cycles = match wl.cycles {
                Cycles::Fixed(c) => c,
                Cycles::Uniform(lo, hi) => {
                    let span = (hi - lo + 1) as f64;
                    let u = (stratum as f64 + r.unit_f64()) / n as f64;
                    (lo + (u * span) as u64).min(hi)
                }
            };
            Req {
                id: format!("r{k}"),
                design,
                cycles,
                seed: r.next_u64(),
                at: Some(Duration::from_secs_f64(t)),
            }
        })
        .collect()
}
