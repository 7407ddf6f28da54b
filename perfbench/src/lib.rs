//! Serve-path benchmark for `pe-serve`: cold setup, warm closed-loop
//! throughput and open-loop latency, with a traced mode that splits the
//! time across the crates the path crosses. See `README.md` beside this
//! crate for the workloads, the metrics and the baseline.

#![forbid(unsafe_code)]

mod gate;
mod layers;
mod load;
pub mod report;
pub mod stream;

use gate::Reference;
use layers::{Admission, Replay};
use load::{Failure, Outcome, Served};
use pe_serve::{parse_response, Response};
use pe_trace::Profiler;
use report::{mean, median, quantile, Metric};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;
use stream::{Shape, Workload};

/// What one run of one workload asks for.
#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    /// Seed every generated input derives from.
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
}

/// A finished run: report text, verdict and metrics.
pub struct RunReport {
    /// Human-readable report lines (the JSON line excluded).
    pub text: String,
    /// No failed request and no energy mismatch.
    pub correct: bool,
    /// Requests sent.
    pub attempted: u64,
    /// Requests that failed or whose energy failed a check.
    pub failed: u64,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
}

fn need(v: Option<f64>, what: &str) -> Result<f64, String> {
    v.filter(|x| x.is_finite())
        .ok_or_else(|| format!("no samples for {what}"))
}

/// The window's completions: every scheduled request of an open loop;
/// for a closed loop, the results that arrived inside the timed window.
fn window_results<'a>(wl: &Workload, out: &'a Outcome) -> Vec<&'a Served> {
    let traffic = out.served.iter().filter(|s| !s.setup);
    match wl.shape {
        Shape::Open { .. } => traffic.collect(),
        Shape::Closed { .. } => traffic
            .filter(|s| s.done >= out.window.0 && s.done <= out.window.1)
            .collect(),
    }
}

/// The latency sample: the window's completions, less a closed loop's
/// initial fill, whose requests queued behind the fill itself.
fn latency_sample<'a>(wl: &Workload, out: &'a Outcome) -> Vec<&'a Served> {
    window_results(wl, out)
        .into_iter()
        .filter(|s| s.sent >= out.window.0)
        .collect()
}

fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Completions per second and served Mcycles per second, counted over
/// whole batches: the requests (cycles) of every window batch after the
/// first, over the time from the first batch's completion to the
/// last's. Counting whole batches keeps a window of a few 128-lane
/// batches from jumping with where its edges fall.
fn throughput(results: &[&Served]) -> Result<(f64, f64, String), String> {
    let mut batches: BTreeMap<u64, (f64, u64, u64)> = BTreeMap::new();
    for s in results {
        let b = batches.entry(s.body.batch).or_default();
        b.0 = b.0.max(s.done.as_secs_f64());
        b.1 += 1;
        b.2 += s.req.cycles;
    }
    let mut by_done: Vec<(f64, u64, u64)> = batches.into_values().collect();
    by_done.sort_by(|a, b| a.0.total_cmp(&b.0));
    let [first, .., last] = by_done.as_slice() else {
        return Err(format!(
            "only {} batch(es) completed in the window; run longer",
            by_done.len()
        ));
    };
    let span = last.0 - first.0;
    let (reqs, cycles) = by_done[1..]
        .iter()
        .fold((0, 0), |(r, c), b| (r + b.1, c + b.2));
    let note = format!(
        "{reqs} requests in {} batches over {span:.3} s",
        by_done.len() - 1
    );
    Ok((reqs as f64 / span, cycles as f64 / span / 1e6, note))
}

/// The end-to-end metrics: those `BENCHMARK.json` gates, then the ones
/// the report prints but the JSON leaves out (see README).
fn end_to_end(wl: &Workload, out: &Outcome) -> Result<(Vec<Metric>, Vec<Metric>), String> {
    let (rps, mcps, tnote) = throughput(&window_results(wl, out))?;
    let lat: Vec<f64> = latency_sample(wl, out)
        .iter()
        .map(|s| ms(s.latency()))
        .collect();
    let n = lat.len();
    let beyond = |q: f64| n - (q * n as f64).ceil() as usize;
    let origin = match wl.shape {
        Shape::Open { .. } => "from scheduled send",
        Shape::Closed { .. } => "from submit",
    };
    let lat_note = |q: f64| format!("n={n}, {} beyond, {origin}", beyond(q));
    let setup: Vec<String> = out.setup_s.iter().map(|s| format!("{s:.4}")).collect();
    let gated = vec![
        Metric::new(
            "setup_s",
            need(median(&out.setup_s), "setup")?,
            "s",
            format!(
                "median of {} cold setups [{}]",
                out.setup_s.len(),
                setup.join(", ")
            ),
        ),
        Metric::new("requests_per_s", rps, "1/s", tnote.clone()),
        Metric::new(
            "latency_p50_ms",
            need(quantile(&lat, 0.5), "latency")?,
            "ms",
            lat_note(0.5),
        ),
        Metric::new(
            "latency_p90_ms",
            need(quantile(&lat, 0.9), "latency")?,
            "ms",
            lat_note(0.9),
        ),
        Metric::new(
            "peak_rss_mb",
            out.peak_rss_mb,
            "MiB",
            "VmHWM after the window",
        ),
    ];
    let mut reported = vec![Metric::new("mcycles_per_s", mcps, "Mcycles/s", tnote)];
    // Only the open loop's sample has well over ten requests beyond p99.
    if let Shape::Open { .. } = wl.shape {
        reported.push(Metric::new(
            "latency_p99_ms",
            need(quantile(&lat, 0.99), "latency")?,
            "ms",
            lat_note(0.99),
        ));
    }
    Ok((gated, reported))
}

/// The traced run's per-layer metrics, plus the replay mismatches.
fn per_layer(
    wl: &Workload,
    out: &Outcome,
    adm: &BTreeMap<&'static str, Admission>,
    prof: &Profiler,
    epoch: Instant,
    text: &mut String,
) -> Result<(Vec<Metric>, Vec<Failure>), String> {
    let mut batches: BTreeMap<u64, Vec<&Served>> = BTreeMap::new();
    for s in &out.served {
        batches.entry(s.body.batch).or_default().push(s);
    }
    let mut replays: BTreeMap<u64, Replay> = BTreeMap::new();
    for (id, lanes) in &mut batches {
        lanes.sort_by_key(|s| s.body.lane);
        let a = &adm[lanes[0].req.design];
        replays.insert(*id, layers::replay(a, lanes, prof, epoch)?);
    }
    let mismatches: Vec<Failure> = replays
        .values()
        .flat_map(|r| r.mismatches.iter().cloned())
        .collect();

    let _ = writeln!(text, "replay by design:");
    for &d in wl.designs {
        let of: Vec<&Replay> = replays.values().filter(|r| r.design == d).collect();
        let total = |f: &dyn Fn(&Replay) -> std::time::Duration| -> f64 {
            of.iter().map(|r| f(r).as_secs_f64()).sum()
        };
        let _ = writeln!(
            text,
            "  {d:<12} {} batches: stimulus {:.4} s, step {:.4} s, readout {:.4} s, build {:.4} s",
            of.len(),
            total(&|r| r.stimulus),
            total(&|r| r.step),
            total(&|r| r.readouts.iter().sum()),
            total(&|r| r.build),
        );
    }

    // Closure: the admission spans plus each design's first (setup)
    // batch, against the untraced cold setup.
    let setup_s = need(median(&out.setup_s), "setup")?;
    let mut spans = 0.0;
    let _ = writeln!(text, "closure (untraced setup_s = {setup_s:.4} s):");
    for s in out.served.iter().filter(|s| s.setup) {
        let a = &adm[s.req.design];
        let first = replays[&s.body.batch].wall.as_secs_f64();
        let cold = a.cold_path().as_secs_f64();
        spans += cold + first;
        let _ = writeln!(
            text,
            "  {:<12} lookup {:.4} + characterize {:.4} + instrument {:.4} + lint {:.4} \
             + compile {:.4} + passes {:.4} + validate {:.4} + first batch {first:.4} = {:.4} s",
            s.req.design,
            a.lookup.as_secs_f64(),
            a.characterize.as_secs_f64(),
            a.instrument.as_secs_f64(),
            a.lint.as_secs_f64(),
            a.compile.as_secs_f64(),
            a.passes(),
            a.validate.as_secs_f64(),
            cold + first,
        );
    }
    let closure = (spans - setup_s) / setup_s;
    let _ = writeln!(
        text,
        "  spans sum {spans:.4} s; {:+.1}% from setup_s",
        closure * 100.0
    );
    let closure = closure.abs();

    let sum_adm = |f: &dyn Fn(&Admission) -> f64| adm.values().map(f).sum::<f64>();
    let sum_rep = |f: &dyn Fn(&Replay) -> f64| replays.values().map(f).sum::<f64>();
    let n_batches = replays.len() as f64;
    let lanes_x_cycles = sum_rep(&|r| (r.width as u64 * r.cycles) as f64);
    let step_s = sum_rep(&|r| r.step.as_secs_f64());
    let readouts: Vec<f64> = replays
        .values()
        .flat_map(|r| r.readouts.iter().map(|d| d.as_secs_f64() * 1e6))
        .collect();
    let replay_wall = sum_rep(&|r| r.wall.as_secs_f64());
    let served_wall = out.registry.histogram("serve.batch_wall_us");
    let served_wall_s = served_wall.sum() as f64 / 1e6;
    let queue_wait: Vec<f64> = latency_sample(wl, out)
        .iter()
        .map(|s| ms(s.latency().saturating_sub(replays[&s.body.batch].wall)))
        .collect();
    // A closed loop receives typed responses; its parse cost is timed
    // on the wire form of the results it got.
    let mut parse_us = out.parse_us.clone();
    if let Shape::Closed { .. } = wl.shape {
        for s in &out.served {
            let line = Response::Result(s.body.clone()).to_string();
            let t = Instant::now();
            let parsed = std::hint::black_box(parse_response(&line));
            parse_us.push(t.elapsed().as_secs_f64() * 1e6);
            parsed.map_err(|e| format!("result line `{line}` does not parse: {e}"))?;
        }
    }
    let hits = out.registry.counter("serve.design_cache_hits").get() as f64;
    let misses = out.registry.counter("serve.design_cache_misses").get() as f64;
    let submit_origin = match wl.shape {
        Shape::Open { .. } => "send-to-accepted round trip over TCP",
        Shape::Closed { .. } => "Scheduler::submit call",
    };
    let nsub = out.submit_ms.len();
    let metrics = vec![
        Metric::new(
            "serve.submit_ms_p50",
            need(quantile(&out.submit_ms, 0.5), "submit")?,
            "ms",
            format!("n={nsub}, {submit_origin}"),
        ),
        Metric::new(
            "serve.submit_ms_p90",
            need(quantile(&out.submit_ms, 0.9), "submit")?,
            "ms",
            format!("n={nsub}, {submit_origin}"),
        ),
        Metric::new(
            "serve.batches",
            n_batches,
            "count",
            "batches served by the timed scheduler",
        ),
        Metric::new(
            "serve.occupancy_mean",
            sum_rep(&|r| r.occupancy as f64) / n_batches,
            "count",
            "jobs per batch",
        ),
        Metric::new(
            "serve.lane_fill",
            sum_rep(&|r| r.occupancy as f64 / r.width as f64) / n_batches,
            "ratio",
            "occupancy / lane width, mean over batches",
        ),
        Metric::new(
            "serve.useful_lane_cycle_frac",
            sum_rep(&|r| r.request_cycles as f64) / lanes_x_cycles,
            "ratio",
            "sum of request cycles / sum of width x batch cycles",
        ),
        Metric::new(
            "serve.batch_wall_ms_mean",
            served_wall.mean() / 1e3,
            "ms",
            format!("registry serve.batch_wall_us, n={}", served_wall.count()),
        ),
        Metric::new(
            "serve.queue_wait_ms_p50",
            need(quantile(&queue_wait, 0.5), "queue wait")?,
            "ms",
            format!("latency minus replayed batch wall, n={}", queue_wait.len()),
        ),
        Metric::new(
            "serve.design_cache_hit_rate",
            hits / (hits + misses),
            "ratio",
            format!("{hits} hits, {misses} misses"),
        ),
        Metric::new(
            "proto.parse_response_us",
            need(mean(&parse_us), "parse")?,
            "us",
            format!("mean of {} parse_response calls", parse_us.len()),
        ),
        Metric::new(
            "designs.lookup_ms",
            sum_adm(&|a| a.lookup.as_secs_f64() * 1e3) / adm.len() as f64,
            "ms",
            "median benchmark_or_defect call, mean over designs",
        ),
        Metric::new(
            "designs.stimulus_s",
            sum_rep(&|r| r.stimulus.as_secs_f64()),
            "s",
            "testbench_shard + apply + observe over replayed batches",
        ),
        Metric::new(
            "power.characterize_s",
            sum_adm(&|a| a.characterize.as_secs_f64()),
            "s",
            "obtain_library, no cache, summed over designs",
        ),
        Metric::new(
            "instrument.instrument_s",
            sum_adm(&|a| a.instrument.as_secs_f64()),
            "s",
            "summed over designs",
        ),
        Metric::new(
            "instrument.readout_us",
            need(mean(&readouts), "readout")?,
            "us",
            format!("mean of {} try_read_energy_fj_lane calls", readouts.len()),
        ),
        Metric::new(
            "lint.lint_s",
            sum_adm(&|a| a.lint.as_secs_f64()),
            "s",
            "lint_instrumented, summed over designs",
        ),
        Metric::new(
            "tape.compile_s",
            sum_adm(&|a| a.compile.as_secs_f64()),
            "s",
            "Tape::compile, summed over designs",
        ),
        Metric::new(
            "tape.validate_s",
            sum_adm(&|a| a.validate.as_secs_f64()),
            "s",
            "validate_against on the optimized tape",
        ),
        Metric::new(
            "tape.passes_s",
            sum_adm(&|a| a.passes()),
            "s",
            "compile_optimized - compile - validate",
        ),
        Metric::new(
            "tape.instrs_pre",
            sum_adm(&|a| a.instrs.0 as f64),
            "count",
            "summed over designs",
        ),
        Metric::new(
            "tape.instrs_post",
            sum_adm(&|a| a.instrs.1 as f64),
            "count",
            "summed over designs",
        ),
        Metric::new(
            "tape.build_ms",
            sum_rep(&|r| r.build.as_secs_f64() * 1e3) / n_batches,
            "ms",
            "WideTapeSimulator::new, mean per batch",
        ),
        Metric::new("tape.step_s", step_s, "s", "step over replayed batches"),
        Metric::new(
            "tape.step_mlcps",
            lanes_x_cycles / step_s / 1e6,
            "Mlane-cycles/s",
            "lane width x cycles / step time",
        ),
        Metric::new(
            "tape.settles",
            sum_rep(&|r| r.settles as f64),
            "count",
            "settle_count over replayed batches",
        ),
        Metric::new(
            "bench.gen_lag_ms_p99",
            need(quantile(&out.gen_lag_ms, 0.99), "generator lag")?,
            "ms",
            format!("n={}", out.gen_lag_ms.len()),
        ),
        Metric::new(
            "bench.trace_overhead_frac",
            (replay_wall - served_wall_s) / served_wall_s,
            "ratio",
            format!(
                "traced replay {replay_wall:.4} s vs untraced served batches {served_wall_s:.4} s"
            ),
        ),
        Metric::new(
            "bench.setup_closure_frac",
            closure,
            "ratio",
            "|admission spans + first batch - setup_s| / setup_s",
        ),
    ];
    Ok((metrics, mismatches))
}

/// Runs one workload once and assembles its report.
pub fn run_workload(wl: &'static Workload, args: RunArgs) -> Result<RunReport, String> {
    let mut text = String::new();
    let _ = writeln!(
        text,
        "workload={} seed={} seconds={} trace={} designs={}",
        wl.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        wl.designs.join(",")
    );
    let out = load::run(wl, args.seed, args.seconds, args.trace)?;

    // The gate's references: a traced run re-times each design's
    // admission and keeps what it built; an untraced run builds them
    // untimed, after the window.
    let prof = Profiler::new();
    let epoch = Instant::now();
    let mut admissions: BTreeMap<&'static str, Admission> = BTreeMap::new();
    let mut built: BTreeMap<&'static str, Reference> = BTreeMap::new();
    for &d in wl.designs {
        if args.trace {
            admissions.insert(d, layers::admit(d, &prof)?);
        } else {
            built.insert(d, gate::reference(d)?);
        }
    }
    let (metrics, reported, mismatches) = if args.trace {
        let (metrics, mismatches) = per_layer(wl, &out, &admissions, &prof, epoch, &mut text)?;
        (metrics, Vec::new(), mismatches)
    } else {
        let (gated, reported) = end_to_end(wl, &out)?;
        (gated, reported, Vec::new())
    };
    let refs: BTreeMap<&'static str, &Reference> = admissions
        .iter()
        .map(|(d, a)| (*d, &a.reference))
        .chain(built.iter().map(|(d, r)| (*d, r)))
        .collect();
    let verdict = gate::check(&out.served, &refs, wl, args.seed)?;

    // A request fails once however many checks it misses.
    let mut failures: BTreeMap<String, String> = out.failures.iter().cloned().collect();
    failures.extend(verdict.failures);
    failures.extend(mismatches.iter().cloned());
    let failed = failures.len() as u64;
    let _ = writeln!(
        text,
        "gate: {} energies <= certificate, {} re-run on the serial reference{}",
        verdict.cert_checked,
        verdict.serial_checked,
        if args.trace {
            format!(
                ", {} lanes replayed, {} mismatched",
                out.served.len(),
                mismatches.len()
            )
        } else {
            String::new()
        }
    );
    for (id, why) in &failures {
        let _ = writeln!(text, "FAILED seed={} {id}: {why}", args.seed);
    }
    let _ = writeln!(
        text,
        "{:<30} {:>16.6} {:<14} {failed} failed of {} attempted (the JSON carries it as failed/attempted)",
        "error_rate",
        failed as f64 / out.attempted as f64,
        "ratio",
        out.attempted
    );
    text.push_str(&report::metric_lines(&metrics));
    if !reported.is_empty() {
        text.push_str("reported, not in the JSON:\n");
        text.push_str(&report::metric_lines(&reported));
    }
    if args.trace {
        text.push_str(&prof.render());
        eprint!("{}", prof.to_jsonl());
    }
    Ok(RunReport {
        text,
        correct: failed == 0,
        attempted: out.attempted,
        failed,
        metrics,
    })
}
