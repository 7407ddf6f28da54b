//! The load generators: cold setup, then a timed window of closed-loop
//! (in-process `Scheduler::submit`) or open-loop (loopback `serve_tcp`)
//! traffic.
//!
//! Every scheduler runs `ServeConfig::default()` with one batch worker
//! and no model cache, so each cold setup characterizes its models anew.

use crate::stream::{open_schedule, setup_requests, ClosedStream, Req, Shape, Workload};
use pe_serve::{
    parse_response, serve_tcp, ModelChoice, Request, Response, ResultBody, Scheduler, ServeConfig,
    SubmitRequest,
};
use pe_trace::Registry;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// No response for this long means the program hung; the run fails
/// instead of outliving its time limit.
const STALL: Duration = Duration::from_secs(120);

/// A failed request: its id and why it failed.
pub type Failure = (String, String);

/// One request that got a `result`, as the generator saw it.
#[derive(Debug, Clone)]
pub struct Served {
    /// What was sent.
    pub req: Req,
    /// What came back.
    pub body: ResultBody,
    /// Closed loop: when the `submit` call started. Open loop: when the
    /// request was scheduled to be sent. From the scheduler start.
    pub sent: Duration,
    /// When the result reached the generator, from the scheduler start.
    pub done: Duration,
    /// A cold-setup request rather than window traffic.
    pub setup: bool,
}

impl Served {
    /// Request latency: result arrival minus `sent`.
    pub fn latency(&self) -> Duration {
        self.done.saturating_sub(self.sent)
    }
}

/// Everything one run of a workload observed.
pub struct Outcome {
    /// Each cold setup's duration: scheduler start until the first
    /// result of every design has arrived.
    pub setup_s: Vec<f64>,
    /// Results of the timed scheduler, its setup requests included.
    pub served: Vec<Served>,
    /// Requests that got `error` or `rejected`.
    pub failures: Vec<Failure>,
    /// Requests sent to the timed scheduler.
    pub attempted: u64,
    /// The timed window, from the scheduler start.
    pub window: (Duration, Duration),
    /// The timed scheduler's metrics registry.
    pub registry: Registry,
    /// Process high-water resident set (`VmHWM`) after the window.
    pub peak_rss_mb: f64,
    /// Traced runs: duration of each `submit` (closed loop) or of each
    /// send-to-`accepted` round trip (open loop), in ms.
    pub submit_ms: Vec<f64>,
    /// Traced runs: `parse_response` time per received line, in µs
    /// (open loop only; closed loops receive typed responses).
    pub parse_us: Vec<f64>,
    /// How late each request was sent, in ms: open loop, behind its
    /// schedule; closed loop, behind the result that freed its slot.
    pub gen_lag_ms: Vec<f64>,
}

fn serve_config() -> ServeConfig {
    ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    }
}

fn submit_request(req: &Req) -> SubmitRequest {
    SubmitRequest {
        id: req.id.clone(),
        design: req.design.to_string(),
        cycles: req.cycles,
        seed: req.seed,
        model: ModelChoice::Fast,
    }
}

/// Reads `VmHWM` from `/proc/self/status`, in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// Runs `wl` once: its cold setups, then `seconds` of traffic.
pub fn run(
    wl: &'static Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Result<Outcome, String> {
    match wl.shape {
        Shape::Closed { clients, depth } => {
            run_closed(wl, seed, seconds, clients * depth, clients, traced)
        }
        Shape::Open { .. } => run_open(wl, seed, seconds, traced),
    }
}

/// Turns one non-`accepted` response into a result or a failure line.
fn settle(resp: Response) -> Option<Result<ResultBody, Failure>> {
    match resp {
        Response::Accepted { .. } => None,
        Response::Result(body) => Some(Ok(body)),
        Response::Rejected { req, reason, .. } => Some(Err((req, format!("rejected {reason}")))),
        Response::Error { req, code, message } => Some(Err((
            req.unwrap_or_else(|| "-".to_string()),
            format!("error {code}: {message}"),
        ))),
        other => Some(Err((
            "-".to_string(),
            format!("unexpected response `{other}`"),
        ))),
    }
}

// ---------------------------------------------------------------------
// Closed loop, in-process
// ---------------------------------------------------------------------

/// A started scheduler whose setup requests have all been answered.
struct ColdClosed {
    sched: Arc<Scheduler>,
    registry: Registry,
    tx: Sender<Response>,
    rx: Receiver<Response>,
    start: Instant,
    setup_s: f64,
    served: Vec<Served>,
}

fn cold_closed(wl: &Workload, seed: u64) -> Result<ColdClosed, String> {
    let registry = Registry::new();
    let start = Instant::now();
    let sched = Scheduler::start(serve_config(), registry.clone());
    let (tx, rx) = mpsc::channel();
    let mut pending: HashMap<String, (Req, Instant)> = HashMap::new();
    for req in setup_requests(wl, seed) {
        let t = Instant::now();
        sched.submit(submit_request(&req), 0, &tx);
        pending.insert(req.id.clone(), (req, t));
    }
    let mut served = Vec::new();
    while !pending.is_empty() {
        let resp = rx
            .recv_timeout(STALL)
            .map_err(|_| "setup: no response from the scheduler".to_string())?;
        match settle(resp) {
            None => {}
            Some(Ok(body)) => {
                let (req, sent) = pending
                    .remove(&body.req)
                    .ok_or_else(|| format!("setup: result for unknown request `{}`", body.req))?;
                served.push(Served {
                    req,
                    sent: sent - start,
                    done: start.elapsed(),
                    body,
                    setup: true,
                });
            }
            Some(Err((id, what))) => return Err(format!("setup request {id}: {what}")),
        }
    }
    let setup_s = start.elapsed().as_secs_f64();
    Ok(ColdClosed {
        sched,
        registry,
        tx,
        rx,
        start,
        setup_s,
        served,
    })
}

fn stop(sched: &Scheduler) {
    sched.shutdown();
    sched.drain();
    sched.join();
}

fn run_closed(
    wl: &'static Workload,
    seed: u64,
    seconds: f64,
    slots: usize,
    clients: usize,
    traced: bool,
) -> Result<Outcome, String> {
    let ColdClosed {
        sched,
        registry,
        tx,
        rx,
        start,
        setup_s: first,
        mut served,
    } = cold_closed(wl, seed)?;

    let mut stream = ClosedStream::new(wl, seed);
    let mut in_flight: HashMap<String, (Req, Instant, u64)> = HashMap::new();
    let mut failures = Vec::new();
    let mut attempted = served.len() as u64;
    let mut submit_ms = Vec::new();
    let mut gen_lag_ms = Vec::new();
    let mut submit = |client: u64, in_flight: &mut HashMap<String, (Req, Instant, u64)>| {
        let req = stream.next().expect("the closed stream is endless");
        let sent = Instant::now();
        sched.submit(submit_request(&req), client, &tx);
        if traced {
            submit_ms.push(sent.elapsed().as_secs_f64() * 1e3);
        }
        in_flight.insert(req.id.clone(), (req, sent, client));
        sent
    };
    // Client `c` owns slots `c, c + clients, …`, so each client keeps
    // `depth` requests outstanding.
    for slot in 0..slots {
        submit((slot % clients) as u64, &mut in_flight);
    }
    attempted += slots as u64;
    let t0 = Instant::now();
    let end = t0 + Duration::from_secs_f64(seconds);
    while !in_flight.is_empty() {
        let resp = rx
            .recv_timeout(STALL)
            .map_err(|_| format!("no response for {STALL:?} with requests in flight"))?;
        let arrived = Instant::now();
        let Some(outcome) = settle(resp) else {
            continue;
        };
        let (req, sent, client) = match &outcome {
            Ok(body) => in_flight.remove(&body.req),
            Err((id, _)) => in_flight.remove(id),
        }
        .ok_or_else(|| "response for a request not in flight".to_string())?;
        match outcome {
            Ok(body) => served.push(Served {
                sent: sent - start,
                done: arrived - start,
                req,
                body,
                setup: false,
            }),
            Err((id, what)) => {
                failures.push((id, format!("{} seed={}: {what}", req.design, req.seed)))
            }
        }
        if Instant::now() < end {
            let resent = submit(client, &mut in_flight);
            attempted += 1;
            if traced {
                gen_lag_ms.push((resent - arrived).as_secs_f64() * 1e3);
            }
        }
    }
    let peak_rss_mb = peak_rss_mb()?;
    stop(&sched);
    // The remaining cold setups run after the window, so the memory
    // high-water mark above covers one scheduler's lifetime only.
    let mut setup_s = vec![first];
    for _ in 1..wl.setup_reps {
        let cold = cold_closed(wl, seed)?;
        setup_s.push(cold.setup_s);
        stop(&cold.sched);
    }
    Ok(Outcome {
        setup_s,
        served,
        failures,
        attempted,
        window: (t0 - start, end - start),
        registry,
        peak_rss_mb,
        submit_ms,
        parse_us: Vec::new(),
        gen_lag_ms,
    })
}

// ---------------------------------------------------------------------
// Open loop, loopback TCP
// ---------------------------------------------------------------------

fn send_line(out: &mut TcpStream, line: &str) -> Result<(), String> {
    out.write_all(format!("{line}\n").as_bytes())
        .map_err(|e| format!("sending to the server: {e}"))
}

/// One line from the server, parsed, with the parse time in µs.
fn recv(reader: &mut BufReader<TcpStream>) -> Result<(Response, f64), String> {
    let mut line = String::new();
    match reader.read_line(&mut line) {
        Ok(0) => return Err("the server closed the connection".to_string()),
        Ok(_) => {}
        Err(e) => return Err(format!("reading from the server: {e}")),
    }
    let t = Instant::now();
    let resp = parse_response(&line).map_err(|e| format!("unparsable response `{line}`: {e}"))?;
    Ok((resp, t.elapsed().as_secs_f64() * 1e6))
}

fn run_open(
    wl: &'static Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Result<Outcome, String> {
    let mut timed: Option<Outcome> = None;
    for _ in 0..wl.setup_reps {
        let registry = Registry::new();
        let start = Instant::now();
        let sched = Scheduler::start(serve_config(), registry.clone());
        let listener =
            TcpListener::bind("127.0.0.1:0").map_err(|e| format!("binding loopback: {e}"))?;
        let addr = listener
            .local_addr()
            .map_err(|e| format!("loopback address: {e}"))?;
        let outcome = std::thread::scope(|s| {
            let server = s.spawn(|| serve_tcp(&sched, listener));
            let result = open_session(
                wl,
                seed,
                seconds,
                traced,
                timed.is_none(),
                addr,
                start,
                &registry,
            );
            if result.is_err() {
                // The session never sent `shutdown`; stop the accept
                // loop so the server thread can be joined.
                sched.shutdown();
            }
            let joined = server.join();
            let outcome = result?;
            match joined {
                Ok(Ok(())) => Ok(outcome),
                Ok(Err(e)) => Err(format!("serve_tcp failed: {e}")),
                Err(_) => Err("serve_tcp panicked".to_string()),
            }
        })?;
        sched.join();
        // The first session carries the timed schedule; later ones only
        // repeat the cold setup, after the memory high-water mark of
        // the first was taken.
        match &mut timed {
            None => timed = Some(outcome),
            Some(t) => t.setup_s.extend(outcome.setup_s),
        }
    }
    timed.ok_or_else(|| "a workload has at least one setup".to_string())
}

/// One client session against a fresh server: the cold setup requests,
/// then (when `timed`) the timed schedule; ends with
/// `shutdown`, so `serve_tcp` returns.
#[allow(clippy::too_many_arguments)]
fn open_session(
    wl: &'static Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    timed: bool,
    addr: std::net::SocketAddr,
    start: Instant,
    registry: &Registry,
) -> Result<Outcome, String> {
    let mut conn = TcpStream::connect(addr).map_err(|e| format!("connecting: {e}"))?;
    conn.set_nodelay(true)
        .map_err(|e| format!("setting TCP_NODELAY: {e}"))?;
    conn.set_read_timeout(Some(STALL))
        .map_err(|e| format!("setting read timeout: {e}"))?;
    let mut reader = BufReader::new(conn.try_clone().map_err(|e| e.to_string())?);

    let mut pending: HashMap<String, (Req, Instant)> = HashMap::new();
    for req in setup_requests(wl, seed) {
        send_line(
            &mut conn,
            &Request::Submit(submit_request(&req)).to_string(),
        )?;
        pending.insert(req.id.clone(), (req, Instant::now()));
    }
    let mut served = Vec::new();
    while !pending.is_empty() {
        match settle(recv(&mut reader)?.0) {
            None => {}
            Some(Ok(body)) => {
                let (req, sent) = pending
                    .remove(&body.req)
                    .ok_or_else(|| format!("setup: result for unknown request `{}`", body.req))?;
                served.push(Served {
                    req,
                    sent: sent - start,
                    done: start.elapsed(),
                    body,
                    setup: true,
                });
            }
            Some(Err((id, what))) => return Err(format!("setup request {id}: {what}")),
        }
    }
    let setup_s = vec![start.elapsed().as_secs_f64()];
    let mut outcome = Outcome {
        setup_s,
        attempted: served.len() as u64,
        served,
        failures: Vec::new(),
        window: (Duration::ZERO, Duration::ZERO),
        registry: registry.clone(),
        peak_rss_mb: 0.0,
        submit_ms: Vec::new(),
        parse_us: Vec::new(),
        gen_lag_ms: Vec::new(),
    };
    if timed {
        timed_schedule(
            wl,
            seed,
            seconds,
            traced,
            &conn,
            &mut reader,
            start,
            &mut outcome,
        )?;
    }
    send_line(&mut conn, "shutdown")?;
    loop {
        if let Response::Bye { .. } = recv(&mut reader)?.0 {
            return Ok(outcome);
        }
    }
}

/// Sends the open-loop schedule from a sender thread while this thread
/// receives and parses every response.
#[allow(clippy::too_many_arguments)]
fn timed_schedule(
    wl: &'static Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    conn: &TcpStream,
    reader: &mut BufReader<TcpStream>,
    start: Instant,
    out: &mut Outcome,
) -> Result<(), String> {
    let schedule = open_schedule(wl, seed, seconds);
    let index: HashMap<&str, usize> = schedule
        .iter()
        .enumerate()
        .map(|(i, r)| (r.id.as_str(), i))
        .collect();
    let mut writer = conn.try_clone().map_err(|e| e.to_string())?;
    let t0 = Instant::now();
    let end = t0 + Duration::from_secs_f64(seconds);
    out.window = (t0 - start, end - start);
    out.attempted += schedule.len() as u64;
    let mut accepted_at: Vec<Option<Instant>> = vec![None; schedule.len()];
    std::thread::scope(|s| {
        let sender = s.spawn(|| -> Result<Vec<Instant>, String> {
            let mut sent = Vec::with_capacity(schedule.len());
            for req in &schedule {
                let due = t0 + req.at.expect("open-loop requests are scheduled");
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                sent.push(Instant::now());
                send_line(
                    &mut writer,
                    &Request::Submit(submit_request(req)).to_string(),
                )?;
            }
            Ok(sent)
        });
        let mut open = schedule.len();
        let mut received = Ok(());
        while open > 0 {
            let (resp, parse_us) = match recv(reader) {
                Ok(r) => r,
                Err(e) => {
                    received = Err(e);
                    break;
                }
            };
            let arrived = Instant::now();
            if traced {
                out.parse_us.push(parse_us);
            }
            if let Response::Accepted { req, .. } = &resp {
                if let Some(&i) = index.get(req.as_str()) {
                    accepted_at[i] = Some(arrived);
                }
            }
            let Some(outcome) = settle(resp) else {
                continue;
            };
            open -= 1;
            match outcome {
                Ok(body) => {
                    let Some(&i) = index.get(body.req.as_str()) else {
                        received = Err(format!("result for unknown request `{}`", body.req));
                        break;
                    };
                    let req = schedule[i].clone();
                    let due = t0 + req.at.expect("open-loop requests are scheduled");
                    out.served.push(Served {
                        sent: due - start,
                        done: arrived - start,
                        req,
                        body,
                        setup: false,
                    });
                }
                Err(failure) => out.failures.push(failure),
            }
        }
        let sent = sender
            .join()
            .map_err(|_| "the sender thread panicked".to_string())??;
        received?;
        for (i, req) in schedule.iter().enumerate() {
            let due = t0 + req.at.expect("open-loop requests are scheduled");
            out.gen_lag_ms
                .push(sent[i].saturating_duration_since(due).as_secs_f64() * 1e3);
            if let (true, Some(acc)) = (traced, accepted_at[i]) {
                out.submit_ms.push((acc - sent[i]).as_secs_f64() * 1e3);
            }
        }
        Ok::<(), String>(())
    })?;
    out.peak_rss_mb = peak_rss_mb()?;
    Ok(())
}
