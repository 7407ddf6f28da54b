//! The line-oriented wire protocol.
//!
//! One request or response per line, in the same `key=value` dialect as
//! the `pe-harness` event stream, so a serve session interleaves cleanly
//! with harness progress lines and is greppable with the same tooling.
//!
//! Grammar (SP = one space; tokens never contain whitespace):
//!
//! ```text
//! request  := submit | ping | stats | shutdown
//! submit   := "submit" SP "id=" token SP "design=" token SP
//!             "cycles=" u64 SP "seed=" u64 [SP "model=" ("fast"|"standard")]
//! ping     := "ping"
//! stats    := "stats"
//! shutdown := "shutdown"
//!
//! response := "event=" kind fields
//! accepted := "event=accepted req=" token " queue_depth=" u64
//! rejected := "event=rejected req=" token " reason=" reason
//!             " retry_after_ms=" u64
//! result   := "event=result req=" token " design=" token " cycles=" u64
//!             " seed=" u64 " batch=" u64 " lane=" u64 " occupancy=" u64
//!             " energy_fj=" float " energy_bits=" 16hex
//!             " cert_fj=" float " cert_bits=" 16hex
//! error    := "event=error req=" (token|"-") " code=" code
//!             " message=" rest-of-line
//! pong     := "event=pong"
//! stat     := "event=stat name=" token " value=" token
//! bye      := "event=bye drained=" u64
//! ```
//!
//! `energy_bits` is the authoritative energy value (raw `f64` bits), so
//! results round-trip bit-exactly through text; `energy_fj` is the
//! human-readable rendering of the same bits. `cert_bits`/`cert_fj`
//! carry the design's statically certified energy ceiling over the
//! requested horizon the same way — every served energy is ≤ its
//! certificate, so clients can sanity-check responses against a proven
//! bound. A malformed line is a structured [`ProtoError`] naming what
//! went wrong — parsing never panics, whatever the input.

use std::fmt;

/// Requests and ids use this charset; everything else is rejected at
/// parse time so responses echoing an id can never be split or spoofed.
fn is_token(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 128
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '-' | '.' | ':'))
}

/// Which characterization config a request asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum ModelChoice {
    /// `CharacterizeConfig::fast()` — the serving default.
    #[default]
    Fast,
    /// `CharacterizeConfig::standard()` — the reported-numbers config.
    Standard,
}

impl ModelChoice {
    /// The wire token.
    pub fn as_str(self) -> &'static str {
        match self {
            ModelChoice::Fast => "fast",
            ModelChoice::Standard => "standard",
        }
    }
}

impl fmt::Display for ModelChoice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One estimation job: design, stimulus shard, run length, model config.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SubmitRequest {
    /// Client-chosen request token, echoed on every response for this
    /// job.
    pub id: String,
    /// Suite design name (`Bubble_Sort`, `DCT`, …).
    pub design: String,
    /// Cycles to simulate (1..=server limit).
    pub cycles: u64,
    /// Stimulus shard: seed `s` requests the same testbench a serial
    /// `Benchmark::testbench_shard(cycles, s)` run would execute.
    pub seed: u64,
    /// Characterization config for model resolution.
    pub model: ModelChoice,
}

/// A parsed client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Submit an estimation job.
    Submit(SubmitRequest),
    /// Liveness probe.
    Ping,
    /// Dump the server metrics registry.
    Stats,
    /// Stop accepting work, drain in-flight jobs, exit.
    Shutdown,
}

impl fmt::Display for Request {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Request::Submit(s) => {
                write!(
                    f,
                    "submit id={} design={} cycles={} seed={} model={}",
                    s.id, s.design, s.cycles, s.seed, s.model
                )
            }
            Request::Ping => f.write_str("ping"),
            Request::Stats => f.write_str("stats"),
            Request::Shutdown => f.write_str("shutdown"),
        }
    }
}

/// Why a request line could not be parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtoError {
    /// What went wrong, human-readable (single line).
    pub message: String,
}

impl ProtoError {
    fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for ProtoError {}

/// Splits `key=value` fields, rejecting duplicates and unknown keys.
fn parse_fields<'a>(rest: &'a str, known: &[&str]) -> Result<Vec<(&'a str, &'a str)>, ProtoError> {
    let mut fields = Vec::new();
    for part in rest.split_ascii_whitespace() {
        let (key, value) = part
            .split_once('=')
            .ok_or_else(|| ProtoError::new(format!("expected key=value, got `{part}`")))?;
        if !known.contains(&key) {
            return Err(ProtoError::new(format!("unknown field `{key}`")));
        }
        if fields.iter().any(|(k, _)| *k == key) {
            return Err(ProtoError::new(format!("duplicate field `{key}`")));
        }
        fields.push((key, value));
    }
    Ok(fields)
}

fn field<'a>(fields: &[(&'a str, &'a str)], key: &str) -> Result<&'a str, ProtoError> {
    fields
        .iter()
        .find(|(k, _)| *k == key)
        .map(|(_, v)| *v)
        .ok_or_else(|| ProtoError::new(format!("missing field `{key}`")))
}

fn parse_u64(fields: &[(&str, &str)], key: &str) -> Result<u64, ProtoError> {
    let raw = field(fields, key)?;
    raw.parse()
        .map_err(|_| ProtoError::new(format!("{key} `{raw}` is not an unsigned integer")))
}

fn parse_token(fields: &[(&str, &str)], key: &str) -> Result<String, ProtoError> {
    let raw = field(fields, key)?;
    if !is_token(raw) {
        return Err(ProtoError::new(format!(
            "{key} `{raw}` is not a token ([A-Za-z0-9_.:-]{{1,128}})"
        )));
    }
    Ok(raw.to_string())
}

/// Parses one request line.
///
/// # Errors
///
/// [`ProtoError`] describing the first problem found; never panics.
pub fn parse_request(line: &str) -> Result<Request, ProtoError> {
    let line = line.trim();
    let (verb, rest) = line.split_once(' ').unwrap_or((line, ""));
    match verb {
        "submit" => {
            let fields = parse_fields(rest, &["id", "design", "cycles", "seed", "model"])?;
            let model = match fields.iter().find(|(k, _)| *k == "model") {
                None => ModelChoice::Fast,
                Some((_, "fast")) => ModelChoice::Fast,
                Some((_, "standard")) => ModelChoice::Standard,
                Some((_, other)) => {
                    return Err(ProtoError::new(format!(
                        "unknown model `{other}` (expected `fast` or `standard`)"
                    )))
                }
            };
            Ok(Request::Submit(SubmitRequest {
                id: parse_token(&fields, "id")?,
                design: parse_token(&fields, "design")?,
                cycles: parse_u64(&fields, "cycles")?,
                seed: parse_u64(&fields, "seed")?,
                model,
            }))
        }
        "ping" if rest.is_empty() => Ok(Request::Ping),
        "stats" if rest.is_empty() => Ok(Request::Stats),
        "shutdown" if rest.is_empty() => Ok(Request::Shutdown),
        "" => Err(ProtoError::new("empty line")),
        other => Err(ProtoError::new(format!("unknown verb `{other}`"))),
    }
}

/// Structured error codes carried on `event=error` lines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The request line could not be parsed.
    Parse,
    /// The named design is not in the suite.
    UnknownDesign,
    /// `cycles` was zero or above the server's limit.
    CyclesOutOfRange,
    /// The design failed static admission: lint errors under the
    /// server's denylist, or no finite activity certificate. Rejected
    /// before any simulation work.
    UnsoundDesign,
    /// The design has no proven instruction tape: either the tape
    /// compiler rejected it, or the translation validator could not
    /// prove the optimized tape equivalent to the source netlist. The
    /// tape is the only engine batches run on, so the server refuses
    /// the design.
    TapeUnverified,
    /// The server failed internally while running the job.
    Internal,
}

impl ErrorCode {
    /// The wire token.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::Parse => "parse",
            ErrorCode::UnknownDesign => "unknown_design",
            ErrorCode::CyclesOutOfRange => "cycles_out_of_range",
            ErrorCode::UnsoundDesign => "unsound_design",
            ErrorCode::TapeUnverified => "tape_unverified",
            ErrorCode::Internal => "internal",
        }
    }

    fn from_str(s: &str) -> Option<Self> {
        Some(match s {
            "parse" => ErrorCode::Parse,
            "unknown_design" => ErrorCode::UnknownDesign,
            "cycles_out_of_range" => ErrorCode::CyclesOutOfRange,
            "unsound_design" => ErrorCode::UnsoundDesign,
            "tape_unverified" => ErrorCode::TapeUnverified,
            "internal" => ErrorCode::Internal,
            _ => return None,
        })
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Why a submit was turned away (backpressure, not failure: the client
/// should retry after the hinted delay).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The pending queue is at capacity.
    QueueFull,
    /// The server is draining for shutdown.
    ShuttingDown,
}

impl RejectReason {
    /// The wire token.
    pub fn as_str(self) -> &'static str {
        match self {
            RejectReason::QueueFull => "queue_full",
            RejectReason::ShuttingDown => "shutting_down",
        }
    }

    fn from_str(s: &str) -> Option<Self> {
        Some(match s {
            "queue_full" => RejectReason::QueueFull,
            "shutting_down" => RejectReason::ShuttingDown,
            _ => return None,
        })
    }
}

impl fmt::Display for RejectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One job's estimation result, demultiplexed from its batch lane.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResultBody {
    /// Echo of the submit id.
    pub req: String,
    /// Echo of the design name.
    pub design: String,
    /// Echo of the requested cycle count.
    pub cycles: u64,
    /// Echo of the stimulus seed.
    pub seed: u64,
    /// Server-assigned batch number the job rode in.
    pub batch: u64,
    /// Lane the job occupied within the batch.
    pub lane: u64,
    /// Lanes occupied by the whole batch (1..=64).
    pub occupancy: u64,
    /// Raw bits of the `f64` energy readout — identical to a serial
    /// `read_energy_fj` for the same (design, seed, cycles, model).
    pub energy_bits: u64,
    /// Raw bits of the `f64` statically certified energy ceiling over
    /// this job's horizon (the sum of the design's per-domain
    /// certificates). The measured energy is proven ≤ this value.
    pub cert_bits: u64,
}

impl ResultBody {
    /// The energy readout in femtojoules.
    pub fn energy_fj(&self) -> f64 {
        f64::from_bits(self.energy_bits)
    }

    /// The certified energy ceiling in femtojoules.
    pub fn cert_fj(&self) -> f64 {
        f64::from_bits(self.cert_bits)
    }
}

/// A server-to-client response line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// The job was queued.
    Accepted {
        /// Echo of the submit id.
        req: String,
        /// Pending requests after this one was queued.
        queue_depth: u64,
    },
    /// Backpressure: the job was NOT queued; retry after the hint.
    Rejected {
        /// Echo of the submit id.
        req: String,
        /// Why the job was turned away.
        reason: RejectReason,
        /// Suggested client backoff in milliseconds.
        retry_after_ms: u64,
    },
    /// The job's estimation result.
    Result(ResultBody),
    /// A structured failure (`req` is `-` when no id could be parsed).
    Error {
        /// Echo of the submit id, or `None` for pre-parse failures.
        req: Option<String>,
        /// Machine-readable failure class.
        code: ErrorCode,
        /// Human-readable detail (may contain spaces; always the last
        /// field of the line).
        message: String,
    },
    /// Liveness reply.
    Pong,
    /// One metric reading (a `stats` request emits one per metric).
    Stat {
        /// Metric name.
        name: String,
        /// Rendered value.
        value: String,
    },
    /// Shutdown acknowledgement: the queue has been drained.
    Bye {
        /// Jobs drained (completed) between the shutdown request and
        /// this acknowledgement.
        drained: u64,
    },
}

impl fmt::Display for Response {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Response::Accepted { req, queue_depth } => {
                write!(f, "event=accepted req={req} queue_depth={queue_depth}")
            }
            Response::Rejected {
                req,
                reason,
                retry_after_ms,
            } => write!(
                f,
                "event=rejected req={req} reason={reason} retry_after_ms={retry_after_ms}"
            ),
            Response::Result(r) => write!(
                f,
                "event=result req={} design={} cycles={} seed={} batch={} lane={} \
                 occupancy={} energy_fj={:e} energy_bits={:016x} cert_fj={:e} \
                 cert_bits={:016x}",
                r.req,
                r.design,
                r.cycles,
                r.seed,
                r.batch,
                r.lane,
                r.occupancy,
                r.energy_fj(),
                r.energy_bits,
                r.cert_fj(),
                r.cert_bits
            ),
            Response::Error { req, code, message } => write!(
                f,
                "event=error req={} code={code} message={message}",
                req.as_deref().unwrap_or("-")
            ),
            Response::Pong => f.write_str("event=pong"),
            Response::Stat { name, value } => write!(f, "event=stat name={name} value={value}"),
            Response::Bye { drained } => write!(f, "event=bye drained={drained}"),
        }
    }
}

/// Parses one response line (the client half of the protocol).
///
/// # Errors
///
/// [`ProtoError`] describing the first problem found; never panics.
pub fn parse_response(line: &str) -> Result<Response, ProtoError> {
    let line = line.trim();
    let (head, rest) = line.split_once(' ').unwrap_or((line, ""));
    let kind = head
        .strip_prefix("event=")
        .ok_or_else(|| ProtoError::new("response must start with event="))?;
    match kind {
        "accepted" => {
            let fields = parse_fields(rest, &["req", "queue_depth"])?;
            Ok(Response::Accepted {
                req: parse_token(&fields, "req")?,
                queue_depth: parse_u64(&fields, "queue_depth")?,
            })
        }
        "rejected" => {
            let fields = parse_fields(rest, &["req", "reason", "retry_after_ms"])?;
            let raw = field(&fields, "reason")?;
            let reason = RejectReason::from_str(raw)
                .ok_or_else(|| ProtoError::new(format!("unknown reject reason `{raw}`")))?;
            Ok(Response::Rejected {
                req: parse_token(&fields, "req")?,
                reason,
                retry_after_ms: parse_u64(&fields, "retry_after_ms")?,
            })
        }
        "result" => {
            let fields = parse_fields(
                rest,
                &[
                    "req",
                    "design",
                    "cycles",
                    "seed",
                    "batch",
                    "lane",
                    "occupancy",
                    "energy_fj",
                    "energy_bits",
                    "cert_fj",
                    "cert_bits",
                ],
            )?;
            // The *_fj fields are advisory (they render the same bits);
            // require them to be present and floats, but trust the bits.
            let mut bits = [0u64; 2];
            for (slot, (bits_key, fj_key)) in bits
                .iter_mut()
                .zip([("energy_bits", "energy_fj"), ("cert_bits", "cert_fj")])
            {
                let bits_raw = field(&fields, bits_key)?;
                *slot = u64::from_str_radix(bits_raw, 16)
                    .map_err(|_| ProtoError::new(format!("{bits_key} `{bits_raw}` is not hex")))?;
                let fj_raw = field(&fields, fj_key)?;
                fj_raw
                    .parse::<f64>()
                    .map_err(|_| ProtoError::new(format!("{fj_key} `{fj_raw}` is not a float")))?;
            }
            Ok(Response::Result(ResultBody {
                req: parse_token(&fields, "req")?,
                design: parse_token(&fields, "design")?,
                cycles: parse_u64(&fields, "cycles")?,
                seed: parse_u64(&fields, "seed")?,
                batch: parse_u64(&fields, "batch")?,
                lane: parse_u64(&fields, "lane")?,
                occupancy: parse_u64(&fields, "occupancy")?,
                energy_bits: bits[0],
                cert_bits: bits[1],
            }))
        }
        "error" => {
            // `message` swallows the rest of the line, so split it off
            // before field parsing.
            let (front, message) = match rest.split_once("message=") {
                Some((front, message)) => (front, message),
                None => return Err(ProtoError::new("error response missing message=")),
            };
            let fields = parse_fields(front, &["req", "code"])?;
            let req_raw = field(&fields, "req")?;
            let req = if req_raw == "-" {
                None
            } else if is_token(req_raw) {
                Some(req_raw.to_string())
            } else {
                return Err(ProtoError::new(format!("req `{req_raw}` is not a token")));
            };
            let code_raw = field(&fields, "code")?;
            let code = ErrorCode::from_str(code_raw)
                .ok_or_else(|| ProtoError::new(format!("unknown error code `{code_raw}`")))?;
            Ok(Response::Error {
                req,
                code,
                message: message.to_string(),
            })
        }
        "pong" if rest.is_empty() => Ok(Response::Pong),
        "stat" => {
            let fields = parse_fields(rest, &["name", "value"])?;
            Ok(Response::Stat {
                name: parse_token(&fields, "name")?,
                value: field(&fields, "value")?.to_string(),
            })
        }
        "bye" => {
            let fields = parse_fields(rest, &["drained"])?;
            Ok(Response::Bye {
                drained: parse_u64(&fields, "drained")?,
            })
        }
        other => Err(ProtoError::new(format!("unknown event `{other}`"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn submit_round_trips_and_defaults_model() {
        let line = "submit id=c3.r7 design=DCT cycles=1200 seed=42";
        let req = parse_request(line).unwrap();
        let Request::Submit(ref s) = req else {
            panic!("not a submit")
        };
        assert_eq!(s.model, ModelChoice::Fast);
        // Canonical print includes the model; the round trip is stable
        // from the canonical form onward.
        let printed = req.to_string();
        assert_eq!(parse_request(&printed).unwrap(), req);
        assert_eq!(parse_request(&printed).unwrap().to_string(), printed);
    }

    #[test]
    fn bare_verbs_parse() {
        assert_eq!(parse_request("ping").unwrap(), Request::Ping);
        assert_eq!(parse_request("stats").unwrap(), Request::Stats);
        assert_eq!(parse_request("shutdown").unwrap(), Request::Shutdown);
        assert_eq!(parse_request("  ping  ").unwrap(), Request::Ping);
    }

    #[test]
    fn malformed_requests_are_structured_errors() {
        for bad in [
            "",
            "frobnicate",
            "submit",
            "submit id=a design=DCT cycles=10", // missing seed
            "submit id=a design=DCT cycles=ten seed=0", // bad number
            "submit id=a design=DCT cycles=10 seed=0 model=vibes",
            "submit id=a design=DCT cycles=10 seed=0 extra=1",
            "submit id=a id=b design=DCT cycles=10 seed=0",
            "submit id=bad!id design=DCT cycles=10 seed=0",
            "submit id= design=DCT cycles=10 seed=0",
            "ping extra",
        ] {
            assert!(parse_request(bad).is_err(), "`{bad}` should be rejected");
        }
    }

    #[test]
    fn result_energy_is_bit_exact_through_text() {
        let r = Response::Result(ResultBody {
            req: "r1".into(),
            design: "MPEG4".into(),
            cycles: 2000,
            seed: 9,
            batch: 3,
            lane: 17,
            occupancy: 64,
            energy_bits: 0.1f64.to_bits(), // not exactly representable in decimal
            cert_bits: 0.3f64.to_bits(),
        });
        let parsed = parse_response(&r.to_string()).unwrap();
        assert_eq!(parsed, r);
        let Response::Result(body) = parsed else {
            panic!("not a result")
        };
        assert_eq!(body.energy_fj().to_bits(), 0.1f64.to_bits());
        assert_eq!(body.cert_fj().to_bits(), 0.3f64.to_bits());
    }

    #[test]
    fn error_message_keeps_spaces() {
        let e = Response::Error {
            req: None,
            code: ErrorCode::Parse,
            message: "unknown verb `frobnicate` near column 1".into(),
        };
        let parsed = parse_response(&e.to_string()).unwrap();
        assert_eq!(parsed, e);
    }

    #[test]
    fn malformed_responses_are_structured_errors() {
        for bad in [
            "",
            "result req=a",
            "event=nope",
            "event=result req=a",
            "event=accepted req=a queue_depth=deep",
            "event=rejected req=a reason=tuesday retry_after_ms=1",
            "event=error req=a code=parse", // missing message
            "event=bye",
        ] {
            assert!(parse_response(bad).is_err(), "`{bad}` should be rejected");
        }
    }
}
