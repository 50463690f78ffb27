//! The wire protocol: request envelopes, typed errors, reply framing.
//!
//! One request per line, one reply per line (see the crate docs for the
//! full endpoint reference). This module only converts between [`Json`]
//! trees and typed requests — execution lives in [`crate::ops`], routing
//! in [`crate::server`].

use crate::json::Json;
use crate::metrics::Endpoint;

/// Typed error categories, sent as `error.kind` so clients can branch
/// without parsing prose.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// The request line was not valid JSON.
    Parse,
    /// The JSON was valid but not a valid request envelope.
    Protocol,
    /// A netlist failed to parse.
    Netlist,
    /// The referenced circuit hash is not registered.
    NotFound,
    /// Every compute permit is held and the permit wait line is full —
    /// retry later.
    Busy,
    /// The request exceeded the per-request timeout, waiting for a
    /// compute permit or computing (the computation is then stopped).
    Timeout,
    /// The request line exceeded the size cap.
    Oversized,
    /// An analysis entry point rejected the parameters.
    Analysis,
    /// The server is draining and no longer accepts work.
    ShuttingDown,
    /// An op's computation was cooperatively stopped by the request
    /// deadline. The daemon answers such a request with
    /// [`Timeout`](ErrorKind::Timeout), so this kind is not sent for it.
    Cancelled,
    /// The daemon failed, not the request: the job panicked mid-run
    /// (its session is discarded, never returned to the pool, and the
    /// handler keeps serving every circuit). The
    /// request is answered with this kind rather than left hanging, and
    /// a retry is safe.
    Internal,
}

impl ErrorKind {
    /// The wire tag.
    pub fn tag(self) -> &'static str {
        match self {
            ErrorKind::Parse => "parse",
            ErrorKind::Protocol => "protocol",
            ErrorKind::Netlist => "netlist",
            ErrorKind::NotFound => "not_found",
            ErrorKind::Busy => "busy",
            ErrorKind::Timeout => "timeout",
            ErrorKind::Oversized => "oversized",
            ErrorKind::Analysis => "analysis",
            ErrorKind::ShuttingDown => "shutting_down",
            ErrorKind::Cancelled => "cancelled",
            ErrorKind::Internal => "internal",
        }
    }
}

/// A typed protocol error: category + message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// The category.
    pub kind: ErrorKind,
    /// Human-readable detail.
    pub message: String,
}

impl WireError {
    /// Builds an error.
    pub fn new(kind: ErrorKind, message: impl Into<String>) -> Self {
        WireError {
            kind,
            message: message.into(),
        }
    }

    /// The wire form of the error: `{"kind": …, "message": …}`.
    pub(crate) fn to_json(&self) -> Json {
        Json::obj(vec![
            ("kind", Json::str(self.kind.tag())),
            ("message", Json::str(&self.message)),
        ])
    }
}

/// How input probabilities are specified on circuit ops.
#[derive(Debug, Clone, PartialEq)]
pub enum ProbSpec {
    /// Every input at probability `p` (`"prob": p`; default 0.5).
    Constant(f64),
    /// Explicit per-input vector (`"probs": [..]`).
    Explicit(Vec<f64>),
}

impl Default for ProbSpec {
    fn default() -> Self {
        ProbSpec::Constant(0.5)
    }
}

/// An operation executed against one registered circuit (single requests
/// and `batch` entries share this shape).
#[derive(Debug, Clone, PartialEq)]
pub enum CircuitOp {
    /// Full testability analysis.
    Analyze {
        /// Input probabilities.
        probs: ProbSpec,
        /// `(d, e)` test-length targets.
        testlens: Vec<(f64, f64)>,
        /// How many least-testable faults to list (0 = none).
        hardest: usize,
        /// Include the full per-fault detection vector in the reply.
        detect_probs: bool,
        /// Include the per-node signal probability vector in the reply.
        signal_probs: bool,
    },
    /// Input-probability hill climb.
    Optimize {
        /// Objective parameter `N`.
        n_target: u64,
        /// Visiting-order seed.
        seed: u64,
        /// `(d, e)` targets evaluated at the optimum.
        testlens: Vec<(f64, f64)>,
    },
    /// Test-point insertion advisor.
    Tpi {
        /// Points to commit.
        budget: usize,
        /// Candidates surviving into full scoring.
        max_candidates: usize,
        /// Test-length fraction `d`.
        target_d: f64,
        /// Confidence `e`.
        target_e: f64,
        /// Rank only, commit nothing.
        dry_run: bool,
    },
    /// Static lint / collapse / redundancy report.
    Check {
        /// Run the BDD-backed redundancy prover.
        prove_redundant: bool,
        /// BDD node budget per proof.
        bdd_budget: usize,
    },
    /// Weighted-random fault simulation.
    Simulate {
        /// Input probabilities (weights).
        probs: ProbSpec,
        /// Patterns to simulate.
        patterns: u64,
        /// RNG seed.
        seed: u64,
    },
}

impl CircuitOp {
    /// The endpoint this op is metered under.
    pub fn endpoint(&self) -> Endpoint {
        match self {
            CircuitOp::Analyze { .. } => Endpoint::Analyze,
            CircuitOp::Optimize { .. } => Endpoint::Optimize,
            CircuitOp::Tpi { .. } => Endpoint::Tpi,
            CircuitOp::Check { .. } => Endpoint::Check,
            CircuitOp::Simulate { .. } => Endpoint::Simulate,
        }
    }
}

/// A parsed request.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Register a circuit (by netlist text or built-in name).
    Submit {
        /// `"bench"` (default) or `"pdl"`.
        format: String,
        /// Circuit name (defaults to the format name).
        name: Option<String>,
        /// Netlist text.
        text: Option<String>,
        /// Built-in circuit name (alternative to `text`).
        builtin: Option<String>,
    },
    /// One circuit op addressed by content hash.
    Circuit {
        /// The registry key returned by `submit`.
        hash: String,
        /// The operation.
        op: CircuitOp,
    },
    /// Several circuit ops over one session checkout.
    Batch {
        /// The registry key returned by `submit`.
        hash: String,
        /// The operations, answered in order.
        ops: Vec<CircuitOp>,
    },
    /// Server metrics snapshot.
    Stats,
    /// Begin graceful drain.
    Shutdown,
}

impl Op {
    /// The endpoint this request is metered under.
    pub fn endpoint(&self) -> Endpoint {
        match self {
            Op::Submit { .. } => Endpoint::Submit,
            Op::Circuit { op, .. } => op.endpoint(),
            Op::Batch { .. } => Endpoint::Batch,
            Op::Stats => Endpoint::Stats,
            Op::Shutdown => Endpoint::Shutdown,
        }
    }
}

/// A parsed request envelope: client-chosen id (echoed verbatim) + op.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// The client's `id`, echoed in the reply (`null` when absent).
    pub id: Json,
    /// The operation.
    pub op: Op,
    /// The opt-in `"timing": true` request flag: when set on a circuit
    /// op (or `batch`), the success reply carries a sibling `timing`
    /// object — `{"queue_wait_us":…,"checkout_us":…,"compute_us":…}` —
    /// reporting how long the request waited for a compute permit, how
    /// long the session checkout took, and how long the computation ran.
    /// Ignored on `submit`/`stats`/`shutdown` (they take no permit) and
    /// on error replies.
    pub timing: bool,
}

fn bad(message: impl Into<String>) -> WireError {
    WireError::new(ErrorKind::Protocol, message)
}

fn prob_spec(obj: &Json) -> Result<ProbSpec, WireError> {
    if let Some(v) = obj.get("probs") {
        let arr = v.as_arr().ok_or_else(|| bad("`probs` must be an array"))?;
        let mut probs = Vec::with_capacity(arr.len());
        for p in arr {
            probs.push(
                p.as_f64()
                    .ok_or_else(|| bad("`probs` entries must be numbers"))?,
            );
        }
        return Ok(ProbSpec::Explicit(probs));
    }
    match obj.get("prob") {
        None => Ok(ProbSpec::default()),
        Some(p) => Ok(ProbSpec::Constant(
            p.as_f64().ok_or_else(|| bad("`prob` must be a number"))?,
        )),
    }
}

fn testlens(obj: &Json) -> Result<Vec<(f64, f64)>, WireError> {
    match obj.get("testlen") {
        None => Ok(vec![(1.0, 0.95), (0.98, 0.98)]),
        Some(v) => {
            let arr = v
                .as_arr()
                .ok_or_else(|| bad("`testlen` must be an array of [d, e] pairs"))?;
            let mut out = Vec::with_capacity(arr.len());
            for pair in arr {
                let pair = pair
                    .as_arr()
                    .filter(|p| p.len() == 2)
                    .ok_or_else(|| bad("`testlen` entries must be [d, e] pairs"))?;
                let d = pair[0]
                    .as_f64()
                    .ok_or_else(|| bad("`testlen` d must be a number"))?;
                let e = pair[1]
                    .as_f64()
                    .ok_or_else(|| bad("`testlen` e must be a number"))?;
                if !(0.0..=1.0).contains(&d) || !(0.0..1.0).contains(&e) {
                    return Err(bad("`testlen` targets need d in [0,1], e in [0,1)"));
                }
                out.push((d, e));
            }
            Ok(out)
        }
    }
}

fn u64_field(obj: &Json, key: &str, default: u64) -> Result<u64, WireError> {
    match obj.get(key) {
        None => Ok(default),
        Some(v) => v
            .as_u64()
            .ok_or_else(|| bad(format!("`{key}` must be a non-negative integer"))),
    }
}

fn usize_field(obj: &Json, key: &str, default: usize) -> Result<usize, WireError> {
    Ok(u64_field(obj, key, default as u64)? as usize)
}

fn f64_field(obj: &Json, key: &str, default: f64) -> Result<f64, WireError> {
    match obj.get(key) {
        None => Ok(default),
        Some(v) => v
            .as_f64()
            .ok_or_else(|| bad(format!("`{key}` must be a number"))),
    }
}

fn bool_field(obj: &Json, key: &str, default: bool) -> Result<bool, WireError> {
    match obj.get(key) {
        None => Ok(default),
        Some(v) => v
            .as_bool()
            .ok_or_else(|| bad(format!("`{key}` must be a boolean"))),
    }
}

fn hash_field(obj: &Json) -> Result<String, WireError> {
    obj.get("circuit")
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| bad("`circuit` (the hash from submit) is required"))
}

/// Parses a circuit op from an object carrying an `"op"` tag.
fn circuit_op(obj: &Json) -> Result<CircuitOp, WireError> {
    let op = obj
        .get("op")
        .and_then(Json::as_str)
        .ok_or_else(|| bad("`op` must be a string"))?;
    match op {
        "analyze" => Ok(CircuitOp::Analyze {
            probs: prob_spec(obj)?,
            testlens: testlens(obj)?,
            hardest: usize_field(obj, "hardest", 0)?,
            detect_probs: bool_field(obj, "detect_probs", true)?,
            signal_probs: bool_field(obj, "signal_probs", false)?,
        }),
        "optimize" => Ok(CircuitOp::Optimize {
            n_target: u64_field(obj, "n_target", 10_000)?,
            seed: u64_field(obj, "seed", 1)?,
            testlens: testlens(obj)?,
        }),
        "tpi" => Ok(CircuitOp::Tpi {
            budget: usize_field(obj, "budget", 1)?,
            max_candidates: usize_field(obj, "max_candidates", 32)?,
            target_d: f64_field(obj, "target_d", 1.0)?,
            target_e: f64_field(obj, "target_e", 0.98)?,
            dry_run: bool_field(obj, "dry_run", false)?,
        }),
        "check" => Ok(CircuitOp::Check {
            prove_redundant: bool_field(obj, "prove_redundant", false)?,
            bdd_budget: usize_field(obj, "bdd_budget", 200_000)?,
        }),
        "simulate" => Ok(CircuitOp::Simulate {
            probs: prob_spec(obj)?,
            patterns: u64_field(obj, "patterns", 1_000)?.max(1),
            seed: u64_field(obj, "seed", 1)?,
        }),
        other => Err(bad(format!("unknown op `{other}`"))),
    }
}

/// Maximum circuit ops per `batch` envelope.
pub const MAX_BATCH: usize = 256;

/// Parses one request line. On failure the client's `id` is still
/// recovered when the line was at least valid JSON, so the error reply
/// can be correlated.
pub fn parse_request(line: &str) -> Result<Request, (Json, WireError)> {
    let root = match Json::parse(line) {
        Ok(v) => v,
        Err(e) => {
            return Err((
                Json::Null,
                WireError::new(ErrorKind::Parse, format!("invalid JSON: {e}")),
            ))
        }
    };
    let id = root.get("id").cloned().unwrap_or(Json::Null);
    let fail = |e: WireError| (id.clone(), e);
    if !matches!(root, Json::Obj(_)) {
        return Err(fail(bad("request must be a JSON object")));
    }
    let op_name = root
        .get("op")
        .and_then(Json::as_str)
        .ok_or_else(|| fail(bad("`op` must be a string")))?;
    let op = match op_name {
        "submit" => {
            let text = root.get("text").and_then(Json::as_str).map(str::to_string);
            let builtin = root
                .get("builtin")
                .and_then(Json::as_str)
                .map(str::to_string);
            if text.is_none() == builtin.is_none() {
                return Err(fail(bad("submit needs exactly one of `text` or `builtin`")));
            }
            let format = root
                .get("format")
                .and_then(Json::as_str)
                .unwrap_or("bench")
                .to_string();
            if format != "bench" && format != "pdl" {
                return Err(fail(bad("`format` must be \"bench\" or \"pdl\"")));
            }
            Op::Submit {
                format,
                name: root.get("name").and_then(Json::as_str).map(str::to_string),
                text,
                builtin,
            }
        }
        "stats" => Op::Stats,
        "shutdown" => Op::Shutdown,
        "batch" => {
            let hash = hash_field(&root).map_err(&fail)?;
            let entries = root
                .get("requests")
                .and_then(Json::as_arr)
                .ok_or_else(|| fail(bad("batch needs a `requests` array")))?;
            if entries.is_empty() || entries.len() > MAX_BATCH {
                return Err(fail(bad(format!(
                    "batch size must be 1..={MAX_BATCH}, got {}",
                    entries.len()
                ))));
            }
            let mut ops = Vec::with_capacity(entries.len());
            for entry in entries {
                ops.push(circuit_op(entry).map_err(&fail)?);
            }
            Op::Batch { hash, ops }
        }
        _ => Op::Circuit {
            hash: hash_field(&root).map_err(&fail)?,
            op: circuit_op(&root).map_err(&fail)?,
        },
    };
    let timing = bool_field(&root, "timing", false).map_err(&fail)?;
    Ok(Request { id, op, timing })
}

/// Serializes a success reply line (no trailing newline).
pub fn ok_line(id: &Json, result: Json) -> String {
    let _t = protest_telemetry::span(protest_telemetry::Site::ServeSerialize);
    Json::obj(vec![
        ("id", id.clone()),
        ("ok", Json::Bool(true)),
        ("result", result),
    ])
    .to_line()
}

/// Serializes a success reply line carrying the opt-in `timing` object
/// (see [`Request::timing`]).
pub fn ok_line_timed(id: &Json, result: Json, timing: Json) -> String {
    let _t = protest_telemetry::span(protest_telemetry::Site::ServeSerialize);
    Json::obj(vec![
        ("id", id.clone()),
        ("ok", Json::Bool(true)),
        ("result", result),
        ("timing", timing),
    ])
    .to_line()
}

/// Serializes an error reply line (no trailing newline).
pub fn err_line(id: &Json, error: &WireError) -> String {
    let _t = protest_telemetry::span(protest_telemetry::Site::ServeSerialize);
    Json::obj(vec![
        ("id", id.clone()),
        ("ok", Json::Bool(false)),
        ("error", error.to_json()),
    ])
    .to_line()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_submit_and_analyze() {
        let r = parse_request(r#"{"id":1,"op":"submit","text":"INPUT(a)\nOUTPUT(a)"}"#).unwrap();
        assert_eq!(r.id.as_u64(), Some(1));
        assert!(matches!(r.op, Op::Submit { .. }));

        let r = parse_request(
            r#"{"id":"x","op":"analyze","circuit":"abc","prob":0.25,"testlen":[[1.0,0.95]],"hardest":5}"#,
        )
        .unwrap();
        match r.op {
            Op::Circuit {
                hash,
                op:
                    CircuitOp::Analyze {
                        probs,
                        testlens,
                        hardest,
                        detect_probs,
                        signal_probs,
                    },
            } => {
                assert_eq!(hash, "abc");
                assert_eq!(probs, ProbSpec::Constant(0.25));
                assert_eq!(testlens, vec![(1.0, 0.95)]);
                assert_eq!(hardest, 5);
                assert!(detect_probs);
                assert!(!signal_probs);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_batch() {
        let r = parse_request(
            r#"{"id":2,"op":"batch","circuit":"h","requests":[{"op":"analyze"},{"op":"simulate","patterns":64}]}"#,
        )
        .unwrap();
        match r.op {
            Op::Batch { hash, ops } => {
                assert_eq!(hash, "h");
                assert_eq!(ops.len(), 2);
                assert!(matches!(ops[1], CircuitOp::Simulate { patterns: 64, .. }));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn recovers_id_from_bad_envelope() {
        let (id, err) = parse_request(r#"{"id":42,"op":"frobnicate","circuit":"h"}"#).unwrap_err();
        assert_eq!(id.as_u64(), Some(42));
        assert_eq!(err.kind, ErrorKind::Protocol);

        let (id, err) = parse_request("not json at all").unwrap_err();
        assert_eq!(id, Json::Null);
        assert_eq!(err.kind, ErrorKind::Parse);
    }

    #[test]
    fn submit_requires_exactly_one_source() {
        assert!(parse_request(r#"{"op":"submit"}"#).is_err());
        assert!(parse_request(r#"{"op":"submit","text":"x","builtin":"c17"}"#).is_err());
        assert!(parse_request(r#"{"op":"submit","builtin":"c17"}"#).is_ok());
    }

    #[test]
    fn reply_lines_are_single_lines() {
        let ok = ok_line(&Json::Num(1.0), Json::obj(vec![("x", Json::str("a\nb"))]));
        assert!(!ok.contains('\n'));
        let err = err_line(&Json::Null, &WireError::new(ErrorKind::Busy, "queue full"));
        assert!(err.contains("\"busy\""));
        assert!(!err.contains('\n'));
    }
}
