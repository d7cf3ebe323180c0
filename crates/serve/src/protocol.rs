//! The JSON Lines wire protocol.
//!
//! Every request is one JSON object on one line; every request gets exactly
//! one JSON object back on one line. Successful responses carry
//! `"ok": true`; rejections carry `"ok": false` and a typed `error` object:
//!
//! ```text
//! {"ok":false,"error":{"kind":"overloaded","detail":"queue full: 32 jobs"}}
//! ```
//!
//! Requests (the `op` field selects one):
//!
//! * `submit` — enqueue a job. Fields: `tenant` (default `"default"`),
//!   `deadline_ms` (default from server config), and either a case spec
//!   (`workload`, `nodes`, `policy`, `seed`, `scale`, `inject_panic`) or
//!   `scenario` (path to a scenario TOML). A deadline is read between a
//!   case job's quantum chunks; a scenario runs whole, so a `scenario`
//!   submit that names `deadline_ms` is a `bad_request`.
//! * `status` — one job's record (`job` field).
//! * `wait` — block until the job is terminal, then return its record.
//! * `list` — every job's summary.
//! * `stats` — state counts, per-tenant in-flight counts, and the live
//!   connection handlers (`connections`) against their cap
//!   (`max_connections`).
//! * `shutdown` — stop accepting work and wind the server down.
//!
//! One request line holds at most 1 MiB; a longer one is a `bad_request`
//! and closes the connection. A connection past the server's cap is
//! answered with one `overloaded` line and closed, and one silent for 60 s
//! is closed.

use serde_json::Value;

/// Why a *request* was rejected (job failures are a separate, per-job
/// record — see [`crate::jobs::JobError`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RejectKind {
    /// The job queue is at capacity; resubmit later.
    Overloaded,
    /// The tenant already has its maximum number of jobs in flight.
    QuotaExceeded,
    /// The request was malformed (unknown op, missing/invalid fields).
    BadRequest,
    /// The referenced job id does not exist.
    UnknownJob,
    /// The server is shutting down and accepts no new work.
    ShuttingDown,
}

impl RejectKind {
    /// The wire name of this rejection kind.
    pub fn name(self) -> &'static str {
        match self {
            RejectKind::Overloaded => "overloaded",
            RejectKind::QuotaExceeded => "quota_exceeded",
            RejectKind::BadRequest => "bad_request",
            RejectKind::UnknownJob => "unknown_job",
            RejectKind::ShuttingDown => "shutting_down",
        }
    }
}

/// Builds a JSON object from `(key, value)` pairs, preserving order.
pub fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// A `"ok": true` response with the given extra fields.
pub fn ok(mut fields: Vec<(&str, Value)>) -> Value {
    let mut all = vec![("ok", Value::Bool(true))];
    all.append(&mut fields);
    obj(all)
}

/// A `"ok": false` rejection with a typed error object.
pub fn reject(kind: RejectKind, detail: impl Into<String>) -> Value {
    obj(vec![
        ("ok", Value::Bool(false)),
        (
            "error",
            obj(vec![
                ("kind", Value::Str(kind.name().to_string())),
                ("detail", Value::Str(detail.into())),
            ]),
        ),
    ])
}

/// String field accessor (missing or non-string → `None`).
pub fn get_str<'a>(v: &'a Value, key: &str) -> Option<&'a str> {
    match v.get(key) {
        Some(Value::Str(s)) => Some(s),
        _ => None,
    }
}

/// Unsigned-integer field accessor.
pub fn get_u64(v: &Value, key: &str) -> Option<u64> {
    match v.get(key) {
        Some(Value::U64(n)) => Some(*n),
        Some(Value::I64(n)) if *n >= 0 => Some(*n as u64),
        _ => None,
    }
}

/// Boolean field accessor.
pub fn get_bool(v: &Value, key: &str) -> Option<bool> {
    match v.get(key) {
        Some(Value::Bool(b)) => Some(*b),
        _ => None,
    }
}
