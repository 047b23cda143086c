//! Request/response vocabulary of the service: one **versioned typed
//! surface** — [`ApiRequest`] in, [`ApiResponse`] out — shared
//! verbatim by server dispatch and the [`Client`](crate::client).
//!
//! Every request body may carry an explicit `"v": 1` field (the
//! [`Client`](crate::client) always sends it; a missing `v` is read as
//! v1 for compatibility); an unknown version or unknown field answers
//! 400 with a JSON error body naming the offender. A request is a
//! `compile` or `simulate` job — `POST /v1/batch` accepts
//! `{"v":1,"jobs":[...]}` where each job is the same object shape plus
//! a `"kind"` discriminator, and answers per-job results-or-errors in
//! order.
//!
//! Response bodies are built with the deterministic `ObjWriter` (fixed
//! key order, no wall-clock fields), so the same request always yields
//! the same bytes — the property the content-hash cache and the
//! byte-identical-to-in-process acceptance test both rely on.

use std::sync::Arc;

use sentinel_core::{CompileSession, SchedOptions, SchedStats, SchedulingModel};
use sentinel_isa::MachineDesc;
use sentinel_prog::{asm, Function};
use sentinel_sim::{Engine, ProgramCache, RunOutcome, SimConfig, SimSession};
use sentinel_spec::{model_str, semantics_for, JobSpec, ProgramRef, SpecKind};
use sentinel_trace::json::{self, ObjWriter, Value};
use sentinel_workloads::Workload;

/// Largest issue width a request may ask for (guards allocation).
pub const MAX_WIDTH: usize = 64;

/// The wire-format version this server speaks. Requests may state it
/// explicitly as `"v": 1`; any other value is a 400.
pub const API_VERSION: u64 = 1;

/// Default upper bound on jobs per `POST /v1/batch` request.
pub const DEFAULT_MAX_BATCH_JOBS: usize = 64;

/// A request the service rejected, with the HTTP status to answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApiError {
    /// HTTP status (400 for everything a client got wrong).
    pub status: u16,
    /// Human-readable description (becomes `{"error":...}`).
    pub message: String,
}

impl ApiError {
    /// A 400 with the given message.
    pub fn bad(message: impl Into<String>) -> ApiError {
        ApiError {
            status: 400,
            message: message.into(),
        }
    }
}

/// Parses a scheduling-model name ([`sentinel_spec::parse_model`]),
/// with the error as text.
pub fn parse_model(s: &str) -> Result<SchedulingModel, String> {
    sentinel_spec::parse_model(s).map_err(|e| e.to_string())
}

/// Shared model/width/recovery knobs of both endpoints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Knobs {
    /// Scheduling model (default S).
    pub model: SchedulingModel,
    /// Issue width (default 8, max [`MAX_WIDTH`]).
    pub width: usize,
    /// Enforce the §3.7 recovery constraints.
    pub recovery: bool,
}

impl Default for Knobs {
    fn default() -> Knobs {
        Knobs {
            model: SchedulingModel::Sentinel,
            width: 8,
            recovery: false,
        }
    }
}

/// `POST /v1/compile`: asm text in, schedule statistics out.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompileRequest {
    /// Assembly source text.
    pub source: String,
    /// Model/width/recovery.
    pub knobs: Knobs,
    /// Run the inter-pass IR verifier between stages.
    pub verify_passes: bool,
    /// Include the scheduled program (`"asm"`) in the response.
    pub emit: bool,
}

/// What a simulate request runs: a suite benchmark or inline source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Program {
    /// A benchmark from the paper's 17-program suite, by name.
    Suite(String),
    /// Inline assembly source.
    Source(String),
}

/// `POST /v1/simulate`: workload + machine knobs in, `Measured`-style
/// statistics out.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimulateRequest {
    /// What to run.
    pub program: Program,
    /// Model/width/recovery.
    pub knobs: Knobs,
    /// Execution engine (default turbo). Not part of the job's identity:
    /// the engines are byte-identical, so the spec and the cache key
    /// leave it out, and a cached response may come from either.
    pub engine: Engine,
    /// Memory regions to map before running inline source:
    /// `(start, len)`.
    pub map: Vec<(u64, u64)>,
    /// Initial memory words for inline source: `(addr, bits)`.
    pub word: Vec<(u64, u64)>,
}

/// The two job kinds of the API, the discriminator batch jobs carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobKind {
    /// Schedule assembly text, report schedule statistics.
    Compile,
    /// Schedule then run a workload, report execution statistics.
    Simulate,
}

impl JobKind {
    /// The `"kind"` discriminator string.
    pub fn as_str(self) -> &'static str {
        match self {
            JobKind::Compile => "compile",
            JobKind::Simulate => "simulate",
        }
    }

    /// The endpoint path this kind is served on.
    pub fn path(self) -> &'static str {
        match self {
            JobKind::Compile => "/v1/compile",
            JobKind::Simulate => "/v1/simulate",
        }
    }
}

impl std::str::FromStr for JobKind {
    type Err = String;
    fn from_str(s: &str) -> Result<JobKind, String> {
        match s {
            "compile" => Ok(JobKind::Compile),
            "simulate" => Ok(JobKind::Simulate),
            other => Err(format!("unknown kind '{other}' (compile or simulate)")),
        }
    }
}

/// Validates the optional `"v"` field: absent reads as v1, anything
/// other than [`API_VERSION`] is a 400 naming the offending version.
fn check_version(v: &Value) -> Result<(), ApiError> {
    match v.get("v") {
        None => Ok(()),
        Some(f) => match f.as_u64() {
            Some(API_VERSION) => Ok(()),
            Some(other) => Err(ApiError::bad(format!(
                "unsupported api version {other} (this server speaks v{API_VERSION})"
            ))),
            None => Err(ApiError::bad("'v' must be an integer")),
        },
    }
}

/// Validates the optional `"kind"` field against how the request was
/// routed (its endpoint, or the batch job discriminator).
fn check_kind(v: &Value, expected: JobKind) -> Result<(), ApiError> {
    match opt_str(v, "kind")? {
        None => Ok(()),
        Some(k) => {
            let kind: JobKind = k.parse().map_err(ApiError::bad)?;
            if kind == expected {
                Ok(())
            } else {
                Err(ApiError::bad(format!(
                    "'kind' is '{}' but the request was routed as '{}'",
                    kind.as_str(),
                    expected.as_str()
                )))
            }
        }
    }
}

fn expect_object<'v>(v: &'v Value, known: &[&str]) -> Result<&'v [(String, Value)], ApiError> {
    let Value::Object(members) = v else {
        return Err(ApiError::bad("request body must be a JSON object"));
    };
    for (k, _) in members {
        if !known.contains(&k.as_str()) {
            return Err(ApiError::bad(format!("unknown field '{k}'")));
        }
    }
    Ok(members)
}

fn opt_str(v: &Value, key: &str) -> Result<Option<String>, ApiError> {
    match v.get(key) {
        None => Ok(None),
        Some(f) => f
            .as_str()
            .map(|s| Some(s.to_string()))
            .ok_or_else(|| ApiError::bad(format!("'{key}' must be a string"))),
    }
}

fn opt_bool(v: &Value, key: &str) -> Result<bool, ApiError> {
    match v.get(key) {
        None => Ok(false),
        Some(f) => f
            .as_bool()
            .ok_or_else(|| ApiError::bad(format!("'{key}' must be a boolean"))),
    }
}

fn knobs_from(v: &Value) -> Result<Knobs, ApiError> {
    let mut knobs = Knobs::default();
    if let Some(m) = opt_str(v, "model")? {
        knobs.model = parse_model(&m).map_err(ApiError::bad)?;
    }
    if let Some(w) = v.get("width") {
        let w = w
            .as_u64()
            .filter(|&w| (1..=MAX_WIDTH as u64).contains(&w))
            .ok_or_else(|| {
                ApiError::bad(format!("'width' must be an integer in 1..={MAX_WIDTH}"))
            })?;
        knobs.width = w as usize;
    }
    knobs.recovery = opt_bool(v, "recovery")?;
    Ok(knobs)
}

fn pairs_from(v: &Value, key: &str) -> Result<Vec<(u64, u64)>, ApiError> {
    let Some(field) = v.get(key) else {
        return Ok(Vec::new());
    };
    let items = field
        .as_array()
        .ok_or_else(|| ApiError::bad(format!("'{key}' must be an array of [a, b] pairs")))?;
    items
        .iter()
        .map(|item| {
            let pair = item.as_array().filter(|p| p.len() == 2);
            let nums: Option<(u64, u64)> = pair.and_then(|p| {
                Some((
                    p[0].as_i64().map(|n| n as u64)?,
                    p[1].as_i64().map(|n| n as u64)?,
                ))
            });
            nums.ok_or_else(|| ApiError::bad(format!("'{key}' entries must be [int, int] pairs")))
        })
        .collect()
}

impl CompileRequest {
    /// Parses a compile request from an already-parsed JSON object
    /// (version and kind fields validated by the caller).
    fn from_value(v: &Value) -> Result<CompileRequest, ApiError> {
        expect_object(
            v,
            &[
                "v",
                "kind",
                "source",
                "model",
                "width",
                "recovery",
                "verify_passes",
                "emit",
            ],
        )?;
        let source = opt_str(v, "source")?
            .ok_or_else(|| ApiError::bad("missing required field 'source'"))?;
        Ok(CompileRequest {
            source,
            knobs: knobs_from(v)?,
            verify_passes: opt_bool(v, "verify_passes")?,
            emit: opt_bool(v, "emit")?,
        })
    }

    /// The canonical [`JobSpec`] this request describes (the identity
    /// every cache and repro line agrees on).
    pub fn to_spec(&self) -> JobSpec {
        let mut spec = JobSpec::compile(self.source.clone(), self.knobs.model, self.knobs.width);
        spec.recovery = self.knobs.recovery;
        spec.verify_passes = self.verify_passes;
        spec.emit = self.emit;
        spec
    }

    /// The content-hash cache key: the spec's canonical encoding.
    pub fn cache_key(&self) -> String {
        self.to_spec().canonical()
    }
}

impl SimulateRequest {
    /// Parses a simulate request from an already-parsed JSON object
    /// (version and kind fields validated by the caller).
    fn from_value(v: &Value) -> Result<SimulateRequest, ApiError> {
        expect_object(
            v,
            &[
                "v", "kind", "suite", "source", "model", "width", "recovery", "engine", "map",
                "word",
            ],
        )?;
        let program = match (opt_str(v, "suite")?, opt_str(v, "source")?) {
            (Some(name), None) => Program::Suite(name),
            (None, Some(text)) => Program::Source(text),
            _ => {
                return Err(ApiError::bad(
                    "exactly one of 'suite' or 'source' is required",
                ))
            }
        };
        let engine = match opt_str(v, "engine")? {
            None => Engine::default(),
            Some(s) => s.parse::<Engine>().map_err(ApiError::bad)?,
        };
        let (map, word) = (pairs_from(v, "map")?, pairs_from(v, "word")?);
        if matches!(program, Program::Suite(_)) && (!map.is_empty() || !word.is_empty()) {
            return Err(ApiError::bad(
                "'map'/'word' only apply to inline 'source' programs",
            ));
        }
        Ok(SimulateRequest {
            program,
            knobs: knobs_from(v)?,
            engine,
            map,
            word,
        })
    }

    /// The canonical [`JobSpec`] this request describes. The
    /// store-buffer depth is resolved from the same machine
    /// description [`run`](ApiRequest::run) will simulate with, so a
    /// serve-derived spec and a bench-grid-derived spec for the same
    /// job are identical — the cross-layer key contract pinned by
    /// `tests/spec_keys.rs`.
    pub fn to_spec(&self) -> JobSpec {
        let program = match &self.program {
            Program::Suite(name) => ProgramRef::Suite(name.clone()),
            Program::Source(text) => ProgramRef::Source(text.clone()),
        };
        let mut spec = JobSpec::simulate(program, self.knobs.model, self.knobs.width);
        spec.recovery = self.knobs.recovery;
        spec.store_buffer = mdes_for(&self.knobs).store_buffer_size();
        spec.map = self.map.clone();
        spec.word = self.word.clone();
        spec
    }

    /// The content-hash cache key: the spec's canonical encoding.
    pub fn cache_key(&self) -> String {
        self.to_spec().canonical()
    }
}

/// One request of the versioned API surface: a compile or simulate
/// job. The same object shape parses from a single endpoint body
/// (kind implied by the path) and from a `/v1/batch` job entry (kind
/// explicit); [`ApiRequest::to_json`] always spells out both `v` and
/// `kind`, so a serialized request is valid either way.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ApiRequest {
    /// `kind: "compile"` — schedule assembly, report statistics.
    Compile(CompileRequest),
    /// `kind: "simulate"` — schedule and run, report statistics.
    Simulate(SimulateRequest),
}

impl ApiRequest {
    /// Parses a request body routed to `kind`'s endpoint.
    ///
    /// # Errors
    ///
    /// 400 on malformed JSON, an unknown `v` or field (named in the
    /// error), a `kind` contradicting the endpoint, or bad knob
    /// values.
    pub fn from_json(kind: JobKind, body: &str) -> Result<ApiRequest, ApiError> {
        let v = json::parse(body).map_err(|e| ApiError::bad(e.to_string()))?;
        ApiRequest::from_value(&v, kind)
    }

    /// Parses one batch job entry: the job's own `"kind"` field picks
    /// the variant.
    fn job_from_value(v: &Value) -> Result<ApiRequest, ApiError> {
        let kind: JobKind = opt_str(v, "kind")?
            .ok_or_else(|| ApiError::bad("batch job missing required field 'kind'"))?
            .parse()
            .map_err(ApiError::bad)?;
        ApiRequest::from_value(v, kind)
    }

    fn from_value(v: &Value, kind: JobKind) -> Result<ApiRequest, ApiError> {
        check_version(v)?;
        check_kind(v, kind)?;
        match kind {
            JobKind::Compile => Ok(ApiRequest::Compile(CompileRequest::from_value(v)?)),
            JobKind::Simulate => Ok(ApiRequest::Simulate(SimulateRequest::from_value(v)?)),
        }
    }

    /// Which endpoint / batch discriminator this request belongs to.
    pub fn kind(&self) -> JobKind {
        match self {
            ApiRequest::Compile(_) => JobKind::Compile,
            ApiRequest::Simulate(_) => JobKind::Simulate,
        }
    }

    /// The canonical [`JobSpec`] this request describes.
    pub fn to_spec(&self) -> JobSpec {
        match self {
            ApiRequest::Compile(r) => r.to_spec(),
            ApiRequest::Simulate(r) => r.to_spec(),
        }
    }

    /// Rebuild a request from a canonical [`JobSpec`] — the inverse of
    /// [`to_spec`](ApiRequest::to_spec), used by `--spec` reproduction
    /// in the CLI.
    ///
    /// # Errors
    ///
    /// 400 for fuzz specs (those reproduce via `sentinel fuzz`) and
    /// for widths outside `1..=`[`MAX_WIDTH`].
    pub fn from_spec(spec: &JobSpec) -> Result<ApiRequest, ApiError> {
        if !(1..=MAX_WIDTH).contains(&spec.width) {
            return Err(ApiError::bad(format!(
                "spec width {} outside 1..={MAX_WIDTH}",
                spec.width
            )));
        }
        let knobs = Knobs {
            model: spec.model,
            width: spec.width,
            recovery: spec.recovery,
        };
        match spec.kind {
            SpecKind::Compile => {
                let ProgramRef::Source(source) = &spec.program else {
                    return Err(ApiError::bad("compile specs must carry inline source"));
                };
                Ok(ApiRequest::Compile(CompileRequest {
                    source: source.clone(),
                    knobs,
                    verify_passes: spec.verify_passes,
                    emit: spec.emit,
                }))
            }
            SpecKind::Simulate => {
                let program = match &spec.program {
                    ProgramRef::Suite(name) => Program::Suite(name.clone()),
                    ProgramRef::Source(text) => Program::Source(text.clone()),
                    ProgramRef::Seeded { .. } => {
                        return Err(ApiError::bad(
                            "seeded programs reproduce via `sentinel fuzz --spec`",
                        ))
                    }
                };
                Ok(ApiRequest::Simulate(SimulateRequest {
                    program,
                    knobs,
                    engine: Engine::default(),
                    map: spec.map.clone(),
                    word: spec.word.clone(),
                }))
            }
            SpecKind::Fuzz => Err(ApiError::bad(
                "fuzz specs reproduce via `sentinel fuzz --spec`",
            )),
        }
    }

    /// The content-hash cache key: the canonical encoding of
    /// [`to_spec`](ApiRequest::to_spec) (kind included as a spec
    /// field).
    pub fn cache_key(&self) -> String {
        match self {
            ApiRequest::Compile(r) => r.cache_key(),
            ApiRequest::Simulate(r) => r.cache_key(),
        }
    }

    /// Evaluates the request end to end and serializes the response
    /// body — the in-process ground truth HTTP responses are compared
    /// against byte for byte.
    ///
    /// # Errors
    ///
    /// 400 for everything the *request* got wrong: parse or schedule
    /// failures, unknown suite names, runs the simulator rejects.
    pub fn run(&self, workloads: &[Workload]) -> Result<String, ApiError> {
        self.run_with_cache(workloads, None)
    }

    /// [`run`](ApiRequest::run), but compiling simulate jobs through a
    /// shared [`SimProgramCache`]: jobs with the same schedule point
    /// (program, model, width, recovery, store buffer — the engine does
    /// *not* split the key) share one compile per process. The response
    /// bytes are identical with or without the cache.
    ///
    /// # Errors
    ///
    /// See [`run`](ApiRequest::run); cached compile failures replay the
    /// same error.
    pub fn run_with_cache(
        &self,
        workloads: &[Workload],
        programs: Option<&SimProgramCache>,
    ) -> Result<String, ApiError> {
        match self {
            ApiRequest::Compile(r) => compile_response(r),
            ApiRequest::Simulate(r) => simulate_response(r, workloads, programs),
        }
    }

    /// Serializes the request with explicit `v` and `kind` fields —
    /// valid as a single-endpoint body and as a batch job entry.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let mut w = ObjWriter::new(&mut out);
        w.u64("v", API_VERSION).str("kind", self.kind().as_str());
        match self {
            ApiRequest::Compile(r) => {
                w.str("source", &r.source);
                write_knobs(&mut w, &r.knobs);
                w.bool("verify_passes", r.verify_passes)
                    .bool("emit", r.emit);
            }
            ApiRequest::Simulate(r) => {
                match &r.program {
                    Program::Suite(name) => w.str("suite", name),
                    Program::Source(text) => w.str("source", text),
                };
                write_knobs(&mut w, &r.knobs);
                w.str("engine", &r.engine.to_string());
                if !r.map.is_empty() {
                    w.raw("map", &pairs_json(&r.map));
                }
                if !r.word.is_empty() {
                    w.raw("word", &pairs_json(&r.word));
                }
            }
        }
        w.close();
        out
    }
}

fn write_knobs(w: &mut ObjWriter<'_>, knobs: &Knobs) {
    w.str("model", &model_str(knobs.model))
        .u64("width", knobs.width as u64)
        .bool("recovery", knobs.recovery);
}

fn pairs_json(pairs: &[(u64, u64)]) -> String {
    let mut out = String::from("[");
    for (i, (a, b)) in pairs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("[{a},{b}]"));
    }
    out.push(']');
    out
}

/// `POST /v1/batch`: an ordered list of jobs, answered by per-job
/// results-or-errors in the same order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchRequest {
    /// The jobs, in request order.
    pub jobs: Vec<ApiRequest>,
}

impl BatchRequest {
    /// Parses a batch body, enforcing the per-batch job cap.
    ///
    /// # Errors
    ///
    /// 400 on malformed JSON, a bad envelope (`v`/`jobs`), more than
    /// `max_jobs` jobs, or any unparseable job — a malformed *job* is
    /// a malformed *request*; only jobs that fail while running
    /// degrade to per-job error entries.
    pub fn from_json(body: &str, max_jobs: usize) -> Result<BatchRequest, ApiError> {
        let v = json::parse(body).map_err(|e| ApiError::bad(e.to_string()))?;
        expect_object(&v, &["v", "jobs"])?;
        check_version(&v)?;
        let jobs = v
            .get("jobs")
            .and_then(Value::as_array)
            .ok_or_else(|| ApiError::bad("missing required field 'jobs' (an array)"))?;
        if jobs.is_empty() {
            return Err(ApiError::bad("'jobs' must not be empty"));
        }
        if jobs.len() > max_jobs {
            return Err(ApiError::bad(format!(
                "batch of {} jobs exceeds the per-batch cap of {max_jobs}",
                jobs.len()
            )));
        }
        let jobs = jobs
            .iter()
            .enumerate()
            .map(|(i, job)| {
                ApiRequest::job_from_value(job)
                    .map_err(|e| ApiError::bad(format!("job {i}: {}", e.message)))
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(BatchRequest { jobs })
    }

    /// Serializes the batch envelope (`{"v":1,"jobs":[...]}`).
    pub fn to_json(&self) -> String {
        let mut out = format!("{{\"v\":{API_VERSION},\"jobs\":[");
        for (i, job) in self.jobs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&job.to_json());
        }
        out.push_str("]}");
        out
    }
}

/// One response of the versioned API surface — what server dispatch
/// produces and what [`Client`](crate::client::Client) hands back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ApiResponse {
    /// A successful result: the deterministic serialized response
    /// object, byte-identical to [`ApiRequest::run`]'s output.
    Result(String),
    /// A failed request or batch job.
    Error(ApiError),
    /// Per-job results-or-errors, in request order (entries are only
    /// ever `Result` or `Error`).
    Batch(Vec<ApiResponse>),
}

impl ApiResponse {
    /// The HTTP status this response answers with. A batch is 200
    /// regardless of its entries — per-job failures are data, not a
    /// failed request.
    pub fn status(&self) -> u16 {
        match self {
            ApiResponse::Result(_) | ApiResponse::Batch(_) => 200,
            ApiResponse::Error(e) => e.status,
        }
    }

    /// Whether this is a successful result (a batch counts as ok).
    pub fn is_ok(&self) -> bool {
        !matches!(self, ApiResponse::Error(_))
    }

    /// Serializes into the HTTP response the server sends: result
    /// bodies verbatim, errors as `{"error":...}`, batches as
    /// `{"v":1,"results":[...]}` with error entries spelled
    /// `{"status":N,"error":...}`.
    pub fn into_http(self) -> crate::http::Response {
        use crate::http::{error_body, Response};
        match self {
            ApiResponse::Result(body) => Response::json(200, body),
            ApiResponse::Error(e) => Response::json(e.status, error_body(&e.message)),
            ApiResponse::Batch(entries) => {
                let mut body = format!("{{\"v\":{API_VERSION},\"results\":[");
                for (i, entry) in entries.into_iter().enumerate() {
                    if i > 0 {
                        body.push(',');
                    }
                    match entry {
                        ApiResponse::Result(b) => body.push_str(&b),
                        ApiResponse::Error(e) => {
                            let mut w = ObjWriter::new(&mut body);
                            w.u64("status", e.status as u64).str("error", &e.message);
                            w.close();
                        }
                        ApiResponse::Batch(_) => unreachable!("batches do not nest"),
                    }
                }
                body.push_str("]}");
                Response::json(200, body)
            }
        }
    }

    /// Parses a received HTTP response back into the typed surface.
    /// Single-job result bodies are kept verbatim (byte-identical to
    /// the wire); batch entries are re-serialized from the parsed
    /// JSON.
    pub fn from_http(status: u16, body: &str) -> ApiResponse {
        if let Ok(v) = json::parse(body) {
            if let Some(results) = v.get("results").and_then(Value::as_array) {
                let entries = results
                    .iter()
                    .map(|e| match e.get("error").and_then(Value::as_str) {
                        Some(message) => ApiResponse::Error(ApiError {
                            status: e
                                .get("status")
                                .and_then(Value::as_u64)
                                .map_or(500, |s| s as u16),
                            message: message.to_string(),
                        }),
                        None => {
                            let mut s = String::new();
                            e.write(&mut s);
                            ApiResponse::Result(s)
                        }
                    })
                    .collect();
                return ApiResponse::Batch(entries);
            }
            if status != 200 {
                if let Some(message) = v.get("error").and_then(Value::as_str) {
                    return ApiResponse::Error(ApiError {
                        status,
                        message: message.to_string(),
                    });
                }
            }
        }
        if status == 200 {
            ApiResponse::Result(body.to_string())
        } else {
            ApiResponse::Error(ApiError {
                status,
                message: body.to_string(),
            })
        }
    }
}

/// The machine description a request schedules for and runs on: the
/// paper's §5.1 parameters at the requested width.
fn mdes_for(knobs: &Knobs) -> MachineDesc {
    MachineDesc::builder().issue_width(knobs.width).build()
}

fn sched_options(knobs: &Knobs, verify_passes: bool) -> SchedOptions {
    let mut opts = SchedOptions::new(knobs.model);
    if knobs.recovery {
        opts = opts.with_recovery();
    }
    if verify_passes {
        opts = opts.with_verify_passes();
    }
    opts
}

fn write_sched_stats(w: &mut ObjWriter<'_>, s: &SchedStats) {
    let mut sched = String::new();
    {
        let mut sw = ObjWriter::new(&mut sched);
        sw.u64("blocks", s.blocks as u64)
            .u64("speculated", s.speculated as u64)
            .u64("checks", s.checks_inserted as u64)
            .u64("confirms", s.confirms_inserted as u64)
            .u64("pinned_stores", s.pinned_stores as u64)
            .u64("renames", s.renames as u64)
            .u64("clear_tags", s.clear_tags as u64);
        sw.close();
    }
    w.raw("sched", &sched);
}

/// Compiles a request end to end and serializes the response body.
///
/// # Errors
///
/// 400 for parse or schedule failures — both mean the *program* was
/// unschedulable, not that the service broke.
fn compile_response(req: &CompileRequest) -> Result<String, ApiError> {
    let func = asm::parse(&req.source).map_err(|e| ApiError::bad(format!("parse: {e}")))?;
    let mdes = mdes_for(&req.knobs);
    let mut session = CompileSession::for_function(&func)
        .mdes(&mdes)
        .options(sched_options(&req.knobs, req.verify_passes))
        .build();
    let scheduled = session
        .run()
        .map_err(|e| ApiError::bad(format!("schedule: {e}")))?;

    let mut passes = String::from("[");
    for (i, report) in session.log().reports().iter().enumerate() {
        if i > 0 {
            passes.push(',');
        }
        let mut one = ObjWriter::new(&mut passes);
        one.str("name", report.name).u64("runs", report.runs as u64);
        one.close();
    }
    passes.push(']');

    let mut out = String::new();
    let mut w = ObjWriter::new(&mut out);
    w.str("model", &model_str(req.knobs.model))
        .u64("width", req.knobs.width as u64)
        .bool("verified", session.verifies())
        .u64("pass_runs", session.log().total_runs());
    write_sched_stats(&mut w, &scheduled.stats);
    w.raw("passes", &passes);
    if req.emit {
        w.str("asm", &asm::print(&scheduled.func));
    }
    w.close();
    Ok(out)
}

/// A simulate job compiled once and shared across requests: the
/// scheduled function, its statistics, and the machine it was scheduled
/// for. Everything here depends only on the schedule point
/// ([`JobSpec::schedule_hash`]) — never on the engine or the memory
/// image — so one entry serves turbo and interpreter requests for the
/// same job alike. Each turbo session decodes its own program.
#[derive(Debug)]
pub struct PreparedJob {
    func: Function,
    sched: SchedStats,
    mdes: MachineDesc,
}

/// The compiled-program cache the service's workers share, keyed by
/// [`JobSpec::schedule_hash`]. Compile failures are cached too — a
/// replayed unschedulable job answers the same 400 without
/// re-scheduling.
pub type SimProgramCache = ProgramCache<Result<PreparedJob, ApiError>>;

/// Simulates a request end to end (schedule, then run) and serializes
/// the response body.
///
/// This is the "in-process" function the acceptance test compares HTTP
/// responses against, byte for byte.
///
/// # Errors
///
/// 400 for unknown suite names, parse/schedule failures, and runs the
/// simulator itself rejects.
fn simulate_response(
    req: &SimulateRequest,
    workloads: &[Workload],
    programs: Option<&SimProgramCache>,
) -> Result<String, ApiError> {
    // Resolve the program. Inline source parses into `parsed` so the
    // borrow below has an owner; a suite workload brings its own memory
    // image and name.
    let parsed: Option<Function> = match &req.program {
        Program::Source(text) => {
            Some(asm::parse(text).map_err(|e| ApiError::bad(format!("parse: {e}")))?)
        }
        Program::Suite(_) => None,
    };
    // (function, bench label, mapped regions, initial words)
    type Resolved<'a> = (&'a Function, String, &'a [(u64, u64)], &'a [(u64, u64)]);
    let (func, bench, map, word): Resolved = match &req.program {
        Program::Suite(name) => {
            let w = workloads
                .iter()
                .find(|w| &w.name == name)
                .ok_or_else(|| ApiError::bad(format!("unknown suite benchmark '{name}'")))?;
            (&w.func, w.name.clone(), &w.mem_regions, &w.mem_words)
        }
        Program::Source(_) => {
            let func = parsed.as_ref().expect("parsed above");
            (func, format!("@{}", func.name()), &req.map, &req.word)
        }
    };

    let compile = || -> Result<PreparedJob, ApiError> {
        let mdes = mdes_for(&req.knobs);
        let mut session = CompileSession::for_function(func)
            .mdes(&mdes)
            .options(sched_options(&req.knobs, false))
            .build();
        let scheduled = session
            .run()
            .map_err(|e| ApiError::bad(format!("schedule: {e}")))?;
        Ok(PreparedJob {
            func: scheduled.func,
            sched: scheduled.stats,
            mdes,
        })
    };
    let prepared = match programs {
        Some(cache) => cache.get_or_fill(req.to_spec().schedule_hash(), compile),
        None => Arc::new(compile()),
    };
    let prepared = prepared.as_ref().as_ref().map_err(ApiError::clone)?;

    let mut cfg = SimConfig::for_mdes(prepared.mdes.clone());
    cfg.semantics = semantics_for(req.knobs.model);
    let mut m = SimSession::for_function(&prepared.func)
        .config(cfg)
        .engine(req.engine)
        .build();
    for &(start, len) in map {
        m.memory_mut().map_region(start, len);
    }
    for &(addr, bits) in word {
        m.memory_mut()
            .write_word(addr, bits)
            .map_err(|e| ApiError::bad(format!("word {addr:#x}: {e}")))?;
    }
    let outcome = m
        .run()
        .map_err(|e| ApiError::bad(format!("simulation: {e}")))?;
    let outcome_str = match outcome {
        RunOutcome::Halted => "halted".to_string(),
        RunOutcome::Trapped(t) => format!("trapped: {t}"),
    };

    let stats = *m.stats();
    let mut stalls = String::new();
    {
        let mut sw = ObjWriter::new(&mut stalls);
        for (reason, n) in stats.stalls.iter() {
            if n > 0 {
                sw.u64(reason.name(), n);
            }
        }
        sw.close();
    }

    let mut out = String::new();
    let mut w = ObjWriter::new(&mut out);
    w.str("bench", &bench)
        .str("model", &model_str(req.knobs.model))
        .u64("width", req.knobs.width as u64)
        .str("outcome", &outcome_str)
        .u64("cycles", stats.cycles)
        .u64("issuing_cycles", stats.issuing_cycles)
        .u64("dyn_insns", stats.dyn_insns)
        .u64("dyn_speculative", stats.dyn_speculative)
        .u64("dyn_checks", stats.dyn_checks)
        .u64("dyn_confirms", stats.dyn_confirms)
        .u64("tag_sets", stats.tag_sets)
        .u64("tag_propagations", stats.tag_propagations)
        .u64("branches", stats.branches)
        .u64("branches_taken", stats.branches_taken)
        .u64("loads", stats.loads)
        .u64("stores", stats.stores)
        .u64("sb_forwards", stats.sb_forwards)
        .raw("ipc", &format!("{:.4}", stats.ipc()))
        .raw("stalls", &stalls);
    write_sched_stats(&mut w, &prepared.sched);
    w.close();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOOP: &str = "\
func @t {
entry:
    li r1, 0
    li r2, 4
loop:
    add r1, r1, r2
    addi r2, r2, -1
    bne r2, r0, loop
done:
    halt
}
";

    fn compile_req(body: &str) -> Result<ApiRequest, ApiError> {
        ApiRequest::from_json(JobKind::Compile, body)
    }

    fn simulate_req(body: &str) -> Result<ApiRequest, ApiError> {
        ApiRequest::from_json(JobKind::Simulate, body)
    }

    #[test]
    fn parses_compile_requests_with_defaults() {
        let ApiRequest::Compile(req) =
            compile_req(r#"{"source":"func @f\nblock b0:\n  halt\n"}"#).unwrap()
        else {
            panic!("wrong variant");
        };
        assert_eq!(req.knobs.model, SchedulingModel::Sentinel);
        assert_eq!(req.knobs.width, 8);
        assert!(!req.verify_passes && !req.emit && !req.knobs.recovery);
    }

    #[test]
    fn rejects_unknown_fields_and_bad_knobs() {
        for body in [
            r#"{"source":"x","typo":1}"#,
            r#"{"source":"x","width":0}"#,
            r#"{"source":"x","width":65}"#,
            r#"{"source":"x","model":"Q"}"#,
            r#"{"source":"x","model":"Bx"}"#,
            r#"[1,2]"#,
            r#"{"model":"S"}"#,
            r#"not json"#,
        ] {
            let err = compile_req(body).unwrap_err();
            assert_eq!(err.status, 400, "{body}");
        }
    }

    #[test]
    fn versioned_requests_accept_v1_and_name_the_offender_otherwise() {
        assert!(compile_req(r#"{"v":1,"source":"x"}"#).is_ok());
        // Missing v reads as v1 (pre-versioning bodies keep working).
        assert!(compile_req(r#"{"source":"x"}"#).is_ok());
        let err = compile_req(r#"{"v":2,"source":"x"}"#).unwrap_err();
        assert!(err.message.contains("version 2"), "{}", err.message);
        let err = compile_req(r#"{"v":"x","source":"x"}"#).unwrap_err();
        assert!(err.message.contains("'v'"), "{}", err.message);
        // An explicit kind must match the endpoint it was routed to.
        assert!(compile_req(r#"{"kind":"compile","source":"x"}"#).is_ok());
        let err = compile_req(r#"{"kind":"simulate","suite":"wc"}"#).unwrap_err();
        assert!(
            err.message.contains("routed as 'compile'"),
            "{}",
            err.message
        );
        let err = compile_req(r#"{"kind":"nope","source":"x"}"#).unwrap_err();
        assert!(err.message.contains("unknown kind"), "{}", err.message);
    }

    #[test]
    fn simulate_requires_exactly_one_program() {
        assert!(simulate_req(r#"{"model":"S"}"#).is_err());
        assert!(simulate_req(r#"{"suite":"a","source":"b"}"#).is_err());
        assert!(simulate_req(r#"{"suite":"a","map":[[0,8]]}"#).is_err());
        let ApiRequest::Simulate(req) =
            simulate_req(r#"{"suite":"wc","engine":"interp"}"#).unwrap()
        else {
            panic!("wrong variant");
        };
        assert_eq!(req.engine, Engine::Interpreter);
        assert_eq!(req.program, Program::Suite("wc".into()));
    }

    #[test]
    fn cache_keys_separate_distinct_requests() {
        let a = compile_req(&format!(r#"{{"source":{},"model":"S"}}"#, json_str(LOOP))).unwrap();
        let b = compile_req(&format!(r#"{{"source":{},"model":"G"}}"#, json_str(LOOP))).unwrap();
        assert_ne!(a.cache_key(), b.cache_key());
        let a2 = compile_req(&format!(r#"{{"source":{},"model":"S"}}"#, json_str(LOOP))).unwrap();
        assert_eq!(a.cache_key(), a2.cache_key());
    }

    #[test]
    fn requests_round_trip_through_to_json() {
        for req in [
            compile_req(&format!(
                r#"{{"source":{},"model":"B3","width":2,"emit":true}}"#,
                json_str(LOOP)
            ))
            .unwrap(),
            simulate_req(r#"{"suite":"wc","model":"T","recovery":true}"#).unwrap(),
            simulate_req(&format!(
                r#"{{"source":{},"engine":"interp","map":[[0,64]],"word":[[8,42]]}}"#,
                json_str(LOOP)
            ))
            .unwrap(),
        ] {
            let wire = req.to_json();
            let back = ApiRequest::from_json(req.kind(), &wire).unwrap();
            assert_eq!(req, back, "{wire}");
            // And the serialized form is a valid batch job entry.
            let batch = format!("{{\"v\":1,\"jobs\":[{wire}]}}");
            let parsed = BatchRequest::from_json(&batch, 8).unwrap();
            assert_eq!(parsed.jobs, vec![req]);
        }
    }

    #[test]
    fn batch_parses_jobs_in_order_and_enforces_the_cap() {
        let body = r#"{"v":1,"jobs":[
            {"kind":"simulate","suite":"wc"},
            {"kind":"compile","source":"func @f {\nentry:\n  halt\n}\n"}
        ]}"#;
        let batch = BatchRequest::from_json(body, 8).unwrap();
        assert_eq!(batch.jobs.len(), 2);
        assert_eq!(batch.jobs[0].kind(), JobKind::Simulate);
        assert_eq!(batch.jobs[1].kind(), JobKind::Compile);
        // Round trip of the whole envelope.
        let again = BatchRequest::from_json(&batch.to_json(), 8).unwrap();
        assert_eq!(again, batch);

        let err = BatchRequest::from_json(body, 1).unwrap_err();
        assert!(err.message.contains("cap of 1"), "{}", err.message);
        for bad in [
            r#"{"jobs":[]}"#,
            r#"{"jobs":{}}"#,
            r#"{"v":1}"#,
            r#"{"v":2,"jobs":[{"kind":"simulate","suite":"wc"}]}"#,
            r#"{"jobs":[{"suite":"wc"}]}"#,
            r#"{"jobs":[{"kind":"simulate","suite":"wc","typo":1}]}"#,
        ] {
            assert_eq!(BatchRequest::from_json(bad, 8).unwrap_err().status, 400);
        }
        // A malformed job names its index.
        let err = BatchRequest::from_json(r#"{"jobs":[{"kind":"simulate","suite":"wc"},{}]}"#, 8)
            .unwrap_err();
        assert!(err.message.starts_with("job 1:"), "{}", err.message);
    }

    #[test]
    fn batch_response_envelope_round_trips() {
        let resp = ApiResponse::Batch(vec![
            ApiResponse::Result(r#"{"cycles":7}"#.to_string()),
            ApiResponse::Error(ApiError::bad("schedule: no")),
        ]);
        let http = resp.clone().into_http();
        assert_eq!(http.status, 200);
        let body = String::from_utf8(http.body).unwrap();
        assert!(body.starts_with(r#"{"v":1,"results":["#), "{body}");
        let back = ApiResponse::from_http(200, &body);
        assert_eq!(back, resp);
        // Single-result and error responses survive too (verbatim
        // bodies for results).
        let ok = ApiResponse::from_http(200, r#"{"cycles":7}"#);
        assert_eq!(ok, ApiResponse::Result(r#"{"cycles":7}"#.to_string()));
        let err = ApiResponse::from_http(400, r#"{"error":"nope"}"#);
        assert_eq!(err, ApiResponse::Error(ApiError::bad("nope")));
    }

    #[test]
    fn compile_response_is_deterministic_json() {
        let req = compile_req(&format!(
            r#"{{"source":{},"verify_passes":true,"emit":true}}"#,
            json_str(LOOP)
        ))
        .unwrap();
        let a = req.run(&[]).unwrap();
        let b = req.run(&[]).unwrap();
        assert_eq!(a, b);
        let v = json::parse(&a).unwrap();
        assert_eq!(v.get("model").and_then(Value::as_str), Some("S"));
        assert_eq!(v.get("verified").and_then(Value::as_bool), Some(true));
        assert!(v.get("sched").and_then(|s| s.get("blocks")).is_some());
        assert!(v.get("passes").and_then(Value::as_array).is_some());
        let asm_text = v.get("asm").and_then(Value::as_str).unwrap();
        asm::parse(asm_text).unwrap();
    }

    #[test]
    fn simulate_response_runs_inline_source() {
        let req = simulate_req(&format!(
            r#"{{"source":{},"model":"S","width":4}}"#,
            json_str(LOOP)
        ))
        .unwrap();
        let body = req.run(&[]).unwrap();
        let v = json::parse(&body).unwrap();
        assert_eq!(v.get("bench").and_then(Value::as_str), Some("@t"));
        assert_eq!(v.get("outcome").and_then(Value::as_str), Some("halted"));
        assert!(v.get("cycles").and_then(Value::as_u64).unwrap() > 0);
        assert!(v.get("ipc").and_then(Value::as_f64).unwrap() > 0.0);
    }

    #[test]
    fn simulate_response_engines_agree() {
        let mk = |engine: &str| {
            simulate_req(&format!(
                r#"{{"source":{},"engine":"{engine}"}}"#,
                json_str(LOOP)
            ))
            .unwrap()
        };
        let turbo = mk("turbo").run(&[]).unwrap();
        let interp = mk("interpreter").run(&[]).unwrap();
        assert_eq!(turbo, interp);
        assert!(!turbo.contains("engine"), "{turbo}");
        // The engine is not identity: both requests share one key.
        assert_eq!(mk("turbo").cache_key(), mk("interpreter").cache_key());
    }

    #[test]
    fn unknown_suite_is_client_error() {
        let req = simulate_req(r#"{"suite":"nope"}"#).unwrap();
        let err = req.run(&[]).unwrap_err();
        assert_eq!(err.status, 400);
        assert!(err.message.contains("nope"));
    }

    fn json_str(s: &str) -> String {
        let mut out = String::new();
        json::push_str_lit(&mut out, s);
        out
    }
}
