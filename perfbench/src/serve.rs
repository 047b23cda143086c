//! `serve-cold` and `serve-warm`: an in-process `sentinel-serve` on
//! loopback (workers = available cores, otherwise the default
//! `ServerConfig`) under a closed loop of two keep-alive clients posting
//! `/v1/simulate` bodies with no `engine` field.
//!
//! * `serve-cold` walks a seeded permutation of every suite(17) ×
//!   model(4) × width(1..=64) × recovery(2) point — 8,704 distinct
//!   requests, more than the response cache's 1,024 entries — so no
//!   request hits a cache and each pays HTTP, JSON, spec key, compile,
//!   decode, simulate and encode.
//! * `serve-warm` replays a seeded order over 256 of those points,
//!   pre-warmed during set-up, so every request is a response-cache hit.
//!
//! The traced run replays each traced request's body in-process through
//! the serve entry points under the request's id; the client latency
//! not covered by the replay is `serve.http`.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

use sentinel_bench::grid::default_jobs;
use sentinel_bench::runner::semantics_for;
use sentinel_core::SchedOptions;
use sentinel_isa::MachineDesc;
use sentinel_serve::api::{
    parse_model, ApiRequest, ApiResponse, JobKind, DEFAULT_MAX_BATCH_JOBS, MAX_WIDTH,
};
use sentinel_serve::cache::ResponseCache;
use sentinel_serve::client::Client;
use sentinel_serve::server::{start, Handler, ServerConfig, ServerHandle};
use sentinel_sim::SimConfig;
use sentinel_trace::SharedMetrics;
use sentinel_workloads::suite;

use crate::calib::{self, Calibration};
use crate::cell::{compile, guarded, simulate, Counters};
use crate::report::Outcome;
use crate::span::Tracer;
use crate::stats::{median, percentile, ratio, SplitMix};
use crate::sys::self_peak_rss_mb;
use crate::{layer_report, phase_order, time_setup, Args};

/// Closed-loop clients, each on its own keep-alive connection.
const CLIENTS: usize = 2;

/// Distinct points `serve-warm` replays.
const WARM_SPECS: usize = 256;

/// Length of `serve-warm`'s seeded replay order (it wraps).
const WARM_ORDER: usize = 8192;

/// One in this many `serve-cold` responses is checked byte for byte
/// against an in-process `ApiRequest::run`.
const COLD_SAMPLE_EVERY: u64 = 32;

/// The two traffic mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// Every request distinct: no cache ever hits.
    Cold,
    /// Every request a response-cache hit.
    Warm,
}

impl Mix {
    /// Requests per phase of a traced round.
    fn round_requests(self) -> u64 {
        match self {
            Mix::Cold => 1024,
            Mix::Warm => 4096,
        }
    }
}

/// One `/v1/simulate` point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Point {
    /// Suite benchmark.
    pub bench: &'static str,
    /// Model tag.
    pub model: &'static str,
    /// Issue width.
    pub width: usize,
    /// §3.7 recovery constraints.
    pub recovery: bool,
}

impl Point {
    /// The request body: no `engine` field, so the default engine runs.
    pub fn body(&self) -> String {
        format!(
            "{{\"suite\":\"{}\",\"model\":\"{}\",\"width\":{},\"recovery\":{}}}",
            self.bench, self.model, self.width, self.recovery
        )
    }
}

/// Every distinct point: suite × model × width 1..=64 × recovery.
pub fn points() -> Vec<Point> {
    let mut out = Vec::new();
    for spec in suite::specs() {
        for model in ["R", "G", "S", "T"] {
            for width in 1..=MAX_WIDTH {
                for recovery in [false, true] {
                    out.push(Point {
                        bench: spec.name,
                        model,
                        width,
                        recovery,
                    });
                }
            }
        }
    }
    out
}

/// The seeded request order, as indices into [`points`]: for
/// `serve-cold` a permutation of every point, for `serve-warm` a
/// replay over its first [`WARM_SPECS`] entries.
pub fn request_order(mix: Mix, seed: u64, n_points: usize) -> Vec<usize> {
    let mut rng = SplitMix::new(seed);
    let mut order: Vec<usize> = (0..n_points).collect();
    rng.shuffle(&mut order);
    match mix {
        Mix::Cold => order,
        Mix::Warm => (0..WARM_ORDER)
            .map(|_| order[rng.below(WARM_SPECS)])
            .collect(),
    }
}

/// The distinct points `serve-warm` pre-warms.
fn warm_set(seed: u64, n_points: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n_points).collect();
    SplitMix::new(seed).shuffle(&mut order);
    order.truncate(WARM_SPECS);
    order
}

/// Latencies stored per client in a timed phase. The buffer is written
/// in full before the phase starts, so the process's resident size does
/// not grow with throughput.
const LATENCY_CAP: usize = 1 << 20;

/// One request as the client saw it.
struct Sample {
    op: u64,
    start: Instant,
    end: Instant,
    ok: bool,
    body: Option<String>,
}

/// One client's closed loop.
struct ClientLog {
    start: Instant,
    end: Instant,
    /// Milliseconds per answered request; the first `answered` entries
    /// (up to the buffer's length) are valid.
    latency_ms: Vec<f32>,
    answered: u64,
    /// Answers that were not 200 with a halted outcome.
    bad: u64,
    io_errors: u64,
    /// Requests the caller asked to keep, and every bad answer.
    kept: Vec<Sample>,
}

impl ClientLog {
    fn latencies(&self) -> &[f32] {
        &self.latency_ms[..(self.answered as usize).min(self.latency_ms.len())]
    }
}

/// A timed phase's schedule: every [`calib::EVERY`] both clients stop
/// between requests and one takes a calibration sample while the
/// server idles; at the first stop past `length` the phase ends. All
/// decisions are taken by one client between two barriers, so both
/// leave together.
struct Pacer {
    start: Instant,
    length: Duration,
    barrier: Barrier,
    next_stop: AtomicU64,
    done: AtomicBool,
    paused_ns: AtomicU64,
    cal: Mutex<Calibration>,
}

impl Pacer {
    fn new(length: Duration) -> Pacer {
        Pacer {
            start: Instant::now(),
            length,
            barrier: Barrier::new(CLIENTS),
            next_stop: AtomicU64::new(1),
            done: AtomicBool::new(false),
            paused_ns: AtomicU64::new(0),
            cal: Mutex::new(Calibration::new(true)),
        }
    }

    fn stop_due(&self) -> bool {
        let every = calib::EVERY.as_nanos() as u64;
        self.start.elapsed().as_nanos() as u64 >= self.next_stop.load(Ordering::SeqCst) * every
    }

    /// Meets the other client; returns whether the phase is over.
    fn stop(&self) -> bool {
        if self.barrier.wait().is_leader() {
            let t0 = Instant::now();
            if self.start.elapsed() >= self.length {
                self.done.store(true, Ordering::SeqCst);
            } else {
                self.cal.lock().expect("calibration lock").sample();
            }
            let every = calib::EVERY.as_nanos() as u64;
            let next = self.start.elapsed().as_nanos() as u64 / every + 1;
            self.next_stop.store(next, Ordering::SeqCst);
            self.paused_ns
                .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::SeqCst);
        }
        self.barrier.wait();
        self.done.load(Ordering::SeqCst)
    }

    /// Time spent running requests.
    fn busy_s(&self) -> f64 {
        self.start.elapsed().as_secs_f64() - self.paused_ns.load(Ordering::SeqCst) as f64 / 1e9
    }
}

/// When a load phase ends.
#[derive(Clone, Copy)]
enum Until<'p> {
    /// At the pacer's end, with calibration stops.
    Paced(&'p Pacer),
    /// Once ops `[first, end)` have been claimed.
    Op(u64),
}

/// Runs the closed loop: each client claims the next op, posts
/// `bodies[op % len]`, and waits for the answer.
fn load(
    addr: &str,
    bodies: &[String],
    first_op: u64,
    until: Until<'_>,
    keep: &(dyn Fn(u64) -> bool + Sync),
) -> Vec<ClientLog> {
    let next = AtomicU64::new(first_op);
    let cap = match until {
        Until::Paced(_) => LATENCY_CAP,
        Until::Op(end) => end.saturating_sub(first_op) as usize,
    };
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                s.spawn(|| {
                    let mut client = Client::builder(addr).keep_alive(true).build();
                    let mut log = ClientLog {
                        start: Instant::now(),
                        end: Instant::now(),
                        latency_ms: vec![f32::NAN; cap],
                        answered: 0,
                        bad: 0,
                        io_errors: 0,
                        kept: Vec::new(),
                    };
                    log.start = Instant::now();
                    loop {
                        match until {
                            Until::Paced(p) => {
                                if p.stop_due() && p.stop() {
                                    break;
                                }
                            }
                            Until::Op(end) => {
                                if next.load(Ordering::Relaxed) >= end {
                                    break;
                                }
                            }
                        }
                        let op = next.fetch_add(1, Ordering::Relaxed);
                        if matches!(until, Until::Op(end) if op >= end) {
                            break;
                        }
                        let body = &bodies[(op % bodies.len() as u64) as usize];
                        let start = Instant::now();
                        let resp = client.post_json("/v1/simulate", body);
                        let end = Instant::now();
                        let Ok(r) = resp else {
                            log.io_errors += 1;
                            continue;
                        };
                        if let Some(slot) = log.latency_ms.get_mut(log.answered as usize) {
                            *slot = ((end - start).as_secs_f64() * 1e3) as f32;
                        }
                        log.answered += 1;
                        let ok = r.status == 200 && r.body.contains("\"outcome\":\"halted\"");
                        log.bad += u64::from(!ok);
                        if !ok || keep(op) {
                            log.kept.push(Sample {
                                op,
                                start,
                                end,
                                ok,
                                body: Some(r.body),
                            });
                        }
                    }
                    log.end = Instant::now();
                    log
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

/// Reads `/metrics` into name → value.
fn scrape(addr: &str) -> BTreeMap<String, f64> {
    let body = Client::new(addr)
        .get("/metrics")
        .map(|r| r.body)
        .unwrap_or_default();
    body.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (name, value) = l.split_once(' ')?;
            Some((name.to_string(), value.trim().parse().ok()?))
        })
        .collect()
}

fn delta(before: &BTreeMap<String, f64>, after: &BTreeMap<String, f64>, name: &str) -> f64 {
    after.get(name).unwrap_or(&0.0) - before.get(name).unwrap_or(&0.0)
}

/// Starts the server and waits until `/healthz` answers.
fn start_server() -> Result<ServerHandle, String> {
    let server = start(ServerConfig {
        workers: default_jobs(),
        ..ServerConfig::default()
    })
    .map_err(|e| format!("server start: {e}"))?;
    let addr = server.addr().to_string();
    let t0 = Instant::now();
    loop {
        if matches!(Client::new(&addr).get("/healthz"), Ok(r) if r.status == 200) {
            return Ok(server);
        }
        if t0.elapsed() > Duration::from_secs(10) {
            return Err("server never answered /healthz".to_string());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Everything a run needs: the server, the request bodies in order,
/// and the points behind them.
struct Setup {
    server: ServerHandle,
    addr: String,
    points: Vec<Point>,
    order: Vec<usize>,
    bodies: Vec<String>,
    warm: Vec<usize>,
    prewarm_failures: u64,
}

/// A started server and how its pre-warm went.
struct Serving {
    server: ServerHandle,
    prewarm_failures: u64,
}

/// Set-up as a fresh process pays it: starting the server until
/// `/healthz` answers and, for `serve-warm`, one pass over the 256
/// replayed points (`prewarm`; empty for `serve-cold`).
fn start_serving(prewarm: &[String]) -> Result<Serving, String> {
    let server = start_server()?;
    let mut prewarm_failures = 0;
    if !prewarm.is_empty() {
        let addr = server.addr().to_string();
        let until = Until::Op(prewarm.len() as u64);
        for log in load(&addr, prewarm, 0, until, &|_| false) {
            prewarm_failures += log.io_errors + log.bad;
        }
    }
    Ok(Serving {
        server,
        prewarm_failures,
    })
}

/// Runs `serve-cold` or `serve-warm`.
pub fn run(args: &Args, mix: Mix, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    // The server loads the suite through a process-wide shared copy;
    // build it once here so every timed set-up below pays one fresh
    // generation, as a new server process would.
    suite::shared();
    // The benchmark's own inputs, prepared before timing.
    let points = points();
    let order = request_order(mix, args.seed, points.len());
    let bodies = order.iter().map(|&i| points[i].body()).collect();
    let warm = warm_set(args.seed, points.len());
    let prewarm: Vec<String> = match mix {
        Mix::Cold => Vec::new(),
        Mix::Warm => warm.iter().map(|&i| points[i].body()).collect(),
    };
    let (setup_raw, setup_s, serving) = time_setup(true, || {
        black_box(suite::suite());
        start_serving(&prewarm)
    });
    let setup = match serving {
        Ok(s) => Setup {
            addr: s.server.addr().to_string(),
            server: s.server,
            points,
            order,
            bodies,
            warm,
            prewarm_failures: s.prewarm_failures,
        },
        Err(e) => {
            out.line(e);
            out.gate("server starts", false);
            return out;
        }
    };
    out.gate("set-up requests succeed", setup.prewarm_failures == 0);
    out.set("setup_s", setup_s);
    out.line(format!("raw: setup {setup_raw} s"));
    if trace {
        traced(args, mix, &setup, &mut out);
    } else {
        untraced(args, mix, &setup, &mut out);
    }
    drop(setup.server);
    out
}

fn untraced(args: &Args, mix: Mix, setup: &Setup, out: &mut Outcome) {
    let salt = args.seed % COLD_SAMPLE_EVERY;
    let sampled = move |op: u64| mix == Mix::Cold && op % COLD_SAMPLE_EVERY == salt;
    let before = scrape(&setup.addr);
    let pacer = Pacer::new(args.seconds);
    let logs = load(
        &setup.addr,
        &setup.bodies,
        0,
        Until::Paced(&pacer),
        &sampled,
    );
    let busy_s = pacer.busy_s();
    // Read before the checks below allocate.
    out.set("peak_rss_mb", self_peak_rss_mb());
    let after = scrape(&setup.addr);
    let cal = pacer.cal.into_inner().expect("calibration lock");

    let latencies: Vec<f64> = logs
        .iter()
        .flat_map(|l| l.latencies().iter().map(|&ms| f64::from(ms)))
        .collect();
    let answered: u64 = logs.iter().map(|l| l.answered).sum();
    let bad: u64 = logs.iter().map(|l| l.bad).sum();
    let io_errors: u64 = logs.iter().map(|l| l.io_errors).sum();
    let checks: Vec<(u64, String)> = logs
        .iter()
        .flat_map(|l| &l.kept)
        .filter(|s| s.ok && sampled(s.op))
        .map(|s| (s.op, s.body.clone().unwrap_or_default()))
        .collect();
    let sent = answered + io_errors;
    out.attempted += sent;
    out.failed += bad + io_errors;
    out.gate(
        "every response is 200 with \"outcome\":\"halted\"",
        bad == 0 && io_errors == 0,
    );

    let hits = delta(&before, &after, "serve_cache_hit");
    let misses = delta(&before, &after, "serve_cache_miss");
    match mix {
        Mix::Cold => {
            // The seeded sample, byte for byte against the in-process
            // ground truth (after timing).
            let workloads = suite::shared();
            let mut differ = 0u64;
            for (op, body) in &checks {
                let req = &setup.bodies[(*op % setup.bodies.len() as u64) as usize];
                let local = ApiRequest::from_json(JobKind::Simulate, req)
                    .map_err(|e| e.message)
                    .and_then(|job| job.run(&workloads).map_err(|e| e.message));
                if local.as_deref() != Ok(body.as_str()) {
                    differ += 1;
                }
            }
            out.failed += differ;
            out.gate(
                format!(
                    "{} sampled responses are byte-identical to in-process ApiRequest::run",
                    checks.len()
                ),
                differ == 0 && !checks.is_empty(),
            );
        }
        Mix::Warm => out.gate(
            format!("serve_cache_hit rose by the {sent} requests sent (rose {hits})"),
            hits == sent as f64,
        ),
    }

    let p50 = median(&latencies);
    let p99 = percentile(&latencies, 99.0).unwrap_or(f64::NAN);
    let rps = answered as f64 / busy_s;
    out.set("latency_p50_ms", cal.time(p50));
    out.set("throughput_per_s", cal.rate(rps));
    let n = latencies.len();
    out.line(cal.describe());
    out.line(format!(
        "serve_p50_us {} us raw, {} at reference speed (n={n})",
        p50 * 1e3,
        cal.time(p50) * 1e3
    ));
    out.line(format!(
        "serve_p99_us {} us raw, {} at reference speed (n={n})",
        p99 * 1e3,
        cal.time(p99) * 1e3
    ));
    out.line(format!(
        "serve_rps {rps} 1/s raw, {} at reference speed ({answered} requests in {busy_s:.3} s, \
         {CLIENTS} keep-alive clients, {} workers)",
        cal.rate(rps),
        default_jobs()
    ));
    out.line(format!(
        "response cache: {hits} hits, {misses} misses during the measured phase"
    ));
}

/// The in-process half of the replay: a handler over its own response
/// cache, in the state the server's cache is in (pre-warmed for
/// `serve-warm`).
fn replay_handler(setup: &Setup, mix: Mix) -> Handler {
    let metrics = SharedMetrics::new();
    let cache = ResponseCache::new(ServerConfig::default().cache_capacity, metrics.clone());
    let handler = Handler::new(
        metrics,
        Arc::new(cache),
        suite::shared(),
        DEFAULT_MAX_BATCH_JOBS,
        None,
    );
    if mix == Mix::Warm {
        for &i in &setup.warm {
            if let Ok(job) = ApiRequest::from_json(JobKind::Simulate, &setup.points[i].body()) {
                handler.execute(&job);
            }
        }
    }
    handler
}

/// Alternates an untraced and a traced phase of a fixed number of
/// requests until the time is up; each traced request is replayed
/// in-process and its layers attributed under its id.
fn traced(args: &Args, mix: Mix, setup: &Setup, out: &mut Outcome) {
    let per_phase = mix.round_requests();
    let handler = replay_handler(setup, mix);
    let workloads = suite::shared();
    let mut tr = Tracer::new(true);
    let (mut plain_ms, mut traced_ms) = (Vec::new(), Vec::new());
    let mut first: Option<Counters> = None;
    let mut replay_failures = 0u64;
    let before = scrape(&setup.addr);
    let t0 = Instant::now();
    let (mut next_op, mut k) = (0u64, 0);
    while first.is_none() || t0.elapsed() < args.seconds {
        let mut round_counters = Counters::default();
        for traced_phase in phase_order(k) {
            let first_op = next_op;
            next_op += per_phase;
            let logs = load(
                &setup.addr,
                &setup.bodies,
                first_op,
                Until::Op(next_op),
                &|_| traced_phase,
            );
            let thread_ms: f64 = logs
                .iter()
                .map(|l| (l.end - l.start).as_secs_f64() * 1e3)
                .sum();
            for log in &logs {
                out.attempted += log.answered + log.io_errors;
                out.failed += log.io_errors + log.bad;
            }
            if !traced_phase {
                plain_ms.push(thread_ms);
                continue;
            }
            traced_ms.push(thread_ms);
            for (k, log) in logs.iter().enumerate() {
                let root = tr.record("perfbench.client", k as u64, None, log.start, log.end);
                for s in &log.kept {
                    let req = tr.record("serve.http", s.op, root, s.start, s.end);
                    let point =
                        setup.points[setup.order[(s.op % setup.order.len() as u64) as usize]];
                    let body = s.body.as_deref().unwrap_or_default();
                    let r = guarded(&mut tr, "replay", |tr| {
                        replay(
                            tr,
                            req,
                            s.op,
                            mix,
                            &handler,
                            &workloads,
                            point,
                            body,
                            &mut round_counters,
                        )
                    });
                    if let Err(e) = r {
                        replay_failures += 1;
                        out.line(format!("replay of request {}: {e}", s.op));
                    }
                }
            }
        }
        Counters::keep_first(&mut first, round_counters);
        k += 1;
    }
    let after = scrape(&setup.addr);
    out.failed += replay_failures;
    out.gate(
        "every replayed request's in-process response matches its HTTP response",
        replay_failures == 0,
    );
    out.gate("every request succeeded", out.failed == 0);

    let rounds = traced_ms.len() as f64;
    first.expect("at least one round").report(out, rounds);
    let sum = layer_report(
        out,
        &tr,
        args,
        rounds,
        median(&plain_ms),
        median(&traced_ms),
    );
    let per_request = |name: &str| ratio(sum.ms(name) * 1e3, sum.count(name) as f64);
    out.set("spec.key.us", per_request("spec.key"));
    out.set("serve.parse.us", per_request("serve.parse"));
    out.set(
        "serve.http.us",
        ratio(
            sum.self_ms("serve.http") * 1e3,
            sum.count("serve.http") as f64,
        ),
    );
    let d = |name: &str| delta(&before, &after, name);
    let hit_ratio = ratio(
        d("serve_cache_hit"),
        d("serve_cache_hit") + d("serve_cache_miss"),
    );
    out.set("serve.cache.hit_ratio", hit_ratio);
    out.set("serve.cache.evict", d("serve_cache_evict"));
    out.set("serve.rejected", d("serve_queue_rejected"));
    out.set(
        "sim.program_cache.hit_ratio",
        ratio(
            d("sim_program_cache_hit"),
            d("sim_program_cache_hit") + d("sim_program_cache_miss"),
        ),
    );
    let expect = if mix == Mix::Cold { 0.0 } else { 1.0 };
    out.gate(
        format!("serve.cache.hit_ratio reads {expect} (read {hit_ratio})"),
        hit_ratio == expect,
    );
    out.line(format!(
        "{} requests per phase; e2e and layer times are client-thread time ({CLIENTS} clients)",
        per_phase
    ));
}

/// Replays one request in-process under span `parent`: parse, spec key,
/// `Handler::execute` (cache lookup, and on a miss the full job), and
/// for `serve-cold` the job's compile and simulate steps attributed
/// under the execute span.
#[allow(clippy::too_many_arguments)]
fn replay(
    tr: &mut Tracer,
    parent: Option<usize>,
    op: u64,
    mix: Mix,
    handler: &Handler,
    workloads: &[sentinel_workloads::Workload],
    point: Point,
    http_body: &str,
    c: &mut Counters,
) -> Result<(), String> {
    let body = point.body();
    tr.within(parent, |tr| {
        let job = tr
            .span("serve.parse", op, || {
                ApiRequest::from_json(JobKind::Simulate, &body)
            })
            .map_err(|e| e.message)?;
        tr.span("spec.key", op, || {
            black_box((job.to_spec(), job.cache_key()))
        });
        let exec = tr.open("serve.execute", op);
        let resp = handler.execute(&job);
        tr.close(exec);
        match resp {
            ApiResponse::Result(local) if local == http_body => {}
            ApiResponse::Result(_) => return Err("in-process body differs".to_string()),
            ApiResponse::Error(e) => return Err(e.message),
            ApiResponse::Batch(_) => return Err("unexpected batch response".to_string()),
        }
        if mix == Mix::Cold {
            tr.within(exec, |tr| decompose(tr, op, workloads, point, c))?;
        }
        Ok(())
    })
}

/// The compile and simulate steps of one simulate job, as the service
/// runs them.
fn decompose(
    tr: &mut Tracer,
    op: u64,
    workloads: &[sentinel_workloads::Workload],
    point: Point,
    c: &mut Counters,
) -> Result<(), String> {
    let w = workloads
        .iter()
        .find(|w| w.name == point.bench)
        .ok_or_else(|| format!("no suite benchmark {}", point.bench))?;
    let model = parse_model(point.model)?;
    let mdes = MachineDesc::builder().issue_width(point.width).build();
    let mut opts = SchedOptions::new(model);
    if point.recovery {
        opts = opts.with_recovery();
    }
    let sched = compile(tr, op, &w.func, &mdes, opts, c)?;
    let mut cfg = SimConfig::for_mdes(mdes);
    cfg.semantics = semantics_for(model);
    simulate(tr, op, &sched.func, cfg, w, c)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn seeded_request_lists_are_deterministic() {
        let n = points().len();
        for mix in [Mix::Cold, Mix::Warm] {
            assert_eq!(request_order(mix, 7, n), request_order(mix, 7, n));
            assert_ne!(request_order(mix, 7, n), request_order(mix, 8, n));
        }
        let warm: HashSet<usize> = warm_set(7, n).into_iter().collect();
        assert_eq!(warm.len(), WARM_SPECS);
        assert!(request_order(Mix::Warm, 7, n)
            .iter()
            .all(|i| warm.contains(i)));
    }

    #[test]
    fn cold_requests_outnumber_the_response_cache() {
        let pts = points();
        assert_eq!(pts.len(), 17 * 4 * 64 * 2);
        let order = request_order(Mix::Cold, 3, pts.len());
        let keys: HashSet<String> = order
            .iter()
            .map(|&i| {
                ApiRequest::from_json(JobKind::Simulate, &pts[i].body())
                    .expect("valid body")
                    .cache_key()
            })
            .collect();
        assert_eq!(keys.len(), pts.len());
        assert!(keys.len() > ServerConfig::default().cache_capacity);
    }
}
