//! The service itself: acceptor thread, request routing, and lifecycle.
//!
//! One accepted connection is one unit of work, and with HTTP/1.1
//! keep-alive a worker **owns the connection** for its whole lifetime:
//! it loops read → dispatch → write until the client asks to close,
//! the idle timeout expires between requests, or the per-connection
//! request bound is reached. The acceptor owns admission control
//! (counting connections, bouncing to `429` when the worker pool's
//! queue is full); workers own everything else (parse, route, compute
//! or hit the cache, respond). Shutdown stops intake first, then
//! drains the queue, so every admitted connection finishes its
//! in-flight request.
//!
//! `POST /v1/batch` fans its jobs out across the same pool: idle
//! workers pick jobs up as best-effort tasks while the worker that
//! owns the batch's connection keeps executing jobs itself — on a
//! saturated pool a batch degrades to sequential execution on its own
//! worker, never to a deadlock.

use std::io::{self, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sentinel_trace::serve::{
    BATCH_JOBS, BATCH_JOB_ERRORS, CONNECTIONS, KEEPALIVE_REUSED, PANICS, REJECTED, REQUESTS,
    REQUEST_MICROS, RESPONSES_CLIENT_ERROR, RESPONSES_OK, RESPONSES_SERVER_ERROR,
};
use sentinel_trace::{Metrics, SharedMetrics};
use sentinel_workloads::Workload;

use sentinel_sim::ProgramCache;

use crate::api::{ApiError, ApiRequest, ApiResponse, BatchRequest, JobKind, SimProgramCache};
use crate::cache::ResponseCache;
use crate::http::{self, ReadError, Request, Response};
use crate::pool::{Submitter, WorkerPool};
use crate::prom;

/// Test/diagnostic hook run on every parsed request, inside the same
/// `catch_unwind` as the router — a hook that panics exercises the
/// 500-on-this-request-only path.
pub type JobHook = Arc<dyn Fn(&Request) + Send + Sync>;

/// Test/diagnostic hook run on every API job (single-endpoint and
/// batch alike), inside the per-job `catch_unwind` — a panicking hook
/// exercises the error-entry-not-whole-batch path.
pub type ApiHook = Arc<dyn Fn(&ApiRequest) + Send + Sync>;

/// Service tuning knobs.
#[derive(Clone)]
pub struct ServerConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Worker threads servicing connections.
    pub workers: usize,
    /// Bounded queue depth between acceptor and workers.
    pub queue_depth: usize,
    /// Response-cache capacity (entries, LRU-bounded).
    pub cache_capacity: usize,
    /// Spill directory for the persistent response cache; `None`
    /// keeps the cache memory-only.
    pub cache_dir: Option<PathBuf>,
    /// Per-request body limit in bytes.
    pub max_body: usize,
    /// How long a kept-alive connection may sit idle between requests
    /// (also bounds reads mid-request).
    pub idle_timeout: Duration,
    /// Per-connection write timeout.
    pub write_timeout: Duration,
    /// Requests served on one connection before the server closes it
    /// (bounds how long one client can monopolize a worker).
    pub max_requests_per_conn: usize,
    /// Upper bound on jobs in one `POST /v1/batch` request.
    pub batch_max_jobs: usize,
    /// Optional per-request hook (tests inject panics through this).
    pub job_hook: Option<JobHook>,
    /// Optional per-API-job hook (tests inject per-job panics).
    pub api_hook: Option<ApiHook>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            queue_depth: 64,
            cache_capacity: 1024,
            cache_dir: None,
            max_body: http::DEFAULT_MAX_BODY_BYTES,
            idle_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(10),
            max_requests_per_conn: 1000,
            batch_max_jobs: crate::api::DEFAULT_MAX_BATCH_JOBS,
            job_hook: None,
            api_hook: None,
        }
    }
}

/// Routes parsed requests to endpoint logic. Public so tests can
/// compare an HTTP response byte-for-byte against the same route
/// evaluated in-process.
pub struct Handler {
    metrics: SharedMetrics,
    cache: Arc<ResponseCache>,
    /// Compiled-program cache shared by every worker, keyed by schedule
    /// hash: each distinct (program, model, width, recovery,
    /// store-buffer) point is compiled exactly once per process, across
    /// engines, memory images and replays.
    /// Counts `sim.program_cache.{hit,miss,evict}` into `/metrics`.
    programs: SimProgramCache,
    workloads: Arc<Vec<Workload>>,
    batch_max_jobs: usize,
    api_hook: Option<ApiHook>,
    /// Set once the worker pool exists; absent (e.g. in-process
    /// tests), batches run sequentially on the calling thread.
    submitter: OnceLock<Submitter>,
}

/// Entry bound for the handler's compiled-program cache. Prepared
/// programs are heavier than response bodies (a whole scheduled
/// function), so the bound is its own knob rather than the response
/// cache's.
const PROGRAM_CACHE_CAPACITY: usize = 512;

impl Handler {
    /// A handler over `cache`, reporting into `metrics`, serving suite
    /// lookups from `workloads`.
    pub fn new(
        metrics: SharedMetrics,
        cache: Arc<ResponseCache>,
        workloads: Arc<Vec<Workload>>,
        batch_max_jobs: usize,
        api_hook: Option<ApiHook>,
    ) -> Handler {
        let programs = ProgramCache::with_metrics(PROGRAM_CACHE_CAPACITY, metrics.clone());
        Handler {
            metrics,
            cache,
            programs,
            workloads,
            batch_max_jobs,
            api_hook,
            submitter: OnceLock::new(),
        }
    }

    /// Wires the worker pool in so batches can fan out. Later calls
    /// are ignored (the pool is created once).
    pub fn set_submitter(&self, submitter: Submitter) {
        let _ = self.submitter.set(submitter);
    }

    /// Dispatches one request to its endpoint.
    pub fn route(&self, req: &Request) -> Response {
        match (req.method.as_str(), req.path.as_str()) {
            ("GET", "/healthz") => Response::json(200, "{\"status\":\"ok\"}".to_string()),
            ("GET", "/metrics") => Response::text(200, prom::render(&self.metrics.snapshot())),
            ("POST", "/v1/compile") => self.single(req, JobKind::Compile),
            ("POST", "/v1/simulate") => self.single(req, JobKind::Simulate),
            ("POST", "/v1/batch") => self.batch(req),
            (_, "/healthz") | (_, "/metrics") => Response::method_not_allowed("GET"),
            (_, "/v1/compile") | (_, "/v1/simulate") | (_, "/v1/batch") => {
                Response::method_not_allowed("POST")
            }
            (_, path) => Response::not_found(path),
        }
    }

    /// Evaluates one typed request exactly as the HTTP endpoints do
    /// (cache included) — the in-process half of the byte-identity
    /// guarantee.
    pub fn execute(&self, job: &ApiRequest) -> ApiResponse {
        execute_job(
            job,
            &self.cache,
            &self.programs,
            &self.workloads,
            &self.metrics,
            self.api_hook.as_ref(),
        )
    }

    fn single(&self, req: &Request, kind: JobKind) -> Response {
        let Some(body) = req.body_str() else {
            return Response::bad_request("body must be UTF-8");
        };
        match ApiRequest::from_json(kind, body) {
            Ok(job) => self.execute(&job).into_http(),
            Err(e) => ApiResponse::Error(e).into_http(),
        }
    }

    fn batch(&self, req: &Request) -> Response {
        let Some(body) = req.body_str() else {
            return Response::bad_request("body must be UTF-8");
        };
        match BatchRequest::from_json(body, self.batch_max_jobs) {
            Ok(batch) => self.run_batch(batch.jobs).into_http(),
            Err(e) => ApiResponse::Error(e).into_http(),
        }
    }

    /// Runs a batch's jobs, fanning out across the pool when one is
    /// wired in. The calling thread always participates, so the batch
    /// completes even if no helper task ever gets picked up.
    pub fn run_batch(&self, jobs: Vec<ApiRequest>) -> ApiResponse {
        let n = jobs.len();
        let run = Arc::new(BatchRun::new(jobs));
        let exec: Arc<dyn Fn(&ApiRequest) -> ApiResponse + Send + Sync> = {
            let cache = Arc::clone(&self.cache);
            let programs = self.programs.clone();
            let workloads = Arc::clone(&self.workloads);
            let metrics = self.metrics.clone();
            let hook = self.api_hook.clone();
            Arc::new(move |job| {
                execute_job(job, &cache, &programs, &workloads, &metrics, hook.as_ref())
            })
        };
        if let Some(submitter) = self.submitter.get() {
            // Best-effort helpers: each drains jobs until none are
            // left. A full queue just means less parallelism.
            for _ in 0..n.saturating_sub(1) {
                let run = Arc::clone(&run);
                let exec = Arc::clone(&exec);
                let helper = move || while run.run_one(exec.as_ref()) {};
                if !submitter.try_spawn(Box::new(helper)) {
                    break;
                }
            }
        }
        while run.run_one(exec.as_ref()) {}
        let results = run.wait();
        self.metrics.count(BATCH_JOBS, n as u64);
        let errors = results.iter().filter(|r| !r.is_ok()).count();
        if errors > 0 {
            self.metrics.count(BATCH_JOB_ERRORS, errors as u64);
        }
        ApiResponse::Batch(results)
    }
}

/// Runs one API job under the response cache and a per-job
/// `catch_unwind`: a panicking job degrades to a 500-status error
/// entry, never further.
fn execute_job(
    job: &ApiRequest,
    cache: &ResponseCache,
    programs: &SimProgramCache,
    workloads: &[Workload],
    metrics: &SharedMetrics,
    hook: Option<&ApiHook>,
) -> ApiResponse {
    let computed = catch_unwind(AssertUnwindSafe(|| {
        if let Some(hook) = hook {
            hook(job);
        }
        let key = job.cache_key();
        if let Some(body) = cache.lookup(&key) {
            return ApiResponse::Result(body);
        }
        match job.run_with_cache(workloads, Some(programs)) {
            Ok(body) => {
                cache.insert(key, body.clone());
                ApiResponse::Result(body)
            }
            Err(e) => ApiResponse::Error(e),
        }
    }));
    computed.unwrap_or_else(|_| {
        metrics.count(PANICS, 1);
        ApiResponse::Error(ApiError {
            status: 500,
            message: "job panicked".to_string(),
        })
    })
}

/// Shared state of one in-flight batch: a claim counter hands each
/// job to exactly one executor (helper task or the owning worker),
/// and a condvar reports completion of the last job.
struct BatchRun {
    jobs: Vec<ApiRequest>,
    next: AtomicUsize,
    done: Mutex<(usize, Vec<Option<ApiResponse>>)>,
    finished: Condvar,
}

impl BatchRun {
    fn new(jobs: Vec<ApiRequest>) -> BatchRun {
        let n = jobs.len();
        BatchRun {
            jobs,
            next: AtomicUsize::new(0),
            done: Mutex::new((0, (0..n).map(|_| None).collect())),
            finished: Condvar::new(),
        }
    }

    /// Claims and runs the next unclaimed job; `false` when none are
    /// left to claim.
    fn run_one(&self, exec: &(dyn Fn(&ApiRequest) -> ApiResponse + Send + Sync)) -> bool {
        let i = self.next.fetch_add(1, Ordering::SeqCst);
        let Some(job) = self.jobs.get(i) else {
            return false;
        };
        let result = exec(job);
        let mut done = self.done.lock().unwrap_or_else(|e| e.into_inner());
        done.1[i] = Some(result);
        done.0 += 1;
        if done.0 == self.jobs.len() {
            self.finished.notify_all();
        }
        true
    }

    /// Blocks until every job has a result, then returns them in job
    /// order.
    fn wait(&self) -> Vec<ApiResponse> {
        let mut done = self.done.lock().unwrap_or_else(|e| e.into_inner());
        while done.0 < self.jobs.len() {
            done = self.finished.wait(done).unwrap_or_else(|e| e.into_inner());
        }
        done.1
            .iter_mut()
            .map(|slot| slot.take().expect("all jobs completed"))
            .collect()
    }
}

/// A running service: bound address, shared metrics, and the threads
/// behind them.
pub struct ServerHandle {
    addr: SocketAddr,
    metrics: SharedMetrics,
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
    pool: Option<WorkerPool>,
}

/// Starts the service per `cfg`, spawning the acceptor and worker
/// threads.
///
/// # Errors
///
/// Propagates bind failures and an uncreatable `cache_dir`.
pub fn start(cfg: ServerConfig) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(&cfg.addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;

    let metrics = SharedMetrics::new();
    let cache = match &cfg.cache_dir {
        Some(dir) => ResponseCache::with_dir(cfg.cache_capacity, metrics.clone(), dir)?,
        None => ResponseCache::new(cfg.cache_capacity, metrics.clone()),
    };
    let handler = Arc::new(Handler::new(
        metrics.clone(),
        Arc::new(cache),
        sentinel_workloads::suite::shared(),
        cfg.batch_max_jobs,
        cfg.api_hook.clone(),
    ));
    let stop = Arc::new(AtomicBool::new(false));

    let conn_metrics = metrics.clone();
    let hook = cfg.job_hook.clone();
    let (max_body, max_requests) = (cfg.max_body, cfg.max_requests_per_conn.max(1));
    let conn_handler = Arc::clone(&handler);
    let pool = WorkerPool::new(
        cfg.workers,
        cfg.queue_depth,
        metrics.clone(),
        Arc::new(move |stream| {
            serve_connection(
                stream,
                &conn_handler,
                &conn_metrics,
                hook.as_ref(),
                max_body,
                max_requests,
            );
        }),
    );
    handler.set_submitter(pool.submitter());

    let acceptor = {
        let stop = Arc::clone(&stop);
        let metrics = metrics.clone();
        let (idle_timeout, write_timeout) = (cfg.idle_timeout, cfg.write_timeout);
        let submitter = pool.submitter();
        std::thread::Builder::new()
            .name("serve-acceptor".to_string())
            .spawn(move || {
                accept_loop(
                    &listener,
                    &stop,
                    &metrics,
                    &submitter,
                    idle_timeout,
                    write_timeout,
                );
            })
            .expect("spawn acceptor thread")
    };

    Ok(ServerHandle {
        addr,
        metrics,
        stop,
        acceptor: Some(acceptor),
        pool: Some(pool),
    })
}

fn accept_loop(
    listener: &TcpListener,
    stop: &AtomicBool,
    metrics: &SharedMetrics,
    pool: &Submitter,
    idle_timeout: Duration,
    write_timeout: Duration,
) {
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                metrics.count(CONNECTIONS, 1);
                // Workers use blocking reads with deadlines; the
                // nonblocking flag is only for the accept loop. The
                // read deadline doubles as the keep-alive idle bound.
                // Nagle off: head and body go out as separate writes,
                // and on a kept-alive socket the coalescing delay
                // would stack with the peer's delayed ACK (~40 ms per
                // exchange).
                let _ = stream.set_nonblocking(false);
                let _ = stream.set_nodelay(true);
                let _ = stream.set_read_timeout(Some(idle_timeout));
                let _ = stream.set_write_timeout(Some(write_timeout));
                if let Err(mut bounced) = pool.try_submit(stream) {
                    metrics.count(REJECTED, 1);
                    metrics.count(RESPONSES_CLIENT_ERROR, 1);
                    let _ = http::write_response(&mut bounced, &Response::busy(1), true);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

/// One worker's whole tenure on one connection: loop read → dispatch
/// → write until the client closes (or asks to), the idle deadline
/// passes, or the request bound is hit.
fn serve_connection(
    stream: TcpStream,
    handler: &Handler,
    metrics: &SharedMetrics,
    hook: Option<&JobHook>,
    max_body: usize,
    max_requests: usize,
) {
    let Ok(mut writer) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(stream);
    for served in 0..max_requests {
        let req = match http::read_request(&mut reader, max_body) {
            Ok(req) => req,
            Err(ReadError::Bad(resp)) => {
                // Protocol errors poison the stream (unread body
                // bytes); answer and close.
                metrics.count(RESPONSES_CLIENT_ERROR, 1);
                let _ = http::write_response(&mut writer, &resp, true);
                return;
            }
            // Clean end of session, peer vanished, or idle timeout:
            // nothing to answer.
            Err(ReadError::Closed | ReadError::Io(_)) => return,
        };
        let started = Instant::now();
        metrics.count(REQUESTS, 1);
        if served > 0 {
            metrics.count(KEEPALIVE_REUSED, 1);
        }
        let resp = match catch_unwind(AssertUnwindSafe(|| {
            if let Some(hook) = hook {
                hook(&req);
            }
            handler.route(&req)
        })) {
            Ok(resp) => resp,
            Err(_) => {
                metrics.count(PANICS, 1);
                Response::internal("request handler panicked")
            }
        };
        match resp.status {
            200..=299 => metrics.count(RESPONSES_OK, 1),
            400..=499 => metrics.count(RESPONSES_CLIENT_ERROR, 1),
            _ => metrics.count(RESPONSES_SERVER_ERROR, 1),
        }
        let close = !req.persistent() || served + 1 >= max_requests;
        let write_ok = http::write_response(&mut writer, &resp, close).is_ok();
        metrics.observe(REQUEST_MICROS, started.elapsed().as_micros() as u64);
        if !write_ok || close {
            return;
        }
    }
}

impl ServerHandle {
    /// The bound address (port resolved if `:0` was requested).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The service's shared metrics registry.
    pub fn metrics(&self) -> SharedMetrics {
        self.metrics.clone()
    }

    /// Stops accepting, drains every queued connection, joins all
    /// threads, and returns the final metrics snapshot.
    pub fn shutdown(mut self) -> Metrics {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }
        if let Some(pool) = self.pool.take() {
            pool.shutdown();
        }
        self.metrics.snapshot()
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }
        if let Some(pool) = self.pool.take() {
            pool.shutdown();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;

    fn test_config() -> ServerConfig {
        ServerConfig {
            workers: 2,
            queue_depth: 8,
            idle_timeout: Duration::from_millis(500),
            ..ServerConfig::default()
        }
    }

    fn one_shot(addr: &str) -> Client {
        Client::builder(addr).keep_alive(false).build()
    }

    #[test]
    fn healthz_and_metrics_round_trip() {
        let handle = start(test_config()).unwrap();
        let addr = handle.addr().to_string();
        let mut client = one_shot(&addr);
        let health = client.get("/healthz").unwrap();
        assert_eq!(health.status, 200);
        assert_eq!(health.body, "{\"status\":\"ok\"}");
        let metrics = client.get("/metrics").unwrap();
        assert_eq!(metrics.status, 200);
        assert!(
            metrics.body.contains("serve_http_connections"),
            "{}",
            metrics.body
        );
        drop(client);
        let final_metrics = handle.shutdown();
        assert!(final_metrics.counter(CONNECTIONS) >= 2);
        assert_eq!(final_metrics.counter(RESPONSES_OK), 2);
    }

    #[test]
    fn unknown_paths_and_methods_get_404_405() {
        let handle = start(test_config()).unwrap();
        let addr = handle.addr().to_string();
        let mut client = one_shot(&addr);
        assert_eq!(client.get("/nope").unwrap().status, 404);
        let r = client.post_json("/healthz", "{}").unwrap();
        assert_eq!(r.status, 405);
        assert!(r.headers.iter().any(|(n, v)| n == "allow" && v == "GET"));
        let r = client.get("/v1/batch").unwrap();
        assert_eq!(r.status, 405);
        assert!(r.headers.iter().any(|(n, v)| n == "allow" && v == "POST"));
        drop(client);
        let m = handle.shutdown();
        assert_eq!(m.counter(RESPONSES_CLIENT_ERROR), 3);
    }

    #[test]
    fn malformed_json_is_a_400_not_a_crash() {
        let handle = start(test_config()).unwrap();
        let addr = handle.addr().to_string();
        let mut client = one_shot(&addr);
        let r = client.post_json("/v1/compile", "{not json").unwrap();
        assert_eq!(r.status, 400);
        let r = client.post_json("/v1/simulate", "[]").unwrap();
        assert_eq!(r.status, 400);
        let r = client.post_json("/v1/batch", r#"{"jobs":[]}"#).unwrap();
        assert_eq!(r.status, 400);
        drop(client);
        handle.shutdown();
    }

    #[test]
    fn panicking_hook_degrades_to_500_on_that_request_only() {
        let mut cfg = test_config();
        cfg.job_hook = Some(Arc::new(|req: &Request| {
            if req.header("x-test").is_some_and(|v| v == "panic") {
                panic!("injected");
            }
        }));
        let handle = start(cfg).unwrap();
        let addr = handle.addr().to_string();
        let mut client = one_shot(&addr);
        let boom = client
            .request("GET", "/healthz", None, &[("x-test", "panic")])
            .unwrap();
        assert_eq!(boom.status, 500);
        // The pool and the service survive; the next request is fine.
        let ok = client.get("/healthz").unwrap();
        assert_eq!(ok.status, 200);
        drop(client);
        let m = handle.shutdown();
        assert_eq!(m.counter(PANICS), 1);
        assert_eq!(m.counter(RESPONSES_SERVER_ERROR), 1);
    }
}
