//! End-to-end tests of the compile-and-simulate service: concurrency
//! without dropped responses, cache-hit behavior on repeated batches,
//! keep-alive connection reuse, `/v1/batch` fan-out, queue-full
//! backpressure, cache persistence across restarts, and
//! HTTP-vs-in-process byte equality.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use sentinel::serve::api::{ApiRequest, ApiResponse, BatchRequest, JobKind};
use sentinel::serve::client::Client;
use sentinel::serve::server::{start, ServerConfig};
use sentinel::trace::json;
use sentinel::trace::serve::{
    BATCH_JOBS, BATCH_JOB_ERRORS, CACHE_DISK_HIT, CACHE_HIT, CACHE_MISS, KEEPALIVE_REUSED, PANICS,
    REJECTED,
};
use sentinel::trace::sim::{SIM_PROGRAM_CACHE_HIT, SIM_PROGRAM_CACHE_MISS};

fn test_config() -> ServerConfig {
    ServerConfig {
        workers: 4,
        queue_depth: 128,
        idle_timeout: Duration::from_millis(500),
        ..ServerConfig::default()
    }
}

/// A one-socket-per-request client, the pre-keep-alive behavior.
fn one_shot(addr: &str) -> Client {
    Client::builder(addr).keep_alive(false).build()
}

/// A fresh scratch directory (no `Date::now` — process id plus a
/// counter keeps parallel tests apart).
fn temp_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "sentinel-serve-test-{}-{tag}-{n}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The acceptance batch: 64 distinct requests mixing both endpoints,
/// four models, and four widths. Distinct bodies ⇒ the first batch is
/// all cache misses, an identical second batch is all hits.
fn mixed_batch() -> Vec<(String, String)> {
    let models = ["S", "R", "G", "T"];
    let mut batch = Vec::new();
    for (mi, model) in models.iter().enumerate() {
        for width in 1..=4usize {
            for (suite, endpoint) in [("wc", "/v1/simulate"), ("cmp", "/v1/simulate")] {
                batch.push((
                    endpoint.to_string(),
                    format!(r#"{{"suite":"{suite}","model":"{model}","width":{width}}}"#),
                ));
            }
            let source = format!(
                "func @b{mi} {{\nentry:\n    li r1, {width}\n    li r2, 4\nloop:\n    add r1, r1, r2\n    addi r2, r2, -1\n    bne r2, r0, loop\ndone:\n    halt\n}}\n"
            );
            let mut body = String::new();
            {
                let mut w = sentinel::trace::json::ObjWriter::new(&mut body);
                w.str("source", &source)
                    .str("model", model)
                    .u64("width", width as u64);
                w.close();
            }
            batch.push(("/v1/compile".to_string(), body.clone()));
            batch.push(("/v1/simulate".to_string(), body));
        }
    }
    assert_eq!(batch.len(), 64);
    batch
}

/// Fires `batch` from 8 client threads (each on its own kept-alive
/// connection); returns the status codes in request order.
fn fire(addr: &str, batch: &[(String, String)]) -> Vec<u16> {
    let addr = addr.to_string();
    let batch = Arc::new(batch.to_vec());
    let chunk = batch.len().div_ceil(8);
    let mut statuses = vec![0u16; batch.len()];
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let addr = addr.clone();
                let batch = Arc::clone(&batch);
                scope.spawn(move || {
                    let mut client = Client::new(&addr);
                    let lo = t * chunk;
                    let hi = (lo + chunk).min(batch.len());
                    (lo..hi)
                        .map(|i| {
                            let (path, body) = &batch[i];
                            client.post_json(path, body).map(|r| r.status).unwrap_or(0)
                        })
                        .collect::<Vec<u16>>()
                })
            })
            .collect();
        for (t, h) in handles.into_iter().enumerate() {
            let lo = t * chunk;
            for (off, status) in h.join().unwrap().into_iter().enumerate() {
                statuses[lo + off] = status;
            }
        }
    });
    statuses
}

#[test]
fn concurrent_mixed_batch_zero_drops_then_cache_hits() {
    let handle = start(test_config()).unwrap();
    let addr = handle.addr().to_string();
    let metrics = handle.metrics();
    let batch = mixed_batch();

    // First batch: 64 distinct requests from 8 threads, every one
    // answered 200 — no drops, no 429 (queue depth exceeds the batch).
    let statuses = fire(&addr, &batch);
    assert!(statuses.iter().all(|&s| s == 200), "{statuses:?}");
    let after_first = metrics.snapshot();
    assert_eq!(after_first.counter(CACHE_MISS), 64);

    // Identical second batch: ≥90% served from the response cache
    // (in fact all of it — the cache holds every distinct key).
    let statuses = fire(&addr, &batch);
    assert!(statuses.iter().all(|&s| s == 200), "{statuses:?}");
    let after_second = metrics.snapshot();
    let hits = after_second.counter(CACHE_HIT) - after_first.counter(CACHE_HIT);
    assert!(
        hits as f64 >= 0.9 * batch.len() as f64,
        "only {hits} cache hits across the second batch"
    );
    assert_eq!(after_second.counter(CACHE_MISS), 64);

    let final_metrics = handle.shutdown();
    assert_eq!(final_metrics.counter(REJECTED), 0);
}

#[test]
fn keep_alive_session_reuses_one_connection() {
    let handle = start(test_config()).unwrap();
    let addr = handle.addr().to_string();
    let mut client = Client::new(&addr);

    let body = r#"{"suite":"wc","model":"S","width":2}"#;
    let first = client.post_json("/v1/simulate", body).unwrap();
    assert_eq!(first.status, 200);
    for _ in 0..9 {
        let replay = client.post_json("/v1/simulate", body).unwrap();
        assert_eq!(replay.body, first.body);
    }
    assert_eq!(client.connections_opened(), 1);
    assert_eq!(client.requests_sent(), 10);
    drop(client);

    let m = handle.shutdown();
    // 10 requests rode one accepted connection; 9 were reuses.
    assert_eq!(m.counter(KEEPALIVE_REUSED), 9);
}

#[test]
fn server_honors_connection_close_and_the_request_bound() {
    let cfg = ServerConfig {
        max_requests_per_conn: 3,
        ..test_config()
    };
    let handle = start(cfg).unwrap();
    let addr = handle.addr().to_string();

    // `Connection: close` is honored: every request opens fresh.
    let mut closing = one_shot(&addr);
    for _ in 0..3 {
        assert_eq!(closing.get("/healthz").unwrap().status, 200);
    }
    assert_eq!(closing.connections_opened(), 3);
    drop(closing);

    // A keep-alive client outliving the per-connection bound carries
    // on transparently on a fresh connection.
    let mut keep = Client::new(&addr);
    for _ in 0..7 {
        assert_eq!(keep.get("/healthz").unwrap().status, 200);
    }
    assert!(
        keep.connections_opened() >= 3,
        "3-request bound should have forced reconnects (opened {})",
        keep.connections_opened()
    );
    drop(keep);
    handle.shutdown();
}

#[test]
fn batch_returns_per_job_results_in_order() {
    let handle = start(test_config()).unwrap();
    let addr = handle.addr().to_string();
    let mut client = Client::new(&addr);

    // Jobs with distinct answers, plus one bad job in the middle: the
    // batch stays 200 and the bad job degrades to an error entry at
    // its own index.
    let jobs: Vec<ApiRequest> = [
        r#"{"kind":"simulate","suite":"wc","model":"S"}"#,
        r#"{"kind":"simulate","suite":"nope-such-suite"}"#,
        r#"{"kind":"simulate","suite":"cmp","model":"G"}"#,
        r#"{"kind":"compile","source":"func @t {\nentry:\n    li r1, 1\n    halt\n}\n"}"#,
    ]
    .iter()
    .map(|body| {
        let v = json::parse(body).unwrap();
        let kind: JobKind = v
            .get("kind")
            .and_then(json::Value::as_str)
            .unwrap()
            .parse()
            .unwrap();
        ApiRequest::from_json(kind, body).unwrap()
    })
    .collect();
    let expected: Vec<ApiResponse> = jobs
        .iter()
        .map(|job| match job.run(&sentinel::workloads::suite::shared()) {
            Ok(body) => ApiResponse::Result(body),
            Err(e) => ApiResponse::Error(e),
        })
        .collect();
    assert!(!expected[1].is_ok(), "the bad suite job should fail");

    let got = client.call_batch(&BatchRequest { jobs }).unwrap();
    let ApiResponse::Batch(entries) = got else {
        panic!("expected a batch envelope, got {got:?}");
    };
    assert_eq!(entries.len(), 4);
    for (i, (got, want)) in entries.iter().zip(&expected).enumerate() {
        assert_eq!(got.is_ok(), want.is_ok(), "job {i} outcome");
        if let (ApiResponse::Result(g), ApiResponse::Result(w)) = (got, want) {
            assert_eq!(g, w, "job {i} body");
        }
    }
    drop(client);

    let m = handle.shutdown();
    assert_eq!(m.counter(BATCH_JOBS), 4);
    assert_eq!(m.counter(BATCH_JOB_ERRORS), 1);
}

#[test]
fn batch_isolates_a_panicking_job_and_enforces_the_cap() {
    let cfg = ServerConfig {
        batch_max_jobs: 8,
        api_hook: Some(Arc::new(|job: &ApiRequest| {
            if let ApiRequest::Compile(c) = job {
                if c.source.contains("@boom") {
                    panic!("injected job panic");
                }
            }
        })),
        ..test_config()
    };
    let handle = start(cfg).unwrap();
    let addr = handle.addr().to_string();
    let mut client = Client::new(&addr);

    // A panicking job becomes a 500-status entry; its neighbors are
    // unaffected and the batch itself is a 200.
    let body = concat!(
        r#"{"v":1,"jobs":["#,
        r#"{"kind":"simulate","suite":"wc"},"#,
        r#"{"kind":"compile","source":"func @boom {\nentry:\n    halt\n}\n"},"#,
        r#"{"kind":"simulate","suite":"cmp"}"#,
        r#"]}"#
    );
    let resp = client.post_json("/v1/batch", body).unwrap();
    assert_eq!(resp.status, 200);
    let v = json::parse(&resp.body).unwrap();
    let results = v.get("results").and_then(json::Value::as_array).unwrap();
    assert_eq!(results.len(), 3);
    assert!(results[0].get("error").is_none());
    assert_eq!(
        results[1].get("status").and_then(json::Value::as_u64),
        Some(500)
    );
    assert!(results[1].get("error").is_some());
    assert!(results[2].get("error").is_none());

    // Over the per-batch cap: the whole request is a 400 naming the
    // bound, and no job runs.
    let mut big = String::from(r#"{"jobs":["#);
    for i in 0..9 {
        if i > 0 {
            big.push(',');
        }
        big.push_str(r#"{"kind":"simulate","suite":"wc"}"#);
    }
    big.push_str("]}");
    let resp = client.post_json("/v1/batch", &big).unwrap();
    assert_eq!(resp.status, 400);
    assert!(resp.body.contains("per-batch cap"), "{}", resp.body);

    // The service survived the panic.
    assert_eq!(client.get("/healthz").unwrap().status, 200);
    drop(client);

    let m = handle.shutdown();
    assert_eq!(m.counter(PANICS), 1);
    assert_eq!(m.counter(BATCH_JOBS), 3);
    assert_eq!(m.counter(BATCH_JOB_ERRORS), 1);
}

#[test]
fn cache_dir_persists_responses_across_restarts() {
    let dir = temp_dir("restart");
    let cfg = ServerConfig {
        cache_dir: Some(dir.clone()),
        ..test_config()
    };
    let bodies: Vec<String> = (1..=6)
        .map(|w| format!(r#"{{"suite":"wc","model":"S","width":{w}}}"#))
        .collect();

    // First life: six distinct requests, all misses, all spilled.
    let handle = start(cfg.clone()).unwrap();
    let addr = handle.addr().to_string();
    let mut client = Client::new(&addr);
    let first: Vec<String> = bodies
        .iter()
        .map(|b| {
            let r = client.post_json("/v1/simulate", b).unwrap();
            assert_eq!(r.status, 200);
            r.body
        })
        .collect();
    drop(client);
    let m = handle.shutdown();
    assert_eq!(m.counter(CACHE_MISS), 6);

    // Second life, same directory: the replay is served warm — same
    // bytes, ≥90% cache hits, and disk hits prove the entries came
    // from the spill, not recomputation.
    let handle = start(cfg).unwrap();
    let addr = handle.addr().to_string();
    let mut client = Client::new(&addr);
    for (body, expected) in bodies.iter().zip(&first) {
        let r = client.post_json("/v1/simulate", body).unwrap();
        assert_eq!(r.status, 200);
        assert_eq!(&r.body, expected);
    }
    drop(client);
    let m = handle.shutdown();
    assert_eq!(m.counter(CACHE_DISK_HIT), 6);
    assert_eq!(m.counter(CACHE_HIT), 6);
    assert_eq!(m.counter(CACHE_MISS), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn full_queue_rejects_with_429_and_recovers() {
    let cfg = ServerConfig {
        workers: 1,
        queue_depth: 1,
        idle_timeout: Duration::from_millis(500),
        job_hook: Some(Arc::new(|req: &sentinel::serve::http::Request| {
            if req.header("x-slow").is_some() {
                std::thread::sleep(std::time::Duration::from_millis(200));
            }
        })),
        ..ServerConfig::default()
    };
    let handle = start(cfg).unwrap();
    let addr = handle.addr().to_string();

    // Eight concurrent slow requests against one worker and a
    // one-deep queue: the overflow answers 429 + Retry-After
    // immediately instead of queueing without bound.
    let mut oks = 0;
    let mut rejected = 0;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let addr = addr.clone();
                scope.spawn(move || {
                    one_shot(&addr)
                        .request("GET", "/healthz", None, &[("x-slow", "1")])
                        .unwrap()
                })
            })
            .collect();
        for h in handles {
            let resp = h.join().unwrap();
            match resp.status {
                200 => oks += 1,
                429 => {
                    rejected += 1;
                    assert_eq!(resp.header("retry-after"), Some("1"));
                }
                other => panic!("unexpected status {other}"),
            }
        }
    });
    assert!(oks >= 1, "no request got through");
    assert!(rejected >= 1, "queue never filled (oks={oks})");

    // Backpressure is transient: an unloaded request succeeds.
    assert_eq!(one_shot(&addr).get("/healthz").unwrap().status, 200);
    let m = handle.shutdown();
    assert_eq!(m.counter(REJECTED), rejected);
}

#[test]
fn http_simulate_response_is_byte_identical_to_in_process() {
    let handle = start(test_config()).unwrap();
    let addr = handle.addr().to_string();
    let mut client = one_shot(&addr);

    let body = r#"{"suite":"wc","model":"S","width":4}"#;
    let http = client.post_json("/v1/simulate", body).unwrap();
    assert_eq!(http.status, 200);

    let req = ApiRequest::from_json(JobKind::Simulate, body).unwrap();
    let in_process = req.run(&sentinel::workloads::suite::shared()).unwrap();
    assert_eq!(http.body, in_process);

    // And a cached replay of the same request returns the same bytes —
    // including through the typed client.
    let replay = client.call(&req).unwrap();
    let ApiResponse::Result(replay_body) = replay else {
        panic!("expected a result, got {replay:?}");
    };
    assert_eq!(replay_body, in_process);
    drop(client);
    handle.shutdown();
}

/// The compile-once contract over HTTP: a batch mixing the two engines
/// over one inline program with distinct memory images compiles the
/// program once (neither the engine nor the memory image splits the
/// program-cache key), a repeat of one job on the other engine is a
/// response-cache hit (the engine is not part of a job's identity), a
/// byte-identical replay short-circuits at the response cache without
/// disturbing the program-cache counters, and `/metrics` exposes the
/// `sim_program_cache_*` family.
#[test]
fn replayed_batch_reports_program_cache_hits() {
    const SOURCE: &str = "func @mem {\\nentry:\\n    li r1, 0x1000\\n    ld r2, 0(r1)\\n    \
                          addi r3, r2, 1\\n    st r3, 8(r1)\\n    halt\\n}\\n";
    let handle = start(test_config()).unwrap();
    let addr = handle.addr().to_string();
    let metrics = handle.metrics();
    let mut client = Client::new(&addr);

    // `engine` is optional: absent means the default (turbo).
    let job = |engine: Option<&str>, word: u64| {
        let engine = engine.map_or(String::new(), |e| format!(r#","engine":"{e}""#));
        format!(
            r#"{{"kind":"simulate","source":"{SOURCE}","model":"S","width":4{engine},"map":[[4096,64]],"word":[[4096,{word}]]}}"#
        )
    };
    let bodies: Vec<String> = [None, Some("interpreter"), Some("turbo"), None]
        .into_iter()
        .enumerate()
        .map(|(i, engine)| job(engine, i as u64))
        .collect();
    let jobs = format!(r#"{{"v":1,"jobs":[{}]}}"#, bodies.join(","));

    // First batch: 4 jobs, 4 response keys, 1 schedule point — one
    // compile and 3 program-cache hits, with and without an engine
    // field.
    let resp = client.post_json("/v1/batch", &jobs).unwrap();
    assert_eq!(resp.status, 200);
    assert!(!resp.body.contains("error"), "{}", resp.body);
    let first = metrics.snapshot();
    assert_eq!(first.counter(SIM_PROGRAM_CACHE_MISS), 1);
    assert_eq!(first.counter(SIM_PROGRAM_CACHE_HIT), 3);

    // The same job on the other engine is the same job: served from
    // the response cache, byte for byte.
    let mut single = |engine: &str| {
        let body = job(Some(engine), 0).replace(r#""kind":"simulate","#, "");
        client.post_json("/v1/simulate", &body).unwrap().body
    };
    let turbo = single("turbo");
    assert_eq!(turbo, single("interpreter"));
    assert!(!turbo.contains("engine"), "{turbo}");
    let after_single = metrics.snapshot();
    assert!(after_single.counter(CACHE_HIT) >= 2);
    assert_eq!(after_single.counter(SIM_PROGRAM_CACHE_MISS), 1);
    assert_eq!(after_single.counter(SIM_PROGRAM_CACHE_HIT), 3);

    // Byte-identical replay: served by the response cache, so the
    // program cache is not consulted again — and still reports > 0.
    let replay = client.post_json("/v1/batch", &jobs).unwrap();
    assert_eq!(replay.body, resp.body);
    let second = metrics.snapshot();
    assert!(
        second.counter(CACHE_HIT) >= 6,
        "replay missed the response cache"
    );
    assert_eq!(second.counter(SIM_PROGRAM_CACHE_MISS), 1);
    assert!(second.counter(SIM_PROGRAM_CACHE_HIT) > 0);

    let text = client.get("/metrics").unwrap();
    assert!(
        text.body.contains("sim_program_cache_hit 3"),
        "{}",
        text.body
    );
    assert!(
        text.body.contains("sim_program_cache_miss 1"),
        "{}",
        text.body
    );
    drop(client);
    handle.shutdown();
}

/// The retired `fast` engine name is a 400 naming the engines that
/// remain, on the single endpoint and inside a batch.
#[test]
fn retired_engine_name_is_rejected_with_400() {
    let handle = start(test_config()).unwrap();
    let addr = handle.addr().to_string();
    let mut client = one_shot(&addr);
    let resp = client
        .post_json("/v1/simulate", r#"{"suite":"wc","engine":"fast"}"#)
        .unwrap();
    assert_eq!(resp.status, 400);
    assert!(resp.body.contains("interpreter|turbo"), "{}", resp.body);
    let resp = client
        .post_json(
            "/v1/batch",
            r#"{"v":1,"jobs":[{"kind":"simulate","suite":"wc","engine":"fast"}]}"#,
        )
        .unwrap();
    assert_eq!(resp.status, 400);
    assert!(resp.body.contains("interpreter|turbo"), "{}", resp.body);
    drop(client);
    handle.shutdown();
}

#[test]
fn metrics_exposition_reflects_traffic_and_is_sorted() {
    let handle = start(test_config()).unwrap();
    let addr = handle.addr().to_string();
    let mut client = Client::new(&addr);
    client
        .post_json("/v1/simulate", r#"{"suite":"wc"}"#)
        .unwrap();
    let text = client.get("/metrics").unwrap();
    assert_eq!(text.status, 200);
    assert!(text.header("content-type").unwrap().contains("0.0.4"));
    let metric_lines: Vec<&str> = text.body.lines().filter(|l| !l.starts_with('#')).collect();
    assert!(metric_lines
        .iter()
        .any(|l| l.starts_with("serve_http_requests ")));
    assert!(metric_lines
        .iter()
        .any(|l| l.starts_with("serve_cache_miss ")));
    // Families appear in sorted order.
    let families: Vec<&str> = text
        .body
        .lines()
        .filter_map(|l| l.strip_prefix("# TYPE "))
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    let mut sorted = families.clone();
    sorted.sort_unstable();
    assert_eq!(families, sorted);
    drop(client);
    handle.shutdown();
}

#[test]
fn compile_endpoint_emits_schedulable_asm() {
    let handle = start(test_config()).unwrap();
    let addr = handle.addr().to_string();
    let source = "func @t {\nentry:\n    li r1, 1\n    halt\n}\n";
    let mut body = String::new();
    {
        let mut w = sentinel::trace::json::ObjWriter::new(&mut body);
        w.str("source", source).str("model", "S").bool("emit", true);
        w.close();
    }
    let mut client = one_shot(&addr);
    let resp = client.post_json("/v1/compile", &body).unwrap();
    assert_eq!(resp.status, 200);
    let v = json::parse(&resp.body).unwrap();
    let emitted = v.get("asm").and_then(json::Value::as_str).unwrap();
    sentinel::prog::asm::parse(emitted).unwrap();
    assert!(v.get("pass_runs").and_then(json::Value::as_u64).unwrap() > 0);
    drop(client);
    handle.shutdown();
}
