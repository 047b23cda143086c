//! End-to-end tests of the `sentinel` command-line tool.

use std::process::Command;

const DEMO: &str = r#"
func @demo {
.noalias r2, r3
main:
    ld r5, 0(r3)
    beq r5, r0, skip
    ld r1, 0(r2)
    addi r4, r1, 1
    st r4, 8(r2)
    halt
skip:
    halt
}
"#;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_sentinel"))
}

fn write_demo(dir: &std::path::Path) -> std::path::PathBuf {
    let p = dir.join("demo.sasm");
    std::fs::write(&p, DEMO).unwrap();
    p
}

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("sentinel-cli-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&d).unwrap();
    d
}

#[test]
fn check_accepts_valid_program() {
    let dir = tmpdir("check");
    let p = write_demo(&dir);
    let out = bin().args(["check", p.to_str().unwrap()]).output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("ok (2 blocks, 7 instructions)"));
}

#[test]
fn check_rejects_invalid_program() {
    let dir = tmpdir("bad");
    let p = dir.join("bad.sasm");
    std::fs::write(&p, "func @bad {\ne:\n    add r1, r2\n}\n").unwrap();
    let out = bin().args(["check", p.to_str().unwrap()]).output().unwrap();
    assert!(!out.status.success());
}

#[test]
fn schedule_then_run_pipeline() {
    let dir = tmpdir("pipe");
    let p = write_demo(&dir);
    let sched = dir.join("sched.sasm");
    let out = bin()
        .args([
            "schedule",
            p.to_str().unwrap(),
            "--model",
            "S",
            "--issue",
            "4",
            "-o",
            sched.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&sched).unwrap();
    assert!(
        text.contains(".s "),
        "speculated instructions present:\n{text}"
    );

    let out = bin()
        .args([
            "run",
            sched.to_str().unwrap(),
            "--issue",
            "4",
            "--map",
            "0x1000:0x100",
            "--word",
            "0x1000=1",
            "--reg",
            "r3=0x1000",
            "--reg",
            "r2=0x1010",
            "--print",
            "r4",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("halted after"), "{stdout}");
    assert!(stdout.contains("r4 = 1"), "{stdout}");
}

#[test]
fn run_reports_precise_trap() {
    let dir = tmpdir("trap");
    let p = write_demo(&dir);
    let sched = dir.join("sched.sasm");
    bin()
        .args([
            "schedule",
            p.to_str().unwrap(),
            "--model",
            "S",
            "-o",
            sched.to_str().unwrap(),
        ])
        .status()
        .unwrap();
    // r2 unmapped: the hoisted speculative load faults; precise trap.
    let out = bin()
        .args([
            "run",
            sched.to_str().unwrap(),
            "--map",
            "0x1000:0x100",
            "--word",
            "0x1000=1",
            "--reg",
            "r3=0x1000",
            "--reg",
            "r2=0xdead0",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("TRAP"), "{stdout}");
    assert!(stdout.contains("unmapped address 0xdead0"), "{stdout}");
}

#[test]
fn asm_disasm_roundtrip() {
    let dir = tmpdir("obj");
    let p = write_demo(&dir);
    let obj = dir.join("demo.sobj");
    assert!(bin()
        .args(["asm", p.to_str().unwrap(), "-o", obj.to_str().unwrap()])
        .status()
        .unwrap()
        .success());
    let bytes = std::fs::read(&obj).unwrap();
    assert!(bytes.starts_with(b"SNTL"));
    let out = bin()
        .args(["disasm", obj.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("func @demo"));
    assert!(text.contains(".noalias r2, r3"));
    // Objects can be run directly.
    let out = bin()
        .args([
            "run",
            obj.to_str().unwrap(),
            "--map",
            "0x1000:0x100",
            "--reg",
            "r3=0x1000",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("halted"));
}

const LOOP: &str = r#"
func @copy {
.noalias r1, r2
init:
    li r1, 0x1000
    li r2, 0x2000
    li r3, 50
loop:
    ld r4, 0(r1)
    st r4, 0(r2)
    addi r1, r1, 8
    addi r2, r2, 8
    addi r3, r3, -1
    bne r3, r0, loop
done:
    halt
}
"#;

#[test]
fn pipeline_command_overlaps_loops() {
    let dir = tmpdir("pipe2");
    let p = dir.join("loop.sasm");
    std::fs::write(&p, LOOP).unwrap();
    let out_path = dir.join("loop_p.sasm");
    let out = bin()
        .args([
            "pipeline",
            p.to_str().unwrap(),
            "-o",
            out_path.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stderr).contains("pipelined loop: II="));

    let common = [
        "--map",
        "0x1000:0x200",
        "--map",
        "0x2000:0x200",
        "--word",
        "0x1008=9",
    ];
    let cycles_of = |path: &std::path::Path| -> u64 {
        let out = bin().arg("run").arg(path).args(common).output().unwrap();
        assert!(out.status.success());
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("halted after"), "{stdout}");
        stdout
            .split("halted after ")
            .nth(1)
            .unwrap()
            .split(' ')
            .next()
            .unwrap()
            .parse()
            .unwrap()
    };
    let plain = cycles_of(&p);
    let pipelined = cycles_of(&out_path);
    assert!(pipelined < plain, "{pipelined} vs {plain}");
}

#[test]
fn mdes_command_prints_reparseable_description() {
    let out = bin().args(["mdes", "--issue", "2"]).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("issue_width 2"));
    assert!(text.contains("latency mem-load 2"));
    // Feed it back through --mdes.
    let dir = tmpdir("mdes");
    let p = dir.join("m.mdes");
    std::fs::write(&p, text.as_bytes()).unwrap();
    let out2 = bin()
        .args(["mdes", "--mdes", p.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out2.status.success());
    assert_eq!(out.stdout, out2.stdout, "round-trips through a file");
}

#[test]
fn trace_command_renders_all_formats() {
    let dir = tmpdir("trace");
    let p = write_demo(&dir);
    let common = [
        "--model",
        "S",
        "--issue",
        "4",
        "--map",
        "0x1000:0x100",
        "--word",
        "0x1000=1",
        "--reg",
        "r3=0x1000",
        "--reg",
        "r2=0x1010",
    ];

    let trace = |fmt: &str| -> (String, String) {
        let out = bin()
            .args(["trace", p.to_str().unwrap(), "--format", fmt])
            .args(common)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        (
            String::from_utf8_lossy(&out.stdout).into_owned(),
            String::from_utf8_lossy(&out.stderr).into_owned(),
        )
    };

    let (timeline, stderr) = trace("timeline");
    assert!(timeline.contains("cycle"), "{timeline}");
    assert!(timeline.contains("slot 0"), "{timeline}");
    assert!(stderr.contains("halted after"), "{stderr}");
    assert!(stderr.contains("cycle attribution:"), "{stderr}");

    let (jsonl, _) = trace("jsonl");
    assert!(jsonl.lines().count() > 3, "{jsonl}");
    for line in jsonl.lines() {
        assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
    }
    // Byte-identical across runs.
    assert_eq!(jsonl, trace("jsonl").0);

    let (chrome, _) = trace("chrome");
    assert!(chrome.starts_with(r#"{"traceEvents":["#), "{chrome}");
    assert!(chrome.trim_end().ends_with('}'), "{chrome}");
    assert!(chrome.contains(r#""ph":"X""#), "{chrome}");
}

#[test]
fn reproduce_subcommand_delegates_to_bench_cli() {
    // Bad input is enough to prove the wiring without regenerating a
    // figure in a debug build: the bench CLI answers with its own usage
    // text and exit status 2.
    let out = bin().args(["reproduce", "fig99"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown command 'fig99'"), "{stderr}");
    assert!(stderr.contains("usage: reproduce"), "{stderr}");

    let out = bin()
        .args(["reproduce", "fig4", "--jobs", "zero"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("bad --jobs"));
}

#[test]
fn retired_fast_engine_exits_2_naming_the_engines() {
    for args in [
        &["reproduce", "fig4", "--engine", "fast"][..],
        &["simulate", "--suite", "wc", "--engine", "fast"],
    ] {
        let out = bin().args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("unknown engine 'fast'"), "{stderr}");
        assert!(stderr.contains("interpreter|turbo"), "{stderr}");
    }
}

#[test]
fn simulate_engine_changes_neither_spec_nor_response() {
    let run = |engine: &str| {
        let out = bin()
            .args([
                "simulate", "--suite", "wc", "--issue", "2", "--engine", engine,
            ])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        (out.stdout, out.stderr)
    };
    let (interp_out, interp_err) = run("interpreter");
    let (turbo_out, turbo_err) = run("turbo");
    assert_eq!(interp_out, turbo_out);
    assert_eq!(interp_err, turbo_err, "same spec hash on both engines");
    assert!(!String::from_utf8_lossy(&turbo_out).contains("engine"));
}

#[test]
fn boosting_model_from_cli() {
    let dir = tmpdir("boost");
    let p = write_demo(&dir);
    let out = bin()
        .args([
            "schedule",
            p.to_str().unwrap(),
            "--model",
            "B2",
            "--issue",
            "4",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains(".b1 ") || text.contains(".b2 "),
        "boost markers:\n{text}"
    );
}

#[test]
fn version_flag_prints_package_version() {
    for spelling in ["--version", "version"] {
        let out = bin().arg(spelling).output().unwrap();
        assert!(out.status.success());
        let text = String::from_utf8_lossy(&out.stdout);
        assert_eq!(
            text.trim(),
            format!("sentinel {}", env!("CARGO_PKG_VERSION")),
            "{spelling}"
        );
    }
}

#[test]
fn help_flags_print_usage_on_stdout() {
    for args in [&["--help"][..], &["-h"]] {
        let out = bin().args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(0), "{args:?}");
        assert!(String::from_utf8_lossy(&out.stdout).contains("usage: sentinel"));
    }
    for args in [&["reproduce", "--help"][..], &["reproduce", "fig4", "-h"]] {
        let out = bin().args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(0), "{args:?}");
        assert!(String::from_utf8_lossy(&out.stdout).contains("usage: reproduce"));
    }
}

#[test]
fn fuzz_rejects_an_oversubscribed_mix_with_exit_2() {
    // Seed 22's drawn load/store/mul/div fractions leave less than 0.4
    // of the instruction mix for trap loads.
    let out = bin()
        .args(["fuzz", "--seed", "22", "--count", "1", "--traps", "0.4"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("seed 22: instruction mix exceeds 1.0"),
        "{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
    let out = bin()
        .args(["fuzz", "--count", "1", "--traps", "1.5"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn unknown_subcommands_exit_2_with_usage() {
    let out = bin().arg("frobnicate").arg("x.sasm").output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage: sentinel"));
    // The serve subcommand follows the same convention for its flags.
    let out = bin().args(["serve", "--frobnicate"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage: serve"));
}

#[test]
fn serve_version_flag() {
    let out = bin().args(["serve", "--version"]).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        text.trim(),
        format!("sentinel-serve {}", env!("CARGO_PKG_VERSION"))
    );
}

/// Full service lifecycle through the CLI: start on an ephemeral port,
/// wait for the readiness line, exercise the endpoints, SIGINT, and
/// assert a clean drained exit.
#[cfg(unix)]
#[test]
fn serve_subcommand_drains_on_sigint() {
    use std::io::BufRead;
    use std::process::Stdio;

    let mut child = bin()
        .args(["serve", "--port", "0", "--workers", "2"])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let stderr = child.stderr.take().unwrap();
    let mut lines = std::io::BufReader::new(stderr).lines();
    let ready = lines.next().unwrap().unwrap();
    assert!(ready.starts_with("sentinel-serve listening on "), "{ready}");
    let addr = ready
        .strip_prefix("sentinel-serve listening on ")
        .unwrap()
        .split_whitespace()
        .next()
        .unwrap()
        .to_string();

    let mut client = sentinel::serve::client::Client::new(&addr);
    let health = client.get("/healthz").unwrap();
    assert_eq!(health.status, 200);
    let sim = client
        .post_json("/v1/simulate", r#"{"suite":"wc","width":2}"#)
        .unwrap();
    assert_eq!(sim.status, 200);
    let metrics = client.get("/metrics").unwrap();
    assert!(metrics.body.contains("serve_http_requests"));
    drop(client);

    let kill = std::process::Command::new("kill")
        .args(["-INT", &child.id().to_string()])
        .status()
        .unwrap();
    assert!(kill.success());
    let status = child.wait().unwrap();
    assert_eq!(status.code(), Some(0));
    // The drain message and final metrics snapshot land on stderr.
    let rest: Vec<String> = lines.map_while(Result::ok).collect();
    let rest = rest.join("\n");
    assert!(rest.contains("sentinel-serve draining (SIGINT)"), "{rest}");
    assert!(rest.contains("serve.http.requests"), "{rest}");
}
