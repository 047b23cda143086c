//! The `sentinel` command-line tool: assemble, disassemble, validate,
//! schedule, and run programs in the reproduction's ISA.
//!
//! ```text
//! sentinel check     prog.sasm
//! sentinel asm       prog.sasm -o prog.sobj
//! sentinel disasm    prog.sobj
//! sentinel info      prog.sasm
//! sentinel schedule  prog.sasm --model S --issue 8 [--recovery] [--allocate] [-o out.sasm]
//! sentinel compile   prog.sasm --model S --issue 8 [--explain] [--verify-passes] [-o out.sasm]
//!                    (or: --spec HASH|CANONICAL [--cache-dir DIR])
//! sentinel simulate  --suite NAME | prog.sasm | --spec HASH|CANONICAL
//!                    [--model M] [--issue N] [--engine interpreter|turbo]
//!                    [--recovery] [--cache-dir DIR]
//! sentinel run       prog.sasm [--issue N] [--semantics tags|silent|nan]
//!                    [--map START:LEN]... [--word ADDR=VAL]... [--reg rN=VAL]...
//!                    [--print rN]... [--base]
//! sentinel trace     prog.sasm --model S --issue 8 --format chrome|jsonl|timeline
//!                    [--raw] [-o out] [run's machine flags]
//! sentinel reproduce [fig4|fig5|summary|...|all] [--csv] [--jobs N] [--cache-dir DIR]
//! sentinel serve     [--addr HOST] [--port N] [--workers N] [--queue N] [--cache N] [--cache-dir PATH]
//! sentinel fuzz      [--seed N] [--count M] [--model R|G|S|T] [--width W]
//!                    [--alias F] [--traps F] [--spec HASH|CANONICAL] [--cache-dir DIR]
//! sentinel --version
//! ```
//!
//! Numeric arguments accept decimal or `0x` hexadecimal.
//!
//! Every compile, simulate, and fuzz job has one canonical description
//! (a [`sentinel::spec::JobSpec`]) and one stable 64-bit content hash,
//! printed as `spec: <hash>` on stderr. `--spec` accepts either the
//! full canonical string or — when `--cache-dir` points at a directory
//! whose registry recorded the job — the bare hash, so any failure
//! reported anywhere in the stack reproduces from one identifier.

use std::process::exit;

use sentinel::prelude::*;
use sentinel::prog::{asm, object};
use sentinel::sched::{schedule_function, SchedOptions, SchedulingModel};
use sentinel::sim::{RunOutcome, SpeculationSemantics};

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    exit(1);
}

/// Rejects invalid input: the message on stderr, exit status 2.
fn bad_input(msg: &str) -> ! {
    eprintln!("error: {msg}");
    exit(2);
}

fn parse_num(s: &str) -> i64 {
    let (neg, body) = match s.strip_prefix('-') {
        Some(b) => (true, b),
        None => (false, s),
    };
    let v = if let Some(hex) = body.strip_prefix("0x") {
        i64::from_str_radix(hex, 16)
    } else {
        body.parse()
    }
    .unwrap_or_else(|_| fail(&format!("bad number '{s}'")));
    if neg {
        -v
    } else {
        v
    }
}

fn load_program(path: &str) -> Function {
    let bytes = std::fs::read(path).unwrap_or_else(|e| fail(&format!("read {path}: {e}")));
    if bytes.starts_with(b"SNTL") {
        return object::read_object(&bytes)
            .unwrap_or_else(|e| fail(&format!("load object {path}: {e}")));
    }
    let text = String::from_utf8(bytes).unwrap_or_else(|_| fail(&format!("{path}: not UTF-8")));
    asm::parse(&text).unwrap_or_else(|e| fail(&format!("parse {path}: {e}")))
}

fn parse_model(s: &str) -> SchedulingModel {
    sentinel::spec::parse_model(s).unwrap_or_else(|e| fail(&e.to_string()))
}

fn parse_reg(s: &str) -> Reg {
    let (class, idx) = s.split_at(1);
    let index: u16 = idx
        .parse()
        .unwrap_or_else(|_| fail(&format!("bad register '{s}'")));
    match class {
        "r" => Reg::int(index),
        "f" => Reg::fp(index),
        _ => fail(&format!("bad register '{s}'")),
    }
}

struct Args {
    positional: Vec<String>,
    flags: Vec<(String, Option<String>)>,
}

impl Args {
    fn parse(raw: Vec<String>) -> Args {
        let mut positional = Vec::new();
        let mut flags = Vec::new();
        let mut it = raw.into_iter().peekable();
        while let Some(a) = it.next() {
            if let Some(name) = a.strip_prefix("--") {
                let takes_value = !matches!(
                    name,
                    "recovery"
                        | "allocate"
                        | "base"
                        | "clear-uninit"
                        | "trace"
                        | "stats"
                        | "raw"
                        | "explain"
                        | "verify-passes"
                );
                let value = if takes_value { it.next() } else { None };
                flags.push((name.to_string(), value));
            } else if a == "-o" {
                flags.push(("output".to_string(), it.next()));
            } else {
                positional.push(a);
            }
        }
        Args { positional, flags }
    }

    fn flag(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }

    fn all(&self, name: &str) -> Vec<&str> {
        self.flags
            .iter()
            .filter(|(n, _)| n == name)
            .filter_map(|(_, v)| v.as_deref())
            .collect()
    }
}

/// Resolves a `--spec` argument: a bare 16-hex-digit hash is looked up
/// in the `--cache-dir` registry (which restores any embedded source
/// payload); anything else must be a full canonical spec string.
fn resolve_spec_arg(args: &Args, arg: &str) -> sentinel::spec::JobSpec {
    use sentinel::spec::registry;
    if let Some(hash) = registry::parse_hash(arg) {
        let dir = args.flag("cache-dir").unwrap_or_else(|| {
            fail(&format!(
                "--spec {arg} is a bare hash; pass --cache-dir DIR to resolve it \
                 (or pass the full canonical spec string)"
            ))
        });
        match registry::resolve(std::path::Path::new(dir), hash) {
            Ok(Some(resolved)) => resolved
                .into_spec()
                .unwrap_or_else(|e| fail(&format!("spec {arg}: {e}"))),
            Ok(None) => fail(&format!("spec {arg} not found under {dir}")),
            Err(e) => fail(&format!("resolve spec {arg}: {e}")),
        }
    } else {
        sentinel::spec::JobSpec::parse(arg).unwrap_or_else(|e| fail(&format!("--spec: {e}")))
    }
}

/// Records `spec` in the `--cache-dir` registry (if one is given), so
/// its bare hash resolves in later invocations. Registry failures are
/// warnings: the job itself already ran.
fn record_spec(args: &Args, spec: &sentinel::spec::JobSpec) {
    if let Some(dir) = args.flag("cache-dir") {
        if let Err(e) = sentinel::spec::registry::record(std::path::Path::new(dir), spec) {
            eprintln!("warning: could not record spec in {dir}: {e}");
        }
    }
}

fn emit(func: &Function, output: Option<&str>) {
    match output {
        None => print!("{}", asm::print(func)),
        Some(path) if path.ends_with(".sobj") => {
            let bytes =
                object::write_object(func).unwrap_or_else(|e| fail(&format!("encode: {e}")));
            std::fs::write(path, bytes).unwrap_or_else(|e| fail(&format!("write {path}: {e}")));
        }
        Some(path) => {
            std::fs::write(path, asm::print(func))
                .unwrap_or_else(|e| fail(&format!("write {path}: {e}")));
        }
    }
}

fn cmd_check(args: &Args) {
    let f = load_program(&args.positional[0]);
    let errs = sentinel::prog::validate(&f);
    if errs.is_empty() {
        println!(
            "{}: ok ({} blocks, {} instructions)",
            f.name(),
            f.block_count(),
            f.insn_count()
        );
    } else {
        for e in &errs {
            eprintln!("{e}");
        }
        exit(1);
    }
}

fn cmd_info(args: &Args) {
    let f = load_program(&args.positional[0]);
    println!("function @{}", f.name());
    println!("  blocks:        {}", f.block_count());
    println!("  instructions:  {}", f.insn_count());
    let branches: usize = f.blocks().map(|b| b.side_exit_count()).sum();
    println!("  cond branches: {branches}");
    let loads = f
        .blocks()
        .flat_map(|b| b.insns.iter())
        .filter(|i| i.op.is_load())
        .count();
    let stores = f
        .blocks()
        .flat_map(|b| b.insns.iter())
        .filter(|i| i.op.is_store())
        .count();
    println!("  loads/stores:  {loads}/{stores}");
    let spec = f
        .blocks()
        .flat_map(|b| b.insns.iter())
        .filter(|i| i.speculative)
        .count();
    println!("  speculative:   {spec}");
    let (mi, mf) = f.max_reg_indices();
    println!(
        "  max regs:      int {:?}, fp {:?}",
        mi.unwrap_or(0),
        mf.unwrap_or(0)
    );
    if !f.noalias_bases().is_empty() {
        let regs: Vec<String> = f.noalias_bases().iter().map(|r| r.to_string()).collect();
        println!("  noalias:       {}", regs.join(", "));
    }
}

/// Builds the machine description from `--mdes FILE` (if given) and an
/// `--issue N` override.
fn machine_desc(args: &Args) -> MachineDesc {
    let base = match args.flag("mdes") {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .unwrap_or_else(|e| fail(&format!("read {path}: {e}")));
            sentinel::isa::mdes_file::parse_mdes(&text)
                .unwrap_or_else(|e| fail(&format!("{path}: {e}")))
        }
        None => MachineDesc::paper_issue(8),
    };
    match args.flag("issue") {
        Some(s) => MachineDesc::builder()
            .issue_width(parse_num(s) as usize)
            .branches_per_cycle(base.branches_per_cycle())
            .int_regs(base.int_regs())
            .fp_regs(base.fp_regs())
            .store_buffer_size(base.store_buffer_size())
            .latencies(base.latencies().clone())
            .build(),
        None => base,
    }
}

fn cmd_schedule(args: &Args) {
    let f = load_program(&args.positional[0]);
    let model = parse_model(args.flag("model").unwrap_or("S"));
    let mut opts = SchedOptions::new(model);
    if args.has("recovery") {
        opts = opts.with_recovery();
    }
    if args.has("allocate") {
        opts = opts.with_allocation();
    }
    if args.has("clear-uninit") {
        opts = opts.with_clear_uninitialized();
    }
    let mdes = machine_desc(args);
    let issue = mdes.issue_width();
    let s = schedule_function(&f, &mdes, &opts).unwrap_or_else(|e| fail(&format!("schedule: {e}")));
    eprintln!(
        "scheduled for {model} at issue {issue}: {} speculated, {} checks, {} confirms{}",
        s.stats.speculated,
        s.stats.checks_inserted,
        s.stats.confirms_inserted,
        if opts.recovery {
            format!(", {} renames", s.stats.renames)
        } else {
            String::new()
        }
    );
    emit(&s.func, args.flag("output"));
}

/// `sentinel compile`: schedule through the instrumented
/// [`CompileSession`](sentinel::sched::CompileSession) pass manager.
/// `--explain` prints the per-pass log (name, wall time, IR delta,
/// diagnostics) to stderr; `--verify-passes` runs the inter-pass IR
/// verifier between stages even in release builds.
fn cmd_compile(args: &Args) {
    use sentinel::sched::CompileSession;
    use sentinel::trace::ExplainSink;
    // `--spec` reproduces a recorded compile job: the spec carries the
    // source (via the registry), model, width, and knobs, so every
    // other flag is ignored.
    let (f, source_text, model, mdes, spec_knobs) = if let Some(arg) = args.flag("spec") {
        let spec = resolve_spec_arg(args, arg);
        if spec.kind != sentinel::spec::SpecKind::Compile {
            fail(&format!(
                "--spec {} is a {} spec, not a compile spec",
                spec.hash_hex(),
                spec.kind.as_str()
            ));
        }
        let src = match &spec.program {
            sentinel::spec::ProgramRef::Source(s) => s.clone(),
            _ => fail("compile spec carries no inline source"),
        };
        let f = asm::parse(&src).unwrap_or_else(|e| fail(&format!("spec source: {e}")));
        let mdes = MachineDesc::paper_issue(spec.width);
        let knobs = Some((spec.recovery, spec.verify_passes));
        (f, src, spec.model, mdes, knobs)
    } else {
        let path = &args.positional[0];
        let f = load_program(path);
        // Text inputs hash as written (matching what a serve client
        // submitting the same file would hash); objects hash their
        // printed assembly.
        let bytes = std::fs::read(path).unwrap_or_else(|e| fail(&format!("read {path}: {e}")));
        let source_text = match String::from_utf8(bytes) {
            Ok(text) if !text.starts_with("SNTL") => text,
            _ => asm::print(&f),
        };
        let model = parse_model(args.flag("model").unwrap_or("S"));
        (f, source_text, model, machine_desc(args), None)
    };
    let mut opts = SchedOptions::new(model);
    let (recovery, verify) =
        spec_knobs.unwrap_or_else(|| (args.has("recovery"), args.has("verify-passes")));
    if recovery {
        opts = opts.with_recovery();
    }
    if args.has("allocate") {
        opts = opts.with_allocation();
    }
    if args.has("clear-uninit") {
        opts = opts.with_clear_uninitialized();
    }
    if verify {
        opts = opts.with_verify_passes();
    }
    let issue = mdes.issue_width();
    let mut spec = sentinel::spec::JobSpec::compile(source_text, model, issue);
    spec.recovery = recovery;
    spec.verify_passes = verify;
    eprintln!("spec: {}", spec.hash_hex());
    record_spec(args, &spec);
    let mut builder = CompileSession::for_function(&f)
        .mdes(&mdes)
        .options(opts.clone());
    if args.has("explain") {
        builder = builder.observe(Box::new(ExplainSink::default()));
    }
    let mut session = builder.build();
    let result = session.run();
    if let Some(mut sink) = session.take_sink() {
        eprint!("{}", sink.finish());
    }
    let s = result.unwrap_or_else(|e| fail(&format!("compile: {e}")));
    eprintln!(
        "compiled for {model} at issue {issue}: {} pass runs{}, {} speculated, {} checks, {} confirms{}",
        session.log().total_runs(),
        if session.verifies() { " (verified)" } else { "" },
        s.stats.speculated,
        s.stats.checks_inserted,
        s.stats.confirms_inserted,
        if opts.recovery {
            format!(", {} renames", s.stats.renames)
        } else {
            String::new()
        }
    );
    emit(&s.func, args.flag("output"));
}

/// `sentinel simulate`: evaluate one simulate job exactly as the serve
/// API would — same canonical spec, same cache key, same JSON response
/// body — so a measurement quoted from serve, the bench grid, or a CI
/// log reproduces locally from its spec. With `--cache-dir`, responses
/// are served from (and written to) the shared content-addressed
/// store, and the job's spec is recorded so its bare hash resolves.
fn cmd_simulate(args: &Args) {
    use sentinel::serve::api::ApiRequest;
    use sentinel::spec::{JobSpec, ProgramRef, Store};
    // The engine picks how the job runs, not which job it is: it stays
    // out of the spec and its hash.
    let engine = args.flag("engine").map(|e| {
        e.parse::<sentinel::sim::Engine>()
            .unwrap_or_else(|e| bad_input(&e))
    });
    let spec = if let Some(arg) = args.flag("spec") {
        resolve_spec_arg(args, arg)
    } else {
        let model = parse_model(args.flag("model").unwrap_or("S"));
        let width = args.flag("issue").map_or(8, |s| parse_num(s) as usize);
        let program = if let Some(name) = args.flag("suite") {
            ProgramRef::Suite(name.to_string())
        } else if let Some(path) = args.positional.first() {
            let f = load_program(path);
            ProgramRef::Source(asm::print(&f))
        } else {
            fail("simulate needs a program: --suite NAME, a source file, or --spec");
        };
        let mut spec = JobSpec::simulate(program, model, width);
        if args.has("recovery") {
            spec.recovery = true;
        }
        spec
    };
    let mut req =
        ApiRequest::from_spec(&spec).unwrap_or_else(|e| fail(&format!("simulate: {}", e.message)));
    if let (ApiRequest::Simulate(r), Some(engine)) = (&mut req, engine) {
        r.engine = engine;
    }
    let spec = req.to_spec();
    eprintln!("spec: {}", spec.hash_hex());
    record_spec(args, &spec);
    let workloads = sentinel::workloads::suite::shared();
    let evaluate = || {
        req.run(&workloads)
            .unwrap_or_else(|e| fail(&format!("simulate: {}", e.message)))
    };
    let body = match args.flag("cache-dir") {
        Some(dir) => {
            let metrics = sentinel::trace::SharedMetrics::new();
            let store = Store::new(1024, metrics)
                .attach_dir(std::path::Path::new(dir))
                .unwrap_or_else(|e| fail(&format!("cache dir '{dir}': {e}")));
            let key = spec.canonical();
            match store.lookup(&key) {
                // Only serve bodies this command wrote (serve-style
                // JSON). A bench grid measurement stored under the
                // same spec stays untouched — re-evaluate, don't
                // clobber another layer's rendering.
                Some(body) if body.starts_with('{') => {
                    eprintln!("spec: {} served from {dir}", spec.hash_hex());
                    body
                }
                Some(_) => evaluate(),
                None => {
                    let body = evaluate();
                    store.insert(key, body.clone());
                    body
                }
            }
        }
        None => evaluate(),
    };
    println!("{body}");
}

fn cmd_pipeline(args: &Args) {
    use sentinel::sched::modulo::{pipeline_loop, pipeline_while_loop};
    let mut f = load_program(&args.positional[0]);
    let mdes = machine_desc(args);
    let blocks: Vec<_> = f.layout().to_vec();
    let mut done = 0;
    for b in blocks {
        let info =
            pipeline_loop(&mut f, b, &mdes).or_else(|| pipeline_while_loop(&mut f, b, &mdes, true));
        if let Some(info) = info {
            eprintln!(
                "pipelined {}: II={}, stages={}, {} ops overlapped",
                f.block(b).label,
                info.ii,
                info.stages,
                info.body_ops
            );
            done += 1;
        }
    }
    if done == 0 {
        eprintln!("no pipelinable loops found");
    }
    emit(&f, args.flag("output"));
}

/// Applies `--map START:LEN`, `--word ADDR=VAL`, and `--reg rN=VAL`
/// flags to a freshly built machine.
fn apply_machine_flags(args: &Args, m: &mut SimSession<'_>) {
    for spec in args.all("map") {
        let (start, len) = spec
            .split_once(':')
            .unwrap_or_else(|| fail(&format!("bad --map '{spec}' (want START:LEN)")));
        m.memory_mut()
            .map_region(parse_num(start) as u64, parse_num(len) as u64);
    }
    for spec in args.all("word") {
        let (addr, val) = spec
            .split_once('=')
            .unwrap_or_else(|| fail(&format!("bad --word '{spec}' (want ADDR=VAL)")));
        m.memory_mut()
            .write_word(parse_num(addr) as u64, parse_num(val) as u64)
            .unwrap_or_else(|e| fail(&format!("--word {spec}: {e}")));
    }
    for spec in args.all("reg") {
        let (reg, val) = spec
            .split_once('=')
            .unwrap_or_else(|| fail(&format!("bad --reg '{spec}' (want rN=VAL)")));
        m.set_reg(parse_reg(reg), parse_num(val) as u64);
    }
}

fn cmd_run(args: &Args) {
    let f = load_program(&args.positional[0]);
    let semantics = match args.flag("semantics").unwrap_or("tags") {
        "tags" => SpeculationSemantics::SentinelTags,
        "silent" => SpeculationSemantics::Silent,
        "nan" => SpeculationSemantics::NanWrite,
        other => fail(&format!("unknown semantics '{other}'")),
    };
    let mut cfg = SimConfig::for_mdes(machine_desc(args));
    cfg.semantics = semantics;
    cfg.collect_trace = args.has("trace");
    let mut m = SimSession::for_function(&f).config(cfg).build();
    apply_machine_flags(args, &mut m);
    let result = m.run();
    for event in m.trace() {
        println!("{event}");
    }
    match result {
        Ok(RunOutcome::Halted) => {
            println!(
                "halted after {} cycles ({} instructions, ipc {:.2})",
                m.stats().cycles,
                m.stats().dyn_insns,
                m.stats().ipc()
            );
        }
        Ok(RunOutcome::Trapped(t)) => {
            println!("TRAP: {t} (after {} cycles)", m.stats().cycles);
        }
        Err(e) => fail(&format!("simulation: {e}")),
    }
    for spec in args.all("print") {
        let r = parse_reg(spec);
        let v = m.reg(r);
        if v.tag {
            println!("{r} = [exception tag, pc={}]", v.as_pc());
        } else if r.is_fp() {
            println!("{r} = {} ({:#x})", v.as_f64(), v.data);
        } else {
            println!("{r} = {} ({:#x})", v.as_i64(), v.data);
        }
    }
    if args.has("stats") {
        println!("{}", m.stats());
    }
}

/// `sentinel trace`: schedule a program (unless `--raw`), run it with a
/// cycle-accurate trace sink attached, and emit the rendered trace.
fn cmd_trace(args: &Args) {
    use sentinel::trace::{ChromeTraceSink, JsonlSink, TimelineSink, TraceSink};
    let f = load_program(&args.positional[0]);
    let mdes = machine_desc(args);
    let model = parse_model(args.flag("model").unwrap_or("S"));
    let func = if args.has("raw") {
        f
    } else {
        let mut opts = SchedOptions::new(model);
        if args.has("recovery") {
            opts = opts.with_recovery();
        }
        let s =
            schedule_function(&f, &mdes, &opts).unwrap_or_else(|e| fail(&format!("schedule: {e}")));
        s.func
    };
    let width = mdes.issue_width();
    let mut cfg = SimConfig::for_mdes(mdes);
    cfg.semantics = match args.flag("semantics") {
        Some("tags") | None => SpeculationSemantics::SentinelTags,
        Some("silent") => SpeculationSemantics::Silent,
        Some("nan") => SpeculationSemantics::NanWrite,
        Some(other) => fail(&format!("unknown semantics '{other}'")),
    };
    let sink: Box<dyn TraceSink> = match args.flag("format").unwrap_or("timeline") {
        "timeline" => Box::new(TimelineSink::new(width)),
        "jsonl" => Box::new(JsonlSink::new()),
        "chrome" => Box::new(ChromeTraceSink::new()),
        other => fail(&format!(
            "unknown format '{other}' (timeline, jsonl, or chrome)"
        )),
    };
    let mut m = SimSession::for_function(&func).config(cfg).build();
    m.attach_sink(sink);
    apply_machine_flags(args, &mut m);
    let result = m.run();
    let mut sink = m.take_sink().expect("sink was attached");
    let rendered = sink.finish();
    match args.flag("output") {
        Some(path) => {
            std::fs::write(path, &rendered).unwrap_or_else(|e| fail(&format!("write {path}: {e}")));
            eprintln!("wrote {path}");
        }
        None => print!("{rendered}"),
    }
    let stats = *m.stats();
    match result {
        Ok(RunOutcome::Halted) => eprintln!(
            "halted after {} cycles ({} instructions, ipc {:.2})",
            stats.cycles,
            stats.dyn_insns,
            stats.ipc()
        ),
        Ok(RunOutcome::Trapped(t)) => {
            eprintln!("TRAP: {t} (after {} cycles)", stats.cycles);
        }
        Err(e) => fail(&format!("simulation: {e}")),
    }
    let stalled = stats.cycles.saturating_sub(stats.issuing_cycles);
    eprintln!(
        "cycle attribution: {} issuing ({:.1}%), {} stalled",
        stats.issuing_cycles,
        if stats.cycles == 0 {
            0.0
        } else {
            100.0 * stats.issuing_cycles as f64 / stats.cycles as f64
        },
        stalled
    );
    for (reason, n) in stats.stalls.iter() {
        if n > 0 {
            eprintln!(
                "  {:<18} {:>8}  ({:.1}%)",
                reason.name(),
                n,
                stats.stalls.pct_of(reason, stats.cycles)
            );
        }
    }
    if args.has("stats") {
        eprintln!("{stats}");
    }
}

/// `sentinel fuzz`: run the seeded differential fuzzer — each case is a
/// generated program executed on both engines, every observable compared
/// byte-for-byte. Unpinned, seeds cycle through all four models at
/// widths 1/2/4/8; `--model`/`--width` pin one axis for reproduction.
fn cmd_fuzz(args: &Args) {
    let parse_frac = |name: &str| -> f64 {
        match args.flag(name) {
            Some(s) => {
                let v: f64 = s
                    .parse()
                    .unwrap_or_else(|_| bad_input(&format!("bad --{name} '{s}'")));
                if !(0.0..=1.0).contains(&v) {
                    bad_input(&format!("--{name} must lie in [0, 1], got {v}"));
                }
                v
            }
            None => 0.0,
        }
    };
    // `--spec` replays exactly one recorded (or quoted) case.
    if let Some(arg) = args.flag("spec") {
        let spec = resolve_spec_arg(args, arg);
        let case = sentinel::fuzz::FuzzCase::from_spec(&spec)
            .unwrap_or_else(|e| fail(&format!("--spec: {e}")));
        sentinel::fuzz::check_batch(case.seed, 1, case.alias_frac, case.trap_frac)
            .unwrap_or_else(|e| bad_input(&format!("--spec: {e}")));
        match sentinel::fuzz::run_case(&case) {
            Ok(()) => println!("fuzz: case passed (spec {})", spec.hash_hex()),
            Err(report) => {
                eprintln!("fuzz FAILED:\n{report}");
                exit(1);
            }
        }
        return;
    }
    let seed = args.flag("seed").map_or(0, |s| parse_num(s) as u64);
    let count = args.flag("count").map_or(16, |s| parse_num(s) as u64);
    let model = args.flag("model").map(|s| {
        Some(parse_model(s))
            .filter(|m| SchedulingModel::all().contains(m))
            .unwrap_or_else(|| fail(&format!("unknown model '{s}' (R, G, S, or T)")))
    });
    let width = args.flag("width").map(|s| parse_num(s) as usize);
    let alias = parse_frac("alias");
    let traps = parse_frac("traps");
    sentinel::fuzz::check_batch(seed, count, alias, traps).unwrap_or_else(|e| bad_input(&e));
    match sentinel::fuzz::run_batch_detail(seed, count, alias, traps, model, width) {
        Ok(n) => println!(
            "fuzz: {n} case(s) passed (seeds {seed}..{}, alias {alias}, traps {traps})",
            seed + n
        ),
        Err((case, report)) => {
            // Record the failing case's spec so its bare hash resolves
            // in later invocations (`sentinel fuzz --spec <hash>`).
            record_spec(args, &case.spec());
            eprintln!("fuzz FAILED:\n{report}");
            exit(1);
        }
    }
}

const USAGE: &str = "usage: sentinel <command> <file> [options]\n\
         commands:\n\
           check     validate a program\n\
           info      print program statistics\n\
           asm       assemble text to a .sobj object (-o out.sobj)\n\
           disasm    print an object as text assembly\n\
           schedule  --model R|G|S|T|B<k> --issue N [--recovery] [--allocate] [--clear-uninit] [-o out]\n\
           compile   schedule via the instrumented pass manager [schedule's flags] [--explain] [--verify-passes] [--spec H] [--cache-dir DIR]\n\
           simulate  one job, serve-identical JSON response: --suite NAME | FILE | --spec H [--model M] [--issue N] [--engine interpreter|turbo] [--recovery] [--cache-dir DIR]\n\
           pipeline  software-pipeline counted/while loops [-o out]\n\
           mdes      print the effective machine description [--mdes file] [--issue N]\n\
           run       [--issue N] [--semantics tags|silent|nan] [--map S:L]… [--word A=V]… [--reg rN=V]… [--print rN]… [--stats] [--trace]\n\
           trace     --model R|G|S|T|B<k> --issue N --format timeline|jsonl|chrome [--raw] [--recovery] [-o out] [run's machine flags]\n\
           reproduce regenerate the paper's tables/figures [fig4|fig5|summary|…|all] [--csv] [--jobs N] [--cache-dir DIR]\n\
           serve     networked compile-and-simulate service [--addr HOST] [--port N] [--workers N] [--queue N] [--cache N] [--cache-dir PATH]\n\
           fuzz      differential fuzzer: interpreter vs turbo, byte-identical observables [--seed N] [--count M] [--model R|G|S|T] [--width W] [--alias F] [--traps F] [--spec H] [--cache-dir DIR]\n\
           version   print the version (also --version)\n\
           --help    print this usage on stdout (also -h)";

fn usage() -> ! {
    eprintln!("{USAGE}");
    exit(2);
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.is_empty() {
        usage();
    }
    let cmd = raw[0].clone();
    if cmd == "--help" || cmd == "-h" {
        println!("{USAGE}");
        return;
    }
    if cmd == "--version" || cmd == "version" {
        println!("sentinel {}", env!("CARGO_PKG_VERSION"));
        return;
    }
    if cmd == "serve" {
        // Delegates to the serve crate's CLI, before the positional-args
        // check: `sentinel serve` alone starts with defaults.
        exit(sentinel::serve::cli::run(&raw[1..]));
    }
    if cmd == "reproduce" {
        // Delegates to the bench crate's CLI (same interface as the
        // standalone `reproduce` binary), before the positional-args
        // check: `sentinel reproduce` alone means `reproduce all`.
        exit(sentinel::bench::cli::run(&raw[1..]));
    }
    let args = Args::parse(raw[1..].to_vec());
    if cmd == "fuzz" {
        // Before the positional-args check: `sentinel fuzz` alone runs a
        // 16-case smoke sweep covering the whole (model, width) grid.
        cmd_fuzz(&args);
        return;
    }
    if cmd == "mdes" {
        // Print the effective machine description (paper defaults, a
        // --mdes file, and/or an --issue override), re-parseable.
        print!(
            "{}",
            sentinel::isa::mdes_file::print_mdes(&machine_desc(&args))
        );
        return;
    }
    if cmd == "simulate" {
        // Before the positional-args check: the program may come from
        // --suite or --spec instead of a file.
        cmd_simulate(&args);
        return;
    }
    if args.positional.is_empty() && !(cmd == "compile" && args.has("spec")) {
        usage();
    }
    match cmd.as_str() {
        "check" => cmd_check(&args),
        "info" => cmd_info(&args),
        "asm" => {
            let f = load_program(&args.positional[0]);
            let out = args.flag("output").unwrap_or("out.sobj");
            emit(&f, Some(out));
            eprintln!("wrote {out}");
        }
        "disasm" => {
            let f = load_program(&args.positional[0]);
            print!("{}", asm::print(&f));
        }
        "schedule" => cmd_schedule(&args),
        "compile" => cmd_compile(&args),
        "pipeline" => cmd_pipeline(&args),
        "run" => cmd_run(&args),
        "trace" => cmd_trace(&args),
        _ => usage(),
    }
}
