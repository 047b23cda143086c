//! Component throughput: scheduler, both execution engines, reference
//! interpreter, and assembler, measured on suite programs.
//!
//! The engine section is the headline: it runs every workload on the
//! interpretive oracle and the trace-chaining turbo engine, **fails on
//! any disagreement** (outcome, statistics, live-out registers,
//! memory), and reports simulated instructions per second for each.
//! Turbo runs reuse one decoded program per workload (built outside the
//! timed loop), so the figure is execution throughput alone; the grid
//! and the service decode once per session.
//!
//! ```text
//! cargo bench --bench throughput                      # full run
//! cargo bench --bench throughput -- --quick           # CI smoke: verify + small IPS sample
//! cargo bench --bench throughput -- --quick --engine turbo
//! cargo bench --bench throughput -- --json BENCH_4.json
//! ```
//!
//! `--engine E` restricts the *timing* pass to one engine (the
//! verification pass always covers both); the JSON report carries a
//! column per timed engine.

use std::fmt::Write as _;
use std::sync::Arc;

use sentinel_bench::figures::{
    ablation_boosting, ablation_cache, ablation_formation, ablation_recovery,
    ablation_register_pressure, ablation_store_buffer, ablation_unrolling, figure4, figure5,
    sentinel_overhead,
};
use sentinel_bench::grid::GridSession;
use sentinel_bench::runner::{apply_memory, MeasureConfig};
use sentinel_bench::timing::{bench, group, time_interleaved, time_once};
use sentinel_core::{schedule_function, SchedOptions, SchedulingModel};
use sentinel_isa::MachineDesc;
use sentinel_prog::{asm, Function};
use sentinel_sim::reference::Reference;
use sentinel_sim::{Engine, SimSession, TurboProgram};

use sentinel_workloads::{suite, Workload};

const ALL_ENGINES: [Engine; 2] = [Engine::Interpreter, Engine::Turbo];

struct Cli {
    quick: bool,
    json: Option<String>,
    /// Restrict the timing pass to one engine (`--engine E`).
    engine: Option<Engine>,
}

fn parse_args() -> Cli {
    let mut cli = Cli {
        quick: false,
        json: None,
        engine: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => cli.quick = true,
            "--json" => cli.json = it.next(),
            "--engine" => {
                let v = it.next().expect("--engine requires a value");
                cli.engine = Some(v.parse::<Engine>().expect("bad --engine"));
            }
            // `cargo bench` forwards its own flags (e.g. --bench); ignore.
            _ => {}
        }
    }
    cli
}

fn bench_scheduler() {
    group("scheduler");
    let mdes = MachineDesc::paper_issue(8);
    for name in ["grep", "fpppp"] {
        let w = suite::by_name(name).unwrap();
        println!("   ({} static insns)", w.func.insn_count());
        for model in SchedulingModel::all() {
            bench(&format!("{name}/{}", model.tag()), 20, || {
                schedule_function(&w.func, &mdes, &SchedOptions::new(model)).unwrap()
            });
        }
    }
}

/// Schedules `w` for the paper's sentinel model at issue 8.
fn sched_for(w: &Workload) -> (MeasureConfig, Function) {
    let cfg = MeasureConfig::paper(SchedulingModel::Sentinel, 8);
    let sched = schedule_function(
        &w.func,
        &cfg.mdes(),
        &SchedOptions::new(SchedulingModel::Sentinel),
    )
    .unwrap();
    (cfg, sched.func)
}

/// One full run of `func` on `engine`; returns dynamic instructions.
/// Turbo runs share `prog`, decoded once per workload, so the timing
/// covers execution only.
fn run_once(
    w: &Workload,
    cfg: &MeasureConfig,
    func: &Function,
    engine: Engine,
    prog: &Arc<TurboProgram>,
) -> u64 {
    let builder = SimSession::for_function(func).config(cfg.sim_config());
    let mut m = if engine == Engine::Turbo {
        builder.program(Arc::clone(prog)).build()
    } else {
        builder.engine(engine).build()
    };
    apply_memory(w, m.memory_mut());
    m.run().unwrap();
    m.stats().dyn_insns
}

/// Runs `w` on both engines and panics on any observable difference:
/// outcome, statistics, live-out registers, or final memory.
fn assert_engines_agree(w: &Workload, cfg: &MeasureConfig, func: &Function) {
    let mut states = Vec::new();
    for engine in ALL_ENGINES {
        let mut m = SimSession::for_function(func)
            .config(cfg.sim_config())
            .engine(engine)
            .build();
        apply_memory(w, m.memory_mut());
        let outcome = m.run().unwrap();
        let regs: Vec<u64> = w.live_out.iter().map(|&r| m.reg(r).data).collect();
        states.push((outcome, *m.stats(), regs, m.memory().snapshot()));
    }
    assert_eq!(
        states[0], states[1],
        "{}: turbo engine disagrees with the interpreter",
        w.name
    );
}

/// Per-workload engine comparison row; an engine filtered out of the
/// timing pass has no entry.
struct EngineRow {
    name: String,
    dyn_insns: u64,
    /// (engine, simulated instructions per second), in `ALL_ENGINES`
    /// order, timed engines only.
    ips: Vec<(Engine, f64)>,
}

impl EngineRow {
    fn ips_of(&self, engine: Engine) -> Option<f64> {
        self.ips.iter().find(|(e, _)| *e == engine).map(|(_, v)| *v)
    }
}

fn bench_engines(quick: bool, only: Option<Engine>) -> Vec<EngineRow> {
    group("engines (sentinel model, issue 8)");

    // Verification pass: the whole suite, both engines, every run.
    let workloads = suite::shared();
    for w in workloads.iter() {
        let (cfg, func) = sched_for(w);
        assert_engines_agree(w, &cfg, &func);
    }
    println!(
        "   (both engines agree on all {} suite workloads)",
        workloads.len()
    );

    // Timing pass.
    let timed: &[&str] = if quick {
        &["compress"]
    } else {
        &["compress", "grep", "yacc", "fpppp"]
    };
    let engines: Vec<Engine> = ALL_ENGINES
        .into_iter()
        .filter(|e| only.is_none_or(|o| o == *e))
        .collect();
    // Each timed sample runs `reps` back-to-back executions so one
    // sample spans several scheduler quanta — the min of single runs
    // otherwise just selects the luckiest interrupt-free window, which
    // is not the same luck for engines with different run lengths.
    let (rounds, reps) = if quick { (5, 2) } else { (150, 10) };
    let mut rows = Vec::new();
    for name in timed {
        let w = suite::by_name(name).unwrap();
        let (cfg, func) = sched_for(&w);
        let prog = Arc::new(TurboProgram::new(&func, &cfg.mdes()));
        let dyn_insns = run_once(&w, &cfg, &func, Engine::Turbo, &prog);
        // Engines alternate within each timing round so host contention
        // cannot bias one engine's whole sample block; the min is the
        // uncontended-time estimate for each.
        let mut fns: Vec<Box<dyn FnMut() + '_>> = engines
            .iter()
            .map(|&engine| {
                let (w, cfg, func, prog) = (&w, &cfg, &func, &prog);
                Box::new(move || {
                    for _ in 0..reps {
                        std::hint::black_box(run_once(w, cfg, func, engine, prog));
                    }
                }) as Box<dyn FnMut() + '_>
            })
            .collect();
        let times = time_interleaved(rounds, &mut fns);
        let mut ips = Vec::new();
        let mut line = format!("{name:<14} {dyn_insns:>9} insns");
        for (&engine, t) in engines.iter().zip(&times) {
            let v = (dyn_insns * reps) as f64 / t.min.as_secs_f64();
            ips.push((engine, v));
            let _ = write!(line, "   {engine} {v:>12.0} ips");
        }
        let row = EngineRow {
            name: name.to_string(),
            dyn_insns,
            ips,
        };
        if let (Some(interp), Some(turbo)) =
            (row.ips_of(Engine::Interpreter), row.ips_of(Engine::Turbo))
        {
            let _ = write!(line, "   turbo/interpreter x{:.2}", turbo / interp);
        }
        println!("{line}");
        rows.push(row);
    }
    rows
}

fn bench_reference() {
    group("reference interpreter");
    let w = suite::by_name("yacc").unwrap();
    bench("reference/yacc", 20, || {
        let mut r = Reference::new(&w.func);
        apply_memory(&w, r.memory_mut());
        r.run().unwrap()
    });
}

/// The full figure/ablation grid `reproduce all` evaluates (minus
/// printing and minus the modulo-pipelining study, which manages its
/// own engine-independent session).
fn reproduce_grid(engine: Engine) -> f64 {
    let mut session = GridSession::suite(sentinel_bench::grid::default_jobs());
    session.set_engine(engine);
    let ((), wall) = time_once(|| {
        figure4(&session);
        figure5(&session);
        ablation_store_buffer(&session, &[1, 2, 4, 8, 16, 32]);
        ablation_recovery(&session);
        ablation_formation(&session);
        ablation_boosting(&session);
        ablation_unrolling(&session, &[1, 2, 4]);
        ablation_cache(&session, &[0, 10, 20, 40]);
        ablation_register_pressure(&session);
        sentinel_overhead(&session, 2);
        sentinel_overhead(&session, 8);
    });
    wall.as_secs_f64()
}

fn bench_assembler() {
    group("assembler");
    let w = suite::by_name("compress").unwrap();
    let text = asm::print(&w.func);
    println!("   ({} bytes of assembly)", text.len());
    bench("print/compress", 50, || asm::print(&w.func));
    bench("parse/compress", 50, || asm::parse(&text).unwrap());
}

fn geomean(xs: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = xs.fold((0.0, 0u32), |(s, n), x| (s + x.ln(), n + 1));
    (sum / n.max(1) as f64).exp()
}

/// Geomean ratio of `num` over `den` across rows where both were timed.
fn geomean_ratio(rows: &[EngineRow], num: Engine, den: Engine) -> Option<f64> {
    let ratios: Vec<f64> = rows
        .iter()
        .filter_map(|r| Some(r.ips_of(num)? / r.ips_of(den)?))
        .collect();
    (!ratios.is_empty()).then(|| geomean(ratios.iter().copied()))
}

fn write_json(path: &str, rows: &[EngineRow], grid: Option<[f64; 2]>) {
    let mut j = String::from("{\n  \"bench\": \"throughput\",\n  \"engines\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let mut fields = format!(
            "\"workload\": \"{}\", \"dyn_insns\": {}",
            r.name, r.dyn_insns
        );
        for &(engine, ips) in &r.ips {
            let _ = write!(fields, ", \"{engine}_ips\": {ips:.0}");
        }
        let _ = writeln!(
            j,
            "    {{{fields}}}{}",
            if i + 1 < rows.len() { "," } else { "" }
        );
    }
    j.push_str("  ]");
    if let Some(gm) = geomean_ratio(rows, Engine::Turbo, Engine::Interpreter) {
        let _ = write!(j, ",\n  \"geomean_turbo_over_interpreter\": {gm:.2}");
    }
    if let Some([interp_s, turbo_s]) = grid {
        let _ = write!(
            j,
            ",\n  \"reproduce_grid\": {{\"interpreter_wall_s\": {interp_s:.2}, \
             \"turbo_wall_s\": {turbo_s:.2}, \"turbo_speedup\": {:.2}}}",
            interp_s / turbo_s
        );
    }
    j.push_str("\n}\n");
    std::fs::write(path, j).unwrap();
    println!("\nwrote {path}");
}

fn main() {
    let cli = parse_args();
    let rows = bench_engines(cli.quick, cli.engine);
    let mut grid = None;
    if !cli.quick {
        bench_scheduler();
        bench_reference();
        bench_assembler();
        group("reproduce grid (fig4+fig5+ablations), wall clock");
        let interp_s = reproduce_grid(Engine::Interpreter);
        println!("{:<36} {interp_s:>8.2}s", "grid/interpreter");
        let turbo_s = reproduce_grid(Engine::Turbo);
        println!("{:<36} {turbo_s:>8.2}s", "grid/turbo");
        grid = Some([interp_s, turbo_s]);
    }
    if let Some(path) = &cli.json {
        write_json(path, &rows, grid);
    }
}
