//! The `reproduce` command-line interface.
//!
//! Shared between the standalone `reproduce` binary and the
//! `sentinel reproduce` subcommand. One [`GridSession`] spans the whole
//! invocation, so `reproduce all` evaluates each distinct
//! (bench, model, width, knobs) cell exactly once — figures and
//! ablations that used to re-measure the same points now share a
//! memoized grid evaluated on `--jobs N` worker threads.
//!
//! ```text
//! reproduce fig4                # Figure 4: S vs R speedups
//! reproduce fig5                # Figure 5: G vs S vs T speedups
//! reproduce summary             # §5.2 headline statistics
//! reproduce ablation-sb         # store-buffer size sweep (ours)
//! reproduce ablation-recovery   # recovery-constraint cost (ours)
//! reproduce overhead [width]    # sentinel-insertion overhead (ours)
//! reproduce all                 # everything
//! reproduce fig4 --csv          # CSV instead of aligned text
//! reproduce all --jobs 4        # evaluate the grid on 4 worker threads
//! reproduce all --cache-dir D   # persist measurements; warm-start next run
//! ```
//!
//! Output determinism contract: stdout is byte-identical for any
//! `--jobs` value, across repeated runs, and between a cold and a warm
//! `--cache-dir` run; the grid/timing/store summary goes to stderr.

use sentinel_core::SchedulingModel;
use sentinel_sim::Engine;

use crate::cache::{EVAL_COUNTER, HIT_COUNTER};
use crate::figures::{
    ablation_boosting, ablation_cache, ablation_formation, ablation_pipelining, ablation_recovery,
    ablation_register_pressure, ablation_store_buffer, ablation_unrolling, figure4, figure5,
    issue_sweep, sentinel_overhead,
};
use crate::grid::{default_jobs, GridSession};
use crate::report::{
    failed_cell_report, improvement_summary, pass_timing_table, speedup_csv, speedup_table,
    stall_breakdown_csv, stall_breakdown_table,
};

/// Exit status for a usage error (unknown subcommand or flag).
pub const USAGE_STATUS: i32 = 2;

const USAGE: &str = "usage: reproduce [fig4|fig5|summary|sweep|overhead [width]|ablation-sb|\
                     ablation-recovery|ablation-formation|ablation-boosting|ablation-unroll|\
                     ablation-cache|ablation-pipeline|ablation-pressure|all] [--csv] [--jobs N] \
                     [--engine interpreter|turbo] [--verify-passes] [--cache-dir DIR] [--version] [--help]";

/// Parsed command line.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Cli {
    cmd: String,
    /// Positional argument after the command (`overhead [width]`).
    width: Option<usize>,
    csv: bool,
    jobs: usize,
    engine: Engine,
    verify_passes: bool,
    cache_dir: Option<String>,
}

/// Parses arguments (the part after the program name / subcommand).
/// Returns `Err(message)` on a malformed or unknown flag.
fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        cmd: String::new(),
        width: None,
        csv: false,
        jobs: default_jobs(),
        engine: Engine::default(),
        verify_passes: false,
        cache_dir: None,
    };
    let mut positional: Vec<&str> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--csv" => cli.csv = true,
            "--verify-passes" => cli.verify_passes = true,
            "--jobs" => {
                let v = it.next().ok_or("--jobs requires a value")?;
                cli.jobs = v
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| format!("bad --jobs '{v}' (want a positive integer)"))?;
            }
            "--engine" => {
                let v = it.next().ok_or("--engine requires a value")?;
                cli.engine = v.parse::<Engine>()?;
            }
            "--cache-dir" => {
                let v = it.next().ok_or("--cache-dir requires a directory")?;
                cli.cache_dir = Some(v.clone());
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag '{flag}'")),
            pos => positional.push(pos),
        }
    }
    cli.cmd = positional.first().unwrap_or(&"all").to_string();
    if let Some(w) = positional.get(1) {
        cli.width = Some(w.parse::<usize>().map_err(|_| format!("bad width '{w}'"))?);
    }
    if positional.len() > 2 {
        return Err(format!("unexpected argument '{}'", positional[2]));
    }
    Ok(cli)
}

fn print_fig4(session: &GridSession, csv: bool) {
    let rows = figure4(session);
    let models = [
        SchedulingModel::RestrictedPercolation,
        SchedulingModel::Sentinel,
    ];
    println!("== Figure 4: sentinel scheduling (S) vs restricted percolation (R) ==");
    println!("speedup over base machine (issue 1, restricted percolation)\n");
    if csv {
        print!("{}", speedup_csv(&rows, &models));
        print!(
            "{}",
            stall_breakdown_csv(&rows, SchedulingModel::Sentinel, 8)
        );
    } else {
        print!("{}", speedup_table(&rows, &models));
        println!();
        print!(
            "{}",
            improvement_summary(
                &rows,
                SchedulingModel::Sentinel,
                SchedulingModel::RestrictedPercolation
            )
        );
        println!();
        print!(
            "{}",
            stall_breakdown_table(&rows, SchedulingModel::RestrictedPercolation, 8)
        );
        println!();
        print!(
            "{}",
            stall_breakdown_table(&rows, SchedulingModel::Sentinel, 8)
        );
    }
    print!("{}", failed_cell_report(&rows));
}

fn print_fig5(session: &GridSession, csv: bool) {
    let rows = figure5(session);
    let models = [
        SchedulingModel::GeneralPercolation,
        SchedulingModel::Sentinel,
        SchedulingModel::SentinelStores,
    ];
    println!("== Figure 5: general percolation (G) vs sentinel (S) vs speculative stores (T) ==");
    println!("speedup over base machine (issue 1, restricted percolation)\n");
    if csv {
        print!("{}", speedup_csv(&rows, &models));
        print!(
            "{}",
            stall_breakdown_csv(&rows, SchedulingModel::SentinelStores, 8)
        );
    } else {
        print!("{}", speedup_table(&rows, &models));
        println!();
        print!(
            "{}",
            improvement_summary(
                &rows,
                SchedulingModel::Sentinel,
                SchedulingModel::GeneralPercolation
            )
        );
        print!(
            "{}",
            improvement_summary(
                &rows,
                SchedulingModel::SentinelStores,
                SchedulingModel::Sentinel
            )
        );
        println!();
        print!(
            "{}",
            stall_breakdown_table(&rows, SchedulingModel::SentinelStores, 8)
        );
    }
    print!("{}", failed_cell_report(&rows));
}

fn print_summary(session: &GridSession) {
    let rows4 = figure4(session);
    println!("== §5.2 headline statistics ==\n");
    print!(
        "{}",
        improvement_summary(
            &rows4,
            SchedulingModel::Sentinel,
            SchedulingModel::RestrictedPercolation
        )
    );
    let rows5 = figure5(session);
    print!(
        "{}",
        improvement_summary(
            &rows5,
            SchedulingModel::Sentinel,
            SchedulingModel::GeneralPercolation
        )
    );
    print!(
        "{}",
        improvement_summary(
            &rows5,
            SchedulingModel::SentinelStores,
            SchedulingModel::Sentinel
        )
    );
}

fn print_ablation_sb(session: &GridSession) {
    println!("== Ablation A1: model-T speedup (issue 8) vs store-buffer size ==\n");
    let sizes = [1, 2, 4, 8, 16, 32];
    let data = ablation_store_buffer(session, &sizes);
    print!("{:<12}", "benchmark");
    for s in sizes {
        print!("{:>8}", format!("N={s}"));
    }
    println!();
    for (bench, series) in data {
        print!("{bench:<12}");
        for (_, sp) in series {
            print!("{sp:>8.2}");
        }
        println!();
    }
}

fn print_ablation_recovery(session: &GridSession) {
    println!("== Ablation A2: §3.7 recovery-constraint cost (sentinel, issue 8) ==\n");
    println!(
        "{:<12}{:>10}{:>12}{:>8}",
        "benchmark", "plain", "w/recovery", "loss"
    );
    for (bench, plain, rec) in ablation_recovery(session) {
        let loss = (1.0 - rec / plain) * 100.0;
        println!("{bench:<12}{plain:>10.2}{rec:>12.2}{loss:>7.1}%");
    }
}

fn print_ablation_formation(session: &GridSession) {
    println!("== Ablation A4: superblock formation's contribution (sentinel, issue 8) ==\n");
    println!(
        "{:<12}{:>12}{:>12}{:>12}",
        "benchmark", "basicblocks", "formed", "original"
    );
    for (bench, split, formed, original) in ablation_formation(session) {
        println!("{bench:<12}{split:>12.2}{formed:>12.2}{original:>12.2}");
    }
    println!("\n(speedup over the original program's base machine)");
}

fn print_ablation_boosting(session: &GridSession) {
    println!("== Ablation A5: instruction boosting (§2.3) vs sentinel scheduling (issue 8) ==\n");
    println!(
        "{:<12}{:>8}{:>8}{:>8}{:>8}{:>8}",
        "benchmark", "R", "B(1)", "B(2)", "B(4)", "S"
    );
    for (bench, r, b1, b2, b4, s) in ablation_boosting(session) {
        println!("{bench:<12}{r:>8.2}{b1:>8.2}{b2:>8.2}{b4:>8.2}{s:>8.2}");
    }
    println!("\n(speedup over the base machine; the paper: sentinel reaches boosting's");
    println!(" performance without shadow register files / shadow store buffers)");
}

fn print_ablation_unrolling(session: &GridSession) {
    println!("== Ablation A6: superblock loop unrolling (sentinel, issue 8) ==\n");
    let factors = [1, 2, 4];
    print!("{:<12}", "benchmark");
    for k in factors {
        print!("{:>8}", format!("x{k}"));
    }
    println!();
    for (bench, series) in ablation_unrolling(session, &factors) {
        print!("{bench:<12}");
        for (_, sp) in series {
            print!("{sp:>8.2}");
        }
        println!();
    }
    println!("\n(speedup over the original base machine)");
}

fn print_ablation_cache(session: &GridSession) {
    println!("== Ablation A7: S-over-R improvement vs cache-miss penalty (issue 8) ==\n");
    let penalties = [0, 10, 20, 40];
    print!("{:<12}", "benchmark");
    for p in penalties {
        print!("{:>8}", format!("p={p}"));
    }
    println!();
    for (bench, series) in ablation_cache(session, &penalties) {
        print!("{bench:<12}");
        for (_, ratio) in series {
            print!("{:>7.1}%", (ratio - 1.0) * 100.0);
        }
        println!();
    }
    println!("\n(p=0 is the paper's 100%-hit assumption; larger penalties test whether");
    println!(" speculative loads hide miss latency)");
}

fn print_ablation_pipelining(session: &GridSession) {
    println!("== Ablation A8: modulo scheduling (software pipelining), issue 8 ==\n");
    println!(
        "{:<12}{:>10}{:>11}{:>9}{:>5}{:>8}",
        "kernel", "acyclic", "pipelined", "speedup", "II", "stages"
    );
    for (name, acyclic, pipelined, ii, stages) in ablation_pipelining(session.jobs()) {
        println!(
            "{name:<12}{acyclic:>10}{pipelined:>11}{:>8.2}x{ii:>5}{stages:>8}",
            acyclic as f64 / pipelined as f64
        );
    }
    println!("\n(cycles; chain_scan is the while-loop whose pipeline depends on");
    println!(" speculative support — paper §2, Tirumalai et al.)");
}

fn print_ablation_pressure(session: &GridSession) {
    println!("== Ablation A9: register pressure of the §3.7 recovery constraints ==\n");
    println!(
        "{:<12}{:>10}{:>12}{:>8}",
        "benchmark", "plain", "w/recovery", "extra"
    );
    for (bench, plain, rec) in ablation_register_pressure(session) {
        println!(
            "{bench:<12}{plain:>10}{rec:>12}{:>8}",
            rec as i64 - plain as i64
        );
    }
    println!("\n(maximum simultaneously live registers in sentinel-scheduled code)");
}

fn print_sweep(session: &GridSession) {
    println!("== Issue-width sweep: sentinel speedup over the base machine ==\n");
    let widths = [1, 2, 4, 8, 16];
    print!("{:<12}", "benchmark");
    for w in widths {
        print!("{:>8}", format!("w={w}"));
    }
    println!();
    for (bench, series) in issue_sweep(session, &widths) {
        print!("{bench:<12}");
        for (_, sp) in series {
            print!("{sp:>8.2}");
        }
        println!();
    }
}

fn print_overhead(session: &GridSession, width: usize) {
    println!("== Ablation A3: sentinel-insertion overhead (issue {width}) ==\n");
    println!(
        "{:<12}{:>10}{:>12}{:>10}",
        "benchmark", "static", "dynamic", "share"
    );
    for (bench, stat, dynamic, share) in sentinel_overhead(session, width) {
        println!("{bench:<12}{stat:>10}{dynamic:>12}{:>9.2}%", share * 100.0);
    }
}

/// Runs the reproduce CLI over `args` (program name already stripped)
/// and returns the process exit status. Unknown subcommands and
/// malformed flags print usage to stderr and return [`USAGE_STATUS`].
pub fn run(args: &[String]) -> i32 {
    if args.iter().any(|a| a == "--version") {
        println!("reproduce {}", env!("CARGO_PKG_VERSION"));
        return 0;
    }
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return 0;
    }
    let cli = match parse(args) {
        Ok(cli) => cli,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!("{USAGE}");
            return USAGE_STATUS;
        }
    };

    let mut session = GridSession::suite(cli.jobs);
    session.set_engine(cli.engine);
    session.set_verify_passes(cli.verify_passes);
    if let Some(dir) = &cli.cache_dir {
        if let Err(e) = session.set_cache_dir(std::path::Path::new(dir)) {
            eprintln!("error: cache dir '{dir}': {e}");
            return 1;
        }
    }
    let t0 = std::time::Instant::now();
    match cli.cmd.as_str() {
        "fig4" => print_fig4(&session, cli.csv),
        "fig5" => print_fig5(&session, cli.csv),
        "summary" => print_summary(&session),
        "ablation-sb" => print_ablation_sb(&session),
        "ablation-recovery" => print_ablation_recovery(&session),
        "ablation-formation" => print_ablation_formation(&session),
        "ablation-boosting" => print_ablation_boosting(&session),
        "ablation-unroll" => print_ablation_unrolling(&session),
        "ablation-cache" => print_ablation_cache(&session),
        "ablation-pipeline" => print_ablation_pipelining(&session),
        "sweep" => print_sweep(&session),
        "ablation-pressure" => print_ablation_pressure(&session),
        "overhead" => print_overhead(&session, cli.width.unwrap_or(2)),
        "all" => {
            print_fig4(&session, false);
            println!();
            print_fig5(&session, false);
            println!();
            print_ablation_sb(&session);
            println!();
            print_ablation_recovery(&session);
            println!();
            print_ablation_formation(&session);
            println!();
            print_ablation_boosting(&session);
            println!();
            print_ablation_unrolling(&session);
            println!();
            print_ablation_cache(&session);
            println!();
            print_ablation_pipelining(&session);
            println!();
            print_ablation_pressure(&session);
            println!();
            print_overhead(&session, 2);
            println!();
            print_overhead(&session, 8);
        }
        other => {
            eprintln!("unknown command '{other}'");
            eprintln!("{USAGE}");
            return USAGE_STATUS;
        }
    }

    // Grid/cache summary on stderr: stdout stays byte-identical across
    // --jobs values and repeated runs.
    let m = session.metrics();
    eprintln!(
        "grid: {} cells evaluated, {} cache hits, jobs={}, wall {:.2?}",
        m.counter(EVAL_COUNTER),
        m.counter(HIT_COUNTER),
        session.jobs(),
        t0.elapsed()
    );
    if session.cache_dir().is_some() {
        use sentinel_trace::store as st;
        eprintln!(
            "store: hit={} miss={} disk_hit={} evict={} corrupt={}",
            m.counter(st::STORE_HIT),
            m.counter(st::STORE_MISS),
            m.counter(st::STORE_DISK_HIT),
            m.counter(st::STORE_EVICT),
            m.counter(st::STORE_CORRUPT)
        );
    }
    let timing = pass_timing_table(&m);
    if !timing.is_empty() {
        eprint!("{timing}");
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn parse_defaults_to_all() {
        let cli = parse(&args(&[])).unwrap();
        assert_eq!(cli.cmd, "all");
        assert!(!cli.csv);
        assert_eq!(cli.jobs, default_jobs());
    }

    #[test]
    fn parse_reads_flags_anywhere() {
        let cli = parse(&args(&["--jobs", "3", "fig4", "--csv"])).unwrap();
        assert_eq!(cli.cmd, "fig4");
        assert!(cli.csv);
        assert_eq!(cli.jobs, 3);
        let cli = parse(&args(&["overhead", "8"])).unwrap();
        assert_eq!((cli.cmd.as_str(), cli.width), ("overhead", Some(8)));
    }

    #[test]
    fn parse_reads_verify_passes() {
        let cli = parse(&args(&["fig4", "--verify-passes"])).unwrap();
        assert!(cli.verify_passes);
        assert!(!parse(&args(&["fig4"])).unwrap().verify_passes);
    }

    #[test]
    fn parse_reads_cache_dir() {
        let cli = parse(&args(&["all", "--cache-dir", "/tmp/grid"])).unwrap();
        assert_eq!(cli.cache_dir.as_deref(), Some("/tmp/grid"));
        assert!(parse(&args(&["all"])).unwrap().cache_dir.is_none());
    }

    #[test]
    fn parse_rejects_bad_input() {
        assert!(parse(&args(&["--jobs"])).is_err());
        assert!(parse(&args(&["--cache-dir"])).is_err());
        assert!(parse(&args(&["--jobs", "0"])).is_err());
        assert!(parse(&args(&["--jobs", "x"])).is_err());
        assert!(parse(&args(&["--frobnicate"])).is_err());
        assert!(parse(&args(&["overhead", "notawidth"])).is_err());
        assert!(parse(&args(&["overhead", "2", "extra"])).is_err());
    }

    #[test]
    fn parse_reads_engine_and_rejects_the_retired_one() {
        assert_eq!(parse(&args(&[])).unwrap().engine, Engine::Turbo);
        let cli = parse(&args(&["--engine", "interpreter"])).unwrap();
        assert_eq!(cli.engine, Engine::Interpreter);
        let err = parse(&args(&["--engine", "fast"])).unwrap_err();
        assert!(err.contains("interpreter|turbo"), "{err}");
    }

    #[test]
    fn help_returns_success() {
        assert_eq!(run(&args(&["--help"])), 0);
        assert_eq!(run(&args(&["fig4", "-h"])), 0);
    }

    #[test]
    fn unknown_command_returns_usage_status() {
        assert_eq!(run(&args(&["no-such-figure"])), USAGE_STATUS);
        assert_eq!(run(&args(&["--bogus-flag"])), USAGE_STATUS);
    }
}
