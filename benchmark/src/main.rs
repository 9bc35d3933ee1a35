//! Command-line entry point: `stellar-benchmark --workload NAME --seed N
//! --seconds S --trace 0|1 --exe-dir DIR --out-dir DIR`. The last line of
//! standard output is the result object.

use std::path::PathBuf;
use std::process::ExitCode;

use stellar_benchmark::sys::context_json;
use stellar_benchmark::workload::{
    dataflow_search::DataflowSearch, design_flow::DesignFlow, paper_suite::PaperSuite, run,
    sparse_sweep::SparseSweep, Config, RunResult, DEFAULT_SEED,
};

const USAGE: &str =
    "usage: stellar-benchmark --workload paper_suite|design_flow|sparse_sweep|dataflow_search \
[--seed N] [--seconds S] [--trace 0|1] --exe-dir DIR --out-dir DIR [--inject-mismatch]";

struct Cli {
    workload: String,
    cfg: Config,
}

fn parse_args(args: &[String]) -> Result<Cli, String> {
    let mut workload = None;
    let mut cfg = Config {
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        exe_dir: PathBuf::new(),
        out_dir: PathBuf::new(),
        inject_mismatch: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--inject-mismatch" {
            cfg.inject_mismatch = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => cfg.seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                cfg.seconds = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?;
                if !(cfg.seconds > 0.0 && cfg.seconds <= 3600.0) {
                    return Err(format!("--seconds {value} outside (0, 3600]"));
                }
            }
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}")),
                }
            }
            "--exe-dir" => cfg.exe_dir = PathBuf::from(value),
            "--out-dir" => cfg.out_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if cfg.out_dir.as_os_str().is_empty() || cfg.exe_dir.as_os_str().is_empty() {
        return Err("--exe-dir and --out-dir are required".into());
    }
    Ok(Cli { workload, cfg })
}

fn execute(cli: &Cli) -> Result<RunResult, String> {
    let cfg = &cli.cfg;
    std::fs::create_dir_all(&cfg.out_dir)
        .map_err(|e| format!("creating {}: {e}", cfg.out_dir.display()))?;
    let trace_file = cfg
        .out_dir
        .join(format!("trace-{}-{}.json", cli.workload, cfg.seed));
    let context = context_json(&cli.workload, cfg.seed, cfg.trace);
    println!("# context {context}");
    let trace = cfg
        .trace
        .then_some((trace_file.as_path(), context.as_str()));
    let result = match cli.workload.as_str() {
        "paper_suite" => run(&mut PaperSuite::default(), cfg, trace),
        "design_flow" => run(&mut DesignFlow::default(), cfg, trace),
        "sparse_sweep" => run(&mut SparseSweep::default(), cfg, trace),
        "dataflow_search" => run(&mut DataflowSearch::default(), cfg, trace),
        other => Err(format!("unknown workload {other}")),
    }?;
    if cfg.trace {
        eprintln!("trace written to {}", trace_file.display());
    }
    Ok(result)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_args(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match execute(&cli) {
        Ok(result) => {
            for f in &result.failures {
                eprintln!("check failed: {f}");
            }
            println!("{}", result.render());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            ExitCode::FAILURE
        }
    }
}
