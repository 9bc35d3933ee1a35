//! The closed-loop runner shared by the four workloads.
//!
//! Each workload is a single client that sends its next operation only
//! after the previous one completed. Output checks run between
//! operations, outside the timed interval; a failed operation or a failed
//! check counts once against `failed`.

pub mod dataflow_search;
pub mod design_flow;
pub mod paper_suite;
pub mod sparse_sweep;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::metrics::{END_TO_END, PER_LAYER};
use crate::spans::Recorder;
use crate::stats::median;
use crate::sys;

/// The seed whose output digests are recorded in the sources.
pub const DEFAULT_SEED: u64 = 0;

/// Set-up runs this many times per run; `setup_s` is the median.
const SETUP_REPS: usize = 5;

/// What one benchmark run was asked to do.
#[derive(Clone, Debug)]
pub struct Config {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Directory holding the suite's binaries (`run_all`, `e01_*`, …).
    pub exe_dir: PathBuf,
    /// Directory for the benchmark's own files (suite outputs, traces).
    pub out_dir: PathBuf,
    /// Corrupt the first operation's output before it is checked, so the
    /// check must fail (exercises the error accounting).
    pub inject_mismatch: bool,
}

/// One closed-loop workload.
pub trait Workload {
    /// What an operation returns for checking.
    type Output;

    /// Builds inputs and warms pools. Runs [`SETUP_REPS`] times; each
    /// call replaces the previous state.
    fn setup(&mut self, cfg: &Config) -> Result<(), String>;

    /// Runs operation `index`, recording layer spans into `rec`.
    fn op(&mut self, index: u64, rec: &mut Recorder) -> Result<Self::Output, String>;

    /// Checks one operation's output, untimed; returns the failed checks.
    fn check(&mut self, index: u64, out: Self::Output, inject: bool) -> Vec<String>;

    /// Checks made once over a phase of `ops` operations (digests over a
    /// prefix, serial-versus-parallel equality); returns the failures.
    fn finish(&mut self, ops: u64) -> Vec<String>;

    /// Clears per-phase state before the traced phase repeats the
    /// operation sequence from index 0.
    fn reset(&mut self);

    /// Peak memory of the run in MiB.
    fn peak_rss_mb(&self) -> f64 {
        sys::peak_rss_mb()
    }

    /// Per-layer metrics from a traced phase of `ops` operations.
    fn layers(&self, rec: &Recorder, ops: u64, out: &mut Metrics);
}

/// Metric values by name.
pub type Metrics = BTreeMap<&'static str, f64>;

/// Stores the self time per operation of every span named `layer`.
pub fn put_self_ms(out: &mut Metrics, rec: &Recorder, ops: u64, metric: &'static str, layer: &str) {
    out.insert(metric, rec.self_ms(layer) / ops.max(1) as f64);
}

/// Stores counter `name` per operation under the same name.
pub fn put_counts(out: &mut Metrics, rec: &Recorder, ops: u64, names: &[&'static str]) {
    for &n in names {
        out.insert(n, rec.counter(n) / ops.max(1) as f64);
    }
}

/// `num / den`, or 0 when there is nothing to divide.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The result of a run, printed as the last line of standard output.
#[derive(Debug)]
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    pub failures: Vec<String>,
}

impl RunResult {
    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.failed == 0,
            self.attempted,
            self.failed
        );
        for (i, (name, unit, value)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
            ));
        }
        out.push_str("}}");
        out
    }
}

struct Phase {
    latencies_ms: Vec<f64>,
    failed: u64,
    failures: Vec<String>,
}

impl Phase {
    fn attempted(&self) -> u64 {
        self.latencies_ms.len() as u64
    }
}

fn run_phase<W: Workload>(w: &mut W, seconds: f64, rec: &mut Recorder, inject: bool) -> Phase {
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut phase = Phase {
        latencies_ms: Vec::new(),
        failed: 0,
        failures: Vec::new(),
    };
    let mut index = 0u64;
    while index == 0 || start.elapsed() < budget {
        rec.start_op(index);
        let t = Instant::now();
        let span = rec.enter("op");
        let out = w.op(index, rec);
        rec.exit(span);
        let wall = t.elapsed().as_secs_f64() - rec.probe_ns() as f64 / 1e9;
        phase.latencies_ms.push(wall * 1e3);
        let misses = match out {
            Ok(out) => w.check(index, out, inject && index == 0),
            Err(e) => vec![e],
        };
        if !misses.is_empty() {
            phase.failed += 1;
            phase
                .failures
                .extend(misses.into_iter().map(|m| format!("op {index}: {m}")));
        }
        index += 1;
    }
    let misses = w.finish(index);
    phase.failed = (phase.failed + misses.len() as u64).min(phase.attempted());
    phase.failures.extend(misses);
    phase
}

/// Sets `w` up, runs it closed-loop for `cfg.seconds` and returns the
/// result. Untraced runs report the end-to-end metrics. Traced runs
/// spend half the time untraced and half traced, from operation 0 each
/// time, and report the per-layer metrics plus the tracing overhead;
/// they also write the spans as Chrome trace JSON to `trace_path`.
pub fn run<W: Workload>(
    w: &mut W,
    cfg: &Config,
    trace_path: Option<(&std::path::Path, &str)>,
) -> Result<RunResult, String> {
    let mut setup = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        w.setup(cfg)?;
        setup.push(t.elapsed().as_secs_f64());
    }
    let mut values = Metrics::new();
    let (phase, table) = if cfg.trace {
        let mut plain = run_phase(
            w,
            cfg.seconds / 2.0,
            &mut Recorder::new(false),
            cfg.inject_mismatch,
        );
        w.reset();
        let mut rec = Recorder::new(true);
        let traced = run_phase(w, cfg.seconds / 2.0, &mut rec, cfg.inject_mismatch);
        w.layers(&rec, traced.attempted(), &mut values);
        values.insert(
            "trace.overhead_ms",
            median(&traced.latencies_ms) - median(&plain.latencies_ms),
        );
        if let Some((path, context)) = trace_path {
            std::fs::write(path, rec.chrome_trace(context))
                .map_err(|e| format!("writing {}: {e}", path.display()))?;
        }
        plain.latencies_ms.extend(traced.latencies_ms);
        plain.failed += traced.failed;
        plain.failures.extend(traced.failures);
        (plain, PER_LAYER)
    } else {
        let phase = run_phase(
            w,
            cfg.seconds,
            &mut Recorder::new(false),
            cfg.inject_mismatch,
        );
        values.insert("setup_s", median(&setup));
        values.insert("op_p50_ms", median(&phase.latencies_ms));
        values.insert("peak_rss_mb", w.peak_rss_mb());
        (phase, END_TO_END)
    };
    let mut result = RunResult {
        attempted: phase.attempted(),
        failed: phase.failed,
        metrics: Vec::with_capacity(table.len()),
        failures: phase.failures,
    };
    for &(name, unit) in table {
        let v = values.get(name).copied().unwrap_or(0.0);
        if v.is_finite() {
            result.metrics.push((name, unit, v));
        } else {
            result.failures.push(format!("metric {name} is not finite"));
            result.failed = result.failed.max(1);
            result.metrics.push((name, unit, 0.0));
        }
    }
    Ok(result)
}
