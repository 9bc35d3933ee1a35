//! `paper_suite`: `run_all -j 1` into a private out dir — exactly what a
//! reader runs to reproduce the paper. It is the only workload that
//! exercises the `bench` layer: the harness, durable envelopes, reports,
//! the design cache and the per-experiment process spawn. It takes no
//! seed, because the suite is fixed.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use stellar_bench::durable::read_envelope;
use stellar_bench::harness::{EXPERIMENTS, SUMMARY_FILE};

use super::{put_counts, Config, Metrics, Workload};
use crate::json::{self, Value};
use crate::metrics::PER_LAYER;
use crate::spans::Recorder;
use crate::stats::Digest;
use crate::sys;

/// Digest of each experiment's report payload with its wall-clock fields
/// and `explore_workers` (the machine's core count) removed, in suite order.
const DEFAULT_DIGESTS: [u64; 21] = [
    0xab3d_eecf_c4c0_70ff,
    0xf382_dd5e_c8fb_15c9,
    0x5c72_c18a_2e9c_fe20,
    0x0684_104e_553b_d9c9,
    0x4a14_2454_1df5_335d,
    0xa824_c29f_d1c0_58ea,
    0xe2e0_abaf_813c_2c74,
    0xf69b_502a_1657_16a4,
    0x8c2e_1ba4_5752_50ef,
    0x1ee2_8d17_7efb_48f1,
    0xf04a_0a30_8a75_8292,
    0x056d_3ff8_6e69_ff12,
    0x34e5_ffa4_62ac_915a,
    0xd7a7_df32_0309_01bb,
    0xcaf8_e568_dd0d_3225,
    0x6c02_8c75_14e9_51d4,
    0x654e_5456_0596_d9da,
    0x1ea9_ac0c_9b5f_fe83,
    0x7fe4_9087_9d00_3c9d,
    0x29b2_4254_0472_31e5,
    0x0f52_e03e_a798_92d8,
];

/// Environment variables of the harness that would change what the suite
/// does; the benchmark runs it with none of them set.
const HARNESS_ENV: [&str; 5] = [
    "STELLAR_OUT_DIR",
    "STELLAR_TRACE",
    "STELLAR_RUN_NONCE",
    "STELLAR_FIXED_WALL_MS",
    "STELLAR_CACHE_DIR",
];

/// One suite run's reports.
pub struct SuiteOutput {
    /// `(id, digest)` per experiment report, in suite order.
    reports: Vec<(&'static str, u64)>,
    launched: usize,
}

#[derive(Default)]
pub struct PaperSuite {
    run_all: PathBuf,
    out_dir: PathBuf,
}

fn experiment_id(name: &'static str) -> &'static str {
    name.split('_').next().unwrap_or(name)
}

/// The per-layer metric holding experiment `id`'s wall time.
fn wall_metric(id: &str) -> Option<&'static str> {
    PER_LAYER.iter().map(|&(name, _)| name).find(|name| {
        name.strip_prefix("bench.exp.")
            .and_then(|n| n.strip_suffix(".ms"))
            == Some(id)
    })
}

/// Removes the fields that vary between identical runs: the wall clock,
/// the run nonce, and the worker count (a property of the machine).
fn strip_volatile(payload: Value) -> Value {
    match payload {
        Value::Obj(members) => Value::Obj(
            members
                .into_iter()
                .filter(|(k, _)| k != "wall_ms" && k != "nonce")
                .map(|(k, v)| (k, strip_volatile(v)))
                .collect(),
        ),
        Value::Arr(items) => Value::Arr(
            items
                .into_iter()
                .filter(|m| {
                    let name = m.get("name").and_then(Value::as_str).unwrap_or("");
                    !(name.ends_with("wall_ms") || name == "explore_workers")
                })
                .map(strip_volatile)
                .collect(),
        ),
        v => v,
    }
}

fn read_payload(path: &Path) -> Result<Value, String> {
    let payload = read_envelope(path).map_err(|e| e.to_string())?;
    json::parse(&payload).map_err(|e| format!("{}: {e}", path.display()))
}

impl PaperSuite {
    fn command(&self) -> Command {
        let mut cmd = Command::new(&self.run_all);
        for var in HARNESS_ENV {
            cmd.env_remove(var);
        }
        cmd.env("STELLAR_OUT_DIR", &self.out_dir)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null());
        cmd
    }

    fn run(&self, args: &[&str]) -> Result<(), String> {
        let status = self
            .command()
            .args(args)
            .status()
            .map_err(|e| format!("spawning {}: {e}", self.run_all.display()))?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("run_all {} exited with {status}", args.join(" ")))
        }
    }
}

impl Workload for PaperSuite {
    type Output = SuiteOutput;

    fn setup(&mut self, cfg: &Config) -> Result<(), String> {
        self.run_all = cfg.exe_dir.join("run_all");
        for name in EXPERIMENTS.iter().copied().chain(["run_all"]) {
            let exe = cfg.exe_dir.join(name);
            if !exe.is_file() {
                return Err(format!("missing suite binary {}", exe.display()));
            }
        }
        self.out_dir = cfg.out_dir.join("paper_suite");
        if self.out_dir.exists() {
            std::fs::remove_dir_all(&self.out_dir)
                .map_err(|e| format!("clearing {}: {e}", self.out_dir.display()))?;
        }
        std::fs::create_dir_all(&self.out_dir)
            .map_err(|e| format!("creating {}: {e}", self.out_dir.display()))?;
        // Warm the harness and the spawn path on the smallest experiment.
        self.run(&["-j", "1", "--only", "e01"])
    }

    fn op(&mut self, _index: u64, rec: &mut Recorder) -> Result<SuiteOutput, String> {
        let start = std::time::Instant::now();
        rec.time("bench.suite", || self.run(&["-j", "1"]))?;
        let mut overhead_ms = start.elapsed().as_secs_f64() * 1e3;
        let mut reports = Vec::with_capacity(EXPERIMENTS.len());
        for name in EXPERIMENTS {
            let id = experiment_id(name);
            let payload = read_payload(&self.out_dir.join(format!("{id}.json")))?;
            let wall_ms = payload
                .get("wall_ms")
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("{id}: no wall_ms"))?;
            overhead_ms -= wall_ms;
            if let Some(metric) = wall_metric(id) {
                rec.add(metric, wall_ms);
            }
            let mut d = Digest::default();
            d.str(&strip_volatile(payload).render());
            reports.push((id, d.value()));
        }
        let summary = read_payload(&self.out_dir.join(SUMMARY_FILE))?;
        match summary.get("quarantined") {
            Some(Value::Arr(q)) if q.is_empty() => {}
            q => {
                return Err(format!(
                    "quarantined experiments: {}",
                    q.map_or("?".into(), Value::render)
                ))
            }
        }
        let launched = summary
            .get("launched")
            .and_then(Value::as_f64)
            .unwrap_or(0.0) as usize;
        rec.add("bench.overhead_ms", overhead_ms);
        rec.add("bench.children", launched as f64);
        Ok(SuiteOutput { reports, launched })
    }

    fn check(&mut self, _index: u64, mut out: SuiteOutput, inject: bool) -> Vec<String> {
        if inject {
            out.reports[0].1 ^= 1;
        }
        let mut misses = Vec::new();
        for ((id, digest), want) in out.reports.iter().zip(DEFAULT_DIGESTS) {
            if *digest != want {
                misses.push(format!(
                    "{id}: report digest {digest:#018x} != recorded {want:#018x}"
                ));
            }
        }
        if out.launched != EXPERIMENTS.len() {
            misses.push(format!(
                "{} experiments launched, expected {}",
                out.launched,
                EXPERIMENTS.len()
            ));
        }
        misses
    }

    fn finish(&mut self, _ops: u64) -> Vec<String> {
        Vec::new()
    }

    fn reset(&mut self) {}

    fn peak_rss_mb(&self) -> f64 {
        sys::children_peak_rss_mb()
    }

    fn layers(&self, rec: &Recorder, ops: u64, out: &mut Metrics) {
        let names: Vec<&'static str> = EXPERIMENTS
            .iter()
            .filter_map(|n| wall_metric(experiment_id(n)))
            .collect();
        put_counts(out, rec, ops, &names);
        put_counts(out, rec, ops, &["bench.overhead_ms", "bench.children"]);
    }
}
