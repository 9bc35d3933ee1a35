//! `sparse_sweep`: one pass over the paper's sparse evaluations exactly as
//! `run_all` runs them — E9 (18 matrices × 3 OuterSPACE configs), E14
//! (the 7-slot DMA grid over 10 matrices, in parallel), E10 (SpArch merge
//! batches through both mergers) and E15 (the L2 pointer sweep).
//!
//! Instances repeat within a pass (E9 instantiates each matrix once per
//! config, E14 once per slot count), so a memo or a cheaper format
//! conversion shows here; `workloads.instantiate.calls ÷ distinct` is the
//! share of repeated inputs. With the default seed the instance seeds are
//! those of the experiments, so the outputs equal E9/E10/E14/E15's.

use std::collections::HashSet;
use std::time::Instant;

use rayon::prelude::*;
use stellar_accels::outerspace::outerspace_throughput_on;
use stellar_accels::{sparch_merge_batches, OuterSpaceConfig};
use stellar_sim::{
    DmaModel, DramParams, FlattenedMerger, L2Cache, MergeStats, Merger, RowPartitionedMerger,
};
use stellar_tensor::{CscMatrix, CsrMatrix};
use stellar_workloads::{suite, SuiteMatrix};

use super::{put_counts, put_self_ms, ratio, Config, Metrics, Workload, DEFAULT_SEED};
use crate::spans::Recorder;
use crate::stats::Digest;

/// Digest of one pass's outputs (GFLOP/s, elements per cycle, hit rates)
/// with the default seed.
const DEFAULT_DIGEST: u64 = 0x4496_050f_4865_ab5d;

const E14_SLOTS: [usize; 7] = [1, 2, 4, 8, 16, 32, 64];
const E14_MATRICES: usize = 10;
const E15_WORKING_SETS: [u64; 4] = [64 * 1024, 256 * 1024, 512 * 1024, 2 * 1024 * 1024];

/// The values one pass produces, in experiment order.
#[derive(Debug, Default)]
pub struct PassOutput {
    /// E9 GFLOP/s per (matrix, config) and E14 GFLOP/s per grid point.
    gflops: Vec<f64>,
    /// E10 (row-partitioned, flattened) totals per matrix.
    mergers: Vec<(MergeStats, MergeStats)>,
    /// E15 warm hit rate per working set.
    hit_rates: Vec<f64>,
}

impl PassOutput {
    fn digest(&self) -> u64 {
        let mut d = Digest::default();
        for &g in &self.gflops {
            d.f64(g);
        }
        for (rp, fl) in &self.mergers {
            d.f64(rp.elements_per_cycle()).f64(fl.elements_per_cycle());
        }
        for &h in &self.hit_rates {
            d.f64(h);
        }
        d.value()
    }
}

#[derive(Default)]
pub struct SparseSweep {
    seed: u64,
    mats: Vec<SuiteMatrix>,
    configs: Vec<OuterSpaceConfig>,
    /// E15's scattered pointer-table addresses, one table per working set.
    pointer_tables: Vec<Vec<u64>>,
    first_digest: Option<u64>,
}

impl SparseSweep {
    /// The instance seed of matrix `n` in an experiment whose own seeds
    /// start at `base`: the experiment's seed under the default seed.
    fn instance_seed(&self, base: u64, n: usize) -> u64 {
        (base + n as u64).wrapping_add(self.seed.wrapping_mul(1000))
    }

    fn instantiate(
        &self,
        rec: &mut Recorder,
        seen: &mut HashSet<(usize, usize, u64)>,
        n: usize,
        max_dim: usize,
        seed: u64,
    ) -> CsrMatrix {
        let a = rec.time("workloads.instantiate", || {
            self.mats[n].instantiate(max_dim, seed)
        });
        if rec.enabled() {
            count_instance(rec, seen, (n, max_dim, seed), a.nnz());
        }
        a
    }
}

fn count_instance(
    rec: &mut Recorder,
    seen: &mut HashSet<(usize, usize, u64)>,
    key: (usize, usize, u64),
    nnz: usize,
) {
    rec.add("workloads.instantiate.calls", 1.0);
    rec.add("workloads.instantiate.nnz", nnz as f64);
    if seen.insert(key) {
        rec.add("workloads.instantiate.distinct", 1.0);
    }
}

fn probe_csc(rec: &mut Recorder, of: Option<usize>, a: &CsrMatrix) {
    if let Some(nnz) = rec.probe("tensor.csc", of, || CscMatrix::from_csr(a).nnz()) {
        rec.add("tensor.csc.nnz", nnz as f64);
    }
}

/// Spans of one E14 grid point measured on a pool worker, plus (traced
/// only) its instance, which the CSC probe converts afterwards on this
/// thread so that probe time does not overlap the timed grid.
struct PointTiming {
    thread: std::thread::ThreadId,
    instantiate: (Instant, Instant),
    outerspace: (Instant, Instant),
    matrix: Option<CsrMatrix>,
    nnz: usize,
}

impl Workload for SparseSweep {
    type Output = PassOutput;

    fn setup(&mut self, cfg: &Config) -> Result<(), String> {
        self.seed = cfg.seed;
        self.mats = suite();
        self.configs = vec![
            OuterSpaceConfig::stellar_default(),
            OuterSpaceConfig::stellar_fixed(),
            OuterSpaceConfig::handwritten(),
        ];
        self.pointer_tables = E15_WORKING_SETS
            .iter()
            .map(|&num_ptrs| (0..num_ptrs).map(|n| (n * 13) % num_ptrs).collect())
            .collect();
        self.first_digest = None;
        // Start the worker threads the E14 grid runs on.
        let warm: Vec<usize> = (0..rayon::current_num_threads() * 4)
            .into_par_iter()
            .map(|i| i * 2)
            .collect();
        if warm.len() != rayon::current_num_threads() * 4 {
            return Err("pool warm-up lost items".into());
        }
        Ok(())
    }

    fn op(&mut self, _index: u64, rec: &mut Recorder) -> Result<PassOutput, String> {
        let mut out = PassOutput::default();
        let mut seen = HashSet::new();

        // E9: every matrix under the three DMA configurations.
        for n in 0..self.mats.len() {
            for c in 0..self.configs.len() {
                let a = self.instantiate(rec, &mut seen, n, 4096, self.instance_seed(100, n));
                let id = rec.enter("accels.outerspace");
                let r = outerspace_throughput_on(&a, &self.configs[c]);
                rec.exit(id);
                probe_csc(rec, id, &a);
                rec.add("accels.outerspace.points", 1.0);
                out.gflops.push(r.gflops);
            }
        }

        // E14: the outstanding-request grid, swept in parallel.
        let traced = rec.enabled();
        let mats = &self.mats[..E14_MATRICES];
        let seeds: Vec<u64> = (0..E14_MATRICES)
            .map(|n| self.instance_seed(300, n))
            .collect();
        let (grid, pool) = (0..E14_SLOTS.len() * E14_MATRICES)
            .into_par_iter()
            .map(|point| {
                let (s, n) = (point / E14_MATRICES, point % E14_MATRICES);
                let cfg = OuterSpaceConfig {
                    dma: DmaModel::with_slots(E14_SLOTS[s]),
                    ..OuterSpaceConfig::stellar_default()
                };
                let t0 = Instant::now();
                let a = mats[n].instantiate(4096, seeds[n]);
                let t1 = Instant::now();
                let gflops = outerspace_throughput_on(&a, &cfg).gflops;
                let t2 = Instant::now();
                let timing = PointTiming {
                    thread: std::thread::current().id(),
                    instantiate: (t0, t1),
                    outerspace: (t1, t2),
                    nnz: a.nnz(),
                    matrix: traced.then_some(a),
                };
                (gflops, timing)
            })
            .try_collect_vec_profiled()
            .map_err(|p| format!("E14 grid worker panicked: {}", p.message))?;
        for (point, (gflops, t)) in grid.into_iter().enumerate() {
            out.gflops.push(gflops);
            if traced {
                let n = point % E14_MATRICES;
                rec.record(
                    "workloads.instantiate",
                    t.instantiate.0,
                    t.instantiate.1,
                    None,
                    t.thread,
                    false,
                );
                count_instance(rec, &mut seen, (n, 4096, seeds[n]), t.nnz);
                let id = rec.record(
                    "accels.outerspace",
                    t.outerspace.0,
                    t.outerspace.1,
                    None,
                    t.thread,
                    false,
                );
                rec.add("accels.outerspace.points", 1.0);
                if let Some(a) = &t.matrix {
                    probe_csc(rec, id, a);
                }
            }
        }
        rec.add(
            "rayon.sweep.busy_ms",
            pool.workers.iter().map(|w| w.busy_ms).sum(),
        );
        rec.add(
            "rayon.sweep.idle_ms",
            pool.workers.iter().map(|w| w.idle_ms()).sum(),
        );

        // E10: SpArch-order merge batches through both mergers.
        let rp = RowPartitionedMerger::paper_config();
        let fl = FlattenedMerger::paper_config();
        for n in 0..self.mats.len() {
            let a = self.instantiate(rec, &mut seen, n, 2048, self.instance_seed(200, n));
            let id = rec.enter("accels.merge_batches");
            let batches = sparch_merge_batches(&a, 16);
            rec.exit(id);
            probe_csc(rec, id, &a);
            let partials: usize = batches.iter().flatten().map(Vec::len).sum();
            rec.add("accels.merge_batches.partials", partials as f64);
            let mut totals = [MergeStats::default(), MergeStats::default()];
            for (total, merger) in totals.iter_mut().zip([&rp as &dyn Merger, &fl]) {
                let id = rec.enter("sim.merger");
                for batch in &batches {
                    let s = merger
                        .simulate(batch)
                        .map_err(|e| format!("merger on {}: {e}", self.mats[n].name))?;
                    total.cycles += s.cycles;
                    total.merged_elements += s.merged_elements;
                }
                rec.exit(id);
                rec.add("sim.merger.cycles", total.cycles as f64);
                rec.add("sim.merger.elements", total.merged_elements as f64);
            }
            let [rp_total, fl_total] = totals;
            out.mergers.push((rp_total, fl_total));
        }

        // E15: a scattered pointer table read twice through the shared L2.
        for addrs in &self.pointer_tables {
            let id = rec.enter("sim.cache");
            let mut cache = L2Cache::new(512 * 1024, 8, 8, DramParams::default());
            cache.access_all(addrs.iter().copied());
            let cold_hits = cache.hits();
            cache.reset_stats();
            cache.access_all(addrs.iter().copied());
            rec.exit(id);
            rec.add("sim.cache.accesses", 2.0 * addrs.len() as f64);
            rec.add("sim.cache.hits", (cold_hits + cache.hits()) as f64);
            out.hit_rates.push(cache.hit_rate());
        }
        Ok(out)
    }

    fn check(&mut self, _index: u64, mut out: PassOutput, inject: bool) -> Vec<String> {
        if inject {
            out.mergers[0].1.merged_elements += 1;
        }
        let mut misses = Vec::new();
        if let Some(g) = out.gflops.iter().find(|g| !(g.is_finite() && **g > 0.0)) {
            misses.push(format!("non-positive GFLOP/s {g}"));
        }
        for (n, (rp, fl)) in out.mergers.iter().enumerate() {
            if rp.merged_elements != fl.merged_elements || rp.cycles == 0 || fl.cycles == 0 {
                misses.push(format!(
                    "{}: mergers disagree on merged elements ({} vs {})",
                    self.mats[n].name, rp.merged_elements, fl.merged_elements
                ));
            }
        }
        if let Some(h) = out.hit_rates.iter().find(|h| !(0.0..=1.0).contains(*h)) {
            misses.push(format!("hit rate {h} outside [0, 1]"));
        }
        let digest = out.digest();
        if self.seed == DEFAULT_SEED && digest != DEFAULT_DIGEST {
            misses.push(format!(
                "pass digest {digest:#018x} != recorded {DEFAULT_DIGEST:#018x}"
            ));
        }
        match self.first_digest {
            Some(first) if first != digest => misses.push(format!(
                "pass digest {digest:#018x} differs from the first pass's {first:#018x}"
            )),
            Some(_) => {}
            // The first correct pass is the reference for the later ones.
            None if misses.is_empty() => self.first_digest = Some(digest),
            None => {}
        }
        misses
    }

    fn finish(&mut self, _ops: u64) -> Vec<String> {
        Vec::new()
    }

    fn reset(&mut self) {
        self.first_digest = None;
    }

    fn layers(&self, rec: &Recorder, ops: u64, out: &mut Metrics) {
        for (metric, layer) in [
            ("workloads.instantiate.ms", "workloads.instantiate"),
            ("tensor.csc.ms", "tensor.csc"),
            ("accels.outerspace.ms", "accels.outerspace"),
            ("accels.merge_batches.ms", "accels.merge_batches"),
            ("sim.merger.ms", "sim.merger"),
            ("sim.cache.ms", "sim.cache"),
        ] {
            put_self_ms(out, rec, ops, metric, layer);
        }
        put_counts(
            out,
            rec,
            ops,
            &[
                "workloads.instantiate.calls",
                "workloads.instantiate.distinct",
                "workloads.instantiate.nnz",
                "tensor.csc.nnz",
                "accels.outerspace.points",
                "accels.merge_batches.partials",
                "sim.merger.cycles",
                "sim.merger.elements",
                "sim.cache.accesses",
                "rayon.sweep.busy_ms",
                "rayon.sweep.idle_ms",
            ],
        );
        out.insert(
            "sim.merger.cycles_per_s",
            ratio(
                rec.counter("sim.merger.cycles"),
                rec.self_ms("sim.merger") / 1e3,
            ),
        );
        out.insert(
            "sim.cache.hit_rate",
            ratio(
                rec.counter("sim.cache.hits"),
                rec.counter("sim.cache.accesses"),
            ),
        );
    }
}
