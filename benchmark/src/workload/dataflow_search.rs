//! `dataflow_search`: one designer searching dataflows. Each round runs
//! the 40.35M-candidate `max_coeff = 3` query over `matmul(3,3,3)`, then
//! a `max_coeff = 2` query over every shipped spec's functionality at
//! seeded extents, all at the default parallelism (every core).
//!
//! Nearly all the work is in `core::explore`, `fold`, `analytic` and the
//! `rayon` deques, which the other workloads barely touch.

use std::time::Instant;

use stellar_core::prelude::*;
use stellar_core::{
    explore_dataflows_profiled, ExploreOptions, ExploreRun, ExploredDataflow, IndexId,
};

use super::{put_counts, put_self_ms, ratio, Config, Metrics, Workload, DEFAULT_SEED};
use crate::spans::Recorder;
use crate::stats::{Digest, SplitMix};

/// Digest of one round's rankings and funnels with the default seed.
const DEFAULT_DIGEST: u64 = 0x3b42_720e_ad63_c09e;

/// One search query.
#[derive(Debug)]
struct Query {
    label: String,
    func: Functionality,
    bounds: Bounds,
    max_coeff: i64,
}

/// The queries of the shipped specs. Gemmini, the largest, keeps its own
/// 16×16×16 box and so sets the search's memory; each other spec's box is
/// reshaped by the seed — one extent halved and another doubled, or left
/// as is — so the geometry changes with the seed while the point count
/// stays the spec's own.
fn shipped_queries(seed: u64) -> Vec<Query> {
    let mut rng = SplitMix::new(seed, 0x5345_4152_4348);
    let specs = [
        stellar_accels::gemmini_spec(),
        stellar_accels::scnn_pe_spec(4, 4),
        stellar_accels::outerspace_multiply_spec(8),
        stellar_accels::row_merger_spec(8, 8),
        stellar_accels::a100_sparse_spec(8),
    ];
    specs
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let bounds = spec.bounds();
            let rank = bounds.rank();
            let mut extents: Vec<usize> = (0..rank)
                .map(|d| bounds.extent(IndexId::nth(d)) as usize)
                .collect();
            let (from, to) = (rng.range(0, rank - 1), rng.range(0, rank - 1));
            if i > 0 && from != to && extents[from].is_multiple_of(2) {
                extents[from] /= 2;
                extents[to] *= 2;
            }
            Query {
                label: format!("{}{:?}", spec.name(), extents),
                func: spec.functionality().clone(),
                bounds: Bounds::from_extents(&extents),
                max_coeff: 2,
            }
        })
        .collect()
}

fn options(max_coeff: i64, parallelism: usize) -> ExploreOptions {
    ExploreOptions {
        max_coeff,
        parallelism,
        ..ExploreOptions::default()
    }
}

fn ranking_digest(d: &mut Digest, results: &[ExploredDataflow]) {
    for e in results {
        let m = e.transform.matrix();
        for r in 0..m.rows() {
            for &v in m.row(r) {
                d.u64(v as u64);
            }
        }
        d.u64(e.num_pes as u64)
            .u64(e.moving_conns as u64)
            .u64(e.stationary_conns as u64)
            .u64(e.io_ports as u64)
            .u64(e.time_steps as u64);
    }
}

fn round_digest(runs: &[ExploreRun]) -> u64 {
    let mut d = Digest::default();
    for run in runs {
        ranking_digest(&mut d, &run.results);
        let f = &run.funnel;
        for v in [
            f.decoded,
            f.causality_rejected,
            f.singular,
            f.pack_fallback,
            f.collision_rejected,
            f.scored,
            f.over_max_pes,
            f.dedup_collisions,
            f.survivors,
        ] {
            d.u64(v);
        }
    }
    d.value()
}

#[derive(Default)]
pub struct DataflowSearch {
    seed: u64,
    queries: Vec<Query>,
    /// The mc2 rankings of the first round, for the serial comparison.
    mc2_rankings: Vec<Vec<ExploredDataflow>>,
    first_digest: Option<u64>,
}

impl Workload for DataflowSearch {
    type Output = Vec<ExploreRun>;

    fn setup(&mut self, cfg: &Config) -> Result<(), String> {
        self.seed = cfg.seed;
        self.queries = vec![Query {
            label: "matmul[3, 3, 3] mc3".into(),
            func: Functionality::matmul(3, 3, 3),
            bounds: Bounds::from_extents(&[3, 3, 3]),
            max_coeff: 3,
        }];
        self.queries.extend(shipped_queries(cfg.seed));
        self.mc2_rankings.clear();
        self.first_digest = None;
        // Warm the pool and the scorers: every query at max_coeff = 1.
        for q in &self.queries {
            explore_dataflows_profiled(&q.func, &q.bounds, &options(1, 0))
                .map_err(|e| format!("warm-up {}: {e}", q.label))?;
        }
        Ok(())
    }

    fn op(&mut self, _index: u64, rec: &mut Recorder) -> Result<Vec<ExploreRun>, String> {
        let mut runs = Vec::with_capacity(self.queries.len());
        for (i, q) in self.queries.iter().enumerate() {
            let start = Instant::now();
            let run = rec
                .time("core.explore", || {
                    explore_dataflows_profiled(&q.func, &q.bounds, &options(q.max_coeff, 0))
                })
                .map_err(|e| format!("{}: {e}", q.label))?;
            if rec.enabled() {
                record_query(rec, &run, start.elapsed().as_secs_f64(), i == 0);
            }
            runs.push(run);
        }
        Ok(runs)
    }

    fn check(&mut self, _index: u64, mut runs: Vec<ExploreRun>, inject: bool) -> Vec<String> {
        if inject {
            runs[0].funnel.decoded += 1;
        }
        let mut misses = Vec::new();
        for (q, run) in self.queries.iter().zip(&runs) {
            if let Err(e) = run.funnel.check() {
                misses.push(format!("{}: funnel invariant: {e}", q.label));
            }
            let space = (2 * q.max_coeff as u64 + 1).pow((q.func.rank() * q.func.rank()) as u32);
            if run.funnel.decoded != space {
                misses.push(format!(
                    "{}: decoded {} of {space} candidates",
                    q.label, run.funnel.decoded
                ));
            }
        }
        let digest = round_digest(&runs);
        if self.seed == DEFAULT_SEED && digest != DEFAULT_DIGEST {
            misses.push(format!(
                "round digest {digest:#018x} != recorded {DEFAULT_DIGEST:#018x}"
            ));
        }
        match self.first_digest {
            Some(first) if first != digest => misses.push(format!(
                "round digest {digest:#018x} differs from the first round's {first:#018x}"
            )),
            Some(_) => {}
            // The first correct round is the reference for the later ones.
            None if misses.is_empty() => {
                self.first_digest = Some(digest);
                self.mc2_rankings = runs.into_iter().skip(1).map(|r| r.results).collect();
            }
            None => {}
        }
        misses
    }

    fn finish(&mut self, _ops: u64) -> Vec<String> {
        // The mc2 rankings must be byte-identical on one thread.
        let mut misses = Vec::new();
        for (q, parallel) in self.queries.iter().skip(1).zip(&self.mc2_rankings) {
            match explore_dataflows_profiled(&q.func, &q.bounds, &options(q.max_coeff, 1)) {
                Ok(serial) if &serial.results == parallel => {}
                Ok(_) => misses.push(format!(
                    "{}: serial ranking differs from the parallel one",
                    q.label
                )),
                Err(e) => misses.push(format!("{}: serial search: {e}", q.label)),
            }
        }
        misses
    }

    fn reset(&mut self) {
        self.mc2_rankings.clear();
        self.first_digest = None;
    }

    fn layers(&self, rec: &Recorder, ops: u64, out: &mut Metrics) {
        put_self_ms(out, rec, ops, "core.explore.ms", "core.explore");
        put_counts(
            out,
            rec,
            ops,
            &[
                "core.explore.decoded",
                "core.explore.causality_rejected",
                "core.explore.scored",
                "core.explore.analytic_scored",
                "core.explore.pack_fallback",
                "core.explore.survivors",
                "rayon.search.workers",
                "rayon.search.busy_max_ms",
                "rayon.search.busy_min_ms",
                "rayon.search.idle_ms",
                "rayon.search.chunks",
                "rayon.search.steals",
            ],
        );
        out.insert(
            "core.explore.cands_per_s",
            ratio(
                rec.counter("core.explore.decoded"),
                rec.counter("core.explore.seconds"),
            ),
        );
        out.insert(
            "rayon.search.balance",
            ratio(
                rec.counter("rayon.search.busy_min_ms"),
                rec.counter("rayon.search.busy_max_ms"),
            ),
        );
    }
}

/// Adds one query's funnel to the counters, and for the mc3 query
/// (`pool`) its worker telemetry: the busiest and least busy worker.
fn record_query(rec: &mut Recorder, run: &ExploreRun, secs: f64, pool: bool) {
    let f = &run.funnel;
    rec.add("core.explore.seconds", secs);
    rec.add("core.explore.decoded", f.decoded as f64);
    rec.add(
        "core.explore.causality_rejected",
        f.causality_rejected as f64,
    );
    rec.add("core.explore.scored", f.scored as f64);
    rec.add("core.explore.analytic_scored", f.analytic_scored as f64);
    rec.add("core.explore.pack_fallback", f.pack_fallback as f64);
    rec.add("core.explore.survivors", f.survivors as f64);
    if !pool {
        return;
    }
    let stats = &run.workers;
    let busy: Vec<f64> = stats.workers.iter().map(|w| w.busy_ms).collect();
    rec.add("rayon.search.workers", busy.len() as f64);
    rec.add(
        "rayon.search.busy_max_ms",
        busy.iter().copied().fold(0.0, f64::max),
    );
    rec.add(
        "rayon.search.busy_min_ms",
        busy.iter().copied().reduce(f64::min).unwrap_or(0.0),
    );
    rec.add(
        "rayon.search.idle_ms",
        stats.workers.iter().map(|w| w.idle_ms()).sum(),
    );
    rec.add("rayon.search.chunks", stats.total_chunks() as f64);
    rec.add("rayon.search.steals", stats.total_steals() as f64);
}
