//! The benchmark's metric names and units. `BENCHMARK.json` lists exactly
//! these; a test keeps the two in step.

/// End-to-end metrics, emitted by every untraced run. An *operation* is
/// one closed-loop unit of the workload: a serial `run_all`
/// (`paper_suite`), one spec-to-simulation flow (`design_flow`), one pass
/// over the sparse evaluations (`sparse_sweep`) or one search round
/// (`dataflow_search`).
pub const END_TO_END: &[(&str, &str)] =
    &[("setup_s", "s"), ("op_p50_ms", "ms"), ("peak_rss_mb", "MB")];

/// Per-layer metrics, emitted by every traced run. Times and counts are
/// means per operation of the traced phase; a layer a workload does not
/// exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workloads.instantiate.ms", "ms"),
    ("workloads.instantiate.calls", "count"),
    ("workloads.instantiate.distinct", "count"),
    ("workloads.instantiate.nnz", "count"),
    ("tensor.csc.ms", "ms"),
    ("tensor.csc.nnz", "count"),
    ("accels.outerspace.ms", "ms"),
    ("accels.outerspace.points", "count"),
    ("accels.merge_batches.ms", "ms"),
    ("accels.merge_batches.partials", "count"),
    ("sim.merger.ms", "ms"),
    ("sim.merger.cycles", "count"),
    ("sim.merger.elements", "count"),
    ("sim.merger.cycles_per_s", "1/s"),
    ("sim.cache.ms", "ms"),
    ("sim.cache.accesses", "count"),
    ("sim.cache.hit_rate", "ratio"),
    ("core.elaborate.ms", "ms"),
    ("core.elaborate.points", "count"),
    ("core.prune.ms", "ms"),
    ("core.prune.conns_removed", "count"),
    ("core.spacetime.ms", "ms"),
    ("core.spacetime.pes", "count"),
    ("core.compile.ms", "ms"),
    ("rtl.emit.ms", "ms"),
    ("rtl.emit.modules", "count"),
    ("rtl.verilog.ms", "ms"),
    ("rtl.verilog.bytes", "count"),
    ("rtl.lint.ms", "ms"),
    ("rtl.lint.errors", "count"),
    ("area.ms", "ms"),
    ("isa.host.ms", "ms"),
    ("isa.host.cycles", "count"),
    ("sim.systolic.ms", "ms"),
    ("sim.systolic.cycles", "count"),
    ("sim.sparse.ms", "ms"),
    ("sim.sparse.cycles", "count"),
    ("sim.engine.events", "count"),
    ("core.explore.ms", "ms"),
    ("core.explore.decoded", "count"),
    ("core.explore.causality_rejected", "count"),
    ("core.explore.scored", "count"),
    ("core.explore.analytic_scored", "count"),
    ("core.explore.pack_fallback", "count"),
    ("core.explore.survivors", "count"),
    ("core.explore.cands_per_s", "1/s"),
    ("rayon.search.workers", "count"),
    ("rayon.search.busy_max_ms", "ms"),
    ("rayon.search.busy_min_ms", "ms"),
    ("rayon.search.balance", "ratio"),
    ("rayon.search.idle_ms", "ms"),
    ("rayon.search.chunks", "count"),
    ("rayon.search.steals", "count"),
    ("rayon.sweep.busy_ms", "ms"),
    ("rayon.sweep.idle_ms", "ms"),
    ("bench.exp.e01.ms", "ms"),
    ("bench.exp.e02.ms", "ms"),
    ("bench.exp.e03.ms", "ms"),
    ("bench.exp.e04.ms", "ms"),
    ("bench.exp.e05.ms", "ms"),
    ("bench.exp.e06.ms", "ms"),
    ("bench.exp.e07.ms", "ms"),
    ("bench.exp.e08.ms", "ms"),
    ("bench.exp.e09.ms", "ms"),
    ("bench.exp.e10.ms", "ms"),
    ("bench.exp.e11.ms", "ms"),
    ("bench.exp.e12.ms", "ms"),
    ("bench.exp.e13.ms", "ms"),
    ("bench.exp.e14.ms", "ms"),
    ("bench.exp.e15.ms", "ms"),
    ("bench.exp.e16.ms", "ms"),
    ("bench.exp.e17.ms", "ms"),
    ("bench.exp.e18.ms", "ms"),
    ("bench.exp.e19.ms", "ms"),
    ("bench.exp.e20.ms", "ms"),
    ("bench.exp.e21.ms", "ms"),
    ("bench.overhead_ms", "ms"),
    ("bench.children", "count"),
    ("trace.overhead_ms", "ms"),
];

/// Whether `name` is a valid metric name: `[A-Za-z0-9_.-]+`.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn names_are_valid_and_unique() {
        let mut seen = HashSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "{name}");
            assert!(name.len() <= 64, "{name}");
            assert!(!unit.is_empty() && unit.len() <= 16, "{name}: {unit}");
            assert!(seen.insert(*name), "duplicate {name}");
        }
        assert!(!valid_name("a b") && !valid_name(""));
    }
}
