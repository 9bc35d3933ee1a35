//! `design_flow`: one designer at a time taking a spec to a simulated
//! design. Each flow compiles one spec, emits and lints its RTL, estimates
//! area and frequency, programs the design through the ISA host and
//! simulates it on a seeded input of the design's shape.
//!
//! Flows cycle through a deck of slots: the shipped gallery (Gemmini,
//! SCNN PE, OuterSPACE multiply at two tiles, row merger, A100 2:4), then
//! as many seeded matmul specs of extent 4–24 under the classic
//! transforms. Dense designs simulate on the weight- and output-stationary
//! systolic models; sparse ones on the sparse lane model, with a
//! SuiteSparse instance drawn fresh for every flow. `core::explore` and
//! the sparse-suite preparation do no work here.

use stellar_area::{area_of, max_frequency_mhz, Technology};
use stellar_core::prelude::*;
use stellar_core::{prune, AcceleratorDesign, IterationSpace, SpatialArray};
use stellar_isa::{Host, MemUnit, MetadataType, Program, TensorPayload};
use stellar_sim::{
    simulate_os_matmul, simulate_sparse_matmul_profiled, simulate_ws_matmul, BalancePolicy,
    FaultInjector, FaultPlan, SparseArrayParams, Tracer, Watchdog,
};
use stellar_tensor::{gen, CsrMatrix, DenseMatrix};
use stellar_workloads::{suite, SuiteMatrix};

use super::{put_counts, put_self_ms, Config, Metrics, Workload, DEFAULT_SEED};
use crate::spans::Recorder;
use crate::stats::{Digest, SplitMix};

/// Digest of the first [`DECK`] flows' Verilog, design statistics and
/// area with the default seed.
const DEFAULT_DIGEST: u64 = 0xe7ef_bad4_def7_c75b;

/// Gallery slots in the deck; as many seeded matmul slots follow.
const GALLERY: usize = 6;
/// Flows in one pass over the deck: the digest covers the first one.
const DECK: u64 = 2 * GALLERY as u64;
/// Largest dimension of the sparse instances the flows simulate on.
const SPARSE_MAX_DIM: usize = 256;

fn gallery_spec(slot: usize) -> AcceleratorSpec {
    match slot {
        0 => stellar_accels::gemmini_spec(),
        1 => stellar_accels::scnn_pe_spec(4, 4),
        2 => stellar_accels::outerspace_multiply_spec(8),
        3 => stellar_accels::outerspace_multiply_spec(4),
        4 => stellar_accels::row_merger_spec(8, 8),
        _ => stellar_accels::a100_sparse_spec(8),
    }
}

fn seeded_matmul_spec(rng: &mut SplitMix) -> AcceleratorSpec {
    let (m, n, k) = (rng.range(4, 24), rng.range(4, 24), rng.range(4, 24));
    let (name, transform) = match rng.range(0, 3) {
        0 => ("ws", SpaceTimeTransform::weight_stationary()),
        1 => ("os", SpaceTimeTransform::output_stationary()),
        2 => ("is", SpaceTimeTransform::input_stationary()),
        _ => ("hex", SpaceTimeTransform::hexagonal()),
    };
    AcceleratorSpec::new(
        format!("mm{m}x{n}x{k}_{name}"),
        Functionality::matmul(m, n, k),
    )
    .with_bounds(Bounds::from_extents(&[m, n, k]))
    .with_transform(transform)
}

/// A dense design computes `A(m×k)·B(k×n)` over its bounds `(m, n, k)`;
/// everything else (skips, mergers, PE kernels) is a sparse design.
fn dense_shape(spec: &AcceleratorSpec) -> Option<(usize, usize, usize)> {
    let b = spec.bounds();
    let dense =
        spec.skips().is_empty() && b.rank() == 3 && spec.functionality().tensors().count() == 3;
    dense.then(|| {
        let e = |d| b.extent(stellar_core::IndexId::nth(d)) as usize;
        (e(0), e(1), e(2))
    })
}

/// What the flow simulated.
pub enum SimOutput {
    Dense {
        a: DenseMatrix,
        b: DenseMatrix,
        host_a: Option<DenseMatrix>,
        host_b: Option<DenseMatrix>,
        ws: DenseMatrix,
        os: DenseMatrix,
    },
    Sparse {
        b: CsrMatrix,
        host_b: Option<CsrMatrix>,
        cycles: u64,
        utilization: f64,
    },
}

/// One flow's outputs, checked after the flow.
pub struct FlowOutput {
    label: String,
    verilog: String,
    lint_errors: usize,
    design: AcceleratorDesign,
    area_um2: f64,
    fmax_mhz: f64,
    sim: SimOutput,
}

#[derive(Default)]
pub struct DesignFlow {
    seed: u64,
    mats: Vec<SuiteMatrix>,
    tech: Option<Technology>,
    deck_digest: Digest,
}

fn store_dense(
    host: &mut Host,
    p: &mut Program,
    m: &DenseMatrix,
    buffer: &str,
) -> Result<(), String> {
    let addr = host
        .dram_store_dense(m)
        .map_err(|e| format!("store {buffer}: {e}"))?;
    p.set_src_and_dst(MemUnit::Dram, MemUnit::buffer(buffer));
    p.set_data_addr_src(addr);
    p.set_span(0, m.cols() as u64);
    p.set_span(1, m.rows() as u64);
    p.set_axis_type(0, AxisFormat::Dense);
    p.set_axis_type(1, AxisFormat::Dense);
    p.set_data_stride(0, 1);
    p.set_data_stride(1, m.cols() as u64);
    p.issue();
    Ok(())
}

fn store_csr(host: &mut Host, p: &mut Program, m: &CsrMatrix, buffer: &str) -> Result<(), String> {
    let (data, row_ids, coords) = host
        .dram_store_csr(m)
        .map_err(|e| format!("store {buffer}: {e}"))?;
    p.set_src_and_dst(MemUnit::Dram, MemUnit::buffer(buffer));
    p.set_data_addr_src(data);
    p.set_metadata_addr_src(0, MetadataType::RowId, row_ids);
    p.set_metadata_addr_src(0, MetadataType::Coord, coords);
    p.set_span(1, m.rows() as u64);
    p.set_span(2, m.cols() as u64);
    p.set_data_stride(0, 1);
    p.set_metadata_stride(0, MetadataType::Coord, 1);
    p.set_metadata_stride(1, MetadataType::RowId, 1);
    p.set_axis_type(0, AxisFormat::Compressed);
    p.set_axis_type(1, AxisFormat::Dense);
    p.issue();
    Ok(())
}

impl DesignFlow {
    fn spec(&self, index: u64, rng: &mut SplitMix) -> AcceleratorSpec {
        let slot = (index % DECK) as usize;
        if slot < GALLERY {
            gallery_spec(slot)
        } else {
            seeded_matmul_spec(rng)
        }
    }

    /// Compiles `spec`, then (traced only) probes the compiler's inner
    /// layers on the same input so that compile's self time is its own.
    fn compile(
        &self,
        spec: &AcceleratorSpec,
        rec: &mut Recorder,
    ) -> Result<AcceleratorDesign, String> {
        let id = rec.enter("core.compile");
        let design = compile(spec).map_err(|e| format!("compile {}: {e}", spec.name()));
        rec.exit(id);
        let func = spec.functionality();
        let is = rec.probe("core.elaborate", id, || {
            IterationSpace::elaborate(func, spec.bounds())
        });
        if let Some(Ok(mut is)) = is {
            rec.add("core.elaborate.points", is.num_points() as f64);
            let removed = rec.probe("core.prune", id, || {
                prune::apply_sparsity(&mut is, func, spec.skips())
                    .merge(prune::apply_balance(&mut is, func, spec.shifts()))
                    .removed
            });
            rec.add("core.prune.conns_removed", removed.unwrap_or(0) as f64);
            let array = rec.probe("core.spacetime", id, || {
                SpatialArray::from_iterspace(&is, func, spec.transform())
            });
            if let Some(Ok(array)) = array {
                rec.add("core.spacetime.pes", array.num_pes() as f64);
            }
        }
        design
    }

    fn program(
        &self,
        rec: &mut Recorder,
        dense: &[(&DenseMatrix, &str)],
        sparse: Option<&CsrMatrix>,
    ) -> Result<Host, String> {
        let id = rec.enter("isa.host");
        let mut host = Host::new();
        let mut p = Program::new();
        for (m, buffer) in dense {
            store_dense(&mut host, &mut p, m, buffer)?;
        }
        if let Some(m) = sparse {
            store_csr(&mut host, &mut p, m, "SRAM_B")?;
        }
        host.run(&p).map_err(|e| format!("host program: {e}"))?;
        rec.exit(id);
        rec.add("isa.host.cycles", host.cycles() as f64);
        Ok(host)
    }

    fn simulate(
        &self,
        spec: &AcceleratorSpec,
        design: &AcceleratorDesign,
        rng: &mut SplitMix,
        rec: &mut Recorder,
    ) -> Result<SimOutput, String> {
        if let Some((m, n, k)) = dense_shape(spec) {
            let a = gen::dense(m, k, rng.next_u64());
            let b = gen::dense(k, n, rng.next_u64());
            let host = self.program(rec, &[(&a, "SRAM_A"), (&b, "SRAM_B")], None)?;
            let id = rec.enter("sim.systolic");
            let ws = simulate_ws_matmul(&a, &b).map_err(|e| format!("ws sim: {e}"))?;
            let os = simulate_os_matmul(&a, &b).map_err(|e| format!("os sim: {e}"))?;
            rec.exit(id);
            rec.add(
                "sim.systolic.cycles",
                (ws.stats.cycles + os.stats.cycles) as f64,
            );
            return Ok(SimOutput::Dense {
                host_a: host.buffer_dense("SRAM_A"),
                host_b: host.buffer_dense("SRAM_B"),
                a,
                b,
                ws: ws.product,
                os: os.product,
            });
        }
        let matrix = &self.mats[rng.range(0, self.mats.len() - 1)];
        let b = rec.time("workloads.instantiate", || {
            matrix.instantiate(SPARSE_MAX_DIM, rng.next_u64())
        });
        rec.add("workloads.instantiate.calls", 1.0);
        rec.add("workloads.instantiate.distinct", 1.0);
        rec.add("workloads.instantiate.nnz", b.nnz() as f64);
        let host = self.program(rec, &[], Some(&b))?;
        let params = SparseArrayParams {
            lanes: design.total_pes().clamp(2, 32),
            row_startup_cycles: 1,
            balance: if design.load_balancers.is_empty() {
                BalancePolicy::None
            } else {
                BalancePolicy::AdjacentRows
            },
        };
        let id = rec.enter("sim.sparse");
        let (r, engine) = simulate_sparse_matmul_profiled(
            &b,
            &params,
            &mut FaultInjector::new(FaultPlan::none()),
            Watchdog::default_budget(),
            &mut Tracer::disabled(),
        )
        .map_err(|e| format!("sparse sim on {}: {e}", matrix.name))?;
        rec.exit(id);
        rec.add("sim.sparse.cycles", r.stats.cycles as f64);
        rec.add("sim.engine.events", engine.events_popped as f64);
        let host_b = match host.buffer("SRAM_B") {
            Some(TensorPayload::Csr(m)) => Some(m.clone()),
            _ => None,
        };
        Ok(SimOutput::Sparse {
            b,
            host_b,
            cycles: r.stats.cycles,
            utilization: r.utilization(),
        })
    }
}

impl Workload for DesignFlow {
    type Output = FlowOutput;

    fn setup(&mut self, cfg: &Config) -> Result<(), String> {
        self.seed = cfg.seed;
        self.mats = suite();
        self.tech = Some(Technology::asap7());
        self.deck_digest = Digest::default();
        // Warm the compiler and the RTL emitter on the largest gallery spec.
        let design = compile(&gallery_spec(0)).map_err(|e| format!("warm-up compile: {e}"))?;
        stellar_rtl::emit_accelerator(&design);
        Ok(())
    }

    fn op(&mut self, index: u64, rec: &mut Recorder) -> Result<FlowOutput, String> {
        let mut rng = SplitMix::new(self.seed, index);
        let spec = self.spec(index, &mut rng);
        let design = self.compile(&spec, rec)?;
        let netlist = rec.time("rtl.emit", || stellar_rtl::emit_accelerator(&design));
        rec.add("rtl.emit.modules", netlist.modules().len() as f64);
        let verilog = rec.time("rtl.verilog", || netlist.to_verilog());
        rec.add("rtl.verilog.bytes", verilog.len() as f64);
        let lint_errors = rec
            .time("rtl.lint", || stellar_rtl::lint::check(&netlist))
            .err()
            .map_or(0, |e| e.len());
        rec.add("rtl.lint.errors", lint_errors as f64);
        let tech = self.tech.as_ref().ok_or("design_flow used before setup")?;
        let (area_um2, fmax_mhz) = rec.time("area", || {
            (
                area_of(&design, tech).total_um2(),
                max_frequency_mhz(&design, false, tech),
            )
        });
        let sim = self.simulate(&spec, &design, &mut rng, rec)?;
        Ok(FlowOutput {
            label: spec.name().to_string(),
            verilog,
            lint_errors,
            design,
            area_um2,
            fmax_mhz,
            sim,
        })
    }

    fn check(&mut self, index: u64, mut out: FlowOutput, inject: bool) -> Vec<String> {
        if inject {
            match &mut out.sim {
                SimOutput::Dense { ws, .. } => ws.set(0, 0, ws.at(0, 0) + 1.0),
                SimOutput::Sparse { cycles, .. } => *cycles = 0,
            }
        }
        let mut misses = Vec::new();
        if out.lint_errors > 0 {
            misses.push(format!("{}: {} lint errors", out.label, out.lint_errors));
        }
        if !(out.area_um2.is_finite()
            && out.area_um2 > 0.0
            && out.fmax_mhz.is_finite()
            && out.fmax_mhz > 0.0)
        {
            misses.push(format!(
                "{}: area {} um2 / fmax {} MHz",
                out.label, out.area_um2, out.fmax_mhz
            ));
        }
        match &out.sim {
            SimOutput::Dense {
                a,
                b,
                host_a,
                host_b,
                ws,
                os,
            } => {
                if host_a.as_ref() != Some(a) || host_b.as_ref() != Some(b) {
                    misses.push(format!(
                        "{}: host buffers differ from the stored operands",
                        out.label
                    ));
                }
                let golden = a.matmul(b);
                if !ws.approx_eq(&golden, 1e-9) || !os.approx_eq(&golden, 1e-9) {
                    misses.push(format!("{}: systolic product differs from A·B", out.label));
                }
            }
            SimOutput::Sparse {
                b,
                host_b,
                cycles,
                utilization,
            } => {
                if host_b.as_ref() != Some(b) {
                    misses.push(format!(
                        "{}: host buffer differs from the stored matrix",
                        out.label
                    ));
                }
                if *cycles == 0 || !(0.0..=1.0).contains(utilization) {
                    misses.push(format!(
                        "{}: sparse sim {cycles} cycles at utilization {utilization}",
                        out.label
                    ));
                }
            }
        }
        if index < DECK {
            let d = &out.design;
            self.deck_digest
                .str(&out.label)
                .str(&out.verilog)
                .u64(d.total_pes() as u64)
                .u64(
                    d.spatial_arrays
                        .iter()
                        .map(|a| a.conns.len() + a.io_ports.len())
                        .sum::<usize>() as u64,
                )
                .u64(d.regfiles.len() as u64)
                .u64(d.mem_buffers.len() as u64)
                .u64(d.total_sram_words() as u64)
                .f64(out.area_um2)
                .f64(out.fmax_mhz);
            let digest = self.deck_digest.value();
            if index + 1 == DECK && self.seed == DEFAULT_SEED && digest != DEFAULT_DIGEST {
                misses.push(format!(
                    "deck digest {digest:#018x} != recorded {DEFAULT_DIGEST:#018x}"
                ));
            }
        }
        misses
    }

    fn finish(&mut self, ops: u64) -> Vec<String> {
        if ops < DECK {
            vec![format!(
                "only {ops} flows ran; the digest covers the first {DECK}"
            )]
        } else {
            Vec::new()
        }
    }

    fn reset(&mut self) {
        self.deck_digest = Digest::default();
    }

    fn layers(&self, rec: &Recorder, ops: u64, out: &mut Metrics) {
        for (metric, layer) in [
            ("workloads.instantiate.ms", "workloads.instantiate"),
            ("core.elaborate.ms", "core.elaborate"),
            ("core.prune.ms", "core.prune"),
            ("core.spacetime.ms", "core.spacetime"),
            ("core.compile.ms", "core.compile"),
            ("rtl.emit.ms", "rtl.emit"),
            ("rtl.verilog.ms", "rtl.verilog"),
            ("rtl.lint.ms", "rtl.lint"),
            ("area.ms", "area"),
            ("isa.host.ms", "isa.host"),
            ("sim.systolic.ms", "sim.systolic"),
            ("sim.sparse.ms", "sim.sparse"),
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
                "core.elaborate.points",
                "core.prune.conns_removed",
                "core.spacetime.pes",
                "rtl.emit.modules",
                "rtl.verilog.bytes",
                "rtl.lint.errors",
                "isa.host.cycles",
                "sim.systolic.cycles",
                "sim.sparse.cycles",
                "sim.engine.events",
            ],
        );
    }
}
