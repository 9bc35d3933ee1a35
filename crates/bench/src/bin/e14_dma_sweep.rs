//! E14 — ablation of §VI-C's design choice: sweeping the DMA's
//! independent outstanding-request count from 1 to 64 on the OuterSPACE
//! workload, with the corresponding DMA area from the analytical model.
//!
//! The paper jumps from 1 to 16 requests; this sweep shows the whole
//! trade-off curve (throughput saturates once pointer latency is covered,
//! while area keeps growing).

use rayon::prelude::*;
use stellar_accels::outerspace::{outerspace_throughput_on, OUTERSPACE_MAX_DIM};
use stellar_accels::OuterSpaceConfig;
use stellar_area::{area::dma_area_um2, Technology};
use stellar_bench::{table, Report};
use stellar_core::DmaDesign;
use stellar_sim::DmaModel;
use stellar_tensor::CsrMatrix;
use stellar_workloads::suite;

const SLOTS: [usize; 7] = [1, 2, 4, 8, 16, 32, 64];

fn main() {
    let mut report = Report::new(
        "e14",
        "DMA outstanding-request sweep (ablation of the §VI-C fix)",
    );

    let mats: Vec<_> = suite().into_iter().take(10).collect();
    let tech = Technology::asap7();

    // Instantiate each matrix once (in parallel); every slot count then
    // runs on the same instance. Every (slot count, matrix) point is an
    // independent model evaluation: sweep the whole grid in parallel, then
    // average per slot count in matrix order so the floating-point
    // reduction (and thus the report) matches the serial sweep bit for bit.
    let instances: Vec<CsrMatrix> = (0..mats.len())
        .into_par_iter()
        .map(|n| mats[n].instantiate(OUTERSPACE_MAX_DIM, 300 + n as u64))
        .collect();
    let grid: Vec<f64> = (0..SLOTS.len() * mats.len())
        .into_par_iter()
        .map(|point| {
            let (s, n) = (point / mats.len(), point % mats.len());
            let cfg = OuterSpaceConfig {
                dma: DmaModel::with_slots(SLOTS[s]),
                ..OuterSpaceConfig::stellar_default()
            };
            outerspace_throughput_on(&instances[n], &cfg).gflops
        })
        .collect();

    let mut rows = Vec::new();
    let mut prev_gflops = 0.0;
    for (s, &slots) in SLOTS.iter().enumerate() {
        let avg: f64 = grid[s * mats.len()..(s + 1) * mats.len()]
            .iter()
            .sum::<f64>()
            / mats.len() as f64;
        let area = dma_area_um2(
            &DmaDesign {
                max_inflight_reqs: slots,
                bus_bits: 128,
            },
            &tech,
        );
        let gain = if prev_gflops > 0.0 {
            format!("{:+.0}%", 100.0 * (avg / prev_gflops - 1.0))
        } else {
            "-".into()
        };
        let metrics = report.metrics();
        metrics.gauge_set("avg_gflops", &[("slots", &slots.to_string())], avg);
        metrics.gauge_set("dma_area_um2", &[("slots", &slots.to_string())], area);
        rows.push(vec![
            slots.to_string(),
            format!("{avg:.2}"),
            gain,
            format!("{:.0}", area),
        ]);
        prev_gflops = avg;
    }
    table(
        &[
            "outstanding reqs",
            "avg GFLOP/s",
            "marginal gain",
            "DMA area um^2",
        ],
        &rows,
    );
    println!("\nThe throughput curve saturates once outstanding requests cover the");
    println!("pointer round-trip latency; the paper's choice of 16 sits at the knee,");
    println!("while DMA area keeps growing linearly with tracker count.");
    report.finish("7-point outstanding-request sweep measured");
}
