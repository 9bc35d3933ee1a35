//! The OuterSPACE-class sparse matrix-multiplication accelerator (§VI-C,
//! Figure 16b).
//!
//! OuterSPACE computes `A·A` by outer products: the multiply phase streams
//! column `k` of `A` (CSC) against row `k` of `A` (CSR), scattering partial
//! vectors through DRAM; the merge phase reads back each scattered vector
//! via a *pointer*, then merges. The pointers are the bottleneck the paper
//! dissects: "despite comprising less than 10% of the total memory traffic
//! ... accesses to these pointers initially posed a severe memory
//! bottleneck", because Stellar's default DMA tracks one outstanding
//! request.

use stellar_sim::DmaModel;
use stellar_tensor::CsrMatrix;
use stellar_workloads::SuiteMatrix;

/// Configuration of the OuterSPACE-class run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OuterSpaceConfig {
    /// The DMA (slots = outstanding requests; 1 = Stellar default, 16 =
    /// the §VI-C fix).
    pub dma: DmaModel,
    /// Clock frequency in GHz (OuterSPACE reports 1.5 GHz).
    pub freq_ghz: f64,
    /// Parallel compute lanes (PEs × multipliers); OuterSPACE has 256 PEs.
    pub compute_lanes: usize,
    /// Models the hand-written design's custom memory path, which streams
    /// pointer blocks through dedicated request queues rather than the
    /// general-purpose DMA.
    pub handwritten_memory_path: bool,
}

impl OuterSpaceConfig {
    /// The initial Stellar-generated configuration (default 1-request DMA).
    pub fn stellar_default() -> OuterSpaceConfig {
        OuterSpaceConfig {
            dma: DmaModel::with_slots(1),
            freq_ghz: 1.5,
            compute_lanes: 256,
            handwritten_memory_path: false,
        }
    }

    /// The §VI-C fix: 16 independent DRAM requests per cycle, same total
    /// bandwidth.
    pub fn stellar_fixed() -> OuterSpaceConfig {
        OuterSpaceConfig {
            dma: DmaModel::with_slots(16),
            ..OuterSpaceConfig::stellar_default()
        }
    }

    /// A model of the hand-written OuterSPACE (2.9 GFLOP/s average in its
    /// paper).
    pub fn handwritten() -> OuterSpaceConfig {
        OuterSpaceConfig {
            dma: DmaModel::with_slots(64),
            handwritten_memory_path: true,
            ..OuterSpaceConfig::stellar_default()
        }
    }
}

/// The result of one SpGEMM run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OuterSpaceResult {
    /// Floating-point operations (2 × partial products).
    pub flops: u64,
    /// Total cycles.
    pub cycles: u64,
    /// Cycles in the multiply phase.
    pub multiply_cycles: u64,
    /// Cycles in the merge phase.
    pub merge_cycles: u64,
    /// Cycles spent on scattered pointer accesses (the bottleneck).
    pub pointer_cycles: u64,
    /// Achieved throughput in GFLOP/s.
    pub gflops: f64,
}

/// The largest dimension of the synthetic instances the OuterSPACE
/// experiments run on: tractable, while preserving row statistics.
pub const OUTERSPACE_MAX_DIM: usize = 4096;

/// Runs `A·A` through the phase model for a synthetic instance of the
/// given SuiteSparse matrix.
pub fn outerspace_throughput(
    m: &SuiteMatrix,
    cfg: &OuterSpaceConfig,
    seed: u64,
) -> OuterSpaceResult {
    let a = m.instantiate(OUTERSPACE_MAX_DIM, seed);
    outerspace_throughput_on(&a, cfg)
}

/// Runs `A·A` on a concrete matrix.
pub fn outerspace_throughput_on(a: &CsrMatrix, cfg: &OuterSpaceConfig) -> OuterSpaceResult {
    // Partial-product statistics: one partial vector per (k, row of A
    // column k); vector length = nnz(row k of A).
    let mut partial_products: u64 = 0;
    let mut num_vectors: u64 = 0;
    for (k, col_nnz) in col_lengths(a).into_iter().take(a.rows()).enumerate() {
        let row_nnz = a.row_len(k) as u64;
        partial_products += col_nnz * row_nnz;
        num_vectors += if row_nnz > 0 { col_nnz } else { 0 };
    }
    let flops = 2 * partial_products;
    let wpc = cfg.dma.dram.words_per_cycle;
    // Scattered short-vector streams pay DRAM row-activation overheads:
    // roughly a third of peak sequential bandwidth.
    let wpc_scattered = wpc / 3.0;

    // Multiply phase: stream A (CSR + CSC) contiguously, write partial
    // vectors (small scattered runs) and one pointer per vector
    // (fire-and-forget writes: no control dependency).
    let a_words = 2 * (2 * a.nnz() + a.rows() + 1) as u64;
    let compute_cycles = partial_products / cfg.compute_lanes.max(1) as u64;
    let mul_stream = (a_words as f64 / wpc).ceil() as u64;
    let mul_scatter = ((partial_products + num_vectors) as f64 / wpc_scattered).ceil() as u64;
    let multiply_cycles = compute_cycles.max(mul_stream + mul_scatter);

    // Merge phase: read each pointer (scattered scalar with a *control
    // dependency* — the vector read cannot issue before the pointer
    // returns), then the vectors, then write the merged result.
    let pointer_reads = pointer_read_cycles(num_vectors, cfg);
    let vec_reads = (partial_products as f64 / wpc_scattered).ceil() as u64;
    let result_writes = ((partial_products / 2) as f64 / wpc).ceil() as u64;
    let merge_compute = partial_products / cfg.compute_lanes.max(1) as u64;
    let merge_cycles = pointer_reads + vec_reads.max(merge_compute) + result_writes;

    let cycles = (multiply_cycles + merge_cycles).max(1);
    let secs = cycles as f64 / (cfg.freq_ghz * 1e9);
    OuterSpaceResult {
        flops,
        cycles,
        multiply_cycles,
        merge_cycles,
        pointer_cycles: pointer_reads,
        gflops: flops as f64 / secs / 1e9,
    }
}

/// The length of every column of `a`'s CSC without building it: a
/// histogram of the stored column indices, skipping explicit zeros (which
/// the CSC conversion drops).
fn col_lengths(a: &CsrMatrix) -> Vec<u64> {
    let mut lens = vec![0u64; a.cols()];
    for (&c, &v) in a.col_idx().iter().zip(a.values()) {
        if v != 0.0 {
            lens[c] += 1;
        }
    }
    lens
}

/// Cycles for the control-dependent scattered pointer reads. Each read
/// returns a single scalar after roughly a quarter of a DRAM latency of exposed
/// stall (the rest overlaps with other traffic); `slots` independent
/// requests overlap those stalls. The hand-written design's dedicated
/// request queues stream pointer blocks at full bandwidth instead.
fn pointer_read_cycles(num_vectors: u64, cfg: &OuterSpaceConfig) -> u64 {
    if cfg.handwritten_memory_path {
        (num_vectors as f64 / cfg.dma.dram.words_per_cycle).ceil() as u64
    } else {
        let exposed = (cfg.dma.dram.latency_cycles as f64 / 4.0) / cfg.dma.slots.max(1) as f64;
        (num_vectors as f64 * exposed.max(1.0)).ceil() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stellar_workloads::suite;

    fn poisson() -> SuiteMatrix {
        suite()
            .into_iter()
            .find(|m| m.name == "poisson3Da")
            .unwrap()
    }

    #[test]
    fn sixteen_slots_beat_one() {
        let m = poisson();
        let slow = outerspace_throughput(&m, &OuterSpaceConfig::stellar_default(), 1);
        let fast = outerspace_throughput(&m, &OuterSpaceConfig::stellar_fixed(), 1);
        assert!(
            fast.gflops > 1.2 * slow.gflops,
            "16-slot DMA should be much faster: {:.2} vs {:.2} GFLOP/s",
            fast.gflops,
            slow.gflops
        );
        assert_eq!(slow.flops, fast.flops);
    }

    #[test]
    fn handwritten_beats_both() {
        let m = poisson();
        let fixed = outerspace_throughput(&m, &OuterSpaceConfig::stellar_fixed(), 1);
        let hand = outerspace_throughput(&m, &OuterSpaceConfig::handwritten(), 1);
        assert!(hand.gflops > fixed.gflops);
    }

    #[test]
    fn pointer_cycles_dominate_default_dma() {
        // §VI-C: pointers are <10% of traffic but the dominant stall.
        let m = poisson();
        let r = outerspace_throughput(&m, &OuterSpaceConfig::stellar_default(), 1);
        assert!(
            r.pointer_cycles as f64 > 0.4 * r.cycles as f64,
            "pointer cycles {}/{} should dominate",
            r.pointer_cycles,
            r.cycles
        );
    }

    #[test]
    fn average_throughputs_have_paper_shape() {
        // Averages over the suite: default ≈ 1.4, fixed ≈ 2.1, hand ≈ 2.9
        // GFLOP/s in the paper. We assert the ordering and rough bands.
        let mats: Vec<SuiteMatrix> = suite().into_iter().take(8).collect();
        let avg = |cfg: &OuterSpaceConfig| {
            let sum: f64 = mats
                .iter()
                .map(|m| outerspace_throughput(m, cfg, 7).gflops)
                .sum();
            sum / mats.len() as f64
        };
        let d = avg(&OuterSpaceConfig::stellar_default());
        let f = avg(&OuterSpaceConfig::stellar_fixed());
        let h = avg(&OuterSpaceConfig::handwritten());
        assert!(d < f && f < h, "ordering violated: {d:.2} {f:.2} {h:.2}");
        assert!((0.3..4.0).contains(&d), "default avg {d:.2} GFLOP/s");
        assert!(f / d > 1.2, "fix should give a substantial boost");
    }

    #[test]
    fn col_length_histogram_matches_csc() {
        use stellar_tensor::gen;
        use stellar_tensor::CscMatrix;
        let stored_zeros = CsrMatrix::from_raw(
            3,
            4,
            vec![0, 3, 3, 5],
            vec![0, 1, 3, 1, 2],
            vec![1.0, 0.0, 2.0, -0.0, 4.0],
        );
        for a in [stored_zeros, gen::power_law(40, 30, 4.0, 1.8, 2)] {
            let csc = CscMatrix::from_csr(&a);
            let want: Vec<u64> = (0..a.cols()).map(|c| csc.col_len(c) as u64).collect();
            assert_eq!(col_lengths(&a), want);
        }
    }

    #[test]
    fn flops_match_reference_partials() {
        use stellar_tensor::gen;
        use stellar_tensor::ops::spgemm_outer_partials;
        use stellar_tensor::CscMatrix;
        let a = gen::uniform(64, 64, 0.1, 3);
        let partials = spgemm_outer_partials(&CscMatrix::from_csr(&a), &a);
        let want: u64 = 2 * partials.iter().map(|p| p.nnz() as u64).sum::<u64>();
        let got = outerspace_throughput_on(&a, &OuterSpaceConfig::stellar_default());
        assert_eq!(got.flops, want);
    }
}
