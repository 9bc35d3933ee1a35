//! The host interpreter: executes instruction streams against a DRAM model
//! and named buffers, accounting DMA cycles.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

use stellar_sim::DmaModel;
use stellar_tensor::{AxisFormat, CscMatrix, CsrMatrix, DenseMatrix};

use crate::encoding::{axis_format_from_bits, Instruction, MetadataType, Opcode, Target};
use crate::program::{MemUnit, Program};

/// A tensor held by a memory unit after a transfer.
#[derive(Clone, Debug, PartialEq)]
pub enum TensorPayload {
    /// A dense matrix.
    Dense(DenseMatrix),
    /// A CSR matrix.
    Csr(CsrMatrix),
    /// A CSC matrix.
    Csc(CscMatrix),
}

/// Errors from executing a program.
#[derive(Clone, Debug, PartialEq)]
pub enum HostError {
    /// `issue` without a preceding `set_src_and_dst`.
    NoRoute,
    /// The configuration is incomplete or inconsistent for the transfer.
    BadConfig(String),
    /// A DRAM read fell outside the stored region.
    DramOutOfBounds(u64),
    /// The host DRAM bump allocator ran out of words.
    DramExhausted {
        /// Words the allocation would have needed in total.
        needed: u64,
        /// Words of DRAM the host has.
        capacity: u64,
    },
}

impl fmt::Display for HostError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HostError::NoRoute => write!(f, "issue without set_src_and_dst"),
            HostError::BadConfig(m) => write!(f, "bad transfer configuration: {m}"),
            HostError::DramOutOfBounds(a) => write!(f, "DRAM access out of bounds at {a:#x}"),
            HostError::DramExhausted { needed, capacity } => {
                write!(
                    f,
                    "host DRAM exhausted: need {needed} words, have {capacity}"
                )
            }
        }
    }
}

impl Error for HostError {}

#[derive(Clone, Debug, Default)]
struct TransferConfig {
    route: usize,
    data_addr_src: u64,
    spans: HashMap<u8, u64>,
    axis_types: HashMap<u8, AxisFormat>,
    meta_addrs: HashMap<(u8, MetadataType), u64>,
}

/// The host machine: word-addressable DRAM, named buffers, and a DMA model
/// for cycle accounting.
#[derive(Clone, Debug)]
pub struct Host {
    dram: Vec<u64>,
    buffers: HashMap<String, TensorPayload>,
    dma: DmaModel,
    cycles: u64,
    brk: u64,
}

impl Default for Host {
    fn default() -> Host {
        Host::new()
    }
}

impl Host {
    /// A host with 1 MiW of DRAM and the default single-request DMA.
    pub fn new() -> Host {
        Host {
            dram: vec![0; 1 << 20],
            buffers: HashMap::new(),
            dma: DmaModel::with_slots(1),
            cycles: 0,
            brk: 64,
        }
    }

    /// Replaces the DMA model (e.g. 16 outstanding requests, §VI-C).
    pub fn with_dma(mut self, dma: DmaModel) -> Host {
        self.dma = dma;
        self
    }

    /// Total DMA cycles spent so far.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Stores a dense matrix row-major in DRAM; returns its word address.
    ///
    /// # Errors
    ///
    /// [`HostError::DramExhausted`] when the matrix does not fit.
    pub fn dram_store_dense(&mut self, m: &DenseMatrix) -> Result<u64, HostError> {
        let addr = self.alloc(m.rows() * m.cols())?;
        for r in 0..m.rows() {
            for c in 0..m.cols() {
                self.dram[addr as usize + r * m.cols() + c] = m.at(r, c).to_bits();
            }
        }
        Ok(addr)
    }

    /// Stores a CSR matrix's three arrays in DRAM; returns
    /// `(data, row_ids, coords)` addresses, as `matrix_B_data`,
    /// `matrix_B_row_ids`, `matrix_B_coords` in Listing 7.
    ///
    /// # Errors
    ///
    /// [`HostError::DramExhausted`] when the arrays do not fit.
    pub fn dram_store_csr(&mut self, m: &CsrMatrix) -> Result<(u64, u64, u64), HostError> {
        let data = self.alloc(m.nnz())?;
        for (n, &v) in m.values().iter().enumerate() {
            self.dram[data as usize + n] = v.to_bits();
        }
        let row_ids = self.alloc(m.rows() + 1)?;
        for (n, &p) in m.row_ptr().iter().enumerate() {
            self.dram[row_ids as usize + n] = p as u64;
        }
        let coords = self.alloc(m.nnz())?;
        for (n, &c) in m.col_idx().iter().enumerate() {
            self.dram[coords as usize + n] = c as u64;
        }
        Ok((data, row_ids, coords))
    }

    /// Stores a CSC matrix's three arrays in DRAM; returns
    /// `(data, col_ptrs, row_coords)` addresses.
    ///
    /// # Errors
    ///
    /// [`HostError::DramExhausted`] when the arrays do not fit.
    pub fn dram_store_csc(&mut self, m: &CscMatrix) -> Result<(u64, u64, u64), HostError> {
        let data = self.alloc(m.nnz())?;
        for (n, &v) in m.values().iter().enumerate() {
            self.dram[data as usize + n] = v.to_bits();
        }
        let col_ptrs = self.alloc(m.cols() + 1)?;
        for (n, &p) in m.col_ptr().iter().enumerate() {
            self.dram[col_ptrs as usize + n] = p as u64;
        }
        let coords = self.alloc(m.nnz())?;
        for (n, &c) in m.row_idx().iter().enumerate() {
            self.dram[coords as usize + n] = c as u64;
        }
        Ok((data, col_ptrs, coords))
    }

    fn alloc(&mut self, words: usize) -> Result<u64, HostError> {
        // A simple bump allocator starting past address 0.
        let addr = self.brk;
        let brk = addr.saturating_add(words as u64);
        if brk as usize >= self.dram.len() {
            return Err(HostError::DramExhausted {
                needed: brk,
                capacity: self.dram.len() as u64,
            });
        }
        self.brk = brk;
        Ok(addr)
    }

    /// The payload a buffer last received.
    pub fn buffer(&self, name: &str) -> Option<&TensorPayload> {
        self.buffers.get(name)
    }

    /// The buffer's payload as a dense matrix (CSR payloads are expanded).
    pub fn buffer_dense(&self, name: &str) -> Option<DenseMatrix> {
        match self.buffers.get(name)? {
            TensorPayload::Dense(m) => Some(m.clone()),
            TensorPayload::Csr(m) => Some(m.to_dense()),
            TensorPayload::Csc(m) => Some(m.to_dense()),
        }
    }

    /// Executes a program.
    ///
    /// # Errors
    ///
    /// Returns a [`HostError`] on inconsistent configurations or
    /// out-of-bounds DRAM access.
    pub fn run(&mut self, program: &Program) -> Result<(), HostError> {
        let mut cfg = TransferConfig::default();
        let mut route_ptr = 0usize;
        for instr in program.instructions() {
            self.step(instr, &mut cfg, &mut route_ptr, program)?;
        }
        Ok(())
    }

    fn step(
        &mut self,
        instr: &Instruction,
        cfg: &mut TransferConfig,
        route_ptr: &mut usize,
        program: &Program,
    ) -> Result<(), HostError> {
        match instr.opcode {
            Opcode::SetAddress => {
                if instr.axis == 0xFF {
                    cfg.route = instr.rs2 as usize;
                } else if let Some(kind) = instr.metadata {
                    cfg.meta_addrs.insert((instr.axis, kind), instr.rs2);
                } else if instr.target == Target::Src || instr.target == Target::Both {
                    cfg.data_addr_src = instr.rs2;
                }
            }
            Opcode::SetSpan => {
                cfg.spans.insert(instr.axis, instr.rs2);
            }
            Opcode::SetDataStride | Opcode::SetMetadataStride | Opcode::SetConstant => {
                // Strides and constants are accepted; the functional model
                // moves whole row-major tensors.
            }
            Opcode::SetAxisType => {
                let f = axis_format_from_bits(instr.rs2)
                    .ok_or_else(|| HostError::BadConfig("bad axis format".into()))?;
                cfg.axis_types.insert(instr.axis, f);
            }
            Opcode::Issue => {
                let (src, dst) = program
                    .routes()
                    .get(cfg.route)
                    .cloned()
                    .or_else(|| program.routes().get(*route_ptr).cloned())
                    .ok_or(HostError::NoRoute)?;
                *route_ptr += 1;
                self.execute_transfer(&src, &dst, cfg)?;
                *cfg = TransferConfig::default();
                cfg.route = *route_ptr;
            }
        }
        Ok(())
    }

    fn read_f64(&self, addr: u64) -> Result<f64, HostError> {
        self.dram
            .get(addr as usize)
            .map(|&b| f64::from_bits(b))
            .ok_or(HostError::DramOutOfBounds(addr))
    }

    fn read_u64(&self, addr: u64) -> Result<u64, HostError> {
        self.dram
            .get(addr as usize)
            .copied()
            .ok_or(HostError::DramOutOfBounds(addr))
    }

    fn execute_transfer(
        &mut self,
        src: &MemUnit,
        dst: &MemUnit,
        cfg: &TransferConfig,
    ) -> Result<(), HostError> {
        let dst_name = match dst {
            MemUnit::Buffer(n) | MemUnit::Regfile(n) => n.clone(),
            MemUnit::Dram => {
                return Err(HostError::BadConfig(
                    "DRAM destinations not modelled".into(),
                ))
            }
        };
        if *src != MemUnit::Dram {
            // Buffer-to-regfile moves: forward the payload.
            let name = match src {
                MemUnit::Buffer(n) | MemUnit::Regfile(n) => n.clone(),
                // Guarded by the enclosing `src != Dram` check; report
                // rather than panic if that invariant ever breaks.
                MemUnit::Dram => return Err(HostError::BadConfig("unexpected DRAM source".into())),
            };
            let payload = self
                .buffers
                .get(&name)
                .cloned()
                .ok_or_else(|| HostError::BadConfig(format!("source buffer '{name}' empty")))?;
            // On-chip move: bandwidth-bound only.
            let words = match &payload {
                TensorPayload::Dense(m) => m.rows() * m.cols(),
                TensorPayload::Csr(m) => 2 * m.nnz() + m.rows() + 1,
                TensorPayload::Csc(m) => 2 * m.nnz() + m.cols() + 1,
            };
            self.cycles += self.dma.contiguous_cycles(words as u64) / 4;
            self.buffers.insert(dst_name, payload);
            return Ok(());
        }

        // DRAM source: decode the axis types.
        let fmt0 = cfg.axis_types.get(&0).copied().unwrap_or(AxisFormat::Dense);
        let fmt1 = cfg.axis_types.get(&1).copied().unwrap_or(AxisFormat::Dense);
        match (fmt1, fmt0) {
            (AxisFormat::Dense, AxisFormat::Dense) => {
                // Axis 1 = rows (outer), axis 0 = cols (inner) in the
                // Listing 7 convention.
                let cols = *cfg
                    .spans
                    .get(&0)
                    .ok_or_else(|| HostError::BadConfig("missing span(0)".into()))?
                    as usize;
                let rows = *cfg
                    .spans
                    .get(&1)
                    .ok_or_else(|| HostError::BadConfig("missing span(1)".into()))?
                    as usize;
                let mut m = DenseMatrix::zeros(rows, cols);
                for r in 0..rows {
                    for c in 0..cols {
                        m.set(
                            r,
                            c,
                            self.read_f64(cfg.data_addr_src + (r * cols + c) as u64)?,
                        );
                    }
                }
                self.cycles += self.dma.contiguous_cycles((rows * cols) as u64);
                self.buffers.insert(dst_name, TensorPayload::Dense(m));
            }
            (AxisFormat::Dense, AxisFormat::Compressed) => {
                // CSR: axis 1 dense rows, axis 0 compressed columns.
                let rows = *cfg
                    .spans
                    .get(&1)
                    .ok_or_else(|| HostError::BadConfig("missing span(1)".into()))?
                    as usize;
                let cols = cfg.spans.get(&2).copied().unwrap_or(u64::MAX) as usize;
                let row_id_addr = *cfg
                    .meta_addrs
                    .get(&(0, MetadataType::RowId))
                    .ok_or_else(|| HostError::BadConfig("missing ROW_ID address".into()))?;
                let coord_addr = *cfg
                    .meta_addrs
                    .get(&(0, MetadataType::Coord))
                    .ok_or_else(|| HostError::BadConfig("missing COORD address".into()))?;
                let mut row_ptr = Vec::with_capacity(rows + 1);
                for n in 0..=rows {
                    row_ptr.push(self.read_u64(row_id_addr + n as u64)? as usize);
                }
                let nnz = row_ptr
                    .last()
                    .copied()
                    .ok_or_else(|| HostError::BadConfig("empty row-pointer array".into()))?;
                let mut col_idx = Vec::with_capacity(nnz);
                let mut values = Vec::with_capacity(nnz);
                for n in 0..nnz {
                    col_idx.push(self.read_u64(coord_addr + n as u64)? as usize);
                    values.push(self.read_f64(cfg.data_addr_src + n as u64)?);
                }
                let real_cols = if cols == usize::MAX || cols == 0 {
                    col_idx.iter().copied().max().map_or(1, |m| m + 1)
                } else {
                    cols
                };
                let m = CsrMatrix::from_raw(rows, real_cols, row_ptr, col_idx, values);
                // Three contiguous arrays: data, row ids, coords.
                self.cycles += self.dma.contiguous_cycles(nnz as u64)
                    + self.dma.contiguous_cycles((rows + 1) as u64)
                    + self.dma.contiguous_cycles(nnz as u64);
                self.buffers.insert(dst_name, TensorPayload::Csr(m));
            }
            (AxisFormat::Compressed, AxisFormat::Dense) => {
                // CSC: axis 1 compressed columns, axis 0 dense rows — the
                // format OuterSPACE streams A's columns from.
                let cols = *cfg
                    .spans
                    .get(&1)
                    .ok_or_else(|| HostError::BadConfig("missing span(1)".into()))?
                    as usize;
                let rows = cfg.spans.get(&2).copied().unwrap_or(u64::MAX) as usize;
                let col_ptr_addr = *cfg
                    .meta_addrs
                    .get(&(1, MetadataType::RowId))
                    .ok_or_else(|| HostError::BadConfig("missing col-pointer address".into()))?;
                let coord_addr = *cfg
                    .meta_addrs
                    .get(&(1, MetadataType::Coord))
                    .ok_or_else(|| HostError::BadConfig("missing COORD address".into()))?;
                let mut col_ptr = Vec::with_capacity(cols + 1);
                for n in 0..=cols {
                    col_ptr.push(self.read_u64(col_ptr_addr + n as u64)? as usize);
                }
                let nnz = col_ptr
                    .last()
                    .copied()
                    .ok_or_else(|| HostError::BadConfig("empty column-pointer array".into()))?;
                let mut row_idx = Vec::with_capacity(nnz);
                let mut values = Vec::with_capacity(nnz);
                for n in 0..nnz {
                    row_idx.push(self.read_u64(coord_addr + n as u64)? as usize);
                    values.push(self.read_f64(cfg.data_addr_src + n as u64)?);
                }
                let real_rows = if rows == usize::MAX || rows == 0 {
                    row_idx.iter().copied().max().map_or(1, |m| m + 1)
                } else {
                    rows
                };
                // The arrays are the CSR of the transpose: validate them as
                // such, then read them column-major.
                let csr_t = CsrMatrix::from_raw(cols, real_rows, col_ptr, row_idx, values);
                let m = CscMatrix::from_transposed_csr(&csr_t);
                self.cycles += self.dma.contiguous_cycles(nnz as u64)
                    + self.dma.contiguous_cycles((cols + 1) as u64)
                    + self.dma.contiguous_cycles(nnz as u64);
                self.buffers.insert(dst_name, TensorPayload::Csc(m));
            }
            (f1, f0) => {
                return Err(HostError::BadConfig(format!(
                    "unsupported axis combination {f1:?}/{f0:?}"
                )))
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stellar_tensor::gen;

    #[test]
    fn dram_exhaustion_reported() {
        let mut host = Host::new();
        // 1100 x 1100 words > the 1 MiW DRAM.
        let big = DenseMatrix::zeros(1100, 1100);
        match host.dram_store_dense(&big) {
            Err(HostError::DramExhausted { needed, capacity }) => {
                assert!(needed > capacity);
            }
            other => panic!("expected DramExhausted, got {other:?}"),
        }
        // The failed allocation must not have moved the break: a small
        // store still succeeds afterwards.
        let small = DenseMatrix::zeros(4, 4);
        host.dram_store_dense(&small).unwrap();
    }

    #[test]
    fn dense_transfer_round_trip() {
        let a = gen::dense(4, 6, 1);
        let mut host = Host::new();
        let addr = host.dram_store_dense(&a).unwrap();
        let mut p = Program::new();
        p.set_src_and_dst(MemUnit::Dram, MemUnit::buffer("SRAM_A"));
        p.set_data_addr_src(addr);
        p.set_span(0, 6);
        p.set_span(1, 4);
        p.set_axis_type(0, AxisFormat::Dense);
        p.set_axis_type(1, AxisFormat::Dense);
        p.issue();
        host.run(&p).unwrap();
        assert_eq!(host.buffer_dense("SRAM_A").unwrap(), a);
        assert!(host.cycles() > 0);
    }

    #[test]
    fn csr_transfer_round_trip() {
        let m = gen::uniform(8, 10, 0.3, 2);
        let mut host = Host::new();
        let (data, row_ids, coords) = host.dram_store_csr(&m).unwrap();
        let mut p = Program::new();
        p.set_src_and_dst(MemUnit::Dram, MemUnit::buffer("SRAM_B"));
        p.set_data_addr_src(data);
        p.set_metadata_addr_src(0, MetadataType::RowId, row_ids);
        p.set_metadata_addr_src(0, MetadataType::Coord, coords);
        p.set_span(1, 8);
        p.set_span(2, 10);
        p.set_axis_type(0, AxisFormat::Compressed);
        p.set_axis_type(1, AxisFormat::Dense);
        p.issue();
        host.run(&p).unwrap();
        match host.buffer("SRAM_B").unwrap() {
            TensorPayload::Csr(got) => assert_eq!(got, &m),
            other => panic!("expected CSR payload, got {other:?}"),
        }
    }

    #[test]
    fn buffer_to_regfile_forwarding() {
        let a = gen::dense(2, 2, 3);
        let mut host = Host::new();
        let addr = host.dram_store_dense(&a).unwrap();
        let mut p = Program::new();
        p.set_src_and_dst(MemUnit::Dram, MemUnit::buffer("SRAM_A"));
        p.set_data_addr_src(addr);
        p.set_span(0, 2);
        p.set_span(1, 2);
        p.set_axis_type(0, AxisFormat::Dense);
        p.set_axis_type(1, AxisFormat::Dense);
        p.issue();
        p.set_src_and_dst(MemUnit::buffer("SRAM_A"), MemUnit::regfile("rf_A"));
        p.issue();
        host.run(&p).unwrap();
        assert_eq!(host.buffer_dense("rf_A").unwrap(), a);
    }

    #[test]
    fn csc_transfer_round_trip() {
        let dense = gen::uniform(9, 7, 0.35, 11);
        let m = CscMatrix::from_csr(&dense);
        let mut host = Host::new();
        let (data, col_ptrs, coords) = host.dram_store_csc(&m).unwrap();
        let mut p = Program::new();
        p.set_src_and_dst(MemUnit::Dram, MemUnit::buffer("SRAM_A"));
        p.set_data_addr_src(data);
        p.set_metadata_addr_src(1, MetadataType::RowId, col_ptrs);
        p.set_metadata_addr_src(1, MetadataType::Coord, coords);
        p.set_span(1, 7); // columns
        p.set_span(2, 9); // row bound
        p.set_axis_type(0, AxisFormat::Dense);
        p.set_axis_type(1, AxisFormat::Compressed);
        p.issue();
        host.run(&p).unwrap();
        match host.buffer("SRAM_A").unwrap() {
            TensorPayload::Csc(got) => assert_eq!(got.to_dense(), dense.to_dense()),
            other => panic!("expected CSC payload, got {other:?}"),
        }
    }

    #[test]
    fn issue_without_route_fails() {
        let mut host = Host::new();
        let mut p = Program::new();
        p.issue();
        assert_eq!(host.run(&p), Err(HostError::NoRoute));
    }

    #[test]
    fn missing_metadata_fails() {
        let mut host = Host::new();
        let mut p = Program::new();
        p.set_src_and_dst(MemUnit::Dram, MemUnit::buffer("B"));
        p.set_span(1, 4);
        p.set_axis_type(0, AxisFormat::Compressed);
        p.issue();
        assert!(matches!(host.run(&p), Err(HostError::BadConfig(_))));
    }

    #[test]
    fn more_dma_slots_do_not_change_contiguous_cycles() {
        let a = gen::dense(16, 16, 4);
        let run = |slots| {
            let mut host = Host::new().with_dma(DmaModel::with_slots(slots));
            let addr = host.dram_store_dense(&a).unwrap();
            let mut p = Program::new();
            p.set_src_and_dst(MemUnit::Dram, MemUnit::buffer("X"));
            p.set_data_addr_src(addr);
            p.set_span(0, 16);
            p.set_span(1, 16);
            p.set_axis_type(0, AxisFormat::Dense);
            p.set_axis_type(1, AxisFormat::Dense);
            p.issue();
            host.run(&p).unwrap();
            host.cycles()
        };
        assert_eq!(run(1), run(16));
    }
}
