//! Dense and sparse tensor substrate for the Stellar accelerator design
//! framework.
//!
//! Stellar specifies the memory layout of each tensor with the *fibertree*
//! notation (§III-E of the paper): every axis of a tensor is independently
//! given a format — [`AxisFormat::Dense`], [`AxisFormat::Compressed`],
//! [`AxisFormat::Bitvector`] or [`AxisFormat::LinkedList`] — and composing
//! formats across axes yields CSR, CSC, block-CRS, and many other layouts.
//!
//! This crate provides:
//!
//! * [`DenseMatrix`] / [`DenseTensor`] — row-major dense storage.
//! * [`CooMatrix`], [`CsrMatrix`], [`CscMatrix`], [`BcsrMatrix`] — classic
//!   sparse formats used throughout the paper's examples.
//! * [`FiberTree`] — the general per-axis-format representation, with
//!   metadata accounting (used by the DMA traffic model).
//! * [`structured`] — NVIDIA A100-style 2:4 structured sparsity (Figure 5).
//! * [`gen`] — random sparse matrix generators (uniform, banded, power-law,
//!   diagonal) used to synthesize SuiteSparse-like workloads.
//! * [`rng`] — the in-tree deterministic PRNG behind every random choice in
//!   the workspace (workload generation, fault injection).
//! * [`ops`] — reference dense/sparse kernels (Gustavson SpGEMM,
//!   outer-product SpGEMM with partial-matrix merging) that serve as golden
//!   models for the simulated accelerators.
//!
//! # Examples
//!
//! ```
//! use stellar_tensor::{CsrMatrix, DenseMatrix};
//!
//! let a = DenseMatrix::from_rows(&[&[1.0, 0.0], &[0.0, 2.0]]);
//! let csr = CsrMatrix::from_dense(&a);
//! assert_eq!(csr.nnz(), 2);
//! assert_eq!(csr.to_dense(), a);
//! ```

mod assemble;
mod bcsr;
mod coo;
mod csc;
mod csr;
mod dense;
mod fibertree;
pub mod gen;
pub mod ops;
pub mod rng;
pub mod structured;

pub use bcsr::BcsrMatrix;
pub use coo::CooMatrix;
pub use csc::CscMatrix;
pub use csr::CsrMatrix;
pub use dense::{DenseMatrix, DenseTensor};
pub use fibertree::{AxisFormat, FiberTree, FiberTreeStats};
pub use rng::Rng64;
