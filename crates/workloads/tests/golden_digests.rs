//! Golden digests of every synthetic SuiteSparse instance the sparse
//! experiments run on: E9 at `(4096, 100 + n)`, E14 at `(4096, 300 + n)`
//! and E10/E15 at `(2048, 200 + n)`. A digest covers the shape and the
//! exact CSR arrays, value bits included, so a change in the generators'
//! RNG draw order or in the duplicate summation order of a format
//! conversion fails here rather than only in the benchmark.

use stellar_tensor::CsrMatrix;
use stellar_workloads::suite;

/// FNV-1a over the shape, `row_ptr`, `col_idx` and value bits.
fn digest(m: &CsrMatrix) -> u64 {
    let words = [m.rows() as u64, m.cols() as u64]
        .into_iter()
        .chain(m.row_ptr().iter().map(|&p| p as u64))
        .chain(m.col_idx().iter().map(|&c| c as u64))
        .chain(m.values().iter().map(|v| v.to_bits()));
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// `(max_dim, seed base)` of each experiment's instances; matrix `n` of
/// the suite uses seed `base + n`.
const SWEEPS: [(usize, u64); 3] = [(4096, 100), (4096, 300), (2048, 200)];

/// One row per entry of [`SWEEPS`], one digest per suite matrix.
const GOLDEN: [[u64; 18]; 3] = [
    [
        0x9ba6_8569_4877_ed38,
        0x012e_c5c4_1c2f_bebb,
        0x11b0_6f53_337c_2d8d,
        0x1e87_ae09_2546_677e,
        0x2311_36c9_58c3_a052,
        0x745a_3b66_e14b_f86e,
        0x249a_92ef_117c_92e1,
        0x9f5d_7908_74b1_4c8a,
        0x8188_11f6_411d_7b87,
        0x8cbd_c790_7b73_1e61,
        0x64f7_94c3_68e3_ea3a,
        0x9526_a8de_1bb3_d00d,
        0x8d99_1c5a_7bf9_c8a1,
        0xecd8_107b_5524_09f3,
        0x3f88_9e3b_aa70_aab6,
        0x2fbb_e516_8620_450b,
        0x594d_a176_6766_5ce1,
        0x8c90_d689_1ec4_eff7,
    ],
    [
        0xd125_ad8b_de72_9645,
        0x898e_89cb_5cb1_3238,
        0xc384_4f83_9c75_5f28,
        0xa004_626c_b937_30da,
        0x5b67_a7b8_05e3_2974,
        0x7834_6370_d314_507d,
        0x700c_220a_b325_663e,
        0x1101_9020_25fb_90aa,
        0xd205_1f2d_f8fe_de58,
        0x2bbc_e3cc_67a7_3e36,
        0x5606_37ab_a5d3_4127,
        0x83b4_78a9_de65_8db1,
        0x00b0_626f_17fb_1ee5,
        0x88b0_3876_78d8_52ec,
        0x7869_59f0_c3ab_8070,
        0xb6cb_2078_63cb_d295,
        0xb39d_f551_f4c7_b655,
        0x632d_9158_8a81_6fdb,
    ],
    [
        0x136c_98c4_9fee_1e60,
        0x9e57_589e_3760_beba,
        0x2fc8_722e_b0b9_445e,
        0xde2c_1ba0_db1e_72bd,
        0xbcc0_459e_1709_87eb,
        0xc66c_79d4_a20e_0967,
        0x26a8_c4e0_73fc_4fa3,
        0x36f8_20ef_aabf_4230,
        0xea5d_63a9_30b4_dc6e,
        0x40e2_c270_c259_28f1,
        0x89b8_4806_3e49_2609,
        0x0a4e_fe25_f58a_6640,
        0x45c2_52ce_9e6c_7a48,
        0xec52_c567_2435_23e4,
        0x0d7e_0669_c171_b839,
        0xa64e_9a84_9b70_1ad9,
        0x4a93_b0c0_3dfa_127f,
        0x93ae_8e2d_7a4e_ae23,
    ],
];

#[test]
fn suite_instances_match_golden_digests() {
    let mats = suite();
    assert_eq!(mats.len(), GOLDEN[0].len());
    let mut mismatches = Vec::new();
    for (&(max_dim, base), golden) in SWEEPS.iter().zip(&GOLDEN) {
        for (n, (m, &want)) in mats.iter().zip(golden).enumerate() {
            let got = digest(&m.instantiate(max_dim, base + n as u64));
            if got != want {
                mismatches.push(format!(
                    "{} at ({max_dim}, {}): {got:#018x} != {want:#018x}",
                    m.name,
                    base + n as u64
                ));
            }
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}
