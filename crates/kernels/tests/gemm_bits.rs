//! Bit-identity pin for the GEMM: whatever register tile the packed
//! kernel uses, and whether an operand is packed per product or once
//! for many, every product must carry the bits of the 6×8 packed kernel
//! this file keeps a copy of (or, under the size gate, of the blocked
//! reference kernel); a product added into a matrix must carry the bits
//! of that product followed by `add_assign`.

use matopt_kernels::{random_dense_normal, seeded_rng, DenseMatrix, PackedOperand};

/// A test-local copy of the 6×8 packed GEMM the crate shipped before its
/// tile widened: the reference every element's bits are pinned to.
mod packed_6x8 {
    use matopt_kernels::DenseMatrix;

    const MR: usize = 6;
    const NR: usize = 8;
    const KC: usize = 256;
    const MC: usize = 96;

    fn fmadd(acc: f64, a: f64, b: f64) -> f64 {
        if cfg!(target_feature = "fma") {
            a.mul_add(b, acc)
        } else {
            acc + a * b
        }
    }

    fn pack_b(b: &[f64], k: usize, n: usize) -> Vec<f64> {
        let np = n.div_ceil(NR);
        let mut packed = vec![0.0; np * k * NR];
        for p in 0..np {
            let j0 = p * NR;
            let w = NR.min(n - j0);
            for kk in 0..k {
                packed[p * k * NR + kk * NR..p * k * NR + kk * NR + w]
                    .copy_from_slice(&b[kk * n + j0..kk * n + j0 + w]);
            }
        }
        packed
    }

    fn pack_a(a: &[f64], m: usize, k: usize) -> Vec<f64> {
        let mp = m.div_ceil(MR);
        let mut packed = vec![0.0; mp * k * MR];
        for ip in 0..mp {
            let i0 = ip * MR;
            for r in 0..MR.min(m - i0) {
                for kk in 0..k {
                    packed[ip * k * MR + kk * MR + r] = a[(i0 + r) * k + kk];
                }
            }
        }
        packed
    }

    fn microkernel(acc: &mut [[f64; NR]; MR], apack: &[f64], bpanel: &[f64], kc: usize) {
        for (a, b) in apack.chunks_exact(MR).zip(bpanel.chunks_exact(NR)).take(kc) {
            for r in 0..MR {
                for c in 0..NR {
                    acc[r][c] = fmadd(acc[r][c], a[r], b[c]);
                }
            }
        }
    }

    pub fn matmul(lhs: &DenseMatrix, rhs: &DenseMatrix) -> DenseMatrix {
        let (m, k, n) = (lhs.rows(), lhs.cols(), rhs.cols());
        let mut out = vec![0.0; m * n];
        let bpack = pack_b(rhs.data(), k, n);
        let apack = pack_a(lhs.data(), m, k);
        for i0 in (0..m).step_by(MC) {
            let mblk = MC.min(m - i0);
            for (pc, kb) in (0..k).step_by(KC).enumerate() {
                let kcur = KC.min(k - kb);
                for p in 0..n.div_ceil(NR) {
                    let j0 = p * NR;
                    let w = NR.min(n - j0);
                    let bslice = &bpack[p * k * NR + kb * NR..];
                    for ir in (0..mblk).step_by(MR) {
                        let h = MR.min(mblk - ir);
                        let aslice = &apack[(i0 + ir) / MR * (k * MR) + kb * MR..];
                        let mut acc = [[0.0f64; NR]; MR];
                        if pc > 0 {
                            for (r, row) in acc.iter_mut().enumerate().take(h) {
                                let at = (i0 + ir + r) * n + j0;
                                row[..w].copy_from_slice(&out[at..at + w]);
                            }
                        }
                        microkernel(&mut acc, aslice, bslice, kcur);
                        for (r, row) in acc.iter().enumerate().take(h) {
                            let at = (i0 + ir + r) * n + j0;
                            out[at..at + w].copy_from_slice(&row[..w]);
                        }
                    }
                }
            }
        }
        DenseMatrix::from_vec(m, n, out)
    }
}

/// The size gate as it has always read: FMA-packed at or above it,
/// blocked reference below.
fn gated(m: usize, k: usize, n: usize) -> bool {
    m >= 6 && n >= 8 && k >= 6 && m * k * n >= 36_864
}

fn bits(d: &DenseMatrix) -> Vec<u64> {
    d.data().iter().map(|v| v.to_bits()).collect()
}

/// Normal entries scaled over six decades, with exact zeros sprinkled
/// in, so rounding differs between any two summation orders and the
/// reference kernel's zero skip is exercised.
fn operand(rows: usize, cols: usize, seed: u64) -> DenseMatrix {
    let d = random_dense_normal(rows, cols, &mut seeded_rng(seed));
    DenseMatrix::from_fn(rows, cols, |r, c| {
        let v = d.get(r, c);
        if (r * 7 + c * 3) % 11 == 0 {
            0.0
        } else {
            v * 10f64.powi(((r + 2 * c) % 7) as i32 - 3)
        }
    })
}

fn assert_pinned(m: usize, k: usize, n: usize) {
    let a = operand(m, k, (m * 1000 + k) as u64);
    let b = operand(k, n, (k * 1000 + n) as u64);
    let packed = bits(&packed_6x8::matmul(&a, &b));
    let expect = if gated(m, k, n) {
        packed.clone()
    } else {
        bits(&a.matmul_reference(&b))
    };
    assert_eq!(bits(&a.matmul(&b)), expect, "matmul {m}x{k}x{n}");
    assert_eq!(
        bits(&a.matmul_packed(&b)),
        packed,
        "matmul_packed {m}x{k}x{n}"
    );
    let (pa, pb) = (PackedOperand::lhs(&a), PackedOperand::rhs(&b));
    assert_eq!(bits(&pa.matmul(&pb)), expect, "PackedOperand {m}x{k}x{n}");
}

#[test]
fn every_gemm_path_keeps_the_6x8_kernels_bits() {
    for m in [6, 7, 13, 128, 131] {
        for n in [8, 9, 15, 16, 17, 128] {
            for k in [6, 128, 257, 600] {
                assert_pinned(m, k, n);
            }
        }
    }
}

/// `out += a × b` through [`PackedOperand::matmul_add_into`] must carry
/// the bits of `matmul` followed by `add_assign`, whether the kernel
/// folds the product in or falls back to that pair.
fn assert_fold(m: usize, k: usize, n: usize, out: &DenseMatrix) {
    let a = operand(m, k, (m * 1000 + k + 7) as u64);
    let b = operand(k, n, (k * 1000 + n + 7) as u64);
    let mut expect = out.clone();
    expect.add_assign(&a.matmul(&b));
    let mut folded = out.clone();
    PackedOperand::lhs(&a).matmul_add_into(&PackedOperand::rhs(&b), &mut folded);
    assert_eq!(bits(&folded), bits(&expect), "matmul_add_into {m}x{k}x{n}");
}

/// KC, the k depth up to which a gated product is folded in the kernel.
const KC: usize = 256;

#[test]
fn a_folded_product_keeps_the_bits_of_matmul_then_add_assign() {
    for (m, k, n) in [
        // m and n off the 6×16 (and 6×8) tile edges.
        (13, 40, 17),
        (131, 128, 9),
        (7, 200, 33),
        // k = KC folds; KC + 1 falls back.
        (40, KC, 40),
        (40, KC + 1, 40),
        // Just under the size gate (36 863 multiply-adds), and on it.
        (29, 41, 31),
        (32, 36, 32),
        // Large enough to fan out over the pool with `parallel`.
        (256, KC, 256),
    ] {
        assert_fold(m, k, n, &operand(m, n, (m * n) as u64));
    }
    assert!(!gated(29, 41, 31) && gated(32, 36, 32));
}

#[test]
fn an_empty_product_adds_positive_zero() {
    // k = 0: the product is +0.0 everywhere, so a -0.0 in `out` becomes
    // +0.0, as `add_assign` of a zero matrix makes it.
    let out = DenseMatrix::from_fn(8, 16, |r, c| if (r + c) % 2 == 0 { -0.0 } else { 1.5 });
    assert_fold(8, 0, 16, &out);
    let mut folded = out.clone();
    PackedOperand::lhs(&DenseMatrix::zeros(8, 0))
        .matmul_add_into(&PackedOperand::rhs(&DenseMatrix::zeros(0, 16)), &mut folded);
    assert!(folded
        .data()
        .iter()
        .all(|v| v.to_bits() == 0.0f64.to_bits() || *v == 1.5));
}

#[test]
fn a_fold_into_signed_zeros_infinities_and_nan_keeps_their_bits() {
    let specials = [-0.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN, 0.0, 2.0];
    let out_of = |m: usize, n: usize| {
        DenseMatrix::from_fn(m, n, |r, c| specials[(r * n + c) % specials.len()])
    };
    for (m, k, n) in [(40, 64, 40), (40, KC + 1, 40), (20, 20, 20)] {
        assert_fold(m, k, n, &out_of(m, n));
    }
}

#[test]
fn a_product_large_enough_to_fan_out_keeps_its_bits() {
    // 2·200·256·200 = 20.5 Mflop: past the 16 Mflop threshold at which
    // a build with the `parallel` feature (the workspace's) fans row
    // blocks out over the pool; 200 rows is three blocks, the last one
    // partial.
    assert_pinned(200, 256, 200);
}

#[test]
fn packed_operands_are_reusable_across_products() {
    // One packed lhs against several rhs gives each product its own
    // bits, on both sides of the gate.
    let a = operand(40, 30, 1);
    let pa = PackedOperand::lhs(&a);
    for n in [3, 8, 31, 64] {
        let b = operand(30, n, n as u64);
        assert_eq!(
            bits(&pa.matmul(&PackedOperand::rhs(&b))),
            bits(&a.matmul(&b)),
            "40x30x{n}"
        );
    }
}

#[test]
#[should_panic(expected = "packed operands multiply as lhs × rhs")]
fn packed_operands_keep_their_side() {
    let a = DenseMatrix::zeros(8, 8);
    let _ = PackedOperand::rhs(&a).matmul(&PackedOperand::lhs(&a));
}

#[test]
#[should_panic(expected = "matmul dimension mismatch")]
fn packed_operands_check_the_inner_dimension() {
    let _ = PackedOperand::lhs(&DenseMatrix::zeros(8, 7))
        .matmul(&PackedOperand::rhs(&DenseMatrix::zeros(8, 8)));
}
