//! Kernel-equivalence sweep: blocked/vectorized == scalar reference, bit for bit.
//!
//! The cache-blocked kernels in `hdx_tensor::kernels` promise byte
//! identity with the scalar reference loops at every shape — the
//! p-ascending fold per output element and the `av == 0.0` zero-skip
//! are the contract, and tiling/vectorization only reorder *across*
//! output elements, never within a fold. These tests pin that promise
//! across odd shapes (everything below the 8-row tile and the panel
//! widths, the 8/16-row lane edges, the row-lane/panel cutover, plus
//! the 32/64 boundaries), with `-0.0`, subnormals, and NaN routed
//! through (and around) the zero-skip, at every SIMD tier the host
//! supports, for the standalone kernels and for the fused program
//! paths built on them.

use hdx_tensor::kernels::{
    argmax, decode_head_into, matmul_blocked, matmul_into, matmul_view, row_outer_into,
    row_times_bt_into, softmax_row_at, softmax_rows_into, transpose_into, vecmat_acc_into,
    DecodeAct, Epilogue, MatRef, Tier,
};
use hdx_tensor::{Program, Rng, Session, Tape, Tensor, Var};
use std::sync::Arc;

/// Shapes the sweep crosses: every size below and just above the 8-row
/// tile and 8/16-wide micro-panels, plus the 32/64 panel boundaries.
const DIMS: [usize; 23] = [
    1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 31, 32, 33, 63, 64, 65,
];

/// Gaussian data salted with the special values the contract is about:
/// exact zeros (must be skipped), negative zeros (equal to zero, must
/// also be skipped), and subnormals (must flow through untouched).
fn salted(shape: &[usize], seed: u64) -> Vec<f32> {
    let mut rng = Rng::new(seed);
    let mut data = Tensor::randn(shape, 1.0, &mut rng).data().to_vec();
    for (i, x) in data.iter_mut().enumerate() {
        match i % 13 {
            0 => *x = 0.0,
            4 => *x = -0.0,
            8 => *x = 1.0e-41, // subnormal
            _ => {}
        }
    }
    data
}

fn assert_bits_eq(got: &[f32], want: &[f32], ctx: &str) {
    assert_eq!(got.len(), want.len(), "{ctx}: length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(
            g.to_bits() == w.to_bits(),
            "{ctx}: element {i}: {g:?} ({:#010x}) vs {w:?} ({:#010x})",
            g.to_bits(),
            w.to_bits()
        );
    }
}

/// Row-major `a · b` at `tier` through the general strided entry.
fn matmul_at(tier: Tier, a: &[f32], b: &[f32], out: &mut [f32], (m, k, n): (usize, usize, usize)) {
    let epi = Epilogue::default();
    matmul_view(
        tier,
        MatRef::rows(a, k),
        MatRef::rows(b, n),
        out,
        m,
        k,
        n,
        &epi,
    );
}

#[test]
fn blocked_matmul_matches_reference_bitwise_across_odd_shapes() {
    let max = *DIMS.last().expect("non-empty");
    let mut reference = vec![0.0f32; max * max];
    let mut blocked = vec![0.0f32; max * max];
    for &m in &DIMS {
        for &k in &DIMS {
            for &n in &DIMS {
                let seed = (m * 1_000_000 + k * 1_000 + n) as u64;
                let a = salted(&[m, k], seed);
                let b = salted(&[k, n], seed ^ 0x9e37_79b9);
                matmul_into(&a, &b, &mut reference[..m * n], m, k, n);
                matmul_blocked(&a, &b, &mut blocked[..m * n], m, k, n);
                assert_bits_eq(
                    &blocked[..m * n],
                    &reference[..m * n],
                    &format!("matmul m={m} k={k} n={n}"),
                );
                for tier in Tier::supported() {
                    matmul_at(tier, &a, &b, &mut blocked[..m * n], (m, k, n));
                    assert_bits_eq(
                        &blocked[..m * n],
                        &reference[..m * n],
                        &format!("matmul {tier:?} m={m} k={k} n={n}"),
                    );
                }
            }
        }
    }
}

/// The narrow shapes of the supernet's linears, swept densely across
/// the row-lane kernel's edges: m across the 8- and 16-row lane
/// widths, every k in 1–40, every n in 1–33 plus 47–49 (across the
/// lane/panel cutovers at n = 24 for AVX2 and n = 48 for AVX-512), at
/// every SIMD tier. Each instance carries `-0.0`,
/// subnormals, one NaN in `a` (an included term: its row must come out
/// NaN) and one NaN in `b` behind the zero-skip (only the single row
/// with a nonzero `a` at that step may see it).
#[test]
fn row_lane_sweep_matches_reference_at_every_tier() {
    // Miri interprets every flop; it checks the same code paths on a
    // sparser grid of the same edges.
    let (ms, ks, ns): (Vec<usize>, Vec<usize>, Vec<usize>) = if cfg!(miri) {
        (
            vec![8, 16, 17],
            vec![1, 2, 8, 9, 40],
            vec![1, 7, 8, 9, 24, 25, 48, 49],
        )
    } else {
        (
            vec![7, 8, 9, 15, 16, 17, 23, 24, 31, 32, 33],
            (1..=40).collect(),
            (1..=33).chain(47..=49).collect(),
        )
    };
    let tiers = Tier::supported();
    for &m in &ms {
        for &k in &ks {
            for &n in &ns {
                let seed = (m * 1_000_000 + k * 1_000 + n) as u64 ^ 0x1a7e;
                let mut a = salted(&[m, k], seed);
                let mut b = salted(&[k, n], seed ^ 0x9e37_79b9);
                let (nan_row, seen_row) = (m / 3, m - 1);
                let skip_p = k - 1;
                for i in 0..m {
                    a[i * k + skip_p] = if i % 2 == 0 { 0.0 } else { -0.0 };
                }
                a[seen_row * k + skip_p] = 0.75;
                b[skip_p * n + n / 2] = f32::NAN;
                if k >= 2 {
                    a[nan_row * k + k / 3] = f32::NAN;
                }
                let mut reference = vec![0.0f32; m * n];
                matmul_into(&a, &b, &mut reference, m, k, n);
                let ctx = format!("m={m} k={k} n={n}");
                for i in 0..m {
                    let row = &reference[i * n..(i + 1) * n];
                    let poisoned = (k >= 2 && i == nan_row) || i == seen_row;
                    assert_eq!(
                        row.iter().any(|x| x.is_nan()),
                        poisoned,
                        "{ctx}: reference row {i} NaN placement"
                    );
                }
                for &tier in &tiers {
                    let mut got = vec![f32::INFINITY; m * n];
                    matmul_at(tier, &a, &b, &mut got, (m, k, n));
                    assert_bits_eq(&got, &reference, &format!("{tier:?} {ctx}"));
                }
            }
        }
    }
}

/// The backward products read their transposed operand in place:
/// `ĝ · Wᵀ` through a transposed view of `W`, `Xᵀ · ĝ` through a
/// transposed view of `X`. Both must equal the staged
/// `transpose_into` + `matmul_into` path bit for bit, at every tier,
/// on both sides of the lane/panel cutover.
#[test]
fn transpose_free_views_match_staged_transpose_at_every_tier() {
    let rows = [1usize, 3, 8, 9, 16, 17, 20, 32, 33, 114];
    let inner = [1usize, 5, 20, 32, 33];
    let cols = [1usize, 4, 9, 16, 20, 24, 25, 32, 33, 48, 49, 64, 65];
    for &m in &rows {
        for &k in &inner {
            for &n in &cols {
                let seed = (m * 1_000_000 + k * 1_000 + n) as u64 ^ 0x7ea5;
                let epi = Epilogue::default();
                let mut staged = vec![0.0f32; m.max(k) * m.max(k).max(n)];
                let mut want = vec![0.0f32; m * n];
                // gx-style: a [m,k] · (w [n,k])ᵀ.
                let g = salted(&[m, k], seed);
                let w = salted(&[n, k], seed ^ 0x51);
                transpose_into(&w, &mut staged[..n * k], n, k);
                matmul_into(&g, &staged[..n * k], &mut want, m, k, n);
                // gW-style: (x [k,m])ᵀ · g [k,n].
                let x = salted(&[k, m], seed ^ 0x52);
                let g2 = salted(&[k, n], seed ^ 0x53);
                let mut want2 = vec![0.0f32; m * n];
                transpose_into(&x, &mut staged[..k * m], k, m);
                matmul_into(&staged[..k * m], &g2, &mut want2, m, k, n);
                for tier in Tier::supported() {
                    let ctx = format!("{tier:?} m={m} k={k} n={n}");
                    let mut got = vec![f32::INFINITY; m * n];
                    let (gv, wt) = (MatRef::rows(&g, k), MatRef::transposed(&w, k));
                    matmul_view(tier, gv, wt, &mut got, m, k, n, &epi);
                    assert_bits_eq(&got, &want, &format!("g·wᵀ {ctx}"));
                    let (xt, g2v) = (MatRef::transposed(&x, m), MatRef::rows(&g2, n));
                    matmul_view(tier, xt, g2v, &mut got, m, k, n, &epi);
                    assert_bits_eq(&got, &want2, &format!("xᵀ·g {ctx}"));
                }
            }
        }
    }
}

/// The epilogue applied in registers equals the unfused chain: fold,
/// `+ bias[j]`, `max(0.0)` (NaN → 0), then the residual add in the
/// recorded operand order — on both paths, at every tier.
#[test]
fn fused_epilogue_matches_unfused_sequence_at_every_tier() {
    for &(m, k, n) in &[
        (8usize, 20usize, 4usize),
        (32, 20, 9),
        (17, 9, 20),
        (33, 20, 32),
        (16, 5, 48),
        (9, 31, 65),
    ] {
        let seed = (m * 1_000 + k * 10 + n) as u64;
        let mut a = salted(&[m, k], seed);
        a[k + 1] = f32::NAN; // row 1 is NaN before the relu
        let b = salted(&[k, n], seed ^ 0x61);
        let bias = salted(&[1, n], seed ^ 0x62);
        let res = salted(&[m, n], seed ^ 0x63);
        let mut fold = vec![0.0f32; m * n];
        matmul_into(&a, &b, &mut fold, m, k, n);
        for relu in [false, true] {
            for residual in [None, Some(false), Some(true)] {
                let want: Vec<f32> = fold
                    .iter()
                    .enumerate()
                    .map(|(idx, &v)| {
                        let mut v = v + bias[idx % n];
                        if relu {
                            v = v.max(0.0);
                        }
                        match residual {
                            Some(true) => res[idx] + v,
                            Some(false) => v + res[idx],
                            None => v,
                        }
                    })
                    .collect();
                let epi = Epilogue {
                    bias: Some(&bias),
                    relu,
                    res: residual.map(|_| res.as_slice()),
                    res_first: residual == Some(true),
                };
                for tier in Tier::supported() {
                    let mut got = vec![f32::INFINITY; m * n];
                    let (av, bv) = (MatRef::rows(&a, k), MatRef::rows(&b, n));
                    matmul_view(tier, av, bv, &mut got, m, k, n, &epi);
                    let ctx = format!("{tier:?} m={m} k={k} n={n} relu={relu} res={residual:?}");
                    assert_bits_eq(&got, &want, &ctx);
                }
            }
        }
    }
}

#[test]
fn nan_flows_through_included_terms_and_is_skipped_with_zero() {
    let (m, k, n) = (9, 17, 13);
    // NaN in `a`: the term is included (NaN != 0.0), so it must poison
    // exactly the rows it appears in — identically in both kernels.
    let mut a = salted(&[m, k], 42);
    a[3 * k + 5] = f32::NAN;
    let b = salted(&[k, n], 43);
    let mut reference = vec![0.0f32; m * n];
    let mut blocked = vec![0.0f32; m * n];
    matmul_into(&a, &b, &mut reference, m, k, n);
    matmul_blocked(&a, &b, &mut blocked, m, k, n);
    assert_bits_eq(&blocked, &reference, "matmul with NaN in a");
    for tier in Tier::supported() {
        matmul_at(tier, &a, &b, &mut blocked, (m, k, n));
        assert_bits_eq(&blocked, &reference, &format!("{tier:?} NaN in a"));
    }
    assert!(reference[3 * n..4 * n].iter().all(|x| x.is_nan()));
    assert!(reference[..3 * n].iter().all(|x| !x.is_nan()));

    // NaN in `b` row p: rows of `a` with a zero at column p skip the
    // term entirely — `0 * NaN` is never evaluated — while rows with a
    // nonzero at p include it.
    let mut a = salted(&[m, k], 44);
    for i in 0..m {
        a[i * k + 7] = 0.0;
    }
    a[2 * k + 7] = 1.5; // the one row that sees the NaN
    let mut b = salted(&[k, n], 45);
    for j in 0..n {
        b[7 * n + j] = f32::NAN;
    }
    matmul_into(&a, &b, &mut reference, m, k, n);
    matmul_blocked(&a, &b, &mut blocked, m, k, n);
    assert_bits_eq(&blocked, &reference, "matmul with NaN behind the zero-skip");
    for tier in Tier::supported() {
        matmul_at(tier, &a, &b, &mut blocked, (m, k, n));
        assert_bits_eq(
            &blocked,
            &reference,
            &format!("{tier:?} NaN behind the zero-skip"),
        );
    }
    assert!(reference[2 * n..3 * n].iter().all(|x| x.is_nan()));
    assert!(
        reference
            .iter()
            .enumerate()
            .filter(|(i, _)| !(2 * n..3 * n).contains(i))
            .all(|(_, x)| !x.is_nan()),
        "zero-skip leaked a NaN"
    );
}

#[test]
fn tiled_transpose_matches_scalar_reference() {
    let max = *DIMS.last().expect("non-empty");
    let mut naive = vec![0.0f32; max * max];
    let mut tiled = vec![0.0f32; max * max];
    for &m in &DIMS {
        for &n in &DIMS {
            let src = salted(&[m, n], (m * 1_000 + n) as u64);
            for i in 0..m {
                for j in 0..n {
                    naive[j * m + i] = src[i * n + j];
                }
            }
            transpose_into(&src, &mut tiled[..m * n], m, n);
            assert_bits_eq(
                &tiled[..m * n],
                &naive[..m * n],
                &format!("transpose {m}x{n}"),
            );
        }
    }
}

#[test]
fn row_times_bt_matches_documented_fold() {
    // Contract: dst[c] folds g[p]·b[c][p] ascending from 0.0, zero
    // terms added (not skipped) — see the kernel doc for why the ±0.0
    // relaxation is observationally equivalent here.
    for &k in &DIMS {
        for &n in &DIMS {
            let seed = (k * 10_000 + n) as u64;
            let g = salted(&[1, n], seed);
            let b = salted(&[k, n], seed ^ 0x5bd1_e995);
            let mut want = salted(&[1, k], seed ^ 0xabcd);
            let mut got = want.clone();
            for single in [true, false] {
                for c in 0..k {
                    let mut acc = 0.0f32;
                    for p in 0..n {
                        acc += g[p] * b[c * n + p];
                    }
                    if single {
                        want[c] = acc;
                    } else {
                        want[c] += acc;
                    }
                }
                row_times_bt_into(&g, &b, &mut got, n, single);
                assert_bits_eq(
                    &got,
                    &want,
                    &format!("row_times_bt k={k} n={n} single={single}"),
                );
            }
        }
    }
}

#[test]
fn vecmat_acc_matches_scalar_fold() {
    // Contract: out[j] folds x[p]·w[p][j] ascending onto its start
    // value, one mul then one add per term, zero terms added (no skip)
    // — the plain `a = bias; a += w·x` loop, column by column.
    let ns = (1..=17).chain([48, 64, 72]);
    for n in ns {
        for k in [1usize, 16, 40] {
            let seed = (k * 30_000 + n) as u64;
            let x = salted(&[1, k], seed);
            let w = salted(&[k, n], seed ^ 0x9e37_79b9);
            let mut start = salted(&[1, n], seed ^ 0x7f4a);
            start[0] = -0.0;
            let mut want = start.clone();
            for (j, acc) in want.iter_mut().enumerate() {
                for p in 0..k {
                    *acc += x[p] * w[p * n + j];
                }
            }
            let mut got = start.clone();
            vecmat_acc_into(&x, &w, &mut got);
            assert_bits_eq(&got, &want, &format!("vecmat k={k} n={n}"));
        }
    }
}

#[test]
fn row_outer_matches_documented_fold() {
    // Contract: dst[c][j] = a[c]·g[j] with the zero-skip on a[c]
    // (accumulate leaves the row untouched; assign zero-fills it).
    for &k in &DIMS {
        for &n in &DIMS {
            let seed = (k * 20_000 + n) as u64;
            let a = salted(&[1, k], seed);
            let g = salted(&[1, n], seed ^ 0x2545_f491);
            let mut want = salted(&[k, n], seed ^ 0xdcba);
            let mut got = want.clone();
            for single in [true, false] {
                for c in 0..k {
                    let av = a[c];
                    let row = &mut want[c * n..(c + 1) * n];
                    if single {
                        if av == 0.0 {
                            row.fill(0.0);
                        } else {
                            for (d, &gv) in row.iter_mut().zip(&g) {
                                *d = av * gv;
                            }
                        }
                    } else if av != 0.0 {
                        for (d, &gv) in row.iter_mut().zip(&g) {
                            *d += av * gv;
                        }
                    }
                }
                row_outer_into(&a, &g, &mut got, n, single);
                assert_bits_eq(
                    &got,
                    &want,
                    &format!("row_outer k={k} n={n} single={single}"),
                );
            }
        }
    }
}

#[test]
fn in_place_row_scoring_matches_tensor_ops() {
    // The evaluator scores logits in place: `softmax_row_at` must give
    // `softmax_rows`' bits and `argmax` `argmax_row`'s last-max ties.
    for &n in &DIMS {
        let m = 5;
        let mut data = salted(&[m, n], (n * 40_000) as u64);
        // Row 1 ties its maximum at two positions.
        if n >= 3 {
            data[n] = 3.5;
            data[n + n - 1] = 3.5;
        }
        let t = Tensor::from_vec(data.clone(), &[m, n]);
        let probs = t.softmax_rows();
        for (i, row) in data.chunks_exact(n).enumerate() {
            assert_eq!(argmax(row), t.argmax_row(i), "argmax n={n} row {i}");
            for j in 0..n {
                assert_bits_eq(
                    &[softmax_row_at(row, j)],
                    &[probs.at(i, j)],
                    &format!("softmax_row_at n={n} ({i},{j})"),
                );
            }
        }
        if n >= 3 {
            assert_eq!(argmax(&data[n..2 * n]), n - 1, "last maximum wins");
        }
    }
}

#[test]
fn decode_head_matches_materialized_slices() {
    let parts = [
        (0usize, 3usize, DecodeAct::Sigmoid),
        (3, 7, DecodeAct::Softmax),
        (7, 9, DecodeAct::Sigmoid),
    ];
    let n = 9;
    for &m in &DIMS {
        let src = salted(&[m, n], (900 + m) as u64);
        let mut fused = vec![0.0f32; m * n];
        decode_head_into(&src, &mut fused, m, n, &parts);

        // Unfused reference: materialize each column slice, activate
        // it, scatter it back — the chain the fusion replaced.
        let mut want = vec![0.0f32; m * n];
        for &(s, e, act) in &parts {
            let w = e - s;
            let mut slice = vec![0.0f32; m * w];
            for i in 0..m {
                slice[i * w..(i + 1) * w].copy_from_slice(&src[i * n + s..i * n + e]);
            }
            let mut out = vec![0.0f32; m * w];
            match act {
                DecodeAct::Sigmoid => {
                    for (o, &x) in out.iter_mut().zip(&slice) {
                        *o = 1.0 / (1.0 + (-x).exp());
                    }
                }
                DecodeAct::Softmax => softmax_rows_into(&slice, &mut out, m, w),
            }
            for i in 0..m {
                want[i * n + s..i * n + e].copy_from_slice(&out[i * w..(i + 1) * w]);
            }
        }
        assert_bits_eq(&fused, &want, &format!("decode_head m={m}"));
    }
}

/// End-to-end: the fused program path (blocked matmul + fused linear +
/// residual fusion + decode head) replays bit-identically to a fresh
/// tape recording at odd shapes — losses and every leaf gradient.
#[test]
fn fused_program_paths_match_fresh_record_at_odd_shapes() {
    for &(m, k, h) in &[(1usize, 5usize, 9usize), (3, 17, 9), (8, 31, 9), (33, 7, 9)] {
        let mut rng = Rng::new((m * 100 + k) as u64);
        let tensors = [
            Tensor::randn(&[m, k], 1.0, &mut rng),
            Tensor::randn(&[k, h], 1.0, &mut rng),
            Tensor::randn(&[1, h], 1.0, &mut rng),
            Tensor::randn(&[h, h], 1.0, &mut rng),
            Tensor::randn(&[1, h], 1.0, &mut rng),
            Tensor::randn(&[m, h], 1.0, &mut rng),
        ];
        let build = |t: &mut Tape, v: &[Var]| {
            // linear→relu, residual add (fuses), then a decode head
            // over the full width (fuses), against an MSE target.
            let l1 = {
                let mm = t.matmul(v[0], v[1]);
                let lin = t.add_bias(mm, v[2]);
                t.relu(lin)
            };
            let l2 = {
                let mm = t.matmul(l1, v[3]);
                let lin = t.add_bias(mm, v[4]);
                let act = t.relu(lin);
                t.add(act, l1)
            };
            let head = {
                let s1 = t.slice_cols(l2, 0, 4);
                let a1 = t.softmax_rows(s1);
                let s2 = t.slice_cols(l2, 4, 9);
                let a2 = t.sigmoid(s2);
                t.concat_cols(&[a1, a2])
            };
            t.mse(head, v[5])
        };

        // Compiled replay.
        let mut tape = Tape::new();
        let vars: Vec<Var> = tensors.iter().map(|t| tape.leaf(t.clone())).collect();
        let out = build(&mut tape, &vars);
        let prog = Arc::new(Program::compile(&tape, &[out], &[]));
        let mut sess = Session::new(prog);
        for (v, t) in vars.iter().zip(&tensors) {
            sess.bind_tensor(*v, t);
        }
        sess.forward();
        sess.backward(out);

        // Fresh record.
        let mut fresh = Tape::new();
        let fvars: Vec<Var> = tensors.iter().map(|t| fresh.leaf(t.clone())).collect();
        let fout = build(&mut fresh, &fvars);
        let fgrads = fresh.backward(fout);

        let ctx = format!("program m={m} k={k}");
        assert_bits_eq(&[sess.scalar(out)], &[fresh.value(fout).item()], &ctx);
        for (i, (v, fv)) in vars.iter().zip(&fvars).enumerate() {
            let fg = fgrads.wrt(*fv).expect("leaf gradient");
            let cg = sess.grad(*v).expect("session gradient");
            assert_bits_eq(cg, fg.data(), &format!("{ctx} grad {i}"));
        }
    }
}
