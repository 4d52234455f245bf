//! Finite-difference gradient verification for the tape ops.
//!
//! Every differentiable operation exposed by [`crate::tape::Tape`] is
//! registered in [`op_registry`] under its own name and checked against
//! central finite differences on seeded random inputs. This is the
//! correctness backbone for the whole reproduction: Eq. 4–9 of the
//! paper manipulate raw gradient vectors, so they are only as correct
//! as the engine producing them. A failure names the offending op, the
//! generating seed, and the exact input element, so a broken backward
//! rule is pinned down from the assertion message alone.

use crate::rng::Rng;
use crate::tape::{Tape, Var};
use crate::tensor::Tensor;

/// Checks `d f(inputs) / d inputs` against central differences.
///
/// `f` must rebuild the graph from scratch given fresh leaves; `label`
/// names the op under test in failure messages.
fn check_gradient(label: &str, inputs: &[Tensor], f: impl Fn(&mut Tape, &[Var]) -> Var, tol: f32) {
    // Analytic gradients.
    let mut tape = Tape::new();
    let vars: Vec<Var> = inputs.iter().map(|t| tape.leaf(t.clone())).collect();
    let out = f(&mut tape, &vars);
    let grads = tape.backward(out);

    let eps = 1e-2f32; // f32 precision: keep h large, compare loosely
    for (i, input) in inputs.iter().enumerate() {
        let analytic = grads.wrt_or_zeros(vars[i], input.shape());
        for j in 0..input.len() {
            let mut plus = inputs.to_vec();
            plus[i].data_mut()[j] += eps;
            let mut minus = inputs.to_vec();
            minus[i].data_mut()[j] -= eps;

            let eval = |ts: &[Tensor]| {
                let mut t = Tape::new();
                let vs: Vec<Var> = ts.iter().map(|x| t.leaf(x.clone())).collect();
                let o = f(&mut t, &vs);
                t.value(o).item()
            };
            let numeric = (eval(&plus) - eval(&minus)) / (2.0 * eps);
            let a = analytic.data()[j];
            let denom = 1.0f32.max(a.abs()).max(numeric.abs());
            assert!(
                (a - numeric).abs() / denom < tol,
                "gradcheck[{label}] failed: input {i} element {j}: \
                 analytic {a} vs numeric {numeric}"
            );
        }
    }
}

/// How a case conditions its random inputs before differentiation.
#[derive(Clone, Copy)]
enum Prep {
    /// Use the raw Gaussian draw.
    None,
    /// `|x| + 1.0` on input 1 — keeps denominators away from zero.
    PositiveDenominator,
    /// Push input 0 at least 0.5 away from zero — keeps finite
    /// differences valid across the kink of relu/hinge/clamp ops.
    AwayFromKink,
    /// Map input 0 to a coordinate strictly inside a LUT interpolation
    /// cell (fraction in [0.3, 0.7] of cell 1) — keeps finite
    /// differences away from the piecewise-linear row boundaries.
    InsideLutCell,
}

impl Prep {
    fn apply(self, inputs: &mut [Tensor]) {
        match self {
            Prep::None => {}
            Prep::PositiveDenominator => {
                for x in inputs[1].data_mut() {
                    *x = x.abs() + 1.0;
                }
            }
            Prep::AwayFromKink => {
                for x in inputs[0].data_mut() {
                    *x = if *x > 0.0 { *x + 0.5 } else { *x - 0.5 };
                }
            }
            Prep::InsideLutCell => {
                for x in inputs[0].data_mut() {
                    *x = 1.3 + 0.4 * (x.abs() - x.abs().floor());
                }
            }
        }
    }
}

/// One registered tape op: name, input shapes, conditioning, tolerance,
/// and the graph builder (which must reduce to a scalar output).
struct OpCase {
    name: &'static str,
    shapes: &'static [&'static [usize]],
    prep: Prep,
    tol: f32,
    build: fn(&mut Tape, &[Var]) -> Var,
}

/// Every differentiable op of [`Tape`], each as its own named case.
/// Non-scalar ops are reduced with `sum` or a self-`dot` (Σ y²), whose
/// own backward rules are covered by their dedicated entries.
fn op_registry() -> Vec<OpCase> {
    vec![
        OpCase {
            name: "add",
            shapes: &[&[2, 3], &[2, 3]],
            prep: Prep::None,
            tol: 1e-2,
            build: |t, v| {
                let y = t.add(v[0], v[1]);
                t.sum(y)
            },
        },
        OpCase {
            name: "div",
            shapes: &[&[2, 2], &[2, 2]],
            prep: Prep::PositiveDenominator,
            tol: 2e-2,
            build: |t, v| {
                let y = t.div(v[0], v[1]);
                t.sum(y)
            },
        },
        OpCase {
            name: "scale",
            shapes: &[&[2, 3]],
            prep: Prep::None,
            tol: 1e-2,
            build: |t, v| {
                let y = t.scale(v[0], -1.7);
                t.sum(y)
            },
        },
        OpCase {
            name: "add_scalar",
            shapes: &[&[2, 3]],
            prep: Prep::None,
            tol: 1e-2,
            build: |t, v| {
                let y = t.add_scalar(v[0], 0.37);
                t.sum(y)
            },
        },
        OpCase {
            name: "relu",
            shapes: &[&[3, 3]],
            prep: Prep::AwayFromKink,
            tol: 1e-2,
            build: |t, v| {
                let y = t.relu(v[0]);
                t.sum(y)
            },
        },
        OpCase {
            name: "sigmoid",
            shapes: &[&[3, 3]],
            prep: Prep::None,
            tol: 2e-2,
            build: |t, v| {
                let y = t.sigmoid(v[0]);
                t.sum(y)
            },
        },
        OpCase {
            name: "exp",
            shapes: &[&[2, 3]],
            prep: Prep::None,
            tol: 2e-2,
            build: |t, v| {
                let y = t.exp(v[0]);
                t.sum(y)
            },
        },
        OpCase {
            name: "clamp_min",
            shapes: &[&[2, 3]],
            prep: Prep::AwayFromKink,
            tol: 1e-2,
            build: |t, v| {
                let y = t.clamp_min(v[0], 0.0);
                t.sum(y)
            },
        },
        OpCase {
            name: "hinge_above",
            shapes: &[&[1, 4]],
            prep: Prep::AwayFromKink,
            tol: 1e-2,
            build: |t, v| {
                let y = t.hinge_above(v[0], 0.0);
                t.sum(y)
            },
        },
        OpCase {
            name: "matmul",
            shapes: &[&[2, 3], &[3, 4]],
            prep: Prep::None,
            tol: 2e-2,
            build: |t, v| {
                let y = t.matmul(v[0], v[1]);
                t.sum(y)
            },
        },
        OpCase {
            name: "matmul_chain",
            shapes: &[&[2, 3], &[3, 4], &[4, 2]],
            prep: Prep::None,
            tol: 2e-2,
            build: |t, v| {
                let ab = t.matmul(v[0], v[1]);
                let abc = t.matmul(ab, v[2]);
                t.sum(abc)
            },
        },
        OpCase {
            name: "add_bias",
            shapes: &[&[2, 3], &[1, 3]],
            prep: Prep::None,
            tol: 1e-2,
            build: |t, v| {
                let y = t.add_bias(v[0], v[1]);
                t.dot(y, y)
            },
        },
        OpCase {
            name: "sum",
            shapes: &[&[2, 3]],
            prep: Prep::None,
            tol: 1e-2,
            build: |t, v| {
                let y = t.exp(v[0]);
                t.sum(y)
            },
        },
        OpCase {
            name: "softmax_rows",
            shapes: &[&[2, 4], &[2, 4]],
            prep: Prep::None,
            tol: 2e-2,
            build: |t, v| {
                let s = t.softmax_rows(v[0]);
                t.dot(s, v[1])
            },
        },
        OpCase {
            name: "cross_entropy_logits",
            shapes: &[&[4, 5]],
            prep: Prep::None,
            tol: 2e-2,
            build: |t, v| t.cross_entropy_logits(v[0], &[0, 2, 4, 1]),
        },
        OpCase {
            name: "mse",
            shapes: &[&[3, 3], &[3, 3]],
            prep: Prep::None,
            tol: 1e-2,
            build: |t, v| t.mse(v[0], v[1]),
        },
        OpCase {
            name: "concat_cols",
            shapes: &[&[2, 3], &[2, 2]],
            prep: Prep::None,
            tol: 2e-2,
            build: |t, v| {
                let cat = t.concat_cols(&[v[0], v[1]]);
                t.dot(cat, cat)
            },
        },
        OpCase {
            name: "slice_cols",
            shapes: &[&[2, 5]],
            prep: Prep::None,
            tol: 2e-2,
            build: |t, v| {
                let mid = t.slice_cols(v[0], 1, 4);
                t.dot(mid, mid)
            },
        },
        OpCase {
            name: "dot",
            shapes: &[&[1, 5], &[1, 5]],
            prep: Prep::None,
            tol: 1e-2,
            build: |t, v| t.dot(v[0], v[1]),
        },
        OpCase {
            name: "mul_scalar_var",
            shapes: &[&[2, 3], &[1, 1]],
            prep: Prep::None,
            tol: 2e-2,
            build: |t, v| {
                let y = t.mul_scalar_var(v[0], v[1]);
                t.dot(y, y)
            },
        },
        OpCase {
            name: "lut_row_interp",
            shapes: &[&[1, 1]],
            prep: Prep::InsideLutCell,
            tol: 2e-2,
            build: |t, v| {
                // A fixed nonlinear-in-rows table: the interpolated row
                // is piecewise linear in the coordinate.
                let table = Tensor::from_vec(vec![0.0, 1.0, 0.5, 2.5, 2.0, 4.0, 4.5, 8.0], &[4, 2]);
                let row = t.lut_row_interp(v[0], &table);
                t.dot(row, row)
            },
        },
    ]
}

fn rand_inputs(shapes: &[&[usize]], seed: u64) -> Vec<Tensor> {
    let mut rng = Rng::new(seed);
    shapes
        .iter()
        .map(|s| Tensor::randn(s, 1.0, &mut rng))
        .collect()
}

/// Sweeps every registered op over several seeds. A failure names the
/// op, the seed, and the offending input element.
#[test]
fn gradcheck_sweeps_every_tape_op() {
    let registry = op_registry();
    // Mixing the op index into the seed gives every case distinct inputs.
    for (idx, case) in registry.iter().enumerate() {
        for seed in 0..3u64 {
            let mut inputs = rand_inputs(case.shapes, seed * 1000 + idx as u64);
            case.prep.apply(&mut inputs);
            check_gradient(
                &format!("{} seed {seed}", case.name),
                &inputs,
                case.build,
                case.tol,
            );
        }
    }
}

/// The registry must cover the tape surface. The expected names come
/// from [`Tape::differentiable_op_names`], which sits next to the `Op`
/// enum behind an exhaustive match: adding an op variant fails to
/// compile there until it is named, and once its sample entry is added
/// (the one manual sync point, co-located with the match), the new
/// name fails this test until a finite-difference case for the op is
/// registered. The registry may contain *extra* cases (compositions
/// like `matmul_chain`, sugar like `hinge_above`); it may not miss an
/// op.
#[test]
fn registry_covers_the_tape_surface() {
    let registry = op_registry();
    for name in Tape::differentiable_op_names() {
        assert!(
            registry.iter().any(|c| c.name == name),
            "tape op `{name}` missing from the gradcheck registry"
        );
    }
}

/// Finite-difference check against a *compiled session*'s backward.
///
/// [`check_gradient`] exercises the tape's fresh path; fused step
/// kinds ([`crate::program`]'s `FusedLinearAdd`, `FusedDecodeHead`, …)
/// exist only after compilation, so this variant compiles once,
/// computes analytic gradients via session replay, and differentiates
/// numerically by rebinding perturbed inputs.
fn check_session_gradient(
    label: &str,
    inputs: &[Tensor],
    expected_steps: usize,
    f: impl Fn(&mut Tape, &[Var]) -> Var,
    tol: f32,
) {
    use crate::program::{Program, Session};
    use std::sync::Arc;

    let mut tape = Tape::new();
    let vars: Vec<Var> = inputs.iter().map(|t| tape.leaf(t.clone())).collect();
    let out = f(&mut tape, &vars);
    let prog = Arc::new(Program::compile(&tape, &[out], &[]));
    assert_eq!(
        prog.num_steps(),
        expected_steps,
        "gradcheck[{label}]: the pattern under test did not compile to the fused form"
    );
    let mut sess = Session::new(prog);
    let bind_all = |sess: &mut Session, ts: &[Tensor]| {
        for (v, t) in vars.iter().zip(ts) {
            sess.bind_tensor(*v, t);
        }
    };
    bind_all(&mut sess, inputs);
    sess.forward();
    sess.backward(out);
    let analytic: Vec<Option<Vec<f32>>> = vars
        .iter()
        .map(|v| sess.grad(*v).map(<[f32]>::to_vec))
        .collect();

    let eps = 1e-2f32;
    for i in 0..inputs.len() {
        let Some(analytic) = &analytic[i] else {
            continue;
        };
        for (j, &a) in analytic.iter().enumerate() {
            let mut plus = inputs.to_vec();
            plus[i].data_mut()[j] += eps;
            let mut minus = inputs.to_vec();
            minus[i].data_mut()[j] -= eps;
            let mut eval = |ts: &[Tensor]| {
                bind_all(&mut sess, ts);
                sess.forward();
                sess.scalar(out)
            };
            let numeric = (eval(&plus) - eval(&minus)) / (2.0 * eps);
            let denom = 1.0f32.max(a.abs()).max(numeric.abs());
            assert!(
                (a - numeric).abs() / denom < tol,
                "gradcheck[{label}] failed: input {i} element {j}: \
                 analytic {a} vs numeric {numeric}"
            );
        }
    }
}

/// The residual fusion (`FusedLinearAdd`): `relu(x·W + b) + x`, with
/// the residual aliasing the linear's input as in [`crate::nn::ResidualMlp`].
#[test]
fn gradcheck_fused_linear_add_step() {
    for seed in 0..3u64 {
        let inputs = rand_inputs(&[&[3, 4], &[4, 4], &[1, 4], &[3, 4]], 600 + seed);
        // 4 leaves + FusedLinearAdd + Mse.
        check_session_gradient(
            &format!("fused_linear_add seed {seed}"),
            &inputs,
            6,
            |t, v| {
                let mm = t.matmul(v[0], v[1]);
                let lin = t.add_bias(mm, v[2]);
                let act = t.relu(lin);
                let res = t.add(act, v[0]);
                t.mse(res, v[3])
            },
            3e-2,
        );
    }
}

/// The decode-head fusion (`FusedDecodeHead`): column slices of one
/// source through sigmoid/softmax, concatenated back in order.
#[test]
fn gradcheck_fused_decode_head_step() {
    for seed in 0..3u64 {
        let inputs = rand_inputs(&[&[2, 3], &[3, 7], &[2, 7]], 700 + seed);
        // 3 leaves + MatMul + FusedDecodeHead + Mse.
        check_session_gradient(
            &format!("fused_decode_head seed {seed}"),
            &inputs,
            6,
            |t, v| {
                let h = t.matmul(v[0], v[1]);
                let s1 = t.slice_cols(h, 0, 3);
                let a1 = t.softmax_rows(s1);
                let s2 = t.slice_cols(h, 3, 7);
                let a2 = t.sigmoid(s2);
                let cat = t.concat_cols(&[a1, a2]);
                t.mse(cat, v[2])
            },
            3e-2,
        );
    }
}

#[test]
fn gradcheck_residual_mlp() {
    use crate::nn::{ParamStore, ResidualMlp};
    let mut rng = Rng::new(15);
    let mut params = ParamStore::new();
    let mlp = ResidualMlp::new(&mut params, 3, 6, 2, 5, &mut rng);

    // Check gradients w.r.t. every parameter tensor via the generic harness
    // by treating parameter values as the function inputs.
    let inputs: Vec<Tensor> = params.iter().map(|(_, t)| t.clone()).collect();
    let x_data = Tensor::randn(&[2, 3], 1.0, &mut rng);
    check_gradient(
        "residual_mlp",
        &inputs,
        |t, vars| {
            // Rebind: leaves of the check are the parameters in allocation order.
            let binding = crate::nn::Binding::from_vars(vars.to_vec());
            let x = t.leaf(x_data.clone());
            let y = mlp.forward(t, &binding, x);
            t.dot(y, y)
        },
        3e-2,
    );
}
