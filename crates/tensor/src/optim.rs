//! Optimizers used by the HDX reproduction.
//!
//! The paper's experimental setup (§5.1, §4.4) uses two optimizers:
//!
//! * **SGD with Nesterov momentum** (momentum 0.9, weight decay 1e-3)
//!   under a **cosine learning-rate schedule** starting at 0.008 for
//!   final-network training — [`Sgd`] + [`CosineLr`];
//! * **Adam** with learning rate 1e-4 for estimator pre-training — [`Adam`].
//!
//! Both operate on a [`ParamStore`] plus the gradient collection
//! produced by [`crate::nn::Binding::gradients`].

use crate::ckpt::{Checkpoint, CkptError};
use crate::nn::ParamStore;
use crate::tensor::Tensor;

/// Cosine learning-rate schedule `lr(s) = base · ½(1 + cos(π·s/total))`.
///
/// # Example
///
/// ```
/// use hdx_tensor::CosineLr;
/// let sched = CosineLr::new(0.008, 100);
/// assert!((sched.lr(0) - 0.008).abs() < 1e-9);
/// assert!(sched.lr(100) < 1e-6);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CosineLr {
    base: f32,
    total_steps: usize,
}

impl CosineLr {
    /// Creates a schedule decaying from `base` to ~0 over `total_steps`.
    ///
    /// # Panics
    ///
    /// Panics if `total_steps == 0`.
    pub fn new(base: f32, total_steps: usize) -> Self {
        assert!(total_steps > 0, "CosineLr: total_steps must be positive");
        Self { base, total_steps }
    }

    /// Learning rate at `step` (clamped to the schedule end).
    pub fn lr(&self, step: usize) -> f32 {
        let t = (step.min(self.total_steps)) as f32 / self.total_steps as f32;
        self.base * 0.5 * (1.0 + (std::f32::consts::PI * t).cos())
    }
}

/// Stochastic gradient descent with (Nesterov) momentum and weight decay.
#[derive(Debug, Clone)]
pub struct Sgd {
    momentum: f32,
    nesterov: bool,
    weight_decay: f32,
    velocity: Vec<Option<Tensor>>,
}

impl Sgd {
    /// Creates an optimizer; the paper's final-training settings are
    /// `Sgd::new(0.9, true, 1e-3)`.
    pub fn new(momentum: f32, nesterov: bool, weight_decay: f32) -> Self {
        Self {
            momentum,
            nesterov,
            weight_decay,
            velocity: Vec::new(),
        }
    }

    /// Plain SGD without momentum or decay.
    pub fn plain() -> Self {
        Self::new(0.0, false, 0.0)
    }

    /// Applies one update step.
    ///
    /// `grads` must be aligned with `params` (as produced by
    /// [`crate::nn::Binding::gradients`]); `None` entries are skipped.
    ///
    /// # Panics
    ///
    /// Panics if `grads.len()` differs from the number of parameters.
    pub fn step(&mut self, params: &mut ParamStore, grads: &[Option<Tensor>], lr: f32) {
        assert_eq!(
            grads.len(),
            params.len(),
            "Sgd::step: gradient/parameter count mismatch"
        );
        if self.velocity.len() != params.len() {
            self.velocity = vec![None; params.len()];
        }
        for (i, grad) in grads.iter().enumerate() {
            let Some(grad) = grad else { continue };
            let id = params.id(i);
            let mut g = grad.clone();
            if self.weight_decay != 0.0 {
                g.add_scaled_assign(params.get(id), self.weight_decay);
            }
            if self.momentum != 0.0 {
                let v = self.velocity[i].get_or_insert_with(|| Tensor::zeros(g.shape()));
                // v ← μ·v + g
                *v = v.scale(self.momentum);
                v.add_scaled_assign(&g, 1.0);
                if self.nesterov {
                    // g ← g + μ·v
                    g.add_scaled_assign(v, self.momentum);
                } else {
                    g = v.clone();
                }
            }
            params.get_mut(id).add_scaled_assign(&g, -lr);
        }
    }
}

/// Adam optimizer (Kingma & Ba) with bias correction.
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    step_count: usize,
    m: Vec<Option<Tensor>>,
    v: Vec<Option<Tensor>>,
}

impl Adam {
    /// Creates an Adam optimizer with the given learning rate and the
    /// standard defaults β1 = 0.9, β2 = 0.999, ε = 1e-8.
    pub fn new(lr: f32) -> Self {
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            step_count: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// The configured learning rate.
    pub fn lr(&self) -> f32 {
        self.lr
    }

    /// Saves the full optimizer state (hyper-parameters, step count,
    /// first/second moments) as checkpoint sections under `prefix`, so
    /// a resumed training run continues bit-identically.
    pub fn save_state(&self, ckpt: &mut Checkpoint, prefix: &str) {
        ckpt.put_f32(
            &format!("{prefix}.hyper"),
            &[4],
            &[self.lr, self.beta1, self.beta2, self.eps],
        );
        ckpt.put_u64(
            &format!("{prefix}.step_count"),
            &[1],
            &[self.step_count as u64],
        );
        for (tag, slots) in [("m", &self.m), ("v", &self.v)] {
            let mask: Vec<u64> = slots.iter().map(|s| u64::from(s.is_some())).collect();
            ckpt.put_u64(&format!("{prefix}.{tag}_mask"), &[mask.len()], &mask);
            for (i, slot) in slots.iter().enumerate() {
                if let Some(t) = slot {
                    ckpt.put_tensor(&format!("{prefix}.{tag}{i}"), t);
                }
            }
        }
    }

    /// Restores an optimizer from sections written by
    /// [`Adam::save_state`]. The round-trip is exact: every moment
    /// tensor, the bias-correction step count, and the
    /// hyper-parameters come back bit-identical.
    ///
    /// # Errors
    ///
    /// Typed [`CkptError`]s for missing/mistyped/misshapen sections.
    pub fn load_state(ckpt: &Checkpoint, prefix: &str) -> Result<Adam, CkptError> {
        let (shape, hyper) = ckpt.get_f32(&format!("{prefix}.hyper"))?;
        if shape != [4] {
            return Err(CkptError::ShapeMismatch {
                name: format!("{prefix}.hyper"),
                expected: vec![4],
                found: shape.to_vec(),
            });
        }
        let step_count = ckpt.get_scalar_u64(&format!("{prefix}.step_count"))?;
        let step_count = usize::try_from(step_count)
            .map_err(|_| CkptError::Malformed(format!("{prefix}.step_count exceeds usize")))?;
        let mut moments: Vec<Vec<Option<Tensor>>> = Vec::with_capacity(2);
        for tag in ["m", "v"] {
            let (_, mask) = ckpt.get_u64(&format!("{prefix}.{tag}_mask"))?;
            let mut slots = Vec::with_capacity(mask.len());
            for (i, &present) in mask.iter().enumerate() {
                slots.push(if present != 0 {
                    let (shape, data) = ckpt.get_f32(&format!("{prefix}.{tag}{i}"))?;
                    Some(Tensor::from_vec(data.to_vec(), shape))
                } else {
                    None
                });
            }
            moments.push(slots);
        }
        let v = moments.pop().expect("two moment groups");
        let m = moments.pop().expect("two moment groups");
        if m.len() != v.len() {
            return Err(CkptError::Malformed(format!(
                "{prefix}: moment slot counts differ ({} vs {})",
                m.len(),
                v.len()
            )));
        }
        Ok(Adam {
            lr: hyper[0],
            beta1: hyper[1],
            beta2: hyper[2],
            eps: hyper[3],
            step_count,
            m,
            v,
        })
    }

    /// Applies one update step; `None` gradient entries are skipped.
    ///
    /// # Panics
    ///
    /// Panics if `grads.len()` differs from the number of parameters.
    pub fn step(&mut self, params: &mut ParamStore, grads: &[Option<Tensor>]) {
        assert_eq!(
            grads.len(),
            params.len(),
            "Adam::step: gradient/parameter count mismatch"
        );
        if self.m.len() != params.len() {
            self.m = vec![None; params.len()];
            self.v = vec![None; params.len()];
        }
        self.step_count += 1;
        let t = self.step_count as f32;
        let bc1 = 1.0 - self.beta1.powf(t);
        let bc2 = 1.0 - self.beta2.powf(t);
        for (i, grad) in grads.iter().enumerate() {
            let Some(g) = grad else { continue };
            let id = params.id(i);
            let m = self.m[i].get_or_insert_with(|| Tensor::zeros(g.shape()));
            let v = self.v[i].get_or_insert_with(|| Tensor::zeros(g.shape()));
            *m = m.scale(self.beta1);
            m.add_scaled_assign(g, 1.0 - self.beta1);
            *v = v.scale(self.beta2);
            let g_sq = g.map(|x| x * x);
            v.add_scaled_assign(&g_sq, 1.0 - self.beta2);
            let update = m.zip(v, |mi, vi| {
                let m_hat = mi / bc1;
                let v_hat = vi / bc2;
                m_hat / (v_hat.sqrt() + self.eps)
            });
            params.get_mut(id).add_scaled_assign(&update, -self.lr);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nn::{Linear, ParamStore};
    use crate::rng::Rng;
    use crate::tape::Tape;

    /// Trains y = 2x + 1 with a 1→1 linear layer and checks convergence.
    fn train_linear(mut update: impl FnMut(&mut ParamStore, &[Option<Tensor>], usize)) -> f32 {
        let mut rng = Rng::new(7);
        let mut params = ParamStore::new();
        let layer = Linear::new(&mut params, 1, 1, &mut rng);
        for step in 0..400 {
            let mut tape = Tape::new();
            let binding = params.bind(&mut tape);
            let xs: Vec<f32> = (0..16).map(|_| rng.uniform_in(-1.0, 1.0)).collect();
            let ys: Vec<f32> = xs.iter().map(|x| 2.0 * x + 1.0).collect();
            let x = tape.leaf(Tensor::from_vec(xs, &[16, 1]));
            let y = tape.leaf(Tensor::from_vec(ys, &[16, 1]));
            let pred = layer.forward(&mut tape, &binding, x);
            let loss = tape.mse(pred, y);
            let grads = tape.backward(loss);
            let collected = binding.gradients(&grads);
            update(&mut params, &collected, step);
        }
        // Report final loss on a fresh batch.
        let mut tape = Tape::new();
        let binding = params.bind(&mut tape);
        let xs: Vec<f32> = (0..64).map(|_| rng.uniform_in(-1.0, 1.0)).collect();
        let ys: Vec<f32> = xs.iter().map(|x| 2.0 * x + 1.0).collect();
        let x = tape.leaf(Tensor::from_vec(xs, &[64, 1]));
        let y = tape.leaf(Tensor::from_vec(ys, &[64, 1]));
        let pred = layer.forward(&mut tape, &binding, x);
        let loss = tape.mse(pred, y);
        tape.value(loss).item()
    }

    #[test]
    fn sgd_converges_on_linear_regression() {
        let mut opt = Sgd::plain();
        let loss = train_linear(|p, g, _| opt.step(p, g, 0.1));
        assert!(loss < 1e-4, "SGD final loss {loss}");
    }

    #[test]
    fn sgd_with_nesterov_converges() {
        let mut opt = Sgd::new(0.9, true, 0.0);
        let loss = train_linear(|p, g, _| opt.step(p, g, 0.02));
        assert!(loss < 1e-4, "Nesterov SGD final loss {loss}");
    }

    #[test]
    fn adam_converges_on_linear_regression() {
        let mut opt = Adam::new(0.02);
        let loss = train_linear(|p, g, _| opt.step(p, g));
        assert!(loss < 1e-3, "Adam final loss {loss}");
    }

    #[test]
    fn cosine_schedule_endpoints() {
        let sched = CosineLr::new(0.008, 300);
        assert!((sched.lr(0) - 0.008).abs() < 1e-9);
        assert!((sched.lr(150) - 0.004).abs() < 1e-6);
        assert!(sched.lr(300) < 1e-7);
        // Clamps past the end rather than going negative.
        assert!(sched.lr(10_000) < 1e-7);
        assert!(sched.lr(10_000) >= 0.0);
    }

    #[test]
    fn cosine_schedule_monotone_decreasing() {
        let sched = CosineLr::new(1.0, 50);
        for s in 0..50 {
            assert!(sched.lr(s) >= sched.lr(s + 1), "not monotone at step {s}");
        }
    }

    #[test]
    fn weight_decay_shrinks_weights() {
        let mut params = ParamStore::new();
        let id = params.alloc(Tensor::row(&[10.0]));
        let mut opt = Sgd::new(0.0, false, 0.1);
        // Zero task gradient: only decay acts.
        let grads = vec![Some(Tensor::row(&[0.0]))];
        for _ in 0..10 {
            opt.step(&mut params, &grads, 0.5);
        }
        let w = params.get(id).data()[0];
        assert!(w < 10.0 && w > 0.0, "decayed weight {w}");
    }

    #[test]
    fn adam_state_round_trip_resumes_bit_identically() {
        // Train 2N steps straight vs. N steps, checkpoint (params +
        // optimizer), restore, N more steps: the weights must agree bit
        // for bit — the moments and bias-correction count all survive.
        let mut rng = Rng::new(13);
        let mut params = ParamStore::new();
        let layer = Linear::new(&mut params, 2, 1, &mut rng);
        let steps: Vec<(Tensor, Tensor)> = (0..8)
            .map(|_| {
                (
                    Tensor::randn(&[4, 2], 1.0, &mut rng),
                    Tensor::randn(&[4, 1], 1.0, &mut rng),
                )
            })
            .collect();
        let run = |params: &mut ParamStore, opt: &mut Adam, steps: &[(Tensor, Tensor)]| {
            for (x, t) in steps {
                let mut tape = Tape::new();
                let binding = params.bind(&mut tape);
                let xv = tape.leaf(x.clone());
                let tv = tape.leaf(t.clone());
                let pred = layer.forward(&mut tape, &binding, xv);
                let loss = tape.mse(pred, tv);
                let grads = tape.backward(loss);
                let collected = binding.gradients(&grads);
                opt.step(params, &collected);
            }
        };

        let mut params_straight = params.clone();
        let mut opt_straight = Adam::new(5e-2);
        run(&mut params_straight, &mut opt_straight, &steps);

        let mut params_resumed = params.clone();
        let mut opt = Adam::new(5e-2);
        run(&mut params_resumed, &mut opt, &steps[..4]);
        let mut ckpt = crate::ckpt::Checkpoint::new();
        opt.save_state(&mut ckpt, "adam");
        ckpt.put_param_store("params", &params_resumed);
        let ckpt = crate::ckpt::Checkpoint::from_bytes(&ckpt.to_bytes()).expect("parse");
        let mut opt = Adam::load_state(&ckpt, "adam").expect("restore optimizer");
        ckpt.read_param_store_into("params", &mut params_resumed)
            .expect("restore params");
        run(&mut params_resumed, &mut opt, &steps[4..]);

        for (id, t) in params_straight.iter() {
            assert_eq!(params_resumed.get(id).data(), t.data());
        }
    }

    #[test]
    #[should_panic(expected = "count mismatch")]
    fn sgd_rejects_misaligned_grads() {
        let mut params = ParamStore::new();
        params.alloc(Tensor::row(&[1.0]));
        Sgd::plain().step(&mut params, &[], 0.1);
    }
}
