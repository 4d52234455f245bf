//! Gradient manipulation — the core mechanism of HDX (§4.3, Eq. 4–9).
//!
//! When a hard constraint is violated and the global-loss gradient
//! `g_Loss` *disagrees* with the constraint gradient `g_Const`
//! (`g_Loss · g_Const < 0`), the update direction is shifted by the
//! minimum-norm vector `m*` that restores agreement with margin `δ`:
//!
//! ```text
//! m* = (δ − g_Loss · g_Const) / ‖g_Const‖² · g_Const
//! (g_Loss + m*) · g_Const = δ ≥ 0
//! ```
//!
//! so a gradient-descent step is guaranteed to reduce the constraint
//! violation. The pull magnitude δ follows the paper's schedule: while
//! the constraint is violated δ grows geometrically (`δ ← (1+p)·δ`);
//! once satisfied it resets to `δ₀`.

/// Outcome of one manipulation decision (for tracing/analysis).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ManipulationKind {
    /// Constraint satisfied: `g_Loss` used unmodified (Eq. 4 case 1).
    Satisfied,
    /// Violated but directions agree (`g_Loss · g_Const ≥ 0`): `g_Loss`
    /// used unmodified (Eq. 4 case 2).
    Agreeing,
    /// Violated and disagreeing: `m* + g_Loss` applied (Eq. 4 case 3).
    Manipulated,
}

/// Result of [`manipulate`]: the update gradient plus bookkeeping.
#[derive(Debug, Clone)]
pub struct Manipulated {
    /// The gradient to descend on.
    pub gradient: Vec<f32>,
    /// Which branch of Eq. 4 was taken.
    pub kind: ManipulationKind,
    /// The dot product `g_Loss · g_Const` before manipulation.
    pub dot: f32,
}

/// Applies Eq. 4/7: returns the update gradient given the global-loss
/// gradient, the constraint gradient, whether any constraint is
/// currently violated, and the pull margin δ.
///
/// # Panics
///
/// Panics if the two gradients have different lengths.
pub fn manipulate(g_loss: &[f32], g_const: &[f32], violated: bool, delta: f32) -> Manipulated {
    assert_eq!(
        g_loss.len(),
        g_const.len(),
        "manipulate: gradient length mismatch {} vs {}",
        g_loss.len(),
        g_const.len()
    );
    let dot: f32 = g_loss.iter().zip(g_const).map(|(a, b)| a * b).sum();
    if !violated {
        return Manipulated {
            gradient: g_loss.to_vec(),
            kind: ManipulationKind::Satisfied,
            dot,
        };
    }
    if dot >= 0.0 {
        return Manipulated {
            gradient: g_loss.to_vec(),
            kind: ManipulationKind::Agreeing,
            dot,
        };
    }
    let norm_sq: f32 = g_const.iter().map(|x| x * x).sum();
    if norm_sq <= f32::EPSILON {
        // Degenerate constraint gradient: nothing to project onto.
        return Manipulated {
            gradient: g_loss.to_vec(),
            kind: ManipulationKind::Agreeing,
            dot,
        };
    }
    // m* = (δ − dot)/‖g_Const‖² · g_Const  (Eq. 7, minimum-norm solution)
    let coeff = (delta - dot) / norm_sq;
    let gradient = g_loss
        .iter()
        .zip(g_const)
        .map(|(gl, gc)| gl + coeff * gc)
        .collect();
    Manipulated {
        gradient,
        kind: ManipulationKind::Manipulated,
        dot,
    }
}

/// The paper's δ schedule (§4.3): grow by `(1+p)` while violated, reset
/// to `δ₀` when satisfied.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeltaPolicy {
    delta0: f32,
    p: f32,
    current: f32,
}

impl DeltaPolicy {
    /// Creates a policy with initial pull `δ₀` and growth factor `p`
    /// (the paper's default experiment uses `p = 1e-2`).
    ///
    /// # Panics
    ///
    /// Panics if `delta0 <= 0` or `p <= 0`.
    pub fn new(delta0: f32, p: f32) -> Self {
        assert!(
            delta0 > 0.0,
            "DeltaPolicy: delta0 must be positive, got {delta0}"
        );
        assert!(p > 0.0, "DeltaPolicy: p must be positive, got {p}");
        Self {
            delta0,
            p,
            current: delta0,
        }
    }

    /// The paper's default: `δ₀ = 1e-3`, `p = 1e-2`. This is the one
    /// place those values are written: the default HDX method of
    /// [`crate::SearchOptions`] and the serving protocol's `hdx` defaults
    /// read them from a fresh policy, whose [`DeltaPolicy::delta`] is δ₀.
    pub fn paper() -> Self {
        Self::new(1e-3, 1e-2)
    }

    /// The current pull magnitude δ.
    pub fn delta(&self) -> f32 {
        self.current
    }

    /// The growth factor `p`.
    pub fn p(&self) -> f32 {
        self.p
    }

    /// Overrides the current pull magnitude (checkpoint restore: a
    /// resumed search continues the schedule exactly where the
    /// interrupted one stopped).
    ///
    /// # Panics
    ///
    /// Panics if `delta` is not positive.
    pub fn set_delta(&mut self, delta: f32) {
        assert!(
            delta > 0.0,
            "DeltaPolicy: delta must be positive, got {delta}"
        );
        self.current = delta;
    }

    /// Advances the schedule after an update: grows δ while the
    /// constraint is violated, resets it once satisfied.
    pub fn update(&mut self, violated: bool) {
        if violated {
            self.current *= 1.0 + self.p;
        } else {
            self.current = self.delta0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdx_tensor::Rng;

    #[test]
    fn satisfied_passes_through() {
        let m = manipulate(&[1.0, -2.0], &[3.0, 4.0], false, 0.1);
        assert_eq!(m.kind, ManipulationKind::Satisfied);
        assert_eq!(m.gradient, vec![1.0, -2.0]);
    }

    #[test]
    fn agreeing_passes_through() {
        // dot = 1·1 + 0·1 = 1 ≥ 0
        let m = manipulate(&[1.0, 0.0], &[1.0, 1.0], true, 0.1);
        assert_eq!(m.kind, ManipulationKind::Agreeing);
        assert_eq!(m.gradient, vec![1.0, 0.0]);
    }

    #[test]
    fn manipulated_gradient_satisfies_margin() {
        // Disagreeing case: the fixed-up gradient must have dot product
        // exactly δ with the constraint gradient.
        let g_loss = [1.0f32, -1.0, 0.5];
        let g_const = [-1.0f32, 0.5, 0.2];
        let delta = 0.05;
        let m = manipulate(&g_loss, &g_const, true, delta);
        assert_eq!(m.kind, ManipulationKind::Manipulated);
        let new_dot: f32 = m.gradient.iter().zip(&g_const).map(|(a, b)| a * b).sum();
        assert!(
            (new_dot - delta).abs() < 1e-5,
            "post-manipulation dot {new_dot} != δ {delta}"
        );
    }

    #[test]
    fn manipulation_is_minimum_norm() {
        // m* must be parallel to g_const (the pseudoinverse solution).
        let g_loss = [2.0f32, 0.0];
        let g_const = [-1.0f32, 1.0];
        let m = manipulate(&g_loss, &g_const, true, 0.0);
        let m_star: Vec<f32> = m.gradient.iter().zip(&g_loss).map(|(g, l)| g - l).collect();
        // Parallel check: cross product ~ 0 in 2-D.
        let cross = m_star[0] * g_const[1] - m_star[1] * g_const[0];
        assert!(cross.abs() < 1e-5, "m* not parallel to g_const: {m_star:?}");
    }

    #[test]
    fn randomized_margin_property() {
        let mut rng = Rng::new(42);
        for _ in 0..500 {
            let n = 1 + rng.below(32);
            let g_loss: Vec<f32> = (0..n).map(|_| rng.normal()).collect();
            let g_const: Vec<f32> = (0..n).map(|_| rng.normal()).collect();
            let delta = rng.uniform_in(0.0, 0.5);
            let m = manipulate(&g_loss, &g_const, true, delta);
            let new_dot: f32 = m.gradient.iter().zip(&g_const).map(|(a, b)| a * b).sum();
            // Post-condition of Eq. 4: the applied gradient never
            // disagrees with the constraint direction beyond tolerance.
            let scale: f32 = 1.0 + new_dot.abs();
            assert!(
                new_dot >= -1e-3 * scale,
                "dot {new_dot} negative after manipulation (kind {:?})",
                m.kind
            );
        }
    }

    #[test]
    fn zero_constraint_gradient_is_safe() {
        let m = manipulate(&[1.0, 2.0], &[0.0, 0.0], true, 0.1);
        assert_eq!(m.gradient, vec![1.0, 2.0]);
    }

    #[test]
    fn delta_policy_grows_and_resets() {
        let mut dp = DeltaPolicy::new(1e-3, 0.5);
        dp.update(true);
        dp.update(true);
        assert!((dp.delta() - 1e-3 * 2.25).abs() < 1e-9);
        dp.update(false);
        assert_eq!(dp.delta(), 1e-3);
    }

    #[test]
    fn delta_policy_is_monotone_while_violated() {
        let mut dp = DeltaPolicy::paper();
        let mut prev = dp.delta();
        for _ in 0..100 {
            dp.update(true);
            assert!(dp.delta() > prev);
            prev = dp.delta();
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn manipulate_rejects_mismatched_lengths() {
        let _ = manipulate(&[1.0], &[1.0, 2.0], true, 0.1);
    }
}
