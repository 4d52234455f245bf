//! Hardware metrics and the paper's weighted cost function (Eq. 10).

/// A constrained/reported hardware metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Metric {
    /// Inference latency in milliseconds.
    Latency,
    /// Inference energy in millijoules.
    Energy,
    /// Chip area in mm².
    Area,
}

impl Metric {
    /// All metrics in canonical order (latency, energy, area).
    pub const ALL: [Metric; 3] = [Metric::Latency, Metric::Energy, Metric::Area];

    /// Canonical index (0 = latency, 1 = energy, 2 = area).
    pub fn index(self) -> usize {
        match self {
            Metric::Latency => 0,
            Metric::Energy => 1,
            Metric::Area => 2,
        }
    }

    /// Unit label for display.
    pub fn unit(self) -> &'static str {
        match self {
            Metric::Latency => "ms",
            Metric::Energy => "mJ",
            Metric::Area => "mm2",
        }
    }
}

impl std::fmt::Display for Metric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Metric::Latency => f.write_str("latency"),
            Metric::Energy => f.write_str("energy"),
            Metric::Area => f.write_str("area"),
        }
    }
}

/// Evaluated hardware metrics for one (network, accelerator) pair.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct HwMetrics {
    /// Inference latency in milliseconds.
    pub latency_ms: f64,
    /// Inference energy in millijoules.
    pub energy_mj: f64,
    /// Chip area in mm².
    pub area_mm2: f64,
}

impl HwMetrics {
    /// Creates a metrics record.
    pub fn new(latency_ms: f64, energy_mj: f64, area_mm2: f64) -> Self {
        Self {
            latency_ms,
            energy_mj,
            area_mm2,
        }
    }

    /// Reads a metric by kind.
    pub fn get(&self, metric: Metric) -> f64 {
        match metric {
            Metric::Latency => self.latency_ms,
            Metric::Energy => self.energy_mj,
            Metric::Area => self.area_mm2,
        }
    }

    /// Sum of two metric records (latency/energy add across layers;
    /// area does **not** add — callers combining per-layer metrics must
    /// overwrite the area with the configuration area afterwards).
    pub fn accumulate(&mut self, other: &HwMetrics) {
        self.latency_ms += other.latency_ms;
        self.energy_mj += other.energy_mj;
        // Area is a property of the configuration, not of the workload;
        // keep the maximum so accumulation over layers stays correct.
        self.area_mm2 = self.area_mm2.max(other.area_mm2);
    }

    /// Whether all metrics are finite and non-negative.
    pub fn is_valid(&self) -> bool {
        [self.latency_ms, self.energy_mj, self.area_mm2]
            .iter()
            .all(|v| v.is_finite() && *v >= 0.0)
    }
}

impl std::fmt::Display for HwMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:.2} ms, {:.2} mJ, {:.2} mm2",
            self.latency_ms, self.energy_mj, self.area_mm2
        )
    }
}

/// Weights of the balanced hardware cost (Eq. 10):
/// `Cost_HW = C_E·Energy + C_L·Latency + C_A·Area`.
///
/// The paper chose `C_E = 2.9`, `C_L = 6.2`, `C_A = 1.0` so that "the
/// difference scale of each metric \[is\] approximately the same" (§5.3).
/// The reported CostHW values (~9.5–22 in Table 2) imply the raw
/// metrics are normalized by reference scales before weighting; we use
/// 10 mJ / 33.3 ms / 2.5 mm² which reproduces the table's magnitudes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostWeights {
    /// Energy weight `C_E`.
    pub c_e: f64,
    /// Latency weight `C_L`.
    pub c_l: f64,
    /// Area weight `C_A`.
    pub c_a: f64,
    /// Energy normalization reference, mJ.
    pub e_ref: f64,
    /// Latency normalization reference, ms.
    pub l_ref: f64,
    /// Area normalization reference, mm².
    pub a_ref: f64,
}

impl CostWeights {
    /// The paper's experimental weights: `C_E = 2.9`, `C_L = 6.2`,
    /// `C_A = 1.0` (§5.3) with the normalization references that match
    /// the CostHW magnitudes of Table 2.
    pub fn paper() -> Self {
        Self {
            c_e: 2.9,
            c_l: 6.2,
            c_a: 1.0,
            e_ref: 10.0,
            l_ref: 33.3,
            a_ref: 2.5,
        }
    }

    /// Edge-deployment weighting: latency dominates (interactive
    /// inference), area is cheap relative to the paper's balance.
    /// Normalization references are shared with [`CostWeights::paper`]
    /// so costs stay comparable across hardware targets.
    pub fn edge() -> Self {
        Self {
            c_e: 2.0,
            c_l: 8.5,
            c_a: 0.8,
            ..Self::paper()
        }
    }

    /// Datacenter/throughput weighting: energy and silicon area
    /// dominate (amortized batch serving), latency is discounted.
    pub fn datacenter() -> Self {
        Self {
            c_e: 6.0,
            c_l: 2.0,
            c_a: 2.2,
            ..Self::paper()
        }
    }

    /// Evaluates `Cost_HW` for a metrics record.
    pub fn cost(&self, metrics: &HwMetrics) -> f64 {
        self.c_e * metrics.energy_mj / self.e_ref
            + self.c_l * metrics.latency_ms / self.l_ref
            + self.c_a * metrics.area_mm2 / self.a_ref
    }
}

impl Default for CostWeights {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_is_weighted_normalized_sum() {
        let m = HwMetrics::new(10.0, 5.0, 2.0);
        let w = CostWeights::paper();
        let expected = 2.9 * 5.0 / 10.0 + 6.2 * 10.0 / 33.3 + 1.0 * 2.0 / 2.5;
        assert!((w.cost(&m) - expected).abs() < 1e-12);
    }

    #[test]
    fn cost_matches_paper_magnitudes() {
        // Anchor A of Table 2: 69.23 ms, 37.0 mJ, 2.53 mm² → CostHW 21.84.
        let m = HwMetrics::new(69.23, 37.0, 2.53);
        let cost = CostWeights::paper().cost(&m);
        assert!(
            (cost - 21.84).abs() < 4.0,
            "normalized CostHW {cost:.2} should be near the paper's 21.84"
        );
    }

    #[test]
    fn get_by_metric() {
        let m = HwMetrics::new(1.0, 2.0, 3.0);
        assert_eq!(m.get(Metric::Latency), 1.0);
        assert_eq!(m.get(Metric::Energy), 2.0);
        assert_eq!(m.get(Metric::Area), 3.0);
    }

    #[test]
    fn accumulate_adds_lat_energy_keeps_area() {
        let mut a = HwMetrics::new(1.0, 2.0, 3.0);
        a.accumulate(&HwMetrics::new(4.0, 5.0, 2.0));
        assert_eq!(a.latency_ms, 5.0);
        assert_eq!(a.energy_mj, 7.0);
        assert_eq!(a.area_mm2, 3.0);
    }

    #[test]
    fn validity_check() {
        assert!(HwMetrics::new(1.0, 1.0, 1.0).is_valid());
        assert!(!HwMetrics::new(f64::NAN, 1.0, 1.0).is_valid());
        assert!(!HwMetrics::new(-1.0, 1.0, 1.0).is_valid());
    }

    #[test]
    fn hardware_targets_reorder_designs() {
        // A slow/frugal design vs a fast/hungry one: the edge target
        // must prefer the fast design, the datacenter target the
        // frugal one — otherwise the variants are not real targets.
        let slow_frugal = HwMetrics::new(60.0, 8.0, 1.5);
        let fast_hungry = HwMetrics::new(15.0, 30.0, 4.0);
        let edge = CostWeights::edge();
        let dc = CostWeights::datacenter();
        assert!(edge.cost(&fast_hungry) < edge.cost(&slow_frugal));
        assert!(dc.cost(&slow_frugal) < dc.cost(&fast_hungry));
        // Shared normalization references keep targets comparable.
        assert_eq!(edge.e_ref, CostWeights::paper().e_ref);
        assert_eq!(dc.l_ref, CostWeights::paper().l_ref);
    }

    #[test]
    fn metric_index_roundtrip() {
        for m in Metric::ALL {
            assert_eq!(Metric::ALL[m.index()], m);
        }
    }
}
