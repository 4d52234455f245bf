//! Network geometry plans: how many searchable layers, at which
//! channel counts and spatial resolutions, plus the fixed stem/head.
//!
//! The paper (§4.4) uses 18 searchable layers for CIFAR-10 and 21 for
//! ImageNet, with a fixed first `(3,1)` block (Fig. 5). The plans here
//! follow ProxylessNAS-style staging with two (CIFAR) / three
//! (ImageNet) stride-2 transitions.

use crate::arch::Architecture;
use crate::ops::OP_SET;
use hdx_accel::{ConvLayer, MbConv};

/// A searchable layer position: its input/output channels, input
/// spatial size and stride. The operator (kernel, expand) is what the
/// search chooses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LayerSlot {
    /// Input channels.
    pub c_in: usize,
    /// Output channels.
    pub c_out: usize,
    /// Input spatial height (= width; square feature maps).
    pub hw: usize,
    /// Stride of the block.
    pub stride: usize,
}

/// A full network plan: fixed front layers, searchable slots, fixed
/// head layers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetworkPlan {
    name: String,
    fixed_front: Vec<ConvLayer>,
    slots: Vec<LayerSlot>,
    fixed_head: Vec<ConvLayer>,
}

impl NetworkPlan {
    /// The 18-layer CIFAR-10-class plan: 32×32 input, stem to 32
    /// channels, a fixed `(3,1)` block, then three stages of six
    /// searchable blocks at (32ch, 32²) → (64ch, 16²) → (128ch, 8²).
    pub fn cifar18() -> Self {
        let stem = ConvLayer::new(3, 32, 32, 32, 3, 1, 1);
        let fixed_block = MbConv::new(32, 32, 32, 32, 1, 3, 1);
        let mut fixed_front = vec![stem];
        fixed_front.extend(fixed_block.sublayers());

        let mut slots = Vec::new();
        let mut c = 32;
        let mut hw = 32;
        for &(c_out, first_stride) in &[(32, 1), (64, 2), (128, 2)] {
            for i in 0..6 {
                let stride = if i == 0 { first_stride } else { 1 };
                slots.push(LayerSlot {
                    c_in: c,
                    c_out,
                    hw,
                    stride,
                });
                c = c_out;
                hw = hw.div_ceil(stride);
            }
        }
        debug_assert_eq!(slots.len(), 18);

        let head = vec![ConvLayer::pointwise(128, 256, 8, 8)];
        Self {
            name: "cifar18".to_owned(),
            fixed_front,
            slots,
            fixed_head: head,
        }
    }

    /// The 21-layer ImageNet-class plan: 224×224 input, stride-2 stem to
    /// 32 channels at 112², a fixed `(3,1)` stride-2 block to 48
    /// channels at 56², then stages of 4/5/6/6 searchable blocks at
    /// (48ch, 56²) → (96ch, 28²) → (192ch, 14²) → (384ch, 7²).
    pub fn imagenet21() -> Self {
        let stem = ConvLayer::new(3, 32, 224, 224, 3, 2, 1);
        let fixed_block = MbConv::new(32, 48, 112, 112, 2, 3, 1);
        let mut fixed_front = vec![stem];
        fixed_front.extend(fixed_block.sublayers());

        let mut slots = Vec::new();
        let mut c = 48;
        let mut hw = 56;
        for &(c_out, first_stride, blocks) in
            &[(48, 1, 4usize), (96, 2, 5), (192, 2, 6), (384, 2, 6)]
        {
            for i in 0..blocks {
                let stride = if i == 0 { first_stride } else { 1 };
                slots.push(LayerSlot {
                    c_in: c,
                    c_out,
                    hw,
                    stride,
                });
                c = c_out;
                hw = hw.div_ceil(stride);
            }
        }
        debug_assert_eq!(slots.len(), 21);

        let head = vec![ConvLayer::pointwise(384, 768, 7, 7)];
        Self {
            name: "imagenet21".to_owned(),
            fixed_front,
            slots,
            fixed_head: head,
        }
    }

    /// Plan name ("cifar18" / "imagenet21").
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of searchable layers.
    pub fn num_layers(&self) -> usize {
        self.slots.len()
    }

    /// The searchable slots in order.
    pub fn slots(&self) -> &[LayerSlot] {
        &self.slots
    }

    /// The fixed (non-searchable) layers before the slots.
    pub fn fixed_front(&self) -> &[ConvLayer] {
        &self.fixed_front
    }

    /// The fixed layers after the slots.
    pub fn fixed_head(&self) -> &[ConvLayer] {
        &self.fixed_head
    }

    /// The MBConv block realized at `slot_index` for op `op_index`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn block_at(&self, slot_index: usize, op_index: usize) -> MbConv {
        let slot = self.slots[slot_index];
        let op = OP_SET[op_index];
        MbConv::new(
            slot.c_in,
            slot.c_out,
            slot.hw,
            slot.hw,
            slot.stride,
            op.kernel,
            op.expand,
        )
    }

    /// The full hardware layer list (fixed front + chosen blocks +
    /// fixed head) for a discrete architecture.
    ///
    /// # Panics
    ///
    /// Panics if `arch` does not match the plan's layer count.
    pub fn layers_for(&self, arch: &Architecture) -> Vec<ConvLayer> {
        assert_eq!(
            arch.num_layers(),
            self.num_layers(),
            "layers_for: architecture has {} layers, plan expects {}",
            arch.num_layers(),
            self.num_layers()
        );
        let mut layers = self.fixed_front.clone();
        for (i, &op_idx) in arch.choices().iter().enumerate() {
            layers.extend(self.block_at(i, op_idx).sublayers());
        }
        layers.extend(self.fixed_head.iter().copied());
        layers
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Total MACs of a discrete architecture on `plan`.
    fn macs(plan: &NetworkPlan, arch: &Architecture) -> u64 {
        plan.layers_for(arch).iter().map(ConvLayer::macs).sum()
    }

    #[test]
    fn cifar_plan_shape() {
        let plan = NetworkPlan::cifar18();
        assert_eq!(plan.num_layers(), 18);
        assert_eq!(plan.slots()[0].hw, 32);
        assert_eq!(plan.slots()[17].c_out, 128);
        // Two stride-2 transitions.
        let strides: usize = plan.slots().iter().filter(|s| s.stride == 2).count();
        assert_eq!(strides, 2);
    }

    #[test]
    fn imagenet_plan_shape() {
        let plan = NetworkPlan::imagenet21();
        assert_eq!(plan.num_layers(), 21);
        assert_eq!(plan.slots()[0].hw, 56);
        assert_eq!(plan.slots()[20].c_out, 384);
        let strides: usize = plan.slots().iter().filter(|s| s.stride == 2).count();
        assert_eq!(strides, 3);
    }

    #[test]
    fn slots_chain_consistently() {
        for plan in [NetworkPlan::cifar18(), NetworkPlan::imagenet21()] {
            for w in plan.slots().windows(2) {
                assert_eq!(
                    w[0].c_out,
                    w[1].c_in,
                    "channel chain broken in {}",
                    plan.name()
                );
                assert_eq!(
                    w[0].hw.div_ceil(w[0].stride),
                    w[1].hw,
                    "spatial chain broken in {}",
                    plan.name()
                );
            }
        }
    }

    #[test]
    fn layers_for_counts() {
        let plan = NetworkPlan::cifar18();
        let arch = Architecture::uniform(18, 1); // all (3,6)
        let layers = plan.layers_for(&arch);
        // stem + 2 (fixed e1 block) + 18×3 + head
        assert_eq!(layers.len(), 1 + 2 + 54 + 1);
    }

    #[test]
    fn bigger_ops_mean_more_macs() {
        let plan = NetworkPlan::cifar18();
        let small = macs(&plan, &Architecture::uniform(18, 0)); // (3,3)
        let large = macs(&plan, &Architecture::uniform(18, 5)); // (7,6)
        assert!(large > small);
        // The MAC ratio should be meaningful (roughly the expand ratio).
        assert!(large as f64 / small as f64 > 1.5);
    }

    #[test]
    fn cifar_macs_in_calibrated_range() {
        // Latency calibration (DESIGN.md §6) assumes ~100–350 M MACs.
        let plan = NetworkPlan::cifar18();
        let small = macs(&plan, &Architecture::uniform(18, 0));
        let large = macs(&plan, &Architecture::uniform(18, 5));
        assert!(small > 50_000_000, "small arch {small} MACs");
        assert!(large < 500_000_000, "large arch {large} MACs");
    }

    #[test]
    fn imagenet_macs_are_gigascale() {
        let plan = NetworkPlan::imagenet21();
        let large = macs(&plan, &Architecture::uniform(21, 5));
        assert!(large > 1_000_000_000, "ImageNet-scale arch {large} MACs");
    }

    #[test]
    #[should_panic(expected = "architecture has")]
    fn layers_for_rejects_wrong_length() {
        let plan = NetworkPlan::cifar18();
        let arch = Architecture::uniform(21, 0);
        let _ = plan.layers_for(&arch);
    }
}
