//! Convolution layer descriptors and MBConv decomposition.
//!
//! The paper's network search space is built from MBConv blocks
//! (inverted residuals): a 1×1 expansion convolution, a k×k depthwise
//! convolution, and a 1×1 projection convolution. The accelerator model
//! consumes the flat list of [`ConvLayer`]s these decompose into.

/// A single convolution layer as seen by the hardware model.
///
/// `groups == 1` is a dense convolution; `groups == c_in == c_out`
/// is a depthwise convolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ConvLayer {
    /// Input channels.
    pub c_in: usize,
    /// Output channels.
    pub c_out: usize,
    /// Input spatial height.
    pub h_in: usize,
    /// Input spatial width.
    pub w_in: usize,
    /// Square kernel size (k×k).
    pub kernel: usize,
    /// Stride (same in both spatial dims).
    pub stride: usize,
    /// Channel groups (1 = dense, `c_in` = depthwise).
    pub groups: usize,
}

impl ConvLayer {
    /// Creates a dense convolution layer.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero or `c_in`/`c_out` are not
    /// divisible by `groups`.
    pub fn new(
        c_in: usize,
        c_out: usize,
        h_in: usize,
        w_in: usize,
        kernel: usize,
        stride: usize,
        groups: usize,
    ) -> Self {
        assert!(
            c_in > 0 && c_out > 0 && h_in > 0 && w_in > 0 && kernel > 0 && stride > 0 && groups > 0,
            "ConvLayer: all dimensions must be positive"
        );
        assert!(
            c_in.is_multiple_of(groups) && c_out.is_multiple_of(groups),
            "ConvLayer: channels (in {c_in}, out {c_out}) must divide groups {groups}"
        );
        Self {
            c_in,
            c_out,
            h_in,
            w_in,
            kernel,
            stride,
            groups,
        }
    }

    /// A 1×1 (pointwise) convolution.
    pub fn pointwise(c_in: usize, c_out: usize, h_in: usize, w_in: usize) -> Self {
        Self::new(c_in, c_out, h_in, w_in, 1, 1, 1)
    }

    /// A k×k depthwise convolution over `channels`.
    pub fn depthwise(
        channels: usize,
        h_in: usize,
        w_in: usize,
        kernel: usize,
        stride: usize,
    ) -> Self {
        Self::new(channels, channels, h_in, w_in, kernel, stride, channels)
    }

    /// Whether this layer is depthwise.
    pub fn is_depthwise(&self) -> bool {
        self.groups == self.c_in && self.groups == self.c_out && self.groups > 1
    }

    /// Output spatial height (same-padding semantics).
    pub fn h_out(&self) -> usize {
        self.h_in.div_ceil(self.stride)
    }

    /// Output spatial width (same-padding semantics).
    pub fn w_out(&self) -> usize {
        self.w_in.div_ceil(self.stride)
    }

    /// Output pixels per channel.
    pub fn out_pixels(&self) -> usize {
        self.h_out() * self.w_out()
    }

    /// Input channels per group.
    pub fn c_in_per_group(&self) -> usize {
        self.c_in / self.groups
    }

    /// Multiply–accumulate operations for the layer.
    pub fn macs(&self) -> u64 {
        self.out_pixels() as u64
            * self.c_out as u64
            * self.c_in_per_group() as u64
            * (self.kernel * self.kernel) as u64
    }

    /// Weight count.
    pub fn weights(&self) -> u64 {
        self.c_out as u64 * self.c_in_per_group() as u64 * (self.kernel * self.kernel) as u64
    }

    /// Input activation count.
    pub fn input_activations(&self) -> u64 {
        (self.h_in * self.w_in * self.c_in) as u64
    }

    /// Output activation count.
    pub fn output_activations(&self) -> u64 {
        (self.out_pixels() * self.c_out) as u64
    }
}

impl std::fmt::Display for ConvLayer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = if self.is_depthwise() {
            "dw"
        } else if self.kernel == 1 {
            "pw"
        } else {
            "conv"
        };
        write!(
            f,
            "{kind} {}x{} s{} {}→{} @{}x{}",
            self.kernel, self.kernel, self.stride, self.c_in, self.c_out, self.h_in, self.w_in
        )
    }
}

/// An MBConv (inverted residual) block from the NAS search space:
/// kernel ∈ {3, 5, 7}, expand ratio ∈ {3, 6} in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MbConv {
    /// Input channels.
    pub c_in: usize,
    /// Output channels.
    pub c_out: usize,
    /// Input spatial height.
    pub h_in: usize,
    /// Input spatial width.
    pub w_in: usize,
    /// Stride of the depthwise stage.
    pub stride: usize,
    /// Depthwise kernel size.
    pub kernel: usize,
    /// Channel expansion ratio.
    pub expand: usize,
}

impl MbConv {
    /// Creates an MBConv block descriptor.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn new(
        c_in: usize,
        c_out: usize,
        h_in: usize,
        w_in: usize,
        stride: usize,
        kernel: usize,
        expand: usize,
    ) -> Self {
        assert!(
            c_in > 0 && c_out > 0 && h_in > 0 && w_in > 0 && stride > 0 && kernel > 0 && expand > 0,
            "MbConv: all dimensions must be positive"
        );
        Self {
            c_in,
            c_out,
            h_in,
            w_in,
            stride,
            kernel,
            expand,
        }
    }

    /// Expanded (inner) channel count.
    pub fn expanded_channels(&self) -> usize {
        self.c_in * self.expand
    }

    /// Decomposes the block into its convolution sublayers:
    /// `[1×1 expand]` (skipped when `expand == 1`), `k×k depthwise`,
    /// `1×1 project`.
    pub fn sublayers(&self) -> Vec<ConvLayer> {
        let mid = self.expanded_channels();
        let mut layers = Vec::with_capacity(3);
        if self.expand > 1 {
            layers.push(ConvLayer::pointwise(self.c_in, mid, self.h_in, self.w_in));
        }
        layers.push(ConvLayer::depthwise(
            mid,
            self.h_in,
            self.w_in,
            self.kernel,
            self.stride,
        ));
        let h_out = self.h_in.div_ceil(self.stride);
        let w_out = self.w_in.div_ceil(self.stride);
        layers.push(ConvLayer::pointwise(mid, self.c_out, h_out, w_out));
        layers
    }

    /// Total MACs of the block.
    pub fn macs(&self) -> u64 {
        self.sublayers().iter().map(ConvLayer::macs).sum()
    }

    /// Total weights of the block.
    pub fn weights(&self) -> u64 {
        self.sublayers().iter().map(ConvLayer::weights).sum()
    }
}

impl std::fmt::Display for MbConv {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "MBConv(k{}, e{}) {}→{} s{} @{}x{}",
            self.kernel, self.expand, self.c_in, self.c_out, self.stride, self.h_in, self.w_in
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pointwise_macs() {
        // 1x1 conv: P·Cin·Cout MACs
        let l = ConvLayer::pointwise(16, 32, 8, 8);
        assert_eq!(l.macs(), 64 * 16 * 32);
        assert_eq!(l.weights(), 16 * 32);
        assert!(!l.is_depthwise());
    }

    #[test]
    fn depthwise_macs() {
        // depthwise 3x3: P·C·9 MACs
        let l = ConvLayer::depthwise(32, 8, 8, 3, 1);
        assert_eq!(l.macs(), 64 * 32 * 9);
        assert_eq!(l.weights(), 32 * 9);
        assert!(l.is_depthwise());
    }

    #[test]
    fn stride_halves_output() {
        let l = ConvLayer::depthwise(8, 32, 32, 3, 2);
        assert_eq!(l.h_out(), 16);
        assert_eq!(l.w_out(), 16);
        assert_eq!(l.out_pixels(), 256);
    }

    #[test]
    fn mbconv_decomposes_into_three_sublayers() {
        let b = MbConv::new(16, 24, 32, 32, 2, 5, 6);
        let subs = b.sublayers();
        assert_eq!(subs.len(), 3);
        // expand: 16 -> 96 @ 32x32
        assert_eq!(subs[0].c_out, 96);
        assert_eq!(subs[0].kernel, 1);
        // depthwise: 96ch 5x5 stride 2
        assert!(subs[1].is_depthwise());
        assert_eq!(subs[1].kernel, 5);
        assert_eq!(subs[1].stride, 2);
        // project: 96 -> 24 at halved resolution
        assert_eq!(subs[2].c_in, 96);
        assert_eq!(subs[2].c_out, 24);
        assert_eq!(subs[2].h_in, 16);
    }

    #[test]
    fn mbconv_expand_one_skips_expansion() {
        let b = MbConv::new(16, 16, 32, 32, 1, 3, 1);
        assert_eq!(b.sublayers().len(), 2);
    }

    #[test]
    fn larger_kernel_means_more_macs() {
        let k3 = MbConv::new(32, 32, 16, 16, 1, 3, 6);
        let k5 = MbConv::new(32, 32, 16, 16, 1, 5, 6);
        let k7 = MbConv::new(32, 32, 16, 16, 1, 7, 6);
        assert!(k3.macs() < k5.macs());
        assert!(k5.macs() < k7.macs());
    }

    #[test]
    fn larger_expand_means_more_macs() {
        let e3 = MbConv::new(32, 32, 16, 16, 1, 3, 3);
        let e6 = MbConv::new(32, 32, 16, 16, 1, 3, 6);
        assert!(e3.macs() < e6.macs());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_zero_dims() {
        let _ = ConvLayer::new(0, 8, 8, 8, 1, 1, 1);
    }

    #[test]
    #[should_panic(expected = "divide groups")]
    fn rejects_indivisible_groups() {
        let _ = ConvLayer::new(10, 8, 8, 8, 1, 1, 3);
    }

    #[test]
    fn display_labels() {
        assert!(ConvLayer::pointwise(8, 8, 4, 4)
            .to_string()
            .starts_with("pw"));
        assert!(ConvLayer::depthwise(8, 4, 4, 3, 1)
            .to_string()
            .starts_with("dw"));
    }
}
