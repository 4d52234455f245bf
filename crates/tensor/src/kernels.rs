//! Raw slice kernels shared by the eager [`crate::tensor`] ops and the
//! compiled executor in [`crate::program`].
//!
//! Bit-identical replay is the whole point of this module: the compiled
//! graph engine promises results exactly equal to a fresh-record run,
//! which is only possible if both paths execute the *same* floating
//! point operations in the *same* order. Any kernel with an internal
//! reduction (matrix product, softmax denominator) therefore lives
//! here, once, with [`matmul_into`] as the **scalar reference
//! contract**: the per-element sum folds over `p` in ascending order
//! starting from `0.0`, and `a` terms that compare equal to zero are
//! skipped (never added, not even as `±0.0`).
//!
//! # The blocked/vectorized kernels
//!
//! [`matmul_blocked`] (and its strided, epilogue-carrying form
//! [`matmul_view`]) computes the same contract for the compiled replay
//! path (`program.rs`). It reorders only *which output element is
//! computed when* — never the fold order *within* an element — so it
//! is bit-for-bit equal to [`matmul_into`] on every input
//! (`tests/kernel_equiv.rs` pins this across odd shapes, signed zeros,
//! subnormals, NaN placement, and every SIMD tier the host supports).
//! Two register-tiled paths share that contract:
//!
//! * **row lanes** (`m ≥ 8`, `n ≤ lane_max_n(tier)`, SIMD tiers): the
//!   vector lanes are 16 (AVX-512) or 8 (AVX2) distinct *output rows*.
//!   A row block of `a` is repacked transposed (a copy, no arithmetic;
//!   `aᵀ` views such as `Xᵀ` are already in lane layout and are read in
//!   place). For each `p` in ascending order, up to 8 column
//!   accumulators advance at once: `b[p][j]` is broadcast, multiplied
//!   by the lane vector `a[·][p]`, and added **only in the lanes where
//!   `a[i][p] != 0.0`** — the masked add *is* the reference's
//!   zero-skip (`!=` is unordered, so NaN terms stay; `±0.0` terms are
//!   skipped). Each lane is still one output element's p-ascending fold
//!   from `0.0`; the independent column accumulators only hide the add
//!   latency that a single narrow row's dependent chain cannot.
//! * **panels** (everything else — the estimator's wide shapes): output
//!   columns go in panels of 64/32/16/8 (greedy, widest first), each a
//!   monomorphized microkernel whose `[f32; W]` accumulators live in
//!   registers across the `p` loop; a sub-8 column tail runs the same
//!   microkernel at widths 1–7. Rows go in blocks of [`ROW_BLOCK`] so a
//!   packed `[k × W]` panel of `b` is reused while hot, and each row
//!   iterates a precomputed list of its `(p, a[i][p])` terms with
//!   `a[i][p] != 0.0`, ascending — exactly the reference's terms.
//!
//! Neither path tiles the `p` loop (k-blocking would reorder the fold).
//! Operands are strided views ([`MatRef`]), so the backward products
//! `ĝ·Wᵀ` and `Xᵀ·ĝ` read `W` and `X` in place instead of staging a
//! transpose; packing from a strided view is again a pure copy.
//!
//! On x86-64 both paths are instantiated under
//! `#[target_feature(enable = "avx2")]` and `"avx512f"` and dispatched
//! at runtime by [`Tier`]. Every tier runs the same source with the
//! same mul-then-add sequence — Rust never licenses FMA contraction,
//! and an FMA's single rounding *would* change bits — so wider lanes
//! only change how many independent output elements advance per
//! instruction.

/// Cumulative nominal multiply-accumulate volume of the compiled
/// executor's kernel steps (zero-skip makes the executed count ≤ this,
/// but GFLOP accounting uses the nominal figure).
static OBS_MACS: hdx_obs::Counter = hdx_obs::Counter::new("kernel.macs");
/// Logical kernel dispatches that ran the AVX-512 microkernels.
static OBS_DISPATCH_AVX512: hdx_obs::Counter = hdx_obs::Counter::new("kernel.dispatch.avx512");
/// Logical kernel dispatches that ran the AVX2 microkernels.
static OBS_DISPATCH_AVX2: hdx_obs::Counter = hdx_obs::Counter::new("kernel.dispatch.avx2");
/// Logical kernel dispatches that ran the scalar-body microkernels.
static OBS_DISPATCH_SCALAR: hdx_obs::Counter = hdx_obs::Counter::new("kernel.dispatch.scalar");

/// Records one *logical* kernel dispatch in the obs registry: the SIMD
/// tier it will run at and its nominal MAC volume. Called by the
/// compiled executor's row-partitioner once per kernel step — not per
/// worker chunk — so the counts are identical at every `HDX_JOBS`
/// value (worker count must never show in deterministic outputs, and
/// the `metrics` verb snapshots this registry). Two relaxed atomic
/// adds; counting cannot perturb results.
#[inline]
pub(crate) fn observe_dispatch(macs: usize) {
    OBS_MACS.add(macs as u64);
    match Tier::detected() {
        Tier::Avx512 => OBS_DISPATCH_AVX512.incr(),
        Tier::Avx2 => OBS_DISPATCH_AVX2.incr(),
        Tier::Scalar => OBS_DISPATCH_SCALAR.incr(),
    }
}

/// Instruction-set tier a blocked kernel runs at. Production callers
/// use [`Tier::detected`]; the equivalence tests run every kernel at
/// each of [`Tier::supported`] to pin that the tiers agree bit for bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Tier {
    /// Portable code, autovectorized for the baseline target only.
    Scalar,
    /// 256-bit lanes (`avx2`).
    Avx2,
    /// 512-bit lanes (`avx512f` + `avx512vl`).
    Avx512,
}

impl Tier {
    /// The widest tier this host supports, detected once per process.
    pub fn detected() -> Tier {
        static TIER: std::sync::OnceLock<Tier> = std::sync::OnceLock::new();
        *TIER.get_or_init(|| {
            *Self::supported()
                .last()
                .expect("scalar is always supported")
        })
    }

    /// Every tier this host can run, narrowest first. The tiers nest:
    /// each one's features include the previous one's.
    pub fn supported() -> Vec<Tier> {
        let mut tiers = vec![Tier::Scalar];
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            tiers.push(Tier::Avx2);
            if std::arch::is_x86_feature_detected!("avx512f")
                && std::arch::is_x86_feature_detected!("avx512vl")
            {
                tiers.push(Tier::Avx512);
            }
        }
        tiers
    }

    /// Panics unless the host can run this tier — the target-feature
    /// kernels below must never be entered on a CPU without the
    /// feature, whoever picked the tier.
    fn check(self) {
        assert!(
            self <= Tier::detected(),
            "SIMD tier {self:?} is not supported on this host"
        );
    }
}

/// A read-only strided matrix view: element `(r, c)` is
/// `data[r * rs + c * cs]`. [`MatRef::rows`] is plain row-major;
/// [`MatRef::transposed`] reads a row-major matrix as its transpose
/// without copying it.
#[derive(Debug, Clone, Copy)]
pub struct MatRef<'a> {
    data: &'a [f32],
    rs: usize,
    cs: usize,
}

impl<'a> MatRef<'a> {
    /// Row-major view with `cols` columns.
    pub fn rows(data: &'a [f32], cols: usize) -> Self {
        Self {
            data,
            rs: cols,
            cs: 1,
        }
    }

    /// The transpose of a row-major matrix with `cols` columns: view
    /// element `(r, c)` is the source's `(c, r)`.
    pub fn transposed(data: &'a [f32], cols: usize) -> Self {
        Self {
            data,
            rs: 1,
            cs: cols,
        }
    }

    /// The same view starting at row `lo`.
    pub(crate) fn skip_rows(self, lo: usize) -> Self {
        Self {
            data: &self.data[(lo * self.rs).min(self.data.len())..],
            ..self
        }
    }

    #[inline(always)]
    fn at(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.rs + c * self.cs]
    }

    /// Panics unless every element of an `rows × cols` view is in
    /// bounds.
    fn check(&self, rows: usize, cols: usize) {
        if rows > 0 && cols > 0 {
            assert!(
                (rows - 1) * self.rs + (cols - 1) * self.cs < self.data.len(),
                "matrix view out of bounds"
            );
        }
    }
}

/// What a blocked product does to each output element after its fold:
/// `v = acc (+ bias[j])`, then `v.max(0.0)` if `relu`, then the
/// residual add in the recorded operand order (`res[idx] + v` when
/// `res_first`, else `v + res[idx]`; `res` is laid out like `out`).
/// This is exactly the op sequence of the unfused `matmul → add_bias →
/// relu → add` chain; the row-lane path applies it to its accumulators
/// before the store, the panel path to each finished output.
#[derive(Debug, Clone, Copy, Default)]
pub struct Epilogue<'a> {
    /// Per-column bias (`n` values).
    pub bias: Option<&'a [f32]>,
    /// Clamp at zero after the bias.
    pub relu: bool,
    /// Residual added last, indexed like the output.
    pub res: Option<&'a [f32]>,
    /// Residual is the left operand of the add.
    pub res_first: bool,
}

impl Epilogue<'_> {
    /// Bias and relu for column `j` (the residual needs the element's
    /// position and is applied by [`Epilogue::residual`]).
    #[inline(always)]
    fn act(&self, v: f32, j: usize) -> f32 {
        let v = match self.bias {
            Some(bias) => v + bias[j],
            None => v,
        };
        if self.relu {
            v.max(0.0)
        } else {
            v
        }
    }

    // `res + v` spells out the recorded operand order of the unfused
    // `Add`; NaN payloads propagate from the left operand.
    #[inline(always)]
    fn residual(&self, v: f32, idx: usize) -> f32 {
        match self.res {
            Some(res) if self.res_first => res[idx] + v,
            Some(res) => v + res[idx],
            None => v,
        }
    }

    /// Applies the whole epilogue to a finished row-major output with
    /// `n` columns.
    fn finish(&self, out: &mut [f32], n: usize) {
        if self.bias.is_none() && !self.relu && self.res.is_none() {
            return;
        }
        for (r, row) in out.chunks_exact_mut(n).enumerate() {
            for (j, o) in row.iter_mut().enumerate() {
                *o = self.residual(self.act(*o, j), r * n + j);
            }
        }
    }
}

/// `out = a · b` for row-major `a [m,k]`, `b [k,n]`, `out [m,n]`.
///
/// `out` is fully overwritten. The ikj loop order (streaming through
/// `b` rows) and the zero-skip are part of the numeric contract: the
/// per-element sums fold in `p` order starting from 0. This is the
/// scalar reference kernel — the eager [`crate::tensor`] path runs it
/// directly, and [`matmul_blocked`] is pinned bit-for-bit against it.
pub fn matmul_into(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    out.fill(0.0);
    for i in 0..m {
        let arow = &a[i * k..(i + 1) * k];
        let orow = &mut out[i * n..(i + 1) * n];
        for (p, &av) in arow.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            let brow = &b[p * n..(p + 1) * n];
            for (o, &bv) in orow.iter_mut().zip(brow) {
                *o += av * bv;
            }
        }
    }
}

/// Rows per m-tile of the panel path: the nonzero lists of a block are
/// built together and a packed panel is reused across the block.
/// Parallel row partitions align their chunk sizes to this, so worker
/// boundaries fall on tile boundaries.
pub const ROW_BLOCK: usize = 8;

/// Widest output the row-lane path takes at `tier` (`m ≥ 8` is the
/// other half of the cutover). Narrow products are latency-bound in
/// the panel path, whose sub-8 tail runs one dependent accumulator
/// chain per row; wider ones fill whole panels, whose zero-skip skips
/// the work a masked lane still does. Measured on a 2-vCPU AVX-512
/// host, lanes against panels over m ∈ {8, 16, 32, 114}, k ∈ {9, 20,
/// 64, 114}, n ∈ {4, …, 64}, for row-major, `·Wᵀ` and `Xᵀ·` operands:
/// at AVX-512 lanes win through n = 48 (1.1–2× at n = 40–48, m ≥ 16)
/// and lose to full 64-wide panels; at AVX2 they win through n = 24
/// and lose at n = 32 on row-major operands (0.57–0.85×). The micro
/// bench's `raw.matmul_*` rows time shapes on both sides of each
/// cutover at both tiers.
/// The scalar tier has no lanes to fill, so it always takes panels.
fn lane_max_n(tier: Tier) -> usize {
    match tier {
        Tier::Avx512 => 48,
        Tier::Avx2 => 24,
        Tier::Scalar => 0,
    }
}

/// Output columns one row-lane pass advances per `p` step.
const LANE_GROUP: usize = 8;

/// Minimum rows before panel packing pays for itself (the copy is
/// amortized over `m` rows; row-vector graphs read `b` in place).
const PACK_MIN_ROWS: usize = 4;

/// Thread-local scratch for the blocked kernels: the packed panels (or
/// packed lane block) and the per-row-block nonzero lists.
/// Thread-local (not caller-passed) so every pool worker packs into its
/// own buffer.
struct Scratch {
    pack: Vec<f32>,
    nz_idx: Vec<u32>,
    nz_val: Vec<f32>,
    nz_len: [usize; ROW_BLOCK],
    panels: Vec<(usize, usize, usize)>, // (j0, width, pack offset)
}

thread_local! {
    static SCRATCH: std::cell::RefCell<Scratch> = const {
        std::cell::RefCell::new(Scratch {
            pack: Vec::new(),
            nz_idx: Vec::new(),
            nz_val: Vec::new(),
            nz_len: [0; ROW_BLOCK],
            panels: Vec::new(),
        })
    };
}

/// Cache-blocked, vectorized `out = a · b` for row-major operands —
/// bit-for-bit identical to [`matmul_into`] on every input. Used by
/// the compiled replay path; the eager path keeps the scalar
/// reference.
pub fn matmul_blocked(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    matmul_view(
        Tier::detected(),
        MatRef::rows(a, k),
        MatRef::rows(b, n),
        out,
        m,
        k,
        n,
        &Epilogue::default(),
    );
}

/// `out[m,n] = epi(a · b)` over strided views `a [m,k]` and `b [k,n]`
/// at an explicit SIMD tier: the general form of [`matmul_blocked`]
/// (see the module docs for the two paths and why each is
/// bit-identical to [`matmul_into`] followed by the unfused epilogue).
///
/// # Panics
///
/// Panics if a view or `out` is too short for the shape, or if the
/// host does not support `tier`.
#[allow(clippy::too_many_arguments)]
pub fn matmul_view(
    tier: Tier,
    a: MatRef,
    b: MatRef,
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    epi: &Epilogue,
) {
    assert!(out.len() >= m * n, "output too short");
    a.check(m, k);
    b.check(k, n);
    if let Some(bias) = epi.bias {
        assert!(bias.len() >= n, "bias too short");
    }
    if let Some(res) = epi.res {
        assert!(res.len() >= m * n, "residual too short");
    }
    tier.check();
    let out = &mut out[..m * n];
    if m == 0 || n == 0 {
        return;
    }
    SCRATCH.with(|cell| {
        let s = &mut *cell.borrow_mut();
        if m >= ROW_BLOCK && n <= lane_max_n(tier) {
            lanes(tier, a, b, out, m, k, n, epi, &mut s.pack);
        } else {
            panels(tier, a, b, out, m, k, n, s);
            epi.finish(out, n);
        }
    });
}

// ---- row-lane path ---------------------------------------------------

/// A row-lane kernel at one SIMD tier: `L` output rows per vector, up
/// to [`LANE_GROUP`] column accumulators per pass.
///
/// Written with intrinsics, unlike the panel path's one generic body:
/// a generic `[[f32; L]; G]` body whose zero-skip is the select
/// `if a != 0.0 { acc + a·b } else { acc }` vectorizes to the same
/// masked add without LTO, but under the workspace's thin-LTO release
/// profile LLVM scalarized it (or vectorized it across columns with
/// gathers) and it ran 5–15× slower than these kernels, and slower
/// than the panels it replaces.
trait LaneKernel {
    /// Output rows per vector.
    const L: usize;

    /// Copies `a(i0 + l, p)` for `l < lanes`, `p < k` to
    /// `pack[p * L + l]`, zero-filling lanes `lanes..L` — verbatim
    /// values, no arithmetic.
    ///
    /// # Safety
    ///
    /// The host supports the tier; `a` is in bounds for
    /// `(i0 + lanes) × k`; `pack` holds `k * L` values.
    // SAFETY: declaration only; implementors rely on the contract above.
    unsafe fn pack(a: MatRef, i0: usize, lanes: usize, k: usize, pack: &mut [f32]);

    /// Folds output columns `j0..j0 + G` of rows `i0..i0 + lanes`,
    /// whose `a` values for step `p` sit at `at[p * astride..][..L]`
    /// (zero in lanes past `lanes`, so their masks stay off), applies
    /// `epi`, and stores the block into `out` (row stride `n`).
    ///
    /// # Safety
    ///
    /// The host supports the tier; `at` holds `(k - 1) * astride + L`
    /// values when `k > 0`; `b` is in bounds for `k × (j0 + G)`; `out`
    /// (and `epi.res`) hold the `(i0 + lanes) × n` block; `epi.bias`
    /// holds `j0 + G` values.
    // SAFETY: declaration only; implementors rely on the contract above.
    #[allow(clippy::too_many_arguments)]
    unsafe fn group<const G: usize>(
        at: &[f32],
        astride: usize,
        b: MatRef,
        j0: usize,
        k: usize,
        epi: &Epilogue,
        out: &mut [f32],
        n: usize,
        i0: usize,
        lanes: usize,
    );
}

/// AVX2 tier: 8 lanes per `ymm`, the zero-skip as a compare + blend.
#[cfg(target_arch = "x86_64")]
struct Avx2Lanes;

#[cfg(target_arch = "x86_64")]
impl LaneKernel for Avx2Lanes {
    const L: usize = 8;

    // SAFETY: `unsafe` for `#[target_feature]`; the body is safe code.
    #[target_feature(enable = "avx2")]
    unsafe fn pack(a: MatRef, i0: usize, lanes: usize, k: usize, pack: &mut [f32]) {
        pack[..k * Self::L].fill(0.0);
        for l in 0..lanes {
            let dst = pack[l..].iter_mut().step_by(Self::L);
            if a.cs == 1 {
                let row = &a.data[(i0 + l) * a.rs..][..k];
                for (d, &v) in dst.zip(row) {
                    *d = v;
                }
            } else {
                for (p, d) in dst.take(k).enumerate() {
                    *d = a.at(i0 + l, p);
                }
            }
        }
    }

    // SAFETY: the trait's contract; every raw access is in a commented
    // block below.
    #[target_feature(enable = "avx2")]
    unsafe fn group<const G: usize>(
        at: &[f32],
        astride: usize,
        b: MatRef,
        j0: usize,
        k: usize,
        epi: &Epilogue,
        out: &mut [f32],
        n: usize,
        i0: usize,
        lanes: usize,
    ) {
        use std::arch::x86_64::*;
        let zero = _mm256_setzero_ps();
        let mut acc = [zero; G];
        let (ap, bp) = (at.as_ptr(), b.data.as_ptr());
        for p in 0..k {
            // SAFETY: the caller guarantees `at` holds 8 values from
            // `p * astride` and `b` is in bounds at (p, j0 + g).
            unsafe {
                let av = _mm256_loadu_ps(ap.add(p * astride));
                // `!=` is unordered: NaN lanes stay in, ±0.0 lanes skip.
                let keep = _mm256_cmp_ps::<_CMP_NEQ_UQ>(av, zero);
                let brow = bp.add(p * b.rs + j0 * b.cs);
                for (g, o) in acc.iter_mut().enumerate() {
                    let prod = _mm256_mul_ps(av, _mm256_set1_ps(*brow.add(g * b.cs)));
                    *o = _mm256_blendv_ps(*o, _mm256_add_ps(*o, prod), keep);
                }
            }
        }
        // Epilogue on the accumulators, then a transposing store (AVX2
        // has no scatter) that adds the residual.
        let mut tile = [[0.0f32; 8]; G];
        for ((g, o), col) in acc.iter().enumerate().zip(tile.iter_mut()) {
            let mut v = *o;
            if let Some(bias) = epi.bias {
                v = _mm256_add_ps(v, _mm256_set1_ps(bias[j0 + g]));
            }
            if epi.relu {
                // `maxps(v, 0)` is `v > 0 ? v : 0`: NaN → 0, exactly
                // `f32::max(v, 0.0)`.
                v = _mm256_max_ps(v, zero);
            }
            // SAFETY: `col` holds the 8 lanes.
            unsafe { _mm256_storeu_ps(col.as_mut_ptr(), v) };
        }
        let rows = out[i0 * n..(i0 + lanes) * n].chunks_exact_mut(n);
        for (l, row) in rows.enumerate() {
            let base = (i0 + l) * n + j0;
            for (g, o) in row[j0..j0 + G].iter_mut().enumerate() {
                *o = epi.residual(tile[g][l], base + g);
            }
        }
    }
}

/// AVX-512 tier: 16 lanes per `zmm`, the zero-skip as a masked add;
/// lane vectors are gathered in and results scattered out.
#[cfg(target_arch = "x86_64")]
struct Avx512Lanes;

#[cfg(target_arch = "x86_64")]
impl Avx512Lanes {
    /// `[0, step, 2·step, …]` lane offsets and the mask of the first
    /// `lanes` lanes.
    // SAFETY: `unsafe` solely because of `#[target_feature]`; only
    // called from the AVX-512 kernels below.
    #[target_feature(enable = "avx512f")]
    unsafe fn lane_offsets(step: usize, lanes: usize) -> (std::arch::x86_64::__m512i, u16) {
        use std::arch::x86_64::*;
        assert!(
            i32::try_from(step * 16).is_ok(),
            "lane offsets must fit i32"
        );
        let step = step as i32;
        let offsets = _mm512_mullo_epi32(
            _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15),
            _mm512_set1_epi32(step),
        );
        (offsets, (1u32 << lanes).wrapping_sub(1) as u16)
    }
}

#[cfg(target_arch = "x86_64")]
impl LaneKernel for Avx512Lanes {
    const L: usize = 16;

    // SAFETY: the trait's contract; the gathers are in a commented block.
    #[target_feature(enable = "avx512f", enable = "avx512vl")]
    unsafe fn pack(a: MatRef, i0: usize, lanes: usize, k: usize, pack: &mut [f32]) {
        use std::arch::x86_64::*;
        let (offsets, live) = Self::lane_offsets(a.rs, lanes);
        let base = a.data[i0 * a.rs..].as_ptr();
        for p in 0..k {
            // SAFETY: lanes `l < lanes` read `a(i0 + l, p)`, in bounds
            // by the caller's contract; masked-off lanes are not read.
            // `pack` holds `k * 16` values.
            unsafe {
                let v = _mm512_mask_i32gather_ps::<4>(
                    _mm512_setzero_ps(),
                    live,
                    offsets,
                    base.add(p * a.cs),
                );
                _mm512_storeu_ps(pack.as_mut_ptr().add(p * Self::L), v);
            }
        }
    }

    // SAFETY: the trait's contract; every raw access is in a commented
    // block below.
    #[target_feature(enable = "avx512f", enable = "avx512vl")]
    unsafe fn group<const G: usize>(
        at: &[f32],
        astride: usize,
        b: MatRef,
        j0: usize,
        k: usize,
        epi: &Epilogue,
        out: &mut [f32],
        n: usize,
        i0: usize,
        lanes: usize,
    ) {
        use std::arch::x86_64::*;
        let zero = _mm512_setzero_ps();
        let mut acc = [zero; G];
        let (ap, bp) = (at.as_ptr(), b.data.as_ptr());
        for p in 0..k {
            // SAFETY: the caller guarantees `at` holds 16 values from
            // `p * astride` and `b` is in bounds at (p, j0 + g).
            unsafe {
                let av = _mm512_loadu_ps(ap.add(p * astride));
                // `!=` is unordered: NaN lanes stay in, ±0.0 lanes skip.
                let keep = _mm512_cmp_ps_mask::<_CMP_NEQ_UQ>(av, zero);
                let brow = bp.add(p * b.rs + j0 * b.cs);
                for (g, o) in acc.iter_mut().enumerate() {
                    let prod = _mm512_mul_ps(av, _mm512_set1_ps(*brow.add(g * b.cs)));
                    *o = _mm512_mask_add_ps(*o, keep, *o, prod);
                }
            }
        }
        // Epilogue on the accumulators, then one scatter per column.
        let (offsets, live) = Self::lane_offsets(n, lanes);
        let first = i0 * n + j0;
        for (g, o) in acc.iter().enumerate() {
            let mut v = *o;
            if let Some(bias) = epi.bias {
                v = _mm512_add_ps(v, _mm512_set1_ps(bias[j0 + g]));
            }
            if epi.relu {
                // `maxps(v, 0)` is `v > 0 ? v : 0`: NaN → 0, exactly
                // `f32::max(v, 0.0)`.
                v = _mm512_max_ps(v, zero);
            }
            // SAFETY: lanes `l < lanes` address element
            // `(i0 + l) * n + j0 + g` of the caller's `out`/`res`
            // block; masked-off lanes are not touched.
            unsafe {
                if let Some(res) = epi.res {
                    let r = _mm512_mask_i32gather_ps::<4>(
                        zero,
                        live,
                        offsets,
                        res.as_ptr().add(first + g),
                    );
                    v = if epi.res_first {
                        _mm512_add_ps(r, v)
                    } else {
                        _mm512_add_ps(v, r)
                    };
                }
                _mm512_mask_i32scatter_ps::<4>(out.as_mut_ptr().add(first + g), live, offsets, v);
            }
        }
    }
}

/// The row-lane path over all of `out`, `K::L` rows per block.
///
/// # Safety
///
/// The host supports `K`'s tier; `a`, `b`, `out`, and the epilogue's
/// slices were bounds-checked for the shape (`matmul_view`).
// SAFETY: forwards the contract above to `LaneKernel`'s methods.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
unsafe fn lanes_body<K: LaneKernel>(
    a: MatRef,
    b: MatRef,
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    epi: &Epilogue,
    pack: &mut Vec<f32>,
) {
    let l_max = K::L;
    if pack.len() < k * l_max {
        pack.resize(k * l_max, 0.0);
    }
    let mut i0 = 0usize;
    while i0 < m {
        let lanes = (m - i0).min(l_max);
        // Lane vectors: read in place when `a` is a transposed view
        // and the block is full, else copied into `[k × L]`.
        let (at, astride): (&[f32], usize) = if a.rs == 1 && lanes == l_max && k > 0 {
            (&a.data[i0..], a.cs)
        } else {
            // SAFETY: forwarded contract; `pack` was sized above.
            unsafe { K::pack(a, i0, lanes, k, pack) };
            (pack.as_slice(), l_max)
        };
        assert!(k == 0 || (k - 1) * astride + l_max <= at.len());
        let mut j0 = 0usize;
        while j0 < n {
            let g = (n - j0).min(LANE_GROUP);
            macro_rules! group {
                ($($w:literal)*) => {
                    match g {
                        $($w => {
                            // SAFETY: tier and bounds as guaranteed by
                            // this fn's caller plus the assert above;
                            // `j0 + g <= n`, `i0 + lanes <= m`.
                            unsafe {
                                K::group::<$w>(at, astride, b, j0, k, epi, out, n, i0, lanes)
                            };
                        })*
                        _ => unreachable!("lane group width"),
                    }
                };
            }
            group!(1 2 3 4 5 6 7 8);
            j0 += g;
        }
        i0 += lanes;
    }
}

// SAFETY: `unsafe` because of `#[target_feature]` — callers must have
// verified AVX-512 support at runtime (`Tier::check`) and bounds-checked
// the views (`lanes_body`'s contract).
#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx512f", enable = "avx512vl")]
unsafe fn lanes_avx512(
    a: MatRef,
    b: MatRef,
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    epi: &Epilogue,
    pack: &mut Vec<f32>,
) {
    // SAFETY: forwarded contract.
    unsafe { lanes_body::<Avx512Lanes>(a, b, out, m, k, n, epi, pack) }
}

// SAFETY: `unsafe` because of `#[target_feature]` — callers must have
// verified AVX2 support at runtime (`Tier::check`) and bounds-checked
// the views (`lanes_body`'s contract).
#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx2")]
unsafe fn lanes_avx2(
    a: MatRef,
    b: MatRef,
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    epi: &Epilogue,
    pack: &mut Vec<f32>,
) {
    // SAFETY: forwarded contract.
    unsafe { lanes_body::<Avx2Lanes>(a, b, out, m, k, n, epi, pack) }
}

#[allow(clippy::too_many_arguments)]
fn lanes(
    tier: Tier,
    a: MatRef,
    b: MatRef,
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    epi: &Epilogue,
    pack: &mut Vec<f32>,
) {
    match tier {
        // SAFETY: `matmul_view` ran `Tier::check` (the host has
        // avx512f+avx512vl) and bounds-checked both views.
        #[cfg(target_arch = "x86_64")]
        Tier::Avx512 => unsafe { lanes_avx512(a, b, out, m, k, n, epi, pack) },
        // SAFETY: `matmul_view` ran `Tier::check` (the host has avx2)
        // and bounds-checked both views.
        #[cfg(target_arch = "x86_64")]
        Tier::Avx2 => unsafe { lanes_avx2(a, b, out, m, k, n, epi, pack) },
        _ => unreachable!("the scalar tier has no row lanes (`lane_max_n`)"),
    }
}

// ---- panel path ------------------------------------------------------

/// Greedy panel decomposition of `n` columns into widths 64/32/16/8;
/// returns the first column *not* covered by a panel (the sub-8 tail).
fn plan_panels(n: usize, panels: &mut Vec<(usize, usize, usize)>, k: usize) -> usize {
    panels.clear();
    let mut j0 = 0usize;
    let mut off = 0usize;
    for w in [64usize, 32, 16, 8] {
        while n - j0 >= w {
            panels.push((j0, w, off));
            off += k * w;
            j0 += w;
            if w == 64 {
                continue; // 64-wide panels repeat; narrower ones fire once
            }
            break;
        }
    }
    j0
}

/// One panel-microkernel invocation: folds the row's nonzero `a` terms
/// (ascending `p`) into `W` register accumulators and stores them.
/// `bsrc` is either a packed panel (`stride == W`, `boff` = the panel
/// offset) or a row-major `b` itself (`stride == n`, `boff == j0`).
#[inline(always)]
fn micro_body<const W: usize>(
    nz_idx: &[u32],
    nz_val: &[f32],
    bsrc: &[f32],
    stride: usize,
    boff: usize,
    orow: &mut [f32],
) {
    let mut acc = [0.0f32; W];
    for (&pi, &av) in nz_idx.iter().zip(nz_val) {
        let base = pi as usize * stride + boff;
        let brow = &bsrc[base..base + W];
        for jj in 0..W {
            acc[jj] += av * brow[jj];
        }
    }
    orow[..W].copy_from_slice(&acc);
}

// SAFETY: `unsafe` solely because of `#[target_feature]` — callers
// must have verified AVX2 support at runtime (`Tier::check`); the body
// itself is safe code.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn micro_avx2<const W: usize>(
    nz_idx: &[u32],
    nz_val: &[f32],
    bsrc: &[f32],
    stride: usize,
    boff: usize,
    orow: &mut [f32],
) {
    // Same source, same op order as `micro_body` — the target feature
    // only widens the autovectorized lanes (no FMA contraction).
    micro_body::<W>(nz_idx, nz_val, bsrc, stride, boff, orow);
}

// SAFETY: `unsafe` solely because of `#[target_feature]` — callers
// must have verified AVX-512 support at runtime (`Tier::check`); the
// body itself is safe code.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f", enable = "avx512vl")]
unsafe fn micro_avx512<const W: usize>(
    nz_idx: &[u32],
    nz_val: &[f32],
    bsrc: &[f32],
    stride: usize,
    boff: usize,
    orow: &mut [f32],
) {
    // Same source, same op order as `micro_body` — 16-lane registers
    // double the no-FMA mul+add throughput ceiling over AVX2.
    micro_body::<W>(nz_idx, nz_val, bsrc, stride, boff, orow);
}

#[inline]
fn micro<const W: usize>(
    tier: Tier,
    nz_idx: &[u32],
    nz_val: &[f32],
    bsrc: &[f32],
    stride: usize,
    boff: usize,
    orow: &mut [f32],
) {
    match tier {
        // SAFETY: `matmul_view` ran `Tier::check`, so the host has
        // avx512f+avx512vl.
        #[cfg(target_arch = "x86_64")]
        Tier::Avx512 => unsafe { micro_avx512::<W>(nz_idx, nz_val, bsrc, stride, boff, orow) },
        // SAFETY: `matmul_view` ran `Tier::check`, so the host has avx2.
        #[cfg(target_arch = "x86_64")]
        Tier::Avx2 => unsafe { micro_avx2::<W>(nz_idx, nz_val, bsrc, stride, boff, orow) },
        _ => micro_body::<W>(nz_idx, nz_val, bsrc, stride, boff, orow),
    }
}

/// Runtime-width dispatch to the monomorphized microkernels.
#[allow(clippy::too_many_arguments)]
#[inline]
fn micro_dyn(
    tier: Tier,
    w: usize,
    nz_idx: &[u32],
    nz_val: &[f32],
    bsrc: &[f32],
    stride: usize,
    boff: usize,
    orow: &mut [f32],
) {
    let args = (nz_idx, nz_val, bsrc, stride, boff, orow);
    macro_rules! width {
        ($($w:literal)*) => {
            match w {
                $($w => micro::<$w>(tier, args.0, args.1, args.2, args.3, args.4, args.5),)*
                _ => unreachable!("panel width"),
            }
        };
    }
    width!(1 2 3 4 5 6 7 8 16 32 64);
}

/// The panel path over all of `out` (no epilogue).
#[allow(clippy::too_many_arguments)]
fn panels(
    tier: Tier,
    a: MatRef,
    b: MatRef,
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    s: &mut Scratch,
) {
    let Scratch {
        pack,
        nz_idx,
        nz_val,
        nz_len,
        panels,
    } = s;
    let mut tail = plan_panels(n, panels, k);
    // A strided `b` is always packed; its sub-8 tail becomes one more
    // (narrow) packed panel.
    let strided_b = b.cs != 1;
    if strided_b && tail < n {
        panels.push((tail, n - tail, k * tail));
        tail = n;
    }
    let do_pack = (m >= PACK_MIN_ROWS || strided_b) && !panels.is_empty();
    if do_pack {
        pack.clear();
        pack.resize(k * tail, 0.0);
        for &(j0, w, off) in panels.iter() {
            for p in 0..k {
                let dst = &mut pack[off + p * w..off + p * w + w];
                if strided_b {
                    for (jj, d) in dst.iter_mut().enumerate() {
                        *d = b.at(p, j0 + jj);
                    }
                } else {
                    let src = p * b.rs + j0;
                    dst.copy_from_slice(&b.data[src..src + w]);
                }
            }
        }
    }
    nz_idx.resize(ROW_BLOCK * k, 0);
    nz_val.resize(ROW_BLOCK * k, 0.0);

    let mut i0 = 0usize;
    while i0 < m {
        let i1 = (i0 + ROW_BLOCK).min(m);
        // Nonzero lists for this row block: exactly the terms the
        // reference adds, in ascending p (NaN != 0.0 keeps NaNs;
        // -0.0 == 0.0 skips signed zeros, matching the reference).
        for i in i0..i1 {
            let r = i - i0;
            // Branchless compaction: unconditional stores with a
            // data-dependent length bump. Activation matrices are
            // ~half zeros in no predictable pattern, so a branchy scan
            // would eat a mispredict per element.
            let idx = &mut nz_idx[r * k..r * k + k];
            let val = &mut nz_val[r * k..r * k + k];
            let mut len = 0usize;
            let mut push = |p: usize, av: f32| {
                idx[len] = p as u32;
                val[len] = av;
                len += (av != 0.0) as usize;
            };
            if a.cs == 1 {
                let arow = &a.data[i * a.rs..i * a.rs + k];
                for (p, &av) in arow.iter().enumerate() {
                    push(p, av);
                }
            } else {
                for p in 0..k {
                    push(p, a.at(i, p));
                }
            }
            nz_len[r] = len;
        }
        for &(j0, w, off) in panels.iter() {
            let (bsrc, stride, boff): (&[f32], usize, usize) = if do_pack {
                (pack.as_slice(), w, off)
            } else {
                (b.data, b.rs, j0)
            };
            for i in i0..i1 {
                let r = i - i0;
                let (idx, val) = (
                    &nz_idx[r * k..r * k + nz_len[r]],
                    &nz_val[r * k..r * k + nz_len[r]],
                );
                let orow = &mut out[i * n + j0..i * n + j0 + w];
                micro_dyn(tier, w, idx, val, bsrc, stride, boff, orow);
            }
        }
        if tail < n {
            // Sub-8 column tail of a row-major `b` (or a whole matrix
            // narrower than a panel), read in place: one narrow
            // microkernel pass per row, same ascending-p fold over the
            // same nonzero terms.
            for i in i0..i1 {
                let r = i - i0;
                let (idx, val) = (
                    &nz_idx[r * k..r * k + nz_len[r]],
                    &nz_val[r * k..r * k + nz_len[r]],
                );
                let orow = &mut out[i * n + tail..(i + 1) * n];
                micro_dyn(tier, n - tail, idx, val, b.data, b.rs, tail, orow);
            }
        }
        i0 = i1;
    }
}

/// Transpose-free `dst[c] (=|+=) Σ_p g[p] · b[c·n + p]` for the
/// row-vector backward `ga = g · bᵀ` (`dst` holds `dst.len()`
/// consecutive `c` rows of `b`; callers pass per-worker chunks).
///
/// Each output element folds `p` ascending exactly like the staged
/// `transpose_into` + [`matmul_into`] path. The only divergence from
/// that reference is that zero `g[p]` terms are added (as `±0.0`)
/// instead of branched over — which can differ solely in the sign of
/// an IEEE zero, a bit no comparison (`==`), argmax, or downstream
/// arithmetic in this workspace can distinguish. The blocked scheme
/// advances four independent `c` accumulators per `p` step (the fold
/// within each stays strictly sequential), which is what gives the
/// latency-bound scalar chain its instruction-level parallelism.
pub fn row_times_bt_into(g: &[f32], b: &[f32], dst: &mut [f32], n: usize, single: bool) {
    debug_assert_eq!(b.len(), dst.len() * n);
    debug_assert!(g.len() >= n);
    let g = &g[..n];
    let rows = dst.len();
    let mut c = 0usize;
    while c + 4 <= rows {
        let b0 = &b[c * n..c * n + n];
        let b1 = &b[(c + 1) * n..(c + 1) * n + n];
        let b2 = &b[(c + 2) * n..(c + 2) * n + n];
        let b3 = &b[(c + 3) * n..(c + 3) * n + n];
        let (mut a0, mut a1, mut a2, mut a3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
        for p in 0..n {
            let gv = g[p];
            a0 += gv * b0[p];
            a1 += gv * b1[p];
            a2 += gv * b2[p];
            a3 += gv * b3[p];
        }
        if single {
            dst[c] = a0;
            dst[c + 1] = a1;
            dst[c + 2] = a2;
            dst[c + 3] = a3;
        } else {
            dst[c] += a0;
            dst[c + 1] += a1;
            dst[c + 2] += a2;
            dst[c + 3] += a3;
        }
        c += 4;
    }
    for c in c..rows {
        let brow = &b[c * n..c * n + n];
        let mut acc = 0.0f32;
        for (&gv, &bv) in g.iter().zip(brow) {
            acc += gv * bv;
        }
        if single {
            dst[c] = acc;
        } else {
            dst[c] += acc;
        }
    }
}

/// Transpose-free `gb = aᵀ · g` for a row-vector product: an outer
/// product `dst[c][j] (=|+=) a[c] · g[j]` over `dst.len()/n` rows, with
/// the shared kernel's zero-skip on `a[c]`. Each output row is one
/// independent vectorizable tile; there is no reduction, so any write
/// order is bit-identical.
pub fn row_outer_into(a: &[f32], g: &[f32], dst: &mut [f32], n: usize, single: bool) {
    debug_assert_eq!(dst.len(), a.len() * n);
    debug_assert!(g.len() >= n);
    let g = &g[..n];
    for (c, &av) in a.iter().enumerate() {
        let drow = &mut dst[c * n..(c + 1) * n];
        if single {
            if av == 0.0 {
                drow.fill(0.0);
            } else {
                for (dv, &gv) in drow.iter_mut().zip(g) {
                    *dv = av * gv;
                }
            }
        } else if av != 0.0 {
            for (dv, &gv) in drow.iter_mut().zip(g) {
                *dv += av * gv;
            }
        }
    }
}

/// `out[j] = out[j] + x[p] · w[p][j]` for row-major `w [x.len(), n]`
/// and `n = out.len()`, folding `p` ascending from whatever `out`
/// holds — the accumulating vector–matrix product of a hand-written
/// `a = bias; for p { a += x[p] · w[p][j] }` loop, bit for bit.
///
/// Unlike [`matmul_into`] there is no zero-skip (every term is added,
/// so a `-0.0` start value meets `+0.0` products exactly as in the
/// scalar loop) and the start value is the caller's, not `0.0`. The
/// inner loop runs along a contiguous row of `w` with a separate mul
/// and add (no FMA), so it vectorizes at the build's baseline target
/// while each output element keeps its own p-ascending fold.
///
/// # Panics
///
/// Panics if `w` is shorter than `x.len() · out.len()`.
pub fn vecmat_acc_into(x: &[f32], w: &[f32], out: &mut [f32]) {
    assert!(w.len() >= x.len() * out.len(), "matrix too short");
    if out.is_empty() {
        return;
    }
    for (&xp, wrow) in x.iter().zip(w.chunks_exact(out.len())) {
        for (o, &wv) in out.iter_mut().zip(wrow) {
            *o += xp * wv;
        }
    }
}

/// `out = srcᵀ` for row-major `src [m,n]`, `out [n,m]` — cache-blocked:
/// 16×16 tiles keep both the source rows and the destination columns
/// inside L1 while a tile is live, instead of the column-strided
/// scatter walking the whole destination per source row. A transpose
/// performs no arithmetic, so any visit order is bit-identical.
pub fn transpose_into(src: &[f32], out: &mut [f32], m: usize, n: usize) {
    debug_assert_eq!(src.len(), m * n);
    debug_assert_eq!(out.len(), m * n);
    const TB: usize = 16;
    let mut i0 = 0usize;
    while i0 < m {
        let i1 = (i0 + TB).min(m);
        let mut j0 = 0usize;
        while j0 < n {
            let j1 = (j0 + TB).min(n);
            for i in i0..i1 {
                for j in j0..j1 {
                    out[j * m + i] = src[i * n + j];
                }
            }
            j0 = j1;
        }
        i0 = i1;
    }
}

/// Row-wise numerically-stabilized softmax of `src [m,n]` into `out`.
pub fn softmax_rows_into(src: &[f32], out: &mut [f32], m: usize, n: usize) {
    debug_assert_eq!(src.len(), m * n);
    debug_assert_eq!(out.len(), m * n);
    for i in 0..m {
        let row = &src[i * n..(i + 1) * n];
        let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let mut denom = 0.0;
        for j in 0..n {
            let e = (row[j] - max).exp();
            out[i * n + j] = e;
            denom += e;
        }
        for j in 0..n {
            out[i * n + j] /= denom;
        }
    }
}

/// Entry `j` of the softmax of one row: the max/exp/denominator fold
/// of [`softmax_rows_into`], without materializing the other entries,
/// so it is bit-identical to that kernel's `out[j]`.
pub fn softmax_row_at(row: &[f32], j: usize) -> f32 {
    let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    let mut denom = 0.0;
    for &v in row {
        denom += (v - max).exp();
    }
    (row[j] - max).exp() / denom
}

/// Index of the largest entry of `row`; on ties the **last** maximum
/// wins (the `Iterator::max_by` rule).
///
/// # Panics
///
/// Panics if `row` is empty or holds a NaN that reaches a comparison.
pub fn argmax(row: &[f32]) -> usize {
    row.iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).expect("argmax: NaN encountered"))
        .map(|(i, _)| i)
        .expect("argmax: empty row")
}

/// Per-window activation of the fused decode head: `sigmoid` applies
/// the logistic elementwise, `softmax` normalizes the window with the
/// row-local max/exp/denominator fold of [`softmax_rows_into`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeAct {
    /// `1 / (1 + e^{-x})` per element of the window.
    Sigmoid,
    /// Numerically-stabilized softmax across the window's columns.
    Softmax,
}

/// The fused `slice → sigmoid/softmax → concat` decode head: for each
/// row of `src [m,n]`, every `(start, end, act)` window is activated
/// straight into the same columns of `out [m,n]` — no column slice is
/// ever materialized. The windows must be ascending, contiguous, and
/// cover all `n` columns (the compiler's pattern matcher guarantees
/// this).
///
/// Bit-identity with the unfused chain holds because a column slice is
/// a verbatim copy: the sigmoid formula sees exactly the same `f32`
/// inputs, and the softmax max/exp/denominator folds run over exactly
/// the window the materialized slice would contain, in the same order
/// as [`softmax_rows_into`].
pub fn decode_head_into(
    src: &[f32],
    out: &mut [f32],
    m: usize,
    n: usize,
    parts: &[(usize, usize, DecodeAct)],
) {
    debug_assert_eq!(src.len(), m * n);
    debug_assert_eq!(out.len(), m * n);
    debug_assert!(parts.iter().all(|&(s, e, _)| s < e && e <= n));
    for i in 0..m {
        let srow = &src[i * n..(i + 1) * n];
        let orow = &mut out[i * n..(i + 1) * n];
        for &(s, e, act) in parts {
            match act {
                DecodeAct::Sigmoid => {
                    for j in s..e {
                        orow[j] = 1.0 / (1.0 + (-srow[j]).exp());
                    }
                }
                DecodeAct::Softmax => {
                    let win = &srow[s..e];
                    let max = win.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
                    let mut denom = 0.0;
                    for j in s..e {
                        let ex = (srow[j] - max).exp();
                        orow[j] = ex;
                        denom += ex;
                    }
                    for o in orow[s..e].iter_mut() {
                        *o /= denom;
                    }
                }
            }
        }
    }
}
