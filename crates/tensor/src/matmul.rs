//! The matmul kernel pair: a cache-blocked register-tiled kernel (the
//! default) and the original naive kernel kept alive as the `reference`
//! oracle (DESIGN.md §12).
//!
//! ## Layout and blocking
//!
//! The blocked kernel first **packs `rhs` into column panels**: tile `t`
//! of the packed buffer holds rows `0..k` of `rhs` columns
//! `t*NR..t*NR+NR`, contiguous and zero-padded to exactly [`NR`] lanes.
//! Packing is a pure copy (no arithmetic), costs one pass over `rhs`, and
//! turns the micro-kernel's `rhs` access from a stride-`n` gather — which
//! falls out of L1 as soon as `n×4` bytes exceed a few cache lines — into
//! a 32-byte streaming read. The buffer is thread-local and reused, so
//! warm calls do not allocate.
//!
//! The output is then partitioned into **row bands of [`MR`] rows**
//! (bands touch disjoint output rows) and each band walks the packed panels as
//! **column tiles of [`NR`]**. A full `MR×NR` tile is accumulated in `MR`
//! stack arrays of `NR` lanes — small enough to live in registers on
//! SSE2's sixteen xmm — while the `k` loop streams one packed panel row.
//! Relative to the naive kernel, which re-reads and re-writes the whole
//! `n`-wide output row on every `k` step, the band/tile shape cuts output
//! traffic by `k×` (the accumulator never leaves registers until the tile
//! is done) and `rhs` traffic by `MR×`.
//!
//! ## Accumulation order and determinism
//!
//! Every output element is produced by **one scalar accumulator updated in
//! strictly ascending `k` order** — in the blocked micro-kernel and the
//! reference kernel alike. Packing does not
//! enter the argument: it copies `rhs` values bit-for-bit and only
//! relocates them. Floating-point addition is deterministic for a fixed
//! operand order, so each kernel is **run-to-run bit-identical**. The
//! kernels run on the calling thread; the client executor
//! (`fedcav_fl::executor`) parallelises whole clients, never the adds
//! inside an element.
//!
//! On x86-64 with AVX2+FMA (detected once at runtime) the micro-kernel
//! uses fused multiply-add: the same accumulator and the same
//! `k` order, but each update rounds once instead of twice. The path
//! choice depends only on the CPU, never on thread scheduling or data, so
//! run-to-run bit-identity is unaffected; bit-identity
//! *across machines with different ISAs* is not promised (the differential
//! suite compares kernels within tolerance, and every bitwise test
//! compares same-process runs).
//!
//! **A row's bits do not depend on its band.** The `m % MR` remainder
//! rows are copied into a band zero-padded to `MR` rows and run through
//! the same micro-kernel as full bands; only the valid rows are stored.
//! Each accumulator row reads only its own `lhs` row, so every output row
//! is bit-identical to the product of that row alone — a sample's logits
//! do not depend on its position in the batch or on the batch size, with
//! or without FMA.
//!
//! Blocked and reference results may still differ in the last ulp
//! *from each other* (the reference kernel skips `a_ik == 0.0` terms;
//! adding a signed zero is not always a bitwise no-op), which is why the
//! differential suite (`tests/kernel_properties.rs`) compares the two
//! within relative tolerance rather than bit-for-bit.
//!
//! ## Fused epilogues
//!
//! [`Epilogue`] applies a per-column bias add and/or ReLU to each output
//! element **after** its accumulation finishes. The fused form performs
//! exactly the same per-element operation sequence as a matmul followed by
//! separate bias/ReLU passes (`sum`, then `+ bias[j]`, then `max(0)`), so
//! fusing is bitwise-invisible — `fedcav-nn`'s fused layers are pinned to
//! their unfused stacks by exact equality tests.
//!
//! ## Selection
//!
//! Kernel selection lives in [`crate::backend`]: a caller names a backend
//! as a type, or takes the process backend read once from
//! `FEDCAV_BACKEND` (`blocked` | `reference`, default `blocked`). The
//! reference backend calls [`matmul_reference_into`]; the blocked backend
//! (and the im2col lowering) call [`matmul_blocked_into`] /
//! [`matmul_blocked_bt_into`].
//!
//! This module is on the `no-panic-in-round-loop` lint path: client
//! training runs inside the fault-tolerant round loop, and a panicking
//! kernel would kill the simulation instead of costing one contribution.
//! Everything here is written with iterators and checked slicing.

/// Rows per register tile (and per band).
pub const MR: usize = 4;

/// Columns per register tile.
pub const NR: usize = 8;

/// A per-element finishing step fused into the kernel's output store,
/// applied after the element's `k`-accumulation completes. `Bias` slices
/// are indexed by output column and must have length `n`.
#[derive(Debug, Clone, Copy)]
pub enum Epilogue<'a> {
    /// Store the raw accumulator.
    None,
    /// `max(acc, 0)`.
    Relu,
    /// `acc + bias[j]`.
    Bias(&'a [f32]),
    /// `max(acc + bias[j], 0)`.
    BiasRelu(&'a [f32]),
}

/// The original naive kernel, verbatim from the pre-blocking `Tensor::
/// matmul` (zero-skip included): for each output row, walk `k` ascending
/// and stream the matching `rhs` row across the whole output row. Kept as
/// the oracle for the differential property suite.
pub fn matmul_reference_into(
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
    ep: Epilogue<'_>,
    out: &mut Vec<f32>,
) {
    debug_assert!(a.len() <= m * k);
    debug_assert!(b.len() <= k * n);
    out.clear();
    out.resize(m * n, 0.0);
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        for row in out.chunks_mut(n) {
            epilogue_row(row, ep);
        }
        return;
    }
    for (out_row, a_row) in out.chunks_mut(n).zip(a.chunks(k)) {
        for (&a_ik, b_row) in a_row.iter().zip(b.chunks_exact(n)) {
            if a_ik == 0.0 {
                continue;
            }
            for (o, &b_kn) in out_row.iter_mut().zip(b_row) {
                *o += a_ik * b_kn;
            }
        }
        epilogue_row(out_row, ep);
    }
}

std::thread_local! {
    /// Per-thread packed-`rhs` buffer, reused across calls so the warm
    /// path does not allocate. Thread-local (not a pool) because clients
    /// train on distinct executor threads and must not contend.
    static PACK_BUF: std::cell::RefCell<Vec<f32>> = std::cell::RefCell::new(Vec::new());
}

/// Pack `rhs` (`[k,n]` row-major) into column panels: tile `t` holds
/// columns `t*NR..t*NR+NR` of every row, contiguous, short tiles
/// zero-padded to `NR` lanes (padded lanes are discarded at store time).
fn pack_rhs(b: &[f32], k: usize, n: usize, packed: &mut Vec<f32>) {
    let tiles = n.div_ceil(NR);
    packed.clear();
    packed.resize(tiles * k * NR, 0.0);
    for (t, panel) in packed.chunks_exact_mut(k * NR).enumerate() {
        let jt = t * NR;
        let nw = NR.min(n - jt);
        for (b_row, dst) in b.chunks_exact(n).zip(panel.chunks_exact_mut(NR)) {
            if let (Some(src), Some(d)) = (b_row.get(jt..jt + nw), dst.get_mut(..nw)) {
                d.copy_from_slice(src);
            }
        }
    }
}

/// Pack `b_t` — the `[n,k]` row-major *transpose* of `rhs` — into the
/// panels [`pack_rhs`] builds from `rhs`: row `j` of `b_t` is column `j` of
/// `rhs`, so it lands in lane `j % NR` of panel `j / NR`. The result is the
/// same buffer, bit for bit, without materializing the transpose.
fn pack_rhs_t(b_t: &[f32], k: usize, n: usize, packed: &mut Vec<f32>) {
    let tiles = n.div_ceil(NR);
    packed.clear();
    packed.resize(tiles * k * NR, 0.0);
    for (panel, tile_rows) in packed.chunks_exact_mut(k * NR).zip(b_t.chunks(NR * k)) {
        for (lane, src) in tile_rows.chunks_exact(k).enumerate() {
            for (d, &v) in panel.iter_mut().skip(lane).step_by(NR).zip(src) {
                *d = v;
            }
        }
    }
}

/// The cache-blocked kernel: packed `rhs` panels, `MR`-row bands ×
/// `NR`-column register tiles, `k` innermost and strictly ascending (see
/// the module docs for the determinism argument).
pub fn matmul_blocked_into(
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
    ep: Epilogue<'_>,
    out: &mut Vec<f32>,
) {
    debug_assert!(b.len() <= k * n);
    blocked_into(a, m, k, n, ep, out, |packed| pack_rhs(b, k, n, packed));
}

/// `out = a × b_tᵀ` on the blocked kernel, where `b_t` is the `[n,k]`
/// row-major transpose of the `rhs`. The panels are packed straight from
/// `b_t`, so the result is bit-identical to [`matmul_blocked_into`] on the
/// materialized transpose, without building it.
pub fn matmul_blocked_bt_into(
    a: &[f32],
    b_t: &[f32],
    m: usize,
    k: usize,
    n: usize,
    ep: Epilogue<'_>,
    out: &mut Vec<f32>,
) {
    debug_assert!(b_t.len() <= n * k);
    blocked_into(a, m, k, n, ep, out, |packed| pack_rhs_t(b_t, k, n, packed));
}

/// The blocked kernel body, with the `rhs` panels filled by `pack`.
fn blocked_into(
    a: &[f32],
    m: usize,
    k: usize,
    n: usize,
    ep: Epilogue<'_>,
    out: &mut Vec<f32>,
    pack: impl FnOnce(&mut Vec<f32>),
) {
    debug_assert!(a.len() <= m * k);
    out.clear();
    out.resize(m * n, 0.0);
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        for row in out.chunks_mut(n) {
            epilogue_row(row, ep);
        }
        return;
    }
    PACK_BUF.with(|cell| {
        let mut buf = cell.borrow_mut();
        pack(&mut buf);
        for (out_band, a_band) in out.chunks_mut(MR * n).zip(a.chunks(MR * k)) {
            blocked_band(a_band, &buf, k, n, ep, out_band);
        }
    });
}

/// One output band of at most `MR` rows, walking the packed panels.
fn blocked_band(
    a_band: &[f32],
    packed: &[f32],
    k: usize,
    n: usize,
    ep: Epilogue<'_>,
    out_band: &mut [f32],
) {
    if a_band.len() == MR * k && out_band.len() == MR * n {
        full_band(a_band, packed, k, n, ep, out_band);
        return;
    }
    // Remainder band (m % MR rows): run the full-band kernel on a copy
    // zero-padded to MR rows and store only the valid rows, so a row's
    // bits never depend on its band (see the module docs).
    let mut a_full = vec![0.0f32; MR * k];
    a_full.iter_mut().zip(a_band).for_each(|(d, &s)| *d = s);
    let mut out_full = vec![0.0f32; MR * n];
    full_band(&a_full, packed, k, n, ep, &mut out_full);
    out_band.iter_mut().zip(&out_full).for_each(|(d, &s)| *d = s);
}

/// One full band of `MR` rows: the 4-row micro-kernel shares each packed
/// panel row load across all four accumulator rows.
fn full_band(
    a_band: &[f32],
    packed: &[f32],
    k: usize,
    n: usize,
    ep: Epilogue<'_>,
    out_band: &mut [f32],
) {
    let mut a_rows = a_band.chunks_exact(k);
    let mut out_rows = out_band.chunks_exact_mut(n);
    let (Some(a0), Some(a1), Some(a2), Some(a3)) =
        (a_rows.next(), a_rows.next(), a_rows.next(), a_rows.next())
    else {
        return;
    };
    let (Some(o0), Some(o1), Some(o2), Some(o3)) =
        (out_rows.next(), out_rows.next(), out_rows.next(), out_rows.next())
    else {
        return;
    };
    #[cfg(target_arch = "x86_64")]
    if fma::available() {
        for (t, panel) in packed.chunks_exact(k * NR).enumerate() {
            let jt = t * NR;
            let nw = NR.min(n - jt);
            // SAFETY: `fma::available()` checked the CPU features; the
            // slice-length invariants are re-checked defensively inside.
            unsafe { fma::micro_tile_4(a0, a1, a2, a3, panel, jt, nw, ep, o0, o1, o2, o3) };
        }
        return;
    }
    for (t, panel) in packed.chunks_exact(k * NR).enumerate() {
        let jt = t * NR;
        let nw = NR.min(n - jt);
        micro_tile_4(a0, a1, a2, a3, panel, jt, nw, ep, o0, o1, o2, o3);
    }
}

/// Accumulate one `4×nw` tile (`nw <= NR`) and store it through the
/// epilogue. The four accumulator arrays stay in registers across the
/// whole `k` loop.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn micro_tile_4(
    a0: &[f32],
    a1: &[f32],
    a2: &[f32],
    a3: &[f32],
    panel: &[f32],
    jt: usize,
    nw: usize,
    ep: Epilogue<'_>,
    o0: &mut [f32],
    o1: &mut [f32],
    o2: &mut [f32],
    o3: &mut [f32],
) {
    let mut c0 = [0.0f32; NR];
    let mut c1 = [0.0f32; NR];
    let mut c2 = [0.0f32; NR];
    let mut c3 = [0.0f32; NR];
    let lanes = a0.iter().zip(a1).zip(a2).zip(a3).zip(panel.chunks_exact(NR));
    for ((((&x0, &x1), &x2), &x3), bs) in lanes {
        fma_lane(&mut c0, x0, bs);
        fma_lane(&mut c1, x1, bs);
        fma_lane(&mut c2, x2, bs);
        fma_lane(&mut c3, x3, bs);
    }
    store_tile(o0, jt, nw, &c0, ep);
    store_tile(o1, jt, nw, &c1, ep);
    store_tile(o2, jt, nw, &c2, ep);
    store_tile(o3, jt, nw, &c3, ep);
}

/// `acc[j] += x * bs[j]` across the tile lanes. The fixed-size fast path
/// tells LLVM the trip count is exactly `NR` so the lane loop unrolls and
/// vectorises; packed panels are always `NR` wide (zero-padded), so the
/// variable-length tail is defensive only.
#[inline(always)]
fn fma_lane(acc: &mut [f32; NR], x: f32, bs: &[f32]) {
    if let Ok(full) = <&[f32; NR]>::try_from(bs) {
        for (av, bv) in acc.iter_mut().zip(full) {
            *av += x * *bv;
        }
    } else {
        for (av, &bv) in acc.iter_mut().zip(bs) {
            *av += x * bv;
        }
    }
}

/// Runtime-detected AVX2+FMA fast path for the full-band micro-kernel.
/// Same four accumulators and the same strictly ascending `k` order as the
/// scalar [`micro_tile_4`]; the only numerical difference is one rounding
/// per update instead of two (see the module docs). The path is chosen by
/// a CPU probe cached in an atomic, never by data or scheduling, so the
/// bit-identity guarantees are unchanged on any given machine.
#[cfg(target_arch = "x86_64")]
mod fma {
    use super::{store_tile, Epilogue, NR};
    use std::arch::x86_64::{
        _mm256_broadcast_ss, _mm256_fmadd_ps, _mm256_loadu_ps, _mm256_setzero_ps, _mm256_storeu_ps,
    };
    use std::sync::atomic::{AtomicU8, Ordering};

    /// 0 = unprobed, 1 = available, 2 = unavailable.
    static AVAILABLE: AtomicU8 = AtomicU8::new(0);

    /// Whether this CPU supports AVX2 and FMA (probed once, then cached).
    pub(super) fn available() -> bool {
        match AVAILABLE.load(Ordering::Relaxed) {
            1 => true,
            2 => false,
            _ => {
                let yes = std::arch::is_x86_feature_detected!("avx2")
                    && std::arch::is_x86_feature_detected!("fma");
                AVAILABLE.store(if yes { 1 } else { 2 }, Ordering::Relaxed);
                yes
            }
        }
    }

    /// Vector twin of the scalar `micro_tile_4`: four `__m256`
    /// accumulators (one per output row, [`NR`] == 8 lanes each), one
    /// packed panel row load shared across the four FMAs per `k` step.
    ///
    /// # Safety
    ///
    /// Caller must have checked [`available`]. Slice lengths are clamped
    /// to the shortest operand before any raw-pointer walk, so the bounds
    /// contract is re-established locally.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn micro_tile_4(
        a0: &[f32],
        a1: &[f32],
        a2: &[f32],
        a3: &[f32],
        panel: &[f32],
        jt: usize,
        nw: usize,
        ep: Epilogue<'_>,
        o0: &mut [f32],
        o1: &mut [f32],
        o2: &mut [f32],
        o3: &mut [f32],
    ) {
        let depth = a0.len().min(a1.len()).min(a2.len()).min(a3.len()).min(panel.len() / NR);
        let mut c0 = _mm256_setzero_ps();
        let mut c1 = _mm256_setzero_ps();
        let mut c2 = _mm256_setzero_ps();
        let mut c3 = _mm256_setzero_ps();
        let mut pa0 = a0.as_ptr();
        let mut pa1 = a1.as_ptr();
        let mut pa2 = a2.as_ptr();
        let mut pa3 = a3.as_ptr();
        let mut pb = panel.as_ptr();
        for _ in 0..depth {
            let bs = _mm256_loadu_ps(pb);
            c0 = _mm256_fmadd_ps(_mm256_broadcast_ss(&*pa0), bs, c0);
            c1 = _mm256_fmadd_ps(_mm256_broadcast_ss(&*pa1), bs, c1);
            c2 = _mm256_fmadd_ps(_mm256_broadcast_ss(&*pa2), bs, c2);
            c3 = _mm256_fmadd_ps(_mm256_broadcast_ss(&*pa3), bs, c3);
            pa0 = pa0.add(1);
            pa1 = pa1.add(1);
            pa2 = pa2.add(1);
            pa3 = pa3.add(1);
            pb = pb.add(NR);
        }
        let mut t0 = [0.0f32; NR];
        let mut t1 = [0.0f32; NR];
        let mut t2 = [0.0f32; NR];
        let mut t3 = [0.0f32; NR];
        _mm256_storeu_ps(t0.as_mut_ptr(), c0);
        _mm256_storeu_ps(t1.as_mut_ptr(), c1);
        _mm256_storeu_ps(t2.as_mut_ptr(), c2);
        _mm256_storeu_ps(t3.as_mut_ptr(), c3);
        store_tile(o0, jt, nw, &t0, ep);
        store_tile(o1, jt, nw, &t1, ep);
        store_tile(o2, jt, nw, &t2, ep);
        store_tile(o3, jt, nw, &t3, ep);
    }
}

/// Write one finished accumulator tile into `out_row[jt..jt+nw]` through
/// the epilogue.
#[inline(always)]
fn store_tile(out_row: &mut [f32], jt: usize, nw: usize, acc: &[f32; NR], ep: Epilogue<'_>) {
    let Some(seg) = out_row.get_mut(jt..jt + nw) else {
        return;
    };
    match ep {
        Epilogue::None => {
            for (o, &v) in seg.iter_mut().zip(acc) {
                *o = v;
            }
        }
        Epilogue::Relu => {
            for (o, &v) in seg.iter_mut().zip(acc) {
                *o = v.max(0.0);
            }
        }
        Epilogue::Bias(bias) => {
            let Some(bseg) = bias.get(jt..jt + nw) else {
                return;
            };
            for ((o, &v), &bv) in seg.iter_mut().zip(acc).zip(bseg) {
                *o = v + bv;
            }
        }
        Epilogue::BiasRelu(bias) => {
            let Some(bseg) = bias.get(jt..jt + nw) else {
                return;
            };
            for ((o, &v), &bv) in seg.iter_mut().zip(acc).zip(bseg) {
                *o = (v + bv).max(0.0);
            }
        }
    }
}

/// Apply an epilogue to one already-accumulated output row (the reference
/// kernel finishes whole rows at a time).
#[inline]
fn epilogue_row(row: &mut [f32], ep: Epilogue<'_>) {
    match ep {
        Epilogue::None => {}
        Epilogue::Relu => {
            for v in row.iter_mut() {
                *v = (*v).max(0.0);
            }
        }
        Epilogue::Bias(bias) => {
            for (v, &bv) in row.iter_mut().zip(bias) {
                *v += bv;
            }
        }
        Epilogue::BiasRelu(bias) => {
            for (v, &bv) in row.iter_mut().zip(bias) {
                *v = (*v + bv).max(0.0);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{Backend, CpuBlocked, Reference, TensorOps};

    fn seq(len: usize, scale: f32) -> Vec<f32> {
        (0..len).map(|i| ((i * 37 % 23) as f32 - 11.0) * scale).collect()
    }

    /// `a × b` on backend `B`.
    fn run<B: TensorOps>(
        a: &[f32],
        b: &[f32],
        m: usize,
        k: usize,
        n: usize,
        ep: Epilogue<'_>,
    ) -> Vec<f32> {
        let mut out = Vec::new();
        B::matmul(a, b, m, k, n, ep, &mut out);
        out
    }

    #[test]
    fn blocked_matches_reference_across_shapes() {
        for &(m, k, n) in &[(1, 1, 1), (2, 3, 4), (4, 4, 8), (5, 7, 9), (13, 6, 17), (8, 16, 8)] {
            let a = seq(m * k, 0.25);
            let b = seq(k * n, 0.5);
            let r = run::<Reference>(&a, &b, m, k, n, Epilogue::None);
            let bl = run::<CpuBlocked>(&a, &b, m, k, n, Epilogue::None);
            for (x, y) in r.iter().zip(&bl) {
                assert!((x - y).abs() <= 1e-5 * x.abs().max(1.0), "{m}x{k}x{n}: {x} vs {y}");
            }
        }
    }

    #[test]
    fn known_2x2_product() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [5.0, 6.0, 7.0, 8.0];
        let want = vec![19.0, 22.0, 43.0, 50.0];
        assert_eq!(run::<CpuBlocked>(&a, &b, 2, 2, 2, Epilogue::None), want);
        assert_eq!(run::<Reference>(&a, &b, 2, 2, 2, Epilogue::None), want);
    }

    /// The fused epilogues of backend `B` against separate passes.
    fn fused_epilogues_match_separate_passes<B: Backend>() {
        let (m, k, n) = (9, 5, 11);
        let a = seq(m * k, 0.1);
        let b = seq(k * n, 0.3);
        let bias = seq(n, 0.7);
        let plain = run::<B>(&a, &b, m, k, n, Epilogue::None);
        let mut manual = plain.clone();
        for row in manual.chunks_mut(n) {
            for (v, &bv) in row.iter_mut().zip(&bias) {
                *v += bv;
            }
        }
        let fused = run::<B>(&a, &b, m, k, n, Epilogue::Bias(&bias));
        assert_eq!(fused, manual, "{}: bias epilogue diverged", B::NAME);
        for v in manual.iter_mut() {
            *v = v.max(0.0);
        }
        let fused_relu = run::<B>(&a, &b, m, k, n, Epilogue::BiasRelu(&bias));
        assert_eq!(fused_relu, manual, "{}: bias+relu epilogue diverged", B::NAME);
        let mut relu_only = plain;
        for v in relu_only.iter_mut() {
            *v = v.max(0.0);
        }
        assert_eq!(run::<B>(&a, &b, m, k, n, Epilogue::Relu), relu_only, "{}", B::NAME);
    }

    #[test]
    fn fused_epilogues_match_separate_passes_bitwise() {
        fused_epilogues_match_separate_passes::<CpuBlocked>();
        fused_epilogues_match_separate_passes::<Reference>();
    }

    /// Empty products on backend `B`; the epilogue still applies at k = 0.
    fn degenerate_dims_on<B: TensorOps>() {
        assert!(run::<B>(&[], &[], 0, 3, 4, Epilogue::None).is_empty());
        assert!(run::<B>(&[], &[], 3, 4, 0, Epilogue::None).is_empty());
        let bias = [1.5, -2.0];
        let out = run::<B>(&[], &[], 2, 0, 2, Epilogue::BiasRelu(&bias));
        assert_eq!(out, vec![1.5, 0.0, 1.5, 0.0]);
    }

    #[test]
    fn degenerate_dims() {
        degenerate_dims_on::<CpuBlocked>();
        degenerate_dims_on::<Reference>();
    }

    #[test]
    fn blocked_is_run_to_run_bit_identical() {
        // Several full bands, a remainder band and a short column tile.
        let (m, k, n) = (70, 33, 260);
        let a = seq(m * k, 0.05);
        let b = seq(k * n, 0.02);
        let first = run::<CpuBlocked>(&a, &b, m, k, n, Epilogue::None);
        for _ in 0..3 {
            let again = run::<CpuBlocked>(&a, &b, m, k, n, Epilogue::None);
            let same = first.iter().zip(&again).all(|(x, y)| x.to_bits() == y.to_bits());
            assert!(same, "blocked kernel varied across runs");
        }
    }

    /// Every row of `a·b` and `a·bᵀ` on backend `B` must be bit-identical
    /// to the product of that row alone, whatever band it lands in.
    fn rows_match_their_products_alone<B: Backend>() {
        let (k, n) = (37, 11);
        let b = seq(k * n, 0.071);
        let b_t = seq(n * k, 0.033);
        let bias = seq(n, 0.3);
        for m in [1, 3, 5, 10, 17] {
            let a: Vec<f32> = seq(m * k, 0.013).iter().map(|v| v + 0.1).collect();
            for ep in [Epilogue::None, Epilogue::BiasRelu(&bias)] {
                let (mut ab, mut abt) = (Vec::new(), Vec::new());
                B::matmul(&a, &b, m, k, n, ep, &mut ab);
                B::matmul_bt(&a, &b_t, m, k, n, ep, &mut abt);
                for (i, row) in a.chunks_exact(k).enumerate() {
                    let (mut alone, mut alone_t) = (Vec::new(), Vec::new());
                    B::matmul(row, &b, 1, k, n, ep, &mut alone);
                    B::matmul_bt(row, &b_t, 1, k, n, ep, &mut alone_t);
                    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    let (got, got_t) = (&ab[i * n..(i + 1) * n], &abt[i * n..(i + 1) * n]);
                    assert_eq!(bits(got), bits(&alone), "{} a·b m={m} row {i} {ep:?}", B::NAME);
                    assert_eq!(
                        bits(got_t),
                        bits(&alone_t),
                        "{} a·bᵀ m={m} row {i} {ep:?}",
                        B::NAME
                    );
                }
            }
        }
    }

    #[test]
    fn every_row_is_bit_identical_to_its_product_alone() {
        rows_match_their_products_alone::<CpuBlocked>();
        rows_match_their_products_alone::<Reference>();
    }
}
