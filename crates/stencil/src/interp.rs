//! Intergrid transfer: prolongation (coarse→fine) and injection
//! (fine→coarse) operators.
//!
//! Interpolations are tensor products of 1D operators (section IV-A,
//! "Interpolations"): the 1D prolongation maps the `r` coarse points of an
//! octant edge to the `2r − 1` fine points of its refined edge (even fine
//! points coincide with coarse points; odd points are degree-`r−1` Lagrange
//! midpoint interpolants). A full octant prolongation is three 1D passes
//! (x, then y, then z slices), costing `O(3(2r−1)r^3)` operations — the
//! count used for the paper's arithmetic-intensity bound `Q_U ≤ 5.07`
//! (Eq. 20).

use crate::patch::{PatchLayout, POINTS_PER_SIDE};

/// Fine points along a refined edge: `2r − 1`.
pub const FINE_SIDE: usize = 2 * POINTS_PER_SIDE - 1;

/// Lagrange basis weights for evaluating at `x` from nodes `nodes`.
pub fn lagrange_weights(nodes: &[f64], x: f64) -> Vec<f64> {
    let n = nodes.len();
    let mut w = vec![0.0; n];
    for j in 0..n {
        let mut p = 1.0;
        for m in 0..n {
            if m != j {
                p *= (x - nodes[m]) / (nodes[j] - nodes[m]);
            }
        }
        w[j] = p;
    }
    w
}

/// Lagrange basis weights together with their first and second
/// derivatives at `x` — differentiation of the interpolant, used for
/// evaluating gradients/Hessians of grid fields at off-grid points
/// (e.g. the Weyl-scalar extraction on spheres).
pub fn lagrange_weights_d2(nodes: &[f64], x: f64) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    let n = nodes.len();
    let mut w = vec![0.0; n];
    let mut dw = vec![0.0; n];
    let mut ddw = vec![0.0; n];
    for j in 0..n {
        // ℓ_j(x) = Π_{m≠j} (x − x_m)/(x_j − x_m); differentiate the
        // product analytically via sums over excluded factors.
        let denom: f64 = (0..n).filter(|&m| m != j).map(|m| nodes[j] - nodes[m]).product();
        let mut p0 = 1.0; // Π (x − x_m)
        for (m, &xm) in nodes.iter().enumerate() {
            if m != j {
                p0 *= x - xm;
            }
        }
        // First derivative: Σ_k Π_{m≠j,k} (x − x_m).
        let mut p1 = 0.0;
        let mut p2 = 0.0;
        for k in 0..n {
            if k == j {
                continue;
            }
            let mut prod_k = 1.0;
            for (m, &xm) in nodes.iter().enumerate() {
                if m != j && m != k {
                    prod_k *= x - xm;
                }
            }
            p1 += prod_k;
            // Second derivative: Σ_{k≠l} Π_{m≠j,k,l} (x − x_m).
            for l in 0..n {
                if l == j || l == k {
                    continue;
                }
                let mut prod_kl = 1.0;
                for (m, &xm) in nodes.iter().enumerate() {
                    if m != j && m != k && m != l {
                        prod_kl *= x - xm;
                    }
                }
                p2 += prod_kl;
            }
        }
        w[j] = p0 / denom;
        dw[j] = p1 / denom;
        ddw[j] = p2 / denom;
    }
    (w, dw, ddw)
}

/// The `(2r−1) × r` 1D prolongation matrix: row `i` holds the weights that
/// produce fine point `i` (at coarse coordinate `i/2`) from the `r` coarse
/// points at integer coordinates.
pub fn prolong_matrix() -> Vec<[f64; POINTS_PER_SIDE]> {
    let nodes: Vec<f64> = (0..POINTS_PER_SIDE).map(|i| i as f64).collect();
    let mut rows = Vec::with_capacity(FINE_SIDE);
    for i in 0..FINE_SIDE {
        let x = i as f64 * 0.5;
        let w = lagrange_weights(&nodes, x);
        let mut row = [0.0; POINTS_PER_SIDE];
        row.copy_from_slice(&w);
        rows.push(row);
    }
    rows
}

/// Inject a fine edge (length `2r−1`) onto the coarse edge (length `r`) by
/// taking the coincident (even) points. Exact for grid-aligned refinement.
pub fn inject_1d(fine: &[f64], coarse: &mut [f64]) {
    debug_assert_eq!(fine.len(), FINE_SIDE);
    debug_assert_eq!(coarse.len(), POINTS_PER_SIDE);
    for (c, f) in coarse.iter_mut().zip(fine.iter().step_by(2)) {
        *c = *f;
    }
}

/// Reusable temporaries for [`Prolongation::prolong_box`], sized for the
/// full box.
pub struct ProlongWorkspace {
    t1: Vec<f64>,
    t2: Vec<f64>,
}

impl Default for ProlongWorkspace {
    fn default() -> Self {
        Self::new()
    }
}

impl ProlongWorkspace {
    pub fn new() -> Self {
        let r = POINTS_PER_SIDE;
        let f = FINE_SIDE;
        Self { t1: vec![0.0; f * r * r], t2: vec![0.0; f * f * r] }
    }
}

/// `out[x] = Σ_c w[c]·src[c·stride + x]`, summed from `0.0` in tap order.
///
/// With `c` outer, the `x` loop is a contiguous axpy over the row, which
/// LLVM vectorizes; each point still receives the same additions in the
/// same order as a per-point loop over the taps.
#[inline(always)]
fn sweep_rows(w: &[f64; POINTS_PER_SIDE], src: &[f64], stride: usize, out: &mut [f64]) {
    let n = out.len();
    out.fill(0.0);
    for (c, &wc) in w.iter().enumerate() {
        for (o, &x) in out.iter_mut().zip(&src[c * stride..][..n]) {
            *o += wc * x;
        }
    }
}

/// Precomputed tensor-product prolongation operator.
pub struct Prolongation {
    rows: Vec<[f64; POINTS_PER_SIDE]>,
    /// The transposed table, `cols[c][i] = rows[i][c]`: the x pass runs
    /// along the fine (output) row.
    cols: [[f64; FINE_SIDE]; POINTS_PER_SIDE],
}

impl Default for Prolongation {
    fn default() -> Self {
        Self::new()
    }
}

impl Prolongation {
    pub fn new() -> Self {
        let rows = prolong_matrix();
        let cols = std::array::from_fn(|c| std::array::from_fn(|i| rows[i][c]));
        Self { rows, cols }
    }

    /// Number of f64 values in the operator table (`(2r−1) × r`), used by
    /// the performance model for the `2r^2`-ish operator-load term.
    pub fn table_len(&self) -> usize {
        self.rows.len() * POINTS_PER_SIDE
    }

    /// Prolong a `r^3` coarse octant to the full `(2r−1)^3` fine block via
    /// three 1D passes. Returns the flop count performed (for the
    /// simulator's counters). Allocates internal temporaries; hot loops
    /// should use [`Prolongation::prolong3d_ws`].
    pub fn prolong3d(&self, coarse: &[f64], fine: &mut [f64]) -> u64 {
        let mut ws = ProlongWorkspace::new();
        self.prolong3d_ws(coarse, fine, &mut ws)
    }

    /// Allocation-free variant of [`Prolongation::prolong3d`]: the full
    /// box of [`Prolongation::prolong_box`] (56 238 flops).
    pub fn prolong3d_ws(&self, coarse: &[f64], fine: &mut [f64], ws: &mut ProlongWorkspace) -> u64 {
        self.prolong_box(coarse, [0; 3], [FINE_SIDE; 3], fine, ws)
    }

    /// Prolong a `r^3` coarse octant onto the fine box `lo..hi` only (per
    /// axis, fine indices within `0..2r−1`), stored compactly x-fastest in
    /// `fine` (`Π(hi − lo)` values).
    ///
    /// The passes are those of the full block — x over the coarse lines,
    /// then y, then z over x-contiguous rows — restricted to the box's
    /// fine rows. Every written point is the 7-tap sum from `0.0` in tap
    /// order at every stage, coincident (even) points included, so it is
    /// bitwise the full block's value there for any input, non-finite
    /// values too. Returns the flops performed, `2r` per output of each
    /// pass.
    pub fn prolong_box(
        &self,
        coarse: &[f64],
        lo: [usize; 3],
        hi: [usize; 3],
        fine: &mut [f64],
        ws: &mut ProlongWorkspace,
    ) -> u64 {
        let r = POINTS_PER_SIDE;
        assert!((0..3).all(|a| lo[a] < hi[a] && hi[a] <= FINE_SIDE), "bad box {lo:?}..{hi:?}");
        let [nx, ny, nz] = std::array::from_fn(|a| hi[a] - lo[a]);
        assert_eq!(coarse.len(), r * r * r);
        assert_eq!(fine.len(), nx * ny * nz);
        // Pass 1: x, (r,r,r) -> (nx,r,r).
        let t1 = &mut ws.t1[..nx * r * r];
        for (line, out) in coarse.chunks_exact(r).zip(t1.chunks_exact_mut(nx)) {
            out.fill(0.0);
            for (col, &x) in self.cols.iter().zip(line) {
                for (o, &w) in out.iter_mut().zip(&col[lo[0]..hi[0]]) {
                    *o += w * x;
                }
            }
        }
        // Pass 2: y, (nx,r,r) -> (nx,ny,r).
        let t2 = &mut ws.t2[..nx * ny * r];
        for (plane, out) in t1.chunks_exact(nx * r).zip(t2.chunks_exact_mut(nx * ny)) {
            for (j, row) in (lo[1]..hi[1]).zip(out.chunks_exact_mut(nx)) {
                sweep_rows(&self.rows[j], plane, nx, row);
            }
        }
        // Pass 3: z, (nx,ny,r) -> (nx,ny,nz), one x-y plane at a time.
        for (k, plane) in (lo[2]..hi[2]).zip(fine.chunks_exact_mut(nx * ny)) {
            sweep_rows(&self.rows[k], t2, nx * ny, plane);
        }
        (2 * r * (nx * r * r + nx * ny * r + nx * ny * nz)) as u64
    }

    /// Prolong directly into one child's `r^3` block (`child` is the Morton
    /// child index: bit 0 = x-high, bit 1 = y-high, bit 2 = z-high).
    pub fn prolong_to_child(&self, coarse: &[f64], child: usize, out: &mut [f64]) -> u64 {
        self.prolong_to_child_ws(coarse, child, out, &mut ProlongWorkspace::new())
    }

    /// Allocation-free [`Prolongation::prolong_to_child`]: the child's
    /// block is the fine box at offset `(r−1)` along its high axes.
    pub fn prolong_to_child_ws(
        &self,
        coarse: &[f64],
        child: usize,
        out: &mut [f64],
        ws: &mut ProlongWorkspace,
    ) -> u64 {
        let r = POINTS_PER_SIDE;
        debug_assert!(child < 8);
        let lo: [usize; 3] = std::array::from_fn(|a| ((child >> a) & 1) * (r - 1));
        self.prolong_box(coarse, lo, lo.map(|l| l + r), out, ws)
    }

    /// Restrict (inject) a child's `r^3` block back onto the parent: writes
    /// the `⌈r/2⌉^3` coincident parent points covered by that child.
    pub fn inject_from_child(&self, child_data: &[f64], child: usize, parent: &mut [f64]) {
        let r = POINTS_PER_SIDE;
        debug_assert!(child < 8);
        debug_assert_eq!(child_data.len(), r * r * r);
        debug_assert_eq!(parent.len(), r * r * r);
        let half = r / 2; // 3 for r = 7
        let ox = (child & 1) * half;
        let oy = ((child >> 1) & 1) * half;
        let oz = ((child >> 2) & 1) * half;
        let l = PatchLayout::octant();
        // Child fine point 2m coincides with parent point offset + m.
        for mz in 0..=half {
            for my in 0..=half {
                for mx in 0..=half {
                    parent[l.idx(ox + mx, oy + my, oz + mz)] =
                        child_data[l.idx(2 * mx, 2 * my, 2 * mz)];
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The per-point triple loop the box sweep replaced: each output is
    /// `Σ_c w[c]·x[c]` from `0.0` in tap order, pass by pass. The
    /// bitwise oracle for [`Prolongation::prolong_box`].
    fn prolong3d_oracle(coarse: &[f64]) -> Vec<f64> {
        let rows = prolong_matrix();
        let (r, f) = (POINTS_PER_SIDE, FINE_SIDE);
        let mut t1 = vec![0.0; f * r * r];
        for kz in 0..r {
            for ky in 0..r {
                for i in 0..f {
                    let mut acc = 0.0;
                    for (c, w) in rows[i].iter().enumerate() {
                        acc += w * coarse[(kz * r + ky) * r + c];
                    }
                    t1[(kz * r + ky) * f + i] = acc;
                }
            }
        }
        let mut t2 = vec![0.0; f * f * r];
        for kz in 0..r {
            for j in 0..f {
                for i in 0..f {
                    let mut acc = 0.0;
                    for (c, w) in rows[j].iter().enumerate() {
                        acc += w * t1[(kz * r + c) * f + i];
                    }
                    t2[(kz * f + j) * f + i] = acc;
                }
            }
        }
        let mut fine = vec![0.0; f * f * f];
        for kk in 0..f {
            for j in 0..f {
                for i in 0..f {
                    let mut acc = 0.0;
                    for (c, w) in rows[kk].iter().enumerate() {
                        acc += w * t2[(c * f + j) * f + i];
                    }
                    fine[(kk * f + j) * f + i] = acc;
                }
            }
        }
        fine
    }

    /// Random finite coarse data: magnitudes 1e-6…1e3 of either sign,
    /// with every 17th value a signed zero.
    fn random_coarse(seed: u64) -> Vec<f64> {
        let mut state = seed;
        let mut next = || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        (0..POINTS_PER_SIDE.pow(3))
            .map(|i| {
                let u = next();
                let unit = (u >> 11) as f64 / (1u64 << 53) as f64;
                let mag = if i % 17 == 0 { 0.0 } else { 10f64.powf(-6.0 + 9.0 * unit) };
                if u & 1 == 0 {
                    mag
                } else {
                    -mag
                }
            })
            .collect()
    }

    fn assert_box_matches_oracle(coarse: &[f64], lo: [usize; 3], hi: [usize; 3]) {
        let full = prolong3d_oracle(coarse);
        let [nx, ny, nz] = std::array::from_fn(|a| hi[a] - lo[a]);
        let mut got = vec![f64::NAN; nx * ny * nz];
        Prolongation::new().prolong_box(coarse, lo, hi, &mut got, &mut ProlongWorkspace::new());
        for k in 0..nz {
            for j in 0..ny {
                for i in 0..nx {
                    let at = ((k + lo[2]) * FINE_SIDE + j + lo[1]) * FINE_SIDE + i + lo[0];
                    let (a, b) = (got[(k * ny + j) * nx + i], full[at]);
                    // NaN payloads may differ; NaN-ness may not.
                    let same = a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan());
                    assert!(same, "box {lo:?}..{hi:?} ({i},{j},{k}): {a} vs {b}");
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn prolong_box_matches_oracle_bitwise(
            seed in 0u64..=u64::MAX,
            lx in 0usize..FINE_SIDE, ly in 0usize..FINE_SIDE, lz in 0usize..FINE_SIDE,
            ex in 1usize..=FINE_SIDE, ey in 1usize..=FINE_SIDE, ez in 1usize..=FINE_SIDE,
        ) {
            let lo = [lx, ly, lz];
            let hi = [lx + ex, ly + ey, lz + ez].map(|h| h.min(FINE_SIDE));
            assert_box_matches_oracle(&random_coarse(seed), lo, hi);
        }
    }

    /// All-negative-zero data and non-finite values: the cases where
    /// seeding a sum with its first product, or copying a coincident
    /// point instead of summing (`0·∞ = NaN`), would show.
    #[test]
    fn full_box_matches_oracle_on_signed_zeros_and_non_finite() {
        assert_box_matches_oracle(&random_coarse(7), [0; 3], [FINE_SIDE; 3]);
        assert_box_matches_oracle(&[-0.0; 343], [0; 3], [FINE_SIDE; 3]);
        assert_box_matches_oracle(&[-0.0; 343], [1, 4, 12], [2, 13, 13]);
        let mut bad = random_coarse(9);
        bad[100] = f64::INFINITY;
        bad[200] = f64::NAN;
        assert_box_matches_oracle(&bad, [0; 3], [FINE_SIDE; 3]);
    }

    #[test]
    fn prolong3d_ws_books_nominal_flops() {
        let p = Prolongation::new();
        let mut fine = vec![0.0; FINE_SIDE.pow(3)];
        let flops = p.prolong3d_ws(&[1.0; 343], &mut fine, &mut ProlongWorkspace::new());
        assert_eq!(flops, 56_238);
    }

    #[test]
    fn prolong_matrix_rows_are_partition_of_unity() {
        for row in prolong_matrix() {
            let s: f64 = row.iter().sum();
            assert!((s - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn even_rows_are_injection() {
        let m = prolong_matrix();
        for i in (0..FINE_SIDE).step_by(2) {
            for (c, w) in m[i].iter().enumerate() {
                let expect = if c == i / 2 { 1.0 } else { 0.0 };
                assert!((w - expect).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn lagrange_weights_exact_for_polynomials() {
        let nodes: Vec<f64> = (0..7).map(|i| i as f64).collect();
        let f = |x: f64| 2.0 * x.powi(6) - x.powi(3) + 4.0;
        let x = 2.5;
        let w = lagrange_weights(&nodes, x);
        let approx: f64 = w.iter().zip(nodes.iter()).map(|(w, n)| w * f(*n)).sum();
        assert!((approx - f(x)).abs() < 1e-9);
    }

    fn octant_field(f: impl Fn(f64, f64, f64) -> f64) -> Vec<f64> {
        let r = POINTS_PER_SIDE;
        let l = PatchLayout::octant();
        let mut v = vec![0.0; r * r * r];
        for (i, j, k) in l.iter() {
            v[l.idx(i, j, k)] = f(i as f64, j as f64, k as f64);
        }
        v
    }

    #[test]
    fn prolong3d_exact_on_polynomial() {
        let p = Prolongation::new();
        let f = |x: f64, y: f64, z: f64| x * x * y - 0.5 * z.powi(3) + x * y * z + 1.0;
        let coarse = octant_field(f);
        let mut fine = vec![0.0; FINE_SIDE * FINE_SIDE * FINE_SIDE];
        p.prolong3d(&coarse, &mut fine);
        for kz in 0..FINE_SIDE {
            for ky in 0..FINE_SIDE {
                for kx in 0..FINE_SIDE {
                    let exact = f(kx as f64 * 0.5, ky as f64 * 0.5, kz as f64 * 0.5);
                    let got = fine[(kz * FINE_SIDE + ky) * FINE_SIDE + kx];
                    assert!((got - exact).abs() < 1e-9, "({kx},{ky},{kz}): {got} vs {exact}");
                }
            }
        }
    }

    #[test]
    fn prolong_flop_count_matches_model() {
        // Paper: a single coarse→fine interpolation is O(3(2r−1)r^3) ops.
        // Our three passes do 2r flops per output point:
        // pass1 f·r·r + pass2 f·f·r + pass3 f·f·f outputs.
        let p = Prolongation::new();
        let coarse = vec![1.0; 343];
        let mut fine = vec![0.0; FINE_SIDE.pow(3)];
        let flops = p.prolong3d(&coarse, &mut fine);
        let r = POINTS_PER_SIDE as u64;
        let f = FINE_SIDE as u64;
        let expect = 2 * r * (f * r * r + f * f * r + f * f * f);
        assert_eq!(flops, expect);
    }

    #[test]
    fn prolong_to_child_matches_window_of_full() {
        let p = Prolongation::new();
        let f = |x: f64, y: f64, z: f64| (0.3 * x).sin() + y * z * 0.1;
        let coarse = octant_field(f);
        let mut full = vec![0.0; FINE_SIDE.pow(3)];
        p.prolong3d(&coarse, &mut full);
        let r = POINTS_PER_SIDE;
        for child in 0..8 {
            let mut block = vec![0.0; r * r * r];
            p.prolong_to_child(&coarse, child, &mut block);
            let ox = (child & 1) * (r - 1);
            let oy = ((child >> 1) & 1) * (r - 1);
            let oz = ((child >> 2) & 1) * (r - 1);
            let l = PatchLayout::octant();
            for (i, j, k) in l.iter() {
                let expect = full[((k + oz) * FINE_SIDE + (j + oy)) * FINE_SIDE + (i + ox)];
                assert_eq!(block[l.idx(i, j, k)], expect);
            }
        }
    }

    #[test]
    fn inject_inverts_prolong_on_coincident_points() {
        let p = Prolongation::new();
        let f = |x: f64, y: f64, z: f64| x + 2.0 * y - z + 0.25 * x * y;
        let parent = octant_field(f);
        let mut rec = vec![f64::NAN; parent.len()];
        for child in 0..8 {
            let mut block = vec![0.0; parent.len()];
            p.prolong_to_child(&parent, child, &mut block);
            p.inject_from_child(&block, child, &mut rec);
        }
        for (a, b) in parent.iter().zip(rec.iter()) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn inject_1d_takes_even_points() {
        let fine: Vec<f64> = (0..FINE_SIDE).map(|i| i as f64).collect();
        let mut coarse = vec![0.0; POINTS_PER_SIDE];
        inject_1d(&fine, &mut coarse);
        assert_eq!(coarse, vec![0.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0]);
    }
}
