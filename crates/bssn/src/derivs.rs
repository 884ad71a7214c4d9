//! The 210-derivative evaluation on a padded patch.
//!
//! Section IV-B: every RHS evaluation needs, per grid point, 72 first
//! derivatives (3 × 24 variables), 66 second derivatives (6 pairs × 11
//! variables) and 72 KO derivatives — 210 in total. This module computes
//! them for a whole `r^3` octant block from the 24 padded patches. The
//! tape `A` reads the blocks in place ([`DerivWorkspace::block`]); the
//! pointwise `A` and the Sommerfeld fix assemble a per-point 234-entry
//! input vector.

use gw_expr::symbols::{
    input_d1, input_d2, input_ko, second_deriv_slot, NUM_D1, NUM_INPUTS, NUM_KO, NUM_VARS,
    NUM_VARS_2ND,
};
use gw_stencil::fd::{DerivOps, RawSlabs};
use gw_stencil::ko::ko_deriv_axis;
use gw_stencil::patch::BLOCK_VOLUME;

/// Number of derivative blocks (the paper's 210).
pub const NUM_DERIV_BLOCKS: usize = 210;

/// Flops per point that [`DerivWorkspace::compute`] reports: the paper's
/// nominal stencil count, not the count the factored sweep executes. Each
/// 7-point first, pure second and KO derivative books 13 (7 multiplies,
/// 6 adds); each mixed derivative books 97, the 49-point tensor product
/// (`7·13` inner plus 6 outer adds). 5502 per point.
pub const DERIV_FLOPS_PER_POINT: u64 =
    13 * (NUM_D1 + 3 * NUM_VARS_2ND + NUM_KO) as u64 + 97 * (3 * NUM_VARS_2ND) as u64;

/// Thread-local storage for all derivative blocks of one octant.
///
/// 210 blocks × 343 points × 8 B ≈ 0.58 MB — the "tremendous memory
/// pressure" the paper attributes to the RHS (section I).
pub struct DerivWorkspace {
    /// `[input_slot - NUM_VARS][point]`, i.e. indexed by the flat input
    /// index minus the 24 field values.
    data: Vec<f64>,
    /// The raw `∂y`/`∂z` slabs the mixed derivatives are swept from.
    slabs: RawSlabs,
}

impl Default for DerivWorkspace {
    fn default() -> Self {
        Self::new()
    }
}

#[inline]
fn block_mut(data: &mut [f64], input_slot: usize) -> &mut [f64] {
    let b = input_slot - NUM_VARS;
    &mut data[b * BLOCK_VOLUME..(b + 1) * BLOCK_VOLUME]
}

impl DerivWorkspace {
    pub fn new() -> Self {
        Self { data: vec![0.0; NUM_DERIV_BLOCKS * BLOCK_VOLUME], slabs: RawSlabs::new() }
    }

    /// The `r^3` block of one derivative, by flat input index (24..234),
    /// point-major as the octant block: the SoA row the tape reads.
    #[inline]
    pub(crate) fn block(&self, input_slot: usize) -> &[f64] {
        let b = input_slot - NUM_VARS;
        &self.data[b * BLOCK_VOLUME..(b + 1) * BLOCK_VOLUME]
    }

    #[inline]
    pub fn value(&self, input_slot: usize, point: usize) -> f64 {
        let b = input_slot - NUM_VARS;
        self.data[b * BLOCK_VOLUME + point]
    }

    /// Compute all 210 derivative blocks from the 24 padded patches of one
    /// octant. `patches[v]` is variable `v`'s `(r+2k)^3` patch; `h` the
    /// octant grid spacing. Returns the nominal flop count,
    /// [`DERIV_FLOPS_PER_POINT`] per point.
    ///
    /// A variable with second derivatives first sweeps its raw `∂y`/`∂z`
    /// slabs; its `∂y`, `∂z` and three mixed derivatives come from them.
    pub fn compute(&mut self, patches: &[&[f64]], h: f64) -> u64 {
        assert_eq!(patches.len(), NUM_VARS);
        let ops = DerivOps::new(h);
        let data = &mut self.data;
        for (v, &patch) in patches.iter().enumerate() {
            if second_deriv_slot(v).is_some() {
                ops.load_slabs(patch, &mut self.slabs);
                ops.deriv(0, patch, block_mut(data, input_d1(v, 0)));
                for axis in 1..3 {
                    ops.deriv_from_slabs(axis, &self.slabs, block_mut(data, input_d1(v, axis)));
                }
                for a in 0..3 {
                    ops.deriv2(a, patch, block_mut(data, input_d2(v, a, a)));
                }
                for (a, b) in [(0, 1), (0, 2), (1, 2)] {
                    ops.mixed_from_slabs(a, b, &self.slabs, block_mut(data, input_d2(v, a, b)));
                }
            } else {
                for axis in 0..3 {
                    ops.deriv(axis, patch, block_mut(data, input_d1(v, axis)));
                }
            }
            for axis in 0..3 {
                ko_deriv_axis(axis, ops.inv_h, patch, block_mut(data, input_ko(v, axis)));
            }
        }
        DERIV_FLOPS_PER_POINT * BLOCK_VOLUME as u64
    }

    /// Assemble the 234-entry input vector for one grid point.
    /// `patch_point` maps the block point to its patch index (interior
    /// offset applied by the caller via the field values slice).
    pub fn assemble_inputs(
        &self,
        fields_at_point: &[f64; NUM_VARS],
        point: usize,
        out: &mut [f64],
    ) {
        debug_assert!(out.len() >= NUM_INPUTS);
        out[..NUM_VARS].copy_from_slice(fields_at_point);
        for slot in NUM_VARS..NUM_INPUTS {
            out[slot] = self.value(slot, point);
        }
    }
}

/// Extract the 24 field values at a block point from the patches (the
/// interior of each patch).
pub fn fields_at(patches: &[&[f64]], i: usize, j: usize, k: usize) -> [f64; NUM_VARS] {
    use gw_stencil::patch::{PatchLayout, PADDING};
    let p = PatchLayout::padded();
    let idx = p.idx(i + PADDING, j + PADDING, k + PADDING);
    let mut out = [0.0; NUM_VARS];
    for (v, o) in out.iter_mut().enumerate() {
        *o = patches[v][idx];
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gw_expr::symbols::{input_value, var};
    use gw_stencil::patch::{PatchLayout, PADDING};

    /// Build 24 patches where variable v holds a distinct polynomial.
    fn poly_patches(h: f64) -> Vec<Vec<f64>> {
        let p = PatchLayout::padded();
        (0..NUM_VARS)
            .map(|v| {
                let c = v as f64 + 1.0;
                let mut buf = vec![0.0; p.volume()];
                for (i, j, k) in p.iter() {
                    let x = (i as f64 - PADDING as f64) * h;
                    let y = (j as f64 - PADDING as f64) * h;
                    let z = (k as f64 - PADDING as f64) * h;
                    buf[p.idx(i, j, k)] = c * (x * x * y + 0.5 * z * z - x * y * z) + c;
                }
                buf
            })
            .collect()
    }

    #[test]
    fn derivatives_of_polynomials_exact() {
        let h = 0.1;
        let patches = poly_patches(h);
        let refs: Vec<&[f64]> = patches.iter().map(|p| p.as_slice()).collect();
        let mut ws = DerivWorkspace::new();
        let flops = ws.compute(&refs, h);
        assert!(flops > 0);
        let o = PatchLayout::octant();
        for v in [var::ALPHA, var::CHI, var::K, var::at(1, 2)] {
            let c = v as f64 + 1.0;
            for (i, j, k) in o.iter() {
                let (x, y, z) = (i as f64 * h, j as f64 * h, k as f64 * h);
                let pt = o.idx(i, j, k);
                // f = c(x²y + z²/2 − xyz) + c
                let dx = c * (2.0 * x * y - y * z);
                let dy = c * (x * x - x * z);
                let dz = c * (z - x * y);
                assert!((ws.value(input_d1(v, 0), pt) - dx).abs() < 1e-9);
                assert!((ws.value(input_d1(v, 1), pt) - dy).abs() < 1e-9);
                assert!((ws.value(input_d1(v, 2), pt) - dz).abs() < 1e-9);
            }
        }
        // Second derivatives for a var that has them.
        let v = var::CHI;
        let c = v as f64 + 1.0;
        for (i, j, k) in o.iter() {
            let (x, y, z) = (i as f64 * h, j as f64 * h, k as f64 * h);
            let pt = o.idx(i, j, k);
            assert!((ws.value(input_d2(v, 0, 0), pt) - c * 2.0 * y).abs() < 1e-8);
            assert!((ws.value(input_d2(v, 2, 2), pt) - c).abs() < 1e-8);
            assert!((ws.value(input_d2(v, 0, 1), pt) - c * (2.0 * x - z)).abs() < 1e-8);
            assert!((ws.value(input_d2(v, 1, 2), pt) - c * (-x)).abs() < 1e-8);
        }
    }

    #[test]
    fn ko_vanishes_on_low_order_polynomials() {
        let h = 0.1;
        let patches = poly_patches(h);
        let refs: Vec<&[f64]> = patches.iter().map(|p| p.as_slice()).collect();
        let mut ws = DerivWorkspace::new();
        ws.compute(&refs, h);
        for v in 0..NUM_VARS {
            for axis in 0..3 {
                for pt in 0..BLOCK_VOLUME {
                    assert!(ws.value(input_ko(v, axis), pt).abs() < 1e-8);
                }
            }
        }
    }

    #[test]
    fn assemble_inputs_layout() {
        let h = 0.2;
        let patches = poly_patches(h);
        let refs: Vec<&[f64]> = patches.iter().map(|p| p.as_slice()).collect();
        let mut ws = DerivWorkspace::new();
        ws.compute(&refs, h);
        let o = PatchLayout::octant();
        let (i, j, k) = (2, 3, 4);
        let fields = fields_at(&refs, i, j, k);
        let mut u = vec![0.0; NUM_INPUTS];
        ws.assemble_inputs(&fields, o.idx(i, j, k), &mut u);
        // Field values in the first 24 slots.
        for v in 0..NUM_VARS {
            let c = v as f64 + 1.0;
            let (x, y, z) = (i as f64 * h, j as f64 * h, k as f64 * h);
            let expect = c * (x * x * y + 0.5 * z * z - x * y * z) + c;
            assert!((u[input_value(v)] - expect).abs() < 1e-12);
        }
        // A spot-checked derivative slot.
        assert_eq!(u[input_d1(3, 1)], ws.value(input_d1(3, 1), o.idx(i, j, k)));
    }

    #[test]
    fn paper_derivative_count() {
        // 72 + 66 + 72 = 210 blocks.
        assert_eq!(NUM_DERIV_BLOCKS, 210);
        assert_eq!(NUM_INPUTS - NUM_VARS, NUM_DERIV_BLOCKS);
    }

    #[test]
    fn compute_returns_nominal_flop_count() {
        // (72 + 33 + 72)·13 + 33·97 = 5502 per point, whatever the sweep
        // executes; perfbench books it against `CpuBackend::flops`.
        assert_eq!(DERIV_FLOPS_PER_POINT, 5502);
        let patches = poly_patches(0.1);
        let refs: Vec<&[f64]> = patches.iter().map(|p| p.as_slice()).collect();
        let mut ws = DerivWorkspace::new();
        assert_eq!(ws.compute(&refs, 0.1), 5502 * 343);
    }

    /// The per-point loops the factored sweep replaced: a 7-point sum per
    /// axis and the 49-point tensor product for the mixed derivatives,
    /// indexing the patch point by point. The bitwise reference for
    /// [`DerivWorkspace::compute`].
    mod oracle {
        use super::*;
        use gw_stencil::fd::{centered_first_weights, centered_second_weights};
        use gw_stencil::ko::{KO_NORM, KO_WEIGHTS};
        use gw_stencil::patch::{PatchLayout, PADDING, POINTS_PER_SIDE};

        const STRIDES: [isize; 3] = [1, 13, 169];

        fn interior(mut f: impl FnMut(usize, isize)) {
            let p = PatchLayout::padded();
            let o = PatchLayout::octant();
            for (i, j, k) in o.iter() {
                f(o.idx(i, j, k), p.idx(i + PADDING, j + PADDING, k + PADDING) as isize);
            }
        }

        fn axis(w: &[f64; 7], st: isize, scale: f64, patch: &[f64], out: &mut [f64]) {
            interior(|pt, c| {
                let mut acc = 0.0;
                for (t, &wt) in w.iter().enumerate() {
                    acc += wt * patch[(c + (t as isize - 3) * st) as usize];
                }
                out[pt] = acc * scale;
            });
        }

        fn mixed(w: &[f64; 7], sa: isize, sb: isize, scale: f64, patch: &[f64], out: &mut [f64]) {
            interior(|pt, c| {
                let mut acc = 0.0;
                for (ta, &wa) in w.iter().enumerate() {
                    let base = c + (ta as isize - 3) * sa;
                    let mut inner = 0.0;
                    for (tb, &wb) in w.iter().enumerate() {
                        inner += wb * patch[(base + (tb as isize - 3) * sb) as usize];
                    }
                    acc += wa * inner;
                }
                out[pt] = acc * scale;
            });
        }

        /// All 210 blocks, laid out as `DerivWorkspace::data`.
        pub fn all_blocks(patches: &[&[f64]], h: f64) -> Vec<f64> {
            assert_eq!(POINTS_PER_SIDE, 7);
            let (w1, w2) = (centered_first_weights(), centered_second_weights());
            let inv_h = 1.0 / h;
            let mut data = vec![0.0; NUM_DERIV_BLOCKS * BLOCK_VOLUME];
            for (v, &patch) in patches.iter().enumerate() {
                for a in 0..3 {
                    let d1 = block_mut(&mut data, input_d1(v, a));
                    axis(&w1, STRIDES[a], inv_h, patch, d1);
                    let ko = block_mut(&mut data, input_ko(v, a));
                    axis(&KO_WEIGHTS, STRIDES[a], inv_h / KO_NORM, patch, ko);
                }
                if second_deriv_slot(v).is_none() {
                    continue;
                }
                for a in 0..3 {
                    for b in a..3 {
                        let out = block_mut(&mut data, input_d2(v, a, b));
                        if a == b {
                            axis(&w2, STRIDES[a], inv_h * inv_h, patch, out);
                        } else {
                            mixed(&w1, STRIDES[a], STRIDES[b], inv_h * inv_h, patch, out);
                        }
                    }
                }
            }
            data
        }
    }

    fn assert_bitwise_eq(got: &[f64], expect: &[f64]) {
        for (i, (a, b)) in got.iter().zip(expect).enumerate() {
            assert!(
                a.to_bits() == b.to_bits(),
                "block {} point {}: {a:e} vs oracle {b:e}",
                i / BLOCK_VOLUME,
                i % BLOCK_VOLUME
            );
        }
    }

    /// 24 patches of values with random signs and magnitudes spread over
    /// 1e-6..1e3 (splitmix64 from `seed`).
    fn random_patches(seed: u64) -> Vec<Vec<f64>> {
        let mut state = seed;
        let mut next = || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let p = PatchLayout::padded();
        (0..NUM_VARS)
            .map(|_| {
                (0..p.volume())
                    .map(|_| {
                        let u = next();
                        let unit = (u >> 11) as f64 / (1u64 << 53) as f64;
                        let mag = 10f64.powf(-6.0 + 9.0 * unit);
                        if u & 1 == 0 {
                            mag
                        } else {
                            -mag
                        }
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn compute_matches_oracle_bitwise_on_constant_and_signed_zero_patches() {
        let p = PatchLayout::padded();
        let mut cases: Vec<Vec<Vec<f64>>> = [0.0, -0.0, 1.0, -2.5e2, 3.0e-7]
            .iter()
            .map(|&c| vec![vec![c; p.volume()]; NUM_VARS])
            .collect();
        // Zeros of random sign: where every product of a stencil is −0.0,
        // the sum started from +0.0 is +0.0 and one started from its first
        // product is −0.0.
        cases.push(
            random_patches(7)
                .into_iter()
                .map(|v| v.into_iter().map(|x| if x < 0.0 { -0.0 } else { 0.0 }).collect())
                .collect(),
        );
        let mut ws = DerivWorkspace::new();
        for patches in &cases {
            let refs: Vec<&[f64]> = patches.iter().map(|p| p.as_slice()).collect();
            for h in [1.0, 0.1, 1.0 / 3.0] {
                ws.compute(&refs, h);
                assert_bitwise_eq(&ws.data, &oracle::all_blocks(&refs, h));
            }
        }
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(16))]
            #[test]
            fn compute_matches_oracle_bitwise_on_random_patches(
                seed in 0u64..=u64::MAX,
                pick in 0usize..4,
                h_random in 1e-3f64..2.0,
            ) {
                let h = [1.0, 0.25, 1.0 / 96.0, h_random][pick];
                let patches = random_patches(seed);
                let refs: Vec<&[f64]> = patches.iter().map(|p| p.as_slice()).collect();
                let mut ws = DerivWorkspace::new();
                ws.compute(&refs, h);
                assert_bitwise_eq(&ws.data, &oracle::all_blocks(&refs, h));
            }
        }
    }
}
