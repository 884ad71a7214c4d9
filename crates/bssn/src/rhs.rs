//! The fused per-patch RHS driver: derivatives + algebraic combination.
//!
//! One call processes one octant: compute all 210 derivative blocks from
//! the 24 padded patches, then run the `A` component at each of the `r^3`
//! points — either the handwritten pointwise code or a generated tape
//! (the SymPyGR / binary-reduce / staged+CSE variants of Table II). The
//! tape runs over [`LANES`]-point batches, reading the derivative blocks
//! in place.

use crate::derivs::{fields_at, DerivWorkspace};
use crate::point::bssn_rhs_point;
use gw_expr::bssn::BssnParams;
use gw_expr::symbols::{var, NUM_INPUTS, NUM_VARS};
use gw_expr::tape::Tape;
use gw_stencil::patch::{PatchLayout, BLOCK_VOLUME, PADDING, POINTS_PER_SIDE};

/// Points per batch of the tape arm: one k-plane of the 7³ block, the
/// host counterpart of a warp running the generated `A` one thread per
/// point.
pub const LANES: usize = POINTS_PER_SIDE * POINTS_PER_SIDE;

/// Which `A` implementation to run.
pub enum RhsMode<'a> {
    /// Handwritten pointwise evaluation.
    Pointwise,
    /// A compiled tape (generated code).
    Tape(&'a Tape),
}

/// Scratch buffers for one octant's RHS evaluation.
pub struct RhsWorkspace {
    pub derivs: DerivWorkspace,
    /// One point's inputs and outputs for the pointwise arm.
    inputs: Vec<f64>,
    point_out: Vec<f64>,
    /// The octant's 24 field values, variable-major with χ floored: the
    /// tape's first 24 input rows (24 × 343 × 8 B ≈ 66 KB).
    fields: Vec<f64>,
    /// The tape's temporaries, one [`LANES`]-wide row per slot.
    slots: Vec<[f64; LANES]>,
}

impl RhsWorkspace {
    /// Scratch for a tape with up to `max_slots` temporaries (1 for the
    /// pointwise `A`).
    pub fn new(max_slots: usize) -> Self {
        Self {
            derivs: DerivWorkspace::new(),
            inputs: vec![0.0; NUM_INPUTS],
            point_out: vec![0.0; NUM_VARS],
            fields: vec![0.0; NUM_VARS * BLOCK_VOLUME],
            slots: vec![[0.0; LANES]; max_slots.max(1)],
        }
    }
}

/// Evaluate the BSSN RHS on one octant.
///
/// `patches[v]` is variable `v`'s padded patch, `out[v]` the `r^3` RHS
/// block to fill. Returns (derivative flops, `A` flops).
pub fn bssn_rhs_patch(
    patches: &[&[f64]],
    h: f64,
    params: &BssnParams,
    mode: &RhsMode<'_>,
    ws: &mut RhsWorkspace,
    out: &mut [&mut [f64]],
) -> (u64, u64) {
    assert_eq!(patches.len(), NUM_VARS);
    assert_eq!(out.len(), NUM_VARS);
    let d_flops = ws.derivs.compute(patches, h);
    let a_flops = match mode {
        RhsMode::Pointwise => {
            let o = PatchLayout::octant();
            for (i, j, k) in o.iter() {
                let pt = o.idx(i, j, k);
                let mut fields = fields_at(patches, i, j, k);
                // Moving-puncture χ floor (regularizes the 1/χ terms near
                // the punctures; both A paths see the same clamped value).
                fields[var::CHI] = fields[var::CHI].max(params.chi_floor);
                ws.derivs.assemble_inputs(&fields, pt, &mut ws.inputs);
                bssn_rhs_point(&ws.inputs, &mut ws.point_out, params);
                for v in 0..NUM_VARS {
                    out[v][pt] = ws.point_out[v];
                }
            }
            2200 // handwritten op count estimate
        }
        RhsMode::Tape(t) => {
            assert!(ws.slots.len() >= t.n_slots, "RhsWorkspace holds fewer than the tape's slots");
            stage_fields(patches, params.chi_floor, &mut ws.fields);
            let fields = &ws.fields;
            let rows: [&[f64]; NUM_INPUTS] = std::array::from_fn(|i| {
                if i < NUM_VARS {
                    &fields[i * BLOCK_VOLUME..(i + 1) * BLOCK_VOLUME]
                } else {
                    ws.derivs.block(i)
                }
            });
            for start in (0..BLOCK_VOLUME).step_by(LANES) {
                t.eval_lanes::<LANES>(&rows, start, out, &mut ws.slots);
            }
            t.flops
        }
    };
    (d_flops, a_flops * BLOCK_VOLUME as u64)
}

/// Copy the interior of each patch into `fields` (variable-major `r^3`
/// blocks), flooring χ at `chi_floor` as the pointwise arm does.
fn stage_fields(patches: &[&[f64]], chi_floor: f64, fields: &mut [f64]) {
    let p = PatchLayout::padded();
    let n = POINTS_PER_SIDE;
    for (v, (&patch, block)) in
        patches.iter().zip(fields.chunks_exact_mut(BLOCK_VOLUME)).enumerate()
    {
        for (row, dst) in block.chunks_exact_mut(n).enumerate() {
            let (j, k) = (row % n, row / n);
            let src = p.idx(PADDING, j + PADDING, k + PADDING);
            dst.copy_from_slice(&patch[src..src + n]);
        }
        if v == var::CHI {
            block.iter_mut().for_each(|x| *x = x.max(chi_floor));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gw_expr::bssn::build_bssn_rhs;
    use gw_expr::schedule::{schedule, ScheduleStrategy};

    /// Patches holding a smooth spacetime-like configuration.
    fn smooth_patches(h: f64) -> Vec<Vec<f64>> {
        let p = PatchLayout::padded();
        (0..NUM_VARS)
            .map(|v| {
                let mut buf = vec![0.0; p.volume()];
                for (i, j, k) in p.iter() {
                    let x = (i as f64 - PADDING as f64) * h;
                    let y = (j as f64 - PADDING as f64) * h;
                    let z = (k as f64 - PADDING as f64) * h;
                    let w = 0.02 * ((x + 0.3 * y).sin() * (0.5 * z).cos() + 0.3 * x * y);
                    use gw_expr::symbols::var;
                    buf[p.idx(i, j, k)] = match v {
                        var::ALPHA => 1.0 + 0.5 * w,
                        var::CHI => 1.0 + 0.4 * w,
                        _ if v == var::gt(0, 0) || v == var::gt(1, 1) || v == var::gt(2, 2) => {
                            1.0 + w
                        }
                        _ => w * (1.0 + 0.1 * v as f64),
                    };
                }
                buf
            })
            .collect()
    }

    #[test]
    fn pointwise_and_all_tapes_agree_on_patch() {
        let h = 0.05;
        let patches = smooth_patches(h);
        let refs: Vec<&[f64]> = patches.iter().map(|p| p.as_slice()).collect();
        let params = BssnParams::default();

        let run = |mode: &RhsMode<'_>, max_slots: usize| -> Vec<Vec<f64>> {
            let mut ws = RhsWorkspace::new(max_slots);
            let mut out: Vec<Vec<f64>> = vec![vec![0.0; BLOCK_VOLUME]; NUM_VARS];
            {
                let mut views: Vec<&mut [f64]> = out.iter_mut().map(|v| v.as_mut_slice()).collect();
                bssn_rhs_patch(&refs, h, &params, mode, &mut ws, &mut views);
            }
            out
        };

        let base = run(&RhsMode::Pointwise, 1);
        let rhs = build_bssn_rhs(params);
        for strat in ScheduleStrategy::all() {
            let sch = schedule(&rhs.graph, &rhs.outputs, strat);
            let tape = Tape::compile(&rhs.graph, &sch, 56);
            let got = run(&RhsMode::Tape(&tape), tape.n_slots);
            for v in 0..NUM_VARS {
                for pt in 0..BLOCK_VOLUME {
                    let (a, b) = (base[v][pt], got[v][pt]);
                    assert!(
                        (a - b).abs() < 1e-10 * (1.0 + a.abs()),
                        "{strat:?} var {v} pt {pt}: {a} vs {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn flat_patches_produce_zero_rhs() {
        let h = 0.1;
        let p = PatchLayout::padded();
        let mut patches: Vec<Vec<f64>> = vec![vec![0.0; p.volume()]; NUM_VARS];
        use gw_expr::symbols::var;
        for v in [var::ALPHA, var::CHI, var::gt(0, 0), var::gt(1, 1), var::gt(2, 2)] {
            patches[v].iter_mut().for_each(|x| *x = 1.0);
        }
        let refs: Vec<&[f64]> = patches.iter().map(|p| p.as_slice()).collect();
        let mut ws = RhsWorkspace::new(1);
        let mut out: Vec<Vec<f64>> = vec![vec![0.0; BLOCK_VOLUME]; NUM_VARS];
        let mut views: Vec<&mut [f64]> = out.iter_mut().map(|v| v.as_mut_slice()).collect();
        bssn_rhs_patch(&refs, h, &BssnParams::default(), &RhsMode::Pointwise, &mut ws, &mut views);
        for v in 0..NUM_VARS {
            for pt in 0..BLOCK_VOLUME {
                assert!(out[v][pt].abs() < 1e-12, "var {v} pt {pt}: {}", out[v][pt]);
            }
        }
    }

    #[test]
    fn flop_counts_reported() {
        let h = 0.05;
        let patches = smooth_patches(h);
        let refs: Vec<&[f64]> = patches.iter().map(|p| p.as_slice()).collect();
        let mut ws = RhsWorkspace::new(1);
        let mut out: Vec<Vec<f64>> = vec![vec![0.0; BLOCK_VOLUME]; NUM_VARS];
        let mut views: Vec<&mut [f64]> = out.iter_mut().map(|v| v.as_mut_slice()).collect();
        let (d, a) = bssn_rhs_patch(
            &refs,
            h,
            &BssnParams::default(),
            &RhsMode::Pointwise,
            &mut ws,
            &mut views,
        );
        // The nominal counts: 5502 derivative flops per point
        // (`DERIV_FLOPS_PER_POINT`) plus 2200 for the pointwise `A`.
        assert_eq!(d, 5502 * BLOCK_VOLUME as u64);
        assert_eq!(d + a, 7702 * BLOCK_VOLUME as u64);
    }

    /// The per-point tape loop the lane-batched arm replaced: assemble the
    /// 234 inputs of each point and run the tape once per point. The
    /// bitwise reference for [`bssn_rhs_patch`]'s tape arm.
    fn per_point_tape(patches: &[&[f64]], h: f64, params: &BssnParams, t: &Tape) -> Vec<Vec<f64>> {
        let mut derivs = DerivWorkspace::new();
        derivs.compute(patches, h);
        let (mut inputs, mut point_out) = (vec![0.0; NUM_INPUTS], vec![0.0; NUM_VARS]);
        let mut slots = vec![0.0; t.n_slots];
        let mut out = vec![vec![0.0; BLOCK_VOLUME]; NUM_VARS];
        let o = PatchLayout::octant();
        for (i, j, k) in o.iter() {
            let pt = o.idx(i, j, k);
            let mut fields = fields_at(patches, i, j, k);
            fields[var::CHI] = fields[var::CHI].max(params.chi_floor);
            derivs.assemble_inputs(&fields, pt, &mut inputs);
            t.eval_into(&inputs, &mut point_out, &mut slots);
            for v in 0..NUM_VARS {
                out[v][pt] = point_out[v];
            }
        }
        out
    }

    /// Smooth patches with multiplicative noise, and χ drawn from
    /// `[-2e-4, 1e-3)` at about a third of the points, so some of it lies
    /// below the default `chi_floor` of 1e-4 (splitmix64 from `seed`).
    fn noisy_patches(h: f64, seed: u64) -> Vec<Vec<f64>> {
        let mut state = seed;
        let mut unit = || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut patches = smooth_patches(h);
        for (v, patch) in patches.iter_mut().enumerate() {
            for x in patch.iter_mut() {
                *x *= 1.0 + 0.1 * (unit() - 0.5);
                if v == var::CHI && unit() < 1.0 / 3.0 {
                    *x = -2e-4 + 1.2e-3 * unit();
                }
            }
        }
        patches
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(6))]
            #[test]
            fn lane_batched_tape_matches_per_point_loop_bitwise(
                seed in 0u64..=u64::MAX,
                h in 0.01f64..0.2,
            ) {
                let patches = noisy_patches(h, seed);
                let refs: Vec<&[f64]> = patches.iter().map(|p| p.as_slice()).collect();
                let params = BssnParams::default();
                let below = patches[var::CHI].iter().filter(|&&c| c < params.chi_floor).count();
                prop_assert!(below > 0, "no χ below the floor");
                let rhs = build_bssn_rhs(params);
                for strat in ScheduleStrategy::all() {
                    let tape = Tape::compile(&rhs.graph, &schedule(&rhs.graph, &rhs.outputs, strat), 56);
                    let expect = per_point_tape(&refs, h, &params, &tape);
                    let mut ws = RhsWorkspace::new(tape.n_slots);
                    let mut out = vec![vec![f64::NAN; BLOCK_VOLUME]; NUM_VARS];
                    let mut views: Vec<&mut [f64]> = out.iter_mut().map(|v| v.as_mut_slice()).collect();
                    let (_, a) = bssn_rhs_patch(&refs, h, &params, &RhsMode::Tape(&tape), &mut ws, &mut views);
                    prop_assert_eq!(a, tape.flops * BLOCK_VOLUME as u64);
                    for v in 0..NUM_VARS {
                        for pt in 0..BLOCK_VOLUME {
                            let (got, want) = (out[v][pt], expect[v][pt]);
                            prop_assert!(
                                got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan()),
                                "{strat:?} var {v} pt {pt}: {got:e} vs per-point {want:e}"
                            );
                        }
                    }
                }
            }
        }
    }
}
