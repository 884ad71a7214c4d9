//! The fused per-patch RHS driver: derivatives + algebraic combination.
//!
//! One call processes one octant: compute all 210 derivative blocks from
//! the 24 padded patches, then run the `A` component at each of the `r^3`
//! points — either the handwritten pointwise code or a generated tape
//! (the SymPyGR / binary-reduce / staged+CSE variants of Table II).

use crate::derivs::{fields_at, DerivWorkspace};
use crate::point::bssn_rhs_point;
use gw_expr::bssn::BssnParams;
use gw_expr::symbols::{NUM_INPUTS, NUM_VARS};
use gw_expr::tape::Tape;
use gw_stencil::patch::PatchLayout;

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
    inputs: Vec<f64>,
    point_out: Vec<f64>,
    slots: Vec<f64>,
}

impl RhsWorkspace {
    pub fn new(max_slots: usize) -> Self {
        Self {
            derivs: DerivWorkspace::new(),
            inputs: vec![0.0; NUM_INPUTS],
            point_out: vec![0.0; NUM_VARS],
            slots: vec![0.0; max_slots.max(1)],
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
    let o = PatchLayout::octant();
    let mut a_flops = 0u64;
    for (i, j, k) in o.iter() {
        let pt = o.idx(i, j, k);
        let mut fields = fields_at(patches, i, j, k);
        // Moving-puncture χ floor (regularizes the 1/χ terms near the
        // punctures; both A paths see the same clamped value).
        fields[gw_expr::symbols::var::CHI] =
            fields[gw_expr::symbols::var::CHI].max(params.chi_floor);
        ws.derivs.assemble_inputs(&fields, pt, &mut ws.inputs);
        match mode {
            RhsMode::Pointwise => {
                bssn_rhs_point(&ws.inputs, &mut ws.point_out, params);
                a_flops += 2200; // handwritten op count estimate
            }
            RhsMode::Tape(t) => {
                t.eval_into(&ws.inputs, &mut ws.point_out, &mut ws.slots);
                a_flops += t.flops;
            }
        }
        for v in 0..NUM_VARS {
            out[v][pt] = ws.point_out[v];
        }
    }
    (d_flops, a_flops)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gw_expr::bssn::build_bssn_rhs;
    use gw_expr::schedule::{schedule, ScheduleStrategy};
    use gw_stencil::patch::{BLOCK_VOLUME, PADDING};

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
}
