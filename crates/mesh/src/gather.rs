//! Loop-over-patches octant-to-patch: each destination patch *pulls* its
//! padding from neighbor octants.
//!
//! Two forms:
//!
//! * [`fill_patches_gather`] — the Dendro-GR baseline (Fig. 7). The result
//!   is identical to the scatter variant; the cost is not: a coarse octant
//!   adjacent to several finer patches is re-interpolated once per target
//!   (redundant interpolations), and reads hop between source octants
//!   (poor locality) — the two deficiencies section IV-A calls out, worth
//!   ~3× on a single core in the paper.
//! * [`gather_patches`] — the CPU backend's fused form, which keeps the
//!   scatter's one-prolongation-per-source by reading a [`ProlongCache`]
//!   filled once per stage, and assembles one octant's patches in a small
//!   local buffer right before its RHS instead of writing a full-mesh
//!   [`PatchField`].

use crate::field::{Field, PatchField};
use crate::grid::{Mesh, ScatterKind};
use crate::scatter::{apply_scatter_op, copy_row, for_each_clamp_point, for_each_row_in, FineBox};
use gw_par::{ThreadPool, UnsafeSlice};
use gw_stencil::interp::{ProlongWorkspace, Prolongation, FINE_SIDE};
use gw_stencil::patch::{octant_to_patch_interior, PATCH_VOLUME, POINTS_PER_SIDE};
use std::ops::Range;

/// Octant-to-patch via loop-over-patches. Returns interpolation flops —
/// compare with [`crate::scatter::fill_patches_scatter`]'s count to see
/// the redundancy factor.
pub fn fill_patches_gather(mesh: &Mesh, field: &Field, patches: &mut PatchField) -> u64 {
    let prolong = Prolongation::new();
    let mut ws = ProlongWorkspace::new();
    let mut fine13 = vec![0.0f64; FINE_SIDE * FINE_SIDE * FINE_SIDE];
    let mut flops = 0u64;
    for var in 0..field.dof {
        for b in 0..mesh.n_octants() {
            // Own interior first.
            octant_to_patch_interior(field.block(var, b), patches.patch_mut(var, b));
            // Pull each incoming contribution; re-interpolate per op —
            // the gather has no way to share a source's prolongation
            // across destinations.
            for op in mesh.gather_of(b) {
                let src = field.block(var, op.src as usize);
                if op.kind == ScatterKind::Prolong {
                    flops += prolong.prolong3d_ws(src, &mut fine13, &mut ws);
                }
                let dst = patches.patch_mut(var, op.dst as usize);
                apply_scatter_op(op, src, &fine13, dst);
            }
        }
    }
    flops
}

/// One cached prolongation: source octant `src`'s prolonged `fine` box,
/// for every variable, at `data[offset..][..dof · volume]`.
#[derive(Clone, Copy, Debug)]
struct Slot {
    src: u32,
    fine: FineBox,
    offset: usize,
}

/// Prolongations shared by the gathers of one stage.
///
/// Each source octant whose ops into the destination patches include a
/// `Prolong` gets one slot holding the union box of those ops, for all
/// variables — the scatter's "prolong each source once", kept while the
/// patches themselves are assembled per destination. Slots of sources
/// inside the destination range come first, so a distributed rank can
/// fill them before its ghosts arrive and the rest after.
pub struct ProlongCache {
    slots: Vec<Slot>,
    /// Slot index per source octant (`u32::MAX`: none).
    slot_of: Vec<u32>,
    /// Slots `..n_inner` have sources inside the destination range.
    n_inner: usize,
    dof: usize,
    data: Vec<f64>,
}

impl ProlongCache {
    /// The slots feeding the patches of the octants `dst`, for `dof`
    /// variables. O(incoming ops of `dst`).
    pub fn new(mesh: &Mesh, dst: Range<usize>, dof: usize) -> Self {
        let n = mesh.n_octants();
        let mut boxes: Vec<Option<FineBox>> = vec![None; n];
        for op in dst.clone().flat_map(|b| mesh.gather_of(b)) {
            if let Some(fb) = FineBox::of_op(op) {
                let s = &mut boxes[op.src as usize];
                *s = Some(s.map_or(fb, |b| b.union(fb)));
            }
        }
        let with_box = |e: &usize| boxes[*e].is_some();
        let (inner, outer): (Vec<usize>, Vec<usize>) =
            (0..n).filter(with_box).partition(|e| dst.contains(e));
        let mut slot_of = vec![u32::MAX; n];
        let mut slots = Vec::with_capacity(inner.len() + outer.len());
        let mut offset = 0;
        for &e in inner.iter().chain(&outer) {
            let fine = boxes[e].expect("filtered on a box");
            slot_of[e] = slots.len() as u32;
            slots.push(Slot { src: e as u32, fine, offset });
            offset += dof * fine.volume();
        }
        Self { slots, slot_of, n_inner: inner.len(), dof, data: vec![0.0; offset] }
    }

    /// Slots whose sources lie inside the destination range.
    pub fn inner_slots(&self) -> Range<usize> {
        0..self.n_inner
    }

    /// Slots whose sources lie outside it (a rank's ghosts).
    pub fn outer_slots(&self) -> Range<usize> {
        self.n_inner..self.slots.len()
    }

    /// Prolong the sources of `slots` from `field`, one task per slot.
    /// `with_ws` lends a task the calling worker's prolongation scratch.
    pub fn fill<W>(&mut self, field: &Field, slots: Range<usize>, pool: &ThreadPool, with_ws: W)
    where
        W: Fn(&mut dyn FnMut(&mut ProlongWorkspace)) + Sync,
    {
        assert_eq!(field.dof, self.dof);
        let prolong = Prolongation::new();
        let (dof, list) = (self.dof, &self.slots[slots]);
        let out = UnsafeSlice::new(&mut self.data);
        pool.for_each(list.len(), |i| {
            let Slot { src, fine, offset } = list[i];
            let vol = fine.volume();
            // Safety: slot regions are disjoint, one task per slot.
            let dst = unsafe { out.slice_mut(offset, dof * vol) };
            with_ws(&mut |ws| {
                for (var, box_v) in dst.chunks_exact_mut(vol).enumerate() {
                    let coarse = field.block(var, src as usize);
                    prolong.prolong_box(coarse, fine.lo, fine.hi, box_v, ws);
                }
            });
        });
    }

    /// Source `e`'s box and its values, variable-major.
    fn slot(&self, e: usize) -> (FineBox, &[f64]) {
        let Slot { fine, offset, .. } = self.slots[self.slot_of[e] as usize];
        (fine, &self.data[offset..offset + self.dof * fine.volume()])
    }
}

/// Assemble octant `e`'s padded patches, all variables, into `local`
/// (`dof × PATCH_VOLUME`, variable-major): the interior copy, one row
/// pass per incoming op (from `cache` for `Prolong`, from the source
/// blocks otherwise), then the clamp fill of `e`'s physical-boundary
/// regions.
///
/// Every point of `local` is written, by exactly one of these (the
/// write partition and coverage that `Mesh::try_build` checks), so the
/// result is bitwise the scatter's patch whatever `local` held before
/// and in whatever order the ops run.
pub fn gather_patches(
    mesh: &Mesh,
    field: &Field,
    cache: &ProlongCache,
    e: usize,
    local: &mut [f64],
) {
    assert_eq!(local.len(), field.dof * PATCH_VOLUME);
    for (var, patch) in local.chunks_exact_mut(PATCH_VOLUME).enumerate() {
        octant_to_patch_interior(field.block(var, e), patch);
    }
    for op in mesh.gather_of(e) {
        let src = op.src as usize;
        if op.kind == ScatterKind::Prolong {
            let (fine, data) = cache.slot(src);
            let vol = fine.volume();
            for_each_row_in(op, fine.lo, fine.dims(), |dst, at, stride, len| {
                for (patch, values) in
                    local.chunks_exact_mut(PATCH_VOLUME).zip(data.chunks_exact(vol))
                {
                    copy_row(&mut patch[dst..dst + len], values, at, stride);
                }
            });
        } else {
            for_each_row_in(op, [0; 3], [POINTS_PER_SIDE; 3], |dst, at, stride, len| {
                for (var, patch) in local.chunks_exact_mut(PATCH_VOLUME).enumerate() {
                    copy_row(&mut patch[dst..dst + len], field.block(var, src), at, stride);
                }
            });
        }
    }
    for &(_, delta) in mesh.boundary_of(e) {
        for_each_clamp_point(delta, |dst, src| {
            for patch in local.chunks_exact_mut(PATCH_VOLUME) {
                patch[dst] = patch[src];
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::Mesh;
    use crate::scatter::fill_patches_scatter;
    use gw_octree::{balance_octree, complete_octree, BalanceMode, Domain, MortonKey};
    use gw_stencil::patch::PatchLayout;

    fn adaptive_mesh() -> Mesh {
        let c0 = MortonKey::root().children()[0];
        let fine: Vec<MortonKey> = c0.children()[7].children().to_vec();
        let t = complete_octree(fine);
        let t = balance_octree(&t, BalanceMode::Full);
        Mesh::build(Domain::unit(), &t)
    }

    fn test_field(mesh: &Mesh) -> Field {
        let mut f = Field::zeros(2, mesh.n_octants());
        for var in 0..2 {
            for oct in 0..mesh.n_octants() {
                let l = PatchLayout::octant();
                let vals: Vec<f64> = l
                    .iter()
                    .map(|(i, j, k)| {
                        let p = mesh.point_coords(oct, i, j, k);
                        (1.0 + var as f64) * (p[0] + 2.0 * p[1] * p[2]) + p[0] * p[0]
                    })
                    .collect();
                f.block_mut(var, oct).copy_from_slice(&vals);
            }
        }
        f
    }

    #[test]
    fn gather_equals_scatter() {
        let mesh = adaptive_mesh();
        let f = test_field(&mesh);
        let mut pg = PatchField::zeros(2, mesh.n_octants());
        let mut ps = PatchField::zeros(2, mesh.n_octants());
        pg.fill(f64::NAN);
        ps.fill(f64::NAN);
        fill_patches_gather(&mesh, &f, &mut pg);
        fill_patches_scatter(&mesh, &f, &mut ps);
        for var in 0..2 {
            for oct in 0..mesh.n_octants() {
                for (a, b) in pg.patch(var, oct).iter().zip(ps.patch(var, oct).iter()) {
                    match (a.is_nan(), b.is_nan()) {
                        (true, true) => {}
                        (false, false) => assert_eq!(a, b),
                        _ => panic!("coverage mismatch between gather and scatter"),
                    }
                }
            }
        }
    }

    #[test]
    fn gather_does_redundant_interpolations() {
        let mesh = adaptive_mesh();
        let f = test_field(&mesh);
        let mut pg = PatchField::zeros(2, mesh.n_octants());
        let mut ps = PatchField::zeros(2, mesh.n_octants());
        let flops_gather = fill_patches_gather(&mesh, &f, &mut pg);
        let flops_scatter = fill_patches_scatter(&mesh, &f, &mut ps);
        assert!(
            flops_gather > flops_scatter,
            "gather {flops_gather} must re-interpolate more than scatter {flops_scatter}"
        );
    }

    fn bits(s: &[f64]) -> Vec<u64> {
        s.iter().map(|v| v.to_bits()).collect()
    }

    /// Signed, wide-magnitude values with no structure to hide a misplaced
    /// read.
    fn random_field(mesh: &Mesh, dof: usize) -> Field {
        let mut f = Field::zeros(dof, mesh.n_octants());
        for (i, v) in f.as_mut_slice().iter_mut().enumerate() {
            let x = (i as f64 * 0.618_033_988_75).fract();
            *v = (x - 0.5) * 10f64.powi((i % 9) as i32 - 4);
        }
        f
    }

    fn lend_ws(run: &mut dyn FnMut(&mut ProlongWorkspace)) {
        run(&mut ProlongWorkspace::new())
    }

    /// The scatter's patches plus the physical-boundary fill: what a
    /// gathered patch must equal bit for bit.
    fn scattered(mesh: &Mesh, f: &Field, pool: &ThreadPool) -> PatchField {
        let mut p = PatchField::zeros(f.dof, mesh.n_octants());
        crate::scatter::fill_patches_scatter_par(mesh, f, &mut p, pool);
        crate::scatter::fill_boundary_padding_par(mesh, &mut p, f.dof, pool);
        p
    }

    fn assert_gathered(mesh: &Mesh, f: &Field, cache: &ProlongCache, e: usize, want: &PatchField) {
        // Stale values from a previous octant must not survive.
        let mut local = vec![f64::NAN; f.dof * PATCH_VOLUME];
        gather_patches(mesh, f, cache, e, &mut local);
        for (var, patch) in local.chunks_exact(PATCH_VOLUME).enumerate() {
            assert_eq!(bits(patch), bits(want.patch(var, e)), "octant {e} var {var}");
        }
    }

    #[test]
    fn gather_patches_match_scatter_bitwise() {
        let pool = ThreadPool::new(2);
        for mesh in [adaptive_mesh(), crate::scatter::tests::multi_level_mesh()] {
            let f = random_field(&mesh, 3);
            let want = scattered(&mesh, &f, &pool);
            let n = mesh.n_octants();
            let mut cache = ProlongCache::new(&mesh, 0..n, 3);
            assert!(cache.outer_slots().is_empty());
            cache.fill(&f, cache.inner_slots(), &pool, lend_ws);
            for e in 0..n {
                assert_gathered(&mesh, &f, &cache, e, &want);
            }
        }
    }

    /// A rank's split: the slots of its own sources filled while the
    /// ghost blocks are stale serve its interior octants; the ghost slots
    /// filled after they land complete the boundary octants.
    #[test]
    fn owned_then_ghost_cache_fill_matches_scatter_on_owned_patches() {
        let pool = ThreadPool::new(2);
        let mesh = crate::scatter::tests::multi_level_mesh();
        let f = random_field(&mesh, 2);
        let want = scattered(&mesh, &f, &pool);
        let n = mesh.n_octants();
        let owned = n / 3..2 * n / 3;
        let mut stale = f.clone();
        for e in (0..n).filter(|e| !owned.contains(e)) {
            (0..2).for_each(|v| stale.block_mut(v, e).fill(f64::NAN));
        }
        let mut cache = ProlongCache::new(&mesh, owned.clone(), 2);
        assert!(!cache.outer_slots().is_empty());
        cache.fill(&stale, cache.inner_slots(), &pool, lend_ws);
        let reads_ghost =
            |e: usize| mesh.gather_of(e).iter().any(|op| !owned.contains(&(op.src as usize)));
        let (boundary, interior): (Vec<usize>, Vec<usize>) =
            owned.clone().partition(|&e| reads_ghost(e));
        assert!(!interior.is_empty() && !boundary.is_empty());
        for &e in &interior {
            assert_gathered(&mesh, &stale, &cache, e, &want);
        }
        cache.fill(&f, cache.outer_slots(), &pool, lend_ws);
        for &e in &boundary {
            assert_gathered(&mesh, &f, &cache, e, &want);
        }
    }
}
