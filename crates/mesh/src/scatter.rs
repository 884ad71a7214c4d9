//! Loop-over-octants octant-to-patch (Algorithm 2), patch-to-octant, and
//! interface synchronization — the CPU reference implementations — plus
//! the one index walk every octant→patch kernel executes.
//!
//! The GPU (simulated-device) versions in `gw-core` run the same index
//! arithmetic inside kernel blocks; these host versions are the
//! correctness oracle and the single-core baseline of Fig. 7.

use crate::field::{Field, PatchField};
use crate::grid::{Mesh, ScatterKind, ScatterOp, SyncCopy};
use gw_par::{tree_reduce, ThreadPool, UnsafeSlice};
use gw_stencil::interp::{ProlongWorkspace, Prolongation, FINE_SIDE};
use gw_stencil::patch::{PatchLayout, PADDING, PATCH_VOLUME, POINTS_PER_SIDE};
use std::cell::RefCell;

/// Per-axis padded-patch index range of the padding region in direction
/// `delta` (−1 → `[0,3)`, 0 → `[3,10)`, +1 → `[10,13)`).
#[inline]
pub fn region_range(delta: i8) -> std::ops::Range<usize> {
    match delta {
        -1 => 0..PADDING,
        0 => PADDING..PADDING + POINTS_PER_SIDE,
        1 => PADDING + POINTS_PER_SIDE..PADDING + POINTS_PER_SIDE + PADDING,
        _ => unreachable!("delta components are in {{-1,0,1}}"),
    }
}

/// One axis of a scatter op: the `len` consecutive patch indices from
/// `p0` read the source indices `s0, s0 + step, …`.
#[derive(Clone, Copy, Debug)]
struct AxisRun {
    p0: usize,
    s0: usize,
    step: usize,
    len: usize,
}

/// The source index along axis `ax` is an increasing affine function of
/// the patch index, so the patch indices with a valid source form one
/// contiguous run:
/// * `Same`: `s = p − 3 − 6δ` (source at direction δ ⇒ `src_origin =
///   dst_origin + 6δh`), always in `0..r`;
/// * `Inject`: `s = 2(p − 3) − off`, valid for `0 ≤ s < 6`, and `s == 6`
///   only on the plane this op owns (grid-construction-time ownership,
///   see `ScatterOp::inc6`);
/// * `Prolong`: `s = off + p − 3` into the prolonged `(2r−1)^3` block.
fn axis_run(op: &ScatterOp, ax: usize) -> AxisRun {
    let d = op.delta[ax] as i32;
    let off = op.off[ax];
    let (step, at0, last) = match op.kind {
        ScatterKind::Same => (1, -3 - 6 * d, POINTS_PER_SIDE as i32 - 1),
        ScatterKind::Inject => (2, -6 - off, if op.inc6[ax] { 6 } else { 5 }),
        ScatterKind::Prolong => (1, off - 3, FINE_SIDE as i32 - 1),
    };
    let src = |p: usize| at0 + step * p as i32;
    let mut valid = region_range(op.delta[ax]).filter(|&p| (0..=last).contains(&src(p)));
    match valid.next() {
        Some(p0) => {
            AxisRun { p0, s0: src(p0) as usize, step: step as usize, len: 1 + valid.count() }
        }
        None => AxisRun { p0: 0, s0: 0, step: step as usize, len: 0 },
    }
}

/// A box of prolonged (fine) indices `lo..hi` per axis, stored compactly
/// x-fastest — the part of a source's `(2r−1)^3` prolongation its
/// `Prolong` ops read.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct FineBox {
    pub(crate) lo: [usize; 3],
    pub(crate) hi: [usize; 3],
}

impl FineBox {
    pub(crate) fn dims(&self) -> [usize; 3] {
        std::array::from_fn(|a| self.hi[a] - self.lo[a])
    }

    pub(crate) fn volume(&self) -> usize {
        self.dims().iter().product()
    }

    /// The fine box a `Prolong` op reads (`None` for other kinds or an op
    /// that writes nothing).
    pub(crate) fn of_op(op: &ScatterOp) -> Option<FineBox> {
        if op.kind != ScatterKind::Prolong {
            return None;
        }
        let runs: [AxisRun; 3] = std::array::from_fn(|a| axis_run(op, a));
        runs.iter()
            .all(|r| r.len > 0)
            .then(|| FineBox { lo: runs.map(|r| r.s0), hi: runs.map(|r| r.s0 + r.len) })
    }

    /// The bounding box of two boxes.
    pub(crate) fn union(self, other: FineBox) -> FineBox {
        FineBox {
            lo: std::array::from_fn(|a| self.lo[a].min(other.lo[a])),
            hi: std::array::from_fn(|a| self.hi[a].max(other.hi[a])),
        }
    }

    /// The union box of the `Prolong` ops among `ops` — all a source
    /// prolongs, once, to serve every one of them.
    pub(crate) fn union_of<'a>(ops: impl IntoIterator<Item = &'a ScatterOp>) -> Option<FineBox> {
        ops.into_iter().filter_map(FineBox::of_op).reduce(FineBox::union)
    }
}

/// Enumerate the rows of one scatter op as `(dst, src, stride, len)`: the
/// `len` padded-patch points `dst..dst + len` (x-contiguous) take the
/// source values at `src, src + stride, …`. `src` indexes the source's
/// `r^3` block for `Same`/`Inject` (stride 1 and 2) and the prolonged
/// `(2r−1)^3` block for `Prolong`. Rows come in z-then-y order.
///
/// This single index walk backs every octant→patch kernel — the host
/// scatter, the gpu-sim kernel ([`apply_scatter_op`]) and the CPU
/// backend's gather ([`crate::gather::gather_patches`]) — and the
/// build-time write-partition check in `grid.rs` expands it into points,
/// so what is validated is exactly what is executed.
#[inline]
pub fn for_each_scatter_row(op: &ScatterOp, visit: impl FnMut(usize, usize, usize, usize)) {
    let side = if op.kind == ScatterKind::Prolong { FINE_SIDE } else { POINTS_PER_SIDE };
    for_each_row_in(op, [0; 3], [side; 3], visit)
}

/// [`for_each_scatter_row`] with `src` indexing a source array that holds
/// the box at `origin` with extents `dims` (x fastest) — a [`FineBox`] of
/// the prolonged block, or the whole block.
#[inline]
pub(crate) fn for_each_row_in(
    op: &ScatterOp,
    origin: [usize; 3],
    dims: [usize; 3],
    mut visit: impl FnMut(usize, usize, usize, usize),
) {
    let [x, y, z] = [0, 1, 2].map(|a| axis_run(op, a));
    if x.len == 0 {
        return;
    }
    let p = PatchLayout::padded();
    for tz in 0..z.len {
        let sz = z.s0 + tz * z.step - origin[2];
        for ty in 0..y.len {
            let sy = y.s0 + ty * y.step - origin[1];
            visit(
                p.idx(x.p0, y.p0 + ty, z.p0 + tz),
                (sz * dims[1] + sy) * dims[0] + x.s0 - origin[0],
                x.step,
                x.len,
            );
        }
    }
}

/// Copy one scatter row: `dst[t] = src[at + t·stride]`.
#[inline(always)]
pub(crate) fn copy_row(dst: &mut [f64], src: &[f64], at: usize, stride: usize) {
    if stride == 1 {
        dst.copy_from_slice(&src[at..at + dst.len()]);
    } else {
        for (d, &s) in dst.iter_mut().zip(src[at..].iter().step_by(stride)) {
            *d = s;
        }
    }
}

/// Enumerate the `(dst, src)` point pairs of a physical-boundary padding
/// region `delta`: each point takes the nearest interior point (constant
/// extrapolation; the physical boundary is in the wave zone where fields
/// are smooth and the Sommerfeld RHS dominates). Sources are always
/// interior points, which no boundary region writes.
#[inline]
pub fn for_each_clamp_point(delta: [i8; 3], mut visit: impl FnMut(usize, usize)) {
    let p = PatchLayout::padded();
    let clamp = |t: usize| t.clamp(PADDING, PADDING + POINTS_PER_SIDE - 1);
    for pz in region_range(delta[2]) {
        for py in region_range(delta[1]) {
            for px in region_range(delta[0]) {
                visit(p.idx(px, py, pz), p.idx(clamp(px), clamp(py), clamp(pz)));
            }
        }
    }
}

/// Execute one scatter op for one variable. `src_block` is the source
/// octant's `r^3` data; `fine13` must hold the source's prolonged
/// `(2r−1)^3` block when `kind == Prolong` (pass anything otherwise).
/// Returns (points written, flops).
pub fn apply_scatter_op(
    op: &ScatterOp,
    src_block: &[f64],
    fine13: &[f64],
    dst_patch: &mut [f64],
) -> (u64, u64) {
    let src = if op.kind == ScatterKind::Prolong { fine13 } else { src_block };
    let mut written = 0u64;
    for_each_scatter_row(op, |dst, at, stride, len| {
        copy_row(&mut dst_patch[dst..dst + len], src, at, stride);
        written += len as u64;
    });
    (written, 0)
}

/// Walk one source block's ops for one variable, handing each row to
/// `write_row(op, dst, array, at, stride, len)` with the array it reads:
/// `src` for `Same`/`Inject`, `fine` (the source's prolonged `fbox`) for
/// `Prolong`.
fn scatter_source(
    ops: &[ScatterOp],
    src: &[f64],
    fine: &[f64],
    fbox: Option<FineBox>,
    mut write_row: impl FnMut(&ScatterOp, usize, &[f64], usize, usize, usize),
) {
    for op in ops {
        let (arr, origin, dims) = match (op.kind, fbox) {
            (ScatterKind::Prolong, Some(b)) => (fine, b.lo, b.dims()),
            _ => (src, [0; 3], [POINTS_PER_SIDE; 3]),
        };
        for_each_row_in(op, origin, dims, |dst, at, stride, len| {
            write_row(op, dst, arr, at, stride, len)
        });
    }
}

/// Octant-to-patch via **loop-over-octants** (the paper's approach):
/// each octant copies its interior into its own patch, prolongs itself
/// *once* — over the union box its `Prolong` targets read — and scatters
/// to all neighbor patches. Single-threaded host version.
///
/// Returns total interpolation flops (for AI accounting).
pub fn fill_patches_scatter(mesh: &Mesh, field: &Field, patches: &mut PatchField) -> u64 {
    let prolong = Prolongation::new();
    let mut ws = ProlongWorkspace::new();
    let mut fine = vec![0.0f64; FINE_SIDE.pow(3)];
    let mut flops = 0u64;
    for var in 0..field.dof {
        for e in 0..mesh.n_octants() {
            let src = field.block(var, e);
            gw_stencil::patch::octant_to_patch_interior(src, patches.patch_mut(var, e));
            let ops = mesh.scatter_of(e);
            // One prolongation shared by all Prolong targets (the key
            // saving versus loop-over-patches).
            let fbox = FineBox::union_of(ops);
            if let Some(b) = fbox {
                flops += prolong.prolong_box(src, b.lo, b.hi, &mut fine[..b.volume()], &mut ws);
            }
            scatter_source(ops, src, &fine, fbox, |op, dst, arr, at, stride, len| {
                let patch = patches.patch_mut(var, op.dst as usize);
                copy_row(&mut patch[dst..dst + len], arr, at, stride);
            });
        }
    }
    flops
}

/// Octant-parallel [`fill_patches_scatter`]: one task per source octant,
/// mirroring the paper's one-GPU-block-per-octant kernel grid. Race
/// freedom is structural — each task writes its own patch interior plus
/// the padding targets of its outgoing ops, and `Mesh::build` asserts
/// that those target sets are disjoint across sources (the write
/// partition). Bit-identical to the serial version at any thread count:
/// every patch point has exactly one writer and its value depends only on
/// the source block, never on execution order.
pub fn fill_patches_scatter_par(
    mesh: &Mesh,
    field: &Field,
    patches: &mut PatchField,
    pool: &ThreadPool,
) -> u64 {
    thread_local! {
        static SCRATCH: RefCell<Option<(ProlongWorkspace, Vec<f64>)>> =
            const { RefCell::new(None) };
    }
    let prolong = Prolongation::new();
    let dof = field.dof;
    let n_oct = patches.n_oct;
    let out = UnsafeSlice::new(patches.as_mut_slice());
    let flops: Vec<u64> = pool.map(mesh.n_octants(), |e| {
        SCRATCH.with(|cell| {
            let mut guard = cell.borrow_mut();
            let (ws, fine) = guard
                .get_or_insert_with(|| (ProlongWorkspace::new(), vec![0.0f64; FINE_SIDE.pow(3)]));
            let p = PatchLayout::padded();
            let ops = mesh.scatter_of(e);
            let fbox = FineBox::union_of(ops);
            let mut fl = 0u64;
            for var in 0..dof {
                let src = field.block(var, e);
                // Own interior: this task is the sole writer of patch
                // (var, e)'s interior region.
                let own = (var * n_oct + e) * PATCH_VOLUME;
                for (row, line) in src.chunks_exact(POINTS_PER_SIDE).enumerate() {
                    let (j, k) = (row % POINTS_PER_SIDE, row / POINTS_PER_SIDE);
                    let at = own + p.idx(PADDING, j + PADDING, k + PADDING);
                    // Safety: single writer per point (see fn docs).
                    unsafe { out.slice_mut(at, POINTS_PER_SIDE) }.copy_from_slice(line);
                }
                if let Some(b) = fbox {
                    fl += prolong.prolong_box(src, b.lo, b.hi, &mut fine[..b.volume()], ws);
                }
                scatter_source(ops, src, fine, fbox, |op, dst, arr, at, stride, len| {
                    let base = (var * n_oct + op.dst as usize) * PATCH_VOLUME;
                    // Safety: the write partition makes the row's points
                    // unique to this source octant.
                    let row = unsafe { out.slice_mut(base + dst, len) };
                    copy_row(row, arr, at, stride);
                });
            }
            fl
        })
    });
    tree_reduce(&flops, 0u64, |a, b| a + b)
}

/// Patch-to-octant: copy every patch interior back into the octant blocks
/// (a pure data-movement kernel; Table III reports zero arithmetic
/// intensity for it).
pub fn patches_to_octants(mesh: &Mesh, patches: &PatchField, field: &mut Field) {
    for var in 0..field.dof {
        for e in 0..mesh.n_octants() {
            gw_stencil::patch::patch_interior_to_octant(
                patches.patch(var, e),
                field.block_mut(var, e),
            );
        }
    }
}

/// Fine→coarse interface synchronization: overwrite coarse points that
/// coincide with fine points using the fine (authoritative) values.
pub fn sync_interfaces(mesh: &Mesh, field: &mut Field) {
    for var in 0..field.dof {
        for c in &mesh.syncs {
            let v = field.block(var, c.src_oct as usize)[c.src_idx as usize];
            field.block_mut(var, c.dst_oct as usize)[c.dst_idx as usize] = v;
        }
    }
}

/// Variable-parallel [`sync_interfaces`]: one task per variable, matching
/// the GPU kernel's `grid(NUM_VARS)` launch. The copy list is applied in
/// its serial order *within* each variable — with ≥3 refinement levels a
/// point can be a sync destination for one interface and a sync source
/// for another, so cross-copy order within a variable is preserved, while
/// distinct variables touch disjoint storage.
pub fn sync_interfaces_par(mesh: &Mesh, field: &mut Field, pool: &ThreadPool) {
    sync_copies_par(&mesh.syncs, field, pool);
}

/// [`sync_interfaces_par`] over an explicit copy list (a distributed
/// rank applies the syncs into its owned octants, in mesh order).
pub fn sync_copies_par(syncs: &[SyncCopy], field: &mut Field, pool: &ThreadPool) {
    use gw_stencil::patch::BLOCK_VOLUME;
    if syncs.is_empty() {
        return;
    }
    let n_oct = field.n_oct;
    let dof = field.dof;
    let out = UnsafeSlice::new(field.as_mut_slice());
    pool.for_each_chunked(dof, 1, |var| {
        for c in syncs {
            // Safety: all accesses of task `var` stay within variable
            // `var`'s block range; tasks are disjoint per variable.
            unsafe {
                let v = out
                    .read((var * n_oct + c.src_oct as usize) * BLOCK_VOLUME + c.src_idx as usize);
                out.write(
                    (var * n_oct + c.dst_oct as usize) * BLOCK_VOLUME + c.dst_idx as usize,
                    v,
                );
            }
        }
    });
}

/// Fill domain-boundary padding regions by clamped copies of the nearest
/// interior point ([`for_each_clamp_point`]; the far-field boundaries
/// additionally get Sommerfeld conditions on the RHS).
pub fn fill_boundary_padding(mesh: &Mesh, patches: &mut PatchField, dof: usize) {
    for var in 0..dof {
        for &(oct, delta) in &mesh.boundary_regions {
            let patch = patches.patch_mut(var, oct as usize);
            for_each_clamp_point(delta, |dst, src| patch[dst] = patch[src]);
        }
    }
}

/// Region-parallel [`fill_boundary_padding`]: one task per boundary
/// `(octant, delta)` region. Regions of the same patch are disjoint, and
/// the clamped read source is always in the patch interior, which this
/// kernel never writes.
pub fn fill_boundary_padding_par(
    mesh: &Mesh,
    patches: &mut PatchField,
    dof: usize,
    pool: &ThreadPool,
) {
    let regions = &mesh.boundary_regions;
    let n_oct = patches.n_oct;
    let out = UnsafeSlice::new(patches.as_mut_slice());
    pool.for_each(regions.len(), |ri| {
        let (oct, delta) = regions[ri];
        for var in 0..dof {
            let base = (var * n_oct + oct as usize) * PATCH_VOLUME;
            for_each_clamp_point(delta, |dst, src| {
                // Safety: reads hit the (never-written) interior; each
                // padding point belongs to exactly one region.
                unsafe { out.write(base + dst, out.read(base + src)) };
            });
        }
    });
}

/// The per-point walk the row walk replaced, kept as the oracle of
/// [`for_each_scatter_row`]: `(dst_idx, src_idx)` pairs in z, y, x order.
#[cfg(test)]
pub(crate) fn for_each_scatter_point(op: &ScatterOp, mut visit: impl FnMut(usize, usize)) {
    let p = PatchLayout::padded();
    let o = PatchLayout::octant();
    match op.kind {
        ScatterKind::Same => {
            for pz in region_range(op.delta[2]) {
                let ez = pz as i32 - 3 - 6 * op.delta[2] as i32;
                for py in region_range(op.delta[1]) {
                    let ey = py as i32 - 3 - 6 * op.delta[1] as i32;
                    for px in region_range(op.delta[0]) {
                        let ex = px as i32 - 3 - 6 * op.delta[0] as i32;
                        visit(p.idx(px, py, pz), o.idx(ex as usize, ey as usize, ez as usize));
                    }
                }
            }
        }
        ScatterKind::Inject => {
            let valid = |i: i32, ax: usize| i >= 0 && (i < 6 || (i == 6 && op.inc6[ax]));
            for pz in region_range(op.delta[2]) {
                let ez = 2 * (pz as i32 - 3) - op.off[2];
                if !valid(ez, 2) {
                    continue;
                }
                for py in region_range(op.delta[1]) {
                    let ey = 2 * (py as i32 - 3) - op.off[1];
                    if !valid(ey, 1) {
                        continue;
                    }
                    for px in region_range(op.delta[0]) {
                        let ex = 2 * (px as i32 - 3) - op.off[0];
                        if !valid(ex, 0) {
                            continue;
                        }
                        visit(p.idx(px, py, pz), o.idx(ex as usize, ey as usize, ez as usize));
                    }
                }
            }
        }
        ScatterKind::Prolong => {
            let f = FINE_SIDE as i32;
            for pz in region_range(op.delta[2]) {
                let jz = op.off[2] + pz as i32 - 3;
                if !(0..f).contains(&jz) {
                    continue;
                }
                for py in region_range(op.delta[1]) {
                    let jy = op.off[1] + py as i32 - 3;
                    if !(0..f).contains(&jy) {
                        continue;
                    }
                    for px in region_range(op.delta[0]) {
                        let jx = op.off[0] + px as i32 - 3;
                        if !(0..f).contains(&jx) {
                            continue;
                        }
                        visit(p.idx(px, py, pz), ((jz * f + jy) * f + jx) as usize);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use gw_octree::{balance_octree, complete_octree, BalanceMode, Domain, MortonKey};

    /// Levels 2–4: a uniform level-2 mesh with the domain corner
    /// `(1, 1, 0)` refined to level 4, so octants of every level touch the
    /// physical boundary and the refinement sits mid-curve (a rank owning
    /// `n/3..2n/3` has interior octants and prolongs both its own blocks
    /// and ghosts).
    pub(crate) fn multi_level_mesh() -> Mesh {
        let corner = MortonKey::root().children()[3].children()[3].children()[3];
        let level2 = MortonKey::root().children().into_iter().flat_map(|k| k.children());
        let mut seeds: Vec<MortonKey> = level2.filter(|k| !k.is_ancestor_of(&corner)).collect();
        seeds.extend(corner.children());
        let t = complete_octree(seeds);
        Mesh::build(Domain::unit(), &balance_octree(&t, BalanceMode::Full))
    }

    /// Row expansion reproduces the point walk's `(dst, src)` sequence
    /// exactly, for every op of uniform, 2-level and 3-level meshes.
    #[test]
    fn scatter_rows_expand_to_the_point_oracle() {
        for (mesh, n_levels) in
            [(uniform_mesh(2), 1), (adaptive_mesh(), 2), (multi_level_mesh(), 3)]
        {
            let levels: std::collections::HashSet<u8> =
                mesh.octants.iter().map(|o| o.level).collect();
            assert_eq!(levels.len(), n_levels);
            for op in &mesh.scatter {
                let mut rows = Vec::new();
                for_each_scatter_row(op, |dst, src, stride, len| {
                    rows.extend((0..len).map(|t| (dst + t, src + t * stride)));
                });
                let mut points = Vec::new();
                for_each_scatter_point(op, |dst, src| points.push((dst, src)));
                assert!(!points.is_empty(), "{op:?} writes nothing");
                assert_eq!(rows, points, "{op:?}");
            }
        }
    }

    fn adaptive_mesh() -> Mesh {
        let c0 = MortonKey::root().children()[0];
        let fine: Vec<MortonKey> = c0.children()[7].children().to_vec();
        let t = complete_octree(fine);
        let t = balance_octree(&t, BalanceMode::Full);
        Mesh::build(Domain::unit(), &t)
    }

    fn uniform_mesh(level: u8) -> Mesh {
        let mut leaves = vec![MortonKey::root()];
        for _ in 0..level {
            leaves = leaves.iter().flat_map(|k| k.children()).collect();
        }
        leaves.sort();
        Mesh::build(Domain::unit(), &leaves)
    }

    /// Fill a field with a polynomial that 6th-order interpolation must
    /// reproduce exactly, then check every written padding point.
    fn poly(p: [f64; 3]) -> f64 {
        1.0 + 2.0 * p[0] - p[1] + 0.5 * p[2] + p[0] * p[1] - p[2] * p[2]
            + p[0] * p[0] * p[2]
            + 0.25 * p[1] * p[1] * p[1]
    }

    fn analytic_field(mesh: &Mesh) -> Field {
        let mut f = Field::zeros(1, mesh.n_octants());
        for oct in 0..mesh.n_octants() {
            let l = PatchLayout::octant();
            let coords: Vec<f64> =
                l.iter().map(|(i, j, k)| poly(mesh.point_coords(oct, i, j, k))).collect();
            f.block_mut(0, oct).copy_from_slice(&coords);
        }
        f
    }

    fn check_patches(mesh: &Mesh, patches: &PatchField, tol: f64) {
        let p = PatchLayout::padded();
        let boundary: std::collections::HashSet<(u32, [i8; 3])> =
            mesh.boundary_regions.iter().copied().collect();
        let mut checked = 0usize;
        for oct in 0..mesh.n_octants() {
            let info = &mesh.octants[oct];
            let patch = patches.patch(0, oct);
            for (i, j, k) in p.iter() {
                // Which region is this point in?
                let reg = |t: usize| -> i8 {
                    if t < PADDING {
                        -1
                    } else if t < PADDING + POINTS_PER_SIDE {
                        0
                    } else {
                        1
                    }
                };
                let delta = [reg(i), reg(j), reg(k)];
                if boundary.contains(&(oct as u32, delta)) {
                    continue; // boundary padding is extrapolated, skip
                }
                let pos = [
                    info.origin[0] + (i as f64 - PADDING as f64) * info.h,
                    info.origin[1] + (j as f64 - PADDING as f64) * info.h,
                    info.origin[2] + (k as f64 - PADDING as f64) * info.h,
                ];
                let expect = poly(pos);
                let got = patch[p.idx(i, j, k)];
                assert!(
                    (got - expect).abs() < tol,
                    "oct {oct} point ({i},{j},{k}) delta {delta:?}: {got} vs {expect}"
                );
                checked += 1;
            }
        }
        assert!(checked > 0);
    }

    #[test]
    fn uniform_grid_padding_exact() {
        let mesh = uniform_mesh(2);
        let f = analytic_field(&mesh);
        let mut patches = PatchField::zeros(1, mesh.n_octants());
        patches.fill(f64::NAN);
        fill_patches_scatter(&mesh, &f, &mut patches);
        check_patches(&mesh, &patches, 1e-12);
    }

    #[test]
    fn adaptive_grid_padding_exact_on_polynomial() {
        let mesh = adaptive_mesh();
        let f = analytic_field(&mesh);
        let mut patches = PatchField::zeros(1, mesh.n_octants());
        patches.fill(f64::NAN);
        fill_patches_scatter(&mesh, &f, &mut patches);
        check_patches(&mesh, &patches, 1e-9);
    }

    #[test]
    fn no_nan_left_in_interior_regions() {
        // Every non-boundary padding point must be written exactly once.
        let mesh = adaptive_mesh();
        let f = analytic_field(&mesh);
        let mut patches = PatchField::zeros(1, mesh.n_octants());
        patches.fill(f64::NAN);
        fill_patches_scatter(&mesh, &f, &mut patches);
        let p = PatchLayout::padded();
        let boundary: std::collections::HashSet<(u32, [i8; 3])> =
            mesh.boundary_regions.iter().copied().collect();
        for oct in 0..mesh.n_octants() {
            let patch = patches.patch(0, oct);
            for (i, j, k) in p.iter() {
                let reg = |t: usize| -> i8 {
                    if t < PADDING {
                        -1
                    } else if t < PADDING + POINTS_PER_SIDE {
                        0
                    } else {
                        1
                    }
                };
                let delta = [reg(i), reg(j), reg(k)];
                if delta == [0, 0, 0] || boundary.contains(&(oct as u32, delta)) {
                    continue;
                }
                assert!(
                    !patch[p.idx(i, j, k)].is_nan(),
                    "unwritten padding at oct {oct} ({i},{j},{k}) delta {delta:?}"
                );
            }
        }
    }

    #[test]
    fn patch_to_octant_roundtrip() {
        let mesh = uniform_mesh(1);
        let f = analytic_field(&mesh);
        let mut patches = PatchField::zeros(1, mesh.n_octants());
        fill_patches_scatter(&mesh, &f, &mut patches);
        let mut back = Field::zeros(1, mesh.n_octants());
        patches_to_octants(&mesh, &patches, &mut back);
        for oct in 0..mesh.n_octants() {
            for (a, b) in f.block(0, oct).iter().zip(back.block(0, oct).iter()) {
                assert_eq!(a, b);
            }
        }
    }

    #[test]
    fn sync_interfaces_copies_fine_to_coarse() {
        let mesh = adaptive_mesh();
        assert!(!mesh.syncs.is_empty());
        let mut f = analytic_field(&mesh);
        // Perturb all coarse octants' data; sync must restore coincident
        // points from fine neighbors.
        let sync_dsts: std::collections::HashSet<u32> =
            mesh.syncs.iter().map(|c| c.dst_oct).collect();
        for &d in &sync_dsts {
            for v in f.block_mut(0, d as usize).iter_mut() {
                *v += 100.0;
            }
        }
        sync_interfaces(&mesh, &mut f);
        for c in &mesh.syncs {
            let fine_v = f.block(0, c.src_oct as usize)[c.src_idx as usize];
            let coarse_v = f.block(0, c.dst_oct as usize)[c.dst_idx as usize];
            assert_eq!(fine_v, coarse_v);
        }
    }

    #[test]
    fn sync_targets_are_unique() {
        let mesh = adaptive_mesh();
        let mut seen = std::collections::HashSet::new();
        for c in &mesh.syncs {
            assert!(seen.insert((c.dst_oct, c.dst_idx)), "duplicate sync target {c:?}");
        }
    }

    #[test]
    fn boundary_padding_filled() {
        let mesh = uniform_mesh(1);
        let f = analytic_field(&mesh);
        let mut patches = PatchField::zeros(1, mesh.n_octants());
        patches.fill(f64::NAN);
        fill_patches_scatter(&mesh, &f, &mut patches);
        fill_boundary_padding(&mesh, &mut patches, 1);
        // Now no NaN anywhere.
        for oct in 0..mesh.n_octants() {
            assert!(patches.patch(0, oct).iter().all(|v| !v.is_nan()));
        }
    }

    /// The parallel kernels must be bit-identical to the serial oracles
    /// for every thread count — the core determinism claim of the
    /// threading model (DESIGN.md).
    #[test]
    fn parallel_kernels_bitwise_match_serial_at_any_thread_count() {
        let mesh = adaptive_mesh();
        let dof = 3;
        let mut f = Field::zeros(dof, mesh.n_octants());
        for var in 0..dof {
            for oct in 0..mesh.n_octants() {
                for (i, v) in f.block_mut(var, oct).iter_mut().enumerate() {
                    *v = ((var * 1009 + oct * 131 + i) as f64).sin();
                }
            }
        }
        // Serial reference pipeline.
        let mut p_ref = PatchField::zeros(dof, mesh.n_octants());
        p_ref.fill(f64::NAN);
        let flops_ref = fill_patches_scatter(&mesh, &f, &mut p_ref);
        fill_boundary_padding(&mesh, &mut p_ref, dof);
        let mut sync_ref = f.clone();
        sync_interfaces(&mesh, &mut sync_ref);
        for threads in [1usize, 2, 3, 8] {
            let pool = gw_par::ThreadPool::new(threads);
            let mut p = PatchField::zeros(dof, mesh.n_octants());
            p.fill(f64::NAN);
            let flops = fill_patches_scatter_par(&mesh, &f, &mut p, &pool);
            assert_eq!(flops, flops_ref, "flop count differs at {threads} threads");
            fill_boundary_padding_par(&mesh, &mut p, dof, &pool);
            let bits = |s: &[f64]| s.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(p.as_slice()),
                bits(p_ref.as_slice()),
                "patches differ at {threads} threads"
            );
            let mut sync = f.clone();
            sync_interfaces_par(&mesh, &mut sync, &pool);
            assert_eq!(bits(sync.as_slice()), bits(sync_ref.as_slice()));
        }
    }

    #[test]
    fn scatter_flops_counted_for_adaptive_grids_only() {
        let u = uniform_mesh(2);
        let fu = analytic_field(&u);
        let mut pu = PatchField::zeros(1, u.n_octants());
        assert_eq!(fill_patches_scatter(&u, &fu, &mut pu), 0);
        let a = adaptive_mesh();
        let fa = analytic_field(&a);
        let mut pa = PatchField::zeros(1, a.n_octants());
        assert!(fill_patches_scatter(&a, &fa, &mut pa) > 0);
    }
}
