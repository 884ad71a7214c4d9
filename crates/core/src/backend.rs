//! Execution backends: host (CPU) and simulated-device (GPU).
//!
//! Both backends hold the evolved state *resident* (the GPU backend in
//! device buffers), expose RK4's primitive operations over named buffer
//! slots, and produce bit-identical results — the property behind the
//! paper's Fig. 21 CPU-vs-GPU waveform overlay.
//!
//! There is exactly **one** method surface: the [`Backend`] trait. Each
//! backend implements only the uninstrumented `*_raw` primitives; the
//! public operations (`upload`, `eval_rhs`, `axpy`, …) are provided
//! methods defined once on the trait, which wrap the primitives in
//! gw-obs phase spans (`o2p`, `rhs`, `axpy`, `p2o`) and counters. The
//! instrumentation is timing/counting only — it never touches buffer
//! contents — so enabling a probe cannot perturb the evolution.

use crate::boundary::{boundary_face_masks, sommerfeld_fix};
use gw_bssn::rhs::{bssn_rhs_patch, RhsMode, RhsWorkspace};
use gw_bssn::BssnParams;
use gw_expr::bssn::build_bssn_rhs;
use gw_expr::schedule::{schedule, ScheduleStrategy};
use gw_expr::symbols::{NUM_INPUTS, NUM_VARS};
use gw_expr::tape::Tape;
use gw_gpu_sim::{CounterSnapshot, Device, LaunchConfig};
use gw_mesh::grid::SyncCopy;
use gw_mesh::scatter::{for_each_clamp_point, sync_copies_par};
use gw_mesh::{gather_patches, Field, Mesh, ProlongCache};
use gw_obs::{Counter, Phase, Probe};
use gw_par::{tree_reduce, ThreadPool, UnsafeSlice};
use gw_stencil::interp::ProlongWorkspace;
use gw_stencil::patch::{BLOCK_VOLUME, PATCH_VOLUME};
use std::cell::RefCell;
use std::ops::Range;
use std::sync::Arc;

/// Resident buffer slots used by the RK4 driver.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Buf {
    /// The solution.
    U,
    /// RK stage input.
    Stage,
    /// RHS output.
    K,
    /// RK accumulator.
    Acc,
}

const NUM_BUFS: usize = 4;

fn buf_index(b: Buf) -> usize {
    match b {
        Buf::U => 0,
        Buf::Stage => 1,
        Buf::K => 2,
        Buf::Acc => 3,
    }
}

/// Which `A`-component implementation the RHS uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RhsKind {
    /// Handwritten pointwise code.
    Pointwise,
    /// Generated tape with the given scheduling strategy (Table II).
    Generated(ScheduleStrategy),
}

fn build_tape(kind: RhsKind, params: BssnParams) -> Option<Tape> {
    match kind {
        RhsKind::Pointwise => None,
        RhsKind::Generated(strategy) => {
            let rhs = build_bssn_rhs(params);
            let sch = schedule(&rhs.graph, &rhs.outputs, strategy);
            Some(Tape::compile(&rhs.graph, &sch, 56))
        }
    }
}

/// The uniform backend surface the solver drives.
///
/// Implementors provide the `*_raw` primitives plus identity/metadata;
/// callers use the provided instrumented operations. The split keeps
/// the obs hooks defined in exactly one place.
pub trait Backend: Send {
    /// Short backend identifier ("cpu", "gpu-sim").
    fn name(&self) -> &'static str;

    /// The attached observability probe (disabled by default).
    fn probe(&self) -> &Probe;

    /// Attach an observability probe (also propagated to the device on
    /// the GPU backend, so kernel launches record spans).
    fn set_probe(&mut self, probe: Probe);

    /// Device traffic counters, when the backend meters them.
    fn counters(&self) -> Option<CounterSnapshot> {
        None
    }

    /// Host worker threads driving this backend (1 when the backend
    /// manages its own launch parallelism).
    fn n_threads(&self) -> usize {
        1
    }

    /// Per-`eval_rhs` scatter volume: (octant patches assembled, patch
    /// points written). Used for counter attribution only.
    fn scatter_stats(&self) -> (u64, u64);

    /// Host→resident state transfer (solution slot).
    fn upload_raw(&mut self, u: &Field);

    /// Resident→host state transfer (solution slot).
    fn download_raw(&self) -> Field;

    /// Octant-to-patch scatter (+ boundary padding fill) of `input`.
    fn o2p_raw(&mut self, mesh: &Mesh, input: Buf);

    /// BSSN RHS over the current patches into `output`.
    fn rhs_raw(&mut self, mesh: &Mesh, output: Buf);

    /// `y += a·x`.
    fn axpy_raw(&mut self, y: Buf, a: f64, x: Buf);

    /// `y = base + a·x`.
    fn assign_axpy_raw(&mut self, y: Buf, base: Buf, a: f64, x: Buf);

    /// `dst = src`.
    fn copy_raw(&mut self, dst: Buf, src: Buf);

    /// Coarse–fine duplicated-point consistency on the solution slot.
    fn sync_interfaces_raw(&mut self, mesh: &Mesh);

    // ------------------------------------------------------------------
    // Instrumented operations (defined once; do not override).
    // ------------------------------------------------------------------

    /// Upload the solution (metered as `bytes_moved`).
    fn upload(&mut self, u: &Field) {
        self.probe().add(Counter::BytesMoved, 8 * u.as_slice().len() as u64);
        self.upload_raw(u);
    }

    /// Download the solution (metered as `bytes_moved`).
    fn download(&self) -> Field {
        let f = self.download_raw();
        self.probe().add(Counter::BytesMoved, 8 * f.as_slice().len() as u64);
        f
    }

    /// Full RHS evaluation: o2p scatter then RHS kernel, as two phase
    /// spans.
    fn eval_rhs(&mut self, mesh: &Mesh, input: Buf, output: Buf) {
        assert_ne!(buf_index(input), buf_index(output));
        let probe = self.probe().clone();
        let (patches, points) = self.scatter_stats();
        probe.add(Counter::PatchesProcessed, patches);
        probe.add(Counter::PointsScattered, points);
        {
            let _span = probe.start(Phase::O2p);
            self.o2p_raw(mesh, input);
        }
        let _span = probe.start(Phase::Rhs);
        self.rhs_raw(mesh, output);
    }

    /// `y += a·x` under the `axpy` phase.
    fn axpy(&mut self, y: Buf, a: f64, x: Buf) {
        let _span = self.probe().start(Phase::Axpy);
        self.axpy_raw(y, a, x);
    }

    /// `y = base + a·x` under the `axpy` phase.
    fn assign_axpy(&mut self, y: Buf, base: Buf, a: f64, x: Buf) {
        let _span = self.probe().start(Phase::Axpy);
        self.assign_axpy_raw(y, base, a, x);
    }

    /// `dst = src` under the `axpy` phase (same bandwidth class).
    fn copy(&mut self, dst: Buf, src: Buf) {
        let _span = self.probe().start(Phase::Axpy);
        self.copy_raw(dst, src);
    }

    /// Interface sync under the `p2o` phase (the fused RHS kernels
    /// write octant blocks directly, so patch-to-octant consistency
    /// reduces to this sync — see DESIGN.md §10).
    fn sync_interfaces(&mut self, mesh: &Mesh) {
        let _span = self.probe().start(Phase::P2o);
        self.sync_interfaces_raw(mesh);
    }
}

/// Host (CPU) backend: octant-parallel loops on a shared thread pool —
/// the "CPU node" side of the paper's comparisons. With `threads = 1` it
/// degenerates to the original sequential reference; results are
/// bit-identical at every thread count (every output slot has exactly one
/// writer, and reductions are fixed-order — see DESIGN.md).
///
/// The octant→patch step is fused into the RHS: `o2p` prolongs each
/// coarse source once into a [`ProlongCache`], and each RHS task gathers
/// its octant's 24 padded patches into a per-worker local patch
/// ([`gather_patches`]) and evaluates them at once, so no full-mesh patch
/// store exists. The patches are bitwise the paper's scatter's (the
/// gpu-sim backend runs that kernel).
///
/// A backend evolves the octants it owns: the whole mesh on a
/// single rank, one SFC range on a distributed rank. Every kernel touches
/// owned octants (and their patches) only; the other blocks of the
/// buffers hold the ghosts a rank receives.
pub struct CpuBackend {
    params: BssnParams,
    tape: Option<Tape>,
    bufs: [Field; NUM_BUFS],
    cache: ProlongCache,
    /// The input of the stage whose cache `o2p` filled: the slot the RHS
    /// gathers from.
    input: Buf,
    masks: Vec<u8>,
    owned: Owned,
    pool: Arc<ThreadPool>,
    probe: Probe,
    /// Accumulated (derivative flops, A flops) across eval_rhs calls.
    pub flops: (u64, u64),
}

/// Which sources one part of a distributed stage reads: the rank's own
/// blocks (available at once) or the ghost blocks (after the halo
/// exchange completes).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Sources {
    /// The owned blocks.
    Owned,
    /// The ghost blocks received from other ranks.
    Ghost,
}

/// The octants a [`CpuBackend`] evolves, split by what their stages read.
/// Built once per backend from the mesh's gather map and sync list.
pub(crate) struct Owned {
    pub(crate) range: Range<usize>,
    /// Owned octants whose patches read only owned blocks — their RHS
    /// can run while the ghosts are still in flight.
    pub(crate) interior: Vec<usize>,
    /// Owned octants with at least one ghost source.
    pub(crate) boundary: Vec<usize>,
    /// Syncs into owned octants from owned sources, applicable before
    /// the ghosts arrive, in mesh order.
    pub(crate) syncs_owned: Vec<SyncCopy>,
    /// The remaining syncs into owned octants, in mesh order.
    pub(crate) syncs_ghost: Vec<SyncCopy>,
}

impl Owned {
    pub(crate) fn new(mesh: &Mesh, range: Range<usize>) -> Self {
        let is_owned = |o: u32| range.contains(&(o as usize));
        let (interior, boundary): (Vec<usize>, Vec<usize>) =
            range.clone().partition(|&e| mesh.gather_of(e).iter().all(|op| is_owned(op.src)));
        let syncs: Vec<SyncCopy> =
            mesh.syncs.iter().filter(|c| is_owned(c.dst_oct)).copied().collect();
        let (mut syncs_owned, mut syncs_ghost): (Vec<SyncCopy>, Vec<SyncCopy>) =
            syncs.iter().partition(|c| is_owned(c.src_oct));
        // Syncs may chain (a destination read as a later sync's source —
        // possible at ≥ 3 refinement levels) or share a destination;
        // either makes their order observable, so the split is only
        // taken when the owned sync set is provably order-free. Otherwise
        // every owned sync runs after the ghosts arrive, in mesh order.
        if !syncs_owned.is_empty() && !syncs_ghost.is_empty() {
            let mut written = std::collections::HashSet::new();
            let order_free = syncs.iter().all(|c| written.insert((c.dst_oct, c.dst_idx)))
                && !syncs.iter().any(|c| written.contains(&(c.src_oct, c.src_idx)));
            if !order_free {
                syncs_owned = Vec::new();
                syncs_ghost = syncs;
            }
        }
        Self { range, interior, boundary, syncs_owned, syncs_ghost }
    }
}

/// One pool worker's scratch for the fused o2p+RHS, built once per worker
/// (and again only when the tape's slot count changes — never per
/// octant, which `Counter::WorkspaceAllocs` asserts).
struct WorkerScratch {
    /// Tape slot count the RHS workspace was built for.
    slots: usize,
    /// The octant's 24 padded patches, variable-major (24 × 13³ ≈ 412 KB).
    local: Vec<f64>,
    rhs: RhsWorkspace,
    /// Sommerfeld staging: one point's inputs and outputs.
    inputs: Vec<f64>,
    point_out: Vec<f64>,
    prolong: ProlongWorkspace,
}

thread_local! {
    static SCRATCH: RefCell<Option<WorkerScratch>> = const { RefCell::new(None) };
}

/// Run `f` on the calling worker's scratch, (re)building it for `slots`
/// tape slots if needed and counting each build on `probe`.
fn with_scratch<T>(slots: usize, probe: &Probe, f: impl FnOnce(&mut WorkerScratch) -> T) -> T {
    SCRATCH.with(|cell| {
        let mut cached = cell.borrow_mut();
        if cached.as_ref().is_none_or(|w| w.slots != slots) {
            probe.add(Counter::WorkspaceAllocs, 1);
            *cached = Some(WorkerScratch {
                slots,
                local: vec![0.0; NUM_VARS * PATCH_VOLUME],
                rhs: RhsWorkspace::new(slots),
                inputs: vec![0.0; NUM_INPUTS],
                point_out: vec![0.0; NUM_VARS],
                prolong: ProlongWorkspace::new(),
            });
        }
        f(cached.as_mut().expect("scratch just built"))
    })
}

impl CpuBackend {
    /// Backend with the default thread count (`threads = 0` → auto).
    pub fn new(mesh: &Mesh, params: BssnParams, kind: RhsKind) -> Self {
        Self::with_threads(mesh, params, kind, 0)
    }

    /// Backend with an explicit worker count (`0` = `GW_THREADS` env or
    /// available parallelism).
    pub fn with_threads(mesh: &Mesh, params: BssnParams, kind: RhsKind, threads: usize) -> Self {
        Self::build(mesh, params, kind, threads, 0..mesh.n_octants())
    }

    /// The backend of one distributed rank: it evolves the SFC octant
    /// range `owned` with the pointwise `A` on `threads` workers. Its
    /// stages run in two parts ([`CpuBackend::eval_rhs_part`],
    /// [`CpuBackend::sync_interfaces_part`]) around the halo exchange.
    pub fn for_rank(mesh: &Mesh, params: BssnParams, threads: usize, owned: Range<usize>) -> Self {
        Self::build(mesh, params, RhsKind::Pointwise, threads, owned)
    }

    fn build(
        mesh: &Mesh,
        params: BssnParams,
        kind: RhsKind,
        threads: usize,
        owned: Range<usize>,
    ) -> Self {
        let n = mesh.n_octants();
        Self {
            params,
            tape: build_tape(kind, params),
            bufs: std::array::from_fn(|_| Field::zeros(NUM_VARS, n)),
            cache: ProlongCache::new(mesh, owned.clone(), NUM_VARS),
            input: Buf::U,
            masks: boundary_face_masks(mesh),
            owned: Owned::new(mesh, owned),
            pool: ThreadPool::shared(threads),
            probe: Probe::disabled(),
            flops: (0, 0),
        }
    }

    /// A resident buffer (a rank reads its owned blocks to send them).
    pub fn field(&self, b: Buf) -> &Field {
        &self.bufs[buf_index(b)]
    }

    /// A resident buffer, writable (a rank stores received ghosts).
    pub fn field_mut(&mut self, b: Buf) -> &mut Field {
        &mut self.bufs[buf_index(b)]
    }

    /// One part of a distributed RHS evaluation, under the `o2p` and
    /// `rhs` phases. [`Sources::Owned`] prolongs the owned coarse sources
    /// of `input` and evaluates the interior octants; [`Sources::Ghost`]
    /// prolongs the received coarse ghosts and evaluates the boundary
    /// octants. The two parts fill disjoint cache slots and write
    /// disjoint output blocks, so together they equal
    /// [`Backend::eval_rhs`] bit for bit.
    pub fn eval_rhs_part(&mut self, mesh: &Mesh, input: Buf, output: Buf, part: Sources) {
        assert_ne!(buf_index(input), buf_index(output));
        let probe = self.probe.clone();
        let octs = match part {
            Sources::Owned => self.owned.interior.len(),
            Sources::Ghost => self.owned.boundary.len(),
        };
        probe.add(Counter::PatchesProcessed, octs as u64);
        probe.add(Counter::PointsScattered, (NUM_VARS * octs * PATCH_VOLUME) as u64);
        {
            let _span = probe.start(Phase::O2p);
            self.prolong(input, part);
        }
        let _span = probe.start(Phase::Rhs);
        self.rhs(mesh, input, output, part);
    }

    /// One part of the interface sync on the solution, under the `p2o`
    /// phase: the owned-source syncs ([`Sources::Owned`]) or the rest.
    pub fn sync_interfaces_part(&mut self, part: Sources) {
        let _span = self.probe.start(Phase::P2o);
        let syncs = match part {
            Sources::Owned => &self.owned.syncs_owned,
            Sources::Ghost => &self.owned.syncs_ghost,
        };
        sync_copies_par(syncs, &mut self.bufs[0], &self.pool);
    }

    fn tape_slots(&self) -> usize {
        self.tape.as_ref().map(|t| t.n_slots).unwrap_or(1)
    }

    /// Prolong the coarse sources of one part — owned blocks or ghosts —
    /// of `input` into the cache, each once.
    fn prolong(&mut self, input: Buf, part: Sources) {
        let slots = match part {
            Sources::Owned => self.cache.inner_slots(),
            Sources::Ghost => self.cache.outer_slots(),
        };
        let (n_slots, probe) = (self.tape_slots(), &self.probe);
        self.cache.fill(&self.bufs[buf_index(input)], slots, &self.pool, |run| {
            with_scratch(n_slots, probe, |w| run(&mut w.prolong))
        });
    }

    /// The RHS of the interior ([`Sources::Owned`]) or boundary octants of
    /// `input` into `output`: per octant, gather its patches into the
    /// worker's local patch, then the fused RHS and Sommerfeld fix.
    fn rhs(&mut self, mesh: &Mesh, input: Buf, output: Buf, part: Sources) {
        let octs = match part {
            Sources::Owned => &self.owned.interior,
            Sources::Ghost => &self.owned.boundary,
        };
        let n = mesh.n_octants();
        let n_slots = self.tape_slots();
        let (out_field, field) = two_mut(&mut self.bufs, buf_index(output), buf_index(input));
        let cache = &self.cache;
        let masks = &self.masks;
        let params = self.params;
        let tape = &self.tape;
        let probe = &self.probe;
        let out = UnsafeSlice::new(out_field.as_mut_slice());
        // One task per octant, as in the GPU backend's `grid1(n)` RHS
        // launch.
        let per_oct: Vec<(u64, u64)> = self.pool.map(octs.len(), |i| {
            let e = octs[i];
            with_scratch(n_slots, probe, |w| {
                gather_patches(mesh, field, cache, e, &mut w.local);
                let patch_refs: [&[f64]; NUM_VARS] =
                    std::array::from_fn(|v| &w.local[v * PATCH_VOLUME..(v + 1) * PATCH_VOLUME]);
                let mode = match tape {
                    Some(t) => RhsMode::Tape(t),
                    None => RhsMode::Pointwise,
                };
                let mut out_blocks: [&mut [f64]; NUM_VARS] = std::array::from_fn(|v| {
                    // Safety: task e exclusively owns octant e's output
                    // blocks for all variables.
                    unsafe { out.slice_mut((v * n + e) * BLOCK_VOLUME, BLOCK_VOLUME) }
                });
                let h = mesh.octants[e].h;
                let (df, af) =
                    bssn_rhs_patch(&patch_refs, h, &params, &mode, &mut w.rhs, &mut out_blocks);
                sommerfeld_fix(
                    mesh,
                    e,
                    masks[e],
                    &patch_refs,
                    &w.rhs,
                    &mut w.inputs,
                    &mut w.point_out,
                    &mut out_blocks,
                );
                (df, af)
            })
        });
        // Fixed-order reduction (u64 sums are order-independent anyway;
        // kept tree-shaped for policy uniformity).
        let (df, af) = tree_reduce(&per_oct, (0u64, 0u64), |a, b| (a.0 + b.0, a.1 + b.1));
        self.flops.0 += df;
        self.flops.1 += af;
    }
}

impl Backend for CpuBackend {
    fn name(&self) -> &'static str {
        "cpu"
    }

    fn probe(&self) -> &Probe {
        &self.probe
    }

    fn set_probe(&mut self, probe: Probe) {
        self.probe = probe;
    }

    fn n_threads(&self) -> usize {
        self.pool.n_threads()
    }

    fn scatter_stats(&self) -> (u64, u64) {
        let n = self.owned.range.len();
        (n as u64, (NUM_VARS * n * PATCH_VOLUME) as u64)
    }

    fn upload_raw(&mut self, u: &Field) {
        self.bufs[0] = u.clone();
    }

    fn download_raw(&self) -> Field {
        self.bufs[0].clone()
    }

    fn o2p_raw(&mut self, _mesh: &Mesh, input: Buf) {
        self.input = input;
        self.prolong(input, Sources::Owned);
        self.prolong(input, Sources::Ghost);
    }

    fn rhs_raw(&mut self, mesh: &Mesh, output: Buf) {
        let input = self.input;
        self.rhs(mesh, input, output, Sources::Owned);
        self.rhs(mesh, input, output, Sources::Ghost);
    }

    fn axpy_raw(&mut self, y: Buf, a: f64, x: Buf) {
        let (yi, xi) = (buf_index(y), buf_index(x));
        let (ys, xs) = two_mut(&mut self.bufs, yi, xi);
        ys.axpy_octants_par(a, xs, self.owned.range.clone(), &self.pool);
    }

    fn assign_axpy_raw(&mut self, y: Buf, base: Buf, a: f64, x: Buf) {
        let yi = buf_index(y);
        let (bi, xi) = (buf_index(base), buf_index(x));
        assert!(yi != bi && yi != xi);
        // Clone-free triple borrow via raw split.
        let ptr = self.bufs.as_mut_ptr();
        // Safety: indices are pairwise distinct.
        unsafe {
            let ys = &mut *ptr.add(yi);
            let bs = &*ptr.add(bi);
            let xs = &*ptr.add(xi);
            ys.assign_axpy_octants_par(bs, a, xs, self.owned.range.clone(), &self.pool);
        }
    }

    fn copy_raw(&mut self, dst: Buf, src: Buf) {
        let (d, s) = two_mut(&mut self.bufs, buf_index(dst), buf_index(src));
        d.copy_octants_par(s, self.owned.range.clone(), &self.pool);
    }

    fn sync_interfaces_raw(&mut self, _mesh: &Mesh) {
        sync_copies_par(&self.owned.syncs_owned, &mut self.bufs[0], &self.pool);
        sync_copies_par(&self.owned.syncs_ghost, &mut self.bufs[0], &self.pool);
    }
}

fn two_mut(bufs: &mut [Field; NUM_BUFS], a: usize, b: usize) -> (&mut Field, &Field) {
    assert_ne!(a, b);
    let ptr = bufs.as_mut_ptr();
    // Safety: a != b.
    unsafe { (&mut *ptr.add(a), &*ptr.add(b)) }
}

/// Simulated-GPU backend: block-per-octant kernels on a `gw-gpu-sim`
/// device with full traffic metering (Algorithm 1's device side).
pub struct GpuBackend {
    pub device: Device,
    params: BssnParams,
    tape: Option<Tape>,
    bufs: [gw_gpu_sim::DeviceBuffer<f64>; NUM_BUFS],
    patches: gw_gpu_sim::DeviceBuffer<f64>,
    masks: Vec<u8>,
    probe: Probe,
    n_oct: usize,
}

impl GpuBackend {
    pub fn new(mesh: &Mesh, params: BssnParams, kind: RhsKind, device: Device) -> Self {
        let tape = build_tape(kind, params);
        let n = mesh.n_octants();
        let bufs = std::array::from_fn(|_| device.alloc::<f64>(NUM_VARS * n * BLOCK_VOLUME));
        let patches = device.alloc::<f64>(NUM_VARS * n * PATCH_VOLUME);
        Self {
            device,
            params,
            tape,
            bufs,
            patches,
            masks: boundary_face_masks(mesh),
            probe: Probe::disabled(),
            n_oct: n,
        }
    }

    /// Snapshot of the device traffic counters (benchmarks use this
    /// directly; the trait exposes it as `Option` via
    /// [`Backend::counters`]).
    pub fn counters(&self) -> CounterSnapshot {
        self.device.counters().snapshot()
    }

    /// Octant-to-patch kernel: grid `(|E|, dof)`, one block per
    /// octant×variable (the paper's launch geometry).
    fn o2p_kernel(&mut self, mesh: &Mesh, input: Buf) {
        let n = self.n_oct;
        let inp = self.device.kernel_view(&self.bufs[buf_index(input)]);
        let patches = self.device.kernel_view_mut(&mut self.patches);
        let prolong = gw_stencil::interp::Prolongation::new();
        let table_len = prolong.table_len();
        self.device.launch(LaunchConfig::grid2(n, NUM_VARS, "octant-to-patch"), |ctx| {
            let e = ctx.bx;
            let var = ctx.by;
            // Global → shared: the octant's nodal values (Algorithm 2
            // line 2) plus the interpolation table (line 3).
            let src = &inp[(var * n + e) * BLOCK_VOLUME..(var * n + e + 1) * BLOCK_VOLUME];
            ctx.global_load(BLOCK_VOLUME);
            let mut shared = ctx.shared_alloc(BLOCK_VOLUME);
            shared.copy_from_slice(src);
            ctx.global_load(table_len);
            // Own interior (shared → global).
            let patch_off = (var * n + e) * PATCH_VOLUME;
            {
                // Safety: each (e, var) block owns its own patch interior.
                let dst = unsafe { patches.slice_mut(patch_off, PATCH_VOLUME) };
                gw_stencil::patch::octant_to_patch_interior(&shared, dst);
                ctx.global_store(BLOCK_VOLUME);
            }
            let ops = mesh.scatter_of(e);
            let needs_prolong = ops.iter().any(|op| op.kind == gw_mesh::ScatterKind::Prolong);
            let mut fine13 = Vec::new();
            if needs_prolong {
                fine13 = ctx.shared_alloc(gw_stencil::interp::FINE_SIDE.pow(3));
                let fl = prolong.prolong3d(&shared, &mut fine13);
                ctx.flops(fl);
            }
            for op in ops {
                let dst_off = (var * n + op.dst as usize) * PATCH_VOLUME;
                // Safety: (dst, delta, ownership) regions are disjoint
                // across blocks by construction (see gw-mesh::grid).
                let dst = unsafe { patches.slice_mut(dst_off, PATCH_VOLUME) };
                let (written, _) = gw_mesh::scatter::apply_scatter_op(op, &shared, &fine13, dst);
                ctx.global_store(written as usize);
            }
        });
        // Boundary padding fill (host-trivial: a tiny clamped-copy kernel).
        let patches2 = self.device.kernel_view_mut(&mut self.patches);
        let regions = &mesh.boundary_regions;
        self.device.launch(LaunchConfig::grid2(regions.len(), NUM_VARS, "boundary-fill"), |ctx| {
            let (oct, delta) = regions[ctx.bx];
            let var = ctx.by;
            let off = (var * n + oct as usize) * PATCH_VOLUME;
            // Safety: each (region, var) block writes its own padding
            // region of one patch.
            let patch = unsafe { patches2.slice_mut(off, PATCH_VOLUME) };
            let mut cnt = 0usize;
            for_each_clamp_point(delta, |dst, src| {
                patch[dst] = patch[src];
                cnt += 1;
            });
            ctx.global_load(cnt);
            ctx.global_store(cnt);
        });
    }

    /// Fused RHS kernel: grid `(|E|)`, one block per octant patch.
    fn rhs_kernel(&mut self, mesh: &Mesh, output: Buf) {
        let n = self.n_oct;
        let patches = self.device.kernel_view(&self.patches);
        let out = self.device.kernel_view_mut(&mut self.bufs[buf_index(output)]);
        let params = self.params;
        let tape = &self.tape;
        let masks = &self.masks;
        let spill_per_point = tape
            .as_ref()
            .map(|t| (t.spill_stats.spill_load_bytes, t.spill_stats.spill_store_bytes))
            .unwrap_or((0, 0));
        let probe = self.probe.clone();
        self.device.launch(LaunchConfig::grid1(n, "bssn-rhs"), |ctx| {
            let e = ctx.bx;
            let h = mesh.octants[e].h;
            let patch_refs: [&[f64]; NUM_VARS] = std::array::from_fn(|v| {
                &patches[(v * n + e) * PATCH_VOLUME..(v * n + e + 1) * PATCH_VOLUME]
            });
            ctx.global_load(NUM_VARS * PATCH_VOLUME);
            type Cached = (RhsWorkspace, Vec<f64>, Vec<f64>);
            thread_local! {
                static WS: std::cell::RefCell<Option<Cached>> =
                    const { std::cell::RefCell::new(None) };
            }
            WS.with(|cell| {
                let mut borrow = cell.borrow_mut();
                let slots = tape.as_ref().map(|t| t.n_slots).unwrap_or(1);
                let (ws, inputs_buf, point_out) = borrow.get_or_insert_with(|| {
                    probe.add(Counter::WorkspaceAllocs, 1);
                    (RhsWorkspace::new(slots), vec![0.0; NUM_INPUTS], vec![0.0; NUM_VARS])
                });
                let mode = match tape {
                    Some(t) => RhsMode::Tape(t),
                    None => RhsMode::Pointwise,
                };
                let mut out_blocks: [&mut [f64]; NUM_VARS] = std::array::from_fn(|v| {
                    let off = (v * n + e) * BLOCK_VOLUME;
                    // Safety: block (e) exclusively owns octant e's
                    // output blocks for all variables.
                    unsafe { out.slice_mut(off, BLOCK_VOLUME) }
                });
                let (df, af) = bssn_rhs_patch(&patch_refs, h, &params, &mode, ws, &mut out_blocks);
                ctx.flops(df + af);
                // Derivative staging traffic (thread-local stores+loads of
                // the 210 blocks, the paper's register-pressure source).
                ctx.shared_traffic(2 * 210 * BLOCK_VOLUME);
                ctx.spill(
                    spill_per_point.0 * BLOCK_VOLUME as u64,
                    spill_per_point.1 * BLOCK_VOLUME as u64,
                );
                sommerfeld_fix(
                    mesh,
                    e,
                    masks[e],
                    &patch_refs,
                    ws,
                    inputs_buf,
                    point_out,
                    &mut out_blocks,
                );
            });
            ctx.global_store(NUM_VARS * BLOCK_VOLUME);
        });
    }

    /// Run only the octant-to-patch (+ boundary fill) kernel — used by
    /// the Table III / Fig. 14 kernel-level measurements.
    pub fn o2p_only(&mut self, mesh: &Mesh, input: Buf) {
        self.o2p_kernel(mesh, input);
    }

    /// Run only the fused RHS kernel (patches must be current) — used by
    /// the Fig. 11/14/15 kernel-level measurements.
    pub fn rhs_only(&mut self, mesh: &Mesh, output: Buf) {
        self.rhs_kernel(mesh, output);
    }
}

impl Backend for GpuBackend {
    fn name(&self) -> &'static str {
        "gpu-sim"
    }

    fn probe(&self) -> &Probe {
        &self.probe
    }

    fn set_probe(&mut self, probe: Probe) {
        self.device.set_probe(probe.clone());
        self.probe = probe;
    }

    fn counters(&self) -> Option<CounterSnapshot> {
        Some(GpuBackend::counters(self))
    }

    fn scatter_stats(&self) -> (u64, u64) {
        (self.n_oct as u64, (NUM_VARS * self.n_oct * PATCH_VOLUME) as u64)
    }

    fn upload_raw(&mut self, u: &Field) {
        self.device.htod_into(u.as_slice(), &mut self.bufs[0]);
    }

    fn download_raw(&self) -> Field {
        Field::from_vec(NUM_VARS, self.n_oct, self.device.dtoh(&self.bufs[0]))
    }

    fn o2p_raw(&mut self, mesh: &Mesh, input: Buf) {
        self.o2p_kernel(mesh, input);
    }

    fn rhs_raw(&mut self, mesh: &Mesh, output: Buf) {
        self.rhs_kernel(mesh, output);
    }

    fn axpy_raw(&mut self, y: Buf, a: f64, x: Buf) {
        let (yi, xi) = (buf_index(y), buf_index(x));
        assert_ne!(yi, xi);
        let len = self.bufs[yi].len();
        let ptr = self.bufs.as_mut_ptr();
        // Safety: distinct indices.
        let (yb, xb) = unsafe { (&mut *ptr.add(yi), &*ptr.add(xi)) };
        let xs = self.device.kernel_view(xb);
        let ys = self.device.kernel_view_mut(yb);
        let blocks = len.div_ceil(4096);
        self.device.launch(LaunchConfig::grid1(blocks, "axpy"), |ctx| {
            let s = ctx.bx * 4096;
            let e = (s + 4096).min(len);
            // Safety: disjoint chunks.
            let yv = unsafe { ys.slice_mut(s, e - s) };
            for (yy, &xx) in yv.iter_mut().zip(xs[s..e].iter()) {
                *yy += a * xx;
            }
            ctx.global_load(2 * (e - s));
            ctx.global_store(e - s);
            ctx.flops(2 * (e - s) as u64);
        });
    }

    fn assign_axpy_raw(&mut self, y: Buf, base: Buf, a: f64, x: Buf) {
        let (yi, bi, xi) = (buf_index(y), buf_index(base), buf_index(x));
        assert!(yi != bi && yi != xi);
        let len = self.bufs[yi].len();
        let ptr = self.bufs.as_mut_ptr();
        // Safety: pairwise distinct.
        let (yb, bb, xb) = unsafe { (&mut *ptr.add(yi), &*ptr.add(bi), &*ptr.add(xi)) };
        let bs = self.device.kernel_view(bb);
        let xs = self.device.kernel_view(xb);
        let ys = self.device.kernel_view_mut(yb);
        let blocks = len.div_ceil(4096);
        self.device.launch(LaunchConfig::grid1(blocks, "assign-axpy"), |ctx| {
            let s = ctx.bx * 4096;
            let e = (s + 4096).min(len);
            // Safety: disjoint chunks.
            let yv = unsafe { ys.slice_mut(s, e - s) };
            for i in 0..(e - s) {
                yv[i] = bs[s + i] + a * xs[s + i];
            }
            ctx.global_load(2 * (e - s));
            ctx.global_store(e - s);
            ctx.flops(2 * (e - s) as u64);
        });
    }

    fn copy_raw(&mut self, dst: Buf, src: Buf) {
        let (di, si) = (buf_index(dst), buf_index(src));
        assert_ne!(di, si);
        let ptr = self.bufs.as_mut_ptr();
        // Safety: distinct.
        let (db, sb) = unsafe { (&mut *ptr.add(di), &*ptr.add(si)) };
        self.device.d2d(sb, db);
    }

    fn sync_interfaces_raw(&mut self, mesh: &Mesh) {
        let n = self.n_oct;
        let buf = self.device.kernel_view_mut(&mut self.bufs[0]);
        let syncs = &mesh.syncs;
        self.device.launch(LaunchConfig::grid1(NUM_VARS, "iface-sync"), |ctx| {
            let var = ctx.bx;
            for c in syncs {
                let sv = unsafe {
                    buf.read((var * n + c.src_oct as usize) * BLOCK_VOLUME + c.src_idx as usize)
                };
                // Safety: sync targets are unique (deduplicated at grid
                // build) and vars are per-block.
                unsafe {
                    buf.write(
                        (var * n + c.dst_oct as usize) * BLOCK_VOLUME + c.dst_idx as usize,
                        sv,
                    )
                };
            }
            ctx.global_load(syncs.len());
            ctx.global_store(syncs.len());
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gw_mesh::scatter::{fill_boundary_padding_par, fill_patches_scatter_par};
    use gw_mesh::PatchField;
    use gw_octree::{balance_octree, complete_octree, BalanceMode, Domain, MortonKey};
    use gw_stencil::patch::PatchLayout;

    fn small_mesh() -> Mesh {
        let mut leaves = vec![];
        for c in MortonKey::root().children() {
            leaves.extend(c.children());
        }
        leaves.sort();
        Mesh::build(Domain::centered_cube(8.0), &leaves)
    }

    fn adaptive_mesh() -> Mesh {
        let c0 = MortonKey::root().children()[0];
        let fine: Vec<MortonKey> = c0.children()[7].children().to_vec();
        let t = complete_octree(fine);
        let t = balance_octree(&t, BalanceMode::Full);
        Mesh::build(Domain::centered_cube(8.0), &t)
    }

    fn wavey_state(mesh: &Mesh) -> Field {
        let w = gw_bssn::init::LinearWaveData::new(1e-2, 0.0, 2.0, 1.0);
        let mut f = Field::zeros(NUM_VARS, mesh.n_octants());
        let mut vals = vec![0.0; NUM_VARS];
        for oct in 0..mesh.n_octants() {
            let l = PatchLayout::octant();
            for (i, j, k) in l.iter() {
                w.evaluate(mesh.point_coords(oct, i, j, k), &mut vals);
                for (v, &val) in vals.iter().enumerate() {
                    f.block_mut(v, oct)[l.idx(i, j, k)] = val;
                }
            }
        }
        f
    }

    #[test]
    fn cpu_and_gpu_rhs_agree_bitwise() {
        for mesh in [small_mesh(), adaptive_mesh()] {
            let u = wavey_state(&mesh);
            let params = BssnParams::default();
            let mut cpu = CpuBackend::new(&mesh, params, RhsKind::Pointwise);
            let mut gpu = GpuBackend::new(&mesh, params, RhsKind::Pointwise, Device::a100());
            cpu.upload(&u);
            gpu.upload(&u);
            cpu.eval_rhs(&mesh, Buf::U, Buf::K);
            gpu.eval_rhs(&mesh, Buf::U, Buf::K);
            // Compare the K buffers.
            let ck = cpu.bufs[buf_index(Buf::K)].clone();
            let gk = Field::from_vec(
                NUM_VARS,
                mesh.n_octants(),
                gpu.device.dtoh(&gpu.bufs[buf_index(Buf::K)]),
            );
            for (a, b) in ck.as_slice().iter().zip(gk.as_slice().iter()) {
                assert_eq!(a, b, "CPU and GPU RHS must agree bitwise");
            }
        }
    }

    /// Levels 2–4 on the physical boundary: a uniform level-2 mesh with
    /// its `(+, +, −)` domain corner refined to level 4, mid-curve.
    fn multi_level_mesh() -> Mesh {
        let corner = MortonKey::root().children()[3].children()[3].children()[3];
        let level2 = MortonKey::root().children().into_iter().flat_map(|k| k.children());
        let mut seeds: Vec<MortonKey> = level2.filter(|k| !k.is_ancestor_of(&corner)).collect();
        seeds.extend(corner.children());
        let t = balance_octree(&complete_octree(seeds), BalanceMode::Full);
        Mesh::build(Domain::centered_cube(8.0), &t)
    }

    /// The pipeline the fused CPU path replaced: the whole-mesh scatter
    /// and boundary fill into a `PatchField`, then per octant the RHS and
    /// the Sommerfeld fix.
    fn scatter_pipeline_rhs(mesh: &Mesh, u: &Field, params: &BssnParams) -> Field {
        let pool = ThreadPool::new(1);
        let n = mesh.n_octants();
        let mut patches = PatchField::zeros(NUM_VARS, n);
        fill_patches_scatter_par(mesh, u, &mut patches, &pool);
        fill_boundary_padding_par(mesh, &mut patches, NUM_VARS, &pool);
        let masks = boundary_face_masks(mesh);
        let mut ws = RhsWorkspace::new(1);
        let (mut inputs, mut point_out) = (vec![0.0; NUM_INPUTS], vec![0.0; NUM_VARS]);
        let mut k = Field::zeros(NUM_VARS, n);
        let mut blocks = vec![vec![0.0; BLOCK_VOLUME]; NUM_VARS];
        for (e, &mask) in masks.iter().enumerate() {
            let refs: [&[f64]; NUM_VARS] = std::array::from_fn(|v| patches.patch(v, e));
            let mut out: Vec<&mut [f64]> = blocks.iter_mut().map(|b| b.as_mut_slice()).collect();
            let h = mesh.octants[e].h;
            bssn_rhs_patch(&refs, h, params, &RhsMode::Pointwise, &mut ws, &mut out);
            sommerfeld_fix(mesh, e, mask, &refs, &ws, &mut inputs, &mut point_out, &mut out);
            for (v, b) in blocks.iter().enumerate() {
                k.block_mut(v, e).copy_from_slice(b);
            }
        }
        k
    }

    fn block_bits(f: &Field, e: usize) -> Vec<u64> {
        (0..NUM_VARS).flat_map(|v| f.block(v, e).iter().map(|x| x.to_bits())).collect()
    }

    /// The fused gather→RHS equals the scatter pipeline bit for bit, on a
    /// 3-level mesh with physical-boundary octants of every level, at any
    /// thread count and split across a rank's two stage parts.
    #[test]
    fn fused_rhs_matches_scatter_pipeline_bitwise() {
        let mesh = multi_level_mesh();
        let levels: std::collections::HashSet<u8> = mesh.octants.iter().map(|o| o.level).collect();
        assert!(levels.len() >= 3);
        assert!(boundary_face_masks(&mesh).iter().any(|&m| m != 0));
        let u = wavey_state(&mesh);
        let params = BssnParams::default();
        let want = scatter_pipeline_rhs(&mesh, &u, &params);
        let n = mesh.n_octants();
        for threads in [1, 2, 8] {
            let mut cpu = CpuBackend::with_threads(&mesh, params, RhsKind::Pointwise, threads);
            cpu.upload(&u);
            cpu.eval_rhs(&mesh, Buf::U, Buf::K);
            for e in 0..n {
                let got = block_bits(cpu.field(Buf::K), e);
                assert_eq!(got, block_bits(&want, e), "octant {e} at {threads} threads");
            }
        }
        // A rank: the owned part runs while its ghost blocks are stale,
        // the ghost part after they land.
        let owned = n / 3..2 * n / 3;
        let mut rank = CpuBackend::for_rank(&mesh, params, 2, owned.clone());
        assert!(!rank.owned.interior.is_empty() && !rank.owned.boundary.is_empty());
        assert!(!rank.cache.outer_slots().is_empty(), "the rank prolongs ghosts");
        let mut stale = u.clone();
        for e in (0..n).filter(|e| !owned.contains(e)) {
            (0..NUM_VARS).for_each(|v| stale.block_mut(v, e).fill(f64::NAN));
        }
        rank.upload(&stale);
        rank.eval_rhs_part(&mesh, Buf::U, Buf::K, Sources::Owned);
        for e in (0..n).filter(|e| !owned.contains(e)) {
            for v in 0..NUM_VARS {
                rank.field_mut(Buf::U).block_mut(v, e).copy_from_slice(u.block(v, e));
            }
        }
        rank.eval_rhs_part(&mesh, Buf::U, Buf::K, Sources::Ghost);
        for e in owned {
            assert_eq!(block_bits(rank.field(Buf::K), e), block_bits(&want, e), "rank octant {e}");
        }
    }

    #[test]
    fn generated_tape_matches_pointwise_on_backend() {
        let mesh = small_mesh();
        let u = wavey_state(&mesh);
        let params = BssnParams::default();
        let mut a = CpuBackend::new(&mesh, params, RhsKind::Pointwise);
        let mut b =
            CpuBackend::new(&mesh, params, RhsKind::Generated(ScheduleStrategy::BinaryReduce));
        a.upload(&u);
        b.upload(&u);
        a.eval_rhs(&mesh, Buf::U, Buf::K);
        b.eval_rhs(&mesh, Buf::U, Buf::K);
        for (x, y) in a.bufs[2].as_slice().iter().zip(b.bufs[2].as_slice().iter()) {
            assert!((x - y).abs() < 1e-10 * (1.0 + x.abs()), "{x} vs {y}");
        }
    }

    #[test]
    fn gpu_counters_meter_traffic() {
        let mesh = small_mesh();
        let u = wavey_state(&mesh);
        let mut gpu = GpuBackend::new(
            &mesh,
            BssnParams::default(),
            RhsKind::Generated(ScheduleStrategy::StagedCse),
            Device::a100(),
        );
        gpu.upload(&u);
        let before = gpu.counters();
        gpu.eval_rhs(&mesh, Buf::U, Buf::K);
        let after = gpu.counters();
        let d = after.delta_since(&before);
        assert!(d.flops > 0);
        assert!(d.global_load_bytes > 0);
        assert!(d.global_store_bytes > 0);
        assert!(d.launches >= 2); // o2p + boundary + rhs
        assert!(d.spill_load_bytes > 0, "generated kernel must report spills");
        // The RHS is bandwidth bound: AI well below the A100 ridge.
        assert!(d.arithmetic_intensity() < 10.0);

        // The RHS kernel alone books the nominal derivative flops plus the
        // tape's compile-time flop and spill counts at every point, however
        // the host interpreter batches the points.
        let tape = gpu.tape.as_ref().expect("generated backend compiles a tape");
        let (tape_flops, spills) = (tape.flops, tape.spill_stats);
        let pts = (mesh.n_octants() * BLOCK_VOLUME) as u64;
        let before = gpu.counters();
        gpu.rhs_only(&mesh, Buf::K);
        let d = gpu.counters().delta_since(&before);
        assert_eq!(d.flops, pts * (gw_bssn::derivs::DERIV_FLOPS_PER_POINT + tape_flops));
        assert_eq!(d.spill_load_bytes, pts * spills.spill_load_bytes);
        assert_eq!(d.spill_store_bytes, pts * spills.spill_store_bytes);
    }

    #[test]
    fn axpy_ops_work_on_both_backends() {
        let mesh = small_mesh();
        let u = wavey_state(&mesh);
        let params = BssnParams::default();
        let mut cpu = CpuBackend::new(&mesh, params, RhsKind::Pointwise);
        let mut gpu = GpuBackend::new(&mesh, params, RhsKind::Pointwise, Device::a100());
        cpu.upload(&u);
        gpu.upload(&u);
        // Stage = U + 0.5*U = 1.5 U (using copy to set up K := U first).
        cpu.copy(Buf::K, Buf::U);
        gpu.copy(Buf::K, Buf::U);
        cpu.assign_axpy(Buf::Stage, Buf::U, 0.5, Buf::K);
        gpu.assign_axpy(Buf::Stage, Buf::U, 0.5, Buf::K);
        cpu.axpy(Buf::Stage, 1.0, Buf::K);
        gpu.axpy(Buf::Stage, 1.0, Buf::K);
        let c = cpu.bufs[1].clone();
        let g = gpu.device.dtoh(&gpu.bufs[1]);
        for ((a, b), &orig) in c.as_slice().iter().zip(g.iter()).zip(u.as_slice().iter()) {
            assert_eq!(a, b);
            assert!((a - 2.5 * orig).abs() < 1e-14);
        }
    }

    #[test]
    fn upload_download_roundtrip() {
        let mesh = small_mesh();
        let u = wavey_state(&mesh);
        let mut gpu =
            GpuBackend::new(&mesh, BssnParams::default(), RhsKind::Pointwise, Device::a100());
        gpu.upload(&u);
        let back = gpu.download();
        assert_eq!(u.as_slice(), back.as_slice());
    }

    #[test]
    fn steady_state_rhs_reuses_per_worker_workspaces() {
        // The RHS hot loop must stage through per-worker cached buffers:
        // workspace (re)builds are counted, and the count is bounded by
        // the worker set — never by octants × steps.
        let mesh = adaptive_mesh();
        let u = wavey_state(&mesh);
        let params = BssnParams::default();
        let mut backends: Vec<Box<dyn Backend>> = vec![
            Box::new(CpuBackend::new(&mesh, params, RhsKind::Pointwise)),
            Box::new(GpuBackend::new(&mesh, params, RhsKind::Pointwise, Device::a100())),
        ];
        for b in &mut backends {
            let probe = Probe::enabled();
            b.set_probe(probe.clone());
            b.upload(&u);
            for _ in 0..3 {
                b.eval_rhs(&mesh, Buf::U, Buf::K);
            }
            if !probe.is_enabled() {
                continue; // obs compiled out: the counter is a no-op
            }
            let evals = 3 * mesh.n_octants() as u64;
            let workers = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
            let bound = match b.name() {
                // Persistent pool: one workspace per worker (+ the
                // submitter), for the life of the process.
                "cpu" => (b.n_threads() + 1) as u64,
                // gpu-sim scopes its block executors to each launch
                // (kernel-launch semantics), so the cache lives
                // per launch per executor — still never per octant.
                _ => 3 * (workers + 1) as u64,
            };
            let allocs = probe.counter(Counter::WorkspaceAllocs);
            assert!(
                (1..=bound).contains(&allocs),
                "{}: {allocs} workspace allocs for {evals} octant evals (worker bound {bound})",
                b.name()
            );
        }
    }

    #[test]
    fn trait_dispatch_is_uniform_and_probed() {
        // One code path drives either backend through `dyn Backend`,
        // and the provided methods attribute phases/counters.
        let mesh = small_mesh();
        let u = wavey_state(&mesh);
        let params = BssnParams::default();
        let mut backends: Vec<Box<dyn Backend>> = vec![
            Box::new(CpuBackend::new(&mesh, params, RhsKind::Pointwise)),
            Box::new(GpuBackend::new(&mesh, params, RhsKind::Pointwise, Device::a100())),
        ];
        for b in &mut backends {
            let probe = Probe::enabled();
            b.set_probe(probe.clone());
            b.upload(&u);
            b.eval_rhs(&mesh, Buf::U, Buf::K);
            b.sync_interfaces(&mesh);
            let _ = b.download();
            assert_eq!(probe.counter(Counter::PatchesProcessed), mesh.n_octants() as u64);
            assert!(probe.counter(Counter::BytesMoved) > 0);
            if !probe.is_enabled() {
                continue; // obs compiled out: nothing further to check
            }
            let trace = probe.report().expect("enabled probe");
            let phases = trace.phase_totals();
            for ph in ["o2p", "rhs", "p2o"] {
                assert!(phases.contains_key(ph), "{} missing phase {ph}", b.name());
            }
            match b.name() {
                "gpu-sim" => {
                    assert!(
                        probe.counter(Counter::KernelLaunches)
                            >= b.counters().expect("gpu meters").launches
                    );
                    // Kernel spans are attributed to their phase parents.
                    let kernels = trace.kernel_totals();
                    assert!(kernels.contains_key("bssn-rhs"));
                    assert!(trace
                        .events
                        .iter()
                        .any(|e| e.name == "bssn-rhs" && e.parent == Some("rhs")));
                }
                "cpu" => assert!(b.counters().is_none(), "cpu backend meters no device traffic"),
                other => panic!("unexpected backend {other}"),
            }
        }
    }
}
