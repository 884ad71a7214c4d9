//! The traced pass: each layer's public entry point timed from outside,
//! on the workload's own mesh and evolved state, plus the gw-obs and
//! gpu-sim counters the evolution calls kept.
//!
//! Metrics of a layer a workload does not run (the gpu-sim device on a
//! CPU workload, halo exchange on one rank, the single-rank `Backend` and
//! checkpoint on the distributed driver) read 0.

use crate::util::{median, median_secs, nproc, timed};
use crate::workload::{extractor, run_params, Call, Evolution, Opts, Prepared, Workload};
use gw_bssn::derivs::fields_at;
use gw_bssn::rhs::RhsWorkspace;
use gw_bssn::{bssn_rhs_point, DerivWorkspace};
use gw_core::backend::{Backend, Buf, CpuBackend, GpuBackend, RhsKind};
use gw_core::boundary::{boundary_face_masks, on_masked_face, sommerfeld_fix};
use gw_core::checkpoint;
use gw_expr::bssn::build_bssn_rhs;
use gw_expr::schedule::{schedule, ScheduleStrategy};
use gw_expr::symbols::{var, NUM_INPUTS, NUM_VARS};
use gw_expr::tape::Tape;
use gw_gpu_sim::Device;
use gw_mesh::scatter::{fill_boundary_padding_par, fill_patches_scatter_par};
use gw_mesh::{sync_interfaces_par, Mesh, PatchField};
use gw_obs::Counter;
use gw_par::ThreadPool;
use gw_stencil::patch::{PatchLayout, BLOCK_VOLUME, PATCH_VOLUME};
use std::hint::black_box;

/// Octants sampled by the single-thread per-point timings.
const SAMPLE_OCTANTS: usize = 16;
/// Register budget the backends compile their tapes with.
const TAPE_REGISTERS: usize = 56;

pub type Metrics = Vec<(&'static str, f64)>;

/// Exact counts (identical across runs and seeds) and per-layer metrics.
pub struct Layers {
    pub metrics: Metrics,
    pub exact: Metrics,
    pub problems: Vec<String>,
}

/// Time every layer. `step_ms` is (untraced, traced) wall time per step.
pub fn measure(opts: &Opts, prep: &Prepared, ev: &mut Evolution, step_ms: (f64, f64)) -> Layers {
    let w = opts.workload;
    let params = run_params(w);
    let bssn = params.config.params;
    let (state, time) = ev.final_state.clone().expect("a successful evolution call");
    let mut m: Metrics = Vec::new();
    let mut problems = Vec::new();

    // core (single-rank runs): a full RHS through the solver's backend and
    // a disk checkpoint of the solver. Done first, so the solver's buffers
    // are freed before the other layers allocate theirs.
    let (mut rhs_ms, mut save_ms, mut load_ms, mut ckpt_mb) = (0.0, 0.0, 0.0, 0.0);
    let mesh = match ev.solver.take() {
        Some(mut s) => {
            rhs_ms = 1e3 * median_secs(2, || s.backend.eval_rhs(&s.mesh, Buf::U, Buf::K));
            let path = opts.scratch.join("ckpt.gwcp").to_string_lossy().into_owned();
            save_ms = 1e3
                * median_secs(3, || {
                    let bytes = checkpoint::save(&s);
                    ckpt_mb = bytes.as_slice().len() as f64 / 1e6;
                    checkpoint::write_atomic(&path, bytes.as_slice()).expect("write checkpoint");
                });
            load_ms = 1e3
                * median_secs(3, || {
                    checkpoint::load_from_file(&path).expect("checkpoint reads back");
                });
            let _ = std::fs::remove_file(&path);
            s.mesh
        }
        None => Mesh::build(prep.domain, &prep.leaves),
    };
    let n = mesh.n_octants();
    let pool = ThreadPool::shared(nproc());

    m.push(("octree.build_ms", 1e3 * median(&prep.build_samples)));

    // mesh: octant→patch, AXPY, interface sync, patch storage.
    let mut patches = PatchField::zeros(NUM_VARS, n);
    let o2p = median_secs(3, || {
        fill_patches_scatter_par(&mesh, &state, &mut patches, &pool);
        fill_boundary_padding_par(&mesh, &mut patches, NUM_VARS, &pool);
    });
    let patch_points = (NUM_VARS * n * PATCH_VOLUME) as f64;
    m.push(("mesh.o2p_ns_pt", 1e9 * o2p / patch_points));
    let unknowns = state.unknowns() as f64;
    let (mut y, x) = (state.clone(), state.clone());
    let t_axpy = median_secs(5, || y.axpy_par(1e-9, &x, &pool));
    let t_assign = median_secs(5, || y.assign_axpy_par(&x, 1e-9, &x, &pool));
    // Each call reads two fields and writes one.
    m.push(("mesh.axpy_gbs", 2.0 * 3.0 * 8.0 * unknowns / (t_axpy + t_assign) / 1e9));
    let t_sync = median_secs(5, || sync_interfaces_par(&mesh, &mut y, &pool));
    m.push(("mesh.sync_ns_pt", 1e9 * t_sync / unknowns));
    m.push(("mesh.patch_mb", 8.0 * patch_points / 1e6));
    drop((y, x));

    // bssn + expr: derivatives, pointwise A and tape A on sampled octants,
    // one thread.
    let sample: Vec<usize> =
        (0..SAMPLE_OCTANTS.min(n)).map(|i| i * n / SAMPLE_OCTANTS.min(n)).collect();
    let mut dws = DerivWorkspace::new();
    let mut inputs = vec![0.0; sample.len() * BLOCK_VOLUME * NUM_INPUTS];
    let mut d_flops = 0u64;
    let t_derivs = median_secs(3, || {
        for &e in &sample {
            let refs: [&[f64]; NUM_VARS] = std::array::from_fn(|v| patches.patch(v, e));
            d_flops = dws.compute(&refs, mesh.octants[e].h);
        }
    });
    let sample_points = (sample.len() * BLOCK_VOLUME) as f64;
    m.push(("bssn.derivs_ns_pt", 1e9 * t_derivs / sample_points));
    let o = PatchLayout::octant();
    for (s, &e) in sample.iter().enumerate() {
        let refs: [&[f64]; NUM_VARS] = std::array::from_fn(|v| patches.patch(v, e));
        dws.compute(&refs, mesh.octants[e].h);
        for (i, j, k) in o.iter() {
            let pt = o.idx(i, j, k);
            let mut fields = fields_at(&refs, i, j, k);
            fields[var::CHI] = fields[var::CHI].max(bssn.chi_floor);
            let at = (s * BLOCK_VOLUME + pt) * NUM_INPUTS;
            dws.assemble_inputs(&fields, pt, &mut inputs[at..at + NUM_INPUTS]);
        }
    }
    let mut out = [0.0; NUM_VARS];
    let t_point = median_secs(3, || {
        for u in inputs.chunks_exact(NUM_INPUTS) {
            bssn_rhs_point(black_box(u), &mut out, &bssn);
            black_box(&mut out);
        }
    });
    m.push(("bssn.a_point_ns_pt", 1e9 * t_point / sample_points));
    let (t_compile, tape) = timed(|| {
        let rhs = build_bssn_rhs(bssn);
        let sch = schedule(&rhs.graph, &rhs.outputs, ScheduleStrategy::StagedCse);
        Tape::compile(&rhs.graph, &sch, TAPE_REGISTERS)
    });
    let mut slots = vec![0.0; tape.n_slots.max(1)];
    let t_tape = median_secs(3, || {
        for u in inputs.chunks_exact(NUM_INPUTS) {
            tape.eval_into(black_box(u), &mut out, &mut slots);
            black_box(&mut out);
        }
    });
    m.push(("expr.a_tape_ns_pt", 1e9 * t_tape / sample_points));
    m.push(("expr.tape_compile_ms", 1e3 * t_compile));
    // The pointwise A's flop count is the estimate the RHS driver books.
    let a_flops = match params.config.rhs_kind {
        RhsKind::Pointwise => 2200.0,
        RhsKind::Generated(_) => tape.flops as f64,
    };
    let flops_pt = d_flops as f64 / BLOCK_VOLUME as f64 + a_flops;
    m.push(("bssn.flops_pt", flops_pt));
    drop(inputs);

    // core: the Sommerfeld fix on sampled boundary octants, one thread.
    let masks = boundary_face_masks(&mesh);
    let bsample: Vec<usize> = (0..n).filter(|&e| masks[e] != 0).take(SAMPLE_OCTANTS).collect();
    let mut ws = RhsWorkspace::new(1);
    let (mut ibuf, mut pbuf) = (vec![0.0; NUM_INPUTS], vec![0.0; NUM_VARS]);
    let mut blocks = vec![[0.0; BLOCK_VOLUME]; NUM_VARS];
    let (mut t_bc, mut bc_points) = (0.0, 0usize);
    for &e in &bsample {
        let refs: [&[f64]; NUM_VARS] = std::array::from_fn(|v| patches.patch(v, e));
        ws.derivs.compute(&refs, mesh.octants[e].h);
        let mut outs: Vec<&mut [f64]> = blocks.iter_mut().map(|b| &mut b[..]).collect();
        t_bc += median_secs(3, || {
            sommerfeld_fix(&mesh, e, masks[e], &refs, &ws, &mut ibuf, &mut pbuf, &mut outs)
        });
        bc_points += o.iter().filter(|&(i, j, k)| on_masked_face(masks[e], i, j, k)).count();
    }
    m.push(("core.bc_ns_pt", if bc_points > 0 { 1e9 * t_bc / bc_points as f64 } else { 0.0 }));
    drop(patches);

    // waveform: one (2,2) extraction on the evolved state.
    let t_extract = median_secs(3, || {
        let mut e = extractor(params.extract_radius);
        e.record(time, &mesh, &state);
    });
    m.push(("waveform.extract_ms", 1e3 * t_extract));

    m.push(("core.rhs_ms", rhs_ms));
    m.push(("core.ckpt_save_ms", save_ms));
    m.push(("core.ckpt_load_ms", load_ms));
    m.push(("core.ckpt_mb", ckpt_mb));

    // par: the CPU RHS at one thread against the workload's threads, and
    // the flop count the CPU backend books.
    let mut speedup = 0.0;
    if w == Workload::Inspiral {
        let mut b = CpuBackend::with_threads(&mesh, bssn, params.config.rhs_kind, 1);
        b.upload(&state);
        let (t1, ()) = timed(|| b.eval_rhs(&mesh, Buf::U, Buf::K));
        speedup = t1 / (rhs_ms / 1e3);
        let booked = (b.flops.0 + b.flops.1) as f64 / (n * BLOCK_VOLUME) as f64;
        if booked != flops_pt {
            problems.push(format!("CpuBackend books {booked} flops/pt, layers count {flops_pt}"));
        }
    }
    m.push(("par.rhs_speedup", speedup));

    // gpu-sim: the device kernels on their own backend.
    let (mut g_o2p, mut g_rhs) = (0.0, 0.0);
    if w == Workload::Supervised {
        let mut g = GpuBackend::new(&mesh, bssn, params.config.rhs_kind, Device::a100());
        g.upload(&state);
        g_o2p = 1e3 * median_secs(2, || g.o2p_only(&mesh, Buf::U));
        g_rhs = 1e3 * median_secs(2, || g.rhs_only(&mesh, Buf::K));
    }
    m.push(("gpu_sim.o2p_ms", g_o2p));
    m.push(("gpu_sim.rhs_ms", g_rhs));

    // Counts kept by the evolution calls: device traffic (metered on every
    // call) and comm (traced calls only).
    let per_step = |x: u64, c: &Call| x as f64 / c.steps as f64;
    let first = &ev.calls[0];
    let (gbytes, gflops) = first.device.unwrap_or((0, 0));
    let global_mb = per_step(gbytes, first) / 1e6;
    let gflop = per_step(gflops, first) / 1e9;
    m.push(("gpu_sim.global_mb_step", global_mb));
    m.push(("gpu_sim.gflop_step", gflop));
    let traced = ev.calls.iter().find(|c| c.traced).expect("a traced call");
    let msgs = per_step(traced.counter(Counter::HaloMessages), traced);
    let halo_mb = per_step(traced.counter(Counter::HaloBytes), traced) / 1e6;
    let wait_ms = per_step(traced.counter(Counter::HaloWaitUs), traced) / 1e3;
    let retransmits: u64 = ev.calls.iter().map(|c| c.counter(Counter::Retransmits)).sum();
    m.push(("comm.halo_msgs_step", msgs));
    m.push(("comm.halo_mb_step", halo_mb));
    m.push(("comm.halo_wait_ms_step", wait_ms));
    m.push(("comm.retransmits", retransmits as f64));
    let exact = vec![
        ("octants", n as f64),
        ("bssn.flops_pt", flops_pt),
        ("mesh.patch_mb", 8.0 * patch_points / 1e6),
        ("gpu_sim.global_mb_step", global_mb),
        ("gpu_sim.gflop_step", gflop),
        ("core.ckpt_mb", ckpt_mb),
        ("comm.halo_msgs_step", msgs),
        ("comm.halo_mb_step", halo_mb),
    ];

    // obs: what tracing costs, and what the layers above leave unexplained.
    let (untraced, traced_ms) = step_ms;
    m.push(("obs.trace_overhead_frac", traced_ms / untraced - 1.0));
    let axpy_calls_ms = 1e3 * (4.0 * t_axpy + 4.0 * t_assign);
    let layer_ms = match w {
        // 4 RHS + 4 axpy/copy + 4 assign_axpy + 1 interface sync.
        Workload::Inspiral => 4.0 * rhs_ms + axpy_calls_ms + 1e3 * t_sync,
        // The same RHS on the device, one extraction every 2 steps and a
        // disk checkpoint every 4.
        Workload::Supervised => 4.0 * rhs_ms + 1e3 * t_extract / 2.0 + save_ms / 4.0,
        // Per rank (ranks run side by side, one thread each): derivatives
        // and tape A over its half of the points at 4 stages, plus the
        // exposed halo wait.
        Workload::Overlap => {
            let pts = (n * BLOCK_VOLUME) as f64 / params.ranks as f64;
            4.0 * pts * (t_derivs + t_tape) / sample_points * 1e3 + wait_ms
        }
    };
    m.push(("obs.unaccounted_frac", 1.0 - layer_ms / untraced));
    Layers { metrics: m, exact, problems }
}
