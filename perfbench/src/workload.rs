//! The three workloads: generated inputs, set-up, the timed evolution
//! loop and the correctness checks.

use crate::util::{median, nproc, peak_rss_mb, timed, Rng};
use gw_bssn::init::{LinearWaveData, PunctureData};
use gw_core::multi::ResilienceConfig;
use gw_core::params::RunParams;
use gw_core::run::{Run, RunError};
use gw_core::solver::{fill_field, GwSolver, SolverConfig};
use gw_expr::symbols::{var, NUM_VARS};
use gw_mesh::{Field, Mesh};
use gw_obs::{Counter, Probe};
use gw_octree::{refine_loop, BalanceMode, Domain, MortonKey, Puncture, PunctureRefiner, Refiner};
use gw_stencil::patch::PatchLayout;
use gw_waveform::{lebedev::product_rule, ExtractionSphere, ModeExtractor};
use std::path::PathBuf;
use std::time::Instant;

/// The seed whose final-state norms and (2,2) mode are recorded in
/// `perfbench/reference.json`.
pub const COMMITTED_SEED: u64 = 0;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;

/// `pars/q1_supervised.par.json` with the checkpoint directory left to
/// the benchmark (it points into the run's scratch directory).
const Q1_SUPERVISED_PAR: &str = r#"{
    "q": 1.0, "separation": 6.0, "domain_half": 16.0,
    "base_level": 2, "finest_level": 5,
    "courant": 0.25, "eta": 2.0, "ko_sigma": 0.4, "chi_floor": 1e-4,
    "use_gpu": true, "rhs": "staged",
    "extract_every": 2, "extract_radius": 8.0,
    "supervised": true, "check_every": 1, "checkpoint_every": 4, "keep_checkpoints": 3,
    "hamiltonian_max": 1e3, "chi_min": -0.01,
    "max_retries": 3, "retry_courant_factor": 0.5, "retry_ko_boost": 0.1
}"#;

/// `pars/q1_overlap.par.json` with one pool worker per rank (`threads`),
/// so the two ranks use the host's two cores and no more, and without
/// its trace sink (the traced pass attaches its own probe).
const Q1_OVERLAP_PAR: &str = r#"{
    "q": 1.0, "separation": 6.0, "domain_half": 16.0,
    "base_level": 2, "finest_level": 5,
    "courant": 0.25, "eta": 2.0, "ko_sigma": 0.4, "chi_floor": 1e-4,
    "rhs": "staged", "threads": 1,
    "extract_every": 0, "extract_radius": 8.0,
    "ranks": 2, "comm.overlap": true, "comm.max_retransmits": 8,
    "comm.heartbeat_interval": 50.0, "comm.recv_timeout": 10000.0
}"#;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Fig. 12 q = 8 inspiral grid, linear wave, CPU backend, pointwise
    /// `A`, stepping only.
    Inspiral,
    /// The `q1_supervised` production path on the gpu-sim backend.
    Supervised,
    /// The `q1_overlap` path: two in-process ranks, overlapped halos.
    Overlap,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Inspiral, Workload::Supervised, Workload::Overlap];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Inspiral => "inspiral_fig12",
            Workload::Supervised => "q1_supervised",
            Workload::Overlap => "q1_overlap_2rank",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// RK4 steps per evolution call. The supervised call spans one
    /// checkpoint period (two extractions, four health checks, one disk
    /// checkpoint), so every call does the same work.
    pub fn chunk_steps(self) -> usize {
        match self {
            Workload::Inspiral => 1,
            Workload::Supervised => 4,
            Workload::Overlap => 2,
        }
    }
}

/// Command-line options shared by every part of a run.
pub struct Opts {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Small grids for the self-tests (seconds instead of minutes).
    pub tiny: bool,
    /// Disturb the final state before checking it (self-test of the
    /// checks themselves).
    pub perturb: bool,
    pub scratch: PathBuf,
    pub reference: Option<PathBuf>,
}

/// Generated initial data for one seed.
#[derive(Clone)]
pub enum Inputs {
    Wave(LinearWaveData),
    Puncture(PunctureData),
}

impl Inputs {
    /// The seed changes field values only: wave shape for the inspiral
    /// grid, puncture momenta and spins for q = 1. Masses and positions,
    /// and so the grid, stay fixed.
    pub fn generate(w: Workload, seed: u64) -> Inputs {
        let mut rng = Rng::new(seed);
        match w {
            Workload::Inspiral => Inputs::Wave(LinearWaveData::new(
                rng.range(5e-4, 2e-3),
                rng.range(-1.0, 1.0),
                rng.range(2.5, 3.5),
                rng.range(0.3, 0.6),
            )),
            Workload::Supervised | Workload::Overlap => {
                let mut data = PunctureData::binary(1.0, 6.0);
                for bh in &mut data.punctures {
                    let scale = rng.range(0.9, 1.1);
                    bh.momentum = [
                        rng.range(-0.005, 0.005),
                        bh.momentum[1] * scale,
                        rng.range(-0.005, 0.005),
                    ];
                    bh.spin = std::array::from_fn(|_| rng.range(-0.02, 0.02));
                }
                Inputs::Puncture(data)
            }
        }
    }

    pub fn evaluate(&self, p: [f64; 3], out: &mut [f64]) {
        match self {
            Inputs::Wave(w) => w.evaluate(p, out),
            Inputs::Puncture(d) => d.evaluate(p, out),
        }
    }
}

/// Solver parameters of a workload (the par files users run).
pub fn run_params(w: Workload) -> RunParams {
    let text = match w {
        Workload::Inspiral => return inspiral_params(),
        Workload::Supervised => Q1_SUPERVISED_PAR,
        Workload::Overlap => Q1_OVERLAP_PAR,
    };
    RunParams::from_json(text).expect("embedded par text is valid")
}

/// CPU backend, pointwise `A`, all host cores, no extraction.
fn inspiral_params() -> RunParams {
    RunParams {
        extract_every: 0,
        config: SolverConfig { threads: nproc(), ..SolverConfig::default() },
        ..RunParams::default()
    }
}

/// The octree of a workload: refinement from the root, as users build it.
pub fn refine(w: Workload, tiny: bool) -> (Domain, Vec<MortonKey>) {
    let domain = Domain::centered_cube(16.0);
    let leaves = match (w, tiny) {
        (Workload::Inspiral, false) => gw_bench::fig12_inspiral_leaves(&domain),
        (_, true) => {
            let r = puncture_refiner(&PunctureData::binary(1.0, 6.0), 1, 3);
            refine_loop(&[MortonKey::root()], &domain, &r, BalanceMode::Full, 20)
        }
        (Workload::Supervised | Workload::Overlap, false) => {
            let p = run_params(w);
            let r = puncture_refiner(
                &PunctureData::binary(p.q, p.separation),
                p.base_level,
                p.finest_level,
            );
            // The `bssn_solver` CLI's sweep limit.
            refine_loop(&[MortonKey::root()], &domain, &r, BalanceMode::Full, 20)
        }
    };
    (domain, leaves)
}

/// Puncture refinement exactly as the `bssn_solver` CLI sets it up.
fn puncture_refiner(data: &PunctureData, base: u8, finest: u8) -> impl Refiner {
    let punctures = data
        .punctures
        .iter()
        .map(|b| Puncture {
            pos: b.pos,
            finest_level: finest,
            inner_radius: (b.mass * 1.5).max(0.3),
        })
        .collect();
    PunctureRefiner::new(punctures, base)
}

/// Strain-mode extractor of the q = 1 par files (radius 8, (2,2)).
pub fn extractor(radius: f64) -> ModeExtractor {
    ModeExtractor::new(ExtractionSphere::new(radius, product_rule(6, 12)), vec![(2, 2)])
}

/// A set-up workload, ready to step.
pub struct Prepared {
    pub domain: Domain,
    pub leaves: Vec<MortonKey>,
    /// Single-rank workloads keep one solver across evolution calls.
    /// Distributed calls start from the initial data on a freshly built
    /// mesh every time (the `Run` builder owns the rank-local state).
    pub solver: Option<GwSolver>,
    pub inputs: Inputs,
    pub octants: usize,
    /// Seconds of each set-up (inputs → ready to step).
    pub setup_samples: Vec<f64>,
    /// `refine_loop` + `Mesh::build` seconds of each set-up.
    pub build_samples: Vec<f64>,
}

/// Inputs → ready-to-step, `SETUP_REPS` times; the last one is kept.
pub fn setup(opts: &Opts) -> Prepared {
    let w = opts.workload;
    let inputs = Inputs::generate(w, opts.seed);
    let mut setup_samples = Vec::new();
    let mut build_samples = Vec::new();
    let mut kept = None;
    for _ in 0..SETUP_REPS {
        drop(kept.take());
        let t0 = Instant::now();
        let (domain, leaves) = refine(w, opts.tiny);
        let mesh = Mesh::build(domain, &leaves);
        build_samples.push(t0.elapsed().as_secs_f64());
        let octants = mesh.n_octants();
        let params = run_params(w);
        let solver = match w {
            Workload::Overlap => {
                // The distributed driver fills the initial data itself;
                // this fill is the same work, timed as set-up.
                std::hint::black_box(fill_field(&mesh, &|p, o: &mut [f64]| inputs.evaluate(p, o)));
                None
            }
            Workload::Inspiral | Workload::Supervised => {
                let init = inputs.clone();
                let mut solver =
                    GwSolver::try_new(params.config, mesh, move |p, o| init.evaluate(p, o))
                        .expect("workload solver configuration is valid");
                if params.extract_every > 0 {
                    solver.add_extractor(extractor(params.extract_radius));
                }
                Some(solver)
            }
        };
        setup_samples.push(t0.elapsed().as_secs_f64());
        kept = Some((domain, leaves, solver, octants));
    }
    let (domain, leaves, solver, octants) = kept.expect("at least one set-up");
    Prepared { domain, leaves, solver, inputs, octants, setup_samples, build_samples }
}

/// One timed evolution call.
pub struct Call {
    pub secs: f64,
    pub steps: u64,
    pub traced: bool,
    /// Steps of this call that failed (error, rollback, retransmission
    /// exhausted).
    pub failed: u64,
    /// Probe counters of a traced call.
    pub counters: Vec<(Counter, u64)>,
    /// gpu-sim (global bytes, flops) of the call.
    pub device: Option<(u64, u64)>,
    pub error: Option<String>,
}

impl Call {
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters.iter().find(|(k, _)| *k == c).map(|&(_, v)| v).unwrap_or(0)
    }
}

/// The timed part of a run.
pub struct Evolution {
    pub calls: Vec<Call>,
    /// State and time after the last successful call.
    pub final_state: Option<(Field, f64)>,
    /// State and time after the first call: the reference point of the
    /// q = 1 checks (a fixed step count, whatever the time budget).
    pub first_state: Option<(Field, f64)>,
    pub warmup_steps: u64,
    /// The single-rank solver, for the traced layer timings.
    pub solver: Option<GwSolver>,
    /// Distributed calls all evolve the same initial data the same
    /// number of steps, so their final states must be identical.
    pub repeat_mismatch: bool,
    /// Resident-memory high-water mark after the first call: set-up plus
    /// one evolution call. Later calls repeat the same work; reading the
    /// mark here keeps allocator reuse across calls out of the figure.
    pub peak_rss_mb: f64,
}

impl Evolution {
    pub fn attempted(&self) -> u64 {
        self.warmup_steps + self.calls.iter().map(|c| c.steps).sum::<u64>()
    }
}

/// Evolution calls until the time budget is spent: at least one call,
/// and in a traced run untraced and traced calls alternate, each kind at
/// least once.
pub fn evolve(opts: &Opts, prep: &mut Prepared) -> Evolution {
    let mut ev = Evolution {
        calls: Vec::new(),
        final_state: None,
        first_state: None,
        warmup_steps: 0,
        solver: None,
        repeat_mismatch: false,
        peak_rss_mb: f64::NAN,
    };
    if let Some(mut s) = prep.solver.take() {
        // Warm-up: per-worker workspaces, pools, first-touch pages.
        s.step();
        ev.warmup_steps = 1;
        ev.solver = Some(s);
    }
    let start = Instant::now();
    loop {
        let traced = opts.trace && ev.calls.len() % 2 == 1;
        let probe = if traced { Probe::enabled() } else { Probe::disabled() };
        let call = match ev.solver {
            Some(_) => solver_call(opts, &mut ev, probe),
            None => distributed_call(opts, &mut ev, probe, prep),
        };
        let stop = call.error.is_some();
        ev.calls.push(call);
        if ev.calls.len() == 1 {
            ev.peak_rss_mb = peak_rss_mb();
        }
        if stop {
            break;
        }
        // Stop at the call boundary nearest the budget: calls last up to
        // 20 s, so stopping before the budget would waste up to a call.
        let per_call: Vec<f64> = ev.calls.iter().map(|c| c.secs).collect();
        let need_traced = opts.trace && !ev.calls.iter().any(|c| c.traced);
        let next_end = start.elapsed().as_secs_f64() + 0.5 * median(&per_call);
        if !need_traced && next_end > opts.seconds {
            break;
        }
    }
    ev
}

fn solver_call(opts: &Opts, ev: &mut Evolution, probe: Probe) -> Call {
    let w = opts.workload;
    let steps = w.chunk_steps();
    let traced = probe.is_enabled();
    let s = ev.solver.take().expect("solver kept between calls");
    let before = s.backend.counters();
    let run = Run::from_solver(s).probe(probe.clone());
    let ckpt_dir = opts.scratch.join("checkpoints");
    let run = match w {
        Workload::Supervised => {
            let mut sup = run_params(w).supervisor;
            sup.checkpoint_dir = Some(ckpt_dir.to_string_lossy().into_owned());
            // Supervised runs step up to an absolute step count.
            let target = steps + (ev.warmup_steps as usize) + ev.calls.len() * steps;
            run.steps(target).supervised(sup)
        }
        _ => run.steps(steps),
    };
    let (secs, out) = timed(|| run.execute());
    let _ = std::fs::remove_dir_all(&ckpt_dir);
    let out = match out {
        Ok(out) => out,
        Err(e) => return failed_call(secs, steps, traced, e),
    };
    let mut s = out.solver.expect("single-rank run returns its solver");
    let device = s.backend.counters().zip(before).map(|(a, b)| {
        let d = a.delta_since(&b);
        (d.global_bytes(), d.flops)
    });
    let rolled =
        out.supervised.as_ref().is_some_and(|sum| sum.retries > 0 || !sum.failures.is_empty());
    if ev.first_state.is_none() {
        ev.first_state = Some((out.state.clone(), out.time));
    }
    ev.final_state = Some((out.state, out.time));
    s.set_probe(Probe::disabled());
    ev.solver = Some(s);
    Call {
        secs,
        steps: steps as u64,
        traced,
        failed: if rolled { steps as u64 } else { 0 },
        counters: counters(&probe),
        device,
        error: None,
    }
}

fn distributed_call(opts: &Opts, ev: &mut Evolution, probe: Probe, prep: &Prepared) -> Call {
    let steps = opts.workload.chunk_steps();
    let traced = probe.is_enabled();
    let params = run_params(opts.workload);
    let mesh = Mesh::build(prep.domain, &prep.leaves);
    let init = prep.inputs.clone();
    // As the `bssn_solver` CLI wires a distributed par file without
    // distributed checkpoints.
    let resilience = ResilienceConfig {
        checkpoint_dir: None,
        checkpoint_every: params.supervisor.checkpoint_every.max(1),
        degradation: params.supervisor.degradation,
        kill_once: None,
    };
    let run = Run::new(params.config)
        .mesh(mesh)
        .init(move |p, o| init.evaluate(p, o))
        .steps(steps)
        .distributed(params.ranks)
        .world(params.world_config())
        .resilience(resilience)
        .probe(probe.clone());
    let (secs, out) = timed(|| run.execute());
    let out = match out {
        Ok(out) => out,
        Err(e) => return failed_call(secs, steps, traced, e),
    };
    match &ev.first_state {
        None => ev.first_state = Some((out.state.clone(), out.time)),
        Some((f, _)) => ev.repeat_mismatch |= f.as_slice() != out.state.as_slice(),
    }
    ev.final_state = Some((out.state, out.time));
    Call {
        secs,
        steps: steps as u64,
        traced,
        failed: if out.retries > 0 { steps as u64 } else { 0 },
        counters: counters(&probe),
        device: None,
        error: None,
    }
}

fn failed_call(secs: f64, steps: usize, traced: bool, e: RunError) -> Call {
    Call {
        secs,
        steps: steps as u64,
        traced,
        failed: steps as u64,
        counters: Vec::new(),
        device: None,
        error: Some(e.to_string()),
    }
}

fn counters(probe: &Probe) -> Vec<(Counter, u64)> {
    if !probe.is_enabled() {
        return Vec::new();
    }
    Counter::ALL.iter().map(|&c| (c, probe.counter(c))).collect()
}

/// Make every checked state wrong by a fixed, physically visible amount
/// (the self-test of the checks).
pub fn perturb(state: &mut Field) {
    let gxx = var::gt(0, 0);
    for oct in 0..state.n_oct {
        state.block_mut(gxx, oct).iter_mut().for_each(|x| *x += 1e-3);
    }
}

/// Per-variable final-state norms (rms, max-abs) and the (2,2) mode at
/// the reference point: the values `reference.json` records.
pub fn reference_values(mesh: &Mesh, state: &Field, time: f64) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for v in 0..NUM_VARS {
        out.push((format!("rms_{v}"), state.rms(v)));
        out.push((format!("linf_{v}"), state.linf(v)));
    }
    let mut e = extractor(8.0);
    e.record(time, mesh, state);
    let h22 = e.mode(2, 2).expect("(2,2) mode recorded").values[0];
    out.push(("h22_re".to_string(), h22.re));
    out.push(("h22_im".to_string(), h22.im));
    out
}

/// Relative tolerance of the reference comparison. Round-off-level
/// kernel rewrites (≤ 1e-12 relative per operation) move these norms by
/// far less; any change to the physics moves them by far more.
pub const REFERENCE_RTOL: f64 = 1e-8;
/// Absolute floor for values that are zero up to round-off.
pub const REFERENCE_ATOL: f64 = 1e-14;

/// Allowed |γ̃ₓₓ − 1 − h₊| on the inspiral grid, as a share of the wave
/// amplitude. The error measured at the committed seed is recorded in
/// `perfbench/README.md`; this allows a wide margin over it.
pub const WAVE_RTOL: f64 = 0.05;
/// The wave check skips points within this distance of the outer
/// boundary, where the Sommerfeld condition (exact only for radially
/// outgoing waves) disturbs a plane wave.
const WAVE_BOUNDARY_MARGIN: f64 = 4.0;

/// Physical bounds of χ and α on every workload: positive-ish conformal
/// factor (the q = 1 par files let χ dip to −0.01 near a puncture) and a
/// lapse in (0, 1] up to round-off.
const CHI_RANGE: (f64, f64) = (-0.01, 1.0 + 1e-6);
const ALPHA_RANGE: (f64, f64) = (0.0, 1.0 + 1e-6);

/// Problems with a state every workload must satisfy.
pub fn check_physical(state: &Field) -> Vec<String> {
    let mut problems = Vec::new();
    if let Some(v) = (0..state.dof)
        .find(|&v| (0..state.n_oct).any(|o| state.block(v, o).iter().any(|x| !x.is_finite())))
    {
        problems.push(format!("non-finite value in variable {v}"));
    }
    for (name, v, (lo, hi)) in [("chi", var::CHI, CHI_RANGE), ("alpha", var::ALPHA, ALPHA_RANGE)] {
        let (mut mn, mut mx) = (f64::INFINITY, f64::NEG_INFINITY);
        for o in 0..state.n_oct {
            for &x in state.block(v, o) {
                mn = mn.min(x);
                mx = mx.max(x);
            }
        }
        if !(mn > lo && mx <= hi) {
            problems.push(format!("{name} outside ({lo}, {hi}]: [{mn}, {mx}]"));
        }
    }
    problems
}

/// Largest |γ̃ₓₓ − 1 − h₊(z, t)| over the checked region, as a share of
/// the amplitude.
pub fn wave_error(mesh: &Mesh, state: &Field, wave: &LinearWaveData, t: f64) -> f64 {
    let l = PatchLayout::octant();
    let lim = 0.5 * mesh.domain.extent()[0] - WAVE_BOUNDARY_MARGIN;
    let mut err = 0.0f64;
    for oct in 0..mesh.n_octants() {
        let block = state.block(var::gt(0, 0), oct);
        for (i, j, k) in l.iter() {
            let p = mesh.point_coords(oct, i, j, k);
            if p.iter().any(|c| c.abs() > lim) {
                continue;
            }
            let got = block[l.idx(i, j, k)] - 1.0;
            err = err.max((got - wave.h_plus(p[2], t)).abs());
        }
    }
    err / wave.amplitude
}

/// Compare recorded reference values; each mismatch is one problem.
pub fn check_reference(got: &[(String, f64)], want: &[(String, f64)]) -> Vec<String> {
    let mut problems = Vec::new();
    for (k, w) in want {
        match got.iter().find(|(g, _)| g == k) {
            None => problems.push(format!("reference value {k} not produced")),
            Some((_, g)) => {
                // Written so that NaN fails.
                let close = (g - w).abs() <= REFERENCE_RTOL * w.abs() + REFERENCE_ATOL;
                if !close {
                    problems.push(format!("{k} = {g:e}, reference {w:e}"));
                }
            }
        }
    }
    problems
}
