//! Supervised evolution: health monitoring, automatic checkpointing,
//! and rollback-based fault recovery.
//!
//! Production campaigns (Table IV: hundreds of node-hours per
//! configuration) die to soft errors, lost messages, and occasional
//! gauge pathologies. The supervisor wraps [`GwSolver`] with the three
//! mechanisms that keep such a run alive:
//!
//! 1. **Health monitoring** ([`HealthMonitor`]): every `check_every`
//!    steps the evolved state is scanned for non-finite values, loss of
//!    χ/α positivity (the moving-puncture gauge requires both strictly
//!    positive), and Hamiltonian-constraint blowup (reusing
//!    `gw_bssn::constraints`). Violations produce a structured
//!    [`HealthReport`].
//! 2. **Automatic checkpointing**: an in-memory snapshot is refreshed at
//!    every *verified-healthy* check (the rollback target), and disk
//!    checkpoints are written through the atomic, CRC-protected
//!    [`crate::checkpoint::save_to_file`] on a configurable cadence with
//!    keep-last-K rotation.
//! 3. **Auto-recovery**: on a failed check the solver is rolled back to
//!    the last good snapshot and retried under a [`DegradationPolicy`]
//!    — optionally reducing the Courant factor and/or raising the
//!    Kreiss–Oliger dissipation, compounding per retry (the
//!    deterministic analog of retry backoff; wall-clock delays would
//!    break reproducibility). Retries are bounded; exhausting them
//!    surfaces [`SupervisorError::RetriesExhausted`] with the final
//!    report attached.
//!
//! Every decision is recorded in an event log ([`SupervisorEvent`]) so a
//! post-mortem can reconstruct what was detected, where the run rolled
//! back to, and which policy was applied.

use crate::checkpoint;
use crate::solver::GwSolver;
use bytes::Bytes;
use gw_expr::symbols::{var, NUM_INPUTS, NUM_VARS};
use gw_mesh::Field;
use gw_obs::{Counter, Phase};
use gw_stencil::patch::PatchLayout;

/// Limits separating a healthy state from a corrupted or diverging one.
#[derive(Clone, Copy, Debug)]
pub struct HealthThresholds {
    /// χ must stay strictly above this (positivity of the conformal
    /// factor; the default 0 means "any positive value is fine").
    pub chi_min: f64,
    /// α (lapse) must stay strictly above this.
    pub alpha_min: f64,
    /// Max allowed |Hamiltonian| over the sampled points.
    pub hamiltonian_max: f64,
}

impl Default for HealthThresholds {
    fn default() -> Self {
        Self { chi_min: 0.0, alpha_min: 0.0, hamiltonian_max: 1.0e3 }
    }
}

/// One detected violation, with enough location info for a post-mortem.
#[derive(Clone, Debug, PartialEq)]
pub enum HealthIssue {
    /// NaN or ±Inf in the evolved state.
    NonFinite { var: usize, octant: usize },
    /// χ at or below its floor somewhere.
    ChiNotPositive { octant: usize, value: f64 },
    /// α at or below its floor somewhere.
    AlphaNotPositive { octant: usize, value: f64 },
    /// Sampled |Hamiltonian| exceeded the threshold.
    ConstraintBlowup { value: f64, threshold: f64 },
}

impl std::fmt::Display for HealthIssue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HealthIssue::NonFinite { var, octant } => {
                write!(f, "non-finite value in variable {var} of octant {octant}")
            }
            HealthIssue::ChiNotPositive { octant, value } => {
                write!(f, "chi lost positivity in octant {octant}: {value}")
            }
            HealthIssue::AlphaNotPositive { octant, value } => {
                write!(f, "lapse lost positivity in octant {octant}: {value}")
            }
            HealthIssue::ConstraintBlowup { value, threshold } => {
                write!(f, "Hamiltonian constraint {value:.3e} exceeds threshold {threshold:.3e}")
            }
        }
    }
}

/// Outcome of one health check.
#[derive(Clone, Debug)]
pub struct HealthReport {
    /// Solver step count when the check ran.
    pub step: u64,
    /// Solver time when the check ran.
    pub time: f64,
    /// Issues found (empty ⇒ healthy).
    pub issues: Vec<HealthIssue>,
    /// Max sampled |Hamiltonian| (NaN-free; non-finite states are
    /// reported via [`HealthIssue::NonFinite`] instead).
    pub max_hamiltonian: f64,
}

impl HealthReport {
    pub fn healthy(&self) -> bool {
        self.issues.is_empty()
    }
}

/// Scans the evolved state for the failure modes above.
#[derive(Clone, Copy, Debug, Default)]
pub struct HealthMonitor {
    pub thresholds: HealthThresholds,
}

impl HealthMonitor {
    pub fn new(thresholds: HealthThresholds) -> Self {
        Self { thresholds }
    }

    /// Run all checks against the solver's current state (one download).
    pub fn check(&self, solver: &GwSolver) -> HealthReport {
        let u = solver.state();
        self.check_field(&u, solver.steps_taken, solver.time)
    }

    /// Run all checks against an already-downloaded state.
    pub fn check_field(&self, u: &Field, step: u64, time: f64) -> HealthReport {
        let mut issues = Vec::new();
        let n_oct = u.n_oct;
        // Non-finite scan over everything; positivity over χ and α.
        for v in 0..u.dof {
            for oct in 0..n_oct {
                let block = u.block(v, oct);
                if let Some(&bad) = block.iter().find(|x| !x.is_finite()) {
                    let _ = bad;
                    issues.push(HealthIssue::NonFinite { var: v, octant: oct });
                    continue; // one issue per (var, octant) is enough
                }
                if v == var::CHI {
                    let m = block.iter().cloned().fold(f64::INFINITY, f64::min);
                    if m <= self.thresholds.chi_min {
                        issues.push(HealthIssue::ChiNotPositive { octant: oct, value: m });
                    }
                } else if v == var::ALPHA {
                    let m = block.iter().cloned().fold(f64::INFINITY, f64::min);
                    if m <= self.thresholds.alpha_min {
                        issues.push(HealthIssue::AlphaNotPositive { octant: oct, value: m });
                    }
                }
            }
        }
        // Constraint sample (algebraic part, one interior point per
        // octant — same sampling as GwSolver::constraint_sample). Only
        // meaningful on finite data.
        let mut max_h = 0.0f64;
        if issues.is_empty() {
            let l = PatchLayout::octant();
            let mut inputs = vec![0.0; NUM_INPUTS];
            for oct in 0..n_oct {
                for (slot, inp) in inputs.iter_mut().take(NUM_VARS).enumerate() {
                    *inp = u.block(slot, oct)[l.idx(3, 3, 3)];
                }
                max_h = max_h.max(gw_bssn::constraints::hamiltonian(&inputs).abs());
            }
            if max_h > self.thresholds.hamiltonian_max {
                issues.push(HealthIssue::ConstraintBlowup {
                    value: max_h,
                    threshold: self.thresholds.hamiltonian_max,
                });
            }
        }
        HealthReport { step, time, issues, max_hamiltonian: max_h }
    }
}

/// How to degrade parameters on each retry. The adjustments compound:
/// retry `n` runs with `courant * courant_factor^n` and
/// `ko_sigma + n * ko_boost` — escalation instead of wall-clock backoff,
/// which would break determinism.
#[derive(Clone, Copy, Debug)]
pub struct DegradationPolicy {
    /// Multiply the Courant factor by this on each retry (1.0 = retry
    /// with identical parameters, which is bit-reproducible).
    pub courant_factor: f64,
    /// Add this to the Kreiss–Oliger dissipation σ on each retry.
    pub ko_boost: f64,
    /// Give up after this many rollbacks.
    pub max_retries: u32,
}

impl Default for DegradationPolicy {
    fn default() -> Self {
        Self { courant_factor: 0.5, ko_boost: 0.1, max_retries: 3 }
    }
}

/// Supervisor configuration.
#[derive(Clone, Debug)]
pub struct SupervisorConfig {
    /// Health-check cadence in steps (≥ 1).
    pub check_every: u64,
    pub thresholds: HealthThresholds,
    /// Disk-checkpoint cadence in steps (0 = in-memory snapshots only).
    pub checkpoint_every: u64,
    /// Directory for disk checkpoints (`ckpt_<step>.gwcp`).
    pub checkpoint_dir: Option<String>,
    /// Keep at most this many disk checkpoints (oldest deleted first).
    pub keep_checkpoints: usize,
    pub degradation: DegradationPolicy,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        Self {
            check_every: 1,
            thresholds: HealthThresholds::default(),
            checkpoint_every: 0,
            checkpoint_dir: None,
            keep_checkpoints: 3,
            degradation: DegradationPolicy::default(),
        }
    }
}

/// One entry of the supervisor's decision log.
#[derive(Clone, Debug)]
pub enum SupervisorEvent {
    /// A disk checkpoint was written.
    CheckpointWritten { step: u64, path: String },
    /// A health check failed; the report is preserved verbatim.
    FaultDetected { step: u64, report: HealthReport },
    /// The solver was rolled back to the last good snapshot.
    RolledBack { from_step: u64, to_step: u64 },
    /// A retry began with (possibly degraded) parameters.
    RetryStarted { attempt: u32, courant: f64, ko_sigma: f64 },
    /// The run reached its target step count.
    Completed { steps: u64, retries: u32 },
}

/// Terminal supervisor failures.
#[derive(Debug)]
pub enum SupervisorError {
    /// Every allowed retry also failed its health check.
    RetriesExhausted { attempts: u32, last_report: HealthReport },
    /// A disk checkpoint could not be written.
    CheckpointIo { step: u64, error: String },
}

impl std::fmt::Display for SupervisorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SupervisorError::RetriesExhausted { attempts, last_report } => write!(
                f,
                "run failed after {attempts} retries; last failure at step {}: {}",
                last_report.step,
                last_report
                    .issues
                    .first()
                    .map(|i| i.to_string())
                    .unwrap_or_else(|| "unknown".into())
            ),
            SupervisorError::CheckpointIo { step, error } => {
                write!(f, "checkpoint at step {step} failed: {error}")
            }
        }
    }
}

impl std::error::Error for SupervisorError {}

/// Result of a completed supervised run.
#[derive(Debug)]
pub struct RunSummary {
    pub steps_completed: u64,
    pub retries: u32,
    /// Reports of every *failed* check (healthy checks are not kept —
    /// a long run would accumulate thousands).
    pub failures: Vec<HealthReport>,
    pub events: Vec<SupervisorEvent>,
}

/// Fault-injection hook: called after every step with the solver, the
/// step just completed, and the current retry attempt. Test harnesses
/// use it to corrupt the state on a deterministic schedule.
pub type FaultHook<'a> = Box<dyn FnMut(&mut GwSolver, u64, u32) + 'a>;

/// The supervisor itself. Construct, optionally install a fault hook,
/// then supervise a solver with it (the [`crate::run::Run`] builder's
/// `.supervised(..)` does exactly that).
pub struct Supervisor<'a> {
    pub config: SupervisorConfig,
    monitor: HealthMonitor,
    fault_hook: Option<FaultHook<'a>>,
    written: Vec<String>,
}

impl<'a> Supervisor<'a> {
    pub fn new(config: SupervisorConfig) -> Self {
        assert!(config.check_every >= 1, "check_every must be >= 1");
        let monitor = HealthMonitor::new(config.thresholds);
        Self { config, monitor, fault_hook: None, written: Vec::new() }
    }

    /// Install a deterministic fault-injection hook (test harness use).
    pub fn set_fault_hook(&mut self, hook: FaultHook<'a>) {
        self.fault_hook = Some(hook);
    }

    /// Evolve `solver` until `steps_taken == target_steps` under
    /// supervision. On success the solver holds the final state; on
    /// [`SupervisorError::RetriesExhausted`] it holds the last rollback
    /// point.
    pub(crate) fn supervise(
        &mut self,
        solver: &mut GwSolver,
        target_steps: u64,
    ) -> Result<RunSummary, SupervisorError> {
        let mut events = Vec::new();
        let mut failures = Vec::new();
        let mut retries = 0u32;
        // The rollback target: last verified-good state (v2 bytes, so a
        // corrupted snapshot would be caught by its CRC on restore).
        let mut good: Bytes = checkpoint::save(solver);
        let mut good_step = solver.steps_taken;
        let base_config = solver.config;

        while solver.steps_taken < target_steps {
            solver.step();
            let step = solver.steps_taken;
            if let Some(hook) = self.fault_hook.as_mut() {
                hook(solver, step, retries);
            }
            let due = step.is_multiple_of(self.config.check_every) || step == target_steps;
            if !due {
                continue;
            }
            let report = {
                let _s = solver.probe().start(Phase::Health);
                solver.probe().add(Counter::HealthChecks, 1);
                self.monitor.check(solver)
            };
            if report.healthy() {
                good = checkpoint::save(solver);
                good_step = step;
                if self.config.checkpoint_every > 0
                    && step.is_multiple_of(self.config.checkpoint_every)
                {
                    if let Some(dir) = self.config.checkpoint_dir.clone() {
                        let path = self.write_checkpoint(solver, &dir, step)?;
                        events.push(SupervisorEvent::CheckpointWritten { step, path });
                    }
                }
                continue;
            }
            // Unhealthy: log, roll back, degrade, retry (bounded).
            solver.probe().add(Counter::FaultsDetected, 1);
            events.push(SupervisorEvent::FaultDetected { step, report: report.clone() });
            failures.push(report.clone());
            if retries >= self.config.degradation.max_retries {
                // Leave the solver at the last good state for inspection.
                self.rollback(solver, &good, good_step, retries, &base_config, &mut events);
                return Err(SupervisorError::RetriesExhausted {
                    attempts: retries,
                    last_report: report,
                });
            }
            retries += 1;
            events.push(SupervisorEvent::RolledBack { from_step: step, to_step: good_step });
            self.rollback(solver, &good, good_step, retries, &base_config, &mut events);
        }
        events.push(SupervisorEvent::Completed { steps: solver.steps_taken, retries });
        Ok(RunSummary { steps_completed: solver.steps_taken, retries, failures, events })
    }

    /// Restore `solver` from the snapshot with retry-`n` degraded
    /// parameters, carrying the wave extractors over.
    fn rollback(
        &self,
        solver: &mut GwSolver,
        snapshot: &Bytes,
        to_step: u64,
        attempt: u32,
        base: &crate::solver::SolverConfig,
        events: &mut Vec<SupervisorEvent>,
    ) {
        let cp = checkpoint::load(snapshot.clone())
            .expect("in-memory snapshot is CRC-protected and must load");
        let mut cfg = *base;
        let d = &self.config.degradation;
        cfg.courant = base.courant * d.courant_factor.powi(attempt as i32);
        cfg.params.ko_sigma = base.params.ko_sigma + d.ko_boost * attempt as f64;
        let extractors = std::mem::take(&mut solver.extractors);
        let psi4 = std::mem::take(&mut solver.psi4_extractors);
        let probe = solver.probe().clone();
        probe.add(Counter::Rollbacks, 1);
        *solver = checkpoint::restore(cfg, cp);
        solver.extractors = extractors;
        solver.psi4_extractors = psi4;
        solver.set_probe(probe);
        debug_assert_eq!(solver.steps_taken, to_step);
        if attempt > 0 {
            events.push(SupervisorEvent::RetryStarted {
                attempt,
                courant: cfg.courant,
                ko_sigma: cfg.params.ko_sigma,
            });
        }
    }

    /// Atomic disk checkpoint + keep-last-K rotation.
    fn write_checkpoint(
        &mut self,
        solver: &GwSolver,
        dir: &str,
        step: u64,
    ) -> Result<String, SupervisorError> {
        let io = |e: String| SupervisorError::CheckpointIo { step, error: e };
        let _s = solver.probe().start(Phase::Checkpoint);
        solver.probe().add(Counter::Checkpoints, 1);
        std::fs::create_dir_all(dir).map_err(|e| io(e.to_string()))?;
        let path = format!("{dir}/ckpt_{step:08}.gwcp");
        checkpoint::save_to_file(solver, &path).map_err(|e| io(e.to_string()))?;
        self.written.push(path.clone());
        while self.written.len() > self.config.keep_checkpoints.max(1) {
            let old = self.written.remove(0);
            let _ = std::fs::remove_file(&old);
        }
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::SolverConfig;
    use gw_bssn::init::LinearWaveData;
    use gw_mesh::Mesh;
    use gw_octree::{Domain, MortonKey};

    fn demo_solver(config: SolverConfig) -> GwSolver {
        let domain = Domain::centered_cube(8.0);
        let mut leaves = vec![MortonKey::root()];
        for _ in 0..2 {
            leaves = leaves.iter().flat_map(|k| k.children()).collect();
        }
        leaves.sort();
        let wave = LinearWaveData::new(1e-3, 0.0, 2.0, 1.0);
        GwSolver::new(config, Mesh::build(domain, &leaves), move |p, out| wave.evaluate(p, out))
    }

    #[test]
    fn healthy_run_has_no_retries() {
        let mut solver = demo_solver(SolverConfig::default());
        let mut sup = Supervisor::new(SupervisorConfig::default());
        let summary = sup.supervise(&mut solver, 3).unwrap();
        assert_eq!(summary.steps_completed, 3);
        assert_eq!(summary.retries, 0);
        assert!(summary.failures.is_empty());
        assert!(matches!(summary.events.last(), Some(SupervisorEvent::Completed { .. })));
    }

    #[test]
    fn monitor_flags_nan_and_positivity() {
        let solver = demo_solver(SolverConfig::default());
        let mon = HealthMonitor::default();
        let mut u = solver.state();
        u.block_mut(var::K, 5)[10] = f64::NAN;
        u.block_mut(var::CHI, 2)[0] = -1.0;
        u.block_mut(var::ALPHA, 3)[0] = 0.0;
        let report = mon.check_field(&u, 7, 0.5);
        assert!(!report.healthy());
        assert!(report.issues.contains(&HealthIssue::NonFinite { var: var::K, octant: 5 }));
        assert!(report
            .issues
            .iter()
            .any(|i| matches!(i, HealthIssue::ChiNotPositive { octant: 2, .. })));
        assert!(report
            .issues
            .iter()
            .any(|i| matches!(i, HealthIssue::AlphaNotPositive { octant: 3, .. })));
    }

    #[test]
    fn poisoned_step_recovers_bit_exact_with_identity_policy() {
        // Reference: unfaulted run.
        let mut reference = demo_solver(SolverConfig::default());
        for _ in 0..4 {
            reference.step();
        }
        // Faulted run: NaN poison after step 2 on the first attempt only;
        // identity degradation (courant_factor 1.0) ⇒ the retry replays
        // the same arithmetic ⇒ bit-exact final state.
        let mut solver = demo_solver(SolverConfig::default());
        let cfg = SupervisorConfig {
            degradation: DegradationPolicy { courant_factor: 1.0, ko_boost: 0.0, max_retries: 2 },
            ..Default::default()
        };
        let mut sup = Supervisor::new(cfg);
        sup.set_fault_hook(Box::new(|s: &mut GwSolver, step: u64, attempt: u32| {
            if step == 2 && attempt == 0 {
                let mut u = s.state();
                u.block_mut(var::CHI, 7)[11] = f64::NAN;
                s.backend.upload(&u);
            }
        }));
        let summary = sup.supervise(&mut solver, 4).unwrap();
        assert_eq!(summary.retries, 1);
        assert_eq!(summary.failures.len(), 1);
        assert_eq!(summary.failures[0].step, 2);
        assert!(summary
            .events
            .iter()
            .any(|e| matches!(e, SupervisorEvent::RolledBack { from_step: 2, to_step: 1 })));
        for (a, b) in reference.state().as_slice().iter().zip(solver.state().as_slice().iter()) {
            assert_eq!(a, b, "identity-policy recovery must be bit-exact");
        }
    }

    #[test]
    fn persistent_fault_exhausts_retries() {
        let mut solver = demo_solver(SolverConfig::default());
        let cfg = SupervisorConfig {
            degradation: DegradationPolicy { courant_factor: 0.5, ko_boost: 0.1, max_retries: 2 },
            ..Default::default()
        };
        let mut sup = Supervisor::new(cfg);
        // Poison every attempt: unrecoverable.
        sup.set_fault_hook(Box::new(|s: &mut GwSolver, step: u64, _attempt: u32| {
            if step == 2 {
                let mut u = s.state();
                u.block_mut(0, 0)[0] = f64::INFINITY;
                s.backend.upload(&u);
            }
        }));
        match sup.supervise(&mut solver, 4) {
            Err(SupervisorError::RetriesExhausted { attempts, last_report }) => {
                assert_eq!(attempts, 2);
                assert_eq!(last_report.step, 2);
            }
            other => panic!("expected RetriesExhausted, got {other:?}"),
        }
        // Solver left at the last good state (step 1), not the poisoned one.
        assert_eq!(solver.steps_taken, 1);
        assert!(solver.state().as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn degradation_compounds_per_retry() {
        let mut solver = demo_solver(SolverConfig::default());
        let base_courant = solver.config.courant;
        let cfg = SupervisorConfig {
            degradation: DegradationPolicy { courant_factor: 0.5, ko_boost: 0.1, max_retries: 3 },
            ..Default::default()
        };
        let mut sup = Supervisor::new(cfg);
        // Fault the first two attempts; the third (attempt == 2) runs clean.
        sup.set_fault_hook(Box::new(|s: &mut GwSolver, step: u64, attempt: u32| {
            if step == 1 && attempt < 2 {
                let mut u = s.state();
                u.block_mut(var::ALPHA, 0)[0] = f64::NAN;
                s.backend.upload(&u);
            }
        }));
        let summary = sup.supervise(&mut solver, 2).unwrap();
        assert_eq!(summary.retries, 2);
        assert!((solver.config.courant - base_courant * 0.25).abs() < 1e-15);
        assert!(
            (solver.config.params.ko_sigma - (SolverConfig::default().params.ko_sigma + 0.2)).abs()
                < 1e-15
        );
        let retry_events: Vec<_> = summary
            .events
            .iter()
            .filter(|e| matches!(e, SupervisorEvent::RetryStarted { .. }))
            .collect();
        assert_eq!(retry_events.len(), 2);
    }

    #[test]
    fn disk_checkpoints_rotate() {
        let dir = std::env::temp_dir().join("gw_sup_ckpts");
        let dir = dir.to_str().unwrap().to_string();
        let _ = std::fs::remove_dir_all(&dir);
        let mut solver = demo_solver(SolverConfig::default());
        let cfg = SupervisorConfig {
            checkpoint_every: 1,
            checkpoint_dir: Some(dir.clone()),
            keep_checkpoints: 2,
            ..Default::default()
        };
        let mut sup = Supervisor::new(cfg);
        let summary = sup.supervise(&mut solver, 5).unwrap();
        let written = summary
            .events
            .iter()
            .filter(|e| matches!(e, SupervisorEvent::CheckpointWritten { .. }))
            .count();
        assert_eq!(written, 5);
        let mut on_disk: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        on_disk.sort();
        assert_eq!(on_disk, vec!["ckpt_00000004.gwcp", "ckpt_00000005.gwcp"]);
        // The newest checkpoint restores and continues.
        let cp = checkpoint::load_from_file(&format!("{dir}/ckpt_00000005.gwcp")).unwrap();
        assert_eq!(cp.steps_taken, 5);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
