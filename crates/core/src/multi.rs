//! Distributed (multi-rank / multi-GPU) evolution.
//!
//! Octants are partitioned across ranks along the space-filling curve.
//! Each rank evolves its contiguous range with the single-rank pipeline —
//! a [`CpuBackend`] over its owned octants, stepped by [`Rk4::try_step`]
//! — and exchanges ghost octant blocks with its neighbors around every
//! RHS evaluation and the closing interface sync (the `halo_exchange` of
//! Algorithm 1). Each exchange hides behind compute: the sends are posted
//! first, the work that reads only owned blocks (the interior octants'
//! RHS, the owned-source syncs) runs while the ghosts are in flight, and
//! the rest follows once the receives complete. Every patch point and
//! output block keeps exactly one writer, so the result is bit-identical
//! to the single-rank run at any rank and thread count (DESIGN.md §11);
//! the *metered traffic* feeds the scaling models (Figs. 17/18/20).

use crate::backend::{Backend, Buf, CpuBackend, Sources};
use crate::checkpoint::{self, CheckpointError, DistManifest, Shard};
use crate::rk4::Rk4;
use crate::solver::SolverConfig;
use gw_bssn::BssnParams;
use gw_comm::world::WorldConfig;
use gw_comm::{CommError, GhostPlan, GhostSchedule, RankCtx, RecvHandle, World};
use gw_expr::symbols::NUM_VARS;
use gw_mesh::{Field, Mesh};
use gw_obs::{Counter, Phase, Probe};
use gw_octree::partition::partition_uniform;
use gw_stencil::patch::BLOCK_VOLUME;
use std::time::Instant;

/// Result of a distributed run.
#[derive(Debug)]
pub struct DistributedResult {
    pub state: Field,
    /// Per-rank (messages, bytes) sent.
    pub traffic: Vec<(u64, u64)>,
    /// Per-rank owned-octant × step work counts.
    pub work: Vec<u64>,
    /// The ghost plan used (for the scaling models).
    pub plan: GhostPlan,
}

/// All cross-octant data dependencies of one RHS + sync step.
pub fn dependencies(mesh: &Mesh) -> Vec<(u32, u32)> {
    let mut deps: Vec<(u32, u32)> = mesh.scatter.iter().map(|op| (op.src, op.dst)).collect();
    deps.extend(mesh.syncs.iter().map(|c| (c.src_oct, c.dst_oct)));
    deps.sort_unstable();
    deps.dedup();
    deps
}

/// Message tag for RK stage `stage` (0..=3) or the interface sync
/// (`STAGE_SYNC`) of global step `step`. Qualifying tags with the stage
/// *and* step keeps a retransmitted straggler from one stage from ever
/// matching the next stage's receive, and stays well below the
/// collective tag space (`1 << 63`).
fn stage_tag(step: usize, stage: u64) -> u64 {
    debug_assert!(stage <= STAGE_SYNC);
    ((step as u64) << 3) | stage
}

/// The post-update interface-sync exchange slot of [`stage_tag`].
const STAGE_SYNC: u64 = 4;

/// Post the sends and nonblocking receives of one halo exchange (all 24
/// vars of each planned octant) and return the in-flight receive handles
/// (one per neighbor, in rank order).
fn post_exchange<'c>(
    ctx: &'c RankCtx<'c>,
    plan: &GhostPlan,
    field: &Field,
    tag: u64,
) -> Vec<RecvHandle<'c, 'c>> {
    let r = ctx.rank();
    for q in 0..ctx.size() {
        let list = &plan.sends[r][q];
        if list.is_empty() {
            continue;
        }
        let mut payload = Vec::with_capacity(list.len() * NUM_VARS * BLOCK_VOLUME);
        for &oct in list {
            for v in 0..NUM_VARS {
                payload.extend_from_slice(field.block(v, oct as usize));
            }
        }
        ctx.isend(q, tag, &payload);
    }
    (0..ctx.size()).filter(|&q| !plan.recvs[r][q].is_empty()).map(|q| ctx.irecv(q, tag)).collect()
}

/// Complete the receives posted by [`post_exchange`], copying ghost
/// blocks into `field`. Receives are checked: a dropped, truncated, or
/// corrupted message surfaces as a [`CommError`] — the field is never
/// partially updated from a bad payload.
fn finish_exchange(
    ctx: &RankCtx<'_>,
    plan: &GhostPlan,
    field: &mut Field,
    tag: u64,
    handles: Vec<RecvHandle<'_, '_>>,
) -> Result<(), CommError> {
    let r = ctx.rank();
    for mut h in handles {
        let q = h.src();
        let list = &plan.recvs[r][q];
        let payload = h.wait()?;
        // The CRC header guarantees integrity; this checks the *schedule*
        // agreed with the sender.
        if payload.len() != list.len() * NUM_VARS * BLOCK_VOLUME {
            return Err(CommError::Truncated {
                src: q,
                dst: r,
                tag,
                declared: list.len() * NUM_VARS * BLOCK_VOLUME * 8,
                got: payload.len() * 8,
            });
        }
        let mut off = 0;
        for &oct in list {
            for v in 0..NUM_VARS {
                field.block_mut(v, oct as usize).copy_from_slice(&payload[off..off + BLOCK_VOLUME]);
                off += BLOCK_VOLUME;
            }
        }
    }
    Ok(())
}

/// One rank's side of the halo exchanges of a span.
struct HaloExchange<'a, 'w> {
    ctx: &'a RankCtx<'w>,
    plan: &'a GhostPlan,
    mesh: &'a Mesh,
    probe: &'a Probe,
}

impl HaloExchange<'_, '_> {
    /// Refresh the ghosts of `buf` under `tag`, running `meanwhile` while
    /// the messages are in flight.
    fn exchange(
        &self,
        backend: &mut CpuBackend,
        buf: Buf,
        tag: u64,
        meanwhile: impl FnOnce(&mut CpuBackend),
    ) -> Result<(), CommError> {
        let handles = {
            let _s = self.probe.start(Phase::Halo);
            post_exchange(self.ctx, self.plan, backend.field(buf), tag)
        };
        let t0 = Instant::now();
        {
            let _s = self.probe.start(Phase::HaloOverlap);
            meanwhile(backend);
        }
        self.probe.add(Counter::HaloOverlapUs, t0.elapsed().as_micros() as u64);
        let t1 = Instant::now();
        {
            let _s = self.probe.start(Phase::Halo);
            finish_exchange(self.ctx, self.plan, backend.field_mut(buf), tag, handles)?;
        }
        self.probe.add(Counter::HaloWaitUs, t1.elapsed().as_micros() as u64);
        Ok(())
    }

    /// One RK stage's `output = F(input)` over the owned octants: the
    /// interior octants while the ghosts of `input` travel, the boundary
    /// octants after they land.
    fn rhs(&self, b: &mut CpuBackend, input: Buf, output: Buf, tag: u64) -> Result<(), CommError> {
        self.exchange(b, input, tag, |b| {
            b.eval_rhs_part(self.mesh, input, output, Sources::Owned)
        })?;
        b.eval_rhs_part(self.mesh, input, output, Sources::Ghost);
        Ok(())
    }

    /// The post-update ghost refresh + interface sync closing each step.
    fn sync(&self, b: &mut CpuBackend, tag: u64) -> Result<(), CommError> {
        self.exchange(b, Buf::U, tag, |b| b.sync_interfaces_part(Sources::Owned))?;
        b.sync_interfaces_part(Sources::Ghost);
        Ok(())
    }
}

/// Evolve `steps` RK4 steps on `ranks` simulated ranks, each with the
/// default worker count (`threads = 0`: `GW_THREADS`, else the host's
/// parallelism). Panics on a communication fault — with the default
/// fault-free [`WorldConfig`] the in-process channels cannot fault, so
/// this is the convenient entry point; checkpointed, resilient runs go
/// through [`crate::run::Run::distributed`].
pub fn evolve_distributed(
    mesh: &Mesh,
    u0: &Field,
    ranks: usize,
    steps: usize,
    courant: f64,
    params: BssnParams,
) -> DistributedResult {
    evolve_distributed_cfg(mesh, u0, ranks, steps, courant, params, WorldConfig::default())
        .unwrap_or_else(|e| panic!("fault-free distributed run failed: {e}"))
}

/// [`evolve_distributed`] with an explicit world configuration (fault
/// plan, receive timeout). Bounded message faults are recovered
/// transparently by the reliable delivery layer; any rank detecting an
/// *unrecoverable* fault aborts its evolution and the most telling error
/// is returned (a dead rank is named in preference to the secondary
/// timeouts it causes) — a faulted exchange never silently yields a
/// wrong state.
pub fn evolve_distributed_cfg(
    mesh: &Mesh,
    u0: &Field,
    ranks: usize,
    steps: usize,
    courant: f64,
    params: BssnParams,
    world_cfg: WorldConfig,
) -> Result<DistributedResult, CommError> {
    let config = SolverConfig { courant, params, ..SolverConfig::default() };
    let opts = SpanOpts { start_step: 0, steps, snapshot: None, kill: None };
    evolve_span(mesh, u0, ranks, &config, world_cfg, opts).map_err(|f| match f {
        SpanFailure::Comm(e) => e,
        SpanFailure::Ckpt(e) => unreachable!("no checkpointing configured: {e}"),
    })
}

/// Why one span of distributed evolution stopped.
#[derive(Clone, Debug)]
enum SpanFailure {
    Comm(CommError),
    Ckpt(CheckpointError),
}

impl From<CommError> for SpanFailure {
    fn from(e: CommError) -> Self {
        SpanFailure::Comm(e)
    }
}

impl From<CheckpointError> for SpanFailure {
    fn from(e: CheckpointError) -> Self {
        SpanFailure::Ckpt(e)
    }
}

/// One contiguous stretch of distributed evolution: global steps
/// `start_step..steps` from the state `u0` (authoritative at
/// `start_step`), optionally taking coordinated snapshots and optionally
/// fail-stopping one rank (fault injection).
struct SpanOpts {
    start_step: usize,
    steps: usize,
    /// `(snapshot root, cadence in steps)`.
    snapshot: Option<(String, u64)>,
    kill: Option<KillSpec>,
}

/// Run one span on `ranks` ranks, each a [`CpuBackend`] over its owned
/// range with `config.threads` workers, stepped at `config.courant` with
/// `config.params`.
fn evolve_span(
    mesh: &Mesh,
    u0: &Field,
    ranks: usize,
    config: &SolverConfig,
    world_cfg: WorldConfig,
    opts: SpanOpts,
) -> Result<DistributedResult, SpanFailure> {
    let n = mesh.n_octants();
    let part = partition_uniform(n, ranks);
    let plan = GhostSchedule::build(&part, dependencies(mesh).into_iter());
    let rk = Rk4 { courant: config.courant };
    let dt = rk.timestep(mesh);
    // One probe handle per rank thread: spans carry per-thread ids, and
    // counters are shared atomics, so concurrent ranks attribute cleanly.
    let probe = world_cfg.probe.clone();
    let (part, plan_ref, opts) = (&part, &plan, &opts);
    let (mut results, traffic) = World::run_cfg(ranks, world_cfg, move |ctx| {
        let r = ctx.rank();
        let owned = part.range(r);
        let mut backend = CpuBackend::for_rank(mesh, config.params, config.threads, owned.clone());
        backend.set_probe(probe.clone());
        backend.upload(u0);
        let halo = HaloExchange { ctx: &ctx, plan: plan_ref, mesh, probe: &probe };
        let mut work = 0u64;
        for s in opts.start_step..opts.steps {
            // Injected fail-stop: the rank dies here, visibly to the
            // liveness view, exactly as if its process were killed.
            if let Some(k) = opts.kill {
                if r == k.rank && s == k.at_step {
                    ctx.declare_dead();
                    return Err(SpanFailure::Comm(CommError::RankDead { rank: r, dst: r }));
                }
            }
            {
                let _s = probe.start(Phase::Step);
                rk.try_step(
                    &mut backend,
                    dt,
                    |b, stage, input, output| halo.rhs(b, input, output, stage_tag(s, stage)),
                    |b| halo.sync(b, stage_tag(s, STAGE_SYNC)),
                )?;
            }
            if r == 0 {
                probe.add(Counter::Steps, 1);
            }
            work += owned.len() as u64;
            // Coordinated snapshot: two-phase commit. Every rank writes
            // its shard atomically, the allgather proves all shards are
            // durable, then rank 0 renames the manifest into place (the
            // commit point) and the barrier keeps every rank behind it.
            if let Some((root, every)) = &opts.snapshot {
                let s1 = (s + 1) as u64;
                if s1.is_multiple_of(*every) {
                    let _s = probe.start(Phase::Checkpoint);
                    probe.add(Counter::Checkpoints, 1);
                    let sub = checkpoint::snapshot_dir(root, s1);
                    let shard = Shard {
                        rank: r,
                        start_octant: owned.start,
                        n_octants: owned.len(),
                        time: s1 as f64 * dt,
                        steps_taken: s1,
                        values: checkpoint::shard_values(
                            backend.field(Buf::U),
                            owned.start,
                            owned.end,
                        ),
                    };
                    let (crc, len) = checkpoint::write_shard(&sub, &shard)?;
                    let metas = ctx.try_allgatherv(&[crc as f64, len as f64])?;
                    if r == 0 {
                        let manifest = DistManifest {
                            domain: mesh.domain,
                            leaves: mesh.octants.iter().map(|o| o.key).collect(),
                            offsets: (0..=ctx.size())
                                .map(|q| if q == ctx.size() { n } else { part.range(q).start })
                                .collect(),
                            time: s1 as f64 * dt,
                            steps_taken: s1,
                            shard_crcs: metas.iter().map(|m| m[0] as u32).collect(),
                            shard_lens: metas.iter().map(|m| m[1] as u64).collect(),
                        };
                        checkpoint::commit_manifest(&sub, &manifest)?;
                    }
                    ctx.try_barrier()?;
                }
            }
        }
        // Return owned blocks.
        let u = backend.field(Buf::U);
        let mut owned_data = Vec::with_capacity(owned.len() * NUM_VARS * BLOCK_VOLUME);
        for e in owned.clone() {
            for v in 0..NUM_VARS {
                owned_data.extend_from_slice(u.block(v, e));
            }
        }
        Ok((owned_data, work))
    });

    // If any rank failed, surface the most telling error instead of a
    // state missing that rank's contribution: a checkpoint-commit
    // failure beats a dead rank beats the secondary timeouts a death
    // cascades into on its peers.
    let severity = |f: &SpanFailure| match f {
        SpanFailure::Ckpt(_) => 0u8,
        SpanFailure::Comm(CommError::RankDead { .. }) => 1,
        SpanFailure::Comm(_) => 2,
    };
    if let Some(err) = results.iter().filter_map(|r| r.as_ref().err()).min_by_key(|f| severity(f)) {
        return Err(err.clone());
    }
    // Reassemble the global state from per-rank owned blocks.
    let mut state = Field::zeros(NUM_VARS, n);
    let mut work = Vec::with_capacity(ranks);
    for (r, res) in results.drain(..).enumerate() {
        let (data, w) = res.expect("error case handled above");
        work.push(w);
        let mut off = 0;
        for e in part.range(r) {
            for v in 0..NUM_VARS {
                state.block_mut(v, e).copy_from_slice(&data[off..off + BLOCK_VOLUME]);
                off += BLOCK_VOLUME;
            }
        }
    }
    Ok(DistributedResult { state, traffic, work, plan })
}

/// Fail-stop fault injection: `rank` dies at the top of global step
/// `at_step` on the first attempt of a resilient run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KillSpec {
    pub rank: usize,
    pub at_step: usize,
}

/// How a resilient distributed run checkpoints and recovers.
#[derive(Clone, Debug)]
pub struct ResilienceConfig {
    /// Snapshot root directory; `None` disables coordinated
    /// checkpointing (a failure then rolls back to the initial state).
    pub checkpoint_dir: Option<String>,
    /// Steps between coordinated snapshots (≥ 1).
    pub checkpoint_every: u64,
    /// Degradation applied on each rollback + replay, and the retry
    /// budget (`max_retries`). `courant_factor: 1.0, ko_boost: 0.0`
    /// replays bit-identically.
    pub degradation: crate::supervisor::DegradationPolicy,
    /// Injected fail-stop for chaos tests (first attempt only).
    pub kill_once: Option<KillSpec>,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        Self {
            checkpoint_dir: None,
            checkpoint_every: 1,
            degradation: crate::supervisor::DegradationPolicy::default(),
            kill_once: None,
        }
    }
}

/// One entry of the resilient driver's decision log.
#[derive(Clone, Debug)]
pub enum RecoveryEvent {
    /// All survivors were rolled back to the last committed manifest
    /// (`to_step` 0 = initial state) after `cause`.
    RolledBack { to_step: u64, cause: CommError },
}

/// A completed resilient run: the result plus how it got there.
#[derive(Debug)]
pub struct ResilientOutcome {
    pub result: DistributedResult,
    /// World restarts performed (0 = clean first attempt).
    pub retries: u32,
    pub events: Vec<RecoveryEvent>,
}

/// Terminal failure of a resilient distributed run.
#[derive(Clone, Debug)]
pub enum DistributedError {
    /// Every allowed rollback + replay also failed; `last` is the final
    /// communication error (it names the dead rank if one died).
    RetriesExhausted { attempts: u32, last: CommError },
    /// The coordinated snapshot layer itself failed (cannot commit or
    /// cannot reload) — retrying would lose data, so this is immediate.
    Checkpoint(CheckpointError),
}

impl DistributedError {
    /// The dead rank this failure names, if one died.
    pub fn dead_rank(&self) -> Option<usize> {
        match self {
            DistributedError::RetriesExhausted { last, .. } => last.dead_rank(),
            DistributedError::Checkpoint(_) => None,
        }
    }
}

impl std::fmt::Display for DistributedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DistributedError::RetriesExhausted { attempts, last } => {
                write!(f, "distributed run failed after {attempts} rollbacks: {last}")
            }
            DistributedError::Checkpoint(e) => write!(f, "distributed checkpoint failed: {e}"),
        }
    }
}

impl std::error::Error for DistributedError {}

/// Resilient distributed evolution: run `steps` RK4 steps with
/// coordinated snapshots; on an unrecoverable exchange or a dead peer,
/// roll every survivor back to the last committed manifest, replay under
/// the [`crate::supervisor::DegradationPolicy`], and escalate to a typed
/// abort once `max_retries` world restarts are spent. The returned
/// traffic/work meters describe the final (successful) attempt. Ranks
/// take `config.courant`, `config.params` and `config.threads`, and
/// always evaluate the pointwise `A` (see [`CpuBackend::for_rank`]). The
/// [`crate::run::Run`] builder's `.distributed(..)` drives this.
pub(crate) fn evolve_resilient(
    mesh: &Mesh,
    u0: &Field,
    ranks: usize,
    steps: usize,
    config: &SolverConfig,
    world_cfg: WorldConfig,
    resilience: &ResilienceConfig,
) -> Result<ResilientOutcome, DistributedError> {
    let mut config = *config;
    let mut retries = 0u32;
    let mut kill = resilience.kill_once;
    let mut start_step = 0usize;
    let mut state = u0.clone();
    let mut events = Vec::new();
    loop {
        let opts = SpanOpts {
            start_step,
            steps,
            snapshot: resilience
                .checkpoint_dir
                .clone()
                .map(|d| (d, resilience.checkpoint_every.max(1))),
            kill,
        };
        let failure = match evolve_span(mesh, &state, ranks, &config, world_cfg.clone(), opts) {
            Ok(result) => return Ok(ResilientOutcome { result, retries, events }),
            Err(f) => f,
        };
        let cause = match failure {
            SpanFailure::Comm(e) => e,
            SpanFailure::Ckpt(e) => return Err(DistributedError::Checkpoint(e)),
        };
        kill = None; // an injected fail-stop fires once
        retries += 1;
        if retries > resilience.degradation.max_retries {
            return Err(DistributedError::RetriesExhausted { attempts: retries - 1, last: cause });
        }
        // Roll back: reload the last committed manifest (or the initial
        // state when nothing was committed) and replay from there.
        let committed = match &resilience.checkpoint_dir {
            Some(root) => {
                checkpoint::latest_snapshot(root).map_err(DistributedError::Checkpoint)?
            }
            None => None,
        };
        match committed {
            Some(dir) => {
                let cp =
                    checkpoint::load_distributed(&dir).map_err(DistributedError::Checkpoint)?;
                start_step = cp.manifest.steps_taken as usize;
                state = cp.state;
            }
            None => {
                start_step = 0;
                state = u0.clone();
            }
        }
        events.push(RecoveryEvent::RolledBack { to_step: start_step as u64, cause });
        config.courant *= resilience.degradation.courant_factor;
        config.params.ko_sigma += resilience.degradation.ko_boost;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{Owned, RhsKind};
    use crate::solver::fill_field;
    use gw_bssn::init::LinearWaveData;
    use gw_octree::{balance_octree, complete_octree, BalanceMode, Domain, MortonKey};

    fn adaptive_mesh() -> Mesh {
        let c0 = MortonKey::root().children()[0];
        let fine: Vec<MortonKey> = c0.children()[7].children().to_vec();
        let t = complete_octree(fine);
        let t = balance_octree(&t, BalanceMode::Full);
        Mesh::build(Domain::centered_cube(8.0), &t)
    }

    #[test]
    fn distributed_matches_single_rank_bitwise() {
        let mesh = adaptive_mesh();
        let wave = LinearWaveData::new(1e-3, 0.0, 2.0, 1.0);
        let u0 = fill_field(&mesh, &|p, out: &mut [f64]| wave.evaluate(p, out));
        let params = BssnParams::default();
        // Reference: single-rank backend.
        let mut backend = CpuBackend::new(&mesh, params, RhsKind::Pointwise);
        backend.upload(&u0);
        let rk = Rk4::default();
        let dt = rk.timestep(&mesh);
        let steps = 2;
        for _ in 0..steps {
            rk.step(&mut backend, &mesh, dt);
        }
        let reference = backend.download();
        for ranks in [1usize, 2, 3] {
            let result = evolve_distributed(&mesh, &u0, ranks, steps, 0.25, params);
            for (a, b) in reference.as_slice().iter().zip(result.state.as_slice().iter()) {
                assert_eq!(a, b, "rank count {ranks} must not change results");
            }
            if ranks > 1 {
                let total_msgs: u64 = result.traffic.iter().map(|t| t.0).sum();
                assert!(total_msgs > 0, "multi-rank must exchange ghosts");
            }
        }
    }

    #[test]
    fn overlapped_exchange_is_bit_identical_and_counts_messages_identically() {
        // The rank pool size must change neither the bits nor the
        // message schedule.
        let mesh = adaptive_mesh();
        let wave = LinearWaveData::new(1e-3, 0.0, 2.0, 1.0);
        let u0 = fill_field(&mesh, &|p, out: &mut [f64]| wave.evaluate(p, out));
        let params = BssnParams::default();
        let steps = 2;
        for ranks in [1usize, 2, 3] {
            let reference = evolve_distributed(&mesh, &u0, ranks, steps, 0.25, params);
            for threads in [1usize, 4] {
                let config = SolverConfig { threads, params, ..SolverConfig::default() };
                let overlapped = evolve_resilient(
                    &mesh,
                    &u0,
                    ranks,
                    steps,
                    &config,
                    WorldConfig::default(),
                    &ResilienceConfig::default(),
                )
                .unwrap()
                .result;
                assert_eq!(
                    reference.state.as_slice(),
                    overlapped.state.as_slice(),
                    "threads must not change results (ranks {ranks}, threads {threads})"
                );
                assert_eq!(
                    reference.traffic, overlapped.traffic,
                    "threads must not change the message schedule"
                );
            }
        }
    }

    #[test]
    fn interior_boundary_classification_covers_owned_range() {
        let mesh = adaptive_mesh();
        let part = partition_uniform(mesh.n_octants(), 3);
        for r in 0..3 {
            let owned = part.range(r);
            let split = Owned::new(&mesh, owned.clone());
            let mut all: Vec<usize> =
                split.interior.iter().chain(split.boundary.iter()).copied().collect();
            all.sort_unstable();
            assert_eq!(all, owned.clone().collect::<Vec<_>>(), "rank {r} split is a partition");
            for &e in &split.interior {
                assert!(
                    mesh.gather_of(e).iter().all(|op| owned.contains(&(op.src as usize))),
                    "interior octant {e} must not read ghosts"
                );
            }
            for &e in &split.boundary {
                assert!(
                    mesh.gather_of(e).iter().any(|op| !owned.contains(&(op.src as usize))),
                    "boundary octant {e} must read a ghost"
                );
            }
            let key = |c: &gw_mesh::grid::SyncCopy| (c.dst_oct, c.dst_idx, c.src_oct, c.src_idx);
            let mut syncs: Vec<_> =
                split.syncs_owned.iter().chain(split.syncs_ghost.iter()).map(key).collect();
            syncs.sort_unstable();
            let mut expected: Vec<_> = mesh
                .syncs
                .iter()
                .filter(|c| owned.contains(&(c.dst_oct as usize)))
                .map(key)
                .collect();
            expected.sort_unstable();
            assert_eq!(syncs, expected, "rank {r} sync split covers exactly the owned-dst syncs");
        }
    }

    #[test]
    fn traffic_scales_with_cut_surface() {
        let mesh = adaptive_mesh();
        let wave = LinearWaveData::new(1e-3, 0.0, 2.0, 1.0);
        let u0 = fill_field(&mesh, &|p, out: &mut [f64]| wave.evaluate(p, out));
        let params = BssnParams::default();
        let t2 = evolve_distributed(&mesh, &u0, 2, 1, 0.25, params);
        let t4 = evolve_distributed(&mesh, &u0, 4, 1, 0.25, params);
        let bytes2: u64 = t2.traffic.iter().map(|t| t.1).sum();
        let bytes4: u64 = t4.traffic.iter().map(|t| t.1).sum();
        assert!(bytes4 > bytes2, "more ranks ⇒ more cut surface ({bytes2} vs {bytes4})");
    }

    #[test]
    fn resilient_fault_free_run_is_the_plain_run() {
        let mesh = adaptive_mesh();
        let wave = LinearWaveData::new(1e-3, 0.0, 2.0, 1.0);
        let u0 = fill_field(&mesh, &|p, out: &mut [f64]| wave.evaluate(p, out));
        let params = BssnParams::default();
        let reference = evolve_distributed(&mesh, &u0, 2, 2, 0.25, params);
        let out = evolve_resilient(
            &mesh,
            &u0,
            2,
            2,
            &SolverConfig { params, ..SolverConfig::default() },
            WorldConfig::default(),
            &ResilienceConfig::default(),
        )
        .unwrap();
        assert_eq!(out.retries, 0);
        assert!(out.events.is_empty());
        assert_eq!(out.result.state.as_slice(), reference.state.as_slice());
    }

    #[test]
    fn killed_rank_rolls_back_to_manifest_and_replays_bit_exact() {
        let mesh = adaptive_mesh();
        let wave = LinearWaveData::new(1e-3, 0.0, 2.0, 1.0);
        let u0 = fill_field(&mesh, &|p, out: &mut [f64]| wave.evaluate(p, out));
        let params = BssnParams::default();
        let reference = evolve_distributed(&mesh, &u0, 3, 3, 0.25, params);
        let dir = std::env::temp_dir().join("gw_amr_multi_resilient_test");
        let dir = dir.to_str().unwrap().to_string();
        let _ = std::fs::remove_dir_all(&dir);
        let resilience = ResilienceConfig {
            checkpoint_dir: Some(dir.clone()),
            checkpoint_every: 1,
            // Identity degradation: the replay is bit-reproducible.
            degradation: crate::supervisor::DegradationPolicy {
                courant_factor: 1.0,
                ko_boost: 0.0,
                max_retries: 2,
            },
            kill_once: Some(KillSpec { rank: 1, at_step: 2 }),
        };
        let cfg = WorldConfig {
            heartbeat_interval: std::time::Duration::from_millis(5),
            ..WorldConfig::default()
        };
        let config = SolverConfig { params, ..SolverConfig::default() };
        let out = evolve_resilient(&mesh, &u0, 3, 3, &config, cfg, &resilience).unwrap();
        assert_eq!(out.retries, 1, "one rollback must suffice");
        match &out.events[..] {
            [RecoveryEvent::RolledBack { to_step: 2, cause }] => {
                assert_eq!(cause.dead_rank(), Some(1), "the dead rank is named");
            }
            other => panic!("expected one rollback to step 2, got {other:?}"),
        }
        for (a, b) in reference.state.as_slice().iter().zip(out.result.state.as_slice().iter()) {
            assert_eq!(a, b, "resume from the manifest must be bit-exact");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn work_counts_match_partition() {
        let mesh = adaptive_mesh();
        let wave = LinearWaveData::new(1e-3, 0.0, 2.0, 1.0);
        let u0 = fill_field(&mesh, &|p, out: &mut [f64]| wave.evaluate(p, out));
        let r = evolve_distributed(&mesh, &u0, 3, 2, 0.25, BssnParams::default());
        let total: u64 = r.work.iter().sum();
        assert_eq!(total, 2 * mesh.n_octants() as u64);
    }
}
