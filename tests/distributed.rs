//! Distributed-evolution integration: multi-rank runs against the
//! single-rank reference, ghost-plan properties, scaling-model inputs.

use gw_bssn::init::LinearWaveData;
use gw_bssn::BssnParams;
use gw_comm::world::WorldConfig;
use gw_comm::{CommFaultPlan, GhostSchedule};
use gw_core::backend::{Backend, CpuBackend, RhsKind};
use gw_core::checkpoint::{latest_snapshot, load_distributed};
use gw_core::multi::{
    dependencies, evolve_distributed, evolve_distributed_cfg, DistributedError, KillSpec,
    RecoveryEvent, ResilienceConfig, ResilientOutcome,
};
use gw_core::rk4::Rk4;
use gw_core::run::{Run, RunError};
use gw_core::solver::{fill_field, SolverConfig};
use gw_core::supervisor::DegradationPolicy;
use gw_integration_tests::{adaptive_mesh, uniform_mesh};
use gw_octree::partition::partition_uniform;
use gw_octree::Domain;
use gw_perfmodel::scaling::{project_step, strong_efficiency, Network};
use std::time::Duration;

/// A resilient distributed run of the linear wave through the `Run`
/// builder, on `ranks` ranks with `threads` workers each.
fn resilient_wave_run(
    mesh: gw_mesh::Mesh,
    ranks: usize,
    steps: usize,
    threads: usize,
    world: WorldConfig,
    resilience: ResilienceConfig,
) -> Result<ResilientOutcome, DistributedError> {
    let wave = LinearWaveData::new(1e-3, 0.0, 2.0, 1.0);
    let out = Run::new(SolverConfig { threads, ..SolverConfig::default() })
        .mesh(mesh)
        .init(move |p, out| wave.evaluate(p, out))
        .steps(steps)
        .distributed(ranks)
        .world(world)
        .resilience(resilience)
        .execute();
    match out {
        Ok(out) => Ok(out.distributed.expect("distributed runs report their outcome")),
        Err(RunError::Distributed(e)) => Err(e),
        Err(other) => panic!("unexpected run error: {other}"),
    }
}

/// Fault-plan seeds for the chaos tests. CI sweeps more seeds by setting
/// `GW_CHAOS_SEED`; locally the default trio runs.
fn chaos_seeds() -> Vec<u64> {
    match std::env::var("GW_CHAOS_SEED").ok().and_then(|s| s.parse().ok()) {
        Some(seed) => vec![seed],
        None => vec![11, 12, 13],
    }
}

#[test]
fn four_ranks_match_reference_on_uniform_grid() {
    let domain = Domain::centered_cube(8.0);
    let mesh = uniform_mesh(domain, 2);
    let wave = LinearWaveData::new(1e-3, 0.0, 2.0, 1.0);
    let u0 = fill_field(&mesh, &|p, out: &mut [f64]| wave.evaluate(p, out));
    let params = BssnParams::default();
    let mut backend = CpuBackend::new(&mesh, params, RhsKind::Pointwise);
    backend.upload(&u0);
    let rk = Rk4::default();
    let dt = rk.timestep(&mesh);
    rk.step(&mut backend, &mesh, dt);
    let reference = backend.download();

    let result = evolve_distributed(&mesh, &u0, 4, 1, 0.25, params);
    for (a, b) in reference.as_slice().iter().zip(result.state.as_slice().iter()) {
        assert_eq!(a, b);
    }
}

#[test]
fn ghost_plan_covers_every_cross_dependency() {
    let domain = Domain::centered_cube(8.0);
    let mesh = adaptive_mesh(domain);
    let deps = dependencies(&mesh);
    for p in [2usize, 3, 5] {
        let part = partition_uniform(mesh.n_octants(), p);
        let plan = GhostSchedule::build(&part, deps.iter().copied());
        for &(src, dst) in &deps {
            let rs = part.owner_of_index(src as usize);
            let rd = part.owner_of_index(dst as usize);
            if rs == rd {
                continue;
            }
            assert!(
                plan.sends[rs][rd].contains(&src),
                "dep {src}->{dst} not covered by plan ({rs}->{rd})"
            );
        }
    }
}

#[test]
fn measured_traffic_matches_plan_prediction() {
    let domain = Domain::centered_cube(8.0);
    let mesh = adaptive_mesh(domain);
    let wave = LinearWaveData::new(1e-3, 0.0, 2.0, 1.0);
    let u0 = fill_field(&mesh, &|p, out: &mut [f64]| wave.evaluate(p, out));
    let ranks = 3;
    let steps = 2;
    let result = evolve_distributed(&mesh, &u0, ranks, steps, 0.25, BssnParams::default());
    // 5 exchanges per step, each shipping plan.send_bytes per rank.
    for r in 0..ranks {
        let expect = 5 * steps as u64 * result.plan.send_bytes(r, 24, 343);
        let got = result.traffic[r].1;
        assert_eq!(got, expect, "rank {r}: plan {expect} vs measured {got}");
    }
}

#[test]
fn seeded_message_faults_recovered_bit_identical() {
    // Dropped, truncated, and corrupted halo messages at a bounded rate
    // are *recovered* by the reliable delivery layer: the run completes
    // and is bit-identical to the fault-free run via retransmission —
    // under no circumstances a silently wrong state.
    let domain = Domain::centered_cube(8.0);
    let mesh = uniform_mesh(domain, 2);
    let wave = LinearWaveData::new(1e-3, 0.0, 2.0, 1.0);
    let u0 = fill_field(&mesh, &|p, out: &mut [f64]| wave.evaluate(p, out));
    let params = BssnParams::default();
    let reference = evolve_distributed(&mesh, &u0, 3, 2, 0.25, params);
    for seed in chaos_seeds() {
        for (drop, trunc, corrupt) in [(0.05, 0.0, 0.0), (0.0, 0.05, 0.0), (0.02, 0.02, 0.02)] {
            let cfg = WorldConfig {
                faults: Some(
                    CommFaultPlan::new(seed)
                        .with_drop_rate(drop)
                        .with_truncate_rate(trunc)
                        .with_corrupt_rate(corrupt),
                ),
                recv_timeout: Duration::from_secs(5),
                heartbeat_interval: Duration::from_millis(5),
                ..WorldConfig::default()
            };
            let result = evolve_distributed_cfg(&mesh, &u0, 3, 2, 0.25, params, cfg)
                .unwrap_or_else(|e| {
                    panic!("seed {seed} ({drop}/{trunc}/{corrupt}): not recovered: {e}")
                });
            for (a, b) in reference.state.as_slice().iter().zip(result.state.as_slice().iter()) {
                assert_eq!(a, b, "seed {seed}: recovery must be bit-identical");
            }
        }
    }
}

#[test]
fn unrecoverable_faults_surface_typed_errors_never_hang() {
    // Rates beyond the retransmit budget must end in a typed error well
    // before the receive deadline cascade — never a hang or a silently
    // wrong state.
    let domain = Domain::centered_cube(8.0);
    let mesh = uniform_mesh(domain, 2);
    let wave = LinearWaveData::new(1e-3, 0.0, 2.0, 1.0);
    let u0 = fill_field(&mesh, &|p, out: &mut [f64]| wave.evaluate(p, out));
    let cfg = WorldConfig {
        faults: Some(CommFaultPlan::new(chaos_seeds()[0]).with_drop_rate(1.0)),
        recv_timeout: Duration::from_secs(2),
        max_retransmits: 2,
        retry_backoff: Duration::from_millis(1),
        heartbeat_interval: Duration::from_millis(5),
        ..WorldConfig::default()
    };
    let err = evolve_distributed_cfg(&mesh, &u0, 3, 1, 0.25, BssnParams::default(), cfg)
        .expect_err("total loss cannot be recovered");
    let rendered = err.to_string();
    assert!(!rendered.is_empty());
}

#[test]
fn killed_rank_is_named_and_run_aborts_without_checkpoints() {
    // One rank fail-stops mid-evolution; survivors detect it via the
    // liveness view within the heartbeat cadence. With no retry budget
    // the run aborts with a typed error naming the dead rank — never a
    // hang (the whole test completes orders of magnitude below the 10 s
    // receive deadline it would burn per exchange if it were hanging).
    let domain = Domain::centered_cube(8.0);
    let mesh = uniform_mesh(domain, 2);
    let resilience = ResilienceConfig {
        checkpoint_dir: None,
        checkpoint_every: 1,
        degradation: DegradationPolicy { courant_factor: 1.0, ko_boost: 0.0, max_retries: 0 },
        kill_once: Some(KillSpec { rank: 2, at_step: 1 }),
    };
    let cfg =
        WorldConfig { heartbeat_interval: Duration::from_millis(5), ..WorldConfig::default() };
    let started = std::time::Instant::now();
    let err = resilient_wave_run(mesh, 3, 2, 0, cfg, resilience)
        .expect_err("no retries allowed: the death must abort the run");
    assert!(started.elapsed() < Duration::from_secs(8), "detection must not hang");
    match &err {
        DistributedError::RetriesExhausted { last, .. } => {
            assert_eq!(last.dead_rank(), Some(2), "the dead rank is named: {last}");
        }
        other => panic!("expected RetriesExhausted naming rank 2, got {other:?}"),
    }
    assert!(err.to_string().contains("rank 2"), "rendered error names the rank: {err}");
}

#[test]
fn chaos_kill_plus_message_faults_recovers_via_manifest() {
    // The full gauntlet: seeded message faults the whole way through AND
    // a fail-stopped rank. The run rolls every survivor back to the last
    // committed manifest, replays with identity degradation, and — since
    // retransmission recovery and snapshot replay are both bit-exact —
    // finishes bit-identical to the undisturbed run.
    let domain = Domain::centered_cube(8.0);
    let mesh = uniform_mesh(domain, 2);
    let wave = LinearWaveData::new(1e-3, 0.0, 2.0, 1.0);
    let u0 = fill_field(&mesh, &|p, out: &mut [f64]| wave.evaluate(p, out));
    let params = BssnParams::default();
    let reference = evolve_distributed(&mesh, &u0, 3, 3, 0.25, params);
    for seed in chaos_seeds() {
        let dir = std::env::temp_dir().join(format!("gw_amr_chaos_{seed}"));
        let dir = dir.to_str().unwrap().to_string();
        let _ = std::fs::remove_dir_all(&dir);
        let resilience = ResilienceConfig {
            checkpoint_dir: Some(dir.clone()),
            checkpoint_every: 1,
            degradation: DegradationPolicy { courant_factor: 1.0, ko_boost: 0.0, max_retries: 2 },
            kill_once: Some(KillSpec { rank: 1, at_step: 2 }),
        };
        let cfg = WorldConfig {
            faults: Some(CommFaultPlan::new(seed).with_drop_rate(0.03).with_corrupt_rate(0.02)),
            recv_timeout: Duration::from_secs(5),
            heartbeat_interval: Duration::from_millis(5),
            ..WorldConfig::default()
        };
        let out = resilient_wave_run(uniform_mesh(domain, 2), 3, 3, 0, cfg, resilience)
            .unwrap_or_else(|e| panic!("seed {seed}: chaos run must recover: {e}"));
        assert_eq!(out.retries, 1, "seed {seed}: one rollback for one death");
        match &out.events[..] {
            [RecoveryEvent::RolledBack { to_step: 2, cause }] => {
                assert_eq!(cause.dead_rank(), Some(1), "seed {seed}");
            }
            other => panic!("seed {seed}: expected one rollback to step 2, got {other:?}"),
        }
        for (a, b) in reference.state.as_slice().iter().zip(out.result.state.as_slice().iter()) {
            assert_eq!(a, b, "seed {seed}: manifest replay must be bit-identical");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn chaos_matrix_matches_fault_free_run_bitwise() {
    // The overlapped exchange must survive seeded chaos and land on the
    // *same bits*: for every seed and worker count, a run under seeded
    // drop/truncate/corrupt faults must match the fault-free run both in
    // final state and in the committed checkpoint bodies (manifest shard
    // CRCs) — the overlap window must never reorder a reduction or let a
    // retransmitted ghost land in a different slot.
    let domain = Domain::centered_cube(8.0);

    let tmp = std::env::temp_dir();
    let ref_dir = tmp.join("gw_amr_overlap_ref").to_str().unwrap().to_string();
    let _ = std::fs::remove_dir_all(&ref_dir);
    let resilience_for = |dir: &str| ResilienceConfig {
        checkpoint_dir: Some(dir.to_string()),
        checkpoint_every: 1,
        degradation: DegradationPolicy { courant_factor: 1.0, ko_boost: 0.0, max_retries: 2 },
        kill_once: None,
    };
    let reference = resilient_wave_run(
        uniform_mesh(domain, 2),
        3,
        2,
        0,
        WorldConfig::default(),
        resilience_for(&ref_dir),
    )
    .expect("fault-free reference");
    let ref_snap = latest_snapshot(&ref_dir)
        .expect("reference snapshot root readable")
        .expect("reference run committed a snapshot");
    let ref_ck = load_distributed(&ref_snap).expect("reference manifest loads");

    for seed in chaos_seeds() {
        for threads in [1usize, 2, 8] {
            let dir = tmp
                .join(format!("gw_amr_overlap_chaos_{seed}_{threads}"))
                .to_str()
                .unwrap()
                .to_string();
            let _ = std::fs::remove_dir_all(&dir);
            let cfg = WorldConfig {
                faults: Some(
                    CommFaultPlan::new(seed)
                        .with_drop_rate(0.02)
                        .with_truncate_rate(0.02)
                        .with_corrupt_rate(0.02),
                ),
                recv_timeout: Duration::from_secs(5),
                heartbeat_interval: Duration::from_millis(5),
                ..WorldConfig::default()
            };
            let out = resilient_wave_run(
                uniform_mesh(domain, 2),
                3,
                2,
                threads,
                cfg,
                resilience_for(&dir),
            )
            .unwrap_or_else(|e| {
                panic!("seed {seed} threads {threads}: chaos run must recover: {e}")
            });
            for (a, b) in
                reference.result.state.as_slice().iter().zip(out.result.state.as_slice().iter())
            {
                assert_eq!(a, b, "seed {seed} threads {threads}: state must match fault-free");
            }
            let snap = latest_snapshot(&dir)
                .expect("chaos snapshot root readable")
                .unwrap_or_else(|| panic!("seed {seed} threads {threads}: no snapshot committed"));
            let ck = load_distributed(&snap).expect("chaos manifest loads");
            assert_eq!(
                ck.manifest.shard_crcs, ref_ck.manifest.shard_crcs,
                "seed {seed} threads {threads}: checkpoint body CRCs must match fault-free"
            );
            assert_eq!(ck.manifest.shard_lens, ref_ck.manifest.shard_lens);
            assert_eq!(ck.manifest.steps_taken, ref_ck.manifest.steps_taken);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    let _ = std::fs::remove_dir_all(&ref_dir);
}

#[test]
fn zero_rate_fault_plan_is_bit_identical_to_fault_free() {
    // Installing a plan that never fires must not perturb results: the
    // fault-free path (headers included) is the same arithmetic.
    let domain = Domain::centered_cube(8.0);
    let mesh = uniform_mesh(domain, 2);
    let wave = LinearWaveData::new(1e-3, 0.0, 2.0, 1.0);
    let u0 = fill_field(&mesh, &|p, out: &mut [f64]| wave.evaluate(p, out));
    let params = BssnParams::default();
    let reference = evolve_distributed(&mesh, &u0, 3, 2, 0.25, params);
    let cfg = WorldConfig {
        faults: Some(CommFaultPlan::new(99)), // zero rates
        ..WorldConfig::default()
    };
    let with_plan = evolve_distributed_cfg(&mesh, &u0, 3, 2, 0.25, params, cfg).unwrap();
    for (a, b) in reference.state.as_slice().iter().zip(with_plan.state.as_slice().iter()) {
        assert_eq!(a, b, "zero-rate plan must not change the evolution");
    }
    assert_eq!(reference.traffic, with_plan.traffic);
}

#[test]
fn scaling_model_consumes_real_plans() {
    // Feed the scaling model with the actual measured plan of an
    // adaptive mesh — the Fig. 17 pipeline end to end.
    let domain = Domain::centered_cube(8.0);
    let mesh = adaptive_mesh(domain);
    let deps = dependencies(&mesh);
    let n = mesh.n_octants();
    let net = Network::gpu_interconnect();
    let ps = [1usize, 2, 4];
    let mut times = Vec::new();
    for &p in &ps {
        let part = partition_uniform(n, p);
        let plan = GhostSchedule::build(&part, deps.iter().copied());
        let work: Vec<f64> = (0..p).map(|r| 1e-3 * part.range(r).len() as f64 / n as f64).collect();
        times.push(project_step(&work, &plan, &net, 24, 343, 5).total());
    }
    let eff = strong_efficiency(&ps, &times);
    assert!((eff[0] - 1.0).abs() < 1e-12);
    assert!(eff.iter().all(|&e| e > 0.0 && e <= 1.0 + 1e-9), "{eff:?}");
}
