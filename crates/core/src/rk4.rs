//! Classical RK4 time integration over a backend.
//!
//! The paper integrates with explicit RK4 at Courant factor λ = 0.25
//! (section III-A) with global timestepping: one Δt for the whole grid,
//! set by the finest level.

use crate::backend::{Backend, Buf};
use gw_mesh::Mesh;

/// RK4 driver. Stateless apart from the Courant factor.
#[derive(Clone, Copy, Debug)]
pub struct Rk4 {
    /// Courant factor λ (paper: 0.25).
    pub courant: f64,
}

impl Default for Rk4 {
    fn default() -> Self {
        Self { courant: 0.25 }
    }
}

impl Rk4 {
    /// Global timestep for a mesh: `λ · h_min`.
    pub fn timestep(&self, mesh: &Mesh) -> f64 {
        let h_min = mesh.octants.iter().map(|o| o.h).fold(f64::INFINITY, f64::min);
        self.courant * h_min
    }

    /// Advance one RK4 step of size `dt` (classic Butcher tableau),
    /// using the backend's four resident buffers:
    ///
    /// ```text
    /// k1 = F(u)          acc  = u + dt/6 k1      s = u + dt/2 k1
    /// k2 = F(s)          acc += dt/3 k2          s = u + dt/2 k2
    /// k3 = F(s)          acc += dt/3 k3          s = u + dt   k3
    /// k4 = F(s)          u    = acc + dt/6 k4
    /// ```
    pub fn step(&self, backend: &mut dyn Backend, mesh: &Mesh, dt: f64) {
        let stepped: Result<(), std::convert::Infallible> = self.try_step(
            backend,
            dt,
            |b, _stage, input, output| {
                b.eval_rhs(mesh, input, output);
                Ok(())
            },
            |b| {
                b.sync_interfaces(mesh);
                Ok(())
            },
        );
        let Ok(()) = stepped;
    }

    /// [`Rk4::step`] with the stage RHS and the closing interface sync
    /// supplied by the caller, either of which may fail: a distributed
    /// rank wraps both in halo exchanges. `rhs(backend, stage, input,
    /// output)` must leave `F(input)` in `output` for stages `0..4`;
    /// `sync(backend)` keeps coarse–fine duplicated points of the
    /// solution consistent. The first error aborts the step.
    pub fn try_step<B: Backend + ?Sized, E>(
        &self,
        backend: &mut B,
        dt: f64,
        mut rhs: impl FnMut(&mut B, u64, Buf, Buf) -> Result<(), E>,
        sync: impl FnOnce(&mut B) -> Result<(), E>,
    ) -> Result<(), E> {
        // k1.
        rhs(backend, 0, Buf::U, Buf::K)?;
        backend.assign_axpy(Buf::Acc, Buf::U, dt / 6.0, Buf::K);
        backend.assign_axpy(Buf::Stage, Buf::U, dt / 2.0, Buf::K);
        // k2.
        rhs(backend, 1, Buf::Stage, Buf::K)?;
        backend.axpy(Buf::Acc, dt / 3.0, Buf::K);
        backend.assign_axpy(Buf::Stage, Buf::U, dt / 2.0, Buf::K);
        // k3.
        rhs(backend, 2, Buf::Stage, Buf::K)?;
        backend.axpy(Buf::Acc, dt / 3.0, Buf::K);
        backend.assign_axpy(Buf::Stage, Buf::U, dt, Buf::K);
        // k4.
        rhs(backend, 3, Buf::Stage, Buf::K)?;
        backend.axpy(Buf::Acc, dt / 6.0, Buf::K);
        backend.copy(Buf::U, Buf::Acc);
        // Keep coarse–fine duplicated points consistent.
        sync(backend)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{CpuBackend, RhsKind};
    use gw_bssn::BssnParams;
    use gw_expr::symbols::{var, NUM_VARS};
    use gw_mesh::Field;
    use gw_octree::{Domain, MortonKey};
    use gw_stencil::patch::PatchLayout;

    fn uniform_mesh(levels: u8, half: f64) -> Mesh {
        let mut leaves = vec![MortonKey::root()];
        for _ in 0..levels {
            leaves = leaves.iter().flat_map(|k| k.children()).collect();
        }
        leaves.sort();
        Mesh::build(Domain::centered_cube(half), &leaves)
    }

    fn flat_state(mesh: &Mesh) -> Field {
        let mut f = Field::zeros(NUM_VARS, mesh.n_octants());
        for oct in 0..mesh.n_octants() {
            for v in [var::ALPHA, var::CHI, var::gt(0, 0), var::gt(1, 1), var::gt(2, 2)] {
                f.block_mut(v, oct).iter_mut().for_each(|x| *x = 1.0);
            }
        }
        f
    }

    #[test]
    fn timestep_tracks_finest_level() {
        let m1 = uniform_mesh(2, 8.0);
        let m2 = uniform_mesh(3, 8.0);
        let rk = Rk4::default();
        assert!((rk.timestep(&m1) / rk.timestep(&m2) - 2.0).abs() < 1e-12);
        // λ = 0.25 × h: for level 2, h = 16/4/6.
        let h = 16.0 / 4.0 / 6.0;
        assert!((rk.timestep(&m1) - 0.25 * h).abs() < 1e-12);
    }

    #[test]
    fn flat_space_is_preserved_exactly() {
        let mesh = uniform_mesh(1, 8.0);
        let u0 = flat_state(&mesh);
        let mut backend = CpuBackend::new(&mesh, BssnParams::default(), RhsKind::Pointwise);
        backend.upload(&u0);
        let rk = Rk4::default();
        let dt = rk.timestep(&mesh);
        for _ in 0..3 {
            rk.step(&mut backend, &mesh, dt);
        }
        let u = backend.download();
        for (a, b) in u.as_slice().iter().zip(u0.as_slice().iter()) {
            assert!((a - b).abs() < 1e-13, "flat space must stay flat: {a} vs {b}");
        }
    }

    #[test]
    fn gauge_wave_evolves_stably() {
        // A small lapse perturbation on flat space: the 1+log gauge
        // propagates it without blowing up over a handful of steps.
        let mesh = uniform_mesh(2, 8.0);
        let mut u0 = flat_state(&mesh);
        for oct in 0..mesh.n_octants() {
            let l = PatchLayout::octant();
            for (i, j, k) in l.iter() {
                let p = mesh.point_coords(oct, i, j, k);
                let r2 = p[0] * p[0] + p[1] * p[1] + p[2] * p[2];
                u0.block_mut(var::ALPHA, oct)[l.idx(i, j, k)] = 1.0 + 1e-3 * (-r2 / 4.0).exp();
            }
        }
        let mut backend = CpuBackend::new(&mesh, BssnParams::default(), RhsKind::Pointwise);
        backend.upload(&u0);
        let rk = Rk4::default();
        let dt = rk.timestep(&mesh);
        for _ in 0..5 {
            rk.step(&mut backend, &mesh, dt);
        }
        let u = backend.download();
        // Bounded and changed.
        assert!(u.linf_all() < 2.0);
        let mut changed = false;
        for (a, b) in u.as_slice().iter().zip(u0.as_slice().iter()) {
            if (a - b).abs() > 1e-10 {
                changed = true;
                break;
            }
        }
        assert!(changed, "the gauge pulse must evolve");
        // K must have been excited (∂_t K ⊃ −∇²α).
        assert!(u.linf(var::K) > 1e-8);
    }

    #[test]
    fn rk4_convergence_order_on_lapse_ode() {
        // With homogeneous data (no spatial dependence) the system
        // reduces to the ODE α' = −2αK, K' = αK²/3. Verify 4th-order
        // convergence of the integrator against a tiny-step reference.
        let mesh = uniform_mesh(0, 8.0);
        let make = |k0: f64| {
            let mut f = flat_state(&mesh);
            f.block_mut(var::K, 0).iter_mut().for_each(|x| *x = k0);
            f
        };
        let run = |dt: f64, steps: usize| -> f64 {
            let mut backend = CpuBackend::new(
                &mesh,
                BssnParams { eta: 2.0, ko_sigma: 0.0, chi_floor: 1e-4 },
                RhsKind::Pointwise,
            );
            backend.upload(&make(0.1));
            let rk = Rk4::default();
            for _ in 0..steps {
                rk.step(&mut backend, &mesh, dt);
            }
            backend.download().block(var::ALPHA, 0)[0]
        };
        let t_final = 0.4;
        let reference = run(t_final / 256.0, 256);
        let e1 = (run(t_final / 4.0, 4) - reference).abs();
        let e2 = (run(t_final / 8.0, 8) - reference).abs();
        let order = (e1 / e2).log2();
        assert!(order > 3.5, "observed RK order {order} (e1={e1:.3e}, e2={e2:.3e})");
    }
}
