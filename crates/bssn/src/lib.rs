//! BSSN physics: equations, initial data, gauge, constraints.
//!
//! This crate supplies the numerical-relativity content of the solver:
//!
//! * [`point`] — a **handwritten** pointwise BSSN RHS (Eqs. 1–19 of the
//!   paper), deliberately written independently of the symbolic generator
//!   in `gw-expr` and cross-validated against it in the tests. The solver
//!   can run either this or a generated tape; agreement of the two is the
//!   same check the paper performs between hand code and SymPyGR output.
//! * [`derivs`] — the 210-derivative evaluation on a padded patch: 72
//!   first, 66 second, 72 Kreiss–Oliger derivatives per point, stored as
//!   per-octant blocks that the `A` component reads as its 234 inputs.
//! * [`rhs`] — the per-patch fused RHS driver (derivatives + `A`, the
//!   generated tape run over 49-point lane batches), the host-side
//!   reference for the device kernels in `gw-core`.
//! * [`init`] — initial data: Brandt–Brügmann punctures with Bowen–York
//!   extrinsic curvature (binary black holes), and a linearized
//!   gravitational-wave packet with an analytic solution (propagation and
//!   convergence studies, Figs. 19/21 substitutions).
//! * [`constraints`] — Hamiltonian and momentum constraint monitors.
//! * [`sommerfeld`] — radiative (Sommerfeld) outer-boundary RHS.

// Tensor-index loops (`for k in 0..3`) mirror the written math
// throughout this crate; enumerate() forms would obscure the index
// symmetry.
#![allow(clippy::needless_range_loop)]

pub mod constraints;
pub mod derivs;
pub mod init;
pub mod point;
pub mod rhs;
pub mod sommerfeld;

pub use derivs::DerivWorkspace;
pub use gw_expr::bssn::BssnParams;
pub use point::bssn_rhs_point;
pub use rhs::{bssn_rhs_patch, RhsMode};
