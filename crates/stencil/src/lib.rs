//! Finite-difference stencils and intergrid transfer operators.
//!
//! The paper discretizes the BSSN equations with 6th-order centered finite
//! differences (`O(h^6)`), upwind-biased advective derivatives for the
//! shift-advection terms, and Kreiss–Oliger dissipation built from the
//! 7-point 6th difference (the widest centered difference the `k = 3`
//! padding admits). Octants carry `r = 7` points per side padded by `k = 3`
//! ghost layers, so a padded patch is `13^3` and interior stencils never
//! leave the patch.
//!
//! Modules:
//! * [`fd`] — 1D stencil coefficient tables and their 3D patch
//!   application (first, second, mixed, advective derivatives) through one
//!   vectorized 7-tap line sweep.
//! * [`ko`] — Kreiss–Oliger dissipation operator.
//! * [`interp`] — 1D polynomial prolongation (coarse→fine) and injection
//!   (fine→coarse) operators and their 3D tensor-product application, used
//!   by the octant-to-patch kernel and by regridding.
//! * [`patch`] — index arithmetic for `r^3` octant blocks and
//!   `(r+2k)^3` padded patches.

pub mod fd;
pub mod interp;
pub mod ko;
pub mod patch;

pub use fd::DerivOps;
pub use interp::Prolongation;
pub use ko::ko_dissipation;
pub use patch::{PatchLayout, PADDING, PATCH_SIDE, POINTS_PER_SIDE};
