//! # hpcarbon-core
//!
//! The paper's carbon-footprint model (SC'23, Li et al., "Toward
//! Sustainable HPC"), implemented exactly as Eqs. 1–6 define it:
//!
//! - **Eq. 1** `C_total = C_em + C_op` — [`lifecycle::total_carbon`]
//! - **Eq. 2** `C_em = Manufacturing + Packaging` — [`embodied::EmbodiedBreakdown`]
//! - **Eq. 3** `M_proc = (FPA + GPA + MPA) · A_die / Yield` —
//!   [`embodied::processor_manufacturing`]
//! - **Eq. 4** `M_m/s = EPC · Capacity` — [`embodied::memory_manufacturing`]
//! - **Eq. 5** `Packaging = 150 gCO₂ · #ICs` — [`embodied::packaging_from_ics`]
//!   (with the ratio-based variant the paper uses for storage devices)
//! - **Eq. 6** `C_op = I_sys · E_op` — [`operational::operational_carbon`]
//!
//! Around the equations sit two databases:
//!
//! - [`db`]: the component catalog — every part in the paper's Table 1 and
//!   Table 5, with die areas, process nodes, IC counts, EPC values,
//!   performance figures (FP64 TFLOPS, bandwidth) and power envelopes. The
//!   paper does not publish its per-part model inputs; ours are chosen from
//!   publicly reported ranges and calibrated so that the *relative*
//!   magnitudes of the paper's Figs. 1–3 and 5 reproduce (see DESIGN.md §1
//!   and the doc comments on each constant).
//! - [`systems`]: the system inventories of Table 2 (Frontier, LUMI,
//!   Perlmutter) used by Fig. 5's composition analysis.
//!
//! # Example: embodied carbon of an A100 (Fig. 1 bar)
//!
//! ```
//! use hpcarbon_core::db::PartId;
//!
//! let a100 = PartId::GpuA100Pcie40.spec();
//! let em = a100.embodied();
//! // ~22 kgCO2, ~15% of it from packaging (Fig. 3's GPU ring).
//! assert!(em.total().as_kg() > 15.0 && em.total().as_kg() < 30.0);
//! assert!(em.packaging_share().value() > 0.10 && em.packaging_share().value() < 0.20);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod db;
pub mod embodied;
pub mod lifecycle;
pub mod operational;
pub mod systems;
pub mod whatif;

pub use embodied::EmbodiedBreakdown;
pub use lifecycle::total_carbon;
pub use operational::{operational_carbon, Pue};
