//! One grid point, evaluated end to end through the estimation API.
//!
//! A [`Scenario`] fixes every free variable of the paper's analyses —
//! which system is deployed (and with what storage architecture), which
//! regional grid powers it, how efficient the facility is, how jobs are
//! scheduled, and which upgrade is on the table. [`run_scenario`] turns
//! that point into a [`ScenarioOutcome`] of comparable metrics, or a
//! [`ScenarioError`] when the combination is infeasible (e.g. an all-flash
//! what-if on a system with no HDD tier). It never prints and never
//! panics on bad combinations, so batched executors can fan thousands of
//! points out and keep going.
//!
//! Since the front-door API landed, a scenario is exactly one
//! [`EstimateRequest`]: the dimension types live in [`hpcarbon_api`]
//! (re-exported here unchanged), and `run_scenario` delegates to the
//! default [`Estimator`] — the sweep is the API's batch-shaped
//! consumer, not a second implementation of the pipeline.
//! The produced CSV/JSON output is a frozen contract and stayed
//! byte-identical across the delegation.

use hpcarbon_api::{EstimateRequest, Estimator, FootprintReport};
use hpcarbon_grid::regions::OperatorId;
use hpcarbon_sched::Policy;
use hpcarbon_upgrade::savings::UsageLevel;

pub use hpcarbon_api::{ApiError, PueSpec, StorageVariant, SystemId, TraceSource, UpgradePath};

/// Why a scenario cannot be evaluated.
///
/// Since the API became the single front door this is the unified
/// [`ApiError`]; the historical variants (`WhatIf`, `Sched`,
/// `InvalidPue`) and their `Display` strings are unchanged, so error
/// cells in emitted CSV/JSON are byte-identical to earlier releases.
pub type ScenarioError = ApiError;

/// One fully specified grid point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scenario {
    /// Position in the expanded grid (row order of the result table).
    pub id: usize,
    /// Deployed system.
    pub system: SystemId,
    /// Storage-architecture variant.
    pub storage: StorageVariant,
    /// Grid region powering the facility.
    pub region: OperatorId,
    /// Where the region's intensity trace comes from.
    pub source: TraceSource,
    /// Facility PUE model.
    pub pue: PueSpec,
    /// Scheduling policy for the job-trace run.
    pub policy: Policy,
    /// Upgrade question evaluated at the region's median intensity.
    pub upgrade: UpgradePath,
    /// Seed of this scenario's random streams.
    pub seed: u64,
}

impl Scenario {
    /// The scenario as an API request under the sweep's workload knobs.
    /// This is the whole translation — the sweep adds no estimation
    /// semantics of its own.
    pub fn to_request(&self, cfg: &crate::exec::SweepConfig) -> EstimateRequest {
        EstimateRequest {
            schema_version: hpcarbon_api::SCHEMA_VERSION,
            system: self.system,
            storage: self.storage,
            region: self.region,
            source: self.source,
            pue: self.pue,
            policy: self.policy,
            partner: None, // the sweep keeps the policy-decides topology
            forecast: cfg.forecast,
            upgrade: self.upgrade,
            usage: UsageLevel::Medium.fraction(),
            seed: self.seed,
            year: cfg.year,
            jobs: cfg.jobs_per_scenario,
            cluster_gpus: cfg.cluster_gpus,
        }
    }
}

/// The comparable metrics of one evaluated scenario.
#[derive(Debug, Clone)]
pub struct ScenarioOutcome {
    /// Embodied carbon of the (possibly transformed) inventory, tCO₂.
    pub embodied_t: f64,
    /// Relative embodied change of the storage what-if, % (`None` for the
    /// baseline variant).
    pub storage_delta_pct: Option<f64>,
    /// Median annual carbon intensity of the simulated region, gCO₂/kWh.
    pub median_g_per_kwh: f64,
    /// Coefficient of variation of the intensity trace, %.
    pub cov_percent: f64,
    /// Total operational carbon of the scheduled job trace, kgCO₂.
    pub sched_carbon_kg: f64,
    /// Total facility energy of the job trace, kWh.
    pub sched_energy_kwh: f64,
    /// Mean queue wait, hours.
    pub mean_wait_hours: f64,
    /// Max queue wait, hours.
    pub max_wait_hours: f64,
    /// Carbon saved versus running every job at arrival, kgCO₂ (negative
    /// when deferral backfired).
    pub shift_saved_kg: f64,
    /// The same savings as a percentage of the run-at-arrival baseline.
    pub shift_saved_pct: f64,
    /// What a perfect-knowledge planner would have saved, kgCO₂ —
    /// `None` unless the sweep ran under a forecast model, in which case
    /// `shift_saved_kg` is the *realized* savings against this oracle.
    pub oracle_saved_kg: Option<f64>,
    /// Oracle savings as a percentage of the run-at-arrival baseline.
    pub oracle_saved_pct: Option<f64>,
    /// Annual carbon of one `upgrade.from` node serving the reference
    /// workload under this scenario's PUE model, kgCO₂. Seasonal PUE
    /// models are integrated hour by hour against the trace.
    pub node_annual_kg: f64,
    /// Upgrade break-even time at the median intensity, years (`None`
    /// when the upgrade never pays off).
    pub break_even_years: Option<f64>,
    /// Asymptotic energy saving of the upgrade, %.
    pub asymptotic_savings_pct: f64,
    /// Advisor verdict at a five-year horizon.
    pub verdict: &'static str,
}

impl From<FootprintReport> for ScenarioOutcome {
    fn from(r: FootprintReport) -> ScenarioOutcome {
        ScenarioOutcome {
            embodied_t: r.embodied.total_t,
            storage_delta_pct: r.embodied.storage_delta_pct,
            median_g_per_kwh: r.grid.median_g_per_kwh,
            cov_percent: r.grid.cov_pct,
            sched_carbon_kg: r.operational.sched_kg,
            sched_energy_kwh: r.operational.sched_kwh,
            mean_wait_hours: r.operational.mean_wait_h,
            max_wait_hours: r.operational.max_wait_h,
            shift_saved_kg: r.shift.saved_kg,
            shift_saved_pct: r.shift.saved_pct,
            oracle_saved_kg: r.shift.oracle_saved_kg,
            oracle_saved_pct: r.shift.oracle_saved_pct,
            node_annual_kg: r.upgrade.node_annual_kg,
            break_even_years: r.upgrade.break_even_y,
            asymptotic_savings_pct: r.upgrade.asymptotic_pct,
            verdict: r.upgrade.verdict.label(),
        }
    }
}

/// Evaluates one scenario through the default [`Estimator`]. Pure: no
/// printing, no panicking on bad combinations, and no dependence on
/// global or thread state.
///
/// # Errors
/// [`ScenarioError`] when the combination is infeasible — the caller is
/// expected to record the error row and continue the batch.
pub fn run_scenario(
    s: &Scenario,
    cfg: &crate::exec::SweepConfig,
) -> Result<ScenarioOutcome, ScenarioError> {
    Estimator::builder()
        .build()
        .estimate(&s.to_request(cfg))
        .map(ScenarioOutcome::from)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::SweepConfig;
    use hpcarbon_core::whatif::WhatIfError;
    use hpcarbon_sched::SimError;
    use hpcarbon_workloads::benchmarks::Suite;
    use hpcarbon_workloads::nodes::NodeGen;

    fn scenario() -> Scenario {
        Scenario {
            id: 0,
            system: SystemId::Frontier,
            storage: StorageVariant::Baseline,
            region: OperatorId::Eso,
            source: TraceSource::Paper,
            pue: PueSpec::Constant(1.2),
            policy: Policy::Fifo,
            upgrade: UpgradePath {
                from: NodeGen::V100Node,
                to: NodeGen::A100Node,
                suite: Suite::Nlp,
            },
            seed: 2021,
        }
    }

    #[test]
    fn baseline_scenario_evaluates() {
        let out = run_scenario(&scenario(), &SweepConfig::fast()).unwrap();
        assert!(out.embodied_t > 1000.0);
        assert!(out.storage_delta_pct.is_none());
        assert!(out.median_g_per_kwh > 0.0);
        assert!(out.sched_carbon_kg > 0.0);
        assert!(out.node_annual_kg > 0.0);
        assert_eq!(out.verdict, "upgrade"); // GB median is well above 100 g/kWh
    }

    #[test]
    fn all_flash_fails_soft_on_perlmutter() {
        let s = Scenario {
            system: SystemId::Perlmutter,
            storage: StorageVariant::AllFlash,
            ..scenario()
        };
        let err = run_scenario(&s, &SweepConfig::fast()).unwrap_err();
        assert!(matches!(
            err,
            ScenarioError::WhatIf(WhatIfError::NoSourceUnits(_))
        ));
    }

    #[test]
    fn all_flash_raises_frontier_embodied() {
        let cfg = SweepConfig::fast();
        let base = run_scenario(&scenario(), &cfg).unwrap();
        let flash = run_scenario(
            &Scenario {
                storage: StorageVariant::AllFlash,
                ..scenario()
            },
            &cfg,
        )
        .unwrap();
        assert!(flash.embodied_t > base.embodied_t);
        assert!(flash.storage_delta_pct.unwrap() > 50.0);
    }

    #[test]
    fn invalid_pue_is_rejected() {
        let s = Scenario {
            pue: PueSpec::Constant(0.8),
            ..scenario()
        };
        assert!(matches!(
            run_scenario(&s, &SweepConfig::fast()).unwrap_err(),
            ScenarioError::InvalidPue(_)
        ));
        let s = Scenario {
            pue: PueSpec::Seasonal {
                mean: 1.1,
                amplitude: 0.5,
            },
            ..scenario()
        };
        assert!(run_scenario(&s, &SweepConfig::fast()).is_err());
    }

    #[test]
    fn seasonal_pue_stays_near_constant_mean() {
        let cfg = SweepConfig::fast();
        let constant = run_scenario(&scenario(), &cfg).unwrap();
        let seasonal = run_scenario(
            &Scenario {
                pue: PueSpec::Seasonal {
                    mean: 1.2,
                    amplitude: 0.1,
                },
                ..scenario()
            },
            &cfg,
        )
        .unwrap();
        // The seasonal model integrates PUE(t) × intensity(t); its annual
        // node carbon stays within a few percent of the constant-PUE one.
        let ratio = seasonal.node_annual_kg / constant.node_annual_kg;
        assert!((0.9..1.1).contains(&ratio), "{ratio}");
    }

    #[test]
    fn same_scenario_same_outcome() {
        let cfg = SweepConfig::fast();
        let a = run_scenario(&scenario(), &cfg).unwrap();
        let b = run_scenario(&scenario(), &cfg).unwrap();
        assert_eq!(a.sched_carbon_kg, b.sched_carbon_kg);
        assert_eq!(a.median_g_per_kwh, b.median_g_per_kwh);
        assert_eq!(a.node_annual_kg, b.node_annual_kg);
    }

    #[test]
    fn synthetic_traces_are_a_distinct_axis() {
        let cfg = SweepConfig::fast();
        let paper = run_scenario(&scenario(), &cfg).unwrap();
        let synth = run_scenario(
            &Scenario {
                source: TraceSource::Synthetic,
                ..scenario()
            },
            &cfg,
        )
        .unwrap();
        // Different generators, same region: different (but physical)
        // medians and scheduling carbon.
        assert_ne!(paper.median_g_per_kwh, synth.median_g_per_kwh);
        assert!(synth.median_g_per_kwh > 0.0);
        assert!(synth.sched_carbon_kg > 0.0);
        // Determinism holds on the synthetic axis too.
        let again = run_scenario(
            &Scenario {
                source: TraceSource::Synthetic,
                ..scenario()
            },
            &cfg,
        )
        .unwrap();
        assert_eq!(synth.sched_carbon_kg, again.sched_carbon_kg);
    }

    #[test]
    fn shifting_policies_report_savings() {
        let cfg = SweepConfig::fast();
        let fifo = run_scenario(&scenario(), &cfg).unwrap();
        let shifted = run_scenario(
            &Scenario {
                policy: Policy::TemporalShift { slack_hours: 24 },
                ..scenario()
            },
            &cfg,
        )
        .unwrap();
        // FIFO at ample capacity never saves; shifting on a real trace
        // does, and the savings tie out with the carbon totals.
        assert!(fifo.shift_saved_kg.abs() < 1e-9);
        assert!(shifted.shift_saved_kg > 0.0, "{}", shifted.shift_saved_kg);
        assert!(shifted.shift_saved_pct > 0.0);
        assert!(shifted.sched_carbon_kg < fifo.sched_carbon_kg);
    }

    #[test]
    fn spatio_temporal_engages_the_spatial_axis() {
        // With the partner site in play, joint placement must differ from
        // (and not exceed) pure temporal shifting at the same slack.
        let cfg = SweepConfig::fast();
        let temporal = run_scenario(
            &Scenario {
                policy: Policy::TemporalShift { slack_hours: 24 },
                region: OperatorId::Miso, // dirty region, clean partner
                ..scenario()
            },
            &cfg,
        )
        .unwrap();
        let joint = run_scenario(
            &Scenario {
                policy: Policy::SpatioTemporal { slack_hours: 24 },
                region: OperatorId::Miso,
                ..scenario()
            },
            &cfg,
        )
        .unwrap();
        assert_ne!(joint.sched_carbon_kg, temporal.sched_carbon_kg);
        assert!(joint.sched_carbon_kg < temporal.sched_carbon_kg);
    }

    #[test]
    fn oversized_slack_is_a_soft_error_row() {
        let cfg = SweepConfig::fast();
        let err = run_scenario(
            &Scenario {
                policy: Policy::TemporalShift { slack_hours: 9000 },
                ..scenario()
            },
            &cfg,
        )
        .unwrap_err();
        assert!(matches!(
            err,
            ScenarioError::Sched(SimError::ShiftSlackExceedsTrace { .. })
        ));
    }

    #[test]
    fn delegation_matches_a_direct_api_call() {
        // The sweep's outcome and the API's report are the same numbers.
        let cfg = SweepConfig::fast();
        let s = scenario();
        let via_sweep = run_scenario(&s, &cfg).unwrap();
        let via_api = hpcarbon_api::Estimator::builder()
            .build()
            .estimate(&s.to_request(&cfg))
            .unwrap();
        assert_eq!(via_sweep.sched_carbon_kg, via_api.operational.sched_kg);
        assert_eq!(via_sweep.embodied_t, via_api.embodied.total_t);
        assert_eq!(via_sweep.break_even_years, via_api.upgrade.break_even_y);
    }
}
