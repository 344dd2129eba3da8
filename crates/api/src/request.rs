//! The versioned request: what to estimate, fully specified.
//!
//! [`EstimateRequest`] is the typed form of one estimation question —
//! system, storage what-if, region and trace source, PUE model,
//! scheduling policy (with its slack), upgrade path, usage level, seed,
//! and workload size. It can be built in code (start from
//! [`EstimateRequest::paper_baseline`]) or decoded from JSON with the
//! **strict** schema rules of §8 of `DESIGN.md`:
//!
//! - `schema_version` is checked first; an unsupported version is an
//!   [`ApiError::Schema`], whatever else the document says;
//! - unknown fields are **rejected**, never ignored, at every nesting
//!   level ([`ParseError::UnknownField`]) — the versioning rule that
//!   makes adding fields in a future `schema_version` safe;
//! - everything except `schema_version`, `system` and `region` is
//!   optional and defaults to the paper baseline.
//!
//! [`EstimateRequest::validate`] performs the semantic checks (physical
//! PUE, non-empty workload) and yields a [`ValidRequest`], the only type
//! the estimator evaluates.

use crate::error::{ApiError, ParseError};
use crate::json::{
    as_i32, as_num, as_object, as_str, as_u32, as_u64, esc, fmt_f64, parse as parse_json,
    reject_unknown, require_str, Json,
};
use crate::parse;
use crate::types::{ForecastModel, PueSpec, StorageVariant, SystemId, TraceSource, UpgradePath};
use hpcarbon_grid::regions::OperatorId;
use hpcarbon_sched::Policy;
use hpcarbon_units::Fraction;
use hpcarbon_upgrade::savings::UsageLevel;
use hpcarbon_workloads::benchmarks::Suite;
use hpcarbon_workloads::nodes::NodeGen;

/// The request/report schema version this build speaks.
pub const SCHEMA_VERSION: u32 = 1;

/// The largest `jobs` a request may ask for. The job trace is generated
/// in full before the scheduling run, at 56 bytes a job, so an
/// unbounded count would abort the process on allocation; 100,000 jobs
/// are ~5.6 MB.
pub const MAX_JOBS: usize = 100_000;

/// Accepted `policy.name` values.
pub const POLICY_VALUES: [&str; 7] = [
    "fifo",
    "threshold-defer",
    "greenest-window",
    "lowest-intensity-region",
    "region-and-time",
    "temporal-shift",
    "spatio-temporal",
];

/// One fully specified estimation question (schema version 1).
#[derive(Debug, Clone, PartialEq)]
pub struct EstimateRequest {
    /// Schema version; must equal [`SCHEMA_VERSION`].
    pub schema_version: u32,
    /// Deployed system.
    pub system: SystemId,
    /// Storage-architecture what-if.
    pub storage: StorageVariant,
    /// Grid region powering the facility.
    pub region: OperatorId,
    /// Where the region's intensity trace comes from.
    pub source: TraceSource,
    /// Facility PUE model.
    pub pue: PueSpec,
    /// Scheduling policy (shifting slack lives inside the policy).
    pub policy: Policy,
    /// Whether the greenest-complement partner site joins the cluster
    /// set. `None` (the default) lets the policy decide — multi-region
    /// policies get the partner, single-region policies don't;
    /// `Some(true)` / `Some(false)` force it either way, so a policy
    /// comparison can hold the topology fixed across rows.
    pub partner: Option<bool>,
    /// Which forecast the scheduler plans on. `None` (the default) is
    /// perfect knowledge — policies argmin over the actual trace;
    /// `Some` makes them argmin over the forecast while carbon is
    /// realized against the actual trace, and the report gains
    /// realized-vs-oracle columns.
    pub forecast: Option<ForecastModel>,
    /// Upgrade question evaluated at the region's median intensity.
    pub upgrade: UpgradePath,
    /// Fraction of time the reference node is busy serving work.
    pub usage: Fraction,
    /// Seed of the request's random streams.
    pub seed: u64,
    /// Simulated grid year.
    pub year: i32,
    /// Jobs in the scheduling trace.
    pub jobs: usize,
    /// GPUs in the simulated cluster.
    pub cluster_gpus: u32,
}

impl EstimateRequest {
    /// The paper-baseline request for a system in a region: as-built
    /// storage, the paper trace set, constant PUE 1.2, FIFO scheduling,
    /// the V100 → A100 NLP upgrade question at medium usage, seed 2021,
    /// a 2021 grid year, 120 jobs on 96 GPUs.
    pub fn paper_baseline(system: SystemId, region: OperatorId) -> EstimateRequest {
        EstimateRequest {
            schema_version: SCHEMA_VERSION,
            system,
            storage: StorageVariant::Baseline,
            region,
            source: TraceSource::Paper,
            pue: PueSpec::Constant(1.2),
            policy: Policy::Fifo,
            partner: None,
            forecast: None,
            upgrade: UpgradePath {
                from: NodeGen::V100Node,
                to: NodeGen::A100Node,
                suite: Suite::Nlp,
            },
            usage: UsageLevel::Medium.fraction(),
            seed: 2021,
            year: 2021,
            jobs: 120,
            cluster_gpus: 96,
        }
    }

    /// Semantic validation: schema version, physical PUE, a workload of
    /// 1 to [`MAX_JOBS`] jobs, plausible year. The returned [`ValidRequest`] is the
    /// only input [`crate::Estimator::estimate`] evaluates.
    pub fn validate(&self) -> Result<ValidRequest, ApiError> {
        if self.schema_version != SCHEMA_VERSION {
            return Err(ApiError::Schema {
                found: u64::from(self.schema_version),
                supported: SCHEMA_VERSION,
            });
        }
        self.pue.validate()?;
        if self.jobs == 0 {
            return Err(ApiError::InvalidRequest {
                field: "jobs",
                reason: "must be at least 1",
            });
        }
        if self.jobs > MAX_JOBS {
            return Err(ApiError::InvalidRequest {
                field: "jobs",
                reason: "must be at most 100000",
            });
        }
        if self.cluster_gpus == 0 {
            return Err(ApiError::InvalidRequest {
                field: "cluster_gpus",
                reason: "must be at least 1",
            });
        }
        if !(1900..=2100).contains(&self.year) {
            return Err(ApiError::InvalidRequest {
                field: "year",
                reason: "must be between 1900 and 2100",
            });
        }
        Ok(ValidRequest { req: self.clone() })
    }

    /// Decodes one request from a JSON document.
    pub fn from_json(src: &str) -> Result<EstimateRequest, ApiError> {
        Self::from_json_value(&parse_json(src)?)
    }

    /// Decodes one request from a parsed JSON value (strict: schema gate
    /// first, then unknown fields rejected).
    pub fn from_json_value(j: &Json) -> Result<EstimateRequest, ApiError> {
        let fields = as_object(j, "request")?;
        // The schema gate runs before strictness: a future-version
        // request fails with Schema, not with UnknownField complaints
        // about fields this build has never heard of.
        let version = match j.get("schema_version") {
            None => {
                return Err(ParseError::MissingField {
                    field: "schema_version",
                }
                .into())
            }
            Some(v) => as_u64("schema_version", v)?,
        };
        if version != u64::from(SCHEMA_VERSION) {
            return Err(ApiError::Schema {
                found: version,
                supported: SCHEMA_VERSION,
            });
        }
        const KNOWN: [&str; 15] = [
            "schema_version",
            "system",
            "storage",
            "region",
            "trace",
            "pue",
            "policy",
            "partner",
            "forecast",
            "upgrade",
            "usage",
            "seed",
            "year",
            "jobs",
            "cluster_gpus",
        ];
        reject_unknown(fields, &KNOWN)?;

        let system = parse::system("system", require_str(j, "system")?)?;
        let region = parse::region("region", require_str(j, "region")?)?;
        let mut req = EstimateRequest::paper_baseline(system, region);

        if let Some(v) = j.get("storage") {
            req.storage = parse::storage("storage", as_str("storage", v)?)?;
        }
        if let Some(v) = j.get("trace") {
            req.source = parse::trace_source("trace", as_str("trace", v)?)?;
        }
        if let Some(v) = j.get("pue") {
            req.pue = pue_from_json(v)?;
        }
        if let Some(v) = j.get("policy") {
            req.policy = policy_from_json(v)?;
        }
        if let Some(v) = j.get("partner") {
            req.partner = match v {
                Json::Bool(b) => Some(*b),
                _ => {
                    return Err(ParseError::BadType {
                        field: "partner",
                        expected: "a boolean",
                    }
                    .into())
                }
            };
        }
        if let Some(v) = j.get("forecast") {
            req.forecast = Some(parse::forecast_model("forecast", as_str("forecast", v)?)?);
        }
        if let Some(v) = j.get("upgrade") {
            req.upgrade = upgrade_from_json(v)?;
        }
        if let Some(v) = j.get("usage") {
            let raw = as_num("usage", v)?;
            req.usage = Fraction::new(raw).ok_or(ParseError::BadNumber {
                field: "usage",
                reason: "must be a fraction in [0, 1]",
            })?;
        }
        if let Some(v) = j.get("seed") {
            req.seed = as_u64("seed", v)?;
        }
        if let Some(v) = j.get("year") {
            req.year = as_i32("year", v)?;
        }
        if let Some(v) = j.get("jobs") {
            req.jobs = as_u64("jobs", v)? as usize;
        }
        if let Some(v) = j.get("cluster_gpus") {
            req.cluster_gpus = as_u32("cluster_gpus", v)?;
        }
        Ok(req)
    }

    /// Decodes a batch: a single request object, or an array of them.
    pub fn batch_from_json(src: &str) -> Result<Vec<EstimateRequest>, ApiError> {
        match parse_json(src)? {
            Json::Arr(items) => items.iter().map(Self::from_json_value).collect(),
            obj @ Json::Obj(_) => Ok(vec![Self::from_json_value(&obj)?]),
            _ => Err(ParseError::BadType {
                field: "request document",
                expected: "an object or an array of objects",
            }
            .into()),
        }
    }

    /// Emits the request as a single-line JSON object, canonical field
    /// order, shortest-round-trip numbers. Parse → emit is stable.
    pub fn to_json(&self) -> String {
        let mut parts: Vec<String> = vec![
            format!("\"schema_version\": {}", self.schema_version),
            format!("\"system\": {}", esc(self.system.label())),
            format!("\"storage\": {}", esc(self.storage.label())),
            format!("\"region\": {}", esc(parse::region_name(self.region))),
            format!("\"trace\": {}", esc(self.source.label())),
            format!("\"pue\": {}", pue_to_json(self.pue)),
            format!("\"policy\": {}", policy_to_json(self.policy)),
        ];
        // `partner` and `forecast` are tri-state: their perfect-knowledge
        // / policy-decides defaults are encoded by the field's absence,
        // so parse → emit stays byte-stable and pre-forecast documents
        // keep their exact canonical bytes.
        if let Some(p) = self.partner {
            parts.push(format!("\"partner\": {p}"));
        }
        if let Some(f) = self.forecast {
            parts.push(format!("\"forecast\": {}", esc(&f.label())));
        }
        parts.extend([
            format!("\"upgrade\": {}", upgrade_to_json(self.upgrade)),
            format!("\"usage\": {}", fmt_f64(self.usage.value())),
            format!("\"seed\": {}", self.seed),
            format!("\"year\": {}", self.year),
            format!("\"jobs\": {}", self.jobs),
            format!("\"cluster_gpus\": {}", self.cluster_gpus),
        ]);
        format!("{{{}}}", parts.join(", "))
    }
}

/// A semantically validated request — the estimator's only input type.
///
/// Obtained exclusively through [`EstimateRequest::validate`], so holding
/// one proves the PUE model is physical, the workload is non-empty, and
/// the schema version is supported.
#[derive(Debug, Clone, PartialEq)]
pub struct ValidRequest {
    req: EstimateRequest,
}

impl std::ops::Deref for ValidRequest {
    type Target = EstimateRequest;

    fn deref(&self) -> &EstimateRequest {
        &self.req
    }
}

impl ValidRequest {
    /// The validated request.
    pub fn request(&self) -> &EstimateRequest {
        &self.req
    }

    /// The canonical byte form of the validated request: its single-line
    /// JSON emission (fixed field order, shortest-round-trip numbers,
    /// `partner` omitted when unset).
    ///
    /// Canonicalization is **injective over request semantics** — two
    /// requests share canonical bytes exactly when every field is equal —
    /// and estimation is a pure function of the request and the
    /// providers, so equal canonical bytes imply byte-identical
    /// [`crate::FootprintReport`] emissions. That makes this string the
    /// cache key of the serving layer: a response answered from cache is
    /// indistinguishable from a freshly computed one.
    pub fn canonical_json(&self) -> String {
        self.req.to_json()
    }
}

// ---- PUE ----

fn pue_from_json(j: &Json) -> Result<PueSpec, ParseError> {
    match j {
        Json::Num(v) => Ok(PueSpec::Constant(*v)),
        Json::Obj(fields) => {
            reject_unknown(fields, &["mean", "amplitude"])?;
            let mean = match j.get("mean") {
                Some(v) => as_num("pue.mean", v)?,
                None => return Err(ParseError::MissingField { field: "pue.mean" }),
            };
            let amplitude = match j.get("amplitude") {
                Some(v) => as_num("pue.amplitude", v)?,
                None => 0.0,
            };
            // A zero-amplitude "seasonal" model IS the constant model;
            // normalizing here keeps `{"mean": 1.2}` and `1.2` on the
            // same (median-based) accounting path in the estimator.
            if amplitude == 0.0 {
                Ok(PueSpec::Constant(mean))
            } else {
                Ok(PueSpec::Seasonal { mean, amplitude })
            }
        }
        _ => Err(ParseError::BadType {
            field: "pue",
            expected: "a number or an object with mean/amplitude",
        }),
    }
}

fn pue_to_json(p: PueSpec) -> String {
    match p {
        PueSpec::Constant(v) => fmt_f64(v),
        PueSpec::Seasonal { mean, amplitude } => format!(
            "{{\"mean\": {}, \"amplitude\": {}}}",
            fmt_f64(mean),
            fmt_f64(amplitude)
        ),
    }
}

// ---- Policy ----

fn policy_from_json(j: &Json) -> Result<Policy, ParseError> {
    let (name, fields): (&str, &[(String, Json)]) = match j {
        Json::Str(s) => (s.as_str(), &[]),
        Json::Obj(fields) => {
            let name = match j.get("name") {
                Some(v) => as_str("policy.name", v)?,
                None => {
                    return Err(ParseError::MissingField {
                        field: "policy.name",
                    })
                }
            };
            (name, fields)
        }
        _ => {
            return Err(ParseError::BadType {
                field: "policy",
                expected: "a string or an object with a name",
            })
        }
    };
    let get_num = |key: &'static str, default: f64| -> Result<f64, ParseError> {
        match j.get(key.split('.').next_back().unwrap_or(key)) {
            Some(v) => as_num(key, v),
            None => Ok(default),
        }
    };
    let get_u32 = |key: &'static str, default: u32| -> Result<u32, ParseError> {
        match j.get(key.split('.').next_back().unwrap_or(key)) {
            Some(v) => as_u32(key, v),
            None => Ok(default),
        }
    };
    let policy = match name.to_ascii_lowercase().as_str() {
        "fifo" => {
            reject_unknown(fields, &["name"])?;
            Policy::Fifo
        }
        "threshold-defer" => {
            reject_unknown(fields, &["name", "threshold_g_per_kwh"])?;
            Policy::ThresholdDefer {
                threshold_g_per_kwh: get_num("policy.threshold_g_per_kwh", 150.0)?,
            }
        }
        "greenest-window" => {
            reject_unknown(fields, &["name", "horizon_hours"])?;
            Policy::GreenestWindow {
                horizon_hours: get_u32("policy.horizon_hours", 24)?,
            }
        }
        "lowest-intensity-region" => {
            reject_unknown(fields, &["name"])?;
            Policy::LowestIntensityRegion
        }
        "region-and-time" => {
            reject_unknown(fields, &["name", "horizon_hours"])?;
            Policy::RegionAndTime {
                horizon_hours: get_u32("policy.horizon_hours", 24)?,
            }
        }
        "temporal-shift" => {
            reject_unknown(fields, &["name", "slack_hours"])?;
            Policy::TemporalShift {
                slack_hours: get_u32("policy.slack_hours", 24)?,
            }
        }
        "spatio-temporal" => {
            reject_unknown(fields, &["name", "slack_hours"])?;
            Policy::SpatioTemporal {
                slack_hours: get_u32("policy.slack_hours", 24)?,
            }
        }
        other => {
            return Err(ParseError::UnknownValue {
                field: "policy.name",
                value: other.to_string(),
                expected: &POLICY_VALUES,
            })
        }
    };
    Ok(policy)
}

fn policy_to_json(p: Policy) -> String {
    match p {
        Policy::Fifo => esc("fifo"),
        Policy::LowestIntensityRegion => esc("lowest-intensity-region"),
        Policy::ThresholdDefer {
            threshold_g_per_kwh,
        } => format!(
            "{{\"name\": \"threshold-defer\", \"threshold_g_per_kwh\": {}}}",
            fmt_f64(threshold_g_per_kwh)
        ),
        Policy::GreenestWindow { horizon_hours } => {
            format!("{{\"name\": \"greenest-window\", \"horizon_hours\": {horizon_hours}}}")
        }
        Policy::RegionAndTime { horizon_hours } => {
            format!("{{\"name\": \"region-and-time\", \"horizon_hours\": {horizon_hours}}}")
        }
        Policy::TemporalShift { slack_hours } => {
            format!("{{\"name\": \"temporal-shift\", \"slack_hours\": {slack_hours}}}")
        }
        Policy::SpatioTemporal { slack_hours } => {
            format!("{{\"name\": \"spatio-temporal\", \"slack_hours\": {slack_hours}}}")
        }
    }
}

// ---- Upgrade path ----

fn upgrade_from_json(j: &Json) -> Result<UpgradePath, ParseError> {
    let fields = as_object(j, "upgrade")?;
    reject_unknown(fields, &["from", "to", "suite"])?;
    let node = |field: &'static str, key: &str| -> Result<NodeGen, ParseError> {
        match j.get(key) {
            Some(v) => parse::node_gen(field, as_str(field, v)?),
            None => Err(ParseError::MissingField { field }),
        }
    };
    let from = node("upgrade.from", "from")?;
    let to = node("upgrade.to", "to")?;
    let suite = match j.get("suite") {
        Some(v) => parse::suite("upgrade.suite", as_str("upgrade.suite", v)?)?,
        None => Suite::Nlp,
    };
    Ok(UpgradePath { from, to, suite })
}

fn upgrade_to_json(u: UpgradePath) -> String {
    format!(
        "{{\"from\": {}, \"to\": {}, \"suite\": {}}}",
        esc(parse::node_name(u.from)),
        esc(parse::node_name(u.to)),
        esc(parse::suite_name(u.suite))
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_request_gets_paper_defaults() {
        let r = EstimateRequest::from_json(
            r#"{"schema_version": 1, "system": "frontier", "region": "eso"}"#,
        )
        .unwrap();
        assert_eq!(
            r,
            EstimateRequest::paper_baseline(SystemId::Frontier, OperatorId::Eso)
        );
        assert!(r.validate().is_ok());
    }

    #[test]
    fn full_request_round_trips_through_json() {
        let src = r#"{
            "schema_version": 1,
            "system": "perlmutter",
            "storage": "baseline",
            "region": "ciso",
            "trace": "synthetic",
            "pue": {"mean": 1.3, "amplitude": 0.1},
            "policy": {"name": "temporal-shift", "slack_hours": 48},
            "upgrade": {"from": "p100", "to": "a100", "suite": "vision"},
            "usage": 0.6,
            "seed": 7,
            "year": 2021,
            "jobs": 64,
            "cluster_gpus": 128
        }"#;
        let r = EstimateRequest::from_json(src).unwrap();
        assert_eq!(r.policy, Policy::TemporalShift { slack_hours: 48 });
        assert_eq!(r.source, TraceSource::Synthetic);
        let emitted = r.to_json();
        let back = EstimateRequest::from_json(&emitted).unwrap();
        assert_eq!(back, r);
        // Emission is stable: emit(parse(emit(x))) == emit(x).
        assert_eq!(back.to_json(), emitted);
    }

    #[test]
    fn schema_gate_fires_before_unknown_fields() {
        // A v2 request with fields this build has never heard of must
        // fail with Schema, not UnknownField.
        let e = EstimateRequest::from_json(
            r#"{"schema_version": 2, "system": "frontier", "region": "eso", "novel_axis": 1}"#,
        )
        .unwrap_err();
        assert_eq!(
            e,
            ApiError::Schema {
                found: 2,
                supported: 1
            }
        );
    }

    #[test]
    fn unknown_fields_are_rejected_at_every_level() {
        let top = EstimateRequest::from_json(
            r#"{"schema_version": 1, "system": "frontier", "region": "eso", "colour": "green"}"#,
        )
        .unwrap_err();
        assert!(matches!(
            top,
            ApiError::Parse(ParseError::UnknownField { .. })
        ));
        let nested = EstimateRequest::from_json(
            r#"{"schema_version": 1, "system": "frontier", "region": "eso",
                "upgrade": {"from": "v100", "to": "a100", "budget": 4}}"#,
        )
        .unwrap_err();
        assert!(matches!(
            nested,
            ApiError::Parse(ParseError::UnknownField { .. })
        ));
    }

    #[test]
    fn batch_accepts_object_or_array() {
        let one = EstimateRequest::batch_from_json(
            r#"{"schema_version":1,"system":"lumi","region":"kn"}"#,
        )
        .unwrap();
        assert_eq!(one.len(), 1);
        let two = EstimateRequest::batch_from_json(
            r#"[{"schema_version":1,"system":"lumi","region":"kn"},
                {"schema_version":1,"system":"frontier","region":"eso"}]"#,
        )
        .unwrap();
        assert_eq!(two.len(), 2);
        assert!(EstimateRequest::batch_from_json("42").is_err());
    }

    #[test]
    fn validation_rejects_empty_workloads_and_bad_pue() {
        let mut r = EstimateRequest::paper_baseline(SystemId::Frontier, OperatorId::Eso);
        r.jobs = 0;
        assert!(matches!(
            r.validate().unwrap_err(),
            ApiError::InvalidRequest { field: "jobs", .. }
        ));
        // The upper bound is checked, not run: MAX_JOBS itself validates
        // and one more does not, with the bound in the message.
        let mut r = EstimateRequest::paper_baseline(SystemId::Frontier, OperatorId::Eso);
        r.jobs = MAX_JOBS;
        assert!(r.validate().is_ok());
        r.jobs = MAX_JOBS + 1;
        match r.validate().unwrap_err() {
            ApiError::InvalidRequest {
                field: "jobs",
                reason,
            } => assert_eq!(reason, format!("must be at most {MAX_JOBS}")),
            other => panic!("{other:?}"),
        }
        let mut r = EstimateRequest::paper_baseline(SystemId::Frontier, OperatorId::Eso);
        r.cluster_gpus = 0;
        assert!(matches!(
            r.validate().unwrap_err(),
            ApiError::InvalidRequest {
                field: "cluster_gpus",
                ..
            }
        ));
        let mut r = EstimateRequest::paper_baseline(SystemId::Frontier, OperatorId::Eso);
        r.pue = PueSpec::Constant(0.5);
        assert!(matches!(r.validate().unwrap_err(), ApiError::InvalidPue(_)));
        let mut r = EstimateRequest::paper_baseline(SystemId::Frontier, OperatorId::Eso);
        r.year = 1492;
        assert!(matches!(
            r.validate().unwrap_err(),
            ApiError::InvalidRequest { field: "year", .. }
        ));
    }

    #[test]
    fn every_policy_shape_round_trips() {
        let policies = [
            Policy::Fifo,
            Policy::ThresholdDefer {
                threshold_g_per_kwh: 150.0,
            },
            Policy::GreenestWindow { horizon_hours: 24 },
            Policy::LowestIntensityRegion,
            Policy::RegionAndTime { horizon_hours: 24 },
            Policy::TemporalShift { slack_hours: 6 },
            Policy::SpatioTemporal { slack_hours: 24 },
        ];
        for p in policies {
            let j = policy_to_json(p);
            let back = policy_from_json(&parse_json(&j).unwrap()).unwrap();
            assert_eq!(back, p, "{j}");
        }
    }

    #[test]
    fn partner_field_is_tristate_and_round_trips() {
        // Absent = None = policy decides; emission omits the field.
        let r = EstimateRequest::from_json(
            r#"{"schema_version": 1, "system": "frontier", "region": "eso"}"#,
        )
        .unwrap();
        assert_eq!(r.partner, None);
        assert!(!r.to_json().contains("partner"));
        // Present = forced; emission keeps it and parse → emit is stable.
        for forced in [true, false] {
            let src = format!(
                r#"{{"schema_version": 1, "system": "frontier", "region": "eso", "partner": {forced}}}"#
            );
            let r = EstimateRequest::from_json(&src).unwrap();
            assert_eq!(r.partner, Some(forced));
            let emitted = r.to_json();
            assert!(emitted.contains(&format!("\"partner\": {forced}")));
            assert_eq!(EstimateRequest::from_json(&emitted).unwrap(), r);
        }
        // Non-boolean partner is a typed error.
        assert!(matches!(
            EstimateRequest::from_json(
                r#"{"schema_version": 1, "system": "frontier", "region": "eso", "partner": 1}"#,
            )
            .unwrap_err(),
            ApiError::Parse(ParseError::BadType {
                field: "partner",
                ..
            })
        ));
    }

    #[test]
    fn forecast_field_is_tristate_and_round_trips() {
        // Absent = None = perfect knowledge; emission omits the field,
        // so pre-forecast documents keep their canonical bytes.
        let r = EstimateRequest::from_json(
            r#"{"schema_version": 1, "system": "frontier", "region": "eso"}"#,
        )
        .unwrap();
        assert_eq!(r.forecast, None);
        assert!(!r.to_json().contains("forecast"));
        // Every forecast shape round-trips through emission.
        for (name, model) in [
            ("oracle", ForecastModel::Oracle),
            ("persistence", ForecastModel::Persistence),
            ("day-ahead", ForecastModel::DayAhead),
            ("noisy:15", ForecastModel::Noisy { error_pct: 15 }),
        ] {
            let src = format!(
                r#"{{"schema_version": 1, "system": "frontier", "region": "eso", "forecast": "{name}"}}"#
            );
            let r = EstimateRequest::from_json(&src).unwrap();
            assert_eq!(r.forecast, Some(model));
            let emitted = r.to_json();
            assert!(emitted.contains(&format!("\"forecast\": \"{name}\"")));
            assert_eq!(EstimateRequest::from_json(&emitted).unwrap(), r);
        }
        // Unknown forecast names are typed errors.
        assert!(EstimateRequest::from_json(
            r#"{"schema_version": 1, "system": "frontier", "region": "eso", "forecast": "crystal-ball"}"#,
        )
        .is_err());
    }

    #[test]
    fn canonical_json_is_the_validated_emission() {
        // The serving layer's cache key: equal canonical bytes <=> equal
        // requests, and parse -> canonicalize is stable.
        let r = EstimateRequest::paper_baseline(SystemId::Frontier, OperatorId::Eso);
        let key = r.validate().unwrap().canonical_json();
        assert_eq!(key, r.to_json());
        let reparsed = EstimateRequest::from_json(&key).unwrap();
        assert_eq!(reparsed.validate().unwrap().canonical_json(), key);
        // Any field difference shows up in the canonical bytes —
        // including the tri-state partner (None vs Some are distinct).
        let mut forced = r.clone();
        forced.partner = Some(true);
        assert_ne!(forced.validate().unwrap().canonical_json(), key);
        let mut reseeded = r;
        reseeded.seed = 7;
        assert_ne!(reseeded.validate().unwrap().canonical_json(), key);
    }

    #[test]
    fn zero_amplitude_pue_normalizes_to_constant() {
        // `{"mean": 1.2}` and `1.2` are the same model and must take the
        // same accounting path.
        for src in [
            r#"{"schema_version": 1, "system": "frontier", "region": "eso", "pue": {"mean": 1.2}}"#,
            r#"{"schema_version": 1, "system": "frontier", "region": "eso",
                "pue": {"mean": 1.2, "amplitude": 0}}"#,
            r#"{"schema_version": 1, "system": "frontier", "region": "eso", "pue": 1.2}"#,
        ] {
            let r = EstimateRequest::from_json(src).unwrap();
            assert_eq!(r.pue, PueSpec::Constant(1.2), "{src}");
        }
    }

    #[test]
    fn out_of_range_seed_is_rejected_not_saturated() {
        // 2^64 is not representable as a u64; an inclusive f64 bound
        // would silently saturate it to u64::MAX.
        let e = EstimateRequest::from_json(
            r#"{"schema_version": 1, "system": "frontier", "region": "eso",
                "seed": 18446744073709551616}"#,
        )
        .unwrap_err();
        assert!(matches!(
            e,
            ApiError::Parse(ParseError::BadNumber { field: "seed", .. })
        ));
        // The largest exactly-representable u64 below 2^64 still parses.
        let r = EstimateRequest::from_json(
            r#"{"schema_version": 1, "system": "frontier", "region": "eso",
                "seed": 18446744073709549568}"#,
        )
        .unwrap();
        assert_eq!(r.seed, 18446744073709549568);
    }

    #[test]
    fn typed_errors_name_the_offending_field() {
        let e = EstimateRequest::from_json(
            r#"{"schema_version": 1, "system": "cray-1", "region": "eso"}"#,
        )
        .unwrap_err();
        assert!(e.to_string().contains("cray-1"), "{e}");
        assert!(e.to_string().contains("frontier"), "{e}");
        let e = EstimateRequest::from_json(
            r#"{"schema_version": 1, "system": "frontier", "region": "eso", "seed": 1.5}"#,
        )
        .unwrap_err();
        assert!(matches!(
            e,
            ApiError::Parse(ParseError::BadNumber { field: "seed", .. })
        ));
        let e = EstimateRequest::from_json(
            r#"{"schema_version": 1, "system": "frontier", "region": "eso", "usage": 1.5}"#,
        )
        .unwrap_err();
        assert!(matches!(
            e,
            ApiError::Parse(ParseError::BadNumber { field: "usage", .. })
        ));
    }
}
