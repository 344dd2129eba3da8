//! Concrete quantity types and their physically meaningful cross-operations.

use core::fmt;

quantity!(
    /// A mass of CO₂-equivalent emissions. Stored in grams (gCO₂e).
    ///
    /// The paper reports embodied carbon in gCO₂/kgCO₂ (Eqs. 2–5) and
    /// operational carbon via Eq. 6.
    CarbonMass,
    "gCO2"
);

quantity!(
    /// Electrical energy. Stored in kilowatt-hours (kWh), the unit used by
    /// the paper's Eq. 6.
    Energy,
    "kWh"
);

quantity!(
    /// Instantaneous electrical power. Stored in watts.
    Power,
    "W"
);

quantity!(
    /// Grid carbon intensity: emissions per unit of energy produced.
    /// Stored in gCO₂/kWh, the unit of the paper's `I_sys`.
    CarbonIntensity,
    "gCO2/kWh"
);

quantity!(
    /// A span of time. Stored in hours (the resolution of the paper's grid
    /// traces and the natural unit for kWh arithmetic).
    TimeSpan,
    "h"
);

quantity!(
    /// Silicon die area. Stored in mm² (the unit die areas are reported in
    /// by vendors); fab densities are per cm², conversions are handled by
    /// the cross-ops.
    SiliconArea,
    "mm2"
);

quantity!(
    /// Fab carbon emitted per unit wafer area (the paper's FPA, GPA and MPA
    /// terms of Eq. 3). Stored in gCO₂/cm².
    CarbonAreaDensity,
    "gCO2/cm2"
);

quantity!(
    /// Data capacity of a memory or storage device. Stored in GB
    /// (decimal, 10⁹ bytes, matching vendor capacity marketing and the
    /// paper's EPC units).
    DataCapacity,
    "GB"
);

quantity!(
    /// Manufacturing emissions per unit capacity (the paper's EPC term of
    /// Eq. 4). Stored in gCO₂/GB.
    CarbonPerCapacity,
    "gCO2/GB"
);

quantity!(
    /// Sustained data bandwidth. Stored in GB/s (Fig. 2's normalization
    /// basis).
    Bandwidth,
    "GB/s"
);

quantity!(
    /// Floating-point compute rate. Stored in GFLOPS; the paper normalizes
    /// Fig. 1 by theoretical FP64 TFLOPS.
    ComputeRate,
    "GFLOPS"
);

// ---------------------------------------------------------------------------
// Constructors / accessors
// ---------------------------------------------------------------------------

impl CarbonMass {
    /// From grams of CO₂e.
    #[inline]
    pub const fn from_g(g: f64) -> Self {
        Self(g)
    }
    /// In grams.
    #[inline]
    pub const fn as_g(self) -> f64 {
        self.0
    }
    /// In kilograms.
    #[inline]
    pub fn as_kg(self) -> f64 {
        self.0 / 1e3
    }
    /// In metric tonnes.
    #[inline]
    pub fn as_t(self) -> f64 {
        self.0 / 1e6
    }
}

impl Energy {
    /// From kilowatt-hours.
    #[inline]
    pub const fn from_kwh(kwh: f64) -> Self {
        Self(kwh)
    }
    /// From watt-hours.
    #[inline]
    pub const fn from_wh(wh: f64) -> Self {
        Self(wh / 1e3)
    }
    /// In kilowatt-hours.
    #[inline]
    pub const fn as_kwh(self) -> f64 {
        self.0
    }
    /// In watt-hours.
    #[inline]
    pub fn as_wh(self) -> f64 {
        self.0 * 1e3
    }
    /// In megawatt-hours.
    #[inline]
    pub fn as_mwh(self) -> f64 {
        self.0 / 1e3
    }
}

impl Power {
    /// From watts.
    #[inline]
    pub const fn from_w(w: f64) -> Self {
        Self(w)
    }
    /// In watts.
    #[inline]
    pub const fn as_w(self) -> f64 {
        self.0
    }
    /// In kilowatts.
    #[inline]
    pub fn as_kw(self) -> f64 {
        self.0 / 1e3
    }
    /// In megawatts.
    #[inline]
    pub fn as_mw(self) -> f64 {
        self.0 / 1e6
    }
}

impl CarbonIntensity {
    /// From gCO₂ per kWh.
    #[inline]
    pub const fn from_g_per_kwh(g: f64) -> Self {
        Self(g)
    }
    /// In gCO₂ per kWh.
    #[inline]
    pub const fn as_g_per_kwh(self) -> f64 {
        self.0
    }
}

impl TimeSpan {
    /// From hours.
    #[inline]
    pub const fn from_hours(h: f64) -> Self {
        Self(h)
    }
    /// From accounting years (365 days = 8760 h; the paper studies the
    /// non-leap year 2021).
    #[inline]
    pub const fn from_years(y: f64) -> Self {
        Self(y * 8760.0)
    }
    /// In hours.
    #[inline]
    pub const fn as_hours(self) -> f64 {
        self.0
    }
    /// In seconds.
    #[inline]
    pub fn as_seconds(self) -> f64 {
        self.0 * 3600.0
    }
    /// In days.
    #[inline]
    pub fn as_days(self) -> f64 {
        self.0 / 24.0
    }
    /// In accounting years.
    #[inline]
    pub fn as_years(self) -> f64 {
        self.0 / 8760.0
    }
}

impl SiliconArea {
    /// From square millimetres.
    #[inline]
    pub const fn from_mm2(mm2: f64) -> Self {
        Self(mm2)
    }
    /// In square millimetres.
    #[inline]
    pub const fn as_mm2(self) -> f64 {
        self.0
    }
    /// In square centimetres.
    #[inline]
    pub fn as_cm2(self) -> f64 {
        self.0 / 100.0
    }
}

impl CarbonAreaDensity {
    /// From gCO₂ per cm².
    #[inline]
    pub const fn from_g_per_cm2(g: f64) -> Self {
        Self(g)
    }
    /// In gCO₂ per cm².
    #[inline]
    pub const fn as_g_per_cm2(self) -> f64 {
        self.0
    }
}

impl DataCapacity {
    /// From gigabytes (decimal).
    #[inline]
    pub const fn from_gb(gb: f64) -> Self {
        Self(gb)
    }
    /// From terabytes (decimal).
    #[inline]
    pub const fn from_tb(tb: f64) -> Self {
        Self(tb * 1e3)
    }
    /// In gigabytes.
    #[inline]
    pub const fn as_gb(self) -> f64 {
        self.0
    }
    /// In terabytes.
    #[inline]
    pub fn as_tb(self) -> f64 {
        self.0 / 1e3
    }
    /// In petabytes.
    #[inline]
    pub fn as_pb(self) -> f64 {
        self.0 / 1e6
    }
}

impl CarbonPerCapacity {
    /// From gCO₂ per GB.
    #[inline]
    pub const fn from_g_per_gb(g: f64) -> Self {
        Self(g)
    }
    /// In gCO₂ per GB.
    #[inline]
    pub const fn as_g_per_gb(self) -> f64 {
        self.0
    }
}

impl Bandwidth {
    /// From GB/s.
    #[inline]
    pub const fn from_gbps(gbps: f64) -> Self {
        Self(gbps)
    }
    /// From MB/s.
    #[inline]
    pub const fn from_mbps(mbps: f64) -> Self {
        Self(mbps / 1e3)
    }
    /// In GB/s.
    #[inline]
    pub const fn as_gbps(self) -> f64 {
        self.0
    }
}

impl ComputeRate {
    /// From GFLOPS.
    #[inline]
    pub const fn from_gflops(g: f64) -> Self {
        Self(g)
    }
    /// From TFLOPS.
    #[inline]
    pub const fn from_tflops(t: f64) -> Self {
        Self(t * 1e3)
    }
    /// In GFLOPS.
    #[inline]
    pub const fn as_gflops(self) -> f64 {
        self.0
    }
    /// In TFLOPS.
    #[inline]
    pub fn as_tflops(self) -> f64 {
        self.0 / 1e3
    }
}

// ---------------------------------------------------------------------------
// Cross-dimension operations
// ---------------------------------------------------------------------------

// Eq. 6: I_sys [g/kWh] × E_op [kWh] = C_op [g]. Direct in storage units.
cross_mul!(CarbonIntensity * Energy = CarbonMass);

// Eq. 4: EPC [g/GB] × Capacity [GB] = M_m/s [g]. Direct in storage units.
cross_mul!(CarbonPerCapacity * DataCapacity = CarbonMass);

// Power × time = energy: W × h = Wh = 1e-3 kWh (manual conversion).
impl core::ops::Mul<TimeSpan> for Power {
    type Output = Energy;
    #[inline]
    fn mul(self, rhs: TimeSpan) -> Energy {
        Energy::from_wh(self.0 * rhs.0)
    }
}

impl core::ops::Mul<Power> for TimeSpan {
    type Output = Energy;
    #[inline]
    fn mul(self, rhs: Power) -> Energy {
        rhs * self
    }
}

impl core::ops::Div<TimeSpan> for Energy {
    type Output = Power;
    #[inline]
    fn div(self, rhs: TimeSpan) -> Power {
        Power::from_w(self.as_wh() / rhs.0)
    }
}

impl core::ops::Div<Power> for Energy {
    type Output = TimeSpan;
    #[inline]
    fn div(self, rhs: Power) -> TimeSpan {
        TimeSpan::from_hours(self.as_wh() / rhs.0)
    }
}

// Eq. 3: density [g/cm²] × area [mm²] = mass; 1 mm² = 0.01 cm².
impl core::ops::Mul<SiliconArea> for CarbonAreaDensity {
    type Output = CarbonMass;
    #[inline]
    fn mul(self, rhs: SiliconArea) -> CarbonMass {
        CarbonMass::from_g(self.0 * rhs.as_cm2())
    }
}

impl core::ops::Mul<CarbonAreaDensity> for SiliconArea {
    type Output = CarbonMass;
    #[inline]
    fn mul(self, rhs: CarbonAreaDensity) -> CarbonMass {
        rhs * self
    }
}

// Bandwidth × time = data moved: GB/s × h = GB × 3600.
impl core::ops::Mul<TimeSpan> for Bandwidth {
    type Output = DataCapacity;
    #[inline]
    fn mul(self, rhs: TimeSpan) -> DataCapacity {
        DataCapacity::from_gb(self.0 * rhs.as_seconds())
    }
}

// ---------------------------------------------------------------------------
// Display
// ---------------------------------------------------------------------------

impl fmt::Display for CarbonMass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.abs() >= 1e6 {
            write!(f, "{:.2} tCO2", self.as_t())
        } else if self.0.abs() >= 1e3 {
            write!(f, "{:.2} kgCO2", self.as_kg())
        } else {
            write!(f, "{:.1} gCO2", self.0)
        }
    }
}

impl fmt::Display for Energy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.abs() >= 1e3 {
            write!(f, "{:.2} MWh", self.as_mwh())
        } else {
            write!(f, "{:.2} kWh", self.0)
        }
    }
}

impl fmt::Display for Power {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.abs() >= 1e6 {
            write!(f, "{:.2} MW", self.as_mw())
        } else if self.0.abs() >= 1e3 {
            write!(f, "{:.2} kW", self.as_kw())
        } else {
            write!(f, "{:.1} W", self.0)
        }
    }
}

impl fmt::Display for CarbonIntensity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1} gCO2/kWh", self.0)
    }
}

impl fmt::Display for TimeSpan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.abs() >= 8760.0 {
            write!(f, "{:.2} y", self.as_years())
        } else if self.0.abs() >= 48.0 {
            write!(f, "{:.1} d", self.as_days())
        } else {
            write!(f, "{:.2} h", self.0)
        }
    }
}

impl fmt::Display for SiliconArea {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.0} mm2", self.0)
    }
}

impl fmt::Display for DataCapacity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.abs() >= 1e6 {
            write!(f, "{:.1} PB", self.as_pb())
        } else if self.0.abs() >= 1e3 {
            write!(f, "{:.1} TB", self.as_tb())
        } else {
            write!(f, "{:.0} GB", self.0)
        }
    }
}

impl fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2} GB/s", self.0)
    }
}

impl fmt::Display for ComputeRate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.abs() >= 1e3 {
            write!(f, "{:.2} TFLOPS", self.as_tflops())
        } else {
            write!(f, "{:.1} GFLOPS", self.0)
        }
    }
}

impl fmt::Display for CarbonAreaDensity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1} gCO2/cm2", self.0)
    }
}

impl fmt::Display for CarbonPerCapacity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2} gCO2/GB", self.0)
    }
}
