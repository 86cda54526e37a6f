//! The solve environment: the policy every Newton solve runs under.

use crate::health::HealthPolicy;
use crate::mna::NewtonOptions;
use crate::rescue::RescuePolicy;
use crate::solver::SolverConfig;
use crate::Budget;
use ferrocim_telemetry::Telemetry;

/// The solver policy shared by every analysis layer: resource budget,
/// telemetry handle, linear-solver selection, numerical-health policy,
/// Newton options and rescue ladder.
///
/// [`crate::DcAnalysis`], [`crate::TransientAnalysis`] and
/// [`crate::DcSweep`] (and the `ferrocim-cim` arrays built on them)
/// each hold one `SolveEnv`; their `with_*` setters write its fields,
/// and each layer hands the whole environment to the analyses it
/// issues, so a knob set at the top reaches every solve below it.
///
/// # Examples
///
/// ```
/// use ferrocim_spice::{Circuit, DcAnalysis, Element, HealthPolicy, NodeId, SolveEnv};
/// use ferrocim_units::{Ohm, Volt};
///
/// # fn main() -> Result<(), ferrocim_spice::SpiceError> {
/// let mut ckt = Circuit::new();
/// let a = ckt.node("a");
/// ckt.add(Element::vdc("V1", a, NodeId::GROUND, Volt(1.0)))?;
/// ckt.add(Element::resistor("R1", a, NodeId::GROUND, Ohm(1e3)))?;
/// let env = SolveEnv {
///     health: HealthPolicy::off(),
///     ..SolveEnv::default()
/// };
/// let op = DcAnalysis::new(&ckt).with_env(env).solve()?;
/// assert!((op.voltage(a).value() - 1.0).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SolveEnv {
    /// Resource budget charged by every Newton iteration and step.
    pub budget: Budget,
    /// Telemetry handle the solves report through (off by default).
    pub telemetry: Telemetry,
    /// Linear-solver selection applied to the solve's
    /// [`crate::Workspace`]; `None` leaves the workspace's own
    /// selection in force.
    pub solver: Option<SolverConfig>,
    /// Residual certification of every linear solve.
    pub health: HealthPolicy,
    /// Newton iteration knobs.
    pub newton: NewtonOptions,
    /// Convergence-rescue ladder for failed Newton solves.
    pub rescue: RescuePolicy,
}

impl Default for SolveEnv {
    /// Unlimited budget, telemetry off, the workspace's own solver,
    /// certification on, default Newton options, full rescue ladder.
    fn default() -> Self {
        SolveEnv {
            budget: Budget::unlimited(),
            telemetry: Telemetry::off(),
            solver: None,
            health: HealthPolicy::default(),
            newton: NewtonOptions::default(),
            rescue: RescuePolicy::default(),
        }
    }
}
