use ntc_units::Frequency;

/// Errors shared by the fallible constructors across the policy and
/// simulation layers (`SlotContext::try_new`, `SlotPlan::try_new`, the
/// allocator builders, `ntc_datacenter::WeekSim::try_new`, and the
/// experiment engine).
///
/// The `Display` text of each variant contains the exact wording the old
/// panicking constructors used, so callers that matched on panic messages
/// (and `#[should_panic(expected = ...)]` tests) keep working through the
/// thin `new` wrappers.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Error {
    /// The CPU and memory prediction lists differ in length.
    PredictionCountMismatch {
        /// Number of CPU prediction series.
        cpu: usize,
        /// Number of memory prediction series.
        mem: usize,
    },
    /// A context or allocation request carries no VMs.
    NoVms,
    /// The data center was configured with zero servers.
    NoServers,
    /// Prediction series of unequal length were passed for one slot.
    RaggedSeries,
    /// A plan was built over zero servers.
    EmptyPlan,
    /// An assignment refers to a server index outside the plan.
    AssignmentOutOfRange {
        /// The VM with the offending assignment.
        vm: usize,
        /// The server index it was assigned to.
        server: usize,
        /// The number of servers the plan declared.
        num_servers: usize,
    },
    /// A packing cap (CPU or memory) was zero or negative.
    NonPositiveCaps {
        /// The CPU cap, percent of capacity at Fmax.
        cap_cpu: f64,
        /// The memory cap, percent of server memory.
        cap_mem: f64,
    },
    /// The DVFS floor lies above the ceiling.
    InvertedDvfsRange {
        /// The requested floor.
        floor: Frequency,
        /// The requested ceiling.
        ceiling: Frequency,
    },
    /// The planned frequency lies outside `[floor, ceiling]`.
    FrequencyOutsideRange {
        /// The planned frequency.
        planned: Frequency,
        /// The online floor.
        floor: Frequency,
        /// The online ceiling.
        ceiling: Frequency,
    },
    /// An allocator frequency target is zero or above Fmax.
    InvalidFrequencyTarget {
        /// The requested target frequency.
        fopt: Frequency,
        /// The server's maximum frequency.
        fmax: Frequency,
    },
    /// A fleet's horizon is too short for training plus evaluation.
    HorizonTooShort {
        /// Samples the fleet carries.
        have: usize,
        /// Samples required (two weeks).
        need: usize,
    },
    /// An experiment spec contains no runnable cells.
    EmptySpec,
    /// A static-power scale factor is negative, NaN or infinite.
    BadStaticPowerScale {
        /// The offending scale factor.
        scale: f64,
    },
    /// A QoS frequency floor is negative, NaN or infinite.
    BadQosFloor {
        /// The offending floor, in MHz.
        mhz: f64,
    },
    /// An accounting backend could not be constructed for its server
    /// platform (reported per cell by the experiment engine instead of
    /// panicking mid-sweep).
    BackendInit {
        /// The backend's label (`"analytic"`, `"archsim"`).
        backend: String,
        /// What went wrong.
        reason: String,
    },
    /// A fault deliberately injected into one sweep cell by the
    /// engine's fault-injection instrument (testing only; never
    /// produced by a production code path).
    FaultInjected {
        /// Spec-order index of the targeted cell.
        cell: usize,
    },
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::PredictionCountMismatch { cpu, mem } => write!(
                f,
                "need one CPU and one memory prediction per VM \
                 (got {cpu} CPU vs {mem} memory series)"
            ),
            Self::NoVms => write!(f, "context needs at least one VM"),
            Self::NoServers => write!(f, "data center needs at least one server"),
            Self::RaggedSeries => {
                write!(f, "all prediction series must cover the same slot")
            }
            Self::EmptyPlan => write!(f, "plan must use at least one server"),
            Self::AssignmentOutOfRange {
                vm,
                server,
                num_servers,
            } => write!(
                f,
                "assignment to a server beyond num_servers \
                 (VM {vm} on server {server} of {num_servers})"
            ),
            Self::NonPositiveCaps { cap_cpu, cap_mem } => write!(
                f,
                "caps must be positive (got CPU {cap_cpu}, memory {cap_mem})"
            ),
            Self::InvertedDvfsRange { floor, ceiling } => write!(
                f,
                "DVFS floor above the ceiling ({} > {})",
                floor.as_mhz(),
                ceiling.as_mhz()
            ),
            Self::FrequencyOutsideRange {
                planned,
                floor,
                ceiling,
            } => write!(
                f,
                "planned frequency outside the online range \
                 ({} not in [{}, {}] MHz)",
                planned.as_mhz(),
                floor.as_mhz(),
                ceiling.as_mhz()
            ),
            Self::InvalidFrequencyTarget { fopt, fmax } => write!(
                f,
                "Fopt must be positive and cannot exceed Fmax \
                 (got {} with Fmax {} MHz)",
                fopt.as_mhz(),
                fmax.as_mhz()
            ),
            Self::HorizonTooShort { have, need } => write!(
                f,
                "fleet must carry a training week plus the evaluation week \
                 ({have} samples, need {need})"
            ),
            Self::EmptySpec => write!(f, "experiment spec needs at least one cell"),
            Self::BadStaticPowerScale { scale } => write!(
                f,
                "static-power scale must be finite and non-negative (got {scale})"
            ),
            Self::BadQosFloor { mhz } => write!(
                f,
                "QoS floor must be finite and non-negative (got {mhz} MHz)"
            ),
            Self::BackendInit { backend, reason } => {
                write!(f, "backend {backend} failed to initialize: {reason}")
            }
            Self::FaultInjected { cell } => {
                write!(f, "injected fault in cell {cell}")
            }
        }
    }
}

impl std::error::Error for Error {}

/// Failures of the trace-level cache constructors
/// (`ntc_trace::CorrelationCache::try_new`, `ntc_trace::DayCache::try_new`)
/// map onto the shared policy-layer error so `?` composes across the
/// crates.
impl From<ntc_trace::Error> for Error {
    fn from(e: ntc_trace::Error) -> Self {
        match e {
            ntc_trace::Error::EmptySeriesSet => Error::NoVms,
            ntc_trace::Error::RaggedSeries => Error::RaggedSeries,
        }
    }
}

/// Convenience alias for results carrying [`Error`].
pub type Result<T> = std::result::Result<T, Error>;

#[cfg(test)]
mod tests {
    use super::*;

    // The wrappers' panic messages are these Display strings; the
    // substrings asserted here are the ones historical
    // `#[should_panic(expected = ...)]` tests match on.
    #[test]
    fn display_preserves_legacy_panic_wording() {
        let cases: Vec<(Error, &str)> = vec![
            (
                Error::PredictionCountMismatch { cpu: 3, mem: 2 },
                "need one CPU and one memory prediction per VM",
            ),
            (Error::NoVms, "context needs at least one VM"),
            (Error::NoServers, "data center needs at least one server"),
            (
                Error::RaggedSeries,
                "all prediction series must cover the same slot",
            ),
            (Error::EmptyPlan, "plan must use at least one server"),
            (
                Error::AssignmentOutOfRange {
                    vm: 0,
                    server: 5,
                    num_servers: 4,
                },
                "beyond num_servers",
            ),
            (
                Error::NonPositiveCaps {
                    cap_cpu: 0.0,
                    cap_mem: 1.0,
                },
                "caps must be positive",
            ),
            (
                Error::InvertedDvfsRange {
                    floor: Frequency::from_ghz(2.0),
                    ceiling: Frequency::from_ghz(1.0),
                },
                "DVFS floor above the ceiling",
            ),
            (
                Error::FrequencyOutsideRange {
                    planned: Frequency::from_ghz(3.0),
                    floor: Frequency::from_ghz(1.0),
                    ceiling: Frequency::from_ghz(2.0),
                },
                "outside the online range",
            ),
            (
                Error::HorizonTooShort {
                    have: 100,
                    need: 4032,
                },
                "training week",
            ),
            (Error::EmptySpec, "at least one cell"),
            (
                Error::BadStaticPowerScale { scale: -1.0 },
                "finite and non-negative",
            ),
            (
                Error::BadQosFloor { mhz: -5.0 },
                "QoS floor must be finite and non-negative (got -5 MHz)",
            ),
            (
                Error::BackendInit {
                    backend: "archsim".to_string(),
                    reason: "missing kernel".to_string(),
                },
                "failed to initialize",
            ),
            (Error::FaultInjected { cell: 3 }, "injected fault in cell 3"),
        ];
        for (err, needle) in cases {
            let text = err.to_string();
            assert!(
                text.contains(needle),
                "{err:?} must display {needle:?}, got {text:?}"
            );
        }
    }
}
