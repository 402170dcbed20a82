//! Structured errors and numerical-health policies for fault-tolerant
//! execution.
//!
//! The engine's hot paths fan work out across `qdp_par` workers and trust
//! amplitudes to stay finite and norm-preserving between measurement
//! boundaries. [`QdpError`] is the typed surface a caller sees when either
//! assumption breaks: a worker tile panicked ([`QdpError::WorkerPanic`],
//! lifted from [`qdp_par::TileError`]), an amplitude sweep observed a
//! NaN/Inf ([`QdpError::NonFinite`]) or a norm that drifted outside
//! tolerance ([`QdpError::NormDrift`]), or a shot budget was asked for at
//! an invalid precision ([`QdpError::InvalidPrecision`]).
//!
//! [`HealthPolicy`] selects what a monitored engine does when a row fails
//! a health check; [`HealthConfig`] pairs the policy with the drift
//! tolerance. Monitoring is opt-in per engine — the default (no monitor)
//! adds zero work and keeps results bit-identical to the unmonitored
//! engine.

/// What a health-monitored engine does when a row fails a numerical check
/// at a measurement boundary.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HealthPolicy {
    /// Abort the sweep with a typed [`QdpError`] naming the first failing
    /// row (lowest original row index — deterministic under any thread
    /// count).
    FailFast,
    /// Rescale the drifted row back to its expected norm and continue.
    /// Only finite drift is repairable: NaN/Inf amplitudes still fail
    /// fast, because there is no scale factor that undoes them.
    Renormalize,
    /// Drop the affected rows from the batched sweep and re-run each of
    /// them from its original input on the retained per-row reference
    /// path (serial branch enumeration for exact sweeps, serial
    /// trajectory replay for sampled sweeps). Healthy rows keep their
    /// batched bits.
    DegradeToOracle,
}

/// Per-engine numerical-health configuration: the recovery policy plus the
/// relative norm-drift tolerance.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HealthConfig {
    /// Recovery policy for rows that fail a check.
    pub policy: HealthPolicy,
    /// Maximum tolerated relative drift `|actual − expected| / expected`
    /// of a row's squared norm between measurement boundaries. Unitary
    /// gates preserve norms to machine precision, so a handful of ulps of
    /// headroom suffices; the default is `1e-9`.
    pub drift_tol: f64,
}

impl HealthConfig {
    /// A config with the given policy and the default `1e-9` drift
    /// tolerance.
    pub fn with_policy(policy: HealthPolicy) -> Self {
        HealthConfig { policy, drift_tol: 1e-9 }
    }
}

impl Default for HealthConfig {
    fn default() -> Self {
        HealthConfig::with_policy(HealthPolicy::FailFast)
    }
}

/// A structured execution error: the typed alternative to the panics the
/// infallible entry points keep for backwards compatibility.
#[derive(Clone, Debug, PartialEq)]
pub enum QdpError {
    /// A `qdp_par` worker tile panicked (and bounded retries, when
    /// enabled, did not heal it).
    WorkerPanic {
        /// Index of the failing tile in its fan-out.
        tile: usize,
        /// The original panic message.
        message: String,
    },
    /// A row's amplitudes produced a non-finite squared norm or branch
    /// probability at a measurement boundary.
    NonFinite {
        /// Original (pre-regrouping) row index in the caller's batch.
        row: usize,
        /// Which sweep observed it, e.g. `"row norms"` or
        /// `"branch probabilities"`.
        context: &'static str,
    },
    /// A row's squared norm drifted from its expected value by more than
    /// the configured tolerance.
    NormDrift {
        /// Original (pre-regrouping) row index in the caller's batch.
        row: usize,
        /// The squared norm the row should carry at this boundary.
        expected: f64,
        /// The squared norm the sweep observed.
        actual: f64,
        /// The relative tolerance that was exceeded.
        tolerance: f64,
    },
    /// A Chernoff shot budget was requested with a precision δ that is
    /// not finite and positive, or one so small that the budget
    /// `⌈(m/δ)²⌉` has no `usize` representation (the naive float cast
    /// would saturate silently).
    InvalidPrecision {
        /// The rejected δ (or m, as named by the message).
        value: f64,
        /// Which input was rejected.
        what: &'static str,
    },
    /// A service request waited past its deadline while still queued
    /// (never admitted into a sweep), and was removed from the queue.
    DeadlineExceeded {
        /// The configured deadline, in milliseconds.
        deadline_ms: u64,
    },
    /// A service request was shed at submission because the tenant's
    /// pending queue was at its configured bound.
    Overloaded {
        /// Requests pending on the tenant when this one was rejected.
        pending: usize,
        /// The configured per-tenant queue bound.
        max_pending: usize,
    },
    /// A coalesced sweep died — a leader panicked mid-sweep (or its
    /// tenant lock was poisoned by a panicking holder) and the bounded
    /// re-serve budget was exhausted, so the group's members were failed
    /// with this typed error instead of hanging.
    ServicePanic {
        /// The panic message of the failed sweep (or a poison note).
        message: String,
    },
}

impl std::fmt::Display for QdpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QdpError::WorkerPanic { tile, message } => {
                write!(f, "worker tile {tile} panicked: {message}")
            }
            QdpError::NonFinite { row, context } => {
                write!(f, "row {row} produced a non-finite value in {context}")
            }
            QdpError::NormDrift { row, expected, actual, tolerance } => write!(
                f,
                "row {row} norm drifted: expected {expected}, got {actual} \
                 (relative tolerance {tolerance})"
            ),
            QdpError::InvalidPrecision { value, what } => {
                if value.is_finite() && *value > 0.0 {
                    // A finite positive value can only be rejected because
                    // the shot budget it implies has no machine
                    // representation.
                    write!(
                        f,
                        "{what} {value} is too demanding: the shot budget \
                         ⌈(m/δ)²⌉ overflows usize"
                    )
                } else {
                    write!(f, "{what} must be finite and positive, got {value}")
                }
            }
            QdpError::DeadlineExceeded { deadline_ms } => {
                write!(f, "request deadline of {deadline_ms} ms exceeded while queued")
            }
            QdpError::Overloaded { pending, max_pending } => write!(
                f,
                "tenant overloaded: {pending} requests pending at the \
                 configured bound of {max_pending}"
            ),
            QdpError::ServicePanic { message } => {
                write!(f, "coalesced sweep failed: {message}")
            }
        }
    }
}

impl std::error::Error for QdpError {}

impl From<qdp_par::TileError> for QdpError {
    fn from(e: qdp_par::TileError) -> Self {
        QdpError::WorkerPanic { tile: e.index, message: e.message }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = QdpError::NormDrift { row: 3, expected: 1.0, actual: 0.5, tolerance: 1e-9 };
        let s = e.to_string();
        assert!(s.contains("row 3") && s.contains("0.5"), "{s}");

        let e = QdpError::from(qdp_par::TileError {
            index: 2,
            message: "boom".to_string(),
        });
        assert_eq!(e, QdpError::WorkerPanic { tile: 2, message: "boom".to_string() });
        assert!(e.to_string().contains("tile 2"));
    }

    #[test]
    fn service_robustness_errors_name_their_limits() {
        let e = QdpError::DeadlineExceeded { deadline_ms: 25 };
        assert!(e.to_string().contains("25 ms"), "{e}");

        let e = QdpError::Overloaded { pending: 8, max_pending: 8 };
        let s = e.to_string();
        assert!(s.contains("8 requests") && s.contains("bound of 8"), "{s}");

        let e = QdpError::ServicePanic { message: "injected fault".to_string() };
        assert!(e.to_string().contains("injected fault"), "{e}");
    }

    #[test]
    fn default_health_config_fails_fast_with_tight_tolerance() {
        let cfg = HealthConfig::default();
        assert_eq!(cfg.policy, HealthPolicy::FailFast);
        assert!(cfg.drift_tol > 0.0 && cfg.drift_tol <= 1e-8);
    }
}
