//! The unified error type of the facade crate.
//!
//! Every fallible entry point in the workspace reports through one of
//! four layer-specific errors — scenario validation ([`ScenarioError`]),
//! declarative spec loading ([`SpecError`]), campaign execution
//! ([`EngineError`]) or the flow cache's disk tier ([`CacheError`]).
//! [`Error`] wraps all four so application code can use a single
//! `Result<_, hsm::Error>` and `?` across layers.

use hsm_runtime::error::{CacheError, EngineError};
use hsm_scenario::runner::ScenarioError;
use hsm_scenario::spec::SpecError;
use std::fmt;

/// Any failure the `hsm` workspace can report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// A scenario configuration failed validation.
    Scenario(ScenarioError),
    /// A declarative campaign spec failed to load or validate.
    Spec(SpecError),
    /// The campaign engine failed (invalid campaign, dead worker, …).
    Engine(EngineError),
    /// The flow cache's disk tier failed.
    Cache(CacheError),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Scenario(e) => write!(f, "scenario: {e}"),
            Error::Spec(e) => write!(f, "spec: {e}"),
            Error::Engine(e) => write!(f, "engine: {e}"),
            Error::Cache(e) => write!(f, "cache: {e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Scenario(e) => Some(e),
            Error::Spec(e) => Some(e),
            Error::Engine(e) => Some(e),
            Error::Cache(e) => Some(e),
        }
    }
}

impl From<ScenarioError> for Error {
    fn from(e: ScenarioError) -> Self {
        Error::Scenario(e)
    }
}

impl From<SpecError> for Error {
    fn from(e: SpecError) -> Self {
        Error::Spec(e)
    }
}

impl From<EngineError> for Error {
    fn from(e: EngineError) -> Self {
        Error::Engine(e)
    }
}

impl From<CacheError> for Error {
    fn from(e: CacheError) -> Self {
        Error::Cache(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wraps_every_layer_with_question_mark() {
        fn scenario() -> Result<(), Error> {
            Err(ScenarioError::ZeroWindow)?;
            Ok(())
        }
        fn spec() -> Result<(), Error> {
            Err(hsm_scenario::spec::CampaignSpec::from_toml("").unwrap_err())?;
            Ok(())
        }
        fn engine() -> Result<(), Error> {
            Err(EngineError::ZeroWorkers)?;
            Ok(())
        }
        fn cache() -> Result<(), Error> {
            Err(CacheError::Io {
                path: "entry".into(),
                message: "boom".into(),
            })?;
            Ok(())
        }
        assert!(matches!(scenario(), Err(Error::Scenario(_))));
        assert!(matches!(spec(), Err(Error::Spec(_))));
        assert!(matches!(engine(), Err(Error::Engine(_))));
        assert!(matches!(cache(), Err(Error::Cache(_))));
        let display = format!("{}", spec().unwrap_err());
        assert!(display.starts_with("spec: "), "{display}");
        let display = format!("{}", engine().unwrap_err());
        assert!(display.starts_with("engine: "));
    }
}
