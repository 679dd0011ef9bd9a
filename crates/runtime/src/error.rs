//! Failure surface of the campaign engine.

use hsm_scenario::runner::ScenarioError;
use std::fmt;
use std::path::PathBuf;

/// Failures of the flow cache's disk tier.
///
/// Corrupt entries are *not* errors: the engine detects them via the
/// entry's integrity check, counts them in the [`CampaignReport`](crate::engine::CampaignReport)
/// and re-simulates — only real I/O failures surface here.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CacheError {
    /// Reading or writing a disk-tier entry failed.
    Io {
        /// The entry path involved.
        path: PathBuf,
        /// The underlying I/O error, stringified.
        message: String,
    },
}

impl fmt::Display for CacheError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CacheError::Io { path, message } => {
                write!(f, "cache I/O failure at {}: {message}", path.display())
            }
        }
    }
}

impl std::error::Error for CacheError {}

/// Failures of campaign construction or execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// A scenario configuration in the campaign failed validation.
    InvalidConfig {
        /// Index of the offending configuration within the campaign.
        index: usize,
        /// The validation failure.
        source: ScenarioError,
    },
    /// A flow aborted mid-simulation — the engine reported internal
    /// bookkeeping corruption for that run.
    FlowFailed {
        /// Index of the flow within the campaign.
        index: usize,
        /// The underlying scenario/engine failure.
        source: ScenarioError,
    },
    /// The campaign was built with a zero worker count.
    ZeroWorkers,
    /// A worker thread stopped before delivering all of its results.
    WorkerLost,
    /// The cache's disk tier failed.
    Cache(CacheError),
    /// Sharded execution or the shard merge failed: bad partition
    /// indices, missing/duplicate/inconsistent shard reports, or shard
    /// file I/O.
    ShardMerge {
        /// Human-readable description naming the offending shard or file.
        detail: String,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::InvalidConfig { index, source } => {
                write!(f, "campaign config #{index} is invalid: {source}")
            }
            EngineError::FlowFailed { index, source } => {
                write!(f, "campaign flow #{index} aborted: {source}")
            }
            EngineError::ZeroWorkers => write!(f, "campaign worker count must be >= 1"),
            EngineError::WorkerLost => {
                write!(f, "a campaign worker exited before delivering its results")
            }
            EngineError::Cache(e) => write!(f, "{e}"),
            EngineError::ShardMerge { detail } => write!(f, "shard merge failure: {detail}"),
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::InvalidConfig { source, .. } => Some(source),
            EngineError::FlowFailed { source, .. } => Some(source),
            EngineError::Cache(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CacheError> for EngineError {
    fn from(e: CacheError) -> Self {
        EngineError::Cache(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let e = EngineError::InvalidConfig {
            index: 3,
            source: ScenarioError::ZeroWindow,
        };
        assert!(e.to_string().contains("#3"));
        assert!(e.to_string().contains("w_m"));
        let c = CacheError::Io {
            path: PathBuf::from("/tmp/x"),
            message: "denied".into(),
        };
        assert!(EngineError::from(c).to_string().contains("denied"));
        let s = EngineError::ShardMerge {
            detail: "shard 2 of 4 missing".into(),
        };
        assert!(s.to_string().contains("shard 2 of 4 missing"));
    }
}
