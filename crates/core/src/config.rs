//! Shared protocol configuration.

use st_ga::Thresholds;
use st_messages::KeyDirectory;
use st_types::Params;
use std::sync::Arc;

/// Configuration shared by all processes of one protocol instance:
/// validated [`Params`], the derived grading [`Thresholds`], the system
/// seed, and the public-key directory.
///
/// Cloning is cheap (the directory is behind an [`Arc`]).
#[derive(Clone, Debug)]
pub struct TobConfig {
    params: Params,
    thresholds: Thresholds,
    seed: u64,
    directory: Arc<KeyDirectory>,
}

impl TobConfig {
    /// Builds the configuration for a system described by `params` under a
    /// deterministic `seed` (key derivation, VRFs and any randomness
    /// derive from it).
    pub fn new(params: Params, seed: u64) -> TobConfig {
        TobConfig {
            params,
            thresholds: Thresholds::new(params.failure_ratio()),
            seed,
            directory: Arc::new(KeyDirectory::derive(params.n(), seed)),
        }
    }

    /// The validated protocol parameters.
    pub fn params(&self) -> &Params {
        &self.params
    }

    /// The grading thresholds (`β`-derived).
    pub fn thresholds(&self) -> Thresholds {
        self.thresholds
    }

    /// The system seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The public-key directory.
    pub fn directory(&self) -> &KeyDirectory {
        &self.directory
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_types::ProcessId;

    #[test]
    fn config_derives_directory_of_n_keys() {
        let params = Params::builder(5).build().unwrap();
        let cfg = TobConfig::new(params, 42);
        assert!(cfg.directory().sender(ProcessId::new(4)).is_some());
        assert!(cfg.directory().sender(ProcessId::new(5)).is_none());
        assert_eq!(cfg.seed(), 42);
        assert!((cfg.thresholds().beta() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn clone_shares_directory() {
        let cfg = TobConfig::new(Params::builder(3).build().unwrap(), 1);
        let cfg2 = cfg.clone();
        assert!(Arc::ptr_eq(&cfg.directory, &cfg2.directory));
    }
}
