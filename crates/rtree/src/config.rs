use std::fmt;

use crate::split::SplitMethod;

/// Degree bounds and split method of an R-tree node — the DR-tree
/// overlay's `DrTreeConfig::degree`.
///
/// The paper's structural constraints (§2.2): every node holds between
/// `m` and `M` entries (the root excepted), and "m must be chosen such
/// that M ≥ 2m" so that a split can give each side at least `m` entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RTreeConfig {
    min_entries: usize,
    max_entries: usize,
    split: SplitMethod,
}

/// Error returned for degree bounds that violate the R-tree constraints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// `m` must be at least 1.
    MinTooSmall,
    /// `M ≥ 2m` must hold (paper §3.2) so splits can satisfy both groups.
    MaxLessThanTwiceMin {
        /// Provided minimum `m`.
        min: usize,
        /// Provided maximum `M`.
        max: usize,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::MinTooSmall => f.write_str("min_entries (m) must be at least 1"),
            ConfigError::MaxLessThanTwiceMin { min, max } => write!(
                f,
                "max_entries (M = {max}) must be at least twice min_entries (m = {min})"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

impl RTreeConfig {
    /// Creates a configuration with minimum degree `m`, maximum degree
    /// `M`, and the given split method.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] unless `1 ≤ m` and `2m ≤ M`.
    pub fn new(m: usize, max: usize, split: SplitMethod) -> Result<Self, ConfigError> {
        if m < 1 {
            return Err(ConfigError::MinTooSmall);
        }
        if max < 2 * m {
            return Err(ConfigError::MaxLessThanTwiceMin { min: m, max });
        }
        Ok(Self {
            min_entries: m,
            max_entries: max,
            split,
        })
    }

    /// Minimum entries per non-root node (`m`).
    pub fn min_entries(&self) -> usize {
        self.min_entries
    }

    /// Maximum entries per node (`M`).
    pub fn max_entries(&self) -> usize {
        self.max_entries
    }

    /// The children-set split method.
    pub fn split_method(&self) -> SplitMethod {
        self.split
    }
}

impl Default for RTreeConfig {
    /// `m = 2`, `M = 4`, quadratic split — the classic textbook setting.
    fn default() -> Self {
        Self {
            min_entries: 2,
            max_entries: 4,
            split: SplitMethod::Quadratic,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_configs() {
        assert!(RTreeConfig::new(1, 2, SplitMethod::Linear).is_ok());
        assert!(RTreeConfig::new(2, 4, SplitMethod::Quadratic).is_ok());
        assert!(RTreeConfig::new(4, 16, SplitMethod::RStar).is_ok());
    }

    #[test]
    fn invalid_configs() {
        assert_eq!(
            RTreeConfig::new(0, 4, SplitMethod::Linear),
            Err(ConfigError::MinTooSmall)
        );
        assert_eq!(
            RTreeConfig::new(3, 5, SplitMethod::Linear),
            Err(ConfigError::MaxLessThanTwiceMin { min: 3, max: 5 })
        );
    }

    #[test]
    fn default_is_valid() {
        let c = RTreeConfig::default();
        assert!(RTreeConfig::new(c.min_entries(), c.max_entries(), c.split_method()).is_ok());
    }

    #[test]
    fn error_display() {
        let e = RTreeConfig::new(3, 5, SplitMethod::Linear).unwrap_err();
        assert!(e.to_string().contains("twice"));
    }
}
