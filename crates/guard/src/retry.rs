//! Bounded retry policy: the first rung of the execution degradation
//! ladder.
//!
//! A genericity certificate says a morsel (or a fixpoint round) is a
//! parametric computation over a disjoint slice — re-running it cannot
//! change its relationally-determined result. That makes an in-place
//! retry semantically free, so a faulted or panicked task is re-run up
//! to [`RetryPolicy::max_retries`] times before the failure escalates
//! to worker quarantine and, last, the whole-query serial fallback.
//!
//! The default allows 2 retries (3 attempts total); an explicit policy
//! overrides it (`0` disables retries entirely and restores the
//! pre-ladder all-or-nothing behaviour).

use std::fmt;

/// How many times a faulted task may be re-run in place before the
/// failure escalates up the degradation ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries allowed after the first attempt (`0` = no retries).
    pub max_retries: u32,
}

impl RetryPolicy {
    /// The hard ceiling on configurable retries — beyond this a retry
    /// loop is masking a deterministic failure, not riding out a blip.
    pub const MAX_CONFIGURABLE: u32 = 16;

    /// A policy with no retries (first failure escalates immediately).
    pub fn none() -> RetryPolicy {
        RetryPolicy { max_retries: 0 }
    }

    /// Parse a retry count: a non-negative integer up to
    /// [`RetryPolicy::MAX_CONFIGURABLE`].
    pub fn parse(s: &str) -> Result<RetryPolicy, RetrySpecError> {
        let t = s.trim();
        let n: u32 = t.parse().map_err(|_| {
            RetrySpecError(format!(
                "{t:?} is not a retry count (want an integer 0..=16)"
            ))
        })?;
        if n > Self::MAX_CONFIGURABLE {
            return Err(RetrySpecError(format!(
                "retry count {n} too large (max {})",
                Self::MAX_CONFIGURABLE
            )));
        }
        Ok(RetryPolicy { max_retries: n })
    }
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy { max_retries: 2 }
    }
}

/// A malformed retry count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetrySpecError(pub String);

impl fmt::Display for RetrySpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for RetrySpecError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_allows_two_retries() {
        let p = RetryPolicy::default();
        assert_eq!(p.max_retries, 2);
    }

    #[test]
    fn parse_accepts_zero_and_bounds() {
        assert_eq!(RetryPolicy::parse("0").unwrap(), RetryPolicy::none());
        assert_eq!(RetryPolicy::parse(" 5 ").unwrap().max_retries, 5);
        assert_eq!(RetryPolicy::parse("16").unwrap().max_retries, 16);
    }

    #[test]
    fn parse_rejects_garbage_naming_the_token() {
        let e = RetryPolicy::parse("lots").unwrap_err();
        assert!(e.to_string().contains("lots"), "{e}");
        assert!(RetryPolicy::parse("-1").is_err());
        assert!(RetryPolicy::parse("17").is_err());
        assert!(RetryPolicy::parse("2x").is_err());
    }
}
