//! The SLO search over a fixed rate ladder.
//!
//! A step *meets* the SLO when its p99 is within the latency limit, it
//! completed requests at no less than 98 % of the rate they arrived at
//! (no growing backlog), and nothing failed — a failed or refused request misses any limit. The
//! answer is the highest rate of the unbroken run of meeting steps from
//! the bottom; it must lie strictly inside the ladder, because an answer
//! at either end only says the ladder was frozen in the wrong place.

use std::fmt;

/// Share of the offered rate a step must achieve.
pub const MIN_ACHIEVED_SHARE: f64 = 0.98;

/// One measured ladder step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LadderStep {
    /// Offered rate, requests per simulated second.
    pub offered: f64,
    /// Completion rate ÷ the rate at which the step's requests actually
    /// arrived. Measured against the realised arrivals, not the nominal
    /// rate, so the Poisson noise in a step's length cancels.
    pub achieved_share: f64,
    pub p99_ns: u64,
    /// Failed, refused or wrong-answer requests.
    pub failed: u64,
}

impl LadderStep {
    pub fn meets(&self, limit_ns: u64) -> bool {
        self.failed == 0 && self.p99_ns <= limit_ns && self.achieved_share >= MIN_ACHIEVED_SHARE
    }
}

/// Why the ladder gave no answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LadderError {
    /// Even the lowest rate misses: the ladder starts too high.
    BottomMisses,
    /// Even the highest rate meets: the ladder stops too low.
    TopMeets,
    Empty,
}

impl fmt::Display for LadderError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            LadderError::BottomMisses => "the lowest step already misses the SLO",
            LadderError::TopMeets => "the highest step still meets the SLO",
            LadderError::Empty => "the ladder has no steps",
        })
    }
}

/// Highest offered rate that meets the SLO, over steps in ascending
/// rate order.
///
/// # Errors
///
/// An answer at a ladder end is an error, as is an empty ladder.
pub fn highest_meeting(steps: &[LadderStep], limit_ns: u64) -> Result<f64, LadderError> {
    let meeting = steps.iter().take_while(|s| s.meets(limit_ns)).count();
    match meeting {
        _ if steps.is_empty() => Err(LadderError::Empty),
        0 => Err(LadderError::BottomMisses),
        n if n == steps.len() => Err(LadderError::TopMeets),
        n => Ok(steps[n - 1].offered),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step(offered: f64, p99_ns: u64) -> LadderStep {
        LadderStep {
            offered,
            achieved_share: 1.0,
            p99_ns,
            failed: 0,
        }
    }

    #[test]
    fn answer_is_the_last_step_before_the_first_miss() {
        let steps = [
            step(10.0, 50),
            step(20.0, 80),
            step(30.0, 101),
            step(40.0, 90), // a later "pass" after a miss does not count
        ];
        assert_eq!(highest_meeting(&steps, 100), Ok(20.0));
    }

    #[test]
    fn refusals_and_backlog_miss_the_limit() {
        let mut refused = step(20.0, 10);
        refused.failed = 1;
        assert!(!refused.meets(100), "a failed request misses any limit");
        let mut backlog = step(20.0, 10);
        backlog.achieved_share = 0.975; // completions fall behind arrivals
        assert!(!backlog.meets(100));
        assert_eq!(
            highest_meeting(&[step(10.0, 10), refused, step(30.0, 10)], 100),
            Ok(10.0)
        );
    }

    #[test]
    fn an_answer_at_a_ladder_end_is_an_error() {
        let all_meet = [step(10.0, 1), step(20.0, 2)];
        assert_eq!(highest_meeting(&all_meet, 100), Err(LadderError::TopMeets));
        let none_meet = [step(10.0, 500), step(20.0, 900)];
        assert_eq!(
            highest_meeting(&none_meet, 100),
            Err(LadderError::BottomMisses)
        );
        assert_eq!(highest_meeting(&[], 100), Err(LadderError::Empty));
    }
}
