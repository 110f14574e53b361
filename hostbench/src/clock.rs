//! The one place the benchmark reads the host clock. Everything the
//! program under test does runs on the simulated clock; host time is what
//! this benchmark measures, so it is confined to this module.

// tidy-allow(determinism): host wall time is the benchmark's measurand
use std::time::Instant;

/// A started host wall-clock timer.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch(Instant);

impl Stopwatch {
    /// Starts a timer now.
    #[allow(clippy::disallowed_methods)] // host wall time is the measurand
    pub fn start() -> Stopwatch {
        // tidy-allow(determinism): host wall time is the benchmark's measurand
        Stopwatch(Instant::now())
    }

    /// Nanoseconds since the timer started.
    pub fn elapsed_ns(&self) -> u64 {
        u64::try_from(self.0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Seconds since the timer started.
    pub fn elapsed_s(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }

    /// Nanoseconds from this timer's start to `later`'s start.
    pub fn ns_until(&self, later: Stopwatch) -> u64 {
        u64::try_from(later.0.saturating_duration_since(self.0).as_nanos()).unwrap_or(u64::MAX)
    }
}
