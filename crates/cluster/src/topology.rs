//! The cost model translating modeled work and bytes into simulated time.

use slider_trace::seconds_to_ticks;

/// Conversion rates between the engine's abstract units and seconds.
///
/// The absolute values are calibrated loosely to the paper's 2014-era
/// cluster (AMD Opteron-252 workers, GbE network); only *ratios* influence
/// the reproduced result shapes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Work units a healthy (speed = 1.0) machine executes per second.
    pub work_per_second: f64,
    /// Bytes per second when reading input present on the local machine
    /// (memory / local disk).
    pub local_bytes_per_second: f64,
    /// Bytes per second when fetching input from a remote machine.
    pub remote_bytes_per_second: f64,
    /// Fixed per-task startup latency in seconds (JVM spawn, heartbeat
    /// round-trips in Hadoop; small but significant for tiny tasks).
    pub task_startup_seconds: f64,
}

impl CostModel {
    /// Defaults matching the reproduction's calibration (see DESIGN.md §5).
    pub fn paper_defaults() -> Self {
        CostModel {
            work_per_second: 50_000.0,
            local_bytes_per_second: 400.0 * (1 << 20) as f64, // ~400 MB/s
            remote_bytes_per_second: 100.0 * (1 << 20) as f64, // ~GbE
            task_startup_seconds: 0.5,
        }
    }

    /// Simulated duration, in nanoseconds, of a task on a machine of the
    /// given relative speed, reading `input_bytes` either locally or
    /// remotely. Rounded once, here.
    pub fn task_ns(&self, work: u64, input_bytes: u64, speed: f64, local: bool) -> u64 {
        debug_assert!(speed > 0.0);
        let compute = work as f64 / (self.work_per_second * speed);
        let bw = if local {
            self.local_bytes_per_second
        } else {
            self.remote_bytes_per_second
        };
        let io = input_bytes as f64 / bw;
        seconds_to_ticks(self.task_startup_seconds + compute + io)
    }

    /// Checks the model is usable: every rate finite and positive, the
    /// startup latency finite and non-negative.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        for (name, rate) in [
            ("work_per_second", self.work_per_second),
            ("local_bytes_per_second", self.local_bytes_per_second),
            ("remote_bytes_per_second", self.remote_bytes_per_second),
        ] {
            if !(rate.is_finite() && rate > 0.0) {
                return Err(format!("{name} must be finite and > 0, got {rate}"));
            }
        }
        let startup = self.task_startup_seconds;
        if !(startup.is_finite() && startup >= 0.0) {
            return Err(format!(
                "task_startup_seconds must be finite and >= 0, got {startup}"
            ));
        }
        Ok(())
    }
}

impl Default for CostModel {
    fn default() -> Self {
        Self::paper_defaults()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn remote_reads_cost_more() {
        let cm = CostModel::paper_defaults();
        let local = cm.task_ns(1_000, 1 << 30, 1.0, true);
        let remote = cm.task_ns(1_000, 1 << 30, 1.0, false);
        assert!(remote > local);
    }

    #[test]
    fn stragglers_take_longer() {
        let cm = CostModel::paper_defaults();
        let fast = cm.task_ns(100_000, 0, 1.0, true);
        let slow = cm.task_ns(100_000, 0, 0.25, true);
        let startup = seconds_to_ticks(cm.task_startup_seconds);
        assert!(slow > 3 * fast - startup * 4);
    }

    #[test]
    fn startup_dominates_empty_tasks() {
        let cm = CostModel::paper_defaults();
        assert_eq!(
            cm.task_ns(0, 0, 1.0, true),
            seconds_to_ticks(cm.task_startup_seconds)
        );
    }
}
