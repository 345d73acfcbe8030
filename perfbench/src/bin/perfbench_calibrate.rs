//! Calibration helper: runs the host-speed calibration kernel once per
//! request on standard input and answers with its wall time, until standard
//! input closes. The measuring binaries start it as a child process, so the
//! kernel never shares a heap with the measured program.

fn main() {
    if let Err(e) = slider_perfbench::measure::serve_calibration() {
        eprintln!("perfbench-calibrate: {e}");
        std::process::exit(2);
    }
}
