//! Measurement primitives: process CPU time and peak RSS from `/proc`,
//! nearest-rank percentiles, the host-speed calibration helper, the
//! counting allocator of the allocation-counting binary, and the
//! benchmark's own wall-clock span recorder.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::{Read, Write};
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Linux reports `/proc/<pid>/stat` times in USER_HZ ticks, fixed at 100.
const USER_HZ: f64 = 100.0;

/// User plus system CPU seconds of this process, counted over all of its
/// threads, including worker threads that have already exited.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // The command name (field 2) may hold spaces; fields after it are
    // space-separated, starting with field 3 (state). utime and stime are
    // fields 14 and 15.
    let rest = &stat[stat.rfind(')').expect("stat has a command field") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| -> f64 {
        let value: u64 = fields[i].parse().expect("stat time field is an integer");
        value as f64
    };
    (ticks(11) + ticks(12)) / USER_HZ
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .expect("status reports VmHWM");
    let kb: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .expect("VmHWM is a number of kB");
    kb / 1024.0
}

/// Nearest-rank percentile `q` (in `0..=1`) of `values`; 0 when empty.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `values`; 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Seconds elapsed since `start`.
pub fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Typical wall time of one warm [`calibration_kernel`] run, as the
/// helper times it, on the host the baseline was recorded on (2 vCPU Intel
/// Xeon). Times are reported scaled to this host speed.
pub const REFERENCE_KERNEL_S: f64 = 0.93e-3;

/// A fixed std-only calibration kernel: B-tree inserts of freshly
/// allocated strings under pseudo-random keys, then a scan. It does the
/// kinds of work the serve and join paths spend their time on (allocation,
/// short pointer chases in the private caches) and runs none of the
/// program's code. It runs only in the calibration helper process (see
/// [`Calibrator`]), whose heap holds nothing else, so its time tracks how
/// fast the shared host runs at the moment and not the state the program
/// left its own heap in. Its working set (about 400 KB) fits in the
/// private caches. Returns its wall seconds.
pub fn calibration_kernel() -> f64 {
    let start = Instant::now();
    let mut map = BTreeMap::new();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    for i in 0..4096u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        map.insert(x % 100_000, format!("k{i}"));
    }
    let total: usize = map.values().map(String::len).sum();
    std::hint::black_box(total);
    secs(start)
}

/// Kernel runs a new helper makes, untimed, before its first sample, so
/// that sample is not a cold start.
const HELPER_WARMUP_RUNS: usize = 4;

/// CPU placement through the C library that std already links.
mod cpu {
    extern "C" {
        fn sched_getcpu() -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }

    /// The CPU the calling thread runs on, if the C library can tell.
    pub fn current() -> Option<u32> {
        // SAFETY: `sched_getcpu` takes no arguments and touches no memory
        // of ours.
        u32::try_from(unsafe { sched_getcpu() }).ok()
    }

    /// Restricts the calling thread to `cpu`, which moves it there.
    /// Returns false when the CPU is out of range or the kernel refuses.
    pub fn move_to(cpu: u32) -> bool {
        let mut mask = [0u64; 16];
        let Some(word) = usize::try_from(cpu / 64).ok().and_then(|w| mask.get_mut(w)) else {
            return false;
        };
        *word = 1 << (cpu % 64);
        // SAFETY: `mask` is a live, initialised buffer of exactly the size
        // passed, and pid 0 names the calling thread.
        unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
    }
}

/// Sent instead of a CPU number when the client cannot tell its CPU.
const ANY_CPU: u32 = u32::MAX;

/// Handle to the calibration helper: a separate process (the
/// `perfbench-calibrate` binary) that runs [`calibration_kernel`] when
/// asked and answers with its wall time. The kernel's allocations, CPU
/// time and heap state therefore never mix with the measured program's.
/// Each request names the CPU the client thread is on, and the helper
/// moves there before it runs the kernel, so the kernel sees the CPU the
/// program has just run on (on a shared host, CPUs run at different
/// speeds). The client blocks on the pipe meanwhile, leaving that CPU to
/// the helper. Dropping the handle closes the pipe, which ends the helper,
/// and waits for it to exit.
pub struct Calibrator {
    child: Child,
    requests: Option<ChildStdin>,
    answers: ChildStdout,
}

impl Calibrator {
    /// Starts the helper binary at `helper` and warms it up.
    ///
    /// # Errors
    ///
    /// The helper cannot be started or does not answer.
    pub fn spawn(helper: &Path) -> Result<Self, String> {
        let mut child = Command::new(helper)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("starting {}: {e}", helper.display()))?;
        let requests = child.stdin.take().expect("stdin is piped");
        let answers = child.stdout.take().expect("stdout is piped");
        let mut calibrator = Calibrator {
            child,
            requests: Some(requests),
            answers,
        };
        for _ in 0..HELPER_WARMUP_RUNS {
            calibrator.sample()?;
        }
        Ok(calibrator)
    }

    /// Runs the kernel in the helper, on the calling thread's CPU; returns
    /// its wall seconds as the helper timed them.
    ///
    /// # Errors
    ///
    /// The helper has exited or the pipe broke.
    pub fn sample(&mut self) -> Result<f64, String> {
        let broke = |e: std::io::Error| format!("calibration helper: {e}");
        let requests = self.requests.as_mut().expect("open until drop");
        let cpu = cpu::current().unwrap_or(ANY_CPU);
        requests.write_all(&cpu.to_le_bytes()).map_err(broke)?;
        requests.flush().map_err(broke)?;
        let mut answer = [0u8; 8];
        self.answers.read_exact(&mut answer).map_err(broke)?;
        Ok(f64::from_le_bytes(answer))
    }
}

impl Drop for Calibrator {
    fn drop(&mut self) {
        drop(self.requests.take());
        // The helper exits on end of input; an error here means it has
        // already gone.
        let _ = self.child.wait();
    }
}

/// The helper's loop: for each request read from standard input (the
/// client's CPU, a little-endian `u32`), moves to that CPU, runs the
/// kernel twice and writes the second run's wall seconds (little-endian
/// `f64`) to standard output, until standard input closes. The first run
/// brings the kernel's data back into the caches the measured program
/// has since filled, so the timed run does not depend on how much of the
/// caches the program uses; it tracks the host alone. If the move is
/// refused, the kernel runs wherever the helper is.
///
/// # Errors
///
/// Standard input or output fails.
pub fn serve_calibration() -> std::io::Result<()> {
    let mut requests = std::io::stdin().lock();
    let mut answers = std::io::stdout().lock();
    let mut request = [0u8; 4];
    let mut placed = ANY_CPU;
    loop {
        match requests.read_exact(&mut request) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(()),
            Err(e) => return Err(e),
        }
        let cpu = u32::from_le_bytes(request);
        if cpu != ANY_CPU && cpu != placed && cpu::move_to(cpu) {
            placed = cpu;
        }
        calibration_kernel();
        answers.write_all(&calibration_kernel().to_le_bytes())?;
        answers.flush()?;
    }
}

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

/// Global allocator that counts allocations and allocated bytes, then
/// defers to the system allocator. Only the allocation-counting binary
/// installs it.
pub struct CountingAlloc;

// SAFETY: every method forwards to `System` with the caller's own pointer
// and layout, so `System` upholds the `GlobalAlloc` contract; the counters
// are relaxed atomics that publish no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller guarantees `layout` has non-zero size.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller passes a block this allocator (hence `System`)
        // returned for `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        // SAFETY: the caller passes a live block from this allocator with
        // its layout and a non-zero `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocations and allocated bytes so far; zero under any other global
/// allocator.
pub fn alloc_counts() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}

/// One wall-clock span recorded by the benchmark around a public call.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    parent: Option<usize>,
    op: u64,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory span recorder. Disabled in untraced runs, where every call
/// is a single branch. Spans are written out once, when the run ends.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Option<Vec<Span>>,
}

/// Handle of an open span; [`Spans::end`] closes it.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

impl Spans {
    /// A recorder that records only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Spans {
            origin: Instant::now(),
            spans: enabled.then(Vec::new),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens span `name` of operation `op` under `parent`.
    pub fn begin(&mut self, name: &'static str, op: u64, parent: Option<SpanId>) -> SpanId {
        let start_ns = self.now_ns();
        let Some(spans) = self.spans.as_mut() else {
            return SpanId(None);
        };
        spans.push(Span {
            name,
            parent: parent.and_then(|p| p.0),
            op,
            start_ns,
            end_ns: start_ns,
        });
        SpanId(Some(spans.len() - 1))
    }

    /// Closes `id`.
    pub fn end(&mut self, id: SpanId) {
        let end_ns = self.now_ns();
        if let (Some(spans), Some(i)) = (self.spans.as_mut(), id.0) {
            spans[i].end_ns = end_ns;
        }
    }

    /// Runs `f` inside span `name`.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<SpanId>,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(name, op, parent);
        let out = f();
        self.end(id);
        out
    }

    /// Self time per span name, in seconds, over spans that start at or
    /// after `from_ns`: each span's duration minus the time its children
    /// cover.
    pub fn self_seconds(&self, from_ns: u64) -> BTreeMap<&'static str, f64> {
        let Some(spans) = &self.spans else {
            return BTreeMap::new();
        };
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, children) in spans.iter().zip(child_ns) {
            if s.start_ns >= from_ns {
                let own = (s.end_ns - s.start_ns).saturating_sub(children);
                *out.entry(s.name).or_insert(0.0) += own as f64 / 1e9;
            }
        }
        out
    }

    /// Nanoseconds since the recorder was created (a `from_ns` mark).
    pub fn mark(&self) -> u64 {
        self.now_ns()
    }

    /// Writes every span as tab-separated `id parent op name start_ns
    /// end_ns` lines.
    pub fn write(&self, path: &str) -> std::io::Result<()> {
        let Some(spans) = &self.spans else {
            return Ok(());
        };
        let mut out = String::from("id\tparent\top\tname\tstart_ns\tend_ns\n");
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{}\t{}",
                s.op, s.name, s.start_ns, s.end_ns
            )
            .expect("writing to a String cannot fail");
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 5.0);
        assert_eq!(percentile(&v, 0.9), 9.0);
        assert_eq!(percentile(&v, 1.0), 10.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut spans = Spans::new(true);
        let op = spans.begin("op", 0, None);
        spans.time("call", 0, Some(op), || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        spans.end(op);
        let own = spans.self_seconds(0);
        assert!(own["call"] >= 0.005);
        assert!(own["op"] < own["call"]);
    }
}
