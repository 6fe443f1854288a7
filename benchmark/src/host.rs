//! Facts about the host and this process: CPU time, peak memory, load, a
//! host-speed index, and the run manifest stamped into every results file.

use crate::stats::median;
use std::path::Path;
use std::process::Command;
use std::time::Instant;

/// Linux reports process times in clock ticks of `USER_HZ`, which is 100 on
/// every architecture Rust targets.
const TICKS_PER_SECOND: f64 = 100.0;

/// CPU seconds (user + system) consumed by this process so far, including
/// every thread that has already exited. 10 ms resolution.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name may contain spaces; fields resume after its ')'.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // After ')' the fields are numbered from 3 (state); utime and stime are
    // fields 14 and 15.
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (tick(11) + tick(12)) as f64 / TICKS_PER_SECOND
}

/// Entries of the host-speed probe's table: 4 MiB of `u64`, more than a
/// core's private caches hold.
const PROBE_TABLE: usize = 1 << 19;
/// Read-modify-writes per probe (a few milliseconds).
const PROBE_STEPS: usize = 1 << 20;
/// Median probe time on the host the bounds were measured on (README).
pub const PROBE_REFERENCE_S: f64 = 0.0045;

/// How fast this host runs right now relative to the reference host, from
/// a fixed probe timed just before and just after each sub-measurement,
/// while none of the program's threads are working. The shared hosts this
/// benchmark runs on change speed by 20–40% within a minute and every
/// timing changes with them; scaling each sub-measurement by the speed of
/// its own interval takes most of that out (README).
///
/// The probe is a chain of random read-modify-writes over a 4 MiB table:
/// it depends on both core and cache speed, as decoding does, and uses the
/// standard library only, so no change to the repository's crates can
/// change it.
#[derive(Debug)]
pub struct HostSpeed {
    table: Vec<u64>,
    probes: Vec<f64>,
}

impl Default for HostSpeed {
    fn default() -> Self {
        HostSpeed {
            table: vec![1; PROBE_TABLE],
            probes: Vec::new(),
        }
    }
}

impl HostSpeed {
    /// Times one probe and keeps its time.
    fn probe(&mut self) -> f64 {
        let t0 = Instant::now();
        let mask = self.table.len() - 1;
        let (mut x, mut acc) = (0x9E37_79B9_7F4A_7C15u64, 0u64);
        for _ in 0..PROBE_STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let slot = &mut self.table[x as usize & mask];
            *slot = slot.wrapping_mul(0x5851_F42D_4C95_7F2D).wrapping_add(x);
            acc = acc.wrapping_add(*slot);
        }
        std::hint::black_box(acc);
        let s = t0.elapsed().as_secs_f64();
        self.probes.push(s);
        s
    }

    /// Runs `f` between two probes. Returns its result and the speed factor
    /// of that interval: [`PROBE_REFERENCE_S`] over the mean of the two
    /// probe times, above 1 while this host runs faster than the reference.
    pub fn bracket<T>(&mut self, f: impl FnOnce() -> T) -> (T, f64) {
        let before = self.probe();
        let out = f();
        let after = self.probe();
        (out, 2.0 * PROBE_REFERENCE_S / (before + after))
    }

    /// Probes timed so far.
    pub fn probes(&self) -> usize {
        self.probes.len()
    }

    /// Median probe time so far, in seconds (0 without probes).
    pub fn median_probe_s(&self) -> f64 {
        median(&self.probes)
    }
}

/// One timing taken once per sub-measurement of a run, with the speed
/// factor of each sub-measurement's interval.
#[derive(Clone, Debug, Default)]
pub struct Timing {
    raw: Vec<f64>,
    scaled: Vec<f64>,
}

impl Timing {
    /// A duration (or anything that grows when the host slows down).
    pub fn push_time(&mut self, raw: f64, factor: f64) {
        self.raw.push(raw);
        self.scaled.push(raw * factor);
    }

    /// A rate (anything that shrinks when the host slows down).
    pub fn push_rate(&mut self, raw: f64, factor: f64) {
        self.raw.push(raw);
        self.scaled.push(raw / factor);
    }

    pub fn len(&self) -> usize {
        self.raw.len()
    }

    /// Median of the values as measured.
    pub fn raw_median(&self) -> f64 {
        median(&self.raw)
    }

    /// Median of the values at the reference host's speed.
    pub fn scaled_median(&self) -> f64 {
        median(&self.scaled)
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The 1-minute load average, or -1 when unavailable.
pub fn loadavg() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(-1.0)
}

/// Cores this process may run on.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn command_stdout(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    Some(String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// `(commit, dirty)` of the checkout in the working directory; `None` when
/// the directory is not the root of a git checkout (a plain source copy).
fn git_state() -> Option<(String, bool)> {
    if !Path::new(".git").exists() {
        return None;
    }
    let commit = command_stdout("git", &["rev-parse", "HEAD"])?;
    let dirty = !command_stdout("git", &["status", "--porcelain"])?.is_empty();
    Some((commit, dirty))
}

/// Everything needed to tell where and how a results file was produced.
#[derive(Clone, Debug)]
pub struct Manifest {
    pub commit: String,
    pub dirty: Option<bool>,
    pub available_parallelism: usize,
    pub threads: usize,
    pub profile: &'static str,
    pub rustc: String,
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub loadavg_start: f64,
}

impl Manifest {
    pub fn capture(workload: &str, seed: u64, seconds: u64, trace: bool, threads: usize) -> Self {
        let git = git_state();
        Manifest {
            commit: git.as_ref().map_or("unknown".into(), |g| g.0.clone()),
            dirty: git.map(|g| g.1),
            available_parallelism: available_parallelism(),
            threads,
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            rustc: command_stdout("rustc", &["-V"]).unwrap_or_else(|| "unknown".into()),
            workload: workload.to_string(),
            seed,
            seconds,
            trace,
            loadavg_start: loadavg(),
        }
    }

    /// JSON object body, with the end-of-run load average appended.
    pub fn to_json(&self, loadavg_end: f64) -> String {
        let dirty = self.dirty.map_or("null".to_string(), |d| d.to_string());
        format!(
            concat!(
                "{{\"commit\": \"{}\", \"dirty\": {}, \"available_parallelism\": {}, ",
                "\"threads\": {}, \"profile\": \"{}\", \"rustc\": \"{}\", ",
                "\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, ",
                "\"loadavg_start\": {}, \"loadavg_end\": {}}}"
            ),
            self.commit,
            dirty,
            self.available_parallelism,
            self.threads,
            self.profile,
            self.rustc.replace('"', "'"),
            self.workload,
            self.seed,
            self.seconds,
            self.trace,
            self.loadavg_start,
            loadavg_end,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_counters_are_readable() {
        let t0 = cpu_seconds();
        let spin = std::time::Instant::now();
        while spin.elapsed().as_millis() < 100 {
            std::hint::black_box(spin.elapsed());
        }
        assert!(
            cpu_seconds() > t0,
            "100 ms of spinning must show as CPU time"
        );
        assert!(peak_rss_mb() > 0.0);
        assert!(available_parallelism() >= 1);
    }

    #[test]
    fn a_bracket_probes_on_both_sides() {
        let mut speed = HostSpeed::default();
        assert_eq!(speed.probes(), 0);
        let (v, k) = speed.bracket(|| 7);
        assert_eq!((v, speed.probes()), (7, 2));
        assert!(k.is_finite() && k > 0.0);
        assert!(speed.median_probe_s() > 0.0);
    }

    #[test]
    fn timings_scale_durations_and_rates_in_opposite_directions() {
        let mut t = Timing::default();
        // The host ran at half the reference speed (factor 0.5) for both.
        t.push_time(4.0, 0.5);
        assert_eq!((t.raw_median(), t.scaled_median()), (4.0, 2.0));
        let mut r = Timing::default();
        r.push_rate(100.0, 0.5);
        assert_eq!((r.raw_median(), r.scaled_median()), (100.0, 200.0));
        assert_eq!(r.len(), 1);
    }
}
