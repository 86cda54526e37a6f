//! Provenance and host measurements.

use serde_json::{json, Value};
use std::path::Path;

/// Where a result came from: source revision, the toolchain and profile
/// that built the benchmark, and the core count.
pub fn provenance() -> Value {
    let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    json!({
        "git_rev": (git_rev(&repo).unwrap_or_else(|| "unknown (not a git checkout)".to_string())),
        "rustc": (env!("CIMBENCH_RUSTC")),
        "nproc": (std::thread::available_parallelism().map_or(0, |n| n.get())),
        "profile": (env!("CIMBENCH_PROFILE"))
    })
}

/// The commit `HEAD` names, read from `.git` without running git.
fn git_rev(repo: &Path) -> Option<String> {
    let git = repo.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return Some(rev.trim().to_string());
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()?
        .lines()
        .find_map(|line| {
            line.strip_suffix(reference)?
                .strip_suffix(' ')
                .map(str::to_string)
        })
}

/// The process's peak resident set, in MB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Moves the calling thread from one allowed core to the next every
/// [`CoreRotation::PERIOD_S`], so that a single-threaded loop runs on
/// every core in turn. On a shared host each core is slowed by other
/// tenants on its own (on a shared 2-core VM, one core at a time was
/// often 1.6× slower for tens of seconds); a loop that stays on one core
/// can spend a whole run on the slow one. Dropping it restores the
/// thread's affinity. Does nothing on one core, or off Linux.
pub struct CoreRotation {
    #[cfg(target_os = "linux")]
    rotation: Option<affinity::Rotation>,
}

impl CoreRotation {
    /// Seconds on one core before moving to the next.
    pub const PERIOD_S: f64 = 0.5;

    /// Starts on the first allowed core.
    pub fn start() -> CoreRotation {
        CoreRotation {
            #[cfg(target_os = "linux")]
            rotation: affinity::Rotation::start(Self::PERIOD_S),
        }
    }

    /// Moves to the next core once the period is over. Call between ops.
    pub fn tick(&mut self) {
        #[cfg(target_os = "linux")]
        if let Some(rotation) = &mut self.rotation {
            rotation.tick();
        }
    }
}

#[cfg(target_os = "linux")]
mod affinity {
    use std::time::Instant;

    /// glibc's `cpu_set_t`: 1024 bits.
    type CpuSet = [u64; 16];

    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
    }

    fn get() -> Option<CpuSet> {
        let mut mask = [0; 16];
        // SAFETY: `mask` is a writable `cpu_set_t`-sized buffer and pid 0
        // names the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut mask) };
        (rc == 0).then_some(mask)
    }

    fn set(mask: &CpuSet) -> bool {
        // SAFETY: `mask` is a readable `cpu_set_t`-sized buffer and pid 0
        // names the calling thread.
        unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), mask) == 0 }
    }

    pub struct Rotation {
        allowed: CpuSet,
        cores: Vec<usize>,
        next: usize,
        period_s: f64,
        since: Instant,
    }

    impl Rotation {
        pub fn start(period_s: f64) -> Option<Rotation> {
            let allowed = get()?;
            let cores: Vec<usize> = (0..16 * 64)
                .filter(|&c| allowed[c / 64] >> (c % 64) & 1 == 1)
                .collect();
            if cores.len() < 2 {
                return None;
            }
            let mut rotation = Rotation {
                allowed,
                cores,
                next: 0,
                period_s,
                since: Instant::now(),
            };
            rotation.advance();
            Some(rotation)
        }

        pub fn tick(&mut self) {
            if self.since.elapsed().as_secs_f64() >= self.period_s {
                self.advance();
            }
        }

        fn advance(&mut self) {
            let core = self.cores[self.next];
            let mut mask = [0; 16];
            mask[core / 64] |= 1 << (core % 64);
            // A core that became unavailable is skipped at the next tick.
            set(&mask);
            self.next = (self.next + 1) % self.cores.len();
            self.since = Instant::now();
        }
    }

    impl Drop for Rotation {
        fn drop(&mut self) {
            set(&self.allowed);
        }
    }
}
