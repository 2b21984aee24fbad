//! Process resource usage and the host fingerprint stamped on every result.

use std::path::Path;

/// CPU time and peak resident memory of this process so far.
#[derive(Debug, Clone, Copy)]
pub struct Usage {
    /// User plus system CPU seconds, summed over every thread the process
    /// has run (including exited ones).
    pub cpu_s: f64,
    /// Peak resident set size, megabytes (2^20 bytes).
    pub peak_rss_mb: f64,
}

#[repr(C)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` as laid out by 64-bit Linux (every field a `long`).
#[repr(C)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: i64,
    _rest: [i64; 13],
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("wavebench reads getrusage with the 64-bit Linux struct layout");

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// `RUSAGE_SELF`: the calling process, all of its threads.
const RUSAGE_SELF: i32 = 0;

/// Reads this process's CPU time and peak RSS.
pub fn usage() -> Usage {
    let mut ru = Rusage {
        ru_utime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        ru_stime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        ru_maxrss: 0,
        _rest: [0; 13],
    };
    // SAFETY: `ru` is a live, writable `struct rusage` with the 64-bit Linux
    // layout (enforced by the `compile_error!` gate above), and
    // `getrusage(RUSAGE_SELF, ..)` writes only within that struct.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail with a valid buffer"
    );
    let secs = |t: &Timeval| t.tv_sec as f64 + t.tv_usec as f64 * 1e-6;
    Usage {
        cpu_s: secs(&ru.ru_utime) + secs(&ru.ru_stime),
        // Linux reports ru_maxrss in kibibytes.
        peak_rss_mb: ru.ru_maxrss as f64 / 1024.0,
    }
}

/// What identifies the machine a result was measured on: results from
/// different fingerprints are not comparable.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    /// Hardware threads available to this process.
    pub nproc: usize,
    /// CPU model string (`model name` in /proc/cpuinfo).
    pub cpu_model: String,
    /// Per-core L2 cache size as the kernel reports it (e.g. `1024K`).
    pub l2: String,
    /// Commit of the measured tree, or `unknown` outside a git checkout.
    pub commit: String,
}

/// Collects the fingerprint of this host and of the tree at `root`.
pub fn fingerprint(root: &Path) -> Fingerprint {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let l2 = std::fs::read_to_string("/sys/devices/system/cpu/cpu0/cache/index2/size")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    Fingerprint {
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        cpu_model,
        l2,
        commit: git_commit(root).unwrap_or_else(|| "unknown".into()),
    }
}

/// Resolves `HEAD` by reading the git directory directly (no subprocess):
/// a detached hash, a loose ref, or an entry of `packed-refs`.
fn git_commit(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(hash) = std::fs::read_to_string(git.join(reference)) {
        return Some(hash.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|l| {
        let (hash, name) = l.split_once(' ')?;
        (name == reference).then(|| hash.to_string())
    })
}
