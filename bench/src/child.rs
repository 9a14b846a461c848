//! Child processes measured from outside: wall is spawn→exit, CPU time and
//! peak RSS come from `wait4(2)`'s rusage.

use std::process::{Child, Command};
use std::time::Instant;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the bench declares wait4(2)'s rusage layout for 64-bit Linux only");

#[repr(C)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` of 64-bit Linux: two timevals, then 14 longs of which
/// only the first (`ru_maxrss`, KiB) is read here.
#[repr(C)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Clock ticks per second, the unit of the times in `/proc/<pid>/stat`:
/// `USER_HZ`, which is 100 on every Linux platform.
pub const CLOCK_TICKS_PER_S: f64 = 100.0;

/// A CPU set of up to 1024 CPUs, as the affinity calls take it.
type CpuSet = [u64; 16];

/// `(allowed, measured)`: the CPUs this process may run on as it started,
/// and the set holding only the lowest-numbered of them — the measured CPU,
/// which the single-worker programs and the host-speed sampler share.
/// `None` where the affinity cannot be read; nothing is pinned then.
fn cpu_sets() -> Option<(CpuSet, CpuSet)> {
    static SETS: std::sync::OnceLock<Option<(CpuSet, CpuSet)>> = std::sync::OnceLock::new();
    *SETS.get_or_init(|| {
        let mut allowed: CpuSet = [0; 16];
        // SAFETY: pid 0 is the calling thread and `allowed` is a live buffer
        // of the size passed.
        let got =
            unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), allowed.as_mut_ptr()) };
        let word = allowed.iter().position(|w| *w != 0).filter(|_| got == 0)?;
        let mut measured: CpuSet = [0; 16];
        measured[word] = 1 << allowed[word].trailing_zeros();
        Some((allowed, measured))
    })
}

fn set_affinity(set: &CpuSet) {
    // SAFETY: pid 0 is the calling thread and `set` is a live buffer of the
    // size passed.  A refusal leaves the thread where it was, which costs
    // steadiness and not correctness, so the result is not looked at.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), set.as_ptr()) };
}

/// Pin the calling thread to the measured CPU.
pub fn pin_this_thread() {
    if let Some((_, measured)) = cpu_sets() {
        set_affinity(&measured);
    }
}

/// While this lives, the thread that made it — and every thread it spawns
/// meanwhile — stays off the measured CPU (where there is another one), so
/// the bench's own clients never take time from the programs they measure.
pub struct OffMeasuredCpu {
    restore: Option<CpuSet>,
}

pub fn leave_measured_cpu() -> OffMeasuredCpu {
    let restore = cpu_sets().and_then(|(allowed, measured)| {
        let mut others = allowed;
        others.iter_mut().zip(&measured).for_each(|(o, m)| *o &= !m);
        others.iter().any(|w| *w != 0).then(|| {
            set_affinity(&others);
            allowed
        })
    });
    OffMeasuredCpu { restore }
}

impl Drop for OffMeasuredCpu {
    fn drop(&mut self) {
        if let Some(allowed) = &self.restore {
            set_affinity(allowed);
        }
    }
}

/// Make `command`'s child start pinned to the measured CPU: the sampler
/// (`speed.rs`) measures the speed of that very CPU while the child runs on
/// it, and which CPU of a shared host is slow changes by the second.
pub fn pin(command: &mut Command) -> &mut Command {
    use std::os::unix::process::CommandExt;
    let Some((_, set)) = cpu_sets() else {
        return command;
    };
    // SAFETY: the closure runs between fork and exec and makes one
    // async-signal-safe system call on a value it owns.
    unsafe {
        command.pre_exec(move || {
            set_affinity(&set);
            Ok(())
        })
    }
}

/// What one finished child cost.
#[derive(Debug, Clone, Copy)]
pub struct Usage {
    /// Spawn → exit, seconds.
    pub wall_s: f64,
    /// User + system CPU, seconds.
    pub cpu_s: f64,
    /// Peak resident set, MiB.
    pub peak_rss_mb: f64,
    /// Exit code, or `None` when a signal ended the child.
    pub exit_code: Option<i32>,
}

/// Reap `child` with `wait4` and return its resource usage; `started` is
/// when it was spawned.
pub fn reap(child: Child, started: Instant) -> Result<Usage, String> {
    let pid = child.id() as i32;
    let mut status = 0i32;
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
        rest: [0; 13],
    };
    // SAFETY: `pid` is a child of this process that nothing else waits for
    // (`Child::wait` is never called on it), and `status`/`ru` are live,
    // correctly laid out out-parameters for the duration of the call.
    let got = unsafe { wait4(pid, &mut status, 0, &mut ru) };
    let wall_s = started.elapsed().as_secs_f64();
    if got != pid {
        return Err(format!(
            "wait4({pid}) failed: {}",
            std::io::Error::last_os_error()
        ));
    }
    // The pid is reaped; dropping `Child` neither waits nor kills.
    drop(child);
    let secs = |t: &Timeval| t.tv_sec as f64 + t.tv_usec as f64 / 1e6;
    Ok(Usage {
        wall_s,
        cpu_s: secs(&ru.ru_utime) + secs(&ru.ru_stime),
        peak_rss_mb: ru.ru_maxrss as f64 / 1024.0,
        exit_code: (status & 0x7f == 0).then_some((status >> 8) & 0xff),
    })
}

/// Spawn `command`, wait for it, and return its usage; a non-zero exit is an
/// error carrying the child's stderr.
pub fn run(command: &mut Command) -> Result<Usage, String> {
    command.stderr(std::process::Stdio::piped());
    let started = Instant::now();
    let mut child = command
        .spawn()
        .map_err(|e| format!("cannot spawn {:?}: {e}", command.get_program()))?;
    let stderr = child.stderr.take();
    let usage = reap(child, started)?;
    if usage.exit_code != Some(0) {
        let mut text = String::new();
        if let Some(mut pipe) = stderr {
            use std::io::Read;
            let _ = pipe.read_to_string(&mut text);
        }
        return Err(format!(
            "{:?} exited with {:?}: {}",
            command.get_program(),
            usage.exit_code,
            text.trim()
        ));
    }
    Ok(usage)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_child_reports_wall_cpu_rss_and_its_exit_code() {
        let usage = run(
            Command::new("sh").args(["-c", "i=0; while [ $i -lt 20000 ]; do i=$((i+1)); done"])
        )
        .expect("sh runs");
        assert_eq!(usage.exit_code, Some(0));
        assert!(usage.wall_s > 0.0 && usage.cpu_s > 0.0, "{usage:?}");
        assert!(usage.cpu_s <= usage.wall_s * 2.0 + 0.05, "{usage:?}");
        assert!(
            usage.peak_rss_mb > 0.1 && usage.peak_rss_mb < 1024.0,
            "{usage:?}"
        );
        let err = run(Command::new("sh").args(["-c", "echo boom >&2; exit 3"])).unwrap_err();
        assert!(err.contains("Some(3)") && err.contains("boom"), "{err}");
    }

    fn allowed_now() -> CpuSet {
        let mut set: CpuSet = [0; 16];
        // SAFETY: as in `cpu_sets`.
        unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), set.as_mut_ptr()) };
        set
    }

    #[test]
    fn a_pinned_child_gets_one_cpu_and_the_guard_gives_the_thread_its_cpus_back() {
        let out = pin(Command::new("sh").args(["-c", "grep Cpus_allowed_list /proc/self/status"]))
            .output()
            .expect("sh runs");
        let line = String::from_utf8_lossy(&out.stdout);
        let cpus = line.split(':').nth(1).expect("the status line").trim();
        assert!(cpus.parse::<u32>().is_ok(), "one CPU, got `{cpus}`");
        // On a thread of its own: affinity is per thread.
        std::thread::spawn(|| {
            let before = allowed_now();
            let measured = cpu_sets().expect("the affinity is readable").1;
            {
                let _off = leave_measured_cpu();
                let during = allowed_now();
                let alone = before == measured;
                assert!(alone || during.iter().zip(&measured).all(|(d, m)| d & m == 0));
            }
            assert_eq!(allowed_now(), before);
        })
        .join()
        .unwrap();
    }
}
