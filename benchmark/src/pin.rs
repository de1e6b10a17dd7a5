//! CPU pinning for the serving workloads.
//!
//! With two busy threads (the server's one worker and the generator) on a
//! two-core machine, the scheduler sometimes leaves both on one core for a
//! second or more, halving throughput for that stretch; saturated
//! throughput then splits between two levels from run to run. Pinning the
//! server to one core and the generator to another removes that. A thread
//! inherits its creator's affinity, so the server is started while the
//! calling thread is pinned to the server's core.

use std::io;

/// A set of CPUs, as the kernel's `cpu_set_t` (1024 bits).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuSet([u64; 16]);

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

impl CpuSet {
    /// The set holding only `cpu`.
    pub fn only(cpu: usize) -> Self {
        let mut bits = [0u64; 16];
        bits[cpu / 64] = 1 << (cpu % 64);
        Self(bits)
    }

    /// The CPUs in the set, ascending.
    pub fn cpus(&self) -> Vec<usize> {
        (0..1024)
            .filter(|&c| self.0[c / 64] >> (c % 64) & 1 == 1)
            .collect()
    }

    /// The CPUs the calling thread may run on.
    #[cfg(target_os = "linux")]
    pub fn current() -> io::Result<Self> {
        let mut bits = [0u64; 16];
        // SAFETY: `bits` is a writable buffer of exactly the size passed,
        // and pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&bits), bits.as_mut_ptr()) };
        if rc == 0 {
            Ok(Self(bits))
        } else {
            Err(io::Error::last_os_error())
        }
    }

    /// Restricts the calling thread to this set.
    #[cfg(target_os = "linux")]
    pub fn apply(&self) -> io::Result<()> {
        // SAFETY: the buffer is readable and of exactly the size passed,
        // and pid 0 names the calling thread.
        let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&self.0), self.0.as_ptr()) };
        if rc == 0 {
            Ok(())
        } else {
            Err(io::Error::last_os_error())
        }
    }

    /// Affinity is not set on this platform.
    #[cfg(not(target_os = "linux"))]
    pub fn current() -> io::Result<Self> {
        Err(io::Error::new(io::ErrorKind::Unsupported, "CPU affinity"))
    }

    /// Affinity is not set on this platform.
    #[cfg(not(target_os = "linux"))]
    pub fn apply(&self) -> io::Result<()> {
        Err(io::Error::new(io::ErrorKind::Unsupported, "CPU affinity"))
    }
}

/// The calling thread pinned to one core while a server started by
/// `start` runs on another; the thread's former affinity is restored on
/// drop. With fewer than two usable cores nothing is pinned.
pub struct Pinned {
    saved: Option<CpuSet>,
    /// `(generator core, server core)`, when pinned.
    pub cores: Option<(usize, usize)>,
}

impl Pinned {
    /// Runs `start` with the calling thread on the server's core, then
    /// moves the calling thread to the generator's core.
    pub fn around<R>(start: impl FnOnce() -> io::Result<R>) -> io::Result<(Self, R)> {
        let saved = CpuSet::current().ok().filter(|s| s.cpus().len() >= 2);
        let Some(saved) = saved else {
            let unpinned = Self {
                saved: None,
                cores: None,
            };
            return Ok((unpinned, start()?));
        };
        let cpus = saved.cpus();
        let (gen_core, server_core) = (cpus[0], cpus[1]);
        let pinned = Self {
            saved: Some(saved),
            cores: Some((gen_core, server_core)),
        };
        CpuSet::only(server_core).apply()?;
        let started = start();
        CpuSet::only(gen_core).apply()?;
        Ok((pinned, started?))
    }
}

impl Drop for Pinned {
    fn drop(&mut self) {
        if let Some(saved) = self.saved {
            let _ = saved.apply();
        }
    }
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;

    #[test]
    fn a_started_thread_inherits_the_server_core_and_the_caller_is_restored() {
        let before = CpuSet::current().unwrap();
        std::thread::spawn(move || {
            let (pinned, child) =
                Pinned::around(|| Ok(std::thread::spawn(|| CpuSet::current().unwrap()))).unwrap();
            let child = child.join().unwrap();
            match pinned.cores {
                Some((g, s)) => {
                    assert_eq!(child, CpuSet::only(s));
                    assert_eq!(CpuSet::current().unwrap(), CpuSet::only(g));
                }
                None => assert_eq!(child, before),
            }
            drop(pinned);
            assert_eq!(CpuSet::current().unwrap(), before);
        })
        .join()
        .unwrap();
    }
}
