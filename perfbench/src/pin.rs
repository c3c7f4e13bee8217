//! CPU placement for the wire workloads.
//!
//! A closed loop alternates between client and server: one waits while the
//! other works. On a VM, waking a thread on another vCPU takes tens of µs
//! and depends on what the host is doing, and that cost would be part of
//! every request. So the server and the closed-loop client share one CPU
//! (`closed`), and the open loop's writer and reader run on the others
//! (`open`), where the writer's spin-wait does not take time from the
//! server.

/// A CPU set, as `sched_setaffinity` takes it (1024 CPUs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuSet([u64; 16]);

impl CpuSet {
    fn cpus(&self) -> Vec<usize> {
        (0..1024)
            .filter(|&c| self.0[c / 64] & (1 << (c % 64)) != 0)
            .collect()
    }

    fn of(cpus: &[usize]) -> CpuSet {
        let mut set = CpuSet([0; 16]);
        for &c in cpus {
            set.0[c / 64] |= 1 << (c % 64);
        }
        set
    }
}

/// Where the server and each loop run.
#[derive(Debug, Clone, Copy)]
pub struct Placement {
    /// The server's CPU, shared with the closed-loop client.
    pub closed: CpuSet,
    /// The open loop's CPUs.
    pub open: CpuSet,
}

impl Placement {
    /// The last allowed CPU for the server and the closed loop, the rest
    /// for the open loop. `None` with fewer than two CPUs, or where
    /// placement is not supported: everything then runs where the OS puts
    /// it.
    pub fn plan() -> Option<Placement> {
        let cpus = sys::get()?.cpus();
        let (&last, rest) = cpus.split_last()?;
        if rest.is_empty() {
            return None;
        }
        Some(Placement {
            closed: CpuSet::of(&[last]),
            open: CpuSet::of(rest),
        })
    }
}

/// Keeps the calling thread on a CPU set until dropped, then restores its
/// previous set. Threads and processes it starts meanwhile inherit the set.
#[derive(Debug)]
pub struct Pinned(Option<CpuSet>);

impl Pinned {
    /// Moves the calling thread to `set` (a no-op for `None`).
    pub fn to(set: Option<CpuSet>) -> Pinned {
        let previous = set.and_then(|set| {
            let previous = sys::get()?;
            sys::set(&set).then_some(previous)
        });
        Pinned(previous)
    }
}

impl Drop for Pinned {
    fn drop(&mut self) {
        if let Some(previous) = self.0 {
            sys::set(&previous);
        }
    }
}

#[cfg(target_os = "linux")]
mod sys {
    use super::CpuSet;

    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }

    /// The calling thread's CPU set.
    pub fn get() -> Option<CpuSet> {
        let mut set = CpuSet([0; 16]);
        // SAFETY: the mask is 128 writable bytes, the size passed.
        let rc = unsafe { sched_getaffinity(0, 128, set.0.as_mut_ptr()) };
        (rc == 0).then_some(set)
    }

    /// Moves the calling thread to `set`; false if the kernel refused.
    pub fn set(set: &CpuSet) -> bool {
        // SAFETY: the mask is 128 readable bytes, the size passed.
        unsafe { sched_setaffinity(0, 128, set.0.as_ptr()) == 0 }
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    use super::CpuSet;

    pub fn get() -> Option<CpuSet> {
        None
    }

    pub fn set(_: &CpuSet) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_sets_round_trip() {
        let set = CpuSet::of(&[0, 5, 64, 1023]);
        assert_eq!(set.cpus(), vec![0, 5, 64, 1023]);
    }

    #[test]
    fn pinning_restores_the_previous_set() {
        let before = sys::get();
        if let Some(p) = Placement::plan() {
            {
                let _pinned = Pinned::to(Some(p.closed));
                assert_eq!(sys::get(), Some(p.closed));
            }
            assert_eq!(sys::get(), before);
        }
    }
}
