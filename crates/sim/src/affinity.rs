//! Worker-core pinning for the sharded runtime.
//!
//! The threaded shard engine runs one worker thread per shard,
//! exchanging mailboxes through spin-then-park slots every
//! sync round (~tens of thousands of rounds on sub-lookahead
//! topologies). Letting the OS migrate those workers between cores costs
//! twice: the spin windows lose their cached peer state, and a migration
//! in the middle of a round turns the whole barrier into a cache-miss
//! storm. [`pin_to_core`] pins the calling thread to one core via a raw
//! `sched_setaffinity` syscall — raw because this workspace deliberately
//! has no libc dependency — and compiles to a no-op off Linux.
//!
//! Pinning is pure performance: it never affects simulation results (the
//! determinism contract in [`crate::shard`] is scheduling-independent),
//! so the no-op fallback loses nothing but speed.
//!
//! [`host_cores`] is the workspace's one probe of host state (clippy's
//! `disallowed_methods` bans `available_parallelism` everywhere else).
//! Its callers — [`pin_to_core`] and the `ExecMode::Auto` choice in
//! [`crate::shard`] — only ever gate *how* the identical event schedule
//! executes, never what it computes.

/// Largest CPU index representable in the affinity mask passed to the
/// kernel (1024 CPUs, the conventional `cpu_set_t` size).
const MASK_WORDS: usize = 16;

/// The host's available parallelism, or 1 if the OS cannot say.
#[expect(
    clippy::disallowed_methods,
    reason = "the one host probe; it gates how the event schedule executes, never what it computes"
)]
pub(crate) fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// Pin the calling thread to `core` (modulo [`host_cores`], so shard
/// indices map onto real cores on any machine).
/// Returns `true` if the kernel accepted the mask; `false` on
/// non-Linux/unsupported targets or if the syscall failed — callers
/// treat failure as "run unpinned", never as an error.
pub(crate) fn pin_to_core(core: usize) -> bool {
    let cpus = host_cores();
    if cpus <= 1 {
        // Nothing to distribute over; pinning would only fight the OS.
        return false;
    }
    pin_to_core_raw(core % cpus)
}

#[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
fn pin_to_core_raw(core: usize) -> bool {
    if core >= MASK_WORDS * 64 {
        return false;
    }
    let mut mask = [0u64; MASK_WORDS];
    mask[core / 64] |= 1u64 << (core % 64);
    // sched_setaffinity(pid = 0 → calling thread, cpusetsize, mask).
    let ret = unsafe {
        sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr() as usize)
    };
    ret == 0
}

#[cfg(not(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64"))))]
fn pin_to_core_raw(_core: usize) -> bool {
    false
}

/// Raw `sched_setaffinity` syscall. The workspace carries no libc crate,
/// so the two supported Linux architectures invoke the kernel directly;
/// the syscall only constrains where *this* thread may be scheduled.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
unsafe fn sched_setaffinity(pid: usize, cpusetsize: usize, mask: usize) -> isize {
    let ret: isize;
    unsafe {
        core::arch::asm!(
            "syscall",
            inlateout("rax") 203usize => ret, // __NR_sched_setaffinity
            in("rdi") pid,
            in("rsi") cpusetsize,
            in("rdx") mask,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
    }
    ret
}

#[cfg(all(target_os = "linux", target_arch = "aarch64"))]
unsafe fn sched_setaffinity(pid: usize, cpusetsize: usize, mask: usize) -> isize {
    let ret: isize;
    unsafe {
        core::arch::asm!(
            "svc 0",
            inlateout("x0") pid => ret,
            in("x1") cpusetsize,
            in("x2") mask,
            in("x8") 122usize, // __NR_sched_setaffinity
            options(nostack),
        );
    }
    ret
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinning_is_infallible_to_call() {
        // Whatever the host, pin_to_core must return (not crash); on a
        // multi-core Linux host it should succeed for core 0.
        let pinned = pin_to_core(0);
        let cpus = host_cores();
        if cfg!(all(
            target_os = "linux",
            any(target_arch = "x86_64", target_arch = "aarch64")
        )) && cpus > 1
        {
            assert!(pinned, "sched_setaffinity failed on a multi-core host");
        }
        // Out-of-range indices wrap onto real cores rather than failing.
        let _ = pin_to_core(usize::MAX);
    }
}
