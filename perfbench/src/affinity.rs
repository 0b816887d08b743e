//! Pinning the calling thread — and every thread it spawns afterwards —
//! to one CPU.
//!
//! Under the virtual clock only the actor holding the execution token
//! runs, so a fleet can use one CPU at most. Left free, every token
//! handoff wakes a thread parked on the other CPU, and on a virtual
//! machine that wake-up latency (a cross-CPU interrupt the hypervisor
//! delivers) is most of the run's host time and varies several-fold with
//! the host's load. On one CPU a handoff is a plain context switch, so
//! the measurement is the program's own cost.
//!
//! The program itself never pins, so [`unpinned`] runs work on the CPUs
//! the process had before, and traced runs report that configuration too.
//!
//! The standard library has no affinity call and the build has no `libc`
//! crate, so this issues the two Linux system calls directly (x86-64
//! only; elsewhere nothing is pinned).

use std::sync::OnceLock;

/// The CPU mask: one bit per CPU, 1,024 CPUs.
type Mask = [u64; 16];

/// The mask the process had when it first pinned itself.
static BEFORE_PIN: OnceLock<Mask> = OnceLock::new();

/// Runs `f` on a fresh thread restored to the CPUs the process could use
/// before [`pin_to_one_cpu`]; threads `f` spawns inherit them. Without an
/// earlier pin, `f` runs on a fresh thread as it is.
pub fn unpinned<R: Send>(f: impl FnOnce() -> R + Send) -> R {
    std::thread::scope(|s| {
        s.spawn(|| {
            if let Some(mask) = BEFORE_PIN.get() {
                set_mask(mask);
            }
            f()
        })
        .join()
        .expect("unpinned work panicked")
    })
}

/// Restricts the calling thread (and its future children) to the
/// highest-numbered CPU it may run on now (CPU 0 usually takes the most
/// interrupts and housekeeping). Returns that CPU, or `None`
/// when the platform offers no way to pin or the kernel refused.
pub fn pin_to_one_cpu() -> Option<usize> {
    let mask = get_mask()?;
    let cpu = (0..mask.len() * 64)
        .rev()
        .find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)?;
    let mut one: Mask = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    BEFORE_PIN.get_or_init(|| mask);
    set_mask(&one).then_some(cpu)
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
const SYS_SCHED_SETAFFINITY: usize = 203;
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
const SYS_SCHED_GETAFFINITY: usize = 204;

/// The calling thread's CPU mask.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn get_mask() -> Option<Mask> {
    let mut mask: Mask = [0; 16];
    // SAFETY: sched_getaffinity(0, len, mask) writes at most `len` bytes
    // into `mask`, which is exactly that large; the syscall clobbers only
    // rax (result), rcx and r11.
    let got = unsafe {
        syscall3(
            SYS_SCHED_GETAFFINITY,
            0,
            size_of::<Mask>(),
            mask.as_mut_ptr() as usize,
        )
    };
    (got >= 0).then_some(mask)
}

/// Restricts the calling thread (and its future children) to `mask`;
/// whether the kernel accepted it.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn set_mask(mask: &Mask) -> bool {
    // SAFETY: sched_setaffinity(0, len, mask) only reads `len` bytes from
    // `mask`, which is exactly that large.
    let set = unsafe {
        syscall3(
            SYS_SCHED_SETAFFINITY,
            0,
            size_of::<Mask>(),
            mask.as_ptr() as usize,
        )
    };
    set == 0
}

/// Elsewhere there is no mask to read, so nothing is pinned.
#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
fn get_mask() -> Option<Mask> {
    None
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
fn set_mask(_: &Mask) -> bool {
    false
}

/// A three-argument Linux system call.
///
/// # Safety
///
/// The arguments must be valid for system call `number`: in particular,
/// every pointer passed must cover the length the call reads or writes.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
unsafe fn syscall3(number: usize, a: usize, b: usize, c: usize) -> isize {
    let ret: isize;
    // SAFETY: the caller guarantees the arguments are valid for `number`.
    unsafe {
        std::arch::asm!(
            "syscall",
            inlateout("rax") number as isize => ret,
            in("rdi") a,
            in("rsi") b,
            in("rdx") c,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
    }
    ret
}

#[cfg(test)]
mod tests {
    #[test]
    fn pinning_leaves_one_cpu_and_unpinned_restores_them() {
        let cpus = || std::thread::available_parallelism().map(usize::from).ok();
        let all = cpus();
        // Pin a scratch thread so the test harness's threads stay free.
        std::thread::spawn(move || {
            if let Some(cpu) = super::pin_to_one_cpu() {
                assert_eq!(cpus(), Some(1), "cpu {cpu}");
                assert_eq!(super::unpinned(cpus), all);
                assert_eq!(cpus(), Some(1), "the caller stays pinned");
            }
        })
        .join()
        .unwrap();
    }
}
