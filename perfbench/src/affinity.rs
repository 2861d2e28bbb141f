//! CPU placement, through the two libc calls std already links. Linux
//! only; elsewhere placement is left to the OS.
//!
//! The whole benchmark runs on **one CPU**. On the shared two-core sandbox a
//! cross-core wake costs 15-35 us and comes in two modes whose mix drifts
//! over seconds: unpinned, sequential echo p50 reads 38-56 us from run to
//! run and every latency metric inherits that. On one CPU the same call is
//! 16.7 us and repeats within 1%. What is measured is then the path length
//! of a call (instructions, syscalls, context switches), which is what a
//! change to the ORB can move; it is not parallel speed-up, and the ORB's
//! own spin-before-park tuning sees a single core.

/// `cpu_set_t`: 1024 bits.
type CpuSet = [u64; 16];

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
}

/// The CPUs this thread may run on, ascending.
#[cfg(target_os = "linux")]
pub fn allowed() -> Vec<usize> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a valid, writable cpu_set_t of the size passed; pid 0
    // names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
    if rc != 0 {
        return Vec::new();
    }
    (0..1024).filter(|cpu| set[cpu / 64] >> (cpu % 64) & 1 == 1).collect()
}

/// Restricts the calling thread — and every thread it spawns afterwards,
/// which inherit the mask — to `cpus`. Returns false when the kernel
/// refused (the thread then stays where it was).
#[cfg(target_os = "linux")]
pub fn pin(cpus: &[usize]) -> bool {
    let mut set: CpuSet = [0; 16];
    for &cpu in cpus.iter().filter(|&&cpu| cpu < 1024) {
        set[cpu / 64] |= 1 << (cpu % 64);
    }
    // SAFETY: `set` is a valid cpu_set_t of the size passed; pid 0 names the
    // calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set) == 0 }
}

/// Pins the calling thread, and so every thread spawned after it, to the
/// first CPU it is allowed on. Returns how many CPUs were allowed before:
/// the `nproc` the workloads size their generator count by.
pub fn pin_to_one_cpu() -> usize {
    let cpus = allowed();
    match cpus.first() {
        Some(&first) if pin(&[first]) => cpus.len(),
        _ => std::thread::available_parallelism().map_or(1, |n| n.get()),
    }
}

#[cfg(not(target_os = "linux"))]
pub fn allowed() -> Vec<usize> {
    Vec::new()
}

#[cfg(not(target_os = "linux"))]
pub fn pin(_cpus: &[usize]) -> bool {
    false
}
