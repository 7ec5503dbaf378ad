//! CPU affinity for workloads whose work is one serial chain.
//!
//! A single closed-loop client makes the whole stack take turns: client
//! writes, worker wakes, batcher wakes, worker answers, client wakes.
//! Left to itself the scheduler spreads that chain over the CPUs, and
//! every hand-off between CPUs then costs an inter-processor interrupt,
//! which in a small virtual machine means a trip through the host whose
//! price moves 3-4x from one minute to the next (the same cache-hit
//! round trip read 19 µs in one batch of runs and 62-90 µs in the next).
//! Run on one CPU, the chain pays for the program's own work only, and
//! repeats.

/// Words of a CPU mask: room for 1024 CPUs, the kernel's own default.
const MASK_WORDS: usize = 16;
type CpuMask = [u64; MASK_WORDS];

extern "C" {
    // From the C library `std` already links. `pid` 0 is the calling thread.
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// The calling thread confined to one CPU; dropping this gives it back
/// the CPUs it had. Threads and processes started in between keep the
/// one CPU.
pub struct Pinned {
    /// The CPU everything runs on.
    pub cpu: usize,
    original: CpuMask,
}

const MASK_BYTES: usize = std::mem::size_of::<CpuMask>();

/// Confines the calling thread, and every thread or process it starts
/// until the guard is dropped, to the highest-numbered CPU it is allowed
/// to use. `None` (and nothing changed) when the kernel refuses.
pub fn pin_to_one_cpu() -> Option<Pinned> {
    let mut original: CpuMask = [0; MASK_WORDS];
    // SAFETY: `original` is a live, writable buffer of exactly `MASK_BYTES`.
    if unsafe { sched_getaffinity(0, MASK_BYTES, original.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = (0..MASK_WORDS * 64)
        .rev()
        .find(|cpu| original[cpu / 64] >> (cpu % 64) & 1 == 1)?;
    let mut one: CpuMask = [0; MASK_WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a live buffer of exactly `MASK_BYTES`, only read.
    (unsafe { sched_setaffinity(0, MASK_BYTES, one.as_ptr()) } == 0)
        .then_some(Pinned { cpu, original })
}

impl Drop for Pinned {
    fn drop(&mut self) {
        // SAFETY: `original` is a live buffer of exactly `MASK_BYTES`, only
        // read. A failure leaves the thread pinned, which is harmless.
        unsafe { sched_setaffinity(0, MASK_BYTES, self.original.as_ptr()) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinning_narrows_to_one_cpu_and_dropping_restores() {
        let allowed = || {
            let mut mask: CpuMask = [0; MASK_WORDS];
            // SAFETY: as in `pin_to_one_cpu`.
            assert_eq!(
                unsafe { sched_getaffinity(0, MASK_BYTES, mask.as_mut_ptr()) },
                0
            );
            mask
        };
        let before = allowed();
        let pinned = pin_to_one_cpu().expect("affinity is settable in the test environment");
        let during = allowed();
        assert_eq!(during.iter().map(|w| w.count_ones()).sum::<u32>(), 1);
        assert_eq!(during[pinned.cpu / 64] >> (pinned.cpu % 64) & 1, 1);
        let inherited = std::thread::spawn(allowed).join().unwrap();
        assert_eq!(
            inherited, during,
            "threads started while pinned inherit the pin"
        );
        drop(pinned);
        assert_eq!(allowed(), before);
    }
}
