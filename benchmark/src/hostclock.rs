//! The host clock behind `setup_s` and `host_s_per_sim_s`: this thread's CPU
//! time, scaled by the host's speed at that moment.
//!
//! The benchmark shares a few virtual cores with other tenants, and the wall
//! clock of one and the same computation moves by a factor of two there:
//!
//! * the hypervisor takes the core away (steal time). The thread's CPU clock
//!   does not run while it is taken (the kernel subtracts steal), the wall
//!   clock does;
//! * the core itself runs faster or slower for tens of seconds at a time
//!   (whatever the neighbours do to caches and clocks). That stretches CPU time too —
//!   measured 148 to 245 ms for one fixed loop — and no median over the reps
//!   of a 20 s run removes it, because the whole run sits on one plateau.
//!
//! So a timed [`Section`] reads the thread CPU clock, and is cut into slices
//! of [`SLICE_S`] by [`tick`], with one pass of a fixed calibration kernel
//! before, between and after them: each slice's CPU time is multiplied by
//! `NOMINAL_KERNEL_S / kernel time around it`. The sum reads "seconds on a
//! host that runs the kernel in `NOMINAL_KERNEL_S`". The wall clock is kept
//! beside both for information.
//!
//! The kernel is benchmark-owned code with the program's resource mix (object
//! clone through the allocator, event heap, string-keyed counters, boxed
//! messages, ordered map); it calls nothing in the product, so a product
//! change cannot move it. It follows the program's slow-downs in part, not in
//! full: in two series of about 50 reps per workload, 25 minutes each, the
//! quartiles of one section's time were 12–20 % of the median apart in CPU
//! seconds and 3–8 % in scaled seconds, the 5th and 95th percentiles 29–59 %
//! and 9–37 %. Tried beside it on the same slices and left out: copies
//! between kept buffers, out of the last-level cache or within the
//! second-level one (hardly slow down when the program does), an
//! interpreter-like loop in the first-level cache (follows worse), page
//! faults on a fresh mapping (swing by 100 %), and exponents other than one
//! (each workload wants another). The passes cost about a sixth of a
//! section's wall time and leave the caches cold for the slice that follows,
//! alike on every commit.

use std::collections::{BTreeMap, BinaryHeap, HashMap, VecDeque};
use std::hint::black_box;
use std::time::Instant;

use crate::alloc;

/// One kernel pass on the reference host, in CPU seconds: the fast plateau
/// of the 2-vCPU Xeon 2.1 GHz box the README's numbers were taken on.
pub const NOMINAL_KERNEL_S: f64 = 0.0090;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the thread CPU clock is read through 64-bit Linux's clock_gettime");

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_THREAD_CPUTIME_ID` on Linux.
const THREAD_CPU: i32 = 3;

/// CPU seconds this thread has run.
pub fn thread_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit fields
    // on every 64-bit Linux target) for the duration of the call.
    let rc = unsafe { clock_gettime(THREAD_CPU, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// One pass of the calibration kernel; the return value only keeps the
/// optimiser from removing the work. The working sets are sized past the
/// first-level cache, as the program's are: a kernel that stays in it slows
/// down less than the program does when the host gets busy.
fn kernel_pass() -> u64 {
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut next = move || {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        x >> 33
    };
    let mut acc = 0u64;

    // An OSD transaction: clone a stripe object, append an entry. Through
    // the program's allocator on purpose: what a fresh 640 KiB block costs
    // right now, page faults included, is part of the host's speed as the
    // program meets it (`fault_churn` spends a fifth of its time there).
    let mut object = vec![7u8; 640 * 1024];
    for i in 0..8u64 {
        let mut copy = object.clone();
        copy.extend_from_slice(&[i as u8; 1024]);
        acc += u64::from(copy[(next() as usize) % copy.len()]);
        copy.truncate(640 * 1024);
        object = copy;
    }

    // The scheduler: a timer heap.
    let mut heap = BinaryHeap::new();
    for i in 0..24_000u64 {
        heap.push(std::cmp::Reverse((next() % 1_000_000, i)));
        if i % 16 == 15 {
            acc += heap.pop().map_or(0, |e| e.0 .0);
        }
    }
    while let Some(e) = heap.pop() {
        acc ^= e.0 .1;
    }

    // `Metrics`: counters keyed by name.
    let names: Vec<String> = (0..4000).map(|i| format!("layer.counter_{i}")).collect();
    let mut counters: HashMap<String, u64> = HashMap::new();
    for _ in 0..24_000 {
        let name = &names[(next() % 4000) as usize];
        match counters.get_mut(name.as_str()) {
            Some(v) => *v += 1,
            None => {
                counters.insert(name.clone(), 1);
            }
        }
    }
    acc += counters.values().sum::<u64>();

    // Messages: boxed, queued, dropped.
    let mut queue: VecDeque<Box<[u64; 12]>> = VecDeque::new();
    for i in 0..24_000u64 {
        queue.push_back(Box::new([next(); 12]));
        if i % 16 == 0 {
            acc += queue.pop_front().map_or(0, |m| m[3]);
        }
    }
    drop(queue);

    // An omap: ordered inserts, lookups, a range scan.
    let mut omap: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
    for _ in 0..12_000 {
        let k = next() % 500_000;
        omap.insert(k, vec![k as u8; 48]);
    }
    for _ in 0..6_000 {
        acc += omap.get(&(next() % 500_000)).map_or(0, |v| u64::from(v[0]));
    }
    acc += omap
        .range(100_000..400_000)
        .map(|(_, v)| v.len() as u64)
        .sum::<u64>();
    black_box(acc)
}

/// CPU seconds of one kernel pass now. The allocator's counters stand
/// still meanwhile: the kernel's allocations are not the program's.
fn kernel_s() -> f64 {
    alloc::pause(true);
    let started = thread_cpu_s();
    kernel_pass();
    let t = thread_cpu_s() - started;
    alloc::pause(false);
    t
}

/// The median of three passes, for the two ends of a section.
fn kernel_median_s() -> f64 {
    let mut t = [kernel_s(), kernel_s(), kernel_s()];
    t.sort_by(f64::total_cmp);
    t[1]
}

/// A section is cut into slices of about this much CPU time, with one
/// kernel pass between two slices: the host's speed changes within a second.
const SLICE_S: f64 = 0.05;

/// The clocks of the open section.
struct Running {
    scaled_s: f64,
    cpu_s: f64,
    wall_s: f64,
    last_kernel: f64,
    slice_cpu: f64,
    slice_wall: Instant,
}

impl Running {
    /// Ends the current slice, measures the kernel and starts the next slice.
    fn cut(&mut self, kernel: fn() -> f64) {
        let cpu = thread_cpu_s() - self.slice_cpu;
        self.wall_s += self.slice_wall.elapsed().as_secs_f64();
        let kernel = kernel();
        self.cpu_s += cpu;
        self.scaled_s += cpu * NOMINAL_KERNEL_S / ((self.last_kernel + kernel) / 2.0);
        self.last_kernel = kernel;
        self.slice_cpu = thread_cpu_s();
        self.slice_wall = Instant::now();
    }
}

thread_local! {
    static OPEN: std::cell::RefCell<Option<Running>> = const { std::cell::RefCell::new(None) };
}

/// Call between steps of simulated time: once the open section's current
/// slice is [`SLICE_S`] old, this stops its clocks, runs one kernel pass and
/// starts the next slice. Does nothing outside a section.
pub fn tick() {
    OPEN.with(|open| {
        let mut open = open.borrow_mut();
        let Some(r) = open.as_mut() else { return };
        if thread_cpu_s() - r.slice_cpu >= SLICE_S {
            r.cut(kernel_s);
        }
    });
}

/// A timed section in progress; one at a time.
pub struct Section(());

/// What a [`Section`] took.
#[derive(Debug, Clone, Copy)]
pub struct HostTime {
    /// Wall-clock seconds, steal and all; for information.
    pub wall_s: f64,
    /// Thread CPU seconds, as read.
    pub cpu_s: f64,
    /// CPU seconds, each slice scaled by `NOMINAL_KERNEL_S` over the kernel
    /// time around it: seconds on the reference host.
    scaled_s: f64,
}

impl HostTime {
    /// What the metrics report.
    pub fn seconds(&self) -> f64 {
        self.scaled_s
    }

    /// Above one on a host faster than the reference.
    pub fn speed(&self) -> f64 {
        self.scaled_s / self.cpu_s
    }
}

impl Section {
    /// Calibrates, then starts the clocks.
    pub fn start() -> Section {
        let kernel = kernel_median_s();
        let running = Running {
            scaled_s: 0.0,
            cpu_s: 0.0,
            wall_s: 0.0,
            last_kernel: kernel,
            slice_cpu: thread_cpu_s(),
            slice_wall: Instant::now(),
        };
        OPEN.with(|open| *open.borrow_mut() = Some(running));
        Section(())
    }

    /// Stops the clocks, then calibrates again.
    pub fn finish(self) -> HostTime {
        let mut r = OPEN
            .with(|open| open.borrow_mut().take())
            .expect("the section was started");
        r.cut(kernel_median_s);
        HostTime {
            wall_s: r.wall_s,
            cpu_s: r.cpu_s,
            scaled_s: r.scaled_s,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_thread_cpu_clock_advances_with_work_and_not_with_sleep() {
        let c0 = thread_cpu_s();
        std::thread::sleep(std::time::Duration::from_millis(50));
        let slept = thread_cpu_s() - c0;
        assert!(slept < 0.02, "sleeping cost {slept} CPU seconds");
        let c1 = thread_cpu_s();
        let w1 = Instant::now();
        kernel_pass();
        let (cpu, wall) = (thread_cpu_s() - c1, w1.elapsed().as_secs_f64());
        assert!(cpu > 0.0 && cpu <= wall * 1.05 + 0.001, "{cpu} vs {wall}");
    }

    #[test]
    fn a_section_adds_up_its_slices_and_leaves_the_kernel_passes_out() {
        let t = HostTime {
            wall_s: 3.0,
            cpu_s: 2.0,
            scaled_s: 1.0,
        };
        assert_eq!(t.speed(), 0.5);

        let section = Section::start();
        let started = thread_cpu_s();
        let mut passes_between = 0;
        while thread_cpu_s() - started < 3.0 * SLICE_S {
            kernel_pass();
            tick();
            passes_between += 1;
        }
        let all = thread_cpu_s() - started;
        let t = section.finish();
        assert!(passes_between >= 3);
        // The section's own work is counted, tick's kernel passes are not.
        assert!(t.cpu_s >= 2.0 * SLICE_S && t.cpu_s < all, "{t:?} of {all}");
        assert!(t.wall_s >= t.cpu_s * 0.9, "{t:?}");
        assert!(t.speed() > 0.05 && t.speed() < 20.0, "{t:?}");
        tick(); // no section open: nothing happens
    }
}
