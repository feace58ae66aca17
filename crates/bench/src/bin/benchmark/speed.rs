//! Host-speed normalization.
//!
//! The benchmark's host is shared, and its speed jumps. On a 2-vCPU
//! Xeon, the reference kernel below took about 0.95 ms most of the
//! time and 1.3–2 ms in slow stretches, which lasted from a few
//! milliseconds to several seconds and covered from a tenth to nine
//! tenths of a 20-second run. Whole-run raw medians moved by up to 40%,
//! far more than the regressions the bounds must catch. So every timing
//! is scaled by the kernel's time right before and after it, on the
//! same thread. The kernel is benchmark code, so a change to the
//! program cannot speed it up.
//!
//! The workloads slow down less than the kernel in those stretches.
//! When the kernel took `s` times as long, a run's slow items took
//! about `s^0.6` times as long as its quiet ones (median over 44
//! `flat_random`, `wire_heavy` and `cts_htree` runs that had both; the
//! memory-bound `serve_edit` items about `s^0.45`). So a time is scaled
//! by the kernel's slowdown to the power [`SENSITIVITY`], not by the
//! slowdown itself. Of the powers 0.5–1 tried on two sets of ten runs
//! per workload, 0.75 left the smallest run-to-run spreads (worst
//! 0.048, interquartile range over median). Dividing outright
//! over-corrected: it left 0.104–0.109 on `wire_heavy`'s median, where
//! the power leaves 0.025–0.035.
//!
//! The kernel does what the engine does most: it builds small vectors
//! the way `Vec` grows them and frees them again. It must not depend on
//! the state the program leaves behind, or a change that made that
//! state worse would slow the yardstick and read as a speed-up. So the
//! kernel allocates from free lists over a buffer of its own, never from
//! the program's heap, and each timing starts with an uncounted warm-up
//! run, which refills the caches with the kernel's own data.
//!
//! It runs on the workload's thread because the alternatives measure
//! something else. A kernel in a child process ran on the other vCPU in
//! all 73 timings of one run, and that vCPU's speed is not the
//! workload's. And once a process has started a second thread, glibc's
//! malloc leaves its single-thread fast path for good: an
//! allocation-heavy loop ran 20–35% slower (best of 2000 runs).
//! The kernel does not track perfectly, so the raw values are kept next
//! to the normalized ones in every summary and run record.

use std::hint::black_box;
use std::time::Instant;

/// The kernel's time on the reference host, by definition, so
/// normalized times are in milliseconds of that host. It is about the
/// kernel's time on the quiet Xeon host above, where normalized and raw
/// times roughly agree.
pub const REFERENCE_MS: f64 = 1.0;

/// How much of the kernel's slowdown a workload shares: a time is
/// scaled by `(REFERENCE_MS / kernel)^SENSITIVITY`. Fitted on the host
/// above (see the module comment).
pub const SENSITIVITY: f64 = 0.75;

/// Item time after which the kernel is timed again. Short slow
/// stretches are caught only this often, so `serve_edit`'s millisecond
/// items share one timing per this much work; longer items get one
/// each.
pub const REFRESH_MS: f64 = 10.0;

/// Capacity classes of the kernel's vectors: class `c` holds `4 << c`
/// values, like a `Vec<f64>` after `c` doublings.
const CLASSES: usize = 5;

/// The reference kernel and the memory it allocates from.
#[derive(Debug, Default)]
pub struct Kernel {
    /// Backing store of every vector the kernel builds. It grows during
    /// the first run only: the runs are identical and free everything.
    arena: Vec<f64>,
    /// Free vectors (offsets into `arena`) by capacity class.
    free: [Vec<usize>; CLASSES],
    /// Vectors kept alive until the end of a run.
    kept: Vec<(usize, usize)>,
}

impl Kernel {
    pub fn new() -> Self {
        Self::default()
    }

    /// Median wall time of three kernel runs after a warm-up run, ms.
    pub fn time_ms(&mut self) -> f64 {
        self.run();
        let mut t = [0.0; 3];
        for slot in &mut t {
            let start = Instant::now();
            self.run();
            *slot = start.elapsed().as_secs_f64() * 1e3;
        }
        t.sort_by(f64::total_cmp);
        t[1]
    }

    fn alloc(&mut self, class: usize) -> usize {
        self.free[class].pop().unwrap_or_else(|| {
            let at = self.arena.len();
            self.arena.resize(at + (4 << class), 0.0);
            at
        })
    }

    /// Builds a few thousand small vectors, doubling each as it fills,
    /// frees two thirds of them at once and the rest at the end.
    fn run(&mut self) {
        for i in 0..13_500usize {
            let len = 16 + i % 48;
            let (mut at, mut class) = (self.alloc(0), 0);
            for j in 0..len {
                if j == 4 << class {
                    let to = self.alloc(class + 1);
                    self.arena.copy_within(at..at + j, to);
                    self.free[class].push(at);
                    (at, class) = (to, class + 1);
                }
                self.arena[at + j] = j as f64;
            }
            black_box(&self.arena[at..at + len]);
            if i % 3 == 0 {
                self.kept.push((at, class));
            } else {
                self.free[class].push(at);
            }
        }
        for (at, class) in self.kept.drain(..) {
            self.free[class].push(at);
        }
    }
}

/// The factor that takes a wall time measured between two kernel
/// timings to reference-host time.
pub fn factor(before_ms: f64, after_ms: f64) -> f64 {
    (2.0 * REFERENCE_MS / (before_ms + after_ms)).powf(SENSITIVITY)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_reuses_its_memory_and_factor_damps_its_slowdown() {
        let mut k = Kernel::new();
        let t = k.time_ms();
        assert!(t > 0.0 && t.is_finite());
        let (len, free) = (k.arena.len(), k.free.clone());
        k.time_ms();
        assert_eq!(k.arena.len(), len, "the arena grew after the first run");
        assert_eq!(k.free.map(|f| f.len()), free.map(|f| f.len()));
        assert_eq!(factor(2.0, 2.0), 0.5f64.powf(SENSITIVITY));
        assert_eq!(factor(0.5, 1.5), 1.0);
    }
}
