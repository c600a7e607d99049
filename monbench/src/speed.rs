//! Host-speed gauge. The benchmark shares a few cores of a host whose
//! speed changes by tens of percent from one tenth of a second to the
//! next, as other tenants load the same physical cores, which would swamp
//! any program change. So a short reference kernel is timed after every
//! server call of an untraced episode, and each stretch of work between two
//! kernel passes is scaled to the speed at which one pass takes
//! [`REFERENCE_S`].
//!
//! The kernel is the benchmark's own code, never the program's, so a change
//! to the program cannot move it. It mimics the program's hot loop (rect
//! distance tests, data-dependent branches) over a 64 KiB table, which
//! stays in L2 and evicts little of the program's cached data.

use std::hint::black_box;
use std::time::Instant;

/// Seconds one kernel pass takes at the reference speed.
pub const REFERENCE_S: f64 = 2.0e-4;

const TABLE: usize = 1 << 11;
const STEPS: usize = 40_000;

pub struct Gauge {
    rects: Vec<[f64; 4]>,
    /// The latest reading.
    last: f64,
}

impl Gauge {
    pub fn new() -> Self {
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 11) as f64 / (1u64 << 53) as f64
        };
        let rects = (0..TABLE)
            .map(|_| {
                let (x0, y0) = (next(), next());
                [x0, y0, x0 + 0.05 * next(), y0 + 0.05 * next()]
            })
            .collect();
        let mut g = Gauge { rects, last: 0.0 };
        g.restart();
        g
    }

    /// Takes a fresh reading to start a new stretch from.
    pub fn restart(&mut self) {
        self.last = self.time_pass();
    }

    /// Ends a stretch of work with one kernel pass and returns the factor
    /// that scales the stretch to the reference speed: the mean of the
    /// passes on either side of it.
    pub fn mark(&mut self) -> f64 {
        let now = self.time_pass();
        let k = REFERENCE_S / (0.5 * (self.last + now));
        self.last = now;
        k
    }

    fn time_pass(&self) -> f64 {
        let t = Instant::now();
        black_box(self.pass());
        t.elapsed().as_secs_f64()
    }

    fn pass(&self) -> f64 {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let (mut px, mut py, mut acc) = (0.5f64, 0.5f64, 0.0f64);
        for _ in 0..STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let r = &self.rects[x as usize & (TABLE - 1)];
            let dx = (r[0] - px).max(px - r[2]).max(0.0);
            let dy = (r[1] - py).max(py - r[3]).max(0.0);
            let d = dx * dx + dy * dy;
            if d < 0.02 {
                acc += d.sqrt();
                px = 0.5 * (r[0] + r[2]);
            } else {
                acc -= 1e-3 * d;
                py = 0.5 * (r[1] + r[3]);
            }
        }
        acc
    }
}
