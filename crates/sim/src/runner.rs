//! The lane runner: the threads an engine of several lanes runs its
//! windows on.
//!
//! An engine set to `w` workers runs a window on `w` threads: `w − 1`
//! runner threads that live as long as the engine, plus the engine's
//! own thread. The lanes are cut into units — contiguous, near-even
//! chunks, one per execution shard — and each thread claims the next
//! unclaimed unit from one atomic index until none is left, then waits
//! at a barrier; the caller returns once every thread is through it.
//! Which thread runs which unit is whatever the race decides, and it
//! cannot matter: a lane's window touches only that lane, and the
//! caller moves the lanes back in lane order before the barrier merge.
//!
//! Lanes move to the runner threads through one `Mutex` per unit whose
//! `Vec` keeps its capacity, so a window allocates nothing. A lane that
//! panics stores its payload in its unit; the caller re-raises the
//! first (in unit order) once the barrier is passed and every lane is
//! back, so the runner threads are idle again when the panic unwinds.

use std::any::Any;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Condvar, Mutex, PoisonError};
use std::thread::{self, JoinHandle};

use crate::time::Nanos;

/// Every lane runs inside `catch_unwind`, so no lock is held across a
/// panic and none is ever poisoned.
const UNPOISONED: &str = "runner locks are never held across a panic";

/// The lanes of unit `u` of `units`, for `n` lanes: contiguous and
/// near-even, the first `n % units` one lane longer.
pub(crate) fn unit_range(n: usize, units: usize, u: usize) -> Range<usize> {
    let (base, extra) = (n / units, n % units);
    let start = u * base + u.min(extra);
    start..start + base + usize::from(u < extra)
}

/// One unit's lanes while a window runs, and the payload of a panic
/// one of them raised.
struct Unit<L> {
    lanes: Vec<L>,
    panic: Option<Box<dyn Any + Send>>,
}

/// What the caller publishes to start a window (or end the runner).
struct Control {
    generation: u64,
    target: Nanos,
    shutdown: bool,
}

struct Shared<L> {
    units: Vec<Mutex<Unit<L>>>,
    /// The next unit to claim this window. `Relaxed` suffices: it
    /// publishes no data. Lanes cross threads through the unit mutexes,
    /// and the caller's reset to 0 reaches a runner thread through the
    /// `control` mutex it locks before claiming.
    next: AtomicUsize,
    control: Mutex<Control>,
    /// Notified when `control` changes.
    start: Condvar,
    /// Every thread, the caller included, meets here after each window.
    done: Barrier,
    /// Advances one lane to the window target.
    step: fn(&mut L, Nanos),
}

impl<L> Shared<L> {
    /// Claim and run units until none is left.
    fn claim_units(&self, target: Nanos) {
        loop {
            let u = self.next.fetch_add(1, Ordering::Relaxed);
            let Some(unit) = self.units.get(u) else {
                return;
            };
            let mut unit = unit.lock().expect(UNPOISONED);
            let Unit { lanes, panic } = &mut *unit;
            let ran = catch_unwind(AssertUnwindSafe(|| {
                lanes.iter_mut().for_each(|lane| (self.step)(lane, target))
            }));
            if let Err(payload) = ran {
                *panic = Some(payload);
            }
        }
    }

    /// A runner thread: run each window it is woken for, until shutdown.
    fn serve(&self) {
        let mut seen = 0;
        loop {
            let target = {
                let mut c = self.control.lock().expect(UNPOISONED);
                while c.generation == seen && !c.shutdown {
                    c = self.start.wait(c).expect(UNPOISONED);
                }
                if c.shutdown {
                    return;
                }
                seen = c.generation;
                c.target
            };
            self.claim_units(target);
            self.done.wait();
        }
    }
}

/// `threads` persistent runner threads serving `units` units per window.
pub(crate) struct LaneRunner<L: Send + 'static> {
    shared: Arc<Shared<L>>,
    threads: Vec<JoinHandle<()>>,
}

impl<L: Send + 'static> LaneRunner<L> {
    pub(crate) fn new(threads: usize, units: usize, step: fn(&mut L, Nanos)) -> LaneRunner<L> {
        let shared = Arc::new(Shared {
            units: (0..units)
                .map(|_| {
                    Mutex::new(Unit {
                        lanes: Vec::new(),
                        panic: None,
                    })
                })
                .collect(),
            next: AtomicUsize::new(0),
            control: Mutex::new(Control {
                generation: 0,
                target: Nanos::ZERO,
                shutdown: false,
            }),
            start: Condvar::new(),
            done: Barrier::new(threads + 1),
            step,
        });
        let threads = (0..threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("lane-runner-{i}"))
                    .spawn(move || shared.serve())
                    .expect("spawn lane runner")
            })
            .collect();
        LaneRunner { shared, threads }
    }

    /// Advance every lane to `target` on the runner threads and the
    /// calling thread, and put them back in place, in order. A lane's
    /// panic re-panics here with its payload.
    pub(crate) fn run(&self, lanes: &mut [Option<L>], target: Nanos) {
        let shared = &*self.shared;
        let units = shared.units.len();
        for (u, unit) in shared.units.iter().enumerate() {
            let range = unit_range(lanes.len(), units, u);
            let chunk = lanes[range]
                .iter_mut()
                .map(|l| l.take().expect("lane in place"));
            unit.lock().expect(UNPOISONED).lanes.extend(chunk);
        }
        shared.next.store(0, Ordering::Relaxed);
        {
            let mut c = shared.control.lock().expect(UNPOISONED);
            c.generation += 1;
            c.target = target;
        }
        shared.start.notify_all();
        shared.claim_units(target);
        shared.done.wait();
        let mut first_panic = None;
        for (u, unit) in shared.units.iter().enumerate() {
            let mut unit = unit.lock().expect(UNPOISONED);
            let range = unit_range(lanes.len(), units, u);
            for (slot, lane) in lanes[range].iter_mut().zip(unit.lanes.drain(..)) {
                *slot = Some(lane);
            }
            first_panic = first_panic.or(unit.panic.take());
        }
        if let Some(payload) = first_panic {
            resume_unwind(payload);
        }
    }

    /// The state the runner threads hold, to check they let go of it.
    #[cfg(test)]
    pub(crate) fn shared_weak(&self) -> std::sync::Weak<impl Sized> {
        Arc::downgrade(&self.shared)
    }
}

impl<L: Send + 'static> Drop for LaneRunner<L> {
    fn drop(&mut self) {
        let control = self.shared.control.lock();
        control.unwrap_or_else(PoisonError::into_inner).shutdown = true;
        self.shared.start.notify_all();
        for handle in self.threads.drain(..) {
            // Lane panics are caught in their unit: one that escapes is
            // a runner bug, not to be hidden.
            let joined = handle.join();
            assert!(
                joined.is_ok() || thread::panicking(),
                "a lane runner thread panicked"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn units_are_contiguous_near_even_and_cover_every_lane() {
        for n in 1..12 {
            for units in 1..=n {
                let ranges: Vec<_> = (0..units).map(|u| unit_range(n, units, u)).collect();
                assert_eq!(ranges[0].start, 0);
                assert_eq!(ranges[units - 1].end, n);
                assert!(ranges.windows(2).all(|w| w[0].end == w[1].start));
                let lens: Vec<_> = ranges.iter().map(|r| r.len()).collect();
                assert!(lens.windows(2).all(|w| w[0] >= w[1] && w[0] - w[1] <= 1));
            }
        }
    }
}
