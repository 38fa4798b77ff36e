//! A map attempt's support thread: it sorts, combines and writes the
//! segments the map thread hands over, one at a time, while the map
//! thread fills the other half of the spill buffer.
//!
//! The thread starts with the attempt's first spill made before its input
//! ends; an attempt whose spills all come at the end (at most one, after
//! the drain barrier) starts none and spills on its own thread. The thread
//! lives in the attempt's [`std::thread::Scope`], so it never outlives the
//! attempt, and it is joined before the last spill and the merge, which
//! take the attempt's [`Grouper`] back. At most one segment is in flight:
//! the map thread waits for a spill's outcome before it hands over the
//! next, which also returns the segment (cleared) for reuse.
//!
//! A spill that fails with an I/O error comes back as that error, naming
//! the store file; a panic on the thread (a panicking combiner) resumes on
//! the map thread when it next waits or joins.

use crate::io::store::Store;
use crate::metrics::Stopwatch;
use crate::task::merge::Grouper;
use crate::task::segment::Segment;
use crate::task::spill::{spill_segment_into, SpillOutcome};
use std::cell::Cell;
use std::io;
use std::sync::mpsc::{channel, Receiver, RecvError, Sender};
use std::sync::Arc;
use std::thread::{Scope, ScopedJoinHandle};

/// A handed-over segment back from the support thread, cleared for reuse,
/// with the outcome of spilling it.
pub(crate) struct Spilled {
    pub(crate) seg: Segment,
    pub(crate) outcome: io::Result<SpillOutcome>,
}

/// The running thread's ends.
struct Thread<'scope, 'env> {
    to: Sender<Segment>,
    from: Receiver<Spilled>,
    handle: ScopedJoinHandle<'scope, Grouper<'env>>,
}

/// Where an attempt's segments are spilled: on the support thread once it
/// runs, else on the caller's.
pub(crate) struct Support<'scope, 'env> {
    scope: &'scope Scope<'scope, 'env>,
    store: Arc<Store>,
    frame_bytes: Option<usize>,
    /// The attempt's grouper while no thread runs (the thread holds it).
    grouper: Option<Grouper<'env>>,
    thread: Option<Thread<'scope, 'env>>,
    /// The in-flight spill's outcome, once received and not yet taken.
    arrived: Cell<Option<Result<Spilled, RecvError>>>,
    /// Nanoseconds the caller spent blocked on the thread, not yet taken.
    blocked_ns: Cell<u64>,
}

impl<'scope, 'env> Support<'scope, 'env> {
    /// Spills appended to `store` through `grouper`, framed when
    /// `frame_bytes` is given; a thread, when one starts, runs in `scope`.
    pub(crate) fn new(
        scope: &'scope Scope<'scope, 'env>,
        store: Arc<Store>,
        frame_bytes: Option<usize>,
        grouper: Grouper<'env>,
    ) -> Self {
        Support {
            scope,
            store,
            frame_bytes,
            grouper: Some(grouper),
            thread: None,
            arrived: Cell::new(None),
            blocked_ns: Cell::new(0),
        }
    }

    /// Start spilling `seg` on the support thread (starting it first if
    /// need be). The previous spill's outcome must have been taken.
    pub(crate) fn hand_over(&mut self, seg: Segment) {
        let thread = match self.thread.take() {
            Some(thread) => thread,
            None => self.start(),
        };
        // A thread that died (it panicked) dropped its end; the panic
        // resumes at the next wait.
        let _ = thread.to.send(seg);
        self.thread = Some(thread);
    }

    /// Start the support thread with the attempt's grouper.
    fn start(&mut self) -> Thread<'scope, 'env> {
        let mut grouper = self.grouper.take().expect("grouper held without a thread");
        let (to, segments) = channel::<Segment>();
        let (done, from) = channel();
        let store = Arc::clone(&self.store);
        let frame_bytes = self.frame_bytes;
        let handle = self.scope.spawn(move || {
            for mut seg in segments {
                let outcome = spill(&seg, &mut grouper, &store, frame_bytes);
                seg.clear();
                if done.send(Spilled { seg, outcome }).is_err() {
                    break;
                }
            }
            grouper
        });
        Thread { to, from, handle }
    }

    /// Block until the in-flight spill is back, keeping its outcome for
    /// [`wait`](Support::wait); its measured consume time (0 if it failed).
    pub(crate) fn consume_ns(&self) -> u64 {
        let arrived = self.arrived.take().unwrap_or_else(|| self.recv());
        let ns = match &arrived {
            Ok(Spilled {
                outcome: Ok(out), ..
            }) => out.consume_ns(),
            _ => 0,
        };
        self.arrived.set(Some(arrived));
        ns
    }

    /// Whether the in-flight spill's outcome has been received already.
    pub(crate) fn has_arrived(&self) -> bool {
        let arrived = self.arrived.take();
        let has = arrived.is_some();
        self.arrived.set(arrived);
        has
    }

    /// The in-flight spill's segment and outcome, waiting for it if need
    /// be.
    ///
    /// # Panics
    /// Resumes the support thread's panic if it died.
    pub(crate) fn wait(&mut self) -> Spilled {
        match self.arrived.take().unwrap_or_else(|| self.recv()) {
            Ok(spilled) => spilled,
            Err(RecvError) => {
                self.join();
                unreachable!("the support thread exited with a spill in flight")
            }
        }
    }

    fn recv(&self) -> Result<Spilled, RecvError> {
        let thread = self.thread.as_ref().expect("a spill in flight");
        let sw = Stopwatch::start();
        let got = thread.from.recv();
        self.blocked_ns.set(self.blocked_ns.get() + sw.elapsed_ns());
        got
    }

    /// Nanoseconds spent blocked on the support thread since the last take.
    pub(crate) fn take_blocked_ns(&mut self) -> u64 {
        self.blocked_ns.take()
    }

    /// Spill `seg` on the caller's thread, joining the support thread
    /// first. No spill may be in flight.
    pub(crate) fn spill_here(&mut self, seg: &Segment) -> io::Result<SpillOutcome> {
        let (store, frame_bytes) = (Arc::clone(&self.store), self.frame_bytes);
        spill(seg, self.grouper(), &store, frame_bytes)
    }

    /// The attempt's grouper, joining the support thread first. No spill
    /// may be in flight.
    pub(crate) fn grouper(&mut self) -> &mut Grouper<'env> {
        self.join();
        self.grouper.as_mut().expect("grouper back from the thread")
    }

    /// Stop the support thread, if it runs, and take its grouper back.
    fn join(&mut self) {
        if let Some(Thread { to, from, handle }) = self.thread.take() {
            drop((to, from));
            match handle.join() {
                Ok(grouper) => self.grouper = Some(grouper),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
    }
}

/// Spill `seg` into `store`; an I/O error names the store file.
fn spill(
    seg: &Segment,
    grouper: &mut Grouper<'_>,
    store: &Arc<Store>,
    frame_bytes: Option<usize>,
) -> io::Result<SpillOutcome> {
    spill_segment_into(seg, grouper, store, frame_bytes).map_err(|e| {
        io::Error::new(
            e.kind(),
            format!("spilling to {}: {e}", store.path().display()),
        )
    })
}
