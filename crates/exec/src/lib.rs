//! # Deterministic execution layer
//!
//! Every parallel site in this workspace has the same shape: a batch of
//! *index-pure* tasks — task `i` is a function of `i` (and state only task
//! `i` touches) — whose results must come back in index order. The
//! experiment harness fans figure cells out this way, and the
//! multi-application coordinator shards its per-app observe/decide stages
//! the same way. Both used to spawn fresh `std::thread::scope` workers at
//! every call, paying the thread spawn/join cost once per decision quantum.
//!
//! [`ExecPool`] replaces those sites with one **persistent** pool: worker
//! threads are spawned once, parked on a condvar, and reused for every
//! subsequent batch, so the steady-state dispatch cost is a lock + wake
//! rather than N thread spawns. The pool is *deterministic by
//! construction*:
//!
//! * tasks are index-pure, so which worker runs a task (and in what order
//!   workers claim tasks) cannot change any task's result;
//! * results are written into the slot of their own index and handed back
//!   in index order ([`ExecPool::map_indexed`]), so the fan-in order is
//!   fixed whatever the interleaving;
//! * a pool with one thread (or a batch of one task) runs **inline** on the
//!   caller's thread, sequentially, in index order — and because of the two
//!   points above, the parallel path is bit-identical to that sequential
//!   path at every thread count (pinned by `tests/pool_props.rs`).
//!
//! The caller always participates in its own batch, so a batch makes
//! progress even if every worker is busy with someone else's batch (nested
//! dispatch degrades to inline execution rather than deadlocking).
//!
//! ```
//! use exec::ExecPool;
//!
//! let pool = ExecPool::new(4);
//! let squares = pool.map_indexed(8, |i| i * i);
//! assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
//!
//! // Disjoint in-place mutation: each slot is touched by exactly one task.
//! let mut totals = vec![1.0f64; 5];
//! pool.for_each_mut(&mut totals, |i, total| *total += i as f64);
//! assert_eq!(totals, vec![1.0, 2.0, 3.0, 4.0, 5.0]);
//! ```

#![warn(missing_docs)]
#![warn(rustdoc::broken_intra_doc_links)]

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

/// The type-erased batch closure workers execute: call it with each claimed
/// index. Lifetime-erased to `'static` for the hand-off to persistent
/// threads; soundness comes from [`CompletionGuard`], which blocks the
/// dispatching call until every claimed index has finished (even on
/// unwind), so the borrow can never dangle while a worker holds it.
type Task = *const (dyn Fn(usize) + Sync);

/// One batch in flight: the erased task, how many indices it spans, how
/// many are still unfinished, and the first panic any task raised (workers
/// catch task panics and park the payload here; the dispatching caller
/// re-raises it once the batch has fully completed, mirroring the panic
/// propagation of the `std::thread::scope` join this pool replaced).
struct Batch {
    task: TaskPtr,
    count: usize,
    next: AtomicUsize,
    /// Consecutive indices one `next` claim hands out (≥ 1). Large batches
    /// of cheap tasks claim in chunks so the claim cost is amortised over
    /// `stride` tasks instead of paying one contended atomic per index;
    /// see `ExecPool::effective_claim_stride`.
    stride: usize,
    unfinished: AtomicUsize,
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

/// Send/Sync wrapper for the erased task pointer. Safe to share because the
/// pointee is `Sync` (bound enforced where the pointer is created) and is
/// kept alive for the whole batch by [`CompletionGuard`].
struct TaskPtr(Task);

// SAFETY: the pointee is `dyn Fn(usize) + Sync`, so shared calls from many
// threads are sound; liveness is guaranteed by the completion guard (the
// dispatching stack frame outlives every dereference).
unsafe impl Send for TaskPtr {}
unsafe impl Sync for TaskPtr {}

/// State shared between the pool handle and its worker threads.
struct Shared {
    state: Mutex<PoolState>,
    /// Workers park here waiting for a new batch (or shutdown).
    work: Condvar,
    /// Dispatchers park here waiting for their batch's last index.
    done: Condvar,
}

struct PoolState {
    /// The most recently published batch. Workers that wake late and find
    /// it exhausted simply claim nothing and go back to sleep.
    batch: Option<Arc<Batch>>,
    /// Bumped at every publish so sleeping workers can tell a new batch
    /// from the one they already drained.
    epoch: u64,
    shutdown: bool,
}

/// Decrements a batch's unfinished count when dropped — *after* the task
/// call, or during unwind if the task panicked — and wakes the dispatcher
/// on the last index. Keeping the decrement in a `Drop` impl is what makes
/// the completion latch reliable under panics.
struct IndexGuard<'a> {
    batch: &'a Batch,
    shared: &'a Shared,
}

impl Drop for IndexGuard<'_> {
    fn drop(&mut self) {
        if self.batch.unfinished.fetch_sub(1, Ordering::AcqRel) == 1 {
            // Last index: wake the dispatcher. Taking the lock orders this
            // wake after the dispatcher either saw zero or entered the wait.
            let _state = self.shared.state.lock().unwrap();
            self.shared.done.notify_all();
        }
    }
}

/// Blocks until the guarded batch has fully completed. Held by the
/// dispatching call across its own participation, so even if the caller's
/// task panics, the unwind waits for straggling workers before the borrowed
/// closure goes out of scope.
struct CompletionGuard<'a> {
    batch: &'a Arc<Batch>,
    shared: &'a Shared,
}

impl Drop for CompletionGuard<'_> {
    fn drop(&mut self) {
        let mut state = self.shared.state.lock().unwrap();
        while self.batch.unfinished.load(Ordering::Acquire) != 0 {
            state = self.shared.done.wait(state).unwrap();
        }
        // Drop the pool's reference so the batch (and its dangling task
        // pointer) does not linger once the borrow it points into ends —
        // unless a nested or concurrent dispatch has already published a
        // newer batch, which must not be clobbered.
        if state
            .batch
            .as_ref()
            .is_some_and(|current| Arc::ptr_eq(current, self.batch))
        {
            state.batch = None;
        }
    }
}

/// The callback type [`ExecPool::set_dispatch_observer`] accepts: invoked
/// with each pooled dispatch's wall-clock nanoseconds.
pub type DispatchObserver = Arc<dyn Fn(u64) + Send + Sync>;

/// A persistent, deterministic worker pool with ordered fan-out/fan-in.
///
/// See the [crate docs](crate) for the determinism argument. Construction
/// spawns `threads - 1` background workers (the dispatching caller is
/// always the remaining participant); a pool of one thread never spawns
/// anything and runs every batch inline. Dropping the pool joins all
/// workers.
pub struct ExecPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    threads: usize,
    /// Fast flag for [`Self::set_dispatch_observer`]: the dispatch hot path
    /// pays one relaxed load when no observer is attached.
    observed: AtomicBool,
    /// Telemetry callback invoked with each pooled dispatch's wall-clock
    /// nanoseconds (publish → last task finished). Purely passive — it
    /// observes timing, never task order or results — so this crate stays
    /// dependency-free while the telemetry layer hooks in from above.
    observer: Mutex<Option<DispatchObserver>>,
}

impl std::fmt::Debug for ExecPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecPool")
            .field("threads", &self.threads)
            .finish()
    }
}

impl ExecPool {
    /// A pool executing batches on `threads` threads in total — the caller
    /// plus `threads - 1` persistent workers. Clamped to at least 1; one
    /// thread means pure inline (sequential) execution.
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            state: Mutex::new(PoolState {
                batch: None,
                epoch: 0,
                shutdown: false,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
        });
        let workers = (1..threads)
            .map(|index| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("exec-pool-{index}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawning a pool worker thread")
            })
            .collect();
        ExecPool {
            shared,
            workers,
            threads,
            observed: AtomicBool::new(false),
            observer: Mutex::new(None),
        }
    }

    /// How many *consecutive* indices a thread takes per atomic claim when
    /// draining a batch of `count` tasks: chunks scale with the batch so
    /// each thread makes about 32 claims, capped at 64 so no thread can
    /// strand a big tail of work behind one straggler. Tasks are index-pure
    /// and results land in their own slots, so the stride cannot change any
    /// output.
    fn effective_claim_stride(&self, count: usize) -> usize {
        (count / (self.threads * 32)).clamp(1, 64)
    }

    /// Attaches (or, with `None`, detaches) a dispatch observer: a callback
    /// invoked with the wall-clock nanoseconds of every *pooled* dispatch
    /// (inline fast-path batches are not timed). The observer sees only
    /// durations — task order, results, and scheduling are unaffected — so
    /// telemetry layered on top cannot perturb the pool's determinism
    /// guarantee.
    pub fn set_dispatch_observer(&self, observer: Option<DispatchObserver>) {
        let enabled = observer.is_some();
        *self.observer.lock().unwrap() = observer;
        self.observed.store(enabled, Ordering::Release);
    }

    /// The host's available parallelism (1 when it cannot be queried) —
    /// the natural size for a process-wide pool.
    fn default_threads() -> usize {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    }

    /// Total threads batches run on (callers included).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `count` index-pure tasks and returns their results in index
    /// order — the ordered fan-out/fan-in primitive. Bit-identical to
    /// `(0..count).map(task).collect()` at every thread count: see the
    /// [crate docs](crate) for the argument and `tests/pool_props.rs` for
    /// the property pin.
    pub fn map_indexed<T, F>(&self, count: usize, task: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let mut slots: Vec<Option<T>> = Vec::with_capacity(count);
        slots.resize_with(count, || None);
        {
            let slots = SlotPtr(slots.as_mut_ptr());
            self.dispatch(count, &|index| {
                // SAFETY: the batch hands each index to exactly one task, so
                // this is the only write to slot `index`, disjoint from all
                // other slots; the Vec outlives the dispatch (the completion
                // guard blocks until every task finished).
                unsafe { *slots.slot(index) = Some(task(index)) };
            });
        }
        slots
            .into_iter()
            .map(|slot| slot.expect("dispatch covers every index exactly once"))
            .collect()
    }

    /// Runs `task(i, &mut items[i])` for every item — disjoint in-place
    /// mutation with the same determinism guarantee as
    /// [`Self::map_indexed`]. This is the shape the coordinator's sharded
    /// stages use: each "item" is one shard's worth of exclusive `&mut`
    /// state.
    pub fn for_each_mut<T, F>(&self, items: &mut [T], task: F)
    where
        T: Send,
        F: Fn(usize, &mut T) + Sync,
    {
        let count = items.len();
        let items = SlotPtr(items.as_mut_ptr());
        self.dispatch(count, &|index| {
            // SAFETY: exactly one task per index, so this `&mut` is
            // exclusive; the slice outlives the dispatch (completion guard).
            task(index, unsafe { &mut *items.slot(index) });
        });
    }

    /// Fans `count` invocations of `task` out across the pool and returns
    /// once all have completed. Inline (sequential, index order) when the
    /// pool has one thread or the batch one task.
    fn dispatch(&self, count: usize, task: &(dyn Fn(usize) + Sync)) {
        if self.workers.is_empty() || count <= 1 {
            for index in 0..count {
                task(index);
            }
            return;
        }
        // Telemetry: one relaxed flag load when disabled; clone the
        // callback out of the lock so the dispatch itself runs unlocked.
        let observer = if self.observed.load(Ordering::Acquire) {
            self.observer.lock().unwrap().clone()
        } else {
            None
        };
        let started = observer.as_ref().map(|_| std::time::Instant::now());
        // Erase the lifetime for the hand-off to the persistent threads.
        // SAFETY: the completion guard below blocks this frame (even on
        // unwind) until no worker can touch the reference again.
        let task: &'static (dyn Fn(usize) + Sync) = unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(task)
        };
        let task: Task = task;
        let batch = Arc::new(Batch {
            task: TaskPtr(task),
            count,
            next: AtomicUsize::new(0),
            stride: self.effective_claim_stride(count),
            unfinished: AtomicUsize::new(count),
            panic: Mutex::new(None),
        });
        {
            let mut state = self.shared.state.lock().unwrap();
            state.batch = Some(Arc::clone(&batch));
            state.epoch += 1;
            self.shared.work.notify_all();
        }
        let guard = CompletionGuard {
            batch: &batch,
            shared: &self.shared,
        };
        // The caller participates in its own batch: progress is guaranteed
        // even if every worker is busy elsewhere (e.g. nested dispatch).
        run_batch(&batch, &self.shared);
        drop(guard); // blocks until stragglers finish
                     // Re-raise the first task panic on the dispatching thread, with its
                     // original payload — the same observable behaviour as a panicking
                     // `std::thread::scope` child at join.
        let panicked = batch.panic.lock().unwrap().take();
        if let (Some(observer), Some(started)) = (observer, started) {
            observer(started.elapsed().as_nanos() as u64);
        }
        if let Some(payload) = panicked {
            std::panic::resume_unwind(payload);
        }
    }
}

impl Drop for ExecPool {
    fn drop(&mut self) {
        {
            let mut state = self.shared.state.lock().unwrap();
            state.shutdown = true;
            self.shared.work.notify_all();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// Claims and runs indices of `batch` until none remain. Task panics are
/// caught (first payload stored for the dispatcher to re-raise), so a
/// panicking task neither kills a persistent worker nor deadlocks the
/// completion latch.
fn run_batch(batch: &Batch, shared: &Shared) {
    let stride = batch.stride.max(1);
    loop {
        let start = batch.next.fetch_add(stride, Ordering::Relaxed);
        if start >= batch.count {
            return;
        }
        // The latch stays per-index: `unfinished` counts indices, not
        // claims, so a task panic mid-chunk releases exactly the indices
        // that ran and the completion guard still sees the rest drain.
        for index in start..(start + stride).min(batch.count) {
            let guard = IndexGuard { batch, shared };
            // SAFETY: the dispatching frame keeps the pointee alive until
            // the batch completes; `unfinished` cannot hit zero before this
            // call returns (this index's decrement happens in `guard`'s
            // drop).
            let task = unsafe { &*batch.task.0 };
            // AssertUnwindSafe: the payload is re-raised by the dispatcher,
            // so any broken invariants behind the shared reference
            // propagate as the panic they are — exactly as with an
            // unwinding scoped thread.
            if let Err(payload) = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                task(index);
            })) {
                let mut slot = batch.panic.lock().unwrap();
                if slot.is_none() {
                    *slot = Some(payload);
                }
            }
            drop(guard);
        }
    }
}

/// The persistent worker body: sleep until a new batch (or shutdown) is
/// published, help drain it, go back to sleep.
fn worker_loop(shared: &Shared) {
    let mut seen_epoch = 0u64;
    loop {
        let batch = {
            let mut state = shared.state.lock().unwrap();
            loop {
                if state.shutdown {
                    return;
                }
                if state.epoch != seen_epoch {
                    seen_epoch = state.epoch;
                    if let Some(batch) = state.batch.clone() {
                        break batch;
                    }
                }
                state = shared.work.wait(state).unwrap();
            }
        };
        run_batch(&batch, shared);
    }
}

/// Send/Sync raw-pointer wrapper for result slots / mutable items. Safety
/// rests on the dispatch contract: one task per index, disjoint access,
/// allocation outlives the batch.
struct SlotPtr<T>(*mut T);

impl<T> SlotPtr<T> {
    /// Pointer to slot `index`. A method (rather than direct field access)
    /// so closures capture the whole `Sync` wrapper, not the bare pointer.
    ///
    /// # Safety
    ///
    /// `index` must be in bounds of the wrapped allocation.
    unsafe fn slot(&self, index: usize) -> *mut T {
        self.0.add(index)
    }
}

// SAFETY: each index is claimed by exactly one task, so cross-thread access
// to the pointee is exclusive per element; `T: Send` is enforced at the two
// call sites' public bounds.
unsafe impl<T: Send> Send for SlotPtr<T> {}
unsafe impl<T: Send> Sync for SlotPtr<T> {}

/// The process-wide shared pool, sized to the host's available parallelism
/// (1 when it cannot be queried) on first use and reused for every
/// subsequent batch — the "sized once, reused across every quantum" pool the
/// experiment harness fans its figure cells out on (via
/// [`ExecPool::map_indexed`]).
pub fn global_pool() -> &'static ExecPool {
    global_pool_arc()
}

/// [`global_pool`] as a cloneable [`Arc`] handle, for consumers whose APIs
/// take owned pool handles (e.g. attaching the shared pool to many
/// coordinators instead of spawning one idle private pool each).
pub fn global_pool_arc() -> &'static Arc<ExecPool> {
    static POOL: OnceLock<Arc<ExecPool>> = OnceLock::new();
    POOL.get_or_init(|| Arc::new(ExecPool::new(ExecPool::default_threads())))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_indexed_preserves_index_order() {
        for threads in [1, 2, 4, 7] {
            let pool = ExecPool::new(threads);
            for count in [0usize, 1, 2, 3, 16, 257] {
                let got = pool.map_indexed(count, |i| i * 3 + 1);
                let want: Vec<usize> = (0..count).map(|i| i * 3 + 1).collect();
                assert_eq!(got, want, "threads {threads}, count {count}");
            }
        }
    }

    #[test]
    fn pool_is_reused_across_many_batches() {
        let pool = ExecPool::new(3);
        assert_eq!(pool.threads(), 3);
        for round in 0..200 {
            let out = pool.map_indexed(9, move |i| i + round);
            assert_eq!(out, (round..round + 9).collect::<Vec<_>>());
        }
    }

    #[test]
    fn for_each_mut_touches_every_item_exactly_once() {
        let pool = ExecPool::new(4);
        let mut items = vec![0u64; 100];
        pool.for_each_mut(&mut items, |i, item| *item += i as u64 + 1);
        assert_eq!(items, (0..100).map(|i| i as u64 + 1).collect::<Vec<_>>());
        // A second pass over the same buffer: the pool and the buffer are
        // both reusable.
        pool.for_each_mut(&mut items, |_, item| *item *= 2);
        assert_eq!(
            items,
            (0..100).map(|i| (i as u64 + 1) * 2).collect::<Vec<_>>()
        );
    }

    #[test]
    fn nested_dispatch_degrades_gracefully() {
        // A batch whose tasks dispatch their own sub-batches on the same
        // pool: the inner callers drain their own batches, so this cannot
        // deadlock and all results stay index-pure.
        let pool = ExecPool::new(4);
        let got = pool.map_indexed(6, |i| {
            let inner = pool.map_indexed(5, move |j| i * 10 + j);
            inner.into_iter().sum::<usize>()
        });
        let want: Vec<usize> = (0..6).map(|i| (0..5).map(|j| i * 10 + j).sum()).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn single_thread_pool_runs_inline() {
        let pool = ExecPool::new(1);
        assert_eq!(pool.threads(), 1);
        // Inline execution can borrow thread-local-ish state mutably via a
        // cell without any synchronisation surprises.
        let order = std::sync::Mutex::new(Vec::new());
        pool.for_each_mut(&mut [0u8; 7][..], |i, _| order.lock().unwrap().push(i));
        assert_eq!(*order.lock().unwrap(), (0..7).collect::<Vec<_>>());
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        let pool = ExecPool::new(0);
        assert_eq!(pool.threads(), 1);
        assert_eq!(pool.map_indexed(3, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn results_carry_non_copy_types() {
        let pool = ExecPool::new(4);
        let got = pool.map_indexed(10, |i| format!("cell-{i}"));
        for (i, s) in got.iter().enumerate() {
            assert_eq!(s, &format!("cell-{i}"));
        }
    }

    #[test]
    fn global_pool_is_shared_and_stable() {
        let a = global_pool() as *const ExecPool;
        let b = global_pool() as *const ExecPool;
        assert_eq!(a, b);
        assert!(global_pool().threads() >= 1);
        assert_eq!(global_pool().map_indexed(4, |i| i * i), vec![0, 1, 4, 9]);
    }

    #[test]
    fn task_panics_propagate_to_the_dispatcher_with_their_payload() {
        let pool = ExecPool::new(3);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.map_indexed(16, |i| {
                if i == 7 {
                    panic!("task 7 exploded");
                }
                i
            })
        }));
        let payload = result.expect_err("the task panic must reach the dispatcher");
        let message = payload
            .downcast_ref::<&str>()
            .copied()
            .expect("original payload preserved");
        assert_eq!(message, "task 7 exploded");
        // The pool survives (no worker died, the latch completed): the next
        // batch runs normally.
        assert_eq!(pool.map_indexed(4, |i| i * 2), vec![0, 2, 4, 6]);
    }

    #[test]
    fn debug_formats() {
        assert!(format!("{:?}", ExecPool::new(2)).contains("ExecPool"));
    }

    #[test]
    fn claim_stride_never_changes_results() {
        // The claiming pattern is invisible to callers: batches that claim
        // one index at a time, mid-size chunks, and the 64-index cap all
        // produce identical index-pure output.
        let mut strides = std::collections::BTreeSet::new();
        for threads in [2, 4, 7] {
            let pool = ExecPool::new(threads);
            for count in [2usize, 3, 16, 257, 1024, 3_200, 20_000] {
                strides.insert(pool.effective_claim_stride(count));
                let got = pool.map_indexed(count, |i| i * 3 + 1);
                let want: Vec<usize> = (0..count).map(|i| i * 3 + 1).collect();
                assert_eq!(got, want, "threads {threads}, count {count}");
            }
        }
        assert_eq!(strides.first(), Some(&1));
        assert_eq!(strides.last(), Some(&64));
        assert!(strides.iter().any(|&s| (2..64).contains(&s)), "{strides:?}");
    }

    #[test]
    fn effective_claim_stride_scales_with_the_batch() {
        // Small batches claim one at a time, huge batches chunk up, capped
        // so the tail cannot hide behind one straggler thread.
        let pool = ExecPool::new(4);
        assert_eq!(pool.effective_claim_stride(16), 1);
        assert_eq!(pool.effective_claim_stride(4_000), 31);
        assert_eq!(pool.effective_claim_stride(1 << 20), 64);
        // Fewer threads, bigger chunks for the same batch.
        assert_eq!(ExecPool::new(2).effective_claim_stride(4_000), 62);
    }

    #[test]
    fn a_panic_mid_chunk_still_drains_the_batch() {
        // 3 threads x 3 200 tasks claim 33 indices at a time, so index 40
        // panics in the middle of the chunk 33..66; the per-index latch
        // must still release every index so the dispatcher unblocks and
        // re-raises the payload.
        let pool = ExecPool::new(3);
        assert_eq!(pool.effective_claim_stride(3_200), 33);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.map_indexed(3_200, |i| {
                if i == 40 {
                    panic!("chunked task exploded");
                }
                i
            })
        }));
        assert!(result.is_err(), "the panic must reach the dispatcher");
        // The pool survives and later batches are unaffected.
        assert_eq!(pool.map_indexed(3, |i| i + 1), vec![1, 2, 3]);
    }
}
