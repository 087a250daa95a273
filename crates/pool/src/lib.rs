//! # transit-pool
//!
//! A `std`-only, persistent work-stealing thread pool shared by every
//! parallel layer in the workspace (sweep items, tiled-DP tiles, ingest
//! decode chunks, capture-curve fan-out). Before this crate each layer
//! spawned fresh OS threads per call via `std::thread::scope` with an
//! independent knob, so nested regions could oversubscribe each other
//! (8 sweep threads × 8 DP threads = 64 runnable threads on an 8-core
//! box). The pool replaces that with:
//!
//! * **One process-wide core budget** ([`set_thread_budget`], default =
//!   `available_parallelism`; the CLI's `--threads`). A region's width
//!   argument is a *cap* inside the budget, and a nested [`fanout`] runs
//!   its tasks under a child budget of `parent / width` — nested
//!   regions split the budget instead of multiplying threads.
//! * **Persistent workers** with per-worker deques plus a global
//!   injector. Owners push/pop their own deque LIFO; thieves and the
//!   injector are drained FIFO. Idle workers park on a condvar and are
//!   woken only when work is submitted.
//! * **Deterministic results**: the collection primitives
//!   ([`run_indexed`], [`for_each_mut`]) claim item indices from a
//!   shared atomic counter and write each result into its submission
//!   slot, so output order — and, because tasks are pure, output
//!   *bytes* — never depend on the number of threads. A budget (or
//!   cap) of 1 short-circuits to a plain serial loop on the caller's
//!   thread: single-core machines pay no atomics, no parking, no pool.
//!
//! ## Scheduling without a "helping" protocol
//!
//! A [`fanout`] publishes `width − 1` *copies* of one shared job, runs
//! slot 0 inline on the calling thread, then **cancels any copies still
//! queued** (a CAS from `QUEUED` to `CANCELLED`) before waiting for the
//! running ones. Copies are fungible — every executing slot drains the
//! same atomic index counter — so cancelled copies never strand work:
//! whatever they would have claimed is claimed by slot 0 or by the
//! copies already running. This is what makes the pool deadlock-free by
//! construction: a blocked caller never waits on a task that has not
//! yet been scheduled, so there is no cycle through the run queues, and
//! workers themselves only block on the latches of *their own* nested
//! fanouts, forming a finite tree.
//!
//! ## Observability
//!
//! A task's spans nest under the span that was open where its fanout
//! was submitted: at `info` level and above, [`fanout`] captures the
//! submitter's [`transit_obs::current_path`] and every worker pins it
//! with [`transit_obs::inherit_path`] while it runs the task.
//!
//! `pool.tasks.executed`, `pool.tasks.inline`, `pool.tasks.cancelled`,
//! `pool.steals`, `pool.parks`, `pool.unparks`, `pool.workers.spawned`
//! counters and a `pool.queue.depth` histogram (sampled at submit) via
//! transit-obs. See DESIGN.md §13.

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::mem::MaybeUninit;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread;

use transit_obs::{counter, histogram};

/// Hard ceiling on pool workers; `fanout` width is capped at
/// `MAX_WORKERS + 1` (the caller's inline slot is the `+ 1`).
const MAX_WORKERS: usize = 64;

// ---------------------------------------------------------------------------
// Thread budget
// ---------------------------------------------------------------------------

/// Process-wide budget; 0 = unset, resolved to `available_parallelism`.
static GLOBAL_BUDGET: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Per-thread override: set by `scoped_budget` guards and by the
    /// pool itself while executing a task (to the task's child budget).
    static LOCAL_BUDGET: Cell<Option<usize>> = const { Cell::new(None) };
    /// Index of the pool worker running on this thread, if any.
    static WORKER_INDEX: Cell<Option<usize>> = const { Cell::new(None) };
}

fn core_count() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| {
        thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Sets the process-wide thread budget. `0` means "all cores"
/// (`available_parallelism`). The budget is the total number of cores
/// any tree of nested parallel regions may use; a region's width
/// argument acts as a cap within it.
pub fn set_thread_budget(n: usize) {
    GLOBAL_BUDGET.store(n, Ordering::Relaxed);
}

/// The thread budget in effect on the current thread: the innermost
/// [`scoped_budget`] guard or task-child budget if any, otherwise the
/// process-wide budget. Always ≥ 1.
pub fn thread_budget() -> usize {
    if let Some(n) = LOCAL_BUDGET.with(Cell::get) {
        return n.max(1);
    }
    match GLOBAL_BUDGET.load(Ordering::Relaxed) {
        0 => core_count(),
        n => n,
    }
}

/// RAII guard restoring the previous thread budget; see
/// [`scoped_budget`].
pub struct BudgetGuard {
    prev: Option<usize>,
}

impl Drop for BudgetGuard {
    fn drop(&mut self) {
        LOCAL_BUDGET.with(|b| b.set(self.prev));
    }
}

/// Overrides the thread budget for the current thread until the guard
/// drops. `0` means "all cores". Used by tests and oracles to exercise
/// pooled execution at fixed budgets regardless of the machine, and by
/// callers that want to confine a region to fewer cores.
pub fn scoped_budget(n: usize) -> BudgetGuard {
    let resolved = if n == 0 { core_count() } else { n };
    let prev = LOCAL_BUDGET.with(|b| b.replace(Some(resolved)));
    BudgetGuard { prev }
}

/// Effective parallel width for a region: `min(cap, budget)`, at least
/// 1, where `cap == 0` means "no cap". This is the resolution rule for
/// every per-layer knob.
pub fn effective_width(cap: usize) -> usize {
    let cap = if cap == 0 { usize::MAX } else { cap };
    thread_budget().min(cap).clamp(1, MAX_WORKERS + 1)
}

// ---------------------------------------------------------------------------
// Job plumbing
// ---------------------------------------------------------------------------

const QUEUED: u8 = 0;
const RUNNING: u8 = 1;
const CANCELLED: u8 = 2;

/// Type-erased view of the caller's stack-held closure. Lives on the
/// `fanout` caller's stack; copies hold a raw pointer to it, which is
/// only dereferenced between a successful QUEUED→RUNNING claim and the
/// latch completion — and `fanout` does not return (so the stack frame
/// does not unwind) until every non-cancelled copy has completed.
struct Shell {
    call: unsafe fn(*const (), usize),
    data: *const (),
    child_budget: usize,
    /// The submitter's span path (`None` when spans are off), pinned
    /// on the worker for the task's duration.
    span_path: Option<Vec<String>>,
}

unsafe fn call_closure<F: Fn(usize)>(data: *const (), slot: usize) {
    (*(data as *const F))(slot)
}

struct LatchState {
    remaining: usize,
    panic: Option<Box<dyn Any + Send>>,
}

/// Completion latch shared by all copies of one fanout. Heap-allocated
/// in its own `Arc` (not on the caller's stack) so the final
/// `notify_all` can never race the caller freeing the mutex.
struct Latch {
    state: Mutex<LatchState>,
    cv: Condvar,
}

impl Latch {
    fn new(remaining: usize) -> Self {
        Latch {
            state: Mutex::new(LatchState {
                remaining,
                panic: None,
            }),
            cv: Condvar::new(),
        }
    }

    fn complete(&self, panic: Option<Box<dyn Any + Send>>) {
        let mut st = self.state.lock().unwrap();
        if st.panic.is_none() {
            st.panic = panic;
        }
        st.remaining -= 1;
        if st.remaining == 0 {
            self.cv.notify_all();
        }
    }

    fn wait(&self) -> Option<Box<dyn Any + Send>> {
        let mut st = self.state.lock().unwrap();
        while st.remaining > 0 {
            st = self.cv.wait(st).unwrap();
        }
        st.panic.take()
    }
}

/// One schedulable copy of a fanout job. Reference-counted because a
/// cancelled copy can linger in a deque after its fanout returns; such
/// a copy is inert (the CAS to RUNNING fails) and its dangling `shell`
/// pointer is never dereferenced.
struct TaskCopy {
    state: AtomicU8,
    slot: usize,
    shell: *const Shell,
    latch: Arc<Latch>,
}

// SAFETY: `shell` is only dereferenced by the worker that wins the
// QUEUED→RUNNING CAS, strictly before `latch.complete()`, and the
// pointee outlives all non-cancelled copies (see `Shell` docs).
unsafe impl Send for TaskCopy {}
unsafe impl Sync for TaskCopy {}

// ---------------------------------------------------------------------------
// The pool
// ---------------------------------------------------------------------------

struct WorkerQueue {
    deque: Mutex<VecDeque<Arc<TaskCopy>>>,
}

struct ParkState {
    /// Claimable (still-QUEUED) copies across all queues.
    pending: usize,
    /// Workers currently parked on the condvar.
    sleepers: usize,
}

struct Pool {
    queues: Vec<Arc<WorkerQueue>>,
    injector: Mutex<VecDeque<Arc<TaskCopy>>>,
    park: Mutex<ParkState>,
    park_cv: Condvar,
    spawned: AtomicUsize,
    spawn_lock: Mutex<()>,
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool {
        queues: (0..MAX_WORKERS)
            .map(|_| {
                Arc::new(WorkerQueue {
                    deque: Mutex::new(VecDeque::new()),
                })
            })
            .collect(),
        injector: Mutex::new(VecDeque::new()),
        park: Mutex::new(ParkState {
            pending: 0,
            sleepers: 0,
        }),
        park_cv: Condvar::new(),
        spawned: AtomicUsize::new(0),
        spawn_lock: Mutex::new(()),
    })
}

impl Pool {
    /// Lazily spawns detached workers until at least `want` exist.
    fn ensure_workers(&'static self, want: usize) {
        let want = want.min(MAX_WORKERS);
        if self.spawned.load(Ordering::Acquire) >= want {
            return;
        }
        let _g = self.spawn_lock.lock().unwrap();
        let have = self.spawned.load(Ordering::Acquire);
        for idx in have..want {
            thread::Builder::new()
                .name(format!("transit-pool-{idx}"))
                .spawn(move || self.worker_loop(idx))
                .expect("spawn pool worker");
            counter!("pool.workers.spawned").inc();
        }
        if want > have {
            self.spawned.store(want, Ordering::Release);
        }
    }

    /// Registers copies as pending, publishes them (owner deque if
    /// called from a worker, injector otherwise), and wakes sleepers.
    ///
    /// `pending` grows before any copy is claimable: a worker that
    /// claims a copy retires it at once, and retiring an unregistered
    /// copy would underflow the count.
    fn submit(&self, copies: &[Arc<TaskCopy>]) {
        let mut st = self.park.lock().unwrap();
        st.pending += copies.len();
        let depth = match WORKER_INDEX.with(Cell::get) {
            Some(me) => {
                let mut dq = self.queues[me].deque.lock().unwrap();
                for c in copies {
                    dq.push_back(Arc::clone(c));
                }
                dq.len()
            }
            None => {
                let mut inj = self.injector.lock().unwrap();
                for c in copies {
                    inj.push_back(Arc::clone(c));
                }
                inj.len()
            }
        };
        let wake = copies.len().min(st.sleepers);
        drop(st);
        histogram!("pool.queue.depth").record(depth as u64);
        for _ in 0..wake {
            counter!("pool.unparks").inc();
            self.park_cv.notify_one();
        }
    }

    /// One claimable copy was consumed (claimed or cancelled).
    fn retire_pending(&self) {
        let mut st = self.park.lock().unwrap();
        st.pending -= 1;
    }

    /// Own deque (LIFO) → injector (FIFO) → steal (FIFO). Returns a
    /// popped copy in any state; the caller must still win the claim.
    fn find_task(&self, me: usize) -> Option<Arc<TaskCopy>> {
        if let Some(t) = self.queues[me].deque.lock().unwrap().pop_back() {
            return Some(t);
        }
        if let Some(t) = self.injector.lock().unwrap().pop_front() {
            return Some(t);
        }
        let n = self.spawned.load(Ordering::Acquire);
        for off in 1..n {
            let victim = (me + off) % n;
            if let Some(t) = self.queues[victim].deque.lock().unwrap().pop_front() {
                counter!("pool.steals").inc();
                return Some(t);
            }
        }
        None
    }

    fn worker_loop(&self, me: usize) {
        WORKER_INDEX.with(|w| w.set(Some(me)));
        loop {
            if let Some(copy) = self.find_task(me) {
                if copy
                    .state
                    .compare_exchange(QUEUED, RUNNING, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
                {
                    self.retire_pending();
                    execute(&copy);
                }
                continue;
            }
            let mut st = self.park.lock().unwrap();
            if st.pending == 0 {
                st.sleepers += 1;
                counter!("pool.parks").inc();
                st = self.park_cv.wait(st).unwrap();
                st.sleepers -= 1;
            }
            drop(st);
        }
    }
}

/// Runs one claimed copy: installs the child budget and the
/// submitter's span path, invokes the shared closure, records panics
/// into the latch, completes.
fn execute(copy: &TaskCopy) {
    counter!("pool.tasks.executed").inc();
    // SAFETY: we won the QUEUED→RUNNING claim, so the fanout caller is
    // still inside `fanout` (its latch has our completion outstanding)
    // and the shell + closure are alive.
    let shell = unsafe { &*copy.shell };
    let prev = LOCAL_BUDGET.with(|b| b.replace(Some(shell.child_budget)));
    let _path = shell.span_path.clone().map(transit_obs::inherit_path);
    let result = catch_unwind(AssertUnwindSafe(|| unsafe {
        (shell.call)(shell.data, copy.slot)
    }));
    LOCAL_BUDGET.with(|b| b.set(prev));
    copy.latch.complete(result.err());
}

// ---------------------------------------------------------------------------
// Fanout + deterministic collection primitives
// ---------------------------------------------------------------------------

/// Runs `f(slot)` for slots `0..width` where `width =
/// min(width_cap, thread_budget())` (`width_cap == 0` = uncapped).
/// Slot 0 always runs inline on the calling thread; slots `1..width`
/// are *offers* of help executed by pool workers under a child budget
/// of `max(1, budget / width)`. Offers still queued when slot 0
/// finishes are cancelled, so **slots must be fungible**: every slot
/// must drain work from a shared source (e.g. an atomic index counter)
/// rather than own a distinct piece — see [`run_indexed`] /
/// [`for_each_mut`], which wrap this correctly.
///
/// Spans a task opens on a worker nest under the span path open on the
/// calling thread at submit, so a pooled region profiles like a serial
/// one. A `width` of 1 degenerates to a plain inline call — no pool, no
/// atomics. Panics from any slot are propagated to the caller after all
/// slots have finished (the caller's own panic is held until
/// outstanding copies complete, so the shared closure is never freed
/// under a running task).
pub fn fanout<F: Fn(usize) + Sync>(width_cap: usize, f: F) {
    let budget = thread_budget();
    let cap = if width_cap == 0 {
        usize::MAX
    } else {
        width_cap
    };
    let width = budget.min(cap).clamp(1, MAX_WORKERS + 1);
    if width == 1 {
        counter!("pool.tasks.inline").inc();
        f(0);
        return;
    }
    let child = (budget / width).max(1);
    let p = pool();
    p.ensure_workers(width - 1);

    let shell = Shell {
        call: call_closure::<F>,
        data: &f as *const F as *const (),
        child_budget: child,
        span_path: transit_obs::level_enabled(transit_obs::Level::Info)
            .then(transit_obs::current_path),
    };
    let latch = Arc::new(Latch::new(width - 1));
    let copies: Vec<Arc<TaskCopy>> = (1..width)
        .map(|slot| {
            Arc::new(TaskCopy {
                state: AtomicU8::new(QUEUED),
                slot,
                shell: &shell as *const Shell,
                latch: Arc::clone(&latch),
            })
        })
        .collect();
    p.submit(&copies);

    // Slot 0 inline, under the same child budget as the copies. Hold
    // any panic: the stack-borrowed shell must outlive running copies.
    let prev = LOCAL_BUDGET.with(|b| b.replace(Some(child)));
    let inline_result = catch_unwind(AssertUnwindSafe(|| f(0)));
    LOCAL_BUDGET.with(|b| b.set(prev));

    // Cancel copies nobody picked up; their share of the counter was
    // (or will be) drained by slot 0 and the running copies.
    for c in &copies {
        if c.state
            .compare_exchange(QUEUED, CANCELLED, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
        {
            counter!("pool.tasks.cancelled").inc();
            p.retire_pending();
            c.latch.complete(None);
        }
    }

    let task_panic = latch.wait();
    if let Err(panic) = inline_result {
        resume_unwind(panic);
    }
    if let Some(panic) = task_panic {
        resume_unwind(panic);
    }
}

/// Raw-pointer wrapper so fanout closures can write disjoint slots.
struct SendPtr<T>(*mut T);
unsafe impl<T> Send for SendPtr<T> {}
unsafe impl<T> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    // Method (not field) access, so closures capture the `Sync`
    // wrapper rather than the raw pointer (edition-2021 disjoint
    // closure capture would otherwise grab the non-`Sync` field).
    fn get(&self) -> *mut T {
        self.0
    }
}

/// Maps `f` over `items`, collecting results **in index order**,
/// using at most `min(width_cap, thread_budget(), items.len())`
/// threads (`width_cap == 0` = uncapped). Each index is claimed from a
/// shared atomic counter by exactly one slot and its result written to
/// position `i`, so `out[i] == f(i, &items[i])` regardless of thread
/// count — with pure `f`, pooled output is bitwise-identical to the
/// serial loop, which is exactly what runs when the width resolves
/// to 1.
pub fn run_indexed<T, R, F>(width_cap: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let n = items.len();
    let width = effective_width(width_cap).min(n);
    if width <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let mut slots: Vec<MaybeUninit<R>> = (0..n).map(|_| MaybeUninit::uninit()).collect();
    let out = SendPtr(slots.as_mut_ptr());
    let next = AtomicUsize::new(0);
    fanout(width, |_slot| loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= n {
            break;
        }
        let r = f(i, &items[i]);
        // SAFETY: index `i` is claimed exactly once across all slots,
        // so this slot is the unique writer of `slots[i]`; `fanout`
        // returns only after every writer has finished.
        unsafe { out.get().add(i).write(MaybeUninit::new(r)) };
    });
    // `fanout` returned without panicking, so the counter was drained
    // and every slot 0..n is initialized.
    slots
        .into_iter()
        .map(|s| unsafe { s.assume_init() })
        .collect()
}

/// Applies `f(i, &mut items[i])` to every item, claiming indices from a
/// shared counter like [`run_indexed`] (same width rule, same
/// determinism argument: each index has a unique writer). Used for
/// in-place tile/chunk work where results land in the items themselves.
pub fn for_each_mut<T, F>(width_cap: usize, items: &mut [T], f: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    let n = items.len();
    let width = effective_width(width_cap).min(n);
    if width <= 1 {
        for (i, t) in items.iter_mut().enumerate() {
            f(i, t);
        }
        return;
    }
    let base = SendPtr(items.as_mut_ptr());
    let next = AtomicUsize::new(0);
    fanout(width, |_slot| loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= n {
            break;
        }
        // SAFETY: index `i` is claimed exactly once, so this is the
        // only live `&mut` to `items[i]`; the borrow of `items` is
        // exclusive for the duration of the fanout.
        let item = unsafe { &mut *base.get().add(i) };
        f(i, item);
    });
}

/// Registers help text for the pool's metrics (for `/metrics` output).
pub fn describe_metrics() {
    transit_obs::metrics::describe(
        "pool.tasks.executed",
        "fanout task copies executed by workers",
    );
    transit_obs::metrics::describe("pool.tasks.inline", "fanout regions run inline (width 1)");
    transit_obs::metrics::describe(
        "pool.tasks.cancelled",
        "queued task copies cancelled unclaimed",
    );
    transit_obs::metrics::describe("pool.steals", "tasks stolen from another worker's deque");
    transit_obs::metrics::describe("pool.parks", "worker park events (idle, waiting for work)");
    transit_obs::metrics::describe("pool.unparks", "worker wake-ups issued at submit");
    transit_obs::metrics::describe("pool.workers.spawned", "persistent pool workers spawned");
    transit_obs::metrics::describe("pool.queue.depth", "queue depth sampled at each submit");
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Mutex;

    #[test]
    fn run_indexed_preserves_index_order() {
        let _b = scoped_budget(8);
        let items: Vec<usize> = (0..1000).collect();
        let out = run_indexed(0, &items, |i, &x| {
            assert_eq!(i, x);
            x * 3 + 1
        });
        assert_eq!(out, (0..1000).map(|x| x * 3 + 1).collect::<Vec<_>>());
    }

    #[test]
    fn run_indexed_matches_serial_for_every_budget() {
        let items: Vec<u64> = (0..257).map(|i| i * 31 % 97).collect();
        let serial: Vec<u64> = items.iter().map(|&x| x.wrapping_mul(x) ^ 0xABCD).collect();
        for budget in [1, 2, 3, 8, 64] {
            let _b = scoped_budget(budget);
            let pooled = run_indexed(0, &items, |_, &x| x.wrapping_mul(x) ^ 0xABCD);
            assert_eq!(pooled, serial, "budget {budget}");
        }
    }

    #[test]
    fn for_each_mut_touches_every_item_exactly_once() {
        let _b = scoped_budget(8);
        let mut items = vec![0u32; 513];
        for_each_mut(0, &mut items, |i, slot| {
            *slot += i as u32 + 1;
        });
        for (i, &v) in items.iter().enumerate() {
            assert_eq!(v, i as u32 + 1);
        }
    }

    #[test]
    fn width_one_runs_inline_on_caller_thread() {
        let _b = scoped_budget(1);
        let caller = thread::current().id();
        let items = vec![(); 64];
        let out = run_indexed(0, &items, |_, _| thread::current().id());
        assert!(out.iter().all(|id| *id == caller));
    }

    #[test]
    fn cap_of_one_runs_inline_even_with_budget() {
        let _b = scoped_budget(8);
        let caller = thread::current().id();
        let items = vec![(); 64];
        let out = run_indexed(1, &items, |_, _| thread::current().id());
        assert!(out.iter().all(|id| *id == caller));
    }

    #[test]
    fn nested_fanouts_split_the_budget() {
        let _b = scoped_budget(8);
        let outer: Vec<usize> = (0..4).collect();
        let inner_budgets = Mutex::new(Vec::new());
        let _ = run_indexed(4, &outer, |_, _| {
            // Child budget = 8 / 4 = 2.
            inner_budgets.lock().unwrap().push(thread_budget());
            let inner: Vec<usize> = (0..8).collect();
            run_indexed(0, &inner, |i, &x| i + x).len()
        });
        for b in inner_budgets.lock().unwrap().iter() {
            assert_eq!(*b, 2);
        }
    }

    #[test]
    fn panic_in_task_propagates_to_caller() {
        let _b = scoped_budget(8);
        let items: Vec<usize> = (0..100).collect();
        let res = std::panic::catch_unwind(AssertUnwindSafe(|| {
            run_indexed(0, &items, |i, _| {
                if i == 57 {
                    panic!("boom at 57");
                }
                i
            })
        }));
        let err = res.expect_err("panic must propagate");
        let msg = err
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| err.downcast_ref::<String>().map(String::as_str))
            .unwrap_or("");
        assert!(msg.contains("boom at 57"), "got: {msg}");
    }

    #[test]
    fn pool_survives_a_panicked_fanout() {
        let _b = scoped_budget(8);
        let items: Vec<usize> = (0..64).collect();
        let _ = std::panic::catch_unwind(AssertUnwindSafe(|| {
            run_indexed(0, &items, |_, _| panic!("first"))
        }));
        let out = run_indexed(0, &items, |_, &x| x + 1);
        assert_eq!(out.len(), 64);
        assert_eq!(out[63], 64);
    }

    #[test]
    fn multiple_threads_actually_participate_under_budget() {
        // Not a strict guarantee (copies may be cancelled), so retry:
        // with 8 slots × slow items, near-certain after a few rounds.
        let _b = scoped_budget(8);
        for _ in 0..20 {
            let items = vec![(); 256];
            let out = run_indexed(0, &items, |_, _| {
                std::thread::sleep(std::time::Duration::from_micros(200));
                thread::current().id()
            });
            let distinct: HashSet<_> = out.into_iter().collect();
            if distinct.len() > 1 {
                return;
            }
        }
        panic!("pool never ran work on more than one thread");
    }

    #[test]
    fn fanout_slots_are_unique_and_bounded() {
        let _b = scoped_budget(4);
        let seen = Mutex::new(HashSet::new());
        fanout(4, |slot| {
            assert!(slot < 4);
            assert!(seen.lock().unwrap().insert(slot), "slot {slot} ran twice");
        });
        // Slot 0 always runs.
        assert!(seen.lock().unwrap().contains(&0));
    }

    #[test]
    fn empty_and_single_item_inputs() {
        let _b = scoped_budget(8);
        let empty: Vec<u8> = Vec::new();
        assert!(run_indexed(0, &empty, |_, &x| x).is_empty());
        let one = [7u8];
        assert_eq!(run_indexed(0, &one, |_, &x| x * 2), vec![14]);
        let mut one_mut = [1u8];
        for_each_mut(0, &mut one_mut, |_, x| *x += 1);
        assert_eq!(one_mut, [2]);
    }

    #[test]
    fn effective_width_resolution_rules() {
        let _b = scoped_budget(6);
        assert_eq!(effective_width(0), 6);
        assert_eq!(effective_width(4), 4);
        assert_eq!(effective_width(100), 6);
        drop(_b);
        let _b = scoped_budget(1);
        assert_eq!(effective_width(0), 1);
    }

    /// Many threads submitting fanouts at once. Every copy must be
    /// registered as pending before a worker can claim and retire it;
    /// otherwise the count underflows on a worker, which kills the
    /// worker and strands the copy it claimed, so its fanout never
    /// returns. A hang fails the test through the timeout.
    #[test]
    fn concurrent_submitters_never_strand_a_copy() {
        let (done, finished) = std::sync::mpsc::channel();
        thread::spawn(move || {
            thread::scope(|scope| {
                for submitter in 0..6usize {
                    scope.spawn(move || {
                        let _b = scoped_budget(8);
                        let items: Vec<usize> = (0..12).collect();
                        for round in 0..3_000usize {
                            let out = run_indexed(0, &items, |i, &x| i + x + round);
                            assert_eq!(out[11], 22 + round, "submitter {submitter}");
                        }
                    });
                }
            });
            done.send(()).ok();
        });
        finished
            .recv_timeout(std::time::Duration::from_secs(120))
            .expect("concurrent fanouts hung or panicked");
    }

    #[test]
    fn worker_spans_nest_under_the_submitting_span() {
        // Two items meet at a barrier, so one of them must run on a
        // pool worker while the caller runs the other.
        let _b = scoped_budget(2);
        let meet = std::sync::Barrier::new(2);
        {
            let _outer = transit_obs::span!("pool_test.submit");
            run_indexed(0, &[(), ()], |_, _| {
                let _s = transit_obs::span!("pool_test.task");
                meet.wait();
            });
        }
        let tree = transit_obs::snapshot_spans();
        assert!(
            !tree.contains_key("pool_test.task"),
            "pooled task spans must not surface as roots"
        );
        let outer = tree.get("pool_test.submit").expect("outer span recorded");
        assert_eq!(outer.children["pool_test.task"].count, 2);
    }

    #[test]
    fn deep_nesting_exhausts_budget_to_inline() {
        let _b = scoped_budget(4);
        // Depth 3 of width-4 fanouts: child budgets 1 after the first
        // level, so inner levels must run inline without deadlock.
        let total = AtomicUsize::new(0);
        let items: Vec<usize> = (0..4).collect();
        let _ = run_indexed(0, &items, |_, _| {
            let inner: Vec<usize> = (0..4).collect();
            run_indexed(0, &inner, |_, _| {
                let inner2: Vec<usize> = (0..4).collect();
                run_indexed(0, &inner2, |_, _| {
                    total.fetch_add(1, Ordering::Relaxed);
                })
            })
        });
        assert_eq!(total.load(Ordering::Relaxed), 64);
    }
}
