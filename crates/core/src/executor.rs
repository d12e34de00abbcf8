//! A long-lived, core-count-sized executor for shard search tasks.
//!
//! Sharded search used to spawn one OS thread per shard per query
//! (`std::thread::scope` in the partitioned engine) — at
//! serving concurrency that is `workers × shards` thread spawns per batch,
//! and the spawn/join cost plus oversubscription was the first of the three
//! serializers the ROADMAP scaling item names. [`ShardExecutor`] replaces it
//! with one process-wide pool of persistent workers, sized to the machine's
//! available parallelism: every query *shares* the same threads, a batch of
//! shard tasks costs two mutex round-trips per task instead of a spawn, and
//! the total number of runnable search threads stays bounded by core count
//! no matter how many requests are in flight.
//!
//! The submission API is batch-shaped ([`ShardExecutor::run`]): the caller
//! hands over one closure per shard and blocks until all of them finished.
//! The calling thread is never idle while it waits — it runs the first task
//! inline (so a 1-shard engine pays no cross-thread hop at all) and then
//! *helps*, draining queued tasks from any batch until its own batch
//! completes. Helping makes the design deadlock-free by construction even
//! when every pool worker is busy: some thread always makes progress, and
//! shard tasks never submit nested batches.
//!
//! Panic containment mirrors `JoinHandle::join`: a panicking task poisons
//! nothing, its payload is captured and re-raised on the *submitting*
//! thread once the batch is collected.

use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread;

type Task = Box<dyn FnOnce() + Send + 'static>;

struct Queue {
    state: Mutex<QueueState>,
    available: Condvar,
}

struct QueueState {
    tasks: VecDeque<Task>,
    shutdown: bool,
}

/// Result slots + completion latch of one submitted batch.
struct Batch<T> {
    slots: Vec<Mutex<Option<thread::Result<T>>>>,
    remaining: Mutex<usize>,
    done: Condvar,
}

impl<T> Batch<T> {
    fn finish(&self, index: usize, result: thread::Result<T>) {
        *self.slots[index].lock().expect("batch slot") = Some(result);
        let mut remaining = self.remaining.lock().expect("batch latch");
        *remaining -= 1;
        if *remaining == 0 {
            self.done.notify_all();
        }
    }
}

/// A fixed-width pool of persistent worker threads executing shard search
/// tasks for every in-flight query in the process.
///
/// Obtain the shared instance with [`ShardExecutor::global`] (sized to
/// available parallelism, spawned lazily on first use, lives for the
/// process) or build a private one with [`ShardExecutor::new`] (joined on
/// drop — tests use this).
pub struct ShardExecutor {
    queue: Arc<Queue>,
    threads: Vec<thread::JoinHandle<()>>,
}

impl ShardExecutor {
    /// A pool of `threads` persistent workers (clamped to at least 1).
    pub fn new(threads: usize) -> Self {
        let queue = Arc::new(Queue {
            state: Mutex::new(QueueState {
                tasks: VecDeque::new(),
                shutdown: false,
            }),
            available: Condvar::new(),
        });
        let threads = (0..threads.max(1))
            .map(|i| {
                let queue = Arc::clone(&queue);
                thread::Builder::new()
                    .name(format!("koios-shard-{i}"))
                    .spawn(move || worker_loop(&queue))
                    .expect("spawn shard executor worker")
            })
            .collect();
        ShardExecutor { queue, threads }
    }

    /// The process-wide executor, sized to the machine's available
    /// parallelism and spawned on first use. Every partitioned engine in
    /// the process shares it, which is exactly what keeps the number of
    /// runnable search threads bounded by core count regardless of request
    /// concurrency.
    pub fn global() -> &'static ShardExecutor {
        static GLOBAL: OnceLock<ShardExecutor> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            ShardExecutor::new(
                thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1),
            )
        })
    }

    /// Pool width.
    pub fn threads(&self) -> usize {
        self.threads.len()
    }

    /// Runs every task — the first inline on the calling thread, the rest
    /// on the pool — and returns their results in task order. Blocks until
    /// the whole batch finished; while blocked, the calling thread drains
    /// queued tasks (its own batch's or another's) instead of idling.
    ///
    /// # Panics
    ///
    /// Re-raises the panic of the first (by index) panicking task.
    pub fn run<T, F>(&self, tasks: Vec<F>) -> Vec<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let n = tasks.len();
        if n == 0 {
            return Vec::new();
        }
        let batch = Arc::new(Batch {
            slots: (0..n).map(|_| Mutex::new(None)).collect(),
            remaining: Mutex::new(n),
            done: Condvar::new(),
        });
        let mut tasks = tasks.into_iter();
        let first = tasks.next().expect("n >= 1");
        // Queue the tail first so pool workers start while the caller is
        // still busy with the inline task.
        if n > 1 {
            let mut state = self.queue.state.lock().expect("executor queue");
            for (i, task) in tasks.enumerate() {
                let batch = Arc::clone(&batch);
                state.tasks.push_back(Box::new(move || {
                    batch.finish(i + 1, std::panic::catch_unwind(AssertUnwindSafe(task)));
                }));
            }
            drop(state);
            // One wakeup per queued task (notify_all would stampede pools
            // wider than the batch).
            for _ in 1..n {
                self.queue.available.notify_one();
            }
        }
        batch.finish(0, std::panic::catch_unwind(AssertUnwindSafe(first)));

        // Help until our batch completes: running queued tasks (whoever
        // they belong to) beats blocking a core that search work could use.
        loop {
            if *batch.remaining.lock().expect("batch latch") == 0 {
                break;
            }
            let task = self
                .queue
                .state
                .lock()
                .expect("executor queue")
                .tasks
                .pop_front();
            match task {
                Some(task) => task(),
                None => {
                    let mut remaining = batch.remaining.lock().expect("batch latch");
                    while *remaining > 0 {
                        remaining = batch.done.wait(remaining).expect("batch latch");
                    }
                    break;
                }
            }
        }

        batch
            .slots
            .iter()
            .map(|slot| {
                match slot
                    .lock()
                    .expect("batch slot")
                    .take()
                    .expect("batch complete")
                {
                    Ok(value) => value,
                    Err(payload) => std::panic::resume_unwind(payload),
                }
            })
            .collect()
    }
}

fn worker_loop(queue: &Queue) {
    loop {
        let task = {
            let mut state = queue.state.lock().expect("executor queue");
            loop {
                if let Some(task) = state.tasks.pop_front() {
                    break task;
                }
                if state.shutdown {
                    return;
                }
                state = queue.available.wait(state).expect("executor queue");
            }
        };
        task();
    }
}

impl Drop for ShardExecutor {
    fn drop(&mut self) {
        self.queue.state.lock().expect("executor queue").shutdown = true;
        self.queue.available.notify_all();
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
    }
}

impl std::fmt::Debug for ShardExecutor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardExecutor")
            .field("threads", &self.threads.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_come_back_in_task_order() {
        let ex = ShardExecutor::new(2);
        let results = ex.run((0..16).map(|i| move || i * i).collect());
        assert_eq!(results, (0..16).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn empty_batch_is_free() {
        let ex = ShardExecutor::new(1);
        assert_eq!(ex.run(Vec::<Box<dyn FnOnce() -> u8 + Send>>::new()), []);
    }

    #[test]
    fn single_task_runs_inline_on_the_caller() {
        let ex = ShardExecutor::new(2);
        let caller = thread::current().id();
        let ran_on = ex.run(vec![move || thread::current().id()]);
        assert_eq!(ran_on, vec![caller], "no cross-thread hop for 1 task");
    }

    #[test]
    fn tasks_actually_run_concurrently_on_pool_threads() {
        let ex = ShardExecutor::new(4);
        let seen = Arc::new(Mutex::new(std::collections::HashSet::new()));
        let barrier = Arc::new(std::sync::Barrier::new(2));
        // Two tasks that must overlap in time: each waits for the other.
        let tasks: Vec<_> = (0..2)
            .map(|_| {
                let seen = Arc::clone(&seen);
                let barrier = Arc::clone(&barrier);
                move || {
                    barrier.wait();
                    seen.lock().unwrap().insert(thread::current().id());
                }
            })
            .collect();
        ex.run(tasks);
        assert_eq!(seen.lock().unwrap().len(), 2, "two distinct threads");
    }

    #[test]
    fn width_one_pool_still_completes_wide_batches() {
        let ex = ShardExecutor::new(1);
        let count = Arc::new(AtomicUsize::new(0));
        let tasks: Vec<_> = (0..32)
            .map(|_| {
                let count = Arc::clone(&count);
                move || count.fetch_add(1, Ordering::Relaxed)
            })
            .collect();
        ex.run(tasks);
        assert_eq!(count.load(Ordering::Relaxed), 32);
    }

    #[test]
    fn concurrent_batches_from_many_submitters_all_complete() {
        let ex = Arc::new(ShardExecutor::new(2));
        thread::scope(|sc| {
            for submitter in 0..8 {
                let ex = Arc::clone(&ex);
                sc.spawn(move || {
                    for round in 0..10 {
                        let base = submitter * 1000 + round;
                        let out = ex.run((0..4).map(|i| move || base + i).collect());
                        assert_eq!(out, (0..4).map(|i| base + i).collect::<Vec<_>>());
                    }
                });
            }
        });
    }

    #[test]
    fn panicking_task_propagates_to_the_submitter() {
        let ex = ShardExecutor::new(2);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            ex.run(vec![
                Box::new(|| 1u32) as Box<dyn FnOnce() -> u32 + Send>,
                Box::new(|| panic!("shard exploded")),
            ]);
        }));
        assert!(result.is_err(), "panic must reach the caller");
        // The pool survives a panicking task.
        assert_eq!(ex.run(vec![|| 7u32]), vec![7]);
    }

    #[test]
    fn global_executor_is_shared_and_core_sized() {
        let a = ShardExecutor::global();
        let b = ShardExecutor::global();
        assert!(std::ptr::eq(a, b));
        assert!(a.threads() >= 1);
    }
}
