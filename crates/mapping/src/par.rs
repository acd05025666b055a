//! The stack's one work-pulling parallel loop.
//!
//! Every parallel job in the workspace is embarrassingly parallel: the
//! per-source shortest-path trees of the §2.2 routed transfer costs
//! ([`crate::MetricClosure::par_warm`], the delta repair), the members of
//! a portfolio race, and the instances of an experiment sweep. The DPs
//! themselves are serial column loops. This module runs all of those jobs
//! the same way: workers pull items one at a time from a shared queue, so
//! an uneven item (a large tree, a slow solver) never holds the others
//! back. The thread count only picks *how many* workers pull, never what
//! an item computes, so results are identical at any thread count.
//!
//! With one worker the loop runs inline on the caller's thread and spawns
//! no thread; that is the path every served request takes.

use parking_lot::Mutex;

/// Resolves a thread-count request: `0` means all the CPUs this process
/// may use (1 when that is unknown), any other value is taken as given.
pub fn effective_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        threads
    }
}

/// Calls `f` once for every item on [`effective_threads`]`(threads)`
/// workers, at most one per item.
///
/// Each worker calls `init` once for its own state (a Dijkstra scratch,
/// say) and hands it to every `f` call it makes. Workers pull items one at
/// a time, in iteration order, from the locked iterator. With one worker
/// the loop runs inline on the caller's thread. Workers are scoped
/// threads, so a panic in `init` or `f` reaches the caller once every
/// worker has stopped.
pub fn for_each_with<I, S, F>(items: I, threads: usize, init: impl Fn() -> S + Sync, f: F)
where
    I: IntoIterator,
    I::IntoIter: ExactSizeIterator + Send,
    F: Fn(&mut S, I::Item) + Sync,
{
    let items = items.into_iter();
    match effective_threads(threads).min(items.len()) {
        0 => {}
        1 => {
            let mut state = init();
            items.for_each(|item| f(&mut state, item));
        }
        workers => {
            let queue = Mutex::new(items);
            std::thread::scope(|scope| {
                for _ in 0..workers {
                    scope.spawn(|| {
                        let mut state = init();
                        loop {
                            // release the queue before running the item
                            let next = queue.lock().next();
                            let Some(item) = next else { break };
                            f(&mut state, item);
                        }
                    });
                }
            });
        }
    }
}

/// Applies `f` to every item on [`effective_threads`]`(threads)` workers
/// and returns the results in input order, whatever order they finished
/// in. Each worker writes its result through the `&mut` output slot it
/// pulled along with the item, so no slot needs a lock.
pub fn map<I, R, F>(items: I, threads: usize, f: F) -> Vec<R>
where
    I: IntoIterator,
    I::IntoIter: ExactSizeIterator + Send,
    R: Send,
    F: Fn(I::Item) -> R + Sync,
{
    let items = items.into_iter();
    let mut slots: Vec<Option<R>> = std::iter::repeat_with(|| None).take(items.len()).collect();
    for_each_with(
        slots.iter_mut().zip(items),
        threads,
        || (),
        |(), (slot, item)| *slot = Some(f(item)),
    );
    slots
        .into_iter()
        .map(|r| r.expect("every slot is filled exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn preserves_input_order() {
        let items: Vec<u64> = (0..100).collect();
        let out = map(&items, 8, |&x| x * 2);
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn passes_indices() {
        let items = ["a", "b", "c"];
        let out = map(items.iter().enumerate(), 2, |(i, s)| format!("{i}:{s}"));
        assert_eq!(out, vec!["0:a", "1:b", "2:c"]);
    }

    #[test]
    fn zero_threads_means_all_cpus() {
        let items: Vec<u32> = (0..16).collect();
        let out = map(&items, 0, |&x| x + 1);
        assert_eq!(out.len(), 16);
        assert_eq!(out[15], 16);
    }

    #[test]
    fn single_item_single_thread() {
        let out = map(&[42], 4, |&x: &i32| x);
        assert_eq!(out, vec![42]);
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let items: Vec<u8> = vec![];
        let out = map(&items, 4, |&x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn results_match_sequential_reference() {
        let items: Vec<u64> = (0..257).collect();
        let par = map(items.iter().enumerate(), 7, |(i, &x)| x * x + i as u64);
        let seq: Vec<u64> = items
            .iter()
            .enumerate()
            .map(|(i, &x)| x * x + i as u64)
            .collect();
        assert_eq!(par, seq);
    }

    #[test]
    fn one_worker_runs_inline_on_the_callers_thread() {
        let caller = std::thread::current().id();
        let ids = map(0..5, 1, |_| std::thread::current().id());
        assert!(ids.iter().all(|&id| id == caller));
    }

    #[test]
    fn init_runs_at_most_once_per_worker_and_item() {
        let inits = AtomicUsize::new(0);
        for_each_with(0..2, 8, || inits.fetch_add(1, Ordering::Relaxed), |_, _| {});
        assert!(inits.swap(0, Ordering::Relaxed) <= 2, "2 items, 8 threads");
        for_each_with(0..0, 8, || inits.fetch_add(1, Ordering::Relaxed), |_, _| {});
        assert_eq!(inits.load(Ordering::Relaxed), 0, "no items, no state");
    }

    #[test]
    fn every_mut_item_is_visited_exactly_once() {
        for threads in [1, 3] {
            let mut visits = [0u32; 50];
            for_each_with(visits.iter_mut(), threads, || (), |(), v| *v += 1);
            assert!(visits.iter().all(|&v| v == 1), "threads = {threads}");
        }
    }

    #[test]
    fn a_panic_in_f_reaches_the_caller() {
        for threads in [1, 4] {
            let outcome = std::panic::catch_unwind(|| {
                map(0..8, threads, |x| assert_ne!(x, 5, "boom"));
            });
            assert!(outcome.is_err(), "threads = {threads}");
        }
    }
}
