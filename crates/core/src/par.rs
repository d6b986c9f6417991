//! The engine-wide partition-parallel executor.
//!
//! Phases 1, 2, 4, and 5 are embarrassingly parallel across
//! partitions (or partition-pair buckets). [`run_indexed`] is the one
//! primitive they all share: execute `tasks` independent jobs on up to
//! `threads` scoped workers pulling indices from a work-stealing
//! counter, and return the results **in index order** regardless of
//! completion order. Job `i` always performs exactly the same work, so
//! everything a job computes — and everything it writes to the storage
//! stream it alone owns — is identical at every thread count; callers
//! that must serialize commits can also write the returned values in
//! index order themselves. This is the mechanism behind the engine's
//! determinism guarantee (see the crate docs).

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;

use crate::EngineError;

/// Runs `f(0..tasks)` across at most `threads` workers, returning the
/// results in index order.
///
/// With `threads <= 1` (or fewer than two tasks) the jobs run inline
/// on the caller's thread — the parallel and sequential paths execute
/// the *same* per-index closure, which is what makes their outputs
/// bit-for-bit comparable. The first error wins and aborts the
/// remaining queue (in-flight jobs still finish; an erroring iteration
/// is discarded wholesale by the engine, so partial side effects are
/// moot).
///
/// # Errors
///
/// Propagates the first `Err` any job returns, by index order for the
/// inline path and by completion order for the pooled path.
pub(crate) fn run_indexed<T, F>(tasks: usize, threads: usize, f: F) -> Result<Vec<T>, EngineError>
where
    T: Send,
    F: Fn(usize) -> Result<T, EngineError> + Sync,
{
    let workers = threads.max(1).min(tasks);
    if workers <= 1 {
        return (0..tasks).map(f).collect();
    }

    let next = AtomicUsize::new(0);
    let abort = AtomicBool::new(false);
    let (tx, rx) = mpsc::channel::<(usize, Result<T, EngineError>)>();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let tx = tx.clone();
            let (next, abort, f) = (&next, &abort, &f);
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= tasks || abort.load(Ordering::Relaxed) {
                    break;
                }
                let result = f(i);
                if result.is_err() {
                    abort.store(true, Ordering::Relaxed);
                }
                if tx.send((i, result)).is_err() {
                    break;
                }
            });
        }
        drop(tx);

        let mut slots: Vec<Option<T>> = (0..tasks).map(|_| None).collect();
        let mut first_err: Option<EngineError> = None;
        while let Ok((i, result)) = rx.recv() {
            match result {
                Ok(value) => slots[i] = Some(value),
                Err(e) => first_err = first_err.or(Some(e)),
            }
        }
        if let Some(e) = first_err {
            return Err(e);
        }
        Ok(slots
            .into_iter()
            .map(|s| s.expect("every index either completed or errored"))
            .collect())
    })
}

/// Like [`run_indexed`], but each task *consumes* its element of
/// `items`: `f(i, items[i])` runs once per index, with ownership moved
/// to whichever worker picks the index up. This is the shape phase
/// work usually has — a per-partition payload built up front, then
/// sorted/encoded on a worker — and it centralizes the cell-and-take
/// machinery that hand-off otherwise requires at every call site.
///
/// # Errors
///
/// Same as [`run_indexed`].
pub(crate) fn run_indexed_owned<T, U, F>(
    items: Vec<T>,
    threads: usize,
    f: F,
) -> Result<Vec<U>, EngineError>
where
    T: Send,
    U: Send,
    F: Fn(usize, T) -> Result<U, EngineError> + Sync,
{
    let cells: Vec<std::sync::Mutex<Option<T>>> = items
        .into_iter()
        .map(|t| std::sync::Mutex::new(Some(t)))
        .collect();
    run_indexed(cells.len(), threads, |i| {
        let item = cells[i]
            .lock()
            .expect("task cell poisoned")
            .take()
            .expect("each task consumes its item exactly once");
        f(i, item)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_index_order() {
        for threads in [1, 2, 4, 9] {
            let got = run_indexed(20, threads, |i| Ok(i * i)).unwrap();
            let want: Vec<usize> = (0..20).map(|i| i * i).collect();
            assert_eq!(got, want, "threads={threads}");
        }
    }

    #[test]
    fn zero_tasks_is_empty() {
        let got: Vec<u32> = run_indexed(0, 4, |_| Ok(0)).unwrap();
        assert!(got.is_empty());
    }

    #[test]
    fn an_error_aborts_the_run() {
        for threads in [1, 4] {
            let err = run_indexed(50, threads, |i| {
                if i == 7 {
                    Err(EngineError::input("job 7 failed"))
                } else {
                    Ok(i)
                }
            })
            .unwrap_err();
            assert!(
                err.to_string().contains("job 7 failed"),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn owned_items_move_to_their_task() {
        for threads in [1, 4] {
            let items: Vec<String> = (0..12).map(|i| format!("item{i}")).collect();
            let got = run_indexed_owned(items, threads, |i, s| Ok(format!("{i}:{s}"))).unwrap();
            let want: Vec<String> = (0..12).map(|i| format!("{i}:item{i}")).collect();
            assert_eq!(got, want, "threads={threads}");
        }
    }

    #[test]
    fn every_index_runs_exactly_once() {
        use std::sync::atomic::AtomicU64;
        let hits: Vec<AtomicU64> = (0..100).map(|_| AtomicU64::new(0)).collect();
        run_indexed(100, 8, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
            Ok(())
        })
        .unwrap();
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }
}
