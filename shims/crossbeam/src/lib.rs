//! Offline shim for `crossbeam`: scoped threads backed by
//! `std::thread::scope` (which crossbeam's own scope predates). The shim
//! mirrors crossbeam's signatures: the scope closure and every spawned
//! closure receive a `&Scope`, and `scope` returns a `thread::Result`
//! whose `Err` carries the first child panic payload.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::thread;

/// Scoped-thread handle passed to the `scope` closure and to every
/// spawned closure (crossbeam passes it so nested spawns can be issued).
pub struct Scope<'scope, 'env: 'scope> {
    inner: &'scope thread::Scope<'scope, 'env>,
}

impl<'scope, 'env> Scope<'scope, 'env> {
    /// Spawn a thread scoped to this `scope` call; it may borrow from the
    /// enclosing environment.
    pub fn spawn<F, T>(&self, f: F) -> thread::ScopedJoinHandle<'scope, T>
    where
        F: FnOnce(&Scope<'scope, 'env>) -> T + Send + 'scope,
        T: Send + 'scope,
    {
        let inner = self.inner;
        inner.spawn(move || f(&Scope { inner }))
    }
}

/// Run `f` with a scope in which borrowing threads can be spawned; joins
/// them all before returning. A child panic surfaces as `Err(payload)`.
pub fn scope<'env, F, R>(f: F) -> thread::Result<R>
where
    F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> R,
{
    catch_unwind(AssertUnwindSafe(|| {
        thread::scope(|s| f(&Scope { inner: s }))
    }))
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicU32, Ordering};

    #[test]
    fn spawned_threads_borrow_and_join() {
        let counter = AtomicU32::new(0);
        let data = [1u32, 2, 3, 4];
        super::scope(|s| {
            for chunk in data.chunks(2) {
                let counter = &counter;
                s.spawn(move |_| {
                    counter.fetch_add(chunk.iter().sum(), Ordering::Relaxed);
                });
            }
        })
        .expect("threads join");
        assert_eq!(counter.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn child_panic_is_reported() {
        let r = super::scope(|s| {
            s.spawn(|_| panic!("boom"));
        });
        assert!(r.is_err());
    }
}
