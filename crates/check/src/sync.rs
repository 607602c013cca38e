//! Controlled synchronisation primitives.
//!
//! Drop-in shims for `std::sync::Mutex`, `Condvar` and `std::thread`
//! spawning. On an **uncontrolled** thread (no exploration in progress)
//! every call delegates directly to the wrapped `std` type, so behaviour
//! — including poisoning recovery via
//! `unwrap_or_else(PoisonError::into_inner)` call sites — is unchanged.
//! On a **controlled** thread (spawned inside [`crate::explore`]) every
//! operation becomes a scheduling point: the thread publishes the op and
//! blocks until the model checker grants it, which is what lets the
//! checker enumerate interleavings.
//!
//! The real `std` primitive still backs every shim (the real mutex is
//! locked after the virtual grant), so data access is genuinely
//! exclusive and `Deref` works unchanged; the virtual layer only decides
//! *order*.

use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::sync::{LockResult, PoisonError};

use crate::sched::{
    self, current_ctx, name_mutex, resource_id, yield_cv_wait, yield_op, ExecCtx, Op, ResourceKind,
};

/// Mutex shim: `std::sync::Mutex` plus a lazily-registered checker slot.
pub struct Mutex<T: ?Sized> {
    slot: AtomicU64,
    inner: std::sync::Mutex<T>,
}

/// Guard shim: wraps the real guard; releasing it on a controlled thread
/// is a scheduling point.
pub struct MutexGuard<'a, T: ?Sized> {
    lock: &'a Mutex<T>,
    inner: Option<std::sync::MutexGuard<'a, T>>,
    /// Checker resource id when acquired on a controlled thread.
    ctl: Option<usize>,
}

impl<T> Mutex<T> {
    /// Create a new mutex (uncontended, unregistered).
    pub const fn new(value: T) -> Self {
        Mutex { slot: AtomicU64::new(0), inner: std::sync::Mutex::new(value) }
    }
}

impl<T: ?Sized> Mutex<T> {
    fn rid(&self, ctx: &ExecCtx) -> usize {
        resource_id(ctx, &self.slot, ResourceKind::Mutex, "")
    }

    /// Acquire the mutex. Controlled threads never observe poisoning
    /// (panics abort the whole execution), so the result is always `Ok`
    /// there; uncontrolled threads get exact `std` semantics.
    pub fn lock(&self) -> LockResult<MutexGuard<'_, T>> {
        if let Some(ctx) = current_ctx() {
            let rid = self.rid(&ctx);
            yield_op(&ctx, Op::MutexLock(rid));
            let inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
            Ok(MutexGuard { lock: self, inner: Some(inner), ctl: Some(rid) })
        } else {
            match self.inner.lock() {
                Ok(g) => Ok(MutexGuard { lock: self, inner: Some(g), ctl: None }),
                Err(pe) => Err(PoisonError::new(MutexGuard {
                    lock: self,
                    inner: Some(pe.into_inner()),
                    ctl: None,
                })),
            }
        }
    }

    /// Whether the underlying mutex is poisoned (std passthrough).
    pub fn is_poisoned(&self) -> bool {
        self.inner.is_poisoned()
    }

    /// Attach a stable debug name used in counterexample schedules.
    /// No-op outside exploration.
    pub fn name_hint(&self, name: &'static str) {
        if let Some(ctx) = current_ctx() {
            let rid = resource_id(&ctx, &self.slot, ResourceKind::Mutex, name);
            name_mutex(&ctx, rid, name);
        }
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

impl<T: ?Sized> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        match &self.inner {
            Some(g) => g,
            None => sched::die("deref of released MutexGuard".into()),
        }
    }
}

impl<T: ?Sized> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        match &mut self.inner {
            Some(g) => g,
            None => sched::die("deref of released MutexGuard".into()),
        }
    }
}

impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        // Release the real lock first, then the virtual one: whoever the
        // scheduler grants next will find the real mutex free.
        self.inner.take();
        if let Some(rid) = self.ctl.take() {
            if let Some(ctx) = current_ctx() {
                yield_op(&ctx, Op::MutexUnlock(rid));
            }
        }
    }
}

/// Result of a `wait_timeout`: mirrors `std::sync::WaitTimeoutResult`
/// (which has no public constructor, hence the local type).
#[derive(Clone, Copy, Debug)]
pub struct WaitTimeoutResult(bool);

impl WaitTimeoutResult {
    /// True when the wait ended by timeout rather than notify.
    pub fn timed_out(&self) -> bool {
        self.0
    }
}

/// Condvar shim. Under exploration a `wait` atomically releases the
/// paired mutex and parks in the scheduler; `wait_timeout` additionally
/// marks the thread as *stall-escapable* — when every thread is blocked
/// the scheduler wakes one timed waiter as a timeout instead of
/// reporting deadlock, mirroring how a real timeout breaks a stall.
pub struct Condvar {
    slot: AtomicU64,
    inner: std::sync::Condvar,
}

impl Condvar {
    /// Create a new condition variable.
    pub const fn new() -> Self {
        Condvar { slot: AtomicU64::new(0), inner: std::sync::Condvar::new() }
    }

    fn rid(&self, ctx: &ExecCtx) -> usize {
        resource_id(ctx, &self.slot, ResourceKind::Condvar, "")
    }

    /// Block until notified; the guard's mutex is released atomically and
    /// reacquired before returning.
    pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> LockResult<MutexGuard<'a, T>> {
        let (g, _) = self.wait_impl(guard, false);
        Ok(g)
    }

    /// Block until notified or (modelled) timeout. Under exploration the
    /// duration is ignored: the timeout fires exactly when the system
    /// would otherwise stall, which is the schedule-relevant abstraction.
    pub fn wait_timeout<'a, T>(
        &self,
        guard: MutexGuard<'a, T>,
        dur: std::time::Duration,
    ) -> LockResult<(MutexGuard<'a, T>, WaitTimeoutResult)> {
        if guard.ctl.is_some() {
            let (g, timed_out) = self.wait_impl(guard, true);
            Ok((g, WaitTimeoutResult(timed_out)))
        } else {
            let lock = guard.lock;
            let mut guard = guard;
            let inner = match guard.inner.take() {
                Some(g) => g,
                None => sched::die("wait_timeout on released guard".into()),
            };
            std::mem::forget(guard);
            match self.inner.wait_timeout(inner, dur) {
                Ok((g, t)) => Ok((
                    MutexGuard { lock, inner: Some(g), ctl: None },
                    WaitTimeoutResult(t.timed_out()),
                )),
                Err(pe) => {
                    let (g, t) = pe.into_inner();
                    Err(PoisonError::new((
                        MutexGuard { lock, inner: Some(g), ctl: None },
                        WaitTimeoutResult(t.timed_out()),
                    )))
                }
            }
        }
    }

    fn wait_impl<'a, T>(&self, guard: MutexGuard<'a, T>, timed: bool) -> (MutexGuard<'a, T>, bool) {
        let lock = guard.lock;
        let mut guard = guard;
        match guard.ctl.take() {
            Some(rid_m) => {
                let ctx = match current_ctx() {
                    Some(c) => c,
                    None => sched::die("controlled guard on uncontrolled thread".into()),
                };
                let cv = self.rid(&ctx);
                // Drop the real guard without running the shim Drop (the
                // virtual release happens inside yield_cv_wait).
                guard.inner.take();
                std::mem::forget(guard);
                let info = yield_cv_wait(&ctx, cv, rid_m, timed);
                let inner = lock.inner.lock().unwrap_or_else(PoisonError::into_inner);
                (MutexGuard { lock, inner: Some(inner), ctl: Some(rid_m) }, info.timed_out)
            }
            None => {
                let inner = match guard.inner.take() {
                    Some(g) => g,
                    None => sched::die("wait on released guard".into()),
                };
                std::mem::forget(guard);
                let inner = self.inner.wait(inner).unwrap_or_else(PoisonError::into_inner);
                (MutexGuard { lock, inner: Some(inner), ctl: None }, false)
            }
        }
    }

    /// Wake one waiter.
    pub fn notify_one(&self) {
        if let Some(ctx) = current_ctx() {
            let rid = self.rid(&ctx);
            yield_op(&ctx, Op::CvNotifyOne(rid));
        }
        self.inner.notify_one();
    }

    /// Wake every waiter.
    pub fn notify_all(&self) {
        if let Some(ctx) = current_ctx() {
            let rid = self.rid(&ctx);
            yield_op(&ctx, Op::CvNotifyAll(rid));
        }
        self.inner.notify_all();
    }
}

impl Default for Condvar {
    fn default() -> Self {
        Condvar::new()
    }
}

/// Thread shim: spawning from a controlled thread creates another
/// controlled thread; joins become scheduling points.
pub mod thread {
    use super::*;
    use crate::sched::{finish_thread, register_thread, thread_exited, wait_until_started};
    use std::sync::Mutex as StdMutex;

    enum Imp<T> {
        Std(std::thread::JoinHandle<T>),
        Ctl {
            tid: usize,
            real: Option<std::thread::JoinHandle<()>>,
            slot: Arc<StdMutex<Option<std::thread::Result<T>>>>,
        },
    }

    /// Join handle shim (std or controlled).
    pub struct JoinHandle<T> {
        imp: Imp<T>,
    }

    impl<T> JoinHandle<T> {
        /// Wait for the thread to finish and collect its result.
        pub fn join(self) -> std::thread::Result<T> {
            match self.imp {
                Imp::Std(h) => h.join(),
                Imp::Ctl { tid, real, slot } => {
                    if let Some(ctx) = current_ctx() {
                        if !std::thread::panicking() {
                            yield_op(&ctx, Op::Join(tid));
                        }
                    }
                    if let Some(h) = real {
                        let _ = h.join();
                    }
                    let taken = slot.lock().unwrap_or_else(PoisonError::into_inner).take();
                    match taken {
                        Some(r) => r,
                        None => sched::die(format!("joined thread t{tid} left no result")),
                    }
                }
            }
        }
    }

    /// Builder shim mirroring `std::thread::Builder`.
    #[derive(Default)]
    pub struct Builder {
        name: Option<String>,
    }

    impl Builder {
        /// Fresh builder with no name.
        pub fn new() -> Self {
            Builder { name: None }
        }

        /// Name the thread (shows up in counterexample schedules).
        #[must_use]
        pub fn name(mut self, name: String) -> Self {
            self.name = Some(name);
            self
        }

        /// Spawn, returning io::Result like std.
        pub fn spawn<F, T>(self, f: F) -> std::io::Result<JoinHandle<T>>
        where
            F: FnOnce() -> T + Send + 'static,
            T: Send + 'static,
        {
            if let Some(ctx) = current_ctx() {
                Ok(spawn_controlled(&ctx, self.name, f))
            } else {
                let mut b = std::thread::Builder::new();
                if let Some(n) = self.name {
                    b = b.name(n);
                }
                b.spawn(f).map(|h| JoinHandle { imp: Imp::Std(h) })
            }
        }
    }

    /// Spawn an unnamed thread (panics on spawn failure, like std).
    pub fn spawn<F, T>(f: F) -> JoinHandle<T>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        match Builder::new().spawn(f) {
            Ok(h) => h,
            Err(e) => sched::die(format!("failed to spawn thread: {e}")),
        }
    }

    fn spawn_controlled<F, T>(ctx: &ExecCtx, name: Option<String>, f: F) -> JoinHandle<T>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        let core = &ctx.core;
        let tid = register_thread(core, name.clone().unwrap_or_default());
        let slot: Arc<StdMutex<Option<std::thread::Result<T>>>> = Arc::new(StdMutex::new(None));
        let (c2, s2) = (core.clone(), slot.clone());
        let mut builder = std::thread::Builder::new();
        if let Some(n) = name {
            builder = builder.name(n);
        }
        let spawned = builder.spawn(move || {
            sched::set_ctx(Some(ExecCtx { core: c2.clone(), tid }));
            if wait_until_started(&c2, tid) {
                let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
                let panicked = r.is_err();
                *s2.lock().unwrap_or_else(PoisonError::into_inner) = Some(r);
                finish_thread(&c2, tid, panicked);
            } else {
                // Execution aborted before this thread ever ran; leave an
                // abort payload so a join during unwinding finds a result.
                *s2.lock().unwrap_or_else(PoisonError::into_inner) =
                    Some(Err(Box::new(sched::AbortExecution)));
            }
            thread_exited(&c2);
        });
        let real = match spawned {
            Ok(h) => h,
            Err(e) => sched::die(format!("failed to spawn controlled thread: {e}")),
        };
        // Scheduling point: the child may run before the parent continues.
        yield_op(ctx, Op::Spawn(tid));
        JoinHandle { imp: Imp::Ctl { tid, real: Some(real), slot } }
    }
}
