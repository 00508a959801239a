//! Stackful coroutines: what every simulation process runs on.
//!
//! A [`Coroutine`] owns a body closure and, once first resumed, a stack of
//! its own. [`Coroutine::resume`] switches from the calling thread's stack
//! onto the coroutine's and runs the body until it calls
//! [`Suspender::suspend`] or returns; either way control comes back to the
//! caller, on the same thread. A switch stores the callee-saved registers
//! of the side it leaves (the SysV x86_64 set: `rbx`, `rbp`, `r12`–`r15`,
//! plus MXCSR and the x87 control word) on that side's stack, saves its
//! stack pointer, and restores the other side the same way: a few dozen
//! instructions and no syscall.
//!
//! Stacks are `mmap`ed on the first resume, 2 MiB each (std's default
//! thread stack) above a `PROT_NONE` guard page, and unmapped when the body
//! returns. A coroutine that is never resumed never maps one.
//!
//! The body must not unwind: a panic escaping it aborts the process (the
//! kernel catches every panic inside the body). The entry trampoline marks
//! its return address undefined in its unwind info, so backtraces taken on
//! a coroutine stack end there.

#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
compile_error!(
    "gv-sim runs simulation processes as coroutines whose context switch is \
     written for x86_64 Linux (SysV ABI) only; no other target is supported"
);

use std::cell::Cell;
use std::ffi::{c_int, c_void};
use std::ptr::{self, NonNull};

/// Usable stack size per coroutine, matching std's default thread stack.
const STACK_SIZE: usize = 2 << 20;
/// One `PROT_NONE` page below the stack: an overflow faults instead of
/// silently writing into a neighbouring mapping.
const GUARD_SIZE: usize = 4096;

// `mmap(2)` and friends, declared here because std already links libc.
const PROT_NONE: c_int = 0;
const PROT_READ: c_int = 1;
const PROT_WRITE: c_int = 2;
const MAP_PRIVATE: c_int = 0x02;
const MAP_ANONYMOUS: c_int = 0x20;
const MAP_NORESERVE: c_int = 0x4000;
const MAP_STACK: c_int = 0x20000;

extern "C" {
    fn mmap(
        addr: *mut c_void,
        len: usize,
        prot: c_int,
        flags: c_int,
        fd: c_int,
        offset: i64,
    ) -> *mut c_void;
    fn mprotect(addr: *mut c_void, len: usize, prot: c_int) -> c_int;
    fn munmap(addr: *mut c_void, len: usize) -> c_int;
}

// `gv_sim_coro_switch(save: *mut usize, to: usize)`: push the callee-saved
// registers and the FP control words, store the stack pointer in `*save`,
// load `to` and pop the other side's. `gv_sim_coro_trampoline` is where a
// fresh stack's first switch returns to: it calls `rbx(r12)` (the entry
// function and its context, placed there by `Coroutine::resume`).
std::arch::global_asm!(
    ".text",
    ".p2align 4",
    ".globl gv_sim_coro_switch",
    ".hidden gv_sim_coro_switch",
    ".type gv_sim_coro_switch, @function",
    "gv_sim_coro_switch:",
    "push rbp",
    "push rbx",
    "push r12",
    "push r13",
    "push r14",
    "push r15",
    "sub rsp, 8",
    "stmxcsr dword ptr [rsp]",
    "fnstcw word ptr [rsp + 4]",
    "mov qword ptr [rdi], rsp",
    "mov rsp, rsi",
    "ldmxcsr dword ptr [rsp]",
    "fldcw word ptr [rsp + 4]",
    "add rsp, 8",
    "pop r15",
    "pop r14",
    "pop r13",
    "pop r12",
    "pop rbx",
    "pop rbp",
    "ret",
    ".size gv_sim_coro_switch, . - gv_sim_coro_switch",
    "",
    ".p2align 4",
    ".globl gv_sim_coro_trampoline",
    ".hidden gv_sim_coro_trampoline",
    ".type gv_sim_coro_trampoline, @function",
    "gv_sim_coro_trampoline:",
    ".cfi_startproc",
    ".cfi_undefined rip",
    "mov rdi, r12",
    "call rbx",
    "ud2",
    ".cfi_endproc",
    ".size gv_sim_coro_trampoline, . - gv_sim_coro_trampoline",
);

extern "C" {
    fn gv_sim_coro_switch(save: *mut usize, to: usize);
    fn gv_sim_coro_trampoline();
}

/// Power-on MXCSR (all exceptions masked, round to nearest) and x87
/// control word (extended precision, all exceptions masked): what a new
/// thread starts with.
const MXCSR_DEFAULT: u64 = 0x1F80;
const FPUCW_DEFAULT: u64 = 0x037F;

#[cfg(test)]
thread_local! {
    /// Live coroutine stacks on this thread, and their high-water mark
    /// (`(live, peak)`), for the engine tests.
    pub(crate) static LIVE_STACKS: Cell<(usize, usize)> = const { Cell::new((0, 0)) };
}

/// One `mmap`ed coroutine stack with its guard page.
struct Stack {
    /// Lowest address of the mapping (the guard page).
    base: NonNull<c_void>,
}

impl Stack {
    const LEN: usize = GUARD_SIZE + STACK_SIZE;

    fn new() -> Stack {
        // SAFETY: an anonymous private mapping with no address hint aliases
        // nothing; the guard page is the first page of that same mapping.
        let base = unsafe {
            let base = mmap(
                ptr::null_mut(),
                Self::LEN,
                PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK,
                -1,
                0,
            );
            if base as isize == -1 {
                panic!("failed to map a {} KiB process stack", Self::LEN >> 10);
            }
            if mprotect(base, GUARD_SIZE, PROT_NONE) != 0 {
                munmap(base, Self::LEN);
                panic!("failed to protect a process stack's guard page");
            }
            NonNull::new_unchecked(base)
        };
        #[cfg(test)]
        LIVE_STACKS.with(|c| {
            let (live, peak) = c.get();
            c.set((live + 1, peak.max(live + 1)));
        });
        Stack { base }
    }

    /// One past the highest usable address (16-byte aligned).
    fn top(&self) -> *mut u64 {
        // SAFETY: stays one past the end of the mapping.
        unsafe { self.base.as_ptr().cast::<u8>().add(Self::LEN).cast() }
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        // SAFETY: unmaps exactly the mapping `new` created; nothing runs on
        // it any more (the body returned).
        unsafe { munmap(self.base.as_ptr(), Self::LEN) };
        #[cfg(test)]
        LIVE_STACKS.with(|c| {
            let (live, peak) = c.get();
            c.set((live - 1, peak));
        });
    }
}

type Body = Box<dyn FnOnce(Suspender) + Send>;

/// Shared by the two sides of a coroutine; boxed so its address survives
/// moves of the [`Coroutine`] that owns it.
struct Context {
    /// The coroutine's saved stack pointer while it is suspended.
    coro_sp: Cell<usize>,
    /// The resumer's saved stack pointer while the coroutine runs.
    caller_sp: Cell<usize>,
    /// The body, until the first resume starts it.
    body: Cell<Option<Body>>,
    /// Set once the body has returned.
    done: Cell<bool>,
}

/// A suspended (or not yet started) computation with its own stack.
pub(crate) struct Coroutine {
    ctx: Box<Context>,
    stack: Option<Stack>,
}

// SAFETY: an unstarted coroutine holds only its `Send` body. A started one
// may hold anything on its stack, but the kernel resumes coroutines only
// inside `Simulation::run_until`, on the thread that called it, and runs
// every started one to completion before that call returns, so a started
// coroutine never changes threads.
unsafe impl Send for Coroutine {}

impl Coroutine {
    /// Wrap `body`; no stack is mapped until the first [`resume`](Self::resume).
    pub(crate) fn new(body: impl FnOnce(Suspender) + Send + 'static) -> Coroutine {
        Coroutine {
            ctx: Box::new(Context {
                coro_sp: Cell::new(0),
                caller_sp: Cell::new(0),
                body: Cell::new(Some(Box::new(body))),
                done: Cell::new(false),
            }),
            stack: None,
        }
    }

    /// Has the body started (and not yet returned)?
    pub(crate) fn started(&self) -> bool {
        self.stack.is_some()
    }

    /// Run the body until it suspends (`true`) or returns (`false`, and its
    /// stack is unmapped). Must not be called again after `false`.
    pub(crate) fn resume(&mut self) -> bool {
        debug_assert!(!self.ctx.done.get(), "resumed a finished coroutine");
        if self.stack.is_none() {
            let stack = Stack::new();
            // The first switch pops this frame: FP control words, r15..r12,
            // rbx, rbp, then returns into the trampoline with the stack
            // 16-byte aligned, as a call expects it.
            let frame: [u64; 8] = [
                MXCSR_DEFAULT | FPUCW_DEFAULT << 32,
                0,                                          // r15
                0,                                          // r14
                0,                                          // r13
                &*self.ctx as *const Context as u64,        // r12: entry argument
                coro_entry as *const () as u64,             // rbx: entry function
                0,                                          // rbp: ends frame chains
                gv_sim_coro_trampoline as *const () as u64, // return address
            ];
            // SAFETY: the frame plus 16 bytes of padding fits well inside
            // the fresh stack, below its top.
            unsafe {
                let sp = stack.top().sub(frame.len() + 2);
                ptr::copy_nonoverlapping(frame.as_ptr(), sp, frame.len());
                self.ctx.coro_sp.set(sp as usize);
            }
            self.stack = Some(stack);
        }
        // SAFETY: `coro_sp` is a frame saved by a switch (or built above)
        // on this coroutine's live stack; it switches back through
        // `caller_sp` on this same thread.
        unsafe { gv_sim_coro_switch(self.ctx.caller_sp.as_ptr(), self.ctx.coro_sp.get()) };
        if self.ctx.done.get() {
            self.stack = None;
            false
        } else {
            true
        }
    }
}

/// The body's handle for giving control back to its resumer.
pub(crate) struct Suspender(NonNull<Context>);

impl Suspender {
    /// Switch back to the resumer; returns at the next
    /// [`Coroutine::resume`].
    pub(crate) fn suspend(&self) {
        // SAFETY: the context outlives the body, which is the only holder
        // of this handle; `caller_sp` was saved by the resume running us.
        unsafe {
            let ctx = self.0.as_ref();
            gv_sim_coro_switch(ctx.coro_sp.as_ptr(), ctx.caller_sp.get());
        }
    }
}

/// First frame on every coroutine stack (called by the trampoline): run
/// the body, then switch back for good.
extern "C" fn coro_entry(ctx: *const Context) -> ! {
    // SAFETY: `resume` passes its boxed context, which outlives the body.
    let ctx = unsafe { &*ctx };
    if let Some(body) = ctx.body.take() {
        body(Suspender(NonNull::from(ctx)));
    }
    ctx.done.set(true);
    // SAFETY: as in `Suspender::suspend`. Nothing is left to drop here.
    unsafe { gv_sim_coro_switch(ctx.coro_sp.as_ptr(), ctx.caller_sp.get()) };
    unreachable!("a finished coroutine was resumed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::Arc;

    #[test]
    fn resume_and_suspend_alternate() {
        let log = Arc::new(AtomicU32::new(0));
        let seen = Arc::clone(&log);
        let mut co = Coroutine::new(move |s| {
            for i in 1..=3 {
                log.store(i, Ordering::Relaxed);
                s.suspend();
            }
        });
        assert!(!co.started());
        for i in 1..=3 {
            assert!(co.resume());
            assert_eq!(seen.load(Ordering::Relaxed), i);
        }
        assert!(!co.resume());
        assert!(!co.started());
        // The body and its captures are gone.
        assert_eq!(Arc::strong_count(&seen), 1);
    }

    fn mxcsr() -> u32 {
        let mut v = 0u32;
        // SAFETY: stores MXCSR into a local.
        unsafe { std::arch::asm!("stmxcsr [{}]", in(reg) &mut v, options(nostack)) };
        v
    }

    fn set_mxcsr(v: u32) {
        // SAFETY: loads a valid MXCSR value.
        unsafe { std::arch::asm!("ldmxcsr [{}]", in(reg) &v, options(nostack)) };
    }

    #[test]
    fn fp_control_words_are_per_coroutine() {
        // Round toward zero inside the coroutine only.
        const TOWARD_ZERO: u32 = MXCSR_DEFAULT as u32 | 0x6000;
        let seen = Arc::new([AtomicU32::new(0), AtomicU32::new(0)]);
        let inner = Arc::clone(&seen);
        let outer = mxcsr();
        let mut co = Coroutine::new(move |s| {
            inner[0].store(mxcsr(), Ordering::Relaxed);
            set_mxcsr(TOWARD_ZERO);
            s.suspend();
            inner[1].store(mxcsr(), Ordering::Relaxed);
        });
        assert!(co.resume());
        assert_eq!(mxcsr(), outer);
        assert!(!co.resume());
        assert_eq!(mxcsr(), outer);
        assert_eq!(seen[0].load(Ordering::Relaxed), MXCSR_DEFAULT as u32);
        assert_eq!(seen[1].load(Ordering::Relaxed), TOWARD_ZERO);
    }
}
