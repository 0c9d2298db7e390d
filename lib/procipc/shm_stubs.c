/* Futex wait/wake over a shared-memory Bigarray — the kernel floor of
   the cross-process substrate.

   The arena is an (int, int_elt, c_layout) Bigarray.Array1 mapped
   MAP_SHARED, so every word is an intnat at data + 8*index shared
   bit-for-bit between the forked processes.  Plain loads/stores go
   through the normal Bigarray primitives and the atomic
   read-modify-writes through word_stubs.c in lib/realipc; these stubs
   supply only the kernel sleep/wake pair.

   Futexes address 32-bit words.  The semaphore value is maintained with
   64-bit atomics like every other arena word, and the futex syscalls
   target the SAME address, i.e. the low 4 bytes of the word — on
   x86-64, the one target this backend supports, those low bytes ARE
   the value (little-endian) for the small non-negative counts a channel
   semaphore holds, so FUTEX_WAIT's atomic value-recheck observes
   exactly what the OCaml side published.  x86-64 is also what the
   rings' plain-store publishes need (x86-TSO); Word_arena.create fails
   on a build for any other architecture (tso_stubs.c in lib/realipc).
   FUTEX_PRIVATE_FLAG is deliberately NOT used: private futexes key the
   wait queue by (mm, address) and never match across address spaces —
   the whole point here is that they must.

   Non-Linux fallback: futex_wait degrades to a bounded nanosleep and
   reports a spurious wake-up (the caller's P loop re-checks the count,
   so this is slow but correct), futex_wake to a no-op. */

#include <caml/mlvalues.h>
#include <caml/bigarray.h>
#include <caml/threads.h>
#include <stdint.h>
#include <time.h>
#include <errno.h>

#ifdef __linux__
#include <linux/futex.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

#define WORD_PTR(ba, i) (((intnat *)Caml_ba_data_val(ba)) + Long_val(i))

/* Park on word [i] while its low 32 bits still equal [expected].
   [timeout_ns] < 0 waits forever.  Returns 0 = woken (or a spurious or
   EINTR return — callers re-check), 1 = the value had already changed
   (EAGAIN: the wake raced ahead of the sleep), 2 = timed out.  The
   runtime lock is released for the whole kernel wait so a parked
   process never stalls a sibling domain's GC. */
CAMLprim value ulipc_shm_futex_wait(value ba, value i, value expected,
                                    value timeout_ns)
{
#ifdef __linux__
  uint32_t *uaddr = (uint32_t *)WORD_PTR(ba, i);
  uint32_t exp = (uint32_t)Long_val(expected);
  intnat tmo = Long_val(timeout_ns);
  struct timespec ts, *tsp = NULL;
  long r;
  int err;
  if (tmo >= 0) {
    ts.tv_sec = tmo / 1000000000;
    ts.tv_nsec = tmo % 1000000000;
    tsp = &ts;
  }
  caml_release_runtime_system();
  r = syscall(SYS_futex, uaddr, FUTEX_WAIT, exp, tsp, NULL, 0);
  err = errno;
  caml_acquire_runtime_system();
  if (r == 0) return Val_long(0);
  if (err == EAGAIN) return Val_long(1);
  if (err == ETIMEDOUT) return Val_long(2);
  return Val_long(0); /* EINTR and friends: treat as spurious wake */
#else
  struct timespec req = {0, 50000}; /* 50 us poll: slow but correct */
  (void)expected;
  (void)timeout_ns;
  (void)ba;
  (void)i;
  caml_release_runtime_system();
  nanosleep(&req, NULL);
  caml_acquire_runtime_system();
  return Val_long(0);
#endif
}

/* Wake up to [n] processes parked on word [i]; returns how many were
   actually woken.  Fast (one syscall, never blocks), so the runtime
   lock is kept. */
CAMLprim value ulipc_shm_futex_wake(value ba, value i, value n)
{
#ifdef __linux__
  long r = syscall(SYS_futex, (uint32_t *)WORD_PTR(ba, i), FUTEX_WAKE,
                   (int)Long_val(n), NULL, NULL, 0);
  return Val_long(r < 0 ? 0 : r);
#else
  (void)ba;
  (void)i;
  (void)n;
  return Val_long(0);
#endif
}

