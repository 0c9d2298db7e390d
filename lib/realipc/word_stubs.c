/* Atomic operations on the words of a Word_arena — the one piece of
   the flat rings and the semaphores that plain Bigarray loads and
   stores cannot express — and the kernel sleep/wake on a word that the
   semaphores park on.

   The arena is an (int, int_elt, c_layout) Bigarray.Array1, so every
   word is an intnat at data + 8*index.  Plain loads/stores go through
   the Bigarray primitives (inlined to bare movs natively); these stubs
   supply the acquire/release accesses and the read-modify-writes that
   synchronise writers (fetch-add, compare-and-swap).  Those
   are [@@noalloc] on the OCaml side: none allocates, raises or
   blocks. */

#define CAML_INTERNALS /* caml_domain_alone */
#include <caml/mlvalues.h>
#include <caml/domain.h>
#include <caml/bigarray.h>
#include <caml/threads.h>
#include <limits.h>
#include <stdint.h>
#include <time.h>
#include <errno.h>
#include <pthread.h>

#ifdef __linux__
#include <linux/futex.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

#define WORD_PTR(ba, i) (((intnat *)Caml_ba_data_val(ba)) + Long_val(i))

/* The one-domain fast path of the read-modify-writes.  OCaml 5's own
   Atomic skips the lock while the process runs one domain: no other
   thread can touch the word between its load and its store, because
   systhreads only switch at OCaml safepoints and these stubs keep the
   runtime lock.  Arena words can also be shared with fork'd processes,
   which no domain count sees, so the plain path also needs the arena
   to be younger than this process's last fork.  [fork_generation]
   counts forks: a pthread_atfork prepare handler bumps it in the
   parent before each fork, and the child inherits the bumped value.
   [Word_arena.create] stamps the count at map time in the last word of
   the mapping (a line of its own, past the words it hands out), so an
   arena that a fork could have shared never matches again, in the
   parent or the child.  (Forking from one systhread while another runs
   these stubs is outside the contract, as for any fork with threads.) */
static intnat fork_generation = 0;
static pthread_once_t fork_watch = PTHREAD_ONCE_INIT;

static void note_fork(void)
{
  __atomic_fetch_add(&fork_generation, 1, __ATOMIC_RELAXED);
}

static void watch_forks(void) { pthread_atfork(note_fork, NULL, NULL); }

/* The stamp for a fresh arena; arms the handler on the first call. */
CAMLprim value ulipc_word_fork_generation(value unit)
{
  (void)unit;
  pthread_once(&fork_watch, watch_forks);
  return Val_long(__atomic_load_n(&fork_generation, __ATOMIC_RELAXED));
}

static inline int alone(value ba)
{
  intnat *stamp = (intnat *)Caml_ba_data_val(ba) +
                  Caml_ba_array_val(ba)->dim[0] - 1;
  return caml_domain_alone() &&
         *stamp == __atomic_load_n(&fork_generation, __ATOMIC_RELAXED);
}

CAMLprim value ulipc_word_load(value ba, value i)
{
  return Val_long(__atomic_load_n(WORD_PTR(ba, i), __ATOMIC_ACQUIRE));
}

CAMLprim value ulipc_word_store(value ba, value i, value v)
{
  __atomic_store_n(WORD_PTR(ba, i), Long_val(v), __ATOMIC_RELEASE);
  return Val_unit;
}

CAMLprim value ulipc_word_fetch_add(value ba, value i, value d)
{
  intnat *w = WORD_PTR(ba, i);
  intnat old;
  if (alone(ba)) {
    old = *w;
    *w = old + Long_val(d);
    return Val_long(old);
  }
  return Val_long(__atomic_fetch_add(w, Long_val(d), __ATOMIC_ACQ_REL));
}

CAMLprim value ulipc_word_cas(value ba, value i, value expected, value desired)
{
  intnat *w = WORD_PTR(ba, i);
  intnat exp = Long_val(expected);
  if (alone(ba)) {
    if (*w != exp) return Val_false;
    *w = Long_val(desired);
    return Val_true;
  }
  return Val_bool(__atomic_compare_exchange_n(w, &exp,
                                              Long_val(desired), 0,
                                              __ATOMIC_ACQ_REL,
                                              __ATOMIC_ACQUIRE));
}

/* Futex wait/wake on an arena word: sleep on an address, wake by
   address.  Futexes address 32-bit words; the syscalls target the low
   4 bytes of the intnat word, which on x86-64 (little-endian, the one
   target the real backends build for) are its low 32 bits, so
   FUTEX_WAIT's atomic re-check compares exactly the bits the OCaml
   side published.  A caller waits on a counter that only grows, and a
   counter cannot pass 2^32 values between a load and the wait.
   FUTEX_PRIVATE_FLAG is deliberately NOT used: private futexes key the
   wait queue by (mm, address) and never match across address spaces,
   and fork'd peers share these words.  Domains share them too, so the
   one call serves both backends.

   Non-Linux fallback: the wait degrades to a bounded nanosleep that
   reports a spurious wake-up (the caller re-checks its predicate, so
   this is slow but correct), the wake to a no-op. */

/* Park on word [i] while its low 32 bits still equal [expected].
   [timeout_ns] < 0 waits forever.  Returns 0 = woken (or a spurious or
   EINTR return — callers re-check), 1 = the value had already changed
   (EAGAIN: the wake raced ahead of the sleep), 2 = timed out.  The
   runtime lock is released for the whole kernel wait, so a parked
   thread never stalls a sibling thread or another domain's GC. */
CAMLprim value ulipc_word_futex_wait(value ba, value i, value expected,
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

/* Wake up to [n] threads or processes parked on word [i] (any [n]
   above INT_MAX means all of them); returns how many were actually
   woken.  One syscall that never blocks, so the runtime lock is
   kept. */
CAMLprim value ulipc_word_futex_wake(value ba, value i, value n)
{
#ifdef __linux__
  intnat k = Long_val(n);
  long r = syscall(SYS_futex, (uint32_t *)WORD_PTR(ba, i), FUTEX_WAKE,
                   (int)(k > INT_MAX ? INT_MAX : k), NULL, NULL, 0);
  return Val_long(r < 0 ? 0 : r);
#else
  (void)ba;
  (void)i;
  (void)n;
  return Val_long(0);
#endif
}
