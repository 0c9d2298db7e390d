/* Scheduling stubs for both real backends: sched_yield for the Grace
   spin and the back-off ladder's yield rung, and an allocation-free
   nanosleep for its park rung.

   Linux pads every nanosleep of a non-realtime task by the task's
   timer slack (50 us by default), which puts a ~70 us floor under the
   1-50 us ladder parks and hence under every spin-protocol round-trip
   on an oversubscribed host.  PR_SET_TIMERSLACK is per-thread, costs
   nothing to set, and only trades batched timer interrupts for wakeup
   precision on this one thread — exactly the trade an IPC waiter
   wants.  The park sets it to 1 ns on a thread's first park (a C
   thread-local remembers that it did; a fork'd child inherits both
   the slack and the flag).  On other systems this is a no-op. */

#include <caml/mlvalues.h>
#include <caml/threads.h>
#include <time.h>
#include <sched.h>

#ifdef __linux__
#include <sys/prctl.h>
static __thread int slack_set = 0;
#endif

/* Allocation-free bounded park: a tagged-int duration straight into
   nanosleep, releasing the runtime lock so a parked domain never
   stalls another domain's stop-the-world GC.  The Unix.sleepf
   alternative boxes its float argument on every call — minor-heap
   traffic on exactly the paths that must stay allocation-free. */
CAMLprim value ulipc_nanosleep_ns(value ns)
{
  struct timespec req;
  intnat d = Long_val(ns);
  if (d > 0) {
#ifdef __linux__
    if (!slack_set) {
      prctl(PR_SET_TIMERSLACK, 1UL);
      slack_set = 1;
    }
#endif
    req.tv_sec = d / 1000000000;
    req.tv_nsec = d % 1000000000;
    caml_release_runtime_system();
    /* A signal can cut the park short; that only means an earlier
       retry of the caller's wait loop, so no EINTR resume here. */
    nanosleep(&req, NULL);
    caml_acquire_runtime_system();
  }
  return Val_unit;
}

/* sched_yield with the runtime lock released: lets a runnable thread or
   process that shares this CPU run now instead of at the next
   preemption (on a uniprocessor, the cheapest cross-process busy-wait),
   and lets the other systhreads of this domain take the runtime lock. */
CAMLprim value ulipc_sched_yield(value unit)
{
  (void)unit;
  caml_release_runtime_system();
  sched_yield();
  caml_acquire_runtime_system();
  return Val_unit;
}
