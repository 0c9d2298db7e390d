/* The memory-model guard of the flat rings.

   Spsc_ring and Mpsc_ring, on both real backends, publish their
   indices and sequence words with plain stores and read them with plain
   loads.  That is a correct release/acquire pair only under x86-TSO,
   which orders store->store and load->store; a weakly ordered target
   (aarch64, POWER, RISC-V) would let a consumer see an index before the
   slot it publishes.  The check is made at compile time, where the
   target is known, and reported at run time by the session
   constructors, so a build for another architecture fails at start-up
   with a clear message instead of corrupting messages under load. */

#include <stdio.h>
#include <caml/mlvalues.h>
#include <caml/fail.h>

CAMLprim value ulipc_require_tso(value who)
{
#if defined(__x86_64__) || defined(_M_X64)
  (void)who;
  return Val_unit;
#else
  char msg[512];
  snprintf(msg, sizeof msg,
           "%s: this build does not target x86-64.  The lock-free rings "
           "publish with plain stores, which are release stores only under "
           "x86-TSO; on a weakly ordered CPU a consumer could read a slot "
           "before its contents.  Run on x86-64.",
           String_val(who));
  caml_failwith(msg);
#endif
}
