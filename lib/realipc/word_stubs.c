/* Atomic operations on the words of a Word_arena — the one piece of
   the flat rings and the fork'd backend's semaphores that plain
   Bigarray loads and stores cannot express.

   The arena is an (int, int_elt, c_layout) Bigarray.Array1, so every
   word is an intnat at data + 8*index.  Plain loads/stores go through
   the Bigarray primitives (inlined to bare movs natively); these stubs
   supply the acquire/release accesses and the read-modify-writes that
   synchronise writers (exchange, fetch-add, compare-and-swap).  All of
   them are [@@noalloc] on the OCaml side: none allocates, raises or
   blocks. */

#include <caml/mlvalues.h>
#include <caml/bigarray.h>

#define WORD_PTR(ba, i) (((intnat *)Caml_ba_data_val(ba)) + Long_val(i))

CAMLprim value ulipc_word_load(value ba, value i)
{
  return Val_long(__atomic_load_n(WORD_PTR(ba, i), __ATOMIC_ACQUIRE));
}

CAMLprim value ulipc_word_store(value ba, value i, value v)
{
  __atomic_store_n(WORD_PTR(ba, i), Long_val(v), __ATOMIC_RELEASE);
  return Val_unit;
}

CAMLprim value ulipc_word_xchg(value ba, value i, value v)
{
  return Val_long(
      __atomic_exchange_n(WORD_PTR(ba, i), Long_val(v), __ATOMIC_ACQ_REL));
}

CAMLprim value ulipc_word_fetch_add(value ba, value i, value d)
{
  return Val_long(
      __atomic_fetch_add(WORD_PTR(ba, i), Long_val(d), __ATOMIC_ACQ_REL));
}

CAMLprim value ulipc_word_cas(value ba, value i, value expected, value desired)
{
  intnat exp = Long_val(expected);
  return Val_bool(__atomic_compare_exchange_n(WORD_PTR(ba, i), &exp,
                                              Long_val(desired), 0,
                                              __ATOMIC_ACQ_REL,
                                              __ATOMIC_ACQUIRE));
}
