(* The real shared-memory arena: one mmap(MAP_SHARED) region of intnat
   words, viewed through a Bigarray, holding every ring, semaphore word
   and payload slot of a cross-process session.

   This is the real-path realisation of the layout the sim-only
   [Ulipc_shm.Arena] models (offset-addressed allocations carved out of
   one flat region): processes cannot share OCaml heap pointers, but
   they can share WORD OFFSETS into a common mapping, so every
   cross-process structure in lib/procipc is "a base offset plus a
   layout" exactly as the sim arena's [allocation] records are.

   The backing file is created in /dev/shm when available (tmpfs: pages
   never touch a disk) and unlinked immediately after the map — the
   mapping keeps the pages alive, nothing ever appears in a directory
   listing, and the memory is reclaimed when the last process unmaps.
   The driver forks AFTER mapping, so children inherit the MAP_SHARED
   pages at the same address and the Bigarray proxy each child's heap
   copy carries points into common physical memory.

   Allocation is a bump pointer with power-of-two alignment — sessions
   carve the arena up front and never free, so the sim arena's first-fit
   free list would be dead weight here.  The allocator is parent-only
   (pre-fork); the shared words themselves are the concurrent part. *)

type words =
  (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = {
  words : words;
  size_words : int;
  mutable next : int; (* bump pointer, in words *)
}

(* Cache-line pitch in words: allocations that pad to this never false-
   share with a neighbour. *)
let cache_line_words = 8

let create ~size_words () =
  if size_words <= 0 then
    invalid_arg "Parena.create: size_words must be positive";
  Ulipc_real.Ring_layout.require_tso ~who:"Parena.create";
  let dir =
    if Sys.file_exists "/dev/shm" && Sys.is_directory "/dev/shm" then
      "/dev/shm"
    else Filename.get_temp_dir_name ()
  in
  let path = Filename.temp_file ~temp_dir:dir "ulipc_arena_" ".mem" in
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0o600 in
  Unix.unlink path;
  let ga =
    Unix.map_file fd Bigarray.int Bigarray.c_layout true [| size_words |]
  in
  Unix.close fd;
  let words = Bigarray.array1_of_genarray ga in
  (* map_file zero-fills fresh pages; the explicit fill also faults every
     page in pre-fork, so neither child pays first-touch faults inside
     the measured interval. *)
  Bigarray.Array1.fill words 0;
  { words; size_words; next = 0 }

let words t = t.words
let size_words t = t.size_words
let used_words t = t.next

let alloc t ~words ~align =
  if words < 0 then invalid_arg "Parena.alloc: negative size";
  if align <= 0 || align land (align - 1) <> 0 then
    invalid_arg "Parena.alloc: align must be a positive power of two";
  let off = (t.next + align - 1) land lnot (align - 1) in
  if off + words > t.size_words then
    invalid_arg
      (Printf.sprintf "Parena.alloc: arena exhausted (%d + %d > %d words)"
         off words t.size_words);
  t.next <- off + words;
  off

let alloc_line t ~words = alloc t ~words ~align:cache_line_words

(* Plain word access: ordinary Bigarray loads/stores, which the native
   compiler inlines to single movs.  These are the fenceless
   single-writer accesses of the ring layouts — see the TSO publication
   argument in pring.ml. *)
let get t i = Bigarray.Array1.get t.words i
let set t i v = Bigarray.Array1.set t.words i v

(* Atomic word operations (C stubs, __atomic builtins on the mapped
   words).  [@@noalloc]: none of these allocates, raises or blocks. *)

external at_load_ : words -> int -> int = "ulipc_shm_at_load" [@@noalloc]
external at_store_ : words -> int -> int -> unit = "ulipc_shm_at_store"
[@@noalloc]

external at_xchg_ : words -> int -> int -> int = "ulipc_shm_at_xchg"
[@@noalloc]

external at_fetch_add_ : words -> int -> int -> int = "ulipc_shm_at_fetch_add"
[@@noalloc]

external at_cas_ : words -> int -> int -> int -> bool = "ulipc_shm_at_cas"
[@@noalloc]

let at_load t i = at_load_ t.words i
let at_store t i v = at_store_ t.words i v
let at_xchg t i v = at_xchg_ t.words i v
let at_fetch_add t i d = at_fetch_add_ t.words i d
let at_cas t i ~expected ~desired = at_cas_ t.words i expected desired

(* Kernel sleep/wake on an arena word (see shm_stubs.c for the 32-bit
   futex-word discipline and the shared-futex rationale). *)

external futex_wait_ : words -> int -> int -> int -> int
  = "ulipc_shm_futex_wait"

external futex_wake_ : words -> int -> int -> int = "ulipc_shm_futex_wake"
[@@noalloc]

type wait_result = Woken | Value_changed | Timed_out

let futex_wait t i ~expected ~timeout_ns =
  match futex_wait_ t.words i expected timeout_ns with
  | 1 -> Value_changed
  | 2 -> Timed_out
  | _ -> Woken

let futex_wake t i ~count = futex_wake_ t.words i count

let sched_yield = Ulipc_real.Backoff.sched_yield
