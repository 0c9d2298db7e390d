(* One mmap(MAP_SHARED) region of intnat words, viewed through a
   Bigarray and carved up by a bump allocator: the storage of every flat
   ring, channel semaphore and slab free list, on both real
   backends.

   This is the real-path realisation of the layout the sim-only
   [Ulipc_shm.Arena] models (offset-addressed allocations carved out of
   one flat region): processes cannot share OCaml heap pointers, but
   they can share WORD OFFSETS into a common mapping, so every structure
   carved here is "a base offset plus a layout" exactly as the sim
   arena's [allocation] records are.  Domains share the mapping like any
   other memory, so the same words serve the domains backend unchanged.

   The backing file is created in /dev/shm when available (tmpfs: pages
   never touch a disk) and unlinked immediately after the map — the
   mapping keeps the pages alive, nothing ever appears in a directory
   listing, and the memory is reclaimed when the last process unmaps.
   A fork'd session maps BEFORE forking, so children inherit the
   MAP_SHARED pages at the same address and the Bigarray proxy each
   child's heap copy carries points into common physical memory.

   Allocation is a bump pointer with power-of-two alignment — sessions
   carve the arena up front and never free, so the sim arena's first-fit
   free list would be dead weight here.  The allocator is single-owner
   (pre-fork, pre-spawn); the shared words themselves are the concurrent
   part. *)

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

let map ~size_words =
  let dir =
    if Sys.file_exists "/dev/shm" && Sys.is_directory "/dev/shm" then
      "/dev/shm"
    else Filename.get_temp_dir_name ()
  in
  let path = Filename.temp_file ~temp_dir:dir "ulipc_arena_" ".mem" in
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0o600 in
  Unix.unlink path;
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Bigarray.array1_of_genarray
        (Unix.map_file fd Bigarray.int Bigarray.c_layout true [| size_words |]))

(* This process's fork count, stamped into each arena so the atomics
   can tell whether a fork may have shared it (see word_stubs.c). *)
external fork_generation : unit -> int = "ulipc_word_fork_generation"
[@@noalloc]

let create ~size_words () =
  if size_words <= 0 then
    invalid_arg "Word_arena.create: size_words must be positive";
  Ring_layout.require_tso ~who:"Word_arena.create";
  (* The stamp takes the last word of one extra line past the rounded-up
     size, so it shares no line with a carved word. *)
  let line = cache_line_words in
  let mapped = ((size_words + line - 1) land lnot (line - 1)) + line in
  let words =
    try map ~size_words:mapped with
    | Unix.Unix_error (e, fn, _) ->
      failwith
        (Printf.sprintf "Word_arena.create: cannot map %d words (%s: %s)"
           size_words fn (Unix.error_message e))
    | Sys_error msg ->
      failwith
        (Printf.sprintf "Word_arena.create: cannot map %d words (%s)"
           size_words msg)
  in
  (* map_file zero-fills fresh pages; the explicit fill also faults every
     page in up front, so no peer pays first-touch faults inside a
     measured interval. *)
  Bigarray.Array1.fill words 0;
  Bigarray.Array1.set words (mapped - 1) (fork_generation ());
  { words; size_words; next = 0 }

let outlived_fork t =
  let w = t.words in
  Bigarray.Array1.get w (Bigarray.Array1.dim w - 1) <> fork_generation ()

let words t = t.words
let size_words t = t.size_words
let used_words t = t.next

let alloc t ~words ~align =
  if words < 0 then invalid_arg "Word_arena.alloc: negative size";
  if align <= 0 || align land (align - 1) <> 0 then
    invalid_arg "Word_arena.alloc: align must be a positive power of two";
  let off = (t.next + align - 1) land lnot (align - 1) in
  if off + words > t.size_words then
    invalid_arg
      (Printf.sprintf "Word_arena.alloc: arena exhausted (%d + %d > %d words)"
         off words t.size_words);
  t.next <- off + words;
  off

let alloc_line t ~words = alloc t ~words ~align:cache_line_words

(* Plain word access: ordinary Bigarray loads/stores, which the native
   compiler inlines to single movs — the fenceless single-writer
   publishes of Ring_layout's TSO argument. *)
let get t i = Bigarray.Array1.get t.words i
let set t i v = Bigarray.Array1.set t.words i v

external get_word : words -> int -> int = "%caml_ba_ref_1"
external set_word : words -> int -> int -> unit = "%caml_ba_set_1"

external load : words -> int -> int = "ulipc_word_load" [@@noalloc]
external store : words -> int -> int -> unit = "ulipc_word_store" [@@noalloc]

external fetch_add : words -> int -> int -> int = "ulipc_word_fetch_add"
[@@noalloc]

external futex_wait_ : words -> int -> int -> int -> int
  = "ulipc_word_futex_wait"

external futex_wake_ : words -> int -> int -> int = "ulipc_word_futex_wake"
[@@noalloc]

external cas : words -> int -> int -> int -> bool = "ulipc_word_cas"
[@@noalloc]

let at_load t i = load t.words i
let at_store t i v = store t.words i v
let at_fetch_add t i d = fetch_add t.words i d
let at_cas t i ~expected ~desired = cas t.words i expected desired

(* Kernel sleep/wake on a word (see word_stubs.c for the 32-bit futex
   word and why the futex is not process-private). *)
type wait_result = Woken | Value_changed | Timed_out

let futex_wait t i ~expected ~timeout_ns =
  match futex_wait_ t.words i expected timeout_ns with
  | 1 -> Value_changed
  | 2 -> Timed_out
  | _ -> Woken

let futex_wake t i ~count = futex_wake_ t.words i count
