let sorted a =
  let s = Array.copy a in
  Array.sort Float.compare s;
  s

let median a =
  let n = Array.length a in
  if n = 0 then nan
  else
    let s = sorted a in
    if n land 1 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.0

(* Python's statistics.quantiles, method="exclusive": position i*(n+1)/4
   with the index clamped to 1..n-1 and linear interpolation in exact
   integer arithmetic. *)
let quartiles a =
  let n = Array.length a in
  if n < 2 then invalid_arg "Stats.quartiles: need at least two values";
  let s = sorted a in
  let m = n + 1 in
  let q i =
    let j = max 1 (min (n - 1) (i * m / 4)) in
    let delta = (i * m) - (j * 4) in
    ((s.(j - 1) *. float_of_int (4 - delta)) +. (s.(j) *. float_of_int delta))
    /. 4.0
  in
  (q 1, q 2, q 3)

let rel_iqr a =
  if Array.length a < 2 then 0.0
  else
    let q1, _, q3 = quartiles a in
    (q3 -. q1) /. Float.abs (median a)

let percentile_sorted s p =
  let n = Array.length s in
  if n = 0 then nan
  else
    let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
    s.(max 0 (min (n - 1) (rank - 1)))

module Lat = struct
  let sub_bits = 9
  let sub = 1 lsl sub_bits
  let linear = 2 * sub (* values below this are their own bucket *)
  let max_exp = 40 (* 2^40 ns, about 18 minutes: everything above clamps *)
  let nbuckets = linear + ((max_exp - sub_bits - 1) * sub)

  type t = { counts : int array; mutable n : int }

  let create () = { counts = Array.make nbuckets 0; n = 0 }

  let index v =
    if v < linear then max 0 v
    else begin
      let e = ref (sub_bits + 1) in
      while v lsr (!e + 1) <> 0 do
        incr e
      done;
      if !e >= max_exp then nbuckets - 1
      else
        linear
        + ((!e - sub_bits - 1) * sub)
        + ((v lsr (!e - sub_bits)) land (sub - 1))
    end

  let midpoint i =
    if i < linear then float_of_int i
    else
      let k = i - linear in
      let e = sub_bits + 1 + (k / sub) in
      let width = 1 lsl (e - sub_bits) in
      float_of_int (((sub + (k mod sub)) * width) + (width / 2))

  let record t v =
    let i = index v in
    t.counts.(i) <- t.counts.(i) + 1;
    t.n <- t.n + 1

  let count t = t.n

  let percentile_ns t p =
    if t.n = 0 then nan
    else begin
      let rank =
        max 1 (int_of_float (Float.ceil (p /. 100.0 *. float_of_int t.n)))
      in
      let i = ref 0 and seen = ref t.counts.(0) in
      while !seen < rank do
        incr i;
        seen := !seen + t.counts.(!i)
      done;
      midpoint !i
    end

  let merge_into ~dst t =
    Array.iteri (fun i c -> dst.counts.(i) <- dst.counts.(i) + c) t.counts;
    dst.n <- dst.n + t.n
end
