(* The splitmix64 state lives unboxed in an 8-byte buffer: a boxed
   [mutable int64] field would allocate a fresh box on every draw, while
   [Bytes.get/set_int64_le] compile to plain loads and stores. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_le t 0 s;
  t

let create seed = of_state (Int64.of_int seed)
let copy = Bytes.copy

(* splitmix64 finalizer: Steele, Lea & Flood, "Fast splittable PRNGs". *)
let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline] int64 t =
  let s = Int64.add (Bytes.get_int64_le t 0) golden_gamma in
  Bytes.set_int64_le t 0 s;
  mix s

let split t = of_state (int64 t)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection-free modulo is fine for our bounds (<< 2^62). *)
  let v = Int64.to_int (Int64.shift_right_logical (int64 t) 2) in
  v mod bound

let[@inline] float t bound =
  (* 53 random bits into [0, 1). *)
  let bits = Int64.to_float (Int64.shift_right_logical (int64 t) 11) in
  bits /. 9007199254740992.0 *. bound

let[@inline] uniform t lo hi = lo +. float t (hi -. lo)

let bool t p = float t 1.0 < p

let exponential t mean =
  let u = float t 1.0 in
  -. mean *. log (1.0 -. u)

let pick t a =
  if Array.length a = 0 then invalid_arg "Rng.pick: empty array";
  a.(int t (Array.length a))

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
