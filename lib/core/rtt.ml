(* Per-destination EWMA round-trip estimator backing the adaptive
   timeouts and nearest-first fallback order of Config.adaptive. Pure
   arithmetic — no RNG, no clock — so creating one never perturbs a
   deterministic run. *)

type t = {
  floor : float;
  cap : float;
  ewma : float array; (* per destination; nan = no sample yet *)
}

(* Guards against an over-confident estimator starving a genuinely slow
   reply: no adaptive timeout is shorter than 50 ms. *)
let floor = 0.05

let alpha = 0.125 (* TCP's 1/8: smooth but responsive *)

(* A timeout of a few believed RTTs: long enough for ordinary jitter,
   short enough that a silent datacenter is given up on quickly. *)
let multiplier = 3.0

let create ~floor ~cap ~dcs =
  if floor <= 0.0 || cap < floor then
    invalid_arg "Rtt.create: need 0 < floor <= cap";
  { floor; cap; ewma = Array.make dcs Float.nan }

let observe t ~dst sample =
  if sample >= 0.0 && dst >= 0 && dst < Array.length t.ewma then
    let old = t.ewma.(dst) in
    t.ewma.(dst) <-
      (if Float.is_nan old then sample
       else ((1.0 -. alpha) *. old) +. (alpha *. sample))

let estimate t ~dst =
  if dst < 0 || dst >= Array.length t.ewma then None
  else
    let e = t.ewma.(dst) in
    if Float.is_nan e then None else Some e

let clamp t x = Float.min t.cap (Float.max t.floor x)

(* An unsampled destination gets the full cap: adaptivity only ever
   tightens a timeout after evidence, never guesses short. *)
let timeout t ~dst =
  match estimate t ~dst with
  | None -> t.cap
  | Some e -> clamp t (multiplier *. e)

let broadcast_timeout t ~dsts =
  List.fold_left (fun acc dst -> Float.max acc (timeout t ~dst)) t.floor dsts
