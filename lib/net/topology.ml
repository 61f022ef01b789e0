type link = { delay : float; jitter : float; loss : float }

type t = { names : string array; links : link array array }

let make ~names ~link =
  let n = Array.length names in
  if n = 0 then invalid_arg "Topology.make: empty";
  { names; links = Array.init n (fun i -> Array.init n (fun j -> link i j)) }

let size t = Array.length t.names
let name t i = t.names.(i)
let link t i j = t.links.(i).(j)

let region t i = t.names.(i).[0]

(* Round-trip times from the paper (§6), in seconds. *)
let rtt_between a b =
  match (a, b) with
  | 'V', 'V' -> 0.0015
  | 'O', 'C' | 'C', 'O' -> 0.020
  | ('V', 'O' | 'O', 'V' | 'V', 'C' | 'C', 'V') -> 0.090
  | 'O', 'O' | 'C', 'C' -> 0.0015 (* same-region zones, V-V-like *)
  | _ -> invalid_arg "Topology: unknown region pair"

let loopback_rtt = 0.0003

(* A loss outside [0,1] or a negative jitter has no meaning (and a NaN
   would silently poison every delay or drop draw). *)
let check_link ~fn ~loss ~jitter =
  if not (loss >= 0.0 && loss <= 1.0) then
    invalid_arg (Printf.sprintf "Topology.%s: loss = %g (must be in [0,1])" fn loss);
  if not (Float.is_finite jitter && jitter >= 0.0) then
    invalid_arg
      (Printf.sprintf "Topology.%s: jitter = %g (must be finite and >= 0)" fn jitter)

let ec2 ?(loss = 0.002) ?(jitter = 0.1) spec =
  check_link ~fn:"ec2" ~loss ~jitter;
  if String.length spec = 0 then invalid_arg "Topology.ec2: empty spec";
  String.iter
    (fun c ->
      match c with
      | 'V' | 'O' | 'C' -> ()
      | _ -> invalid_arg "Topology.ec2: regions are V, O, C")
    spec;
  let n = String.length spec in
  let counts = Hashtbl.create 4 in
  let names =
    Array.init n (fun i ->
        let c = spec.[i] in
        let k = (try Hashtbl.find counts c with Not_found -> 0) + 1 in
        Hashtbl.replace counts c k;
        Printf.sprintf "%c%d" c k)
  in
  let link i j =
    if i = j then { delay = loopback_rtt /. 2.0; jitter = 0.05; loss = 0.0 }
    else { delay = rtt_between spec.[i] spec.[j] /. 2.0; jitter; loss }
  in
  make ~names ~link

let uniform ~n ~rtt ?(loss = 0.0) ?(jitter = 0.0) () =
  check_link ~fn:"uniform" ~loss ~jitter;
  let names = Array.init n (fun i -> Printf.sprintf "dc%d" i) in
  let link i j =
    if i = j then { delay = loopback_rtt /. 2.0; jitter; loss = 0.0 }
    else { delay = rtt /. 2.0; jitter; loss }
  in
  make ~names ~link

let rtt t i j = (link t i j).delay +. (link t j i).delay
