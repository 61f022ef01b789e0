type counter =
  | Learns
  | Snapshots
  | Recoveries
  | Scrubbed
  | Relearned
  | Dup_applies
  | Dup_claims
  | Dup_submits
  | Batches
  | Batched_txns
  | Pipelined_rounds
  | Pipeline_stalls
  | Twopc_prepares
  | Twopc_resolved
  | In_doubt_replies
  | Hedges

type t = int array

let slot = function
  | Learns -> 0
  | Snapshots -> 1
  | Recoveries -> 2
  | Scrubbed -> 3
  | Relearned -> 4
  | Dup_applies -> 5
  | Dup_claims -> 6
  | Dup_submits -> 7
  | Batches -> 8
  | Batched_txns -> 9
  | Pipelined_rounds -> 10
  | Pipeline_stalls -> 11
  | Twopc_prepares -> 12
  | Twopc_resolved -> 13
  | In_doubt_replies -> 14
  | Hedges -> 15

let slots = 16
let create () = Array.make slots 0
let add t c n = t.(slot c) <- t.(slot c) + n
let incr t c = add t c 1
let get t c = t.(slot c)

let sum ts =
  let total = create () in
  List.iter (Array.iteri (fun i n -> total.(i) <- total.(i) + n)) ts;
  total
