type protocol = Basic | Cp | Leader

type t = {
  protocol : protocol;
  rpc_timeout : float;
  max_promotions : int option;
  enable_combination : bool;
  enable_fast_path : bool;
  max_rounds : int;
  initial_leader : int;
  adaptive : bool;
  batch_max : int;
  batch_fill : float;
  pipeline_depth : int;
}

let default =
  {
    protocol = Cp;
    rpc_timeout = 2.0;
    max_promotions = None;
    enable_combination = true;
    enable_fast_path = true;
    max_rounds = 25;
    initial_leader = 0;
    adaptive = false;
    batch_max = 1;
    batch_fill = 0.005;
    pipeline_depth = 1;
  }

let basic = { default with protocol = Basic }

let with_protocol protocol t = { t with protocol }

let leader = { default with protocol = Leader }

let throughput_mode t = t.batch_max > 1 || t.pipeline_depth > 1

let submit_timeout t =
  if throughput_mode t then
    ((2.0 +. float_of_int t.pipeline_depth) *. t.rpc_timeout) +. t.batch_fill
  else 2.0 *. t.rpc_timeout

(* Knob validation at construction: each of these combinations is not a
   tuning choice but a contradiction (a batcher that can hold no
   transaction, a pipeline with no slots, a fill wait that is negative or
   not finite, a timeout cap below the adaptive floor it clamps). Catching
   them here turns undefined downstream behavior — infinite defer loops,
   empty windows, a NaN fill that silently skips the wait — into an
   immediate, descriptive error. *)
let validate t =
  let fail fmt = Printf.ksprintf invalid_arg ("Config.make: " ^^ fmt) in
  if t.batch_max < 1 then fail "batch_max = %d (must be >= 1)" t.batch_max;
  if t.pipeline_depth < 1 then
    fail "pipeline_depth = %d (must be >= 1)" t.pipeline_depth;
  if not (Float.is_finite t.batch_fill && t.batch_fill >= 0.0) then
    fail "batch_fill = %g (must be finite and >= 0)" t.batch_fill;
  if t.rpc_timeout < Rtt.floor then
    fail "rpc_timeout = %g < adaptive floor %g (the floor feeds a timeout capped at rpc_timeout)"
      t.rpc_timeout Rtt.floor;
  t

let make ?(base = default) ?rpc_timeout ?batch_max ?pipeline_depth
    ?batch_fill () =
  let field v = function Some v -> v | None -> v in
  validate
    {
      base with
      rpc_timeout = field base.rpc_timeout rpc_timeout;
      batch_max = field base.batch_max batch_max;
      pipeline_depth = field base.pipeline_depth pipeline_depth;
      batch_fill = field base.batch_fill batch_fill;
    }

let throughput ?(batch_max = 8) ?(pipeline_depth = 4) t =
  validate { t with protocol = Leader; batch_max; pipeline_depth }

let protocol_name = function
  | Basic -> "paxos"
  | Cp -> "paxos-cp"
  | Leader -> "leader"

