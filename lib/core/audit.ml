module Txn = Mdds_types.Txn

type abort_reason = Conflict | Lost_position | Promotion_limit | Unavailable

type outcome =
  | Committed of { position : int; promotions : int; combined : bool }
  | Aborted of { reason : abort_reason; promotions : int }
  | Read_only_committed
  | Unknown

type protocol_stats = {
  prepare_rounds : int;
  accept_rounds : int;
  fast_path : bool;
  instances : int;
}

let no_stats = { prepare_rounds = 0; accept_rounds = 0; fast_path = false; instances = 0 }

type event = {
  group : string;
  record : Txn.record;
  observed : (Txn.key * string option) list;
  outcome : outcome;
  began_at : float;
  committed_at : float;
  commit_started_at : float;
  client_dc : int;
  stats : protocol_stats;
}

type t = { mutable events : event list (* newest first *) }

let create () = { events = [] }

let record t e = t.events <- e :: t.events

let events t = List.rev t.events
let newest_first t = t.events

type summary = {
  total : int;
  commits : int;
  aborts : int;
  unknowns : int;
  aborts_by_reason : (abort_reason * int) list;
  max_promotions : int;
  commits_by_round : int array;
  commit_lats : float list;
  lats_by_round : float list array;
  txn_lats : float list;
  last_commit : float;
  mean_rounds : float;
  fast_path_rate : float;
}

let promotions e =
  match e.outcome with
  | Committed { promotions; _ } | Aborted { promotions; _ } -> promotions
  | Read_only_committed | Unknown -> 0

let summarize events =
  let max_promotions = List.fold_left (fun m e -> max m (promotions e)) 0 events in
  let commits_by_round = Array.make (max_promotions + 1) 0 in
  let lats_by_round = Array.make (max_promotions + 1) [] in
  let commits = ref 0 and unknowns = ref 0 and reasons = ref [] in
  let commit_lats = ref [] and txn_lats = ref [] and last_commit = ref 0.0 in
  let rounds = ref 0 and fast_paths = ref 0 in
  (* Walk newest-first so that consing leaves every list in completion
     order: float sums depend on order, and the printed tables on them. *)
  List.iter
    (fun e ->
      txn_lats := (e.committed_at -. e.began_at) :: !txn_lats;
      match e.outcome with
      | Committed { promotions; _ } ->
          incr commits;
          last_commit := Float.max !last_commit e.committed_at;
          commits_by_round.(promotions) <- commits_by_round.(promotions) + 1;
          let lat = e.committed_at -. e.commit_started_at in
          commit_lats := lat :: !commit_lats;
          lats_by_round.(promotions) <- lat :: lats_by_round.(promotions);
          rounds := !rounds + e.stats.prepare_rounds + e.stats.accept_rounds;
          if e.stats.fast_path then incr fast_paths
      | Read_only_committed ->
          incr commits;
          last_commit := Float.max !last_commit e.committed_at
      | Aborted { reason; _ } -> reasons := reason :: !reasons
      | Unknown -> incr unknowns)
    (List.rev events);
  let per_commit n =
    match List.length !commit_lats with
    | 0 -> 0.0
    | committed -> float_of_int n /. float_of_int committed
  in
  {
    total = List.length events;
    commits = !commits;
    aborts = List.length !reasons;
    unknowns = !unknowns;
    aborts_by_reason =
      List.map
        (fun r -> (r, List.length (List.filter (( = ) r) !reasons)))
        [ Conflict; Lost_position; Promotion_limit; Unavailable ];
    max_promotions;
    commits_by_round;
    commit_lats = !commit_lats;
    lats_by_round;
    txn_lats = !txn_lats;
    last_commit = !last_commit;
    mean_rounds = per_commit !rounds;
    fast_path_rate = per_commit !fast_paths;
  }

let pp_reason ppf r =
  Format.pp_print_string ppf
    (match r with
    | Conflict -> "conflict"
    | Lost_position -> "lost-position"
    | Promotion_limit -> "promotion-limit"
    | Unavailable -> "unavailable")
