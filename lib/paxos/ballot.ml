type t = { round : int; proposer : int }

let bottom = { round = -1; proposer = -1 }

let fast ~proposer = { round = 0; proposer }

let make ~round ~proposer =
  if round < 1 then invalid_arg "Ballot.make: round must be >= 1";
  { round; proposer }

let compare a b =
  match Int.compare a.round b.round with
  | 0 -> Int.compare a.proposer b.proposer
  | c -> c

let equal a b = compare a b = 0
let ( < ) a b = compare a b < 0
let ( >= ) a b = compare a b >= 0

let next ~after ~proposer =
  let round = Stdlib.max 1 (after.round + 1) in
  let candidate = { round; proposer } in
  if compare candidate after > 0 then candidate
  else { round = after.round + 1; proposer }

let is_bottom t = equal t bottom
let is_fast t = t.round = 0

let pp ppf t = Format.fprintf ppf "%d.%d" t.round t.proposer
let to_string t = string_of_int t.round ^ "." ^ string_of_int t.proposer

let of_string s =
  match String.index_opt s '.' with
  | None -> invalid_arg "Ballot.of_string"
  | Some i -> (
      match
        ( int_of_string_opt (String.sub s 0 i),
          int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1)) )
      with
      | Some round, Some proposer -> { round; proposer }
      | _ -> invalid_arg "Ballot.of_string")

let codec =
  Mdds_codec.Codec.map
    (fun (round, proposer) -> { round; proposer })
    (fun { round; proposer } -> (round, proposer))
    Mdds_codec.Codec.(pair int int)
