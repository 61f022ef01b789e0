type summary = {
  count : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  p50 : float;
  p95 : float;
  p99 : float;
}

let empty =
  { count = 0; mean = 0.; stddev = 0.; min = 0.; max = 0.; p50 = 0.; p95 = 0.; p99 = 0. }

let mean = function
  | [] -> 0.
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let stddev = function
  | [] | [ _ ] -> 0.
  | xs ->
      let m = mean xs in
      let var =
        List.fold_left (fun acc x -> acc +. ((x -. m) ** 2.)) 0. xs
        /. float_of_int (List.length xs - 1)
      in
      sqrt var

let percentile xs p =
  match List.sort Float.compare xs with
  | [] -> 0.
  | sorted ->
      let n = List.length sorted in
      let rank =
        int_of_float (ceil (p /. 100. *. float_of_int n)) |> max 1 |> min n
      in
      List.nth sorted (rank - 1)

let summarize xs =
  match xs with
  | [] -> empty
  | _ ->
      {
        count = List.length xs;
        mean = mean xs;
        stddev = stddev xs;
        min = List.fold_left Float.min infinity xs;
        max = List.fold_left Float.max neg_infinity xs;
        p50 = percentile xs 50.;
        p95 = percentile xs 95.;
        p99 = percentile xs 99.;
      }

let pp_ms ppf s = Format.fprintf ppf "%.1fms" (s *. 1000.)
