(* The benchmark at a tiny size. Every workload runs twice in one
   process, untraced and then traced: the oracles must be clean, the
   virtual-time metrics of the two runs must print identically, and the
   metrics emitted must be exactly those BENCHMARK.json declares, with
   the same units. *)

open Mdds_e2e
module W = Workloads

(* Just enough JSON to read BENCHMARK.json. *)
type json =
  | Obj of (string * json) list
  | Arr of json list
  | Str of string
  | Other

let parse s =
  let pos = ref 0 in
  let peek () = s.[!pos] in
  let rec skip () =
    if !pos < String.length s && String.contains " \t\r\n" (peek ()) then begin
      incr pos;
      skip ()
    end
  in
  let expect c =
    skip ();
    if peek () <> c then
      failwith (Printf.sprintf "BENCHMARK.json: '%c' expected at %d" c !pos);
    incr pos
  in
  let string () =
    expect '"';
    let b = Buffer.create 16 in
    while peek () <> '"' do
      if peek () = '\\' then incr pos;
      Buffer.add_char b (peek ());
      incr pos
    done;
    incr pos;
    Buffer.contents b
  in
  let rec value () =
    skip ();
    match peek () with
    | '{' ->
        incr pos;
        Obj (members (fun () ->
            let k = string () in
            expect ':';
            (k, value ())) '}')
    | '[' ->
        incr pos;
        Arr (members value ']')
    | '"' -> Str (string ())
    | _ ->
        while !pos < String.length s && not (String.contains ",]}" (peek ())) do
          incr pos
        done;
        Other
  and members : 'a. (unit -> 'a) -> char -> 'a list =
   fun item close ->
    skip ();
    if peek () = close then (incr pos; [])
    else
      let rec more acc =
        let acc = item () :: acc in
        skip ();
        if peek () = ',' then (incr pos; more acc)
        else (expect close; List.rev acc)
      in
      more []
  in
  value ()

let field k = function
  | Obj kv -> List.assoc k kv
  | _ -> failwith ("BENCHMARK.json: object expected around " ^ k)

let str = function Str s -> s | _ -> failwith "BENCHMARK.json: string expected"
let arr = function Arr l -> l | _ -> failwith "BENCHMARK.json: array expected"

let benchmark =
  lazy
    (parse
       (In_channel.with_open_text "../BENCHMARK.json" In_channel.input_all))

let declared key =
  List.map
    (fun m -> (str (field "name" m), str (field "unit" m)))
    (arr (field key (Lazy.force benchmark)))

let check_workload w () =
  let measure = Report.measure ~setup_rounds:0 W.tiny w ~seed:42 in
  let untraced = measure ~traced:false in
  let traced = measure ~traced:true in
  List.iter
    (fun (r : Report.result) ->
      Alcotest.(check (list string)) "oracles clean" [] r.errors)
    [ untraced; traced ];
  let virtual_ (r : Report.result) =
    List.filter_map
      (fun (name, v) ->
        if (Report.find name).cpu then None
        else Some (Printf.sprintf "%s=%.17g" name v))
      r.values
  in
  Alcotest.(check (list string))
    "virtual metrics identical" (virtual_ untraced) (virtual_ traced);
  let emitted =
    List.sort compare
      (List.map (fun (n, _) -> (n, (Report.find n).unit)) traced.values)
  in
  Alcotest.(check (list (pair string string)))
    "emitted = declared"
    (List.sort compare (declared "end_to_end" @ declared "per_layer"))
    emitted

let declarations () =
  Alcotest.(check (list string))
    "workloads"
    (List.map fst W.all)
    (List.map
       (fun w -> str (field "name" w))
       (arr (field "workloads" (Lazy.force benchmark))));
  Alcotest.(check (list string))
    "end-to-end metrics"
    (List.map (fun (d : Report.def) -> d.name) Report.end_to_end)
    (List.map fst (declared "end_to_end"))

let () =
  Alcotest.run "e2e"
    [
      ( "bench",
        Alcotest.test_case "declarations" `Quick declarations
        :: List.map
             (fun (name, w) ->
               Alcotest.test_case name `Quick (check_workload w))
             W.all );
    ]
