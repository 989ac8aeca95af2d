open Perfbench
open Workload

(* A synthetic tree, times in seconds:
     A [0,10]
       B [1,4]
         C [2,3]
       B [5,6]
       D [7,9]
   Self times: A = 10 - (3 + 1 + 2) = 4, B = 4 - 1 = 3, C = 1, D = 2. *)
let span_tree () =
  let s = Span.create [| "A"; "B"; "C"; "D" |] in
  let a = 0 and b = 1 and c = 2 and d = 3 in
  Span.enter s a 0.;
  Span.enter s b 1.;
  Span.enter s c 2.;
  Span.leave s 3.;
  Span.leave s 4.;
  Span.enter s b 5.;
  Span.leave s 6.;
  Span.enter s d 7.;
  Span.leave s 9.;
  Span.leave s 10.;
  let f = Alcotest.(check (float 1e-12)) in
  f "A self" 4. (Span.self s a);
  f "A total" 10. (Span.total s a);
  f "B self" 3. (Span.self s b);
  f "B total" 4. (Span.total s b);
  Alcotest.(check int) "B count" 2 (Span.count s b);
  f "C self" 1. (Span.self s c);
  f "D self" 2. (Span.self s d);
  f "self times add up to the root's duration" 10. (Span.self_sum s);
  Alcotest.(check int) "stack empty" 0 (Span.depth s)

let span_rename () =
  let s = Span.create [| "open"; "deliver" |] in
  Span.enter s 0 1.;
  Span.leave ~id:1 s 3.;
  Alcotest.(check int) "placeholder unused" 0 (Span.count s 0);
  Alcotest.(check (float 0.)) "renamed span" 2. (Span.self s 1);
  Alcotest.check_raises "leave without a span" (Failure "Span.leave: no open span") (fun () ->
      Span.leave s 4.)

let name_grammar () =
  List.iter
    (fun n -> Alcotest.(check bool) n true (Output.valid_name n))
    [ "run_s"; "engine.events.net.transmit"; "crypto.fast_mac56_ns"; "a-b"; "9lives"; String.make 64 'x' ];
  List.iter
    (fun n -> Alcotest.(check bool) (Printf.sprintf "%S" n) false (Output.valid_name n))
    [ ""; ".x"; "_x"; "-x"; "a b"; "a/b"; "naïve"; String.make 65 'x' ];
  Alcotest.check_raises "bad name refused"
    (Invalid_argument "Output.result_line: bad metric name a b") (fun () ->
      ignore (Output.result_line ~correct:true ~attempted:1 ~failed:0 [ ("a b", 1., "s") ]))

let layer_names () =
  let names = List.map (fun (n, _, _) -> n) (Tracer.layer_metrics (Tracer.create ())) in
  List.iter (fun n -> Alcotest.(check bool) n true (Output.valid_name n)) names;
  Alcotest.(check int) "unique" (List.length names) (List.length (List.sort_uniq compare names))

(* The traced wrapper must observe only: a tiny cell of every scheme under
   every attack gives the same outcome with and without it. *)
let wrapper_identity () =
  List.iter
    (fun (name, factory) ->
      List.iter
        (fun (attack_name, attack) ->
          let cell =
            Cells.dumbbell_cell ~seed:3 ~scheme_name:name ~factory ~attack ~attack_name ~attackers:4
              ~transfers:3 ~max_time:6.
          in
          let plain = cell.Cells.run Fun.id in
          let tr = Tracer.create () in
          let traced = cell.Cells.run (Tracer.wrap tr) in
          ignore (Tracer.end_cell tr ~now:(Unix.gettimeofday ()));
          if not (Cells.same plain traced) then
            Alcotest.failf "%s: traced %s <> plain %s" cell.Cells.label (Cells.pp_outcome traced)
              (Cells.pp_outcome plain);
          Alcotest.(check bool) (cell.Cells.label ^ " conserved") true (Cells.conserved cell plain);
          Alcotest.(check bool)
            (cell.Cells.label ^ " self times add up")
            true
            (Float.abs (Span.self_sum tr.Tracer.spans +. Tracer.sched_self tr -. tr.Tracer.loop_total)
            < 1e-9))
        [
          ("legacy", Experiment.Legacy_flood { rate_bps = 1e6 });
          ("request", Experiment.Request_flood { rate_bps = 1e6 });
          ("authorized", Experiment.Authorized_flood { rate_bps = 1e6 });
        ])
    Scenario.schemes

let kernel () =
  let _, words, heap_growth = Refkernel.create_checked () in
  Alcotest.(check (float 0.)) "allocates nothing" 0. words;
  Alcotest.(check bool) "buffer outside the OCaml heap" true (heap_growth < Refkernel.words / 8)

let () =
  Alcotest.run "perfbench"
    [
      ( "span",
        [
          Alcotest.test_case "self time on a nested tree" `Quick span_tree;
          Alcotest.test_case "rename on leave" `Quick span_rename;
        ] );
      ( "output",
        [
          Alcotest.test_case "metric-name grammar" `Quick name_grammar;
          Alcotest.test_case "per-layer names" `Quick layer_names;
        ] );
      ("tracer", [ Alcotest.test_case "wrapper leaves outcomes unchanged" `Quick wrapper_identity ]);
      ("kernel", [ Alcotest.test_case "reference kernel self-check" `Quick kernel ]);
    ]
