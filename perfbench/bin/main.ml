(* The simulator benchmark.  One invocation runs one workload's cells over
   and over in this process for about [--seconds], checks every cell's
   outcome, and prints the metrics as the last line of standard output:
   the end-to-end metrics with [--trace 0], the per-layer ones with
   [--trace 1].  See perfbench/README.md. *)

open Perfbench
open Workload

let workload = ref ""
let seed = ref Cells.default_seed
let seconds = ref 30.
let trace = ref 0
let pin = ref false

let spec =
  [
    ("--workload", Arg.Set_string workload, "NAME  legacy-grid | capability-flood | scale-fanin");
    ("--seed", Arg.Set_int seed, "N  workload seed (default 1, whose outcomes are pinned)");
    ("--seconds", Arg.Set_float seconds, "S  measuring time (default 30)");
    ("--trace", Arg.Set_int trace, "0|1  end-to-end metrics (0) or the traced per-layer run (1)");
    ("--pin", Arg.Set pin, "  print the workload's outcomes for perfbench/src/pinned.ml and exit");
  ]

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s); exit 2) fmt

(* The reference kernel's CPU time on a quiet phase of the machine the
   benchmark was written on (2-core Xeon VM); normalised times read as
   seconds on that machine. *)
let t_nom = 0.040

let cpu_s = Refkernel.cpu_s

(* One untraced cell run.  Set-up runs from the factory call to the first
   fired event; a probe that detaches itself on that event marks the
   boundary, so the rest of the run carries no probe at all. *)
type sample = {
  setup_wall : float;
  sim_cpu : float;
  sim_wall : float;
  alloc_words : float;
  outcome : Cells.outcome;
}

let measure (cell : Cells.cell) =
  let setup_start = ref nan in
  let first = ref None in
  let wrap (factory : Scheme.factory) : Scheme.factory =
   fun sim ->
    setup_start := Unix.gettimeofday ();
    let s = factory sim in
    Sim.set_probe sim
      (Some
         {
           Sim.pr_clock =
             (fun () ->
               if !first = None then begin
                 first := Some (Unix.gettimeofday (), cpu_s (), Gc.minor_words ());
                 Sim.set_probe sim None
               end;
               0.);
           pr_hit = (fun ~kind:_ ~dt:_ -> ());
         });
    s
  in
  let outcome = cell.Cells.run wrap in
  let wall = Unix.gettimeofday () and cpu = cpu_s () and words = Gc.minor_words () in
  match !first with
  | None -> failwith "no simulator event fired"
  | Some (wall0, cpu0, words0) ->
      {
        setup_wall = wall0 -. !setup_start;
        sim_cpu = cpu -. cpu0;
        sim_wall = wall -. wall0;
        alloc_words = words -. words0;
        outcome;
      }

(* A cell's outcome check.  On the default seed every outcome must equal
   the pinned one bit for bit; on any seed it must conserve transfers and
   repeat exactly on every pass of this process. *)
let check ~workload ~seed ~first (cell : Cells.cell) (o : Cells.outcome) =
  let pinned_ok =
    seed <> Cells.default_seed
    || match Pinned.find ~workload ~label:cell.Cells.label with
       | Some p -> Cells.same p o
       | None -> false
  in
  let repeat_ok = match first with None -> true | Some f -> Cells.same f o in
  if not pinned_ok then Error "differs from the pinned outcome"
  else if not repeat_ok then Error "differs from this process's first pass"
  else if not (Cells.conserved cell o) then Error "transfers not conserved"
  else Ok ()

(* Call [pass 0], [pass 1], ... until the next pass would overrun
   [--seconds] (judged by the last pass's length), and at least twice, so
   that every seed gets a repeat check.  Returns the number of passes. *)
let repeat pass =
  let start = Unix.gettimeofday () in
  let rec go n last =
    if n < 2 || Unix.gettimeofday () -. start +. last <= !seconds then begin
      let p0 = Unix.gettimeofday () in
      pass n;
      go (n + 1) (Unix.gettimeofday () -. p0)
    end
    else n
  in
  go 0 0.

type tally = { mutable attempted : int; mutable failed : int }

let run_cell tally ~workload ~first (cell : Cells.cell) f =
  tally.attempted <- tally.attempted + 1;
  match f cell with
  | exception e ->
      tally.failed <- tally.failed + 1;
      Printf.printf "FAIL %s: raised %s\n%!" cell.Cells.label (Printexc.to_string e);
      None
  | (o, x) -> (
      match check ~workload ~seed:!seed ~first cell o with
      | Ok () -> Some (o, x)
      | Error why ->
          tally.failed <- tally.failed + 1;
          Printf.printf "FAIL %s: %s\n  got %s\n%!" cell.Cells.label why (Cells.pp_outcome o);
          None)

let finish tally metrics =
  let correct = tally.failed = 0 && tally.attempted > 0 in
  print_endline (Output.result_line ~correct ~attempted:tally.attempted ~failed:tally.failed metrics);
  exit (if correct then 0 else 1)

(* --- end-to-end run --------------------------------------------------- *)

let end_to_end (w : Cells.workload) cells kernel =
  let n = Array.length cells in
  let norm_run = Array.make n [] and norm_setup = Array.make n [] in
  let raw_run = Array.make n [] and raw_setup = Array.make n [] in
  let firsts = Array.make n None and alloc = Array.make n nan in
  let tally = { attempted = 0; failed = 0 } in
  let refs = ref [] in
  let peak_heap_words = ref 0 in
  let pass_e2e pass =
    let t_prev = ref (Refkernel.time kernel) in
    Array.iteri
      (fun i cell ->
        (* Each cell starts from a compacted heap, so its GC work does not
           depend on what the cell before it left behind. *)
        Gc.compact ();
        let r =
          run_cell tally ~workload:w.Cells.name ~first:firsts.(i) cell (fun c ->
              let s = measure c in
              (s.outcome, s))
        in
        let t_next = Refkernel.time kernel in
        let t_ref = (!t_prev +. t_next) /. 2. in
        t_prev := t_next;
        refs := t_ref :: !refs;
        match r with
        | None -> ()
        | Some (o, s) ->
            if firsts.(i) = None then firsts.(i) <- Some o;
            let k = t_nom /. t_ref in
            norm_run.(i) <- (s.sim_cpu *. k) :: norm_run.(i);
            norm_setup.(i) <- (s.setup_wall *. k) :: norm_setup.(i);
            raw_run.(i) <- s.sim_cpu :: raw_run.(i);
            raw_setup.(i) <- s.setup_wall :: raw_setup.(i);
            if Float.is_nan alloc.(i) then alloc.(i) <- s.alloc_words
            else if alloc.(i) <> s.alloc_words then
              Printf.printf "note: %s allocated %.0f words, %.0f on the first pass\n"
                cell.Cells.label s.alloc_words alloc.(i))
      cells;
    if pass = 0 then peak_heap_words := (Gc.quick_stat ()).Gc.top_heap_words
  in
  let passes = repeat pass_e2e in
  let sum_medians a = Array.fold_left (fun acc xs -> acc +. Output.median xs) 0. a in
  Printf.printf "%-28s %10s %10s %10s %10s %12s\n" "cell" "cpu_s" "norm_s" "setup_s" "norm_setup" "alloc_words";
  Array.iteri
    (fun i (c : Cells.cell) ->
      Printf.printf "%-28s %10.4f %10.4f %10.6f %10.6f %12.0f\n" c.Cells.label
        (Output.median raw_run.(i)) (Output.median norm_run.(i)) (Output.median raw_setup.(i))
        (Output.median norm_setup.(i)) alloc.(i))
    cells;
  let run_s = sum_medians norm_run and setup_s = sum_medians norm_setup in
  Printf.printf "passes %d; reference kernel median %.5f s (T_nom %.3f)\n" passes
    (Output.median !refs) t_nom;
  Printf.printf "normalised: run_s=%.6f setup_s=%.6f\n" run_s setup_s;
  Printf.printf "raw: run_cpu_s=%.6f setup_wall_s=%.6f\n" (sum_medians raw_run)
    (sum_medians raw_setup);
  finish tally
    [
      ("run_s", run_s, "s");
      ("setup_s", setup_s, "s");
      ("peak_heap_mb", float_of_int !peak_heap_words *. 8. /. 1e6, "MB");
      ("alloc_mwords", Array.fold_left ( +. ) 0. alloc /. 1e6, "Mwords");
    ]

(* --- traced run ------------------------------------------------------- *)

let traced (w : Cells.workload) cells =
  let n = Array.length cells in
  let firsts = Array.make n None in
  let tally = { attempted = 0; failed = 0 } in
  let per_pass = ref [] in
  let pass_traced pass =
    let tr = Tracer.create () in
    let plain_wall = ref 0. and traced_wall = ref 0. in
    let alloc = ref 0. and events = ref 0 in
    Array.iteri
      (fun i cell ->
        Gc.compact ();
        match
          run_cell tally ~workload:w.Cells.name ~first:firsts.(i) cell (fun c ->
              let s = measure c in
              (s.outcome, s))
        with
        | None -> ()
        | Some (o, s) -> (
            if firsts.(i) = None then firsts.(i) <- Some o;
            Gc.compact ();
            match
              run_cell tally ~workload:w.Cells.name ~first:(Some o) cell (fun c ->
                  let o = c.Cells.run (Tracer.wrap tr) in
                  let now = Unix.gettimeofday () in
                  (o, Tracer.end_cell tr ~now))
            with
            | None -> ()
            | Some (_, wall) ->
                plain_wall := !plain_wall +. s.sim_wall;
                traced_wall := !traced_wall +. wall;
                alloc := !alloc +. s.alloc_words;
                events := !events + o.Cells.events))
      cells;
    let self_sum = Span.self_sum tr.Tracer.spans +. Tracer.sched_self tr in
    let gap = Float.abs (self_sum -. tr.Tracer.loop_total) in
    Printf.printf "pass %d: self times + sched %.6f s vs traced loop %.6f s; overhead %.3f\n"
      (pass + 1) self_sum tr.Tracer.loop_total ((!traced_wall /. !plain_wall) -. 1.);
    if gap > 1e-6 *. Float.max 1. tr.Tracer.loop_total then begin
      tally.failed <- tally.failed + 1;
      Printf.printf "FAIL self times do not add up to the traced loop time (gap %g s)\n" gap
    end;
    if pass = 0 then Span.pp stdout tr.Tracer.spans;
    per_pass :=
      (Tracer.layer_metrics tr
      @ Crypto_timers.metrics ()
      @ [
          ("alloc_words_per_event", !alloc /. float_of_int (max 1 !events), "words");
          ("trace.overhead_frac", (!traced_wall /. !plain_wall) -. 1., "fraction");
        ])
      :: !per_pass
  in
  ignore (repeat pass_traced);
  (* Every pass lists the same metrics in the same order. *)
  finish tally
    (List.mapi
       (fun i (name, _, unit) ->
         let values = List.map (fun m -> match List.nth m i with _, v, _ -> v) !per_pass in
         (name, Output.median values, unit))
       (List.hd !per_pass))

(* --- entry ------------------------------------------------------------ *)

let () =
  Arg.parse spec (fun a -> die "unexpected argument %S" a) "main.exe --workload NAME [options]";
  let w =
    match Cells.find !workload with Some w -> w | None -> die "unknown workload %S" !workload
  in
  if !trace <> 0 && !trace <> 1 then die "--trace must be 0 or 1";
  if not (!seconds > 0.) then die "--seconds must be positive";
  let cells = Array.of_list (w.Cells.cells !seed) in
  if !pin then begin
    Array.iter
      (fun (c : Cells.cell) ->
        Printf.printf "    (%S, %S, %s);\n" w.Cells.name c.Cells.label
          (Cells.pp_outcome (c.Cells.run Fun.id)))
      cells;
    exit 0
  end;
  let kernel, words, heap_growth = Refkernel.create_checked () in
  Printf.printf "reference kernel: %.0f words allocated per pass, OCaml heap grew %d words for a 32 MB buffer\n"
    words heap_growth;
  (* Creating the buffer may trigger a minor collection that promotes a
     few hundred KB; a buffer on the heap would add all 32 MB. *)
  if words <> 0. || heap_growth >= Refkernel.words / 8 then die "reference kernel self-check failed";
  if !trace = 1 then traced w cells else end_to_end w cells kernel
