(* Nested spans aggregated per name.  A span's self time is its duration
   minus the time its direct children cover; children nest strictly (a
   stack), so the covered time is the sum of their durations.  Spans are
   kept as per-name totals in memory and written out when the run ends:
   recording every span individually would cost hundreds of megabytes on
   the larger cells. *)

type t = {
  names : string array;
  count : int array;
  total : float array;  (** inclusive durations *)
  self : float array;
  stack_id : int array;
  stack_start : float array;
  stack_children : float array;  (** time covered by the frame's children *)
  mutable depth : int;
}

let max_depth = 64

let create names =
  let n = Array.length names in
  {
    names;
    count = Array.make n 0;
    total = Array.make n 0.;
    self = Array.make n 0.;
    stack_id = Array.make max_depth 0;
    stack_start = Array.make max_depth 0.;
    stack_children = Array.make max_depth 0.;
    depth = 0;
  }

let depth t = t.depth

let enter t id now =
  let d = t.depth in
  if d = max_depth then failwith "Span.enter: nesting deeper than max_depth";
  t.stack_id.(d) <- id;
  t.stack_start.(d) <- now;
  t.stack_children.(d) <- 0.;
  t.depth <- d + 1

(* Close the innermost span.  [id], when given, replaces the name the span
   was opened under: an event's kind is only known once it has run. *)
let leave ?id t now =
  let d = t.depth - 1 in
  if d < 0 then failwith "Span.leave: no open span";
  let id = match id with Some i -> i | None -> t.stack_id.(d) in
  let dur = now -. t.stack_start.(d) in
  t.count.(id) <- t.count.(id) + 1;
  t.total.(id) <- t.total.(id) +. dur;
  t.self.(id) <- t.self.(id) +. (dur -. t.stack_children.(d));
  t.depth <- d;
  if d > 0 then t.stack_children.(d - 1) <- t.stack_children.(d - 1) +. dur

let count t id = t.count.(id)
let total t id = t.total.(id)
let self t id = t.self.(id)
let self_sum t = Array.fold_left ( +. ) 0. t.self

let pp oc t =
  Array.iteri
    (fun i name ->
      if t.count.(i) > 0 then
        Printf.fprintf oc "  %-18s %10d calls  total %9.4f s  self %9.4f s\n" name t.count.(i)
          t.total.(i) t.self.(i))
    t.names
