(* Metric names and the result line. *)

(* A metric name starts with a letter or digit and is at most 64 of
   [A-Za-z0-9_.-]. *)
let valid_name s =
  let ok_char = function 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false in
  let n = String.length s in
  n > 0 && n <= 64
  && (match s.[0] with 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' -> true | _ -> false)
  && String.for_all ok_char s

let median xs =
  match List.sort compare xs with
  | [] -> nan
  | sorted ->
      let a = Array.of_list sorted in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* A float as JSON with all its digits; JSON has no NaN or infinity. *)
let json_float x =
  if Float.is_finite x then Printf.sprintf "%.17g" x else "null"

(* [metrics] are (name, value, unit).  Raises on a name outside the
   grammar, so a typo cannot reach the result line. *)
let result_line ~correct ~attempted ~failed metrics =
  List.iter
    (fun (name, _, _) ->
      if not (valid_name name) then invalid_arg ("Output.result_line: bad metric name " ^ name))
    metrics;
  let body =
    String.concat ", "
      (List.map
         (fun (name, value, unit) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_float value) unit)
         metrics)
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    attempted failed body
