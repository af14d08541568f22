(* What one workload run hands back to the main program, [perfbench.ml]. *)

type t = {
  host_s : float;  (* median wall time of one pass of the timed part *)
  e2e : (string * float * string) list;
      (* every end-to-end metric this workload defines: name, value, unit *)
  layers : (string * float) list;  (* per-layer metrics (traced run only) *)
  attempted : int;
  failed : int;
  checks_failed : string list;  (* failed correctness checks, by name *)
}

(* Tally of attempted and failed operations, with the names of failed
   correctness checks kept for the report. *)
type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable failures : string list;
}

let tally () = { attempted = 0; failed = 0; failures = [] }

(* [attempted] operations of one kind, of which [failed] failed *)
let ops (t : tally) ~name ~attempted ~failed =
  t.attempted <- t.attempted + attempted;
  if failed > 0 then begin
    t.failed <- t.failed + failed;
    if not (List.mem name t.failures) then t.failures <- name :: t.failures
  end

(* one operation, failed when [ok] is false *)
let op (t : tally) ~name ok = ops t ~name ~attempted:1 ~failed:(if ok then 0 else 1)

let fail_share (t : tally) =
  if t.attempted = 0 then 0.
  else float_of_int t.failed /. float_of_int t.attempted

(* Per-layer host-time and allocation figures of the recorded spans:
   [<layer>.us] is the layer's self time in µs and [<layer>.alloc_mw] its
   self allocation in millions of words, each divided by [passes].  Root
   spans group a model or a rate and are not layers. *)
let layer_times ~passes (spans : Span.t list) : (string * float) list =
  let us = Hashtbl.create 16 and mw = Hashtbl.create 16 in
  let add tbl k v =
    Hashtbl.replace tbl k (v +. Option.value ~default:0. (Hashtbl.find_opt tbl k))
  in
  List.iter
    (fun ((s : Span.t), self_s, self_w) ->
      if s.Span.parent >= 0 then begin
        add us s.Span.name self_s;
        add mw s.Span.name self_w
      end)
    (Span.self_figures spans);
  let per = float_of_int (max 1 passes) in
  Hashtbl.fold (fun k v acc -> (k ^ ".us", v *. 1e6 /. per) :: acc) us []
  @ Hashtbl.fold (fun k v acc -> (k ^ ".alloc_mw", v /. 1e6 /. per) :: acc) mw []
