(** Hierarchical pass tracing for the compilation pipeline.

    Every pass wraps its work in {!span}; when nothing is recording this is
    a single [ref] read, so instrumentation stays in the hot path
    permanently.  {!record} turns recording on for the extent of one
    closure and returns the finished {!trace}, which can be rendered as an
    indented text tree ({!pp_tree}) or exported in the Chrome-trace JSON
    format ({!to_chrome_json}) that [chrome://tracing] and Perfetto load
    directly — the same workflow TVM users get from [tvm.instrument] pass
    timing.

    Spans nest by dynamic extent: a span opened while another is open
    becomes its child.  A span closes even when its body raises, so the
    degradation ladder's retries show up as aborted-then-retried siblings
    rather than corrupting the tree. *)

type span = {
  sname : string;
  start_us : float;  (** relative to the start of the recording *)
  mutable dur_us : float;
  mutable alloc_words : float;
      (** words allocated during the span (minor plus major minus
          promoted), children included *)
  mutable meta : (string * string) list;
  mutable children : span list;
      (** reverse order while recording; forward after {!record} returns *)
}

type trace = {
  spans : span list;  (** root spans, in start order *)
  wall_us : float;    (** total recorded wall time *)
}

type collector = {
  mutable roots : span list;  (* reverse start order *)
  mutable stack : span list;  (* open spans, innermost first *)
  t0 : float;
}

let current : collector option ref = ref None

let enabled () = Option.is_some !current

let now_us (c : collector) = (Unix.gettimeofday () -. c.t0) *. 1e6

let allocated_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let span ?(meta = []) (name : string) (f : unit -> 'a) : 'a =
  match !current with
  | None -> f ()
  | Some c ->
      let a0 = allocated_words () in
      let s =
        {
          sname = name;
          start_us = now_us c;
          dur_us = 0.;
          alloc_words = 0.;
          meta;
          children = [];
        }
      in
      (match c.stack with
      | parent :: _ -> parent.children <- s :: parent.children
      | [] -> c.roots <- s :: c.roots);
      c.stack <- s :: c.stack;
      let close () =
        s.dur_us <- now_us c -. s.start_us;
        s.alloc_words <- allocated_words () -. a0;
        (* pop [s]; if the body leaked open children (an exception escaped
           past their own close), drop them too — they are already linked
           into [s.children] *)
        let rec pop = function
          | x :: rest -> if x == s then rest else pop rest
          | [] -> []
        in
        c.stack <- pop c.stack
      in
      Fun.protect ~finally:close f

(** Attach a key/value annotation to the innermost open span (no-op when
    not recording). *)
let annotate (key : string) (value : string) : unit =
  match !current with
  | Some { stack = s :: _; _ } -> s.meta <- s.meta @ [ (key, value) ]
  | _ -> ()

let rec finalize_span (s : span) : span =
  { s with children = List.rev_map finalize_span s.children }

let record (f : unit -> 'a) : 'a * trace =
  let c = { roots = []; stack = []; t0 = Unix.gettimeofday () } in
  let saved = !current in
  current := Some c;
  let restore () = current := saved in
  let v = Fun.protect ~finally:restore f in
  {
    spans = List.rev_map finalize_span c.roots;
    wall_us = now_us c;
  }
  |> fun t -> (v, t)

(** {!record} for callers that only want the trace when the body succeeds
    but must not lose the body's own [result] error. *)
let record_result (f : unit -> ('a, 'e) result) :
    ('a * trace, 'e) result =
  match record f with
  | Ok v, t -> Ok (v, t)
  | Error e, _ -> Error e

(* ---- synthetic traces ---- *)

(** A span from already-known timing — for traces assembled out of
    *simulated* time rather than the recorded wall clock (the serving
    layer's per-stream timelines).  A ["tid"] metadata entry places the
    span on that numbered row of the Chrome-trace export. *)
let make_span ?(meta = []) ?(children = []) ~start_us ~dur_us (name : string)
    : span =
  { sname = name; start_us; dur_us; alloc_words = 0.; meta; children }

(** Package synthetic spans as a trace; [wall_us] defaults to the latest
    span end. *)
let trace_of ?wall_us (spans : span list) : trace =
  let wall =
    match wall_us with
    | Some w -> w
    | None ->
        List.fold_left (fun a s -> Float.max a (s.start_us +. s.dur_us)) 0.
          spans
  in
  { spans; wall_us = wall }

(* ---- queries ---- *)

let rec span_count_of (s : span) =
  1 + List.fold_left (fun a c -> a + span_count_of c) 0 s.children

let span_count (t : trace) =
  List.fold_left (fun a s -> a + span_count_of s) 0 t.spans

(** Depth-first preorder walk — the order spans started. *)
let iter (f : span -> depth:int -> unit) (t : trace) : unit =
  let rec go depth s =
    f s ~depth;
    List.iter (go (depth + 1)) s.children
  in
  List.iter (go 0) t.spans

(** Total time attributed to spans named [name] (summed over the whole
    tree; nested same-name spans double-count, which the pipeline's
    instrumentation avoids). *)
let total_us (t : trace) (name : string) : float =
  let acc = ref 0. in
  iter (fun s ~depth:_ -> if s.sname = name then acc := !acc +. s.dur_us) t;
  !acc

(** Words allocated inside spans named [name], summed like {!total_us}. *)
let total_alloc_words (t : trace) (name : string) : float =
  let acc = ref 0. in
  iter
    (fun s ~depth:_ -> if s.sname = name then acc := !acc +. s.alloc_words)
    t;
  !acc

(* ---- text rendering ---- *)

let pp_tree ppf (t : trace) =
  Fmt.pf ppf "@[<v>";
  let first = ref true in
  iter
    (fun s ~depth ->
      if not !first then Fmt.pf ppf "@,";
      first := false;
      let self =
        s.dur_us
        -. List.fold_left (fun a c -> a +. c.dur_us) 0. s.children
      in
      Fmt.pf ppf "%s%-*s %9.1f us" (String.make (2 * depth) ' ')
        (max 1 (28 - (2 * depth)))
        s.sname s.dur_us;
      if s.children <> [] then Fmt.pf ppf "  (self %.1f us)" (Float.max 0. self);
      List.iter (fun (k, v) -> Fmt.pf ppf "  %s=%s" k v) s.meta)
    t;
  Fmt.pf ppf "@,%-28s %9.1f us@]" "TOTAL" t.wall_us

(* ---- Chrome-trace export ---- *)

(** The trace as Chrome's JSON Array Format wrapped in the standard
    [{"traceEvents": [...]}] object: one complete ("ph":"X") event per
    span, microsecond timestamps, span metadata under ["args"].  A span
    whose metadata carries a numeric ["tid"] is emitted on that thread row
    (how the serving layer gives each concurrency lane its own swimlane);
    everything else lands on row 1.  A ["cname"] metadata entry becomes the
    event's top-level [cname] (one of Chrome's reserved color names), which
    is how faulted and retried serving spans get their distinct colors.
    Load the file in [chrome://tracing] or
    {{:https://ui.perfetto.dev}Perfetto}. *)
let to_chrome_json (t : trace) : string =
  let events = ref [] in
  iter
    (fun s ~depth:_ ->
      let tid =
        match List.assoc_opt "tid" s.meta with
        | Some v -> ( match float_of_string_opt v with Some f -> f | None -> 1.)
        | None -> 1.
      in
      let cname = List.assoc_opt "cname" s.meta in
      let args =
        List.filter_map
          (fun (k, v) ->
            if k = "tid" || k = "cname" then None else Some (k, Jsonlite.Str v))
          s.meta
      in
      events :=
        Jsonlite.Obj
          ([
             ("name", Jsonlite.Str s.sname);
             ("cat", Jsonlite.Str "souffle");
             ("ph", Jsonlite.Str "X");
             ("ts", Jsonlite.Num s.start_us);
             ("dur", Jsonlite.Num s.dur_us);
             ("pid", Jsonlite.Num 1.);
             ("tid", Jsonlite.Num tid);
           ]
          @ (match cname with
            | Some c -> [ ("cname", Jsonlite.Str c) ]
            | None -> [])
          @ [ ("args", Jsonlite.Obj args) ])
        :: !events)
    t;
  Jsonlite.to_string
    (Jsonlite.Obj [ ("traceEvents", Jsonlite.Arr (List.rev !events)) ])

let to_chrome_file (t : trace) (path : string) : unit =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_chrome_json t))
