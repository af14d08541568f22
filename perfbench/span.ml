(* In-memory spans recorded by the benchmark around its calls into each
   layer.  A span has a name (the layer), start and end, its parent span
   and a group id shared by every span of one model compile or one
   serving rate.  Nothing is written while the run measures; [to_chrome]
   renders the spans once the run ends. *)

type t = {
  id : int;
  name : string;
  parent : int;  (* -1 for a root span *)
  group : string;
  t0 : float;
  mutable t1 : float;
  mutable alloc_w : float;  (* words allocated on this domain, children included *)
}

let recorded : t list ref = ref []
let archive : t list ref = ref []
let stack : t list ref = ref []
let next_id = ref 0

(* the spans recorded since the last [take]; every span stays in the
   archive for [to_chrome] *)
let take () =
  let spans = !recorded in
  archive := spans @ !archive;
  recorded := [];
  spans

let allocated_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let with_span ~group name f =
  let parent = match !stack with p :: _ -> p.id | [] -> -1 in
  let a0 = allocated_words () in
  let s =
    {
      id = !next_id;
      name;
      parent;
      group;
      t0 = Unix.gettimeofday ();
      t1 = 0.;
      alloc_w = 0.;
    }
  in
  incr next_id;
  stack := s :: !stack;
  let close () =
    s.t1 <- Unix.gettimeofday ();
    s.alloc_w <- allocated_words () -. a0;
    stack := List.tl !stack;
    recorded := s :: !recorded
  in
  Fun.protect ~finally:close f

let dur (s : t) = s.t1 -. s.t0

(* Self time and self allocation of every span: its own figure minus the
   part its direct children account for. *)
let self_figures (spans : t list) : (t * float * float) list =
  let child_time = Hashtbl.create 256 and child_alloc = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent >= 0 then begin
        let add tbl v =
          Hashtbl.replace tbl s.parent
            (v +. Option.value ~default:0. (Hashtbl.find_opt tbl s.parent))
        in
        add child_time (dur s);
        add child_alloc s.alloc_w
      end)
    spans;
  List.map
    (fun s ->
      let sub tbl v = v -. Option.value ~default:0. (Hashtbl.find_opt tbl s.id) in
      (s, sub child_time (dur s), sub child_alloc s.alloc_w))
    spans

(* Share of the root spans' time that no child span accounts for. *)
let unattributed_pct (spans : t list) =
  let self, total =
    List.fold_left
      (fun (a, b) (s, self_s, _) ->
        if s.parent < 0 then (a +. self_s, b +. dur s) else (a, b))
      (0., 0.) (self_figures spans)
  in
  if total > 0. then 100. *. self /. total else 0.

(* Chrome-trace JSON (chrome://tracing, Perfetto) of the recorded spans. *)
let to_chrome (spans : t list) : string =
  let base =
    List.fold_left (fun a s -> Float.min a s.t0) infinity spans
  in
  let ev s =
    Jsonlite.Obj
      [
        ("name", Jsonlite.Str s.name);
        ("ph", Jsonlite.Str "X");
        ("pid", Jsonlite.Num 1.);
        ("tid", Jsonlite.Num 1.);
        ("ts", Jsonlite.Num ((s.t0 -. base) *. 1e6));
        ("dur", Jsonlite.Num (dur s *. 1e6));
        ( "args",
          Jsonlite.Obj
            [
              ("id", Jsonlite.Num (float_of_int s.id));
              ("parent", Jsonlite.Num (float_of_int s.parent));
              ("group", Jsonlite.Str s.group);
              ("alloc_words", Jsonlite.Num s.alloc_w);
            ] );
      ]
  in
  let sorted = List.sort (fun a b -> compare a.id b.id) spans in
  Jsonlite.to_string
    (Jsonlite.Obj [ ("traceEvents", Jsonlite.Arr (List.map ev sorted)) ])
