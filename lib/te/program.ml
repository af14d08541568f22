(** A TE program: model inputs (including weights), a topologically ordered
    list of TEs, and the names of the tensors a user observes.  This is the
    unit the global analysis of §5 operates on. *)

module SMap = Map.Make (String)
module SSet = Set.Make (String)

type tensor_info = { shape : Shape.t; dtype : Dtype.t }

type t = {
  inputs : (string * tensor_info) list;  (** externally supplied tensors *)
  tes : Te.t list;                       (** in topological order *)
  outputs : string list;                 (** observable results *)
}

let make ~inputs ~tes ~outputs = { inputs; tes; outputs }

let input_names p = List.map fst p.inputs

let te_names p = List.map (fun (te : Te.t) -> te.Te.name) p.tes

(* ---- memoized O(1) name index ------------------------------------- *)

(* [t] is an immutable record that transformations rebuild freely with
   [{ p with tes = ... }], so a name index cannot live inside the record
   without going stale.  Instead a side memo keyed by the *physical
   identity* of the program value caches one index per program generation.
   The memo is an ephemeron table: an index is reachable only while its
   program is, so it dies at the first major collection after the program
   does, and a compile's intermediate programs take their indexes with
   them.  Access is mutex-guarded so parallel Ansor-search
   domains can consult the index concurrently — the cached tables
   themselves are never mutated after construction, making unsynchronized
   concurrent reads safe. *)

type index = {
  te_by_name : (string, Te.t) Hashtbl.t;
  info_by_name : (string, tensor_info) Hashtbl.t;
  mutable consumers_memo : Te.t list SMap.t option;
      (** lazily-built {!consumers} map; guarded by [index_lock] (it is
          only consulted by main-domain passes — emission, dataflow — but
          the guard keeps the whole index domain-safe) *)
}

(* Keys compare physically; the structural hash only spreads them over
   buckets (equal hashes for distinct programs just share a bucket). *)
module Memo = Ephemeron.K1.Make (struct
  type t = Obj.t

  let equal = ( == )
  let hash = Hashtbl.hash
end)

let index_memo : index Memo.t = Memo.create 16
let index_lock = Mutex.create ()

(* The last program looked up, so the run of lookups one pass makes on
   one program does not hash it every time.  An ephemeron too: it must
   not keep that program's index alive. *)
let last_index : (Obj.t, index) Ephemeron.K1.t option ref = ref None

let build_index (p : t) : index =
  let n = List.length p.tes in
  let te_by_name = Hashtbl.create (2 * max 1 n) in
  let info_by_name = Hashtbl.create (2 * max 1 (n + List.length p.inputs)) in
  (* first binding wins, mirroring the original scan order: inputs shadow
     TEs, earlier TEs shadow later duplicates (invalid programs only) *)
  List.iter
    (fun (name, info) ->
      if not (Hashtbl.mem info_by_name name) then
        Hashtbl.add info_by_name name info)
    p.inputs;
  List.iter
    (fun (te : Te.t) ->
      if not (Hashtbl.mem te_by_name te.Te.name) then
        Hashtbl.add te_by_name te.Te.name te;
      if not (Hashtbl.mem info_by_name te.Te.name) then
        Hashtbl.add info_by_name te.Te.name
          { shape = te.Te.out_shape; dtype = te.Te.dtype })
    p.tes;
  { te_by_name; info_by_name; consumers_memo = None }

let index_of (p : t) : index =
  let key = Obj.repr p in
  Mutex.protect index_lock @@ fun () ->
  match Option.bind !last_index (fun e -> Ephemeron.K1.query e key) with
  | Some idx -> idx
  | None ->
      let idx =
        match Memo.find_opt index_memo key with
        | Some idx -> idx
        | None ->
            let idx = build_index p in
            Memo.replace index_memo key idx;
            idx
      in
      last_index := Some (Ephemeron.K1.make key idx);
      idx

let find_te p name = Hashtbl.find_opt (index_of p).te_by_name name

let find_te_exn p name =
  match find_te p name with
  | Some te -> te
  | None -> invalid_arg ("Program.find_te_exn: no TE " ^ name)

(** Shape and dtype of any tensor in the program (input or TE output). *)
let tensor_info p name : tensor_info option =
  Hashtbl.find_opt (index_of p).info_by_name name

let tensor_info_exn p name =
  match tensor_info p name with
  | Some i -> i
  | None -> invalid_arg ("Program.tensor_info_exn: unknown tensor " ^ name)

(** [producer p name] is the TE defining [name], or [None] for inputs. *)
let producer = find_te

(* One linear pass (prepend + final reverse keeps the per-tensor consumer
   lists in program order). *)
let build_consumers (p : t) : Te.t list SMap.t =
  let tbl : (string, Te.t list) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (te : Te.t) ->
      List.iter
        (fun input ->
          let cur = Option.value ~default:[] (Hashtbl.find_opt tbl input) in
          Hashtbl.replace tbl input (te :: cur))
        (Te.inputs te))
    p.tes;
  Hashtbl.fold (fun k v acc -> SMap.add k (List.rev v) acc) tbl SMap.empty

(** Map tensor name -> TEs that read it, in program order.  Memoized per
    program generation alongside the name index: emission consults it once
    per kernel, and rebuilding it there used to dominate the emit phase on
    kernel-heavy models. *)
let consumers p : Te.t list SMap.t =
  let idx = index_of p in
  Mutex.protect index_lock @@ fun () ->
  match idx.consumers_memo with
  | Some c -> c
  | None ->
      let c = build_consumers p in
      idx.consumers_memo <- Some c;
      c

(** Direct dependency edges as (producer_te_name, consumer_te_name). *)
let edges p : (string * string) list =
  let defined = SSet.of_list (te_names p) in
  List.concat_map
    (fun (te : Te.t) ->
      List.filter_map
        (fun input ->
          if SSet.mem input defined then Some (input, te.Te.name) else None)
        (Te.inputs te))
    p.tes

(** TEs reachable from [te] downstream (its transitive consumers). *)
let descendants p name =
  let cons = consumers p in
  let rec go visited frontier =
    match frontier with
    | [] -> visited
    | n :: rest ->
        let next =
          match SMap.find_opt n cons with
          | None -> []
          | Some tes ->
              List.filter_map
                (fun (te : Te.t) ->
                  if SSet.mem te.Te.name visited then None else Some te.Te.name)
                tes
        in
        go (List.fold_left (fun v x -> SSet.add x v) visited next) (rest @ next)
  in
  go SSet.empty [ name ]

(** Does [a] (transitively) feed [b]? *)
let depends ~on:a p b = SSet.mem b (descendants p a)

(** Check that every read is either an input or an earlier TE, and every
    output exists — i.e. the list really is in topological order. *)
let validate p =
  let seen : (string, unit) Hashtbl.t =
    Hashtbl.create (2 * (List.length p.inputs + List.length p.tes))
  in
  List.iter (fun (name, _) -> Hashtbl.replace seen name ()) p.inputs;
  let rec go = function
    | [] ->
        let missing =
          List.filter (fun o -> not (Hashtbl.mem seen o)) p.outputs
        in
        if missing = [] then Ok ()
        else Error ("Program: undefined outputs: " ^ String.concat "," missing)
    | (te : Te.t) :: rest -> (
        match Te.validate te with
        | Error m -> Error m
        | Ok () ->
            let unknown =
              List.filter (fun i -> not (Hashtbl.mem seen i)) (Te.inputs te)
            in
            if unknown <> [] then
              Error
                (Fmt.str "Program: TE %s reads undefined tensors: %s" te.Te.name
                   (String.concat "," unknown))
            else if Hashtbl.mem seen te.Te.name then
              Error ("Program: duplicate tensor " ^ te.Te.name)
            else begin
              Hashtbl.replace seen te.Te.name ();
              go rest
            end)
  in
  go p.tes

(** Tensors read by TEs appearing after the given position, plus program
    outputs — the live set used for buffer-reuse decisions. *)
let live_after p pos =
  let rec drop i = function
    | [] -> []
    | _ :: rest when i > 0 -> drop (i - 1) rest
    | l -> l
  in
  let later = drop (pos + 1) p.tes in
  let read_later =
    List.fold_left
      (fun acc te -> SSet.union acc (SSet.of_list (Te.inputs te)))
      SSet.empty later
  in
  SSet.union read_later (SSet.of_list p.outputs)

let total_arith_ops p =
  List.fold_left (fun acc te -> acc + Te.arith_ops te) 0 p.tes

let pp ppf p =
  Fmt.pf ppf "@[<v>inputs:@,";
  List.iter
    (fun (n, i) ->
      Fmt.pf ppf "  %s : %a %s@," n Dtype.pp i.dtype (Shape.to_string i.shape))
    p.inputs;
  Fmt.pf ppf "tes:@,";
  List.iter (fun te -> Fmt.pf ppf "  %a@," Te.pp te) p.tes;
  Fmt.pf ppf "outputs: %s@]" (String.concat ", " p.outputs)

let to_string p = Fmt.str "%a" pp p
