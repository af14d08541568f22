(** Horizontal TE transformation (§6.1, Fig. 3).

    Independent TEs with identical body structure (same computation, same
    reduction space, same output shape except the leading axis) are merged
    into a single TE whose output concatenates theirs along axis 0, with
    [if_then_else] predicates selecting the per-branch inputs.  Consumers
    are rewritten to read through the concatenated tensor.

    Grouping is restricted to TEs at the same dependency depth — the
    wavefront structure the paper exploits for LSTM (Fig. 7) and sibling
    branches (QKV projections, mixture-of-expert branches, grouped
    convolution branches). *)

module SSet = Program.SSet

(* Dependency depth of every TE: longest producer chain from the inputs.
   Returns each TE's read names, its depth by name and in program order,
   and the reads that no earlier TE defined (program inputs, or reads out
   of dependency order) as (TE position, name) pairs. *)
let depth_table (tes : Te.t array) =
  let by_name : (string, int) Hashtbl.t =
    Hashtbl.create (2 * max 1 (Array.length tes))
  in
  let reads = Array.map Te.inputs tes in
  let unresolved = ref [] in
  let depth =
    Array.mapi
      (fun k (te : Te.t) ->
        let d =
          List.fold_left
            (fun m i ->
              match Hashtbl.find_opt by_name i with
              | Some di -> max m (di + 1)
              | None ->
                  unresolved := (k, i) :: !unresolved;
                  m)
            0 reads.(k)
        in
        Hashtbl.replace by_name te.Te.name d;
        d)
      tes
  in
  (reads, by_name, depth, !unresolved)

let depths (p : Program.t) : int array =
  let _, _, depth, _ = depth_table (Array.of_list p.Program.tes) in
  depth

type group = { members : Te.t list (* >= 2, program order *) }

(* Key under which TEs may merge: the body printed with tensor names
   abstracted to holes numbered by first occurrence (so e.g. the three QKV
   GEMMs compare equal), plus everything else a merge must share.  Two
   bodies get equal keys exactly when they have the same structure and
   read the same pattern of tensors. *)
let group_key (buf : Buffer.t) depth (te : Te.t) =
  Buffer.clear buf;
  let holes = ref [] in
  let hole name =
    match List.assoc_opt name !holes with
    | Some h -> h
    | None ->
        let h = "$" ^ string_of_int (List.length !holes) in
        holes := (name, h) :: !holes;
        h
  in
  Expr.add_to_buffer ~name:hole buf (Te.body_expr te);
  let tail = Array.to_list (Array.sub te.Te.out_shape 1 (Te.rank te - 1)) in
  let rop =
    match te.Te.body with
    | Te.Compute _ -> None
    | Te.Reduce { op; axes; _ } -> Some (op, Array.to_list axes)
  in
  (Buffer.contents buf, tail, rop, te.Te.dtype, depth)

(* Merging arbitrarily many independent TEs would out-grow the cooperative
   launch budget the partitioner works under (the paper merges within a
   subprogram, which bounds group size the same way). *)
let max_group_members = 32

let groups_of (p : Program.t) (tes : Te.t array) (depth : int array) :
    group list =
  let outputs = SSet.of_list p.Program.outputs in
  let tbl = Hashtbl.create 32 in
  let order = ref [] in
  let buf = Buffer.create 256 in
  Array.iteri
    (fun k (te : Te.t) ->
      if
        Te.has_reduction te
        && Te.rank te >= 1
        && not (SSet.mem te.Te.name outputs)
      then begin
        let key = group_key buf depth.(k) te in
        match Hashtbl.find_opt tbl key with
        | None ->
            Hashtbl.add tbl key [ te ];
            order := key :: !order
        | Some l -> Hashtbl.replace tbl key (te :: l)
      end)
    tes;
  let rec chunk = function
    | [] -> []
    | l ->
        let rec take n acc = function
          | rest when n = 0 -> (List.rev acc, rest)
          | [] -> (List.rev acc, [])
          | x :: rest -> take (n - 1) (x :: acc) rest
        in
        let first, rest = take max_group_members [] l in
        first :: chunk rest
  in
  List.rev !order
  |> List.concat_map (fun key ->
         match Hashtbl.find_opt tbl key with
         | Some members when List.length members >= 2 ->
             chunk (List.rev members)
             |> List.filter_map (fun ms ->
                    if List.length ms >= 2 then Some { members = ms } else None)
         | _ -> [])

(* Merge the members of a group into one TE named after the first member
   with suffix "_hz"; returns (merged TE, per-member offsets). *)
let merge_group (g : group) : Te.t * (string * int) list =
  let members = g.members in
  let first = List.hd members in
  let offsets =
    let acc = ref 0 in
    List.map
      (fun (te : Te.t) ->
        let o = !acc in
        acc := !acc + te.Te.out_shape.(0);
        (te.Te.name, o))
      members
  in
  let total = List.fold_left (fun a (te : Te.t) -> a + te.Te.out_shape.(0)) 0 members in
  let out_shape = Array.copy first.Te.out_shape in
  out_shape.(0) <- total;
  let shifted_body (te : Te.t) offset =
    let body = Te.body_expr te in
    if offset = 0 then body
    else
      Expr.map_index
        (Index.subst_out (fun k ->
             if k = 0 then Index.Add (Index.Ov 0, Index.Const (-offset))
             else Index.Ov k))
        body
  in
  let rec build = function
    | [] -> assert false
    | [ (te, offset) ] -> shifted_body te offset
    | (te, offset) :: rest ->
        let bound = offset + te.Te.out_shape.(0) in
        Expr.Select
          ( Expr.Cmp (Expr.Lt, Index.Ov 0, Index.Const bound),
            shifted_body te offset,
            build rest )
  in
  let pairs = List.map2 (fun te (_, o) -> (te, o)) members offsets in
  let body = build pairs in
  let merged =
    match first.Te.body with
    | Te.Compute _ ->
        Te.compute ~tag:(first.Te.tag ^ "_hz") ~name:(first.Te.name ^ "_hz")
          ~shape:out_shape ~dtype:first.Te.dtype body
    | Te.Reduce { op; axes; _ } ->
        Te.reduce ~tag:(first.Te.tag ^ "_hz") ~name:(first.Te.name ^ "_hz")
          ~shape:out_shape ~dtype:first.Te.dtype ~op ~axes body
  in
  (merged, offsets)

type stats = { groups_merged : int; tes_eliminated : int }

(** Apply horizontal merging across the program (largest groups first is
    irrelevant: groups are disjoint by construction).  Consumers of the
    members are redirected into slices of the merged tensor, and the result
    is put in wavefront order by the depth map grouping computed: wave [k]
    holds every TE whose longest producer chain has length [k], in the
    original relative order, and a merged TE has its members' depth. *)
let apply (p : Program.t) : Program.t * stats =
  let tes = Array.of_list p.Program.tes in
  let reads, by_name, depth, unresolved = depth_table tes in
  let groups = groups_of p tes depth in
  if groups = [] then (p, { groups_merged = 0; tes_eliminated = 0 })
  else begin
    (* wavefront order is a topological order only if every read comes
       from a strictly lower depth or is a program input; the depth pass
       already guarantees it for reads of earlier TEs *)
    let inputs = SSet.of_list (Program.input_names p) in
    List.iter
      (fun (k, i) ->
        if not (SSet.mem i inputs) then
          match Hashtbl.find_opt by_name i with
          | Some di when di < depth.(k) -> ()
          | _ ->
              invalid_arg
                ("Horizontal.apply: cycle or undefined input involving "
               ^ tes.(k).Te.name))
      unresolved;
    (* member name -> (merged name, offset); head-member name -> merged TE *)
    let redirect = Hashtbl.create 32 in
    let merged_by_head : (string, Te.t) Hashtbl.t = Hashtbl.create 64 in
    List.iter
      (fun g ->
        let merged, offsets = merge_group g in
        List.iter
          (fun (name, off) ->
            Hashtbl.replace redirect name (merged.Te.name, off))
          offsets;
        Hashtbl.replace merged_by_head (List.hd g.members).Te.name merged)
      groups;
    let rewrite_reads (te : Te.t) =
      Te.map_body
        (Expr.map_reads (fun name idxs ->
             match Hashtbl.find_opt redirect name with
             | None -> Expr.Read (name, idxs)
             | Some (merged_name, off) ->
                 let idxs' =
                   match idxs with
                   | [] -> []
                   | i0 :: rest ->
                       (if off = 0 then i0
                        else Index.Add (i0, Index.Const off))
                       :: rest
                 in
                 Expr.Read (merged_name, idxs')))
        te
    in
    (* one bucket per depth, each in program order; the head member's
       slot holds its merged TE, the other members' slots are dropped, and
       a TE only needs rewriting if it reads a member *)
    let waves = Array.make (Array.fold_left max 0 depth + 1) [] in
    for k = Array.length tes - 1 downto 0 do
      let te = tes.(k) in
      let te' =
        if Hashtbl.mem redirect te.Te.name then
          Option.map rewrite_reads (Hashtbl.find_opt merged_by_head te.Te.name)
        else if List.exists (Hashtbl.mem redirect) reads.(k) then
          Some (rewrite_reads te)
        else Some te
      in
      Option.iter (fun te' -> waves.(depth.(k)) <- te' :: waves.(depth.(k))) te'
    done;
    ( { p with Program.tes = List.concat (Array.to_list waves) },
      {
        groups_merged = List.length groups;
        tes_eliminated =
          List.fold_left (fun a g -> a + List.length g.members - 1) 0 groups;
      } )
  end

(** {!apply} as a total function: fault-injection aware, exceptions
    converted to a typed diagnostic for the degradation ladder. *)
let apply_result (p : Program.t) : (Program.t * stats, Diag.t) result =
  Obs.span "horizontal" @@ fun () ->
  Diag.guard Diag.Horizontal (fun () ->
      Faultinject.trip Diag.Horizontal;
      let ((_, stats) as r) = apply p in
      Obs.annotate "groups_merged" (string_of_int stats.groups_merged);
      Obs.annotate "tes_eliminated" (string_of_int stats.tes_eliminated);
      r)
