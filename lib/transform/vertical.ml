(** Vertical TE transformation (§6.2, Fig. 4).

    Chains of one-relies-on-one TEs are collapsed into a single semantically
    equivalent TE by composing their index mapping functions — Eq. 2's
    [f_{i+1,i}(v) = M_{i+1}(M_i v + c_i) + c_{i+1}] realized as substitution
    of the producer's body into the consumer, followed by quasi-affine
    simplification.  Data-movement TEs (reshape, transpose, slice, ...) are
    additionally folded into reduction consumers, which is how Souffle
    "eventually eliminates all element-wise memory operators" (§2.3). *)

(** Substitute every read of [producer]'s output inside [expr] by the
    producer's body with its output variables replaced by the access
    indices.  [producer] must be a [Compute] TE. *)
let inline_read (producer : Te.t) (expr : Expr.t) : Expr.t =
  let body = Te.body_expr producer in
  Expr.map_reads
    (fun name idxs ->
      if name = producer.Te.name then begin
        let arr = Array.of_list idxs in
        Expr.subst_out
          (fun k ->
            if k < Array.length arr then arr.(k)
            else invalid_arg "Vertical.inline_read: rank mismatch")
          body
      end
      else Expr.Read (name, idxs))
    expr

(** Inline [producer] into [consumer], simplifying the composed index
    expressions against the consumer's iteration space. *)
let fuse ~(producer : Te.t) ~(consumer : Te.t) : Te.t =
  assert (not (Te.has_reduction producer));
  let fused = Te.map_body (inline_read producer) consumer in
  let ov_ext = consumer.Te.out_shape and rv_ext = Te.reduce_axes consumer in
  Te.map_body (Expr.map_index (Index.simplify ~ov_ext ~rv_ext)) fused

type stats = { chains_fused : int; movement_folded : int }

(* The fixpoint runs in rounds.  A round selects every one-relies-on-one
   TE worth inlining (see [should_inline]) from the consumer tallies at
   its start, inlines the selected TEs that have no selected input — so
   chains resolve bottom-up, one substitution step per round — and each
   consumer folds its inlined producers in sorted-input order.

   The state is int-indexed and maintained incrementally, so a round costs
   what it rewrites rather than the whole program:
   - [body], [live]: the TEs by position; an inlined TE dies in place;
   - [inputs]: each TE's reads of other TEs, as positions sorted by name;
   - [consumers]: the positions reading a TE (dead entries are skipped
     and dropped lazily), with [n_cons] / [n_red] counting the live
     consumers and the reducing ones among them;
   - [selected], and [blocked]: how many selected inputs a TE has.
   A TE's selection depends only on its own body and tallies, so a round
   re-selects just the [dirty] TEs whose body or tally changed.  And every
   TE that was ready (selected, none of its inputs selected) at a round's
   start is inlined in that round, so the next round's ready TEs are
   among those whose selection or [blocked] count changed. *)
let apply ?(fold_into_reduce = true) (p : Program.t) : Program.t * stats =
  let body = Array.of_list p.Program.tes in
  let n = Array.length body in
  let pos : (string, int) Hashtbl.t = Hashtbl.create (2 * max 1 n) in
  Array.iteri
    (fun i (te : Te.t) ->
      if not (Hashtbl.mem pos te.Te.name) then Hashtbl.add pos te.Te.name i)
    body;
  let inputs =
    Array.map
      (fun te -> List.filter_map (Hashtbl.find_opt pos) (Te.inputs te))
      body
  in
  let live = Array.make n true and selected = Array.make n false in
  let reduces = Array.map Te.has_reduction body in
  let is_output = Array.make n false in
  List.iter
    (fun o ->
      Option.iter (fun i -> is_output.(i) <- true) (Hashtbl.find_opt pos o))
    p.Program.outputs;
  let consumers = Array.make n [] in
  let n_cons = Array.make n 0 and n_red = Array.make n 0 in
  let add_consumer ~of_:x c =
    consumers.(x) <- c :: consumers.(x);
    n_cons.(x) <- n_cons.(x) + 1;
    if reduces.(c) then n_red.(x) <- n_red.(x) + 1
  in
  Array.iteri
    (fun c ins -> List.iter (fun x -> add_consumer ~of_:x c) ins)
    inputs;
  let blocked = Array.make n 0 in
  (* Decide for each one-relies-on-one TE whether to inline it into all of
     its consumers. *)
  let should_inline i =
    if reduces.(i) || is_output.(i) || n_cons.(i) = 0 then false
    else if Expr.is_data_movement (Te.body_expr body.(i)) then
      (* folding pure data movement anywhere is free; into reductions it
         needs the flag (Souffle: yes; restricted baselines: no) *)
      n_red.(i) = 0 || fold_into_reduce
    else
      (* arithmetic bodies: only into one-relies-on-one consumers, and only
         when not shared (sharing is served by the §6.5 cache; inlining
         would recompute) *)
      n_red.(i) = 0 && n_cons.(i) = 1
  in
  (* [stamp.(c) = round]: consumer [c] was already rewritten this round *)
  let stamp = Array.make n (-1) in
  let chains = ref 0 and moved = ref 0 in
  let rec go round dirty =
    if round <= 64 then begin
      (* 1. re-select the dirty TEs; a flip moves its consumers' [blocked] *)
      let candidates = ref [] in
      List.iter
        (fun i ->
          if live.(i) then begin
            let s = should_inline i in
            if s <> selected.(i) then begin
              selected.(i) <- s;
              consumers.(i) <- List.filter (fun c -> live.(c)) consumers.(i);
              List.iter
                (fun c ->
                  blocked.(c) <- (blocked.(c) + if s then 1 else -1);
                  candidates := c :: !candidates)
                consumers.(i)
            end;
            candidates := i :: !candidates
          end)
        dirty;
      (* 2. the ready TEs die; their inputs lose a consumer *)
      let dirty = ref [] in
      let inlined =
        List.filter
          (fun i ->
            live.(i) && selected.(i) && blocked.(i) = 0
            && begin
                 live.(i) <- false;
                 List.iter
                   (fun x ->
                     n_cons.(x) <- n_cons.(x) - 1;
                     dirty := x :: !dirty)
                   inputs.(i);
                 true
               end)
          !candidates
      in
      if inlined <> [] then begin
        (* 3. each consumer of an inlined TE folds its dead inputs in *)
        List.iter
          (fun i ->
            List.iter
              (fun c ->
                if live.(c) && stamp.(c) <> round then begin
                  stamp.(c) <- round;
                  rewrite c;
                  dirty := c :: !dirty
                end)
              consumers.(i))
          inlined;
        go (round + 1) !dirty
      end
    end
  and rewrite c =
    let old = inputs.(c) in
    let te, kept, added =
      List.fold_left
        (fun (te, kept, added) x ->
          if live.(x) then (te, x :: kept, added)
          else begin
            let producer = body.(x) in
            if Expr.is_data_movement (Te.body_expr producer) then incr moved
            else incr chains;
            ( fuse ~producer ~consumer:te,
              kept,
              List.rev_append inputs.(x) added )
          end)
        (body.(c), [], []) old
    in
    body.(c) <- te;
    (* substitution keeps every other read, so the new reads are exactly
       the kept ones plus the inlined producers', sorted by name as
       [Te.inputs] sorts them *)
    let now =
      List.sort_uniq
        (fun a b -> String.compare body.(a).Te.name body.(b).Te.name)
        (List.rev_append kept added)
    in
    inputs.(c) <- now;
    blocked.(c) <- List.length (List.filter (fun x -> selected.(x)) now);
    (* the inputs [c] newly reads gain a consumer; they are already dirty,
       as inputs of a TE that died this round *)
    List.iter (fun x -> if not (List.memq x old) then add_consumer ~of_:x c) now
  in
  go 0 (List.init n Fun.id);
  if !chains = 0 && !moved = 0 then
    (p, { chains_fused = 0; movement_folded = 0 })
  else
    let tes = ref [] in
    for i = n - 1 downto 0 do
      if live.(i) then tes := body.(i) :: !tes
    done;
    ( { p with Program.tes = !tes },
      { chains_fused = !chains; movement_folded = !moved } )

(** {!apply} as a total function: fault-injection aware, exceptions
    converted to a typed diagnostic for the degradation ladder. *)
let apply_result ?fold_into_reduce (p : Program.t) :
    (Program.t * stats, Diag.t) result =
  Obs.span "vertical" @@ fun () ->
  Diag.guard Diag.Vertical (fun () ->
      Faultinject.trip Diag.Vertical;
      let ((_, stats) as r) = apply ?fold_into_reduce p in
      Obs.annotate "chains_fused" (string_of_int stats.chains_fused);
      Obs.annotate "movement_folded" (string_of_int stats.movement_folded);
      r)
