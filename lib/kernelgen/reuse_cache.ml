(** Software-managed shared-memory tensor cache with LRU replacement
    (§6.5, "Tensor reuse optimization").

    Souffle scans the instructions of a fused subprogram linearly, keeping
    tensor buffers in shared memory until it is exhausted, then spills the
    least-recently-used buffer to global memory (adding a memory barrier).
    This module is the replacement policy; {!Emit} drives it and translates
    hits/misses/spills into traffic. *)

(* Recency is a stamp from a per-cache clock: a name table finds an entry
   in O(1) and a stamp-ordered map yields the least recent in O(log n),
   so touch, insert and evict cost O(log resident) — the single
   cooperative kernel of an unrolled LSTM keeps thousands of tensors
   resident, where a recency list costs O(resident) per operation. *)
module IMap = Map.Make (Int)

type entry = {
  tensor : string;
  bytes : int;
  mutable dirty : bool;
  mutable stamp : int;
}

type t = {
  capacity : int;
  mutable used : int;
  by_name : (string, entry) Hashtbl.t;
  mutable order : entry IMap.t;  (** by stamp; the highest is most recent *)
  mutable clock : int;
}

type event =
  | Hit                       (** resident: a shared-memory read *)
  | Miss                      (** not resident *)
  | Inserted
  | Rejected                  (** larger than the whole cache *)
  | Spilled of (string * int) list
      (** these victims (tensor, byte footprint) were written back *)

let create ~capacity =
  {
    capacity;
    used = 0;
    by_name = Hashtbl.create 16;
    order = IMap.empty;
    clock = 0;
  }

let mem t tensor = Hashtbl.mem t.by_name tensor

let used t = t.used
let capacity t = t.capacity

let resident t = IMap.fold (fun _ e acc -> e.tensor :: acc) t.order []

(* Give an entry the next stamp: it becomes the most recent. *)
let stamp t e =
  t.clock <- t.clock + 1;
  e.stamp <- t.clock;
  t.order <- IMap.add e.stamp e t.order

let promote t e =
  t.order <- IMap.remove e.stamp t.order;
  stamp t e

(** Record a read of [tensor]; returns whether it was resident. *)
let touch t tensor : event =
  match Hashtbl.find_opt t.by_name tensor with
  | Some e ->
      promote t e;
      Hit
  | None -> Miss

(* Evict LRU entries until [need] bytes fit; returns dirty victims with
   their byte footprints (what the write-back must move). *)
let evict_for t need : (string * int) list =
  let rec go spilled =
    if t.used + need <= t.capacity then List.rev spilled
    else begin
      match IMap.min_binding_opt t.order with
      | None -> List.rev spilled
      | Some (_, victim) ->
          t.order <- IMap.remove victim.stamp t.order;
          Hashtbl.remove t.by_name victim.tensor;
          t.used <- t.used - victim.bytes;
          go
            (if victim.dirty then (victim.tensor, victim.bytes) :: spilled
             else spilled)
    end
  in
  go []

(** Insert a tensor buffer just produced on-chip.  [dirty] means it holds
    data not yet in global memory (a spill must write it back). *)
let insert t ~tensor ~bytes ~dirty : event =
  if bytes > t.capacity then Rejected
  else
    match Hashtbl.find_opt t.by_name tensor with
    | Some e ->
        promote t e;
        e.dirty <- e.dirty || dirty;
        Hit
    | None ->
        let victims = evict_for t bytes in
        let e = { tensor; bytes; dirty; stamp = 0 } in
        Hashtbl.replace t.by_name tensor e;
        stamp t e;
        t.used <- t.used + bytes;
        if victims = [] then Inserted else Spilled victims

(** Mark a tensor clean (it was just stored to global anyway). *)
let clean t tensor =
  match Hashtbl.find_opt t.by_name tensor with
  | Some e -> e.dirty <- false
  | None -> ()

(** Drop everything (kernel boundary: shared memory does not persist). *)
let clear t =
  Hashtbl.reset t.by_name;
  t.order <- IMap.empty;
  t.used <- 0
