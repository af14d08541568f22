(** Seeded, deterministic fault injection.

    Tests (and the CLI's [--inject]) arm exactly one fault; pipeline passes
    call {!trip} at their entry points and {!smem_factor} / {!grid_factor}
    when finalizing kernel resource estimates.  A tripped fault raises
    {!Diag.Injected} (or corrupts the estimate), which the degradation
    ladder in [Souffle.compile] must absorb — proving that graceful
    degradation actually engages, not just that the happy path works.

    Determinism: a fault trips on the [skip]-th matching invocation (derived
    from [seed] by a fixed LCG step) and at most [times] times, so a given
    (seed, spec) pair always fails the same subprogram of the same model.
    The armed fault is plain module state: compilation runs on one
    domain. *)

type spec =
  | Fail_pass of Diag.pass  (** the pass raises when it next runs *)
  | Corrupt_smem of int
      (** multiply emitted kernels' shared-memory estimate — the kernel-IR
          verifier must reject the corrupted kernel *)
  | Corrupt_grid of int  (** multiply emitted kernels' grid size *)
  | Mistag_load
      (** make the emitter classify one on-device re-read as a DRAM
          first-touch [Ldg] — the cross-kernel dataflow verifier must
          reject the mistagged kernel *)

let spec_to_string = function
  | Fail_pass p -> Diag.pass_name p
  | Corrupt_smem f -> Fmt.str "smem:%d" f
  | Corrupt_grid f -> Fmt.str "grid:%d" f
  | Mistag_load -> "mistag"

(** Parse a CLI fault spec: a pass name ("horizontal", "emit", ...),
    "smem[:factor]" / "grid[:factor]", or "mistag". *)
let parse (s : string) : (spec, string) result =
  let name, factor =
    match String.index_opt s ':' with
    | Some i ->
        ( String.sub s 0 i,
          int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1)) )
    | None -> (s, None)
  in
  let factor = Option.value ~default:64 factor in
  match name with
  | "smem" -> Ok (Corrupt_smem factor)
  | "grid" -> Ok (Corrupt_grid factor)
  | "mistag" -> Ok Mistag_load
  | _ -> (
      match Diag.pass_of_string name with
      | Some p -> Ok (Fail_pass p)
      | None ->
          Error
            (Fmt.str
               "unknown fault %S (expected a pass name, smem[:N], \
                grid[:N], or mistag)"
               s))

type armed = {
  spec : spec;
  mutable skip : int;       (* matching invocations to let through first *)
  mutable remaining : int;  (* how many times to trip *)
  mutable trips : int;      (* observed trips, for tests *)
}

let state : armed option ref = ref None

(* One multiplicative-congruential step; keeps equal seeds reproducible and
   spreads consecutive seeds over the first few invocations. *)
let skip_of_seed seed = if seed = 0 then 0 else (seed * 48271 + 11) mod 3

let arm ?(seed = 0) ?(times = 1) spec =
  state := Some { spec; skip = skip_of_seed seed; remaining = times; trips = 0 }

let disarm () = state := None
let armed () = !state <> None
let trips () = match !state with Some a -> a.trips | None -> 0

(* Consume one matching invocation; [Some a] iff the fault fires now. *)
let fire (matches : spec -> bool) : armed option =
  match !state with
  | Some a when matches a.spec ->
      if a.skip > 0 then begin
        a.skip <- a.skip - 1;
        None
      end
      else if a.remaining > 0 then begin
        a.remaining <- a.remaining - 1;
        a.trips <- a.trips + 1;
        Some a
      end
      else None
  | _ -> None

(** Called at a pass entry point: raises {!Diag.Injected} when the armed
    fault targets [pass] and its trigger count is reached. *)
let trip ?subject (pass : Diag.pass) : unit =
  match fire (function Fail_pass p -> p = pass | _ -> false) with
  | Some _ ->
      raise
        (Diag.Injected
           (Diag.error ?subject
              ~hint:"injected fault; retry at a lower optimization level" pass
              "injected failure (fault-injection harness)"))
  | None -> ()

(** Multiplier to apply to an emitted kernel's shared-memory estimate
    (1 when no smem-corruption fault fires on this invocation). *)
let smem_factor () : int =
  match fire (function Corrupt_smem _ -> true | _ -> false) with
  | Some { spec = Corrupt_smem f; _ } -> f
  | _ -> 1

(** Same for the launch-grid size. *)
let grid_factor () : int =
  match fire (function Corrupt_grid _ -> true | _ -> false) with
  | Some { spec = Corrupt_grid f; _ } -> f
  | _ -> 1

(** [true] when the armed mistag fault fires on this load classification:
    the emitter then deliberately issues an on-device re-read as a DRAM
    first-touch [Ldg], which the dataflow verifier must catch. *)
let mistag_load () : bool =
  match fire (function Mistag_load -> true | _ -> false) with
  | Some _ -> true
  | None -> false

(** Arm [spec], run [f], always disarm; returns [f ()]'s result together
    with the number of times the fault tripped. *)
let with_fault ?seed ?times spec (f : unit -> 'a) : 'a * int =
  arm ?seed ?times spec;
  Fun.protect ~finally:disarm (fun () ->
      let v = f () in
      (v, trips ()))

(* ------------------------------------------------------------------ *)
(* Runtime (serving-time) faults                                       *)
(* ------------------------------------------------------------------ *)

(** A fault that strikes a *running* stream on the simulated device, as
    opposed to the compile-time faults above.  Kernel/stage indices are
    0-based positions in the stream's launch queue. *)
type runtime_fault =
  | Kernel_fault of { kernel : int; stage : int }
      (** the stream's [kernel] aborts when its [stage] completes: the
          work is spent, the result is lost, the stream terminates
          [Faulted] *)
  | Kernel_hang of { kernel : int; stage : int; factor : float }
      (** the stage stretches by [factor] ([infinity] = hangs forever,
          recoverable only by a watchdog cancellation) *)

let runtime_fault_to_string = function
  | Kernel_fault { kernel; stage } -> Fmt.str "kfault@%d.%d" kernel stage
  | Kernel_hang { kernel; stage; factor } ->
      if factor = infinity then Fmt.str "khang@%d.%d(inf)" kernel stage
      else Fmt.str "khang@%d.%d(x%g)" kernel stage factor

(** Device-wide capacity cut: between [th_start_us] and
    [th_start_us + th_dur_us] the device retains only [th_capacity]
    (0 < c <= 1) of its SM and DRAM-bandwidth capacity. *)
type throttle = { th_start_us : float; th_dur_us : float; th_capacity : float }

(** A seeded chaos specification: per-request fault probabilities plus an
    optional device-throttle window.  Together with the workload it fully
    determines every runtime fault of a serving run — the same
    (seed, chaos, workload) triple reproduces byte-identical outcomes. *)
type chaos = {
  ch_seed : int;
  ch_fault_rate : float;   (** P(one kernel-fault) per dispatched attempt *)
  ch_hang_rate : float;    (** P(one kernel-hang) per dispatched attempt *)
  ch_hang_factor : float;  (** stretch factor for hangs; [infinity] allowed *)
  ch_throttle : throttle option;
}

let chaos_zero =
  {
    ch_seed = 0;
    ch_fault_rate = 0.;
    ch_hang_rate = 0.;
    ch_hang_factor = 16.;
    ch_throttle = None;
  }

let chaos_to_string (c : chaos) =
  String.concat ","
    (List.concat
       [
         (if c.ch_fault_rate > 0. then [ Fmt.str "kfault=%g" c.ch_fault_rate ]
          else []);
         (if c.ch_hang_rate > 0. then
            [
              (if c.ch_hang_factor = infinity then
                 Fmt.str "khang=%gxinf" c.ch_hang_rate
               else Fmt.str "khang=%gx%g" c.ch_hang_rate c.ch_hang_factor);
            ]
          else []);
         (match c.ch_throttle with
          | Some t ->
              [
                Fmt.str "throttle=%g@%g+%g" t.th_capacity
                  (t.th_start_us /. 1e3) (t.th_dur_us /. 1e3);
              ]
          | None -> []);
         (if c.ch_seed <> 0 then [ Fmt.str "seed=%d" c.ch_seed ] else []);
       ])

(** Parse a chaos spec: comma-separated clauses
    [kfault=P] (per-attempt kernel-fault probability),
    [khang=P[xF|xinf]] (kernel-hang probability, stretch factor F,
    default 16), [throttle=C\@S+D] (capacity fraction C during the window
    starting at S ms lasting D ms), [seed=N].  ["none"] or the empty
    string is the zero spec. *)
let parse_chaos (s : string) : (chaos, string) result =
  let clauses =
    String.split_on_char ',' s
    |> List.map String.trim
    |> List.filter (fun x -> x <> "" && x <> "none")
  in
  let prob what v =
    match float_of_string_opt v with
    | Some p when p >= 0. && p <= 1. -> Ok p
    | _ -> Error (Fmt.str "bad %s probability %S (want 0..1)" what v)
  in
  let rec go acc = function
    | [] -> Ok acc
    | cl :: rest -> (
        match String.index_opt cl '=' with
        | None -> Error (Fmt.str "bad chaos clause %S (want key=value)" cl)
        | Some i -> (
            let key = String.sub cl 0 i in
            let v = String.sub cl (i + 1) (String.length cl - i - 1) in
            match key with
            | "kfault" -> (
                match prob "kfault" v with
                | Ok p -> go { acc with ch_fault_rate = p } rest
                | Error e -> Error e)
            | "khang" -> (
                let pstr, fstr =
                  match String.index_opt v 'x' with
                  | Some j ->
                      ( String.sub v 0 j,
                        Some (String.sub v (j + 1) (String.length v - j - 1)) )
                  | None -> (v, None)
                in
                match (prob "khang" pstr, fstr) with
                | Error e, _ -> Error e
                | Ok p, None -> go { acc with ch_hang_rate = p } rest
                | Ok p, Some "inf" ->
                    go { acc with ch_hang_rate = p; ch_hang_factor = infinity }
                      rest
                | Ok p, Some f -> (
                    match float_of_string_opt f with
                    | Some f when f > 1. ->
                        go { acc with ch_hang_rate = p; ch_hang_factor = f }
                          rest
                    | _ ->
                        Error
                          (Fmt.str "bad hang factor %S (want > 1 or inf)" f)))
            | "throttle" -> (
                (* C@S+D: capacity C during [S, S+D] milliseconds *)
                match String.index_opt v '@' with
                | None ->
                    Error
                      (Fmt.str "bad throttle %S (want CAP@START+DUR, ms)" v)
                | Some j -> (
                    let cstr = String.sub v 0 j in
                    let rest_s =
                      String.sub v (j + 1) (String.length v - j - 1)
                    in
                    match String.index_opt rest_s '+' with
                    | None ->
                        Error
                          (Fmt.str "bad throttle %S (want CAP@START+DUR, ms)"
                             v)
                    | Some k -> (
                        let sstr = String.sub rest_s 0 k in
                        let dstr =
                          String.sub rest_s (k + 1)
                            (String.length rest_s - k - 1)
                        in
                        match
                          ( float_of_string_opt cstr,
                            float_of_string_opt sstr,
                            float_of_string_opt dstr )
                        with
                        | Some c, Some st, Some d
                          when c > 0. && c <= 1. && st >= 0. && d > 0. ->
                            go
                              {
                                acc with
                                ch_throttle =
                                  Some
                                    {
                                      th_start_us = st *. 1e3;
                                      th_dur_us = d *. 1e3;
                                      th_capacity = c;
                                    };
                              }
                              rest
                        | _ ->
                            Error
                              (Fmt.str
                                 "bad throttle %S (want 0<CAP<=1, START, \
                                  DUR>0 in ms)"
                                 v))))
            | "seed" -> (
                match int_of_string_opt v with
                | Some n -> go { acc with ch_seed = n } rest
                | None -> Error (Fmt.str "bad chaos seed %S" v))
            | _ ->
                Error
                  (Fmt.str
                     "unknown chaos key %S (kfault, khang, throttle, seed)"
                     key)))
  in
  go chaos_zero clauses

(** Derive the fault plan for one dispatched attempt of one request.
    [stages.(k)] is the stage count of the artifact's [k]-th kernel.  The
    draw depends only on (chaos, request id, attempt number) — never on
    simulated time — so a retry re-rolls its fate deterministically and the
    whole run reproduces from the (seed, chaos, workload) triple. *)
let chaos_plan (c : chaos) ~(rq_id : int) ~(attempt : int)
    ~(stages : int array) : runtime_fault list =
  if
    (c.ch_fault_rate <= 0. && c.ch_hang_rate <= 0.)
    || Array.length stages = 0
  then []
  else begin
    let rng =
      Rng.create ((c.ch_seed * 1_000_003) + (rq_id * 7919) + (attempt * 104729) + 1)
    in
    let pick_site () =
      let k = Rng.int rng ~bound:(Array.length stages) in
      let s = if stages.(k) <= 0 then 0 else Rng.int rng ~bound:stages.(k) in
      (k, s)
    in
    (* fixed draw order: fault roll (+ site), then hang roll (+ site) *)
    let fault =
      let roll = Rng.float rng in
      let k, s = pick_site () in
      if roll < c.ch_fault_rate then [ Kernel_fault { kernel = k; stage = s } ]
      else []
    in
    let hang =
      let roll = Rng.float rng in
      let k, s = pick_site () in
      if roll < c.ch_hang_rate then
        [ Kernel_hang { kernel = k; stage = s; factor = c.ch_hang_factor } ]
      else []
    in
    fault @ hang
  end

(** Per-stream runtime-injection bookkeeping.  Each serving stream gets its
    own slot (keyed by engine stream id) in one module-level registry.  The
    engine is the single writer of trip counts; schedulers reset the
    registry at the start of a chaos run. *)
module Runtime = struct
  type slot = { mutable rs_plan : runtime_fault list; mutable rs_trips : int }

  let registry : (int, slot) Hashtbl.t = Hashtbl.create 32
  let reset () = Hashtbl.reset registry

  (** Arm [plan] for engine stream [stream]; replaces any previous slot. *)
  let arm ~stream (plan : runtime_fault list) =
    Hashtbl.replace registry stream { rs_plan = plan; rs_trips = 0 }

  let plan ~stream =
    match Hashtbl.find_opt registry stream with
    | Some s -> s.rs_plan
    | None -> []

  let record_trip ~stream =
    match Hashtbl.find_opt registry stream with
    | Some s -> s.rs_trips <- s.rs_trips + 1
    | None -> Hashtbl.replace registry stream { rs_plan = []; rs_trips = 1 }

  let trips ~stream =
    match Hashtbl.find_opt registry stream with
    | Some s -> s.rs_trips
    | None -> 0

  let total_trips () =
    Hashtbl.fold (fun _ s a -> a + s.rs_trips) registry 0
end
