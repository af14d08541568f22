(* Small statistics and timing helpers. *)

let now = Unix.gettimeofday

let sorted xs = List.sort Float.compare xs

(* linear-interpolated quantile of a non-empty list, q in [0, 1] *)
let quantile q xs =
  match sorted xs with
  | [] -> nan
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      let pos = q *. float_of_int (n - 1) in
      let i = truncate pos in
      let j = min (n - 1) (i + 1) in
      let frac = pos -. float_of_int i in
      a.(i) +. ((a.(j) -. a.(i)) *. frac)

let median xs = quantile 0.5 xs

let mean xs =
  match xs with
  | [] -> 0.
  | _ -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let geomean xs =
  match xs with
  | [] -> nan
  | _ -> exp (mean (List.map log xs))

let sum xs = List.fold_left ( +. ) 0. xs

let time f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* the largest the major heap has been in this process, in MB *)
let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

(* Run [pass] repeatedly until [seconds] have elapsed and at least
   [min_passes] ran.  Returns what [keep] makes of each pass's result, with
   the pass's wall time, in order, and the peak heap once the first pass
   ended: the memory set-up plus one pass of the work needed, which unlike
   the peak at the end does not grow with the number of passes the run's
   length allowed.  [keep] runs outside the timing. *)
let passes ~keep ~seconds ~min_passes pass =
  let t0 = now () in
  let heap = ref nan in
  let rec go i acc =
    if i >= min_passes && now () -. t0 >= seconds then List.rev acc
    else
      let v, dt = time (fun () -> pass i) in
      if i = 0 then heap := peak_heap_mb ();
      go (i + 1) ((keep v, dt) :: acc)
  in
  let results = go 0 [] in
  (results, !heap)

(* Alternate [untraced] and [traced] passes, each returning its own time,
   until [seconds] have elapsed and each ran at least twice, so that both
   see the same machine state.  Returns the number of traced passes and the
   tracing overhead: median traced over median untraced time, in percent. *)
let interleaved ~seconds ~untraced ~traced =
  let runs, _ =
    passes ~keep:Fun.id ~seconds ~min_passes:4 (fun i ->
        if i mod 2 = 0 then (false, untraced ()) else (true, traced ()))
  in
  let times tr = List.filter_map (fun ((t, s), _) -> if t = tr then Some s else None) runs in
  let plain = median (times false) in
  (List.length (times true), 100. *. (median (times true) -. plain) /. plain)

(* Fisher-Yates shuffle driven by the workload seed *)
let shuffle ~seed xs =
  let a = Array.of_list xs in
  let rng = Rng.create seed in
  for i = Array.length a - 1 downto 1 do
    let j = Rng.int rng ~bound:(i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* a model name as a metric-name component: letters and digits only *)
let slug name =
  String.to_seq name
  |> Seq.filter (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> true | _ -> false)
  |> String.of_seq

(* Run [f] [reps] times; the median wall time and the last result.  Earlier
   results are dropped at once, so only one is ever alive. *)
let repeat_median reps f =
  let times = List.init (reps - 1) (fun _ -> snd (time (fun () -> ignore (f ())))) in
  let v, dt = time f in
  (v, median (dt :: times))
