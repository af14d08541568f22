(** Quasi-affine index expressions.

    A tensor-expression access like [I0[i*2 + rk, (j / 4) mod 8]] is described
    by one {!t} per tensor dimension.  Variables are positional: [Ov k] is the
    k-th output iteration variable of the enclosing TE, [Rv k] the k-th
    reduction variable.  Multiplication is restricted to constant factors and
    division/modulo to constant divisors, which keeps every expression inside
    the quasi-affine class of §5.2 of the paper and makes composition
    (substitution) closed. *)

type t =
  | Ov of int           (** output iteration variable *)
  | Rv of int           (** reduction variable *)
  | Const of int
  | Add of t * t
  | Mul of t * int      (** constant scaling *)
  | Div of t * int      (** floor division by a positive constant *)
  | Mod of t * int      (** remainder by a positive constant *)

(** Append the printed form of an index ([i0], [r1], [(i0 + 3)],
    [(r0 * 2)], ...) to [b].  Printing goes through a [Buffer] rather than
    [Format] because structural keys (horizontal grouping, dependence
    relations) print every TE of a program. *)
let rec add_to_buffer b t =
  let str = Buffer.add_string b in
  let scaled a op k =
    str "("; add_to_buffer b a; str op; str (string_of_int k); str ")"
  in
  match t with
  | Ov k -> str "i"; str (string_of_int k)
  | Rv k -> str "r"; str (string_of_int k)
  | Const c -> str (string_of_int c)
  | Add (x, y) ->
      str "("; add_to_buffer b x; str " + "; add_to_buffer b y; str ")"
  | Mul (a, k) -> scaled a " * " k
  | Div (a, k) -> scaled a " / " k
  | Mod (a, k) -> scaled a " % " k

let to_string t =
  let b = Buffer.create 16 in
  add_to_buffer b t;
  Buffer.contents b

let pp ppf t = Format.pp_print_string ppf (to_string t)

let rec eval ~ov ~rv = function
  | Ov k -> ov.(k)
  | Rv k -> rv.(k)
  | Const c -> c
  | Add (a, b) -> eval ~ov ~rv a + eval ~ov ~rv b
  | Mul (a, k) -> eval ~ov ~rv a * k
  | Div (a, k) ->
      let v = eval ~ov ~rv a in
      if v >= 0 then v / k else -(((-v) + k - 1) / k)
  | Mod (a, k) ->
      let v = eval ~ov ~rv a in
      let m = v mod k in
      if m < 0 then m + k else m

(** Substitute output variables: [Ov k] becomes [f k].  Reduction variables
    are untouched (a consumer never captures its producer's reduction). *)
let rec subst_out f = function
  | Ov k -> f k
  | Rv _ as e -> e
  | Const _ as e -> e
  | Add (a, b) -> Add (subst_out f a, subst_out f b)
  | Mul (a, k) -> Mul (subst_out f a, k)
  | Div (a, k) -> Div (subst_out f a, k)
  | Mod (a, k) -> Mod (subst_out f a, k)

(** Shift reduction-variable indices by [delta] (used when merging the
    reduction spaces of two TEs). *)
let rec shift_rv delta = function
  | Rv k -> Rv (k + delta)
  | Ov _ | Const _ as e -> e
  | Add (a, b) -> Add (shift_rv delta a, shift_rv delta b)
  | Mul (a, k) -> Mul (shift_rv delta a, k)
  | Div (a, k) -> Div (shift_rv delta a, k)
  | Mod (a, k) -> Mod (shift_rv delta a, k)

let rec fold_vars f acc = function
  | Ov k -> f acc (`Out k)
  | Rv k -> f acc (`Red k)
  | Const _ -> acc
  | Add (a, b) -> fold_vars f (fold_vars f acc a) b
  | Mul (a, _) | Div (a, _) | Mod (a, _) -> fold_vars f acc a

let uses_reduction t =
  fold_vars (fun acc v -> acc || match v with `Red _ -> true | `Out _ -> false)
    false t

let max_out_var t =
  fold_vars (fun acc v -> match v with `Out k -> max acc k | `Red _ -> acc)
    (-1) t

let max_red_var t =
  fold_vars (fun acc v -> match v with `Red k -> max acc k | `Out _ -> acc)
    (-1) t

(** Inclusive value range of an expression given variable extents
    (variable [Ov k] ranges over [0, ov_ext.(k) - 1]). *)
let rec range ~ov_ext ~rv_ext = function
  | Ov k -> (0, ov_ext.(k) - 1)
  | Rv k -> (0, rv_ext.(k) - 1)
  | Const c -> (c, c)
  | Add (a, b) ->
      let la, ha = range ~ov_ext ~rv_ext a and lb, hb = range ~ov_ext ~rv_ext b in
      (la + lb, ha + hb)
  | Mul (a, k) ->
      let l, h = range ~ov_ext ~rv_ext a in
      if k >= 0 then (l * k, h * k) else (h * k, l * k)
  | Div (a, k) ->
      let l, h = range ~ov_ext ~rv_ext a in
      let fd v = if v >= 0 then v / k else -(((-v) + k - 1) / k) in
      (fd l, fd h)
  | Mod (a, k) ->
      let l, h = range ~ov_ext ~rv_ext a in
      if l >= 0 && h < k then (l, h) else (0, k - 1)

(* Linear-normal form: coefficient map over variables plus a constant, with
   irreducible div/mod atoms treated as opaque terms.  Canonicalizing through
   this form gives an effective simplifier and (when no atoms remain) the
   affine matrix extraction of §5.2. *)
module Lin = struct
  type atom = ADiv of t * int | AMod of t * int

  type nf = {
    out : (int * int) list;  (* (var, coeff) sorted *)
    red : (int * int) list;
    atoms : (atom * int) list;
    const : int;
  }

  let empty = { out = []; red = []; atoms = []; const = 0 }

  let add_assoc k c l =
    let rec go = function
      | [] -> [ (k, c) ]
      | (k', c') :: rest ->
          if k = k' then if c + c' = 0 then rest else (k', c + c') :: rest
          else (k', c') :: go rest
    in
    go l

  let rec add_atom a c l =
    match l with
    | [] -> [ (a, c) ]
    | (a', c') :: rest ->
        if a = a' then if c + c' = 0 then rest else (a', c + c') :: rest
        else (a', c') :: add_atom a c rest

  let merge a b =
    {
      out = List.fold_left (fun acc (k, c) -> add_assoc k c acc) a.out b.out;
      red = List.fold_left (fun acc (k, c) -> add_assoc k c acc) a.red b.red;
      atoms = List.fold_left (fun acc (x, c) -> add_atom x c acc) a.atoms b.atoms;
      const = a.const + b.const;
    }

  let scale k nf =
    if k = 0 then empty
    else
      {
        out = List.map (fun (v, c) -> (v, c * k)) nf.out;
        red = List.map (fun (v, c) -> (v, c * k)) nf.red;
        atoms = List.map (fun (a, c) -> (a, c * k)) nf.atoms;
        const = nf.const * k;
      }
end

let rec to_nf ~ov_ext ~rv_ext (e : t) : Lin.nf =
  match e with
  | Ov k -> { Lin.empty with out = [ (k, 1) ] }
  | Rv k -> { Lin.empty with red = [ (k, 1) ] }
  | Const c -> { Lin.empty with const = c }
  | Add (a, b) -> Lin.merge (to_nf ~ov_ext ~rv_ext a) (to_nf ~ov_ext ~rv_ext b)
  | Mul (a, k) -> Lin.scale k (to_nf ~ov_ext ~rv_ext a)
  | Div (a, k) -> div_nf ~ov_ext ~rv_ext a k
  | Mod (a, k) -> mod_nf ~ov_ext ~rv_ext a k

and div_nf ~ov_ext ~rv_ext a k =
  if k = 1 then to_nf ~ov_ext ~rv_ext a
  else begin
    let a' = of_nf (to_nf ~ov_ext ~rv_ext a) in
    let lo, hi = range ~ov_ext ~rv_ext a' in
    if lo >= 0 && hi < k then Lin.empty (* value always 0 *)
    else begin
      (* Peel off exactly-divisible linear parts: (k*x + r)/k = x + r/k when
         0 <= r < k. *)
      let nf = to_nf ~ov_ext ~rv_ext a' in
      let divisible (_, c) = c mod k = 0 in
      let div_out, rem_out = List.partition divisible nf.out in
      let div_red, rem_red = List.partition divisible nf.red in
      let rem =
        { nf with
          out = rem_out;
          red = rem_red;
          const = nf.const mod k;
        }
      in
      let rem_expr = of_nf rem in
      let rlo, rhi = range ~ov_ext ~rv_ext rem_expr in
      if rlo >= 0 && rhi < k then
        let peeled =
          {
            Lin.out = List.map (fun (v, c) -> (v, c / k)) div_out;
            red = List.map (fun (v, c) -> (v, c / k)) div_red;
            atoms = [];
            const = nf.const / k - (if nf.const mod k < 0 then 1 else 0);
          }
        in
        (* atoms cannot be peeled through division; keep whole expr opaque *)
        if nf.atoms = [] then peeled
        else { Lin.empty with atoms = [ (ADiv (a', k), 1) ] }
      else { Lin.empty with atoms = [ (ADiv (a', k), 1) ] }
    end
  end

and mod_nf ~ov_ext ~rv_ext a k =
  if k = 1 then Lin.empty
  else begin
    let a' = of_nf (to_nf ~ov_ext ~rv_ext a) in
    let lo, hi = range ~ov_ext ~rv_ext a' in
    if lo >= 0 && hi < k then to_nf ~ov_ext ~rv_ext a'
    else begin
      (* Drop multiples of k: (k*x + r) mod k = r mod k when 0 <= r < k. *)
      let nf = to_nf ~ov_ext ~rv_ext a' in
      let keep (_, c) = c mod k <> 0 in
      let rem =
        { nf with
          out = List.filter keep nf.out;
          red = List.filter keep nf.red;
          const = ((nf.const mod k) + k) mod k;
        }
      in
      let rem_expr = of_nf rem in
      let rlo, rhi = range ~ov_ext ~rv_ext rem_expr in
      if nf.atoms = [] && rlo >= 0 && rhi < k then rem
      else { Lin.empty with atoms = [ (AMod (a', k), 1) ] }
    end
  end

and of_nf (nf : Lin.nf) : t =
  let term acc e coeff =
    let t = if coeff = 1 then e else Mul (e, coeff) in
    match acc with None -> Some t | Some a -> Some (Add (a, t))
  in
  let acc = None in
  let acc =
    List.fold_left (fun acc (k, c) -> term acc (Ov k) c)
      acc (List.sort compare nf.Lin.out)
  in
  let acc =
    List.fold_left (fun acc (k, c) -> term acc (Rv k) c)
      acc (List.sort compare nf.Lin.red)
  in
  let acc =
    List.fold_left
      (fun acc (a, c) ->
        let e = match a with Lin.ADiv (x, k) -> Div (x, k) | AMod (x, k) -> Mod (x, k) in
        term acc e c)
      acc nf.Lin.atoms
  in
  match acc with
  | None -> Const nf.Lin.const
  | Some a -> if nf.Lin.const = 0 then a else Add (a, Const nf.Lin.const)

(** Canonicalize; extents drive range-based div/mod elimination, e.g. a
    reshape composed with its inverse simplifies to the identity. *)
let simplify ~ov_ext ~rv_ext e = of_nf (to_nf ~ov_ext ~rv_ext e)

(** Affine extraction: [Some (out_coeffs, red_coeffs, const)] iff the
    expression is affine after simplification (no residual div/mod), giving
    the row of the paper's [M·v + c] map. *)
let to_affine ~ov_ext ~rv_ext ~n_out ~n_red e =
  let nf = to_nf ~ov_ext ~rv_ext e in
  if nf.Lin.atoms <> [] then None
  else begin
    let oc = Array.make n_out 0 and rc = Array.make n_red 0 in
    let ok = ref true in
    List.iter
      (fun (k, c) -> if k < n_out then oc.(k) <- c else ok := false)
      nf.Lin.out;
    List.iter
      (fun (k, c) -> if k < n_red then rc.(k) <- c else ok := false)
      nf.Lin.red;
    if !ok then Some (oc, rc, nf.Lin.const) else None
  end

let is_affine ~ov_ext ~rv_ext e =
  (to_nf ~ov_ext ~rv_ext e).Lin.atoms = []

let equal (a : t) (b : t) = a = b

(* Convenience constructors for the builder DSL. *)
let ( + ) a b = Add (a, b)
let ( * ) a k = Mul (a, k)
let ( / ) a k = Div (a, k)
let ( % ) a k = Mod (a, k)
let ov k = Ov k
let rv k = Rv k
let const c = Const c
