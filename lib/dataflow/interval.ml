type bound = Neg_inf | Finite of int | Pos_inf

type t = Bottom | Range of bound * bound

let bottom = Bottom
let top = Range (Neg_inf, Pos_inf)
let const n = Range (Finite n, Finite n)

let range lo hi =
  if lo > hi then invalid_arg "Interval.range: lo > hi"
  else Range (Finite lo, Finite hi)

let bound_le a b =
  match (a, b) with
  | Neg_inf, _ | _, Pos_inf -> true
  | _, Neg_inf | Pos_inf, _ -> false
  | Finite x, Finite y -> x <= y

let bound_min a b = if bound_le a b then a else b
let bound_max a b = if bound_le a b then b else a

let of_bounds lo hi = if bound_le lo hi then Range (lo, hi) else Bottom

let is_bottom = function Bottom -> true | Range _ -> false

let is_const = function
  | Range (Finite a, Finite b) when a = b -> Some a
  | Range _ | Bottom -> None

let lower = function
  | Bottom -> invalid_arg "Interval.lower: bottom"
  | Range (lo, _) -> lo

let upper = function
  | Bottom -> invalid_arg "Interval.upper: bottom"
  | Range (_, hi) -> hi

let finite_lower = function
  | Range (Finite a, _) -> Some a
  | Range _ | Bottom -> None

let finite_upper = function
  | Range (_, Finite b) -> Some b
  | Range _ | Bottom -> None

let contains t n =
  match t with
  | Bottom -> false
  | Range (lo, hi) -> bound_le lo (Finite n) && bound_le (Finite n) hi

let subset a b =
  match (a, b) with
  | Bottom, _ -> true
  | _, Bottom -> false
  | Range (l1, h1), Range (l2, h2) -> bound_le l2 l1 && bound_le h1 h2

let equal_bound a b =
  match (a, b) with
  | Finite x, Finite y -> x = y
  | Neg_inf, Neg_inf | Pos_inf, Pos_inf -> true
  | (Neg_inf | Finite _ | Pos_inf), _ -> false

let equal a b =
  a == b
  ||
  match (a, b) with
  | Bottom, Bottom -> true
  | Range (l1, h1), Range (l2, h2) -> equal_bound l1 l2 && equal_bound h1 h2
  | (Bottom | Range _), _ -> false

(* The lattice steps return an operand itself when the result has its
   bounds, so a step that changes nothing allocates nothing. *)
let join a b =
  match (a, b) with
  | Bottom, x | x, Bottom -> x
  | Range (l1, h1), Range (l2, h2) ->
      let lo = bound_min l1 l2 and hi = bound_max h1 h2 in
      if lo == l1 && hi == h1 then a
      else if lo == l2 && hi == h2 then b
      else Range (lo, hi)

let meet a b =
  match (a, b) with
  | Bottom, _ | _, Bottom -> Bottom
  | Range (l1, h1), Range (l2, h2) ->
      let lo = bound_max l1 l2 and hi = bound_min h1 h2 in
      if lo == l1 && hi == h1 then a
      else if lo == l2 && hi == h2 then b
      else of_bounds lo hi

let widen old next =
  match (old, next) with
  | Bottom, x -> x
  | x, Bottom -> x
  | Range (l1, h1), Range (l2, h2) ->
      let lo = if bound_le l1 l2 then l1 else Neg_inf in
      let hi = if bound_le h2 h1 then h1 else Pos_inf in
      if lo == l1 && hi == h1 then old else Range (lo, hi)

(* Bound arithmetic: Neg_inf + Pos_inf never occurs in the combinations
   we form (we pair lows with lows and highs with highs). *)
let bound_add a b =
  match (a, b) with
  | Neg_inf, Pos_inf | Pos_inf, Neg_inf ->
      invalid_arg "Interval: inf - inf"
  | Neg_inf, _ | _, Neg_inf -> Neg_inf
  | Pos_inf, _ | _, Pos_inf -> Pos_inf
  | Finite x, Finite y -> Finite (x + y)

let bound_neg = function
  | Neg_inf -> Pos_inf
  | Pos_inf -> Neg_inf
  | Finite x -> Finite (-x)

let add a b =
  match (a, b) with
  | Bottom, _ | _, Bottom -> Bottom
  | Range (l1, h1), Range (l2, h2) ->
      Range (bound_add l1 l2, bound_add h1 h2)

let neg = function
  | Bottom -> Bottom
  | Range (lo, hi) -> Range (bound_neg hi, bound_neg lo)

let sub a b = add a (neg b)

let mul a b =
  match (a, b) with
  | Bottom, _ | _, Bottom -> Bottom
  | Range (Finite l1, Finite h1), Range (Finite l2, Finite h2) ->
      let products = [ l1 * l2; l1 * h2; h1 * l2; h1 * h2 ] in
      let lo = List.fold_left min (l1 * l2) products in
      let hi = List.fold_left max (l1 * l2) products in
      Range (Finite lo, Finite hi)
  | Range _, Range _ -> (
      (* One operand reaches infinity; precise only when the other is the
         constant zero. *)
      match (is_const a, is_const b) with
      | Some 0, _ | _, Some 0 -> const 0
      | _ -> top)

let div a b =
  match (a, b) with
  | Bottom, _ | _, Bottom -> Bottom
  | Range (Finite l1, Finite h1), Range (Finite l2, Finite h2)
    when l2 > 0 || h2 < 0 ->
      let quotients =
        [ l1 / l2; l1 / h2; h1 / l2; h1 / h2 ]
      in
      let lo = List.fold_left min (l1 / l2) quotients in
      let hi = List.fold_left max (l1 / l2) quotients in
      Range (Finite lo, Finite hi)
  | Range _, Range _ -> top
(* divisor straddling 0 yields 0 in the semantics for b=0, so top *)

let rem a b =
  match (a, b) with
  | Bottom, _ | _, Bottom -> Bottom
  | _, Range (Finite l2, Finite h2) when l2 > 0 ->
      (* |a mod b| < h2 and sign follows a. *)
      let m = h2 - 1 in
      let lo =
        match a with
        | Range (Finite l1, _) when l1 >= 0 -> 0
        | Range _ | Bottom -> -m
      in
      Range (Finite lo, Finite m)
  | Range _, Range _ -> top

let shift_left a b =
  match (is_const b, a) with
  | Some s, Range (Finite l, Finite h) when s >= 0 && s < 31 ->
      Range (Finite (l lsl s), Finite (h lsl s))
  | _, Bottom -> Bottom
  | _, Range _ -> top

let shift_right_logical a b =
  match (is_const b, a) with
  | Some s, Range (Finite l, Finite h) when s >= 0 && s < 31 && l >= 0 ->
      Range (Finite (l lsr s), Finite (h lsr s))
  | _, Bottom -> Bottom
  | _, Range _ -> top

let nonneg_bits = function
  | Range (Finite l, Finite h) when l >= 0 -> Some h
  | Range _ | Bottom -> None

let logical_and a b =
  match (a, b) with
  | Bottom, _ | _, Bottom -> Bottom
  | _ -> (
      match (nonneg_bits a, nonneg_bits b) with
      | Some ha, Some hb -> Range (Finite 0, Finite (min ha hb))
      | _ -> top)

let logical_or a b =
  match (a, b) with
  | Bottom, _ | _, Bottom -> Bottom
  | _ -> (
      match (nonneg_bits a, nonneg_bits b) with
      | Some ha, Some hb ->
          (* Result < next power of two above max operand. *)
          let m = max ha hb in
          let rec pow2 p = if p > m then p else pow2 (p * 2) in
          Range (Finite 0, Finite (pow2 1 - 1))
      | _ -> top)

let logical_xor = logical_or

let slt a b =
  match (a, b) with
  | Bottom, _ | _, Bottom -> Bottom
  | Range (l1, h1), Range (l2, h2) ->
      (* always <: h1 < l2; never <: l1 >= h2 *)
      let lt_always =
        match (h1, l2) with
        | Finite x, Finite y -> x < y
        | Neg_inf, _ | _, Pos_inf -> true
        | Pos_inf, _ | _, Neg_inf -> false
      in
      let lt_never =
        match (l1, h2) with
        | Finite x, Finite y -> x >= y
        | Pos_inf, _ | _, Neg_inf -> true
        | Neg_inf, _ | _, Pos_inf -> false
      in
      if lt_always then const 1
      else if lt_never then const 0
      else range 0 1

let bound_pred = function
  | Finite x -> Finite (x - 1)
  | (Neg_inf | Pos_inf) as b -> b

let bound_succ = function
  | Finite x -> Finite (x + 1)
  | (Neg_inf | Pos_inf) as b -> b

let refine_eq a b = (meet a b, meet a b)

let refine_ne a b =
  (* Only sharpen when the other side is a constant at an endpoint. *)
  let drop x other =
    match (x, is_const other) with
    | Bottom, _ | _, None -> x
    | Range (lo, hi), Some c ->
        if lo = Finite c then of_bounds (bound_succ lo) hi
        else if hi = Finite c then of_bounds lo (bound_pred hi)
        else x
  in
  (drop a b, drop b a)

(* [of_bounds lo hi], or [t] itself when it has exactly these bounds. *)
let reuse t lo hi =
  match t with
  | Range (l, h) when l == lo && h == hi -> t
  | Range _ | Bottom -> of_bounds lo hi

let refine_lt a b =
  match (a, b) with
  | Bottom, _ | _, Bottom -> (Bottom, Bottom)
  | Range (l1, h1), Range (l2, h2) ->
      (* a < b: a <= h2 - 1, b >= l1 + 1 *)
      (reuse a l1 (bound_min h1 (bound_pred h2)),
       reuse b (bound_max l2 (bound_succ l1)) h2)

let refine_ge a b =
  match (a, b) with
  | Bottom, _ | _, Bottom -> (Bottom, Bottom)
  | Range (l1, h1), Range (l2, h2) ->
      (* a >= b: a >= l2, b <= h1 *)
      (reuse a (bound_max l1 l2) h1, reuse b l2 (bound_min h2 h1))

let bound_to_string = function
  | Neg_inf -> "-inf"
  | Pos_inf -> "+inf"
  | Finite x -> string_of_int x

let to_string = function
  | Bottom -> "_|_"
  | Range (lo, hi) ->
      Printf.sprintf "[%s,%s]" (bound_to_string lo) (bound_to_string hi)

let pp ppf t = Format.pp_print_string ppf (to_string t)
