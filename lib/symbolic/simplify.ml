(** Expression-level simplification passes.

    These implement the discretization layer's "terms are simplified
    individually by expansion or factoring" step (paper §3.3): polynomial
    expansion, collection of common factors, constant folding after
    compile-time parameter substitution, and a cheap cost model used to pick
    the better of the expanded / factored forms. *)

open Expr

(** Distribute products over sums and expand positive integer powers of
    sums.  Negative powers and function arguments are left in place.

    Distribution is budgeted: a product (or power) whose expansion would
    produce more than [budget] terms is left in factored form, so expansion
    of deeply nested interface terms cannot blow up. *)
(* Distribute a product of two already-expanded operands. *)
let distribute_pair a b =
  match (a, b) with
  | Add ts, Add us -> add (List.concat_map (fun t -> List.map (fun u -> mul [ t; u ]) us) ts)
  | Add ts, u | u, Add ts -> add (List.map (fun t -> mul [ t; u ]) ts)
  | a, b -> mul [ a; b ]

let rec expand ?(budget = 256) e =
  let expand_b = expand ~budget in
  let n_terms = function Add ts -> List.length ts | _ -> 1 in
  match e with
  | Num _ | Sym _ | Coord _ | Access _ | Rand _ -> e
  | Diff (x, d) -> spatial_diff (expand_b x) d
  | Add xs -> add (List.map expand_b xs)
  | Mul xs ->
    let xs = List.map expand_b xs in
    (* early-capped product of term counts: avoids overflow and blow-up *)
    let total =
      List.fold_left (fun acc x -> if acc > budget then acc else acc * n_terms x) 1 xs
    in
    if total > budget then mul xs
    else (match xs with [] -> one | x :: rest -> List.fold_left distribute_pair x rest)
  | Pow (b, n) when n > 1 -> (
    match expand_b b with
    | Add ts as eb ->
      let rec grow acc k =
        if acc > budget || k = 0 then acc else grow (acc * List.length ts) (k - 1)
      in
      if grow 1 n > budget then pow eb n
      else
        (* operands are already expanded: plain repeated distribution *)
        let rec power acc k = if k = 0 then acc else power (distribute_pair acc eb) (k - 1) in
        power one n
    | eb -> pow eb n)
  | Pow (b, n) -> pow (expand_b b) n
  | Fun (f, xs) -> fn f (List.map expand_b xs)
  | Select (c, t, f) ->
    let ec =
      match c with
      | Lt (a, b) -> Lt (expand_b a, expand_b b)
      | Le (a, b) -> Le (expand_b a, expand_b b)
    in
    select ec (expand_b t) (expand_b f)

(* Multiset intersection of factor lists (base, exp) with positive exps. *)
let factor_list t =
  match t with
  | Mul fs -> List.map as_factor fs
  | t -> [ as_factor t ]

let common_factors terms =
  match List.map factor_list terms with
  | [] -> []
  | first :: rest ->
    List.fold_left
      (fun common fs ->
        List.filter_map
          (fun (b, n) ->
            match List.find_opt (fun (b', _) -> equal b b') fs with
            | Some (_, n') when (n > 0) = (n' > 0) ->
              let m = if n > 0 then min n n' else max n n' in
              if m = 0 then None else Some (b, m)
            | _ -> None)
          common)
      first rest

(* Per-call memo tables for [factor_common] and [cost], keyed on structural
   equality.  [expand] returns a DAG whose subterms are physically shared;
   walked as a tree it can be thousands of times larger than its node set.
   Both functions are pure in the term's structure, so a hit is exact, and
   [Expr.equal] (Stdlib.compare) returns at once on physically equal
   values, so a shared subterm is looked up in O(1).  A key on [==] would
   miss the structurally equal copies of unshared terms, which then pile up
   in one hash bucket. *)
module Memo = Hashtbl.Make (struct
  type t = Expr.t

  let equal = equal
  let hash = Hashtbl.hash
end)

let memoize f =
  let memo = Memo.create 256 in
  let rec go e =
    match Memo.find_opt memo e with
    | Some r -> r
    | None ->
      let r = f go e in
      Memo.add memo e r;
      r
  in
  go

(** Factor out the greatest common monomial of a sum:
    [a*x*y + b*x*z] becomes [x*(a*y + b*z)].  Applied recursively. *)
let factor_common e =
  memoize
    (fun factor_common -> function
      | Add xs -> (
        let xs = List.map factor_common xs in
        let common = List.filter (fun (b, _) -> not (is_num b)) (common_factors xs) in
        match common with
        | [] -> add xs
        | common ->
          let g = mul (List.map (fun (b, n) -> pow b n) common) in
          let reduced = List.map (fun t -> factor_common (div t g)) xs in
          mul [ g; add reduced ])
      | Mul xs -> mul (List.map factor_common xs)
      | Pow (b, n) -> pow (factor_common b) n
      | Fun (f, xs) -> fn f (List.map factor_common xs)
      | Diff (x, d) -> Diff (factor_common x, d)
      | Select (c, t, f) -> select c (factor_common t) (factor_common f)
      | e -> e)
    e

(* Cost of one node, children excluded. *)
let node_cost = function
  | Add xs -> List.length xs - 1
  | Mul xs -> List.length xs - 1
  | Pow (_, n) -> if n < 0 then 16 + abs n - 1 else n - 1
  | Fun (Sqrt, _) -> 10
  | Fun (Rsqrt, _) -> 2
  | Fun ((Exp | Log | Sin | Cos | Tanh), _) -> 20
  | Fun ((Fabs | Fmin | Fmax), _) -> 1
  | Select _ -> 1
  | _ -> 0

(** Abstract operation cost used to pick between rewritten forms; division
    and square roots are weighted like the paper's normalized FLOPs.  The
    cost is that of the term as a tree: a shared subterm counts once per
    occurrence. *)
let cost e =
  memoize
    (fun cost e -> List.fold_left (fun acc x -> acc + cost x) (node_cost e) (children e))
    e

(* Terms with more nodes than this are not expanded: distribution would
   blow up. *)
let expand_limit = 1500

(** Try both expansion and factoring and keep the cheaper form — the
    discretization layer's per-term simplification strategy.  Expansion is
    skipped for very large terms where distribution would blow up. *)
let simplify_term e =
  let candidates =
    if count_nodes e > expand_limit then [ e; factor_common e ]
    else
      let x = expand e in
      [ e; x; factor_common e; factor_common x ]
  in
  let scored = List.map (fun c -> (c, cost c)) candidates in
  fst
    (List.fold_left
       (fun (best, cb) (c, cc) -> if cc < cb then (c, cc) else (best, cb))
       (List.hd scored) scored)

(** Substitute fixed model parameters by their numeric values and re-run the
    smart constructors, folding constants throughout ("the symbolic
    parameters which remain fixed during a simulation run are substituted by
    numeric values", §3.3). *)
let freeze_parameters bindings e = subst_syms (List.map (fun (s, v) -> (s, num v)) bindings) e
