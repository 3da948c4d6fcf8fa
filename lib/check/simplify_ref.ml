(** Tree-walking reference for [Simplify.cost], [Simplify.factor_common]
    and [Simplify.simplify_term].

    [Simplify] memoises both functions on structural keys so that the
    shared DAGs [expand] returns are walked once per distinct subterm.
    This module keeps the plain recursive definitions the memos replaced,
    the way [Eval] is the reference for the optimizer: oracle 1 checks that
    the memoised functions return structurally the same terms and costs.
    It is slow on expanded terms by design and is not used outside the
    checks. *)

open Symbolic
open Expr

let rec factor_common e =
  match e with
  | Add xs -> (
    let xs = List.map factor_common xs in
    let common = List.filter (fun (b, _) -> not (is_num b)) (Simplify.common_factors xs) in
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
  | e -> e

let cost e =
  fold
    (fun acc n ->
      acc
      +
      match n with
      | Add xs -> List.length xs - 1
      | Mul xs -> List.length xs - 1
      | Pow (_, n) -> if n < 0 then 16 + abs n - 1 else n - 1
      | Fun (Sqrt, _) -> 10
      | Fun (Rsqrt, _) -> 2
      | Fun ((Exp | Log | Sin | Cos | Tanh), _) -> 20
      | Fun ((Fabs | Fmin | Fmax), _) -> 1
      | Select _ -> 1
      | _ -> 0)
    0 e

let simplify_term e =
  let candidates =
    if count_nodes e > Simplify.expand_limit then [ e; factor_common e ]
    else [ e; Simplify.expand e; factor_common e; factor_common (Simplify.expand e) ]
  in
  List.fold_left (fun best c -> if cost c < cost best then c else best) e candidates
