(** Lowering to loop nests (paper §3.4).

    The assignment list is wrapped in a loop nest whose order follows the
    memory layout (innermost loop = fastest-varying coordinate, for spatial
    locality).  Assignments whose value is constant with respect to the
    inner loops are hoisted to the loop level at which they become
    computable.  In combination with CSE this automatically exploits special
    functional forms of the temperature: if T depends on one spatial
    coordinate only, that coordinate is chosen as the outermost loop and all
    temperature-dependent subexpressions move out of the inner loops. *)

open Symbolic
open Field

type t = {
  kernel : Kernel.t;
  loop_order : int array;  (** axes, outermost first; length = kernel.dim *)
  hoisted : Assignment.t list array;
      (** per depth 0..dim: depth 0 is the loop preheader, depth d sits just
          inside the d-th loop; depth dim is the innermost body prefix *)
  body : Assignment.t list;  (** stores and non-hoistable assignments *)
  blocking : int array option;  (** spatial blocking factors, layout order *)
}

module Axes = Set.Make (Int)

(* Spatial axes an expression's value depends on; [temp_axes] resolves
   already-classified temporaries. *)
let axis_dependence ~dim ~temp_axes e =
  let all = Axes.of_list (List.init dim Fun.id) in
  Expr.fold
    (fun acc node ->
      match node with
      | Expr.Access _ | Expr.Rand _ | Expr.Diff _ -> Axes.union acc all
      | Expr.Coord d -> Axes.add d acc
      | Expr.Sym s -> (
        match Hashtbl.find_opt temp_axes s with
        | Some axes -> Axes.union acc axes
        | None -> acc (* runtime parameter: loop invariant *))
      | _ -> acc)
    Axes.empty e

(** Pick the loop order: innermost = fastest memory axis; if some hoistable
    temporaries depend on exactly one (non-fastest) axis, that axis becomes
    the outermost loop so they are computed O(n) instead of O(n³) times. *)
let choose_loop_order ~dim ~fastest single_axis_deps =
  let default = Array.of_list (List.rev (List.init dim Fun.id)) in
  (* default: highest axis outermost, axis 0 (x, fastest) innermost *)
  let order = if fastest = 0 then default else Array.of_list (List.init dim Fun.id) in
  match List.find_opt (fun a -> a <> fastest) single_axis_deps with
  | None -> order
  | Some outer ->
    let rest = Array.to_list order |> List.filter (fun a -> a <> outer) in
    Array.of_list (outer :: rest)

let run ?(fastest = 0) ?blocking (kernel : Kernel.t) =
  let dim = kernel.dim in
  let temp_axes : (string, Axes.t) Hashtbl.t = Hashtbl.create 64 in
  (* first pass: classify each temporary's axis dependence *)
  let deps =
    List.map
      (fun (a : Assignment.t) ->
        let axes = axis_dependence ~dim ~temp_axes a.rhs in
        (match a.lhs with Assignment.Temp s -> Hashtbl.replace temp_axes s axes | _ -> ());
        (a, axes))
      kernel.body
  in
  let single_axis =
    List.filter_map
      (fun ((a : Assignment.t), axes) ->
        match (a.lhs, Axes.elements axes) with
        | Assignment.Temp _, [ ax ] -> Some ax
        | _ -> None)
      deps
    |> List.sort_uniq Stdlib.compare
  in
  let loop_order = choose_loop_order ~dim ~fastest single_axis in
  let depth_of_axis ax =
    let rec find i = if loop_order.(i) = ax then i + 1 else find (i + 1) in
    find 0
  in
  let hoisted = Array.make (dim + 1) [] in
  let body = ref [] in
  List.iter
    (fun ((a : Assignment.t), axes) ->
      match a.lhs with
      | Assignment.Store _ -> body := a :: !body
      | Assignment.Temp _ ->
        let depth = Axes.fold (fun ax acc -> max acc (depth_of_axis ax)) axes 0 in
        if depth >= dim then body := a :: !body
        else hoisted.(depth) <- a :: hoisted.(depth))
    deps;
  Array.iteri (fun i l -> hoisted.(i) <- List.rev l) hoisted;
  { kernel; loop_order; hoisted; body = List.rev !body; blocking }

(** Number of innermost-loop assignments saved per cell by hoisting. *)
let hoisted_count t = Array.fold_left (fun acc l -> acc + List.length l) 0 t.hoisted

(** Depth-indexed instruction view of the lowering: [groups.(d)] is the
    assignment list executed at loop depth [d] (0 = preheader, [d] inside
    the [d]-th loop of [loop_order]), and [groups.(dim)] is the per-cell
    body.  The VM's tape compiler ([Vm.Jit.compile]), which both VM
    backends run, consumes the lowering through this view. *)
let groups t =
  let dim = Array.length t.loop_order in
  Array.init (dim + 1) (fun d -> if d = dim then t.body else t.hoisted.(d))

let pp ppf t =
  Fmt.pf ppf "@[<v 2>lowered %s: loops %a, %d hoisted, %d in body@]" t.kernel.Kernel.name
    Fmt.(array ~sep:(any ",") int)
    t.loop_order (hoisted_count t) (List.length t.body)
