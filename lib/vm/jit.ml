(** Kernel programs: the one portable executor and its native tier.

    Each post-CSE IR instruction is compiled once into a flat
    three-address program over a single SSA slot array (the Petalisp
    kernel-compiler idiom: compile the innermost body once, reuse it under
    the outer loops).  Per instruction the compiler emits a tape segment —
    packed [op, dst, a, b] quads into an int array — and per loop depth
    the segments are fused into one tape executed by a single dispatch
    loop, so a cell costs one indirect call per depth group instead of one
    per expression node.

    Two tiers, one per engine backend.  [compile] builds the portable
    *tape* program, which [Engine.bind] keeps on every bound kernel and
    [--backend interp] runs.  [get] adds the *native* step on top
    ([native]: the same tape retranslated to OCaml and dynlinked, see
    [Jit_native]) and memoizes the result; [--backend jit] runs that.  Only
    [get] touches the memo [cache] and its [cache_stats].

    Slot-array layout (all compile-time indices):

    {v
      [0 .. nc)                 interned literal constants (0.0 and 1.0
                                always present: fold seeds, Pow/Rsqrt)
      [nc .. nc+np)             kernel parameters, Kernel.parameters order
      [nc+np .. nc+np+nt)       SSA temporaries, definition order
      [nc+np+nt .. n_slots)     expression scratch, reset per instruction
    v}

    Arithmetic contract: n-ary [Add]/[Mul] associate left to right (2-
    and 3-ary as plain chains, larger folds seeded from 0.0 / 1.0), [Pow]
    is repeated multiplication with [1 /. p] for negative exponents,
    [Rsqrt] is [1.0 /. sqrt], and [c_fmin]/[c_fmax] are NaN-aware.
    [Select] evaluates both branches before selecting.  Expressions are
    pure (stores happen only at the assignment root and [Rand] is
    counter-based Philox), so the extra evaluation cannot perturb any
    observable value.  Oracle 2 holds the tape to [Eval]; oracle 8 holds
    the native tier to the tape, bit for bit.

    Programs never capture buffer storage: [Buffer.swap] swaps the [data]
    fields under us between sweeps, so field operands are indices into a
    per-sweep [datas] table resolved by the engine.  A program depends
    only on (kernel structure, loop order, interior dims, ghost width) —
    that tuple is [get]'s memo key, so every block of a forest with equal
    dims shares one native compilation. *)

open Symbolic
open Field

(* ------------------------------------------------------------------ *)
(* Runtime state and tape execution                                    *)
(* ------------------------------------------------------------------ *)

type st = {
  slots : float array;            (** the SSA slot array *)
  datas : float array array;      (** field storage, by operand-table index *)
  mutable base : int;             (** linear index of the current cell *)
  mutable cx : int;               (** global cell coordinates *)
  mutable cy : int;
  mutable cz : int;
  step : int;                     (** time step, keys the Philox streams *)
  dx : float;
  gd0 : int;                      (** global dims, for the Philox cell id *)
  gd1 : int;
}

type instr = st -> unit

(* Opcodes.  A quad is [op; dst; a; b]; [Select] carries a second quad
   [op_arg; 0; then_slot; else_slot] that the dispatch loop consumes
   together with the first. *)
let op_add = 0
let op_mul = 1
let op_div = 2
let op_mov = 3
let op_load = 4   (* dst <- datas.(a).(base + b) *)
let op_store = 5  (* datas.(a).(base + b) <- slots.(dst) *)
let op_coord = 6  (* dst <- (float coord_a + 0.5) * dx *)
let op_rand = 7   (* dst <- philox (cell, step, slot a) *)
let op_sqrt = 8
let op_exp = 9
let op_log = 10
let op_sin = 11
let op_cos = 12
let op_tanh = 13
let op_fabs = 14
let op_fmin = 15
let op_fmax = 16
let op_sellt = 17
let op_selle = 18
let op_arg = 19

let exec_tape (tape : int array) (st : st) =
  let v = st.slots in
  let n = Array.length tape in
  let i = ref 0 in
  while !i < n do
    let o = !i in
    let op = Array.unsafe_get tape o in
    let dst = Array.unsafe_get tape (o + 1) in
    let a = Array.unsafe_get tape (o + 2) in
    let b = Array.unsafe_get tape (o + 3) in
    (match op with
    | 0 -> Array.unsafe_set v dst (Array.unsafe_get v a +. Array.unsafe_get v b)
    | 1 -> Array.unsafe_set v dst (Array.unsafe_get v a *. Array.unsafe_get v b)
    | 2 -> Array.unsafe_set v dst (Array.unsafe_get v a /. Array.unsafe_get v b)
    | 3 -> Array.unsafe_set v dst (Array.unsafe_get v a)
    | 4 ->
      Array.unsafe_set v dst
        (Array.unsafe_get (Array.unsafe_get st.datas a) (st.base + b))
    | 5 ->
      Array.unsafe_set (Array.unsafe_get st.datas a) (st.base + b) (Array.unsafe_get v dst)
    | 6 ->
      let g = match a with 0 -> st.cx | 1 -> st.cy | _ -> st.cz in
      Array.unsafe_set v dst ((float_of_int g +. 0.5) *. st.dx)
    | 7 ->
      let cell = ((st.cz * st.gd1) + st.cy) * st.gd0 + st.cx in
      Array.unsafe_set v dst (Philox.symmetric ~cell ~step:st.step ~slot:a)
    | 8 -> Array.unsafe_set v dst (sqrt (Array.unsafe_get v a))
    | 9 -> Array.unsafe_set v dst (exp (Array.unsafe_get v a))
    | 10 -> Array.unsafe_set v dst (log (Array.unsafe_get v a))
    | 11 -> Array.unsafe_set v dst (sin (Array.unsafe_get v a))
    | 12 -> Array.unsafe_set v dst (cos (Array.unsafe_get v a))
    | 13 -> Array.unsafe_set v dst (tanh (Array.unsafe_get v a))
    | 14 -> Array.unsafe_set v dst (abs_float (Array.unsafe_get v a))
    | 15 ->
      Array.unsafe_set v dst (Expr.c_fmin (Array.unsafe_get v a) (Array.unsafe_get v b))
    | 16 ->
      Array.unsafe_set v dst (Expr.c_fmax (Array.unsafe_get v a) (Array.unsafe_get v b))
    | 17 ->
      let t = Array.unsafe_get tape (o + 6) and f = Array.unsafe_get tape (o + 7) in
      Array.unsafe_set v dst
        (if Array.unsafe_get v a < Array.unsafe_get v b then Array.unsafe_get v t
         else Array.unsafe_get v f);
      i := o + 4 (* consume the op_arg quad *)
    | 18 ->
      let t = Array.unsafe_get tape (o + 6) and f = Array.unsafe_get tape (o + 7) in
      Array.unsafe_set v dst
        (if Array.unsafe_get v a <= Array.unsafe_get v b then Array.unsafe_get v t
         else Array.unsafe_get v f);
      i := o + 4
    | _ -> ());
    i := !i + 4
  done

(* ------------------------------------------------------------------ *)
(* Compilation                                                         *)
(* ------------------------------------------------------------------ *)

(* A tape under construction.  The layout pass emits into an empty
   [quads] and only counts; the final pass emits into a tape allocated at
   the counted length.  Each tape is allocated once, at its final size,
   which keeps peak memory flat where many kernels are bound. *)
type emitbuf = { quads : int array; mutable len : int }

let push4 b op dst a c =
  if b.len < Array.length b.quads then begin
    b.quads.(b.len) <- op;
    b.quads.(b.len + 1) <- dst;
    b.quads.(b.len + 2) <- a;
    b.quads.(b.len + 3) <- c
  end;
  b.len <- b.len + 4

(* Compile-time state.  Compilation runs in two passes over the same
   emitter: pass 1 only to count interned constants, the scratch
   high-water mark and each tape's length, pass 2 with the final layout.
   Both passes traverse identically, so ordinals and lengths agree. *)
type cs = {
  const_tbl : (int64, int) Hashtbl.t;  (* float bits -> ordinal *)
  mutable rev_consts : float list;
  mutable n_consts : int;
  const_base : int;
  param_base : int;
  temp_base : int;
  scratch_base : int;
  mutable scratch : int;
  mutable max_scratch : int;
  param_tbl : (string, int) Hashtbl.t;
  temp_tbl : (string, int) Hashtbl.t;
  mutable fields : Fieldspec.t list;   (* operand table, first-use order *)
  stride : int array;
  comp_stride : int;
}

let const_slot cs x =
  let bits = Int64.bits_of_float x in
  match Hashtbl.find_opt cs.const_tbl bits with
  | Some i -> cs.const_base + i
  | None ->
    let i = cs.n_consts in
    Hashtbl.replace cs.const_tbl bits i;
    cs.rev_consts <- x :: cs.rev_consts;
    cs.n_consts <- i + 1;
    cs.const_base + i

let fresh cs =
  let s = cs.scratch in
  cs.scratch <- s + 1;
  if cs.scratch - cs.scratch_base > cs.max_scratch then
    cs.max_scratch <- cs.scratch - cs.scratch_base;
  s

let field_index cs (f : Fieldspec.t) =
  let rec go i = function
    | [] ->
      cs.fields <- cs.fields @ [ f ];
      i
    | g :: rest -> if Fieldspec.equal f g then i else go (i + 1) rest
  in
  go 0 cs.fields

(* Element delta of a relative access — [Buffer.access_delta] recomputed
   from (dims, ghost) alone, valid for every buffer of a block because all
   of them share padded dims (the shared-dims invariant). *)
let delta_of cs (a : Fieldspec.access) =
  let comp =
    if a.Fieldspec.face_axis >= 0 then
      (a.Fieldspec.component * a.Fieldspec.field.Fieldspec.dim) + a.Fieldspec.face_axis
    else a.Fieldspec.component
  in
  let d = ref (comp * cs.comp_stride) in
  Array.iteri (fun ax o -> d := !d + (o * cs.stride.(ax))) a.Fieldspec.offsets;
  !d

(* Emit code for [e]; the value ends up in the returned slot.  [?dst]
   requests that a compound root write its result directly into that slot
   (used so a temporary's defining instruction needs no trailing move);
   leaves ignore it and return their fixed slot. *)
let rec emit ?dst cs b (e : Expr.t) : int =
  let into () = match dst with Some s -> s | None -> fresh cs in
  let bin op x y =
    let sx = emit cs b x in
    let sy = emit cs b y in
    let d = into () in
    push4 b op d sx sy;
    d
  in
  (* left fold [acc op x1 op x2 ...] starting from slot [acc], for n-ary
     Add/Mul *)
  let chain op acc xs =
    let rec go acc = function
      | [] -> acc
      | [ x ] ->
        let s = emit cs b x in
        let d = into () in
        push4 b op d acc s;
        d
      | x :: rest ->
        let s = emit cs b x in
        let d = fresh cs in
        push4 b op d acc s;
        go d rest
    in
    go acc xs
  in
  match e with
  | Expr.Num x -> const_slot cs x
  | Expr.Sym s -> (
    match Hashtbl.find_opt cs.temp_tbl s with
    | Some i -> cs.temp_base + i
    | None -> (
      match Hashtbl.find_opt cs.param_tbl s with
      | Some i -> cs.param_base + i
      | None -> invalid_arg ("Jit.compile: unbound symbol " ^ s)))
  | Expr.Coord d ->
    let dst = into () in
    push4 b op_coord dst d 0;
    dst
  | Expr.Access a ->
    let bi = field_index cs a.Fieldspec.field in
    let delta = delta_of cs a in
    let dst = into () in
    push4 b op_load dst bi delta;
    dst
  | Expr.Rand slot ->
    let dst = into () in
    push4 b op_rand dst slot 0;
    dst
  | Expr.Diff _ -> invalid_arg "Jit.compile: Diff survived discretization"
  | Expr.Add [ x; y ] -> bin op_add x y
  | Expr.Add [ x; y; z ] ->
    let sx = emit cs b x in
    let sy = emit cs b y in
    let t = fresh cs in
    push4 b op_add t sx sy;
    let sz = emit cs b z in
    let d = into () in
    push4 b op_add d t sz;
    d
  | Expr.Add xs -> chain op_add (const_slot cs 0.) xs
  | Expr.Mul [ x; y ] -> bin op_mul x y
  | Expr.Mul [ x; y; z ] ->
    let sx = emit cs b x in
    let sy = emit cs b y in
    let t = fresh cs in
    push4 b op_mul t sx sy;
    let sz = emit cs b z in
    let d = into () in
    push4 b op_mul d t sz;
    d
  | Expr.Mul xs -> chain op_mul (const_slot cs 1.) xs
  | Expr.Pow (x, 2) ->
    let s = emit cs b x in
    let d = into () in
    push4 b op_mul d s s;
    d
  | Expr.Pow (x, -1) ->
    let s = emit cs b x in
    let one = const_slot cs 1. in
    let d = into () in
    push4 b op_div d one s;
    d
  | Expr.Pow (x, -2) ->
    let s = emit cs b x in
    let t = fresh cs in
    push4 b op_mul t s s;
    let one = const_slot cs 1. in
    let d = into () in
    push4 b op_div d one t;
    d
  | Expr.Pow (x, n) ->
    (* repeated multiply: p = 1*v*v*...; negative exponents finish
       with 1/p *)
    let s = emit cs b x in
    let one = const_slot cs 1. in
    let m = abs n in
    let p = ref one in
    for k = 1 to m do
      let d = if k = m && n >= 0 then into () else fresh cs in
      push4 b op_mul d !p s;
      p := d
    done;
    if n < 0 then begin
      let d = into () in
      push4 b op_div d one !p;
      d
    end
    else !p
  | Expr.Fun (Expr.Rsqrt, [ x ]) ->
    let s = emit cs b x in
    let t = fresh cs in
    push4 b op_sqrt t s 0;
    let one = const_slot cs 1. in
    let d = into () in
    push4 b op_div d one t;
    d
  | Expr.Fun (f, [ x ]) ->
    let op =
      match f with
      | Expr.Sqrt -> op_sqrt
      | Expr.Exp -> op_exp
      | Expr.Log -> op_log
      | Expr.Sin -> op_sin
      | Expr.Cos -> op_cos
      | Expr.Fabs -> op_fabs
      | Expr.Tanh -> op_tanh
      | Expr.Rsqrt -> assert false
      | Expr.Fmin | Expr.Fmax -> invalid_arg "Jit.compile: unary min/max"
    in
    let s = emit cs b x in
    let d = into () in
    push4 b op d s 0;
    d
  | Expr.Fun (Expr.Fmin, [ x; y ]) -> bin op_fmin x y
  | Expr.Fun (Expr.Fmax, [ x; y ]) -> bin op_fmax x y
  | Expr.Fun _ -> invalid_arg "Jit.compile: bad function arity"
  | Expr.Select (cond, t, f) ->
    let ca, cb, opc =
      match cond with
      | Expr.Lt (x, y) ->
        let sx = emit cs b x in
        (sx, emit cs b y, op_sellt)
      | Expr.Le (x, y) ->
        let sx = emit cs b x in
        (sx, emit cs b y, op_selle)
    in
    let st_ = emit cs b t in
    let sf = emit cs b f in
    let d = into () in
    push4 b opc d ca cb;
    push4 b op_arg 0 st_ sf;
    d

(* One IR instruction -> one tape segment appended to [b].  Scratch slots
   are recycled across instructions (temporaries and constants have
   dedicated slots, so nothing live survives in scratch). *)
let emit_instruction cs b (a : Assignment.t) =
  cs.scratch <- cs.scratch_base;
  match a.Assignment.lhs with
  | Assignment.Temp s ->
    let slot = cs.temp_base + Hashtbl.find cs.temp_tbl s in
    let v = emit ~dst:slot cs b a.Assignment.rhs in
    if v <> slot then push4 b op_mov slot v 0
  | Assignment.Store acc ->
    let v = emit cs b a.Assignment.rhs in
    let bi = field_index cs acc.Fieldspec.field in
    push4 b op_store v bi (delta_of cs acc)

let emit_group cs ~len instrs =
  let b = { quads = Array.make len 0; len = 0 } in
  List.iter (emit_instruction cs b) instrs;
  b

(* ------------------------------------------------------------------ *)
(* Native code generation (tape -> OCaml source)                       *)
(* ------------------------------------------------------------------ *)

(* The tape caps out near 3 ns per quad: every operation pays dispatch
   plus two slot-array loads and a store, and the big generated kernels
   (P1 phi-full is ~1100 quads per cell of almost pure add/mul) pay it
   per cell.  The native tier therefore retranslates each tape into OCaml
   source in which every slot write becomes a fresh [let]-bound local —
   the SSA form ocamlopt register-allocates — and [Jit_native] compiles
   and dynlinks it.  The translation is quad-by-quad off the *same* tape,
   so evaluation order and therefore bits are identical to the tape tier
   by construction.

   Group protocol: one function per loop-depth group over the same state
   the tape sees, [slots datas base cx cy cz step dx gd0 gd1].  A group
   longer than [chunk_quads] is printed as a chain of chunk functions run
   in tape order, because ocamlopt's graph-colouring register allocator
   is superlinear in function length (P1 mu-full's 1968-quad body spent
   1.9 s of a 2.1 s compile in [regalloc] as one function).  Within a
   chunk, slot reads bind the
   array element once, on first use, and writes stay in locals.  A value
   crosses a chunk boundary through the slot array: a definition that a
   later chunk reads is stored to its slot right after its [let]
   (store-at-definition).  Temporaries of a hoisted (non-body) group are
   read by the deeper groups, so there every temporary's last definition
   counts as read after the group's end and is stored the same way.
   Storing at the definition, not at the chunk's end, keeps each live
   range as short as the tape made it. *)

(** Most quads in one native chunk function.  Measured on P1
    (EXPERIMENTS.md, "Chunked native kernels"): 256 brings mu-full's
    compile from ~2 s to ~0.3 s with warm steps unchanged; 128 made warm
    mu-full sweeps ~5% slower, 384 compiled slower for no measurable
    gain. *)
let chunk_quads = 256

let native_sig =
  "float array -> float array array -> int -> int -> int -> int -> int -> float -> \
   int -> int -> unit"

type native_group =
  float array ->
  float array array ->
  int -> int -> int -> int -> int -> float -> int -> int -> unit

let float_lit x =
  if Float.is_nan x then "nan"
  else if x = infinity then "infinity"
  else if x = neg_infinity then "neg_infinity"
  else Printf.sprintf "(%h)" x

(* Exact replicas of the runtime helpers the generated module cannot
   link against: NaN-aware min/max (Expr.c_fmin/c_fmax) and the
   Philox-4x32-10 generator (Philox.symmetric) — same integer ops, same
   bits. *)
let helpers_prelude = {|
let c_fmin a b =
  if Float.is_nan a then b else if Float.is_nan b then a else if a <= b then a else b
let c_fmax a b =
  if Float.is_nan a then b else if Float.is_nan b then a else if a >= b then a else b
|}

let philox_prelude = {|
let mask32 = 0xFFFFFFFF
let mulhilo m x =
  let p = Int64.mul m (Int64.of_int (x land mask32)) in
  (Int64.to_int (Int64.shift_right_logical p 32) land mask32, Int64.to_int p land mask32)
let philox_symmetric cell step slot =
  let rec go n c0 c1 c2 c3 k0 k1 =
    if n = 0 then (c0, c1)
    else
      let hi0, lo0 = mulhilo 0xD2511F53L c0 in
      let hi1, lo1 = mulhilo 0xCD9E8D57L c2 in
      go (n - 1)
        (hi1 lxor c1 lxor k0) lo1 (hi0 lxor c3 lxor k1) lo0
        ((k0 + 0x9E3779B9) land mask32) ((k1 + 0xBB67AE85) land mask32)
  in
  let c0, c1 =
    go 10 (cell land mask32) ((cell lsr 32) land mask32) (step land mask32)
      (slot land mask32) 0x5eed 0xC0FFEE
  in
  let bits = ((c0 land mask32) lsl 21) lor ((c1 land mask32) lsr 11) in
  (2. *. (float_of_int bits /. 9007199254740992.0)) -. 1.
|}

(* The slots quad [o] reads and the slot it defines ([-1]: none).  A
   [Select] quad also reads its [op_arg] quad's branches. *)
let quad_reads tape o =
  let a = tape.(o + 2) and b = tape.(o + 3) in
  match tape.(o) with
  | 0 | 1 | 2 | 15 | 16 -> [ a; b ]
  | 3 | 8 | 9 | 10 | 11 | 12 | 13 | 14 -> [ a ]
  | 5 -> [ tape.(o + 1) ]
  | 17 | 18 -> [ a; b; tape.(o + 6); tape.(o + 7) ]
  | _ -> []

let quad_def tape o = match tape.(o) with 5 | 19 -> -1 | _ -> tape.(o + 1)

(** Liveness of one group's tape, per defining quad: the quad of the
    definition's last read, [-1] if it is never read, or the quad count
    when it is live at the group's end — in a hoisted group, every
    temporary's last definition, which the deeper groups read.  A pass
    over the tape tracks each slot's reaching definition; constants
    ([< nc]) are literals and have none. *)
let last_reads ~nc ~temp_base ~scratch_base ~hoisted tape =
  let nq = Array.length tape / 4 in
  let last = Array.make nq (-1) in
  let reaching : (int, int) Hashtbl.t = Hashtbl.create 256 in
  for q = 0 to nq - 1 do
    let o = 4 * q in
    List.iter
      (fun k ->
        if k >= nc then
          match Hashtbl.find_opt reaching k with Some d -> last.(d) <- q | None -> ())
      (quad_reads tape o);
    let d = quad_def tape o in
    if d >= 0 then Hashtbl.replace reaching d q
  done;
  if hoisted then
    Hashtbl.iter (fun k d -> if k >= temp_base && k < scratch_base then last.(d) <- nq) reaching;
  last

(** Chunk start quads of a tape, given its [last_reads]: each chunk holds
    at most [chunk_quads] quads, and no cut separates a [Select] quad from
    its [op_arg] quad.  Within the last quarter of the budget, the cut
    goes where the fewest values are live across it (the latest such
    place on a tie): each such value costs a store and a reload per cell.
    A tape of at most [chunk_quads] quads is one chunk. *)
let chunk_starts tape last =
  let nq = Array.length tape / 4 in
  (* live.(p): definitions before quad p that are read at or after it *)
  let live = Array.make (nq + 1) 0 in
  Array.iteri
    (fun d r ->
      if r > d then begin
        live.(d + 1) <- live.(d + 1) + 1;
        if r < nq then live.(r + 1) <- live.(r + 1) - 1
      end)
    last;
  for p = 1 to nq do
    live.(p) <- live.(p) + live.(p - 1)
  done;
  let cuttable p =
    let op = tape.(4 * (p - 1)) in
    op <> op_sellt && op <> op_selle
  in
  let rec go start acc =
    if nq - start <= chunk_quads then List.rev (start :: acc)
    else begin
      let best = ref (-1) in
      for p = start + chunk_quads - (chunk_quads / 4) to start + chunk_quads do
        if cuttable p && (!best < 0 || live.(p) <= live.(!best)) then best := p
      done;
      go !best (start :: acc)
    end
  in
  Array.of_list (go 0 [])

(* The parameters of every group and chunk function.  The array types are
   spelled out: a chunk whose quads only move values would otherwise leave
   [slots] polymorphic, and ocamlopt would compile its accesses for a
   generic array. *)
let native_params =
  "(slots : float array) (datas : float array array) base cx cy cz step dx gd0 gd1"

let native_args = "slots datas base cx cy cz step dx gd0 gd1"

(* One function [name] over quads [lo, hi) of [tape], ending in a tail
   call of [next] on the same arguments when there is a next chunk.
   [cur] maps slot -> OCaml expression currently holding its value (a
   local name, or a literal for interned consts); a slot read before any
   write in this function is loaded from the slot array. *)
let native_chunk_source buf ~name ~next ~nc ~template ~stored tape ~lo ~hi =
  let cur : (int, string) Hashtbl.t = Hashtbl.create 64 in
  let dat : (int, string) Hashtbl.t = Hashtbl.create 8 in
  let fresh =
    let k = ref 0 in
    fun () ->
      incr k;
      Printf.sprintf "v%d" !k
  in
  let line fmt = Printf.ksprintf (fun s -> Stdlib.Buffer.add_string buf ("  " ^ s ^ "\n")) fmt in
  Stdlib.Buffer.add_string buf (Printf.sprintf "let %s %s =\n" name native_params);
  let read k =
    if k < nc then float_lit template.(k)
    else
      match Hashtbl.find_opt cur k with
      | Some e -> e
      | None ->
        let v = fresh () in
        line "let %s = Array.unsafe_get slots %d in" v k;
        Hashtbl.replace cur k v;
        v
  in
  let data bi =
    match Hashtbl.find_opt dat bi with
    | Some d -> d
    | None ->
      let d = Printf.sprintf "d%d" bi in
      line "let %s = Array.unsafe_get datas %d in" d bi;
      Hashtbl.replace dat bi d;
      d
  in
  (* bind slot [k]'s new value; store it when a later chunk reads it *)
  let define q k e =
    Hashtbl.replace cur k e;
    if stored.(q) then line "Array.unsafe_set slots %d %s;" k e
  in
  let write q k e =
    let v = fresh () in
    line "let %s = %s in" v e;
    define q k v
  in
  let q = ref lo in
  while !q < hi do
    let o = 4 * !q in
    let op = tape.(o) and dst = tape.(o + 1) and a = tape.(o + 2) and b = tape.(o + 3) in
    let w = write !q dst in
    (match op with
    | 0 ->
      let x = read a in
      let y = read b in
      w (Printf.sprintf "%s +. %s" x y)
    | 1 ->
      let x = read a in
      let y = read b in
      w (Printf.sprintf "%s *. %s" x y)
    | 2 ->
      let x = read a in
      let y = read b in
      w (Printf.sprintf "%s /. %s" x y)
    | 3 ->
      (* mov: alias — locals are immutable, the expression stays valid *)
      define !q dst (read a)
    | 4 -> w (Printf.sprintf "Array.unsafe_get %s (base + (%d))" (data a) b)
    | 5 ->
      let v = read dst in
      line "Array.unsafe_set %s (base + (%d)) %s;" (data a) b v
    | 6 ->
      let c = match a with 0 -> "cx" | 1 -> "cy" | _ -> "cz" in
      w (Printf.sprintf "(float_of_int %s +. 0.5) *. dx" c)
    | 7 -> w (Printf.sprintf "philox_symmetric ((((cz * gd1) + cy) * gd0) + cx) step %d" a)
    | 8 -> w (Printf.sprintf "sqrt %s" (read a))
    | 9 -> w (Printf.sprintf "exp %s" (read a))
    | 10 -> w (Printf.sprintf "log %s" (read a))
    | 11 -> w (Printf.sprintf "sin %s" (read a))
    | 12 -> w (Printf.sprintf "cos %s" (read a))
    | 13 -> w (Printf.sprintf "tanh %s" (read a))
    | 14 -> w (Printf.sprintf "abs_float %s" (read a))
    | 15 ->
      let x = read a in
      let y = read b in
      w (Printf.sprintf "c_fmin %s %s" x y)
    | 16 ->
      let x = read a in
      let y = read b in
      w (Printf.sprintf "c_fmax %s %s" x y)
    | 17 | 18 ->
      let x = read a in
      let y = read b in
      let t = read tape.(o + 6) in
      let f = read tape.(o + 7) in
      let cmp = if op = 17 then "<" else "<=" in
      w (Printf.sprintf "if %s %s %s then %s else %s" x cmp y t f);
      incr q
    | _ -> ());
    incr q
  done;
  (match next with Some n -> line "%s %s" n native_args | None -> line "()");
  Stdlib.Buffer.add_string buf "\n"

(* Group [name] over [tape]: one function when the tape fits one chunk,
   else chunk functions [name_0 .. name_k] printed last first, so that
   each ends in a tail call of the next, and [name] bound to [name_0].
   ocamlopt compiles a tail call to a jump with the arguments still in
   their registers; a wrapper calling the chunks in turn had to save and
   reload them around every call and measured a few percent slower on
   warm P1 sweeps (DESIGN.md §11). *)
let native_group_source buf ~name ~hoisted ~nc ~temp_base ~scratch_base ~template tape =
  let nq = Array.length tape / 4 in
  let last = last_reads ~nc ~temp_base ~scratch_base ~hoisted tape in
  let starts = chunk_starts tape last in
  let k = Array.length starts in
  let stop c = if c + 1 < k then starts.(c + 1) else nq in
  let chunk_of = Array.make (nq + 1) k in
  Array.iteri (fun c s -> Array.fill chunk_of s (stop c - s) c) starts;
  (* store-at-definition: the values a later chunk reads *)
  let stored = Array.mapi (fun d r -> r >= 0 && chunk_of.(r) > chunk_of.(d)) last in
  let chunk c ~name ~next =
    native_chunk_source buf ~name ~next ~nc ~template ~stored tape ~lo:starts.(c) ~hi:(stop c)
  in
  if k = 1 then chunk 0 ~name ~next:None
  else begin
    let names = Array.init k (Printf.sprintf "%s_%d" name) in
    for c = k - 1 downto 0 do
      chunk c ~name:names.(c) ~next:(if c + 1 < k then Some names.(c + 1) else None)
    done;
    Stdlib.Buffer.add_string buf (Printf.sprintf "let %s = %s\n\n" name names.(0))
  end

(** The complete generated module: helper preludes, one function per
    depth group (chunked, see [chunk_quads]), and an initializer that
    hands the group closures to the host by raising through [Dynlink]
    (see [Jit_native]). *)
let native_source ~nc ~temp_base ~scratch_base ~template tapes =
  let buf = Stdlib.Buffer.create 65536 in
  Stdlib.Buffer.add_string buf "(* generated by Vm.Jit — compiled at runtime, never stored *)\n";
  Stdlib.Buffer.add_string buf (Printf.sprintf "exception Handoff of (%s) array\n" native_sig);
  Stdlib.Buffer.add_string buf helpers_prelude;
  let has_rand tape =
    let n = Array.length tape in
    let rec go i = i < n && (tape.(i) = op_rand || go (i + 4)) in
    go 0
  in
  if Array.exists has_rand tapes then Stdlib.Buffer.add_string buf philox_prelude;
  let body = Array.length tapes - 1 in
  Array.iteri
    (fun g tape ->
      native_group_source buf ~name:(Printf.sprintf "g%d" g) ~hoisted:(g < body) ~nc
        ~temp_base ~scratch_base ~template tape)
    tapes;
  Stdlib.Buffer.add_string buf
    (Printf.sprintf "let () = raise (Handoff [| %s |])\n"
       (String.concat "; " (List.init (Array.length tapes) (Printf.sprintf "g%d"))));
  Stdlib.Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Compiled programs                                                   *)
(* ------------------------------------------------------------------ *)

type compiled = {
  dim : int;
  loop_order : int array;
  fields : Fieldspec.t array;  (** operand table; index = [datas] index *)
  param_names : string array;
  param_base : int;
  scratch_base : int;
  n_slots : int;
  template : float array;      (** constants preloaded, rest zero *)
  tapes : int array array;     (** depth-indexed tape segments *)
  groups : instr array;        (** depth-indexed: [groups.(d)] at depth d,
                                   [groups.(dim)] is the per-cell body *)
  stride : int array;
  ghost : int;
  native : bool;               (** groups are dynlinked machine code *)
  native_note : string;        (** "native", "tape", or why [native] fell
                                   back to the tape *)
}

(** Total tape quads, for introspection. *)
let n_ops (c : compiled) = Array.fold_left (fun acc t -> acc + (Array.length t / 4)) 0 c.tapes

let wrap_native (f : native_group) : instr =
 fun st -> f st.slots st.datas st.base st.cx st.cy st.cz st.step st.dx st.gd0 st.gd1

(** The tape step: the portable program for [kernel] on a block of
    [dims]/[ghost].  Not memoized — [Engine.bind] calls it once per bound
    kernel. *)
let compile ~dims ~ghost (kernel : Ir.Kernel.t) (lowered : Ir.Lower.t) =
  let dim = kernel.Ir.Kernel.dim in
  let padded = Array.map (fun n -> n + (2 * ghost)) dims in
  let stride = Array.make dim 1 in
  for d = 1 to dim - 1 do
    stride.(d) <- stride.(d - 1) * padded.(d - 1)
  done;
  let comp_stride = stride.(dim - 1) * padded.(dim - 1) in
  let temps = Assignment.defined_temps kernel.Ir.Kernel.body in
  let params = Ir.Kernel.parameters kernel in
  let np = List.length params and nt = List.length temps in
  let groups_src = Ir.Lower.groups lowered in
  let make_cs ~const_base ~param_base ~temp_base ~scratch_base =
    let param_tbl = Hashtbl.create 16 and temp_tbl = Hashtbl.create 64 in
    List.iteri (fun i s -> Hashtbl.replace param_tbl s i) params;
    List.iteri (fun i s -> Hashtbl.replace temp_tbl s i) temps;
    {
      const_tbl = Hashtbl.create 32;
      rev_consts = [];
      n_consts = 0;
      const_base;
      param_base;
      temp_base;
      scratch_base;
      scratch = scratch_base;
      max_scratch = 0;
      param_tbl;
      temp_tbl;
      fields = [];
      stride;
      comp_stride;
    }
  in
  (* pass 1: the final layout, except that the constants — whose count
     this pass discovers — sit below slot 0, so no two regions overlap and
     the pass emits exactly pass 2's moves; its tapes are only counted *)
  let cs1 = make_cs ~const_base:min_int ~param_base:0 ~temp_base:np ~scratch_base:(np + nt) in
  let lengths = Array.map (fun instrs -> (emit_group cs1 ~len:0 instrs).len) groups_src in
  let nc = cs1.n_consts in
  let scratch_base = nc + np + nt in
  let cs = make_cs ~const_base:0 ~param_base:nc ~temp_base:(nc + np) ~scratch_base in
  let tapes =
    Array.map2
      (fun len instrs ->
        let b = emit_group cs ~len instrs in
        assert (b.len = len);
        b.quads)
      lengths groups_src
  in
  assert (cs.n_consts = nc);
  let n_slots = max 1 (scratch_base + cs.max_scratch) in
  let template = Array.make n_slots 0. in
  List.iteri (fun i x -> template.(nc - 1 - i) <- x) cs.rev_consts;
  {
    dim;
    loop_order = lowered.Ir.Lower.loop_order;
    fields = Array.of_list cs.fields;
    param_names = Array.of_list params;
    param_base = nc;
    scratch_base;
    n_slots;
    template;
    tapes;
    groups = Array.map (fun tape -> fun st -> exec_tape tape st) tapes;
    stride;
    ghost;
    native = false;
    native_note = "tape";
  }

(** The native step: [c]'s tapes retranslated to let-bound OCaml and
    dynlinked.  Any failure keeps [c]'s tape groups, with the reason in
    [native_note]. *)
let native (c : compiled) =
  let loaded =
    if not (Jit_native.available ()) then Error "native tier unavailable"
    else
      let source =
        native_source ~nc:c.param_base
          ~temp_base:(c.param_base + Array.length c.param_names)
          ~scratch_base:c.scratch_base ~template:c.template c.tapes
      in
      match Jit_native.load ~modname:(Jit_native.fresh_modname ()) ~source with
      | Ok payload ->
        let fns : native_group array = Obj.magic payload in
        if Array.length fns = Array.length c.tapes then Ok fns
        else Error "native tier: group count mismatch"
      | Error reason -> Error reason
  in
  match loaded with
  | Ok fns ->
    { c with groups = Array.map wrap_native fns; native = true; native_note = "native" }
  | Error note -> { c with native_note = note }

(* ------------------------------------------------------------------ *)
(* Memo table                                                          *)
(* ------------------------------------------------------------------ *)

(* Structural fingerprint over everything the emitted code closes over:
   the full kernel body plus loop order, interior dims and ghost width.
   The body is digested via [Marshal] (the [Snapshot.fingerprint_of_params]
   idiom) rather than [Hashtbl.hash_param]: the hash traversal budget
   truncates large kernels, and model variants that differ only deep in
   the expression tree — the zoo's coefficient variants, for one — would
   collide and hand a program compiled for a *different* model back to
   the engine (bitwise divergence, caught by the oracle-8 zoo leg). *)
let fingerprint ~dims ~ghost (kernel : Ir.Kernel.t) (lowered : Ir.Lower.t) =
  Digest.string
    (Marshal.to_string
       ( kernel.Ir.Kernel.name,
         kernel.Ir.Kernel.dim,
         kernel.Ir.Kernel.ghost,
         kernel.Ir.Kernel.body,
         Array.to_list lowered.Ir.Lower.loop_order,
         Array.to_list dims,
         ghost )
       [])

let cache : (Digest.t, compiled) Hashtbl.t = Hashtbl.create 16
let hits = ref 0
let misses = ref 0

let cache_stats () = (!hits, !misses)

let clear_cache () =
  Hashtbl.reset cache;
  hits := 0;
  misses := 0

(* jit.* counters only fire when the sink is armed, so a disabled run
   registers no metrics (the disabled-sink silence invariant). *)
let count name = if Obs.Sink.enabled () then Obs.Metrics.incr (Obs.Metrics.counter name)

(** The native-tier program for [kernel] on a block of [dims]/[ghost]
    ([compile] then [native]) — memoized; the engine calls this once per
    [Jit] sweep, so [cache_stats] misses count native compilations and
    hits count reused sweeps (the zero-recompile-after-warmup gate watches
    the miss count). *)
let get ~dims ~ghost (kernel : Ir.Kernel.t) (lowered : Ir.Lower.t) =
  let fp = fingerprint ~dims ~ghost kernel lowered in
  match Hashtbl.find_opt cache fp with
  | Some c ->
    incr hits;
    count "jit.hit";
    c
  | None ->
    incr misses;
    count "jit.miss";
    let build () = native (compile ~dims ~ghost kernel lowered) in
    let c =
      if Obs.Sink.enabled () then Obs.Span.with_ ~cat:"vm" "vm.jit.compile" build
      else build ()
    in
    Hashtbl.replace cache fp c;
    c

(* ------------------------------------------------------------------ *)
(* Tile execution                                                      *)
(* ------------------------------------------------------------------ *)

let run_group (g : instr) st = g st

let base_index (c : compiled) coords =
  let idx = ref 0 in
  Array.iteri (fun d x -> idx := !idx + ((x + c.ghost) * c.stride.(d))) coords;
  !idx

(* The sweep skeletons, shared by both tiers: loops in the lowering's
   loop order, the depth groups run at the head of their loop, and a
   running base index steps along the innermost axis.  [lo]/[hi] are
   inclusive loop-depth bounds; a full sweep is the single tile spanning
   every range, cache blocking shrinks the outer depths. *)
let sweep3 (c : compiled) (st : st) ~offset ~(lo : int array) ~(hi : int array) =
  let a0 = c.loop_order.(0) and a1 = c.loop_order.(1) and a2 = c.loop_order.(2) in
  let g1 = c.groups.(1) and g2 = c.groups.(2) and body = c.groups.(3) in
  let stride2 = c.stride.(a2) in
  let coords = Array.make 3 0 in
  let set_coord ax v =
    coords.(ax) <- v;
    let g = v + offset.(ax) in
    match ax with 0 -> st.cx <- g | 1 -> st.cy <- g | _ -> st.cz <- g
  in
  for i0 = lo.(0) to hi.(0) do
    set_coord a0 i0;
    run_group g1 st;
    for i1 = lo.(1) to hi.(1) do
      set_coord a1 i1;
      run_group g2 st;
      set_coord a2 lo.(2);
      st.base <- base_index c coords;
      for i2 = lo.(2) to hi.(2) do
        set_coord a2 i2;
        run_group body st;
        st.base <- st.base + stride2
      done
    done
  done

let sweep2 (c : compiled) (st : st) ~offset ~(lo : int array) ~(hi : int array) =
  let a0 = c.loop_order.(0) and a1 = c.loop_order.(1) in
  let g1 = c.groups.(1) and body = c.groups.(2) in
  let stride1 = c.stride.(a1) in
  let coords = Array.make 2 0 in
  let set_coord ax v =
    coords.(ax) <- v;
    let g = v + offset.(ax) in
    match ax with 0 -> st.cx <- g | _ -> st.cy <- g
  in
  for i0 = lo.(0) to hi.(0) do
    set_coord a0 i0;
    run_group g1 st;
    set_coord a1 lo.(1);
    st.base <- base_index c coords;
    for i1 = lo.(1) to hi.(1) do
      set_coord a1 i1;
      run_group body st;
      st.base <- st.base + stride1
    done
  done

(** Execute one tile of the sweep.  [datas] is the per-sweep field storage
    table aligned with [compiled.fields] (resolved by the engine after any
    buffer swaps); [pvals] the parameter values in [param_names] order.
    Every tile runs on a fresh slot array, so pooled tiles share nothing
    but the (disjointly written) field storage. *)
let exec_tile (c : compiled) ~(datas : float array array) ~(pvals : float array) ~dx
    ~(offset : int array) ~(global_dims : int array) ~step ~lo ~hi =
  let slots = Array.copy c.template in
  Array.iteri (fun i v -> slots.(c.param_base + i) <- v) pvals;
  let st =
    {
      slots;
      datas;
      base = 0;
      cx = 0;
      cy = 0;
      cz = 0;
      step;
      dx;
      gd0 = global_dims.(0);
      gd1 = (if Array.length global_dims > 1 then global_dims.(1) else 1);
    }
  in
  run_group c.groups.(0) st;
  if c.dim = 3 then sweep3 c st ~offset ~lo ~hi else sweep2 c st ~offset ~lo ~hi
