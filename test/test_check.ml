(* Differential verification: the lib/check oracle pairs as an alcotest
   suite, plus a mutation smoke-check that the harness actually catches and
   shrinks an injected optimizer bug.

   Sample counts stay small by default (PFGEN_QCHECK_COUNT scales them up;
   the @slow alias and `pfgen check` run the heavy configurations). *)

open Symbolic

let oracle_tests =
  List.map
    (QCheck_alcotest.to_alcotest ~verbose:false)
    (Check.Harness.tests ())

(* ------------------------------------------------------------------ *)
(* Mutation smoke-check                                                *)
(* ------------------------------------------------------------------ *)

(* A deliberately broken "simplifier" (x^2 -> x^3) run through the same
   oracle-1 machinery: the harness must fail the law and hand back a small,
   shrunk counterexample.  Guards the guard: if this stops failing, the
   oracle or the shrinker went blind. *)
let test_mutation_caught () =
  let broken _bindings e =
    Expr.map_bottom_up
      (function Expr.Pow (b, 2) -> Expr.mul [ b; b; b ] | node -> node)
      e
  in
  let cell =
    Check.Oracles.expr_transform_cell ~count:500 ~name:"mutated simplifier" broken
  in
  let result = QCheck.Test.check_cell ~rand:(Random.State.make [| 42 |]) cell in
  match QCheck.TestResult.get_state result with
  | QCheck.TestResult.Failed { instances = cex :: _ } ->
    let e, env = cex.QCheck.TestResult.instance in
    let size = Expr.count_nodes e in
    if size > 12 then
      Alcotest.failf "counterexample not minimized: %d nodes after %d shrink steps (%s)"
        size cex.QCheck.TestResult.shrink_steps (Expr.to_string e);
    Alcotest.(check bool)
      "shrinker ran" true
      (cex.QCheck.TestResult.shrink_steps > 0);
    ignore env
  | _ -> Alcotest.fail "injected x^2 -> x^3 bug was not caught by oracle 1"

(* A broken engine-level law must be caught too: flipping Fmin to Fmax in
   the transform side diverges on almost any sample. *)
let test_mutation_minmax_caught () =
  let broken _bindings e =
    Expr.map_bottom_up
      (function
        | Expr.Fun (Expr.Fmin, args) -> Expr.fn Expr.Fmax args | node -> node)
      e
  in
  let cell =
    Check.Oracles.expr_transform_cell ~count:1000 ~name:"mutated fmin" broken
  in
  let result = QCheck.Test.check_cell ~rand:(Random.State.make [| 7 |]) cell in
  match QCheck.TestResult.get_state result with
  | QCheck.TestResult.Failed _ -> ()
  | _ -> Alcotest.fail "injected fmin -> fmax bug was not caught by oracle 1"

(* ------------------------------------------------------------------ *)
(* Pinned oracle counterexamples                                       *)
(* ------------------------------------------------------------------ *)

(* The shrunk oracle-2 sample that [pfgen check --samples 100 --seed 2]
   used to fail on.  [rand_1**-2] reaches ~1e4 and [t0**3] ~1e12, where
   the engine's repeated multiply and [Eval]'s [**] differ in the last
   bit and [cos] turns that bit into a different value.  The sample is
   outside oracle 2's guard band, so the law accepts it vacuously. *)
let test_oracle2_pinned_pow () =
  let src = Fieldspec.create ~dim:2 ~components:3 "src" in
  let dst = Fieldspec.create ~dim:2 ~components:3 "dst" in
  let s =
    {
      Check.Gen.src;
      dst;
      body =
        [
          Field.Assignment.assign_temp "t0" (Expr.Pow (Expr.rand 1, -2));
          Field.Assignment.store
            (Fieldspec.center ~component:2 dst)
            (Expr.fn Expr.Cos [ Expr.Pow (Expr.sym "t0", 3) ]);
        ];
      params = [ ("alpha", 0.); ("beta", 0.); ("dx", 1.) ];
      seed = 301;
    }
  in
  Alcotest.(check bool) "sample leaves the guard band" true
    (Check.Oracles.run_interp s = None);
  Alcotest.(check bool) "oracle 2 accepts it" true (Check.Oracles.engine_matches_interp s)

(* ------------------------------------------------------------------ *)
(* Eval edge cases (divergences would leak into generated C)           *)
(* ------------------------------------------------------------------ *)

let feq = Alcotest.float 0.

(* Pow with negative exponent at base 0: Eval computes 1/(0^n) = inf, the
   C backend emits 1.0/pf_pow2(x) which is also inf — consistent. *)
let test_pow_negative_at_zero () =
  let env = Eval.env () in
  Alcotest.check feq "0^-2 = inf" Float.infinity
    (Eval.eval env (Expr.Pow (Expr.num 0., -2)));
  Alcotest.check feq "0^-1 = inf" Float.infinity
    (Eval.eval env (Expr.Pow (Expr.num 0., -1)));
  Alcotest.check feq "(-0)^-1 = -inf" Float.neg_infinity
    (Eval.eval env (Expr.Pow (Expr.num (-0.), -1)));
  (* the engine's repeated-multiply path must agree on the inf sign *)
  let dst = Fieldspec.scalar ~dim:2 "d" and src = Fieldspec.scalar ~dim:2 "s" in
  let body =
    [ Field.Assignment.store (Fieldspec.center dst)
        (Expr.Pow (Expr.field src, -3)) ]
  in
  let block = Vm.Engine.make_block ~ghost:1 ~dims:[| 2; 1 |] [ src; dst ] in
  let sbuf = Vm.Engine.buffer block src in
  Vm.Buffer.set sbuf [| 0; 0 |] 0.;
  Vm.Buffer.set sbuf [| 1; 0 |] (-0.);
  Vm.Engine.run ~params:[] (Vm.Engine.bind (Ir.Kernel.make ~name:"p" ~dim:2 body) block);
  let dbuf = Vm.Engine.buffer block dst in
  Alcotest.check feq "engine 0^-3" Float.infinity (Vm.Buffer.get dbuf [| 0; 0 |]);
  Alcotest.check feq "engine (-0)^-3" Float.neg_infinity (Vm.Buffer.get dbuf [| 1; 0 |])

(* Select boundary: Le takes the true branch at equality, Lt the false
   branch — matching the C backend's `<=` / `<` ternaries. *)
let test_select_boundary () =
  let env = Eval.env ~sym:(fun _ -> 1.) () in
  let a = Expr.sym "a" and b = Expr.sym "b" in
  let sel c = Eval.eval env (Expr.Select (c, Expr.num 10., Expr.num 20.)) in
  Alcotest.check feq "a <= b at equality -> true branch" 10. (sel (Expr.Le (a, b)));
  Alcotest.check feq "a < b at equality -> false branch" 20. (sel (Expr.Lt (a, b)));
  (* the smart constructor must fold numeric boundaries the same way *)
  Alcotest.check
    (Alcotest.testable Expr.pp Expr.equal)
    "select folds Le boundary" (Expr.num 10.)
    (Expr.select (Expr.Le (Expr.num 2., Expr.num 2.)) (Expr.num 10.) (Expr.num 20.));
  Alcotest.check
    (Alcotest.testable Expr.pp Expr.equal)
    "select folds Lt boundary" (Expr.num 20.)
    (Expr.select (Expr.Lt (Expr.num 2., Expr.num 2.)) (Expr.num 10.) (Expr.num 20.))

(* fmin/fmax with NaN: C99 semantics return the non-NaN operand.  All three
   OCaml layers (constant folder, Eval, Engine) route through
   Expr.c_fmin/c_fmax; this pins the behavior against the C backend's
   fmin()/fmax(). *)
let test_minmax_nan () =
  let nan_ = Float.nan in
  Alcotest.check feq "c_fmin nan x" 3. (Expr.c_fmin nan_ 3.);
  Alcotest.check feq "c_fmin x nan" 3. (Expr.c_fmin 3. nan_);
  Alcotest.check feq "c_fmax nan x" 3. (Expr.c_fmax nan_ 3.);
  Alcotest.check feq "c_fmax x nan" 3. (Expr.c_fmax 3. nan_);
  Alcotest.(check bool)
    "c_fmin nan nan" true
    (Float.is_nan (Expr.c_fmin nan_ nan_));
  (* Eval path *)
  let env = Eval.env ~sym:(function "n" -> nan_ | _ -> 5.) () in
  Alcotest.check feq "eval fmin(n, x) = x" 5.
    (Eval.eval env (Expr.Fun (Expr.Fmin, [ Expr.sym "n"; Expr.sym "x" ])));
  Alcotest.check feq "eval fmax(x, n) = x" 5.
    (Eval.eval env (Expr.Fun (Expr.Fmax, [ Expr.sym "x"; Expr.sym "n" ])));
  (* constant folder path *)
  Alcotest.check
    (Alcotest.testable Expr.pp Expr.equal)
    "fn folds fmin(nan, 2)" (Expr.num 2.)
    (Expr.fmin_ (Expr.num nan_) (Expr.num 2.));
  (* engine path *)
  let src = Fieldspec.scalar ~dim:2 "s" and dst = Fieldspec.scalar ~dim:2 "d" in
  let body =
    [ Field.Assignment.store (Fieldspec.center dst)
        (Expr.Fun (Expr.Fmin, [ Expr.field src; Expr.sym "q" ])) ]
  in
  let block = Vm.Engine.make_block ~ghost:1 ~dims:[| 1; 1 |] [ src; dst ] in
  Vm.Buffer.set (Vm.Engine.buffer block src) [| 0; 0 |] nan_;
  Vm.Engine.run ~params:[ ("q", 4.) ]
    (Vm.Engine.bind (Ir.Kernel.make ~name:"m" ~dim:2 body) block);
  Alcotest.check feq "engine fmin(nan, 4) = 4" 4.
    (Vm.Buffer.get (Vm.Engine.buffer block dst) [| 0; 0 |])

let suite =
  oracle_tests
  @ [
      Alcotest.test_case "mutation: x^2 -> x^3 caught and shrunk" `Quick
        test_mutation_caught;
      Alcotest.test_case "mutation: fmin -> fmax caught" `Quick
        test_mutation_minmax_caught;
      Alcotest.test_case "oracle2: pinned rand**-2, cos(t0**3) sample" `Quick
        test_oracle2_pinned_pow;
      Alcotest.test_case "eval edge: pow negative exponent at 0" `Quick
        test_pow_negative_at_zero;
      Alcotest.test_case "eval edge: select boundary Le vs Lt" `Quick
        test_select_boundary;
      Alcotest.test_case "eval edge: fmin/fmax NaN (C99 semantics)" `Quick
        test_minmax_nan;
    ]
