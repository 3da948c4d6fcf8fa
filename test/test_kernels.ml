(* Generated kernels: Table-1 shaped structural properties, stencil
   signatures, full-vs-split numerical equivalence, parameter freezing, and
   the physics anchors (curvature flow, conservation, simplex projection,
   eutectic front motion). *)

let p1 = lazy (Pfcore.Genkernels.generate (Pfcore.Params.p1 ()))
let curv = lazy (Pfcore.Genkernels.generate (Pfcore.Params.curvature ~dim:2 ()))

let counts = Pfcore.Genkernels.counts

let test_p1_phi_stencils () =
  let g = Lazy.force p1 in
  Alcotest.(check string) "phi kernel reads phi at D3C7" "D3C7"
    (Ir.Kernel.stencil_signature g.phi_full g.fields.phi_src);
  Alcotest.(check string) "phi kernel reads mu at center only" "D3C1"
    (Ir.Kernel.stencil_signature g.phi_full g.fields.mu_src)

let test_p1_mu_stencils () =
  let g = Lazy.force p1 in
  match g.mu_full with
  | None -> Alcotest.fail "P1 has a mu kernel"
  | Some mu ->
    Alcotest.(check string) "mu kernel reads mu at D3C7" "D3C7"
      (Ir.Kernel.stencil_signature mu g.fields.mu_src);
    (* anti-trapping gradients at staggered positions widen phi to D3C19 *)
    Alcotest.(check string) "mu kernel reads phi_src at D3C19" "D3C19"
      (Ir.Kernel.stencil_signature mu g.fields.phi_src)

let test_p1_table1_shape () =
  let g = Lazy.force p1 in
  let phi_full = counts g.phi_full in
  let phi_stag = counts g.phi_split.stag and phi_main = counts g.phi_split.main in
  let mu_full = counts (Option.get g.mu_full) in
  let mu_pair = Option.get g.mu_split in
  let mu_stag = counts mu_pair.stag and mu_main = counts mu_pair.main in
  (* paper Table 1, P1 column: loads/stores match exactly *)
  Alcotest.(check int) "phi-full loads (paper: 30)" 30 phi_full.Field.Opcount.loads;
  Alcotest.(check int) "phi-full stores (paper: 4)" 4 phi_full.Field.Opcount.stores;
  Alcotest.(check int) "phi-split stag stores (paper: 12)" 12 phi_stag.Field.Opcount.stores;
  Alcotest.(check int) "phi-split main stores (paper: 4)" 4 phi_main.Field.Opcount.stores;
  Alcotest.(check int) "mu-full loads (paper: 112)" 112 mu_full.Field.Opcount.loads;
  Alcotest.(check int) "mu-full stores (paper: 2)" 2 mu_full.Field.Opcount.stores;
  Alcotest.(check int) "mu-split stag stores (paper: 6)" 6 mu_stag.Field.Opcount.stores;
  Alcotest.(check int) "mu-split main stores (paper: 2)" 2 mu_main.Field.Opcount.stores;
  (* split halves the mu work: most FLOPs are staggered values (paper §5.1) *)
  let norm = Field.Opcount.normalized in
  Alcotest.(check bool) "mu-split total < mu-full" true
    (norm mu_stag + norm mu_main < norm mu_full);
  Alcotest.(check bool) "mu-split main is the cheap pass" true
    (norm mu_main * 3 < norm mu_stag);
  Alcotest.(check bool) "mu kernel uses sqrts (anti-trapping)" true (mu_full.Field.Opcount.sqrts > 0);
  Alcotest.(check bool) "mu kernel uses rsqrts (normals)" true (mu_full.Field.Opcount.rsqrts > 0)

let test_p1_ssa_and_params () =
  let g = Lazy.force p1 in
  List.iter
    (fun (k : Ir.Kernel.t) -> Field.Assignment.check_ssa k.Ir.Kernel.body)
    [ g.phi_full; g.phi_split.stag; g.phi_split.main; Option.get g.mu_full; Option.get g.projection ];
  (* frozen parameters: only the time remains a runtime argument *)
  Alcotest.(check (list string)) "phi kernel args" [ "t" ] (Ir.Kernel.parameters g.phi_full)

let test_symbolic_parameters_stay_runtime () =
  let opts = { Pfcore.Genkernels.default_options with symbolic_params = true } in
  let g = Pfcore.Genkernels.generate ~opts (Pfcore.Params.curvature ~dim:2 ()) in
  let params = Ir.Kernel.parameters g.phi_full in
  Alcotest.(check bool) "gamma stays a kernel argument" true (List.mem "gamma_0_1" params);
  Alcotest.(check bool) "eps stays a kernel argument" true (List.mem "eps" params)

let test_frozen_cheaper_than_symbolic () =
  (* compile-time specialization: the uniform τ folds the interpolation
     division away entirely, and no material parameters survive as kernel
     arguments *)
  let opts = { Pfcore.Genkernels.default_options with symbolic_params = true } in
  let generic = Pfcore.Genkernels.generate ~opts (Pfcore.Params.curvature ~dim:2 ()) in
  let frozen = Lazy.force curv in
  Alcotest.(check int) "frozen has no division" 0 (counts frozen.phi_full).Field.Opcount.divs;
  Alcotest.(check bool) "generic keeps the tau division" true
    ((counts generic.phi_full).Field.Opcount.divs > 0);
  Alcotest.(check bool) "generic keeps many runtime arguments" true
    (List.length (Ir.Kernel.parameters generic.phi_full)
    > List.length (Ir.Kernel.parameters frozen.phi_full))

let test_constant_temperature_simplifies () =
  (* the paper's ablation: a constant-T configuration folds away all
     temperature terms and needs fewer operations *)
  let p = Pfcore.Params.p1 () in
  let const_t = { p with Pfcore.Params.temp = Pfcore.Params.Const_temp 0.5 } in
  let g_grad = Lazy.force p1 and g_const = Pfcore.Genkernels.generate const_t in
  Alcotest.(check bool) "constant T needs fewer mu FLOPs" true
    (Field.Opcount.normalized (counts (Option.get g_const.mu_full))
    <= Field.Opcount.normalized (counts (Option.get g_grad.mu_full)))

let steps_match variant_phi variant_mu =
  (* full and split variants implement the same update *)
  let g = Lazy.force curv in
  let run vp vm =
    let t = Pfcore.Timestep.create ~variant_phi:vp ~variant_mu:vm ~dims:[| 12; 12 |] g in
    Pfcore.Simulation.init_sphere t;
    Pfcore.Timestep.run t ~steps:3;
    t
  in
  let a = run Pfcore.Timestep.Full Pfcore.Timestep.Full in
  let b = run variant_phi variant_mu in
  let ba = Pfcore.Simulation.phi_buffer a and bb = Pfcore.Simulation.phi_buffer b in
  let max_diff = ref 0. in
  for x = 0 to 11 do
    for y = 0 to 11 do
      for c = 0 to 1 do
        let d =
          abs_float
            (Vm.Buffer.get ba ~component:c [| x; y |] -. Vm.Buffer.get bb ~component:c [| x; y |])
        in
        if d > !max_diff then max_diff := d
      done
    done
  done;
  !max_diff

let test_split_equals_full () =
  let d = steps_match Pfcore.Timestep.Split Pfcore.Timestep.Full in
  Alcotest.(check bool) "split == full (round-off)" true (d < 1e-12)

let test_projection_keeps_simplex () =
  let g = Lazy.force curv in
  let t = Pfcore.Timestep.create ~dims:[| 16; 16 |] g in
  Pfcore.Simulation.init_sphere t;
  Pfcore.Timestep.run t ~steps:20;
  Alcotest.(check bool) "phi in [0,1]" true (Pfcore.Simulation.check_sane t);
  let fr = Pfcore.Simulation.phase_fractions t in
  Alcotest.(check (float 1e-9)) "sum of fractions = 1" 1. (fr.(0) +. fr.(1))

let test_curvature_flow_shrinks () =
  let g = Lazy.force curv in
  let t = Pfcore.Timestep.create ~dims:[| 48; 48 |] g in
  Pfcore.Simulation.init_sphere t;
  let f0 = (Pfcore.Simulation.phase_fractions t).(0) in
  Pfcore.Timestep.run t ~steps:150;
  let f1 = (Pfcore.Simulation.phase_fractions t).(0) in
  Alcotest.(check bool) "sphere shrinks" true (f1 < f0 -. 0.001);
  Alcotest.(check bool) "sphere persists" true (f1 > 0.1)

let test_eutectic_front_advances () =
  let g = Lazy.force p1 in
  let t = Pfcore.Timestep.create ~dims:[| 16; 16; 32 |] g in
  Pfcore.Simulation.init_lamellae t;
  let z0 = Pfcore.Simulation.front_position t in
  let solid0 =
    let fr = Pfcore.Simulation.phase_fractions t in
    fr.(0) +. fr.(1) +. fr.(2)
  in
  Pfcore.Timestep.run t ~steps:40;
  let z1 = Pfcore.Simulation.front_position t in
  let fr = Pfcore.Simulation.phase_fractions t in
  let solid1 = fr.(0) +. fr.(1) +. fr.(2) in
  Alcotest.(check bool) "solid fraction grows" true (solid1 > solid0);
  Alcotest.(check bool) "front advances toward liquid" true (z1 > z0);
  Alcotest.(check bool) "state sane" true (Pfcore.Simulation.check_sane t)

let test_fluctuation_term_generates_rand () =
  let p = { (Pfcore.Params.curvature ~dim:2 ()) with Pfcore.Params.fluctuation = 0.01 } in
  let g = Pfcore.Genkernels.generate p in
  Alcotest.(check bool) "kernel contains Philox calls" true
    (Backend.Ccode.kernel_uses_rand g.phi_full)

(* ---- P2 pins ---- *)

let p2 = lazy (Pfcore.Genkernels.generate (Pfcore.Params.p2 ()))
let p2_2d = lazy (Pfcore.Genkernels.generate (Pfcore.Params.p2 ~dim:2 ()))

let opcount = Alcotest.testable Field.Opcount.pp ( = )

let row loads stores adds muls divs sqrts rsqrts others =
  { Field.Opcount.loads; stores; adds; muls; divs; sqrts; rsqrts; others }

(* Operation counts of every variant and the MD5 of the emitted C of the
   full sweeps, as the plain tree-walking [Simplify] produced them: an
   optimizer rewrite that must keep the kernels, such as the memoised
   [cost] and [factor_common], may not move one operation or byte. *)
let check_p2_pins g ~rows:(phi_full, phi_stag, phi_main, mu_full, mu_stag, mu_main)
    ~md5:(md5_phi, md5_mu) =
  let g : Pfcore.Genkernels.t = Lazy.force g in
  let mu_pair = Option.get g.mu_split in
  List.iter
    (fun (label, expected, k) -> Alcotest.check opcount label expected (counts k))
    [
      ("phi full", phi_full, g.phi_full);
      ("phi stag", phi_stag, g.phi_split.stag);
      ("phi main", phi_main, g.phi_split.main);
      ("mu full", mu_full, Option.get g.mu_full);
      ("mu stag", mu_stag, mu_pair.stag);
      ("mu main", mu_main, mu_pair.main);
    ];
  let md5 k = Digest.to_hex (Digest.string (Backend.Ccode.emit (Ir.Lower.run k))) in
  Alcotest.(check string) "phi_full C md5" md5_phi (md5 g.phi_full);
  Alcotest.(check string) "mu_full C md5" md5_mu (md5 (Option.get g.mu_full))

let test_p2_pins () =
  check_p2_pins p2
    ~rows:
      ( row 58 3 445 1084 28 0 0 42,
        row 48 9 163 421 12 0 0 18,
        row 40 3 137 266 4 0 0 6,
        row 79 1 258 480 13 12 18 42,
        row 60 3 123 228 6 6 9 21,
        row 13 1 21 36 1 0 0 0 )
    ~md5:("bb2bd869781a477180f33d32804567b3", "cbf3746d41d1ec968737d7100535d135")

let test_p2_2d_pins () =
  check_p2_pins p2_2d
    ~rows:
      ( row 28 3 268 688 20 0 0 30,
        row 24 6 86 245 8 0 0 12,
        row 28 3 108 216 4 0 0 6,
        row 43 1 133 270 9 8 12 28,
        row 33 2 60 123 4 4 6 14,
        row 11 1 19 35 1 0 0 0 )
    ~md5:("c01693f7914899da37b8f47fbd3e065c", "e4a65d356cda4f6e621b45a3d093afd1")

(* The first staggered φ flux of P2 is under the expansion limit, and its
   expansion is a DAG of a few thousand distinct nodes that is a tree of
   14 M.  [cost] keeps tree semantics: a shared subterm counts once per
   occurrence, so the expanded candidate still costs what it did when it
   was walked as a tree. *)
let test_p2_expanded_cost () =
  let open Pfcore in
  let p = Params.p2 () in
  let f = Model.make_fields p in
  let ctx = Model.make_ctx ~symbolic:false in
  let scheme = Genkernels.scheme_of Genkernels.default_options p in
  let registry = Fd.Discretize.make_registry f.phi_stag in
  List.iter
    (fun rhs -> ignore (Fd.Discretize.discretize_split scheme ~registry rhs))
    (Array.to_list (Model.phi_rhs ctx p f));
  let rhs = (List.hd (Fd.Discretize.registry_kernel_body registry)).Field.Assignment.rhs in
  Alcotest.(check int) "stag assignment 0 nodes" 1319 (Symbolic.Expr.count_nodes rhs);
  Alcotest.(check int) "cost of its expansion" 12_033_733
    (Symbolic.Simplify.cost (Symbolic.Simplify.expand rhs))

let test_config_parameter_count () =
  (* paper §5.1: >50 material parameters for 4 phases / 3 components *)
  Alcotest.(check bool) "P1 has > 50 config parameters" true
    (Pfcore.Params.config_parameter_count (Pfcore.Params.p1 ()) > 50)

let suite =
  [
    Alcotest.test_case "P1 phi stencil signatures" `Quick test_p1_phi_stencils;
    Alcotest.test_case "P1 mu stencil signatures" `Quick test_p1_mu_stencils;
    Alcotest.test_case "P1 Table-1 shape" `Quick test_p1_table1_shape;
    Alcotest.test_case "SSA and runtime params" `Quick test_p1_ssa_and_params;
    Alcotest.test_case "symbolic parameters stay runtime" `Quick test_symbolic_parameters_stay_runtime;
    Alcotest.test_case "frozen cheaper than generic" `Quick test_frozen_cheaper_than_symbolic;
    Alcotest.test_case "constant-T simplification" `Quick test_constant_temperature_simplifies;
    Alcotest.test_case "split == full variant" `Quick test_split_equals_full;
    Alcotest.test_case "projection keeps simplex" `Quick test_projection_keeps_simplex;
    Alcotest.test_case "curvature flow shrinks sphere" `Slow test_curvature_flow_shrinks;
    Alcotest.test_case "eutectic front advances" `Slow test_eutectic_front_advances;
    Alcotest.test_case "fluctuation generates Philox" `Quick test_fluctuation_term_generates_rand;
    Alcotest.test_case "config parameter count" `Quick test_config_parameter_count;
    Alcotest.test_case "P2 op counts and C pinned" `Quick test_p2_pins;
    Alcotest.test_case "P2-2d op counts and C pinned" `Quick test_p2_2d_pins;
    Alcotest.test_case "P2 expanded flux keeps tree cost" `Quick test_p2_expanded_cost;
  ]

let test_vtk_output () =
  let g = Lazy.force curv in
  let t = Pfcore.Timestep.create ~dims:[| 8; 8 |] g in
  Pfcore.Simulation.init_sphere t;
  let path = Filename.temp_file "pfgen" ".vtk" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Pfcore.Vtkout.write_phi t path;
      let ic = open_in path in
      let header = input_line ic in
      let lines = ref 1 in
      (try
         while true do
           ignore (input_line ic);
           incr lines
         done
       with End_of_file -> ());
      close_in ic;
      Alcotest.(check string) "vtk header" "# vtk DataFile Version 3.0" header;
      (* 8x8 points, 2 phases + dominant = 3 scalar blocks of 64 values *)
      Alcotest.(check bool) "payload present" true (!lines > 3 * 64))

let suite = suite @ [ Alcotest.test_case "VTK output" `Quick test_vtk_output ]
