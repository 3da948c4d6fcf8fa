(* JIT backend battery (mirrors test_pool.ml): compile-cache hit/miss
   accounting through Obs counters, recompilation on fingerprint changes,
   the engine edge cases (empty interior, tile larger than the sweep) under
   the compiled backend, exception safety of pooled compiled sweeps, the
   tuner's backend decision, and the golden JIT trace with its
   vm.jit.compile span. *)

open Symbolic
open Expr

let with_obs f =
  Obs.Metrics.reset ();
  Obs.Sink.clear ();
  Obs.Sink.enable ();
  Fun.protect
    ~finally:(fun () ->
      Obs.Sink.disable ();
      Obs.Sink.clear ();
      Obs.Metrics.reset ())
    f

let f2 = Fieldspec.scalar ~dim:2 "f"
let g2 = Fieldspec.scalar ~dim:2 "g"

let avg_kernel ?(coeff = 0.2) () =
  let acc d k = access (Fieldspec.shift (Fieldspec.center f2) d k) in
  let rhs = mul [ num coeff; add [ field f2; acc 0 1; acc 0 (-1); acc 1 1; acc 1 (-1) ] ] in
  Ir.Kernel.make ~name:"avg" ~dim:2 [ Field.Assignment.store (Fieldspec.center g2) rhs ]

let run_avg ?tile ?(backend = Vm.Engine.Jit) ~num_domains ~dims () =
  let block = Vm.Engine.make_block ~ghost:1 ~dims [ f2; g2 ] in
  let fbuf = Vm.Engine.buffer block f2 in
  Vm.Buffer.init fbuf (fun c _ -> float_of_int ((c.(0) * 3) + (c.(1) * 7)));
  Vm.Buffer.periodic fbuf;
  Vm.Engine.run ?tile ~num_domains ~backend ~params:[] (Vm.Engine.bind (avg_kernel ()) block);
  block

let buffers_bits_equal a b =
  List.for_all2
    (fun (_, (x : Vm.Buffer.t)) (_, (y : Vm.Buffer.t)) ->
      let ok = ref true in
      Array.iteri
        (fun i v ->
          if not (Int64.equal (Int64.bits_of_float v) (Int64.bits_of_float y.Vm.Buffer.data.(i)))
          then ok := false)
        x.Vm.Buffer.data;
      !ok)
    a.Vm.Engine.buffers b.Vm.Engine.buffers

(* ---- compile cache accounting ---- *)

(* One sweep compiles, every further sweep is a memo hit; the jit.hit /
   jit.miss counters mirror Jit.cache_stats exactly. *)
let test_cache_counters () =
  with_obs (fun () ->
      Vm.Jit.clear_cache ();
      ignore (run_avg ~num_domains:1 ~dims:[| 8; 6 |] ());
      let h1, m1 = Vm.Jit.cache_stats () in
      Alcotest.(check int) "first sweep is the only miss" 1 m1;
      Alcotest.(check int) "first sweep has no hit" 0 h1;
      for _ = 1 to 5 do
        ignore (run_avg ~num_domains:1 ~dims:[| 8; 6 |] ())
      done;
      let h2, m2 = Vm.Jit.cache_stats () in
      Alcotest.(check int) "no recompilation across warm sweeps" 1 m2;
      Alcotest.(check int) "every warm sweep hits the memo table" 5 h2;
      let s = Obs.Metrics.snapshot () in
      let v name = Option.value ~default:0 (Obs.Metrics.counter_value s name) in
      Alcotest.(check int) "jit.miss counter mirrors cache_stats" m2 (v "jit.miss");
      Alcotest.(check int) "jit.hit counter mirrors cache_stats" h2 (v "jit.hit"))

(* A changed kernel body, changed dims or changed ghost width is a new
   fingerprint and must recompile; re-running the original still hits. *)
let test_recompile_on_fingerprint_change () =
  Vm.Jit.clear_cache ();
  ignore (run_avg ~num_domains:1 ~dims:[| 8; 6 |] ());
  Alcotest.(check int) "baseline compiled once" 1 (snd (Vm.Jit.cache_stats ()));
  (* changed coefficient -> deep body hash differs *)
  let block = Vm.Engine.make_block ~ghost:1 ~dims:[| 8; 6 |] [ f2; g2 ] in
  Vm.Engine.run_plain ~backend:Vm.Engine.Jit ~params:[]
    (Vm.Engine.bind (avg_kernel ~coeff:0.25 ()) block);
  Alcotest.(check int) "changed coefficient recompiles" 2 (snd (Vm.Jit.cache_stats ()));
  (* changed dims -> strides differ -> recompile *)
  ignore (run_avg ~num_domains:1 ~dims:[| 6; 6 |] ());
  Alcotest.(check int) "changed dims recompile" 3 (snd (Vm.Jit.cache_stats ()));
  (* the original is still cached *)
  ignore (run_avg ~num_domains:1 ~dims:[| 8; 6 |] ());
  Alcotest.(check int) "original program still cached" 3 (snd (Vm.Jit.cache_stats ()))

(* Two kernels whose bodies agree on a long prefix (hundreds of terms, far
   past any hash traversal budget) and differ only in the canonically-last
   term.  A prefix hash of the body collides here and the memo table would
   hand variant B the program compiled for variant A — exactly how the
   zoo's coefficient variants of the large eutectic kernel bit the
   oracle-8 battery.  The digest-based fingerprint must keep the variants
   apart, and each compiled run must match its own interpreter run
   bitwise. *)
let deep_variant_kernel ~tail =
  let prefix =
    List.init 600 (fun i -> mul [ num (0.001 *. float_of_int (i + 1)); field f2 ])
  in
  (* [tail] exceeds every prefix coefficient, so the canonical Add sort
     keeps the differing term last — beyond a truncated traversal. *)
  let rhs = add (mul [ num tail; field f2 ] :: prefix) in
  Ir.Kernel.make ~name:"deep" ~dim:2 [ Field.Assignment.store (Fieldspec.center g2) rhs ]

let run_deep ~backend k =
  let block = Vm.Engine.make_block ~ghost:1 ~dims:[| 6; 5 |] [ f2; g2 ] in
  let fbuf = Vm.Engine.buffer block f2 in
  Vm.Buffer.init fbuf (fun c _ -> float_of_int ((c.(0) * 3) + (c.(1) * 7)));
  Vm.Buffer.periodic fbuf;
  Vm.Engine.run_plain ~backend ~params:[] (Vm.Engine.bind k block);
  block

let test_no_collision_on_deep_variants () =
  let ka = deep_variant_kernel ~tail:100. and kb = deep_variant_kernel ~tail:200. in
  let fp k = Vm.Jit.fingerprint ~dims:[| 6; 5 |] ~ghost:1 k (Ir.Lower.run k) in
  Alcotest.(check bool) "deep variants fingerprint apart" false (fp ka = fp kb);
  Vm.Jit.clear_cache ();
  let ja = run_deep ~backend:Vm.Engine.Jit ka in
  let jb = run_deep ~backend:Vm.Engine.Jit kb in
  Alcotest.(check int) "each variant compiles its own program" 2
    (snd (Vm.Jit.cache_stats ()));
  let ia = run_deep ~backend:Vm.Engine.Interp ka in
  let ib = run_deep ~backend:Vm.Engine.Interp kb in
  Alcotest.(check bool) "variant A jit = interp (bitwise)" true (buffers_bits_equal ia ja);
  Alcotest.(check bool) "variant B jit = interp (bitwise)" true (buffers_bits_equal ib jb)

(* ---- engine edge cases under the compiled backend ---- *)

let test_empty_interior () =
  let block = run_avg ~num_domains:4 ~dims:[| 5; 0 |] () in
  Array.iter
    (fun v -> Alcotest.(check (float 0.)) "nothing written" 0. v)
    (Vm.Engine.buffer block g2).Vm.Buffer.data

let test_tile_larger_than_sweep () =
  let serial = run_avg ~backend:Vm.Engine.Interp ~num_domains:1 ~dims:[| 8; 6 |] () in
  let jit = run_avg ~tile:[| 64; 64 |] ~num_domains:2 ~dims:[| 8; 6 |] () in
  let tiny = run_avg ~tile:[| 3; 2 |] ~num_domains:4 ~dims:[| 2; 2 |] () in
  let tiny_serial = run_avg ~backend:Vm.Engine.Interp ~num_domains:1 ~dims:[| 2; 2 |] () in
  Alcotest.(check bool) "jit giant tile = interp serial (bitwise)" true
    (buffers_bits_equal serial jit);
  Alcotest.(check bool) "jit on grid smaller than tile = interp serial (bitwise)" true
    (buffers_bits_equal tiny_serial tiny)

(* ---- exception inside a compiled tile ---- *)

(* A compiled sweep whose parameters are unbound raises from inside the
   first tile (parameter resolution is per tile, for both backends); the
   pool must stay balanced and usable. *)
let test_exception_in_compiled_body () =
  with_obs (fun () ->
      let k =
        Ir.Kernel.make ~name:"needs_alpha" ~dim:2
          [ Field.Assignment.store (Fieldspec.center g2) (mul [ sym "alpha"; field f2 ]) ]
      in
      let block = Vm.Engine.make_block ~ghost:1 ~dims:[| 8; 6 |] [ f2; g2 ] in
      let bound = Vm.Engine.bind k block in
      let raised =
        try
          Vm.Engine.run ~num_domains:3 ~tile:[| 2; 2 |] ~backend:Vm.Engine.Jit ~params:[]
            bound;
          false
        with Invalid_argument _ -> true
      in
      Alcotest.(check bool) "unbound parameter raises through the pool" true raised;
      Alcotest.(check bool) "span stream balanced after jit exception" true
        (Check.Obs_props.stream_well_formed (Obs.Sink.events ()));
      (* the pool still runs compiled work after the failure *)
      let after = run_avg ~num_domains:3 ~dims:[| 8; 6 |] () in
      let reference = run_avg ~backend:Vm.Engine.Interp ~num_domains:1 ~dims:[| 8; 6 |] () in
      Alcotest.(check bool) "pool usable after exception (bitwise vs interp)" true
        (buffers_bits_equal reference after))

(* ---- end-to-end simulate equivalence ---- *)

let curvature_gen = lazy (Pfcore.Genkernels.generate (Pfcore.Params.curvature ~dim:2 ()))

(* Several full time steps through Timestep (projection, exchanges, buffer
   swaps — the swap is the interesting part: compiled programs must follow
   the data pointers, not capture them). *)
let test_simulate_backend_bitwise () =
  let g = Lazy.force curvature_gen in
  let run ~backend ~num_domains ?tile () =
    let sim = Pfcore.Timestep.create ~backend ~num_domains ?tile ~dims:[| 12; 12 |] g in
    Pfcore.Simulation.init_smooth sim;
    Pfcore.Timestep.run sim ~steps:3;
    sim
  in
  let interp = run ~backend:Vm.Engine.Interp ~num_domains:1 () in
  let jit = run ~backend:Vm.Engine.Jit ~num_domains:1 () in
  let jit_pooled =
    run ~backend:Vm.Engine.Jit ~num_domains:4 ~tile:(Vm.Schedule.shape_of_string "3x2") ()
  in
  Alcotest.(check bool) "3 jit steps = interp steps (bitwise)" true
    (buffers_bits_equal interp.Pfcore.Timestep.block jit.Pfcore.Timestep.block);
  Alcotest.(check bool) "3 pooled tiled jit steps = interp steps (bitwise)" true
    (buffers_bits_equal interp.Pfcore.Timestep.block jit_pooled.Pfcore.Timestep.block)

(* ---- native tier vs portable tape ---- *)

let p2_gen = lazy (Pfcore.Genkernels.generate (Pfcore.Params.p2 ()))

(* Run [f] on a cleared memo, so it genuinely compiles; when the native
   tier is available, prove that every program [f] compiled took it. *)
let on_native_tier f =
  Vm.Jit.clear_cache ();
  let r = f () in
  (if Vm.Jit_native.available () then
     let programs = Hashtbl.fold (fun _ c acc -> c :: acc) Vm.Jit.cache [] in
     Alcotest.(check bool) "native tier engaged when available" true
       (programs <> [] && List.for_all (fun c -> c.Vm.Jit.native) programs));
  Vm.Jit.clear_cache ();
  r

(* [steps] time steps of [g] on a 6^3 block: the tape tier and the native
   tier must write identical bits. *)
let check_native_vs_tape g ~steps =
  let run backend () =
    let sim = Pfcore.Timestep.create ~backend ~num_domains:1 ~dims:[| 6; 6; 6 |] g in
    Pfcore.Simulation.init_smooth sim;
    Pfcore.Timestep.run sim ~steps;
    sim
  in
  let tape = run Vm.Engine.Interp () in
  let native = on_native_tier (run Vm.Engine.Jit) in
  Alcotest.(check bool) "tape tier and native tier write identical bits" true
    (buffers_bits_equal tape.Pfcore.Timestep.block native.Pfcore.Timestep.block)

(* The native tier (runtime ocamlopt + Dynlink, [Jit_native]) must be
   bitwise interchangeable with the portable tape it is translated from —
   including the replicated Philox stream behind P2's fluctuation term.
   [Interp] runs the tape each kernel was bound with; [Jit] runs the
   memoized native program. *)
let test_native_vs_tape_bitwise () = check_native_vs_tape (Lazy.force p2_gen) ~steps:2

(* [Interp] runs the tape program compiled at bind time and never the
   native memo: binding P1 and sweeping it on the interp backend, serial
   and pooled, leaves [Jit.cache] and its hit/miss counters untouched. *)
let p1_gen = lazy (Pfcore.Genkernels.generate (Pfcore.Params.p1 ()))

let test_interp_bypasses_native_memo () =
  Vm.Jit.clear_cache ();
  ignore (run_avg ~num_domains:1 ~dims:[| 8; 6 |] ());
  let stats0 = Vm.Jit.cache_stats () and len0 = Hashtbl.length Vm.Jit.cache in
  let run num_domains =
    let sim =
      Pfcore.Timestep.create ~backend:Vm.Engine.Interp ~num_domains ~dims:[| 6; 6; 6 |]
        (Lazy.force p1_gen)
    in
    Pfcore.Simulation.init_smooth sim;
    Pfcore.Timestep.run sim ~steps:2;
    sim
  in
  let serial = run 1 in
  let pooled = run 2 in
  Alcotest.(check (pair int int)) "interp sweeps leave cache_stats unchanged" stats0
    (Vm.Jit.cache_stats ());
  Alcotest.(check int) "interp sweeps add no memo entry" len0 (Hashtbl.length Vm.Jit.cache);
  Alcotest.(check bool) "pooled interp = serial interp (bitwise)" true
    (buffers_bits_equal serial.Pfcore.Timestep.block pooled.Pfcore.Timestep.block)

(* ---- chunked native source ---- *)

(* The chunk plan of depth group [g] of [c], exactly as the native printer
   computes it. *)
let chunk_starts (c : Vm.Jit.compiled) g =
  let nc = c.Vm.Jit.param_base in
  let tape = c.Vm.Jit.tapes.(g) in
  Vm.Jit.chunk_starts tape
    (Vm.Jit.last_reads ~nc
       ~temp_base:(nc + Array.length c.Vm.Jit.param_names)
       ~scratch_base:c.Vm.Jit.scratch_base ~hoisted:(g < c.Vm.Jit.dim) tape)

let source_of (c : Vm.Jit.compiled) =
  Vm.Jit.native_source ~nc:c.Vm.Jit.param_base
    ~temp_base:(c.Vm.Jit.param_base + Array.length c.Vm.Jit.param_names)
    ~scratch_base:c.Vm.Jit.scratch_base ~template:c.Vm.Jit.template c.Vm.Jit.tapes

let is_select_head tape q =
  let op = tape.(4 * q) in
  op = Vm.Jit.op_sellt || op = Vm.Jit.op_selle

(* Every chunk of every group holds at most [chunk_quads] quads, starts
   at quad 0 and in order, and no cut separates a Select quad from its
   argument quad. *)
let check_chunk_plan label (c : Vm.Jit.compiled) =
  Array.iteri
    (fun g tape ->
      let nq = Array.length tape / 4 in
      let starts = chunk_starts c g in
      Alcotest.(check int) (label ^ ": first chunk at quad 0") 0 starts.(0);
      Array.iteri
        (fun k s ->
          let e = if k + 1 < Array.length starts then starts.(k + 1) else nq in
          if e <= s && nq > 0 then Alcotest.failf "%s: group %d chunk %d is empty" label g k;
          if e - s > Vm.Jit.chunk_quads then
            Alcotest.failf "%s: group %d chunk %d has %d quads (budget %d)" label g k (e - s)
              Vm.Jit.chunk_quads;
          if s > 0 && is_select_head tape (s - 1) then
            Alcotest.failf "%s: group %d cut at quad %d splits a Select pair" label g s)
        starts)
    c.Vm.Jit.tapes

let count_sub hay needle =
  let n = String.length needle in
  let rec go i acc =
    match Astring.String.find_sub ~start:i ~sub:needle hay with
    | Some j -> go (j + n) (acc + 1)
    | None -> acc
  in
  go 0 0

(* P1 mu-full's ~2000-quad body is printed as a chain of chunk
   functions, within budget; every P1 kernel's plan is well formed. *)
let test_p1_chunked_source () =
  let g = Lazy.force p1_gen in
  let compile k = Vm.Jit.compile ~dims:[| 8; 8; 8 |] ~ghost:2 k (Ir.Lower.run k) in
  let mu = compile (Option.get g.Pfcore.Genkernels.mu_full) in
  let body = mu.Vm.Jit.dim in
  Alcotest.(check bool) "mu-full body exceeds one chunk" true
    (Array.length mu.Vm.Jit.tapes.(body) / 4 > Vm.Jit.chunk_quads);
  let src = source_of mu in
  Alcotest.(check bool) "mu-full native source has more than one chunk function" true
    (count_sub src (Printf.sprintf "let g%d_" body) > 1);
  Alcotest.(check int) "one chunk function per planned chunk"
    (Array.length (chunk_starts mu body))
    (count_sub src (Printf.sprintf "let g%d_" body));
  check_chunk_plan "mu_full" mu;
  check_chunk_plan "phi_full" (compile g.Pfcore.Genkernels.phi_full)

(* Native = tape, bit for bit, over 3 P1 time steps: the chunked mu-full
   and phi-full bodies pass every cross-chunk value through the slot
   array. *)
let test_p1_native_vs_tape () = check_native_vs_tape (Lazy.force p1_gen) ~steps:3

(* A synthetic 2D kernel built to put both hazards at chunk cuts:
   - a hoisted group (temporaries of the outer coordinate only): a chain
     [h_i = h_(i-1) * 0.5 + 1] long enough to be chunked, so the value
     defined last before a cut is read right after it, and every [h_i]
     is read again by the body;
   - a body of Select chains [b_i = b_(i-1) < h ? b_(i-1) * 0.9 : b_(i-1)
     - 0.1], one leading load quad placing a Select quad at the
     budget's boundary.
   The plan must step around the Select pair, and native must match the
   tape bit for bit. *)
let select_chain_kernel () =
  let hoisted = (Vm.Jit.chunk_quads / 2) + 40 and chain = (Vm.Jit.chunk_quads / 4) + 20 in
  let h i = sym (Printf.sprintf "h%d" i) and b i = sym (Printf.sprintf "b%d" i) in
  let hs =
    Field.Assignment.assign_temp "h0" (coord 1)
    :: List.init hoisted (fun i ->
           Field.Assignment.assign_temp
             (Printf.sprintf "h%d" (i + 1))
             (add [ mul [ h i; num 0.5 ]; num 1. ]))
  in
  let hl = h hoisted in
  let bs =
    Field.Assignment.assign_temp "b0" (field f2)
    :: List.init chain (fun i ->
           Field.Assignment.assign_temp
             (Printf.sprintf "b%d" (i + 1))
             (Select (Lt (b i, hl), mul [ b i; num 0.9 ], add [ b i; num (-0.1) ])))
  in
  let store =
    Field.Assignment.store (Fieldspec.center g2) (add [ b chain; h (hoisted / 2); hl ])
  in
  Ir.Kernel.make ~name:"select_chain" ~dim:2 (hs @ bs @ [ store ])

let test_select_and_hoisted_cuts () =
  let k = select_chain_kernel () in
  let c = Vm.Jit.compile ~dims:[| 8; 6 |] ~ghost:1 k (Ir.Lower.run k) in
  let hoisted_group = 1 and body = c.Vm.Jit.dim in
  Alcotest.(check bool) "hoisted chain sits in group 1" true
    (Array.length c.Vm.Jit.tapes.(hoisted_group) / 4 > Vm.Jit.chunk_quads);
  Alcotest.(check bool) "a Select quad sits at the body's budget boundary" true
    (is_select_head c.Vm.Jit.tapes.(body) (Vm.Jit.chunk_quads - 1));
  Alcotest.(check bool) "hoisted group is chunked" true
    (Array.length (chunk_starts c hoisted_group) > 1);
  Alcotest.(check bool) "body is chunked" true (Array.length (chunk_starts c body) > 1);
  check_chunk_plan "select_chain" c;
  let run backend () =
    let block = Vm.Engine.make_block ~ghost:1 ~dims:[| 8; 6 |] [ f2; g2 ] in
    let fbuf = Vm.Engine.buffer block f2 in
    Vm.Buffer.init fbuf (fun c _ -> 0.25 *. float_of_int ((c.(0) * 3) + (c.(1) * 7)));
    Vm.Buffer.periodic fbuf;
    Vm.Engine.run_plain ~backend ~params:[] (Vm.Engine.bind k block);
    block
  in
  let tape = run Vm.Engine.Interp () in
  let native = on_native_tier (run Vm.Engine.Jit) in
  Alcotest.(check bool) "select/hoisted cuts: native writes the tape's bits" true
    (buffers_bits_equal tape native)

(* ---- tuner backend decision ---- *)

let tune_block () =
  let block = Vm.Engine.make_block ~ghost:1 ~dims:[| 8; 6 |] [ f2; g2 ] in
  let fbuf = Vm.Engine.buffer block f2 in
  Vm.Buffer.init fbuf (fun c _ -> float_of_int (c.(0) + c.(1)));
  Vm.Buffer.periodic fbuf;
  block

let test_tune_backend () =
  Vm.Tune.clear_cache ();
  let c =
    Vm.Tune.decide ~domains:1 ~sweeps:1 ~reps:1 ~dims:[| 8; 6 |] ~make_block:tune_block
      ~params:[]
      [ ("full", [ avg_kernel () ]) ]
  in
  Alcotest.(check int) "both backends probed" 2 (List.length c.Vm.Tune.backend_ns);
  Alcotest.(check bool) "backend probes are finite and positive" true
    (List.for_all (fun (_, ns) -> Float.is_finite ns && ns > 0.) c.Vm.Tune.backend_ns);
  Alcotest.(check bool) "decision picks the measured minimum" true
    (let sel = Vm.Engine.backend_label c.Vm.Tune.backend in
     let sel_ns = List.assoc sel c.Vm.Tune.backend_ns in
     List.for_all (fun (_, ns) -> sel_ns <= ns) c.Vm.Tune.backend_ns)

(* ---- golden JIT trace ---- *)

(* Same fixed 2-step 8x8 curvature run as test_obs's golden trace, executed
   through the JIT: the span tree must be reproduced with one
   vm.jit.compile span per kernel program, emitted at first use. *)
let test_golden_trace_jit () =
  Vm.Jit.clear_cache ();
  let sim =
    Pfcore.Timestep.create ~backend:Vm.Engine.Jit ~num_domains:1 ~dims:[| 8; 8 |]
      (Lazy.force curvature_gen)
  in
  Pfcore.Simulation.init_sphere sim;
  Pfcore.Timestep.prime sim;
  let json =
    with_obs (fun () ->
        Pfcore.Timestep.run sim ~steps:2;
        Obs.Trace.to_json ~zero_times:true (Obs.Sink.events ()))
  in
  Golden.check ~name:"trace_curvature_8x8_jit.json" json

let suite =
  [
    Alcotest.test_case "jit: compile cache hit/miss counters" `Quick test_cache_counters;
    Alcotest.test_case "jit: recompile on fingerprint change" `Quick
      test_recompile_on_fingerprint_change;
    Alcotest.test_case "jit: no collision on deep kernel variants" `Quick
      test_no_collision_on_deep_variants;
    Alcotest.test_case "jit: empty interior is a no-op" `Quick test_empty_interior;
    Alcotest.test_case "jit: tile larger than sweep = interp serial" `Quick
      test_tile_larger_than_sweep;
    Alcotest.test_case "jit: exception in compiled tile (usable, balanced)" `Quick
      test_exception_in_compiled_body;
    Alcotest.test_case "jit: 3 timesteps bitwise = interpreter" `Quick
      test_simulate_backend_bitwise;
    Alcotest.test_case "jit: native tier bitwise = tape tier (P2, Philox)" `Quick
      test_native_vs_tape_bitwise;
    Alcotest.test_case "jit: interp sweeps bypass the native memo (P1)" `Quick
      test_interp_bypasses_native_memo;
    Alcotest.test_case "tune: backend is a tunable variant" `Quick test_tune_backend;
    Alcotest.test_case "jit: golden Chrome trace with vm.jit.compile span" `Quick
      test_golden_trace_jit;
    Alcotest.test_case "jit: P1 mu-full native source is chunked within budget" `Quick
      test_p1_chunked_source;
    Alcotest.test_case "jit: chunked native tier bitwise = tape tier (P1)" `Quick
      test_p1_native_vs_tape;
    Alcotest.test_case "jit: Select pair and hoisted temp at chunk cuts, bitwise" `Quick
      test_select_and_hoisted_cuts;
  ]
