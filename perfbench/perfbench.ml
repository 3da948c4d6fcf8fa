(* perfbench — one repetition of a benchmark workload, in a fresh process.

     perfbench.exe rep --workload W --seed S [--trace]
     perfbench.exe reference --workload W (--seed S | --every-shift)

   [rep] runs the workload through the entry points `pfgen simulate` and
   `pfgen serve` use and prints its raw measurements and the digests of its
   final state.  With [--trace] it replays the same workload one public
   layer call at a time, timing each call from here (no span inside the
   libraries), and prints per-layer numbers.  [reference] computes the
   final-state digests with the reference configuration: the [Interp]
   backend on one domain, a single block with its periodic closure, no
   checkpoints (farm jobs: [Scheduler.run_solo]); with [--every-shift], for
   each translation a seed can give a simulation workload.

   The last stdout line is one JSON object; perfbench/run.py aggregates the
   repetitions of a run into the benchmark's metrics.  A traced run emits
   the per-layer metrics its workload's layer calls measure; run.py reports
   the other names BENCHMARK.json declares as 0.  The environment
   ([PFGEN_DOMAINS], [PFGEN_VM_BACKEND], [PFGEN_JIT_NATIVE], [TMPDIR]) is
   pinned by run.py; this program refuses a [PFGEN_DOMAINS] that differs
   from the workload's. *)

module Params = Pfcore.Params
module Genkernels = Pfcore.Genkernels
module Timestep = Pfcore.Timestep
module Forest = Blocks.Forest

(* ------------------------------------------------------------------ *)
(* JSON output                                                         *)
(* ------------------------------------------------------------------ *)

type json =
  | Num of float
  | Int of int
  | Str of string
  | Bool of bool
  | Arr of json list
  | Obj of (string * json) list

let rec add_json b = function
  | Num x ->
    if Float.is_finite x then Buffer.add_string b (Printf.sprintf "%.17g" x)
    else Buffer.add_string b "null"
  | Int n -> Buffer.add_string b (string_of_int n)
  | Str s -> Buffer.add_string b (Printf.sprintf "%S" s)
  | Bool v -> Buffer.add_string b (string_of_bool v)
  | Arr l ->
    Buffer.add_char b '[';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char b ',';
        add_json b x)
      l;
    Buffer.add_char b ']'
  | Obj kv ->
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char b ',';
        add_json b (Str k);
        Buffer.add_char b ':';
        add_json b v)
      kv;
    Buffer.add_char b '}'

let print_json j =
  let b = Buffer.create 4096 in
  add_json b j;
  print_endline (Buffer.contents b)

(* ------------------------------------------------------------------ *)
(* Clock and layer spans                                               *)
(* ------------------------------------------------------------------ *)

let now () = Int64.to_float (Obs.Clock.now_ns ()) *. 1e-9

(* Spans of the traced replay.  [span layer f] charges the duration of
   [f] minus that of the spans nested inside it to [layer]'s self time;
   the top-level spans cover the whole replay, so whatever the self times
   miss is harness time between calls (trace.unattributed_frac). *)
let self_time : (string, float ref) Hashtbl.t = Hashtbl.create 16
let child_time = ref [ ref 0. ]

let span_d layer f =
  let inner = ref 0. in
  child_time := inner :: !child_time;
  let t0 = now () in
  let finish () =
    let d = now () -. t0 in
    child_time := List.tl !child_time;
    (match !child_time with parent :: _ -> parent := !parent +. d | [] -> ());
    let acc =
      match Hashtbl.find_opt self_time layer with
      | Some r -> r
      | None ->
        let r = ref 0. in
        Hashtbl.replace self_time layer r;
        r
    in
    acc := !acc +. d -. !inner;
    d
  in
  match f () with
  | r -> (r, finish ())
  | exception e ->
    ignore (finish ());
    raise e

let span layer f = fst (span_d layer f)
let attributed () = Hashtbl.fold (fun _ r acc -> acc +. !r) self_time 0.

(* Named samples (per-step kernel times, checkpoint captures, ...). *)
let samples : (string, float list ref) Hashtbl.t = Hashtbl.create 16

let sample name v =
  match Hashtbl.find_opt samples name with
  | Some r -> r := v :: !r
  | None -> Hashtbl.replace samples name (ref [ v ])

let samples_of name = match Hashtbl.find_opt samples name with Some r -> !r | None -> []

let median = function
  | [] -> 0.
  | l ->
    let a = Array.of_list l in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let sum = List.fold_left ( +. ) 0.

let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> Float.nan
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> Float.nan
      | line ->
        if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb ->
              float_of_int kb /. 1024.)
        else scan ()
    in
    let v = scan () in
    close_in ic;
    v

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

type sim = {
  name : string;
  params : unit -> Params.t;
  size : int;  (** global edge length *)
  ranks : int;
      (** 1 = one block; otherwise a 1D Mpisim forest along axis 0 with the
          overlapped exchange, checkpointed every [ckpt_every] steps and
          ending with the `--diag` reductions *)
  domains : int;  (** PFGEN_DOMAINS the workload pins *)
  backend : Vm.Engine.backend option;  (** [None] = the process default *)
  steps : int;
}

let ckpt_every = 10

(* Step counts leave at least 100 timed steps (2..N) per repetition, so a
   90th percentile of one repetition has ten samples above it. *)
let sims =
  [
    {
      name = "p1-jit-steady";
      params = (fun () -> Params.p1 ());
      size = 32;
      ranks = 1;
      domains = 1;
      backend = Some Vm.Engine.Jit;
      steps = 121;
    };
    {
      name = "p2-cold-start";
      params = (fun () -> Params.p2 ());
      size = 16;
      ranks = 1;
      domains = 1;
      backend = None;
      steps = 101;
    };
    {
      name = "eutectic-4rank-ckpt";
      params = (fun () -> Params.eutectic ());
      size = 96;
      ranks = 4;
      domains = 1;
      backend = None;
      steps = 101;
    };
  ]

let farm_name = "farm-mix"
let farm_jobs = 40

(* The zoo without P2: P2's codegen belongs to p2-cold-start and would
   otherwise turn every job latency into a P2 codegen time. *)
let farm_families =
  Serve.Workload.[ Curv2d; P1; Eutectic; Pfc; GrayScott ]

(* The batch's mix — families, sizes, steps, backends, priorities,
   tenants, crash jobs — is the one Workload.generate draws under seed 1
   (all five families, 21 jit jobs, 4 crash jobs); the benchmark seed keys
   each job's initial condition and fault plan exactly as generate keys
   them under its own seed.  A seed-dependent mix would change the work
   per run, and with it every farm metric, from one seed to the next. *)
let farm_specs seed =
  List.map
    (fun (s : Serve.Workload.spec) -> { s with seed = (seed * 7919) + s.id })
    (Serve.Workload.generate ~families:farm_families ~seed:1 ~jobs:farm_jobs ())

let workload_names = List.map (fun w -> w.name) sims @ [ farm_name ]

let domains_of name =
  match List.find_opt (fun w -> w.name = name) sims with Some w -> w.domains | None -> 1

let pin_environment name =
  let want = domains_of name in
  let got = Vm.Pool.default_domains () in
  if got <> want then
    failwith
      (Printf.sprintf "PFGEN_DOMAINS is %d, workload %s pins %d (run it through run.py)" got
         name want)

(* ------------------------------------------------------------------ *)
(* Seeded inputs                                                       *)
(* ------------------------------------------------------------------ *)

(* The seed translates the lamellar start (`pfgen simulate`'s
   [Simulation.init_lamellae] with its defaults: liquid above 0.3 of the
   gradient axis, 8-cell lamellae) along periodic axis 0.  Kernels without a
   noise term do not depend on the axis-0 coordinate, so the final state
   is the translated reference state bit for bit: one stored digest
   checks every seed of p1-jit-steady and eutectic-4rank-ckpt.  P2 draws
   Philox noise keyed on the global cell and the step, so its final state
   depends on the shift and on nothing else of the seed: reference.json
   stores one digest per shift ([reference --every-shift]). *)
let shift_of w ~seed = ((seed * 2654435761) + 12345) land 0x3fffffff mod w.size

let init_shifted (t : Timestep.t) ~shift =
  let p = t.Timestep.gen.Genkernels.params in
  let dims = t.Timestep.block.Vm.Engine.global_dims in
  let axis = match p.Params.temp with Params.Gradient g -> g.axis | _ -> p.Params.dim - 1 in
  let z0 = int_of_float (0.3 *. float_of_int dims.(axis)) in
  let solids = p.Params.n_phases - 1 in
  Pfcore.Simulation.set_phase_field t (fun coords ->
      let x0 = (coords.(0) + shift) mod dims.(0) in
      if coords.(axis) >= z0 then p.Params.liquid else x0 / 8 mod solids);
  Pfcore.Simulation.fill_mu t 0.;
  Timestep.prime t

(* ------------------------------------------------------------------ *)
(* Digests                                                             *)
(* ------------------------------------------------------------------ *)

let add_bits b x = Buffer.add_int64_le b (Int64.bits_of_float x)

(* MD5 of the bit patterns of every interior value of φ_src (and μ_src
   when the model has one), read in canonical global order with the
   seed's translation undone. *)
let state_digest (gen : Genkernels.t) ~global_dims ~shift get =
  let f = gen.Genkernels.fields in
  let fields =
    f.Pfcore.Model.phi_src
    :: (if Params.n_mu gen.Genkernels.params > 0 then [ f.Pfcore.Model.mu_src ] else [])
  in
  let b = Buffer.create (1 lsl 20) in
  let dim = Array.length global_dims in
  let n0 = global_dims.(0) in
  let coords = Array.make dim 0 in
  let src = Array.make dim 0 in
  List.iter
    (fun (fs : Symbolic.Fieldspec.t) ->
      for c = 0 to fs.Symbolic.Fieldspec.components - 1 do
        let rec walk d =
          if d = dim then begin
            Array.blit coords 0 src 0 dim;
            src.(0) <- (coords.(0) - shift + n0) mod n0;
            add_bits b (get fs c src)
          end
          else
            for i = 0 to global_dims.(d) - 1 do
              coords.(d) <- i;
              walk (d + 1)
            done
        in
        walk 0
      done)
    fields;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Digest of a farm job's final snapshot: every padded buffer, ghosts
   included — the state [Snapshot.equal] (oracle 9) compares. *)
let snapshot_digest (s : Resilience.Snapshot.t) =
  let b = Buffer.create (1 lsl 16) in
  Buffer.add_string b (string_of_int s.Resilience.Snapshot.step);
  Array.iter
    (fun (blk : Resilience.Snapshot.block_state) ->
      List.iter
        (fun (fs : Resilience.Snapshot.field_state) ->
          Buffer.add_string b fs.Resilience.Snapshot.fname;
          Array.iter (add_bits b) fs.Resilience.Snapshot.data)
        blk.Resilience.Snapshot.fields)
    s.Resilience.Snapshot.blocks;
  Digest.to_hex (Digest.string (Buffer.contents b))

let bits_hex values =
  String.concat "," (List.map (fun x -> Printf.sprintf "%016Lx" (Int64.bits_of_float x)) values)

(* ------------------------------------------------------------------ *)
(* Simulation state                                                    *)
(* ------------------------------------------------------------------ *)

type exec = Single of Timestep.t | Many of Forest.t

let create_exec ?backend ?num_domains w (gen : Genkernels.t) =
  let dim = gen.Genkernels.params.Params.dim in
  if w.ranks = 1 then
    Single (Timestep.create ?num_domains ?backend ~dims:(Array.make dim w.size) gen)
  else begin
    let grid = Array.init dim (fun d -> if d = 0 then w.ranks else 1) in
    let block_dims = Array.init dim (fun d -> if d = 0 then w.size / w.ranks else w.size) in
    Many (Forest.create ?num_domains ?backend ~overlap:true ~grid ~block_dims gen)
  end

let init_exec exec ~shift =
  match exec with
  | Single sim -> init_shifted sim ~shift
  | Many f ->
    Array.iter (fun sim -> init_shifted sim ~shift) f.Forest.sims;
    Forest.prime f

let exec_digest w (gen : Genkernels.t) exec ~shift =
  let dim = gen.Genkernels.params.Params.dim in
  let global_dims = Array.make dim w.size in
  match exec with
  | Single sim ->
    state_digest gen ~global_dims ~shift (fun fs c coords ->
        Vm.Buffer.get (Vm.Engine.buffer sim.Timestep.block fs) ~component:c coords)
  | Many f ->
    state_digest gen ~global_dims ~shift (fun fs c coords -> Forest.get f fs ~component:c coords)

(* `pfgen simulate --diag`: interface cells and fraction, extrema of φ
   component 0, all from the fixed-topology reduction tree. *)
let diag_values ?backend ?num_domains (gen : Genkernels.t) exec =
  let phi = gen.Genkernels.fields.Pfcore.Model.phi_src in
  match exec with
  | Single sim ->
    Pfcore.Diag.
      [
        interface_cells ?backend ?num_domains sim;
        interface_fraction ?backend ?num_domains sim;
        min_value ?backend ?num_domains sim phi ~component:0;
        max_value ?backend ?num_domains sim phi ~component:0;
      ]
  | Many f ->
    Blocks.Reduce.
      [
        interface_cells ?backend ?num_domains f;
        interface_fraction ?backend ?num_domains f;
        min_value ?backend ?num_domains f phi ~component:0;
        max_value ?backend ?num_domains f phi ~component:0;
      ]

let kernels_of_step (sim : Timestep.t) =
  let open Timestep in
  (match sim.variant_phi with Full -> [ sim.phi_full ] | Split -> [ sim.phi_stag; sim.phi_main ])
  @ Option.to_list sim.projection
  @ List.map fst (mu_chain sim)

let first_sim = function Single sim -> sim | Many f -> f.Forest.sims.(0)

(* Provenance and the JIT tier actually in use: a jit workload that fell
   back to the portable tape tier is not the program being measured. *)
let jit_report () =
  let programs = Hashtbl.fold (fun _ c acc -> c :: acc) Vm.Jit.cache [] in
  let native = List.length (List.filter (fun c -> c.Vm.Jit.native) programs) in
  let notes = List.sort_uniq compare (List.map (fun c -> c.Vm.Jit.native_note) programs) in
  let _, misses = Vm.Jit.cache_stats () in
  Obj
    [
      ("native_available", Bool (Vm.Jit_native.available ()));
      ("programs", Int (List.length programs));
      ("native_programs", Int native);
      ("compiles", Int misses);
      ("notes", Arr (List.map (fun s -> Str s) notes));
    ]

let provenance name =
  Obj
    [
      ("ocaml_version", Str Sys.ocaml_version);
      ("domains", Int (Vm.Pool.default_domains ()));
      ("recommended_domains", Int (Domain.recommended_domain_count ()));
      ("workload", Str name);
      ("default_backend", Str (Vm.Engine.backend_label (Vm.Engine.default_backend ())));
      ("jit", jit_report ());
    ]

(* The reference configuration: one block with its periodic closure, the
   [Interp] backend on one domain, no checkpoints. *)
let reference_state w gen ~shift =
  let single = { w with ranks = 1 } in
  let exec = create_exec ~backend:Vm.Engine.Interp ~num_domains:1 single gen in
  init_exec exec ~shift;
  (match exec with Single sim -> Timestep.run sim ~steps:w.steps | Many _ -> assert false);
  let diag =
    if w.ranks > 1 then bits_hex (diag_values ~backend:Vm.Engine.Interp ~num_domains:1 gen exec)
    else ""
  in
  [ ("digest", Str (exec_digest single gen exec ~shift)); ("diag", Str diag) ]

(* ------------------------------------------------------------------ *)
(* Untraced simulation repetition                                      *)
(* ------------------------------------------------------------------ *)

(* Recovery.run_protected's loop — capture into a bounded store before
   the first step and after every [every] steps — with [on_step] after
   every step: run_protected itself has no per-step hook.  The workload
   plans no fault, so run_protected's rollback branch could never be
   taken; a crash here propagates and fails the repetition.  The traced
   replay passes its own [step] and [capture]. *)
let protected_steps ~step ~capture ~every ~steps ~on_step forest =
  let store = Resilience.Store.create () in
  let checkpoint () = Resilience.Store.put store (capture forest) in
  checkpoint ();
  let start = Forest.step_count forest in
  for _ = 1 to steps do
    step forest;
    if (Forest.step_count forest - start) mod every = 0 then checkpoint ();
    on_step ()
  done

(* The reference sweep: a fixed 3-point smoothing over two 128 KiB float
   arrays, 48 passes, about 1.4 ms on a quiet core of the host the
   benchmark was tuned on.  Neighbours on a shared host slow the core by up
   to 2x for stretches of any length; the sweep slows with it, so a step's
   time over the time of a sweep run next to it stays put (README.md, "Why
   steps are timed in reference sweeps").  The sweep is this file's own
   code, so no change to lib/ can move it.  Its values stay at 1.0, a fixed
   point of the smoothing. *)
let sweep_src = Array.make 16384 1.0
let sweep_dst = Array.make 16384 0.0

let reference_sweep () =
  let n = Array.length sweep_src in
  let t0 = now () in
  for _ = 1 to 48 do
    for i = 1 to n - 2 do
      Array.unsafe_set sweep_dst i
        (0.25
        *. (Array.unsafe_get sweep_src (i - 1)
           +. (2. *. Array.unsafe_get sweep_src i)
           +. Array.unsafe_get sweep_src (i + 1)))
    done;
    for i = 1 to n - 2 do
      Array.unsafe_set sweep_src i (Array.unsafe_get sweep_dst i)
    done
  done;
  now () -. t0

let run_sim w ~seed =
  let t0 = now () in
  let shift = shift_of w ~seed in
  let gen = Genkernels.generate (w.params ()) in
  let exec = create_exec ?backend:w.backend w gen in
  init_exec exec ~shift;
  (* step k > 1 runs from starts.(k - 1) to ends.(k); the reference sweep
     between them times the host just before the step, and no reported
     time includes a sweep *)
  let ends = Array.make (w.steps + 1) 0. in
  let starts = Array.make (w.steps + 1) 0. in
  let sweeps = Array.make (w.steps + 1) 0. in
  let k = ref 0 in
  let on_step () =
    incr k;
    ends.(!k) <- now ();
    sweeps.(!k) <- reference_sweep ();
    starts.(!k) <- now ()
  in
  (match exec with
  | Single sim -> Timestep.run sim ~steps:w.steps ~on_step:(fun _ -> on_step ())
  | Many f ->
    protected_steps ~step:Forest.step ~capture:Resilience.Snapshot.capture ~every:ckpt_every
      ~steps:w.steps ~on_step f);
  let diag = if w.ranks > 1 then bits_hex (diag_values gen exec) else "" in
  let t_end = now () in
  let step_ms = List.init (w.steps - 1) (fun i -> (ends.(i + 2) -. starts.(i + 1)) *. 1e3) in
  let sweep_ms = List.init (w.steps - 1) (fun i -> sweeps.(i + 1) *. 1e3) in
  let cells = float_of_int (int_of_float (float_of_int w.size ** float_of_int gen.params.dim)) in
  let rss = peak_rss_mb () in
  Obj
    [
      ("mode", Str "rep");
      ("workload", Str w.name);
      ("seed", Int seed);
      ("shift", Int shift);
      ("setup_s", Num (ends.(1) -. t0));
      ("wall_s", Num (t_end -. t0 -. Array.fold_left ( +. ) 0. sweeps));
      ("steps", Int w.steps);
      ("cells", Num cells);
      ("step_ms", Arr (List.map (fun x -> Num x) step_ms));
      ("sweep_ms", Arr (List.map (fun x -> Num x) sweep_ms));
      ("peak_rss_mb", Num rss);
      ("digest", Str (exec_digest w gen exec ~shift));
      ("diag", Str diag);
      ("provenance", provenance w.name);
    ]

(* ------------------------------------------------------------------ *)
(* Reference                                                           *)
(* ------------------------------------------------------------------ *)

let reference_sim w ~seed =
  let shift = shift_of w ~seed in
  Obj
    ([ ("mode", Str "reference"); ("workload", Str w.name); ("seed", Int seed); ("shift", Int shift) ]
    @ reference_state w (Genkernels.generate (w.params ())) ~shift)

(* Every shift [shift_of] can give, from one codegen. *)
let reference_every_shift w =
  let gen = Genkernels.generate (w.params ()) in
  let shifts =
    List.init w.size (fun shift -> (string_of_int shift, Obj (reference_state w gen ~shift)))
  in
  Obj [ ("mode", Str "reference"); ("workload", Str w.name); ("shifts", Obj shifts) ]

let reference_farm ~seed =
  let jobs =
    List.map
      (fun (spec : Serve.Workload.spec) ->
        ( string_of_int spec.Serve.Workload.id,
          Str (snapshot_digest (Serve.Scheduler.run_solo spec)) ))
      (farm_specs seed)
  in
  Obj [ ("mode", Str "reference"); ("workload", Str farm_name); ("seed", Int seed); ("jobs", Obj jobs) ]

(* ------------------------------------------------------------------ *)
(* Traced simulation replay                                            *)
(* ------------------------------------------------------------------ *)

(* Genkernels.generate recomposed from its public stage calls, with each
   stage charged to its own codegen layer.  Evaluation order follows
   generate's (OCaml evaluates application arguments and tuple
   components right to left), and the traced run checks the result
   structurally equal to generate's. *)
let recompose (p : Params.t) =
  let stage name f = span ("codegen." ^ name) f in
  let opts = Genkernels.default_options in
  let f, ctx =
    stage "pde" (fun () -> (Pfcore.Model.make_fields p, Pfcore.Model.make_ctx ~symbolic:false))
  in
  let optimize body =
    let body = stage "simplify" (fun () -> Field.Assignment.simplify body) in
    let body =
      stage "freeze" (fun () ->
          Field.Assignment.freeze_parameters (Genkernels.guard_bindings @ ctx.Pfcore.Model.bindings)
            body)
    in
    stage "cse" (fun () -> Field.Assignment.cse body)
  in
  let make_full ~name ~src ~dst rhs =
    let stores =
      stage "discretize" (fun () ->
          let scheme = Genkernels.scheme_of opts p in
          let rhs = List.map (Fd.Discretize.discretize scheme) rhs in
          Genkernels.euler_stores ctx p ~src ~dst rhs)
    in
    let body = optimize stores in
    stage "lower" (fun () -> Ir.Kernel.make ~name ~dim:p.Params.dim body)
  in
  let make_split ~name ~src ~dst ~stag_field rhs =
    let registry, rhs =
      stage "discretize" (fun () ->
          let scheme = Genkernels.scheme_of opts p in
          let registry = Fd.Discretize.make_registry stag_field in
          (registry, List.map (Fd.Discretize.discretize_split scheme ~registry) rhs))
    in
    let stag_body = optimize (Fd.Discretize.registry_kernel_body registry) in
    let main_stores = stage "discretize" (fun () -> Genkernels.euler_stores ctx p ~src ~dst rhs) in
    let main_body = optimize main_stores in
    let axes = List.init p.Params.dim Fun.id in
    stage "lower" (fun () ->
        {
          Genkernels.stag =
            Ir.Kernel.make ~iteration:(Ir.Kernel.StaggeredSweep axes) ~name:(name ^ "_stag")
              ~dim:p.Params.dim stag_body;
          main = Ir.Kernel.make ~name:(name ^ "_main") ~dim:p.Params.dim main_body;
        })
  in
  let fs = f in
  let phi_rhs = stage "pde" (fun () -> Array.to_list (Pfcore.Model.phi_rhs ctx p fs)) in
  let phi_full = make_full ~name:"phi_full" ~src:fs.phi_src ~dst:fs.phi_dst phi_rhs in
  let phi_split =
    make_split ~name:"phi_split" ~src:fs.phi_src ~dst:fs.phi_dst ~stag_field:fs.phi_stag phi_rhs
  in
  let mu_rhs = stage "pde" (fun () -> Array.to_list (Pfcore.Model.mu_rhs ctx p fs)) in
  let mu_full, mu_split =
    if mu_rhs = [] then (None, None)
    else begin
      let split =
        make_split ~name:"mu_split" ~src:fs.mu_src ~dst:fs.mu_dst ~stag_field:fs.mu_stag mu_rhs
      in
      let full = make_full ~name:"mu_full" ~src:fs.mu_src ~dst:fs.mu_dst mu_rhs in
      (Some full, Some split)
    end
  in
  let projection =
    stage "lower" (fun () ->
        if Pfcore.Model.needs_projection p then Some (Genkernels.projection_kernel p fs) else None)
  in
  {
    Genkernels.params = p;
    fields = fs;
    phi_full;
    phi_split;
    mu_full;
    mu_split;
    projection;
    bindings = Genkernels.guard_bindings @ ctx.Pfcore.Model.bindings;
  }

let same_kernels (a : Genkernels.t) (b : Genkernels.t) =
  a.fields = b.fields && a.phi_full = b.phi_full && a.phi_split = b.phi_split
  && a.mu_full = b.mu_full && a.mu_split = b.mu_split && a.projection = b.projection
  && a.bindings = b.bindings

(* Per-sweep ns/cell; sweeps of the first step are cold and not sampled. *)
let kernel_time (sim : Timestep.t) (b : Vm.Engine.bound) ~suffix ~cells f =
  let (), d = span_d "vm.kernel" f in
  if sim.Timestep.step_count > 0 then
    sample ("kernel." ^ b.Vm.Engine.kernel.Ir.Kernel.name ^ suffix) (d *. 1e9 /. float_of_int cells)

let run_kernel sim b =
  kernel_time sim b ~suffix:"" ~cells:(Vm.Engine.sweep_cells b) (fun () ->
      Timestep.run_kernel sim b)

let run_region sim b region =
  kernel_time sim b ~suffix:(Vm.Engine.region_suffix region)
    ~cells:(Vm.Engine.region_cells b region) (fun () -> Timestep.run_kernel_region sim region b)

(* Timestep.phase_phi / phase_mu, one bound kernel at a time. *)
let replay_phase_phi (sim : Timestep.t) =
  (match sim.Timestep.variant_phi with
  | Timestep.Full -> run_kernel sim sim.Timestep.phi_full
  | Timestep.Split ->
    run_kernel sim sim.Timestep.phi_stag;
    run_kernel sim sim.Timestep.phi_main);
  Option.iter (run_kernel sim) sim.Timestep.projection

let replay_phase_mu sim = List.iter (fun (b, _) -> run_kernel sim b) (Timestep.mu_chain sim)

(* Timestep.step on one block with the periodic closure exchange. *)
let replay_single_step (sim : Timestep.t) =
  let f = sim.Timestep.gen.Genkernels.fields in
  let exchange fs =
    let (), d = span_d "step.exchange" (fun () -> sim.Timestep.exchange sim.Timestep.block fs) in
    sample "step.exchange" d
  in
  replay_phase_phi sim;
  exchange f.Pfcore.Model.phi_dst;
  replay_phase_mu sim;
  if Timestep.has_mu sim then exchange f.Pfcore.Model.mu_dst;
  span "core.step" (fun () -> Timestep.finish sim)

(* Forest.step in the order of Forest.step_overlapped (the forest
   workload runs with --overlap and has a μ family): post the axis-0 φ_dst
   exchange, μ interiors, await, remaining axes, μ shells, μ_dst exchange,
   finish. *)
let replay_forest_step (f : Forest.t) =
  let comm = f.Forest.comm in
  let each g = Array.iteri (fun r sim -> if Blocks.Mpisim.live comm r then g sim) f.Forest.sims in
  let fields = Forest.fields f in
  let comm_span name g =
    let r, d = span_d "comm" g in
    sample name d;
    r
  in
  span "core.step" (fun () -> Blocks.Mpisim.begin_step comm ~step:(Forest.step_count f));
  each replay_phase_phi;
  let phi_dst = fields.Pfcore.Model.phi_dst in
  let pending = comm_span "comm.exchange" (fun () -> Forest.post_axis0_overlap f phi_dst) in
  each (fun sim ->
      List.iter (fun (b, h) -> run_region sim b (Vm.Engine.Interior h)) (Timestep.mu_chain sim));
  comm_span "comm.wait" (fun () -> List.iter (Blocks.Ghost.await_slab comm) pending);
  comm_span "comm.exchange" (fun () ->
      for axis = 1 to Array.length f.Forest.block_dims - 1 do
        Forest.post_axis_sends f phi_dst ~axis;
        Forest.drain_axis_recvs f phi_dst ~axis
      done);
  each (fun sim ->
      List.iter (fun (b, h) -> run_region sim b (Vm.Engine.Shell h)) (Timestep.mu_chain sim));
  comm_span "comm.exchange" (fun () -> Forest.exchange f fields.Pfcore.Model.mu_dst);
  span "core.step" (fun () ->
      each Timestep.finish;
      Blocks.Mpisim.finalize comm)

let count_flops (k : Ir.Kernel.t) = Field.Opcount.total_flops (Genkernels.counts k)

(* Bytes per cell computed from array sizes: every padded buffer the
   kernel touches, once, over the cells it sweeps. *)
let bytes_per_cell (b : Vm.Engine.bound) =
  let touched = Ir.Kernel.fields b.Vm.Engine.kernel in
  let bytes =
    List.fold_left
      (fun acc fs ->
        acc + (8 * Array.length (Vm.Engine.buffer b.Vm.Engine.block fs).Vm.Buffer.data))
      0 touched
  in
  float_of_int bytes /. float_of_int (Vm.Engine.sweep_cells b)

let ecm_ns_per_cell (k : Ir.Kernel.t) ~block_n =
  let m = Perfmodel.Machine.skylake_8174 in
  let p = Perfmodel.Ecm.predict m k ~block_n in
  Perfmodel.Ecm.single_core_cycles p
  /. float_of_int Perfmodel.Ecm.cacheline_lups
  /. m.Perfmodel.Machine.clock_ghz

let trace_sim w ~seed =
  let t0 = now () in
  let shift = shift_of w ~seed in
  let params = w.params () in
  let gen = recompose params in
  let exec, bind_s = span_d "vm.bind" (fun () -> create_exec ?backend:w.backend w gen) in
  span "core.init" (fun () -> init_exec exec ~shift);
  let sim0 = first_sim exec in
  let step_kernels = kernels_of_step sim0 in
  (* First Jit.get per program is its compile; Engine.run then hits the
     cache exactly as the untraced run's lazy first sweep would have
     missed it. *)
  let misses0 = snd (Vm.Jit.cache_stats ()) in
  let jit_get (b : Vm.Engine.bound) =
    ignore
      (Vm.Jit.get ~dims:b.Vm.Engine.block.Vm.Engine.dims ~ghost:b.Vm.Engine.block.Vm.Engine.ghost
         b.Vm.Engine.kernel b.Vm.Engine.lowered)
  in
  let compile_s =
    if sim0.Timestep.backend <> Vm.Engine.Jit then 0.
    else sum (List.map (fun b -> snd (span_d "vm.jit" (fun () -> jit_get b))) step_kernels)
  in
  let compiles = snd (Vm.Jit.cache_stats ()) - misses0 in
  let comm_counters () =
    match exec with
    | Many f -> (f.Forest.comm.Blocks.Mpisim.messages_sent, f.Forest.comm.Blocks.Mpisim.bytes_sent)
    | Single _ -> (0, 0)
  in
  let msgs0, bytes0 = comm_counters () in
  let captures = ref [] in
  let capture f =
    let snap, d = span_d "ckpt" (fun () -> Resilience.Snapshot.capture f) in
    sample "ckpt.capture" d;
    captures := snap :: !captures;
    snap
  in
  (match exec with
  | Single sim ->
    for _ = 1 to w.steps do
      replay_single_step sim
    done
  | Many f ->
    protected_steps ~step:replay_forest_step ~capture ~every:ckpt_every ~steps:w.steps
      ~on_step:ignore f);
  let msgs1, bytes1 = comm_counters () in
  let diag, diag_s =
    if w.ranks > 1 then
      let v, d = span_d "reduce" (fun () -> diag_values gen exec) in
      (bits_hex v, d)
    else ("", 0.)
  in
  let wall = now () -. t0 in
  let unattributed = 1. -. (attributed () /. wall) in
  (* probes after the timed replay *)
  let lookup_us =
    if sim0.Timestep.backend <> Vm.Engine.Jit then 0.
    else
      median
        (List.concat_map
           (fun b ->
             List.init 200 (fun _ ->
                 let t = now () in
                 jit_get b;
                 (now () -. t) *. 1e6))
           step_kernels)
  in
  let encodes =
    List.map
      (fun snap ->
        let t = now () in
        let s = Resilience.Snapshot.encode snap in
        ((now () -. t) *. 1e3, String.length s))
      !captures
  in
  let fidelity = same_kernels gen (Genkernels.generate params) in
  let steps = float_of_int w.steps in
  let per_step name = sum (samples_of name) *. 1e3 /. steps in
  let kernel_ns name = median (samples_of ("kernel." ^ name)) in
  let kernel_rows =
    List.concat_map
      (fun (b : Vm.Engine.bound) ->
        let k = b.Vm.Engine.kernel in
        let name = k.Ir.Kernel.name in
        let names =
          if List.exists (fun (c, _) -> c == b) (Timestep.mu_chain sim0) && w.ranks > 1
          then [ name ^ ".interior"; name ^ ".shell" ]
          else [ name ]
        in
        List.map
          (fun n ->
            Obj
              [
                ("kernel", Str n);
                ("measured_ns_per_cell", Num (kernel_ns n));
                ("predicted_ecm_ns_per_cell", Num (ecm_ns_per_cell k ~block_n:w.size));
                ("computed_flops_per_cell", Int (count_flops k));
                ("computed_bytes_per_cell", Num (bytes_per_cell b));
              ])
          names)
      step_kernels
  in
  let layer name = match Hashtbl.find_opt self_time name with Some r -> !r | None -> 0. in
  let codegen s = layer ("codegen." ^ s) in
  let kernel_metric n = ("vm.kernel." ^ n ^ ".ns_per_cell", Num (kernel_ns n)) in
  Obj
    [
      ("mode", Str "trace");
      ("workload", Str w.name);
      ("seed", Int seed);
      ("wall_s", Num wall);
      ("digest", Str (exec_digest w gen exec ~shift));
      ("diag", Str diag);
      ("fidelity", Bool fidelity);
      ( "metrics",
        Obj
          [
            ("codegen.pde_s", Num (codegen "pde"));
            ("codegen.discretize_s", Num (codegen "discretize"));
            ("codegen.simplify_s", Num (codegen "simplify"));
            ("codegen.freeze_s", Num (codegen "freeze"));
            ("codegen.cse_s", Num (codegen "cse"));
            ("codegen.lower_s", Num (codegen "lower"));
            ( "codegen.flops_per_cell",
              Int (List.fold_left (fun acc b -> acc + count_flops b.Vm.Engine.kernel) 0 step_kernels)
            );
            ("vm.bind_s", Num bind_s);
            ("vm.jit.compile_s", Num compile_s);
            ("vm.jit.compiles", Int compiles);
            ("vm.jit.lookup_us", Num lookup_us);
            kernel_metric "phi_full";
            kernel_metric "projection";
            kernel_metric "mu_full";
            kernel_metric "mu_full.interior";
            kernel_metric "mu_full.shell";
            ("step.exchange_ms", Num (per_step "step.exchange"));
            ("comm.exchange_ms_per_step", Num (per_step "comm.exchange"));
            ("comm.overlap_wait_ms_per_step", Num (per_step "comm.wait"));
            ("comm.messages_per_step", Num (float_of_int (msgs1 - msgs0) /. steps));
            ("comm.bytes_per_step", Num (float_of_int (bytes1 - bytes0) /. steps));
            ("reduce.diag_ms", Num (diag_s *. 1e3));
            ("ckpt.capture_ms", Num (median (samples_of "ckpt.capture") *. 1e3));
            ("ckpt.encode_ms", Num (median (List.map fst encodes)));
            ( "ckpt.bytes",
              Num (median (List.map (fun (_, n) -> float_of_int n) encodes)) );
            ("trace.unattributed_frac", Num unattributed);
          ] );
      ("kernels", Arr kernel_rows);
      ( "self_s",
        Obj (List.sort compare (Hashtbl.fold (fun k r acc -> (k, Num !r) :: acc) self_time [])) );
      ("provenance", provenance w.name);
    ]

(* ------------------------------------------------------------------ *)
(* Farm                                                                *)
(* ------------------------------------------------------------------ *)

let spec_cells (spec : Serve.Workload.spec) =
  float_of_int
    (int_of_float
       (float_of_int spec.Serve.Workload.size ** float_of_int (Serve.Workload.dim_of spec)))

let job_rows (stats : Serve.Scheduler.run_stats) =
  List.map
    (fun (r : Serve.Scheduler.job_result) ->
      let spec = r.Serve.Scheduler.r_spec in
      Obj
        [
          ("id", Int spec.Serve.Workload.id);
          ("latency_s", Num (r.Serve.Scheduler.latency_ns *. 1e-9));
          ("steps", Int spec.Serve.Workload.steps);
          ("cells", Num (spec_cells spec));
          ("digest", Str (snapshot_digest r.Serve.Scheduler.final));
        ])
    stats.Serve.Scheduler.results

(* The batch has no per-step hook.  While [f] runs, a thread of the same
   domain times a reference sweep every [sweep_period] seconds: it gets the
   runtime lock at the next tick when [f] computes, and at once when [f]
   waits for a JIT compile, so the sweeps sample the whole batch.  They add
   about 3% to its makespan. *)
let sweep_period = 0.05

let sweeping f =
  let stop = Atomic.make false in
  let sweeps = ref [] in
  let sampler =
    Thread.create
      (fun () ->
        while not (Atomic.get stop) do
          Thread.delay sweep_period;
          if not (Atomic.get stop) then sweeps := reference_sweep () :: !sweeps
        done)
      ()
  in
  let r =
    Fun.protect
      ~finally:(fun () ->
        Atomic.set stop true;
        Thread.join sampler)
      f
  in
  (r, List.rev !sweeps)

(* `pfgen serve`: the whole batch submitted at t=0 to the default
   scheduler configuration. *)
let run_farm ~seed =
  let t0 = now () in
  let specs = farm_specs seed in
  let stats, sweeps =
    sweeping (fun () -> Serve.Scheduler.run ~mempool:(Serve.Mempool.create ()) specs)
  in
  let t_end = now () in
  let first =
    List.fold_left
      (fun acc (r : Serve.Scheduler.job_result) -> Float.min acc r.Serve.Scheduler.latency_ns)
      Float.infinity stats.Serve.Scheduler.results
  in
  Obj
    [
      ("mode", Str "rep");
      ("workload", Str farm_name);
      ("seed", Int seed);
      ("setup_s", Num (first *. 1e-9));
      ("wall_s", Num (t_end -. t0));
      ("makespan_s", Num (stats.Serve.Scheduler.elapsed_ns *. 1e-9));
      ("sweep_ms", Arr (List.map (fun x -> Num (x *. 1e3)) sweeps));
      ("submitted", Int (List.length specs));
      ("rejected", Int (List.length stats.Serve.Scheduler.rejected));
      ("jobs", Arr (job_rows stats));
      ("peak_rss_mb", Num (peak_rss_mb ()));
      ("provenance", provenance farm_name);
    ]

(* The crash-injected jobs again, outside the farm: the quanta
   Scheduler.run_quantum gives them, each under Recovery.run_protected
   with the job's persistent store — the farm reports restarts but not
   the steps its rollbacks replayed. *)
let replay_crash_jobs config specs =
  List.fold_left
    (fun (restarts, replayed) (spec : Serve.Workload.spec) ->
      match spec.Serve.Workload.crash_step with
      | None -> (restarts, replayed)
      | Some k ->
        let split = if spec.Serve.Workload.split then Timestep.Split else Timestep.Full in
        let grid, block_dims = Serve.Workload.decomposition spec in
        let forest =
          Forest.create ~variant_phi:split ~variant_mu:split
            ~num_domains:config.Serve.Scheduler.num_domains ~backend:spec.Serve.Workload.backend
            ~grid ~block_dims
            (Serve.Scheduler.gen_of spec.Serve.Workload.family)
        in
        Blocks.Mpisim.set_fault_plan forest.Forest.comm
          (Some (Blocks.Faultplan.chaos ~seed:spec.Serve.Workload.seed ~crash_step:k ()));
        Array.iter
          (fun sim -> Serve.Workload.init_sim sim ~seed:spec.Serve.Workload.seed)
          forest.Forest.sims;
        Forest.prime forest;
        let store = Resilience.Store.create () in
        let restarts = ref restarts and replayed = ref replayed in
        while Forest.step_count forest < spec.Serve.Workload.steps do
          let steps =
            min config.Serve.Scheduler.quantum
              (spec.Serve.Workload.steps - Forest.step_count forest)
          in
          let st =
            Resilience.Recovery.run_protected ~store ~every:config.Serve.Scheduler.ckpt_every
              ~steps forest
          in
          restarts := !restarts + st.Resilience.Recovery.restarts;
          replayed := !replayed + st.Resilience.Recovery.replayed_steps
        done;
        (!restarts, !replayed))
    (0, 0) specs

let trace_farm ~seed =
  let t0 = now () in
  let specs = farm_specs seed in
  let families = List.sort_uniq compare (List.map (fun s -> s.Serve.Workload.family) specs) in
  let codegen_s =
    sum
      (List.map
         (fun fam -> snd (span_d "serve" (fun () -> ignore (Serve.Scheduler.gen_of fam))))
         families)
  in
  let misses0 = snd (Vm.Jit.cache_stats ()) in
  let cold, cold_s =
    span_d "serve" (fun () -> Serve.Scheduler.run ~mempool:(Serve.Mempool.create ()) specs)
  in
  let compiles = snd (Vm.Jit.cache_stats ()) - misses0 in
  let wall = now () -. t0 in
  let unattributed = 1. -. (attributed () /. wall) in
  (* probes after the traced batch *)
  let _, warm_s =
    span_d "probe" (fun () -> Serve.Scheduler.run ~mempool:(Serve.Mempool.create ()) specs)
  in
  let restarts, replayed = replay_crash_jobs (Serve.Scheduler.default_config ()) specs in
  let mp = cold.Serve.Scheduler.mempool in
  let requests = mp.Serve.Mempool.hits + mp.Serve.Mempool.misses in
  let q = cold.Serve.Scheduler.queue in
  (* flops of the kernels one step of each job runs, weighted by the
     job's lattice updates *)
  let weighted, lups =
    List.fold_left
      (fun (wf, l) (spec : Serve.Workload.spec) ->
        let g = Serve.Scheduler.gen_of spec.Serve.Workload.family in
        let ks =
          (if spec.Serve.Workload.split then [ g.phi_split.stag; g.phi_split.main ]
           else [ g.phi_full ])
          @ Option.to_list g.projection
          @
          match (spec.Serve.Workload.split, g.mu_full, g.mu_split) with
          | _, None, _ -> []
          | false, Some k, _ -> [ k ]
          | true, _, Some pr -> [ pr.stag; pr.main ]
          | true, _, None -> []
        in
        let f = float_of_int (List.fold_left (fun acc k -> acc + count_flops k) 0 ks) in
        let u = spec_cells spec *. float_of_int spec.Serve.Workload.steps in
        (wf +. (f *. u), l +. u))
      (0., 0.) specs
  in
  Obj
    [
      ("mode", Str "trace");
      ("workload", Str farm_name);
      ("seed", Int seed);
      ("wall_s", Num wall);
      ("jobs", Arr (job_rows cold));
      ("fidelity", Bool (restarts = cold.Serve.Scheduler.restarts));
      ( "metrics",
        Obj
          [
            ("codegen.flops_per_cell", Num (weighted /. lups));
            ("vm.jit.compiles", Int compiles);
            ("recovery.restarts", Int restarts);
            ("recovery.replayed_steps", Int replayed);
            ("serve.codegen_s", Num codegen_s);
            ("serve.jit_compile_s", Num (cold_s -. warm_s));
            ("serve.warm_run_s", Num warm_s);
            ( "serve.mempool_hit_rate",
              Num
                (if requests = 0 then 0.
                 else float_of_int mp.Serve.Mempool.hits /. float_of_int requests) );
            ("serve.preemptions", Int cold.Serve.Scheduler.preemptions);
            ( "serve.parked",
              Int (q.Serve.Queue.parked_budget + q.Serve.Queue.parked_quota) );
            ("trace.unattributed_frac", Num unattributed);
          ] );
      ( "self_s",
        Obj (List.sort compare (Hashtbl.fold (fun k r acc -> (k, Num !r) :: acc) self_time [])) );
      ("provenance", provenance farm_name);
    ]

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

let usage () =
  prerr_endline
    ("usage: perfbench.exe (rep|reference) --workload ("
    ^ String.concat "|" workload_names
    ^ ") (--seed N [--trace] | --every-shift)");
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let mode, rest = match args with m :: r -> (m, r) | [] -> usage () in
  let workload = ref "" and seed = ref None and traced = ref false and every_shift = ref false in
  let rec parse = function
    | "--workload" :: w :: r ->
      workload := w;
      parse r
    | "--seed" :: s :: r ->
      seed := int_of_string_opt s;
      if !seed = None then usage ();
      parse r
    | "--trace" :: r ->
      traced := true;
      parse r
    | "--every-shift" :: r ->
      every_shift := true;
      parse r
    | [] -> ()
    | _ -> usage ()
  in
  parse rest;
  if not (List.mem !workload workload_names) then usage ();
  pin_environment !workload;
  let sim = List.find_opt (fun w -> w.name = !workload) sims in
  let result =
    match (mode, sim, !seed, !traced, !every_shift) with
    | "rep", Some w, Some seed, false, false -> run_sim w ~seed
    | "rep", Some w, Some seed, true, false -> trace_sim w ~seed
    | "rep", None, Some seed, false, false -> run_farm ~seed
    | "rep", None, Some seed, true, false -> trace_farm ~seed
    | "reference", Some w, Some seed, false, false -> reference_sim w ~seed
    | "reference", Some w, None, false, true -> reference_every_shift w
    | "reference", None, Some seed, false, false -> reference_farm ~seed
    | _ -> usage ()
  in
  print_json result
