(** ECM drift oracle: measured kernel cost vs. the analytic model.

    The paper's pipeline selects kernel variants from ECM predictions
    (Kerncraft workflow, §6); this module closes that loop mechanically.
    Every P1/P2 kernel variant — φ full, φ split, μ full, μ split, eight in
    total — is executed through [Vm.Engine] on a small block and timed with
    the monotonic clock, and the measured per-cell costs are compared
    against [Perfmodel.Ecm] single-core predictions.

    Absolute VM numbers are meaningless (the VM runs a tape or
    OCaml-compiled program, not SIMD machine code), so the oracle compares
    {e ratios}: split/full per kernel family and φ/μ per model.  Both sides
    of a ratio run on the same backend with the same per-operation
    overhead, so if the generated operation structure matches what the
    model was fed, the ratios must agree up to measurement noise.  The drift of a pair is

      deviation = |ln (measured_ratio / predicted_ratio)|

    and the oracle's verdict requires every deviation ≤ {!threshold} plus
    the paper's headline ordering: split costs at most as much as full for
    the μ kernels (Table 1 / Fig. 2), both measured and predicted.
    `pfgen drift --check` enforces the verdict in the [@soak] gate, over
    best-of-5 repetitions; the [obs] test suite checks only the
    deterministic model side, so tier-1 makes no wall-clock claim. *)

type row = {
  model : string;          (** "P1" or "P2" *)
  variant : string;        (** "phi-full", "phi-split", "mu-full", "mu-split" *)
  measured_ns_per_lup : float;
  predicted_cy_per_lup : float;
}

type pair = {
  label : string;
  measured_ratio : float;
  predicted_ratio : float;
  deviation : float;       (** |ln (measured / predicted)| *)
}

type report = { block_n : int; sweeps : int; rows : row list; pairs : pair list }

(** Documented drift tolerance: a pair is in agreement when its measured
    ratio is within a factor of e^1.2 ≈ 3.3 of the model's.  The VM pays
    the same dispatch for every operation while the ECM weighs adds, mults,
    divisions and memory traffic differently, so ratios track but do not
    coincide; observed deviations are ≈0.3–0.6 (see EXPERIMENTS.md). *)
let threshold = 1.2

(* ------------------------------------------------------------------ *)
(* Measurement                                                         *)
(* ------------------------------------------------------------------ *)

(* Same smooth initialization the bench harness uses: phase fields near the
   simplex center so no kernel hits a degenerate denominator. *)
let drift_block (gen : Pfcore.Genkernels.t) ~dims =
  let block = Vm.Engine.make_block ~ghost:2 ~dims (Pfcore.Timestep.field_list gen) in
  let n = float_of_int gen.Pfcore.Genkernels.params.Pfcore.Params.n_phases in
  List.iter
    (fun (_, buf) ->
      Vm.Buffer.init buf (fun c comp ->
          (1. /. n) +. (0.01 *. sin (float_of_int ((c.(0) * 3) + (comp * 7)))));
      Vm.Buffer.periodic buf)
    block.Vm.Engine.buffers;
  block

let runtime_params (gen : Pfcore.Genkernels.t) =
  let p = gen.Pfcore.Genkernels.params in
  ("t", 0.) :: ("dx", p.Pfcore.Params.dx) :: ("dt", p.Pfcore.Params.dt)
  :: gen.Pfcore.Genkernels.bindings

(* Best-of-[reps] time of [sweeps] sweeps of all [kernels] (a split variant
   passes both its sweeps so the measured quantity is cost per full update),
   divided by interior cells and sweeps -> ns per lattice update. *)
let measure_ns_per_lup gen kernels ~dims ~sweeps ~reps =
  let block = drift_block gen ~dims in
  let bounds = List.map (fun k -> Vm.Engine.bind k block) kernels in
  let params = runtime_params gen in
  let sweep step = List.iter (fun b -> Vm.Engine.run ~step ~params b) bounds in
  sweep 0 (* warmup *);
  let best = ref infinity in
  for rep = 1 to reps do
    let (), dt_ns =
      Obs.Clock.time_ns (fun () ->
          for s = 1 to sweeps do
            sweep ((rep * sweeps) + s)
          done)
    in
    if dt_ns < !best then best := dt_ns
  done;
  let cells = float_of_int (Array.fold_left ( * ) 1 dims) in
  !best /. float_of_int sweeps /. cells

let predicted_cy_per_lup machine kernels ~block_n =
  List.fold_left
    (fun acc k ->
      acc
      +. Perfmodel.Ecm.single_core_cycles (Perfmodel.Ecm.predict machine k ~block_n)
         /. float_of_int Perfmodel.Ecm.cacheline_lups)
    0. kernels

(* ------------------------------------------------------------------ *)
(* The oracle                                                          *)
(* ------------------------------------------------------------------ *)

let variant_kernels (g : Pfcore.Genkernels.t) =
  let split (p : Pfcore.Genkernels.pair) = [ p.Pfcore.Genkernels.stag; p.Pfcore.Genkernels.main ] in
  [
    ("phi-full", [ g.Pfcore.Genkernels.phi_full ]);
    ("phi-split", split g.Pfcore.Genkernels.phi_split);
    ("mu-full", [ Option.get g.Pfcore.Genkernels.mu_full ]);
    ("mu-split", split (Option.get g.Pfcore.Genkernels.mu_split));
  ]

let find rows model variant =
  List.find (fun r -> r.model = model && r.variant = variant) rows

let make_pair rows ~label (ma, va) (mb, vb) =
  let a = find rows ma va and b = find rows mb vb in
  let measured_ratio = a.measured_ns_per_lup /. b.measured_ns_per_lup in
  let predicted_ratio = a.predicted_cy_per_lup /. b.predicted_cy_per_lup in
  { label; measured_ratio; predicted_ratio;
    deviation = Float.abs (Float.log (measured_ratio /. predicted_ratio)) }

(** Run the oracle: measure all eight kernel variants and build the ratio
    pairs.  [n] is the cubic block edge (default 12 — big enough that loop
    overhead is amortized, small enough for the test suite). *)
let run ?(n = 12) ?(sweeps = 2) ?(reps = 5) ?(machine = Perfmodel.Machine.skylake_8174) () =
  let rows =
    List.concat_map
      (fun (model, params) ->
        let g = Pfcore.Genkernels.generate params in
        let dims = Array.make params.Pfcore.Params.dim n in
        List.map
          (fun (variant, kernels) ->
            {
              model;
              variant;
              measured_ns_per_lup = measure_ns_per_lup g kernels ~dims ~sweeps ~reps;
              predicted_cy_per_lup = predicted_cy_per_lup machine kernels ~block_n:n;
            })
          (variant_kernels g))
      [ ("P1", Pfcore.Params.p1 ()); ("P2", Pfcore.Params.p2 ()) ]
  in
  let pairs =
    List.concat_map
      (fun m ->
        [
          make_pair rows ~label:(m ^ " mu split/full") (m, "mu-split") (m, "mu-full");
          make_pair rows ~label:(m ^ " phi split/full") (m, "phi-split") (m, "phi-full");
          make_pair rows ~label:(m ^ " phi/mu (full)") (m, "phi-full") (m, "mu-full");
        ])
      [ "P1"; "P2" ]
  in
  { block_n = n; sweeps; rows; pairs }

let max_deviation r = List.fold_left (fun acc p -> Float.max acc p.deviation) 0. r.pairs

let mu_split_le_full cost r =
  List.for_all
    (fun m -> cost (find r.rows m "mu-split") <= cost (find r.rows m "mu-full"))
    [ "P1"; "P2" ]

(** The model side of the μ ordering: predicted split ≤ full for P1 and
    P2.  Deterministic, unlike the measured side. *)
let predicted_mu_ordering_ok = mu_split_le_full (fun row -> row.predicted_cy_per_lup)

(** The paper's variant-selection ordering for μ, on both sides: measured
    split ≤ full and predicted split ≤ full, for P1 and P2. *)
let mu_ordering_ok r =
  mu_split_le_full (fun row -> row.measured_ns_per_lup) r && predicted_mu_ordering_ok r

(** [Ok ()] when every ratio is within {!threshold} and the μ ordering
    holds; [Error msg] names the first violation. *)
let verdict r =
  if not (mu_ordering_ok r) then
    Error "mu split/full ordering disagrees with the ECM model"
  else
    match List.find_opt (fun p -> p.deviation > threshold) r.pairs with
    | Some p ->
      Error
        (Printf.sprintf "%s drifted: measured ratio %.3f vs model %.3f (deviation %.2f > %.2f)"
           p.label p.measured_ratio p.predicted_ratio p.deviation threshold)
    | None -> Ok ()

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let pp ppf r =
  Fmt.pf ppf "ECM drift oracle: %d^3 block, %d sweep(s), VM measured vs. model@."
    r.block_n r.sweeps;
  Fmt.pf ppf "%-4s %-10s %16s %16s@." "" "variant" "measured ns/LUP" "model cy/LUP";
  List.iter
    (fun row ->
      Fmt.pf ppf "%-4s %-10s %16.1f %16.1f@." row.model row.variant
        row.measured_ns_per_lup row.predicted_cy_per_lup)
    r.rows;
  Fmt.pf ppf "@.%-20s %14s %14s %10s@." "ratio pair" "measured" "model" "deviation";
  List.iter
    (fun p ->
      Fmt.pf ppf "%-20s %14.3f %14.3f %10.2f@." p.label p.measured_ratio
        p.predicted_ratio p.deviation)
    r.pairs;
  Fmt.pf ppf "max deviation %.2f (threshold %.2f), mu ordering %s@." (max_deviation r)
    threshold
    (if mu_ordering_ok r then "agrees with model" else "DISAGREES with model")

let json_num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.6g" v

let to_json r =
  let row_json row =
    Printf.sprintf
      "{\"model\":%S,\"variant\":%S,\"measured_ns_per_lup\":%s,\"predicted_cy_per_lup\":%s}"
      row.model row.variant (json_num row.measured_ns_per_lup)
      (json_num row.predicted_cy_per_lup)
  in
  let pair_json p =
    Printf.sprintf
      "{\"label\":%S,\"measured_ratio\":%s,\"predicted_ratio\":%s,\"deviation\":%s}"
      p.label (json_num p.measured_ratio) (json_num p.predicted_ratio)
      (json_num p.deviation)
  in
  Printf.sprintf
    "{\"block_n\":%d,\"sweeps\":%d,\"threshold\":%s,\"max_deviation\":%s,\"mu_ordering_ok\":%b,\"rows\":[%s],\"pairs\":[%s]}\n"
    r.block_n r.sweeps (json_num threshold)
    (json_num (max_deviation r))
    (mu_ordering_ok r)
    (String.concat "," (List.map row_json r.rows))
    (String.concat "," (List.map pair_json r.pairs))
