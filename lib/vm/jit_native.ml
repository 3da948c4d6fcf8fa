(** Native tier of the JIT: runtime OCaml code generation.

    [Jit] translates a kernel tape into OCaml source (straight-line
    let-bound float arithmetic — the register-allocatable form the tape
    cannot reach); this module turns that source into live machine code
    using the installed toolchain: write the module to a scratch
    directory, shell out to [ocamlopt -shared], and [Dynlink] the
    resulting [.cmxs] into the running process.

    The generated module exports nothing the host could link against —
    the host was built long before the module existed — so the compiled
    closures come back through the one channel Dynlink leaves open: the
    module's initializer raises an exception carrying the closure array,
    which Dynlink surfaces verbatim as
    [Error (Library's_module_initializers_failed e)].  The code segment
    of a loaded [.cmxs] is never unmapped, so the extracted closures
    outlive the (deleted) scratch files.

    Everything here degrades softly: no native Dynlink (bytecode host),
    no compiler on PATH, or a compile error all yield [Error reason], and
    the caller keeps the portable tape program.  Correctness never
    depends on this module — only the speedup gate does.  To run the
    tape itself, select [--backend interp]. *)

(* The compiler to shell out to, discovered once.  [ocamlopt.opt] is the
   fast native-code binary; plain [ocamlopt] and [ocamlfind ocamlopt]
   cover PATH setups that only expose the wrappers. *)
let compiler =
  lazy
    (List.find_opt
       (fun c -> Sys.command (c ^ " -version > /dev/null 2>&1") = 0)
       [ "ocamlopt.opt"; "ocamlopt"; "ocamlfind ocamlopt" ])

let available () = Dynlink.is_native && Lazy.force compiler <> None

(* Scratch directory, one per process.  Files are removed after each
   load; the directory is removed at exit when this process created it
   (a stale one left by an earlier process with the same pid is reused
   and left alone). *)
let scratch_dir =
  lazy
    (let dir =
       Filename.concat (Filename.get_temp_dir_name ())
         (Printf.sprintf "pfgen-jit-%d" (Unix.getpid ()))
     in
     (match Unix.mkdir dir 0o700 with
     | () -> at_exit (fun () -> try Unix.rmdir dir with Unix.Unix_error _ -> ())
     | exception Unix.Unix_error (Unix.EEXIST, _, _) -> ());
     dir)

let counter = ref 0

(** A fresh, valid, process-unique compilation unit name.  Dynlink loads
    privately, but unique names keep every load independent. *)
let fresh_modname () =
  incr counter;
  Printf.sprintf "Pfgen_jit_k%d_%d" (Unix.getpid ()) !counter

let read_file path =
  try
    let ic = open_in path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  with _ -> ""

(** Compile [source] (which must define the given module and whose
    initializer must [raise (Handoff closures)]) and return the carried
    value.  The result is an [Obj.t]: only the generator knows the
    closure types, so only the generator may cast. *)
let load ~modname ~source : (Obj.t, string) result =
  if not Dynlink.is_native then Error "bytecode host: cannot load .cmxs"
  else
    match Lazy.force compiler with
    | None -> Error "no ocamlopt on PATH"
    | Some cc ->
      let dir = Lazy.force scratch_dir in
      let base = String.uncapitalize_ascii modname in
      let ml = Filename.concat dir (base ^ ".ml") in
      let cmxs = Filename.concat dir (base ^ ".cmxs") in
      let log = Filename.concat dir (base ^ ".log") in
      let cleanup () =
        List.iter
          (fun ext -> try Sys.remove (Filename.concat dir (base ^ ext)) with _ -> ())
          [ ".ml"; ".cmxs"; ".cmx"; ".cmi"; ".o"; ".log" ]
      in
      let oc = open_out ml in
      output_string oc source;
      close_out oc;
      let cmd =
        Printf.sprintf "cd %s && %s -w -a -shared -o %s %s > %s 2>&1"
          (Filename.quote dir) cc
          (Filename.quote (base ^ ".cmxs"))
          (Filename.quote (base ^ ".ml"))
          (Filename.quote (base ^ ".log"))
      in
      if Sys.command cmd <> 0 then begin
        let err = read_file log in
        cleanup ();
        Error ("compile failed: " ^ String.trim err)
      end
      else begin
        let r =
          match Dynlink.loadfile_private cmxs with
          | () -> Error "generated module did not hand off its closures"
          | exception Dynlink.Error (Dynlink.Library's_module_initializers_failed e)
            when Obj.size (Obj.repr e) = 2 ->
            (* [exception Handoff of 'a] is a 2-field block: slot, payload *)
            Ok (Obj.field (Obj.repr e) 1)
          | exception Dynlink.Error err -> Error (Dynlink.error_message err)
          | exception e -> Error (Printexc.to_string e)
        in
        cleanup ();
        r
      end
