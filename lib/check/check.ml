open Ims_core
open Ims_obs

type checker = Lint | Verify | Simulator | Interp

let all_checkers = [ Lint; Verify; Simulator; Interp ]

let checker_name = function
  | Lint -> "lint"
  | Verify -> "verify"
  | Simulator -> "simulator"
  | Interp -> "interp"

type failure = {
  checker : checker;
  diagnostics : string list;
  abstained : bool;
}

type verdict = { failures : failure list }

let rejections v = List.filter (fun f -> not f.abstained) v.failures
let passed v = rejections v = []
let killed_by v = List.map (fun f -> f.checker) (rejections v)

let abstained v =
  List.filter_map (fun f -> if f.abstained then Some f.checker else None)
    v.failures

let all ?trip ?(seed = 42) ?(trace = Trace.null) ?metrics sched =
  (* A corrupted artifact may crash a deeper checker outright (that is
     what the lint layer exists to prevent) — containment here turns the
     crash into that checker's own diagnostic, so the verdict is total. *)
  let run checker f =
    let name = checker_name checker in
    Trace.with_span trace ("check." ^ name) (fun () ->
        let diagnostics =
          match f () with
          | diags -> diags
          | exception e ->
              [ "checker raised: " ^ Printexc.to_string e ]
        in
        (match metrics with
        | Some m ->
            Metrics.incr (Metrics.counter m ("check." ^ name ^ ".runs"));
            if diagnostics <> [] then
              Metrics.incr
                ~by:(List.length diagnostics)
                (Metrics.counter m ("check." ^ name ^ ".failures"))
        | None -> ());
        if diagnostics <> [] then
          Trace.instant trace ("check." ^ name ^ ".failed");
        if diagnostics = [] then None
        else Some { checker; diagnostics; abstained = false })
  in
  let interp_abstained = ref false in
  let failures =
    List.filter_map Fun.id
      [
        run Lint (fun () -> Lint.schedule sched);
        run Verify (fun () ->
            match Schedule.verify sched with Ok () -> [] | Error es -> es);
        run Simulator (fun () ->
            match Ims_pipeline.Simulator.run ?trip sched with
            | Ok _ -> []
            | Error es -> es);
        run Interp (fun () ->
            match Ims_pipeline.Interp.judge ~seed ?metrics ?trip sched with
            | Ims_pipeline.Interp.Equivalent -> []
            | Ims_pipeline.Interp.Diverges e -> [ e ]
            | Ims_pipeline.Interp.Abstains ->
                interp_abstained := true;
                []);
      ]
  in
  (* The interpreter runs last, so its abstention closes the run-order
     list. *)
  let gap =
    "abstained: outside the interpreter's domain (a register not written \
     on every iteration, or an opcode without semantics)"
  in
  let abstention = { checker = Interp; diagnostics = [ gap ]; abstained = true } in
  { failures = (if !interp_abstained then failures @ [ abstention ] else failures) }

(* A pass names only the checkers that judged the schedule; an
   abstention is said out loud after it, never folded into the pass. *)
let summary v =
  let gaps = abstained v in
  let head =
    match rejections v with
    | [] ->
        Printf.sprintf "all checks passed (%s)"
          (String.concat ", "
             (List.map checker_name
                (List.filter (fun c -> not (List.mem c gaps)) all_checkers)))
    | rejected ->
        String.concat "; "
          (List.map
             (fun f ->
               let n = List.length f.diagnostics in
               Printf.sprintf "%s: %d diagnostic%s" (checker_name f.checker) n
                 (if n = 1 then "" else "s"))
             rejected)
  in
  String.concat "; "
    (head :: List.map (fun c -> checker_name c ^ " abstained") gaps)

let pp ppf v =
  if passed v then Format.fprintf ppf "%s" (summary v)
  else
    List.iter
      (fun f ->
        List.iter
          (fun d -> Format.fprintf ppf "%s: %s@." (checker_name f.checker) d)
          f.diagnostics)
      v.failures
