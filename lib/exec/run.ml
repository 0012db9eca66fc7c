open Ims_obs

type journal = Create of string | Resume of string
type 'b entry = Replayed of Json.t | Ran of 'b Outcome.t

(* The journaled records of this run's indices ([mine]), or why the
   journal may not be reused. *)
let replayable ~log ~(manifest : Journal.manifest) ~mine path =
  match Journal.read ~path with
  | Error msg -> Error ("cannot resume: " ^ msg)
  | Ok { Journal.manifest = m; _ } when m.Journal.tool <> manifest.Journal.tool
    ->
      Error
        (Printf.sprintf "%s is a %S journal, not a %S one" path m.Journal.tool
           manifest.Journal.tool)
  | Ok { Journal.manifest = m; _ } when m.Journal.hash <> manifest.Journal.hash
    ->
      Error
        (Printf.sprintf
           "%s: journal %s was written with a different configuration — \
            refusing to reuse its results"
           (Journal.explain_mismatch ~journal:m ~current:manifest)
           path)
  | Ok { Journal.entries; torn; _ } ->
      if torn then Log.warn log "ignoring torn final record in %s" path;
      let completed = Hashtbl.create 97 in
      List.iter
        (fun (i, line) ->
          if Hashtbl.mem mine i then Hashtbl.replace completed i line)
        entries;
      Log.info log "resuming — %d of %d job(s) already journaled"
        (Hashtbl.length completed) (Hashtbl.length mine);
      Ok completed

let run ~log ~manifest ?journal ?sync_every ?max_failures ~record ?jobs
    ?timeout ?deadline ?retry ?sleep ?profile ?progress ?timer ~f inputs =
  let completed =
    match journal with
    | Some (Resume path) ->
        let mine = Hashtbl.create 97 in
        List.iter (fun (i, _) -> Hashtbl.replace mine i ()) inputs;
        replayable ~log ~manifest ~mine path
    | Some (Create _) | None -> Ok (Hashtbl.create 1)
  in
  Result.map
    (fun completed ->
      let writer =
        match journal with
        | Some (Resume path) -> Some (Journal.reopen ?sync_every ~path ())
        | Some (Create path) -> Some (Journal.create ?sync_every ~path manifest)
        | None -> None
      in
      let pending =
        Array.of_list
          (List.filter (fun (i, _) -> not (Hashtbl.mem completed i)) inputs)
      in
      let cancel =
        Option.map (fun _ -> Cancel.create ~timer:Unix.gettimeofday ())
          max_failures
      in
      let casualties = ref 0 in
      let on_result i outcome =
        Option.iter
          (fun w ->
            let index, input = pending.(i) in
            Option.iter (Journal.append w ~index) (record input outcome))
          writer;
        match (cancel, max_failures) with
        | Some tok, Some limit when not (Outcome.is_done outcome) ->
            incr casualties;
            if !casualties > limit && not (Cancel.cancelled tok) then begin
              Log.warn log "%d casualties — cancelling outstanding jobs"
                !casualties;
              Cancel.cancel tok
            end
        | _ -> ()
      in
      let outcomes, merged, stats =
        Fun.protect
          ~finally:(fun () -> Option.iter Journal.close writer)
          (fun () ->
            Exec.run ?jobs ?timeout ?deadline ?retry ?cancel
              ?on_result:
                (if writer = None && cancel = None then None
                 else Some on_result)
              ?sleep ?profile ?progress ?timer
              ~f:(fun shard (_, input) -> f shard input)
              (Array.to_list pending))
      in
      (* [pending] kept input order, so its outcomes interleave back with
         the replayed records in one pass. *)
      let fresh = ref outcomes in
      let next () =
        let o = List.hd !fresh in
        fresh := List.tl !fresh;
        Ran o
      in
      let entries =
        List.map
          (fun (i, _) ->
            match Hashtbl.find_opt completed i with
            | Some line -> Replayed line
            | None -> next ())
          inputs
      in
      (entries, merged, stats))
    completed
