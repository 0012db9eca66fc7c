(* Tests for the batch run driver (Ims_exec.Run): journal resume,
   manifest refusal, damage refusal and run-level fail-fast — the
   protocol imsc batch and the bench's measure phase share — plus the
   report-line verdict every batch-shaped command exits by. *)

open Ims_obs
open Ims_exec

let temp_path name =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "ims_run_%s_%d" name (Unix.getpid ()))

let contains hay needle =
  let n = String.length needle in
  let rec go i =
    i + n <= String.length hay && (String.sub hay i n = needle || go (i + 1))
  in
  go 0

let manifest ?(tool = "run-test") parts = Journal.manifest ~tool ~jobs:4 parts

let parts = [ ("machine", "m1"); ("flags", "f1") ]

(* A sharded run's inputs: global indices of one residue class. *)
let inputs = [ (0, "a"); (3, "b"); (6, "c"); (9, "d") ]
let record _ = function Outcome.Done s -> Some (Json.String s) | _ -> None

(* Run [inputs] at --jobs 1, recording which inputs actually ran. *)
let run_recording ?journal ?max_failures ?(f = String.uppercase_ascii) m =
  let ran = ref [] in
  let result =
    Run.run ~log:Log.null ~manifest:m ?journal ?max_failures ~record ~jobs:1
      ~f:(fun _ x ->
        ran := x :: !ran;
        f x)
      inputs
  in
  (result, List.rev !ran)

let entry_repr = function
  | Run.Replayed j -> "replayed " ^ Json.to_string j
  | Run.Ran o -> "ran " ^ Outcome.describe o

let test_resume_replays_and_runs_the_rest () =
  let path = temp_path "resume" in
  let w = Journal.create ~path (manifest parts) in
  Journal.append w ~index:3 (Json.String "B");
  Journal.append w ~index:4 (Json.String "another shard's loop");
  Journal.append w ~index:9 (Json.String "D");
  Journal.close w;
  (match run_recording ~journal:(Run.Resume path) (manifest parts) with
  | Error e, _ -> Alcotest.failf "resume refused: %s" e
  | Ok (entries, _, stats), ran ->
      Alcotest.(check (list string)) "only the pending inputs ran" [ "a"; "c" ]
        ran;
      Alcotest.(check int) "stats count the run jobs" 2 stats.Exec.jobs;
      Alcotest.(check (list string)) "entries in input order"
        [
          entry_repr (Run.Ran (Outcome.Done "A"));
          "replayed \"B\"";
          entry_repr (Run.Ran (Outcome.Done "C"));
          "replayed \"D\"";
        ]
        (List.map entry_repr entries));
  (* The fresh results were appended to the resumed journal. *)
  (match Journal.read ~path with
  | Error e -> Alcotest.failf "journal unreadable after resume: %s" e
  | Ok r ->
      Alcotest.(check (list int)) "appended after the replayed records"
        [ 3; 4; 9; 0; 6 ]
        (List.map fst r.Journal.entries));
  (* A second resume has nothing left to run. *)
  (match run_recording ~journal:(Run.Resume path) (manifest parts) with
  | Error e, _ -> Alcotest.failf "second resume refused: %s" e
  | Ok (entries, _, _), ran ->
      Alcotest.(check (list string)) "nothing ran" [] ran;
      Alcotest.(check (list string)) "all replayed"
        [ "replayed \"A\""; "replayed \"B\""; "replayed \"C\""; "replayed \"D\"" ]
        (List.map entry_repr entries));
  Sys.remove path

let test_mismatch_refused_by_ingredient () =
  let path = temp_path "mismatch" in
  Journal.close (Journal.create ~path (manifest parts));
  let refused what m needle =
    match run_recording ~journal:(Run.Resume path) m with
    | Ok _, _ -> Alcotest.failf "%s: resume must be refused" what
    | Error e, ran ->
        Alcotest.(check (list string)) (what ^ ": nothing ran") [] ran;
        Alcotest.(check bool) (Printf.sprintf "%s: %S names %S" what e needle)
          true (contains e needle)
  in
  refused "manifest" (manifest [ ("machine", "m1"); ("flags", "f2") ]) "flags";
  refused "tool" (manifest ~tool:"other-tool" parts) "other-tool";
  Sys.remove path

let test_midfile_damage_refused_with_offset () =
  let path = temp_path "damage" in
  let w = Journal.create ~path (manifest parts) in
  Journal.append w ~index:0 (Json.String "A");
  Journal.close w;
  (* A complete frame failing its CRC, with a good frame after it. *)
  let at = (Unix.stat path).Unix.st_size + Frame.header_bytes in
  let bad =
    Bytes.of_string (Frame.encode "{\"kind\":\"job\",\"index\":3,\"line\":\"B\"}")
  in
  Bytes.set bad (Bytes.length bad - 3) 'C';
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
  output_bytes oc bad;
  output_string oc
    (Frame.encode "{\"kind\":\"job\",\"index\":6,\"line\":\"C\"}");
  close_out oc;
  (match run_recording ~journal:(Run.Resume path) (manifest parts) with
  | Ok _, _ -> Alcotest.fail "a damaged journal must be refused"
  | Error e, ran ->
      Alcotest.(check (list string)) "nothing ran" [] ran;
      Alcotest.(check bool) (Printf.sprintf "%S names byte %d" e at) true
        (contains e (Printf.sprintf "byte %d" at)));
  Sys.remove path

let test_max_failures_cancels_outstanding () =
  let path = temp_path "failfast" in
  let result, ran =
    run_recording ~journal:(Run.Create path) ~max_failures:1
      ~f:(fun _ -> failwith "poison")
      (manifest parts)
  in
  (match result with
  | Error e -> Alcotest.failf "run refused: %s" e
  | Ok (entries, _, _) ->
      Alcotest.(check (list string)) "jobs stop after the second casualty"
        [ "a"; "b" ] ran;
      let status = function
        | Run.Ran o -> Outcome.status o
        | Run.Replayed _ -> "replayed"
      in
      Alcotest.(check (list string)) "outstanding jobs cancelled"
        [ "failed"; "failed"; "cancelled"; "cancelled" ]
        (List.map status entries));
  (match Journal.read ~path with
  | Error e -> Alcotest.failf "journal unreadable: %s" e
  | Ok r ->
      Alcotest.(check int) "record renders nothing for casualties" 0
        (List.length r.Journal.entries));
  Sys.remove path

let test_report_verdict () =
  let line kvs = Json.Obj (("name", Json.String "x") :: kvs) in
  let verdict kvs = Report.verdict (line kvs) in
  Alcotest.(check bool) "ok" true
    (verdict [ ("status", Json.String "ok"); ("degraded", Json.Bool false) ]
    = Report.Clean);
  Alcotest.(check bool) "no status counts as ok" true (verdict [] = Report.Clean);
  Alcotest.(check bool) "degraded" true
    (verdict [ ("status", Json.String "ok"); ("degraded", Json.Bool true) ]
    = Report.Degraded);
  Alcotest.(check bool) "failed, with its error" true
    (verdict [ ("status", Json.String "failed"); ("error", Json.String "boom") ]
    = Report.Casualty "failed: boom");
  Alcotest.(check bool) "cancelled, with its seconds" true
    (verdict
       [ ("status", Json.String "cancelled"); ("elapsed_s", Json.Float 0.5) ]
    = Report.Casualty "cancelled after 0.500s");
  Alcotest.(check bool) "unparseable line is an error" true
    (Result.is_error (Report.verdict_of_string "{\"status\""));
  Alcotest.(check bool) "non-object line is an error" true
    (Result.is_error (Report.verdict_of_string "[1]"));
  Alcotest.(check (list int)) "exit codes" [ 0; 2; 1; 1 ]
    [
      Report.exit_code ~casualties:0 ~degraded:0;
      Report.exit_code ~casualties:0 ~degraded:3;
      Report.exit_code ~casualties:1 ~degraded:0;
      Report.exit_code ~casualties:1 ~degraded:3;
    ]

let tests =
  ( "run",
    [
      Alcotest.test_case "resume: replays journaled, runs the rest, in order"
        `Quick test_resume_replays_and_runs_the_rest;
      Alcotest.test_case "resume: mismatch refused by ingredient" `Quick
        test_mismatch_refused_by_ingredient;
      Alcotest.test_case "resume: mid-file damage refused with offset" `Quick
        test_midfile_damage_refused_with_offset;
      Alcotest.test_case "max-failures: outstanding jobs cancelled" `Quick
        test_max_failures_cancels_outstanding;
      Alcotest.test_case "report: verdict and exit code" `Quick
        test_report_verdict;
    ] )
