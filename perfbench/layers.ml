(* The benchmark's helper executable (driven by run.py).

   [layers gen] writes a seeded corpus with the public generators
   (Corpus.build, the Loop_bin writer, Loop_dump) and prints the
   traffic it produced.

   [layers trace] is the per-layer measurement: it feeds a workload's
   inputs through each layer's public functions in product order —
   decode or parse, MII, IMS, the four checkers, render, journal,
   report, merge, and for serve the wire codec and the schedule cache —
   and times every call from here, so nothing inside lib/ has to carry
   a span.  It writes the report records it rendered, which run.py
   compares with the product's own report.

   [layers calib] times a fixed computation that uses none of lib/;
   run.py runs it beside every timed product trial to measure the
   machine's speed at that moment. *)

open Ims_machine
open Ims_ir
open Ims_core
open Ims_obs
open Ims_workloads
open Ims_mii

(* imsc's defaults: the cydra5 model, BudgetRatio 2, II search cap 1000,
   checker seed 42. *)
let machine = Machine.cydra5 ()
let budget_ratio = 2.0
let max_delta_ii = 1000
let check_seed = 42

(* --- timing ------------------------------------------------------------- *)

(* Seconds per layer name, plus the running total of the current loop
   (or request), which [run.loop_*] percentiles are taken over. *)
type clock = { layers : (string, float ref) Hashtbl.t; mutable loop : float }

let clock () = { layers = Hashtbl.create 32; loop = 0.0 }

let span c name f =
  let t0 = Unix.gettimeofday () in
  Fun.protect f ~finally:(fun () ->
      let dt = Unix.gettimeofday () -. t0 in
      (match Hashtbl.find_opt c.layers name with
      | Some r -> r := !r +. dt
      | None -> Hashtbl.add c.layers name (ref dt));
      c.loop <- c.loop +. dt)

let counts : (string, int ref) Hashtbl.t = Hashtbl.create 16

let count ?(by = 1) name =
  match Hashtbl.find_opt counts name with
  | Some r -> r := !r + by
  | None -> Hashtbl.add counts name (ref by)

(* --- the per-loop pipeline ------------------------------------------------ *)

(* Check.all, one checker per span, with the same arguments and the same
   crash containment; returns every diagnostic. *)
let check_stack c ~metrics s =
  let run name f =
    span c name (fun () ->
        match f () with
        | diags -> diags
        | exception e -> [ "checker raised: " ^ Printexc.to_string e ])
  in
  let lint = run "check.lint_s" (fun () -> Ims_check.Lint.schedule s) in
  let verify =
    run "check.verify_s" (fun () ->
        match Schedule.verify s with Ok () -> [] | Error es -> es)
  in
  let sim =
    run "check.simulator_s" (fun () ->
        match Ims_pipeline.Simulator.run s with Ok _ -> [] | Error es -> es)
  in
  let interp =
    run "check.interp_s" (fun () ->
        if Ims_pipeline.Interp.supported s.Schedule.ddg then
          count "check.interp_supported";
        match Ims_pipeline.Interp.check ~seed:check_seed ~metrics s with
        | Ok () -> []
        | Error e -> [ e ])
  in
  List.concat [ lint; verify; sim; interp ]

(* Fallback.modulo_schedule_or_fallback with IMS, MII and each checker
   timed apart.  A loop the ladder degrades is handed to the library's
   own [Fallback] entry points (timed as check.fallback_s), so the
   degraded record is the product's by construction. *)
let schedule_loop c ~metrics ddg : Ims_serve.Render.scheduled =
  let mc = Counters.create () in
  ignore (span c "mii.compute_s" (fun () -> Mii.compute ~counters:mc ddg));
  count ~by:mc.Counters.mindist_inner "mii.mindist";
  let ic = Counters.create () in
  let fallback f = span c "check.fallback_s" f in
  let h =
    match
      span c "core.ims_s" (fun () ->
          Ims.modulo_schedule ~budget_ratio ~max_delta_ii ~counters:ic ddg)
    with
    | exception e ->
        fallback (fun () ->
            Ims_check.Fallback.fallback ~seed:check_seed ddg
              ~reason:(Scheduler_crashed (Printexc.to_string e)))
    | out -> (
        count ~by:out.Ims.steps_total "core.steps_total";
        count ~by:out.Ims.attempts "core.attempts";
        count ~by:ic.Counters.findslot_inner "core.findslot";
        count ~by:ic.Counters.mrt_bitprobe "core.mrt_bitprobe";
        match out.Ims.schedule with
        | Some s when check_stack c ~metrics s = [] ->
            {
              Ims_check.Fallback.schedule = s;
              verdict = { Ims_check.Check.failures = [] };
              degraded = None;
              ims = Some out;
            }
        | _ ->
            fallback (fun () ->
                Ims_check.Fallback.harden ~seed:check_seed ddg out))
  in
  count "loops";
  (h, Schedule.length h.Ims_check.Fallback.schedule, Ddg.n_real ddg)

let done_outcome s : Ims_serve.Render.scheduled Ims_exec.Outcome.t =
  Ims_exec.Outcome.Done s

(* --- workloads ------------------------------------------------------------ *)

type result = { wall : float; loop_ms : float list; clock : clock }

let timed_run f =
  let c = clock () in
  let loop_ms = ref [] in
  let per_loop g =
    c.loop <- 0.0;
    g ();
    loop_ms := (c.loop *. 1000.0) :: !loop_ms
  in
  let t0 = Unix.gettimeofday () in
  f c per_loop;
  { wall = Unix.gettimeofday () -. t0; loop_ms = List.rev !loop_ms; clock = c }

(* batch (shards = 1, no journal) and fleet (shards = N, one fsync'd
   journal per shard, shard reports merged round-robin).  The journal
   manifest's hash is a placeholder: appends cost the same whatever it
   pins, and nothing resumes from these journals. *)
let corpus_run ~metrics ~corpus ~dir ~shards ~journal c per_loop =
  let records =
    span c "workloads.decode_s" (fun () ->
        let acc = ref [] in
        ignore (Loop_bin.iter corpus (fun r -> acc := r :: !acc));
        Array.of_list (List.rev !acc))
  in
  let path kind i = Filename.concat dir (Printf.sprintf "%s%d.jsonl" kind i) in
  let journals =
    Array.init shards (fun i ->
        if journal then
          Some
            (span c "exec.journal_append_s" (fun () ->
                 Ims_exec.Journal.create ~sync_every:1
                   ~path:(path "journal" (i + 1))
                   {
                     Ims_exec.Journal.version = Ims_exec.Journal.format_version;
                     tool = "imsc-batch";
                     hash = "perfbench";
                     jobs = Array.length records;
                     parts = [];
                   }))
        else None)
  in
  let lines = Array.make shards [] in
  Array.iteri
    (fun g r ->
      per_loop (fun () ->
          let ddg =
            span c "workloads.decode_s" (fun () ->
                snd (Loop_bin.decode_record machine r))
          in
          let outcome = done_outcome (schedule_loop c ~metrics ddg) in
          let line =
            span c "serve.render_s" (fun () ->
                Ims_exec.Report.line ~name:r.Loop_bin.name
                  ~extra:
                    (Ims_serve.Render.casualty_extra
                       ~reparse:(fun () -> ddg)
                       outcome)
                  ~fields:Ims_serve.Render.done_fields outcome)
          in
          let shard = g mod shards in
          Option.iter
            (fun w ->
              span c "exec.journal_append_s" (fun () ->
                  Ims_exec.Journal.append w ~index:g line))
            journals.(shard);
          lines.(shard) <- line :: lines.(shard)))
    records;
  Array.iter
    (Option.iter (fun w ->
         span c "exec.journal_append_s" (fun () -> Ims_exec.Journal.close w)))
    journals;
  let reports = List.init shards (fun i -> path "report" (i + 1)) in
  span c "exec.report_write_s" (fun () ->
      List.iteri
        (fun i file -> Ims_exec.Report.write_jsonl file (List.rev lines.(i)))
        reports);
  if shards > 1 then
    span c "fleet.merge_s" (fun () ->
        let oc = open_out_bin (Filename.concat dir "merged.jsonl") in
        Fun.protect
          ~finally:(fun () -> close_out oc)
          (fun () ->
            match
              Ims_fleet.Fleet.merge_reports ~reports ~emit:(fun l ->
                  output_string oc l;
                  output_char oc '\n')
            with
            | Ok _ -> ()
            | Error e -> failwith ("merge: " ^ e)))

(* One wire round trip: encode, frame, deframe, decode. *)
let over_wire json =
  let d = Ims_serve.Wire.decoder () in
  Ims_serve.Wire.feed d (Ims_serve.Wire.frame (Json.to_string json));
  match Ims_serve.Wire.next d with
  | Ok (Some payload) -> (
      match Json.of_string payload with
      | Ok j -> j
      | Error e -> failwith ("wire: " ^ e))
  | Ok None -> failwith "wire: incomplete frame"
  | Error e -> failwith ("wire: " ^ e)

(* The daemon's request path, one request at a time: a hit answers from
   the cache, a miss parses, schedules, checks, renders and appends. *)
let serve_run ~metrics ~dumps ~order ~dir c per_loop =
  let module P = Ims_serve.Protocol in
  let machine_dump = Format.asprintf "%a" Machine.pp machine in
  let cache =
    match Ims_serve.Cache.open_ ~path:(Filename.concat dir "cache.log") () with
    | Ok cache -> cache
    | Error e -> failwith ("cache: " ^ e)
  in
  let out = open_out_bin (Filename.concat dir "records.jsonl") in
  Fun.protect
    ~finally:(fun () ->
      close_out out;
      Ims_serve.Cache.close cache)
    (fun () ->
      List.iteri
        (fun id i ->
          per_loop (fun () ->
              let name, dump = dumps.(i) in
              count "serve.requests";
              let req =
                span c "serve.wire_s" (fun () ->
                    P.request_of_json
                      (over_wire
                         (P.request_to_json
                            (P.Schedule
                               {
                                 id;
                                 name;
                                 machine = "cydra5";
                                 budget_ratio;
                                 max_delta_ii;
                                 deadline = None;
                                 dump;
                               }))))
              in
              let name, dump =
                match req with
                | Ok (P.Schedule r) -> (r.name, r.dump)
                | _ -> failwith "wire: request did not round-trip"
              in
              let key, hit =
                span c "serve.cache_find_s" (fun () ->
                    let key =
                      Ims_serve.Render.cache_key ~machine_dump ~budget_ratio
                        ~max_delta_ii ~dump
                    in
                    (key, Ims_serve.Cache.find cache ~key))
              in
              let body =
                match hit with
                | Some body ->
                    count "serve.cache_hits";
                    body
                | None ->
                    let ddg =
                      span c "workloads.parse_s" (fun () ->
                          Loop_parse.parse machine dump)
                    in
                    let outcome = done_outcome (schedule_loop c ~metrics ddg) in
                    let body =
                      span c "serve.render_s" (fun () ->
                          Ims_serve.Render.body_string
                            ~reparse:(fun () -> ddg)
                            outcome)
                    in
                    span c "serve.cache_add_s" (fun () ->
                        Ims_serve.Cache.add cache ~key body);
                    body
              in
              let record =
                span c "serve.render_s" (fun () ->
                    Ims_exec.Report.with_name ~name body)
              in
              let resp =
                span c "serve.wire_s" (fun () ->
                    P.response_of_json
                      (over_wire
                         (P.response_to_json
                            (P.Report { id; cached = hit <> None; record }))))
              in
              match resp with
              | Ok (P.Report r) ->
                  output_string out r.record;
                  output_char out '\n'
              | _ -> failwith "wire: response did not round-trip"))
        order)

(* --- input generation ----------------------------------------------------- *)

let median_int xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  if a = [||] then 0 else a.(Array.length a / 2)

(* Loops [first], [first + 1], ... of the seeded corpus, keeping those
   with at most [max_ops] real operations (all of them without a cap),
   until [count] are written. *)
let generate ~seed ~first ~count:n ~max_ops ~corpus ~dumps =
  let w = Loop_bin.create_writer corpus in
  let dump_oc = Option.map open_out_bin dumps in
  let names = ref [] and sizes = ref [] and predicated = ref 0 in
  let written = ref 0 and i = ref first in
  while !written < n do
    let name, ddg = Corpus.build machine ~seed !i in
    incr i;
    let ops = Ddg.n_real ddg in
    if ops <= max_ops then begin
      Loop_bin.write w ~name ddg;
      Option.iter
        (fun oc ->
          output_string oc
            (Json.to_string
               (Json.Obj
                  [
                    ("name", Json.String name);
                    ("dump", Json.String (Loop_dump.dump ddg));
                  ]));
          output_char oc '\n')
        dump_oc;
      names := Json.String name :: !names;
      sizes := ops :: !sizes;
      if Array.exists (fun (o : Op.t) -> o.Op.pred <> None) ddg.Ddg.ops then
        incr predicated;
      incr written
    end
  done;
  Loop_bin.close_writer w;
  Option.iter close_out dump_oc;
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("loops", Json.Int n);
            ("generated", Json.Int (!i - first));
            ("ops_median", Json.Int (median_int !sizes));
            ("ops_max", Json.Int (List.fold_left max 0 !sizes));
            ("predicated", Json.Int !predicated);
            ("names", Json.List (List.rev !names));
          ]))

(* --- calibration ------------------------------------------------------------ *)

module Int_map = Map.Make (Int)

(* A fixed computation that calls nothing in lib/: run.py times it beside
   every product trial to measure how fast the machine runs at that
   moment.  Like the scheduler and the checkers, it allocates small
   blocks, builds balanced trees, sorts lists and hashes.  Prints its own
   run time in seconds (process start-up excluded). *)
let calibrate () =
  let t0 = Unix.gettimeofday () in
  let acc = ref 0 in
  for r = 1 to 3 do
    let m = ref Int_map.empty in
    for i = 0 to 20_000 do
      m := Int_map.add (((i * 7919) + r) land 65535) i !m
    done;
    let l = List.sort compare (Int_map.fold (fun k v a -> (k + v) :: a) !m []) in
    let h = Hashtbl.create 16 in
    List.iter (fun x -> Hashtbl.replace h (x land 4095) x) l;
    acc := !acc + Hashtbl.length h + List.length l
  done;
  let dt = Unix.gettimeofday () -. t0 in
  print_endline
    (Json.to_string (Json.Obj [ ("calib_s", Json.Float dt); ("sum", Json.Int !acc) ]))

(* --- command line --------------------------------------------------------- *)

let read_dumps path =
  let ic = open_in_bin path in
  let rec go acc =
    match input_line ic with
    | exception End_of_file ->
        close_in ic;
        Array.of_list (List.rev acc)
    | line -> (
        match Json.of_string line with
        | Ok (Json.Obj kvs) -> (
            match (List.assoc_opt "name" kvs, List.assoc_opt "dump" kvs) with
            | Some (Json.String n), Some (Json.String d) -> go ((n, d) :: acc)
            | _ -> failwith ("bad dump line in " ^ path))
        | _ -> failwith ("bad dump line in " ^ path))
  in
  go []

let read_order path =
  let ic = open_in_bin path in
  let rec go acc =
    match input_line ic with
    | exception End_of_file ->
        close_in ic;
        List.rev acc
    | line -> go (int_of_string (String.trim line) :: acc)
  in
  go []

let print_result r ~metrics =
  let floats xs = Json.List (List.map (fun x -> Json.Float x) xs) in
  let obj tbl f =
    Hashtbl.fold (fun k v acc -> (k, f !v) :: acc) tbl []
    |> List.sort compare
    |> fun kvs -> Json.Obj kvs
  in
  count ~by:(Metrics.counter_value (Metrics.counter metrics "interp.replays"))
    "check.interp_replays";
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("wall_s", Json.Float r.wall);
            ("layers", obj r.clock.layers (fun x -> Json.Float x));
            ("counts", obj counts (fun x -> Json.Int x));
            ("loop_ms", floats r.loop_ms);
          ]))

let () =
  let usage =
    "layers gen --seed S [--from I] --count N [--max-ops K] --corpus FILE \
     [--dumps FILE]\n\
     layers trace --workload batch|fleet|serve --dir DIR (--corpus FILE \
     [--shards N] | --dumps FILE --order FILE)\n\
     layers calib"
  in
  let seed = ref 0 and first = ref 0 and n = ref 0 and max_ops = ref max_int in
  let corpus = ref "" and dumps = ref "" and order = ref "" in
  let workload = ref "" and dir = ref "" and shards = ref 1 in
  let specs =
    [
      ("--seed", Arg.Set_int seed, "seed");
      ("--from", Arg.Set_int first, "first corpus index");
      ("--count", Arg.Set_int n, "loops");
      ("--max-ops", Arg.Set_int max_ops, "real-op cap");
      ("--corpus", Arg.Set_string corpus, "Loop_bin corpus");
      ("--dumps", Arg.Set_string dumps, "JSONL of textual dumps");
      ("--order", Arg.Set_string order, "request order, one index a line");
      ("--workload", Arg.Set_string workload, "batch|fleet|serve");
      ("--dir", Arg.Set_string dir, "output directory");
      ("--shards", Arg.Set_int shards, "fleet shards");
    ]
  in
  let cmd = ref "" in
  Arg.parse specs (fun a -> cmd := a) usage;
  let metrics = Metrics.create () in
  match (!cmd, !workload) with
  | "calib", _ -> calibrate ()
  | "gen", _ ->
      generate ~seed:!seed ~first:!first ~count:!n ~max_ops:!max_ops ~corpus:!corpus
        ~dumps:(if !dumps = "" then None else Some !dumps)
  | "trace", ("batch" | "fleet") ->
      let journal = !workload = "fleet" in
      print_result ~metrics
        (timed_run
           (corpus_run ~metrics ~corpus:!corpus ~dir:!dir ~shards:!shards
              ~journal))
  | "trace", "serve" ->
      print_result ~metrics
        (timed_run
           (serve_run ~metrics ~dumps:(read_dumps !dumps)
              ~order:(read_order !order) ~dir:!dir))
  | _ ->
      prerr_endline usage;
      exit 2
