open Ims_obs

type scheduled = Ims_check.Fallback.t * int * int

let cache_key ~machine_dump ~budget_ratio ~max_delta_ii ~dump =
  Ims_exec.Content_hash.of_parts
    [
      machine_dump;
      string_of_float budget_ratio;
      string_of_int max_delta_ii;
      dump;
    ]

let schedule_ddg ~budget_ratio ~max_delta_ii ?counters ?trace ?cancel ddg =
  let h =
    Ims_check.Fallback.modulo_schedule_or_fallback ~budget_ratio ~max_delta_ii
      ?counters ?trace ?cancel ddg
  in
  (h, Ims_core.Schedule.length h.Ims_check.Fallback.schedule,
   Ims_ir.Ddg.n_real ddg)

let schedule_dump ~machine ~budget_ratio ~max_delta_ii ?counters ?trace
    ?cancel dump =
  schedule_ddg ~budget_ratio ~max_delta_ii ?counters ?trace ?cancel
    (Ims_workloads.Loop_parse.parse machine dump)

let done_fields ((h : Ims_check.Fallback.t), sl, n) =
  let ims_fields =
    match h.Ims_check.Fallback.ims with
    | None -> []
    | Some out ->
        let m = out.Ims_core.Ims.mii in
        [
          ("resmii", Json.Int m.Ims_mii.Mii.resmii);
          ("recmii", Json.Int m.Ims_mii.Mii.recmii);
          ("mii", Json.Int m.Ims_mii.Mii.mii);
          ("attempts", Json.Int out.Ims_core.Ims.attempts);
          ("steps_final", Json.Int out.Ims_core.Ims.steps_final);
          ("steps_total", Json.Int out.Ims_core.Ims.steps_total);
        ]
  in
  let degraded_fields =
    match h.Ims_check.Fallback.degraded with
    | None -> [ ("degraded", Json.Bool false) ]
    | Some r ->
        [
          ("degraded", Json.Bool true);
          ("reason", Json.String (Ims_check.Fallback.reason_kind r));
        ]
  in
  (("n", Json.Int n)
   :: ("ii", Json.Int h.Ims_check.Fallback.schedule.Ims_core.Schedule.ii)
   :: ("sl", Json.Int sl) :: ims_fields)
  @ degraded_fields

let casualty_extra ~reparse (outcome : _ Ims_exec.Outcome.t) =
  match outcome with
  | Ims_exec.Outcome.Done _ -> []
  | Ims_exec.Outcome.Cancelled { elapsed; limit } ->
      (* The cancelled loop still ships a checked acyclic fallback
         schedule when it at least parses. *)
      let fb =
        match reparse () with
        | exception _ -> []
        | ddg -> (
            match
              Ims_check.Fallback.fallback ddg
                ~reason:(Ims_check.Fallback.Cancelled { elapsed; limit })
            with
            | exception _ -> []
            | h ->
                [
                  ( "fallback_ii",
                    Json.Int
                      h.Ims_check.Fallback.schedule.Ims_core.Schedule.ii );
                  ( "fallback_sl",
                    Json.Int
                      (Ims_core.Schedule.length h.Ims_check.Fallback.schedule)
                  );
                ])
      in
      ("quarantined", Json.Bool true) :: fb
  | _ -> [ ("quarantined", Json.Bool true) ]

let body_string ~reparse outcome =
  let extra = casualty_extra ~reparse outcome in
  Json.to_string
    (Json.Obj (Ims_exec.Report.body ~extra ~fields:done_fields outcome))
