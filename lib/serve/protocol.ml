open Ims_obs

type request =
  | Schedule of {
      id : int;
      name : string;
      machine : string;
      budget_ratio : float;
      max_delta_ii : int;
      deadline : float option;
      dump : string;
    }
  | Stats of { id : int }
  | Shutdown of { id : int }

type response =
  | Report of { id : int; cached : bool; record : string }
  | Overloaded of { id : int; depth : int; capacity : int }
  | Error of { id : int; message : string }
  | Stats_reply of { id : int; metrics : Json.t }
  | Bye of { id : int }

let request_to_json = function
  | Schedule r ->
      Json.Obj
        ([
           ("op", Json.String "schedule");
           ("id", Json.Int r.id);
           ("name", Json.String r.name);
           ("machine", Json.String r.machine);
           ("budget_ratio", Json.Float r.budget_ratio);
           ("max_delta_ii", Json.Int r.max_delta_ii);
         ]
        @ (match r.deadline with
          | None -> []
          | Some d -> [ ("deadline_s", Json.Float d) ])
        @ [ ("loop", Json.String r.dump) ])
  | Stats { id } ->
      Json.Obj [ ("op", Json.String "stats"); ("id", Json.Int id) ]
  | Shutdown { id } ->
      Json.Obj [ ("op", Json.String "shutdown"); ("id", Json.Int id) ]

let num_field obj k =
  match Json.field obj k with
  | Some (Json.Int i) -> Some (float_of_int i)
  | Some (Json.Float f) -> Some f
  | _ -> None

let bool_field obj k =
  match Json.field obj k with Some (Json.Bool b) -> Some b | _ -> None

let id_of obj = Option.value ~default:0 (Json.int_field obj "id")

let request_of_json obj =
  match Json.str_field obj "op" with
  | Some "schedule" -> (
      match (Json.str_field obj "name", Json.str_field obj "loop") with
      | Some name, Some dump ->
          Ok
            (Schedule
               {
                 id = id_of obj;
                 name;
                 machine =
                   Option.value ~default:"cydra5"
                     (Json.str_field obj "machine");
                 budget_ratio =
                   Option.value ~default:2.0 (num_field obj "budget_ratio");
                 max_delta_ii =
                   Option.value ~default:1000
                     (Json.int_field obj "max_delta_ii");
                 deadline = num_field obj "deadline_s";
                 dump;
               })
      | _ -> Error "schedule request needs \"name\" and \"loop\"")
  | Some "stats" -> Ok (Stats { id = id_of obj })
  | Some "shutdown" -> Ok (Shutdown { id = id_of obj })
  | Some op -> Error (Printf.sprintf "unknown op %S" op)
  | None -> Error "request has no \"op\""

let request_id_of_json = id_of

let response_to_json = function
  | Report { id; cached; record } ->
      Json.Obj
        [
          ("kind", Json.String "report");
          ("id", Json.Int id);
          ("cached", Json.Bool cached);
          ("record", Json.String record);
        ]
  | Overloaded { id; depth; capacity } ->
      Json.Obj
        [
          ("kind", Json.String "overloaded");
          ("id", Json.Int id);
          ("depth", Json.Int depth);
          ("capacity", Json.Int capacity);
        ]
  | Error { id; message } ->
      Json.Obj
        [
          ("kind", Json.String "error");
          ("id", Json.Int id);
          ("error", Json.String message);
        ]
  | Stats_reply { id; metrics } ->
      Json.Obj
        [
          ("kind", Json.String "stats");
          ("id", Json.Int id);
          ("metrics", metrics);
        ]
  | Bye { id } -> Json.Obj [ ("kind", Json.String "bye"); ("id", Json.Int id) ]

let response_of_json obj =
  match Json.str_field obj "kind" with
  | Some "report" -> (
      match (Json.str_field obj "record", bool_field obj "cached") with
      | Some record, Some cached -> Ok (Report { id = id_of obj; cached; record })
      | _ -> Error "report response needs \"record\" and \"cached\"")
  | Some "overloaded" ->
      Ok
        (Overloaded
           {
             id = id_of obj;
             depth = Option.value ~default:0 (Json.int_field obj "depth");
             capacity = Option.value ~default:0 (Json.int_field obj "capacity");
           })
  | Some "error" ->
      Ok
        (Error
           {
             id = id_of obj;
             message = Option.value ~default:"?" (Json.str_field obj "error");
           })
  | Some "stats" -> (
      match Json.field obj "metrics" with
      | Some metrics -> Ok (Stats_reply { id = id_of obj; metrics })
      | None -> Error "stats response needs \"metrics\"")
  | Some "bye" -> Ok (Bye { id = id_of obj })
  | Some kind -> Error (Printf.sprintf "unknown response kind %S" kind)
  | None -> Error "response has no \"kind\""

let response_id = function
  | Report { id; _ }
  | Overloaded { id; _ }
  | Error { id; _ }
  | Stats_reply { id; _ }
  | Bye { id } ->
      id
