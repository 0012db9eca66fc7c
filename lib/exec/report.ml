open Ims_obs

let body ?(extra = []) ~fields outcome =
  let status = ("status", Json.String (Outcome.status outcome)) in
  let rest =
    match outcome with
    | Outcome.Done v -> fields v
    | Outcome.Failed e -> [ ("error", Json.String e.Outcome.exn) ]
    | Outcome.Timed_out { elapsed; limit }
    | Outcome.Cancelled { elapsed; limit } ->
        ("elapsed_s", Json.Float elapsed)
        ::
        (if limit = infinity then []
         else [ ("limit_s", Json.Float limit) ])
  in
  (status :: rest) @ extra

let line ~name ?extra ~fields outcome =
  Json.Obj (("name", Json.String name) :: body ?extra ~fields outcome)

(* Splice a name into an already-rendered body object without
   re-parsing it: the serve cache stores the body bytes verbatim (the
   name is the one request-specific field), and re-serialising through
   the JSON tree would invite a float-formatting drift between a cold
   and a cached response.  [line] and [with_name . to_string . body]
   produce the same bytes by construction: objects render as
   comma-joined members in order. *)
let with_name ~name body_str =
  let name_member = Json.to_string (Json.Obj [ ("name", Json.String name) ]) in
  if body_str = "{}" then name_member
  else
    String.sub name_member 0 (String.length name_member - 1)
    ^ ","
    ^ String.sub body_str 1 (String.length body_str - 1)

let jsonl_string lines =
  String.concat "" (List.map (fun j -> Json.to_string j ^ "\n") lines)

let write_jsonl file lines =
  let oc = open_out file in
  output_string oc (jsonl_string lines);
  close_out oc

type verdict = Clean | Degraded | Casualty of string

let verdict line =
  let field = Json.field line in
  match field "status" with
  | Some (Json.String s) when s <> "ok" ->
      Casualty
        (match (field "error", field "elapsed_s") with
        | Some (Json.String e), _ -> Printf.sprintf "%s: %s" s e
        | _, Some (Json.Float e) -> Printf.sprintf "%s after %.3fs" s e
        | _ -> s)
  | _ -> (
      match field "degraded" with Some (Json.Bool true) -> Degraded | _ -> Clean)

let verdict_of_string s =
  match Json.of_string s with
  | Ok (Json.Obj _ as line) -> Ok (verdict line)
  | Ok _ -> Error "report line is not a JSON object"
  | Error e -> Error (Printf.sprintf "unparseable report line: %s" e)

let exit_code ~casualties ~degraded =
  if casualties > 0 then 1 else if degraded > 0 then 2 else 0
