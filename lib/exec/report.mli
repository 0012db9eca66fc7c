(** Per-job JSONL reporting for batch runs.

    One JSON object per job, in job order: [{"name": ..., "status":
    "ok" | "failed" | "timed_out" | "cancelled", ...}].  Successful
    jobs carry the caller's [fields]; failures carry the exception
    text; timeouts and cancellations carry the measured seconds (and
    the limit, when one was set).  Nothing non-deterministic is emitted
    for successful jobs, so two runs at different [--jobs] produce
    byte-identical reports. *)

open Ims_obs

val line :
  name:string ->
  ?extra:(string * Json.t) list ->
  fields:('a -> (string * Json.t) list) ->
  'a Outcome.t ->
  Json.t
(** [extra] fields (e.g. quarantine annotations) are appended to every
    line regardless of status. *)

val body :
  ?extra:(string * Json.t) list ->
  fields:('a -> (string * Json.t) list) ->
  'a Outcome.t ->
  (string * Json.t) list
(** The members of {!line} minus the leading [name] — the
    request-independent part a content-addressed cache may store. *)

val with_name : name:string -> string -> string
(** [with_name ~name body_str] splices ["name"] as the first member
    into a rendered [Json.Obj] body, byte-compatibly with {!line}:
    [to_string (line ~name ~fields o) =
     with_name ~name (to_string (Obj (body ~fields o)))]. *)

val jsonl_string : Json.t list -> string
(** One line per object, each ["\n"]-terminated. *)

val write_jsonl : string -> Json.t list -> unit

(** {2 Verdicts}

    The one reading of a finished line, by which [imsc batch],
    [imsc request] and the fleet merge exit: from the report, not from
    in-memory outcomes, so journaled records count like fresh ones. *)

type verdict =
  | Clean
  | Degraded  (** ["degraded":true]: the acyclic fallback shipped. *)
  | Casualty of string
      (** Any ["status"] but ["ok"] (a line without one is ok), with
          one line naming it and its error or elapsed seconds. *)

val verdict : Json.t -> verdict

val verdict_of_string : string -> (verdict, string) result
(** [Error] when the line is not a JSON object. *)

val exit_code : casualties:int -> degraded:int -> int
(** 1 with any casualty, else 2 with any degraded loop, else 0. *)
