(** The batch run protocol around {!Exec.run}, shared by [imsc batch]
    and the bench's measure phase.

    A [Resume] journal is validated before any job runs: it must read
    back ({!Journal.read} refuses a record failing its CRC by its byte
    offset), come from the same tool, and carry this run's manifest
    hash ({!Journal.explain_mismatch} names the diverged ingredient); a
    torn final record is dropped with a warning.  Only this run's
    indices are replayed and only the rest run; each completed job's
    record is appended from the engine's [on_result] hook; and with
    [max_failures], more than that many casualties trip a run-level
    token that cancels every outstanding job. *)

type journal =
  | Create of string  (** Write a new journal at this path. *)
  | Resume of string  (** Replay this journal, then append to it. *)

type 'b entry =
  | Replayed of Ims_obs.Json.t  (** The journaled record, verbatim. *)
  | Ran of 'b Outcome.t

val run :
  log:Ims_obs.Log.t ->
  manifest:Journal.manifest ->
  ?journal:journal ->
  ?sync_every:int ->
  ?max_failures:int ->
  record:('a -> 'b Outcome.t -> Ims_obs.Json.t option) ->
  ?jobs:int ->
  ?timeout:float ->
  ?deadline:float ->
  ?retry:Retry.policy ->
  ?sleep:(float -> unit) ->
  ?profile:Ims_obs.Profile.t ->
  ?progress:(Ims_obs.Status.counts -> unit) ->
  ?timer:(unit -> float) ->
  f:(Shard.t -> 'a -> 'b) ->
  (int * 'a) list ->
  ('b entry list * Shard.t * Exec.stats, string) result
(** One entry per [(index, input)], in input order, plus the merged
    shard and stats of the jobs actually run.  Indices are the inputs'
    global identities (a shard keeps its residue class of a corpus).
    [record input outcome] is a completed job's journal record ([None]:
    journal nothing for it).  [Error], before any job runs, when a
    [Resume] journal is refused.  The other options are {!Exec.run}'s
    and {!Journal.create}'s. *)
