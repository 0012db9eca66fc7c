(** The canonical per-loop report record, shared by [imsc batch] and
    the serve daemon.

    One definition, used by both paths, is what makes "a cache hit is
    byte-identical to a cold schedule" and "a served corpus is
    byte-identical to a batch run" checkable with [cmp] rather than
    arguable: the record's fields, order and rendering exist exactly
    once. *)

open Ims_obs

type scheduled = Ims_check.Fallback.t * int * int
(** (hardened outcome, schedule length, real-operation count) — what
    one loop's scheduling job returns. *)

val cache_key :
  machine_dump:string -> budget_ratio:float -> max_delta_ii:int ->
  dump:string -> string
(** The content-addressed cache key: {!Ims_exec.Content_hash} over the
    machine rendering, the scheduling flags, and the loop dump bytes —
    everything a completed schedule depends on (deadlines bound the
    search; they do not change its answer, and preempted searches are
    never cached). *)

val schedule_ddg :
  budget_ratio:float ->
  max_delta_ii:int ->
  ?counters:Ims_mii.Counters.t ->
  ?trace:Trace.t ->
  ?cancel:Cancel.t ->
  Ims_ir.Ddg.t ->
  scheduled
(** One loop's job in batch and serve: the degradation ladder
    ({!Ims_check.Fallback.modulo_schedule_or_fallback}) plus the
    reported length and size.  Re-raises a fired [cancel]. *)

val schedule_dump :
  machine:Ims_machine.Machine.t ->
  budget_ratio:float ->
  max_delta_ii:int ->
  ?counters:Ims_mii.Counters.t ->
  ?trace:Trace.t ->
  ?cancel:Cancel.t ->
  string ->
  scheduled
(** Parse a loop dump and {!schedule_ddg} it — the serve worker's job
    body.  Raises like {!Ims_workloads.Loop_parse}. *)

val done_fields : scheduled -> (string * Json.t) list
(** The successful record's fields: n/ii/sl, the scheduler statistics
    when the scheduler returned, and the degradation marker. *)

val casualty_extra :
  reparse:(unit -> Ims_ir.Ddg.t) ->
  'v Ims_exec.Outcome.t ->
  (string * Json.t) list
(** The quarantine annotations for non-ok outcomes: [quarantined:true],
    plus — for a cancelled loop whose [reparse] succeeds — the checked
    acyclic fallback's II and SL, so the record still carries a correct
    schedule for a loop whose pipelining was preempted. *)

val body_string :
  reparse:(unit -> Ims_ir.Ddg.t) -> scheduled Ims_exec.Outcome.t -> string
(** The rendered record minus its ["name"] member — the cacheable
    form; {!Ims_exec.Report.with_name} completes it per request. *)
