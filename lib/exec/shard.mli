(** Per-job observability and control shards.

    The telemetry layer's sinks ({!Ims_obs.Trace.t},
    {!Ims_mii.Counters.t}) are single-writer mutable buffers; sharing
    one across domains would race.  So the engine hands every job its
    own shard — owned exclusively by whichever worker runs that job —
    and, after the barrier, {!merge} folds the shards {e in job order}:
    traces are absorbed with their sequence numbers re-stamped
    ({!Ims_obs.Trace.absorb}) and counters are summed
    ({!Ims_mii.Counters.merge}).

    Because the merge order is the job order, never the (racy)
    completion order, the merged trace and counters are byte-identical
    to what a serial run over the same jobs would have produced — this
    is what keeps [--trace] and [--metrics] exports stable under
    [--jobs N].

    The shard also carries the job's control context: its cancellation
    token (to be threaded into the scheduler, and polled directly by
    long-running job code) and which attempt this is (1-based) when a
    retry policy is active. *)

type t = {
  trace : Ims_obs.Trace.t;  (** [Trace.null] unless observing. *)
  counters : Ims_mii.Counters.t;
  cancel : Ims_obs.Cancel.t;
      (** This attempt's token; [Cancel.null] when no deadline or
          run-level gate is armed. *)
  attempt : int;  (** 1 on the first run of the job. *)
}

val create :
  ?observe:bool ->
  ?time_spans:bool ->
  ?timer:(unit -> float) ->
  ?cancel:Ims_obs.Cancel.t ->
  ?attempt:int ->
  unit ->
  t
(** A fresh shard; [observe] (default false) allocates a real trace
    sink instead of [Trace.null].  [time_spans] (default false, implied
    by [observe]) allocates a {!Ims_obs.Trace.timer_only} sink instead:
    no events, but per-phase wall time still accumulates — the cheap
    mode run-level profiling uses.  [timer] feeds span timing for
    either kind of sink (default [Sys.time]). *)

val merge : t list -> t
(** Fold shards in list order into one shard with a contiguous,
    renumbered event stream and summed counters.  A timing-only shard
    set merges into a timing-only shard (span tables folded, no
    events).  The merged shard's control fields are neutral
    ([Cancel.null], attempt 1). *)

val spin : (string * float) option -> name:string -> t -> unit
(** The [--inject-spin NAME:S] test hook of batch and serve: for the
    job named NAME, busy-wait S seconds polling the shard's token. *)
