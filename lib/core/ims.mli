(** Iterative modulo scheduling (Rau 1994, section 3, figures 2-4).

    [ModuloSchedule] tries successively larger candidate IIs starting at
    the MII; for each, [IterativeSchedule] performs operation-driven list
    scheduling in which already-scheduled operations may be displaced —
    unscheduled and rescheduled later — either because a higher-priority
    operation claimed their resources or because a predecessor moved
    under them.  A budget of [BudgetRatio * NumberOfOperations]
    scheduling steps bounds the effort per candidate II. *)

open Ims_ir
open Ims_mii

type outcome = {
  schedule : Schedule.t option;
      (** [None] only if every candidate II up to [max_ii] failed. *)
  ii : int;  (** Achieved II ([schedule] present) or last attempted. *)
  mii : Mii.t;
  attempts : int;  (** Candidate IIs tried. *)
  steps_total : int;
      (** Operation scheduling steps over all candidate IIs. *)
  steps_final : int;  (** Steps spent at the successful II. *)
  counters : Counters.t;
}

val default_budget_ratio : float
(** 2.0 — the knee of the paper's figure 6, its recommended setting. *)

(** The scheduling priority (section 3.2).  [Height_r] is the paper's
    choice; the others exist for the ablation study: [Acyclic_height]
    ignores the [II*distance] discount on inter-iteration edges,
    [Source_order] schedules in program order, and [Reverse_order] is the
    pathological anti-priority. *)
type priority = Height_r | Acyclic_height | Source_order | Reverse_order

type prep
(** Graph-dependent, II-independent artifacts of one scheduling problem:
    the per-op alternative arrays (shared per opcode), the skeleton
    relaxation order of {!Priority.plan}, and the height scratch buffer.
    Built once by {!modulo_schedule} and reused across its candidate-II
    attempts; {!iterative_schedule} builds its own when not given one. *)

val prepare : Ddg.t -> prep

val iterative_schedule :
  ?counters:Counters.t ->
  ?trace:Ims_obs.Trace.t ->
  ?priority:priority ->
  ?cancel:Ims_obs.Cancel.t ->
  ?prep:prep ->
  Ddg.t ->
  ii:int ->
  budget:int ->
  Schedule.t option
(** One candidate II (figure 3).  Returns [None] when the budget runs out
    with operations still unscheduled.

    [trace] (default disabled) receives one structured event per
    scheduler decision: [place]/[force] with the Estart, chosen slot and
    alternative; [evict] for every displacement (dependence-violating
    successor or forced-placement victim); [budget_exhausted] on
    failure.  A disabled trace costs one branch per decision.

    [cancel] (default {!Ims_obs.Cancel.null}) is polled once per
    scheduling step — the same site that decrements the budget — and
    an armed token that fires preempts the search mid-II by raising
    {!Ims_obs.Cancel.Cancelled}.  A null token costs one branch per
    step, mirroring the disabled-trace discipline. *)

val search_ii :
  ?trace:Ims_obs.Trace.t ->
  ?budget:int ->
  counters:Counters.t ->
  mii:Mii.t ->
  max_delta_ii:int ->
  (int -> Schedule.t option) ->
  outcome
(** The II search of figure 2, shared by every scheduler: [try_ii ii]
    for each candidate II from the MII up to [max_delta_ii] past it,
    stopping at the first that schedules, with the outcome's attempt
    and step accounting.  [budget] is only reported in the trace. *)

val modulo_schedule :
  ?budget_ratio:float ->
  ?max_delta_ii:int ->
  ?counters:Counters.t ->
  ?trace:Ims_obs.Trace.t ->
  ?priority:priority ->
  ?cancel:Ims_obs.Cancel.t ->
  Ddg.t ->
  outcome
(** The driver (figure 2).  [max_delta_ii] (default 1000) bounds the
    search above the MII as a safety net; reaching it indicates a machine
    model the loop cannot execute on at all.

    A fired [cancel] token escapes as {!Ims_obs.Cancel.Cancelled} — it
    is {e not} folded into the outcome, because cancellation (the
    caller's wall-clock verdict) must stay distinct from budget
    exhaustion (the algorithm's own verdict, [schedule = None]). *)
