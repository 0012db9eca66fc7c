(** Crash-safe append-only logs of JSON records: the shared substrate
    of the batch {!Journal} and the serve-daemon schedule cache.

    The contract, shared by every user:

    - one CRC-checked {!Frame} of JSON per {!append}, fsync'd before
      returning, so a crash (even SIGKILL) can tear at most the frame
      being written, and only at the very end of the file;
    - {!load} stops at the first torn or damaged frame and {!reopen}
      cuts it and everything after it, so no damaged record is reused;
    - the first record is a header identifying the format (written by
      {!create}, returned raw by {!load} for the caller to validate).

    [sync_every] (default 1) amortises the fsync over that many
    appends.  Process death (SIGKILL included) loses nothing a
    completed [write] covered — the page cache survives the process —
    so crash-resume semantics are unchanged; only power-loss durability
    is traded, at most [sync_every - 1] records of it.  Shard-scale
    journals use this: at one fsync per million-loop record the disk,
    not the scheduler, would set the pace. *)

type t

val create : ?sync_every:int -> path:string -> header:Ims_obs.Json.t -> unit -> t
(** Truncate-create [path] and write the header record.
    @raise Invalid_argument if [sync_every < 1]. *)

val reopen : ?sync_every:int -> path:string -> unit -> t
(** Open an existing log for appending, truncated to its longest valid
    prefix first.  @raise Unix.Unix_error if the file cannot be opened. *)

val append : t -> Ims_obs.Json.t -> unit
(** Append one record as a single frame, fsync'd per [sync_every]. *)

val encoded_bytes : Ims_obs.Json.t -> int
(** On-disk size of one record, frame included. *)

val flush : t -> unit
(** Force any deferred fsync now. *)

val rewrite :
  path:string -> header:Ims_obs.Json.t -> records:Ims_obs.Json.t list -> t
(** Atomically replace the log at [path] with [header] + [records]:
    stage everything in [path ^ ".rewrite"], fsync, rename over [path],
    and return the staged descriptor (now [path]'s) open for appending.
    A crash at any point leaves either the old or the new log complete —
    this is the compaction substrate for bounded append-only files.
    @raise Unix.Unix_error on I/O failure (the temp file is removed). *)

val close : t -> unit
(** Flushes any deferred fsync; idempotent. *)

type loaded = {
  header : string;  (** The header record's JSON text. *)
  records : string list;  (** Every verified record after the header. *)
  ending : Frame.ending;  (** Why the verified records stopped. *)
}

val load : path:string -> (loaded, string) result
(** Read the whole log.  [Error] on an unreadable file or one without
    a valid header frame.  What a torn or corrupt ending means is the
    caller's business. *)
