(** Crash-safe journaling for batch runs.

    A journal is an {!Append_log}: one manifest record, then one record
    per {e completed} job, each a CRC-checked {!Frame} fsync'd before
    the append returns — so after a SIGKILL the file holds every job
    that finished plus at most one torn final frame.

    The manifest pins what the run {e was}: a content hash over the
    machine model, the scheduling flags, and the corpus bytes
    ({!manifest_hash}).  Resume refuses a journal whose hash differs —
    journaled records are only byte-reusable against the identical
    inputs and configuration.  Since format version 2 the manifest also
    records the named per-component hashes ([parts]) so the refusal can
    say which ingredient diverged ({!explain_mismatch}); version 3 moved
    every record into a frame.

    Job records are [{"kind":"job","index":I,"line":J}] where [J] is
    the job's finished report line, stored verbatim; resume replays [J]
    into the final report unchanged, which is what makes a resumed
    report byte-identical to an uninterrupted run's.

    {!read} tolerates exactly one torn frame, and only at the end of
    the file (the interrupted append).  A frame that fails its CRC, or
    a verified record that is not a job record, is corruption and an
    error naming where it is — a damaged record is never replayed.
    Duplicate indices keep the last record, so a job re-journaled after
    a resume wins over its earlier self. *)

type manifest = {
  version : int;  (** Journal format version; {!format_version}. *)
  tool : string;  (** e.g. ["imsc-batch"] — guards cross-tool reuse. *)
  hash : string;  (** {!manifest_hash} of machine+flags+corpus. *)
  jobs : int;  (** Total jobs in the run (not: completed). *)
  parts : (string * string) list;
      (** Named ingredient digests (e.g. ["machine"], ["flags"],
          ["corpus"], ["shard"]) behind [hash]; empty on version-1
          journals. *)
}

val format_version : int

val manifest_hash : string list -> string
(** Hex digest over the parts (order-sensitive); include everything
    that must match for journaled results to be reusable.  This is
    {!Content_hash.of_parts} — the same definition keys the serve
    daemon's schedule cache. *)

val hash_of_parts : (string * string) list -> string
(** The overall manifest hash derived from named component digests
    (names and values both bound, order-sensitive). *)

val explain_mismatch : journal:manifest -> current:manifest -> string
(** A refusal message naming each component whose digest diverged
    ("manifest mismatch: corpus diverged (…)"); falls back to the bare
    digests when no named component differs (e.g. a version-1
    journal). *)

type writer

val create : ?sync_every:int -> path:string -> manifest -> writer
(** Truncate/create [path] and write the manifest record (fsync'd).
    [sync_every] (default 1) groups fsyncs per {!Append_log}. *)

val reopen : ?sync_every:int -> path:string -> unit -> writer
(** Open an existing journal for appending (resume); the caller has
    already validated it with {!read}.  A torn final frame is truncated
    away first, so the next append starts a frame of its own and a
    later resume sees a well-formed file. *)

val append : writer -> index:int -> Ims_obs.Json.t -> unit
(** Append one job record (fsync'd per [sync_every]).  Serialize calls
    yourself — the engine's [on_result] hook already runs under a
    mutex. *)

val close : writer -> unit

type recovered = {
  manifest : manifest;
  entries : (int * Ims_obs.Json.t) list;
      (** (index, stored line), in file order, duplicates included —
          fold with last-wins. *)
  torn : bool;  (** A truncated final record was dropped. *)
}

val read : path:string -> (recovered, string) result
(** Parse a journal for resume.  [Error] on an unreadable file, a
    missing or malformed manifest, an unknown version, a frame that
    fails its CRC (naming its byte offset), or a record that is not a
    job record. *)
