(** Versioned binary loop wire format.

    A corpus file is an 8-byte header (magic ["ILBC"], little-endian
    u32 format version) followed by one {!Ims_exec.Frame} per record
    ([u32 payload_length | u32 crc32 | payload]).  Torn or bit-flipped
    records are rejected with {!Corrupt} carrying the byte offset of
    the damage.

    The payload carries one named loop at the builder-DSL level:
    operations plus exactly the dependence edges {!Loop_dump.derivable}
    cannot re-derive.  Decoding replays the loop through
    {!Ims_ir.Builder} against a machine description, so
    [decode (encode ddg)] reproduces [Loop_dump.dump ddg] exactly and
    the result carries machine-validated opcodes and delays. *)

open Ims_machine
open Ims_ir

exception Corrupt of { offset : int; reason : string }
(** [offset] is an absolute byte offset into the corpus file (or into
    the payload for a bare {!decode}).  Registered with
    [Printexc.register_printer]. *)

val magic : string
val format_version : int

val header_bytes : int
(** Size of the file header (magic + version). *)

val encode : name:string -> Ddg.t -> string
(** One record payload (no frame).
    @raise Invalid_argument on loops exceeding the format's field
    widths (65535 ops, 255-byte opcodes, 255 operands). *)

val decode : ?base:int -> Machine.t -> string -> string * Ddg.t
(** [decode machine payload] is [(name, ddg)].  [base] (default 0) is
    added to the offsets reported in {!Corrupt}.
    @raise Corrupt on malformed payloads. *)

(** {1 Writing corpus files} *)

type writer

val create_writer : string -> writer
(** Opens [path] for writing and emits the header. *)

val write : writer -> name:string -> Ddg.t -> unit
val close_writer : writer -> unit

(** {1 Streaming reads} *)

type record = {
  index : int;  (** 0-based position of the record in its file. *)
  offset : int;  (** Absolute byte offset of the record's frame. *)
  name : string;
  payload : string;
}

val open_corpus : string -> in_channel
(** Opens a corpus positioned at its first record.
    @raise Corrupt on a truncated header, bad magic (offset 0) or a
    version this build does not read (offset 4). *)

val decode_record : Machine.t -> record -> string * Ddg.t
(** {!decode} with {!Corrupt} offsets rebased to the record's position
    in its file. *)

val iter : string -> (record -> unit) -> int
(** Streams every CRC-checked record through [f]; returns the record
    count.
    @raise Corrupt on a bad header, a torn frame or a CRC mismatch,
    with the offending absolute byte offset. *)
