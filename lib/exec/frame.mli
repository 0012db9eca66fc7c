(** The one checksummed record frame of every persisted byte stream:
    binary loop corpora, batch journals and the serve schedule cache.

    A frame is [u32 payload_length | u32 crc32(payload) | payload],
    little-endian, CRC-32/IEEE, with payloads capped at {!max_payload}
    so a damaged length word never forces a giant allocation.  A
    {!reader} yields verified payloads only: it stops at the first
    frame that fails a check and reports why in its {!ending}. *)

val header_bytes : int
val max_payload : int
val crc32 : string -> int32

val add : Buffer.t -> string -> unit
(** Append one framed payload.  @raise Invalid_argument past
    {!max_payload}. *)

val encode : string -> string

(** How a stream ended.  Offsets are absolute: a frame's start for a
    bad prefix, its payload's start for a bad payload. *)
type ending =
  | Clean  (** Every byte belonged to a verified frame. *)
  | Torn of int * string
      (** The last frame runs past end of file: an interrupted append. *)
  | Corrupt of int * string
      (** A complete frame fails its CRC or has an impossible length. *)

type reader

val reader : in_channel -> reader
(** Frames from the channel's position to the end of its file. *)

val next : reader -> (int * string) option
(** The next verified [(frame offset, payload)]; [None] once ended. *)

val ending : reader -> ending

val verified_end : reader -> int
(** Offset just past the last verified frame: once ended, the length
    of the longest valid prefix. *)
