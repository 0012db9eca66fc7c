open Ims_obs

type t = {
  fd : Unix.file_descr;
  mutable closed : bool;
  sync_every : int;
  mutable unsynced : int;
}

let push fd s =
  let len = String.length s in
  let rec go off =
    if off < len then go (off + Unix.write_substring fd s off (len - off))
  in
  go 0

(* One whole frame per write call, then fsync: a crash can tear at most
   the frame being written, and only at the end of the file.

   With [sync_every > 1] the fsync is amortised over that many appends.
   A SIGKILL still loses nothing that [write] returned for — completed
   writes survive process death in the page cache — so crash-resume
   semantics are unchanged; only power-loss durability is traded, and
   at most [sync_every - 1] records of it. *)
let append t json =
  push t.fd (Frame.encode (Json.to_string json));
  t.unsynced <- t.unsynced + 1;
  if t.unsynced >= t.sync_every then begin
    Unix.fsync t.fd;
    t.unsynced <- 0
  end

let encoded_bytes json =
  Frame.header_bytes + String.length (Json.to_string json)

let mk ?(sync_every = 1) fd =
  if sync_every < 1 then invalid_arg "Append_log: sync_every < 1";
  { fd; closed = false; sync_every; unsynced = 0 }

let create ?sync_every ~path ~header () =
  let fd =
    Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let t = mk ?sync_every fd in
  append t header;
  t

(* Every verified frame in file order, and how the stream ended. *)
let scan path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let r = Frame.reader ic in
      let rec go acc =
        match Frame.next r with
        | Some (_, payload) -> go (payload :: acc)
        | None -> (List.rev acc, Frame.ending r, Frame.verified_end r)
      in
      go [])

(* Whatever follows the longest valid prefix — a torn frame, or a
   damaged one and everything after it — must be cut before the next
   append, or a later reader would stop at it and never see the new
   records. *)
let reopen ?sync_every ~path () =
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0o644 in
  let _, _, keep = scan path in
  if keep < (Unix.fstat fd).Unix.st_size then Unix.ftruncate fd keep;
  ignore (Unix.lseek fd keep Unix.SEEK_SET);
  mk ?sync_every fd

let flush t =
  if t.unsynced > 0 then begin
    Unix.fsync t.fd;
    t.unsynced <- 0
  end

(* Compaction: the whole replacement is staged in [path ^ ".rewrite"],
   fsync'd, then renamed over [path] — the same atomicity discipline as
   Status.write_atomic, so a crash at any point leaves either the old
   complete log or the new complete log, never a hybrid.  The staged fd
   survives the rename (same inode) and becomes the append fd. *)
let rewrite ~path ~header ~records =
  let tmp = path ^ ".rewrite" in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  match
    let buf = Buffer.create 65536 in
    List.iter (fun r -> Frame.add buf (Json.to_string r)) (header :: records);
    push fd (Buffer.contents buf);
    Unix.fsync fd;
    Unix.rename tmp path
  with
  | () -> mk fd
  | exception e ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      (try Unix.unlink tmp with Unix.Unix_error _ -> ());
      raise e

let close t =
  if not t.closed then begin
    t.closed <- true;
    (try flush t with Unix.Unix_error _ -> ());
    Unix.close t.fd
  end

type loaded = {
  header : string;
  records : string list;
  ending : Frame.ending;
}

let load ~path =
  match scan path with
  | exception Sys_error msg -> Error msg
  | header :: records, ending, _ -> Ok { header; records; ending }
  | [], Clean, _ -> Error "empty log"
  | [], (Torn (offset, reason) | Corrupt (offset, reason)), _ ->
      Error
        (Printf.sprintf "no valid header frame (byte %d: %s)" offset reason)
