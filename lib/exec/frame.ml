let header_bytes = 8
let max_payload = 1 lsl 24

(* Table-driven over native ints: the register fits in 63 bits, so the
   loop allocates nothing. *)
let crc_table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 <> 0 then 0xedb88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

let crc32 s =
  let c = ref 0xffffffff in
  String.iter
    (fun ch ->
      c := crc_table.((!c lxor Char.code ch) land 0xff) lxor (!c lsr 8))
    s;
  Int32.of_int (!c lxor 0xffffffff)

let add buf payload =
  let len = String.length payload in
  if len > max_payload then invalid_arg "Frame.add: payload too large";
  Buffer.add_int32_le buf (Int32.of_int len);
  Buffer.add_int32_le buf (crc32 payload);
  Buffer.add_string buf payload

let encode payload =
  let buf = Buffer.create (header_bytes + String.length payload) in
  add buf payload;
  Buffer.contents buf

type ending = Clean | Torn of int * string | Corrupt of int * string

type reader = {
  ic : in_channel;
  size : int;
  mutable pos : int;  (* start of the next unread frame *)
  mutable index : int;
  mutable ended : ending option;
}

let reader ic =
  { ic; size = in_channel_length ic; pos = pos_in ic; index = 0; ended = None }

let next r =
  let stop e = r.ended <- Some e; None in
  let torn at fmt = Printf.ksprintf (fun m -> stop (Torn (at, m))) fmt in
  let corrupt at fmt = Printf.ksprintf (fun m -> stop (Corrupt (at, m))) fmt in
  let left = r.size - r.pos and at = r.pos + header_bytes in
  if r.ended <> None then None
  else if left = 0 then stop Clean
  else if left < header_bytes then
    torn r.pos "truncated record frame (need %d bytes, have %d)" header_bytes
      left
  else
    let prefix = really_input_string r.ic header_bytes in
    let len = Int32.to_int (String.get_int32_le prefix 0) in
    if len < 0 || len > max_payload then
      corrupt r.pos "implausible record length %d" len
    else if len > left - header_bytes then
      torn at "truncated record payload (need %d bytes, have %d)" len
        (left - header_bytes)
    else
      let payload = really_input_string r.ic len in
      let stored = String.get_int32_le prefix 4 and computed = crc32 payload in
      if stored <> computed then
        corrupt at "CRC mismatch on record %d (stored %08lx, computed %08lx)"
          r.index stored computed
      else begin
        let frame = r.pos in
        r.pos <- at + len;
        r.index <- r.index + 1;
        Some (frame, payload)
      end

let ending r = Option.value r.ended ~default:Clean
let verified_end r = r.pos
