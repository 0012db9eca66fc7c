open Ims_ir
open Ims_core

type outcome = { memory : (int * float) list; finals : (int * float) list }

let float_eq a b = (Float.is_nan a && Float.is_nan b) || a = b

(* Live-in values: distinct, non-zero, and — when used as addresses —
   a megabyte apart so address streams never collide within a run.
   Instances before iteration 0 (the EVR preloads that precondition
   back-substituted chains, j = -1, -2, ...) step back by one stride per
   instance, exactly as the compensation code before a back-substituted
   loop would set them up. *)
let live_in ~seed r j =
  assert (j < 0);
  float_of_int (r + 1) *. 1_048_576.0
  +. (float_of_int (((r + seed) * 7919) mod 101) /. 8.0)
  +. 1.0
  +. (8.0 *. float_of_int (j + 1))

(* Uninitialised memory reads a deterministic function of the address. *)
let default_cell addr =
  1.0 +. (float_of_int (addr * 2654435761 land 0xFFFF) /. 65536.0)

let stride = 8.0

exception Unsupported of string

(* Execute one operation instance given [read (reg, distance)] and
   [write reg value] callbacks and the memory table. *)
let exec mem (o : Op.t) ~read ~write =
  let guarded_off =
    match o.Op.pred with
    | Some p -> read (p.Op.reg, p.Op.distance) = 0.0
    | None -> false
  in
  if not guarded_off then begin
    let srcs = List.map (fun (s : Op.operand) -> read (s.Op.reg, s.Op.distance)) o.Op.srcs in
    let out =
      match (o.Op.opcode, srcs) with
      | ("aadd" | "asub"), [ a ] ->
          (* An address stream.  The stride is the explicit immediate
             when present; otherwise one stride per iteration hopped (a
             back-substituted self reference at distance d advances d
             strides, keeping consecutive addresses one stride apart). *)
          let delta =
            match o.Op.imm with
            | Some v -> v
            | None ->
                let d =
                  match o.Op.srcs with
                  | [ s ] -> max 1 s.Op.distance
                  | _ -> 1
                in
                stride *. float_of_int d
          in
          Some (if o.Op.opcode = "aadd" then a +. delta else a -. delta)
      | ("aadd" | "add" | "fadd"), first :: rest ->
          Some (List.fold_left ( +. ) first rest)
      | ("asub" | "sub" | "fsub"), first :: rest ->
          Some (List.fold_left ( -. ) first rest)
      | ("mul" | "fmul"), first :: rest ->
          Some (List.fold_left ( *. ) first rest)
      | ("div" | "fdiv"), first :: rest ->
          Some (first /. List.fold_left ( *. ) 1.0 rest)
      | "sqrt", [ a ] -> Some (Float.sqrt (Float.abs a))
      | "copy", a :: _ -> Some a
      | ("cmp" | "fcmp"), [ a; b ] -> Some (if a < b then 1.0 else 0.0)
      | "pred_set", [ c ] -> Some (if c <> 0.0 then 1.0 else 0.0)
      | "pred_reset", [ c ] -> Some (if c <> 0.0 then 0.0 else 1.0)
      | "store", [ a; v ] ->
          Hashtbl.replace mem (int_of_float a) v;
          None
      | "load", [ a ] ->
          let addr = int_of_float a in
          Some (Option.value ~default:(default_cell addr) (Hashtbl.find_opt mem addr))
      | "branch", _ -> None
      | opcode, srcs ->
          raise
            (Unsupported
               (Printf.sprintf "no semantics for %s/%d" opcode (List.length srcs)))
    in
    match (out, o.Op.dsts) with
    | Some v, dsts -> List.iter (fun r -> write r v) dsts
    | None, _ -> ()
  end

(* The registers the loop's real operations write. *)
let defined_set ddg =
  let defined = Hashtbl.create 32 in
  List.iter
    (fun i -> List.iter (fun r -> Hashtbl.replace defined r ()) (Ddg.op ddg i).Op.dsts)
    (Ddg.real_ids ddg);
  defined

let defined_regs ddg =
  Hashtbl.fold (fun r () acc -> r :: acc) (defined_set ddg) [] |> List.sort compare

let outcome_of ~seed ~trip ddg instances mem =
  ignore seed;
  let finals =
    defined_regs ddg
    |> List.filter_map (fun r ->
           let rec youngest j =
             if j < 0 then None
             else
               match Hashtbl.find_opt instances (r, j) with
               | Some v -> Some (r, v)
               | None -> youngest (j - 1)
           in
           youngest (trip - 1))
  in
  let memory =
    Hashtbl.fold (fun addr v acc -> (addr, v) :: acc) mem []
    |> List.sort compare
  in
  { memory; finals }

(* Up to [trip] iterations in program order.  With [exit_op], execution
   stops after the exit operation of the first iteration whose exit
   condition is non-zero; returns that iteration, or [trip]. *)
let sequential_instances ?exit_op ~seed ddg ~trip =
  let instances = Hashtbl.create 256 in
  let mem = Hashtbl.create 256 in
  let exit_iter = ref trip in
  let i = ref 0 in
  while !i < trip && !exit_iter = trip do
    let iter = !i in
    List.iter
      (fun id ->
        if !exit_iter = trip then begin
          let o = Ddg.op ddg id in
          let read (r, d) =
            (* Registers keep their value across unwritten iterations;
               the preloaded instances (negative indices) are distinct. *)
            let target = iter - d in
            let rec walk j =
              if j < 0 then live_in ~seed r (min target (-1))
              else
                match Hashtbl.find_opt instances (r, j) with
                | Some v -> v
                | None -> walk (j - 1)
            in
            walk target
          in
          let write r v = Hashtbl.replace instances (r, iter) v in
          exec mem o ~read ~write;
          match (exit_op, o.Op.srcs) with
          | Some e, (c : Op.operand) :: _
            when e = id && read (c.Op.reg, c.Op.distance) <> 0.0 ->
              exit_iter := iter
          | _ -> ()
        end)
      (Ddg.real_ids ddg);
    incr i
  done;
  (instances, mem, !exit_iter)

let run_sequential ?(seed = 42) ddg ~trip =
  let instances, mem, _ = sequential_instances ~seed ddg ~trip in
  outcome_of ~seed ~trip ddg instances mem

(* Supported for overlapped replay: every register the loop defines gets
   an instance on every iteration (checked dynamically on a short
   sequential run), so distance-d reads resolve to exactly (r, i-d). *)
let supported ddg =
  let trip = 6 in
  match sequential_instances ~seed:42 ddg ~trip with
  | exception Unsupported _ -> false
  | instances, _, _ ->
      List.for_all
        (fun r ->
          List.for_all
            (fun i -> Hashtbl.mem instances (r, i))
            (List.init trip Fun.id))
        (defined_regs ddg)

(* (issue cycle, iteration, op) of every instance in iterations
   [0, iters) that [executes], in issue order. *)
let issue_order ?(executes = fun _ -> true) sched ~iters =
  let ii = sched.Schedule.ii in
  List.concat_map
    (fun i ->
      List.filter_map
        (fun id ->
          if executes (i, id) then Some (Schedule.time sched id + (i * ii), i, id)
          else None)
        (Ddg.real_ids sched.Schedule.ddg))
    (List.init iters Fun.id)
  |> List.sort compare

(* Replay [order] over unbounded per-iteration register instances: the
   overlapped issue order with no finite register model in the way. *)
let replay_instances ~seed ddg order =
  let instances = Hashtbl.create 256 in
  let mem = Hashtbl.create 256 in
  List.iter
    (fun (_, i, id) ->
      let o = Ddg.op ddg id in
      let read (r, d) =
        let j = i - d in
        if j < 0 then live_in ~seed r j
        else
          match Hashtbl.find_opt instances (r, j) with
          | Some v -> v
          | None ->
              (* Live-in register (never defined in the loop). *)
              live_in ~seed r (-1)
      in
      let write r v = Hashtbl.replace instances (r, i) v in
      exec mem o ~read ~write)
    order;
  (instances, mem)

let run_pipelined ?(seed = 42) sched ~trip =
  let ddg = sched.Schedule.ddg in
  if not (supported ddg) then
    invalid_arg "Interp.run_pipelined: loop has partially-defined registers";
  let instances, mem =
    replay_instances ~seed ddg (issue_order sched ~iters:trip)
  in
  outcome_of ~seed ~trip ddg instances mem

let equivalent a b =
  let eq_list l1 l2 =
    List.length l1 = List.length l2
    && List.for_all2 (fun (k1, v1) (k2, v2) -> k1 = k2 && float_eq v1 v2) l1 l2
  in
  eq_list a.memory b.memory && eq_list a.finals b.finals

(* Shared driver: replay iterations in schedule (issue) order with a
   caller-supplied finite register model, then rebuild the outcome from
   the final sequential re-read of the same model.  [write cell value]
   and [read (reg, distance) ~iter] hide the register structure.

   Timing follows the hardware the register models assume (and that
   [Lifetime.copies = ceil(len/II)] counts on): every operation reads
   its operands at issue, and a register write is not visible to reads
   in the same cycle — writes land at the end of their cycle, in issue
   order.  Making a write visible the moment it issues would let a
   same-cycle reader of the register's previous value see the new one
   and reject a correct schedule. *)
let replay_finite ?(seed = 42) sched ~trip ~write ~read ~snapshot =
  let ddg = sched.Schedule.ddg in
  if not (supported ddg) then
    invalid_arg "Interp: loop has partially-defined registers";
  let mem = Hashtbl.create 256 in
  let cycle = ref min_int and landing = ref [] in
  let retire () =
    List.iter (fun (r, v, i) -> write r v ~iter:i) (List.rev !landing);
    landing := []
  in
  List.iter
    (fun (t, i, id) ->
      if t <> !cycle then begin
        retire ();
        cycle := t
      end;
      let o = Ddg.op ddg id in
      let read (r, d) = read ~seed (r, d) ~iter:i in
      let write r v = landing := (r, v, i) :: !landing in
      exec mem o ~read ~write)
    (issue_order sched ~iters:trip);
  retire ();
  let finals =
    List.filter_map (fun r -> snapshot r ~last_iter:(trip - 1)) (defined_regs ddg)
  in
  let memory =
    Hashtbl.fold (fun addr v acc -> (addr, v) :: acc) mem [] |> List.sort compare
  in
  { memory; finals }

let run_mve ?(seed = 42) ?mve sched ~trip =
  let ddg = sched.Schedule.ddg in
  let mve = match mve with Some m -> m | None -> Mve.expand sched in
  let k = mve.Mve.unroll in
  let cells : (string, float) Hashtbl.t = Hashtbl.create 64 in
  let defined = defined_set ddg in
  let write r v ~iter =
    Hashtbl.replace cells (Mve.rename mve ~reg:r ~copy:(iter mod k) ~distance:0) v
  in
  let read ~seed (r, d) ~iter =
    if not (Hashtbl.mem defined r) then live_in ~seed r (-1)
    else begin
      let j = iter - d in
      if j < 0 then live_in ~seed r (min (-1) j)
      else
        match
          Hashtbl.find_opt cells (Mve.rename mve ~reg:r ~copy:(iter mod k) ~distance:d)
        with
        | Some v -> v
        | None -> live_in ~seed r (-1)
    end
  in
  let snapshot r ~last_iter =
    if last_iter < 0 then None
    else
      Option.map
        (fun v -> (r, v))
        (Hashtbl.find_opt cells
           (Mve.rename mve ~reg:r ~copy:(last_iter mod k) ~distance:0))
  in
  replay_finite ~seed sched ~trip ~write ~read ~snapshot

let run_rotating ?(seed = 42) sched ~trip =
  let ddg = sched.Schedule.ddg in
  let alloc = Rotreg.allocate sched in
  let size = max 1 alloc.Rotreg.file_size in
  let file = Array.make size None in
  let defined = defined_set ddg in
  (* The file rotates down one position per iteration: architectural
     register [x] read in iteration [i] is physical cell [(x - i) mod
     size].  A definition of [v] (architectural [base_v]) in iteration
     [j] and its distance-[d] reader (architectural [base_v + d]) in
     iteration [j + d] thus meet in the same physical cell. *)
  let cell arch ~iter = ((arch - iter) mod size + size) mod size in
  let write r v ~iter =
    match Rotreg.base_of alloc r with
    | Some base -> file.(cell base ~iter) <- Some v
    | None -> ()
  in
  let read ~seed (r, d) ~iter =
    if not (Hashtbl.mem defined r) then live_in ~seed r (-1)
    else begin
      let j = iter - d in
      if j < 0 then live_in ~seed r (min (-1) j)
      else
        match Rotreg.base_of alloc r with
        | Some base -> (
            match file.(cell (base + d) ~iter) with
            | Some v -> v
            | None -> live_in ~seed r (-1))
        | None -> live_in ~seed r (-1)
    end
  in
  let snapshot r ~last_iter =
    if last_iter < 0 then None
    else
      match Rotreg.base_of alloc r with
      | Some base ->
          Option.map (fun v -> (r, v)) file.(cell base ~iter:last_iter)
      | None -> None
  in
  replay_finite ~seed sched ~trip ~write ~read ~snapshot

let run_sequential_with_exit ?(seed = 42) ddg ~exit_op ~max_trip =
  let instances, mem, exit_iter =
    sequential_instances ~exit_op ~seed ddg ~trip:max_trip
  in
  let trip = if exit_iter = max_trip then max_trip else exit_iter + 1 in
  (outcome_of ~seed ~trip ddg instances mem, exit_iter)

let run_pipelined_with_exit ?(seed = 42) sched ~exit_op ~max_trip =
  let ddg = sched.Schedule.ddg in
  if not (supported ddg) then
    invalid_arg "Interp: loop has partially-defined registers";
  (* First find the dynamic exit iteration from the sequential
     semantics (the values, hence the exit decision, are the same). *)
  let _, exit_iter = run_sequential_with_exit ~seed ddg ~exit_op ~max_trip in
  let ii = sched.Schedule.ii in
  let resolve_time =
    Schedule.time sched exit_op
    + Ims_machine.Machine.latency ddg.Ddg.machine (Ddg.op ddg exit_op).Op.opcode
    + (exit_iter * ii)
  in
  let executes (i, id) =
    if i < exit_iter then true
    else if i = exit_iter then id <= exit_op
    else begin
      (* Younger iterations: everything issued before the exit resolved
         ran speculatively.  Register writes are harmless (their cells
         are dead once the loop exits) but stores commit — which is why
         hazardous schedules diverge. *)
      Schedule.time sched id + (i * ii) < resolve_time
    end
  in
  let instances, mem =
    replay_instances ~seed ddg
      (issue_order ~executes sched
         ~iters:(min max_trip (exit_iter + Schedule.stage_count sched + 1)))
  in
  let trip = if exit_iter = max_trip then max_trip else exit_iter + 1 in
  (outcome_of ~seed ~trip ddg instances mem, exit_iter)

type judgement = Equivalent | Diverges of string | Abstains

let judge ?(seed = 42) ?metrics ?trip sched =
  let replays =
    Option.map (fun m -> Ims_obs.Metrics.counter m "interp.replays") metrics
  in
  let ddg = sched.Schedule.ddg in
  if not (supported ddg) then Abstains
  else begin
    let trip =
      Option.value ~default:((3 * Schedule.stage_count sched) + 5) trip
    in
    match run_sequential ~seed ddg ~trip with
    | exception Unsupported msg -> Diverges msg
    | reference ->
        let modes =
          [
            ("overlapped issue order", run_pipelined ?seed:(Some seed));
            ("finite MVE registers", fun sched ~trip -> run_mve ~seed sched ~trip);
            ("physical rotating file", run_rotating ?seed:(Some seed));
          ]
        in
        List.fold_left
          (fun acc (label, run) ->
            match acc with
            | Diverges _ | Abstains -> acc
            | Equivalent ->
                Option.iter Ims_obs.Metrics.incr replays;
                let b = run sched ~trip in
                if equivalent reference b then Equivalent
                else
                  Diverges
                    (Printf.sprintf
                       "%s diverges from sequential execution (%d memory \
                        cells vs %d, %d finals vs %d)"
                       label (List.length reference.memory)
                       (List.length b.memory)
                       (List.length reference.finals)
                       (List.length b.finals)))
          Equivalent modes
  end

let check ?seed ?metrics ?trip sched =
  match judge ?seed ?metrics ?trip sched with
  | Equivalent | Abstains -> Ok ()
  | Diverges e -> Error e
