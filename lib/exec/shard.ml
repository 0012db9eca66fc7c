open Ims_obs
open Ims_mii

type t = {
  trace : Trace.t;
  counters : Counters.t;
  cancel : Cancel.t;
  attempt : int;
}

let create ?(observe = false) ?(time_spans = false) ?timer ?(cancel = Cancel.null)
    ?(attempt = 1) () =
  {
    trace =
      (if observe then Trace.create ?timer ()
       else if time_spans then Trace.timer_only ?timer ()
       else Trace.null);
    counters = Counters.create ();
    cancel;
    attempt;
  }

let merge shards =
  let observed = List.exists (fun s -> Trace.enabled s.trace) shards in
  let timed = List.exists (fun s -> Trace.times_spans s.trace) shards in
  let trace =
    if observed then Trace.create ()
    else if timed then Trace.timer_only ()
    else Trace.null
  in
  List.iter (fun s -> Trace.absorb trace s.trace) shards;
  {
    trace;
    counters = Counters.merge (List.map (fun s -> s.counters) shards);
    cancel = Cancel.null;
    attempt = 1;
  }

let spin hook ~name shard =
  match hook with
  | Some (target, secs) when target = name ->
      let stop = Unix.gettimeofday () +. secs in
      while Unix.gettimeofday () < stop do
        Cancel.poll shard.cancel
      done
  | _ -> ()
