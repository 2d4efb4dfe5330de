open Regionsel_isa
module Gauges = Regionsel_engine.Gauges

type t = {
  program : Program.t;
  traces : Compact_trace.t list array; (* entry block id -> traces, newest first *)
  mutable n_entries : int; (* ids with a non-empty list *)
  gauges : Gauges.t;
  mutable bytes : int;
}

let create program gauges =
  {
    program;
    traces = Array.make (Program.n_blocks program) [];
    n_entries = 0;
    gauges;
    bytes = 0;
  }

let record t trace =
  let id = Program.block_id t.program (Compact_trace.entry trace) in
  if id < 0 then invalid_arg "Observation_store.record: entry is not a block start";
  (match t.traces.(id) with [] -> t.n_entries <- t.n_entries + 1 | _ :: _ -> ());
  t.traces.(id) <- trace :: t.traces.(id);
  let bytes = Compact_trace.size_bytes trace in
  t.bytes <- t.bytes + bytes;
  Gauges.add_observed_bytes t.gauges bytes

let traces_of t entry =
  let id = Program.block_id t.program entry in
  if id < 0 then [] else t.traces.(id)

let count t entry = List.length (traces_of t entry)

let take t entry =
  match traces_of t entry with
  | [] -> []
  | traces ->
    t.traces.(Program.block_id t.program entry) <- [];
    t.n_entries <- t.n_entries - 1;
    let bytes = List.fold_left (fun acc tr -> acc + Compact_trace.size_bytes tr) 0 traces in
    t.bytes <- t.bytes - bytes;
    Gauges.add_observed_bytes t.gauges (-bytes);
    List.rev traces

let total_bytes t = t.bytes
let n_entries t = t.n_entries

(* Checkpoint support.  Entries travel as start addresses in ascending
   order, each with its traces newest first.  Restoring does not touch the
   gauges: the shared gauge state has its own snapshot section and is
   restored separately. *)

let save t emit =
  emit t.bytes;
  emit t.n_entries;
  Array.iteri
    (fun id traces ->
      match traces with
      | [] -> ()
      | _ :: _ ->
        emit (Program.block_of_id t.program id).Block.start;
        emit (List.length traces);
        List.iter (fun tr -> Compact_trace.save tr emit) traces)
    t.traces

let load t read =
  let bytes = read () in
  let n = read () in
  if bytes < 0 || n < 0 then failwith "Observation_store.load: negative length";
  Array.fill t.traces 0 (Array.length t.traces) [];
  t.n_entries <- 0;
  for _ = 1 to n do
    let id = Program.block_id t.program (read ()) in
    if id < 0 then failwith "Observation_store.load: entry is not a block start";
    let len = read () in
    if len < 1 then failwith "Observation_store.load: empty or negative trace-list length";
    let traces = List.init len (fun _ -> Compact_trace.load read) in
    (match t.traces.(id) with [] -> t.n_entries <- t.n_entries + 1 | _ :: _ -> ());
    t.traces.(id) <- traces
  done;
  t.bytes <- bytes
