open Regionsel_isa
module Gauges = Regionsel_engine.Gauges

type t = { table : Compact_trace.t list Addr.Table.t; gauges : Gauges.t; mutable bytes : int }

let create gauges = { table = Addr.Table.create 64; gauges; bytes = 0 }

let record t trace =
  let entry = Compact_trace.entry trace in
  let prev = Option.value ~default:[] (Addr.Table.find_opt t.table entry) in
  Addr.Table.replace t.table entry (trace :: prev);
  let bytes = Compact_trace.size_bytes trace in
  t.bytes <- t.bytes + bytes;
  Gauges.add_observed_bytes t.gauges bytes

let count t entry =
  match Addr.Table.find_opt t.table entry with Some l -> List.length l | None -> 0

let take t entry =
  match Addr.Table.find_opt t.table entry with
  | None -> []
  | Some traces ->
    Addr.Table.remove t.table entry;
    let bytes = List.fold_left (fun acc tr -> acc + Compact_trace.size_bytes tr) 0 traces in
    t.bytes <- t.bytes - bytes;
    Gauges.add_observed_bytes t.gauges (-bytes);
    List.rev traces

let total_bytes t = t.bytes
let n_entries t = Addr.Table.length t.table

(* Checkpoint support.  Restoring does not touch the gauges: the shared
   gauge state has its own snapshot section and is restored separately. *)

let save t emit =
  emit t.bytes;
  emit (Addr.Table.length t.table);
  Addr.Table.iter_sorted
    (fun entry traces ->
      emit entry;
      emit (List.length traces);
      List.iter (fun tr -> Compact_trace.save tr emit) traces)
    t.table

let load t read =
  let bytes = read () in
  let n = read () in
  if bytes < 0 || n < 0 then failwith "Observation_store.load: negative length";
  Addr.Table.reset t.table;
  for _ = 1 to n do
    let entry = read () in
    let len = read () in
    if len < 0 then failwith "Observation_store.load: negative trace-list length";
    let traces = List.init len (fun _ -> Compact_trace.load read) in
    Addr.Table.replace t.table entry traces
  done;
  t.bytes <- bytes
