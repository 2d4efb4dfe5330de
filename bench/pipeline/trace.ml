let now_ns () = Int64.to_int (Monotonic_clock.now ())

type span_rec = {
  id : int;
  name : string;
  parent : int;
  op : int;
  tid : int;
  start : int;
  mutable stop : int;
  mutable events : int;
  mutable frames : int;
  mutable bytes : int;
}

type t = {
  on : bool;
  lock : Mutex.t;
  mutable spans : span_rec array;
  mutable n : int;
  origin : int;
}

let no_span = -1

let create ~enabled =
  { on = enabled; lock = Mutex.create (); spans = [||]; n = 0; origin = now_ns () }

let enabled t = t.on

let push t ~name ~parent ~op =
  Mutex.protect t.lock (fun () ->
      let op = if op < 0 && parent >= 0 then t.spans.(parent).op else op in
      let r =
        { id = t.n; name; parent; op; tid = Thread.id (Thread.self ()); start = now_ns ();
          stop = -1; events = 0; frames = 0; bytes = 0 }
      in
      if t.n = Array.length t.spans then begin
        let grown = Array.make (max 1024 (2 * t.n)) r in
        Array.blit t.spans 0 grown 0 t.n;
        t.spans <- grown
      end;
      t.spans.(t.n) <- r;
      t.n <- t.n + 1;
      r)

let span t ?(parent = no_span) ?(op = -1) name f =
  if not t.on then f no_span
  else
    let r = push t ~name ~parent ~op in
    Fun.protect ~finally:(fun () -> r.stop <- now_ns ()) (fun () -> f r.id)

let count t id ~events ~frames ~bytes =
  if t.on && id >= 0 then
    Mutex.protect t.lock (fun () ->
        let r = t.spans.(id) in
        r.events <- r.events + events;
        r.frames <- r.frames + frames;
        r.bytes <- r.bytes + bytes)

type total = { name : string; calls : int; total_ns : int; self_ns : int }

let finished t =
  Mutex.protect t.lock (fun () -> Array.sub t.spans 0 t.n)
  |> Array.to_list
  |> List.filter (fun r -> r.stop >= r.start)

let totals t =
  let spans = finished t in
  let covered = Hashtbl.create 1024 in
  List.iter
    (fun r ->
      if r.parent >= 0 then
        Hashtbl.replace covered r.parent
          ((r.stop - r.start) + Option.value ~default:0 (Hashtbl.find_opt covered r.parent)))
    spans;
  let by_name = Hashtbl.create 32 in
  List.iter
    (fun (r : span_rec) ->
      let dur = r.stop - r.start in
      let self = max 0 (dur - Option.value ~default:0 (Hashtbl.find_opt covered r.id)) in
      let calls, total, self_sum =
        Option.value ~default:(0, 0, 0) (Hashtbl.find_opt by_name r.name)
      in
      Hashtbl.replace by_name r.name (calls + 1, total + dur, self_sum + self))
    spans;
  Hashtbl.fold
    (fun name (calls, total_ns, self_ns) acc -> { name; calls; total_ns; self_ns } :: acc)
    by_name []
  |> List.sort (fun a b -> compare (b.self_ns, b.name) (a.self_ns, a.name))

let write_chrome t ~path =
  let b = Buffer.create (1 lsl 16) in
  Buffer.add_string b "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  List.iteri
    (fun i (r : span_rec) ->
      if i > 0 then Buffer.add_string b ",\n";
      Printf.bprintf b
        "{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"op\":%d,\"events\":%d,\"frames\":%d,\"bytes\":%d}}"
        r.name r.tid
        (float_of_int (r.start - t.origin) /. 1e3)
        (float_of_int (r.stop - r.start) /. 1e3)
        r.id r.parent r.op r.events r.frames r.bytes)
    (finished t);
  Buffer.add_string b "]}\n";
  Out_channel.with_open_bin path (fun oc -> Buffer.output_buffer oc b)
