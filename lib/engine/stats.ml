type t = {
  mutable steps : int;
  mutable interpreted_insts : int;
  mutable cached_insts : int;
  mutable taken_branches : int;
  mutable region_transitions : int;
  mutable dispatches : int;
  mutable cache_exits_to_interp : int;
  mutable installs : int;
  mutable links : int;
  mutable link_hits : int;
  mutable node_steps : int;
  mutable install_rejects : int;
  mutable faults_injected : int;
  mutable async_exits : int;
  mutable bailouts : int;
  mutable recovery_steps : int;
}

let create () =
  {
    steps = 0;
    interpreted_insts = 0;
    cached_insts = 0;
    taken_branches = 0;
    region_transitions = 0;
    dispatches = 0;
    cache_exits_to_interp = 0;
    installs = 0;
    links = 0;
    link_hits = 0;
    node_steps = 0;
    install_rejects = 0;
    faults_injected = 0;
    async_exits = 0;
    bailouts = 0;
    recovery_steps = 0;
  }

type field = { name : string; get : t -> int; set : t -> int -> unit }

let field name get set = { name; get; set }

(* Declaration order, which is also the checkpoint stream order: existing
   snapshots depend on it. *)
let fields =
  [|
    field "steps" (fun t -> t.steps) (fun t v -> t.steps <- v);
    field "interpreted_insts" (fun t -> t.interpreted_insts) (fun t v -> t.interpreted_insts <- v);
    field "cached_insts" (fun t -> t.cached_insts) (fun t v -> t.cached_insts <- v);
    field "taken_branches" (fun t -> t.taken_branches) (fun t v -> t.taken_branches <- v);
    field "region_transitions"
      (fun t -> t.region_transitions)
      (fun t v -> t.region_transitions <- v);
    field "dispatches" (fun t -> t.dispatches) (fun t v -> t.dispatches <- v);
    field "cache_exits_to_interp"
      (fun t -> t.cache_exits_to_interp)
      (fun t v -> t.cache_exits_to_interp <- v);
    field "installs" (fun t -> t.installs) (fun t v -> t.installs <- v);
    field "links" (fun t -> t.links) (fun t v -> t.links <- v);
    field "link_hits" (fun t -> t.link_hits) (fun t v -> t.link_hits <- v);
    field "node_steps" (fun t -> t.node_steps) (fun t v -> t.node_steps <- v);
    field "install_rejects" (fun t -> t.install_rejects) (fun t v -> t.install_rejects <- v);
    field "faults_injected" (fun t -> t.faults_injected) (fun t v -> t.faults_injected <- v);
    field "async_exits" (fun t -> t.async_exits) (fun t v -> t.async_exits <- v);
    field "bailouts" (fun t -> t.bailouts) (fun t v -> t.bailouts <- v);
    field "recovery_steps" (fun t -> t.recovery_steps) (fun t v -> t.recovery_steps <- v);
  |]

let snapshot t = { t with steps = t.steps }

let map2 fn a b =
  let r = create () in
  Array.iter (fun f -> f.set r (fn (f.get a) (f.get b))) fields;
  r

(* Counters are monotone within a run, but a window can straddle a
   counter reload (a crash fault resets nothing here, yet [load] may
   install an older image, e.g. a snapshot restore taken before the
   window opened).  A window is a measure of activity: clamp at zero so a
   baseline from a discarded future never yields negative rates. *)
let diff ~earlier ~later = map2 (fun e l -> if l > e then l - e else 0) earlier later

(* Checkpoint support: the counters as a flat int stream, in table order. *)
let save t emit = Array.iter (fun f -> emit (f.get t)) fields

(* Read the whole record before committing any of it, so a short or
   invalid stream leaves [t] untouched. *)
let load t read =
  let values = Array.map (fun _ -> read ()) fields in
  if Array.exists (fun v -> v < 0) values then failwith "Stats.load: negative counter";
  Array.iteri (fun i f -> f.set t values.(i)) fields

let total_insts t = t.interpreted_insts + t.cached_insts

let hit_rate t =
  let total = total_insts t in
  if total = 0 then 0.0 else float_of_int t.cached_insts /. float_of_int total
