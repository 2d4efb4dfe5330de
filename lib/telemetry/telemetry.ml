type kind =
  | Install
  | Evict
  | Invalidate
  | Link_patch
  | Link_sever
  | Dispatch
  | Bailout_enter
  | Bailout_exit
  | Fault
  | Blacklist_add
  | Blacklist_expire
  | Select

(* Stable int codes for the packed ring representation; the emission
   functions below write the literal codes, this decodes them. *)
let kind_of_code = function
  | 0 -> Install
  | 1 -> Evict
  | 2 -> Invalidate
  | 3 -> Link_patch
  | 4 -> Link_sever
  | 5 -> Dispatch
  | 6 -> Bailout_enter
  | 7 -> Bailout_exit
  | 8 -> Fault
  | 9 -> Blacklist_add
  | 10 -> Blacklist_expire
  | 11 -> Select
  | c -> invalid_arg (Printf.sprintf "Telemetry.kind_of_code: %d" c)

let label = function
  | Install -> "install"
  | Evict -> "evict"
  | Invalidate -> "invalidate"
  | Link_patch -> "link-patch"
  | Link_sever -> "link-sever"
  | Dispatch -> "dispatch"
  | Bailout_enter -> "bailout-enter"
  | Bailout_exit -> "bailout-exit"
  | Fault -> "fault"
  | Blacklist_add -> "blacklist-add"
  | Blacklist_expire -> "blacklist-expire"
  | Select -> "select"

let fault_label = function
  | 0 -> "smc"
  | 1 -> "translation"
  | 2 -> "async-exit"
  | 3 -> "shock"
  | 4 -> "crash"
  | c -> Printf.sprintf "fault-%d" c

module Hist = struct
  (* 64 buckets cover every value an OCaml int can hold: bucket 0 is
     values <= 0, bucket b >= 1 is [2^(b-1), 2^b - 1]. *)
  type h = {
    counts : int array;
    mutable count : int;
    mutable sum : int;
    mutable max_value : int;
  }

  let create () = { counts = Array.make 64 0; count = 0; sum = 0; max_value = min_int }

  let bucket_of v =
    if v <= 0 then 0
    else begin
      (* Number of significant bits of v: 1 -> 1, 2..3 -> 2, 4..7 -> 3. *)
      let rec bits acc v = if v = 0 then acc else bits (acc + 1) (v lsr 1) in
      bits 0 v
    end

  let observe h v =
    h.counts.(bucket_of v) <- h.counts.(bucket_of v) + 1;
    h.count <- h.count + 1;
    h.sum <- h.sum + v;
    if v > h.max_value then h.max_value <- v

  let count h = h.count
  let sum h = h.sum
  let max_value h = if h.count = 0 then 0 else h.max_value

  let bounds b = if b = 0 then (0, 0) else (1 lsl (b - 1), (1 lsl b) - 1)

  let buckets h =
    let acc = ref [] in
    for b = Array.length h.counts - 1 downto 0 do
      if h.counts.(b) > 0 then begin
        let lo, hi = bounds b in
        acc := (lo, hi, h.counts.(b)) :: !acc
      end
    done;
    !acc
end

type cause = Evicted | Flushed | Invalidated | End_of_run

let cause_label = function
  | Evicted -> "evicted"
  | Flushed -> "flushed"
  | Invalidated -> "invalidated"
  | End_of_run -> "end-of-run"

type span = { id : int; installed_at : int; retired_at : int; cause : cause; n_nodes : int }

(* Four int slots per event: step, kind code, a, b. *)
let slots = 4

type t = {
  mutable buf : int array;  (** [min cap initial_events] events, doubled up to [cap] *)
  cap : int;  (** events; power of two *)
  mutable head : int;  (** events ever emitted; next write = head mod cap *)
  hist_residency : Hist.h;
  hist_first_link : Hist.h;
  hist_trace_length : Hist.h;
  hist_cooldown : Hist.h;
  (* Span ledger, indexed by region id (ids are assigned sequentially by
     the code cache, so a flat array suffices).  Kept outside the ring so
     spans survive overwrite. *)
  mutable open_at : int array;  (** region id -> install step, -1 if not open *)
  mutable nodes_of : int array;  (** region id -> node count at install *)
  mutable linked : Bytes.t;  (** region id -> has its first link been observed *)
  mutable spans_rev : span list;
  mutable installs : int;
  mutable finished : bool;
}

type sink = t option

let none : sink = None

let round_pow2 n =
  let rec go p = if p >= n then p else go (p * 2) in
  go 1

(* The ring starts this small and doubles as events arrive, up to [cap]:
   a short run never pays for (nor makes the GC scan) a 2 MiB ring it
   does not fill. *)
let initial_events = 1024

let create ?(capacity = 65536) () =
  let cap = round_pow2 (max 1 capacity) in
  {
    buf = Array.make (min cap initial_events * slots) 0;
    cap;
    head = 0;
    hist_residency = Hist.create ();
    hist_first_link = Hist.create ();
    hist_trace_length = Hist.create ();
    hist_cooldown = Hist.create ();
    open_at = Array.make 64 (-1);
    nodes_of = Array.make 64 0;
    linked = Bytes.make 64 '\000';
    spans_rev = [];
    installs = 0;
    finished = false;
  }

(* Until the ring first wraps its events sit in order at [0, head), so a
   prefix copy keeps them. *)
let grow t =
  let n = Array.length t.buf in
  let buf = Array.make (2 * n) 0 in
  Array.blit t.buf 0 buf 0 n;
  t.buf <- buf

(* The hot emission path: four unchecked writes into the ring, after a
   doubling when a ring smaller than [cap] is full.  [cap] is a power of
   two, so the modulo is a mask. *)
let push t ~step ~kind ~a ~b =
  if t.head < t.cap && t.head * slots = Array.length t.buf then grow t;
  let base = (t.head land (t.cap - 1)) * slots in
  Array.unsafe_set t.buf base step;
  Array.unsafe_set t.buf (base + 1) kind;
  Array.unsafe_set t.buf (base + 2) a;
  Array.unsafe_set t.buf (base + 3) b;
  t.head <- t.head + 1

(* Grow the span ledger to cover region [id].  Installs are rare, so the
   occasional doubling never shows up on the hot path. *)
let ensure_ledger t id =
  let n = Array.length t.open_at in
  if id >= n then begin
    let n' = round_pow2 (id + 1) in
    let open_at = Array.make n' (-1) in
    Array.blit t.open_at 0 open_at 0 n;
    t.open_at <- open_at;
    let nodes_of = Array.make n' 0 in
    Array.blit t.nodes_of 0 nodes_of 0 n;
    t.nodes_of <- nodes_of;
    let linked = Bytes.make n' '\000' in
    Bytes.blit t.linked 0 linked 0 n;
    t.linked <- linked
  end

let close_span t ~step ~id ~cause =
  if id >= 0 && id < Array.length t.open_at then begin
    let at = t.open_at.(id) in
    if at >= 0 then begin
      t.open_at.(id) <- -1;
      if cause <> End_of_run then Hist.observe t.hist_residency (step - at);
      t.spans_rev <-
        { id; installed_at = at; retired_at = step; cause; n_nodes = t.nodes_of.(id) }
        :: t.spans_rev
    end
  end

let install sink ~step ~id ~n_nodes =
  match sink with
  | None -> ()
  | Some t ->
    push t ~step ~kind:0 ~a:id ~b:n_nodes;
    ensure_ledger t id;
    (* A reused id (only possible if two caches share one sink) closes the
       stale span rather than corrupting the ledger. *)
    close_span t ~step ~id ~cause:End_of_run;
    t.open_at.(id) <- step;
    t.nodes_of.(id) <- n_nodes;
    Bytes.set t.linked id '\000';
    t.installs <- t.installs + 1

let evict sink ~step ~id ~flush =
  match sink with
  | None -> ()
  | Some t ->
    push t ~step ~kind:1 ~a:id ~b:(if flush then 1 else 0);
    close_span t ~step ~id ~cause:(if flush then Flushed else Evicted)

let invalidate sink ~step ~id =
  match sink with
  | None -> ()
  | Some t ->
    push t ~step ~kind:2 ~a:id ~b:0;
    close_span t ~step ~id ~cause:Invalidated

let link_patch sink ~step ~from_id ~target_id =
  match sink with
  | None -> ()
  | Some t ->
    push t ~step ~kind:3 ~a:from_id ~b:target_id;
    if
      from_id >= 0
      && from_id < Array.length t.open_at
      && t.open_at.(from_id) >= 0
      && Bytes.get t.linked from_id = '\000'
    then begin
      Bytes.set t.linked from_id '\001';
      Hist.observe t.hist_first_link (step - t.open_at.(from_id))
    end

let link_sever sink ~step ~from_id ~target_id =
  match sink with None -> () | Some t -> push t ~step ~kind:4 ~a:from_id ~b:target_id

let dispatch sink ~step ~id =
  match sink with None -> () | Some t -> push t ~step ~kind:5 ~a:id ~b:0

let bailout_enter sink ~step ~until =
  match sink with None -> () | Some t -> push t ~step ~kind:6 ~a:until ~b:0

let bailout_exit sink ~step =
  match sink with None -> () | Some t -> push t ~step ~kind:7 ~a:0 ~b:0

let fault sink ~step ~code =
  match sink with None -> () | Some t -> push t ~step ~kind:8 ~a:code ~b:0

let blacklist_add sink ~step ~entry ~cooldown =
  match sink with
  | None -> ()
  | Some t ->
    push t ~step ~kind:9 ~a:entry ~b:cooldown;
    Hist.observe t.hist_cooldown cooldown

let blacklist_expire sink ~step ~entry =
  match sink with None -> () | Some t -> push t ~step ~kind:10 ~a:entry ~b:0

let select sink ~step ~n_blocks ~n_insts =
  match sink with
  | None -> ()
  | Some t ->
    push t ~step ~kind:11 ~a:n_blocks ~b:n_insts;
    Hist.observe t.hist_trace_length n_blocks

let finish t ~step =
  if not t.finished then begin
    t.finished <- true;
    for id = 0 to Array.length t.open_at - 1 do
      close_span t ~step ~id ~cause:End_of_run
    done
  end

type event = { step : int; kind : kind; a : int; b : int }

let events t =
  let first = max 0 (t.head - t.cap) in
  let acc = ref [] in
  for i = t.head - 1 downto first do
    let base = (i land (t.cap - 1)) * slots in
    acc :=
      {
        step = t.buf.(base);
        kind = kind_of_code t.buf.(base + 1);
        a = t.buf.(base + 2);
        b = t.buf.(base + 3);
      }
      :: !acc
  done;
  !acc

let n_emitted t = t.head
let n_dropped t = max 0 (t.head - t.cap)
let capacity t = t.cap

let spans t =
  List.sort
    (fun a b ->
      match compare a.installed_at b.installed_at with 0 -> compare a.id b.id | c -> c)
    t.spans_rev

let n_installs t = t.installs

let span_open t ~id = id >= 0 && id < Array.length t.open_at && t.open_at.(id) >= 0

let iter_open_spans t f =
  for id = 0 to Array.length t.open_at - 1 do
    if t.open_at.(id) >= 0 then f ~id ~installed_at:t.open_at.(id)
  done

let n_open_spans t =
  let n = ref 0 in
  iter_open_spans t (fun ~id:_ ~installed_at:_ -> incr n);
  !n

(* Close any open span whose region id is not in [live].  Restore uses
   this when the ledger survived a snapshot but the cache section did
   not (its regions re-warmed away): the ghost spans close as
   [End_of_run] so spans = installs still holds. *)
let reconcile_spans t ~step ~live =
  for id = 0 to Array.length t.open_at - 1 do
    if t.open_at.(id) >= 0 && not (live id) then close_span t ~step ~id ~cause:End_of_run
  done

(* Checkpoint support.  The ring is serialized verbatim (written prefix
   only: after [head] events the touched physical slots are exactly
   [min head cap]), the span ledger by length so restore reproduces the
   exact array geometry, and completed spans in list order.  [load] fills
   an existing recorder so the caller controls capacity; a capacity
   mismatch is a hard error because [head] indexes a specific ring
   geometry. *)

let cause_code = function Evicted -> 0 | Flushed -> 1 | Invalidated -> 2 | End_of_run -> 3

let cause_of_code = function
  | 0 -> Evicted
  | 1 -> Flushed
  | 2 -> Invalidated
  | 3 -> End_of_run
  | c -> failwith (Printf.sprintf "Telemetry.load: bad cause code %d" c)

let save_hist (h : Hist.h) emit =
  Array.iter emit h.Hist.counts;
  emit h.Hist.count;
  emit h.Hist.sum;
  emit h.Hist.max_value

let load_hist (h : Hist.h) read =
  for b = 0 to Array.length h.Hist.counts - 1 do
    let c = read () in
    if c < 0 then failwith "Telemetry.load: negative histogram bucket";
    h.Hist.counts.(b) <- c
  done;
  h.Hist.count <- read ();
  h.Hist.sum <- read ();
  h.Hist.max_value <- read ()

let save t emit =
  emit t.cap;
  emit t.head;
  let live_slots = min t.head t.cap * slots in
  for i = 0 to live_slots - 1 do
    emit t.buf.(i)
  done;
  save_hist t.hist_residency emit;
  save_hist t.hist_first_link emit;
  save_hist t.hist_trace_length emit;
  save_hist t.hist_cooldown emit;
  let n = Array.length t.open_at in
  emit n;
  Array.iter emit t.open_at;
  Array.iter emit t.nodes_of;
  Bytes.iter (fun c -> emit (Char.code c)) t.linked;
  emit (List.length t.spans_rev);
  List.iter
    (fun s ->
      emit s.id;
      emit s.installed_at;
      emit s.retired_at;
      emit (cause_code s.cause);
      emit s.n_nodes)
    t.spans_rev;
  emit t.installs;
  emit (if t.finished then 1 else 0)

let load t read =
  let cap = read () in
  if cap <> t.cap then
    failwith
      (Printf.sprintf "Telemetry.load: capacity mismatch (snapshot %d, recorder %d)" cap t.cap);
  let head = read () in
  if head < 0 then failwith "Telemetry.load: negative head";
  let live_slots = min head cap * slots in
  t.buf <- Array.make (max (min cap initial_events) (round_pow2 (min head cap)) * slots) 0;
  for i = 0 to live_slots - 1 do
    t.buf.(i) <- read ()
  done;
  t.head <- head;
  load_hist t.hist_residency read;
  load_hist t.hist_first_link read;
  load_hist t.hist_trace_length read;
  load_hist t.hist_cooldown read;
  let n = read () in
  if n < 1 then failwith "Telemetry.load: bad ledger size";
  let open_at = Array.init n (fun _ -> read ()) in
  let nodes_of = Array.init n (fun _ -> read ()) in
  let linked = Bytes.init n (fun _ -> Char.chr (read () land 0xFF)) in
  t.open_at <- open_at;
  t.nodes_of <- nodes_of;
  t.linked <- linked;
  let n_spans = read () in
  if n_spans < 0 then failwith "Telemetry.load: negative span count";
  let spans_rev = ref [] in
  for _ = 1 to n_spans do
    let id = read () in
    let installed_at = read () in
    let retired_at = read () in
    let cause = cause_of_code (read ()) in
    let n_nodes = read () in
    spans_rev := { id; installed_at; retired_at; cause; n_nodes } :: !spans_rev
  done;
  (* [spans_rev] was emitted in list order; re-consing reversed it, so one
     more [List.rev] restores the original order. *)
  t.spans_rev <- List.rev !spans_rev;
  t.installs <- read ();
  t.finished <- (match read () with 0 -> false | 1 -> true | _ -> failwith "Telemetry.load: bad finished flag")

let residency t = t.hist_residency
let time_to_first_link t = t.hist_first_link
let trace_length t = t.hist_trace_length
let blacklist_cooldown t = t.hist_cooldown
