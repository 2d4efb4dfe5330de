open Regionsel_isa
module Splitmix = Regionsel_prng.Splitmix

type spec =
  | Always_taken
  | Never_taken
  | Bernoulli of float
  | Loop of int
  | Pattern of bool array
  | Phased of (int * spec) list

type indirect_spec =
  | Weighted_targets of (Addr.t * float) array
  | Round_robin of Addr.t array

(* Each kind carries its own record, so an interpreter op specialised to
   a kind captures the record and runs that kind's decision directly, with
   no variant match.  [thr] = ceil (p * 2^53): [bits53 < thr] iff
   [float < p], exactly — scaling by a power of two and the ceil are both
   exact on doubles — so each Bernoulli decision is an int compare instead
   of a boxed float. *)
type bernoulli = { thr : int; prng : Splitmix.t }

type loop = { trip : int; mutable left : int }
type pattern = { pattern : bool array; mutable pos : int }
type phased = { phases : (int * state) array; mutable phase : int; mutable phase_left : int }

and state =
  | S_const of bool
  | S_bernoulli of bernoulli
  | S_loop of loop
  | S_pattern of pattern
  | S_phased of phased

let rec make_state spec prng =
  match spec with
  | Always_taken -> S_const true
  | Never_taken -> S_const false
  | Bernoulli p ->
    if p < 0.0 || p > 1.0 then invalid_arg "Behavior: Bernoulli probability out of range";
    S_bernoulli { thr = int_of_float (Float.ceil (p *. 9007199254740992.0)); prng = Splitmix.split prng }
  | Loop n ->
    if n < 1 then invalid_arg "Behavior: Loop trip count must be >= 1";
    S_loop { trip = n; left = n - 1 }
  | Pattern pat ->
    if Array.length pat = 0 then invalid_arg "Behavior: empty pattern";
    S_pattern { pattern = Array.copy pat; pos = 0 }
  | Phased phases ->
    if phases = [] then invalid_arg "Behavior: empty phase list";
    List.iter (fun (k, _) -> if k < 1 then invalid_arg "Behavior: phase length must be >= 1") phases;
    let phases = Array.of_list (List.map (fun (k, s) -> k, make_state s prng) phases) in
    let first_len, _ = phases.(0) in
    S_phased { phases; phase = 0; phase_left = first_len }

let[@inline] bernoulli_decide b = Splitmix.bits53 b.prng < b.thr

let[@inline] loop_decide l =
  if l.left > 0 then begin
    l.left <- l.left - 1;
    true
  end
  else begin
    l.left <- l.trip - 1;
    false
  end

let rec decide = function
  | S_const b -> b
  | S_bernoulli b -> bernoulli_decide b
  | S_loop l -> loop_decide l
  | S_pattern s ->
    let outcome = s.pattern.(s.pos) in
    (* [pos] is always in range, so wrap-around is a compare, not a div. *)
    let p = s.pos + 1 in
    s.pos <- (if p = Array.length s.pattern then 0 else p);
    outcome
  | S_phased s ->
    let _, inner = s.phases.(s.phase) in
    let outcome = decide inner in
    s.phase_left <- s.phase_left - 1;
    if s.phase_left = 0 then begin
      let p = s.phase + 1 in
      s.phase <- (if p = Array.length s.phases then 0 else p);
      let len, _ = s.phases.(s.phase) in
      s.phase_left <- len
    end;
    outcome

type indirect_state =
  | I_weighted of { targets : Addr.t array; prefix : float array; prng : Splitmix.t }
      (* [prefix] holds the weights' running sums, built once: a draw is a
         scan over a float array, with no per-draw sum or boxed float. *)
  | I_round_robin of { targets : Addr.t array; mutable pos : int }

let make_indirect spec prng =
  match spec with
  | Weighted_targets pairs ->
    if Array.length pairs = 0 then invalid_arg "Behavior: no indirect targets";
    let targets = Array.map fst pairs in
    let prefix = Splitmix.prefix_sums (Array.map snd pairs) in
    I_weighted { targets; prefix; prng = Splitmix.split prng }
  | Round_robin targets ->
    if Array.length targets = 0 then invalid_arg "Behavior: no indirect targets";
    I_round_robin { targets = Array.copy targets; pos = 0 }

let choose = function
  | I_weighted s -> s.targets.(Splitmix.categorical s.prng ~prefix:s.prefix)
  | I_round_robin s ->
    let tgt = s.targets.(s.pos) in
    let p = s.pos + 1 in
    s.pos <- (if p = Array.length s.targets then 0 else p);
    tgt

(* Checkpoint support: flatten a state's mutable position — PRNG limbs,
   loop/pattern/phase cursors — into an int stream and restore it into a
   freshly instantiated state of the same spec.  The structure (variant
   shape, phase arity) comes from the spec at load time, so only the
   mutables travel; a shape mismatch means the stream does not belong to
   this spec and raises [Failure]. *)

let rec save_state st emit =
  match st with
  | S_const _ -> ()
  | S_bernoulli s ->
    let hi, lo = Splitmix.state s.prng in
    emit hi;
    emit lo
  | S_loop s -> emit s.left
  | S_pattern s -> emit s.pos
  | S_phased s ->
    emit s.phase;
    emit s.phase_left;
    Array.iter (fun (_, inner) -> save_state inner emit) s.phases

let rec load_state st read =
  match st with
  | S_const _ -> ()
  | S_bernoulli s ->
    let hi = read () in
    let lo = read () in
    Splitmix.set_state s.prng ~hi ~lo
  | S_loop s ->
    let left = read () in
    if left < 0 || left >= s.trip then failwith "Behavior.load_state: loop cursor out of range";
    s.left <- left
  | S_pattern s ->
    let pos = read () in
    if pos < 0 || pos >= Array.length s.pattern then
      failwith "Behavior.load_state: pattern cursor out of range";
    s.pos <- pos
  | S_phased s ->
    let phase = read () in
    let left = read () in
    if phase < 0 || phase >= Array.length s.phases then
      failwith "Behavior.load_state: phase index out of range";
    let len, _ = s.phases.(phase) in
    if left < 1 || left > len then failwith "Behavior.load_state: phase cursor out of range";
    s.phase <- phase;
    s.phase_left <- left;
    Array.iter (fun (_, inner) -> load_state inner read) s.phases

let save_indirect st emit =
  match st with
  | I_weighted s ->
    let hi, lo = Splitmix.state s.prng in
    emit hi;
    emit lo
  | I_round_robin s -> emit s.pos

let load_indirect st read =
  match st with
  | I_weighted s ->
    let hi = read () in
    let lo = read () in
    Splitmix.set_state s.prng ~hi ~lo
  | I_round_robin s ->
    let pos = read () in
    if pos < 0 || pos >= Array.length s.targets then
      failwith "Behavior.load_indirect: cursor out of range";
    s.pos <- pos

let rec pp_spec ppf = function
  | Always_taken -> Format.pp_print_string ppf "always"
  | Never_taken -> Format.pp_print_string ppf "never"
  | Bernoulli p -> Format.fprintf ppf "bernoulli(%.2f)" p
  | Loop n -> Format.fprintf ppf "loop(%d)" n
  | Pattern pat ->
    Format.fprintf ppf "pattern(%s)"
      (String.concat "" (Array.to_list (Array.map (fun b -> if b then "T" else "N") pat)))
  | Phased phases ->
    Format.fprintf ppf "phased(%a)"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ")
         (fun ppf (k, s) -> Format.fprintf ppf "%d:%a" k pp_spec s))
      phases
