let reference_ns = 1_000_000

let keys = Array.init 4096 (fun i -> (i * 2654435761) land 0xFFFFF)

(* One table per CPU the kernel runs on; after the first call every
   lookup hits. *)
let here : (int, int ref) Hashtbl.t = Hashtbl.create 8192
let there : (int, int ref) Hashtbl.t = Hashtbl.create 8192

(* Never edit: every figure the benchmark reports is scaled by this
   kernel's time, so changing it changes every baseline. *)
let kernel table =
  let t0 = Trace.now_ns () in
  let acc = ref 0 in
  for round = 0 to 7 do
    for i = 0 to 4095 do
      let k = keys.(((i * 7) + round) land 4095) in
      (match Hashtbl.find_opt table k with
      | Some r ->
        incr r;
        acc := !acc + !r
      | None -> Hashtbl.add table k (ref 1));
      if !acc land 3 = 0 then acc := !acc lxor k else acc := !acc + 1
    done
  done;
  ignore (Sys.opaque_identity !acc);
  Trace.now_ns () - t0

let sample ~wide =
  if not wide then kernel here
  else
    let other = Domain.spawn (fun () -> kernel there) in
    let mine = kernel here in
    (mine + Domain.join other) / 2

let speed samples =
  match Stats.summarize (Array.of_list (List.map float_of_int samples)) with
  | Some s -> s.Stats.median /. float_of_int reference_ns
  | None -> 1.0
