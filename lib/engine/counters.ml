type t = {
  table : int Int_tbl.t;
  mutable high_water : int;
  mutable total_allocations : int;
}

let create () = { table = Int_tbl.create 256; high_water = 0; total_allocations = 0 }

let incr t a =
  match Int_tbl.find t.table a with
  | c ->
    let c = c + 1 in
    Int_tbl.replace t.table a c;
    c
  | exception Not_found ->
    Int_tbl.replace t.table a 1;
    t.total_allocations <- t.total_allocations + 1;
    let live = Int_tbl.length t.table in
    if live > t.high_water then t.high_water <- live;
    1

let peek t a = match Int_tbl.find t.table a with c -> c | exception Not_found -> 0
let release t a = Int_tbl.remove t.table a
let live t = Int_tbl.length t.table
let high_water t = t.high_water
let total_allocations t = t.total_allocations

let live_entries t = Int_tbl.fold (fun a c acc -> (a, c) :: acc) t.table []

(* A simulated optimizer crash loses every live counter but not the pool's
   lifetime statistics: the high-water mark and allocation count are run
   metrics, not recoverable state. *)
let reset t = Int_tbl.reset t.table

(* Checkpoint support.  Int_tbl iteration order is never observable (see
   int_tbl.ml), so content equality is all restore has to preserve; the
   key-sorted emission keeps the bytes canonical regardless of layout. *)

let save t emit =
  emit (Int_tbl.length t.table);
  List.iter
    (fun (a, c) ->
      emit a;
      emit c)
    (Int_tbl.sorted_pairs t.table);
  emit t.high_water;
  emit t.total_allocations

let load t read =
  let n = read () in
  if n < 0 then failwith "Counters.load: negative table length";
  let pairs =
    List.init n (fun _ ->
        let a = read () in
        let c = read () in
        (a, c))
  in
  let high_water = read () in
  let total_allocations = read () in
  (* Commit only once the whole stream has parsed. *)
  Int_tbl.reset t.table;
  List.iter (fun (a, c) -> Int_tbl.replace t.table a c) pairs;
  t.high_water <- high_water;
  t.total_allocations <- total_allocations
