let min_beyond = 10

let rank ~n ~p =
  if n < 1 then invalid_arg "Stats.rank: no samples";
  if not (p >= 0.0 && p <= 100.0) then invalid_arg "Stats.rank: percentile out of range";
  (* [p * n] first: exact for whole-number percentiles, so p90 of 100
     samples is rank 90, not 91 through a rounding error in [p / 100]. *)
  let r = int_of_float (Float.ceil (p *. float_of_int n /. 100.0)) in
  max 1 (min n r)

let beyond ~n ~p = n - rank ~n ~p

let sorted samples =
  let a = Array.copy samples in
  Array.sort Float.compare a;
  a

let at_rank a ~p = a.(rank ~n:(Array.length a) ~p - 1)

let percentile samples ~p =
  if Array.length samples = 0 then None else Some (at_rank (sorted samples) ~p)

type summary = { n : int; median : float; q1 : float; q3 : float }

let summarize samples =
  let n = Array.length samples in
  if n = 0 then None
  else
    let a = sorted samples in
    Some { n; median = at_rank a ~p:50.0; q1 = at_rank a ~p:25.0; q3 = at_rank a ~p:75.0 }

let tail samples ~p =
  let n = Array.length samples in
  if n = 0 || beyond ~n ~p < min_beyond then None else percentile samples ~p

type ratio = { num : float; base : float; value : float }

let ratio ~num ~base = { num; base; value = (if base = 0.0 then 0.0 else num /. base) }
