type t = {
  mutable observed_bytes : int;
  mutable high_water : int;
  mutable blacklisted : int;
  mutable blacklisted_high_water : int;
  mutable links : int;
  mutable links_high_water : int;
}

let create () =
  {
    observed_bytes = 0;
    high_water = 0;
    blacklisted = 0;
    blacklisted_high_water = 0;
    links = 0;
    links_high_water = 0;
  }

let add_observed_bytes t delta =
  t.observed_bytes <- t.observed_bytes + delta;
  assert (t.observed_bytes >= 0);
  if t.observed_bytes > t.high_water then t.high_water <- t.observed_bytes

let observed_bytes t = t.observed_bytes
let observed_bytes_high_water t = t.high_water

let set_blacklisted t n =
  t.blacklisted <- n;
  if n > t.blacklisted_high_water then t.blacklisted_high_water <- n

let blacklisted t = t.blacklisted
let blacklisted_high_water t = t.blacklisted_high_water

let set_links t n =
  t.links <- n;
  if n > t.links_high_water then t.links_high_water <- n

let links t = t.links
let links_high_water t = t.links_high_water

let save t emit =
  emit t.observed_bytes;
  emit t.high_water;
  emit t.blacklisted;
  emit t.blacklisted_high_water;
  emit t.links;
  emit t.links_high_water

let load t read =
  let observed_bytes = read () in
  let high_water = read () in
  let blacklisted = read () in
  let blacklisted_high_water = read () in
  let links = read () in
  let links_high_water = read () in
  (* Commit only once the whole stream has parsed. *)
  t.observed_bytes <- observed_bytes;
  t.high_water <- high_water;
  t.blacklisted <- blacklisted;
  t.blacklisted_high_water <- blacklisted_high_water;
  t.links <- links;
  t.links_high_water <- links_high_water
