type t = int

let equal = Int.equal
let compare = Int.compare
let hash = Hashtbl.hash
let none = -1
let is_none a = a < 0
let is_backward ~src ~tgt = tgt <= src
let pp ppf a = Format.fprintf ppf "0x%x" a
let to_string a = Printf.sprintf "0x%x" a

module Set = Set.Make (Int)
module Map = Map.Make (Int)

module Table = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)
