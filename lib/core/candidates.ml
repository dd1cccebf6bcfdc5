module Rankset = Wb_support.Rankset

type t = Rankset.t

let length = Rankset.cardinal
let nth = Rankset.nth
let mem = Rankset.mem
let iter = Rankset.iter
let fold = Rankset.fold
let to_list = Rankset.to_list

let of_list ~n vs =
  let s = Rankset.create n in
  List.iter (Rankset.add s) vs;
  s

let of_rankset s = s
