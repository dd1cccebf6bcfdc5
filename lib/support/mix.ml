(* splitmix64's finalizer on the native int.  The multiplications wrap in
   OCaml's 63-bit arithmetic; masking with [max_int] keeps results
   non-negative so they embed into table slots and JSON safely. *)
let mix x =
  let x = x land max_int in
  let x = (x lxor (x lsr 30)) * 0x4be98134a5976fd3 land max_int in
  let x = (x lxor (x lsr 27)) * 0x3149cf5ccf7c6b27 land max_int in
  let x = x lxor (x lsr 31) in
  if x = 0 then 0x2545f4914f6cdd1d else x

let combine acc x = mix (acc lxor (x + 0x165667b19e3779f9 + (acc lsl 6) + (acc lsr 2)))
