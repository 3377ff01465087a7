(* D002 fixture: wall-clock read outside lib/obs; the suppressed case
   carries a same-line allow. Parsed by rats_lint's tests, never compiled. *)

let positive () = Unix.gettimeofday ()

let suppressed () = (Unix.gettimeofday ()) (* lint: allow D002 — fixture: coarse display timestamp only *)
