module Procset = Rats_util.Procset

(* Bytes a placement keeps local: for every receiver rank held by a shared
   processor, the overlap between that processor's fixed sender interval
   and the rank's receiver interval. *)
let local_bytes ~sender ~bytes ~p ~q place =
  let total = ref 0. in
  Array.iteri
    (fun j proc ->
      match Procset.rank proc sender with
      | None -> ()
      | Some i ->
          total :=
            !total +. Block.overlap ~amount:bytes ~senders:p ~receivers:q i j)
    place;
  !total

let receiver_ranks ~sender ~receiver ~bytes =
  let p = Procset.size sender and q = Procset.size receiver in
  if p = 0 || q = 0 then invalid_arg "Placement.receiver_ranks: empty set";
  let shared = Procset.inter sender receiver in
  let natural () = Procset.to_array receiver in
  if Procset.is_empty shared || bytes <= 0. then natural ()
  else begin
    (* Candidate (overlap, proc, receiver rank) for every shared processor,
       looking only at the banded non-zero column range of its sender row. *)
    let candidates = ref [] in
    Procset.iter
      (fun proc ->
        match Procset.rank proc sender with
        | None -> assert false
        | Some i ->
            let j_lo = i * q / p and j_hi = Int.min (q - 1) ((((i + 1) * q) - 1) / p) in
            for j = j_lo to j_hi do
              let a = Block.overlap ~amount:bytes ~senders:p ~receivers:q i j in
              if a > 0. then candidates := (a, proc, j) :: !candidates
            done)
      shared;
    let sorted =
      List.sort (fun (a, p1, j1) (b, p2, j2) ->
          (* Largest overlap first; deterministic tie-break. *)
          match Float.compare b a with
          | 0 -> ( match Int.compare p1 p2 with 0 -> Int.compare j1 j2 | c -> c)
          | c -> c)
        !candidates
    in
    let place = Array.make q (-1) in
    (* [placed.(r)]: the [r]-th processor of [receiver] holds a rank. *)
    let placed = Array.make q false in
    List.iter
      (fun (_, proc, j) ->
        let r = Option.get (Procset.rank proc receiver) in
        if place.(j) = -1 && not placed.(r) then begin
          place.(j) <- proc;
          placed.(r) <- true
        end)
      sorted;
    (* Fill the holes with the unplaced processors, ascending. *)
    let rest =
      List.filteri (fun r _ -> not placed.(r)) (Procset.to_list receiver)
    in
    let rest = ref rest in
    Array.iteri
      (fun j v ->
        if v = -1 then
          match !rest with
          | [] -> assert false
          | proc :: tl ->
              place.(j) <- proc;
              rest := tl)
      place;
    (* Greedy claims ranks by per-candidate overlap and can paint itself
       into a corner that keeps fewer bytes local than not permuting at
       all; never return a placement worse than the natural order. *)
    let natural = natural () in
    if
      local_bytes ~sender ~bytes ~p ~q place
      >= local_bytes ~sender ~bytes ~p ~q natural
    then place
    else natural
  end
