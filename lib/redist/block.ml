let interval ~amount ~ranks i =
  if ranks <= 0 then invalid_arg "Block.interval: ranks <= 0";
  if i < 0 || i >= ranks then invalid_arg "Block.interval: rank out of range";
  let r = float_of_int ranks in
  (amount *. float_of_int i /. r, amount *. float_of_int (i + 1) /. r)

(* Overlap length of [i·m/p, (i+1)·m/p) and [j·m/q, (j+1)·m/q), computed in
   integer units of m/(p·q): ranges [i·q, (i+1)·q) and [j·p, (j+1)·p). *)
let overlap_units ~senders:p ~receivers:q i j =
  let lo = Int.max (i * q) (j * p) and hi = Int.min ((i + 1) * q) ((j + 1) * p) in
  Int.max 0 (hi - lo)

let overlap ~amount ~senders ~receivers i j =
  if senders <= 0 || receivers <= 0 then invalid_arg "Block.overlap: bad ranks";
  if i < 0 || i >= senders then invalid_arg "Block.overlap: sender out of range";
  if j < 0 || j >= receivers then invalid_arg "Block.overlap: receiver out of range";
  let units = overlap_units ~senders ~receivers i j in
  amount *. float_of_int units /. float_of_int (senders * receivers)

let iter_comm ~senders ~receivers f =
  if senders <= 0 || receivers <= 0 then invalid_arg "Block.comm_matrix: bad ranks";
  for i = 0 to senders - 1 do
    (* Receiver ranks overlapping sender i lie in [i·q/p, ((i+1)·q − 1)/p]. *)
    let j_lo = i * receivers / senders in
    let j_hi = Int.min (receivers - 1) ((((i + 1) * receivers) - 1) / senders) in
    for j = j_lo to j_hi do
      let units = overlap_units ~senders ~receivers i j in
      if units > 0 then f i j units
    done
  done

let unit_amount ~amount ~senders ~receivers =
  amount /. float_of_int (senders * receivers)

let comm_matrix ~amount ~senders ~receivers =
  let unit = unit_amount ~amount ~senders ~receivers in
  let acc = ref [] in
  iter_comm ~senders ~receivers (fun i j units ->
      acc := (i, j, unit *. float_of_int units) :: !acc);
  List.rev !acc

let row_sums ~senders entries =
  let sums = Array.make senders 0. in
  List.iter (fun (i, _, a) -> sums.(i) <- sums.(i) +. a) entries;
  sums

let col_sums ~receivers entries =
  let sums = Array.make receivers 0. in
  List.iter (fun (_, j, a) -> sums.(j) <- sums.(j) +. a) entries;
  sums
