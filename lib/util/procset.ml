type t = int array

let empty = [||]

let of_array a =
  let a = Array.copy a in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then [||]
  else begin
    if a.(0) < 0 then invalid_arg "Procset.of_array: negative index";
    (* Deduplicate in place. *)
    let w = ref 1 in
    for i = 1 to n - 1 do
      if a.(i) <> a.(!w - 1) then begin
        a.(!w) <- a.(i);
        incr w
      end
    done;
    Array.sub a 0 !w
  end

let of_list l = of_array (Array.of_list l)

let range lo n =
  if n < 0 || lo < 0 then invalid_arg "Procset.range";
  Array.init n (fun i -> lo + i)

let size = Array.length
let is_empty s = Array.length s = 0

let find_index p s =
  let rec go lo hi =
    if lo >= hi then None
    else
      let mid = (lo + hi) / 2 in
      if s.(mid) = p then Some mid
      else if s.(mid) < p then go (mid + 1) hi
      else go lo mid
  in
  go 0 (Array.length s)

let mem p s = find_index p s <> None

let nth s r =
  if r < 0 || r >= Array.length s then invalid_arg "Procset.nth";
  s.(r)

let rank p s = find_index p s

let equal a b = a = b
let compare = compare

let subset a b = Array.for_all (fun p -> mem p b) a

let inter a b = Array.to_list a |> List.filter (fun p -> mem p b) |> Array.of_list

let union a b =
  let out = Array.make (Array.length a + Array.length b) 0 in
  let i = ref 0 and j = ref 0 and w = ref 0 in
  let push v = out.(!w) <- v; incr w in
  while !i < Array.length a && !j < Array.length b do
    let x = a.(!i) and y = b.(!j) in
    if x < y then (push x; incr i)
    else if y < x then (push y; incr j)
    else (push x; incr i; incr j)
  done;
  while !i < Array.length a do push a.(!i); incr i done;
  while !j < Array.length b do push b.(!j); incr j done;
  Array.sub out 0 !w

let diff a b = Array.to_list a |> List.filter (fun p -> not (mem p b)) |> Array.of_list

let fold f s init = Array.fold_left (fun acc p -> f p acc) init s
let iter f s = Array.iter f s
let to_list = Array.to_list
let to_array = Array.copy

let first_n s n =
  if n < 0 || n > Array.length s then invalid_arg "Procset.first_n";
  Array.sub s 0 n

let pp ppf s =
  Format.fprintf ppf "{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
       Format.pp_print_int)
    (to_list s)
