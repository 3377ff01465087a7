(* Arrival-ordered list; O(n) pops are fine at service queue depths (the
   admission policy bounds n). *)

type 'a entry = { tenant : string; item : 'a }
type 'a t = { mutable entries : 'a entry list (* reversed: newest first *) }

let create () = { entries = [] }

let push t ~tenant item = t.entries <- { tenant; item } :: t.entries

let depth t = List.length t.entries

let tenant_depth t tenant =
  List.length (List.filter (fun e -> e.tenant = tenant) t.entries)

let pop t ~fits =
  let ordered = List.rev t.entries in
  (* Scan in arrival order; once a tenant's job has been skipped, its later
     jobs are locked out of this pop (FIFO within tenant). *)
  let rec go blocked before = function
    | [] -> None
    | e :: rest ->
        if (not (List.mem e.tenant blocked)) && fits e.item then begin
          (* Arrival order without [e] is [rev before @ rest]; stored
             newest-first that is [rev rest @ before]. *)
          t.entries <- List.rev_append rest before;
          Some e.item
        end
        else go (e.tenant :: blocked) (e :: before) rest
  in
  go [] [] ordered

let remove t ~f =
  let ordered = List.rev t.entries in
  let rec go before = function
    | [] -> None
    | e :: rest ->
        if f e.item then begin
          t.entries <- List.rev_append rest before;
          Some e.item
        end
        else go (e :: before) rest
  in
  go [] ordered
