module Metrics = Rats_obs.Metrics
module Instr = Rats_obs.Instr

type flow = { links : int array; rate_cap : float }

(* A frozen-rate margin below [eps_of cap] counts as saturated; shared by the
   reference solver and the incremental one so both freeze identically. *)
let eps_of cap = 1e-9 *. Float.max 1. cap

let solve ~n_links ~capacity flows =
  let n = Array.length flows in
  let rates = Array.make n 0. in
  let frozen = Array.make n false in
  let rem = Array.init n_links capacity in
  let users = Array.make n_links 0 in
  (* Validate and set up link user counts. *)
  Array.iteri
    (fun i f ->
      if f.rate_cap <= 0. then invalid_arg "Maxmin.solve: non-positive cap";
      Array.iter
        (fun l ->
          if l < 0 || l >= n_links then invalid_arg "Maxmin.solve: bad link";
          if rem.(l) <= 0. then invalid_arg "Maxmin.solve: non-positive capacity";
          users.(l) <- users.(l) + 1)
        f.links;
      (* Unconstrained flows saturate immediately. *)
      if Array.length f.links = 0 && f.rate_cap = infinity then begin
        rates.(i) <- infinity;
        frozen.(i) <- true
      end)
    flows;
  let active =
    ref (Array.fold_left (fun acc b -> if b then acc else acc + 1) 0 frozen)
  in
  let rounds = ref 0 in
  while !active > 0 do
    incr rounds;
    (* Water level increment: the smallest margin before a link saturates or
       a flow reaches its cap. *)
    let level = ref infinity in
    for l = 0 to n_links - 1 do
      if users.(l) > 0 then
        level := Float.min !level (rem.(l) /. float_of_int users.(l))
    done;
    for i = 0 to n - 1 do
      if not frozen.(i) then
        level := Float.min !level (flows.(i).rate_cap -. rates.(i))
    done;
    if !level = infinity then
      (* Only capless, linkless... cannot happen: such flows were frozen. *)
      invalid_arg "Maxmin.solve: unbounded flow";
    let level = !level in
    for i = 0 to n - 1 do
      if not frozen.(i) then rates.(i) <- rates.(i) +. level
    done;
    for l = 0 to n_links - 1 do
      if users.(l) > 0 then rem.(l) <- rem.(l) -. (level *. float_of_int users.(l))
    done;
    (* Freeze flows on saturated links or at their cap. *)
    for i = 0 to n - 1 do
      if not frozen.(i) then begin
        let f = flows.(i) in
        let saturated_link =
          Array.exists (fun l -> rem.(l) <= eps_of (capacity l)) f.links
        in
        let at_cap =
          f.rate_cap < infinity
          && f.rate_cap -. rates.(i) <= eps_of f.rate_cap
        in
        if saturated_link || at_cap then begin
          frozen.(i) <- true;
          decr active;
          Array.iter (fun l -> users.(l) <- users.(l) - 1) f.links
        end
      end
    done
  done;
  Metrics.incr Instr.maxmin_solves;
  if !rounds > 0 then Metrics.add Instr.maxmin_iterations !rounds;
  rates

let utilization ~n_links flows ~rates l =
  if l < 0 || l >= n_links then invalid_arg "Maxmin.utilization: bad link";
  let acc = ref 0. in
  Array.iteri
    (fun i f -> if Array.exists (fun x -> x = l) f.links then acc := !acc +. rates.(i))
    flows;
  !acc

module Incremental = struct
  type handle = int

  (* The rate vector of a flow set decomposes over the connected components
     of the flow-link graph: a component's rates depend only on its own
     flows and links. The solver exploits that twice. Across refreshes, a
     component untouched since the last refresh keeps its rates verbatim —
     only components reachable from an added or removed flow (the dirty
     set) are re-solved. Within a component, the water-fill runs on the
     observation that every unfrozen flow carries the same accumulated
     rate, so one cumulative level plus per-cap-class counts replaces the
     per-flow scans of the reference solver: a round costs O(component
     links) instead of O(flows + n_links), and every freeze is O(flow
     degree). The arithmetic per component is kept operation-for-operation
     identical to [solve] run on that component alone (min over the same
     margins, the same subtractions in the same order), so the rates are a
     pure function of the alive flow set, however it was reached. Against
     [solve] run on the *whole* flow set the rates agree only up to
     rounding: the reference accumulates globally-minimal levels across
     components, a different float summation (see docs/ALGORITHMS.md). *)

  type t = {
    n_links : int;
    link_cap : float array;
    (* Flow store: one slot per flow, reused through a free list. *)
    mutable f_links : int array array;  (* [||] after free *)
    mutable f_cap : float array;
    mutable f_rate : float array;
    mutable f_alive : bool array;
    mutable high : int;  (* slots ever handed out: ids < high *)
    mutable free : int list;
    mutable n_alive : int;
    mutable n_linked : int;  (* alive flows crossing >= 1 link *)
    (* Dirty links accumulated since the last refresh. *)
    dirty_flag : bool array;
    mutable dirty_links : int list;
    (* link -> alive flows adjacency, rebuilt per refresh (counting sort). *)
    adj_off : int array;  (* n_links + 1 *)
    mutable adj : int array;
    (* Traversal stamps (per flow slot / per link), valid when = stamp. *)
    mutable flow_mark : int array;
    link_mark : int array;
    mutable stamp : int;
    (* Per-component solve scratch. *)
    rem : float array;  (* per link *)
    users : int array;  (* per link *)
    mutable frozen : int array;  (* per flow slot, stamp-valid *)
    mutable class_of : int array;  (* per flow slot, cap-class index *)
    mutable comp_flows : int array;
    mutable comp_links : int array;
    mutable caps : float array;  (* distinct finite caps, ascending *)
    mutable cap_count : int array;  (* unfrozen flows per class *)
    mutable cap_members : int list array;
    (* Plain observability counters (an instance lives on one domain),
       flushed to the registry and zeroed by [publish]. *)
    mutable inc_refreshes : int;
    mutable full_refreshes : int;
    mutable component_solves : int;
    mutable rounds : int;
    mutable dirty_flows : int;
    mutable skipped_flows : int;
    mutable dirty_set_max : int;
  }

  let create ~n_links ~capacity =
    if n_links < 0 then invalid_arg "Maxmin.Incremental.create: n_links < 0";
    let link_cap = Array.init n_links capacity in
    {
      n_links;
      link_cap;
      f_links = Array.make 16 [||];
      f_cap = Array.make 16 0.;
      f_rate = Array.make 16 0.;
      f_alive = Array.make 16 false;
      high = 0;
      free = [];
      n_alive = 0;
      n_linked = 0;
      dirty_flag = Array.make n_links false;
      dirty_links = [];
      adj_off = Array.make (n_links + 1) 0;
      adj = Array.make 16 0;
      flow_mark = Array.make 16 0;
      link_mark = Array.make n_links 0;
      stamp = 0;
      rem = Array.make n_links 0.;
      users = Array.make n_links 0;
      frozen = Array.make 16 0;
      class_of = Array.make 16 (-1);
      comp_flows = Array.make 16 0;
      comp_links = Array.make 16 0;
      caps = Array.make 8 0.;
      cap_count = Array.make 8 0;
      cap_members = Array.make 8 [];
      inc_refreshes = 0;
      full_refreshes = 0;
      component_solves = 0;
      rounds = 0;
      dirty_flows = 0;
      skipped_flows = 0;
      dirty_set_max = 0;
    }

  let n_flows t = t.n_alive

  (* [a] itself when it holds [len] elements, else a copy at least twice as
     long, padded with [init]. *)
  let grow a len init =
    let n = Array.length a in
    if len <= n then a
    else begin
      let b = Array.make (max len (2 * n)) init in
      Array.blit a 0 b 0 n;
      b
    end

  let grow_slots t len =
    t.f_links <- grow t.f_links len [||];
    t.f_cap <- grow t.f_cap len 0.;
    t.f_rate <- grow t.f_rate len 0.;
    t.f_alive <- grow t.f_alive len false;
    t.flow_mark <- grow t.flow_mark len 0;
    t.frozen <- grow t.frozen len 0;
    t.class_of <- grow t.class_of len (-1)

  let mark_link_dirty t l =
    if not t.dirty_flag.(l) then begin
      t.dirty_flag.(l) <- true;
      t.dirty_links <- l :: t.dirty_links
    end

  let add t ~links ~rate_cap =
    if rate_cap <= 0. then invalid_arg "Maxmin.Incremental.add: non-positive cap";
    Array.iter
      (fun l ->
        if l < 0 || l >= t.n_links then invalid_arg "Maxmin.Incremental.add: bad link";
        if t.link_cap.(l) <= 0. then
          invalid_arg "Maxmin.Incremental.add: non-positive capacity")
      links;
    let i =
      match t.free with
      | i :: rest ->
          t.free <- rest;
          i
      | [] ->
          let i = t.high in
          grow_slots t (i + 1);
          t.high <- i + 1;
          i
    in
    t.f_links.(i) <- links;
    t.f_cap.(i) <- rate_cap;
    t.f_alive.(i) <- true;
    t.n_alive <- t.n_alive + 1;
    if Array.length links = 0 then
      (* No link interaction: the flow's fair rate is its own cap. *)
      t.f_rate.(i) <- rate_cap
    else begin
      t.f_rate.(i) <- 0.;
      t.n_linked <- t.n_linked + 1;
      Array.iter (fun l -> mark_link_dirty t l) links
    end;
    i

  let remove t i =
    if i < 0 || i >= t.high || not t.f_alive.(i) then
      invalid_arg "Maxmin.Incremental.remove: dead handle";
    t.f_alive.(i) <- false;
    t.n_alive <- t.n_alive - 1;
    if Array.length t.f_links.(i) > 0 then begin
      t.n_linked <- t.n_linked - 1;
      Array.iter (fun l -> mark_link_dirty t l) t.f_links.(i)
    end;
    t.f_links.(i) <- [||];
    t.free <- i :: t.free

  let rate t i =
    if i < 0 || i >= t.high then invalid_arg "Maxmin.Incremental.rate: bad handle";
    t.f_rate.(i)

  (* Rebuild the link -> alive-flow adjacency in two counting passes. *)
  let rebuild_adjacency t =
    let off = t.adj_off in
    Array.fill off 0 (t.n_links + 1) 0;
    let total = ref 0 in
    for i = 0 to t.high - 1 do
      if t.f_alive.(i) then begin
        let links = t.f_links.(i) in
        total := !total + Array.length links;
        Array.iter (fun l -> off.(l + 1) <- off.(l + 1) + 1) links
      end
    done;
    for l = 1 to t.n_links do
      off.(l) <- off.(l) + off.(l - 1)
    done;
    t.adj <- grow t.adj !total 0;
    (* Ascending flow ids within each link's slice. *)
    let cursor = Array.copy off in
    for i = 0 to t.high - 1 do
      if t.f_alive.(i) then
        Array.iter
          (fun l ->
            t.adj.(cursor.(l)) <- i;
            cursor.(l) <- cursor.(l) + 1)
          t.f_links.(i)
    done

  (* --- one component ----------------------------------------------------- *)

  (* Collect the connected component containing flow [seed] into
     [comp_flows]/[comp_links] (stamp-marking visited flows and links) and
     return (n_flows, n_links) of the component. *)
  let collect_component t seed =
    let nf = ref 0 and nl = ref 0 in
    let push_flow i =
      t.flow_mark.(i) <- t.stamp;
      t.comp_flows <- grow t.comp_flows (!nf + 1) 0;
      t.comp_flows.(!nf) <- i;
      incr nf
    in
    let push_link l =
      t.link_mark.(l) <- t.stamp;
      t.comp_links <- grow t.comp_links (!nl + 1) 0;
      t.comp_links.(!nl) <- l;
      incr nl
    in
    push_flow seed;
    let head = ref 0 in
    while !head < !nf do
      let i = t.comp_flows.(!head) in
      incr head;
      Array.iter
        (fun l ->
          if t.link_mark.(l) <> t.stamp then begin
            push_link l;
            for k = t.adj_off.(l) to t.adj_off.(l + 1) - 1 do
              let j = t.adj.(k) in
              if t.flow_mark.(j) <> t.stamp then push_flow j
            done
          end)
        t.f_links.(i);
    done;
    (!nf, !nl)

  (* Water-fill one component. Arithmetic is identical to [solve] run on the
     component's flows alone: every unfrozen flow has accumulated exactly
     [cum], so the reference's per-flow margin min equals
     [smallest unfrozen cap -. cum] (float subtraction is monotonic), and
     rates/remaining-capacity updates perform the same operations in the
     same order. *)
  let solve_component t nf nl =
    t.component_solves <- t.component_solves + 1;
    (* Reset per-link state for the component's links. *)
    for k = 0 to nl - 1 do
      let l = t.comp_links.(k) in
      t.rem.(l) <- t.link_cap.(l);
      t.users.(l) <- 0
    done;
    (* Distinct finite caps, kept ascending (components see few distinct
       caps: routes of equal length share one). *)
    let ncaps = ref 0 in
    let class_index cap =
      let rec find k = if k < !ncaps && t.caps.(k) < cap then find (k + 1) else k in
      let k = find 0 in
      if k < !ncaps && t.caps.(k) = cap then k
      else begin
        t.caps <- grow t.caps (!ncaps + 1) 0.;
        t.cap_count <- grow t.cap_count (!ncaps + 1) 0;
        t.cap_members <- grow t.cap_members (!ncaps + 1) [];
        for j = !ncaps downto k + 1 do
          t.caps.(j) <- t.caps.(j - 1);
          t.cap_count.(j) <- t.cap_count.(j - 1);
          t.cap_members.(j) <- t.cap_members.(j - 1)
        done;
        t.caps.(k) <- cap;
        t.cap_count.(k) <- 0;
        t.cap_members.(k) <- [];
        incr ncaps;
        (* Shift the class index of already-registered flows. *)
        if k < !ncaps - 1 then
          for m = 0 to nf - 1 do
            let i = t.comp_flows.(m) in
            if t.class_of.(i) >= k && t.frozen.(i) <> t.stamp then
              t.class_of.(i) <- t.class_of.(i) + 1
          done;
        k
      end
    in
    for m = 0 to nf - 1 do
      let i = t.comp_flows.(m) in
      t.frozen.(i) <- 0;
      (* not frozen at this stamp *)
      Array.iter (fun l -> t.users.(l) <- t.users.(l) + 1) t.f_links.(i);
      if t.f_cap.(i) < infinity then begin
        let k = class_index t.f_cap.(i) in
        t.class_of.(i) <- k;
        t.cap_count.(k) <- t.cap_count.(k) + 1;
        t.cap_members.(k) <- i :: t.cap_members.(k)
      end
      else t.class_of.(i) <- -1
    done;
    let active = ref nf in
    let cum = ref 0. in
    let cap_ptr = ref 0 in
    let freeze i =
      t.frozen.(i) <- t.stamp;
      decr active;
      t.f_rate.(i) <- !cum;
      Array.iter (fun l -> t.users.(l) <- t.users.(l) - 1) t.f_links.(i);
      let k = t.class_of.(i) in
      if k >= 0 then t.cap_count.(k) <- t.cap_count.(k) - 1
    in
    while !active > 0 do
      t.rounds <- t.rounds + 1;
      let level = ref infinity in
      for k = 0 to nl - 1 do
        let l = t.comp_links.(k) in
        if t.users.(l) > 0 then
          level := Float.min !level (t.rem.(l) /. float_of_int t.users.(l))
      done;
      while !cap_ptr < !ncaps && t.cap_count.(!cap_ptr) = 0 do
        incr cap_ptr
      done;
      if !cap_ptr < !ncaps then
        level := Float.min !level (t.caps.(!cap_ptr) -. !cum);
      if !level = infinity then
        invalid_arg "Maxmin.Incremental: unbounded flow";
      let level = !level in
      cum := !cum +. level;
      for k = 0 to nl - 1 do
        let l = t.comp_links.(k) in
        if t.users.(l) > 0 then
          t.rem.(l) <- t.rem.(l) -. (level *. float_of_int t.users.(l))
      done;
      (* Freeze flows on saturated links... *)
      for k = 0 to nl - 1 do
        let l = t.comp_links.(k) in
        if t.users.(l) > 0 && t.rem.(l) <= eps_of t.link_cap.(l) then
          for a = t.adj_off.(l) to t.adj_off.(l + 1) - 1 do
            let i = t.adj.(a) in
            if t.frozen.(i) <> t.stamp then freeze i
          done
      done;
      (* ... and whole cap classes that reached their bound. *)
      let continue = ref true in
      while !continue do
        while !cap_ptr < !ncaps && t.cap_count.(!cap_ptr) = 0 do
          incr cap_ptr
        done;
        if
          !cap_ptr < !ncaps
          && t.caps.(!cap_ptr) -. !cum <= eps_of t.caps.(!cap_ptr)
        then
          List.iter
            (fun i -> if t.frozen.(i) <> t.stamp then freeze i)
            t.cap_members.(!cap_ptr)
        else continue := false
      done
    done;
    (* Release member lists so dead flows aren't retained. *)
    for k = 0 to !ncaps - 1 do
      t.cap_members.(k) <- []
    done

  (* --- refresh ----------------------------------------------------------- *)

  (* Re-solve the component of each alive flow on a changed link, once:
     [collect_component] stamps every flow it gathers, so a flow already
     stamped at this refresh was solved with an earlier link's component.
     Components no changed link reaches keep their rates. *)
  let refresh t =
    match t.dirty_links with
    | [] -> ()
    | dirty ->
        t.dirty_links <- [];
        List.iter (fun l -> t.dirty_flag.(l) <- false) dirty;
        rebuild_adjacency t;
        t.stamp <- t.stamp + 1;
        let solved = ref 0 in
        List.iter
          (fun l ->
            for k = t.adj_off.(l) to t.adj_off.(l + 1) - 1 do
              let i = t.adj.(k) in
              if t.flow_mark.(i) <> t.stamp then begin
                let nf, nl = collect_component t i in
                solve_component t nf nl;
                solved := !solved + nf
              end
            done)
          dirty;
        let solved = !solved in
        if solved = t.n_linked then t.full_refreshes <- t.full_refreshes + 1
        else t.inc_refreshes <- t.inc_refreshes + 1;
        t.dirty_flows <- t.dirty_flows + solved;
        t.skipped_flows <- t.skipped_flows + (t.n_linked - solved);
        if solved > t.dirty_set_max then t.dirty_set_max <- solved

  let publish t =
    let flush counter n = if n > 0 then Metrics.add counter n in
    flush Instr.maxmin_inc_refreshes t.inc_refreshes;
    flush Instr.maxmin_full_refreshes t.full_refreshes;
    flush Instr.maxmin_component_solves t.component_solves;
    flush Instr.maxmin_inc_iterations t.rounds;
    flush Instr.maxmin_dirty_flows t.dirty_flows;
    flush Instr.maxmin_skipped_flows t.skipped_flows;
    t.inc_refreshes <- 0;
    t.full_refreshes <- 0;
    t.component_solves <- 0;
    t.rounds <- 0;
    t.dirty_flows <- 0;
    t.skipped_flows <- 0;
    Metrics.observe_max Instr.maxmin_dirty_set_max (float_of_int t.dirty_set_max)
end
