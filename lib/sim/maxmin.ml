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
     per-flow scans of the reference solver: a round costs O(live
     component links + cap classes) instead of O(flows + n_links), and
     every freeze is O(flow degree). The arithmetic per component is kept
     operation-for-operation identical to [solve] run on that component
     alone (min over the same margins, the same subtractions), so the
     rates are a pure function of the alive flow set, however it was
     reached. Against [solve] run on the *whole* flow set the rates agree
     only up to rounding: the reference accumulates globally-minimal
     levels across components, a different float summation (see
     docs/ALGORITHMS.md).

     A component is gathered by a walk over links that also seeds the
     water-fill, and that stops as soon as it has queued every link some
     flow crosses: the component is then every linked flow, and its flow
     and cap-class counts are the solver's running totals, kept by [add]
     and [remove]. In the simulator most refreshes reach every linked
     flow, so most walks stop early.

     The link -> flow adjacency is kept up to date by [add] and [remove]
     (append, swap-remove), so the order of a link's slice, and with it
     the order in which a component's links are queued and its flows
     frozen, depends on the add/remove history, and so does the order of
     the cap classes. That order cannot change a rate: the level is a
     [Float.min] over links and classes (commutative, signed zeros and
     NaN included), each link's subtraction touches only that link, and a
     round's freezes all set the same [cum] before the next level is
     taken. The path-independence property in test_sim is the check. *)

  type t = {
    n_links : int;
    link_cap : float array;
    link_eps : float array;  (* [eps_of] each link's capacity *)
    (* Flow store: one slot per flow, reused through a free stack. *)
    mutable f_links : int array array;  (* [||] after free *)
    mutable f_pos : int array array;
        (* [f_pos.(i).(j)]: where link [f_links.(i).(j)]'s slice holds
           flow [i]; kept for the slot's next flow *)
    mutable f_cap : float array;
    mutable f_class : int array;
        (* index of the slot's cap in [caps]; -1 for an infinite cap or a
           flow crossing no link *)
    mutable f_rate : float array;
    mutable f_alive : bool array;
    mutable high : int;  (* slots ever handed out: ids < high *)
    mutable free : int array;  (* free slots: [free.(0 .. n_free - 1)] *)
    mutable n_free : int;
    mutable n_alive : int;
    mutable n_linked : int;  (* alive flows crossing >= 1 link *)
    (* Links an add or remove crossed since the last refresh, each once. *)
    dirty_flag : bool array;
    dirty : int array;
    mutable n_dirty : int;
    (* link -> alive flows: [adj.(l).(0 .. adj_len.(l) - 1)], one entry
       per listing (a flow that lists a link twice is there twice). *)
    adj : int array array;
    adj_len : int array;
    mutable n_loaded : int;  (* links whose slice is not empty *)
    (* Cap classes: the distinct finite caps of the linked flows ever
       added, in registration order. The table only grows. *)
    mutable caps : float array;
    mutable cap_eps : float array;  (* [eps_of] each class's cap *)
    mutable class_total : int array;  (* alive linked flows per class *)
    mutable n_caps : int;
    (* Walk stamps, one per component: a flow, link or class is reached
       by (and a flow frozen in) the current component when its mark
       equals [stamp]. Never cleared. *)
    mutable flow_mark : int array;
    link_mark : int array;
    mutable class_mark : int array;
    mutable frozen : int array;
    mutable stamp : int;
    (* Per-component solve scratch. *)
    comp_links : int array;
        (* n_links: the walk's queue, then the links with unfrozen users *)
    mutable comp_nl : int;
    mutable comp_nf : int;  (* flows in the component *)
    mutable comp_classes : int array;  (* the component's cap classes *)
    mutable comp_nc : int;
    mutable cap_count : int array;  (* per class: unfrozen flows *)
    rem : float array;  (* per link *)
    users : int array;  (* per link: unfrozen listings *)
    saturated : int array;  (* n_links: the links one round saturated *)
    (* Plain observability counters (an instance lives on one domain),
       flushed to the registry and zeroed by [publish]. *)
    mutable inc_refreshes : int;
    mutable full_refreshes : int;
    mutable component_solves : int;
    mutable walk_stops : int;
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
      link_eps = Array.map eps_of link_cap;
      f_links = Array.make 16 [||];
      f_pos = Array.make 16 [||];
      f_cap = Array.make 16 0.;
      f_class = Array.make 16 (-1);
      f_rate = Array.make 16 0.;
      f_alive = Array.make 16 false;
      high = 0;
      free = Array.make 16 0;
      n_free = 0;
      n_alive = 0;
      n_linked = 0;
      dirty_flag = Array.make n_links false;
      dirty = Array.make n_links 0;
      n_dirty = 0;
      adj = Array.make n_links [||];
      adj_len = Array.make n_links 0;
      n_loaded = 0;
      caps = Array.make 8 0.;
      cap_eps = Array.make 8 0.;
      class_total = Array.make 8 0;
      n_caps = 0;
      flow_mark = Array.make 16 0;
      link_mark = Array.make n_links 0;
      class_mark = Array.make 8 0;
      frozen = Array.make 16 0;
      stamp = 0;
      comp_links = Array.make n_links 0;
      comp_nl = 0;
      comp_nf = 0;
      comp_classes = Array.make 8 0;
      comp_nc = 0;
      cap_count = Array.make 8 0;
      rem = Array.make n_links 0.;
      users = Array.make n_links 0;
      saturated = Array.make n_links 0;
      inc_refreshes = 0;
      full_refreshes = 0;
      component_solves = 0;
      walk_stops = 0;
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
    t.f_pos <- grow t.f_pos len [||];
    t.f_cap <- grow t.f_cap len 0.;
    t.f_class <- grow t.f_class len (-1);
    t.f_rate <- grow t.f_rate len 0.;
    t.f_alive <- grow t.f_alive len false;
    t.free <- grow t.free len 0;
    t.flow_mark <- grow t.flow_mark len 0;
    t.frozen <- grow t.frozen len 0

  (* The class of flow [i]'s (finite) cap; a cap not seen before opens a
     class. Flows are passed by slot, never by their cap: a float argument
     would be boxed. *)
  let cap_class t i =
    let cap = t.f_cap.(i) and n = t.n_caps in
    let k = ref 0 in
    while !k < n && t.caps.(!k) <> cap do
      incr k
    done;
    if !k = n then begin
      t.caps <- grow t.caps (n + 1) 0.;
      t.cap_eps <- grow t.cap_eps (n + 1) 0.;
      t.class_total <- grow t.class_total (n + 1) 0;
      t.class_mark <- grow t.class_mark (n + 1) 0;
      t.comp_classes <- grow t.comp_classes (n + 1) 0;
      t.cap_count <- grow t.cap_count (n + 1) 0;
      t.caps.(n) <- cap;
      t.cap_eps.(n) <- eps_of cap;
      t.n_caps <- n + 1
    end;
    !k

  let mark_link_dirty t l =
    if not t.dirty_flag.(l) then begin
      t.dirty_flag.(l) <- true;
      t.dirty.(t.n_dirty) <- l;
      t.n_dirty <- t.n_dirty + 1
    end

  let add t ~links ~rate_cap =
    if rate_cap <= 0. then invalid_arg "Maxmin.Incremental.add: non-positive cap";
    for j = 0 to Array.length links - 1 do
      let l = links.(j) in
      if l < 0 || l >= t.n_links then invalid_arg "Maxmin.Incremental.add: bad link";
      if t.link_cap.(l) <= 0. then
        invalid_arg "Maxmin.Incremental.add: non-positive capacity"
    done;
    let i =
      if t.n_free > 0 then begin
        t.n_free <- t.n_free - 1;
        t.free.(t.n_free)
      end
      else begin
        let i = t.high in
        grow_slots t (i + 1);
        t.high <- i + 1;
        i
      end
    in
    let degree = Array.length links in
    t.f_links.(i) <- links;
    t.f_cap.(i) <- rate_cap;
    t.f_class.(i) <- -1;
    t.f_alive.(i) <- true;
    t.n_alive <- t.n_alive + 1;
    if degree = 0 then
      (* No link interaction: the flow's fair rate is its own cap. *)
      t.f_rate.(i) <- rate_cap
    else begin
      t.f_rate.(i) <- 0.;
      t.n_linked <- t.n_linked + 1;
      if rate_cap < infinity then begin
        let k = cap_class t i in
        t.f_class.(i) <- k;
        t.class_total.(k) <- t.class_total.(k) + 1
      end;
      if Array.length t.f_pos.(i) < degree then t.f_pos.(i) <- Array.make degree 0;
      let pos = t.f_pos.(i) in
      for j = 0 to degree - 1 do
        let l = links.(j) in
        let n = t.adj_len.(l) in
        if n = 0 then t.n_loaded <- t.n_loaded + 1;
        if n = Array.length t.adj.(l) then t.adj.(l) <- grow t.adj.(l) (n + 1) 0;
        t.adj.(l).(n) <- i;
        t.adj_len.(l) <- n + 1;
        pos.(j) <- n;
        mark_link_dirty t l
      done
    end;
    i

  (* Take flow [i]'s [j]-th listing out of its link's slice: the slice's
     last entry moves into the hole, and the listing it belongs to (found
     by link and old position, so a flow listing the link twice is told
     apart) learns its new place. *)
  let unlink t i j =
    let l = t.f_links.(i).(j) in
    let p = t.f_pos.(i).(j) in
    let last = t.adj_len.(l) - 1 in
    let slice = t.adj.(l) in
    let m = slice.(last) in
    slice.(p) <- m;
    t.adj_len.(l) <- last;
    if last = 0 then t.n_loaded <- t.n_loaded - 1;
    if p <> last then begin
      let m_links = t.f_links.(m) and m_pos = t.f_pos.(m) in
      let k = ref 0 in
      while not (m_links.(!k) = l && m_pos.(!k) = last) do
        incr k
      done;
      m_pos.(!k) <- p
    end

  let remove t i =
    if i < 0 || i >= t.high || not t.f_alive.(i) then
      invalid_arg "Maxmin.Incremental.remove: dead handle";
    t.f_alive.(i) <- false;
    t.n_alive <- t.n_alive - 1;
    let links = t.f_links.(i) in
    if Array.length links > 0 then begin
      t.n_linked <- t.n_linked - 1;
      let k = t.f_class.(i) in
      if k >= 0 then t.class_total.(k) <- t.class_total.(k) - 1;
      for j = 0 to Array.length links - 1 do
        unlink t i j;
        mark_link_dirty t links.(j)
      done
    end;
    t.f_links.(i) <- [||];
    t.free.(t.n_free) <- i;
    t.n_free <- t.n_free + 1

  let read_rates t handles rates n =
    for k = 0 to n - 1 do
      let i = handles.(k) in
      if i < 0 || i >= t.high then
        invalid_arg "Maxmin.Incremental.read_rates: bad handle";
      rates.(k) <- t.f_rate.(i)
    done

  (* --- one component ----------------------------------------------------- *)

  (* Walk the component of link [l0], which holds a flow, breadth-first
     over links: processing a queued link scans its slice, stamps each
     flow seen for the first time and queues that flow's unseen links into
     [comp_links]. Reaching a link seeds the water-fill: every flow on it
     is in the component and unfrozen, so its [users] is its slice length
     (a flow listing it twice is there twice) and its [rem] its capacity.

     Once the queue holds all [n_loaded] links, every linked flow is in
     the component, and the walk stops: the flow count is [n_linked] and
     the class counts are the running [class_total]s, whatever the walk
     had stamped so far. A walk that runs out of links counts the stamped
     flows and their classes itself. *)
  let collect_component t l0 =
    t.stamp <- t.stamp + 1;
    let stamp = t.stamp and loaded = t.n_loaded in
    t.link_mark.(l0) <- stamp;
    t.comp_links.(0) <- l0;
    t.users.(l0) <- t.adj_len.(l0);
    t.rem.(l0) <- t.link_cap.(l0);
    let nl = ref 1 and nf = ref 0 and nc = ref 0 and head = ref 0 in
    while !head < !nl && !nl < loaded do
      let l = t.comp_links.(!head) in
      incr head;
      let slice = t.adj.(l) and len = t.adj_len.(l) in
      let a = ref 0 in
      while !a < len && !nl < loaded do
        let i = slice.(!a) in
        incr a;
        if t.flow_mark.(i) <> stamp then begin
          t.flow_mark.(i) <- stamp;
          incr nf;
          let k = t.f_class.(i) in
          if k >= 0 then begin
            if t.class_mark.(k) <> stamp then begin
              t.class_mark.(k) <- stamp;
              t.cap_count.(k) <- 0;
              t.comp_classes.(!nc) <- k;
              incr nc
            end;
            t.cap_count.(k) <- t.cap_count.(k) + 1
          end;
          let links = t.f_links.(i) in
          for j = 0 to Array.length links - 1 do
            let l' = links.(j) in
            if t.link_mark.(l') <> stamp then begin
              t.link_mark.(l') <- stamp;
              t.comp_links.(!nl) <- l';
              incr nl;
              t.users.(l') <- t.adj_len.(l');
              t.rem.(l') <- t.link_cap.(l')
            end
          done
        end
      done
    done;
    t.comp_nl <- !nl;
    if !nl = loaded then begin
      t.walk_stops <- t.walk_stops + 1;
      t.comp_nf <- t.n_linked;
      for k = 0 to t.n_caps - 1 do
        t.comp_classes.(k) <- k;
        t.cap_count.(k) <- t.class_total.(k)
      done;
      t.comp_nc <- t.n_caps
    end
    else begin
      t.comp_nf <- !nf;
      t.comp_nc <- !nc
    end

  (* Freeze flow [i]; the caller sets its rate to the current level. *)
  let freeze t i =
    t.frozen.(i) <- t.stamp;
    let links = t.f_links.(i) in
    for j = 0 to Array.length links - 1 do
      let l = links.(j) in
      t.users.(l) <- t.users.(l) - 1
    done;
    let k = t.f_class.(i) in
    if k >= 0 then t.cap_count.(k) <- t.cap_count.(k) - 1

  (* Water-fill the collected component. Arithmetic is identical to [solve]
     run on the component's flows alone: every unfrozen flow has
     accumulated exactly [cum], so the reference's per-flow cap margin
     [rate_cap -. rate] is [cap -. cum] for its class, and its per-flow
     at-cap test is the class's; rates/remaining-capacity updates perform
     the same operations. A link leaves [comp_links] once no unfrozen
     flow uses it: it can no longer bound the level or saturate. *)
  let solve_component t =
    t.component_solves <- t.component_solves + 1;
    let stamp = t.stamp and nc = t.comp_nc in
    let nl = ref t.comp_nl and active = ref t.comp_nf and cum = ref 0. in
    while !active > 0 do
      t.rounds <- t.rounds + 1;
      (* The level is a min over live links and classes; rounding is
         monotonic, so the classes' min is [smallest live cap -. cum]. *)
      let level = ref infinity and live = ref 0 in
      for m = 0 to !nl - 1 do
        let l = t.comp_links.(m) in
        let u = t.users.(l) in
        if u > 0 then begin
          level := Float.min !level (t.rem.(l) /. float_of_int u);
          t.comp_links.(!live) <- l;
          incr live
        end
      done;
      nl := !live;
      for c = 0 to nc - 1 do
        let k = t.comp_classes.(c) in
        if t.cap_count.(k) > 0 then level := Float.min !level (t.caps.(k) -. !cum)
      done;
      if !level = infinity then
        invalid_arg "Maxmin.Incremental: unbounded flow";
      let level = !level in
      cum := !cum +. level;
      let n_sat = ref 0 in
      for m = 0 to !nl - 1 do
        let l = t.comp_links.(m) in
        let r = t.rem.(l) -. (level *. float_of_int t.users.(l)) in
        t.rem.(l) <- r;
        if r <= t.link_eps.(l) then begin
          t.saturated.(!n_sat) <- l;
          incr n_sat
        end
      done;
      (* Freeze flows on saturated links... *)
      for s = 0 to !n_sat - 1 do
        let l = t.saturated.(s) in
        if t.users.(l) > 0 then begin
          let slice = t.adj.(l) in
          for a = 0 to t.adj_len.(l) - 1 do
            let i = slice.(a) in
            if t.frozen.(i) <> stamp then begin
              t.f_rate.(i) <- !cum;
              freeze t i;
              decr active
            end
          done
        end
      done;
      (* ... and the members of each class that reached its bound, found
         on the live links' slices (a class rarely binds before a link). *)
      for c = 0 to nc - 1 do
        let k = t.comp_classes.(c) in
        if t.cap_count.(k) > 0 && t.caps.(k) -. !cum <= t.cap_eps.(k) then
          for m = 0 to !nl - 1 do
            let l = t.comp_links.(m) in
            if t.users.(l) > 0 then begin
              let slice = t.adj.(l) in
              for a = 0 to t.adj_len.(l) - 1 do
                let i = slice.(a) in
                if t.frozen.(i) <> stamp && t.f_class.(i) = k then begin
                  t.f_rate.(i) <- !cum;
                  freeze t i;
                  decr active
                end
              done
            end
          done
      done
    done

  (* --- refresh ----------------------------------------------------------- *)

  (* Re-solve the component of each changed link that holds a flow, once:
     all flows of a link share its component, so a link whose first flow
     is stamped at this refresh was solved with an earlier link's
     component. Components no changed link reaches keep their rates.
     Changed links are walked newest first. Once the solved flows are
     every linked flow, the refresh ends and only clears the remaining
     flags: a walk that stopped early left flows unstamped, and solving
     them again could only reproduce their rates. *)
  let refresh t =
    if t.n_dirty > 0 then begin
      let first = t.stamp + 1 in
      let solved = ref 0 and d = ref (t.n_dirty - 1) in
      while !d >= 0 do
        let l = t.dirty.(!d) in
        t.dirty_flag.(l) <- false;
        decr d;
        if t.adj_len.(l) > 0 && t.flow_mark.(t.adj.(l).(0)) < first then begin
          collect_component t l;
          solve_component t;
          solved := !solved + t.comp_nf;
          if !solved = t.n_linked then begin
            while !d >= 0 do
              t.dirty_flag.(t.dirty.(!d)) <- false;
              decr d
            done
          end
        end
      done;
      t.n_dirty <- 0;
      let solved = !solved in
      if solved = t.n_linked then t.full_refreshes <- t.full_refreshes + 1
      else t.inc_refreshes <- t.inc_refreshes + 1;
      t.dirty_flows <- t.dirty_flows + solved;
      t.skipped_flows <- t.skipped_flows + (t.n_linked - solved);
      if solved > t.dirty_set_max then t.dirty_set_max <- solved
    end

  let publish t =
    let flush counter n = if n > 0 then Metrics.add counter n in
    flush Instr.maxmin_inc_refreshes t.inc_refreshes;
    flush Instr.maxmin_full_refreshes t.full_refreshes;
    flush Instr.maxmin_component_solves t.component_solves;
    flush Instr.maxmin_walk_stops t.walk_stops;
    flush Instr.maxmin_inc_iterations t.rounds;
    flush Instr.maxmin_dirty_flows t.dirty_flows;
    flush Instr.maxmin_skipped_flows t.skipped_flows;
    t.inc_refreshes <- 0;
    t.full_refreshes <- 0;
    t.component_solves <- 0;
    t.walk_stops <- 0;
    t.rounds <- 0;
    t.dirty_flows <- 0;
    t.skipped_flows <- 0;
    Metrics.observe_max Instr.maxmin_dirty_set_max (float_of_int t.dirty_set_max)
end
