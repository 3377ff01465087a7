(** One simulated tenant: an arrival process, an application mix, a
    share-size distribution and a scheduling strategy.

    The trace compiler ({!Trace.compile}) gives each tenant its own RNG
    stream (derived from the profile seed and the tenant's position), so
    tenants are statistically independent and adding one never perturbs
    the others' jobs. *)

type share =
  | Fixed of int  (** Every job requests exactly this many processors. *)
  | Uniform of { lo : int; hi : int }
      (** Uniform integer draw in [\[lo, hi\]] (inclusive) per job. *)

type t = {
  name : string;
  arrival : Arrival.t;
  mix : App.mix;
  samples : int;
      (** Suite applications draw their sample index uniformly in
          [\[0, samples)]; pipelines are deterministic and draw none. *)
  share : share;
  strategy : Rats_core.Rats.strategy;
      (** Baked into the tenant's requests; a RATS study arm replaces it
          on every request it submits. *)
}

val validate : t -> unit
(** Raises [Invalid_argument] on an empty name, [samples < 1], an invalid
    mix, arrival process or share range. *)
