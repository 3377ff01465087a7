(** Application vocabulary of the workload engine.

    A tenant submits jobs drawn from a weighted {!mix} of application
    {e templates}. Two template families exist:

    - the paper's generated suite ({!Rats_daggen.Suite}: layered,
      irregular, FFT, Strassen) — the trace compiler draws a sample index
      per job, so repeated picks of one template yield different DAGs of
      the same shape;
    - {b pipeline-shaped chains} (Benoit, Rehn-Sonigo & Robert's pipeline
      workflows, PAPERS.md): a linear chain of moldable stages whose
      computational weight alternates ([1×, 2×, 3×, 1×, …] of [flop]), so
      consecutive stages want {e different} processor counts and the chain
      is one long redistribution opportunity — the tenant class that
      stresses redistribution-aware mapping hardest. Pipelines are
      deterministic (no sample index).

    The conversion of an {!t} instance to a service request (including
    inline task/edge definitions for pipelines) lives in
    [Server.Load.request_of_job] — this library stays below the service
    layer. *)

module Suite := Rats_daggen.Suite

type pipeline = {
  stages : int;  (** Computation stages chained head to tail (≥ 1). *)
  data_elements : float;
      (** Dataset carried stage to stage, in double elements; each stage
          forwards [8·data_elements] bytes to the next. *)
  flop : float;  (** Base sequential work per stage (scaled per stage). *)
  alpha : float;  (** Amdahl non-parallelizable fraction of every stage. *)
}

val validate_pipeline : pipeline -> unit
(** Raises [Invalid_argument] on non-positive sizes or [alpha] outside
    [0, 1]. *)

val pipeline_task_params : pipeline -> (float * float * float) array
(** Per-stage [(data_elements, flop, alpha)] triples; stage [i]'s flop is
    [flop · (1 + i mod 3)]. *)

val pipeline_edges : pipeline -> (int * int * float) list
(** [(src, dst, bytes)] of the chain's stage-to-stage transfers. *)

(** {2 Templates and instances} *)

type template =
  | Suite_spec of Suite.spec  (** Sample index drawn per job. *)
  | Pipeline of pipeline

val template_name : template -> string

type t =
  | Generated of Suite.config  (** An instantiated suite application. *)
  | Chain of pipeline

val name : t -> string
(** Stable identifier: {!Rats_daggen.Suite.name} for suite apps,
    ["pipeline-s<stages>-m<MiElements>"] for chains. *)

(** {2 Weighted mixes} *)

type mix = (int * template) array
(** Positive integer weights. A uniform mix (all weights 1) consumes
    exactly one [Rng.int] draw of bound [Array.length mix] per pick —
    bit-compatible with the historical load generator's spec pool. *)

val validate_mix : mix -> unit
(** Raises [Invalid_argument] on an empty mix or a non-positive weight. *)

val pick : mix -> Rats_util.Rng.t -> template
(** Weighted draw: one [Rng.int] of bound [Σ weights], walked over the
    entries in order. *)
