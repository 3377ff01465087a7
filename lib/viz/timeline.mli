(** Trace timeline renderer.

    Draws a {!Rats_obs.Trace} event list as an SVG timeline: one horizontal
    lane per recording domain ([tid]), spans as colored boxes stacked by
    nesting depth, instants as vertical ticks. A coarse standalone
    complement to loading the Chrome JSON in Perfetto — good enough to eyeball
    worker balance and cache stalls straight from a bench run. *)

val render : ?title:string -> Rats_obs.Trace.event list -> Svg.t
(** Lanes appear in increasing [tid] order; events are colored by
    category. An empty event list still renders a (captioned) empty
    chart. *)
