(** Minimal SVG document builder.

    Just enough vector drawing for the Gantt renderer: a growing list of
    shapes serialized into a standalone [.svg]. Coordinates are in user
    units (pixels); colors are any CSS color string. *)

type t

val create : width:float -> height:float -> t

val rect :
  t -> x:float -> y:float -> w:float -> h:float -> ?stroke:string ->
  ?opacity:float -> fill:string -> unit -> unit

val line :
  t -> x1:float -> y1:float -> x2:float -> y2:float -> ?width:float ->
  stroke:string -> unit -> unit

val text :
  t -> x:float -> y:float -> ?size:float -> ?anchor:string -> ?fill:string ->
  string -> unit
(** [anchor] is the SVG [text-anchor]: "start" (default), "middle", "end". *)

val title : t -> x:float -> y:float -> string -> unit
(** Convenience: 14-px bold-ish heading. *)

val to_string : t -> string

val save : t -> string -> unit
(** Writes the document to a file atomically
    ({!Rats_obs.File.write_atomic}). *)
