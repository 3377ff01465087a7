type t = {
  width : float;
  height : float;
  mutable rev_elements : string list;
}

let create ~width ~height = { width; height; rev_elements = [] }

let push t e = t.rev_elements <- e :: t.rev_elements

let escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '<' -> Buffer.add_string buf "&lt;"
      | '>' -> Buffer.add_string buf "&gt;"
      | '&' -> Buffer.add_string buf "&amp;"
      | '"' -> Buffer.add_string buf "&quot;"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let rect t ~x ~y ~w ~h ?stroke ?(opacity = 1.) ~fill () =
  let stroke =
    match stroke with
    | Some s -> Printf.sprintf {| stroke="%s" stroke-width="0.5"|} s
    | None -> ""
  in
  push t
    (Printf.sprintf
       {|<rect x="%.2f" y="%.2f" width="%.2f" height="%.2f" fill="%s" fill-opacity="%.2f"%s/>|}
       x y w h fill opacity stroke)

let line t ~x1 ~y1 ~x2 ~y2 ?(width = 1.) ~stroke () =
  push t
    (Printf.sprintf
       {|<line x1="%.2f" y1="%.2f" x2="%.2f" y2="%.2f" stroke="%s" stroke-width="%.2f"/>|}
       x1 y1 x2 y2 stroke width)

let text t ~x ~y ?(size = 10.) ?(anchor = "start") ?(fill = "#222") s =
  push t
    (Printf.sprintf
       {|<text x="%.2f" y="%.2f" font-size="%.1f" font-family="sans-serif" text-anchor="%s" fill="%s">%s</text>|}
       x y size anchor fill (escape s))

let title t ~x ~y s = text t ~x ~y ~size:14. s

let to_string t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf
       {|<svg xmlns="http://www.w3.org/2000/svg" width="%.0f" height="%.0f" viewBox="0 0 %.0f %.0f">|}
       t.width t.height t.width t.height);
  Buffer.add_string buf "\n";
  List.iter
    (fun e ->
      Buffer.add_string buf e;
      Buffer.add_char buf '\n')
    (List.rev t.rev_elements);
  Buffer.add_string buf "</svg>\n";
  Buffer.contents buf

let save t path = Rats_obs.File.write_atomic path (to_string t)
