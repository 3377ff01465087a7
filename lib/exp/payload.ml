let hex = Printf.sprintf "%h"

let all_some items =
  if List.for_all Option.is_some items then Some (List.filter_map Fun.id items)
  else None

let parse_floats fields = all_some (List.map float_of_string_opt fields)

let floats values = String.concat " " (List.map hex values)

let to_floats payload = parse_floats (String.split_on_char ' ' payload)

let flagged flag values =
  String.concat " " (string_of_bool flag :: List.map hex values)

let to_flagged payload =
  match String.split_on_char ' ' payload with
  | flag :: fields -> (
      match (bool_of_string_opt flag, parse_floats fields) with
      | Some flag, Some values -> Some (flag, values)
      | _ -> None)
  | [] -> None

let row label values = String.concat "\t" (label :: List.map hex values)

let to_row payload =
  match String.split_on_char '\t' payload with
  | label :: fields ->
      Option.map (fun values -> (label, values)) (parse_floats fields)
  | [] -> None

let lines encode items = String.concat "\n" (List.map encode items)

let to_lines decode payload =
  all_some (List.map decode (String.split_on_char '\n' payload))

let key name ?(extra = []) cluster configs =
  Rats_runtime.Cache.key
    ((name :: Rats_platform.Cluster.signature cluster :: extra)
    @ List.map Rats_daggen.Suite.name configs)
